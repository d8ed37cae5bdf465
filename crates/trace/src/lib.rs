//! Collection traces: the shared, multiversioned indices behind arrangements.
//!
//! A *collection trace* (paper §4.1) is the set of update triples `(data, time, diff)`
//! that define a collection at any time `t` by accumulating the diffs of updates whose
//! times are `<= t`. This crate commits to the paper's representation of a trace as an
//! append-only logical list of **immutable indexed batches**, physically maintained by an
//! LSM-like [`Spine`] that merges batches of comparable size with a
//! configurable, *amortized* amount of effort per introduced batch (§4.2).
//!
//! The pieces:
//!
//! * [`Description`] — the `lower`/`upper`/`since` frontiers
//!   that make a batch self-describing.
//! * [`OrdValBatch`] — the one batch implementation: immutable,
//!   indexed by key, then value, each value carrying its `(time, diff)` history.
//!   [`OrdKeyBatch`], for collections whose records are just
//!   keys, is an alias for it at `V = ()`.
//! * [`consolidation`] — the one sort/coalesce/drop-zero kernel that builders, merge-time
//!   compaction and the public `consolidate*` functions all call.
//! * [`Cursor`] and [`CursorList`] — navigation over
//!   one batch or the union of many, handing out keys and values borrowed from the batch.
//! * [`Spine`] — the amortized-merging trace, with logical compaction
//!   driven by reader frontiers (MVCC-style "vacuuming", §4.2 "Consolidation") and
//!   physical compaction held back at the batch boundaries its readers read through.
//! * [`stored`] — the batch ⇄ `kpg_store` run-file codec ([`spill_batch`], [`StoreData`]).
//! * [`Semigroup`]/[`Abelian`]/[`Multiply`] — the algebra
//!   required of the `diff` component.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod consolidation;
pub mod cursor;
pub mod description;
pub mod diff;
pub mod ord_batch;
pub mod spine;
pub mod stored;

pub use consolidation::{consolidate, consolidate_updates};
pub use cursor::{Cursor, CursorList};
pub use description::Description;
pub use diff::{Abelian, Multiply, Semigroup};
pub use ord_batch::{OrdKeyBatch, OrdValBatch};
pub use spine::{MergeEffort, Spine};
pub use stored::{spill_batch, StoreData, StoredLayer};

use kpg_timestamp::{Antichain, AntichainRef, Lattice, Timestamp};

/// The requirements on data (keys and values) stored in traces.
///
/// `Ord` drives the sorted batch layout, `Hash` drives exchange routing, and
/// `Send + Sync + 'static` lets update buffers and shared batches cross worker channels.
pub trait Data: Clone + Ord + std::hash::Hash + std::fmt::Debug + Send + Sync + 'static {}
impl<T: Clone + Ord + std::hash::Hash + std::fmt::Debug + Send + Sync + 'static> Data for T {}

/// An immutable, navigable batch of update triples.
///
/// Batches are `Send` so that (reference-counted) batch handles can travel along dataflow
/// channels; the underlying storage is immutable and shared.
pub trait BatchReader: Clone + Send + 'static {
    /// The key component of updates.
    type Key: Data;
    /// The value component of updates.
    type Val: Data;
    /// The timestamp component of updates.
    type Time: Timestamp + Lattice;
    /// The difference component of updates.
    type Diff: Semigroup;
    /// The cursor type navigating this batch, borrowing it for `'b`.
    type Cursor<'b>: Cursor<
        'b,
        Key = Self::Key,
        Val = Self::Val,
        Time = Self::Time,
        Diff = Self::Diff,
    >;

    /// A cursor positioned at the first key of the batch.
    fn cursor(&self) -> Self::Cursor<'_>;
    /// The number of updates in the batch.
    fn len(&self) -> usize;
    /// True iff the batch contains no updates.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// The batch's description: its lower/upper time bounds and compaction frontier.
    fn description(&self) -> &Description<Self::Time>;
    /// The lower frontier of times contained in the batch.
    fn lower(&self) -> AntichainRef<'_, Self::Time> {
        self.description().lower().borrow()
    }
    /// The upper frontier of times contained in the batch.
    fn upper(&self) -> AntichainRef<'_, Self::Time> {
        self.description().upper().borrow()
    }
}

/// A batch that can be built from updates and merged with other batches.
pub trait Batch: BatchReader {
    /// The builder type producing batches of this type.
    type Builder: Builder<
        Key = Self::Key,
        Val = Self::Val,
        Time = Self::Time,
        Diff = Self::Diff,
        Output = Self,
    >;
    /// The (fuel-based, resumable) merger type for batches of this type.
    type Merger: Merger<Self>;

    /// An empty batch covering the time interval `[lower, upper)`.
    fn empty(
        lower: Antichain<Self::Time>,
        upper: Antichain<Self::Time>,
        since: Antichain<Self::Time>,
    ) -> Self;

    /// Begins a merge of `self` with `other`, compacting times to `since`.
    ///
    /// The two batches must abut: `self.upper() == other.lower()`.
    fn begin_merge(&self, other: &Self, since: AntichainRef<'_, Self::Time>) -> Self::Merger;
}

/// Builds batches from (possibly unsorted, unconsolidated) update tuples.
pub trait Builder: Default {
    /// The key component of updates.
    type Key: Data;
    /// The value component of updates.
    type Val: Data;
    /// The timestamp component of updates.
    type Time: Timestamp + Lattice;
    /// The difference component of updates.
    type Diff: Semigroup;
    /// The batch type produced.
    type Output;

    /// A builder expecting roughly `capacity` updates.
    fn with_capacity(capacity: usize) -> Self;
    /// Adds one update tuple.
    fn push(&mut self, key: Self::Key, val: Self::Val, time: Self::Time, diff: Self::Diff);
    /// Finishes the batch, sorting and consolidating the buffered updates.
    fn done(
        self,
        lower: Antichain<Self::Time>,
        upper: Antichain<Self::Time>,
        since: Antichain<Self::Time>,
    ) -> Self::Output;
}

/// An in-progress merge of two batches that can be advanced with bounded effort.
///
/// The paper's amortized trace maintenance (§4.2) requires merges that can be paused and
/// resumed: each newly introduced batch contributes effort proportional to its size to
/// all in-progress merges, so a worker is never blocked on one large merge.
pub trait Merger<B: BatchReader> {
    /// Performs at most `fuel` units of merge work, decrementing `fuel` by the work done.
    ///
    /// When the merge completes, remaining fuel is left untouched and subsequent calls do
    /// nothing.
    fn work(&mut self, source1: &B, source2: &B, fuel: &mut isize);
    /// True iff the merge has completed.
    fn is_complete(&self) -> bool;
    /// Extracts the merged batch; panics if the merge is not complete.
    fn done(self, source1: &B, source2: &B) -> B;
}
