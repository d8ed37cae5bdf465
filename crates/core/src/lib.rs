//! Differential dataflow with shared arrangements: the paper's primary contribution.
//!
//! This crate implements the differential dataflow programming model on top of the
//! `kpg-dataflow` runtime and the `kpg-trace` arrangement storage:
//!
//! * [`Collection`] — a time-varying multiset of records, manipulated with functional
//!   operators (`map`, `filter`, `concat`, `negate`, `join`, `reduce`, `iterate`, ...).
//! * [`arrange`] — the **arrange** operator (paper §4): it exchanges,
//!   batches, and indexes a collection's updates, producing an [`Arranged`] stream of
//!   shared immutable batches plus a shared, compactly maintained multiversioned index
//!   (the *trace*). Arrangements are the unit of sharing: many operators, in the same or
//!   different dataflows, read one arrangement through [`TraceAgent`] handles.
//! * Batch-oriented operator shells (paper §5): [`join_core`](Arranged::join_core) with
//!   alternating seeks, [`reduce_core`](Arranged::reduce_core) with per-`(key, time)`
//!   future-work scheduling and a shared output arrangement,
//!   [`count`](Arranged::count) (by `count_total` in the streaming scope), and the
//!   `distinct`, `Collection::count`, `threshold`, `semijoin`, and `antijoin` shells
//!   built on them.
//! * [`iterate`](Collection::iterate) / [`Variable`] — fixed-point iteration with
//!   product-ordered timestamps (paper §5.4).
//!
//! The quickest way to see it all together is the reachability example from Figure 1 of
//! the paper, reproduced in `examples/quickstart.rs` of the workspace root.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod arrange;
pub mod catalog;
pub mod collection;
pub mod input;
pub mod iterate;
pub mod join;
pub mod operators;
pub mod reduce;

pub use arrange::{Arranged, TraceAgent};
pub use catalog::{AnyTrace, Catalog, CatalogError, QueryHandle, QueryLifecycle};
pub use collection::Collection;
pub use input::new_collection;
pub use iterate::Variable;

/// The difference type used by most collections.
pub type Diff = isize;

/// The prelude: everything a typical program needs.
pub mod prelude {
    pub use crate::arrange::{Arranged, KeyBatch, TraceAgent, ValBatch};
    pub use crate::catalog::{Catalog, CatalogError, QueryHandle, QueryLifecycle};
    pub use crate::collection::Collection;
    pub use crate::input::new_collection;
    pub use crate::iterate::Variable;
    pub use crate::Diff;
    pub use kpg_dataflow::{execute, Config, DataflowBuilder, InputHandle, ProbeHandle, Worker};
    pub use kpg_timestamp::Time;
    pub use kpg_trace::{MergeEffort, Multiply, Semigroup};
}
