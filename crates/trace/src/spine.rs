//! The spine: an LSM-like trace of immutable batches with amortized merging.
//!
//! A [`Spine`] is the index half of an arrangement (paper §4.2): an append-only logical
//! list of batches, physically maintained as a small number of layers by merging adjacent
//! batches of comparable size. Merges are *amortized*: each newly introduced batch
//! contributes a bounded amount of effort to every in-progress merge, so the worker thread
//! is never blocked on one large merge (the "Amortized trace maintenance" paragraph and
//! the Fig. 6e microbenchmark).
//!
//! **Who fuels a merge, and when.** Two sources, one loop ([`Spine::insert`] and
//! [`Spine::exert`] both end in the same private `maintain`):
//!
//! * *The insert that owes it.* Introducing a batch of `n` updates offers every
//!   in-progress merge `4n + 64` units ([`MergeEffort::Default`]; the paper's charging
//!   argument needs 2n). This alone completes every merge before its result is next
//!   needed, but it is paid inline, ahead of whatever query is waiting for the batch.
//! * *The idle worker.* A caller with nothing else to do hands [`Spine::exert`] a fuel
//!   budget — one budget across all layers, newest merge first — and learns whether a
//!   merge is still in progress. The server's workers do this whenever the log is dry
//!   and a merge is in progress, one bounded turn at a time (`Manager::idle_turn` →
//!   `Catalog::exert_all` → here), so with a few milliseconds between epochs most
//!   merges finish between them and the next insert finds nothing to fuel. A merge
//!   that completes early is also one batch fewer for every cursor to seek and frees
//!   its two sources sooner.
//!
//! Nothing else fuels a merge: a dataflow step that mints no batch spends nothing, so
//! merge work never lands on a query's settle unless an insert owed it.
//!
//! A fuel unit is one source update read by the merger; what it costs is the merger's
//! business (see [`crate::ord_batch::OrdValMerger`]: about 30 ns on `Row` keys in cache,
//! `BENCH_micro_spine_merge.json`). What no fuel accounts for is *dropping* a completed
//! merge's sources: a refcount decrement per key and value, 1.2–1.5 ms in one call for a
//! 33k-tuple `Row` batch whose last reader is the spine.
//!
//! The spine also tracks the *logical compaction frontier* (`since`): the lower bound of
//! all reader frontiers. Merges advance update times to this frontier and consolidate
//! updates that become indistinguishable, the analogue of MVCC vacuuming.
//!
//! **Who may merge what.** Beside `since`, the spine keeps one *physical compaction
//! frontier*: the meet of the holds its readers have set
//! ([`Spine::set_physical_compaction`]; a join holds each input's trace at the upper of
//! the batches it has acknowledged). A merge starts only when its newer batch's upper is
//! at or before that frontier, so no merge crosses a held boundary, and
//! [`Spine::cursor_through`] can lend, for any hold at or past the meet, exactly the
//! batches a reader has acknowledged: a prefix of the layers that ends at the hold.
//! Boundaries past the meet all stay unmerged, so one frontier serves every reader. A
//! spine that no reader holds has an empty frontier and merges as if there were none.
//! When the frontier moves, the merges it now allows are started, not fuelled: the next
//! insert or idle turn pays for them.

use crate::cursor::CursorList;
use crate::{Batch, Merger};
use kpg_timestamp::{Antichain, AntichainRef, Timestamp};

/// How much merge effort the spine applies per introduced batch.
///
/// The paper observes (§6.5, Fig. 6e) that eager merging trades latency for throughput,
/// while lazy merging keeps more batches open and shifts the latency distribution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MergeEffort {
    /// Complete every merge as soon as it is initiated.
    Eager,
    /// Apply a proportionality constant of four per introduced update.
    ///
    /// The paper's charging argument shows a constant of two suffices for merges to
    /// complete before their results are next required; we default to four to leave
    /// headroom for the per-key granularity of our mergers.
    Default,
    /// Apply a proportionality constant of one per introduced update.
    Lazy,
}

impl MergeEffort {
    /// The fuel an introduced batch of `batch_len` updates offers each in-progress merge.
    pub fn fuel_for(&self, batch_len: usize) -> isize {
        match self {
            MergeEffort::Eager => isize::MAX,
            MergeEffort::Default => (4 * batch_len + 64) as isize,
            MergeEffort::Lazy => (batch_len + 16) as isize,
        }
    }
}

enum Layer<B: Batch> {
    /// A settled batch.
    Single(B),
    /// Two abutting batches being merged, with the in-progress merger.
    Merging(B, B, B::Merger),
    /// Transient placeholder installed while a layer's contents are moved out by value.
    /// Never observable outside [`Spine::apply_fuel`] / [`Spine::consider_merges`]; it
    /// exists so extraction does not have to allocate an empty batch.
    Taken,
}

impl<B: Batch> Layer<B> {
    fn len(&self) -> usize {
        match self {
            Layer::Single(batch) => batch.len(),
            Layer::Merging(a, b, _) => a.len() + b.len(),
            Layer::Taken => unreachable!("transient layer observed"),
        }
    }
}

/// An LSM-like trace of immutable batches with amortized merging and logical compaction.
pub struct Spine<B: Batch> {
    /// Layers ordered from oldest (largest) to newest (smallest).
    layers: Vec<Layer<B>>,
    since: Antichain<B::Time>,
    /// The physical compaction frontier: no merge makes a batch whose upper is past it.
    /// Empty when no reader holds the spine.
    physical: Antichain<B::Time>,
    upper: Antichain<B::Time>,
    effort: MergeEffort,
    /// Count of updates ever introduced, for reporting.
    inserted: usize,
}

impl<B: Batch> Spine<B> {
    /// An empty spine with the given merge effort.
    pub fn new(effort: MergeEffort) -> Self {
        Spine {
            layers: Vec::new(),
            since: Antichain::from_elem(B::Time::minimum()),
            physical: Antichain::new(),
            upper: Antichain::from_elem(B::Time::minimum()),
            effort,
            inserted: 0,
        }
    }

    /// The logical compaction frontier: accumulations are correct only at times in
    /// advance of this frontier.
    pub fn since(&self) -> AntichainRef<'_, B::Time> {
        self.since.borrow()
    }

    /// The upper frontier of batches absorbed so far.
    pub fn upper(&self) -> AntichainRef<'_, B::Time> {
        self.upper.borrow()
    }

    /// The merge effort configuration.
    pub fn effort(&self) -> MergeEffort {
        self.effort
    }

    /// The number of physical layers currently held (settled or merging).
    pub fn layer_count(&self) -> usize {
        self.layers.len()
    }

    /// The number of physical batches currently held (a merging layer holds two).
    pub fn batch_count(&self) -> usize {
        self.layers
            .iter()
            .map(|l| match l {
                Layer::Single(_) => 1,
                Layer::Merging(..) => 2,
                Layer::Taken => unreachable!("transient layer observed"),
            })
            .sum()
    }

    /// The number of updates currently held across all batches.
    pub fn len(&self) -> usize {
        self.layers.iter().map(|l| l.len()).sum()
    }

    /// True iff the spine holds no updates.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The total number of updates ever inserted (before compaction).
    pub fn inserted(&self) -> usize {
        self.inserted
    }

    /// Applies `logic` to every batch, oldest first (a merging layer's two sources in
    /// order).
    pub fn map_batches<'a>(&'a self, mut logic: impl FnMut(&'a B)) {
        for layer in self.layers.iter() {
            match layer {
                Layer::Single(batch) => logic(batch),
                Layer::Merging(a, b, _) => {
                    logic(a);
                    logic(b);
                }
                Layer::Taken => unreachable!("transient layer observed"),
            }
        }
    }

    /// A cursor over the union of all batches in the spine: one batch cursor per
    /// batch, merged by a [`CursorList`].
    pub fn cursor(&self) -> CursorList<B::Cursor<'_>> {
        let mut cursors = Vec::with_capacity(self.layers.len() + 1);
        self.map_batches(|batch| cursors.push(batch.cursor()));
        CursorList::new(cursors)
    }

    /// A cursor over exactly the batches whose upper is at or before `frontier`: the
    /// batches a reader holding `frontier` has acknowledged. They are a prefix of the
    /// layers (a merging layer counts as its two sources), and `frontier` must be a batch
    /// boundary — the spine's lower, an upper the spine has absorbed, never one a merge
    /// has since crossed — which the physical frontier guarantees for every hold at or
    /// past it.
    pub fn cursor_through(&self, frontier: AntichainRef<'_, B::Time>) -> CursorList<B::Cursor<'_>> {
        let mut cursors = Vec::with_capacity(self.layers.len() + 1);
        let mut last_upper = None;
        self.map_batches(|batch| {
            let upper = batch.description().upper();
            if frontier.iter().all(|time| upper.less_equal(time)) {
                cursors.push(batch.cursor());
                last_upper = Some(upper);
            }
        });
        debug_assert!(
            match last_upper {
                Some(upper) => upper.same_as(&frontier.to_owned()),
                None => frontier.elements() == [B::Time::minimum()],
            },
            "read through {frontier:?} ends at {last_upper:?}, not at a batch boundary",
        );
        CursorList::new(cursors)
    }

    /// Sets the physical compaction frontier: the meet of every reader's hold, or the
    /// empty frontier when no reader holds the spine. Starts (without fuelling) the merges
    /// the new frontier allows.
    pub fn set_physical_compaction(&mut self, frontier: AntichainRef<'_, B::Time>) {
        self.physical = frontier.to_owned();
        self.consider_merges();
    }

    /// Advances the logical compaction frontier.
    ///
    /// The caller (the arrangement's trace-handle bookkeeping) must pass the lower bound
    /// of all reader frontiers; future merges will advance times to this frontier and
    /// consolidate. The frontier may only advance.
    pub fn set_logical_compaction(&mut self, frontier: AntichainRef<'_, B::Time>) {
        debug_assert!(
            frontier.iter().all(|t| self.since.less_equal(t)) || self.since.is_empty(),
            "logical compaction frontier may only advance: {:?} -> {:?}",
            self.since,
            frontier.elements(),
        );
        self.since = frontier.to_owned();
    }

    /// Inserts a batch. The batch's lower frontier must equal the spine's current upper.
    pub fn insert(&mut self, batch: B) {
        assert!(
            batch.description().lower().same_as(&self.upper),
            "batch must abut the spine: batch.lower = {:?}, spine.upper = {:?}",
            batch.description().lower(),
            self.upper,
        );
        self.upper = batch.description().upper().clone();
        self.inserted += batch.len();
        let per_merge = self.effort.fuel_for(batch.len());
        self.layers.push(Layer::Single(batch));
        let mut unbounded = isize::MAX;
        self.maintain(per_merge, &mut unbounded);
    }

    /// Spends up to `fuel` units of merge work on in-progress merges while otherwise
    /// idle, newest (smallest) merge first — the one nearest completion, and each
    /// completion is one batch fewer for every cursor to seek. `fuel` is one budget
    /// shared by all layers and is decremented by the work done, so a caller can bound
    /// a turn across many spines. Returns true iff a merge is still in progress; with
    /// none in progress the call is a scan of the layer tags.
    pub fn exert(&mut self, fuel: &mut isize) -> bool {
        if self.merging() {
            self.maintain(isize::MAX, fuel);
        }
        self.merging()
    }

    fn merging(&self) -> bool {
        self.layers
            .iter()
            .any(|layer| matches!(layer, Layer::Merging(..)))
    }

    /// Starts eligible merges and fuels in-progress ones, looping while completions make
    /// further merges eligible. This single path serves every caller: each in-progress
    /// merge is offered `per_merge` units, the offers together at most `budget`, which
    /// is left decremented by the work done. An insert bounds the former (by its effort
    /// level: `Eager` is unbounded, so the loop drives all merges, including
    /// transitively enabled ones, to completion), an idle turn the latter; the loop
    /// stops as soon as a fuel application completes nothing or the budget is spent,
    /// always after a last look for merges to start.
    fn maintain(&mut self, per_merge: isize, budget: &mut isize) {
        loop {
            self.consider_merges();
            if *budget <= 0 || !self.apply_fuel(per_merge, budget) {
                break;
            }
        }
    }

    /// Offers every in-progress merge its fuel, newest first; installs completed
    /// merges. Returns true iff at least one merge completed.
    fn apply_fuel(&mut self, per_merge: isize, budget: &mut isize) -> bool {
        let mut completed = false;
        for layer in self.layers.iter_mut().rev() {
            if *budget <= 0 {
                break;
            }
            if let Layer::Merging(a, b, merger) = layer {
                let offered = per_merge.min(*budget);
                let mut fuel = offered;
                merger.work(a, b, &mut fuel);
                *budget -= offered - fuel;
                if merger.is_complete() {
                    // Move the merge out by value (no placeholder batch allocation) and
                    // install the merged result.
                    let Layer::Merging(a, b, merger) = std::mem::replace(layer, Layer::Taken)
                    else {
                        unreachable!("layer changed variant underfoot");
                    };
                    *layer = Layer::Single(merger.done(&a, &b));
                    completed = true;
                }
            }
        }
        completed
    }

    /// Starts merges between adjacent settled layers of comparable size.
    ///
    /// Scans newest to oldest; a merge is started when the older neighbour is at most
    /// twice the size of the newer layer, which keeps the number of layers logarithmic in
    /// the number of distinct updates, and the newer layer's upper is at or before the
    /// physical frontier, so no held boundary is merged away. Merges only *start* here;
    /// all completion goes through [`Spine::apply_fuel`].
    fn consider_merges(&mut self) {
        let mut changed = true;
        while changed {
            changed = false;
            let mut index = self.layers.len();
            while index >= 2 {
                index -= 1;
                let older = index - 1;
                let start_merge = match (&self.layers[older], &self.layers[index]) {
                    (Layer::Single(a), Layer::Single(b)) => {
                        a.len() <= 2 * b.len().max(1)
                            && b.description().upper().dominates(&self.physical)
                    }
                    _ => false,
                };
                if start_merge {
                    let newer_layer = self.layers.remove(index);
                    let older_layer = std::mem::replace(&mut self.layers[older], Layer::Taken);
                    let (Layer::Single(a), Layer::Single(b)) = (older_layer, newer_layer) else {
                        unreachable!("layer changed variant underfoot");
                    };
                    let merger = a.begin_merge(&b, self.since.borrow());
                    self.layers[older] = Layer::Merging(a, b, merger);
                    changed = true;
                    // After restructuring, restart the scan from the end.
                    break;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cursor::{cursor_to_updates, Cursor};
    use crate::ord_batch::{OrdValBatch, OrdValBuilder};
    use crate::{BatchReader, Builder};

    type TestBatch = OrdValBatch<u64, u64, u64, isize>;

    fn batch(lower: u64, upper: u64, updates: Vec<(u64, u64, u64, isize)>) -> TestBatch {
        let mut builder = OrdValBuilder::with_capacity(updates.len());
        for (k, v, t, r) in updates {
            builder.push(k, v, t, r);
        }
        builder.done(
            Antichain::from_elem(lower),
            Antichain::from_elem(upper),
            Antichain::from_elem(0),
        )
    }

    #[test]
    fn spine_accumulates_batches() {
        let mut spine = Spine::new(MergeEffort::Default);
        spine.insert(batch(0, 1, vec![(1, 10, 0, 1), (2, 20, 0, 1)]));
        spine.insert(batch(1, 2, vec![(1, 10, 1, -1), (3, 30, 1, 1)]));
        let mut cursor = spine.cursor();
        let mut updates = cursor_to_updates(&mut cursor);
        updates.sort();
        assert_eq!(
            updates,
            vec![(1, 10, 0, 1), (1, 10, 1, -1), (2, 20, 0, 1), (3, 30, 1, 1),]
        );
        assert_eq!(spine.len(), 4);
        assert_eq!(spine.upper().elements(), &[2]);
    }

    #[test]
    #[should_panic(expected = "abut")]
    fn spine_rejects_gaps() {
        let mut spine = Spine::new(MergeEffort::Default);
        spine.insert(batch(1, 2, vec![(1, 1, 1, 1)]));
    }

    #[test]
    fn spine_keeps_few_layers() {
        let mut spine = Spine::new(MergeEffort::Eager);
        for epoch in 0..256u64 {
            spine.insert(batch(epoch, epoch + 1, vec![(epoch % 16, epoch, epoch, 1)]));
        }
        assert_eq!(spine.len(), 256);
        // Eager merging keeps the layer count logarithmic; allow generous slack.
        assert!(
            spine.layer_count() <= 12,
            "expected few layers, got {}",
            spine.layer_count()
        );
    }

    #[test]
    fn spine_amortized_merging_eventually_settles() {
        let mut spine = Spine::new(MergeEffort::Lazy);
        for epoch in 0..128u64 {
            let updates = (0..32).map(|val| (epoch % 8, val, epoch, 1)).collect();
            spine.insert(batch(epoch, epoch + 1, updates));
        }
        // Drive outstanding merges to completion with idle effort, a slice at a time.
        let mut turns = 0;
        while spine.exert(&mut 16) {
            turns += 1;
        }
        assert!(turns > 1, "lazy merging should leave idle work");
        assert_eq!(spine.len(), 128 * 32);
        assert!(
            spine.layer_count() <= 12,
            "expected merges to settle, got {} layers",
            spine.layer_count()
        );
    }

    #[test]
    fn spine_compaction_consolidates_history() {
        let mut spine = Spine::new(MergeEffort::Eager);
        // Key 1 value 10 is inserted and removed across epochs; key 2 persists.
        spine.insert(batch(0, 1, vec![(1, 10, 0, 1), (2, 20, 0, 1)]));
        spine.insert(batch(1, 2, vec![(1, 10, 1, -1)]));
        spine.set_logical_compaction(AntichainRef::new(&[2u64]));
        // Insert more batches so merges (with compaction) occur.
        spine.insert(batch(2, 3, vec![(3, 30, 2, 1)]));
        spine.insert(batch(3, 4, vec![(4, 40, 3, 1)]));
        spine.insert(batch(4, 5, vec![(5, 50, 4, 1)]));
        let mut fuel = isize::MAX;
        assert!(!spine.exert(&mut fuel));
        // After compaction to time 2, the +1/-1 history of (1,10) cancels entirely.
        let mut cursor = spine.cursor();
        cursor.seek_key(&1);
        let mut found = false;
        if cursor.key_valid() && *cursor.key() == 1 {
            cursor.map_times(|_, _| found = true);
        }
        assert!(!found, "cancelled history should vanish after compaction");
        // Other keys are still present with their full weight.
        let mut cursor = spine.cursor();
        cursor.seek_key(&2);
        assert_eq!(*cursor.key(), 2);
        assert_eq!(cursor.accumulate_until(&10), Some(1));
    }

    fn temp_run_dir(tag: &str) -> std::path::PathBuf {
        use kpg_sync::atomic::{AtomicU64, Ordering};
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let unique = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("kpg-spine-{tag}-{}-{unique}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Rebuilds `spine` from its batches, each spilled to a run file and materialized.
    fn respill(spine: &Spine<TestBatch>, dir: &std::path::Path) -> Spine<TestBatch> {
        let mut restored = Spine::new(spine.effort());
        let mut spilled = 0usize;
        spine.map_batches(|batch| {
            let path = dir.join(format!("layer-{spilled}.run"));
            let stored = crate::spill_batch(batch, &path).unwrap();
            restored.insert(stored.materialize().unwrap());
            spilled += 1;
        });
        assert!(spilled >= 1, "expected at least one spilled batch");
        restored
    }

    #[test]
    fn spilled_layers_answer_like_memory() {
        let mut spine = Spine::new(MergeEffort::Lazy);
        for epoch in 0..32u64 {
            spine.insert(batch(
                epoch,
                epoch + 1,
                vec![(epoch % 8, epoch, epoch, 1), (100 + epoch, 7, epoch, 1)],
            ));
        }
        let mut fuel = isize::MAX;
        assert!(!spine.exert(&mut fuel));
        let mut expected = cursor_to_updates(&mut spine.cursor());
        expected.sort();

        let dir = temp_run_dir("answers");
        let restored = respill(&spine, &dir);
        assert_eq!(restored.len(), 64);
        assert_eq!(restored.upper().elements(), spine.upper().elements());

        let mut observed = cursor_to_updates(&mut restored.cursor());
        observed.sort();
        assert_eq!(observed, expected);

        // Seeks work across layers that went through the codec too.
        let mut cursor = restored.cursor();
        cursor.seek_key(&107);
        assert!(cursor.key_valid());
        assert_eq!(*cursor.key(), 107);
        assert_eq!(cursor.accumulate_until(&100), Some(1));

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn spine_accepts_inserts_after_spilling() {
        let dir = temp_run_dir("grow");
        let mut spine = Spine::new(MergeEffort::Eager);
        spine.insert(batch(0, 1, vec![(1, 10, 0, 1), (2, 20, 0, 1)]));
        let mut spine = respill(&spine, &dir);
        spine.insert(batch(1, 2, vec![(1, 10, 1, -1), (3, 30, 1, 1)]));
        let mut observed = cursor_to_updates(&mut spine.cursor());
        observed.sort();
        assert_eq!(
            observed,
            vec![(1, 10, 0, 1), (1, 10, 1, -1), (2, 20, 0, 1), (3, 30, 1, 1)]
        );
        let mut total = 0;
        spine.map_batches(|batch| total += batch.len());
        assert_eq!(total, 4);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn spine_handles_empty_batches() {
        let mut spine = Spine::new(MergeEffort::Default);
        spine.insert(batch(0, 1, vec![(1, 1, 0, 1)]));
        for epoch in 1..50u64 {
            spine.insert(batch(epoch, epoch + 1, vec![]));
        }
        assert_eq!(spine.len(), 1);
        assert_eq!(spine.upper().elements(), &[50]);
        assert!(spine.layer_count() <= 4);
    }
}
