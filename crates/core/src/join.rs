//! The join operator shell: bilinear joins over shared arrangements (paper §5.3.1).
//!
//! The operator receives batches from two arranged inputs and responds to each batch by
//! navigating the *other* input's shared trace with alternating seeks, producing output
//! changes `(logic(k, v1, v2), t1 ∨ t2, r1 · r2)`. It never builds its own index: both
//! indices are the shared arrangements, which is exactly the economy the paper's
//! motivating example relies on. Nor does it copy from them: a trace is read through a
//! scoped [`TraceAgent::read`], and keys, values and histories are borrowed from the
//! batches in place, so the join clones only what `logic` builds.

use std::marker::PhantomData;

use kpg_dataflow::operator::{downcast_payload, BundleBox, Operator, OutputContext};
use kpg_dataflow::Time;
use kpg_timestamp::{Antichain, Lattice};
use kpg_trace::{Abelian, Batch, Cursor, Data, Multiply, Semigroup};

use crate::arrange::{Arranged, KeyBatch, TraceAgent, ValBatch};
use crate::collection::Collection;
use crate::operators::UpdateVec;
use crate::Diff;

/// Joins two cursors over the same key space, invoking `emit` for every matching
/// `(key, val1, val2, time1, diff1, time2, diff2)` combination.
///
/// Work is at most linear in the smaller of the two cursors thanks to alternating seeks:
/// whichever cursor holds the smaller key seeks forward to the other's key rather than
/// scanning (paper §5.3.1, "Alternating seeks"). Keys, values and histories are read in
/// place: a cursor's key borrows its batch, not the cursor, so it can be the other
/// cursor's seek target, and the two histories are walked by nested `map_times`.
pub(crate) fn join_cursors<'a, 'b, C1, C2>(
    mut cursor1: C1,
    mut cursor2: C2,
    mut emit: impl FnMut(&C1::Key, &C1::Val, &C2::Val, &Time, &C1::Diff, &Time, &C2::Diff),
) where
    C1: Cursor<'a, Time = Time>,
    C2: Cursor<'b, Key = C1::Key, Time = Time>,
{
    while cursor1.key_valid() && cursor2.key_valid() {
        match cursor1.key().cmp(cursor2.key()) {
            std::cmp::Ordering::Less => cursor1.seek_key(cursor2.key()),
            std::cmp::Ordering::Greater => cursor2.seek_key(cursor1.key()),
            std::cmp::Ordering::Equal => {
                let key = cursor1.key();
                cursor1.rewind_vals();
                while cursor1.val_valid() {
                    let val1 = cursor1.val();
                    cursor2.rewind_vals();
                    while cursor2.val_valid() {
                        let val2 = cursor2.val();
                        cursor1.map_times(|t1, r1| {
                            cursor2.map_times(|t2, r2| emit(key, val1, val2, t1, r1, t2, r2));
                        });
                        cursor2.step_val();
                    }
                    cursor1.step_val();
                }
                cursor1.step_key();
                cursor2.step_key();
            }
        }
    }
}

/// The join operator shell: port 0 carries batches of the first arrangement, port 1
/// batches of the second. Both shared traces are read through [`TraceAgent`] handles.
struct JoinOperator<B1, B2, D, L>
where
    B1: Batch<Time = Time>,
    B2: Batch<Time = Time, Key = B1::Key>,
    B1::Diff: Multiply<B2::Diff>,
    <B1::Diff as Multiply<B2::Diff>>::Output: Semigroup,
    L: FnMut(&B1::Key, &B1::Val, &B2::Val) -> D,
{
    logic: L,
    trace1: Option<TraceAgent<B1>>,
    trace2: Option<TraceAgent<B2>>,
    queue1: Vec<B1>,
    queue2: Vec<B2>,
    frontier1: Antichain<Time>,
    frontier2: Antichain<Time>,
    /// Reusable scratch for the staged output updates; its capacity persists across
    /// `work` calls.
    results: UpdateVec<D, <B1::Diff as Multiply<B2::Diff>>::Output>,
    _marker: PhantomData<D>,
}

impl<B1, B2, D, L> Operator for JoinOperator<B1, B2, D, L>
where
    B1: Batch<Time = Time> + 'static,
    B2: Batch<Time = Time, Key = B1::Key> + 'static,
    D: Data,
    B1::Diff: Multiply<B2::Diff>,
    <B1::Diff as Multiply<B2::Diff>>::Output: Semigroup + Abelian,
    L: FnMut(&B1::Key, &B1::Val, &B2::Val) -> D + 'static,
{
    fn name(&self) -> &str {
        "Join"
    }

    fn recv(&mut self, port: usize, payload: BundleBox) {
        match port {
            0 => self.queue1.push(downcast_payload::<B1>(payload, "Join")),
            1 => self.queue2.push(downcast_payload::<B2>(payload, "Join")),
            _ => unreachable!("join has two input ports"),
        }
    }

    fn work(&mut self, output: &mut OutputContext<'_>) -> bool {
        if self.queue1.is_empty() && self.queue2.is_empty() {
            return false;
        }
        let new1 = std::mem::take(&mut self.queue1);
        let new2 = std::mem::take(&mut self.queue2);

        // Borrow the scratch buffer and the logic closure as disjoint fields so the
        // emit closures below can capture them while the traces stay borrowed.
        let Self {
            logic,
            trace1,
            trace2,
            results,
            ..
        } = self;
        debug_assert!(results.is_empty());
        // Emissions can outnumber the distinct outputs by far (a key with n values on
        // each side emits n² pairs), so `results` is consolidated whenever it reaches
        // `limit`, which then at least doubles what survived: amortised O(n log n), and
        // `results` never holds more than max(64k, 2 × distinct outputs) updates.
        let mut limit = 1 << 16;
        let mut push = |update| {
            results.push(update);
            if results.len() >= limit {
                kpg_trace::consolidate_updates(results);
                limit = limit.max(2 * results.len());
            }
        };

        // New batches from input 1 joined against the full shared trace of input 2.
        if let Some(trace2) = trace2.as_ref() {
            for batch in new1.iter() {
                trace2.read(|cursor2| {
                    join_cursors(batch.cursor(), cursor2, |k, v1, v2, t1, r1, t2, r2| {
                        push((logic(k, v1, v2), t1.join(t2), r1.multiply(r2)));
                    });
                });
            }
        }
        // New batches from input 2 joined against the full shared trace of input 1.
        if let Some(trace1) = trace1.as_ref() {
            for batch in new2.iter() {
                trace1.read(|cursor1| {
                    join_cursors(cursor1, batch.cursor(), |k, v1, v2, t1, r1, t2, r2| {
                        push((logic(k, v1, v2), t1.join(t2), r1.multiply(r2)));
                    });
                });
            }
        }
        // Both traces already contain the concurrently arrived batches, so the
        // new1 × new2 combinations were produced twice; subtract one copy.
        for batch1 in new1.iter() {
            for batch2 in new2.iter() {
                join_cursors(
                    batch1.cursor(),
                    batch2.cursor(),
                    |k, v1, v2, t1, r1, t2, r2| {
                        let mut diff = r1.multiply(r2);
                        diff.negate();
                        push((logic(k, v1, v2), t1.join(t2), diff));
                    },
                );
            }
        }

        kpg_trace::consolidate_updates(results);
        let produced = !results.is_empty();
        if produced {
            // Drain into an exactly-sized payload; the scratch keeps its capacity
            // (`mem::take`, clippy's preference, would surrender it every call).
            #[allow(clippy::drain_collect)]
            let payload: UpdateVec<D, _> = results.drain(..).collect();
            output.send(Box::new(payload));
        }

        // Let the traces compact up to the opposing input's frontier, and release a trace
        // entirely once the opposing input can no longer change (paper: "Trace
        // capabilities").
        if let Some(trace1) = self.trace1.as_mut() {
            trace1.set_logical_compaction(self.frontier2.borrow());
        }
        if let Some(trace2) = self.trace2.as_mut() {
            trace2.set_logical_compaction(self.frontier1.borrow());
        }
        if self.frontier2.is_empty() && self.queue2.is_empty() {
            self.trace1 = None;
        }
        if self.frontier1.is_empty() && self.queue1.is_empty() {
            self.trace2 = None;
        }

        produced || !new1.is_empty() || !new2.is_empty()
    }

    fn set_frontier(&mut self, port: usize, frontier: &Antichain<Time>) {
        match port {
            0 => self.frontier1 = frontier.clone(),
            1 => self.frontier2 = frontier.clone(),
            _ => unreachable!(),
        }
    }

    fn capabilities(&self, into: &mut Antichain<Time>) {
        // Queued batches are processed (and their outputs emitted) before the next
        // frontier advancement, but their times must remain claimable until then.
        for batch in self.queue1.iter() {
            for time in batch.description().lower().elements() {
                into.insert(*time);
            }
        }
        for batch in self.queue2.iter() {
            for time in batch.description().lower().elements() {
                into.insert(*time);
            }
        }
    }
}

impl<B1: Batch<Time = Time> + 'static> Arranged<B1> {
    /// Joins this arrangement with another, applying `logic` to every matching
    /// `(key, val1, val2)` triple.
    ///
    /// Both arrangements are read through shared trace handles; this operator maintains
    /// no state of its own beyond queued input batches.
    pub fn join_core<B2, D, L>(
        &self,
        other: &Arranged<B2>,
        logic: L,
    ) -> Collection<D, <B1::Diff as Multiply<B2::Diff>>::Output>
    where
        B2: Batch<Time = Time, Key = B1::Key> + 'static,
        D: Data,
        B1::Diff: Multiply<B2::Diff>,
        <B1::Diff as Multiply<B2::Diff>>::Output: Semigroup + Abelian,
        L: FnMut(&B1::Key, &B1::Val, &B2::Val) -> D + 'static,
    {
        let mut builder = self.builder.clone();
        let operator = JoinOperator::<B1, B2, D, L> {
            logic,
            trace1: Some(self.trace.clone()),
            trace2: Some(other.trace.clone()),
            queue1: Vec::new(),
            queue2: Vec::new(),
            frontier1: Antichain::from_elem(Time::minimum()),
            frontier2: Antichain::from_elem(Time::minimum()),
            results: Vec::new(),
            _marker: PhantomData,
        };
        let node = builder.add_operator(Box::new(operator), 2);
        builder.connect(self.node, node, 0);
        builder.connect(other.node, node, 1);
        Collection::from_node(builder, node, self.depth.max(other.depth))
    }
}

impl<K: Data, V: Data, R: Semigroup> Collection<(K, V), R> {
    /// Joins with another keyed collection, producing `(key, (val1, val2))`.
    pub fn join<V2: Data, R2: Semigroup>(
        &self,
        other: &Collection<(K, V2), R2>,
    ) -> Collection<(K, (V, V2)), <R as Multiply<R2>>::Output>
    where
        R: Multiply<R2>,
        <R as Multiply<R2>>::Output: Semigroup + Abelian,
    {
        self.join_map(other, |k, v1, v2| (k.clone(), (v1.clone(), v2.clone())))
    }

    /// Joins with another keyed collection, applying `logic` to every match.
    pub fn join_map<V2: Data, R2: Semigroup, D: Data>(
        &self,
        other: &Collection<(K, V2), R2>,
        logic: impl FnMut(&K, &V, &V2) -> D + 'static,
    ) -> Collection<D, <R as Multiply<R2>>::Output>
    where
        R: Multiply<R2>,
        <R as Multiply<R2>>::Output: Semigroup + Abelian,
    {
        let arranged1: Arranged<ValBatch<K, V, R>> = self.arrange_by_key();
        let arranged2: Arranged<ValBatch<K, V2, R2>> = other.arrange_by_key();
        arranged1.join_core(&arranged2, logic)
    }

    /// Restricts this collection to keys present in `other`.
    pub fn semijoin<R2: Semigroup>(
        &self,
        other: &Collection<K, R2>,
    ) -> Collection<(K, V), <R as Multiply<R2>>::Output>
    where
        R: Multiply<R2>,
        <R as Multiply<R2>>::Output: Semigroup + Abelian,
    {
        let arranged1: Arranged<ValBatch<K, V, R>> = self.arrange_by_key();
        let arranged2: Arranged<KeyBatch<K, R2>> = other.arrange_by_self();
        arranged1.join_core(&arranged2, |k, v, ()| (k.clone(), v.clone()))
    }
}

impl<K: Data, V: Data> Collection<(K, V), Diff> {
    /// Restricts this collection to keys *absent* from `other`.
    ///
    /// `other` must contain each key at most once (e.g. the output of `distinct`).
    pub fn antijoin(&self, other: &Collection<K, Diff>) -> Collection<(K, V), Diff> {
        self.concat(&self.semijoin(other).negate())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrange::ValBatch;
    use kpg_trace::{BatchReader, Builder};

    fn batch(keys: u64, vals: u64) -> ValBatch<u64, u64, Diff> {
        let mut builder = <ValBatch<u64, u64, Diff> as Batch>::Builder::with_capacity(0);
        for key in 0..keys {
            for val in 0..vals {
                builder.push(key, val, Time::minimum(), 1);
                builder.push(key, val, Time::from_epoch(1), 1);
            }
        }
        builder.done(
            Antichain::from_elem(Time::minimum()),
            Antichain::from_elem(Time::from_epoch(2)),
            Antichain::from_elem(Time::minimum()),
        )
    }

    /// Every matching key pairs every value of one side with every value of the
    /// other, and every time of one history with every time of the other; a cursor
    /// pair is a read, so joining the same batches again emits the same matches.
    #[test]
    fn join_cursors_emits_every_time_pair() {
        let batch1 = batch(64, 3);
        let batch2 = batch(48, 4);
        let matches = || {
            let mut matches = 0usize;
            join_cursors(batch1.cursor(), batch2.cursor(), |_, _, _, _, _, _, _| {
                matches += 1;
            });
            matches
        };
        // 48 shared keys × (3 × 4) value pairs × (2 × 2) time pairs.
        assert_eq!(matches(), 48 * 12 * 4);
        assert_eq!(matches(), matches());
    }
}
