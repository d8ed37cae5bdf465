//! The group/reduce operator shell and its specialisations (paper §5.3.2).
//!
//! `reduce` receives batches from an arranged input and, for every `(key, time)` at which
//! its output might change, re-forms the input for that key at that time, applies the
//! user's reduction function, and subtracts the previously produced output to emit only
//! corrective updates. Because the least upper bound of two partially ordered times need
//! not be one of them, the operator tracks a list of future `(key, time)` pairs at which
//! it must re-evaluate even without new input for that key.
//!
//! The operator keeps its own output in a shared arrangement, both to avoid re-invoking
//! user logic over historical output and so downstream operators (most commonly a `join`
//! on the same key) can reuse that index directly ("Output arrangements").
//!
//! # Evaluation order
//!
//! One `work` invocation evaluates every pending pair whose time the input frontier has
//! passed, in ascending `(time, key)` order — `Time`'s `Ord` is lexicographic, a linear
//! extension of the partial order, so a pair is evaluated after every pair at an earlier
//! time and future work (always at a strictly later time) lands ahead of the walk. The
//! whole invocation is **one ordered pass** over the two traces, as `join`'s alternating
//! seeks are (§5.3.1):
//!
//! * **One read of each trace.** An invocation with a complete pair reads the input
//!   and the output trace through one cursor each; one with none opens neither. Within a time, keys ascend, so both cursors only
//!   `seek_key` forward; they `rewind_keys` when the time changes. A bulk evaluation of
//!   n keys at one time is therefore one merged forward walk, not n probes from the
//!   root. The reads end before the output batch is minted.
//! * **Rows are read in place.** The logic receives each value as a borrow of the input
//!   batch that holds it, and the output totals are folded by reference. A key or value
//!   is cloned only into a staged correction or a recorded `(time, key)` pair (and a
//!   key once more into the by-key index below, when that is built).
//! * **Corrections of earlier times are found by key.** What the invocation has produced
//!   so far is not yet in the output trace, so a pair must add it to what the output
//!   cursor reports. Each `(time, key)` is evaluated once, so only corrections staged at
//!   *earlier* times can concern a pair: when the walk moves to a new time the
//!   corrections staged at the last one are threaded onto a per-key chain (`Staged`),
//!   and a pair follows its own key's chain only. An invocation that evaluates a single
//!   time — a bulk load, a steady-state epoch — never builds the index.
//!
//! # Counts in the streaming scope
//!
//! Re-forming a key's whole input is what partially ordered times demand: the output at
//! `t` depends on every input time `<= t`, and two such times may have a join that
//! neither input nor output mentions. Outside an `iterate` the times are epochs, totally
//! ordered, and a Count needs none of it: its previous answer for a key *is* the key's
//! count so far, so the answer at each new time is that count plus the time's delta. The
//! operator `count_total` (differential dataflow's `count_total`) reads the arriving
//! batches and its own output only — one seek per changed key into its output trace,
//! none into the input trace, on which it registers no reader — and schedules no future
//! work. The rule lives in one place, [`Arranged::count`], which every Count calls
//! (`Collection::count` and the plan's `ReduceKind::Count`): `count_total` in the
//! streaming scope, `reduce_core` inside an `iterate`, as for every other reduction.

use std::collections::{BTreeSet, HashMap};
use std::marker::PhantomData;

use kpg_dataflow::operator::{downcast_payload, BundleBox, Operator, OutputContext};
use kpg_dataflow::Time;
use kpg_timestamp::{Antichain, Lattice, PartialOrder};
use kpg_trace::consolidation::consolidate;
use kpg_trace::cursor::CursorList;
use kpg_trace::{Abelian, Batch, Builder, Cursor, Data, MergeEffort, Semigroup};

use crate::arrange::{Arranged, KeyBatch, TraceAgent, ValBatch};
use crate::collection::Collection;
use crate::Diff;

/// One staged output correction: `(key, val, time, diff)`.
type Correction<K, V2, R2> = (K, V2, Time, R2);

/// The output corrections produced so far by one `work` invocation, in evaluation order,
/// with a by-key index over those staged at times earlier than the one under evaluation.
///
/// The index is an intrusive chain: `last` maps a key to its most recently indexed
/// correction and `prev[i]` links correction `i` to the one before it for the same key,
/// so a lookup visits one key's corrections and nothing else, and staging allocates per
/// invocation (amortised table and vector growth, capacity retained), never per key.
struct Staged<K, V2, R2> {
    updates: Vec<Correction<K, V2, R2>>,
    /// One entry per indexed correction (`prev.len() == updates.len()`).
    prev: Vec<usize>,
    last: HashMap<K, usize>,
}

/// The end of a key's chain in [`Staged::prev`].
const NO_PREVIOUS: usize = usize::MAX;

impl<K, V2, R2> Default for Staged<K, V2, R2> {
    fn default() -> Self {
        Staged {
            updates: Vec::new(),
            prev: Vec::new(),
            last: HashMap::new(),
        }
    }
}

impl<K: Data, V2, R2> Staged<K, V2, R2> {
    /// Moves `fresh` — the corrections of the time just evaluated — in, threading each
    /// onto its key's chain.
    fn index(&mut self, fresh: &mut Vec<Correction<K, V2, R2>>) {
        self.updates.append(fresh);
        for (index, (key, ..)) in self.updates.iter().enumerate().skip(self.prev.len()) {
            let previous = match self.last.get_mut(key) {
                Some(last) => std::mem::replace(last, index),
                None => {
                    self.last.insert(key.clone(), index);
                    NO_PREVIOUS
                }
            };
            self.prev.push(previous);
        }
    }

    /// Applies `logic` to every indexed correction for `key`, most recent first.
    fn for_each_indexed<'a>(&'a self, key: &K, mut logic: impl FnMut(&'a V2, &Time, &R2)) {
        let mut next = self.last.get(key).copied().unwrap_or(NO_PREVIOUS);
        while next != NO_PREVIOUS {
            let (_, val, time, diff) = &self.updates[next];
            logic(val, time, diff);
            next = self.prev[next];
        }
    }

    /// Empties the staging area and `fresh` into `logic`, retaining every capacity.
    fn drain_into(
        &mut self,
        fresh: &mut Vec<Correction<K, V2, R2>>,
        mut logic: impl FnMut(K, V2, Time, R2),
    ) {
        for (key, val, time, diff) in self.updates.drain(..).chain(fresh.drain(..)) {
            logic(key, val, time, diff);
        }
        self.prev.clear();
        self.last.clear();
    }
}

/// Reusable scratch for one [`ReduceOperator`]: every vector is cleared and refilled in
/// place, and the staged corrections are drained (capacity retained) into the output
/// batch builder. What borrows a trace's rows — a key's input values, its output totals
/// — lives only for the read that lends them.
struct ReduceScratch<K, V2, R2> {
    /// The distinct times of one key of an arriving batch.
    arrived_times: Vec<Time>,
    /// The times in the key's input history not `<=` the time under evaluation
    /// (future-work scheduling).
    history_times: Vec<Time>,
    /// The output corrections staged at earlier times of the current `work` invocation.
    staged: Staged<K, V2, R2>,
    /// The output corrections staged at the time under evaluation.
    fresh: Vec<Correction<K, V2, R2>>,
    /// The user logic's desired output for the key under evaluation.
    desired: Vec<(V2, R2)>,
}

impl<K, V2, R2> Default for ReduceScratch<K, V2, R2> {
    fn default() -> Self {
        ReduceScratch {
            arrived_times: Vec::new(),
            history_times: Vec::new(),
            staged: Staged::default(),
            fresh: Vec::new(),
            desired: Vec::new(),
        }
    }
}

/// The reduce operator shell. `B1` is the input batch type, the output is maintained as
/// `ValBatch<K, V2, R2>`.
struct ReduceOperator<B1, V2, R2, L>
where
    B1: Batch<Time = Time>,
    V2: Data,
    R2: Abelian,
    L: FnMut(&B1::Key, &[(&B1::Val, B1::Diff)], &mut Vec<(V2, R2)>),
{
    name: &'static str,
    logic: L,
    input_trace: TraceAgent<B1>,
    output_trace: TraceAgent<ValBatch<B1::Key, V2, R2>>,
    queue: Vec<B1>,
    pending: BTreeSet<(Time, B1::Key)>,
    input_frontier: Antichain<Time>,
    output_upper: Antichain<Time>,
    scratch: ReduceScratch<B1::Key, V2, R2>,
    _marker: PhantomData<(V2, R2)>,
}

/// Accumulates the input collection for `key` at `time` into `values` (each value, as
/// a borrow of its batch, with its net multiplicity) and `history_times` (the distinct
/// times in the key's history that are not `<= time`, for future-work scheduling). Both
/// vectors are cleared first. `cursor` must have been sought to `key`.
fn accumulate_input<'b, C: Cursor<'b, Time = Time>>(
    cursor: &mut C,
    key: &C::Key,
    time: &Time,
    values: &mut Vec<(&'b C::Val, C::Diff)>,
    history_times: &mut Vec<Time>,
) {
    values.clear();
    history_times.clear();
    if cursor.key_valid() && cursor.key() == key {
        while cursor.val_valid() {
            let mut sum: Option<C::Diff> = None;
            cursor.map_times(|t, r| {
                if t.less_equal(time) {
                    match &mut sum {
                        None => sum = Some(r.clone()),
                        Some(s) => s.plus_equals(r),
                    }
                } else {
                    history_times.push(*t);
                }
            });
            if let Some(sum) = sum.filter(|sum| !sum.is_zero()) {
                values.push((cursor.val(), sum));
            }
            cursor.step_val();
        }
    }
    history_times.sort_unstable();
    history_times.dedup();
}

/// Accumulates the previously produced output for `key` at `time` into `totals`
/// (cleared first), sorted by value: what the output trace holds, plus the corrections
/// staged at earlier times of the current invocation, each value folded by reference.
/// `cursor` must have been sought to `key`.
fn accumulate_output<'a, 'b: 'a, C: Cursor<'b, Time = Time>>(
    cursor: &mut C,
    key: &C::Key,
    time: &Time,
    staged: &'a Staged<C::Key, C::Val, C::Diff>,
    totals: &mut Vec<(&'a C::Val, C::Diff)>,
) {
    totals.clear();
    let mut add = |val: &'a C::Val, diff: &C::Diff| {
        if let Some(entry) = totals.iter_mut().find(|(v, _)| *v == val) {
            entry.1.plus_equals(diff);
        } else {
            totals.push((val, diff.clone()));
        }
    };
    if cursor.key_valid() && cursor.key() == key {
        while cursor.val_valid() {
            let val = cursor.val();
            cursor.map_times(|t, r| {
                if t.less_equal(time) {
                    add(val, r);
                }
            });
            cursor.step_val();
        }
    }
    staged.for_each_indexed(key, |v, t, r| {
        if t.less_equal(time) {
            add(v, r);
        }
    });
    totals.retain(|(_, r)| !r.is_zero());
    totals.sort_by(|a, b| a.0.cmp(b.0));
}

/// Stages into `fresh` the difference between `desired` (sorted by value, drained) and
/// `current` (sorted by value) for `key` at `time`. A desired value moves into its
/// correction; a current one is cloned into the retraction that cancels it.
fn stage_corrections<K: Data, V2: Data, R2: Abelian>(
    key: &K,
    time: Time,
    desired: &mut Vec<(V2, R2)>,
    current: &[(&V2, R2)],
    fresh: &mut Vec<Correction<K, V2, R2>>,
) {
    let mut current = current.iter().peekable();
    for (val, want) in desired.drain(..) {
        while let Some((have_val, have)) = current.next_if(|(v, _)| **v < val) {
            fresh.push((key.clone(), (*have_val).clone(), time, have.negated()));
        }
        let mut delta = want;
        if let Some((_, have)) = current.next_if(|(v, _)| **v == val) {
            delta.plus_equals(&have.negated());
        }
        if !delta.is_zero() {
            fresh.push((key.clone(), val, time, delta));
        }
    }
    for (have_val, have) in current {
        fresh.push((key.clone(), (*have_val).clone(), time, have.negated()));
    }
}

impl<B1, V2, R2, L> Operator for ReduceOperator<B1, V2, R2, L>
where
    B1: Batch<Time = Time> + 'static,
    V2: Data,
    R2: Abelian,
    L: FnMut(&B1::Key, &[(&B1::Val, B1::Diff)], &mut Vec<(V2, R2)>) + 'static,
{
    fn name(&self) -> &str {
        self.name
    }

    fn recv(&mut self, _port: usize, payload: BundleBox) {
        self.queue.push(downcast_payload::<B1>(payload, self.name));
    }

    fn work(&mut self, output: &mut OutputContext<'_>) -> bool {
        // Record the (key, time) pairs whose output may have changed: one insertion per
        // distinct time of each key, however many updates share it.
        for batch in self.queue.drain(..) {
            let mut cursor = batch.cursor();
            while cursor.key_valid() {
                let times = &mut self.scratch.arrived_times;
                while cursor.val_valid() {
                    cursor.map_times(|time, _| times.push(*time));
                    cursor.step_val();
                }
                times.sort_unstable();
                times.dedup();
                for time in times.drain(..) {
                    self.pending.insert((time, cursor.key().clone()));
                }
                cursor.step_key();
            }
        }

        let frontier_advanced = !self.input_frontier.same_as(&self.output_upper);
        if !frontier_advanced {
            return false;
        }

        // Evaluate, in ascending `(time, key)` order, every pending pair whose time is
        // now complete (see the module docs for why one read of each trace and one
        // forward walk per time suffice). Future work lands at a strictly later time:
        // among the complete pairs if the frontier has passed it too, else pending.
        let Self {
            logic,
            input_trace,
            output_trace,
            pending,
            input_frontier,
            scratch,
            ..
        } = self;
        let ReduceScratch {
            history_times,
            staged,
            fresh,
            desired,
            ..
        } = scratch;
        debug_assert!(staged.updates.is_empty() && fresh.is_empty());
        let mut complete: BTreeSet<_> = pending
            .extract_if(.., |(time, _)| !input_frontier.less_equal(time))
            .collect();
        if !complete.is_empty() {
            input_trace.read(|mut input| {
                output_trace.read(|mut produced| {
                    let mut values = Vec::new();
                    while let Some(&(time, _)) = complete.first() {
                        staged.index(fresh);
                        input.rewind_keys();
                        produced.rewind_keys();
                        let mut totals = Vec::new();
                        while complete.first().is_some_and(|(next, _)| *next == time) {
                            let (_, key) = complete.pop_first().expect("a first pair");
                            input.seek_key(&key);
                            produced.seek_key(&key);
                            accumulate_input(&mut input, &key, &time, &mut values, history_times);
                            accumulate_output(&mut produced, &key, &time, staged, &mut totals);
                            desired.clear();
                            if !values.is_empty() {
                                logic(&key, &values, desired);
                            }
                            desired.sort_by(|a, b| a.0.cmp(&b.0));
                            stage_corrections(&key, time, desired, &totals, fresh);

                            // Future work: the output may also change at joins of this time
                            // with other times in the key's history, even if no input
                            // arrives then (paper §5.3.2).
                            for other in history_times.iter() {
                                let pair = (other.join(&time), key.clone());
                                if input_frontier.less_equal(&pair.0) {
                                    pending.insert(pair);
                                } else {
                                    complete.insert(pair);
                                }
                            }
                        }
                    }
                });
            });
        }

        // Mint the output batch (possibly empty) so the output arrangement's upper tracks
        // the input frontier. Draining the corrections retains their capacity.
        let mut builder = <ValBatch<B1::Key, V2, R2> as Batch>::Builder::with_capacity(
            staged.updates.len() + fresh.len(),
        );
        staged.drain_into(fresh, |key, val, time, diff| {
            builder.push(key, val, time, diff);
        });
        let since = self.output_trace.since();
        let batch = builder.done(
            self.output_upper.clone(),
            self.input_frontier.clone(),
            since,
        );
        self.output_upper = self.input_frontier.clone();
        self.output_trace.insert_batch(batch.clone());
        output.send(Box::new(batch));

        // Allow both traces to compact up to the new frontier.
        self.input_trace
            .set_logical_compaction(self.input_frontier.borrow());
        self.output_trace
            .set_logical_compaction(self.input_frontier.borrow());
        true
    }

    fn set_frontier(&mut self, _port: usize, frontier: &Antichain<Time>) {
        self.input_frontier = frontier.clone();
    }

    fn capabilities(&self, into: &mut Antichain<Time>) {
        for (time, _) in self.pending.iter() {
            into.insert(*time);
        }
        for batch in self.queue.iter() {
            for time in batch.description().lower().elements() {
                into.insert(*time);
            }
        }
    }
}

/// The Count of the streaming scope (see the module docs): each key's count is its
/// previous count, read from the output trace, plus the deltas of the arriving batches.
/// `encode` renders a count as the output value and `decode` reads it back.
struct CountTotalOperator<B1, V2, E, D>
where
    B1: Batch<Time = Time>,
    V2: Data,
{
    name: &'static str,
    encode: E,
    decode: D,
    output_trace: TraceAgent<ValBatch<B1::Key, V2, Diff>>,
    queue: Vec<B1>,
    input_frontier: Antichain<Time>,
    output_upper: Antichain<Time>,
    /// One key's `(time, diff)`s across the batches being counted (capacity retained).
    deltas: Vec<(Time, B1::Diff)>,
}

impl<B1, V2, E, D> Operator for CountTotalOperator<B1, V2, E, D>
where
    B1: Batch<Time = Time> + 'static,
    V2: Data,
    E: Fn(&B1::Diff) -> V2 + 'static,
    D: Fn(&V2) -> B1::Diff + 'static,
{
    fn name(&self) -> &str {
        self.name
    }

    fn recv(&mut self, _port: usize, payload: BundleBox) {
        self.queue.push(downcast_payload::<B1>(payload, self.name));
    }

    fn work(&mut self, output: &mut OutputContext<'_>) -> bool {
        if self.input_frontier.same_as(&self.output_upper) {
            return false;
        }
        let Self {
            encode,
            decode,
            output_trace,
            queue,
            input_frontier,
            deltas,
            ..
        } = self;
        // A batch is counted once the frontier has passed its upper; the rest stay
        // queued. The frontier is computed at quiescence, so a batch it has not passed
        // holds no time it has passed either (its updates were all still upstream).
        let ready: Vec<B1> = queue
            .extract_if(.., |batch| {
                batch.description().upper().dominates(input_frontier)
            })
            .collect();
        let mut builder = <ValBatch<B1::Key, V2, Diff> as Batch>::Builder::default();
        if !ready.is_empty() {
            let mut input = CursorList::new(ready.iter().map(|batch| batch.cursor()).collect());
            output_trace.read(|mut produced| {
                while input.key_valid() {
                    let key = input.key();
                    while input.val_valid() {
                        input.map_times(|time, diff| deltas.push((*time, diff.clone())));
                        input.step_val();
                    }
                    consolidate(deltas);
                    if !deltas.is_empty() {
                        // Keys ascend, so the output cursor only seeks forward.
                        produced.seek_key(key);
                        let mut held = previous_count(&mut produced, key, &*decode);
                        for (time, delta) in deltas.drain(..) {
                            let count = match held.take() {
                                Some((mut count, val)) => {
                                    builder.push(key.clone(), val, time, -1);
                                    count.plus_equals(&delta);
                                    count
                                }
                                None => delta,
                            };
                            if !count.is_zero() {
                                let val = encode(&count);
                                builder.push(key.clone(), val.clone(), time, 1);
                                held = Some((count, val));
                            }
                        }
                    }
                    input.step_key();
                }
            });
        }

        let since = output_trace.since();
        let batch = builder.done(self.output_upper.clone(), input_frontier.clone(), since);
        self.output_upper = input_frontier.clone();
        output_trace.insert_batch(batch.clone());
        output.send(Box::new(batch));
        output_trace.set_logical_compaction(input_frontier.borrow());
        true
    }

    fn set_frontier(&mut self, _port: usize, frontier: &Antichain<Time>) {
        self.input_frontier = frontier.clone();
    }

    fn capabilities(&self, into: &mut Antichain<Time>) {
        for batch in self.queue.iter() {
            for time in batch.description().lower().elements() {
                into.insert(*time);
            }
        }
    }
}

/// The count `produced` holds for `key`, with the value that says it: the value whose
/// accumulated multiplicity is one (every other value of the key has accumulated to
/// zero), or `None` if the count is zero. `produced` must have been sought to `key`.
fn previous_count<'b, C, R>(
    produced: &mut C,
    key: &C::Key,
    decode: impl Fn(&C::Val) -> R,
) -> Option<(R, C::Val)>
where
    C: Cursor<'b, Time = Time, Diff = Diff>,
{
    if !produced.key_valid() || produced.key() != key {
        return None;
    }
    let mut held = None;
    while produced.val_valid() {
        let mut multiplicity = 0;
        produced.map_times(|_, diff| multiplicity += diff);
        debug_assert!(matches!(multiplicity, 0 | 1), "a count is held once");
        if multiplicity == 1 {
            debug_assert!(held.is_none(), "a key holds one count");
            let val = produced.val();
            held = Some((decode(val), val.clone()));
        }
        produced.step_val();
    }
    held
}

impl<B1: Batch<Time = Time> + 'static> Arranged<B1> {
    /// Each key's total multiplicity, as the single output value `encode(count)` (none
    /// where the count is zero), maintained as an arrangement. In the streaming scope it
    /// is read from the batch stream and the output trace alone (`count_total`, see the
    /// module docs), which needs `decode` to invert `encode`; inside an `iterate`, whose
    /// times are partially ordered, by the general reduction.
    pub fn count<V2: Data>(
        &self,
        name: &'static str,
        encode: impl Fn(&B1::Diff) -> V2 + 'static,
        decode: impl Fn(&V2) -> B1::Diff + 'static,
    ) -> Arranged<ValBatch<B1::Key, V2, Diff>> {
        if self.depth == 0 {
            return self.count_total(name, encode, decode);
        }
        self.reduce_core(name, move |_key, input, output| {
            let mut total = input[0].1.clone();
            for (_, diff) in &input[1..] {
                total.plus_equals(diff);
            }
            if !total.is_zero() {
                output.push((encode(&total), 1));
            }
        })
    }

    /// The Count of the streaming scope (see [`Arranged::count`]): its times must be
    /// totally ordered.
    fn count_total<V2: Data>(
        &self,
        name: &'static str,
        encode: impl Fn(&B1::Diff) -> V2 + 'static,
        decode: impl Fn(&V2) -> B1::Diff + 'static,
    ) -> Arranged<ValBatch<B1::Key, V2, Diff>> {
        let output_trace = TraceAgent::<ValBatch<B1::Key, V2, Diff>>::new(MergeEffort::Default);
        let operator = CountTotalOperator::<B1, V2, _, _> {
            name,
            encode,
            decode,
            output_trace: output_trace.clone(),
            queue: Vec::new(),
            input_frontier: Antichain::from_elem(Time::minimum()),
            output_upper: Antichain::from_elem(Time::minimum()),
            deltas: Vec::new(),
        };
        self.attach(Box::new(operator), output_trace)
    }

    /// The general reduction: applies `logic` to each key's accumulated input whenever it
    /// might change, maintaining (and sharing) the output as an arrangement.
    pub fn reduce_core<V2, R2, L>(
        &self,
        name: &'static str,
        logic: L,
    ) -> Arranged<ValBatch<B1::Key, V2, R2>>
    where
        V2: Data,
        R2: Abelian,
        L: FnMut(&B1::Key, &[(&B1::Val, B1::Diff)], &mut Vec<(V2, R2)>) + 'static,
    {
        let output_trace = TraceAgent::<ValBatch<B1::Key, V2, R2>>::new(MergeEffort::Default);
        let operator = ReduceOperator::<B1, V2, R2, L> {
            name,
            logic,
            input_trace: self.trace.clone(),
            output_trace: output_trace.clone(),
            queue: Vec::new(),
            pending: BTreeSet::new(),
            input_frontier: Antichain::from_elem(Time::minimum()),
            output_upper: Antichain::from_elem(Time::minimum()),
            scratch: ReduceScratch::default(),
            _marker: PhantomData,
        };
        self.attach(Box::new(operator), output_trace)
    }

    /// Attaches `operator` to this arrangement's batch stream. The operator maintains
    /// `trace`, which is the returned arrangement's trace.
    fn attach<B2: Batch<Time = Time>>(
        &self,
        operator: Box<dyn Operator>,
        trace: TraceAgent<B2>,
    ) -> Arranged<B2> {
        let mut builder = self.builder.clone();
        let node = builder.add_operator(operator, 1);
        builder.connect(self.node, node, 0);
        Arranged {
            builder,
            node,
            depth: self.depth,
            trace,
        }
    }
}

impl<K: Data, V: Data, R: Semigroup> Collection<(K, V), R> {
    /// Groups by key and applies `logic` to each key's accumulated values.
    pub fn reduce<V2, R2, L>(&self, logic: L) -> Collection<(K, V2), R2>
    where
        V2: Data,
        R2: Abelian,
        L: FnMut(&K, &[(&V, R)], &mut Vec<(V2, R2)>) + 'static,
    {
        self.arrange_by_key()
            .reduce_core("Reduce", logic)
            .as_collection(|key, val| (key.clone(), val.clone()))
    }

    /// Retains, for each key, the single greatest value.
    pub fn max_by_key(&self) -> Collection<(K, V), Diff> {
        self.reduce(|_key, input, output| {
            if let Some((val, _)) = input.last() {
                output.push(((*val).clone(), 1));
            }
        })
    }

    /// Retains, for each key, the single least value.
    pub fn min_by_key(&self) -> Collection<(K, V), Diff> {
        self.reduce(|_key, input, output| {
            if let Some((val, _)) = input.first() {
                output.push(((*val).clone(), 1));
            }
        })
    }
}

impl<K: Data, R: Semigroup> Collection<K, R> {
    /// Reduces each record to a single instance (set semantics).
    pub fn distinct(&self) -> Collection<K, Diff>
    where
        R: Abelian,
    {
        self.threshold(|_, _| 1)
    }

    /// Maps each record's accumulated multiplicity through `logic`.
    ///
    /// `distinct` is `threshold(|_, _| 1)`; "records appearing at least three times" is
    /// `threshold(|_, count| if count >= 3 { 1 } else { 0 })`-style logic.
    pub fn threshold(&self, mut logic: impl FnMut(&K, &R) -> Diff + 'static) -> Collection<K, Diff>
    where
        R: Abelian,
    {
        let arranged: Arranged<KeyBatch<K, R>> = self.arrange_by_self();
        arranged
            .reduce_core(
                "Threshold",
                move |key, input, output: &mut Vec<((), Diff)>| {
                    let count = &input[0].1;
                    let multiplicity = logic(key, count);
                    if multiplicity != 0 {
                        output.push(((), multiplicity));
                    }
                },
            )
            .as_collection(|key, _| key.clone())
    }

    /// Counts the occurrences of each record, producing `(record, count)` pairs (see
    /// [`Arranged::count`]).
    pub fn count(&self) -> Collection<(K, R), Diff>
    where
        R: Abelian + Data,
    {
        let arranged: Arranged<KeyBatch<K, R>> = self.arrange_by_self();
        arranged
            .count("Count", R::clone, R::clone)
            .as_collection(|key, count| (key.clone(), count.clone()))
    }
}
