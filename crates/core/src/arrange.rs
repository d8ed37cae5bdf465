//! The arrange operator, shared traces, and trace handles.
//!
//! Arrangement is the paper's central mechanism (§4): the `arrange` operator exchanges
//! updates to the worker that owns their key, batches them as the input frontier
//! advances, and maintains the resulting immutable batches in a compact multiversioned
//! index (a [`Spine`]). Both products are shared:
//!
//! * the *stream of batches* flows to operator shells (`join`, `reduce`, ...) downstream,
//! * the *trace* is read — through reference-counted [`TraceAgent`] handles — by any
//!   number of operators in the same or other dataflows on the same worker.
//!
//! Dropping every handle releases the trace even while the batch stream stays live (the
//! arrange operator holds only a weak reference, §4.2 "Shared references"), and each
//! handle's read frontier contributes to the compaction frontier that lets the trace
//! consolidate history no reader can distinguish (§4.3).

use std::cell::RefCell;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::rc::{Rc, Weak};

use kpg_dataflow::operator::{downcast_payload, BundleBox, Operator, OutputContext};
use kpg_dataflow::{DataflowBuilder, NodeId, ProbeHandle, Time};
use kpg_timestamp::{Antichain, AntichainRef};
use kpg_trace::cursor::CursorList;
use kpg_trace::{
    Batch, Builder, Cursor, Data, MergeEffort, OrdKeyBatch, OrdValBatch, Semigroup, Spine,
};

use crate::collection::Collection;
use crate::operators::{route_hash, Exchange, UpdateVec};
use crate::Diff;

/// The batch type used by `(key, value)` arrangements.
pub type ValBatch<K, V, R = Diff> = OrdValBatch<K, V, Time, R>;
/// The batch type used by key-only arrangements (`arrange_by_self`, `distinct`, `count`).
pub type KeyBatch<K, R = Diff> = OrdKeyBatch<K, Time, R>;

/// What one registered reader asks of the trace.
#[derive(Clone)]
struct Reader {
    /// The logical read frontier: accumulations must stay correct at times in advance
    /// of it.
    since: Antichain<Time>,
    /// The physical hold: the trace keeps a batch boundary here, so the reader can read
    /// through it. Empty until the reader sets one (it then holds nothing).
    hold: Antichain<Time>,
}

/// The shared interior of an arrangement: the spine plus its readers.
pub struct TraceBox<B: Batch<Time = Time>> {
    spine: Spine<B>,
    readers: Vec<Option<Reader>>,
    free_slots: Vec<usize>,
    queues: Vec<Weak<RefCell<VecDeque<B>>>>,
}

impl<B: Batch<Time = Time>> TraceBox<B> {
    fn new(effort: MergeEffort) -> Self {
        TraceBox {
            spine: Spine::new(effort),
            readers: Vec::new(),
            free_slots: Vec::new(),
            queues: Vec::new(),
        }
    }

    /// Inserts a freshly minted batch: into the spine, and into every importer's queue.
    fn insert(&mut self, batch: B) {
        self.queues.retain(|queue| queue.upgrade().is_some());
        for queue in self.queues.iter() {
            if let Some(queue) = queue.upgrade() {
                queue.borrow_mut().push_back(batch.clone());
            }
        }
        self.spine.insert(batch);
    }

    fn register_reader(&mut self, reader: Reader) -> usize {
        // Reuse the slot of a departed reader if one is free, so that long-lived workers
        // cycling through many short-lived handles don't grow the table unboundedly.
        match self.free_slots.pop() {
            Some(slot) => {
                debug_assert!(self.readers[slot].is_none());
                self.readers[slot] = Some(reader);
                slot
            }
            None => {
                self.readers.push(Some(reader));
                self.readers.len() - 1
            }
        }
    }

    /// Clears a departed reader's slot, frees it for reuse, and lets the spine compact
    /// past the frontiers the reader was pinning.
    fn deregister_reader(&mut self, slot: usize) {
        let reader = self.readers[slot].take().expect("a registered reader");
        self.free_slots.push(slot);
        self.recompute_compaction();
        if !reader.hold.is_empty() {
            self.recompute_physical_compaction();
        }
    }

    /// The number of currently registered readers.
    fn reader_count(&self) -> usize {
        self.readers.iter().flatten().count()
    }

    fn recompute_compaction(&mut self) {
        let mut lower_bound = Antichain::new();
        let mut any = false;
        for reader in self.readers.iter().flatten() {
            any = true;
            for time in reader.since.elements() {
                lower_bound.insert(*time);
            }
        }
        if any {
            // The meet of all reader frontiers: the earliest time any reader still needs.
            self.spine.set_logical_compaction(lower_bound.borrow());
        }
    }

    /// Hands the spine the meet of every reader's hold: empty, so no limit on merging,
    /// when no reader holds anything.
    fn recompute_physical_compaction(&mut self) {
        let meet = Antichain::from_iter(
            self.readers
                .iter()
                .flatten()
                .flat_map(|reader| reader.hold.elements().iter().copied()),
        );
        self.spine.set_physical_compaction(meet.borrow());
    }
}

/// A read handle onto a shared trace (paper §4.3).
///
/// Each handle carries two frontiers. Its read frontier (`since`,
/// [`TraceAgent::set_logical_compaction`]) is where the trace must keep accumulations
/// correct: advancing it — or dropping the handle — lets the trace consolidate history.
/// Its hold ([`TraceAgent::set_physical_compaction`]) is a batch boundary the trace must
/// keep, so that [`TraceAgent::read_through`] can lend exactly the batches before it; a
/// handle holds nothing until it sets one, so only a reader that reads through a hold
/// (a join) ever restrains merging. Handles are cheap to clone; clones start with the
/// same read frontier and the same hold.
pub struct TraceAgent<B: Batch<Time = Time>> {
    boxed: Rc<RefCell<TraceBox<B>>>,
    slot: usize,
}

impl<B: Batch<Time = Time>> TraceAgent<B> {
    /// Creates a fresh, empty trace with the given merge effort.
    pub fn new(effort: MergeEffort) -> Self {
        let mut boxed = TraceBox::new(effort);
        let slot = boxed.register_reader(Reader {
            since: Antichain::from_elem(Time::minimum()),
            hold: Antichain::new(),
        });
        TraceAgent {
            boxed: Rc::new(RefCell::new(boxed)),
            slot,
        }
    }

    fn downgrade(&self) -> Weak<RefCell<TraceBox<B>>> {
        Rc::downgrade(&self.boxed)
    }

    /// Advances this handle's read frontier, permitting compaction up to the meet of all
    /// reader frontiers. A frontier that is not in advance of the handle's current one is
    /// ignored: an operator that imports an already-compacted trace reports its *other*
    /// input's frontier here, which starts at the minimum time, and history the trace
    /// has given up cannot be asked back.
    pub fn set_logical_compaction(&mut self, frontier: AntichainRef<'_, Time>) {
        let mut boxed = self.boxed.borrow_mut();
        let frontier = frontier.to_owned();
        let reader = boxed.readers[self.slot]
            .as_mut()
            .expect("a live handle's reader");
        if reader.since.dominates(&frontier) {
            reader.since = frontier;
            boxed.recompute_compaction();
        }
    }

    /// Moves this handle's hold to `frontier`, which must be a batch boundary of the
    /// trace: the upper of the batches the reader has acknowledged. The trace merges no
    /// batch across the meet of all holds, so [`TraceAgent::read_through`] at this hold
    /// stays exact however the trace merges meanwhile. The empty frontier holds nothing.
    pub fn set_physical_compaction(&mut self, frontier: AntichainRef<'_, Time>) {
        let mut boxed = self.boxed.borrow_mut();
        let reader = boxed.readers[self.slot]
            .as_mut()
            .expect("a live handle's reader");
        if reader.hold.elements() != frontier.elements() {
            reader.hold = frontier.to_owned();
            boxed.recompute_physical_compaction();
        }
    }

    /// Applies `logic` to a cursor over the union of all batches currently in the
    /// trace: one batch cursor per batch, merged by a [`CursorList`] (see
    /// [`Spine::cursor`]). The cursor borrows the batches under the trace's borrow,
    /// which ends when `logic` returns, so no cursor outlives the read that opened it
    /// or pins a batch the trace has since merged away.
    pub fn read<T>(&self, logic: impl for<'b> FnOnce(CursorList<B::Cursor<'b>>) -> T) -> T {
        let boxed = self.boxed.borrow();
        logic(boxed.spine.cursor())
    }

    /// Like [`TraceAgent::read`], but over exactly the batches whose upper is at or
    /// before `frontier` (see [`Spine::cursor_through`]): what a reader that has
    /// acknowledged the trace up to `frontier` may see. `frontier` must be a batch
    /// boundary the trace keeps — this handle's hold, or any boundary at or past the
    /// meet of the holds.
    pub fn read_through<T>(
        &self,
        frontier: AntichainRef<'_, Time>,
        logic: impl for<'b> FnOnce(CursorList<B::Cursor<'b>>) -> T,
    ) -> T {
        let boxed = self.boxed.borrow();
        logic(boxed.spine.cursor_through(frontier))
    }

    /// Spends up to `fuel` units of work on the trace's in-progress merges (see
    /// [`Spine::exert`]): what a worker with nothing else to do gives the trace.
    /// Returns true iff a merge is still in progress.
    pub fn exert(&self, fuel: &mut isize) -> bool {
        self.boxed.borrow_mut().spine.exert(fuel)
    }

    /// Applies `logic` to every batch currently in the trace, oldest first.
    pub fn map_batches(&self, logic: impl FnMut(&B)) {
        self.boxed.borrow().spine.map_batches(logic);
    }

    /// The upper frontier of updates the trace has absorbed.
    pub fn upper(&self) -> Antichain<Time> {
        self.boxed.borrow().spine.upper().to_owned()
    }

    /// The compaction frontier of the trace.
    pub fn since(&self) -> Antichain<Time> {
        self.boxed.borrow().spine.since().to_owned()
    }

    /// The number of updates currently held by the trace.
    pub fn len(&self) -> usize {
        self.boxed.borrow().spine.len()
    }

    /// True iff the trace currently holds no updates.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The number of physical batches currently held by the trace.
    pub fn batch_count(&self) -> usize {
        self.boxed.borrow().spine.batch_count()
    }

    /// The number of live read handles (including this one) registered on the trace.
    pub fn reader_count(&self) -> usize {
        self.boxed.borrow().reader_count()
    }

    /// The capacity of the reader table, counting free slots awaiting reuse.
    ///
    /// Exposed so tests can check that reader churn does not grow the table unboundedly.
    pub fn reader_slot_capacity(&self) -> usize {
        self.boxed.borrow().readers.len()
    }

    /// Inserts a batch into the trace directly.
    ///
    /// This is how operators that maintain their own output arrangement (notably
    /// `reduce`) publish freshly minted output batches so that readers and importer
    /// queues observe them.
    pub fn insert_batch(&self, batch: B) {
        self.boxed.borrow_mut().insert(batch);
    }

    /// Imports this trace into another dataflow on the same worker (paper §4.3).
    ///
    /// The imported arrangement immediately replays the trace's consolidated history as
    /// batches and then relays every newly minted batch, so the new dataflow is
    /// indistinguishable from one that had been attached from the start — installing a
    /// new computation against existing data costs only the work of that computation.
    pub fn import(&self, builder: &mut DataflowBuilder) -> Arranged<B> {
        let queue = Rc::new(RefCell::new(VecDeque::new()));
        let mut initial = Vec::new();
        {
            let mut boxed = self.boxed.borrow_mut();
            boxed.spine.map_batches(|batch| initial.push(batch.clone()));
            boxed.queues.push(Rc::downgrade(&queue));
        }
        let trace = self.clone();
        let emitted_upper = Antichain::from_elem(Time::minimum());
        let operator = ImportOperator {
            queue,
            trace: trace.clone(),
            initial: Some(initial),
            emitted_upper,
        };
        let node = builder.add_operator(Box::new(operator), 0);
        Arranged {
            builder: builder.clone(),
            node,
            depth: 0,
            trace,
        }
    }
}

impl<B: Batch<Time = Time>> std::fmt::Debug for TraceAgent<B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceAgent")
            .field("len", &self.len())
            .field("batches", &self.batch_count())
            .field("since", &self.since())
            .field("upper", &self.upper())
            .field("readers", &self.reader_count())
            .finish()
    }
}

impl<B: Batch<Time = Time>> Clone for TraceAgent<B> {
    fn clone(&self) -> Self {
        let slot = {
            let mut boxed = self.boxed.borrow_mut();
            let reader = boxed.readers[self.slot]
                .clone()
                .expect("a live handle's reader");
            boxed.register_reader(reader)
        };
        TraceAgent {
            boxed: Rc::clone(&self.boxed),
            slot,
        }
    }
}

impl<B: Batch<Time = Time>> Drop for TraceAgent<B> {
    fn drop(&mut self) {
        self.boxed.borrow_mut().deregister_reader(self.slot);
    }
}

/// An arranged collection: a stream of shared indexed batches plus a shared trace.
pub struct Arranged<B: Batch<Time = Time>> {
    pub(crate) builder: DataflowBuilder,
    pub(crate) node: NodeId,
    pub(crate) depth: usize,
    /// The shared trace handle; clone it to give other operators or dataflows access.
    pub trace: TraceAgent<B>,
}

impl<B: Batch<Time = Time>> Clone for Arranged<B> {
    fn clone(&self) -> Self {
        Arranged {
            builder: self.builder.clone(),
            node: self.node,
            depth: self.depth,
            trace: self.trace.clone(),
        }
    }
}

impl<B: Batch<Time = Time>> Arranged<B> {
    /// The dataflow node carrying this arrangement's batch stream.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Brings the arrangement into an iteration scope.
    ///
    /// With flat timestamps the batches are reused as-is — indices and batches remain
    /// shared (paper §5.4); only the scope bookkeeping changes.
    pub fn enter(&self) -> Arranged<B> {
        let mut entered = self.clone();
        entered.depth += 1;
        entered
    }

    /// Attaches a probe to the arrangement's batch stream.
    pub fn probe(&self) -> ProbeHandle {
        let mut builder = self.builder.clone();
        ProbeHandle::new(&mut builder, self.node)
    }

    /// Flattens the arrangement back into a collection of `(key, val)`-derived records.
    pub fn as_collection<D2: Data>(
        &self,
        logic: impl Fn(&B::Key, &B::Val) -> D2 + 'static,
    ) -> Collection<D2, B::Diff> {
        let mut builder = self.builder.clone();
        let operator = FlattenBatches::<B, D2, _> {
            logic,
            pending: Vec::new(),
            _marker: PhantomData,
        };
        let node = builder.add_operator(Box::new(operator), 1);
        builder.connect(self.node, node, 0);
        Collection::from_node(builder, node, self.depth)
    }
}

/// The arrange operator: batches and indexes updates as the input frontier advances.
#[allow(clippy::type_complexity)]
struct ArrangeOperator<D, B, S>
where
    B: Batch<Time = Time>,
    S: FnMut(D) -> (B::Key, B::Val),
{
    name: &'static str,
    split: S,
    trace: Weak<RefCell<TraceBox<B>>>,
    buffer: Vec<(B::Key, B::Val, Time, B::Diff)>,
    capability: Antichain<Time>,
    upper: Antichain<Time>,
    input_frontier: Antichain<Time>,
    _marker: PhantomData<D>,
}

impl<D, B, S> Operator for ArrangeOperator<D, B, S>
where
    D: Data,
    B: Batch<Time = Time> + 'static,
    S: FnMut(D) -> (B::Key, B::Val) + 'static,
{
    fn name(&self) -> &str {
        self.name
    }

    fn recv(&mut self, _port: usize, payload: BundleBox) {
        let updates = downcast_payload::<UpdateVec<D, B::Diff>>(payload, self.name);
        for (data, time, diff) in updates {
            let (key, val) = (self.split)(data);
            self.capability.insert(time);
            self.buffer.push((key, val, time, diff));
        }
    }

    fn work(&mut self, output: &mut OutputContext<'_>) -> bool {
        // Mint a batch whenever the input frontier has moved past our last batch's upper.
        if self.input_frontier.same_as(&self.upper) {
            return false;
        }
        let lower = self.upper.clone();
        let upper = self.input_frontier.clone();
        let since = self
            .trace
            .upgrade()
            .map(|t| t.borrow().spine.since().to_owned())
            .unwrap_or_else(|| Antichain::from_elem(Time::minimum()));

        // Extract the updates that are now complete: times not in advance of the new
        // frontier (and, by induction, in advance of the previous one).
        let mut ready = Vec::new();
        let mut keep = Vec::new();
        for update in self.buffer.drain(..) {
            if upper.less_equal(&update.2) {
                keep.push(update);
            } else {
                ready.push(update);
            }
        }
        self.buffer = keep;

        let mut builder = <B::Builder as Builder>::with_capacity(ready.len());
        for (key, val, time, diff) in ready {
            builder.push(key, val, time, diff);
        }
        let batch = builder.done(lower, upper.clone(), since);

        if let Some(trace) = self.trace.upgrade() {
            trace.borrow_mut().insert(batch.clone());
        }
        output.send(Box::new(batch));
        self.upper = upper;

        // Rebuild the capability antichain from what remains buffered.
        self.capability = Antichain::from_iter(self.buffer.iter().map(|(_, _, t, _)| *t));
        true
    }

    fn set_frontier(&mut self, _port: usize, frontier: &Antichain<Time>) {
        self.input_frontier = frontier.clone();
    }

    fn capabilities(&self, into: &mut Antichain<Time>) {
        for time in self.capability.elements() {
            into.insert(*time);
        }
    }
}

/// Replays a shared trace into another dataflow: history first, then live batches.
struct ImportOperator<B: Batch<Time = Time>> {
    queue: Rc<RefCell<VecDeque<B>>>,
    trace: TraceAgent<B>,
    initial: Option<Vec<B>>,
    emitted_upper: Antichain<Time>,
}

impl<B: Batch<Time = Time> + 'static> Operator for ImportOperator<B> {
    fn name(&self) -> &str {
        "Import"
    }
    fn recv(&mut self, _port: usize, _payload: BundleBox) {
        unreachable!("import operators have no input ports");
    }
    fn work(&mut self, output: &mut OutputContext<'_>) -> bool {
        let mut did = false;
        if let Some(initial) = self.initial.take() {
            for batch in initial {
                self.emitted_upper = batch.description().upper().clone();
                output.send(Box::new(batch));
                did = true;
            }
        }
        loop {
            let batch = self.queue.borrow_mut().pop_front();
            match batch {
                Some(batch) => {
                    self.emitted_upper = batch.description().upper().clone();
                    output.send(Box::new(batch));
                    did = true;
                }
                None => break,
            }
        }
        if did {
            // Everything before the emitted upper has been forwarded downstream as
            // shared batches; this handle no longer needs to distinguish those times,
            // so release them for compaction rather than pinning the trace's history
            // for as long as the importing dataflow lives.
            self.trace
                .set_logical_compaction(self.emitted_upper.borrow());
        }
        did
    }
    fn set_frontier(&mut self, _port: usize, _frontier: &Antichain<Time>) {}
    fn capabilities(&self, into: &mut Antichain<Time>) {
        for time in self.emitted_upper.elements() {
            into.insert(*time);
        }
    }
}

/// Flattens batch payloads back into update buffers.
struct FlattenBatches<B: Batch<Time = Time>, D2, L>
where
    L: Fn(&B::Key, &B::Val) -> D2,
{
    logic: L,
    pending: Vec<B>,
    _marker: PhantomData<D2>,
}

impl<B, D2, L> Operator for FlattenBatches<B, D2, L>
where
    B: Batch<Time = Time> + 'static,
    D2: Data,
    L: Fn(&B::Key, &B::Val) -> D2 + 'static,
{
    fn name(&self) -> &str {
        "AsCollection"
    }
    fn recv(&mut self, _port: usize, payload: BundleBox) {
        self.pending
            .push(downcast_payload::<B>(payload, "AsCollection"));
    }
    fn work(&mut self, output: &mut OutputContext<'_>) -> bool {
        if self.pending.is_empty() {
            return false;
        }
        for batch in self.pending.drain(..) {
            let mut updates: UpdateVec<D2, B::Diff> = Vec::with_capacity(batch.len());
            let mut cursor = batch.cursor();
            while cursor.key_valid() {
                while cursor.val_valid() {
                    let data = (self.logic)(cursor.key(), cursor.val());
                    cursor
                        .map_times(|time, diff| updates.push((data.clone(), *time, diff.clone())));
                    cursor.step_val();
                }
                cursor.step_key();
            }
            if !updates.is_empty() {
                output.send(Box::new(updates));
            }
        }
        true
    }
    fn set_frontier(&mut self, _port: usize, _frontier: &Antichain<Time>) {}
    fn capabilities(&self, into: &mut Antichain<Time>) {
        for batch in self.pending.iter() {
            for time in batch.description().lower().elements() {
                into.insert(*time);
            }
        }
    }
}

impl<K: Data, V: Data, R: Semigroup> Collection<(K, V), R> {
    /// Arranges the collection by key with the default merge effort.
    pub fn arrange_by_key(&self) -> Arranged<ValBatch<K, V, R>> {
        self.arrange_by_key_named("Arrange", MergeEffort::Default)
    }

    /// Arranges the collection by key, controlling the trace's merge amortization.
    pub fn arrange_by_key_named(
        &self,
        name: &'static str,
        effort: MergeEffort,
    ) -> Arranged<ValBatch<K, V, R>> {
        self.arrange_core(name, effort, |d: (K, V)| d, |d| route_hash(&d.0))
    }
}

impl<K: Data, R: Semigroup> Collection<K, R> {
    /// Arranges the collection by its records, treating each as a key with unit value.
    pub fn arrange_by_self(&self) -> Arranged<KeyBatch<K, R>> {
        self.arrange_by_self_named("ArrangeBySelf", MergeEffort::Default)
    }

    /// Arranges the collection by its records, controlling merge amortization.
    pub fn arrange_by_self_named(
        &self,
        name: &'static str,
        effort: MergeEffort,
    ) -> Arranged<KeyBatch<K, R>> {
        self.arrange_core(name, effort, |d: K| (d, ()), |d| route_hash(d))
    }

    /// Consolidates the collection: co-locates equal records and coalesces their diffs.
    pub fn consolidate(&self) -> Collection<K, R> {
        self.arrange_by_self().as_collection(|key, _| key.clone())
    }
}

impl<D: Data, R: Semigroup> Collection<D, R> {
    /// The general arrangement constructor: exchange by `route`, split records into
    /// `(key, val)` with `split`, and maintain the resulting trace.
    pub fn arrange_core<B>(
        &self,
        name: &'static str,
        effort: MergeEffort,
        split: impl FnMut(D) -> (B::Key, B::Val) + 'static,
        route: impl FnMut(&D) -> u64 + 'static,
    ) -> Arranged<B>
    where
        B: Batch<Time = Time, Diff = R> + 'static,
    {
        let mut builder = self.builder.clone();
        // Exchange: move each record to the worker that owns its key.
        let exchange = builder.add_operator(Box::new(Exchange::<D, R, _>::new(route)), 1);
        builder.connect(self.node, exchange, 0);
        // Arrange: batch and index the records, sharing the trace.
        let agent = TraceAgent::<B>::new(effort);
        let operator = ArrangeOperator::<D, B, _> {
            name,
            split,
            trace: agent.downgrade(),
            buffer: Vec::new(),
            capability: Antichain::new(),
            upper: Antichain::from_elem(Time::minimum()),
            input_frontier: Antichain::from_elem(Time::minimum()),
            _marker: PhantomData,
        };
        let arrange = builder.add_operator(Box::new(operator), 1);
        builder.connect(exchange, arrange, 0);
        Arranged {
            builder,
            node: arrange,
            depth: self.depth,
            trace: agent,
        }
    }
}
