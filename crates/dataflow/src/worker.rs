//! Workers: threads that each own a shard of every dataflow and schedule its operators.

use kpg_sync::atomic::{AtomicBool, Ordering};
use kpg_sync::mpsc::Receiver;
use kpg_sync::{Arc, Barrier, Mutex};
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::rc::Rc;

use kpg_timestamp::{Antichain, Time};

use crate::fabric::{Fabric, RemoteMessage};
use crate::graph::{DataflowGraph, EdgeDesc, EdgeId, EdgeTransform, NodeId};
use crate::operator::{BundleBox, Emission, Operator, OutputContext};
use crate::progress::{DataflowShared, FrontierScratch};

/// Runtime configuration.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// The number of worker threads.
    pub workers: usize,
}

impl Config {
    /// A configuration with the given number of workers.
    pub fn new(workers: usize) -> Self {
        Config {
            workers: workers.max(1),
        }
    }
}

impl Default for Config {
    fn default() -> Self {
        Config { workers: 1 }
    }
}

/// State shared by all workers of one computation.
pub(crate) struct Shared {
    pub workers: usize,
    pub barrier: Barrier,
    pub work_flags: Vec<AtomicBool>,
    /// The progress state of every dataflow with at least one live worker instance, by
    /// ordinal. An entry is created by the first worker to construct the dataflow and
    /// removed by the last worker to retire it, so the registry holds O(live dataflows)
    /// state however many dataflows have come and gone.
    pub dataflows: Mutex<HashMap<usize, Arc<DataflowShared>>>,
    pub fabric: Arc<Fabric>,
}

impl Shared {
    /// The shared progress state of dataflow `ordinal`, created on first request.
    fn dataflow_shared(&self, ordinal: usize) -> Arc<DataflowShared> {
        let mut dataflows = self.dataflows.lock().expect("dataflow registry poisoned");
        Arc::clone(dataflows.entry(ordinal).or_default())
    }

    /// Removes the registry entry of dataflow `ordinal` once its `DataflowShared`
    /// reports that every installed worker has retired.
    fn release_dataflow(&self, ordinal: usize) {
        let mut dataflows = self.dataflows.lock().expect("dataflow registry poisoned");
        dataflows.remove(&ordinal);
    }

    /// The number of live progress entries.
    fn dataflow_entries(&self) -> usize {
        let dataflows = self.dataflows.lock().expect("dataflow registry poisoned");
        dataflows.len()
    }
}

/// One worker's instantiation of a dataflow: its local operator state plus scheduling
/// bookkeeping.
struct DataflowInstance {
    shared: Arc<DataflowShared>,
    /// The name it was installed under, if it was installed by name.
    name: Option<String>,
    graph: DataflowGraph,
    operators: Vec<Box<dyn Operator>>,
    node_outputs: Vec<Vec<EdgeId>>,
    queues: Vec<VecDeque<(usize, BundleBox)>>,
    dirty: Vec<bool>,
    last_frontiers: Vec<Vec<Antichain<Time>>>,
    /// The capability-table version whose frontiers were last delivered. While the
    /// shared version stands still — the steady state of an idle dataflow — frontier
    /// recomputation (the propagation fixed point and the per-port comparison sweep) is
    /// skipped entirely.
    last_progress_version: u64,
    /// Reusable per-node antichains for the once-per-step capability sweep: cleared and
    /// refilled in place, and swapped wholesale with the shared table's row when the
    /// capabilities actually changed.
    capability_scratch: Vec<Antichain<Time>>,
    /// Reusable result and working buffers for frontier recomputation.
    frontier_buffer: Vec<Vec<Antichain<Time>>>,
    frontier_scratch: FrontierScratch,
}

/// A single worker thread's handle onto the computation.
///
/// All workers execute the same program: they construct identical dataflows, feed their
/// own shards of the input, and call [`Worker::step`] in lockstep. Steps are globally
/// synchronized (substitution S1 in the README's "Substitutions and experiment index"): a
/// step runs every operator until the whole computation is quiescent, then advances
/// frontiers.
pub struct Worker {
    index: usize,
    peers: usize,
    shared: Arc<Shared>,
    inbox: Receiver<RemoteMessage>,
    /// The live (constructed, not retired) dataflows by ordinal: the position of a
    /// dataflow's construction among all this worker ever constructed. Every worker
    /// constructs the same dataflows in the same order, so an ordinal names the same
    /// dataflow on every worker whatever each has retired since, and it is never handed
    /// out twice. Ordinal order is installation order; scheduling, dirty-flag sweeps and
    /// frontier advancement iterate the map, so per-step cost is O(live dataflows).
    dataflows: BTreeMap<usize, DataflowInstance>,
    /// The ordinal the next dataflow constructed takes.
    next_ordinal: usize,
    installed: HashMap<String, usize>,
}

impl Worker {
    pub(crate) fn new(
        index: usize,
        peers: usize,
        shared: Arc<Shared>,
        inbox: Receiver<RemoteMessage>,
    ) -> Self {
        Worker {
            index,
            peers,
            shared,
            inbox,
            dataflows: BTreeMap::new(),
            next_ordinal: 0,
            installed: HashMap::new(),
        }
    }

    /// This worker's index in `0..peers`.
    pub fn index(&self) -> usize {
        self.index
    }

    /// The number of workers.
    pub fn peers(&self) -> usize {
        self.peers
    }

    /// Constructs a new dataflow; the closure receives a [`DataflowBuilder`] and returns
    /// whatever handles (inputs, probes, arrangements) the caller wants to keep.
    ///
    /// Every worker must construct the same dataflows in the same order.
    pub fn dataflow<R>(&mut self, logic: impl FnOnce(&mut DataflowBuilder) -> R) -> R {
        self.build_dataflow(None, logic)
    }

    /// Constructs a dataflow under the next ordinal.
    fn build_dataflow<R>(
        &mut self,
        name: Option<&str>,
        logic: impl FnOnce(&mut DataflowBuilder) -> R,
    ) -> R {
        let ordinal = self.next_ordinal;
        self.next_ordinal += 1;
        let mut builder = DataflowBuilder {
            worker_index: self.index,
            peers: self.peers,
            dataflow_index: ordinal,
            inner: Rc::new(RefCell::new(BuilderInner::default())),
        };
        let result = logic(&mut builder);

        let mut inner = builder.inner.borrow_mut();
        inner.sealed = true;
        let graph = DataflowGraph {
            nodes: inner.operators.len(),
            names: std::mem::take(&mut inner.names),
            input_ports: std::mem::take(&mut inner.input_ports),
            edges: std::mem::take(&mut inner.edges),
        };
        let operators = std::mem::take(&mut inner.operators);
        drop(inner);
        let shared = self.shared.dataflow_shared(ordinal);
        shared.install(graph.clone(), self.peers);

        let node_outputs = (0..graph.nodes)
            .map(|n| graph.edges_from(NodeId(n)).map(|(id, _)| id).collect())
            .collect();
        let queues = (0..graph.nodes).map(|_| VecDeque::new()).collect();
        let dirty = vec![true; graph.nodes];
        let last_frontiers = graph
            .input_ports
            .iter()
            .map(|&ports| vec![Antichain::from_elem(Time::minimum()); ports])
            .collect();

        let instance = DataflowInstance {
            shared,
            name: name.map(str::to_string),
            graph,
            operators,
            node_outputs,
            queues,
            dirty,
            last_frontiers,
            last_progress_version: u64::MAX,
            capability_scratch: Vec::new(),
            frontier_buffer: Vec::new(),
            frontier_scratch: FrontierScratch::default(),
        };
        self.dataflows.insert(ordinal, instance);
        if let Some(name) = name {
            self.installed.insert(name.to_string(), ordinal);
        }
        result
    }

    /// Constructs a new dataflow registered under `name`, so that it can later be
    /// retired with [`Worker::uninstall`]. Panics if the name is already installed.
    ///
    /// Every worker must install the same dataflows in the same order, exactly as with
    /// [`Worker::dataflow`].
    pub fn install<R>(&mut self, name: &str, logic: impl FnOnce(&mut DataflowBuilder) -> R) -> R {
        assert!(
            !self.installed.contains_key(name),
            "a dataflow named {name:?} is already installed"
        );
        self.build_dataflow(Some(name), logic)
    }

    /// The number of currently live (constructed and not retired) dataflows.
    pub fn live_dataflow_count(&self) -> usize {
        self.dataflows.len()
    }

    /// The number of operators in the currently live dataflows. Test support, like the
    /// counts around it: what tells a dataflow that built an operator nothing reads
    /// from one that did not.
    pub fn live_operator_count(&self) -> usize {
        let live = self.dataflows.values();
        live.map(|instance| instance.graph.nodes).sum()
    }

    /// The number of live entries in the computation-wide progress registry. Like the
    /// worker's own map, this is O(live dataflows) under churn.
    pub fn shared_dataflow_entries(&self) -> usize {
        self.shared.dataflow_entries()
    }

    /// The dataflow index (its ordinal) registered under `name`, if any.
    pub fn installed_index(&self, name: &str) -> Option<usize> {
        self.installed.get(name).copied()
    }

    /// The names of all currently installed (and not yet uninstalled) dataflows, in
    /// installation order.
    pub fn installed(&self) -> Vec<String> {
        let live = self.dataflows.values();
        live.filter_map(|instance| instance.name.clone()).collect()
    }

    /// Uninstalls the dataflow registered under `name`, retiring it from the scheduler.
    /// Returns false if no such dataflow is installed.
    ///
    /// Every worker must uninstall the same dataflows between the same two steps; in
    /// which order among themselves is each worker's own business, since no address
    /// depends on it.
    pub fn uninstall(&mut self, name: &str) -> bool {
        match self.installed.remove(name) {
            Some(ordinal) => {
                self.drop_dataflow(ordinal);
                true
            }
            None => false,
        }
    }

    /// Retires dataflow `ordinal`: removes its instance, which drops its operators with
    /// its graph and queued messages, and withdraws this worker's capabilities so the
    /// dataflow's frontiers empty out. Dropping the operators is what releases their
    /// resources: trace agents held by import and arrange operators unregister their
    /// read frontiers, letting shared spines compact past this dataflow's reads.
    ///
    /// Retirement happens between steps, when every inbox is empty, and the ordinal is
    /// never used again, so no message can address it afterwards. Handles obtained from
    /// the dataflow (inputs, probes, captures) remain safe to hold but stop observing
    /// anything new.
    fn drop_dataflow(&mut self, ordinal: usize) {
        let instance = self.dataflows.remove(&ordinal);
        let instance = instance.expect("a named dataflow is live");
        if instance.shared.retire(self.index) {
            // Every installed worker has retired it: remove its entry from the
            // computation-wide registry so shared progress state stays O(live).
            self.shared.release_dataflow(ordinal);
        }
    }

    /// Enqueues a received remote message at the live dataflow its ordinal names.
    ///
    /// Workers construct and retire dataflows only between steps, in the same order, and
    /// a step ends only once every inbox is empty; so the dataflow a message was sent
    /// from is live on every worker until the step that carries the message is over. A
    /// message that finds no live dataflow means the workers left lockstep, and the
    /// worker panics with the ordinal and its own index.
    fn route_remote(&mut self, message: RemoteMessage) {
        let Some(instance) = self.dataflows.get_mut(&message.dataflow) else {
            panic!(
                "worker {} received a message for dataflow {}, which is not live here",
                self.index, message.dataflow
            );
        };
        let edge = &instance.graph.edges[message.edge];
        instance.queues[edge.to.0].push_back((edge.port, message.payload));
        instance.dirty[edge.to.0] = true;
    }

    /// Runs operators locally until no more progress can be made without coordination.
    fn do_local_work(&mut self) -> bool {
        let mut did_anything = false;
        let mut emissions: Vec<Emission> = Vec::new();
        loop {
            let mut progress = false;

            // Drain the remote inbox into the local queues of the dataflows the messages
            // address, acknowledging the whole sweep with one batched decrement. Acking
            // after routing is safe: the count can only be transiently over-stated,
            // which delays quiescence detection but never falsely declares it.
            let mut received = 0usize;
            while let Ok(message) = self.inbox.try_recv() {
                received += 1;
                self.route_remote(message);
                progress = true;
            }
            self.shared.fabric.acknowledge_n(received);

            // Deliver queued payloads and run dirty operators, in installation order.
            for (&ordinal, instance) in self.dataflows.iter_mut() {
                let DataflowInstance {
                    graph,
                    operators,
                    node_outputs,
                    queues,
                    dirty,
                    ..
                } = instance;
                for node in 0..graph.nodes {
                    while let Some((port, payload)) = queues[node].pop_front() {
                        operators[node].recv(port, payload);
                        dirty[node] = true;
                        progress = true;
                    }
                    if dirty[node] {
                        dirty[node] = false;
                        let mut context = OutputContext {
                            worker_index: self.index,
                            peers: self.peers,
                            dataflow: ordinal,
                            node_outputs: &node_outputs[node],
                            emissions: &mut emissions,
                            fabric: &self.shared.fabric,
                        };
                        if operators[node].work(&mut context) {
                            progress = true;
                        }
                    }
                    // Deliver the local emissions this operator produced, before any
                    // other operator runs: they are for edges of this very dataflow.
                    for emission in emissions.drain(..) {
                        let edge: &EdgeDesc = &graph.edges[emission.edge.0];
                        queues[edge.to.0].push_back((edge.port, emission.payload));
                        dirty[edge.to.0] = true;
                        progress = true;
                    }
                }
            }

            if !progress {
                break;
            }
            did_anything = true;
        }
        did_anything
    }

    /// Runs local work to quiescence and coordinates with the other workers until the
    /// entire computation is quiescent (no messages in flight, no operator did work).
    fn quiesce(&mut self) -> bool {
        let mut did_anything = false;
        loop {
            let did = self.do_local_work();
            did_anything |= did;
            self.shared.work_flags[self.index].store(did, Ordering::SeqCst);
            self.shared.barrier.wait();
            let any_work = self
                .shared
                .work_flags
                .iter()
                .any(|flag| flag.load(Ordering::SeqCst));
            let in_flight = self.shared.fabric.in_flight();
            let done = !any_work && in_flight == 0;
            self.shared.barrier.wait();
            if done {
                return did_anything;
            }
        }
    }

    /// Publishes capabilities, recomputes frontiers, and notifies operators of changes.
    fn advance_frontiers(&mut self) -> bool {
        // Publish this worker's capabilities for every live dataflow. Retired dataflows
        // withdrew their capabilities when they were dropped. The sweep reuses one
        // scratch row per dataflow (operators insert into caller-owned antichains), so
        // an idle step publishes nothing and allocates nothing.
        for instance in self.dataflows.values_mut() {
            let scratch = &mut instance.capability_scratch;
            scratch.resize_with(instance.operators.len(), Antichain::new);
            for (operator, capability) in instance.operators.iter().zip(scratch.iter_mut()) {
                capability.clear();
                operator.capabilities(capability);
            }
            instance.shared.publish_swap(self.index, scratch);
        }
        self.shared.barrier.wait();

        // Recompute frontiers (deterministically, from shared state) and deliver changes.
        // A dataflow whose capability table has not changed since the last delivery is
        // skipped: its frontiers are a pure function of that table, so they are exactly
        // the ones already delivered. Every worker sees the same version sequence at the
        // same step, so the skip decisions are identical across workers.
        let mut changed_any = false;
        for instance in self.dataflows.values_mut() {
            let version = instance.shared.version();
            if version == instance.last_progress_version {
                continue;
            }
            let DataflowInstance {
                shared,
                operators,
                dirty,
                last_frontiers,
                frontier_buffer,
                frontier_scratch,
                ..
            } = instance;
            shared.input_frontiers_into(frontier_buffer, frontier_scratch);
            for (node, ports) in frontier_buffer.iter().enumerate() {
                for (port, new) in ports.iter().enumerate() {
                    if !last_frontiers[node][port].same_as(new) {
                        operators[node].set_frontier(port, new);
                        last_frontiers[node][port] = new.clone();
                        dirty[node] = true;
                        changed_any = true;
                    }
                }
            }
            instance.last_progress_version = version;
        }
        // Ensure all workers finish reading shared progress state before anyone starts
        // mutating it again in the next step.
        self.shared.barrier.wait();
        changed_any
    }

    /// Performs one synchronized scheduling step: run all operators to global quiescence,
    /// then advance frontiers. Returns true if any work was done or any frontier changed.
    ///
    /// All workers must call `step` in lockstep (they do, if they run the same program).
    pub fn step(&mut self) -> bool {
        // Give every operator a chance to run, even without fresh input: sources drain
        // their user-supplied buffers. Only live dataflows are swept, so step cost
        // tracks the live count, not the total ever installed.
        for instance in self.dataflows.values_mut() {
            instance.dirty.fill(true);
        }
        let worked = self.quiesce();
        let advanced = self.advance_frontiers();
        worked || advanced
    }

    /// Steps until `condition` returns false.
    ///
    /// The condition must be a function of globally consistent state (input handles and
    /// probe frontiers), so that every worker makes the same sequence of decisions.
    pub fn step_while(&mut self, mut condition: impl FnMut() -> bool) {
        while condition() {
            self.step();
        }
    }

    /// Test support: sends a raw, explicitly addressed message to `target`'s inbox
    /// through the fabric, exactly as an exchange operator would. Lets a test address an
    /// ordinal that is not live at the target, which the lockstep stepping discipline
    /// never does, and see the target panic.
    #[doc(hidden)]
    pub fn inject_remote(&self, target: usize, dataflow: usize, edge: usize, payload: BundleBox) {
        self.shared.fabric.send(
            target,
            RemoteMessage {
                dataflow,
                edge,
                payload,
            },
        );
    }
}

/// The mutable interior of a [`DataflowBuilder`], shared by its clones.
#[derive(Default)]
struct BuilderInner {
    operators: Vec<Box<dyn Operator>>,
    names: Vec<String>,
    input_ports: Vec<usize>,
    output_transforms: Vec<EdgeTransform>,
    edges: Vec<EdgeDesc>,
    sealed: bool,
}

/// Builds one dataflow: operators plus the edges connecting them.
///
/// Builders are cheaply cloneable handles onto shared construction state, so higher-level
/// wrappers (collections, arrangements) can carry one around and extend the dataflow as
/// operators are chained. Once the `Worker::dataflow` closure returns, the builder is
/// sealed and further construction panics.
pub struct DataflowBuilder {
    worker_index: usize,
    peers: usize,
    dataflow_index: usize,
    inner: Rc<RefCell<BuilderInner>>,
}

impl Clone for DataflowBuilder {
    fn clone(&self) -> Self {
        DataflowBuilder {
            worker_index: self.worker_index,
            peers: self.peers,
            dataflow_index: self.dataflow_index,
            inner: Rc::clone(&self.inner),
        }
    }
}

impl DataflowBuilder {
    /// The index of the worker building this instance of the dataflow.
    pub fn worker_index(&self) -> usize {
        self.worker_index
    }

    /// The total number of workers.
    pub fn peers(&self) -> usize {
        self.peers
    }

    /// The index of this dataflow within the computation: its ordinal, the same on every
    /// worker and never reused.
    pub fn dataflow_index(&self) -> usize {
        self.dataflow_index
    }

    /// Adds an operator with `inputs` input ports; returns its node id.
    pub fn add_operator(&mut self, operator: Box<dyn Operator>, inputs: usize) -> NodeId {
        self.add_operator_with_transform(operator, inputs, EdgeTransform::Identity)
    }

    /// Adds an operator whose outgoing edges carry the given timestamp transform.
    ///
    /// Feedback and leave nodes re-timestamp the data they forward; the matching edge
    /// transform tells the progress tracker how their output frontier maps onto the times
    /// their consumers may observe.
    pub fn add_operator_with_transform(
        &mut self,
        operator: Box<dyn Operator>,
        inputs: usize,
        transform: EdgeTransform,
    ) -> NodeId {
        let mut inner = self.inner.borrow_mut();
        assert!(
            !inner.sealed,
            "dataflow extended after construction finished"
        );
        let id = NodeId(inner.operators.len());
        inner.names.push(operator.name().to_string());
        inner.operators.push(operator);
        inner.input_ports.push(inputs);
        inner.output_transforms.push(transform);
        id
    }

    /// Connects `from`'s output to input `port` of `to`, using `from`'s output transform.
    pub fn connect(&mut self, from: NodeId, to: NodeId, port: usize) {
        let mut inner = self.inner.borrow_mut();
        assert!(
            !inner.sealed,
            "dataflow extended after construction finished"
        );
        let transform = inner.output_transforms[from.0];
        inner.edges.push(EdgeDesc {
            from,
            to,
            port,
            transform,
        });
    }
}

/// Executes `logic` on `config.workers` worker threads and returns their results in
/// worker order.
///
/// This is the entry point mirroring `timely::execute`: the closure runs once per worker,
/// building dataflows, feeding inputs, and stepping the worker.
pub fn execute<T, F>(config: Config, logic: F) -> Vec<T>
where
    F: Fn(&mut Worker) -> T + Send + Sync + 'static,
    T: Send + 'static,
{
    let workers = config.workers.max(1);
    let (fabric, receivers) = Fabric::new(workers);
    let shared = Arc::new(Shared {
        workers,
        barrier: Barrier::new(workers),
        work_flags: (0..workers).map(|_| AtomicBool::new(false)).collect(),
        dataflows: Mutex::new(HashMap::new()),
        fabric,
    });
    let logic = Arc::new(logic);

    let mut joins = Vec::with_capacity(workers);
    for (index, inbox) in receivers.into_iter().enumerate() {
        let shared = Arc::clone(&shared);
        let logic = Arc::clone(&logic);
        joins.push(
            kpg_sync::thread::Builder::new()
                .name(format!("kpg-worker-{index}"))
                .spawn(move || {
                    let mut worker = Worker::new(index, shared.workers, shared, inbox);
                    logic(&mut worker)
                })
                .expect("failed to spawn worker thread"),
        );
    }
    joins
        .into_iter()
        .map(|handle| handle.join().expect("worker thread panicked"))
        .collect()
}
