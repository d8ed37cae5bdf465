//! Progress tracking: turning operator capabilities into input frontiers.
//!
//! After every round of global quiescence, each worker publishes, per operator, the
//! antichain of times at which that operator may still produce output on its own (its
//! *capabilities*). Workers then independently — and deterministically — propagate these
//! capabilities along the dataflow graph to compute the frontier of every operator input
//! port: the set of times that may still appear there. Feedback edges advance the
//! iteration round of everything that flows along them, and leave edges strip rounds, so
//! the propagation is a least-fixed-point computation that converges because antichains
//! absorb the ever-later times produced by running around a cycle.
//!
//! This replaces timely dataflow's asynchronous pointstamp protocol with a synchronous
//! one (substitution S1 in the README's "Substitutions and experiment index"); the
//! frontiers operators observe have exactly the same meaning.

use kpg_sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use kpg_sync::Mutex;

use kpg_timestamp::{Antichain, Time};

use crate::graph::DataflowGraph;

/// The progress state of one dataflow, shared by all workers.
pub struct DataflowShared {
    /// The graph structure, installed by the first worker to build the dataflow.
    pub graph: Mutex<Option<DataflowGraph>>,
    /// Capabilities per worker, per node.
    pub capabilities: Mutex<Vec<Vec<Antichain<Time>>>>,
    /// Bumped whenever the capability table actually changes (publish with different
    /// contents, install, retire). Workers remember the version whose frontiers they
    /// last delivered and skip the propagation fixed point — the dominant per-step cost
    /// of an otherwise idle dataflow — while the version stands still.
    version: AtomicU64,
    /// The worker count recorded at install time. Retirement accounting compares against
    /// this, not against the capability table's current length, so that a retire racing
    /// ahead of a peer's install can never conclude that no workers remain.
    installed_workers: AtomicUsize,
    /// How many workers have retired their instance of this dataflow.
    retired_workers: AtomicUsize,
}

impl DataflowShared {
    /// Creates an empty shared descriptor for a dataflow.
    pub fn new() -> Self {
        DataflowShared {
            graph: Mutex::new(None),
            capabilities: Mutex::new(Vec::new()),
            version: AtomicU64::new(0),
            installed_workers: AtomicUsize::new(0),
            retired_workers: AtomicUsize::new(0),
        }
    }

    /// Installs the graph structure (first worker) or checks consistency (the rest), and
    /// ensures the capability table covers `workers` workers.
    ///
    /// Every node starts with a capability at `Time::minimum()` so that no frontier can
    /// advance before the owning worker has published that node's true capabilities at
    /// least once.
    pub fn install(&self, graph: DataflowGraph, workers: usize) {
        let nodes = graph.nodes;
        {
            let mut guard = self.graph.lock().expect("graph lock poisoned");
            match guard.as_ref() {
                None => *guard = Some(graph),
                Some(existing) => {
                    assert_eq!(
                        existing.nodes, nodes,
                        "workers must construct identical dataflows"
                    );
                }
            }
        }
        let mut caps = self.capabilities.lock().expect("capability lock poisoned");
        if caps.is_empty() {
            *caps = vec![vec![Antichain::from_elem(Time::minimum()); nodes]; workers];
            self.version.fetch_add(1, Ordering::Release);
        }
        self.installed_workers.store(workers, Ordering::SeqCst);
    }

    /// Publishes `capabilities` (one antichain per node) for `worker`.
    ///
    /// A publication identical to the worker's previous one leaves the version counter
    /// untouched, so every worker can recognize the steady state and skip frontier
    /// recomputation entirely. A changed one is *swapped* in, handing the previous row
    /// (and its allocations) back to the caller for reuse: the worker's once-per-step
    /// capability sweep threads one scratch vector through this, so steady state
    /// publishes nothing and allocates nothing.
    pub fn publish_swap(&self, worker: usize, capabilities: &mut Vec<Antichain<Time>>) {
        let mut caps = self.capabilities.lock().expect("capability lock poisoned");
        // Set-semantics comparison (`same_as`, not derived `==`): an antichain rebuilt
        // with its elements in a different order is the same frontier, and flagging it
        // as a change would re-run every worker's frontier fixed point for nothing.
        let row = &caps[worker];
        let unchanged = row.len() == capabilities.len()
            && row
                .iter()
                .zip(capabilities.iter())
                .all(|(old, new)| old.same_as(new));
        if !unchanged {
            std::mem::swap(&mut caps[worker], capabilities);
            self.version.fetch_add(1, Ordering::Release);
        }
    }

    /// The capability-table version: workers compare it against the version whose
    /// frontiers they last delivered to decide whether recomputation is needed.
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// Withdraws `worker`'s capabilities: the worker has retired its instance of this
    /// dataflow and will never again produce output for it. Once every worker recorded
    /// at install time has retired, the graph structure and capability table are freed
    /// entirely, so churning through many install/uninstall cycles does not accumulate
    /// per-dataflow state.
    ///
    /// Returns true exactly once: for the retire that freed the shared state, so the
    /// caller can release whatever registry entry points at this descriptor. A retire
    /// observed before any install (possible only through direct use of this type)
    /// leaves the state in place rather than freeing it under live peers.
    ///
    /// Each worker must call this at most once per dataflow (it does: retiring removes
    /// the worker's instance, and the ordinal is never constructed again).
    pub fn retire(&self, worker: usize) -> bool {
        {
            let mut caps = self.capabilities.lock().expect("capability lock poisoned");
            if let Some(row) = caps.get_mut(worker) {
                for cap in row.iter_mut() {
                    *cap = Antichain::new();
                }
            }
            self.version.fetch_add(1, Ordering::Release);
        }
        let retired = self.retired_workers.fetch_add(1, Ordering::SeqCst) + 1;
        let installed = self.installed_workers.load(Ordering::SeqCst);
        if installed > 0 && retired == installed {
            // No live instance remains anywhere, so nobody will consult this dataflow's
            // progress state again; release the graph (names, edges) and the table.
            *self.graph.lock().expect("graph lock poisoned") = None;
            self.capabilities
                .lock()
                .expect("capability lock poisoned")
                .clear();
            true
        } else {
            false
        }
    }

    /// Computes the frontier of every node input port from the currently published
    /// capabilities into `into` (indexed `[node][port]`): caller-owned buffers, so the
    /// per-step frontier recomputation reuses its working memory.
    pub fn input_frontiers_into(
        &self,
        into: &mut Vec<Vec<Antichain<Time>>>,
        scratch: &mut FrontierScratch,
    ) {
        let graph = self.graph.lock().expect("graph lock poisoned");
        let graph = graph.as_ref().expect("graph installed before stepping");
        let caps = self.capabilities.lock().expect("capability lock poisoned");
        compute_input_frontiers_into(graph, &caps, into, scratch);
    }
}

impl Default for DataflowShared {
    fn default() -> Self {
        Self::new()
    }
}

/// Reusable working memory for [`compute_input_frontiers_into`]: the output-frontier
/// table of the propagation fixed point and a flat time buffer. Holding these per
/// dataflow instance makes the per-step frontier recomputation allocation-free once
/// warmed up.
#[derive(Default)]
pub struct FrontierScratch {
    output: Vec<Antichain<Time>>,
    times: Vec<Time>,
}

/// Combines per-worker capabilities and propagates them to per-port input frontiers:
/// fills `into` (indexed `[node][port]`) and reuses `scratch`, clearing antichains in
/// place rather than reallocating them.
pub fn compute_input_frontiers_into(
    graph: &DataflowGraph,
    capabilities: &[Vec<Antichain<Time>>],
    into: &mut Vec<Vec<Antichain<Time>>>,
    scratch: &mut FrontierScratch,
) {
    // Seed each node's output frontier with the union of its capabilities across
    // workers.
    let output = &mut scratch.output;
    output.resize_with(graph.nodes, Antichain::new);
    for antichain in output.iter_mut() {
        antichain.clear();
    }
    for worker_caps in capabilities.iter() {
        for (node, cap) in worker_caps.iter().enumerate() {
            for time in cap.elements() {
                output[node].insert(*time);
            }
        }
    }

    // Least-fixed-point propagation of output frontiers: a node may emit at any time in
    // its own capabilities, or at any time it may still receive on an input (identity
    // internal summary), transformed along the incoming edge. Times are `Copy`, so one
    // flat scratch buffer stands in for the per-edge frontier clones the aliasing rules
    // would otherwise force.
    let times = &mut scratch.times;
    let mut changed = true;
    let mut rounds = 0usize;
    while changed {
        changed = false;
        rounds += 1;
        assert!(
            rounds <= 16 * (graph.nodes + graph.edges.len() + 1),
            "frontier propagation failed to converge"
        );
        for edge in graph.edges.iter() {
            times.clear();
            times.extend(
                output[edge.from.0]
                    .elements()
                    .iter()
                    .map(|t| edge.transform.apply(t)),
            );
            let target = &mut output[edge.to.0];
            for time in times.iter() {
                if target.insert(*time) {
                    changed = true;
                }
            }
        }
    }

    // Per-port input frontiers: the union of transformed source output frontiers over the
    // edges arriving at that port.
    into.resize_with(graph.nodes, Vec::new);
    for (node, ports) in into.iter_mut().enumerate() {
        ports.resize_with(graph.input_ports[node], Antichain::new);
        for antichain in ports.iter_mut() {
            antichain.clear();
        }
    }
    for edge in graph.edges.iter() {
        times.clear();
        times.extend(
            output[edge.from.0]
                .elements()
                .iter()
                .map(|t| edge.transform.apply(t)),
        );
        let slot = &mut into[edge.to.0][edge.port];
        for time in times.iter() {
            slot.insert(*time);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{EdgeDesc, EdgeTransform, NodeId};

    /// The form the worker runs, on fresh buffers.
    fn compute_input_frontiers(
        graph: &DataflowGraph,
        capabilities: &[Vec<Antichain<Time>>],
    ) -> Vec<Vec<Antichain<Time>>> {
        let mut into = Vec::new();
        let scratch = &mut FrontierScratch::default();
        compute_input_frontiers_into(graph, capabilities, &mut into, scratch);
        into
    }

    fn input_frontiers(shared: &DataflowShared) -> Vec<Vec<Antichain<Time>>> {
        let mut into = Vec::new();
        shared.input_frontiers_into(&mut into, &mut FrontierScratch::default());
        into
    }

    fn linear_graph() -> DataflowGraph {
        // input(0) -> map(1) -> probe(2)
        DataflowGraph {
            nodes: 3,
            names: vec!["input".into(), "map".into(), "probe".into()],
            input_ports: vec![0, 1, 1],
            edges: vec![
                EdgeDesc {
                    from: NodeId(0),
                    to: NodeId(1),
                    port: 0,
                    transform: EdgeTransform::Identity,
                },
                EdgeDesc {
                    from: NodeId(1),
                    to: NodeId(2),
                    port: 0,
                    transform: EdgeTransform::Identity,
                },
            ],
        }
    }

    #[test]
    fn linear_propagation_follows_source() {
        let graph = linear_graph();
        // Worker 0's input holds epoch 3; worker 1's input holds epoch 5.
        let caps = vec![
            vec![
                Antichain::from_elem(Time::from_epoch(3)),
                Antichain::new(),
                Antichain::new(),
            ],
            vec![
                Antichain::from_elem(Time::from_epoch(5)),
                Antichain::new(),
                Antichain::new(),
            ],
        ];
        let inputs = compute_input_frontiers(&graph, &caps);
        // The probe's frontier is held at the earlier of the two inputs.
        assert_eq!(inputs[2][0].elements(), &[Time::from_epoch(3)]);
    }

    #[test]
    fn closed_source_empties_frontiers() {
        let graph = linear_graph();
        let caps = vec![vec![Antichain::new(), Antichain::new(), Antichain::new()]];
        let inputs = compute_input_frontiers(&graph, &caps);
        assert!(inputs[1][0].is_empty());
        assert!(inputs[2][0].is_empty());
    }

    #[test]
    fn pending_operator_work_holds_downstream_frontier() {
        let graph = linear_graph();
        // Input has advanced to epoch 7, but the middle operator still owes output at 4.
        let caps = vec![vec![
            Antichain::from_elem(Time::from_epoch(7)),
            Antichain::from_elem(Time::from_epoch(4)),
            Antichain::new(),
        ]];
        let inputs = compute_input_frontiers(&graph, &caps);
        assert_eq!(inputs[1][0].elements(), &[Time::from_epoch(7)]);
        assert_eq!(inputs[2][0].elements(), &[Time::from_epoch(4)]);
    }

    fn loop_graph() -> DataflowGraph {
        // input(0) -> enter/head(1) <-> body(2) -> feedback(3) -> head(1)
        //                               body(2) -> leave(4) -> probe(5)
        DataflowGraph {
            nodes: 6,
            names: vec![
                "input".into(),
                "head".into(),
                "body".into(),
                "feedback".into(),
                "leave".into(),
                "probe".into(),
            ],
            input_ports: vec![0, 1, 1, 1, 1, 1],
            edges: vec![
                EdgeDesc {
                    from: NodeId(0),
                    to: NodeId(1),
                    port: 0,
                    transform: EdgeTransform::Identity,
                },
                EdgeDesc {
                    from: NodeId(1),
                    to: NodeId(2),
                    port: 0,
                    transform: EdgeTransform::Identity,
                },
                EdgeDesc {
                    from: NodeId(2),
                    to: NodeId(3),
                    port: 0,
                    transform: EdgeTransform::Identity,
                },
                EdgeDesc {
                    from: NodeId(3),
                    to: NodeId(1),
                    port: 0,
                    transform: EdgeTransform::Feedback { depth: 1 },
                },
                EdgeDesc {
                    from: NodeId(2),
                    to: NodeId(4),
                    port: 0,
                    transform: EdgeTransform::Identity,
                },
                EdgeDesc {
                    from: NodeId(4),
                    to: NodeId(5),
                    port: 0,
                    transform: EdgeTransform::Leave { depth: 1 },
                },
            ],
        }
    }

    #[test]
    fn loop_with_pending_body_work_holds_round() {
        let graph = loop_graph();
        // The input is at epoch 1; the loop body holds work at epoch 0, round 2.
        let mut caps = vec![vec![Antichain::new(); 6]];
        caps[0][0] = Antichain::from_elem(Time::from_epoch(1));
        caps[0][2] = Antichain::from_elem(Time::from_coords([0, 2, 0]));
        let inputs = compute_input_frontiers(&graph, &caps);
        // The loop head can still see epoch 1 (round 0) and epoch 0 at round 3 (the body's
        // pending work, routed around the feedback edge).
        let mut head: Vec<Time> = inputs[1][0].elements().to_vec();
        head.sort();
        assert_eq!(
            head,
            vec![Time::from_coords([0, 3, 0]), Time::from_coords([1, 0, 0])]
        );
        // Outside the loop, the leave edge collapses rounds: the probe must wait for
        // epoch 0 to finish.
        assert_eq!(inputs[5][0].elements(), &[Time::from_epoch(0)]);
    }

    #[test]
    fn loop_quiet_body_lets_epoch_complete() {
        let graph = loop_graph();
        // No pending body work: only the input's capability at epoch 1 remains.
        let mut caps = vec![vec![Antichain::new(); 6]];
        caps[0][0] = Antichain::from_elem(Time::from_epoch(1));
        let inputs = compute_input_frontiers(&graph, &caps);
        // The probe sees epoch 1: epoch 0 is complete.
        assert_eq!(inputs[5][0].elements(), &[Time::from_epoch(1)]);
        // Inside the loop the head still admits epoch 1 round 0.
        assert_eq!(inputs[1][0].elements(), &[Time::from_epoch(1)]);
    }

    #[test]
    fn retiring_all_workers_frees_shared_state() {
        let shared = DataflowShared::new();
        shared.install(linear_graph(), 2);
        assert!(!shared.retire(0));
        // One worker still live: the graph must remain consultable.
        assert!(shared.graph.lock().unwrap().is_some());
        assert!(!input_frontiers(&shared).is_empty());
        assert!(shared.retire(1));
        // Last worker retired: graph and capability table are released.
        assert!(shared.graph.lock().unwrap().is_none());
        assert!(shared.capabilities.lock().unwrap().is_empty());
    }

    #[test]
    fn retire_before_install_does_not_free() {
        let shared = DataflowShared::new();
        // A retire racing ahead of any install must not free state under live peers: the
        // worker count is recorded at install, and zero installs means nothing to free.
        assert!(!shared.retire(0));
        shared.install(linear_graph(), 2);
        assert!(shared.graph.lock().unwrap().is_some());
        assert!(!input_frontiers(&shared).is_empty());
        // The premature retire was still counted; the second worker's retire completes
        // the install-time quota of two and frees the state.
        assert!(shared.retire(1));
        assert!(shared.graph.lock().unwrap().is_none());
    }

    #[test]
    fn shared_state_install_and_publish() {
        let shared = DataflowShared::new();
        shared.install(linear_graph(), 2);
        shared.install(linear_graph(), 2);
        // Before publication every node holds the minimum capability.
        let inputs = input_frontiers(&shared);
        assert_eq!(inputs[2][0].elements(), &[Time::minimum()]);
        for worker in [0, 1] {
            let at_two = Antichain::from_elem(Time::from_epoch(2));
            shared.publish_swap(
                worker,
                &mut vec![at_two, Antichain::new(), Antichain::new()],
            );
        }
        let inputs = input_frontiers(&shared);
        assert_eq!(inputs[2][0].elements(), &[Time::from_epoch(2)]);
    }
}
