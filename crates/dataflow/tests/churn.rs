//! Install/uninstall churn at the runtime layer: a dataflow's address is the ordinal of
//! its construction, never reused and the same on every worker whatever order each
//! retired in; scheduling state stays O(live dataflows); and a message is delivered to
//! the live dataflow its ordinal names, or its worker panics.

use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;

use kpg_dataflow::{
    downcast_payload, execute, BundleBox, Config, InputHandle, Operator, OutputContext,
    ProbeHandle, Time, Worker,
};
use kpg_timestamp::Antichain;

/// The payload type an input node emits.
type Updates = Vec<(u64, Time, isize)>;

/// A sink that records every value delivered to it.
struct Sink {
    received: Rc<RefCell<Vec<u64>>>,
}

impl Operator for Sink {
    fn name(&self) -> &str {
        "Sink"
    }
    fn recv(&mut self, _port: usize, payload: BundleBox) {
        let updates: Updates = downcast_payload(payload, "Sink");
        self.received
            .borrow_mut()
            .extend(updates.into_iter().map(|(data, _, _)| data));
    }
    fn work(&mut self, _output: &mut OutputContext<'_>) -> bool {
        false
    }
    fn set_frontier(&mut self, _port: usize, _frontier: &Antichain<Time>) {}
    fn capabilities(&self, _into: &mut Antichain<Time>) {}
}

/// Builds `input -> sink` (edge 0) and returns the input handle and the sink's log.
fn input_to_sink(
    builder: &mut kpg_dataflow::DataflowBuilder,
) -> (InputHandle<u64, isize>, Rc<RefCell<Vec<u64>>>) {
    let (input, node) = InputHandle::<u64, isize>::new(builder);
    let received = Rc::new(RefCell::new(Vec::new()));
    let sink = builder.add_operator(
        Box::new(Sink {
            received: Rc::clone(&received),
        }),
        1,
    );
    builder.connect(node, sink, 0);
    (input, received)
}

/// Routes every update it receives to the worker `key % peers`, as an exchange would.
struct Exchange {
    pending: Updates,
}

impl Operator for Exchange {
    fn name(&self) -> &str {
        "Exchange"
    }
    fn recv(&mut self, _port: usize, payload: BundleBox) {
        let updates: Updates = downcast_payload(payload, "Exchange");
        self.pending.extend(updates);
    }
    fn work(&mut self, output: &mut OutputContext<'_>) -> bool {
        let peers = output.peers();
        let worked = !self.pending.is_empty();
        for update in self.pending.drain(..) {
            output.send_to_worker(update.0 as usize % peers, Box::new(vec![update]));
        }
        worked
    }
    fn set_frontier(&mut self, _port: usize, _frontier: &Antichain<Time>) {}
    fn capabilities(&self, into: &mut Antichain<Time>) {
        for (_, time, _) in self.pending.iter() {
            into.insert(*time);
        }
    }
}

/// One install→feed→probe→uninstall cycle body shared by the churn tests. Returns the
/// last epoch fed.
fn churn_cycles(worker: &mut Worker, cycles: usize) -> u64 {
    let mut epoch = 0u64;
    let mut previous = None;
    for cycle in 0..cycles {
        let name = format!("q{cycle}");
        let (mut input, probe) = worker.install(&name, |builder| {
            let (input, node) = InputHandle::<u64, isize>::new(builder);
            (input, ProbeHandle::new(builder, node))
        });
        let ordinal = worker.installed_index(&name).expect("just installed");
        assert!(
            previous < Some(ordinal),
            "an ordinal is never handed out twice: {ordinal} after {previous:?}"
        );
        previous = Some(ordinal);
        input.insert(cycle as u64);
        epoch += 1;
        input.advance_to(epoch);
        worker.step_while(|| probe.less_than(&Time::from_epoch(epoch)));
        assert!(worker.uninstall(&name));
    }
    epoch
}

#[test]
fn churn_never_reuses_an_ordinal_and_bounds_state() {
    for workers in [1usize, 2] {
        let cycles = 100usize;
        let observations = execute(Config::new(workers), move |worker| {
            // A resident dataflow stays live throughout the churn.
            let (mut base_in, base_log) = worker.install("base", input_to_sink);
            // Asserts that the 100 ordinals handed out were strictly increasing.
            let epoch = churn_cycles(worker, cycles);

            // The resident dataflow still works after the churn.
            base_in.insert(7);
            base_in.advance_to(epoch + 1);
            worker.step();
            let base_saw = base_log.borrow().clone();

            (
                worker.live_dataflow_count(),
                worker.shared_dataflow_entries(),
                worker.installed(),
                base_saw,
            )
        });
        for (live, shared_entries, installed, base_saw) in observations {
            // 100 installs later the worker holds the resident dataflow and nothing else,
            assert_eq!(live, 1, "workers = {workers}");
            assert_eq!(installed, vec!["base"], "workers = {workers}");
            // and only the resident dataflow keeps a progress-registry entry.
            assert_eq!(shared_entries, 1, "workers = {workers}");
            assert_eq!(base_saw, vec![7], "workers = {workers}");
        }
    }
}

/// The live operator count is a function of the dataflows live now: it rises by a
/// dataflow's operators at its install and falls back at its uninstall, however many
/// came and went in between.
#[test]
fn live_operators_are_those_of_the_live_dataflows() {
    execute(Config::new(1), |worker| {
        assert_eq!(worker.live_operator_count(), 0);
        let _resident = worker.install("resident", input_to_sink);
        assert_eq!(worker.live_operator_count(), 2, "an input and a sink");
        churn_cycles(worker, 10);
        assert_eq!(worker.live_operator_count(), 2);
        let _second = worker.install("second", input_to_sink);
        assert_eq!(worker.live_operator_count(), 4);
        assert!(worker.uninstall("resident"));
        assert_eq!(worker.live_operator_count(), 2);
    });
}

/// `retire` takes a dataflow by its ordinal, named or not: retiring a named one frees
/// its name for a fresh `install`, an ordinal that is not live is refused, and the
/// progress registry is back to the resident set.
#[test]
fn retire_takes_an_ordinal_and_frees_its_name() {
    for workers in [1usize, 2] {
        let observations = execute(Config::new(workers), |worker| {
            let _resident = worker.install("resident", input_to_sink);
            let _named = worker.install("named", input_to_sink);
            let named = worker.installed_index("named").expect("just installed");
            let unnamed = worker.dataflow(|builder| {
                let _ = input_to_sink(builder);
                builder.dataflow_index()
            });
            worker.step();
            let retired = [worker.retire(named), worker.retire(unnamed)];
            let again = [worker.retire(named), worker.retire(unnamed + 1)];
            let freed = worker.installed_index("named");
            let _fresh = worker.install("named", input_to_sink);
            let fresh = worker.installed_index("named");
            assert!(worker.uninstall("named"));
            // Read after a step, when every worker has retired what it retires here.
            worker.step();
            let counts = [
                worker.live_dataflow_count(),
                worker.shared_dataflow_entries(),
            ];
            (retired, again, freed, fresh > Some(unnamed), counts)
        });
        for (retired, again, freed, fresh, counts) in observations {
            assert_eq!(retired, [true, true], "workers = {workers}");
            assert_eq!(again, [false, false], "workers = {workers}: not live");
            assert_eq!(freed, None, "workers = {workers}: the name goes with it");
            assert!(
                fresh,
                "workers = {workers}: a fresh install, a fresh ordinal"
            );
            assert_eq!(counts, [1, 1], "workers = {workers}: the resident alone");
        }
    }
}

/// Workers may retire the same dataflows in different orders between two steps: the
/// next dataflow's address is its ordinal, which no retirement changes, so it is the
/// same on both and they can exchange data for it.
#[test]
fn retire_order_does_not_change_the_next_address() {
    let observations = execute(Config::new(2), |worker| {
        let _a = worker.install("a", input_to_sink);
        let _b = worker.install("b", input_to_sink);
        worker.step();
        let order = if worker.index() == 0 {
            ["a", "b"]
        } else {
            ["b", "a"]
        };
        for name in order {
            assert!(worker.uninstall(name));
        }

        let (mut input, received, probe) = worker.install("c", |builder| {
            let (input, node) = InputHandle::<u64, isize>::new(builder);
            let pending = Vec::new();
            let exchange = builder.add_operator(Box::new(Exchange { pending }), 1);
            builder.connect(node, exchange, 0);
            let received = Rc::new(RefCell::new(Vec::new()));
            let log = Rc::clone(&received);
            let sink = builder.add_operator(Box::new(Sink { received: log }), 1);
            builder.connect(exchange, sink, 0);
            (input, received, ProbeHandle::new(builder, sink))
        });
        // Each worker introduces two records, one for each worker.
        let base = 10 * (worker.index() as u64 + 1);
        input.insert(base);
        input.insert(base + 1);
        input.advance_to(1);
        // A fixed number of steps, so a failure is an assertion below and not a hang.
        for _ in 0..5 {
            worker.step();
        }
        let mut received = received.borrow().clone();
        received.sort_unstable();
        (
            worker.installed_index("c"),
            received,
            probe.less_than(&Time::from_epoch(1)),
        )
    });
    assert_eq!(observations[0].0, observations[1].0, "one address for `c`");
    assert_eq!(observations[0].1, vec![10, 20], "even keys to worker 0");
    assert_eq!(observations[1].1, vec![11, 21], "odd keys to worker 1");
    for (_, _, behind) in observations {
        assert!(!behind, "the probe passes epoch 1");
    }
}

/// Installs and uninstalls happen only between steps, and a step ends only once every
/// inbox is empty, so a message always finds the dataflow it addresses. One that does
/// not is a broken lockstep: the worker panics, naming the ordinal and itself. One
/// worker, so no peer is left waiting at a barrier.
#[test]
#[should_panic(expected = "worker 0 received a message for dataflow 1, which is not live here")]
fn a_message_for_an_ordinal_not_built_here_panics() {
    let messages = execute(Config::new(1), |worker| {
        let _a = worker.install("a", input_to_sink);
        let early: Updates = vec![(42, Time::minimum(), 1)];
        worker.inject_remote(0, 1, 0, Box::new(early));
        let stepped = catch_unwind(AssertUnwindSafe(|| worker.step()));
        let payload = stepped.expect_err("no dataflow 1 is live to take the message");
        let message = payload.downcast_ref::<String>();
        message.cloned().unwrap_or_default()
    });
    // Raised again on the test thread, where `expected` reads the worker's message.
    panic!("{}", messages[0]);
}
