//! Install/uninstall churn at the runtime layer: a dataflow's address is the ordinal of
//! its construction, never reused and the same on every worker whatever order each
//! retired in; scheduling state stays O(live dataflows); messages addressed to a retired
//! ordinal are discarded — while messages ahead of a worker's own construction are
//! buffered until it catches up.

use std::cell::RefCell;
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
            worker.pending_remote_count(),
        )
    });
    assert_eq!(observations[0].0, observations[1].0, "one address for `c`");
    assert_eq!(observations[0].1, vec![10, 20], "even keys to worker 0");
    assert_eq!(observations[1].1, vec![11, 21], "odd keys to worker 1");
    for (_, _, behind, pending) in observations {
        assert!(!behind, "the probe passes epoch 1");
        assert_eq!(pending, 0);
    }
}

#[test]
fn messages_for_a_retired_ordinal_are_discarded_on_two_workers() {
    let observations = execute(Config::new(2), |worker| {
        // Ordinal 0: fed once, then retired.
        let (mut victim_in, victim_log) = worker.install("victim", input_to_sink);
        victim_in.insert(1);
        victim_in.advance_to(1);
        for _ in 0..3 {
            worker.step();
        }
        assert!(worker.uninstall("victim"));

        // The dataflow installed after it is ordinal 1.
        let (_fresh_in, fresh_log) = worker.install("fresh", input_to_sink);
        assert_eq!(worker.installed_index("fresh"), Some(1));

        // Every worker forges, to every inbox: a message for the retired ordinal whose
        // payload would fail the sink's downcast if it were ever delivered, and a
        // message for the live one that must be delivered.
        for target in 0..worker.peers() {
            worker.inject_remote(target, 0, 0, Box::new("poison".to_string()));
            let valid: Updates = vec![(7, Time::minimum(), 1)];
            worker.inject_remote(target, 1, 0, Box::new(valid));
        }
        // A single step drains the fabric: quiescence waits for in-flight messages.
        worker.step();

        let victim = victim_log.borrow().clone();
        let fresh = fresh_log.borrow().clone();
        let pending = worker.pending_remote_count();
        (victim, fresh, pending)
    });
    for (victim, fresh, pending) in observations {
        // The retired dataflow saw only its own input; the forged message vanished.
        assert_eq!(victim, vec![1]);
        // The live dataflow received exactly the two messages addressed to it.
        assert_eq!(fresh, vec![7, 7]);
        assert_eq!(pending, 0);
    }
}

/// A message for an ordinal this worker has not constructed yet waits in `pending`: it
/// is never delivered to an earlier dataflow, live or since retired, and is delivered
/// exactly once when the addressed dataflow is constructed.
#[test]
fn out_of_range_messages_are_buffered_until_construction() {
    for retire_earlier in [false, true] {
        let observations = execute(Config::new(1), move |worker| {
            // Address ordinal 1 before any dataflow exists: out of range, must not panic.
            let early: Updates = vec![(42, Time::minimum(), 1)];
            worker.inject_remote(0, 1, 0, Box::new(early));
            worker.step();
            let buffered_before_any = worker.pending_remote_count();

            // Ordinal 0 is not the addressee, while it lives or after it retired.
            let (_in_a, log_a) = worker.install("a", input_to_sink);
            worker.step();
            let buffered_beside_a = worker.pending_remote_count();
            if retire_earlier {
                assert!(worker.uninstall("a"));
                worker.step();
            }

            // Ordinal 1 is: constructing it releases the message, once.
            let (_in_b, log_b) = worker.install("b", input_to_sink);
            assert_eq!(worker.installed_index("b"), Some(1));
            worker.step();
            worker.step();

            let pending_after = worker.pending_remote_count();
            let a_saw = log_a.borrow().clone();
            let b_saw = log_b.borrow().clone();
            (
                (buffered_before_any, buffered_beside_a, pending_after),
                a_saw,
                b_saw,
            )
        });
        let (pending, log_a, log_b) = observations.into_iter().next().unwrap();
        assert_eq!(
            pending,
            (1, 1, 0),
            "held, not dropped, until construction releases it (retire_earlier = {retire_earlier})"
        );
        assert!(log_a.is_empty(), "an earlier dataflow must not see it");
        assert_eq!(log_b, vec![42], "the addressed dataflow receives it once");
    }
}
