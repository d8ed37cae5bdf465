//! Install/uninstall churn at the runtime layer: retired dataflow slots are reused
//! under bumped generations, scheduling state stays O(live dataflows), and messages
//! stamped with a stale `(slot, generation)` address are discarded — while messages
//! ahead of a worker's own construction are buffered until it catches up.

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

/// One install→feed→probe→uninstall cycle body shared by the churn tests.
fn churn_cycles(worker: &mut Worker, cycles: usize) -> u64 {
    let mut epoch = 0u64;
    let mut reused_slot = None;
    for cycle in 0..cycles {
        let name = format!("q{cycle}");
        let (mut input, probe) = worker.install(&name, |builder| {
            let (input, node) = InputHandle::<u64, isize>::new(builder);
            (input, ProbeHandle::new(builder, node))
        });
        let slot = worker.installed_index(&name).expect("just installed");
        if let Some(previous) = reused_slot {
            assert_eq!(slot, previous, "churn must reuse the freed slot");
        }
        reused_slot = Some(slot);
        input.insert(cycle as u64);
        epoch += 1;
        input.advance_to(epoch);
        worker.step_while(|| probe.less_than(&Time::from_epoch(epoch)));
        assert!(worker.uninstall(&name));
    }
    epoch
}

#[test]
fn churn_reuses_slots_and_bounds_state() {
    for workers in [1usize, 2] {
        let cycles = 100usize;
        let observations = execute(Config::new(workers), move |worker| {
            // A resident dataflow occupies slot 0 throughout the churn.
            let (mut base_in, base_probe) = worker.install("base", |builder| {
                let (input, node) = InputHandle::<u64, isize>::new(builder);
                (input, ProbeHandle::new(builder, node))
            });
            let epoch = churn_cycles(worker, cycles);

            // The resident dataflow still works after the churn.
            base_in.insert(7);
            base_in.advance_to(epoch + 1);
            worker.step_while(|| base_probe.less_than(&Time::from_epoch(epoch + 1)));

            (
                worker.dataflow_count(),
                worker.live_dataflow_count(),
                worker.dataflow_generation(1),
                worker.shared_dataflow_entries(),
            )
        });
        for (slots, live, generation, shared_entries) in observations {
            // 100 installs fit in two slots: the resident one plus one reused slot.
            assert_eq!(slots, 2, "workers = {workers}");
            assert_eq!(live, 1, "workers = {workers}");
            assert_eq!(generation, cycles as u64 - 1, "workers = {workers}");
            // Only the resident dataflow keeps a progress-registry entry.
            assert_eq!(shared_entries, 1, "workers = {workers}");
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

#[test]
fn stale_generation_messages_are_discarded_on_two_workers() {
    let observations = execute(Config::new(2), |worker| {
        // Generation 0 of slot 0: fed once, then retired.
        let (mut victim_in, victim_log) = worker.install("victim", input_to_sink);
        victim_in.insert(1);
        victim_in.advance_to(1);
        for _ in 0..3 {
            worker.step();
        }
        assert!(worker.uninstall("victim"));

        // Generation 1 reuses slot 0.
        let (_fresh_in, fresh_log) = worker.install("fresh", input_to_sink);
        assert_eq!(worker.installed_index("fresh"), Some(0));
        assert_eq!(worker.dataflow_generation(0), 1);

        // Every worker forges, to every inbox: a stale-generation message whose payload
        // would fail the sink's downcast if it were ever delivered, and a
        // current-generation message that must be delivered.
        for target in 0..worker.peers() {
            worker.inject_remote(target, 0, 0, 0, Box::new("poison".to_string()));
            let valid: Updates = vec![(7, Time::minimum(), 1)];
            worker.inject_remote(target, 0, 1, 0, Box::new(valid));
        }
        // A single step drains the fabric: quiescence waits for in-flight messages.
        worker.step();

        let victim = victim_log.borrow().clone();
        let fresh = fresh_log.borrow().clone();
        let pending = worker.pending_remote_count();
        (victim, fresh, pending)
    });
    for (victim, fresh, pending) in observations {
        // The retired generation saw only its own input; the stale injection vanished.
        assert_eq!(victim, vec![1]);
        // The new occupant received exactly the two current-generation messages.
        assert_eq!(fresh, vec![7, 7]);
        assert_eq!(pending, 0);
    }
}

#[test]
fn out_of_range_messages_are_buffered_until_construction() {
    let observations = execute(Config::new(1), |worker| {
        // Address slot 1 before any dataflow exists: out of range, must not panic.
        let early: Updates = vec![(42, Time::minimum(), 1)];
        worker.inject_remote(0, 1, 0, 0, Box::new(early));
        worker.step();
        let buffered = worker.pending_remote_count();

        // Construct slots 0 and 1; the buffered message is for slot 1, generation 0.
        let (_in_a, log_a) = worker.install("a", input_to_sink);
        let (_in_b, log_b) = worker.install("b", input_to_sink);
        worker.step();

        let pending_after = worker.pending_remote_count();
        let a_saw = log_a.borrow().clone();
        let b_saw = log_b.borrow().clone();
        (buffered, pending_after, a_saw, b_saw)
    });
    let (buffered, pending_after, log_a, log_b) = observations.into_iter().next().unwrap();
    assert_eq!(buffered, 1, "the early message is held, not dropped");
    assert_eq!(
        pending_after, 0,
        "construction releases the buffered message"
    );
    assert!(log_a.is_empty());
    assert_eq!(log_b, vec![42]);
}

#[test]
fn future_generation_messages_wait_for_slot_reuse() {
    let observations = execute(Config::new(1), |worker| {
        let (_in_x, log_x) = worker.install("x", input_to_sink);
        // Address generation 1 of slot 0 while generation 0 still occupies it.
        let future: Updates = vec![(9, Time::minimum(), 1)];
        worker.inject_remote(0, 0, 1, 0, Box::new(future));
        worker.step();
        let buffered = worker.pending_remote_count();
        let x_saw = log_x.borrow().clone();

        assert!(worker.uninstall("x"));
        let (_in_y, log_y) = worker.install("y", input_to_sink);
        assert_eq!(worker.dataflow_generation(0), 1);
        worker.step();

        let y_saw = log_y.borrow().clone();
        let pending_after = worker.pending_remote_count();
        (buffered, x_saw, y_saw, pending_after)
    });
    let (buffered, x_saw, y_saw, pending_after) = observations.into_iter().next().unwrap();
    assert_eq!(buffered, 1);
    assert!(x_saw.is_empty(), "generation 0 must not see the message");
    assert_eq!(y_saw, vec![9], "generation 1 receives it once installed");
    assert_eq!(pending_after, 0);
}
