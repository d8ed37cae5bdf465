//! Plan/scalar equivalence: the plan-IR formulations of the §6.2 query classes must give
//! the *same answer at every epoch* as `kpg_graph::baseline`'s scalar references, which
//! evaluate each class from scratch over the edges and arguments live at that epoch and
//! share no code with the dataflow engine.
//!
//! The plans are driven with a seeded workload (an initial graph, then per-epoch
//! argument and edge churn). After each epoch's `settle` the plan side reads
//! `Manager::query`; the reference side replays the same churn on plain vectors. The
//! two are compared at every epoch, on 1 and 2 workers (per-worker answers unioned
//! first) and for both base keyings.

use kpg_core::prelude::*;
use kpg_graph::plans::{
    edge_row, four_path_plan, lookup_plan, node_row, pair_row, row_u32, two_hop_plan,
};
use kpg_graph::{baseline, generate, Edge};
use kpg_plan::{Command, Manager, Row};
use kpg_timestamp::rng::SmallRng;

const NODES: u32 = 40;
const INITIAL_EDGES: usize = 150;
const EPOCHS: u64 = 6;
const SEED: u64 = 11;

/// One epoch's interactive activity.
struct Step {
    node_args: Vec<u32>,
    pair_args: Vec<(u32, u32)>,
    additions: Vec<Edge>,
    removals: Vec<Edge>,
}

fn workload() -> (Vec<Edge>, Vec<Step>) {
    let initial = generate::uniform(NODES, INITIAL_EDGES, SEED);
    let mut live = initial.clone();
    let mut rng = SmallRng::seed_from_u64(SEED ^ 0xfeed);
    let mut steps = Vec::new();
    for _ in 0..EPOCHS {
        let node_args = vec![rng.gen_range(0..NODES), rng.gen_range(0..NODES)];
        let pair_args = vec![(rng.gen_range(0..NODES), rng.gen_range(0..NODES))];
        let additions = vec![
            (rng.gen_range(0..NODES), rng.gen_range(0..NODES)),
            (rng.gen_range(0..NODES), rng.gen_range(0..NODES)),
        ];
        let victim = rng.gen_range(0..live.len() as u32) as usize;
        let removals = vec![live.swap_remove(victim)];
        live.extend(additions.iter().copied());
        steps.push(Step {
            node_args,
            pair_args,
            additions,
            removals,
        });
    }
    (initial, steps)
}

/// Sorts, coalesces, and drops zeros: the canonical form of an answer.
fn consolidated<D: Ord>(parts: impl IntoIterator<Item = (D, isize)>) -> Vec<(D, isize)> {
    let mut rows: Vec<(D, isize)> = parts.into_iter().collect();
    rows.sort_by(|a, b| a.0.cmp(&b.0));
    let mut result: Vec<(D, isize)> = Vec::new();
    for (data, diff) in rows {
        match result.last_mut() {
            Some((d, r)) if *d == data => *r += diff,
            _ => result.push((data, diff)),
        }
    }
    result.retain(|(_, diff)| *diff != 0);
    result
}

/// One query's answer at each epoch: entry `e - 1` is the answer once epoch `e` is
/// current, i.e. over every time before `e`.
type Answers<D> = Vec<Vec<(D, isize)>>;
type Pair = (u32, u32);
type Triple = (u32, u32, u32);

/// The plan side: per-worker, per-epoch `Manager::query` answers, unioned across
/// workers.
fn unioned<D: Ord>(per_worker: Vec<Answers<D>>) -> Answers<D> {
    let mut epochs: Vec<Vec<(D, isize)>> = (0..EPOCHS).map(|_| Vec::new()).collect();
    for worker in per_worker {
        for (epoch, answer) in worker.into_iter().enumerate() {
            epochs[epoch].extend(answer);
        }
    }
    epochs.into_iter().map(consolidated).collect()
}

/// The scalar references: the step's churn applied to plain vectors, and each class
/// evaluated from scratch at every epoch.
fn expected() -> (Answers<Pair>, Answers<Pair>, Answers<Triple>) {
    let (mut edges, steps) = workload();
    let (mut node_args, mut pair_args) = (Vec::new(), Vec::new());
    let (mut lookups, mut two_hops, mut fours) = (Vec::new(), Vec::new(), Vec::new());
    for step in steps {
        node_args.extend(step.node_args);
        pair_args.extend(step.pair_args);
        for removal in step.removals {
            let position = edges.iter().position(|edge| *edge == removal);
            edges.swap_remove(position.expect("a removal takes back a live edge"));
        }
        edges.extend(step.additions);
        lookups.push(baseline::lookup(&edges, &node_args).into_iter().collect());
        let two_hop = baseline::two_hop(&edges, &node_args).into_iter();
        two_hops.push(two_hop.map(|pair| (pair, 1)).collect());
        let four = baseline::four_path(&edges, &pair_args).into_iter();
        fours.push(
            four.map(|((src, dst), hops)| ((src, dst, hops), 1))
                .collect(),
        );
    }
    (lookups, two_hops, fours)
}

/// The plan formulation: the same workload executed as a `Manager` command stream.
/// `key_arity` selects the base-arrangement keying: `None` exercises the memoized
/// re-arrangement path, `Some(1)` the direct prefix-keyed import path.
fn run_plans(
    workers: usize,
    key_arity: Option<usize>,
) -> (Answers<Pair>, Answers<Pair>, Answers<Triple>) {
    let per_worker = execute(Config::new(workers), move |worker| {
        let (initial, steps) = workload();
        let mut manager = Manager::new();
        let run = |manager: &mut Manager, worker: &mut Worker, command: Command| {
            manager.execute(worker, command).unwrap();
        };
        run(
            &mut manager,
            worker,
            Command::CreateInput {
                name: "edges".into(),
                key_arity,
            },
        );
        for (name, plan, locals) in [
            ("lookup", lookup_plan("edges", "lookup-args"), "lookup-args"),
            (
                "two-hop",
                two_hop_plan("edges", "two-hop-args"),
                "two-hop-args",
            ),
            (
                "four-path",
                four_path_plan("edges", "four-path-args"),
                "four-path-args",
            ),
        ] {
            run(
                &mut manager,
                worker,
                Command::Install {
                    name: name.into(),
                    plan,
                    locals: vec![locals.into()],
                },
            );
        }
        let update =
            |manager: &mut Manager, worker: &mut Worker, name: &str, row: Row, diff: isize| {
                manager
                    .execute(
                        worker,
                        Command::Update {
                            name: name.into(),
                            row,
                            diff,
                        },
                    )
                    .unwrap();
            };
        for edge in initial {
            update(&mut manager, worker, "edges", edge_row(edge), 1);
        }
        let pairs = |manager: &Manager, name: &str| -> Vec<(Pair, isize)> {
            let answer = manager.query(name).unwrap();
            let pair = |(row, diff): (Row, isize)| ((row_u32(&row, 0), row_u32(&row, 1)), diff);
            answer.into_iter().map(pair).collect()
        };
        let (mut lookups, mut two_hops, mut fours) = (Vec::new(), Vec::new(), Vec::new());
        for (index, step) in steps.into_iter().enumerate() {
            for &arg in &step.node_args {
                update(&mut manager, worker, "lookup-args", node_row(arg), 1);
                update(&mut manager, worker, "two-hop-args", node_row(arg), 1);
            }
            for &pair in &step.pair_args {
                update(&mut manager, worker, "four-path-args", pair_row(pair), 1);
            }
            for &edge in &step.additions {
                update(&mut manager, worker, "edges", edge_row(edge), 1);
            }
            for &edge in &step.removals {
                update(&mut manager, worker, "edges", edge_row(edge), -1);
            }
            let epoch = index as u64 + 1;
            run(&mut manager, worker, Command::AdvanceTime { epoch });
            manager.settle(worker);
            lookups.push(pairs(&manager, "lookup"));
            two_hops.push(pairs(&manager, "two-hop"));
            let four = manager.query("four-path").unwrap();
            let triple = |(row, diff): (Row, isize)| {
                let triple = (row_u32(&row, 0), row_u32(&row, 1), row_u32(&row, 2));
                (triple, diff)
            };
            fours.push(four.into_iter().map(triple).collect());
        }
        (lookups, two_hops, fours)
    });
    let mut lookups = Vec::new();
    let mut two_hops = Vec::new();
    let mut fours = Vec::new();
    for (lookup, two_hop, four) in per_worker {
        lookups.push(lookup);
        two_hops.push(two_hop);
        fours.push(four);
    }
    (unioned(lookups), unioned(two_hops), unioned(fours))
}

fn assert_equivalent(workers: usize) {
    let (lookup, two_hop, four) = expected();
    assert!(
        two_hop.iter().all(|answer| !answer.is_empty()),
        "the workload must exercise the queries at every epoch"
    );
    for key_arity in [None, Some(1)] {
        let (plan_lookup, plan_two_hop, plan_four) = run_plans(workers, key_arity);
        assert_eq!(
            lookup, plan_lookup,
            "lookup answers diverge on {workers} workers (key_arity {key_arity:?})"
        );
        assert_eq!(
            two_hop, plan_two_hop,
            "2-hop answers diverge on {workers} workers (key_arity {key_arity:?})"
        );
        assert_eq!(
            four, plan_four,
            "4-hop path answers diverge on {workers} workers (key_arity {key_arity:?})"
        );
    }
}

#[test]
fn plans_answer_as_the_scalar_references_on_one_worker() {
    assert_equivalent(1);
}

#[test]
fn plans_answer_as_the_scalar_references_on_two_workers() {
    assert_equivalent(2);
}
