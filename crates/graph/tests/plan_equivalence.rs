//! Plan/closure equivalence: the plan-IR formulations of the §6.2 query classes must
//! give the *same answer at every epoch* as the closure-built `InteractiveSession`
//! versions (`closure_oracle/`, which lives only under `tests/`).
//!
//! Both formulations are driven with an identical seeded workload (same initial graph,
//! same per-epoch argument and edge churn, same epochs). The closure side is the
//! reference: it captures its `(answer, time, diff)` output stream, and its answer at
//! epoch `e` is that stream accumulated over every time before `e`. The plan side has
//! no such stream — a query's answer is an arrangement — so after each epoch's `settle`
//! it reads `Manager::query`. The two are compared at every epoch, on 1 and 2 workers
//! (per-worker answers unioned first) and for both base keyings.
//!
//! These queries live at the streaming scope, where update times *are* epochs, so
//! "equal answers at every epoch" is the same statement as "equal consolidated update
//! streams" (each is the other's prefix sums / successive differences). Batching
//! granularity within an epoch is an implementation detail on either side.

mod closure_oracle;

use closure_oracle::InteractiveSession;
use kpg_core::prelude::*;
use kpg_dataflow::Time;
use kpg_graph::generate;
use kpg_graph::plans::{
    edge_row, four_path_plan, lookup_plan, node_row, pair_row, row_u32, two_hop_plan,
};
use kpg_graph::Edge;
use kpg_plan::{Command, Manager, Row};
use kpg_timestamp::rng::SmallRng;

const NODES: u32 = 40;
const INITIAL_EDGES: usize = 150;
const EPOCHS: u64 = 6;
const SEED: u64 = 11;

/// One epoch's interactive activity, identical for both formulations.
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

/// The reference side: per-worker captured update streams, accumulated through each
/// epoch.
fn accumulated<D: Ord + Clone>(streams: &[Vec<(D, Time, isize)>]) -> Answers<D> {
    (1..=EPOCHS)
        .map(|epoch| {
            consolidated(
                streams
                    .iter()
                    .flatten()
                    .filter(|(_, time, _)| time.epoch() < epoch)
                    .map(|(data, _, diff)| (data.clone(), *diff)),
            )
        })
        .collect()
}

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

/// The closure formulation: `InteractiveSession` with the three query classes installed
/// up front, driven through the shared workload.
fn run_closures(workers: usize) -> (Answers<Pair>, Answers<Pair>, Answers<Triple>) {
    let per_worker = execute(Config::new(workers), move |worker| {
        let peers = worker.peers();
        let index = worker.index();
        let (initial, steps) = workload();

        let catalog = Catalog::new();
        let mut session = InteractiveSession::install(worker, &catalog, "edges");
        let mut lookup = session.install_lookup(worker, "lookup").unwrap();
        let mut two_hop = session.install_two_hop(worker, "two-hop").unwrap();
        let mut four_path = session.install_four_path(worker, "four-path").unwrap();

        for (i, edge) in initial.into_iter().enumerate() {
            if i % peers == index {
                session.edges.insert(edge);
            }
        }
        let mut epoch = 0u64;
        for step in steps {
            for (i, &arg) in step.node_args.iter().enumerate() {
                if i % peers == index {
                    lookup.result.input.insert(arg);
                    two_hop.result.input.insert(arg);
                }
            }
            for (i, &pair) in step.pair_args.iter().enumerate() {
                if i % peers == index {
                    four_path.result.input.insert(pair);
                }
            }
            for (i, &edge) in step.additions.iter().enumerate() {
                if i % peers == index {
                    session.edges.insert(edge);
                }
            }
            for (i, &edge) in step.removals.iter().enumerate() {
                if i % peers == index {
                    session.edges.remove(edge);
                }
            }
            epoch += 1;
            session.edges.advance_to(epoch);
            lookup.result.input.advance_to(epoch);
            two_hop.result.input.advance_to(epoch);
            four_path.result.input.advance_to(epoch);
            let target = Time::from_epoch(epoch);
            let probes = [
                lookup.result.probe.clone(),
                two_hop.result.probe.clone(),
                four_path.result.probe.clone(),
            ];
            worker.step_while(|| probes.iter().any(|probe| probe.less_than(&target)));
        }
        let four: Vec<(Triple, Time, isize)> = four_path
            .result
            .results
            .borrow()
            .iter()
            .map(|&(((src, dst), hops), time, diff)| ((src, dst, hops), time, diff))
            .collect();
        let lookup_updates = lookup.result.results.borrow().clone();
        let two_hop_updates = two_hop.result.results.borrow().clone();
        (lookup_updates, two_hop_updates, four)
    });
    let mut lookups = Vec::new();
    let mut two_hops = Vec::new();
    let mut fours = Vec::new();
    for (lookup, two_hop, four) in per_worker {
        lookups.push(lookup);
        two_hops.push(two_hop);
        fours.push(four);
    }
    (
        accumulated(&lookups),
        accumulated(&two_hops),
        accumulated(&fours),
    )
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
    let (closure_lookup, closure_two_hop, closure_four) = run_closures(workers);
    assert!(
        closure_two_hop.iter().all(|answer| !answer.is_empty()),
        "the workload must exercise the queries at every epoch"
    );
    for key_arity in [None, Some(1)] {
        let (plan_lookup, plan_two_hop, plan_four) = run_plans(workers, key_arity);
        assert_eq!(
            closure_lookup, plan_lookup,
            "lookup answers diverge on {workers} workers (key_arity {key_arity:?})"
        );
        assert_eq!(
            closure_two_hop, plan_two_hop,
            "2-hop answers diverge on {workers} workers (key_arity {key_arity:?})"
        );
        assert_eq!(
            closure_four, plan_four,
            "4-hop path answers diverge on {workers} workers (key_arity {key_arity:?})"
        );
    }
}

#[test]
fn plan_and_closure_two_hop_agree_on_one_worker() {
    assert_equivalent(1);
}

#[test]
fn plan_and_closure_two_hop_agree_on_two_workers() {
    assert_equivalent(2);
}
