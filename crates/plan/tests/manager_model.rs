//! Model tests for the runtime-plan engine: the command loop end to end, sub-plan
//! sharing between independently installed plans (the paper's economy applied at the
//! Plan layer), memo retention/eviction, update sharding across workers, and fixed
//! points rendered from data.

use std::collections::{BTreeMap, BTreeSet};

use kpg_core::operators::route_hash;
use kpg_core::prelude::*;
use kpg_dataflow::Time;
use kpg_plan::{
    replay, ArrangeKey, Command, Expr, KeySpec, Manager, Plan, PlanError, PlanValidity, ReduceKind,
    Response, Row, Trace, Value,
};
use kpg_timestamp::rng::SmallRng;

fn row(values: &[u64]) -> Row {
    values.iter().map(|&value| Value::UInt(value)).collect()
}

/// The 2-hop query class as a plan: arguments (a query-local input) joined through the
/// shared edge index twice, projected back to `(argument, destination)`, set semantics.
fn two_hop(edges: &str, args: &str) -> Plan {
    Plan::source(args)
        .join(Plan::source(edges), vec![(0, 0)]) // [q, mid]
        .join(Plan::source(edges), vec![(1, 0)]) // [mid, q, dst]
        .map(vec![Expr::col(1), Expr::col(2)]) // [q, dst]
        .distinct()
}

/// The point look-up class: for every argument node, its out-neighbours.
fn lookup(edges: &str, args: &str) -> Plan {
    Plan::source(args).join(Plan::source(edges), vec![(0, 0)]) // [q, dst]
}

/// Union-sums per-worker answer shards into one answer, sorted by row.
fn merged(shards: impl IntoIterator<Item = Vec<(Row, isize)>>) -> Vec<(Row, isize)> {
    let mut merged: BTreeMap<Row, isize> = BTreeMap::new();
    for (row, diff) in shards.into_iter().flatten() {
        *merged.entry(row).or_insert(0) += diff;
    }
    merged.into_iter().filter(|(_, diff)| *diff != 0).collect()
}

/// Inserts one row into a named input the way a command log does: worker 0
/// introduces it.
fn update(manager: &mut Manager, worker: &mut Worker, name: &str, values: &[u64]) {
    let (name, row) = (name.to_string(), row(values));
    let command = Command::Update { name, row, diff: 1 };
    manager.execute(worker, command).unwrap();
}

fn edges_by_src(edges: &str) -> ArrangeKey {
    ArrangeKey {
        plan: Plan::source(edges),
        keys: KeySpec::Columns(vec![0]),
    }
}

/// The answers of `stream`'s queries, replayed on one worker and on two (so the
/// exchanges shard the rows) and required to be the same on both.
fn replayed_on_one_and_two_workers(stream: &[Command]) -> Vec<Vec<(Row, isize)>> {
    let run = |workers: usize| -> Vec<Vec<(Row, isize)>> {
        let outcomes = replay(workers, stream.to_vec()).outcomes.into_iter();
        let answers = outcomes.filter_map(|(outcome, _)| match outcome.unwrap() {
            Response::Rows(rows) => Some(rows),
            _ => None,
        });
        answers.collect()
    };
    let one = run(1);
    assert_eq!(one, run(2));
    one
}

/// `[CreateInput, Install query.., Update rows.., AdvanceTime, Query query..]` per
/// epoch of `epochs`, each a list of `(input, row, diff)` changes.
fn session(
    inputs: &[&str],
    queries: Vec<(&str, Plan)>,
    epochs: &[Vec<(&str, Vec<u64>, isize)>],
) -> Vec<Command> {
    let mut stream: Vec<Command> = Vec::new();
    stream.extend(inputs.iter().map(|name| Command::CreateInput {
        name: name.to_string(),
        key_arity: None,
    }));
    let names: Vec<String> = queries.iter().map(|(name, _)| name.to_string()).collect();
    stream.extend(queries.into_iter().map(|(name, plan)| Command::Install {
        name: name.to_string(),
        plan,
        locals: vec![],
    }));
    for (changes, epoch) in epochs.iter().zip(1u64..) {
        stream.extend(changes.iter().map(|(name, values, diff)| Command::Update {
            name: name.to_string(),
            row: row(values),
            diff: *diff,
        }));
        stream.push(Command::AdvanceTime { epoch });
        stream.extend(names.iter().cloned().map(|name| Command::Query { name }));
    }
    stream
}

#[test]
fn command_loop_end_to_end() {
    // Out-degree per source, described entirely as data. The second epoch retracts an
    // edge: the count corrects incrementally.
    let degrees = Plan::source("edges").reduce(1, ReduceKind::Count);
    let edges = [(1, 2), (1, 3), (2, 4), (5, 4)].map(|(src, dst)| ("edges", vec![src, dst], 1));
    let stream = session(
        &["edges"],
        vec![("degrees", degrees)],
        &[edges.to_vec(), vec![("edges", vec![1, 3], -1)]],
    );
    let expected = |counts: &[(u64, i64)]| -> Vec<(Row, isize)> {
        let row = |&(src, count)| (Row::from(vec![Value::UInt(src), Value::Int(count)]), 1);
        counts.iter().map(row).collect()
    };
    assert_eq!(
        replayed_on_one_and_two_workers(&stream),
        [
            expected(&[(1, 2), (2, 1), (5, 1)]),
            expected(&[(1, 1), (2, 1), (5, 1)])
        ]
    );
}

/// The acceptance assertion: two installed plans sharing a subtree import one
/// arrangement. The second install constructs no new memo dataflow, and the shared
/// arrangement's reader count tracks the importing queries up and down.
#[test]
fn two_plans_share_one_subtree_arrangement() {
    execute(Config::new(1), |worker| {
        let mut manager = Manager::new();
        manager.create_input(worker, "edges").unwrap();
        for (src, dst) in [(1u64, 2u64), (2, 3), (2, 4)] {
            update(&mut manager, worker, "edges", &[src, dst]);
        }
        manager.advance_to(1).unwrap();
        manager.settle(worker);
        let shared = edges_by_src("edges");

        // First install builds the query dataflow AND the shared memo arrangement.
        let first = manager
            .install(
                worker,
                "q1",
                two_hop("edges", "args-1"),
                vec!["args-1".into()],
            )
            .unwrap();
        assert_eq!(first, 2, "query dataflow + one memo dataflow");
        assert_eq!(manager.memo_count(), 1);
        assert_eq!(manager.memo_uses(&shared), Some(1));
        let readers_one = manager.arrangement(&shared).unwrap().reader_count();

        // The second plan shares the (edges, keyed-by-src) subtree: no new memo
        // dataflow, one more importing reader on the same arrangement.
        let second = manager
            .install(
                worker,
                "q2",
                two_hop("edges", "args-2"),
                vec!["args-2".into()],
            )
            .unwrap();
        assert_eq!(second, 1, "only the query dataflow itself");
        assert_eq!(manager.memo_count(), 1, "the subtree arrangement is shared");
        assert_eq!(manager.memo_uses(&shared), Some(2));
        let readers_two = manager.arrangement(&shared).unwrap().reader_count();
        assert!(
            readers_two > readers_one,
            "the second plan imports the shared arrangement: {readers_one} -> {readers_two}"
        );

        // Both answer through the one arrangement.
        update(&mut manager, worker, "args-1", &[1]);
        update(&mut manager, worker, "args-2", &[2]);
        manager.advance_to(2).unwrap();
        manager.settle(worker);
        assert_eq!(
            manager.query("q1").unwrap(),
            vec![(row(&[1, 3]), 1), (row(&[1, 4]), 1)]
        );
        assert!(manager.query("q2").unwrap().is_empty(), "no 2-hop from 2");

        // Retiring a query releases its readers; the memo entry is retained (uses 0)
        // so the next arriving plan attaches without rebuilding.
        assert!(manager.uninstall(worker, "q2").unwrap());
        let readers = manager.arrangement(&shared).map(Trace::reader_count);
        assert_eq!(readers, Some(readers_one));
        assert!(manager.uninstall(worker, "q1").unwrap());
        assert_eq!(manager.memo_count(), 1);
        assert_eq!(manager.memo_uses(&shared), Some(0));
        let third = manager
            .install(
                worker,
                "q3",
                two_hop("edges", "args-3"),
                vec!["args-3".into()],
            )
            .unwrap();
        assert_eq!(third, 1, "the retained arrangement is reused");
        assert!(manager.uninstall(worker, "q3").unwrap());

        // Removing the input evicts the memo entries built on it and retires their
        // dataflows; nothing remembers they existed.
        let live_before = worker.live_dataflow_count();
        assert!(manager.uninstall(worker, "edges").unwrap());
        assert_eq!(manager.memo_count(), 0);
        assert_eq!(worker.live_dataflow_count(), live_before - 2);
        assert!(manager.input_names().is_empty());
    });
}

/// Figure 5c at the `Manager` level: four queries reading one keyed input hold one copy
/// of the graph; the same four queries each reading a private input fed the same update
/// stream hold four — and sharing changes what is held, never what is answered.
#[test]
fn private_inputs_hold_four_times_the_updates_of_one_shared_input() {
    let run = |shared: bool| {
        let results = execute(Config::new(1), move |worker| {
            let mut manager = Manager::new();
            let inputs: Vec<String> = if shared {
                vec!["edges".into()]
            } else {
                (0..4).map(|query| format!("edges-{query}")).collect()
            };
            for name in &inputs {
                manager.create_input_keyed(worker, name, Some(1)).unwrap();
            }
            for query in 0..4 {
                let edges = &inputs[query % inputs.len()];
                let args = format!("args-{query}");
                let plan = if query < 2 {
                    lookup(edges, &args)
                } else {
                    two_hop(edges, &args)
                };
                manager
                    .install(worker, &format!("q{query}"), plan, vec![args.clone()])
                    .unwrap();
                update(&mut manager, worker, &args, &[1]);
            }
            // A small diamond: 1 -> 2 -> 4, 1 -> 3 -> 4, 4 -> 5.
            for (src, dst) in [(1u64, 2u64), (2, 4), (1, 3), (3, 4), (4, 5)] {
                for name in &inputs {
                    update(&mut manager, worker, name, &[src, dst]);
                }
            }
            manager.advance_to(1).unwrap();
            manager.settle(worker);
            // Query-local arguments have no registry entry, and no plan here re-keys an
            // input: the registry's sources are the input bases.
            let sources: Vec<&Trace> = manager
                .arrangements()
                .filter(|(key, _)| matches!(key.plan, Plan::Source(_)))
                .map(|(_, trace)| trace)
                .collect();
            let held: usize = sources.iter().map(|trace| trace.size()).sum();
            let answers: Vec<_> = (0..4)
                .map(|query| manager.query(&format!("q{query}")).unwrap())
                .collect();
            (sources.len(), held, answers)
        });
        results[0].clone()
    };
    let (shared_sources, shared_held, shared_answers) = run(true);
    let (private_sources, private_held, private_answers) = run(false);
    assert_eq!((shared_sources, private_sources), (1, 4));
    assert!(
        shared_held > 0 && private_held >= 4 * shared_held,
        "{private_held} vs {shared_held}"
    );
    assert_eq!(shared_answers, private_answers);
    // Look-up of 1: direct neighbours 2 and 3; two hops from 1: only 4 (via 2 and via
    // 3, deduplicated).
    assert_eq!(
        shared_answers[0],
        vec![(row(&[1, 2]), 1), (row(&[1, 3]), 1)]
    );
    assert_eq!(shared_answers[2], vec![(row(&[1, 4]), 1)]);
}

/// The §6.2 loop as the server runs it — install a burst of queries with query-local
/// arguments, pose, seal, settle, uninstall — 200 queries in bursts of 4. State must be a
/// function of the queries *live at once*, never of how many ever existed: every
/// high-water mark stays where the first burst left it, and between bursts nothing but
/// the inputs and the retained memo arrangements is alive.
fn assert_churn_is_bounded(workers: usize, key_arity: Option<usize>) {
    execute(Config::new(workers), move |worker| {
        let mut manager = Manager::new();
        let exec = |manager: &mut Manager, worker: &mut Worker, command: Command| {
            manager.execute(worker, command).unwrap()
        };
        let update = |name: &str, values: &[u64]| Command::Update {
            name: name.into(),
            row: row(values),
            diff: 1,
        };
        let name = "edges".to_string();
        exec(
            &mut manager,
            worker,
            Command::CreateInput { name, key_arity },
        );
        for i in 0..60u64 {
            exec(
                &mut manager,
                worker,
                update("edges", &[i % 20, (i * 7 + 1) % 20]),
            );
        }
        exec(&mut manager, worker, Command::AdvanceTime { epoch: 1 });
        manager.settle(worker);

        // Self-keyed edges are re-arranged by source in a memo dataflow the first
        // install creates and every later one shares; source-keyed edges are imported
        // directly and need none.
        let shared = edges_by_src("edges");
        let live_idle = worker.live_dataflow_count();
        let mut readers_idle = manager.arrangement(&shared).map(Trace::reader_count);
        let mut first_burst = None;
        let mut rng = SmallRng::seed_from_u64(7);
        for burst in 0..50u64 {
            let queries: Vec<(String, String)> = (burst * 4..burst * 4 + 4)
                .map(|id| (format!("q-{id}"), format!("args-{id}")))
                .collect();
            for (index, (name, args)) in queries.iter().enumerate() {
                let plan = if index % 2 == 0 {
                    lookup("edges", args)
                } else {
                    two_hop("edges", args)
                };
                let install = Command::Install {
                    name: name.clone(),
                    plan,
                    locals: vec![args.clone()],
                };
                exec(&mut manager, worker, install);
            }
            for (_, args) in &queries {
                let argument = rng.gen_range(0..20u64);
                exec(&mut manager, worker, update(args, &[argument]));
            }
            let addition = [rng.gen_range(0..20u64), rng.gen_range(0..20u64)];
            exec(&mut manager, worker, update("edges", &addition));
            let epoch = burst + 2;
            exec(&mut manager, worker, Command::AdvanceTime { epoch });
            manager.settle(worker);

            let marks = (
                worker.live_dataflow_count(),
                manager.arrangement(&shared).unwrap().reader_slot_capacity(),
                manager.memo_count(),
            );
            assert_eq!(marks, *first_burst.get_or_insert(marks), "burst {burst}");
            // The computation-wide progress registry holds the live dataflows plus at most
            // the next burst's queries, which a peer running ahead may have constructed.
            let live = worker.live_dataflow_count();
            let registered = worker.shared_dataflow_entries();
            assert!(
                (live..=live + queries.len()).contains(&registered),
                "burst {burst}: {registered} registry entries for {live} live dataflows"
            );

            for (name, _) in queries {
                let response = exec(&mut manager, worker, Command::Uninstall { name });
                assert_eq!(response, Response::Uninstalled { existed: true });
            }
            assert_eq!(
                worker.live_dataflow_count(),
                live_idle + manager.memo_count(),
                "burst {burst}"
            );
            let readers = manager.arrangement(&shared).unwrap().reader_count();
            assert_eq!(readers, *readers_idle.get_or_insert(readers));
        }
    });
}

#[test]
fn churn_holds_state_for_live_queries_only_on_one_worker() {
    assert_churn_is_bounded(1, Some(1));
    assert_churn_is_bounded(1, None);
}

#[test]
fn churn_holds_state_for_live_queries_only_on_two_workers() {
    assert_churn_is_bounded(2, Some(1));
    assert_churn_is_bounded(2, None);
}

#[test]
fn input_removal_is_blocked_while_a_query_reads_it() {
    execute(Config::new(1), |worker| {
        let mut manager = Manager::new();
        manager.create_input(worker, "edges").unwrap();
        manager
            .install(worker, "q", two_hop("edges", "args"), vec!["args".into()])
            .unwrap();
        assert_eq!(
            manager.uninstall(worker, "edges"),
            Err(PlanError::InputInUse {
                input: "edges".into(),
                user: "q".into(),
            })
        );
        // Query-local inputs may not be removed out from under their query either.
        assert_eq!(
            manager.uninstall(worker, "args"),
            Err(PlanError::InputInUse {
                input: "args".into(),
                user: "q".into(),
            })
        );
        assert!(manager.uninstall(worker, "q").unwrap());
        assert!(manager.uninstall(worker, "edges").unwrap());
    });
}

/// Which reader an `InputInUse` names is part of what a client sees, and the aggregator
/// keeps the first worker's deposit: every worker must name the same one. A manager per
/// round, so that an order drawn from a freshly hashed map would show.
#[test]
fn a_blocked_input_removal_names_one_user_on_every_worker() {
    let users = execute(Config::new(2), |worker| {
        let mut users = Vec::new();
        for _ in 0..12 {
            let mut manager = Manager::new();
            manager.create_input(worker, "edges").unwrap();
            for (query, args) in [("q-b", "args-b"), ("q-a", "args-a")] {
                let plan = two_hop("edges", args);
                manager
                    .install(worker, query, plan, vec![args.into()])
                    .unwrap();
            }
            let Err(PlanError::InputInUse { user, .. }) = manager.uninstall(worker, "edges") else {
                panic!("two queries read the input");
            };
            users.push(user);
            for name in ["q-a", "q-b", "edges"] {
                assert!(manager.uninstall(worker, name).unwrap());
            }
        }
        users
    });
    assert_eq!(users[0], users[1]);
    assert_eq!(users[0], vec!["q-a"; 12], "the first reader by name");
}

/// One command stream, replayed identically on two workers: worker 0 introduces every
/// `Command::Update` and the exchanges shard the rows, so the union of per-worker
/// answers equals the one-worker answers.
#[test]
fn identical_command_streams_shard_updates_across_workers() {
    let degrees = Plan::source("edges")
        .distinct()
        .reduce(1, ReduceKind::Count);
    let edges = (0..40u64).map(|i| ("edges", vec![i % 10, (i * 7) % 10], 1));
    let stream = session(&["edges"], vec![("degrees", degrees)], &[edges.collect()]);
    assert!(!replayed_on_one_and_two_workers(&stream)[0].is_empty());
}

/// Where a row lives is decided by one rule: worker 0 introduces every `Update`, and
/// the base arrangement's exchange keeps each row at worker `route_hash(key) % peers`.
/// After a seeded stream of upserts and retractions, each worker's base holds only the
/// rows whose key it owns, and the two bases together hold the stream's net contents.
#[test]
fn base_rows_live_at_the_worker_their_key_hashes_to() {
    let mut rng = SmallRng::seed_from_u64(0x0057_ba5e);
    let mut stream = vec![Command::CreateInput {
        name: "edges".into(),
        key_arity: Some(1),
    }];
    let mut net: BTreeMap<Row, isize> = BTreeMap::new();
    for epoch in 1..=8u64 {
        for _ in 0..50 {
            let edge = row(&[rng.gen_range(0..32u64), rng.gen_range(0..8u64)]);
            let diff = if rng.gen_range(0..4u32) == 0 { -1 } else { 1 };
            *net.entry(edge.clone()).or_insert(0) += diff;
            stream.push(Command::Update {
                name: "edges".into(),
                row: edge,
                diff,
            });
        }
        stream.push(Command::AdvanceTime { epoch });
    }
    net.retain(|_, diff| *diff != 0);

    let held = execute(Config::new(2), move |worker| {
        let mut manager = Manager::new();
        for command in &stream {
            manager.execute(worker, command.clone()).unwrap();
        }
        manager.settle(worker);
        manager.arrangement(&edges_by_src("edges")).unwrap().read()
    });
    let mut together = BTreeMap::new();
    for (worker, rows) in held.into_iter().enumerate() {
        assert!(!rows.is_empty(), "worker {worker} owns some of 32 keys");
        for (edge, diff) in rows {
            let key: Row = edge[..1].iter().cloned().collect();
            let owner = (route_hash(&key) % 2) as usize;
            assert_eq!(owner, worker, "{edge:?} is held by worker {worker}");
            *together.entry(edge).or_insert(0) += diff;
        }
    }
    assert_eq!(together, net);
}

/// A fixed point described as data: reachability from a shared root set, with the edge
/// index imported into the loop from outside it (§5.4 sharing into iterative scopes).
#[test]
fn iterate_renders_reachability_from_data() {
    let step = Plan::Recur
        .join(Plan::source("edges"), vec![(0, 0)]) // [n, next]
        .map(vec![Expr::col(1)]);
    let body = Plan::source("roots").concat(step).distinct();
    let reach = Plan::source("roots").iterate(body);
    let edges = [(1, 2), (2, 3), (3, 4), (5, 6)].map(|(src, dst)| ("edges", vec![src, dst], 1));
    let first = edges.into_iter().chain([("roots", vec![1], 1)]);
    // A new edge extends the fixed point incrementally.
    let second = vec![("edges", vec![4, 5], 1)];
    let stream = session(
        &["edges", "roots"],
        vec![("reach", reach)],
        &[first.collect(), second],
    );
    let expect =
        |nodes: &[u64]| -> Vec<(Row, isize)> { nodes.iter().map(|&n| (row(&[n]), 1)).collect() };
    assert_eq!(
        replayed_on_one_and_two_workers(&stream),
        [expect(&[1, 2, 3, 4]), expect(&[1, 2, 3, 4, 5, 6])]
    );
}

/// A Count inside an `Iterate` keeps the general reduction (its times are partially
/// ordered): bootstrap percolation described as data, where a node joins once two of
/// its in-neighbours have, from a shared root set, while edges come and go.
#[test]
fn a_count_inside_iterate_renders_from_data() {
    let joined = Plan::Recur
        .join(Plan::source("edges"), vec![(0, 0)]) // [n, next]
        .map(vec![Expr::col(1)]) // [next]
        .reduce(1, ReduceKind::Count) // [next, joined in-neighbours]
        .filter(Expr::col(1).ge(Expr::lit(2i64)))
        .map(vec![Expr::col(0)]);
    let body = Plan::source("roots").concat(joined).distinct();
    let active = Plan::source("roots").iterate(body);
    let edges = [(1, 3), (2, 3), (3, 4), (1, 4), (4, 5)];
    let first = edges
        .map(|(src, dst)| ("edges", vec![src, dst], 1))
        .into_iter()
        .chain([("roots", vec![1], 1), ("roots", vec![2], 1)]);
    let stream = session(
        &["edges", "roots"],
        vec![("active", active)],
        &[
            first.collect(),
            // Node 5 gains its second joined in-neighbour.
            vec![("edges", vec![2, 5], 1)],
            // Node 3 loses one, and everything downstream of it follows.
            vec![("edges", vec![2, 3], -1)],
        ],
    );
    let expect =
        |nodes: &[u64]| -> Vec<(Row, isize)> { nodes.iter().map(|&n| (row(&[n]), 1)).collect() };
    assert_eq!(
        replayed_on_one_and_two_workers(&stream),
        [
            expect(&[1, 2, 3, 4]),
            expect(&[1, 2, 3, 4, 5]),
            expect(&[1, 2])
        ]
    );
}

/// A standing Count reads only its own answer: installing `degrees` over the `edges`
/// base, keyed by source as `degrees` groups, registers one reader on the base (its
/// import), where a Sum over the same grouping, which re-forms each changed key's input
/// from the base trace, registers two. Uninstalling each gives its readers back.
#[test]
fn a_count_registers_no_reader_on_the_input_it_counts() {
    for workers in [1, 2] {
        let shards = execute(Config::new(workers), |worker| {
            let mut manager = Manager::new();
            manager
                .create_input_keyed(worker, "edges", Some(1))
                .unwrap();
            let base = edges_by_src("edges");
            let readers = |manager: &Manager| manager.arrangement(&base).unwrap().reader_count();
            let idle = readers(&manager);
            let degrees = Plan::source("edges").reduce(1, ReduceKind::Count);
            manager.install(worker, "degrees", degrees, vec![]).unwrap();
            assert_eq!(readers(&manager), idle + 1, "the import alone");
            let sums = Plan::source("edges").reduce(1, ReduceKind::Sum(1));
            manager.install(worker, "sums", sums, vec![]).unwrap();
            assert_eq!(
                readers(&manager),
                idle + 3,
                "plus an import and an input handle"
            );

            // Worker 0 introduces every update; the exchange places each row.
            for (src, dst) in [(1, 2), (1, 3), (2, 4)] {
                update(&mut manager, worker, "edges", &[src, dst]);
            }
            manager.advance_to(1).unwrap();
            manager.settle(worker);
            let answer = manager.query("degrees").unwrap();

            assert!(manager.uninstall(worker, "sums").unwrap());
            assert_eq!(readers(&manager), idle + 1);
            assert!(manager.uninstall(worker, "degrees").unwrap());
            assert_eq!(readers(&manager), idle);
            answer
        });
        let degree = |src: u64, n: i64| (Row::from(vec![Value::UInt(src), Value::Int(n)]), 1);
        assert_eq!(merged(shards), vec![degree(1, 2), degree(2, 1)]);
    }
}

/// Expression-heavy plans: filters and projections evaluate the data-described `Expr`
/// language, including comparisons and arithmetic.
#[test]
fn expressions_drive_filter_and_map() {
    // Keep rows where the second column exceeds the first; output their sum and
    // difference.
    let plan = Plan::source("pairs")
        .filter(Expr::col(1).gt(Expr::col(0)))
        .map(vec![
            Expr::col(0).add(Expr::col(1)),
            Expr::col(1).sub(Expr::col(0)),
        ]);
    let pairs = [(1, 1), (2, 5), (3, 2), (4, 4)].map(|(a, b)| ("pairs", vec![a, b], 1));
    let stream = session(&["pairs"], vec![("arith", plan)], &[pairs.to_vec()]);
    assert_eq!(
        replayed_on_one_and_two_workers(&stream),
        [vec![(row(&[7, 3]), 1)]]
    );
}

/// Reduce kinds beyond Count: Sum, Min, and Top-1 per group.
#[test]
fn reduce_kinds_aggregate_per_group() {
    let reduce = |kind| Plan::source("sales").reduce(1, kind);
    let queries = vec![
        ("sum", reduce(ReduceKind::Sum(1))),
        ("min", reduce(ReduceKind::Min(1))),
        ("top", reduce(ReduceKind::Top(1))),
    ];
    // [region, amount]
    let sales = [(1, 10), (1, 30), (2, 7), (2, 5)].map(|(r, a)| ("sales", vec![r, a], 1));
    let stream = session(&["sales"], queries, &[sales.to_vec()]);
    let sum = |region, total| (Row::from(vec![Value::UInt(region), Value::Int(total)]), 1);
    let expected = [
        vec![sum(1, 40), sum(2, 12)],
        vec![(row(&[1, 10]), 1), (row(&[2, 5]), 1)],
        vec![(row(&[1, 30]), 1), (row(&[2, 7]), 1)],
    ];
    assert_eq!(replayed_on_one_and_two_workers(&stream), expected);
}

/// Prefix-keyed base inputs: a plan joining on the base's key prefix imports the base
/// arrangement directly (no memo dataflow), and reading the source at collection
/// position reconstructs the original rows.
#[test]
fn prefix_keyed_inputs_serve_joins_without_rearrangement() {
    let results = execute(Config::new(1), |worker| {
        let mut manager = Manager::new();
        manager
            .create_input_keyed(worker, "edges", Some(1))
            .unwrap();
        for (src, dst) in [(1u64, 2u64), (2, 3), (2, 4)] {
            update(&mut manager, worker, "edges", &[src, dst]);
        }
        let installs = manager
            .install(worker, "q", two_hop("edges", "args"), vec!["args".into()])
            .unwrap();
        assert_eq!(installs, 1, "the base arrangement serves both join sites");
        assert_eq!(manager.memo_count(), 0);
        // Reading the source at collection position reconstructs [src, dst] rows.
        manager
            .install(worker, "identity", Plan::source("edges"), vec![])
            .unwrap();
        update(&mut manager, worker, "args", &[1]);
        manager.advance_to(1).unwrap();
        manager.settle(worker);
        (
            manager.query("q").unwrap(),
            manager.query("identity").unwrap(),
        )
    });
    let (two_hops, identity) = results[0].clone();
    assert_eq!(two_hops, vec![(row(&[1, 3]), 1), (row(&[1, 4]), 1)]);
    assert_eq!(
        identity,
        vec![(row(&[1, 2]), 1), (row(&[2, 3]), 1), (row(&[2, 4]), 1),]
    );
}

/// An input's base is an entry of the same registry as the memoized sub-plans, under
/// `Source(name)` keyed as the input was created: a plan that imports the input by that
/// key is counted among the base's dependants, one keyed otherwise gets a memo beside
/// it, and removing the input evicts both.
#[test]
fn an_inputs_base_is_a_registry_entry() {
    execute(Config::new(1), |worker| {
        let mut manager = Manager::new();
        manager
            .create_input_keyed(worker, "edges", Some(1))
            .unwrap();
        let base = edges_by_src("edges");
        assert!(manager.arrangement(&base).is_some());
        assert_eq!(
            (manager.memo_uses(&base), manager.memo_count()),
            (Some(0), 0)
        );

        let args = vec!["args".to_string()];
        manager
            .install(worker, "q", two_hop("edges", "args"), args)
            .unwrap();
        assert_eq!(
            (manager.memo_uses(&base), manager.memo_count()),
            (Some(1), 0)
        );

        // Keyed by destination, the same source is a memo of its own.
        let by_dst = ArrangeKey {
            plan: Plan::source("edges"),
            keys: KeySpec::Columns(vec![1]),
        };
        let into = Plan::source("edges").join(Plan::source("edges"), vec![(1, 0)]);
        let installs = manager.install(worker, "paths", into, vec![]).unwrap();
        assert_eq!(installs, 2, "the query and the re-keyed memo");
        assert_eq!(manager.memo_uses(&base), Some(2));
        assert_eq!(
            (manager.memo_uses(&by_dst), manager.memo_count()),
            (Some(1), 1)
        );

        for query in ["q", "paths"] {
            assert!(manager.uninstall(worker, query).unwrap());
        }
        assert_eq!(
            (manager.memo_uses(&base), manager.memo_uses(&by_dst)),
            (Some(0), Some(0))
        );
        assert!(manager.uninstall(worker, "edges").unwrap());
        assert_eq!(
            (manager.arrangement(&base).is_none(), manager.memo_count()),
            (true, 0)
        );
        assert!(manager.arrangements().next().is_none() && worker.installed().is_empty());
    });
}

/// Removing an input retires everything built on it youngest first, and the next
/// installs are addressed alike on every worker. The registry is ordered by key, which
/// is not the order of dependence, and a memo that reads a base as rows holds no count
/// on it: the order is picked, by dataflow ordinal, so that each dependant releases its
/// imports before what it reads is retired. Where the next dataflows live — how remote
/// messages are addressed — is their ordinal, which no retirement order changes
/// (`kpg_dataflow`'s `churn.rs` pins that on its own).
///
/// Three-edge paths need a memo (two-edge paths, by end) built on a memo (`edges`, by
/// destination) built on the base.
#[test]
fn input_removal_retires_in_one_order_on_every_worker() {
    let by_dst = || ArrangeKey {
        plan: Plan::source("edges"),
        keys: KeySpec::Columns(vec![1]),
    };
    let two_edges = || Plan::source("edges").join(Plan::source("edges"), vec![(1, 0)]); // [mid, src, dst]
    let by_end = move || ArrangeKey {
        plan: two_edges(),
        keys: KeySpec::Columns(vec![2]),
    };
    let three_edges = move || two_edges().join(Plan::source("edges"), vec![(2, 0)]); // [c, b, a, d]
    let create = |name: &str, key_arity| Command::CreateInput {
        name: name.to_string(),
        key_arity,
    };
    let uninstall = |name: &str| Command::Uninstall {
        name: name.to_string(),
    };
    let install_paths = move || Command::Install {
        name: "paths".into(),
        plan: three_edges(),
        locals: vec![],
    };
    fn run(manager: &mut Manager, worker: &mut Worker, command: Command) -> Response {
        manager.execute(worker, command).unwrap()
    }

    // The ordinal the next dataflow takes after each removal and the three inputs
    // created after it: no settling here, so a disagreement is reported rather than
    // waited on forever.
    let slots = execute(Config::new(2), move |worker| {
        let mut slots = Vec::new();
        for _ in 0..12 {
            // A manager per round, for a registry built afresh.
            let manager = &mut Manager::new();
            run(manager, worker, create("edges", Some(1)));
            let installed = run(manager, worker, install_paths());
            assert_eq!(installed, Response::Installed { new_dataflows: 3 });
            let uses = |key| manager.memo_uses(&key);
            assert_eq!((uses(by_dst()), uses(by_end())), (Some(1), Some(1)));
            for name in ["paths", "edges"] {
                run(manager, worker, uninstall(name));
            }
            for next in ["next-0", "next-1", "next-2"] {
                run(manager, worker, create(next, None));
            }
            let next = worker.dataflow(|builder| builder.dataflow_index());
            assert!(worker.retire(next));
            slots.push(next);
            for next in ["next-0", "next-1", "next-2"] {
                run(manager, worker, uninstall(next));
            }
            assert_eq!((manager.memo_count(), worker.live_dataflow_count()), (0, 0));
        }
        slots
    });
    assert_eq!(slots[0], slots[1]);

    // And the input comes back: re-created, re-read, answered.
    let answers = execute(Config::new(2), move |worker| {
        let manager = &mut Manager::new();
        let mut answers = Vec::new();
        for epoch in 1..=2 {
            run(manager, worker, create("edges", Some(1)));
            run(manager, worker, install_paths());
            for edge in [[1, 2], [2, 3], [3, 4], [2, 5]] {
                let (name, row) = ("edges".to_string(), row(&edge));
                run(manager, worker, Command::Update { name, row, diff: 1 });
            }
            run(manager, worker, Command::AdvanceTime { epoch });
            let name = "paths".to_string();
            let Response::Rows(rows) = run(manager, worker, Command::Query { name }) else {
                panic!("a query answers with rows");
            };
            answers.push(rows);
            for name in ["paths", "edges"] {
                run(manager, worker, uninstall(name));
            }
        }
        answers
    });
    for round in 0..2 {
        let answer = merged(answers.iter().map(|shards| shards[round].clone()));
        assert_eq!(answer, [(row(&[3, 2, 1, 4]), 1)], "1 → 2 → 3 → 4");
    }
}

/// `Reduce { key_arity: 0 }` is a global aggregate: one row with an empty key — just
/// the aggregate — that follows insertions and retractions, and no row at all once the
/// input is empty. TPC-H Q6 is this shape.
#[test]
fn reduce_with_an_empty_key_is_one_global_row() {
    // [region, amount], spread over enough distinct rows that two workers both hold some.
    let sales: Vec<Vec<u64>> = (0..20).map(|i| vec![i % 3, 10 + i]).collect();
    let all = |diff: isize| sales.iter().map(move |sale| ("sales", sale.clone(), diff));
    let bonus = |diff: isize| [("sales", vec![7, 1_000], diff)];
    let stream = session(
        &["sales"],
        vec![
            ("sum", Plan::source("sales").reduce(0, ReduceKind::Sum(1))),
            ("count", Plan::source("sales").reduce(0, ReduceKind::Count)),
        ],
        &[
            all(1).collect(),
            all(-1).take(5).chain(bonus(1)).collect(),
            all(-1).skip(5).chain(bonus(-1)).collect(),
        ],
    );
    let global = |aggregate: u64| vec![(Row::from(vec![Value::Int(aggregate as i64)]), 1)];
    let total = |sales: &[Vec<u64>]| sales.iter().map(|sale| sale[1]).sum::<u64>();
    let expected = vec![
        global(total(&sales)),
        global(20),
        global(total(&sales[5..]) + 1_000),
        global(16),
        vec![],
        vec![],
    ];
    assert_eq!(replayed_on_one_and_two_workers(&stream), expected);
}

/// `Join { keys: vec![] }` is the cross product, `left ++ right` per pair, and is
/// maintained like any other join.
#[test]
fn join_on_no_keys_is_the_cross_product() {
    let product = Plan::source("left").join(Plan::source("right"), vec![]);
    let left = (1..=3).map(|l| ("left", vec![l], 1));
    let right = (10..=13).map(|r| ("right", vec![r, r + 1], 1));
    let stream = session(
        &["left", "right"],
        vec![("product", product)],
        &[
            left.chain(right).collect(),
            vec![("left", vec![2], -1), ("right", vec![20, 21], 1)],
        ],
    );
    let pairs = |left: &[u64], right: &[u64]| -> Vec<(Row, isize)> {
        let pairs = left.iter().flat_map(|l| right.iter().map(move |r| (l, r)));
        pairs.map(|(l, r)| (row(&[*l, *r, r + 1]), 1)).collect()
    };
    let expected = vec![
        pairs(&[1, 2, 3], &[10, 11, 12, 13]),
        pairs(&[1, 3], &[10, 11, 12, 13, 20]),
    ];
    assert_eq!(replayed_on_one_and_two_workers(&stream), expected);
}

/// Query answers only over sealed history: an update at the still-open current epoch
/// is invisible to Query no matter how much the worker has stepped, so a settled
/// Query's answer is deterministic — the epoch becomes visible once time advances
/// past it.
#[test]
fn query_excludes_the_unsealed_current_epoch() {
    execute(Config::new(1), |worker| {
        let mut manager = Manager::new();
        manager.create_input(worker, "nums").unwrap();
        manager
            .install(worker, "all", Plan::source("nums"), vec![])
            .unwrap();
        update(&mut manager, worker, "nums", &[1]);
        manager.advance_to(1).unwrap();
        manager.settle(worker);
        assert_eq!(manager.query("all").unwrap(), vec![(row(&[1]), 1)]);

        // An update at the current epoch: settling (and stepping well past it) must
        // not leak a partially processed epoch into the answer.
        update(&mut manager, worker, "nums", &[2]);
        manager.settle(worker);
        for _ in 0..32 {
            worker.step();
        }
        assert_eq!(
            manager.query("all").unwrap(),
            vec![(row(&[1]), 1)],
            "the open epoch is not yet part of the answer"
        );
        manager.advance_to(2).unwrap();
        manager.settle(worker);
        assert_eq!(
            manager.query("all").unwrap(),
            vec![(row(&[1]), 1), (row(&[2]), 1)]
        );
    });
}

/// The live inputs of the long-churn model below: what a from-scratch evaluation reads.
/// Set semantics throughout — every edge, argument and root has multiplicity one.
#[derive(Clone)]
struct Live {
    edges: BTreeSet<(u64, u64)>,
    args: Vec<u64>,
    roots: Vec<u64>,
}

impl Live {
    fn out(&self, node: u64) -> impl Iterator<Item = u64> + '_ {
        self.edges.range((node, 0)..=(node, u64::MAX)).map(|e| e.1)
    }
}

/// A query's from-scratch answer over the live inputs, in row order.
type Oracle = fn(&Live) -> BTreeSet<Row>;

/// One query per plan-root shape — `(name, plan, query-local inputs, oracle)`. Edges are
/// keyed by source, so every shape imports the base arrangement directly (no memo
/// dataflow outlives the queries to hold readers on it).
fn root_shapes() -> Vec<(&'static str, Plan, Vec<String>, Oracle)> {
    let reach_body = Plan::source("roots")
        .concat(
            Plan::Recur
                .join(Plan::source("edges"), vec![(0, 0)]) // [n, next]
                .map(vec![Expr::col(1)]),
        )
        .distinct();
    vec![
        (
            "reduce-root",
            Plan::source("edges").reduce(1, ReduceKind::Count),
            vec![],
            |live| {
                let degree = |&(src, _): &(u64, u64)| {
                    let count = Value::Int(live.out(src).count() as i64);
                    Row::from(vec![Value::UInt(src), count])
                };
                live.edges.iter().map(degree).collect()
            },
        ),
        (
            "distinct-root",
            two_hop("edges", "two-hop-args"),
            vec!["two-hop-args".into()],
            |live| {
                let second = |q: u64, mid: u64| live.out(mid).map(move |dst| row(&[q, dst]));
                let hops = |&q: &u64| live.out(q).flat_map(move |mid| second(q, mid));
                live.args.iter().flat_map(hops).collect()
            },
        ),
        (
            "join-root",
            Plan::source("lookup-args").join(Plan::source("edges"), vec![(0, 0)]),
            vec!["lookup-args".into()],
            |live| {
                let neighbours = |&q: &u64| live.out(q).map(move |dst| row(&[q, dst]));
                live.args.iter().flat_map(neighbours).collect()
            },
        ),
        (
            "iterate-root",
            Plan::source("roots").iterate(reach_body),
            vec![],
            |live| {
                let mut reached: BTreeSet<u64> = live.roots.iter().copied().collect();
                let mut frontier = live.roots.clone();
                while let Some(node) = frontier.pop() {
                    frontier.extend(live.out(node).filter(|&next| reached.insert(next)));
                }
                reached.into_iter().map(|node| row(&[node])).collect()
            },
        ),
    ]
}

/// A plan's answer is an arrangement like any other. Read across hundreds of
/// compactions it stays equal to a from-scratch evaluation, its size follows the live
/// answer rather than the epochs seen, and it leaves the registry with its query —
/// whatever the shape of the plan's root, on one worker and on two.
#[test]
fn answers_live_in_compacting_result_arrangements() {
    const NODES: u64 = 30;
    const EDGES: usize = 45;
    const EPOCHS: usize = 320;

    // Size-stable seeded churn: two edges out and two new ones in, every epoch.
    let mut rng = SmallRng::seed_from_u64(17);
    let mut absent_edge = |live: &Live| loop {
        let edge = (rng.gen_range(0..NODES), rng.gen_range(0..NODES));
        if !live.edges.contains(&edge) {
            return edge;
        }
    };
    let mut live = Live {
        edges: BTreeSet::new(),
        args: vec![0, 1, 2],
        roots: vec![0],
    };
    while live.edges.len() < EDGES {
        let edge = absent_edge(&live);
        live.edges.insert(edge);
    }
    let initial = live.clone();
    let shapes = root_shapes();
    let mut steps: Vec<Vec<((u64, u64), isize)>> = Vec::new();
    let mut expected: Vec<Vec<BTreeSet<Row>>> = Vec::new();
    for epoch in 0..EPOCHS {
        let mut step = Vec::new();
        for pick in 0..2 {
            let victim = *live
                .edges
                .iter()
                .nth((epoch * 7 + pick * 13) % EDGES)
                .unwrap();
            let arrival = absent_edge(&live);
            live.edges.remove(&victim);
            live.edges.insert(arrival);
            step.extend([(victim, -1), (arrival, 1)]);
        }
        steps.push(step);
        expected.push(shapes.iter().map(|shape| shape.3(&live)).collect());
    }

    for workers in [1, 2] {
        let (initial, steps) = (initial.clone(), steps.clone());
        // Per worker: every shape's answer shard at every epoch, then the final size of
        // every shape's result arrangement.
        let per_worker = execute(Config::new(workers), move |worker| {
            let mut manager = Manager::new();
            let run = |manager: &mut Manager, worker: &mut Worker, command: Command| {
                manager.execute(worker, command).unwrap()
            };
            let update = |name: &str, values: &[u64], diff: isize| Command::Update {
                name: name.into(),
                row: row(values),
                diff,
            };
            for (name, key_arity) in [("edges", Some(1)), ("roots", None)] {
                let name = name.into();
                run(
                    &mut manager,
                    worker,
                    Command::CreateInput { name, key_arity },
                );
            }
            let edge_readers = |manager: &Manager| {
                let base = manager.arrangement(&edges_by_src("edges"));
                base.unwrap().reader_count()
            };
            let readers_before = edge_readers(&manager);
            let mut names = Vec::new();
            for (name, plan, locals, _) in root_shapes() {
                names.push(name);
                let name = name.into();
                run(
                    &mut manager,
                    worker,
                    Command::Install { name, plan, locals },
                );
            }
            assert!(edge_readers(&manager) > readers_before);
            for &(src, dst) in &initial.edges {
                run(&mut manager, worker, update("edges", &[src, dst], 1));
            }
            for &arg in &initial.args {
                run(&mut manager, worker, update("two-hop-args", &[arg], 1));
                run(&mut manager, worker, update("lookup-args", &[arg], 1));
            }
            for &root in &initial.roots {
                run(&mut manager, worker, update("roots", &[root], 1));
            }

            let mut answers = Vec::new();
            for (epoch, step) in steps.iter().enumerate() {
                for &((src, dst), diff) in step {
                    run(&mut manager, worker, update("edges", &[src, dst], diff));
                }
                let epoch = epoch as u64 + 1;
                run(&mut manager, worker, Command::AdvanceTime { epoch });
                manager.settle(worker);
                let answer = |name: &&str| manager.query(name).unwrap();
                answers.push(names.iter().map(answer).collect::<Vec<_>>());
            }

            let sizes: Vec<usize> = names
                .iter()
                .map(|name| manager.answer(name).unwrap().size())
                .collect();

            // Uninstalling retires the result with the query and releases its imports.
            for &name in &names {
                let name = name.into();
                run(&mut manager, worker, Command::Uninstall { name });
            }
            let kept = names.iter().filter(|name| manager.answer(name).is_some());
            let kept: Vec<_> = kept.collect();
            assert!(kept.is_empty(), "results outlived their queries: {kept:?}");
            assert_eq!(edge_readers(&manager), readers_before);
            (answers, sizes)
        });

        for (index, (name, ..)) in shapes.iter().enumerate() {
            for (epoch, expected) in expected.iter().enumerate() {
                let shards = per_worker
                    .iter()
                    .map(|(answers, _)| answers[epoch][index].clone());
                let expected: Vec<(Row, isize)> =
                    expected[index].iter().map(|row| (row.clone(), 1)).collect();
                assert_eq!(
                    merged(shards),
                    expected,
                    "{name} diverges from a from-scratch evaluation at epoch {} on {workers} workers",
                    epoch + 1
                );
            }
            // Bounded by state held, not by epochs seen: a log of every output update
            // these 320 epochs of churn produced would be hundreds of entries long.
            let held: usize = per_worker.iter().map(|(_, sizes)| sizes[index]).sum();
            let live = expected[EPOCHS - 1][index].len();
            assert!(
                held <= 2 * live + 16,
                "{name} on {workers} workers holds {held} updates for {live} live rows"
            );
        }
    }
}

/// A `Reduce`- or `Distinct`-rooted plan installed *after* its input is loaded imports
/// an arrangement that already exists: every key arrives in one batch and the reduce
/// evaluates all of them in one `work` invocation (one forward walk of the shared trace).
/// It must answer exactly as the same plan installed *before* the load, which saw the
/// keys a few at a time — at the install, and as both keep following the input.
#[test]
fn install_after_load_answers_as_install_before_load() {
    const NODES: u64 = 120;
    // Three epochs of load (insertions, then insertions mixed with retractions of
    // present edges), and one more epoch of changes after both installs exist.
    let mut rng = SmallRng::seed_from_u64(19);
    let mut live: BTreeMap<(u64, u64), isize> = BTreeMap::new();
    let mut epochs: Vec<Vec<((u64, u64), isize)>> = Vec::new();
    for epoch in 0..4 {
        let mut updates = Vec::new();
        for _ in 0..if epoch == 0 { 500 } else { 120 } {
            let present: Vec<(u64, u64)> = live.keys().copied().collect();
            let update = if epoch > 0 && rng.gen_range(0..2u32) == 0 {
                (present[rng.gen_range(0..present.len())], -1)
            } else {
                ((rng.gen_range(0..NODES), rng.gen_range(0..NODES)), 1)
            };
            *live.entry(update.0).or_insert(0) += update.1;
            live.retain(|_, count| *count != 0);
            updates.push(update);
        }
        epochs.push(updates);
    }
    let degrees = || Plan::source("edges").reduce(1, ReduceKind::Count);
    let sources = || Plan::source("edges").map(vec![Expr::col(0)]).distinct();

    for workers in [1, 2] {
        let epochs = epochs.clone();
        let per_worker = execute(Config::new(workers), move |worker| {
            let mut manager = Manager::new();
            manager.create_input(worker, "edges").unwrap();
            manager
                .install(worker, "degrees-before", degrees(), vec![])
                .unwrap();
            manager
                .install(worker, "sources-before", sources(), vec![])
                .unwrap();
            let feed = |manager: &mut Manager, worker: &mut Worker, epoch: usize| {
                for &((src, dst), diff) in &epochs[epoch] {
                    let (name, row) = ("edges".into(), row(&[src, dst]));
                    let update = Command::Update { name, row, diff };
                    manager.execute(worker, update).unwrap();
                }
                manager.advance_to(epoch as u64 + 1).unwrap();
                manager.settle(worker);
            };
            for epoch in 0..3 {
                feed(&mut manager, worker, epoch);
            }
            manager
                .install(worker, "degrees-after", degrees(), vec![])
                .unwrap();
            manager
                .install(worker, "sources-after", sources(), vec![])
                .unwrap();
            manager.settle(worker);
            let answers = |manager: &Manager| {
                [
                    "degrees-before",
                    "degrees-after",
                    "sources-before",
                    "sources-after",
                ]
                .map(|name| manager.query(name).unwrap())
            };
            let at_install = answers(&manager);
            feed(&mut manager, worker, 3);
            (at_install, answers(&manager))
        });
        for (label, pick) in [("at the install", 0), ("one epoch later", 1)] {
            let answer = |index: usize| {
                merged(per_worker.iter().map(|both| {
                    let answers = if pick == 0 { &both.0 } else { &both.1 };
                    answers[index].clone()
                }))
            };
            assert!(answer(0).len() > 100, "most nodes have out-edges");
            assert_eq!(answer(0), answer(1), "degrees {label}, {workers} workers");
            assert_eq!(answer(2), answer(3), "sources {label}, {workers} workers");
            assert_eq!(answer(0).len(), answer(2).len());
        }
        // And both equal a from-scratch count over the final live edges.
        let mut expected: BTreeMap<u64, i64> = BTreeMap::new();
        for (&(src, _), &count) in &live {
            *expected.entry(src).or_insert(0) += count as i64;
        }
        let expected: Vec<(Row, isize)> = expected
            .into_iter()
            .map(|(src, count)| (Row::from(vec![Value::UInt(src), Value::Int(count)]), 1))
            .collect();
        assert_eq!(
            merged(per_worker.iter().map(|both| both.1[1].clone())),
            expected
        );
    }
}

/// One seeded stream: edge churn under two standing queries, a third installed and
/// retired mid-stream, every live query asked every epoch.
fn idle_turn_stream() -> Vec<Command> {
    const NODES: u64 = 300;
    let update = |name: &str, values: &[u64], diff: isize| Command::Update {
        name: name.to_string(),
        row: row(values),
        diff,
    };
    let install = |name: &str, plan: Plan, locals: &[&str]| Command::Install {
        name: name.to_string(),
        plan,
        locals: locals.iter().map(|local| local.to_string()).collect(),
    };
    let mut stream = vec![
        Command::CreateInput {
            name: "edges".to_string(),
            key_arity: Some(1),
        },
        install(
            "degrees",
            Plan::source("edges").reduce(1, ReduceKind::Count),
            &[],
        ),
        install("hop", two_hop("edges", "hop-args"), &["hop-args"]),
        update("hop-args", &[0], 1),
        update("hop-args", &[7], 1),
    ];
    let mut rng = SmallRng::seed_from_u64(0x1D7E);
    let mut live: Vec<(u64, u64)> = Vec::new();
    for epoch in 1..=160u64 {
        // A few thousand arrivals early, then size-stable churn in epochs small enough
        // that their inserts leave the larger merges unfinished (an insert of n offers
        // a merge 4n + 64 units) and compaction has history to cancel.
        let arrivals = if epoch <= 10 { 400 } else { 30 };
        for _ in 0..arrivals {
            let edge = (rng.gen_range(0..NODES), rng.gen_range(0..NODES));
            live.push(edge);
            stream.push(update("edges", &[edge.0, edge.1], 1));
        }
        for _ in 0..if epoch <= 10 { 0 } else { 30 } {
            let edge = live.swap_remove(rng.gen_range(0..live.len()));
            stream.push(update("edges", &[edge.0, edge.1], -1));
        }
        match epoch {
            60 => {
                stream.push(install(
                    "late",
                    lookup("edges", "late-args"),
                    &["late-args"],
                ));
                stream.push(update("late-args", &[3], 1));
            }
            100 => stream.push(Command::Uninstall {
                name: "late".to_string(),
            }),
            _ => {}
        }
        stream.push(Command::AdvanceTime { epoch });
        let asked = ["degrees", "hop", "late"];
        let standing = if (60..100).contains(&epoch) { 3 } else { 2 };
        stream.extend(asked[..standing].iter().map(|name| Command::Query {
            name: name.to_string(),
        }));
    }
    stream
}

/// The updates each registry arrangement holds, in key order, and each answer, by query.
type Held = (Vec<(ArrangeKey, usize)>, Vec<(String, usize)>);

/// Runs `stream` on `workers` workers the way a server worker does (`execute` alone,
/// which settles ahead of a `Query`), taking `Manager::idle_turn`s between commands at random — per worker, from
/// its own seed, as real workers idle on their own — when `idle_seed` is given. Returns,
/// per worker, every query's answer shard in stream order and the updates every
/// maintained arrangement holds once the stream has ended and merges have drained.
#[allow(clippy::type_complexity)]
fn run_with_idle_turns(
    workers: usize,
    stream: &[Command],
    idle_seed: Option<u64>,
) -> Vec<(Vec<Vec<(Row, isize)>>, Held)> {
    let stream = stream.to_vec();
    execute(Config::new(workers), move |worker| {
        let mut manager = Manager::new();
        let mut rng = idle_seed.map(|seed| SmallRng::seed_from_u64(seed + worker.index() as u64));
        let mut answers = Vec::new();
        let mut busy_turns = 0;
        for command in &stream {
            if let Some(rng) = rng.as_mut() {
                for _ in 0..rng.gen_range(0..4u8) {
                    busy_turns += usize::from(manager.idle_turn());
                }
            }
            if let Response::Rows(rows) = manager.execute(worker, command.clone()).unwrap() {
                answers.push(rows);
            }
        }
        // The comparison is only worth making if turns found merges to work on.
        assert!(rng.is_none() || busy_turns >= 10, "{busy_turns} busy turns");
        let mut turns = 0;
        while manager.idle_turn() {
            turns += 1;
            assert!(
                turns < 100_000,
                "idle turns must drain the merges in flight"
            );
        }
        let arrangements = manager.arrangements();
        let arrangements = arrangements.map(|(key, trace)| (key.clone(), trace.size()));
        let held = manager.installed_names().into_iter().map(|name| {
            let size = manager.answer(&name).unwrap().size();
            (name, size)
        });
        (answers, (arrangements.collect(), held.collect()))
    })
}

/// Merge timing never decides an answer: the same stream answers identically at every
/// epoch whether workers never take an idle turn or take them at random points between
/// commands, on one worker and on two — and once the merges in flight have drained,
/// every arrangement holds the same number of updates either way.
#[test]
fn idle_turns_change_no_answer_and_no_arrangement_size() {
    let stream = idle_turn_stream();
    for workers in [1, 2] {
        let never = run_with_idle_turns(workers, &stream, None);
        for seed in [1, 2] {
            let idled = run_with_idle_turns(workers, &stream, Some(seed));
            for (index, (never, idled)) in never.iter().zip(&idled).enumerate() {
                assert_eq!(never.0.len(), 2 * 160 + 40);
                assert_eq!(
                    never.0, idled.0,
                    "{workers} workers, worker {index}: answers"
                );
                assert_eq!(never.1, idled.1, "{workers} workers, worker {index}: sizes");
            }
        }
    }
}

/// Failure atomicity, one table over the refusals an `Install` can meet: a live
/// query's name, a local that is a live input, and a source no input defines. Each is
/// met before anything is built — here by an install that would need two memos beyond
/// the one a standing query retains — and must leave the registry, the answers, the
/// worker's dataflows, the inputs, the memo count and every surviving memo's
/// dependants exactly as they were, and the manager usable: with the cause gone the
/// same command succeeds.
#[test]
fn a_failed_command_leaves_no_state_whichever_refusal_it_met() {
    let create = |name: &str| Command::CreateInput {
        name: name.to_string(),
        key_arity: None,
    };
    let install = |name: &str, plan: Plan, locals: &[&str]| Command::Install {
        name: name.to_string(),
        plan,
        locals: locals.iter().map(|local| local.to_string()).collect(),
    };
    // Imports `edges` by source (retained by the standing query), then needs `left`
    // and `right` re-keyed too: two new memos.
    let three_stage = |last: &str| {
        lookup("edges", "probe-args")
            .join(Plan::source("left"), vec![(1, 0)])
            .join(Plan::source(last), vec![(2, 0)])
    };
    let cases = [
        (
            install("standing", three_stage("right"), &["probe-args"]),
            PlanError::DuplicateQuery("standing".into()),
            Command::Uninstall {
                name: "standing".into(),
            },
        ),
        (
            install("probe", three_stage("right"), &["probe-args", "args"]),
            PlanError::DuplicateInput("args".into()),
            Command::Uninstall {
                name: "standing".into(),
            },
        ),
        (
            install("probe", three_stage("later"), &["probe-args"]),
            PlanError::Invalid(PlanValidity::UnknownSource("later".into())),
            create("later"),
        ),
    ];
    for (command, refusal, remedy) in cases {
        execute(Config::new(1), move |worker| {
            let mut manager = Manager::new();
            let run = |manager: &mut Manager, worker: &mut Worker, command: Command| {
                manager.execute(worker, command)
            };
            for input in ["edges", "left", "right"] {
                run(&mut manager, worker, create(input)).unwrap();
            }
            let standing = install("standing", two_hop("edges", "args"), &["args"]);
            run(&mut manager, worker, standing).unwrap();
            let memos = ["edges", "left", "right"].map(edges_by_src);
            let state = |manager: &Manager, worker: &Worker| {
                (
                    manager
                        .arrangements()
                        .map(|(key, _)| key.clone())
                        .collect::<Vec<_>>(),
                    manager.installed_names(),
                    worker.live_dataflow_count(),
                    manager.input_names(),
                    manager.memo_count(),
                    memos.clone().map(|key| manager.memo_uses(&key)),
                )
            };
            let before = state(&manager, worker);
            assert_eq!(before.5, [Some(1), None, None], "{refusal}");

            let failed = run(&mut manager, worker, command.clone());
            assert_eq!(failed, Err(refusal.clone()), "{refusal}");
            assert_eq!(state(&manager, worker), before, "{refusal}");

            run(&mut manager, worker, remedy.clone()).unwrap();
            let installed = run(&mut manager, worker, command.clone());
            let new_dataflows = installed.unwrap_or_else(|error| panic!("{refusal}: {error}"));
            assert_eq!(
                new_dataflows,
                Response::Installed { new_dataflows: 3 },
                "{refusal}"
            );
        });
    }
}

/// The manager names none of its own dataflows, so no query name can stand in the way
/// of one: with queries named `plan-input-x` and `plan-memo-1` to `plan-memo-3` live,
/// input `x` is created, and an install that builds four memos succeeds and answers.
#[test]
fn no_query_name_blocks_an_input_or_a_memo() {
    let squatters = ["plan-input-x", "plan-memo-1", "plan-memo-2", "plan-memo-3"];
    let mut stream = vec![Command::CreateInput {
        name: "edges".into(),
        key_arity: None,
    }];
    stream.extend(squatters.map(|name| Command::Install {
        name: name.into(),
        plan: Plan::source("edges"),
        locals: vec![],
    }));
    stream.push(Command::CreateInput {
        name: "x".into(),
        key_arity: None,
    });
    // Four memos: `edges` by destination and by source, the two-edge paths by their
    // end, and `x` by its first column.
    let paths = Plan::source("edges")
        .join(Plan::source("edges"), vec![(1, 0)]) // [mid, src, dst]
        .join(Plan::source("x"), vec![(2, 0)]); // [dst, mid, src, x1]
    stream.push(Command::Install {
        name: "paths".into(),
        plan: paths,
        locals: vec![],
    });
    let rows = [("edges", [1, 2]), ("edges", [2, 3]), ("x", [3, 9])];
    stream.extend(rows.map(|(name, values)| Command::Update {
        name: name.into(),
        row: row(&values),
        diff: 1,
    }));
    stream.push(Command::AdvanceTime { epoch: 1 });
    stream.push(Command::Query {
        name: "paths".into(),
    });
    for workers in [1, 2] {
        let outcomes = replay(workers, stream.clone()).outcomes;
        let outcomes: Vec<Response> = outcomes
            .into_iter()
            .map(|(outcome, _)| outcome.unwrap())
            .collect();
        assert_eq!(
            outcomes[6],
            Response::Installed { new_dataflows: 5 },
            "{workers} workers"
        );
        let Some(Response::Rows(rows)) = outcomes.last() else {
            panic!("a query answers with rows");
        };
        assert_eq!(rows, &[(row(&[3, 2, 1, 9]), 1)], "{workers} workers");
    }
}

/// `Install { locals }` may repeat a name — validation and the wire decoder both accept
/// it, reading the list as a set — and the query then holds one input operator for it,
/// exactly as if it had been named once.
#[test]
fn a_repeated_local_is_one_input() {
    execute(Config::new(1), |worker| {
        let mut manager = Manager::new();
        manager
            .create_input_keyed(worker, "edges", Some(1))
            .unwrap();
        let mut operators_with = |locals: &[&str]| {
            let locals = locals.iter().map(|local| local.to_string()).collect();
            manager
                .install(worker, "q", lookup("edges", "a"), locals)
                .unwrap();
            assert_eq!(manager.input_names(), ["a", "edges"]);
            let operators = worker.live_operator_count();
            assert!(manager.uninstall(worker, "q").unwrap());
            operators
        };
        assert_eq!(operators_with(&["a", "a"]), operators_with(&["a"]));
    });
}

/// Settling is `execute`'s business: the seeded stream run through `execute` alone
/// answers, per worker and at every epoch, exactly as the same stream with every
/// `Query` done by hand as `settle` then `query` — on one worker and on two.
#[test]
fn execute_alone_answers_as_settle_then_query() {
    let stream = idle_turn_stream();
    for workers in [1, 2] {
        let executed = run_with_idle_turns(workers, &stream, None);
        let stream = stream.clone();
        let by_hand = execute(Config::new(workers), move |worker| {
            let mut manager = Manager::new();
            let mut answers = Vec::new();
            for command in &stream {
                if let Command::Query { name } = command {
                    manager.settle(worker);
                    answers.push(manager.query(name).unwrap());
                } else {
                    manager.execute(worker, command.clone()).unwrap();
                }
            }
            answers
        });
        for (index, (executed, by_hand)) in executed.iter().zip(&by_hand).enumerate() {
            assert_eq!(by_hand.len(), 2 * 160 + 40);
            assert_eq!(&executed.0, by_hand, "{workers} workers, worker {index}");
        }
    }
}

/// Install-time validation rejects malformed plans and name misuse without touching
/// worker state.
#[test]
fn validation_and_name_errors() {
    execute(Config::new(1), |worker| {
        let mut manager = Manager::new();
        manager.create_input(worker, "edges").unwrap();
        assert_eq!(
            manager.create_input(worker, "edges"),
            Err(PlanError::DuplicateInput("edges".into()))
        );
        assert!(matches!(
            manager.install(worker, "q", Plan::source("nope"), vec![]),
            Err(PlanError::Invalid(_))
        ));
        assert!(matches!(
            manager.install(worker, "q", Plan::Recur, vec![]),
            Err(PlanError::Invalid(_))
        ));
        let (name, row) = ("nope".to_string(), row(&[1]));
        assert_eq!(
            manager.execute(worker, Command::Update { name, row, diff: 1 }),
            Err(PlanError::UnknownInput("nope".into()))
        );
        manager
            .install(worker, "q", Plan::source("edges"), vec![])
            .unwrap();
        assert_eq!(
            manager.install(worker, "q", Plan::source("edges"), vec![]),
            Err(PlanError::DuplicateQuery("q".into()))
        );
        assert_eq!(
            manager.query("other"),
            Err(PlanError::UnknownQuery("other".into()))
        );
        assert_eq!(
            manager.advance_to(0).and_then(|_| {
                manager.advance_to(3)?;
                manager.advance_to(1)
            }),
            Err(PlanError::TimeRegression { from: 3, to: 1 })
        );
        assert!(!manager.uninstall(worker, "ghost").unwrap());
        assert!(manager.answer("q").is_some());
        let _ = Time::minimum();
    });
}
