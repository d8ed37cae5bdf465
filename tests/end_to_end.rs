//! Cross-crate integration tests: the umbrella crate's public API driving workloads from
//! several domain crates in one computation.

use shared_arrangements::graph::plans::{
    edge_row, edge_rows, load_input, node_row, reach_plan, reversed_plan, row_u32,
};
use shared_arrangements::graph::{baseline, generate};
use shared_arrangements::plan::{replay, Command, Plan, Response, Row};
use shared_arrangements::prelude::*;
use shared_arrangements::relational::{data, plans as tpch};
use shared_arrangements::server::{serve, Client, ServerConfig};

/// A seeded reachability query over `direction` of the loaded edges, with its seeds an
/// input local to the query: install, seed, seal, read.
fn pose_reach(name: &str, direction: Plan, seed: u32, epoch: u64) -> Vec<Command> {
    let seeds = format!("{name}-seeds");
    let install = Command::Install {
        name: name.into(),
        plan: reach_plan(direction, &seeds),
        locals: vec![seeds.clone()],
    };
    let seed = Command::Update {
        name: seeds,
        row: node_row(seed),
        diff: 1,
    };
    let read = Command::Query { name: name.into() };
    vec![install, seed, Command::AdvanceTime { epoch }, read]
}

/// The answers of a replay's queries, in stream order; every command must succeed.
fn replayed_answers(workers: usize, commands: Vec<Command>) -> Vec<Vec<(Row, isize)>> {
    let outcomes = replay(workers, commands).outcomes.into_iter();
    let answers = outcomes.filter_map(|(outcome, _)| match outcome.unwrap() {
        Response::Rows(rows) => Some(rows),
        _ => None,
    });
    answers.collect()
}

fn reached(answer: &[(Row, isize)]) -> Vec<u32> {
    answer.iter().map(|(row, _)| row_u32(row, 0)).collect()
}

/// The reachability plan agrees with the single-threaded BFS baseline on a random graph,
/// for one and for two workers.
#[test]
fn differential_reachability_matches_bfs_baseline() {
    let nodes = 300u32;
    let edges = generate::uniform(nodes, 900, 21);
    let root = 5u32;
    let mut expected = baseline::bfs_array(nodes, &edges, root);
    expected.sort_unstable();

    for workers in [1usize, 2] {
        let mut commands = load_input("edges", edge_rows(&edges));
        commands.extend(pose_reach("reach", Plan::source("edges"), root, 1));
        let answers = replayed_answers(workers, commands);
        assert_eq!(reached(&answers[0]), expected, "workers = {workers}");
    }
}

/// A shared arrangement built in one dataflow serves a query installed later in another,
/// and keeps serving it as the underlying collection changes.
#[test]
fn imported_arrangement_tracks_updates_across_dataflows() {
    let results = execute(Config::new(1), |worker| {
        let (mut edges, probe, trace) = worker.dataflow(|builder| {
            let (edges_in, edges) = new_collection::<(u32, u32), isize>(builder);
            let arranged = edges.arrange_by_key();
            (edges_in, arranged.probe(), arranged.trace)
        });
        for n in 0..50u32 {
            edges.insert((n % 10, n));
        }
        edges.advance_to(1);
        worker.step_while(|| probe.less_than(&edges.time()));

        // A later dataflow imports the arrangement and counts values per key.
        let (count_probe, counts) = worker.dataflow(|builder| {
            let imported = trace.import(builder);
            let counts = imported
                .reduce_core("Count", |_k, input, output: &mut Vec<(isize, isize)>| {
                    output.push((input.iter().map(|(_, r)| *r).sum(), 1));
                })
                .as_collection(|k, c| (*k, *c));
            (counts.probe(), counts.capture())
        });
        worker.step_while(|| count_probe.less_than(&edges.time()));

        // Update the original input; the imported dataflow follows.
        edges.insert((3, 999));
        edges.advance_to(2);
        worker.step_while(|| count_probe.less_than(&edges.time()));
        let owned = counts.borrow().clone();
        owned
    });

    use kpg_timestamp::PartialOrder;
    let accumulate = |epoch: u64| {
        let mut map = std::collections::BTreeMap::new();
        for ((key, count), time, diff) in results[0].iter() {
            if time.less_equal(&Time::from_epoch(epoch)) {
                *map.entry((*key, *count)).or_insert(0isize) += diff;
            }
        }
        map.retain(|_, v| *v != 0);
        map
    };
    let before = accumulate(0);
    let after = accumulate(1);
    assert_eq!(before.get(&(3, 5)), Some(&1), "5 values per key initially");
    assert_eq!(
        after.get(&(3, 6)),
        Some(&1),
        "key 3 gains a value at epoch 1"
    );
    assert_eq!(after.get(&(3, 5)), None);
}

/// Datalog's top-down `tc(x, ?)` and `tc(?, x)` — the reachability plan over the edges
/// and over the shared reverse index — agree with a hash-map BFS over the edges as given
/// and over the edges flipped.
#[test]
fn datalog_and_graph_crates_agree() {
    let edges = generate::uniform(120, 360, 33);
    let mut commands = load_input("edges", edge_rows(&edges));
    commands.extend(pose_reach("from", Plan::source("edges"), 7, 1));
    commands.extend(pose_reach("to", reversed_plan("edges"), 7, 2));
    let answers = replayed_answers(1, commands);

    let flipped: Vec<(u32, u32)> = edges.iter().map(|&(src, dst)| (dst, src)).collect();
    for (answer, edges) in answers.iter().zip([&edges, &flipped]) {
        let mut expected = baseline::bfs_hashmap(edges, 7);
        expected.sort_unstable();
        assert!(expected.len() > 1);
        assert_eq!(reached(answer), expected);
    }
}

/// The workloads got the wire for free: TPC-H Q5 and a seeded reachability query with a
/// query-local seed input, installed through a `Client` on a two-worker server with
/// updates streamed at it, answer exactly as `replay` of the same commands does.
#[test]
fn workload_plans_answer_over_the_wire_as_they_replay() {
    let db = data::generate(0.1, 3);
    let edges = generate::uniform(80, 240, 9);
    let mut commands = tpch::load_reference(&db);
    commands.push(Command::Install {
        name: "q5".into(),
        plan: tpch::query(5),
        locals: vec![],
    });
    commands.extend(load_input("edges", edge_rows(&edges)));
    // Lineitems stream in two epochs, the second retracting some of the first; the
    // reachability query arrives mid-stream and then loses its seed's out-edges.
    let seed = edges[0].0;
    let (early, late) = db.lineitems.split_at(db.lineitems.len() / 2);
    commands.extend(early.iter().map(|l| tpch::lineitem_update(l, 1)));
    commands.push(Command::AdvanceTime { epoch: 1 });
    commands.push(Command::Query { name: "q5".into() });
    commands.extend(pose_reach("reach", Plan::source("edges"), seed, 2));
    commands.extend(late.iter().map(|l| tpch::lineitem_update(l, 1)));
    commands.extend(
        early
            .iter()
            .step_by(4)
            .map(|l| tpch::lineitem_update(l, -1)),
    );
    let cut = edges.iter().filter(|edge| edge.0 == seed);
    commands.extend(cut.map(|edge| Command::Update {
        name: "edges".into(),
        row: edge_row(*edge),
        diff: -1,
    }));
    commands.push(Command::AdvanceTime { epoch: 3 });
    commands.extend(["q5", "reach"].map(|name| Command::Query { name: name.into() }));

    let config = ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    };
    let mut server = serve("127.0.0.1:0", config).expect("bind a loopback server");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let mut served = Vec::new();
    for command in &commands {
        match command {
            Command::Query { name } => served.push(client.query(name).expect("query")),
            command => {
                client.send(command).expect("send");
                let response = client.receive().expect("receive");
                assert_eq!(response, shared_arrangements::wire::Response::Ok);
            }
        }
    }
    server.shutdown();

    let replayed = replayed_answers(2, commands);
    assert_eq!(replayed.len(), 4);
    assert!(replayed.iter().all(|answer| !answer.is_empty()));
    assert_ne!(replayed[0], replayed[2], "q5 followed the stream");
    assert_eq!(
        reached(&replayed[3]),
        [seed],
        "reach followed the deletions"
    );
    assert_eq!(served, replayed);
}
