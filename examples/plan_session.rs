//! Runtime query plans end to end: a `Manager` command loop that creates inputs,
//! installs queries *described as data*, reads answers, and retires queries — the
//! engine a network query server would drive, runnable today from an in-process
//! command stream (paper §6.2's interactive pattern without recompilation).
//!
//! Run with `cargo run --release --example plan_session`.

use shared_arrangements::plan::{Command, Expr, Manager, Plan, ReduceKind, Response};
use shared_arrangements::prelude::*;

fn edge(src: u32, dst: u32) -> shared_arrangements::plan::Row {
    vec![src.into(), dst.into()].into()
}

fn main() {
    execute(Config::new(1), |worker| {
        let mut manager = Manager::new();
        let run = |worker: &mut Worker, manager: &mut Manager, command: Command| {
            manager.execute(worker, command).expect("session command")
        };

        // One shared input, keyed by source node so joins on it import the base
        // arrangement directly.
        run(
            worker,
            &mut manager,
            Command::CreateInput {
                name: "edges".into(),
                key_arity: Some(1),
            },
        );
        for src in 0..1_000u32 {
            for offset in 1..=3u32 {
                run(
                    worker,
                    &mut manager,
                    Command::Update {
                        name: "edges".into(),
                        row: edge(src, (src + offset) % 1_000),
                        diff: 1,
                    },
                );
            }
        }

        // Query 1, as data: out-degree counts — group edges by source, count.
        run(
            worker,
            &mut manager,
            Command::Install {
                name: "degrees".into(),
                plan: Plan::source("edges").reduce(1, ReduceKind::Count),
                locals: vec![],
            },
        );

        // Query 2, as data: the 2-hop neighbourhood of interactively posed roots.
        // `roots` is a query-local input, created inside this query's dataflow.
        let two_hop = Plan::source("roots")
            .join(Plan::source("edges"), vec![(0, 0)]) // [root, mid]
            .join(Plan::source("edges"), vec![(1, 0)]) // [mid, root, dst]
            .map(vec![Expr::col(1), Expr::col(2)]) // [root, dst]
            .distinct();
        run(
            worker,
            &mut manager,
            Command::Install {
                name: "two-hop".into(),
                plan: two_hop,
                locals: vec!["roots".into()],
            },
        );
        run(
            worker,
            &mut manager,
            Command::Update {
                name: "roots".into(),
                row: vec![7u32.into()].into(),
                diff: 1,
            },
        );

        // Query 3, as data: in-degree counts. Grouping by destination needs the edges
        // keyed another way than their base, so the manager installs a memoized
        // re-arrangement (`plan-arr-*`) that later plans keyed the same way would share.
        run(
            worker,
            &mut manager,
            Command::Install {
                name: "in-degrees".into(),
                plan: Plan::source("edges")
                    .map(vec![Expr::col(1), Expr::col(0)])
                    .reduce(1, ReduceKind::Count),
                locals: vec![],
            },
        );

        run(worker, &mut manager, Command::AdvanceTime { epoch: 1 });
        manager.settle(worker);

        let Response::Rows(degrees) = run(
            worker,
            &mut manager,
            Command::Query {
                name: "degrees".into(),
            },
        ) else {
            panic!("Query returns rows")
        };
        let Response::Rows(two_hops) = run(
            worker,
            &mut manager,
            Command::Query {
                name: "two-hop".into(),
            },
        ) else {
            panic!("Query returns rows")
        };
        println!(
            "installed {:?} over inputs {:?}",
            manager.installed_names(),
            manager.input_names()
        );
        println!(
            "degree rows: {} (every node has out-degree 3); 2-hop of node 7: {:?}",
            degrees.len(),
            two_hops
                .iter()
                .map(|(row, _)| row.clone())
                .collect::<Vec<_>>()
        );
        assert_eq!(degrees.len(), 1_000);
        assert_eq!(two_hops.len(), 5, "nodes 9..=13 are two hops from 7");

        // Everything maintained is a catalog entry, told apart by name prefix: input
        // bases (`plan-source-*`), memoized sub-plans (`plan-arr-*`) and answers
        // (`plan-result-*`).
        let catalog = manager.catalog();
        for name in catalog.names() {
            let size = catalog.arrangement_size(&name).expect("listed entry");
            println!("catalog entry {name}: {size} updates");
        }
        assert!(catalog.contains("plan-result-two-hop"));

        // Retire a query through the same protocol; its dataflow leaves the scheduler,
        // and its local input and its answer disappear with it.
        run(
            worker,
            &mut manager,
            Command::Uninstall {
                name: "two-hop".into(),
            },
        );
        println!(
            "after uninstall: installed {:?}, inputs {:?}",
            manager.installed_names(),
            manager.input_names()
        );
        assert_eq!(manager.installed_names(), ["degrees", "in-degrees"]);
        assert_eq!(manager.input_names(), vec!["edges".to_string()]);
        assert!(!manager.catalog().contains("plan-result-two-hop"));
    });
}
