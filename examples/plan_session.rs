//! Runtime query plans end to end: one command stream that creates an input, installs
//! queries *described as data*, reads answers, and retires a query — run through
//! `kpg_plan::replay`, the loop a network query server's workers run over a live stream
//! (paper §6.2's interactive pattern without recompilation).
//!
//! Run with `cargo run --release --example plan_session`.

use shared_arrangements::plan::{
    replay, ArrangeKey, Command, Expr, KeySpec, Plan, PlanError, ReduceKind, Response,
};

fn edge(src: u32, dst: u32) -> shared_arrangements::plan::Row {
    vec![src.into(), dst.into()].into()
}

fn main() {
    let install = |name: &str, plan: Plan, locals: &[&str]| Command::Install {
        name: name.into(),
        plan,
        locals: locals.iter().map(|local| local.to_string()).collect(),
    };
    let query = |name: &str| Command::Query { name: name.into() };

    // One shared input, keyed by source node so joins on it import the base
    // arrangement directly.
    let mut session = vec![Command::CreateInput {
        name: "edges".into(),
        key_arity: Some(1),
    }];
    let sources = (0..1_000u32).flat_map(|src| (1..=3u32).map(move |offset| (src, offset)));
    session.extend(sources.map(|(src, offset)| Command::Update {
        name: "edges".into(),
        row: edge(src, (src + offset) % 1_000),
        diff: 1,
    }));

    // Query 1, as data: out-degree counts — group edges by source, count.
    let degrees = Plan::source("edges").reduce(1, ReduceKind::Count);
    // Query 2, as data: the 2-hop neighbourhood of interactively posed roots.
    // `roots` is a query-local input, created inside this query's dataflow.
    let two_hop = Plan::source("roots")
        .join(Plan::source("edges"), vec![(0, 0)]) // [root, mid]
        .join(Plan::source("edges"), vec![(1, 0)]) // [mid, root, dst]
        .map(vec![Expr::col(1), Expr::col(2)]) // [root, dst]
        .distinct();
    // Query 3, as data: in-degree counts. Grouping by destination needs the edges
    // keyed another way than their base, so the manager installs a memoized
    // re-arrangement — a registry entry of its own — that later plans keyed the same way
    // would share.
    let in_degrees = Plan::source("edges")
        .map(vec![Expr::col(1), Expr::col(0)])
        .reduce(1, ReduceKind::Count);
    session.extend([
        install("degrees", degrees, &[]),
        install("two-hop", two_hop, &["roots"]),
        Command::Update {
            name: "roots".into(),
            row: vec![7u32.into()].into(),
            diff: 1,
        },
        install("in-degrees", in_degrees, &[]),
        Command::AdvanceTime { epoch: 1 },
        query("degrees"),
        query("two-hop"),
        // Retire a query through the same protocol; its dataflow leaves the scheduler,
        // and its local input and its answer disappear with it.
        Command::Uninstall {
            name: "two-hop".into(),
        },
        query("two-hop"),
    ]);

    let replayed = replay(1, session);
    let [(degrees, _), (two_hops, _), (retired, _), (gone, _)] =
        &replayed.outcomes[replayed.outcomes.len() - 4..]
    else {
        unreachable!("four commands end the session")
    };
    let (Ok(Response::Rows(degrees)), Ok(Response::Rows(two_hops))) = (degrees, two_hops) else {
        panic!("queries answer with rows")
    };
    let reached: Vec<_> = two_hops.iter().map(|(row, _)| row.clone()).collect();
    println!(
        "degree rows: {} (every node has out-degree 3); 2-hop of node 7: {reached:?}",
        degrees.len(),
    );
    assert_eq!(degrees.len(), 1_000);
    assert_eq!(two_hops.len(), 5, "nodes 9..=13 are two hops from 7");
    assert_eq!(retired, &Ok(Response::Uninstalled { existed: true }));
    assert_eq!(gone, &Err(PlanError::UnknownQuery("two-hop".into())));

    // Everything still maintained holds a trace handle in the manager's registry: input
    // bases and memoized sub-plans, by what they arrange and how, and the answers of
    // the installed queries — the retired query's among them no longer.
    for (key, size) in &replayed.arrangements {
        println!(
            "arrangement {:?} keyed {:?}: {size} updates",
            key.plan, key.keys
        );
    }
    for (name, size) in &replayed.answers {
        println!("answer {name}: {size} updates");
    }
    let by_source = KeySpec::Columns(vec![0]);
    let base = ArrangeKey {
        plan: Plan::source("edges"),
        keys: by_source.clone(),
    };
    let reversed = Plan::source("edges").map(vec![Expr::col(1), Expr::col(0)]);
    let memo = ArrangeKey {
        plan: reversed,
        keys: by_source,
    };
    let arrangements = replayed.arrangements.iter().map(|(key, _)| key.clone());
    assert_eq!(arrangements.collect::<Vec<_>>(), [base, memo]);
    let answers = replayed.answers.iter().map(|(name, _)| name.as_str());
    assert_eq!(answers.collect::<Vec<_>>(), ["degrees", "in-degrees"]);
}
