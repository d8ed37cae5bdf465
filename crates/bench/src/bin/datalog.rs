//! Datalog experiments: Table 11 (batch evaluation) and Table 2 (interactive top-down
//! queries) — E11 and E12.
//!
//! Every measurement is a `Command` stream through `kpg_plan::replay` over the plans of
//! `kpg_graph::plans`, and every answer is checked against a scalar evaluation before
//! its time is reported. Batch rows time loading and sealing the edges as the index
//! column and a cold `Install` + `Query` against the loaded arrangement as the
//! evaluation column. Interactive rows pose each query the way a client of the server
//! would: `Install` `reach_plan` with a query-local seed input against the standing
//! shared edges (forward, or the memoized reverse index), seed it, seal, read, retire.
//!
//! Run with `cargo run --release -p kpg_bench --bin datalog [--scale 1.0]`.

use std::collections::{BTreeSet, HashMap};

use kpg_bench::{
    arg_f64, arg_usize, check_answer, evaluate, fixed, load, num, replay_steps, seconds, table_row,
    text, Answer, LatencyRecorder,
};
use kpg_graph::plans::{
    edge_row, edge_rows, node_row, reach_plan, reversed_plan, sg_plan, tc_plan,
};
use kpg_graph::{baseline, generate, Edge};
use kpg_plan::{Command, Plan};
use kpg_timestamp::rng::SmallRng;

/// Transitive closure: a scalar search from every edge's head, credited to its tail.
fn tc_scalar(edges: &[Edge]) -> BTreeSet<Edge> {
    let reach = |&(x, next): &Edge| {
        baseline::bfs_hashmap(edges, next)
            .into_iter()
            .map(move |y| (x, y))
    };
    edges.iter().flat_map(reach).collect()
}

/// Same generation by a scalar worklist: the children of a same-generation pair pair up,
/// starting from every parent paired with itself.
fn sg_scalar(edges: &[Edge]) -> BTreeSet<Edge> {
    let mut children: HashMap<u32, Vec<u32>> = HashMap::new();
    for (parent, child) in edges {
        children.entry(*parent).or_default().push(*child);
    }
    let of = |parent: u32| children.get(&parent).into_iter().flatten().copied();
    let below = |(px, py): Edge| of(px).flat_map(move |x| of(py).map(move |y| (x, y)));
    let siblings = children.keys().flat_map(|p| below((*p, *p)));
    let mut worklist: Vec<Edge> = siblings.filter(|(x, y)| x != y).collect();
    let mut generation = BTreeSet::new();
    while let Some(pair) = worklist.pop() {
        if generation.insert(pair) {
            worklist.extend(below(pair));
        }
    }
    generation
}

/// One Table 11 row: loads `edges`, then installs `plan` cold and reads it, requiring
/// `expected`. Returns the evaluation seconds.
fn run_batch(
    program: &str,
    graph: &str,
    edges: &[Edge],
    workers: usize,
    plan: Plan,
    expected: &BTreeSet<Edge>,
) -> f64 {
    let mut commands = load(vec![("edges", edge_rows(edges))]);
    let loaded = commands.len();
    commands.extend(evaluate(program, plan, &[]));
    let steps = replay_steps(workers, commands);
    let expected: Answer = expected.iter().map(|pair| (edge_row(*pair), 1)).collect();
    let (index, evaluated) = steps.split_at(loaded);
    check_answer(&format!("{program}({graph})"), &evaluated[1], &expected);
    let evaluation = seconds(evaluated);
    let cells = [
        ("table", text("table11")),
        ("program", text(program)),
        ("graph", text(graph)),
        ("workers", num(workers)),
        ("input", num(edges.len())),
        ("derived", num(expected.len())),
        ("index_s", fixed(seconds(index), 3)),
        ("evaluation_s", fixed(evaluation, 3)),
    ];
    table_row("datalog", &cells);
    evaluation
}

/// `queries` top-down queries against the loaded, shared `edges`, one seed each: the
/// latency of a query is everything from its `Install` to its `Uninstall`.
fn interactive_tc(edges: &[Edge], nodes: u32, queries: usize, reverse: bool) -> LatencyRecorder {
    let flip = |&(src, dst): &Edge| if reverse { (dst, src) } else { (src, dst) };
    let searched: Vec<Edge> = edges.iter().map(flip).collect();
    let direction = || match reverse {
        true => reversed_plan("edges"),
        false => Plan::source("edges"),
    };
    let mut commands = load(vec![("edges", edge_rows(edges))]);
    let loaded = commands.len();
    let mut rng = SmallRng::seed_from_u64(5);
    let seeds: Vec<u32> = (0..queries).map(|_| rng.gen_range(0..nodes)).collect();
    for (seed, epoch) in seeds.iter().zip(2u64..) {
        let [install, read] = evaluate("tc", reach_plan(direction(), "seeds"), &["seeds"]);
        let seed = Command::Update {
            name: "seeds".to_string(),
            row: node_row(*seed),
            diff: 1,
        };
        let retire = Command::Uninstall {
            name: "tc".to_string(),
        };
        commands.extend([install, seed, Command::AdvanceTime { epoch }, read, retire]);
    }
    let steps = replay_steps(1, commands);
    let mut recorder = LatencyRecorder::new();
    for (posed, seed) in steps[loaded..].chunks(5).zip(seeds) {
        let mut reached = baseline::bfs_hashmap(&searched, seed);
        reached.sort_unstable();
        let expected: Answer = reached.into_iter().map(|n| (node_row(n), 1)).collect();
        check_answer(&format!("tc from {seed}"), &posed[3], &expected);
        recorder.record(posed.iter().map(|(_, elapsed)| *elapsed).sum());
    }
    recorder
}

fn main() {
    let scale = arg_f64("--scale", 1.0);
    let max_workers = arg_usize("--max-workers", 2);
    let queries = arg_usize("--queries", 50);

    let tree = generate::tree((9.0 + scale.log2()).max(6.0) as u32);
    let grid = generate::grid((24.0 * scale.sqrt()) as u32);
    let gnp = generate::gnp((600.0 * scale) as u32, (1_800.0 * scale) as usize, 4);

    println!("# Table 11 analogue: batch Datalog evaluation");
    println!("table\tprogram\tgraph\tworkers\tinput\tderived\tindex (s)\tevaluation (s)");
    let inputs: Vec<(&str, Vec<Edge>)> = vec![("tree", tree), ("grid", grid), ("gnp", gnp)];
    // The one-worker evaluation time of tc per graph: Table 2's "full eval" column.
    let mut full_evaluation = Vec::new();
    for (name, edges) in &inputs {
        let expected = tc_scalar(edges);
        let mut workers = 1;
        while workers <= max_workers {
            let seconds = run_batch("tc", name, edges, workers, tc_plan("edges"), &expected);
            if workers == 1 {
                full_evaluation.push(seconds);
            }
            workers *= 2;
        }
    }
    for (name, edges) in &inputs {
        run_batch("sg", name, edges, 1, sg_plan("edges"), &sg_scalar(edges));
    }

    println!("\n# Table 2 analogue: interactive top-down queries ({queries} queries each)");
    println!("table\tquery\tgraph\tmedian (ms)\tmax (ms)\tfull eval (s)");
    for ((name, edges), full) in inputs.iter().zip(full_evaluation) {
        let nodes = edges.iter().map(|(s, d)| s.max(d) + 1).max().unwrap_or(1);
        for (query, reverse) in [("tc(x,?)", false), ("tc(?,x)", true)] {
            let latency = interactive_tc(edges, nodes, queries, reverse);
            let cells = [
                ("table", text("table2")),
                ("program", text(query)),
                ("graph", text(*name)),
                ("median_ms", fixed(latency.median().as_secs_f64() * 1e3, 3)),
                ("max_ms", fixed(latency.max().as_secs_f64() * 1e3, 3)),
                ("full_evaluation_s", fixed(full, 3)),
            ];
            table_row("datalog", &cells);
        }
    }
}
