//! Batch graph computations: Tables 7, 8 and 9 (E10).
//!
//! Three synthetic graphs stand in for LiveJournal, Orkut and Twitter (substitution S3):
//! a uniform graph, a denser uniform graph, and a skewed graph. For each we report the
//! time to build the forward index (create, load and seal the edges arrangement), then
//! reachability, BFS distances and undirected connectivity — each a cold `Install` +
//! `Query` of its `kpg_graph::plans` plan against the loaded, shared index — for
//! 1..=max workers, alongside the purpose-written single-threaded baselines (array- and
//! hash-map-based BFS, union-find), which every plan's answer is checked against.
//!
//! Run with `cargo run --release -p kpg_bench --bin graph_batch [--scale 1.0]`.

use kpg_bench::{
    arg_f64, arg_usize, check_answer, evaluate, fixed, load, num, replay_steps, seconds, table_row,
    text, timed, Answer,
};
use kpg_graph::plans::{bfs_plan, components_plan, edge_rows, node_row, reach_plan};
use kpg_graph::{baseline, generate, Edge};
use kpg_plan::{Plan, Row, Value};

fn row(values: &[u32]) -> Row {
    values.iter().map(|&value| Value::from(value)).collect()
}

/// Loads the graph, then evaluates reach, bfs and wcc cold against it, requiring each of
/// `expected`. Returns the index, reach, bfs and wcc seconds.
fn run_plans(
    edges: &[Edge],
    root: u32,
    workers: usize,
    expected: &[Answer; 3],
) -> Vec<Option<f64>> {
    let relations = vec![("edges", edge_rows(edges)), ("roots", vec![node_row(root)])];
    let mut commands = load(relations);
    let loaded = commands.len();
    let names = ["reach", "bfs", "wcc"];
    let plans = [
        reach_plan(Plan::source("edges"), "roots"),
        bfs_plan("edges", "roots"),
        components_plan("edges"),
    ];
    let evaluations = names.iter().zip(plans);
    commands.extend(evaluations.flat_map(|(name, plan)| evaluate(name, plan, &[])));
    let steps = replay_steps(workers, commands);
    let (index, evaluated) = steps.split_at(loaded);
    let mut times = vec![Some(seconds(index))];
    for ((evaluated, name), expected) in evaluated.chunks(2).zip(names).zip(expected) {
        let what = format!("{name} on {workers} workers");
        check_answer(&what, &evaluated[1], expected);
        times.push(Some(seconds(evaluated)));
    }
    times
}

fn main() {
    let scale = arg_f64("--scale", 1.0);
    let max_workers = arg_usize("--max-workers", 2);
    let graphs: Vec<(&str, Vec<Edge>)> = vec![
        (
            "livejournal-like (uniform)",
            generate::uniform((3_000.0 * scale) as u32, (42_000.0 * scale) as usize, 1),
        ),
        (
            "orkut-like (dense uniform)",
            generate::uniform((2_000.0 * scale) as u32, (78_000.0 * scale) as usize, 2),
        ),
        (
            "twitter-like (skewed)",
            generate::skewed((4_000.0 * scale) as u32, (130_000.0 * scale) as usize, 3),
        ),
    ];

    for (name, edges) in graphs {
        let nodes = edges.iter().map(|(s, d)| s.max(d) + 1).max().unwrap_or(1);
        println!(
            "\n# Table 7/8/9 analogue: {name} — {} nodes, {} edges",
            nodes,
            edges.len()
        );
        println!("graph\tsystem\tworkers\tindex (s)\treach (s)\tbfs (s)\twcc (s)");
        // A column a system has no figure for reads "-".
        let print = |system: &str, workers: usize, times: &[Option<f64>]| {
            let keys = ["index_s", "reach_s", "bfs_s", "wcc_s"];
            let time = |time: &Option<f64>| time.map_or(text("-"), |time| fixed(time, 3));
            let mut cells = vec![
                ("graph", text(name)),
                ("system", text(system)),
                ("workers", num(workers)),
            ];
            cells.extend(keys.into_iter().zip(times.iter().map(time)));
            table_row("graph_batch", &cells);
        };

        // Single-threaded baselines.
        let root = edges.first().map(|(s, _)| *s).unwrap_or(0);
        let (mut reached, reach_array) = timed(|| baseline::bfs_array(nodes, &edges, root));
        let (distances, bfs_array) = timed(|| baseline::bfs_distances_array(nodes, &edges, root));
        let (components, wcc_uf) = timed(|| baseline::union_find_components(&edges));
        let [reach, bfs, wcc] = [reach_array, bfs_array, wcc_uf].map(|t| Some(t.as_secs_f64()));
        print("single-thread (arrays)", 1, &[None, reach, bfs, wcc]);
        let (_, reach_hash) = timed(|| baseline::bfs_hashmap(&edges, root));
        let reach_hash = Some(reach_hash.as_secs_f64());
        print(
            "single-thread (hash map)",
            1,
            &[None, reach_hash, None, None],
        );

        // What the plans must answer: the baselines' results as rows, in row order.
        // Union-find links the greater root under the lesser, so a node's representative
        // is its component's least node — the plan's label.
        reached.sort_unstable();
        let mut labels: Vec<(u32, u32)> = components.into_iter().collect();
        labels.sort_unstable();
        let hops = |node: &u32| (row(&[*node, root, distances[*node as usize]]), 1);
        let expected: [Answer; 3] = [
            reached.iter().map(|node| (node_row(*node), 1)).collect(),
            reached.iter().map(hops).collect(),
            labels
                .iter()
                .map(|(node, label)| (row(&[*node, *label]), 1))
                .collect(),
        ];

        // The plans, scaling workers.
        let mut workers = 1;
        while workers <= max_workers {
            let times = run_plans(&edges, root, workers, &expected);
            print("shared-arrangements", workers, &times);
            workers *= 2;
        }
    }
}
