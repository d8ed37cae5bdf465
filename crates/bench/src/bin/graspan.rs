//! Program-analysis experiments: Tables 3 and 4 (E13, E14).
//!
//! Three synthetic program graphs stand in for httpd, psql and linux (substitution S4).
//! For the dataflow (null-propagation) analysis we report the full analysis time and the
//! median/max latency of retracting null sources from the completed analysis (Table 3's
//! interactive rows); for the points-to analysis we report the unoptimised and the
//! optimised variant, each evaluated cold on a manager of its own (Table 4).
//!
//! Every measurement is a `Command` stream through `kpg_plan::replay` over the plans of
//! `kpg_graph::plans`: the program graph is loaded and sealed, the analysis installed
//! cold against the loaded arrangements and read. Null propagation is checked against a
//! scalar search after the load and after every retraction; the two points-to variants
//! must agree.
//!
//! Each Table 4 row also reports `peak_rss_mb`, the process's own peak resident set
//! (`VmHWM`) read after the row: the peak so far, and the rows run smallest first.
//!
//! Run with `cargo run --release -p kpg_bench --bin graspan [--scale 0.2]` (the
//! default, a few minutes; `BENCH_graspan_scale.json` holds the Table 4 rows at
//! `--scale` 0.05, 0.1 and 0.2).

use kpg_bench::{
    answer, arg_f64, arg_usize, check_answer, evaluate, fixed, load, num, replay_steps, seconds,
    table_row, text, Answer, LatencyRecorder, Step,
};
use kpg_graph::baseline;
use kpg_graph::generate::{program_graph, ProgramGraph};
use kpg_graph::plans::{edge_rows, node_row, nullness_plan, points_to_plan};
use kpg_plan::Command;

/// The variables `sources` can make null, by one scalar search from a virtual variable
/// that is assigned to every source.
fn nullness_scalar(graph: &ProgramGraph, variables: u32, sources: &[u32]) -> Answer {
    let flows = graph.assignments.iter().map(|&(dst, src)| (src, dst));
    let seeded = sources.iter().map(|&source| (variables, source));
    let mut null = baseline::bfs_hashmap(&flows.chain(seeded).collect::<Vec<_>>(), variables);
    null.retain(|&variable| variable != variables);
    null.sort_unstable();
    null.into_iter().map(|v| (node_row(v), 1)).collect()
}

/// Table 3: returns (full analysis seconds, retraction latencies).
fn dataflow_analysis(variables: u32, seed: u64, retractions: usize) -> (f64, LatencyRecorder) {
    let graph = program_graph(variables, seed);
    let sources = &graph.null_sources;
    let mut commands = load(vec![
        ("assign", edge_rows(&graph.assignments)),
        ("null", sources.iter().map(|s| node_row(*s)).collect()),
    ]);
    let loaded = commands.len();
    commands.extend(evaluate("analysis", nullness_plan("assign", "null"), &[]));
    // Retract null sources one at a time, first to last, measuring each correction.
    for (source, epoch) in sources.iter().take(retractions).zip(2u64..) {
        let retract = Command::Update {
            name: "null".to_string(),
            row: node_row(*source),
            diff: -1,
        };
        let read = Command::Query {
            name: "analysis".to_string(),
        };
        commands.extend([retract, Command::AdvanceTime { epoch }, read]);
    }

    let steps = replay_steps(1, commands);
    let (full, corrections) = steps[loaded..].split_at(2);
    let expected = nullness_scalar(&graph, variables, sources);
    check_answer("nullness", &full[1], &expected);
    let mut recorder = LatencyRecorder::new();
    for (correction, retracted) in corrections.chunks(3).zip(1..) {
        let expected = nullness_scalar(&graph, variables, &sources[retracted..]);
        check_answer("nullness after a retraction", &correction[2], &expected);
        recorder.record(correction.iter().map(|(_, elapsed)| *elapsed).sum());
    }
    (seconds(full), recorder)
}

/// Table 4: one variant, cold. Returns its `Install` and `Query` steps.
fn points_to_analysis(graph: &ProgramGraph, materialise_alias: bool) -> Vec<Step> {
    let mut commands = load(vec![
        ("assign", edge_rows(&graph.assignments)),
        ("alloc", edge_rows(&graph.allocations)),
        ("deref", edge_rows(&graph.dereferences)),
    ]);
    let loaded = commands.len();
    let plan = points_to_plan("assign", "alloc", "deref", materialise_alias);
    commands.extend(evaluate("analysis", plan, &[]));
    replay_steps(1, commands).split_off(loaded)
}

/// The peak resident set of this process so far, in MB (`VmHWM`); 0 where
/// `/proc/self/status` does not report it.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|value| {
            value
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .unwrap_or(0.0);
    kb / 1024.0
}

fn main() {
    let scale = arg_f64("--scale", 0.2);
    let retractions = arg_usize("--retractions", 50);
    let inputs = [
        ("httpd-like", (800.0 * scale) as u32, 11u64),
        ("psql-like", (2_000.0 * scale) as u32, 12),
        ("linux-like", (4_000.0 * scale) as u32, 13),
    ];

    let millis = |time: std::time::Duration| fixed(time.as_secs_f64() * 1e3, 3);
    println!("# Table 3 analogue: dataflow (null propagation) analysis");
    println!(
        "table\tgraph\tvariables\tfull analysis (s)\tretraction median (ms)\tretraction max (ms)"
    );
    for (name, variables, seed) in inputs {
        let (full, recorder) = dataflow_analysis(variables, seed, retractions);
        let cells = [
            ("table", text("table3")),
            ("graph", text(name)),
            ("variables", num(variables)),
            ("full_analysis_s", fixed(full, 3)),
            ("retraction_median_ms", millis(recorder.median())),
            ("retraction_max_ms", millis(recorder.max())),
        ];
        table_row("graspan", &cells);
    }

    println!("\n# Table 4 analogue: points-to analysis");
    println!("table\tgraph\tvariables\taliases\tunoptimised (s)\toptimised (s)\tpeak RSS (MB)");
    for (name, variables, seed) in inputs {
        let graph = program_graph(variables, seed);
        let unoptimised = points_to_analysis(&graph, true);
        let optimised = points_to_analysis(&graph, false);
        let aliases = answer(&optimised[1]);
        check_answer(
            "points-to, unoptimised against optimised",
            &unoptimised[1],
            aliases,
        );
        let cells = [
            ("table", text("table4")),
            ("graph", text(name)),
            ("variables", num(variables)),
            ("aliases", num(aliases.len())),
            ("unoptimised_s", fixed(seconds(&unoptimised), 3)),
            ("optimised_s", fixed(seconds(&optimised), 3)),
            ("peak_rss_mb", fixed(peak_rss_mb(), 1)),
        ];
        table_row("graspan", &cells);
    }
}
