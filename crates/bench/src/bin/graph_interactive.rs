//! Interactive graph query experiments: Figures 5a/5b/5c and Table 10 (E6–E9).
//!
//! An evolving random graph is maintained while the four query classes (look-up, 1-hop,
//! 2-hop, 4-hop path) are issued; the time to settle all four after each round is
//! reported as one complementary CDF (not yet one per class), and the shared-arrangement
//! and per-query-arrangement variants are compared on both latency and the number of
//! updates held across arrangements (the memory proxy for Figure 5c).
//!
//! The queries are the plans of [`kpg_graph::plans`], installed and driven as one
//! `Command` stream through [`kpg_plan::replay`], exactly as a server would. *Shared*: one input of the edges,
//! keyed by source, read by all four installs. *Not shared*: one such input per query
//! class, each fed the same update stream, as systems without inter-query sharing must.
//!
//! Run with `cargo run --release -p kpg_bench --bin graph_interactive [--nodes 2000]`.

use kpg_bench::{arg_usize, LatencyRecorder};
use kpg_graph::generate;
use kpg_graph::plans::{edge_row, four_path_plan, lookup_plan, node_row, pair_row, two_hop_plan};
use kpg_plan::{replay, ArrangeKey, Command, KeySpec, Plan, Row};
use kpg_timestamp::rng::SmallRng;

/// A query class's plan over `(edges input, argument input)`.
type ClassPlan = fn(&str, &str) -> Plan;

/// The four query classes by name. 1-hop is the look-up plan installed a second time,
/// as a distinct query class.
const CLASSES: [(&str, ClassPlan); 4] = [
    ("lookup", lookup_plan),
    ("1-hop", lookup_plan),
    ("2-hop", two_hop_plan),
    ("4-hop", four_path_plan),
];

/// One run: `rounds` holds the time to bring all four classes up to date after each
/// round (they are maintained by the same synchronized step, so one sample is every
/// class's latency for that round); `held` the updates held across edge arrangements.
struct RunResult {
    rounds: LatencyRecorder,
    held: usize,
}

/// `diff` applied to `row` in every input of `names`.
fn updates(names: &[String], row: &Row, diff: isize) -> Vec<Command> {
    let update = |name: &String| Command::Update {
        name: name.clone(),
        row: row.clone(),
        diff,
    };
    names.iter().map(update).collect()
}

fn run(shared: bool, nodes: u32, edges: usize, rounds: usize, per_round: usize) -> RunResult {
    let classes = CLASSES.iter().map(|(class, _)| class);
    let args: Vec<String> = classes.clone().map(|c| format!("{c}-args")).collect();
    // The edge inputs: one read by every class, or one per class.
    let inputs: Vec<String> = if shared {
        vec!["edges".to_string()]
    } else {
        classes.map(|class| format!("edges-{class}")).collect()
    };
    let mut commands: Vec<Command> = inputs
        .iter()
        .map(|name| Command::CreateInput {
            name: name.clone(),
            key_arity: Some(1),
        })
        .collect();
    for (index, (class, plan)) in CLASSES.iter().enumerate() {
        commands.push(Command::Install {
            name: class.to_string(),
            plan: plan(&inputs[index % inputs.len()], &args[index]),
            locals: vec![args[index].clone()],
        });
    }

    let graph = generate::evolving(nodes, edges, rounds, per_round, 77);
    for edge in graph.initial.iter() {
        commands.extend(updates(&inputs, &edge_row(*edge), 1));
    }
    commands.push(Command::AdvanceTime { epoch: 1 });

    let mut rng = SmallRng::seed_from_u64(13);
    for ((adds, dels), epoch) in graph.rounds.iter().zip(2u64..) {
        // Half graph changes, half query changes, as in the paper's open-loop mix.
        for (edges, diff) in [(adds, 1), (dels, -1)] {
            for edge in edges {
                commands.extend(updates(&inputs, &edge_row(*edge), diff));
            }
        }
        let arguments = [
            node_row(rng.gen_range(0..nodes)),
            node_row(rng.gen_range(0..nodes)),
            node_row(rng.gen_range(0..nodes)),
            pair_row((rng.gen_range(0..nodes), rng.gen_range(0..nodes))),
        ];
        for (input, argument) in args.chunks(1).zip(&arguments) {
            commands.extend(updates(input, argument, 1));
        }
        commands.push(Command::AdvanceTime { epoch });
        // Retire the queries so state stays proportional to the graph.
        for (input, argument) in args.chunks(1).zip(&arguments) {
            commands.extend(updates(input, argument, -1));
        }
    }

    // A round's latency is its `AdvanceTime`: replay settles every standing query
    // inside it. The first one seals the initial graph and is not a round.
    let round_ends: Vec<bool> = commands
        .iter()
        .map(|command| matches!(command, Command::AdvanceTime { epoch } if *epoch > 1))
        .collect();
    let replayed = replay(1, commands);
    let mut rounds = LatencyRecorder::new();
    for ((outcome, elapsed), round_end) in replayed.outcomes.iter().zip(round_ends) {
        outcome.as_ref().expect("graph_interactive command");
        if round_end {
            rounds.record(*elapsed);
        }
    }
    // The edge inputs' bases: each is its input keyed by source, as created above.
    // (Query-local argument inputs have no registry entry.)
    let bases: Vec<ArrangeKey> = inputs
        .iter()
        .map(|name| ArrangeKey {
            plan: Plan::source(name),
            keys: KeySpec::Columns(vec![0]),
        })
        .collect();
    let arrangements = replayed.arrangements.iter();
    let held = arrangements
        .filter(|(key, _)| bases.contains(key))
        .map(|(_, size)| size)
        .sum();
    RunResult { rounds, held }
}

fn main() {
    let nodes = arg_usize("--nodes", 2_000) as u32;
    let edges = arg_usize("--edges", 12_800);
    let rounds = arg_usize("--rounds", 100);
    let per_round = arg_usize("--changes", 20);

    println!("# Interactive graph queries: {nodes} nodes, {edges} edges, {rounds} rounds");

    // One sample per round settles all four classes together, so this is one CCDF,
    // not Figure 5a's four per-class ones (ROADMAP item 2(a) measures those).
    println!("\n## Figure 5a: round latency CCDF, all four classes settled together (shared)");
    let shared = run(true, nodes, edges, rounds, per_round);
    shared.rounds.print_ccdf("round");

    println!("\n## Figure 5b: query mix, shared vs not shared");
    let not_shared = run(false, nodes, edges, rounds, per_round);
    shared.rounds.print_summary("shared");
    not_shared.rounds.print_summary("not-shared");

    println!("\n## Figure 5c: arrangement footprint (updates held, proxy for resident set)");
    println!("shared\t{} updates", shared.held);
    println!("not shared\t{} updates", not_shared.held);

    println!("\n## Table 10: round latency vs concurrent query batch size");
    println!("batch\tround median (ms)");
    for batch in [1usize, 10, 100] {
        let result = run(true, nodes, edges, rounds.min(20), per_round * batch);
        println!("{batch}\t{:.3}", result.rounds.median().as_secs_f64() * 1e3);
    }
}
