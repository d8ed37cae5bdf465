//! Query-churn harness (paper §6.2): the interactive workload that installs and retires
//! queries against a shared arrangement in a loop — install → pose arguments → probe →
//! uninstall — at a configurable scale.
//!
//! The point of the measurement is *boundedness*: with dataflow-slot reclamation,
//! install latency, steady-state per-step time, and the slot / reader-table high-water
//! marks must be functions of the number of *concurrently live* queries (`--batch`),
//! not of the total ever installed (`--queries`). The report compares per-step cost in
//! the first and second halves of the run and prints the high-water marks alongside the
//! final live counts.
//!
//! With `--plan`, the same loop is driven through the runtime-plan engine instead of
//! compiled closures: every install is a `Command::Install` carrying a [`Plan`] value,
//! rendered by the per-worker [`Manager`] against its memoized shared arrangement of
//! the edges. Comparing the `churn` and `churn_plan` BENCH records (same flags)
//! measures what plan compilation, the uniform row representation, and the command
//! protocol cost relative to the closure baseline.
//!
//! Run with `cargo run --release -p kpg_bench --bin churn -- [--queries 1000]
//! [--batch 4] [--workers 1] [--nodes 500] [--edges 4000] [--plan]`.
//! Emits one-line `BENCH {...}` JSON records for scripts, plus human-readable
//! summaries.

use std::time::Instant;

use kpg_bench::{arg_flag, arg_string, arg_usize, bench_record, num, text, LatencyRecorder};
use kpg_core::prelude::*;
use kpg_dataflow::Time;
use kpg_graph::generate;
use kpg_graph::interactive::{InteractiveSession, QueryIo};
use kpg_graph::plans::{edge_row, lookup_plan, node_row, two_hop_plan};
use kpg_plan::{ArrangeKey, Command, KeySpec, Manager, Plan};
use kpg_timestamp::rng::SmallRng;

/// Everything one worker measures during the churn loop.
struct ChurnStats {
    install: LatencyRecorder,
    settle: LatencyRecorder,
    uninstall: LatencyRecorder,
    steps_first_half: LatencyRecorder,
    steps_second_half: LatencyRecorder,
    steady: LatencyRecorder,
    slot_high_water: usize,
    shared_entries_high_water: usize,
    reader_slots_high_water: usize,
    live_final: usize,
    slots_final: usize,
    reader_count_final: usize,
    graph_size_final: usize,
}

impl ChurnStats {
    fn new() -> Self {
        ChurnStats {
            install: LatencyRecorder::new(),
            settle: LatencyRecorder::new(),
            uninstall: LatencyRecorder::new(),
            steps_first_half: LatencyRecorder::new(),
            steps_second_half: LatencyRecorder::new(),
            steady: LatencyRecorder::new(),
            slot_high_water: 0,
            shared_entries_high_water: 0,
            reader_slots_high_water: 0,
            live_final: 0,
            slots_final: 0,
            reader_count_final: 0,
            graph_size_final: 0,
        }
    }
}

/// Which query classes a churn run installs (`--classes mixed|lookup|two-hop`):
/// `mixed` alternates, the single-class settings attribute cost to one class.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Classes {
    Mixed,
    Lookup,
    TwoHop,
}

impl Classes {
    fn parse(value: &str) -> Classes {
        match value {
            "mixed" => Classes::Mixed,
            "lookup" => Classes::Lookup,
            "two-hop" => Classes::TwoHop,
            other => panic!("--classes must be mixed, lookup, or two-hop (got {other:?})"),
        }
    }

    fn name(&self) -> &'static str {
        match self {
            Classes::Mixed => "mixed",
            Classes::Lookup => "lookup",
            Classes::TwoHop => "two-hop",
        }
    }

    fn lookup_at(&self, id: usize) -> bool {
        match self {
            Classes::Mixed => id.is_multiple_of(2),
            Classes::Lookup => true,
            Classes::TwoHop => false,
        }
    }
}

fn run(
    queries: usize,
    batch: usize,
    workers: usize,
    nodes: u32,
    edges: usize,
    classes: Classes,
) -> ChurnStats {
    let results = execute(Config::new(workers), move |worker| {
        let peers = worker.peers();
        let index = worker.index();

        // The shared arrangement: ingested once, published by name, imported by every
        // query the loop installs.
        let catalog = Catalog::new();
        let mut session = InteractiveSession::install(worker, &catalog, "edges");
        for (i, edge) in generate::uniform(nodes, edges, 42).into_iter().enumerate() {
            if i % peers == index {
                session.edges.insert(edge);
            }
        }
        let mut epoch = 1u64;
        session.edges.advance_to(epoch);
        let graph_probe = session.graph_probe.clone();
        worker.step_while(|| graph_probe.less_than(&Time::from_epoch(epoch)));

        // All workers draw the same pseudo-random argument stream so their control flow
        // stays in lockstep; sharding decides who actually inserts each update.
        let mut rng = SmallRng::seed_from_u64(7);
        let mut stats = ChurnStats::new();

        let mut installed_total = 0usize;
        let mut round = 0usize;
        while installed_total < queries {
            let burst = batch.min(queries - installed_total);

            // Install a burst of query classes against the published arrangement,
            // alternating between point look-ups and 2-hop queries.
            let mut handles: Vec<QueryHandle<QueryIo<u32, (u32, u32)>>> = Vec::with_capacity(burst);
            for b in 0..burst {
                let id = installed_total + b;
                let name = format!("q-{id}");
                let handle = stats.install.time(|| {
                    if classes.lookup_at(id) {
                        session.install_lookup(worker, &name).expect("fresh name")
                    } else {
                        session.install_two_hop(worker, &name).expect("fresh name")
                    }
                });
                handles.push(handle);
            }

            // Pose one argument per query and mutate the graph, the paper's open-loop
            // half-queries / half-updates mix; everything lands in the next epoch.
            for (j, handle) in handles.iter_mut().enumerate() {
                let argument = rng.gen_range(0..nodes);
                if j % peers == index {
                    handle.result.input.insert(argument);
                }
            }
            let addition = (rng.gen_range(0..nodes), rng.gen_range(0..nodes));
            if round % peers == index {
                session.edges.insert(addition);
            }
            epoch += 1;
            session.edges.advance_to(epoch);
            for handle in handles.iter_mut() {
                handle.result.input.advance_to(epoch);
            }

            // Step until every query's answers are current, timing each step: per-step
            // cost in the second half of the run must match the first half if retired
            // slots really leave the scheduler.
            let probes: Vec<ProbeHandle> = handles
                .iter()
                .map(|handle| handle.result.probe.clone())
                .collect();
            let target = Time::from_epoch(epoch);
            let steps = if installed_total * 2 < queries {
                &mut stats.steps_first_half
            } else {
                &mut stats.steps_second_half
            };
            let settle_start = Instant::now();
            while probes.iter().any(|probe| probe.less_than(&target)) {
                let step_start = Instant::now();
                worker.step();
                steps.record(step_start.elapsed());
            }
            stats.settle.record(settle_start.elapsed());

            stats.slot_high_water = stats.slot_high_water.max(worker.dataflow_count());
            stats.shared_entries_high_water = stats
                .shared_entries_high_water
                .max(worker.shared_dataflow_entries());
            stats.reader_slots_high_water = stats
                .reader_slots_high_water
                .max(session.graph_reader_slots());

            // Retire the whole burst; slots and readers must be reclaimed.
            for handle in handles {
                let name = handle.name().to_string();
                stats
                    .uninstall
                    .time(|| assert!(session.uninstall(worker, &name)));
            }
            installed_total += burst;
            round += 1;
        }

        // Steady state after the churn: an idle step sweeps live dataflows only, so its
        // cost is independent of how many queries ever existed.
        for _ in 0..100 {
            let step_start = Instant::now();
            worker.step();
            stats.steady.record(step_start.elapsed());
        }

        stats.live_final = worker.live_dataflow_count();
        stats.slots_final = worker.dataflow_count();
        stats.reader_count_final = session.graph_reader_count();
        stats.graph_size_final = session.graph_size();
        stats
    });
    results.into_iter().next().expect("at least one worker")
}

/// The same install → pose → probe → uninstall loop, driven through the runtime-plan
/// engine: every worker executes an identical command stream against its [`Manager`].
fn run_plan(
    queries: usize,
    batch: usize,
    workers: usize,
    nodes: u32,
    edges: usize,
    classes: Classes,
) -> ChurnStats {
    let results = execute(Config::new(workers), move |worker| {
        let mut manager = Manager::new();
        let exec = |worker: &mut Worker, manager: &mut Manager, command: Command| {
            manager.execute(worker, command).expect("churn command")
        };

        // The shared input: ingested once, keyed by source node so every installed
        // plan imports the base arrangement directly — the exact analogue of the
        // closure session publishing its by-source graph arrangement.
        exec(
            worker,
            &mut manager,
            Command::CreateInput {
                name: "edges".into(),
                key_arity: Some(1),
            },
        );
        for edge in generate::uniform(nodes, edges, 42) {
            exec(
                worker,
                &mut manager,
                Command::Update {
                    name: "edges".into(),
                    row: edge_row(edge),
                    diff: 1,
                },
            );
        }
        let mut epoch = 1u64;
        exec(worker, &mut manager, Command::AdvanceTime { epoch });
        manager.settle(worker);

        // The sharing introspection target: the memoized (edges, keyed-by-src) subtree.
        let shared_key = ArrangeKey {
            plan: Plan::source("edges"),
            keys: KeySpec::Columns(vec![0]),
        };

        let mut rng = SmallRng::seed_from_u64(7);
        let mut stats = ChurnStats::new();

        let mut installed_total = 0usize;
        while installed_total < queries {
            let burst = batch.min(queries - installed_total);

            // Install a burst of plans, alternating query classes; each carries its own
            // query-local argument input, exactly as the closure version does.
            let mut names = Vec::with_capacity(burst);
            for b in 0..burst {
                let id = installed_total + b;
                let name = format!("q-{id}");
                let args = format!("args-{id}");
                let plan = if classes.lookup_at(id) {
                    lookup_plan("edges", &args)
                } else {
                    two_hop_plan("edges", &args)
                };
                stats.install.time(|| {
                    exec(
                        worker,
                        &mut manager,
                        Command::Install {
                            name: name.clone(),
                            plan,
                            locals: vec![args.clone()],
                        },
                    )
                });
                names.push((name, args));
            }

            // Pose one argument per query and mutate the graph.
            for (_, args) in names.iter() {
                let argument = rng.gen_range(0..nodes);
                exec(
                    worker,
                    &mut manager,
                    Command::Update {
                        name: args.clone(),
                        row: node_row(argument),
                        diff: 1,
                    },
                );
            }
            let addition = (rng.gen_range(0..nodes), rng.gen_range(0..nodes));
            exec(
                worker,
                &mut manager,
                Command::Update {
                    name: "edges".into(),
                    row: edge_row(addition),
                    diff: 1,
                },
            );
            epoch += 1;
            exec(worker, &mut manager, Command::AdvanceTime { epoch });

            // Step until everything managed is current, timing each step.
            let target = Time::from_epoch(epoch);
            let steps = if installed_total * 2 < queries {
                &mut stats.steps_first_half
            } else {
                &mut stats.steps_second_half
            };
            let settle_start = Instant::now();
            while manager.behind(&target) {
                let step_start = Instant::now();
                worker.step();
                steps.record(step_start.elapsed());
            }
            stats.settle.record(settle_start.elapsed());

            stats.slot_high_water = stats.slot_high_water.max(worker.dataflow_count());
            stats.shared_entries_high_water = stats
                .shared_entries_high_water
                .max(worker.shared_dataflow_entries());
            if let Some(name) = manager.arrangement_name(&shared_key) {
                stats.reader_slots_high_water = stats
                    .reader_slots_high_water
                    .max(manager.catalog().reader_slots(&name).unwrap_or(0));
            }

            // Retire the whole burst through the protocol.
            for (name, _) in names {
                stats.uninstall.time(|| {
                    exec(worker, &mut manager, Command::Uninstall { name });
                });
            }
            installed_total += burst;
        }

        for _ in 0..100 {
            let step_start = Instant::now();
            worker.step();
            stats.steady.record(step_start.elapsed());
        }

        stats.live_final = worker.live_dataflow_count();
        stats.slots_final = worker.dataflow_count();
        stats.reader_count_final = manager
            .arrangement_reader_count(&shared_key)
            .unwrap_or_default();
        stats.graph_size_final = manager
            .arrangement_name(&shared_key)
            .and_then(|name| manager.catalog().arrangement_size(&name).ok())
            .unwrap_or_default();
        stats
    });
    results.into_iter().next().expect("at least one worker")
}

fn main() {
    let queries = arg_usize("--queries", 1000);
    let batch = arg_usize("--batch", 4).max(1);
    let workers = arg_usize("--workers", 1);
    let nodes = arg_usize("--nodes", 500) as u32;
    let edges = arg_usize("--edges", 4000);
    let plan_mode = arg_flag("--plan");
    let classes = Classes::parse(&arg_string("--classes", "mixed"));

    let mode = if plan_mode { "plan" } else { "closure" };
    println!(
        "# Query churn ({mode} mode, {} classes): {queries} queries in bursts of {batch}, \
         {workers} workers, {nodes} nodes / {edges} edges",
        classes.name()
    );

    let stats = if plan_mode {
        run_plan(queries, batch, workers, nodes, edges, classes)
    } else {
        run(queries, batch, workers, nodes, edges, classes)
    };

    println!("\n## Install / settle / uninstall latency");
    stats.install.print_summary("install");
    stats.install.print_ccdf("install");
    stats.settle.print_summary("settle");
    stats.uninstall.print_summary("uninstall");

    println!("\n## Per-step scheduling cost, first vs second half of the churn");
    stats.steps_first_half.print_summary("steps-1st-half");
    stats.steps_second_half.print_summary("steps-2nd-half");
    stats.steady.print_summary("steady-idle");

    println!("\n## State high-water marks vs final (bounded ⇒ churn reclaims)");
    println!(
        "slots\thigh {}\tfinal {}\tlive {}",
        stats.slot_high_water, stats.slots_final, stats.live_final
    );
    println!(
        "readers\tslot high {}\tcount final {}",
        stats.reader_slots_high_water, stats.reader_count_final
    );

    let record = if plan_mode { "churn_plan" } else { "churn" };
    bench_record(
        record,
        &[
            ("queries", num(queries)),
            ("batch", num(batch)),
            ("workers", num(workers)),
            ("nodes", num(nodes)),
            ("edges", num(edges)),
            ("classes", text(classes.name())),
            ("install_median_ns", num(stats.install.median().as_nanos())),
            (
                "install_p99_ns",
                num(stats.install.quantile(0.99).as_nanos()),
            ),
            ("settle_median_ns", num(stats.settle.median().as_nanos())),
            (
                "uninstall_median_ns",
                num(stats.uninstall.median().as_nanos()),
            ),
            (
                "step_median_ns_first_half",
                num(stats.steps_first_half.median().as_nanos()),
            ),
            (
                "step_median_ns_second_half",
                num(stats.steps_second_half.median().as_nanos()),
            ),
            (
                "steady_step_median_ns",
                num(stats.steady.median().as_nanos()),
            ),
            ("slot_high_water", num(stats.slot_high_water)),
            ("slots_final", num(stats.slots_final)),
            ("live_final", num(stats.live_final)),
            (
                "shared_entries_high_water",
                num(stats.shared_entries_high_water),
            ),
            (
                "reader_slots_high_water",
                num(stats.reader_slots_high_water),
            ),
            ("reader_count_final", num(stats.reader_count_final)),
            ("graph_size_final", num(stats.graph_size_final)),
        ],
    );
}
