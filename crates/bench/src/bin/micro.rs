//! Arrangement microbenchmarks: Figure 6a–6f (E15–E20).
//!
//! A continually changing collection of 64-bit identifiers is arranged and (for the
//! throughput breakdown) counted, while the harness varies the offered load, the number
//! of workers, and the merge amortization coefficient, and measures the latency to
//! install-and-complete new dataflows that join against the pre-arranged collection.
//!
//! Run with `cargo run --release -p kpg_bench --bin micro [--keys 100000]
//! [--rounds 50] [--max-workers 2] [--updates 200000]`.
//!
//! Besides the human-readable figure tables, every experiment emits one machine-readable
//! `BENCH {...}` JSON line (`micro_latency`, `micro_throughput`, `micro_join_install`),
//! so CI and future PRs can track the perf trajectory of the hot path.
//!
//! `--reduce-bulk [--keys 10000] [--out BENCH_micro_reduce_bulk.json]` runs one other
//! experiment instead: a `count` over every key of a collection loaded in a single
//! epoch — what installing a `Reduce`-rooted query against a loaded arrangement does —
//! at `keys`, 2x, 4x and 8x keys, one `micro_reduce_bulk` record per size. `ratio_2x`
//! (this size's time over the previous size's) is the number to watch: a linear
//! `reduce` doubles. `--out FILE` persists the records as a JSON array (the repo-root
//! `BENCH_*.json` convention, so the trajectory survives in git).
//!
//! `--durable-epoch [--rows 10000] [--out BENCH_micro_durable_epoch.json]` prices
//! durability against the state held: the same 100-update + `AdvanceTime` + `Query`
//! epochs through `submit_batch` on an in-memory `ServerCore` and on a durable one
//! (temp directory, default `DurabilityConfig`), with one keyed input holding `rows`,
//! 2x, 4x and 8x rows. One `micro_durable_epoch` record per size; `overhead_us`
//! (durable median minus in-memory median) is what durability costs an epoch, and
//! `overhead_vs_smallest_x` must stay near 1: the epoch is the same size at every
//! point, so a durable path that costs O(changes) does not notice the state growing.
//!
//! `--spine-merge [--rows 10000] [--out BENCH_micro_spine_merge.json]` prices spine
//! maintenance against the state held (the first family of ROADMAP's "The paper's
//! claims and the scaling exponents as checks" item): the same 100-update epoch
//! inserted into a `Row`-keyed spine holding `rows`, 2x, 4x and 8x rows. One
//! `micro_spine_merge` record per size: `per_epoch_us` is the mean
//! `Spine::insert` (merges are amortised, so the mean is the cost), `vs_smallest_x`
//! its ratio to the first size's — amortised merging makes it grow with the layer
//! count, i.e. logarithmically, never with the rows — and `ns_per_fuel_unit` what the
//! merge kernel charges for one unit of fuel, measured on one two-batch merge of that
//! many rows worked in insert-sized slices.

use kpg_bench::{
    arg_flag, arg_string, arg_usize, bench_record, bench_report, num, persist_records, text, timed,
    LatencyRecorder,
};
use kpg_core::prelude::*;
use kpg_dataflow::Time;
use kpg_plan::{Command, Plan, Row, Value};
use kpg_server::{DurabilityConfig, ServerCore};
use kpg_sync::Arc;
use kpg_timestamp::rng::SmallRng;
use kpg_timestamp::{Antichain, AntichainRef};
use kpg_trace::ord_batch::OrdValBuilder;
use kpg_trace::{Batch, BatchReader, Builder, Merger, Spine};
use kpg_wire::Response;

/// Drives an arrangement of `keys` 64-bit identifiers with `updates_per_round` changes
/// per round for `rounds` rounds, recording per-round completion latency.
fn drive_arrangement(
    workers: usize,
    keys: u64,
    updates_per_round: usize,
    rounds: usize,
    effort: MergeEffort,
) -> LatencyRecorder {
    let results = execute(Config::new(workers), move |worker| {
        let (mut input, probe) = worker.dataflow(|builder| {
            let (input, collection) = new_collection::<u64, isize>(builder);
            let arranged = collection
                .map(|x| (x, x))
                .arrange_by_key_named("MicroArrange", effort);
            (input, arranged.probe())
        });
        let mut rng = SmallRng::seed_from_u64(worker.index() as u64);
        let mut recorder = LatencyRecorder::new();
        let mut epoch = 0u64;
        for _ in 0..rounds {
            for _ in 0..updates_per_round / worker.peers().max(1) {
                let key = rng.gen_range(0..keys);
                input.insert(key);
                input.remove(rng.gen_range(0..keys));
                let _ = key;
            }
            epoch += 1;
            input.advance_to(epoch);
            let target = Time::from_epoch(epoch);
            recorder.time(|| worker.step_while(|| probe.less_than(&target)));
        }
        recorder
    });
    results.into_iter().next().expect("at least one worker")
}

/// Measures peak update throughput of batch formation + trace maintenance + count.
fn throughput(workers: usize, keys: u64, total_updates: usize) -> f64 {
    let (_, elapsed) = timed(|| {
        execute(Config::new(workers), move |worker| {
            let (mut input, probe) = worker.dataflow(|builder| {
                let (input, collection) = new_collection::<u64, isize>(builder);
                let counted = collection.count();
                (input, counted.probe())
            });
            let mut rng = SmallRng::seed_from_u64(worker.index() as u64);
            let share = total_updates / worker.peers().max(1);
            let batch = 10_000.min(share.max(1));
            let mut sent = 0;
            let mut epoch = 0u64;
            while sent < share {
                for _ in 0..batch.min(share - sent) {
                    input.insert(rng.gen_range(0..keys));
                }
                sent += batch;
                epoch += 1;
                input.advance_to(epoch);
                worker.step_while(|| probe.less_than(&Time::from_epoch(epoch)));
            }
        })
    });
    total_updates as f64 / elapsed.as_secs_f64()
}

/// Measures the time to install a new dataflow joining a small collection against a
/// pre-arranged collection of `keys` keys (Figure 6f).
fn join_proportionality(keys: u64, probe_sizes: &[usize]) -> Vec<(usize, f64)> {
    let sizes = probe_sizes.to_vec();
    let results = execute(Config::new(1), move |worker| {
        // Dataflow 1: the large, maintained arrangement.
        let (mut input, probe, trace) = worker.dataflow(|builder| {
            let (input, collection) = new_collection::<u64, isize>(builder);
            let arranged = collection.map(|x| (x, x)).arrange_by_key();
            (input, arranged.probe(), arranged.trace)
        });
        for key in 0..keys {
            input.insert(key);
        }
        input.advance_to(1);
        worker.step_while(|| probe.less_than(&Time::from_epoch(1)));

        // For each probe size, install a fresh dataflow importing the arrangement.
        let mut measurements = Vec::new();
        for &size in sizes.iter() {
            let trace = trace.clone();
            let (_, elapsed) = timed(|| {
                let (mut query_in, query_probe) = worker.dataflow(|builder| {
                    let imported = trace.import(builder);
                    let (query_in, queries) = new_collection::<u64, isize>(builder);
                    let joined = queries
                        .map(|q| (q, ()))
                        .arrange_by_key()
                        .join_core(&imported, |k, (), v| (*k, *v));
                    (query_in, joined.probe())
                });
                for q in 0..size as u64 {
                    query_in.insert(q * 37 % keys);
                }
                query_in.advance_to(1);
                query_in.close();
                worker.step_while(|| query_probe.less_than(&Time::from_epoch(1)));
            });
            measurements.push((size, elapsed.as_secs_f64() * 1e3));
        }
        measurements
    });
    results.into_iter().next().expect("one worker")
}

/// Times a `count` over `keys` keys with four updates each, loaded in one epoch and
/// settled by one `step_while` (so the reduce evaluates every key in a single `work`
/// invocation). The time includes arranging the `4 * keys` input tuples. Median of three.
fn reduce_bulk_ms(keys: u64) -> f64 {
    let mut runs: Vec<f64> = (0..3)
        .map(|_| {
            let elapsed = execute(Config::new(1), move |worker| {
                let (mut input, probe) = worker.dataflow(|builder| {
                    let (input, collection) = new_collection::<(u64, u64), isize>(builder);
                    (input, collection.map(|(src, _)| src).count().probe())
                });
                let (_, elapsed) = timed(|| {
                    for dst in 0..4 {
                        for src in 0..keys {
                            input.insert((src, dst));
                        }
                    }
                    input.advance_to(1);
                    worker.step_while(|| probe.less_than(&Time::from_epoch(1)));
                });
                elapsed
            })
            .remove(0);
            elapsed.as_secs_f64() * 1e3
        })
        .collect();
    runs.sort_by(f64::total_cmp);
    runs[1]
}

/// The `--reduce-bulk` experiment: four doublings from `base_keys`, one
/// `micro_reduce_bulk` record each, optionally persisted to `out`.
fn reduce_bulk(base_keys: u64, out: &str) {
    println!("# Bulk reduce: count over every key of a freshly loaded collection");
    println!("keys\tms\tratio vs half the keys");
    let mut records = Vec::new();
    let mut previous: Option<f64> = None;
    for doubling in 0..4 {
        let keys = base_keys << doubling;
        let ms = reduce_bulk_ms(keys);
        let mut fields = vec![("keys", num(keys)), ("ms", num(format!("{ms:.3}")))];
        match previous {
            Some(half) => {
                println!("{keys}\t{ms:.3}\t{:.2}", ms / half);
                fields.push(("ratio_2x", num(format!("{:.3}", ms / half))));
            }
            None => println!("{keys}\t{ms:.3}\t-"),
        }
        let report = bench_report("micro_reduce_bulk", &fields);
        println!("BENCH {}", report.render());
        records.push(report.render());
        previous = Some(ms);
    }
    if !out.is_empty() {
        persist_records(out, &records);
    }
}

/// Timed epochs per `--durable-epoch` point.
const DURABLE_EPOCHS: u64 = 200;

/// Median wall time, in µs, of one 100-update + `AdvanceTime` + `Query` epoch
/// submitted as one batch to a started `core` whose keyed input `edges` holds `rows`
/// rows. Each epoch adds 50 fresh rows and retracts the 50 oldest, so the state stays
/// at `rows`; the query read is a one-root neighbour join, so its answer stays small.
fn epoch_us(core: &Arc<ServerCore>, rows: u64) -> f64 {
    let engine = core.start();
    core.await_replayed();
    let (client, responses) = core.register_client();
    let mut sent = 0u64;
    let mut run = |commands: Vec<Command>| {
        let count = commands.len();
        let first = sent;
        sent += count as u64;
        core.submit_batch(
            commands
                .into_iter()
                .enumerate()
                .map(|(index, command)| (client, first + index as u64, command)),
        );
        // Poll rather than park: a parked submitter is woken two or three times an
        // epoch, and on this kind of box each wake-up of an idle core costs tens of
        // microseconds in one of several modes — more than the durability being priced.
        let mut received = 0;
        while received < count {
            match responses.try_recv() {
                Ok((_, response)) => {
                    assert!(
                        matches!(response, Response::Ok | Response::QueryResults { .. }),
                        "unexpected response: {response:?}"
                    );
                    received += 1;
                }
                Err(_) => kpg_sync::thread::yield_now(),
            }
        }
    };
    let edge = |id: u64, diff: isize| Command::Update {
        name: "edges".to_string(),
        row: Row::from(vec![Value::UInt(id % (rows / 4).max(1)), Value::UInt(id)]),
        diff,
    };
    let read = || Command::Query {
        name: "neighbours".to_string(),
    };

    let mut load = vec![
        Command::CreateInput {
            name: "edges".to_string(),
            key_arity: Some(1),
        },
        Command::Install {
            name: "neighbours".to_string(),
            plan: Plan::source("root").join(Plan::source("edges"), vec![(0, 0)]),
            locals: vec!["root".to_string()],
        },
        Command::Update {
            name: "root".to_string(),
            row: Row::from(vec![Value::UInt(0)]),
            diff: 1,
        },
    ];
    load.extend((0..rows).map(|id| edge(id, 1)));
    load.extend([Command::AdvanceTime { epoch: 1 }, read()]);
    run(load);

    let mut recorder = LatencyRecorder::new();
    for epoch in 0..DURABLE_EPOCHS {
        let mut commands = Vec::with_capacity(102);
        for slot in 0..50 {
            commands.push(edge(rows + epoch * 50 + slot, 1));
            commands.push(edge(epoch * 50 + slot, -1));
        }
        commands.extend([Command::AdvanceTime { epoch: epoch + 2 }, read()]);
        recorder.time(|| run(commands));
    }
    core.close();
    engine.join().expect("engine drained");
    core.final_checkpoint();
    recorder.median().as_secs_f64() * 1e6
}

/// The `--durable-epoch` experiment: four doublings from `base_rows`, one
/// `micro_durable_epoch` record each, optionally persisted to `out`.
fn durable_epoch(base_rows: u64, out: &str) {
    println!("# Durable epoch: 100 updates + AdvanceTime + Query, in-memory vs durable core");
    println!("rows\tmemory us\tdurable us\toverhead us\tvs smallest");
    let mut records = Vec::new();
    let mut smallest: Option<f64> = None;
    for doubling in 0..4 {
        let rows = base_rows << doubling;
        let memory_us = epoch_us(&Arc::new(ServerCore::new(1)), rows);
        let dir = std::env::temp_dir().join(format!(
            "kpg-micro-durable-epoch-{}-{rows}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let durable = ServerCore::durable(1, false, DurabilityConfig::new(&dir))
            .expect("open a durable core on a fresh directory");
        let durable_us = epoch_us(&Arc::new(durable), rows);
        let _ = std::fs::remove_dir_all(&dir);
        let overhead_us = durable_us - memory_us;
        let mut fields = vec![
            ("rows", num(rows)),
            ("memory_us", num(format!("{memory_us:.1}"))),
            ("durable_us", num(format!("{durable_us:.1}"))),
            ("overhead_us", num(format!("{overhead_us:.1}"))),
        ];
        match smallest {
            Some(first) => {
                let ratio = overhead_us / first;
                println!("{rows}\t{memory_us:.1}\t{durable_us:.1}\t{overhead_us:.1}\t{ratio:.2}");
                fields.push(("overhead_vs_smallest_x", num(format!("{ratio:.3}"))));
            }
            None => {
                println!("{rows}\t{memory_us:.1}\t{durable_us:.1}\t{overhead_us:.1}\t-");
                smallest = Some(overhead_us);
            }
        }
        let report = bench_report("micro_durable_epoch", &fields);
        println!("BENCH {}", report.render());
        records.push(report.render());
    }
    if !out.is_empty() {
        persist_records(out, &records);
    }
}

/// The batch of an `edges`-like arrangement keyed by its first column: what the server's
/// spines hold.
type RowBatch = ValBatch<Row, Row>;

/// A batch over `[lower, upper)` of the edges `ids` name (`src = id % sources`), each
/// with `diff(id)` at epoch `lower`.
fn row_batch(
    ids: impl Iterator<Item = u64>,
    sources: u64,
    diff: impl Fn(u64) -> isize,
    (lower, upper): (u64, u64),
) -> RowBatch {
    let mut builder = OrdValBuilder::default();
    for id in ids {
        let key = Row::from(vec![Value::UInt(id % sources)]);
        let val = Row::from(vec![Value::UInt(id)]);
        builder.push(key, val, Time::from_epoch(lower), diff(id));
    }
    let frontier = |epoch| Antichain::from_elem(Time::from_epoch(epoch));
    builder.done(frontier(lower), frontier(upper), frontier(0))
}

/// Timed epochs per `--spine-merge` point (after as many untimed ones).
const SPINE_EPOCHS: u64 = 400;

/// Mean µs of inserting a 100-update epoch (50 fresh rows, the 50 oldest retracted,
/// compaction following the epochs) into a default-effort spine holding `rows` rows.
fn spine_epoch_us(rows: u64) -> f64 {
    let sources = (rows / 4).max(1);
    let mut spine = Spine::new(MergeEffort::Default);
    spine.insert(row_batch(0..rows, sources, |_| 1, (0, 1)));
    let mut total = std::time::Duration::ZERO;
    for epoch in 1..=2 * SPINE_EPOCHS {
        let first = (epoch - 1) * 50;
        let ids = (first..first + 50).chain(rows + first..rows + first + 50);
        let diff = |id| if id < rows + first { -1 } else { 1 };
        let batch = row_batch(ids, sources, diff, (epoch, epoch + 1));
        spine.set_logical_compaction(AntichainRef::new(&[Time::from_epoch(epoch)]));
        let (_, elapsed) = timed(|| spine.insert(batch));
        if epoch > SPINE_EPOCHS {
            total += elapsed;
        }
    }
    assert_eq!(spine.inserted() as u64, rows + 200 * SPINE_EPOCHS);
    total.as_secs_f64() * 1e6 / SPINE_EPOCHS as f64
}

/// What one unit of merge fuel costs, in ns: two abutting batches of `rows / 2` rows
/// over the same sources, merged in insert-sized slices. Median of five merges.
fn fuel_unit_ns(rows: u64) -> f64 {
    let sources = (rows / 4).max(1);
    let older = row_batch((0..rows).step_by(2), sources, |_| 1, (0, 1));
    let newer = row_batch((1..rows).step_by(2), sources, |_| 1, (1, 2));
    // What a 100-update insert offers each in-progress merge.
    let slice = MergeEffort::Default.fuel_for(100);
    let mut runs: Vec<f64> = (0..5)
        .map(|_| {
            let mut spent = 0isize;
            let (merged, elapsed) = timed(|| {
                let since = [Time::from_epoch(1)];
                let mut merger = older.begin_merge(&newer, AntichainRef::new(&since));
                while !merger.is_complete() {
                    let mut fuel = slice;
                    merger.work(&older, &newer, &mut fuel);
                    spent += slice - fuel;
                }
                merger.done(&older, &newer)
            });
            assert_eq!(merged.len() as u64, rows);
            elapsed.as_secs_f64() * 1e9 / spent as f64
        })
        .collect();
    runs.sort_by(f64::total_cmp);
    runs[2]
}

/// The `--spine-merge` experiment: four doublings from `base_rows`, one
/// `micro_spine_merge` record each, optionally persisted to `out`.
fn spine_merge(base_rows: u64, out: &str) {
    println!("# Spine merge: a 100-update epoch into a Row-keyed spine, by rows held");
    println!("rows\tper epoch us\tns per fuel unit\tvs smallest");
    let mut records = Vec::new();
    let mut smallest: Option<f64> = None;
    for doubling in 0..4 {
        let rows = base_rows << doubling;
        let per_epoch_us = spine_epoch_us(rows);
        let fuel_ns = fuel_unit_ns(rows);
        let ratio = per_epoch_us / *smallest.get_or_insert(per_epoch_us);
        println!("{rows}\t{per_epoch_us:.1}\t{fuel_ns:.1}\t{ratio:.2}");
        let report = bench_report(
            "micro_spine_merge",
            &[
                ("rows", num(rows)),
                ("per_epoch_us", num(format!("{per_epoch_us:.1}"))),
                ("ns_per_fuel_unit", num(format!("{fuel_ns:.1}"))),
                ("vs_smallest_x", num(format!("{ratio:.3}"))),
            ],
        );
        println!("BENCH {}", report.render());
        records.push(report.render());
    }
    if !out.is_empty() {
        persist_records(out, &records);
    }
}

/// Emits the `micro_latency` BENCH line for one step-latency experiment.
fn emit_latency(label: &str, workers: usize, load: usize, recorder: &LatencyRecorder) {
    bench_record(
        "micro_latency",
        &[
            ("experiment", text(label)),
            ("workers", num(workers)),
            ("load", num(load)),
            ("p50_ns", num(recorder.median().as_nanos())),
            ("p99_ns", num(recorder.quantile(0.99).as_nanos())),
            ("max_ns", num(recorder.max().as_nanos())),
        ],
    );
}

fn main() {
    if arg_flag("--reduce-bulk") {
        reduce_bulk(arg_usize("--keys", 10_000) as u64, &arg_string("--out", ""));
        return;
    }
    if arg_flag("--durable-epoch") {
        durable_epoch(arg_usize("--rows", 10_000) as u64, &arg_string("--out", ""));
        return;
    }
    if arg_flag("--spine-merge") {
        spine_merge(arg_usize("--rows", 10_000) as u64, &arg_string("--out", ""));
        return;
    }
    let keys = arg_usize("--keys", 50_000) as u64;
    let rounds = arg_usize("--rounds", 50);
    let max_workers = arg_usize("--max-workers", 2);
    let updates = arg_usize("--updates", 200_000);

    println!("# Figure 6a: latency CCDF vs offered load (1 worker)");
    for load in [250usize, 1_000, 4_000] {
        let recorder = drive_arrangement(1, keys, load, rounds, MergeEffort::Default);
        recorder.print_ccdf(&format!("load-{load}"));
        emit_latency("load", 1, load, &recorder);
    }

    println!("\n# Figure 6b: latency CCDF vs workers (fixed load)");
    let mut workers = 1;
    while workers <= max_workers {
        let recorder = drive_arrangement(workers, keys, 4_000, rounds, MergeEffort::Default);
        recorder.print_ccdf(&format!("workers-{workers}"));
        emit_latency("workers", workers, 4_000, &recorder);
        workers *= 2;
    }

    println!("\n# Figure 6c: latency CCDF vs workers (load proportional to workers)");
    let mut workers = 1;
    while workers <= max_workers {
        let recorder = drive_arrangement(
            workers,
            keys * workers as u64,
            4_000 * workers,
            rounds,
            MergeEffort::Default,
        );
        recorder.print_ccdf(&format!("weak-{workers}"));
        emit_latency("weak", workers, 4_000 * workers, &recorder);
        workers *= 2;
    }

    println!("\n# Figure 6d: throughput of arrangement + count (records/s)");
    let mut workers = 1;
    while workers <= max_workers {
        let rate = throughput(workers, keys, updates);
        println!("workers-{workers}\t{rate:.0} records/s");
        bench_record(
            "micro_throughput",
            &[
                ("workers", num(workers)),
                ("keys", num(keys)),
                ("updates", num(updates)),
                ("records_per_s", num(format!("{rate:.0}"))),
            ],
        );
        workers *= 2;
    }

    println!("\n# Figure 6e: merge amortization (eager / default / lazy)");
    for (label, effort) in [
        ("eager", MergeEffort::Eager),
        ("default", MergeEffort::Default),
        ("lazy", MergeEffort::Lazy),
    ] {
        let recorder = drive_arrangement(1, keys, 4_000, rounds, effort);
        recorder.print_ccdf(label);
        emit_latency(label, 1, 4_000, &recorder);
    }

    println!("\n# Figure 6f: install + complete a join against a pre-arranged collection");
    println!("probe size\tlatency (ms)");
    for (size, ms) in join_proportionality(keys, &[1, 256, 4_096, 16_384]) {
        println!("{size}\t{ms:.3}");
        bench_record(
            "micro_join_install",
            &[
                ("keys", num(keys)),
                ("size", num(size)),
                ("latency_us", num(format!("{:.0}", ms * 1e3))),
            ],
        );
    }
}
