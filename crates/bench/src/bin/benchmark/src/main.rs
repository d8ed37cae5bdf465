//! The repo benchmark. See `README.md` beside this package for the workloads, the
//! metrics, what each is expected to move, and how to name a claim.
//!
//! ```console
//! $ cargo run --release --offline --manifest-path crates/bench/src/bin/benchmark/Cargo.toml -- \
//!       --workload epoch_stream --seed 1 --seconds 15 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object: `correct`, `attempted`,
//! `failed`, and `metrics` (the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`). Without `--workload` every workload runs in turn;
//! `--smoke` shrinks sizes and times to a few seconds; `--repeat N` runs the gated
//! set N times and checks that the sets agree within the bounds below.

#![forbid(unsafe_code)]

mod gen;
mod harness;
mod ladder;
mod layers;
mod spans;
mod stats;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;

use harness::Res;
use spans::Tracer;
use stats::{metric, RunResult};
use workloads::{DurableRestart, Env, EpochStream, PointRtt, QueryChurn, Tally, Workload};

const WORKLOADS: [&str; 4] = [
    "point_rtt",
    "epoch_stream",
    "query_churn",
    "durable_restart",
];

/// The end-to-end metrics every gated run reports, with the share of the parent's
/// median by which each may worsen (as recorded in `BENCHMARK.json`).
const END_TO_END: [(&str, f64); 6] = [
    ("setup_s", 0.25),
    ("latency_p50_ms", 0.25),
    ("latency_slowest10_mean_ms", 0.25),
    ("throughput_per_s", 0.2),
    ("server_cpu_us_per_op", 0.2),
    ("server_peak_rss_mb", 0.15),
];

/// Every per-layer metric a traced run reports, in the order reported (and as listed
/// in `BENCHMARK.json`).
const PER_LAYER: [&str; 65] = [
    "gen.wait_due_us_per_op",
    "gen.encode_us_per_op",
    "gen.write_us_per_op",
    "gen.await_response_us_per_op",
    "gen.decode_us_per_op",
    "gen.other_us_per_op",
    "trace.overhead_pct",
    "trace.workload_spans",
    "open_loop.latency_p50_ms_low_rate",
    "open_loop.generator_late_p99_us",
    "open_loop.backlog_epochs_at_end",
    "store.durable_load_s",
    "store.recovery_to_answer_s",
    "store.checkpoints_completed",
    "churn.four_path_install_to_answer_ms",
    "wire.encode_ns_per_update",
    "wire.decode_ns_per_update",
    "wire.assemble_ns_per_frame",
    "wire.response_decode_ns_per_row",
    "wire.bytes_per_update",
    "sync.doorbell_handoff_ns",
    "server.submit_ns_per_cmd_batch1",
    "server.submit_ns_per_cmd_batch64",
    "server.core_rtt_us",
    "store.wal_commit_p50_us",
    "store.wal_mb_per_s",
    "store.wal_replay_records_per_s",
    "store.wal_bytes_per_update",
    "store.run_write_mb_per_s",
    "store.run_read_mb_per_s",
    "trace.build_ns_per_tuple",
    "trace.merge_ns_per_tuple",
    "trace.seek_ns_per_key",
    "trace.spine_batches_after_load",
    "trace.spill_mb_per_s",
    "dataflow.idle_step_ns_per_dataflow",
    "dataflow.install_drop_us",
    "dataflow.exchange_ns_per_record",
    "core.arrange_ns_per_update",
    "core.reduce_incremental_ns_per_key",
    "core.import_us",
    "core.join_ns_per_match",
    "core.reduce_bulk_ms_10k_keys",
    "core.reduce_bulk_ms_20k_keys",
    "plan.update_ns",
    "plan.settle_ms_per_epoch",
    "plan.query_us_per_row",
    "plan.install_warm_us",
    "plan.install_to_answer_warm_us",
    "plan.install_cold_ms",
    "plan.uninstall_us",
    "plan.four_path_install_to_answer_ms",
    "ladder.manager_us",
    "ladder.core_us",
    "ladder.codec_us",
    "ladder.socket_us",
    "ladder.durable_us",
    "ladder.child_us",
    "ladder.unexplained_pct",
    "ladder.epoch_manager_ms",
    "ladder.epoch_core_ms",
    "ladder.epoch_codec_ms",
    "ladder.epoch_socket_ms",
    "ladder.epoch_durable_ms",
    "net.loopback_rtt_us",
];

/// Measured seconds when `--seconds` is not given (`run_seconds` in `BENCHMARK.json`).
const RUN_SECONDS: f64 = 15.0;
const SMOKE_SECONDS: f64 = 1.0;

/// Fresh servers a gated run measures, each for its share of the measured seconds.
const SESSIONS: usize = 3;
/// Set-ups made per gated run at most; `setup_s` is their median. Every session has
/// one; more are made while all of them together fit in the time budget.
const MAX_SETUPS: usize = 15;
const SETUP_BUDGET_S: f64 = 1.5;

struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    repeat: usize,
}

fn parse_options() -> Res<Options> {
    let mut options = Options {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        smoke: false,
        repeat: 1,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |what: &str| {
            args.next()
                .ok_or_else(|| format!("{flag} needs a value ({what})"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                if !WORKLOADS.contains(&name.as_str()) {
                    return Err(format!(
                        "unknown workload {name:?}; the workloads are {WORKLOADS:?}"
                    ));
                }
                options.workload = Some(name);
            }
            "--seed" => {
                options.seed = value("a whole number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let seconds: f64 = value("seconds to measure for")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                options.seconds = Some(seconds);
            }
            "--trace" => {
                options.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                };
            }
            "--repeat" => {
                options.repeat = value("a count of sets")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?;
                if options.repeat == 0 {
                    return Err("--repeat must be at least 1".to_string());
                }
            }
            "--smoke" => options.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if options.repeat > 1 && options.trace {
        return Err(
            "--repeat checks the gated metrics; it does not combine with --trace 1".to_string(),
        );
    }
    Ok(options)
}

/// Checks a session's final answer and returns every count it made: its set-up's,
/// the measured passes', and the final check's.
fn count_up<W: Workload>(session: &mut W, measured: &[Tally]) -> Res<Tally> {
    let mut total = session.setup_tally();
    total.absorb(session.finish()?);
    for tally in measured {
        total.absorb(*tally);
    }
    Ok(total)
}

/// Runs one workload untraced and returns its end-to-end metrics.
///
/// The measured time is split over [`SESSIONS`] fresh servers and every metric is the
/// median over them. On this two-core box one server process differs from the next
/// by more than one second of a run differs from the next second (thread placement,
/// hash seeds, memory layout): a 5 s and a 15 s session scatter alike, the median of
/// three does not.
fn gated_run<W: Workload>(env: &Env, seconds: f64) -> Res<RunResult> {
    let mut setups = Vec::with_capacity(MAX_SETUPS);
    let mut total = Tally::default();
    let mut per_session: [Vec<f64>; 5] = Default::default();
    for index in 0..SESSIONS {
        // One server at a time: the previous session's child is gone before the next
        // set-up is timed.
        let begin = Instant::now();
        let mut session = W::setup(env)?;
        setups.push(begin.elapsed().as_secs_f64());
        let mut phase = session.measure(seconds / SESSIONS as f64, &mut Tracer::off())?;
        println!(
            "{}: session {index}: latency {}",
            W::NAME,
            phase.latency.describe_ms()
        );
        let values = [
            phase.latency.quantile_ms(0.5),
            phase.latency.slowest_mean_ms(0.1),
            phase.throughput_per_s,
            phase.cpu_s * 1e6 / phase.ops.max(1) as f64,
            session.peak_rss_mb()?,
        ];
        for (values, value) in per_session.iter_mut().zip(values) {
            values.push(value);
        }
        total.absorb(count_up(&mut session, &[phase.tally])?);
    }
    // Set-ups alone while they are cheap: the toy graph of `point_rtt` sets up in
    // milliseconds, and three samples of that say little.
    while setups.len() < MAX_SETUPS && setups.iter().sum::<f64>() < SETUP_BUDGET_S {
        let begin = Instant::now();
        let session = W::setup(env)?;
        setups.push(begin.elapsed().as_secs_f64());
        total.absorb(session.setup_tally());
    }
    println!(
        "{}: {} set-ups, median of {:.4?} s",
        W::NAME,
        setups.len(),
        setups
    );
    let [p50, slowest, throughput, cpu, rss] =
        per_session.map(|mut values| stats::median(&mut values));
    Ok(RunResult {
        attempted: total.attempted,
        failed: total.failed,
        metrics: vec![
            metric("setup_s", "s", stats::median(&mut setups)),
            metric("latency_p50_ms", "ms", p50),
            metric("latency_slowest10_mean_ms", "ms", slowest),
            metric("throughput_per_s", "1/s", throughput),
            metric("server_cpu_us_per_op", "us", cpu),
            metric("server_peak_rss_mb", "MB", rss),
        ],
    })
}

/// Runs one workload traced and returns the per-layer metrics: what the generator's
/// spans say about the run, what only this workload can observe, then every
/// in-process probe and the ladder.
fn traced_run<W: Workload>(env: &Env, seconds: f64) -> Res<RunResult> {
    let mut session = W::setup(env)?;
    // Four passes on one server — untraced, traced, traced, untraced — so that drift
    // over the run (state growing, caches warming) falls on both kinds alike and the
    // difference between their medians is what recording spans costs.
    let quarter = seconds / 4.0;
    let mut tracer = Tracer::new(true, Instant::now());
    let mut untraced = session.measure(quarter, &mut Tracer::off())?;
    let mut traced = session.measure(quarter, &mut tracer)?;
    traced.pool(session.measure(quarter, &mut tracer)?);
    untraced.pool(session.measure(quarter, &mut Tracer::off())?);
    let observed = session.observed();
    let total = count_up(&mut session, &[untraced.tally, traced.tally])?;
    // The child is gone before the probes run, so they do not share the cores.
    drop(session);

    let self_ns = tracer.self_times_ns();
    let per_op_us = |name: &str| {
        self_ns.get(name).copied().unwrap_or(0) as f64 / 1e3 / traced.ops.max(1) as f64
    };
    let untraced_p50 = untraced.latency.quantile_ms(0.5);
    let overhead_pct = (traced.latency.quantile_ms(0.5) - untraced_p50) / untraced_p50 * 100.0;
    let mut metrics = vec![
        metric("gen.wait_due_us_per_op", "us", per_op_us("gen.wait_due")),
        metric("gen.encode_us_per_op", "us", per_op_us("gen.encode")),
        metric("gen.write_us_per_op", "us", per_op_us("gen.write")),
        metric(
            "gen.await_response_us_per_op",
            "us",
            per_op_us("gen.await_response"),
        ),
        metric("gen.decode_us_per_op", "us", per_op_us("gen.decode")),
        metric("gen.other_us_per_op", "us", per_op_us("op")),
        metric("trace.overhead_pct", "%", overhead_pct),
        metric("trace.workload_spans", "count", tracer.len() as f64),
        metric(
            "open_loop.latency_p50_ms_low_rate",
            "ms",
            untraced.open_loop.low_rate_latency_p50_ms,
        ),
        metric(
            "open_loop.generator_late_p99_us",
            "us",
            untraced.open_loop.generator_late_p99_us,
        ),
        metric(
            "open_loop.backlog_epochs_at_end",
            "count",
            untraced.open_loop.backlog_at_end,
        ),
        metric("store.durable_load_s", "s", observed.durable_load_s),
        metric(
            "store.recovery_to_answer_s",
            "s",
            observed.recovery_to_answer_s,
        ),
        metric(
            "store.checkpoints_completed",
            "count",
            observed.checkpoints_completed,
        ),
        metric(
            "churn.four_path_install_to_answer_ms",
            "ms",
            observed.four_path_install_to_answer_ms,
        ),
    ];
    metrics.extend(layers::wire(env.seed));
    metrics.extend(layers::sync()?);
    metrics.extend(layers::server(env.seed));
    metrics.extend(layers::store(env.seed)?);
    metrics.extend(layers::trace(env.seed)?);
    metrics.extend(layers::dataflow());
    metrics.extend(layers::core(env.scale, env.seed));
    metrics.extend(layers::plan(env.scale, env.seed));
    metrics.extend(ladder::run(env, &mut tracer)?);

    let path = harness::out_dir()?.join(format!("trace_{}.jsonl", W::NAME));
    tracer
        .write_jsonl(&path)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!(
        "{}: {} spans written to {} ({} dropped over the cap)",
        W::NAME,
        tracer.len(),
        path.display(),
        tracer.dropped()
    );
    if !metrics.iter().map(|m| m.name).eq(PER_LAYER) {
        return Err("the per-layer metrics produced differ from the PER_LAYER table".to_string());
    }
    Ok(RunResult {
        attempted: total.attempted,
        failed: total.failed,
        metrics,
    })
}

fn run_named(name: &str, env: &Env, seconds: f64, trace: bool) -> Res<RunResult> {
    fn run<W: Workload>(env: &Env, seconds: f64, trace: bool) -> Res<RunResult> {
        if trace {
            traced_run::<W>(env, seconds)
        } else {
            gated_run::<W>(env, seconds)
        }
    }
    match name {
        "point_rtt" => run::<PointRtt>(env, seconds, trace),
        "epoch_stream" => run::<EpochStream>(env, seconds, trace),
        "query_churn" => run::<QueryChurn>(env, seconds, trace),
        "durable_restart" => run::<DurableRestart>(env, seconds, trace),
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// `--repeat N`: per workload and end-to-end metric, the median over the sets and
/// their range as a share of it; false if any range exceeds the metric's bound.
fn sets_agree(names: &[&str], sets: &[Vec<RunResult>]) -> bool {
    let mut agree = true;
    for (index, workload) in names.iter().enumerate() {
        for (metric_name, bound) in END_TO_END {
            let mut values: Vec<f64> = sets
                .iter()
                .filter_map(|set| set[index].metrics.iter().find(|m| m.name == metric_name))
                .map(|m| m.value)
                .collect();
            let median = stats::median(&mut values);
            let range = (values[values.len() - 1] - values[0]) / median;
            agree &= range <= bound;
            println!(
                "repeat: {workload}.{metric_name}: median {median:.6}, (max-min)/median {:.1}% (bound {:.0}%){}",
                range * 100.0,
                bound * 100.0,
                if range <= bound { "" } else { "  EXCEEDED" }
            );
        }
    }
    agree
}

fn run() -> Res<bool> {
    let options = parse_options()?;
    harness::remove_stale_scratch();
    let env = Env {
        server_exe: harness::build_server()?,
        seed: options.seed,
        scale: if options.smoke { gen::SMOKE } else { gen::FULL },
    };
    let seconds = options.seconds.unwrap_or(if options.smoke {
        SMOKE_SECONDS
    } else {
        RUN_SECONDS
    });
    let names: Vec<&str> = match &options.workload {
        Some(name) => vec![name.as_str()],
        None => WORKLOADS.to_vec(),
    };
    let mut all_correct = true;
    let mut sets = Vec::with_capacity(options.repeat);
    for _ in 0..options.repeat {
        let mut set = Vec::with_capacity(names.len());
        for name in &names {
            let result = run_named(name, &env, seconds, options.trace)?;
            for m in &result.metrics {
                println!("{name}: {} = {} {}", m.name, m.value, m.unit);
            }
            all_correct &= result.failed == 0;
            // The result line comes last for each workload, so it is the last line of
            // standard output when one workload is asked for.
            println!("{}", result.to_json());
            set.push(result);
        }
        sets.push(set);
    }
    // A smoke run is too short for its numbers to mean anything: no gating.
    if options.repeat > 1 && !options.smoke && !sets_agree(&names, &sets) {
        eprintln!("benchmark: the sets disagree by more than a metric's bound");
        return Ok(false);
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("benchmark: failed (see above)");
            ExitCode::from(1)
        }
        Err(why) => {
            eprintln!("benchmark: {why}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` is what the driver reads; the tables here are what the
    /// program emits. They must name the same things.
    #[test]
    fn benchmark_json_names_what_the_program_emits() {
        let json = include_str!("../../../../../../BENCHMARK.json");
        for workload in WORKLOADS {
            assert!(
                json.contains(&format!("\"name\": \"{workload}\"")),
                "{workload}"
            );
        }
        for (name, bound) in END_TO_END {
            let entry = format!("\"name\": \"{name}\"");
            let at = json
                .find(&entry)
                .unwrap_or_else(|| panic!("{name} is missing"));
            let end = json[at..].find('}').map_or(json.len(), |end| at + end);
            assert!(
                json[at..end].contains(&format!("\"bound\": {bound}")),
                "{name} should have bound {bound}: {}",
                &json[at..end]
            );
        }
        for name in PER_LAYER {
            assert!(json.contains(&format!("\"name\": \"{name}\"")), "{name}");
        }
        assert_eq!(
            json.matches("\"name\":").count(),
            WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len()
        );
        assert_eq!(json.matches("\"why\":").count(), WORKLOADS.len());
        assert_eq!(json.matches("\"bound\":").count(), END_TO_END.len());
        assert!(json.contains(&format!("\"run_seconds\": {}", RUN_SECONDS as u64)));
    }
}
