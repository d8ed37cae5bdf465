//! Measures the cost of the byte boundary: per-command latency through the network
//! server (wire codec + framing + sequencer + all-worker execution + response
//! aggregation, full round trip over loopback TCP) against the same command stream
//! executed directly on an in-process `Manager`.
//!
//! ```console
//! $ cargo run --release -p kpg_bench --bin server_roundtrip -- \
//!       --updates 2000 --queries 20 --workers 2 [--durable] \
//!       [--clients 64] [--out BENCH_server_fanout.json]
//! ```
//!
//! With `--durable` the server writes its command log to a WAL in a temp directory
//! (group-committed, fsynced per epoch), so the wire numbers include the durability
//! tax an acknowledged command actually pays.
//!
//! Emits one `BENCH {"name":"server_roundtrip",...}` line: direct vs wire update
//! medians, wire p99, query medians, the wire/direct overhead ratio — the number
//! that tells us when the socket loop (not the dataflow) becomes the bottleneck —
//! and a `durable` 0/1 marker.
//!
//! With `--clients N` it additionally sweeps concurrent-client counts (powers of
//! two up to `N`) against one reactor, emitting a `BENCH
//! {"name":"server_fanout",...}` line per point: single-update RTT p50/p99 across
//! every client plus aggregate throughput — the curve that shows whether the
//! event-driven fabric holds per-command latency flat as fan-in grows. `--out
//! FILE` additionally persists the swept records as a JSON array (the repo-root
//! `BENCH_server_fanout.json` convention, so the perf trajectory survives in git).

use std::time::Instant;

use kpg_bench::{
    arg_flag, arg_string, arg_usize, bench_record, bench_report, num, persist_records,
    LatencyRecorder,
};
use kpg_dataflow::{execute, Config, Worker};
use kpg_plan::{Command, Manager, Plan, ReduceKind, Row};
use kpg_server::{serve, Client, DurabilityConfig, ServerConfig};

fn edge(src: u64, dst: u64) -> Row {
    Row::from(vec![src.into(), dst.into()])
}

fn commands_setup() -> Vec<Command> {
    vec![
        Command::CreateInput {
            name: "edges".into(),
            key_arity: Some(1),
        },
        Command::Install {
            name: "degrees".into(),
            plan: Plan::source("edges").reduce(1, ReduceKind::Count),
            locals: vec![],
        },
    ]
}

fn update_command(index: u64) -> Command {
    Command::Update {
        name: "edges".into(),
        row: edge(index % 500, (index * 7) % 500),
        diff: 1,
    }
}

struct Measured {
    update_p50_ns: u128,
    update_p99_ns: u128,
    query_p50_ns: u128,
}

/// Runs the workload through a loopback server, timing each command's full round
/// trip. With `durable`, the server logs to a WAL in a fresh temp directory, so the
/// measured latencies include staging every command and fsyncing every epoch.
fn measure_wire(workers: usize, updates: usize, queries: usize, durable: bool) -> Measured {
    let wal_dir = durable.then(|| {
        let dir = std::env::temp_dir().join(format!("kpg-roundtrip-wal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    });
    let mut server = serve(
        "127.0.0.1:0",
        ServerConfig {
            workers,
            durability: wal_dir.as_ref().map(DurabilityConfig::new),
            ..ServerConfig::default()
        },
    )
    .expect("bind the bench server");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    for command in commands_setup() {
        client.send(&command).expect("setup send");
        client.receive().expect("setup ack");
    }
    let mut update_latency = LatencyRecorder::new();
    let mut query_latency = LatencyRecorder::new();
    for round in 0..queries.max(1) {
        for index in 0..(updates / queries.max(1)) as u64 {
            let command = update_command(round as u64 * 1_000_003 + index);
            let start = Instant::now();
            client.send(&command).expect("send update");
            client.receive().expect("update ack");
            update_latency.record(start.elapsed());
        }
        client.advance(round as u64 + 1).expect("advance");
        let start = Instant::now();
        let rows = client.query("degrees").expect("query");
        query_latency.record(start.elapsed());
        assert!(!rows.is_empty());
    }
    server.shutdown();
    if let Some(dir) = wal_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    Measured {
        update_p50_ns: update_latency.quantile(0.5).as_nanos(),
        update_p99_ns: update_latency.quantile(0.99).as_nanos(),
        query_p50_ns: query_latency.quantile(0.5).as_nanos(),
    }
}

/// One point of the fan-out curve: `clients` concurrent connections against one
/// server, each pipelining nothing (strict send/receive), splitting `updates`
/// round trips between them. Returns the merged RTT distribution and the
/// aggregate wall-clock throughput.
fn measure_fanout_point(
    server_addr: std::net::SocketAddr,
    clients: usize,
    updates: usize,
) -> (LatencyRecorder, f64, usize) {
    let per_client = (updates / clients).max(1);
    let start_line = kpg_sync::Arc::new(kpg_sync::Barrier::new(clients + 1));
    let handles: Vec<_> = (0..clients)
        .map(|who| {
            let start_line = kpg_sync::Arc::clone(&start_line);
            kpg_sync::thread::spawn(move || {
                let mut client = Client::connect(server_addr).expect("connect fanout client");
                start_line.wait();
                let mut samples = Vec::with_capacity(per_client);
                for index in 0..per_client as u64 {
                    let command = update_command(who as u64 * 1_000_003 + index);
                    let start = Instant::now();
                    client.send(&command).expect("send fanout update");
                    client.receive().expect("fanout ack");
                    samples.push(start.elapsed());
                }
                samples
            })
        })
        .collect();
    start_line.wait();
    let wall = Instant::now();
    let mut merged = LatencyRecorder::new();
    for handle in handles {
        for sample in handle.join().expect("fanout client") {
            merged.record(sample);
        }
    }
    let elapsed = wall.elapsed().as_secs_f64();
    let total = per_client * clients;
    (merged, total as f64 / elapsed.max(1e-9), total)
}

/// Sweeps client counts (powers of two up to `max_clients`, always including the
/// endpoint) against a single server, emitting one `server_fanout` record per
/// point and returning the rendered records for persistence.
fn measure_fanout(
    workers: usize,
    max_clients: usize,
    updates: usize,
    durable: bool,
) -> Vec<String> {
    let wal_dir = durable.then(|| {
        let dir = std::env::temp_dir().join(format!("kpg-fanout-wal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    });
    let mut server = serve(
        "127.0.0.1:0",
        ServerConfig {
            workers,
            durability: wal_dir.as_ref().map(DurabilityConfig::new),
            ..ServerConfig::default()
        },
    )
    .expect("bind the fanout server");
    let addr = server.local_addr();
    let mut control = Client::connect(addr).expect("connect control client");
    for command in commands_setup() {
        control.send(&command).expect("setup send");
        control.receive().expect("setup ack");
    }

    let mut points = vec![1usize];
    while *points.last().unwrap() * 2 <= max_clients {
        points.push(points.last().unwrap() * 2);
    }
    if *points.last().unwrap() != max_clients {
        points.push(max_clients);
    }

    let mut records = Vec::with_capacity(points.len());
    for clients in points {
        let (rtt, throughput, total) = measure_fanout_point(addr, clients, updates);
        let p50 = rtt.quantile(0.5).as_nanos();
        let p99 = rtt.quantile(0.99).as_nanos();
        println!(
            "fanout {clients:>5} clients: rtt p50 {p50} ns, p99 {p99} ns, {throughput:.0} updates/s"
        );
        let report = bench_report(
            "server_fanout",
            &[
                ("workers", num(workers)),
                ("clients", num(clients)),
                ("updates", num(total)),
                ("rtt_p50_ns", num(p50)),
                ("rtt_p99_ns", num(p99)),
                ("throughput_per_s", num(format!("{throughput:.1}"))),
                ("durable", num(u8::from(durable))),
            ],
        );
        println!("BENCH {}", report.render());
        records.push(report.render());
    }
    drop(control);
    server.shutdown();
    if let Some(dir) = wal_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    records
}

/// Runs the identical workload directly on one in-process `Manager` per worker —
/// no codec, no socket, no sequencer. (Same command stream; `Command::Update` shards
/// itself, so the multi-worker run executes the same log everywhere.)
fn measure_direct(workers: usize, updates: usize, queries: usize) -> Measured {
    let mut results = execute(Config::new(workers), move |worker: &mut Worker| {
        let mut manager = Manager::new();
        for command in commands_setup() {
            manager.execute(worker, command).expect("setup");
        }
        let mut update_latency = LatencyRecorder::new();
        let mut query_latency = LatencyRecorder::new();
        for round in 0..queries.max(1) {
            for index in 0..(updates / queries.max(1)) as u64 {
                let command = update_command(round as u64 * 1_000_003 + index);
                let start = Instant::now();
                manager.execute(worker, command).expect("update");
                update_latency.record(start.elapsed());
            }
            manager
                .execute(
                    worker,
                    Command::AdvanceTime {
                        epoch: round as u64 + 1,
                    },
                )
                .expect("advance");
            let start = Instant::now();
            manager.settle(worker);
            let rows = manager
                .execute(
                    worker,
                    Command::Query {
                        name: "degrees".into(),
                    },
                )
                .expect("query");
            query_latency.record(start.elapsed());
            drop(rows);
        }
        Measured {
            update_p50_ns: update_latency.quantile(0.5).as_nanos(),
            update_p99_ns: update_latency.quantile(0.99).as_nanos(),
            query_p50_ns: query_latency.quantile(0.5).as_nanos(),
        }
    });
    results.remove(0)
}

fn main() {
    let workers = arg_usize("--workers", 1);
    let updates = arg_usize("--updates", 2_000);
    let queries = arg_usize("--queries", 20);
    let durable = arg_flag("--durable");
    let clients = arg_usize("--clients", 0);
    let out = arg_string("--out", "");

    // Round the workload to whole rounds so the emitted record states exactly what
    // was measured (and a tiny --updates still updates at least once per round).
    let rounds = queries.max(1);
    let per_round = (updates / rounds).max(1);
    let updates = per_round * rounds;

    let wire = measure_wire(workers, updates, queries, durable);
    let direct = measure_direct(workers, updates, queries);
    let overhead = wire.update_p50_ns as f64 / (direct.update_p50_ns.max(1)) as f64;

    println!(
        "update p50: direct {} ns, wire {} ns ({overhead:.1}x); wire p99 {} ns; query p50: direct {} ns, wire {} ns",
        direct.update_p50_ns,
        wire.update_p50_ns,
        wire.update_p99_ns,
        direct.query_p50_ns,
        wire.query_p50_ns,
    );
    bench_record(
        "server_roundtrip",
        &[
            ("workers", num(workers)),
            ("updates", num(updates)),
            ("queries", num(queries)),
            ("direct_update_p50_ns", num(direct.update_p50_ns)),
            ("wire_update_p50_ns", num(wire.update_p50_ns)),
            ("wire_update_p99_ns", num(wire.update_p99_ns)),
            ("direct_query_p50_ns", num(direct.query_p50_ns)),
            ("wire_query_p50_ns", num(wire.query_p50_ns)),
            ("overhead_x", num(format!("{overhead:.3}"))),
            ("durable", num(u8::from(durable))),
        ],
    );

    if clients > 0 {
        let records = measure_fanout(workers, clients, updates, durable);
        if !out.is_empty() {
            persist_records(&out, &records);
        }
    }
}
