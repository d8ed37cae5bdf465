//! The fan-in sweep: concurrent-client counts (powers of two up to `--clients`)
//! against one reactor, each client issuing single-update round trips (strict
//! send/receive, no pipelining) over loopback TCP.
//!
//! ```console
//! $ cargo run --release -p kpg_bench --bin server_roundtrip -- \
//!       --updates 4000 --workers 2 --clients 64 [--durable] \
//!       [--out BENCH_server_fanout.json]
//! ```
//!
//! Emits one `BENCH {"name":"server_fanout",...}` line per point: single-update RTT
//! p50/p99 across every client plus aggregate throughput — the curve that shows
//! whether the event-driven fabric holds per-command latency flat as fan-in grows.
//! With `--durable` the server writes its command log to a WAL in a temp directory.
//! `--out FILE` additionally persists the swept records as a JSON array (the
//! repo-root `BENCH_server_fanout.json` convention, so the perf trajectory survives
//! in git). The single-connection cost of the byte boundary is the ruler's
//! `point_rtt` workload and its `ladder.manager_us … ladder.socket_us` rungs.

use std::time::Instant;

use kpg_bench::{
    arg_flag, arg_string, arg_usize, bench_report, num, persist_records, LatencyRecorder,
};
use kpg_plan::{Command, Plan, ReduceKind, Row};
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

fn main() {
    let workers = arg_usize("--workers", 1);
    let updates = arg_usize("--updates", 2_000);
    let durable = arg_flag("--durable");
    let clients = arg_usize("--clients", 8).max(1);
    let out = arg_string("--out", "");

    let records = measure_fanout(workers, clients, updates, durable);
    if !out.is_empty() {
        persist_records(&out, &records);
    }
}
