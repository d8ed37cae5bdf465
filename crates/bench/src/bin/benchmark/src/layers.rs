//! Per-layer probes: timed calls into each crate's public functions, in-process, from
//! outside. Names are `crate.metric`. None of these is gated; each exists because an
//! optimisation of that layer should move it, and the README says which end-to-end
//! metric should follow, on which workload.
//!
//! Every probe repeats its body for a fixed budget and reports the median repeat, so
//! one descheduled repeat does not move the number.

use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use kpg_core::prelude::*;
use kpg_plan::{Command, Manager, Plan};
use kpg_server::{ClientId, ResponseRoute, ServerCore};
use kpg_store::{RunReader, RunWriter, Wal, WalBatch};
use kpg_sync::atomic::{AtomicU64, Ordering};
use kpg_sync::{Arc, Doorbell};
use kpg_timestamp::rng::SmallRng;
use kpg_timestamp::Antichain;
use kpg_trace::cursor::Cursor;
use kpg_trace::ord_batch::{OrdValBatch, OrdValBuilder};
use kpg_trace::{spill_batch, BatchReader, Builder, Spine};
use kpg_wire::{write_frame, FrameAssembler, Response, WireCodec, DEFAULT_FRAME_LIMIT};

use crate::gen::{self, Graph, Scale};
use crate::harness::{Res, Scratch};
use crate::stats::{metric, Metric, Samples};

/// How long each probe repeats its body.
const BUDGET: Duration = Duration::from_millis(200);

/// Repeats `body` for [`BUDGET`] (at least three times) and returns the median
/// repeat's duration in nanoseconds.
fn median_ns(mut body: impl FnMut()) -> f64 {
    let mut samples = Samples::with_capacity(1 << 10);
    let begin = Instant::now();
    while samples.len() < 3 || begin.elapsed() < BUDGET {
        let start = Instant::now();
        body();
        samples.record(start.elapsed());
    }
    samples.quantile_ns(0.5)
}

fn file_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|entry| entry.metadata().ok())
                .filter(|meta| meta.is_file())
                .map(|meta| meta.len())
                .sum()
        })
        .unwrap_or(0)
}

fn io_err(what: &str) -> impl Fn(std::io::Error) -> String + '_ {
    move |e| format!("{what}: {e}")
}

// ---------------------------------------------------------------------------------
// kpg_wire
// ---------------------------------------------------------------------------------

pub fn wire(seed: u64) -> Vec<Metric> {
    const FRAMES: usize = 1_000;
    let mut rng = SmallRng::seed_from_u64(seed);
    let commands: Vec<Command> = (0..FRAMES)
        .map(|_| gen::edge_update((rng.gen_range(0..20_000), rng.gen_range(0..20_000)), 1))
        .collect();
    let encoded: Vec<Vec<u8>> = commands.iter().map(WireCodec::encode).collect();
    let mut stream = Vec::new();
    for payload in &encoded {
        write_frame(&mut stream, payload).expect("writing to a Vec cannot fail");
    }
    let answer = Response::QueryResults {
        rows: (0..FRAMES as u32)
            .map(|n| kpg_graph::plans::edge_row((n, n + 1)))
            .collect(),
        diffs: vec![1; FRAMES],
    }
    .encode();

    let encode = median_ns(|| {
        for command in &commands {
            black_box(command.encode());
        }
    });
    let decode = median_ns(|| {
        for payload in &encoded {
            black_box(Command::decode(payload).expect("own encoding decodes"));
        }
    });
    let assemble = median_ns(|| {
        let mut assembler = FrameAssembler::new(DEFAULT_FRAME_LIMIT);
        // Socket-read sized pieces, as the reactor feeds it.
        for chunk in stream.chunks(16 << 10) {
            assembler.ingest(chunk);
        }
        let mut frames = 0;
        while let Some(frame) = assembler.next_frame() {
            black_box(frame);
            frames += 1;
        }
        assert_eq!(frames, FRAMES);
    });
    let response_decode = median_ns(|| {
        black_box(Response::decode(&answer).expect("own encoding decodes"));
    });
    vec![
        metric("wire.encode_ns_per_update", "ns", encode / FRAMES as f64),
        metric("wire.decode_ns_per_update", "ns", decode / FRAMES as f64),
        metric("wire.assemble_ns_per_frame", "ns", assemble / FRAMES as f64),
        metric(
            "wire.response_decode_ns_per_row",
            "ns",
            response_decode / FRAMES as f64,
        ),
        metric(
            "wire.bytes_per_update",
            "count",
            (stream.len() / FRAMES) as f64,
        ),
    ]
}

// ---------------------------------------------------------------------------------
// kpg_sync
// ---------------------------------------------------------------------------------

/// `ring` on one thread to `wait` returning on another, measured as half a ping-pong
/// round between two doorbells.
pub fn sync() -> Res<Vec<Metric>> {
    const ROUNDS: u64 = 20_000;
    let ping = Arc::new(Doorbell::new());
    let pong = Arc::new(Doorbell::new());
    let echo = {
        let (ping, pong) = (Arc::clone(&ping), Arc::clone(&pong));
        kpg_sync::thread::spawn(move || {
            for round in 0..ROUNDS {
                ping.wait(round);
                pong.ring();
            }
        })
    };
    let mut samples = Samples::with_capacity(ROUNDS as usize);
    for round in 0..ROUNDS {
        let start = Instant::now();
        ping.ring();
        pong.wait(round);
        samples.record(start.elapsed());
    }
    echo.join()
        .map_err(|_| "the doorbell echo thread panicked".to_string())?;
    Ok(vec![metric(
        "sync.doorbell_handoff_ns",
        "ns",
        samples.quantile_ns(0.5) / 2.0,
    )])
}

// ---------------------------------------------------------------------------------
// kpg_server
// ---------------------------------------------------------------------------------

/// A response route that queues deliveries and rings a doorbell, standing in for the
/// reactor's queue-and-waker route.
struct InboxRoute {
    inbox: kpg_sync::Mutex<Vec<Response>>,
    delivered: AtomicU64,
    bell: Doorbell,
}

impl ResponseRoute for InboxRoute {
    fn deliver(&self, _client: ClientId, _reply: u64, response: Response) {
        self.inbox.lock().expect("inbox poisoned").push(response);
        self.delivered.fetch_add(1, Ordering::SeqCst);
        self.bell.ring();
    }
}

/// A started in-memory `ServerCore` with one routed client and the toy `edges` input.
pub struct CoreFixture {
    core: Arc<ServerCore>,
    route: Arc<InboxRoute>,
    client: ClientId,
    sent: u64,
    engine: Option<kpg_sync::thread::JoinHandle<()>>,
}

impl CoreFixture {
    pub fn start() -> CoreFixture {
        let core = Arc::new(ServerCore::new(1));
        let engine = core.start();
        let route = Arc::new(InboxRoute {
            inbox: kpg_sync::Mutex::new(Vec::new()),
            delivered: AtomicU64::new(0),
            bell: Doorbell::new(),
        });
        let client = core.register_client_routed(Arc::clone(&route) as Arc<dyn ResponseRoute>);
        CoreFixture {
            core,
            route,
            client,
            sent: 0,
            engine: Some(engine),
        }
    }

    /// Submits `commands` as one batch and returns how long `submit_batch` took.
    pub fn submit(&mut self, commands: &[Command]) -> Duration {
        let first = self.sent;
        self.sent += commands.len() as u64;
        let client = self.client;
        let batch = commands
            .iter()
            .enumerate()
            .map(|(index, command)| (client, first + index as u64, command.clone()));
        let start = Instant::now();
        self.core.submit_batch(batch);
        start.elapsed()
    }

    /// Blocks until every submitted command has been answered and returns the
    /// responses delivered since the last call, in order (deliveries to one client
    /// happen in its request order).
    pub fn await_all(&self) -> Vec<Response> {
        loop {
            let seen = self.route.bell.epoch();
            if self.route.delivered.load(Ordering::SeqCst) >= self.sent {
                break;
            }
            self.route.bell.wait(seen);
        }
        std::mem::take(&mut *self.route.inbox.lock().expect("inbox poisoned"))
    }
}

impl Drop for CoreFixture {
    fn drop(&mut self) {
        self.core.close();
        if let Some(engine) = self.engine.take() {
            let _ = engine.join();
        }
    }
}

pub fn server(seed: u64) -> Vec<Metric> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut fixture = CoreFixture::start();
    fixture.submit(&[gen::create_edges()]);
    fixture.await_all();
    let mut updates = |count: usize| -> Vec<Command> {
        (0..count)
            .map(|_| gen::edge_update((rng.gen_range(0..500), rng.gen_range(0..500)), 1))
            .collect()
    };
    let mut submit_ns = |batch: usize| {
        let mut samples = Samples::with_capacity(1 << 12);
        let begin = Instant::now();
        while begin.elapsed() < BUDGET {
            let commands = updates(batch);
            samples.record(fixture.submit(&commands));
            // Let the worker drain, untimed, so the log never grows.
            fixture.await_all();
        }
        samples.quantile_ns(0.5) / batch as f64
    };
    let single = submit_ns(1);
    let batched = submit_ns(64);
    let mut rtt = Samples::with_capacity(1 << 12);
    let begin = Instant::now();
    while begin.elapsed() < BUDGET {
        let commands = updates(1);
        let start = Instant::now();
        fixture.submit(&commands);
        fixture.await_all();
        rtt.record(start.elapsed());
    }
    vec![
        metric("server.submit_ns_per_cmd_batch1", "ns", single),
        metric("server.submit_ns_per_cmd_batch64", "ns", batched),
        metric("server.core_rtt_us", "us", rtt.quantile_us(0.5)),
    ]
}

// ---------------------------------------------------------------------------------
// kpg_store
// ---------------------------------------------------------------------------------

pub fn store(seed: u64) -> Res<Vec<Metric>> {
    const RECORDS_PER_COMMIT: u64 = 100;
    const SEGMENT_BYTES: u64 = 8 << 20;
    let scratch = Scratch::new("store-probe")?;
    let payload = gen::edge_update((seed as u32 % 20_000, 7), 1).encode();

    // WAL write side: the group commit a durable epoch pays — stage 100 records,
    // write them, fsync.
    let wal_dir = scratch.path().join("wal");
    let (mut wal, _) = Wal::open(&wal_dir, SEGMENT_BYTES).map_err(io_err("open the probe WAL"))?;
    let mut commits = Samples::with_capacity(1 << 10);
    let mut next_seq = 0u64;
    let begin = Instant::now();
    while commits.len() < 3 || begin.elapsed() < BUDGET {
        let mut batch = WalBatch::new();
        for _ in 0..RECORDS_PER_COMMIT {
            batch.put(next_seq, payload.clone());
            next_seq += 1;
        }
        let start = Instant::now();
        wal.commit(&batch).map_err(io_err("WAL commit"))?;
        wal.sync().map_err(io_err("WAL sync"))?;
        commits.record(start.elapsed());
    }
    let wal_elapsed = begin.elapsed().as_secs_f64();
    drop(wal);
    let wal_bytes = file_bytes(&wal_dir);

    // WAL read side: what recovery pays to get the tail back.
    let start = Instant::now();
    let (_, records) =
        Wal::open(&wal_dir, SEGMENT_BYTES).map_err(io_err("reopen the probe WAL"))?;
    let replay_s = start.elapsed().as_secs_f64();
    if records.len() as u64 != next_seq {
        return Err(format!(
            "the probe WAL replayed {} of {next_seq} records",
            records.len()
        ));
    }

    // Sorted-run files: what a checkpoint or a spilled layer is written as.
    const RUN_ENTRIES: u64 = 200_000;
    let run_path = scratch.path().join("probe.run");
    let start = Instant::now();
    let mut writer = RunWriter::create(&run_path, kpg_store::run::DEFAULT_BLOCK_BYTES)
        .map_err(io_err("create the probe run"))?;
    for entry in 0..RUN_ENTRIES {
        let mut bytes = [0u8; 24];
        bytes[..8].copy_from_slice(&entry.to_be_bytes());
        bytes[8..16].copy_from_slice(&(entry ^ seed).to_be_bytes());
        writer.push(&bytes, true).map_err(io_err("run push"))?;
    }
    writer.finish().map_err(io_err("run finish"))?;
    let run_write_s = start.elapsed().as_secs_f64();
    let run_mb = std::fs::metadata(&run_path).map(|m| m.len()).unwrap_or(0) as f64 / 1e6;
    let start = Instant::now();
    let entries = RunReader::open(&run_path)
        .and_then(|mut reader| reader.read_all())
        .map_err(io_err("read the probe run"))?;
    let run_read_s = start.elapsed().as_secs_f64();
    if entries.len() as u64 != RUN_ENTRIES {
        return Err("the probe run read back a different number of entries".to_string());
    }

    Ok(vec![
        metric("store.wal_commit_p50_us", "us", commits.quantile_us(0.5)),
        metric(
            "store.wal_mb_per_s",
            "MB/s",
            wal_bytes as f64 / 1e6 / wal_elapsed,
        ),
        metric(
            "store.wal_replay_records_per_s",
            "1/s",
            next_seq as f64 / replay_s,
        ),
        metric(
            "store.wal_bytes_per_update",
            "count",
            wal_bytes as f64 / next_seq as f64,
        ),
        metric("store.run_write_mb_per_s", "MB/s", run_mb / run_write_s),
        metric("store.run_read_mb_per_s", "MB/s", run_mb / run_read_s),
    ])
}

// ---------------------------------------------------------------------------------
// kpg_trace
// ---------------------------------------------------------------------------------

type ProbeBatch = OrdValBatch<u64, u64, u64, isize>;

fn build_batch(tuples: &[(u64, u64)], time: u64) -> ProbeBatch {
    let mut builder = OrdValBuilder::with_capacity(tuples.len());
    for &(key, val) in tuples {
        builder.push(key, val, time, 1);
    }
    builder.done(
        Antichain::from_elem(time),
        Antichain::from_elem(time + 1),
        Antichain::from_elem(0),
    )
}

pub fn trace(seed: u64) -> Res<Vec<Metric>> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut tuples = |count: usize, keys: u64| -> Vec<(u64, u64)> {
        (0..count)
            .map(|_| (rng.gen_range(0..keys), rng.gen_range(0..keys)))
            .collect()
    };

    // Batch building: sort and consolidate 10k unsorted tuples.
    const BUILD: usize = 10_000;
    let unsorted = tuples(BUILD, 20_000);
    let build = median_ns(|| {
        black_box(build_batch(&unsorted, 0));
    });

    // Spine maintenance: 100 batches of 1k tuples inserted at default merge effort,
    // then merges driven to completion. Batches are built outside the timed part.
    const BATCHES: u64 = 100;
    const PER_BATCH: usize = 1_000;
    let batches: Vec<ProbeBatch> = (0..BATCHES)
        .map(|time| build_batch(&tuples(PER_BATCH, 20_000), time))
        .collect();
    let mut batches_after_load = 0;
    let merge = median_ns(|| {
        let mut spine = Spine::new(MergeEffort::Default);
        for batch in batches.iter().cloned() {
            spine.insert(batch);
        }
        batches_after_load = spine.batch_count();
        black_box(spine.len());
    });

    // Seeks: what a join or an imported reader does against a loaded arrangement.
    const LOADED: usize = 200_000;
    const SEEKS: u64 = 1_000;
    let loaded = build_batch(&tuples(LOADED, 50_000), 0);
    let seek = median_ns(|| {
        let mut cursor = loaded.cursor();
        let mut found = 0u64;
        for key in (0..50_000u64).step_by((50_000 / SEEKS) as usize) {
            cursor.seek_key(&key);
            found += u64::from(cursor.key_valid());
        }
        black_box(found);
    });

    // Spill: one cold layer written to a sorted-run file.
    let scratch = Scratch::new("trace-probe")?;
    let path = scratch.path().join("layer.run");
    let start = Instant::now();
    let stored = spill_batch(&loaded, &path).map_err(io_err("spill the probe layer"))?;
    let spill_s = start.elapsed().as_secs_f64();
    black_box(stored.len());
    let spill_mb = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0) as f64 / 1e6;

    Ok(vec![
        metric("trace.build_ns_per_tuple", "ns", build / BUILD as f64),
        metric(
            "trace.merge_ns_per_tuple",
            "ns",
            merge / (BATCHES as usize * PER_BATCH) as f64,
        ),
        metric("trace.seek_ns_per_key", "ns", seek / SEEKS as f64),
        metric(
            "trace.spine_batches_after_load",
            "count",
            batches_after_load as f64,
        ),
        metric("trace.spill_mb_per_s", "MB/s", spill_mb / spill_s),
    ])
}

// ---------------------------------------------------------------------------------
// kpg_dataflow
// ---------------------------------------------------------------------------------

pub fn dataflow() -> Vec<Metric> {
    let mut metrics = execute(Config::new(1), |worker| {
        let idle_dataflow = |worker: &mut Worker, name: &str| {
            worker.install(name, |builder| {
                let (input, collection) = new_collection::<u64, isize>(builder);
                (input, collection.probe())
            })
        };
        // The cost of stepping past installed dataflows that have nothing to do: one
        // against sixty-four, per extra dataflow.
        const STEPS: usize = 1_000;
        let steps = |worker: &mut Worker| {
            median_ns(|| {
                for _ in 0..STEPS {
                    black_box(worker.step());
                }
            }) / STEPS as f64
        };
        let mut held = vec![idle_dataflow(worker, "idle0")];
        let one = steps(worker);
        for index in 1..64 {
            held.push(idle_dataflow(worker, &format!("idle{index}")));
        }
        let many = steps(worker);
        let per_idle = (many - one).max(0.0) / 63.0;

        // Slot lifecycle: install a small dataflow and drop it again.
        let mut cycle = 0u64;
        let install_drop = median_ns(|| {
            let name = format!("cycle{cycle}");
            cycle += 1;
            black_box(idle_dataflow(worker, &name));
            worker.uninstall(&name);
        });
        drop(held);
        vec![
            metric("dataflow.idle_step_ns_per_dataflow", "ns", per_idle),
            metric("dataflow.install_drop_us", "us", install_drop / 1e3),
        ]
    })
    .remove(0);

    // Exchange between two workers in this process: every record is routed by key
    // hash, so about half cross threads. A count on two cores, not a scaling claim.
    const RECORDS: u64 = 20_000;
    let per_round = execute(Config::new(2), |worker| {
        let (mut input, probe) = worker.dataflow(|builder| {
            let (input, collection) = new_collection::<(u64, u64), isize>(builder);
            (input, collection.arrange_by_key().probe())
        });
        let mut epoch = 0u64;
        let mut rounds = Samples::with_capacity(64);
        for _ in 0..8 {
            let start = Instant::now();
            for record in 0..RECORDS / 2 {
                input.insert((record * 2 + worker.index() as u64, epoch));
            }
            epoch += 1;
            input.advance_to(epoch);
            let target = Time::from_epoch(epoch);
            worker.step_while(|| probe.less_than(&target));
            rounds.record(start.elapsed());
        }
        rounds.quantile_ns(0.5)
    });
    metrics.push(metric(
        "dataflow.exchange_ns_per_record",
        "ns",
        per_round[0].max(per_round[1]) / RECORDS as f64,
    ));
    metrics
}

// ---------------------------------------------------------------------------------
// kpg_core
// ---------------------------------------------------------------------------------

pub fn core(scale: Scale, seed: u64) -> Vec<Metric> {
    let graph = Graph::generate(scale, seed);
    let edges: Vec<(u64, u64)> = graph
        .edges()
        .iter()
        .map(|&(src, dst)| (u64::from(src), u64::from(dst)))
        .collect();
    let nodes = u64::from(scale.nodes);

    let mut metrics = execute(Config::new(1), move |worker| {
        let mut rng = SmallRng::seed_from_u64(seed);
        // The arranged graph (the shared arrangement every query imports) and, in a
        // dataflow of its own, the out-degree count over it that the standing
        // `degrees` query maintains. Separate inputs, so each is timed alone.
        let (mut input, arranged_probe, trace) = worker.dataflow(|builder| {
            let (input, collection) = new_collection::<(u64, u64), isize>(builder);
            let arranged = collection.arrange_by_key();
            (input, arranged.probe(), arranged.trace)
        });
        let (mut counted_input, counted_probe) = worker.dataflow(|builder| {
            let (input, collection) = new_collection::<(u64, u64), isize>(builder);
            (input, collection.map(|(src, _)| src).count().probe())
        });
        for &edge in &edges {
            input.insert(edge);
            counted_input.insert(edge);
        }
        let mut epoch = 1u64;
        input.advance_to(epoch);
        counted_input.advance_to(epoch);
        let settle = |worker: &mut Worker, probe: &ProbeHandle, epoch: u64| {
            let target = Time::from_epoch(epoch);
            worker.step_while(|| probe.less_than(&target));
        };
        settle(worker, &arranged_probe, epoch);
        settle(worker, &counted_probe, epoch);

        // Rounds of 1000 random edges: into the arrangement, then into the count
        // (where 1000 edges touch about 1000 of the keys).
        const ROUND: u64 = 1_000;
        let arrange = median_ns(|| {
            for _ in 0..ROUND {
                input.insert((rng.gen_range(0..nodes), rng.gen_range(0..nodes)));
            }
            epoch += 1;
            input.advance_to(epoch);
            settle(worker, &arranged_probe, epoch);
        });
        let mut reduce_epoch = 1u64;
        let reduce = median_ns(|| {
            for _ in 0..ROUND {
                counted_input.insert((rng.gen_range(0..nodes), rng.gen_range(0..nodes)));
            }
            reduce_epoch += 1;
            counted_input.advance_to(reduce_epoch);
            settle(worker, &counted_probe, reduce_epoch);
        });

        // Import of the live arrangement into a new dataflow, and a join of 1000
        // keys against it: what an arriving query pays to attach, and per match.
        let catalog = Catalog::new();
        catalog.publish_trace("edges", &trace);
        let mut query = 0u64;
        let import = median_ns(|| {
            let name = format!("import{query}");
            query += 1;
            worker
                .install_query(&name, &catalog, |builder, catalog| {
                    catalog
                        .import::<ValBatch<u64, u64>>("edges", builder)
                        .expect("the published arrangement imports")
                        .probe()
                })
                .expect("a fresh query name");
            worker.uninstall_query(&name, &catalog);
        });
        let (mut keys_in, join_probe, matched) = worker.dataflow(|builder| {
            let imported = trace.import(builder);
            let (keys_in, keys) = new_collection::<u64, isize>(builder);
            let joined = keys
                .map(|key| (key, ()))
                .arrange_by_key()
                .join_core(&imported, |key, (), dst| (*key, *dst));
            (keys_in, joined.probe(), joined.capture())
        });
        keys_in.advance_to(epoch);
        let mut join_rounds = Samples::with_capacity(64);
        let begin = Instant::now();
        let mut matches = 0usize;
        while join_rounds.len() < 3 || begin.elapsed() < BUDGET {
            let start = Instant::now();
            for _ in 0..ROUND {
                keys_in.insert(rng.gen_range(0..nodes));
            }
            epoch += 1;
            input.advance_to(epoch);
            keys_in.advance_to(epoch);
            let target = Time::from_epoch(epoch);
            worker.step_while(|| join_probe.less_than(&target));
            join_rounds.record(start.elapsed());
            matches = matched.borrow().len().max(1);
        }
        let join_ns = join_rounds.quantile_ns(0.5) * join_rounds.len() as f64 / matches as f64;
        vec![
            metric("core.arrange_ns_per_update", "ns", arrange / ROUND as f64),
            metric(
                "core.reduce_incremental_ns_per_key",
                "ns",
                reduce / ROUND as f64,
            ),
            metric("core.import_us", "us", import / 1e3),
            metric("core.join_ns_per_match", "ns", join_ns),
        ]
    })
    .remove(0);

    // Bulk reduce at two key counts: a count over every key of a freshly loaded
    // graph, as installing `degrees` does. Their ratio exposes growth in keys (a
    // linear reduce doubles; the seed's quadruples).
    for (name, keys) in [
        ("core.reduce_bulk_ms_10k_keys", 10_000u64),
        ("core.reduce_bulk_ms_20k_keys", 20_000u64),
    ] {
        let elapsed = execute(Config::new(1), move |worker| {
            let mut rng = SmallRng::seed_from_u64(seed);
            let (mut input, probe) = worker.dataflow(|builder| {
                let (input, collection) = new_collection::<(u64, u64), isize>(builder);
                (input, collection.map(|(src, _)| src).count().probe())
            });
            let start = Instant::now();
            for _ in 0..keys * 4 {
                input.insert((rng.gen_range(0..keys), rng.gen_range(0..keys)));
            }
            input.advance_to(1);
            let target = Time::from_epoch(1);
            worker.step_while(|| probe.less_than(&target));
            start.elapsed()
        })
        .remove(0);
        metrics.push(metric(name, "ms", elapsed.as_secs_f64() * 1e3));
    }
    metrics
}

// ---------------------------------------------------------------------------------
// kpg_plan
// ---------------------------------------------------------------------------------

/// Runs a command the probe knows to be valid.
fn run(manager: &mut Manager, worker: &mut Worker, command: Command) -> kpg_plan::Response {
    manager
        .execute(worker, command)
        .expect("the probe's commands are valid")
}

/// Loads the graph into a fresh manager and settles it.
fn load(manager: &mut Manager, worker: &mut Worker, graph: &Graph) {
    run(manager, worker, gen::create_edges());
    for &edge in graph.edges() {
        run(manager, worker, gen::edge_update(edge, 1));
    }
    run(manager, worker, gen::advance(1));
    manager.settle(worker);
}

/// Cold install: the first query that needs `edges` keyed by destination builds that
/// arrangement from the whole graph; nothing is shared yet. Install to first answer,
/// in milliseconds, on a fresh worker and manager.
fn plan_cold_install_ms(scale: Scale, seed: u64) -> f64 {
    execute(Config::new(1), move |worker| {
        let graph = Graph::generate(scale, seed);
        let mut manager = Manager::new();
        load(&mut manager, worker, &graph);
        let start = Instant::now();
        run(
            &mut manager,
            worker,
            Command::Install {
                name: "cold".into(),
                plan: Plan::source("cold_args").join(Plan::source(gen::EDGES), vec![(0, 1)]),
                locals: vec!["cold_args".into()],
            },
        );
        run(
            &mut manager,
            worker,
            gen::add_root("cold", graph.edges()[0].1),
        );
        run(&mut manager, worker, gen::advance(2));
        manager.settle(worker);
        black_box(run(&mut manager, worker, gen::query("cold")));
        start.elapsed().as_secs_f64() * 1e3
    })
    .remove(0)
}

pub fn plan(scale: Scale, seed: u64) -> Vec<Metric> {
    let mut cold = [
        plan_cold_install_ms(scale, seed),
        plan_cold_install_ms(scale, seed),
        plan_cold_install_ms(scale, seed),
    ];
    let cold_ms = crate::stats::median(&mut cold);
    execute(Config::new(1), move |worker| {
        let mut graph = Graph::generate(scale, seed);
        let mut rng = gen::update_rng(seed);

        // The graph and the standing set, as the wire workloads install them.
        let mut manager = Manager::new();
        let roots = gen::draw_roots(&graph, &mut rng);
        for command in gen::setup_commands(&graph, &roots) {
            run(&mut manager, worker, command);
        }
        manager.settle(worker);
        let mut epoch = gen::SETUP_EPOCH;

        // One epoch: 100 updates applied, then time advanced and everything settled.
        let mut update = Samples::with_capacity(1 << 12);
        let mut settle = Samples::with_capacity(1 << 8);
        let begin = Instant::now();
        while begin.elapsed() < BUDGET {
            let commands = gen::epoch_updates(&mut graph, &mut rng, gen::UPDATES_PER_EPOCH);
            let start = Instant::now();
            for command in commands {
                run(&mut manager, worker, command);
            }
            update.record(start.elapsed());
            epoch += 1;
            let start = Instant::now();
            run(&mut manager, worker, gen::advance(epoch));
            manager.settle(worker);
            settle.record(start.elapsed());
        }
        let mut rows = 1usize;
        let query = median_ns(|| {
            if let kpg_plan::Response::Rows(answer) =
                run(&mut manager, worker, gen::query(&gen::standing_hop(0)))
            {
                rows = answer.len().max(1);
            }
        });

        // Warm install: the arriving 2-hop query imports the shared `edges`.
        let mut install = Samples::with_capacity(1 << 10);
        let mut answer = Samples::with_capacity(1 << 10);
        let mut uninstall = Samples::with_capacity(1 << 10);
        let mut four_path = Samples::with_capacity(1 << 6);
        let mut cycle = 0u64;
        let begin = Instant::now();
        while begin.elapsed() < 2 * BUDGET {
            let name = format!("q{cycle}");
            let src = graph.random_root(&mut rng);
            let is_four_path = cycle % 10 == 9;
            cycle += 1;
            let start = Instant::now();
            if is_four_path {
                let pair = (src, graph.random_walk(src, 3, &mut rng));
                run(&mut manager, worker, gen::install_four_path(&name));
                run(&mut manager, worker, gen::add_pair(&name, pair));
            } else {
                run(&mut manager, worker, gen::install_two_hop(&name));
                install.record(start.elapsed());
                run(&mut manager, worker, gen::add_root(&name, src));
            }
            epoch += 1;
            run(&mut manager, worker, gen::advance(epoch));
            manager.settle(worker);
            black_box(run(&mut manager, worker, gen::query(&name)));
            if is_four_path {
                four_path.record(start.elapsed());
            } else {
                answer.record(start.elapsed());
            }
            let start = Instant::now();
            run(&mut manager, worker, gen::uninstall(&name));
            if !is_four_path {
                uninstall.record(start.elapsed());
            }
        }
        vec![
            metric(
                "plan.update_ns",
                "ns",
                update.quantile_ns(0.5) / gen::UPDATES_PER_EPOCH as f64,
            ),
            metric("plan.settle_ms_per_epoch", "ms", settle.quantile_ms(0.5)),
            metric("plan.query_us_per_row", "us", query / 1e3 / rows as f64),
            metric("plan.install_warm_us", "us", install.quantile_us(0.5)),
            metric(
                "plan.install_to_answer_warm_us",
                "us",
                answer.quantile_us(0.5),
            ),
            metric("plan.install_cold_ms", "ms", cold_ms),
            metric("plan.uninstall_us", "us", uninstall.quantile_us(0.5)),
            metric(
                "plan.four_path_install_to_answer_ms",
                "ms",
                four_path.quantile_ms(0.5),
            ),
        ]
    })
    .remove(0)
}
