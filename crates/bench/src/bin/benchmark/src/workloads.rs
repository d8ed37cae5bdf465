//! The four wire-level workloads. Each spawns the real `kpg_server` as a child
//! process, drives it over one TCP connection from at most two threads, and checks
//! answers against the generator-side reference in [`crate::gen`].
//!
//! Why each exists, and which layers it loads, is in the README beside this package
//! and in `BENCHMARK.json`.

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use kpg_plan::Command;
use kpg_sync::atomic::{AtomicU64, Ordering};
use kpg_sync::{mpsc, Arc};
use kpg_timestamp::rng::SmallRng;
use kpg_wire::Response;

use crate::gen::{self, Graph, Scale, ToyGraph};
use crate::harness::{describe, Conn, ConnReader, Res, Scratch, ServerChild, MAX_UNANSWERED};
use crate::spans::{SpanId, Tracer};
use crate::stats::Samples;

/// What every workload needs to know about the run.
#[derive(Clone)]
pub struct Env {
    pub server_exe: PathBuf,
    pub seed: u64,
    pub scale: Scale,
}

/// Counts of operations sent and operations whose response was wrong. An operation
/// is one frame: its response must be `Ok`, or a `QueryResults` equal to the
/// reference where it is checked.
#[derive(Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    fn expect_ok(&mut self, response: &Response) {
        self.attempted += 1;
        if *response != Response::Ok {
            self.failed += 1;
            eprintln!("operation failed: expected Ok, got {}", describe(response));
        }
    }

    fn check(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            eprintln!("operation failed: {why}");
        }
    }
}

/// What the open-loop part of a measured phase observed (zeros where a workload has
/// no open-loop part).
#[derive(Default, Clone, Copy)]
pub struct OpenLoop {
    /// Median due-time-to-answer latency at the lower fixed rate.
    pub low_rate_latency_p50_ms: f64,
    /// How late the generator sent, p99, over both rates.
    pub generator_late_p99_us: f64,
    /// Epochs sent but unanswered when the higher-rate step's time was up.
    pub backlog_at_end: f64,
}

/// One measured pass over a live session.
pub struct Phase {
    /// The workload's user-visible delay, one sample per operation that has one.
    pub latency: Samples,
    /// Saturation rate of the workload's unit of work (updates, or cycles).
    pub throughput_per_s: f64,
    /// Units of work done over the whole pass, and the CPU seconds the child used
    /// over the same interval: CPU per op is their ratio.
    pub ops: u64,
    pub cpu_s: f64,
    pub tally: Tally,
    pub open_loop: OpenLoop,
}

impl Phase {
    /// Pools another pass over the same session into this one. Throughput is the
    /// mean of the two (the passes are equally long); the open-loop observations
    /// stay those of the first pass.
    pub fn pool(&mut self, other: Phase) {
        self.latency.extend(&other.latency);
        self.throughput_per_s = (self.throughput_per_s + other.throughput_per_s) / 2.0;
        self.ops += other.ops;
        self.cpu_s += other.cpu_s;
        self.tally.absorb(other.tally);
    }
}

/// A workload session: a child server set up and ready to be measured.
pub trait Workload: Sized {
    const NAME: &'static str;

    /// Child spawn -> data loaded -> standing queries installed -> first settled
    /// answer verified. Timed by the caller as `setup_s`.
    fn setup(env: &Env) -> Res<Self>;

    /// Measures for `seconds`. May be called more than once on one session.
    fn measure(&mut self, seconds: f64, tracer: &mut Tracer) -> Res<Phase>;

    /// The final answer of the run, checked against the reference.
    fn finish(&mut self) -> Res<Tally>;

    fn server(&self) -> &ServerChild;

    /// The largest peak resident set of any child this session has run, in MB.
    fn peak_rss_mb(&self) -> Res<f64> {
        self.server().peak_rss_mb()
    }

    /// Operations of the set-up itself.
    fn setup_tally(&self) -> Tally;

    /// What only this workload can observe about a layer (zeros elsewhere).
    fn observed(&mut self) -> Observed {
        Observed::default()
    }
}

/// Per-layer observations that come from a workload's own run rather than from an
/// in-process probe. Every traced run reports all of them; a workload that cannot
/// observe one reports 0.
#[derive(Default, Clone, Copy)]
pub struct Observed {
    /// `durable_restart`: child spawn to verified answer on an empty durable directory.
    pub durable_load_s: f64,
    /// `durable_restart`: `kill -9` to verified answer on the directory that left.
    pub recovery_to_answer_s: f64,
    /// `durable_restart`: checkpoints the server completed in the durable directory.
    pub checkpoints_completed: f64,
    /// `query_churn`: install-to-answer of the 4-path cycles, median.
    pub four_path_install_to_answer_ms: f64,
}

fn seconds_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

// ---------------------------------------------------------------------------------
// point_rtt
// ---------------------------------------------------------------------------------

/// Phase B keeps between half this many and this many updates unanswered.
const PIPELINE_WINDOW: usize = 64;
/// Share of the measured time spent in the strict phase A.
const STRICT_SHARE: f64 = 0.6;

/// What the next unanswered frame must be answered with.
enum Expected {
    Ok,
    /// A `degrees` answer equal to these reference rows.
    Degrees(Vec<Vec<i64>>),
}

pub struct PointRtt {
    server: ServerChild,
    conn: Conn,
    toy: ToyGraph,
    epoch: u64,
    /// One entry per unanswered frame, in the order sent.
    unanswered: VecDeque<Expected>,
    setup_tally: Tally,
}

impl PointRtt {
    fn stage_expecting_ok(&mut self, command: &Command) {
        self.conn.stage(command);
        self.unanswered.push_back(Expected::Ok);
    }

    fn stage_update(&mut self) {
        let command = self.toy.next_update();
        self.stage_expecting_ok(&command);
    }

    /// Stages `AdvanceTime` and `Query("degrees")`, with the reference answer.
    fn stage_barrier(&mut self) {
        self.epoch += 1;
        self.stage_expecting_ok(&gen::advance(self.epoch));
        self.conn.stage(&gen::query(gen::DEGREES));
        self.unanswered
            .push_back(Expected::Degrees(self.toy.degrees()));
    }

    fn barrier_due(&self) -> bool {
        self.toy.updates().is_multiple_of(gen::TOY_BARRIER_EVERY)
    }

    /// Reads the response to the oldest unanswered frame and checks it.
    fn read_one(
        &mut self,
        tracer: &mut Tracer,
        root: SpanId,
        op: u64,
        tally: &mut Tally,
    ) -> Res<()> {
        let response = self.conn.recv_traced(tracer, root, op)?;
        match self.unanswered.pop_front() {
            Some(Expected::Ok) => tally.expect_ok(&response),
            Some(Expected::Degrees(reference)) => {
                tally.check(gen::check_answer(&response, &reference));
            }
            None => return Err("a response arrived that no request is waiting for".to_string()),
        }
        Ok(())
    }

    fn read_all(&mut self, tally: &mut Tally) -> Res<()> {
        while !self.unanswered.is_empty() {
            self.read_one(&mut Tracer::off(), SpanId::NONE, 0, tally)?;
        }
        Ok(())
    }
}

impl Workload for PointRtt {
    const NAME: &'static str = "point_rtt";

    fn setup(env: &Env) -> Res<PointRtt> {
        let server = ServerChild::spawn(&env.server_exe, None)?;
        let conn = Conn::connect(server.addr())?;
        let mut session = PointRtt {
            server,
            conn,
            toy: ToyGraph::new(env.seed),
            epoch: 0,
            unanswered: VecDeque::new(),
            setup_tally: Tally::default(),
        };
        let mut tally = Tally::default();
        for chunk in session.toy.load().chunks(MAX_UNANSWERED / 2) {
            for command in chunk {
                session.stage_expecting_ok(command);
            }
            session.conn.flush()?;
            session.read_all(&mut tally)?;
        }
        session.stage_barrier();
        session.conn.flush()?;
        session.read_all(&mut tally)?;
        session.setup_tally = tally;
        Ok(session)
    }

    fn measure(&mut self, seconds: f64, tracer: &mut Tracer) -> Res<Phase> {
        let mut tally = Tally::default();
        let mut latency = Samples::with_capacity(1 << 18);
        let cpu_before = self.server.cpu_seconds()?;
        let begin = Instant::now();
        let first_update = self.toy.updates();

        // Phase A, closed loop: one caller, one request in flight, waiting for each
        // acknowledgement before sending the next.
        let strict_for = Duration::from_secs_f64(seconds * STRICT_SHARE);
        while begin.elapsed() < strict_for {
            let op = self.toy.updates();
            let sent = Instant::now();
            let root = tracer.begin("op", SpanId::NONE, op);
            let span = tracer.begin("gen.encode", root, op);
            self.stage_update();
            tracer.end(span);
            let span = tracer.begin("gen.write", root, op);
            self.conn.flush()?;
            tracer.end(span);
            self.read_one(tracer, root, op, &mut tally)?;
            tracer.end(root);
            latency.record(sent.elapsed());
            if self.barrier_due() {
                self.stage_barrier();
                self.conn.flush()?;
                self.read_all(&mut tally)?;
            }
        }
        let strict_updates = self.toy.updates() - first_update;

        // Phase B, closed loop with a window: the same connection keeps up to
        // PIPELINE_WINDOW updates unanswered, sending half a window per write. Its
        // time runs until the last barrier is answered, so work the server has
        // queued but not done is not counted as throughput.
        let pipelined_for = Duration::from_secs_f64(seconds * (1.0 - STRICT_SHARE));
        let pipelined_begin = Instant::now();
        loop {
            let running = pipelined_begin.elapsed() < pipelined_for;
            let op = self.toy.updates();
            let root = tracer.begin("op", SpanId::NONE, op);
            let span = tracer.begin("gen.encode", root, op);
            if running {
                for _ in 0..PIPELINE_WINDOW / 2 {
                    self.stage_update();
                    if self.barrier_due() {
                        self.stage_barrier();
                    }
                }
            } else {
                self.stage_barrier();
            }
            tracer.end(span);
            let span = tracer.begin("gen.write", root, op);
            self.conn.flush()?;
            tracer.end(span);
            let keep = if running { PIPELINE_WINDOW / 2 } else { 0 };
            // One span for the batch's reads, decode included: per-frame spans would
            // be most of the trace.
            let span = tracer.begin("gen.await_response", root, op);
            while self.unanswered.len() > keep {
                self.read_one(&mut Tracer::off(), SpanId::NONE, op, &mut tally)?;
            }
            tracer.end(span);
            tracer.end(root);
            if !running {
                break;
            }
        }
        let pipelined_updates = self.toy.updates() - first_update - strict_updates;
        let throughput_per_s = pipelined_updates as f64 / seconds_since(pipelined_begin);

        Ok(Phase {
            latency,
            throughput_per_s,
            ops: strict_updates + pipelined_updates,
            cpu_s: self.server.cpu_seconds()? - cpu_before,
            tally,
            open_loop: OpenLoop::default(),
        })
    }

    fn finish(&mut self) -> Res<Tally> {
        let mut tally = Tally::default();
        self.stage_barrier();
        self.conn.flush()?;
        self.read_all(&mut tally)?;
        Ok(tally)
    }

    fn server(&self) -> &ServerChild {
        &self.server
    }

    fn setup_tally(&self) -> Tally {
        self.setup_tally
    }
}

// ---------------------------------------------------------------------------------
// The graph session shared by epoch_stream, query_churn and durable_restart
// ---------------------------------------------------------------------------------

/// The standing query the epoch workloads read after every epoch.
const WATCHED: &str = "hop0";
/// Every this-many-th epoch answer is compared with the reference.
const CHECK_EVERY: u64 = 10;

/// A child server holding the evolving graph and the standing set `S` (`degrees` and
/// [`gen::STANDING_HOPS`] 2-hop queries), one connection, and the reference.
struct GraphSession {
    server: ServerChild,
    conn: Conn,
    graph: Graph,
    rng: SmallRng,
    /// The one generator-side epoch counter: the server rejects a lower `AdvanceTime`.
    epoch: u64,
    /// Roots of the standing 2-hop queries.
    roots: Vec<Vec<u32>>,
    /// Epochs sent so far: the id the next epoch's spans carry, and every
    /// [`CHECK_EVERY`]th one has its answer compared with the reference.
    epochs_sent: u64,
    setup_tally: Tally,
}

impl GraphSession {
    fn setup(env: &Env, durable_dir: Option<&Path>) -> Res<GraphSession> {
        let server = ServerChild::spawn(&env.server_exe, durable_dir)?;
        let conn = Conn::connect(server.addr())?;
        let graph = Graph::generate(env.scale, env.seed);
        let mut rng = gen::update_rng(env.seed);
        let roots = gen::draw_roots(&graph, &mut rng);
        let mut session = GraphSession {
            server,
            conn,
            graph,
            rng,
            epoch: gen::SETUP_EPOCH,
            roots,
            epochs_sent: 0,
            setup_tally: Tally::default(),
        };
        // `S` is installed from this connection, which stays open: a disconnect
        // uninstalls its queries. `degrees` is never queried over the wire: at these
        // sizes its answer is too close to the 1 MiB frame limit.
        let commands = gen::setup_commands(&session.graph, &session.roots);
        session.setup_tally.attempted += session.conn.run_all_ok(commands)? as u64;
        let checked = session.check_standing_hops()?;
        session.setup_tally.absorb(checked);
        Ok(session)
    }

    /// Queries every standing 2-hop query and compares each answer with the reference.
    fn check_standing_hops(&mut self) -> Res<Tally> {
        let mut tally = Tally::default();
        for index in 0..self.roots.len() {
            let response = self.conn.call(&gen::query(&gen::standing_hop(index)))?;
            tally.check(gen::check_two_hop(
                &response,
                &self.graph.two_hop(&self.roots[index]),
            ));
        }
        Ok(tally)
    }

    /// Stages one epoch: the updates, `AdvanceTime`, and a `Query` of the watched
    /// standing query. Returns the reference answer when this epoch is a checked one.
    fn stage_epoch(&mut self) -> Option<Vec<(u32, u32)>> {
        for command in gen::epoch_updates(&mut self.graph, &mut self.rng, gen::UPDATES_PER_EPOCH) {
            self.conn.stage(&command);
        }
        self.epoch += 1;
        self.conn.stage(&gen::advance(self.epoch));
        self.conn.stage(&gen::query(WATCHED));
        self.epochs_sent += 1;
        self.epochs_sent
            .is_multiple_of(CHECK_EVERY)
            .then(|| self.graph.two_hop(&self.roots[0]))
    }

    /// Closed loop, one epoch in flight: send an epoch, wait for its answer, repeat.
    /// Returns the epoch latencies and the updates acknowledged per second.
    fn closed_loop_epochs(
        &mut self,
        seconds: f64,
        tracer: &mut Tracer,
        tally: &mut Tally,
    ) -> Res<(Samples, u64, f64)> {
        let mut latency = Samples::with_capacity(1 << 14);
        let begin = Instant::now();
        let run_for = Duration::from_secs_f64(seconds);
        let mut epochs = 0u64;
        while begin.elapsed() < run_for {
            let op = self.epochs_sent;
            let sent = Instant::now();
            let root = tracer.begin("op", SpanId::NONE, op);
            let span = tracer.begin("gen.encode", root, op);
            let expected = self.stage_epoch();
            tracer.end(span);
            let span = tracer.begin("gen.write", root, op);
            self.conn.flush()?;
            tracer.end(span);
            read_epoch_answer(&mut self.conn, tracer, root, op, expected.as_deref(), tally)?;
            tracer.end(root);
            latency.record(sent.elapsed());
            epochs += 1;
        }
        let updates = epochs * gen::UPDATES_PER_EPOCH as u64;
        let per_s = updates as f64 / seconds_since(begin);
        Ok((latency, updates, per_s))
    }
}

/// Reads `count` acknowledgements under one `gen.await_response` span (their decode
/// included): a span pair per frame would be most of the trace and tell nothing more.
fn read_acks(
    reader: &mut ConnReader,
    count: usize,
    tracer: &mut Tracer,
    root: SpanId,
    op: u64,
    tally: &mut Tally,
) -> Res<()> {
    let span = tracer.begin("gen.await_response", root, op);
    for _ in 0..count {
        let response = reader.recv()?;
        tally.expect_ok(&response);
    }
    tracer.end(span);
    Ok(())
}

/// Frames per epoch: the updates, one `AdvanceTime`, one `Query`.
const FRAMES_PER_EPOCH: usize = gen::UPDATES_PER_EPOCH + 2;

/// Reads one epoch's responses from a connection: `Ok` for each update and the
/// advance, then the watched query's answer.
fn read_epoch_answer(
    conn: &mut Conn,
    tracer: &mut Tracer,
    root: SpanId,
    op: u64,
    expected: Option<&[(u32, u32)]>,
    tally: &mut Tally,
) -> Res<()> {
    read_acks(conn.reader(), FRAMES_PER_EPOCH - 1, tracer, root, op, tally)?;
    let response = conn.recv_traced(tracer, root, op)?;
    check_epoch_answer(&response, expected, tally);
    Ok(())
}

fn check_epoch_answer(response: &Response, expected: Option<&[(u32, u32)]>, tally: &mut Tally) {
    match expected {
        Some(expected) => tally.check(gen::check_two_hop(response, expected)),
        None => tally.check(match response {
            Response::QueryResults { .. } => Ok(()),
            other => Err(format!("expected QueryResults, got {}", describe(other))),
        }),
    }
}

// ---------------------------------------------------------------------------------
// epoch_stream
// ---------------------------------------------------------------------------------

/// The two fixed arrival rates of the open-loop steps, in epochs per second
/// (x [`gen::UPDATES_PER_EPOCH`] updates), and the shares of the measured time.
const LOW_RATE: f64 = 150.0;
const HIGH_RATE: f64 = 250.0;
const LOW_SHARE: f64 = 0.15;
const HIGH_SHARE: f64 = 0.5;
/// Epochs in flight at most in an open-loop step (keeps unanswered frames under
/// [`MAX_UNANSWERED`]); an epoch that has to wait for room is sent late, and its
/// latency still counts from when it was due.
const MAX_EPOCHS_IN_FLIGHT: u64 = (MAX_UNANSWERED / FRAMES_PER_EPOCH) as u64;

pub struct EpochStream {
    session: GraphSession,
}

/// What the writer tells the reader thread about an epoch it has sent.
struct SentEpoch {
    op: u64,
    due: Instant,
    expected: Option<Vec<(u32, u32)>>,
}

struct OpenStep {
    latency: Samples,
    late: Samples,
    backlog_at_end: u64,
    updates: u64,
}

impl EpochStream {
    /// One open-loop step: epochs are due on a fixed schedule whatever the server
    /// does. The writer (this thread) sends each epoch when it is due; a reader
    /// thread takes the answers and times each from its *due* time, so a stall
    /// charges every epoch queued behind it.
    fn open_loop_step(
        &mut self,
        rate: f64,
        seconds: f64,
        tracer: &mut Tracer,
        tally: &mut Tally,
    ) -> Res<OpenStep> {
        let session = &mut self.session;
        let epochs = (rate * seconds).floor().max(1.0) as u64;
        let answered = Arc::new(AtomicU64::new(0));
        let (sender, receiver) = mpsc::channel::<SentEpoch>();
        let reader = session.conn.take_reader()?;
        let reader_tracer = Tracer::new(tracer.is_on(), tracer.origin());
        let reader_thread = {
            let answered = Arc::clone(&answered);
            kpg_sync::thread::spawn(move || {
                read_open_loop(reader, &receiver, reader_tracer, &answered)
            })
        };

        let begin = Instant::now();
        let mut late = Samples::with_capacity(epochs as usize);
        let mut backlog_at_end = 0;
        let mut writer_result = Ok(());
        for index in 0..epochs {
            let op = session.epochs_sent;
            let due = begin + Duration::from_secs_f64(index as f64 / rate);
            let span = tracer.begin("gen.wait_due", SpanId::NONE, op);
            loop {
                let now = Instant::now();
                let room = index - answered.load(Ordering::Acquire) < MAX_EPOCHS_IN_FLIGHT;
                if now >= due && room {
                    break;
                }
                if reader_thread.is_finished() {
                    break;
                }
                let nap = if now < due {
                    due - now
                } else {
                    Duration::from_micros(100)
                };
                kpg_sync::thread::sleep(nap);
            }
            tracer.end(span);
            if reader_thread.is_finished() {
                break;
            }
            late.record(Instant::now().saturating_duration_since(due));
            let span = tracer.begin("gen.encode", SpanId::NONE, op);
            let expected = session.stage_epoch();
            tracer.end(span);
            let span = tracer.begin("gen.write", SpanId::NONE, op);
            writer_result = session.conn.flush();
            tracer.end(span);
            if writer_result.is_err() || sender.send(SentEpoch { op, due, expected }).is_err() {
                break;
            }
            if index + 1 == epochs {
                // The step's time is up one interval after the last epoch was due.
                let end = due + Duration::from_secs_f64(1.0 / rate);
                kpg_sync::thread::sleep(end.saturating_duration_since(Instant::now()));
                backlog_at_end = index + 1 - answered.load(Ordering::Acquire);
            }
        }
        drop(sender);
        let (reader, latency, reader_tally, reader_tracer) = reader_thread
            .join()
            .map_err(|_| "the open-loop reader thread panicked".to_string())??;
        writer_result?;
        session.conn.put_reader(reader);
        tracer.absorb(reader_tracer);
        tally.absorb(reader_tally);
        Ok(OpenStep {
            latency,
            late,
            backlog_at_end,
            updates: epochs * gen::UPDATES_PER_EPOCH as u64,
        })
    }
}

type ReaderOutcome = Res<(ConnReader, Samples, Tally, Tracer)>;

/// The reader thread of an open-loop step. The release store on `answered` pairs
/// with the writer's acquire load: the writer only needs the count.
fn read_open_loop(
    mut reader: ConnReader,
    sent: &mpsc::Receiver<SentEpoch>,
    mut tracer: Tracer,
    answered: &AtomicU64,
) -> ReaderOutcome {
    let mut latency = Samples::with_capacity(1 << 12);
    let mut tally = Tally::default();
    for epoch in sent.iter() {
        let root = tracer.begin_at("op", SpanId::NONE, epoch.op, epoch.due);
        let acks = FRAMES_PER_EPOCH - 1;
        read_acks(&mut reader, acks, &mut tracer, root, epoch.op, &mut tally)?;
        let response = reader.recv_traced(&mut tracer, root, epoch.op)?;
        tracer.end(root);
        latency.record(Instant::now().saturating_duration_since(epoch.due));
        answered.fetch_add(1, Ordering::Release);
        check_epoch_answer(&response, epoch.expected.as_deref(), &mut tally);
    }
    Ok((reader, latency, tally, tracer))
}

impl Workload for EpochStream {
    const NAME: &'static str = "epoch_stream";

    fn setup(env: &Env) -> Res<EpochStream> {
        Ok(EpochStream {
            session: GraphSession::setup(env, None)?,
        })
    }

    fn measure(&mut self, seconds: f64, tracer: &mut Tracer) -> Res<Phase> {
        let mut tally = Tally::default();
        let cpu_before = self.session.server.cpu_seconds()?;
        let mut low = self.open_loop_step(LOW_RATE, seconds * LOW_SHARE, tracer, &mut tally)?;
        let high = self.open_loop_step(HIGH_RATE, seconds * HIGH_SHARE, tracer, &mut tally)?;
        let closed_for = seconds * (1.0 - LOW_SHARE - HIGH_SHARE);
        let (_, closed_updates, throughput_per_s) = self
            .session
            .closed_loop_epochs(closed_for, tracer, &mut tally)?;
        let mut late = low.late.clone();
        late.extend(&high.late);
        Ok(Phase {
            latency: high.latency,
            throughput_per_s,
            ops: low.updates + high.updates + closed_updates,
            cpu_s: self.session.server.cpu_seconds()? - cpu_before,
            tally,
            open_loop: OpenLoop {
                low_rate_latency_p50_ms: low.latency.quantile_ms(0.5),
                generator_late_p99_us: late.quantile_us(0.99),
                backlog_at_end: high.backlog_at_end as f64,
            },
        })
    }

    fn finish(&mut self) -> Res<Tally> {
        self.session.check_standing_hops()
    }

    fn server(&self) -> &ServerChild {
        &self.session.server
    }

    fn setup_tally(&self) -> Tally {
        self.session.setup_tally
    }
}

// ---------------------------------------------------------------------------------
// query_churn
// ---------------------------------------------------------------------------------

/// Background edge updates pipelined in front of every install.
const BACKGROUND_UPDATES: usize = 20;
/// Every this-many-th cycle installs `four_path_plan` instead of `two_hop_plan`; its
/// timing is kept apart from the 2-hop latency sample.
const FOUR_PATH_EVERY: u64 = 10;

pub struct QueryChurn {
    session: GraphSession,
    cycles: u64,
    /// Install-to-answer of the 4-path cycles, reported per layer, not gated.
    four_path: Samples,
}

impl Workload for QueryChurn {
    const NAME: &'static str = "query_churn";

    fn setup(env: &Env) -> Res<QueryChurn> {
        Ok(QueryChurn {
            session: GraphSession::setup(env, None)?,
            cycles: 0,
            four_path: Samples::default(),
        })
    }

    /// Closed loop on one connection. Each cycle pipelines: background updates to the
    /// shared `edges`, `Install` of a fresh query with a query-local argument input,
    /// one argument `Update`, `AdvanceTime`, `Query`, `Uninstall`. Timed from the
    /// write that carries the `Install` to the `QueryResults` (the `Install`
    /// acknowledgement returns before any state is built, so it is not the answer).
    fn measure(&mut self, seconds: f64, tracer: &mut Tracer) -> Res<Phase> {
        let session = &mut self.session;
        let mut tally = Tally::default();
        let mut latency = Samples::with_capacity(1 << 16);
        let cpu_before = session.server.cpu_seconds()?;
        let begin = Instant::now();
        let run_for = Duration::from_secs_f64(seconds);
        let mut cycles = 0u64;
        while begin.elapsed() < run_for {
            let op = self.cycles;
            let name = format!("q{op}");
            let four_path = op % FOUR_PATH_EVERY == FOUR_PATH_EVERY - 1;
            let sent = Instant::now();
            let root = tracer.begin("op", SpanId::NONE, op);
            let span = tracer.begin("gen.encode", root, op);
            for command in
                gen::epoch_updates(&mut session.graph, &mut session.rng, BACKGROUND_UPDATES)
            {
                session.conn.stage(&command);
            }
            let src = session.graph.random_root(&mut session.rng);
            let pair = (src, session.graph.random_walk(src, 3, &mut session.rng));
            if four_path {
                session.conn.stage(&gen::install_four_path(&name));
                session.conn.stage(&gen::add_pair(&name, pair));
            } else {
                session.conn.stage(&gen::install_two_hop(&name));
                session.conn.stage(&gen::add_root(&name, src));
            }
            session.epoch += 1;
            session.conn.stage(&gen::advance(session.epoch));
            session.conn.stage(&gen::query(&name));
            session.conn.stage(&gen::uninstall(&name));
            tracer.end(span);
            let span = tracer.begin("gen.write", root, op);
            session.conn.flush()?;
            tracer.end(span);
            let acks = BACKGROUND_UPDATES + 3;
            read_acks(session.conn.reader(), acks, tracer, root, op, &mut tally)?;
            let answer = session.conn.recv_traced(tracer, root, op)?;
            let answered = sent.elapsed();
            let response = session.conn.recv_traced(tracer, root, op)?;
            tracer.end(root);
            tally.expect_ok(&response);
            if four_path {
                self.four_path.record(answered);
                let expected = session.graph.four_path(pair.0, pair.1);
                tally.check(gen::check_four_path(&answer, pair, expected));
            } else {
                latency.record(answered);
                tally.check(gen::check_two_hop(&answer, &session.graph.two_hop(&[src])));
            }
            self.cycles += 1;
            cycles += 1;
        }
        Ok(Phase {
            latency,
            throughput_per_s: cycles as f64 / seconds_since(begin),
            ops: cycles,
            cpu_s: self.session.server.cpu_seconds()? - cpu_before,
            tally,
            open_loop: OpenLoop::default(),
        })
    }

    fn finish(&mut self) -> Res<Tally> {
        self.session.check_standing_hops()
    }

    fn server(&self) -> &ServerChild {
        &self.session.server
    }

    fn setup_tally(&self) -> Tally {
        self.session.setup_tally
    }

    fn observed(&mut self) -> Observed {
        Observed {
            four_path_install_to_answer_ms: self.four_path.quantile_ms(0.5),
            ..Observed::default()
        }
    }
}

// ---------------------------------------------------------------------------------
// durable_restart
// ---------------------------------------------------------------------------------

/// Durable epochs written before the crash of the set-up, so the recovery replays a
/// WAL tail on top of whatever checkpoint the load produced.
const EPOCHS_BEFORE_CRASH: u64 = 20;

pub struct DurableRestart {
    session: GraphSession,
    durable_dir: Scratch,
    server_exe: PathBuf,
    /// Peak resident set over the children already killed.
    peak_rss_mb: f64,
    /// The two halves of the set-up: child spawn to verified answer on an empty
    /// directory, and `kill -9` to verified answer on the directory that left.
    load_s: f64,
    recovery_to_answer_s: f64,
}

impl DurableRestart {
    /// `kill -9` with nothing in flight, respawn on the same directory, connect,
    /// advance time and read every standing query. The server recovers before it
    /// listens (checkpoint, then the WAL tail, including every logged `Install`), but
    /// it only runs its dataflows when a query needs a settled answer, so the first
    /// answer is where recovery ends. The reference state is the last acknowledged
    /// epoch: acknowledged means durable.
    fn crash_and_recover(&mut self) -> Res<(Duration, Tally)> {
        let session = &mut self.session;
        self.peak_rss_mb = self.peak_rss_mb.max(session.server.peak_rss_mb()?);
        session.server.crash();
        let respawned = Instant::now();
        session.server = ServerChild::spawn(&self.server_exe, Some(self.durable_dir.path()))?;
        session.conn = Conn::connect(session.server.addr())?;
        let mut tally = Tally::default();
        session.epoch += 1;
        let response = session.conn.call(&gen::advance(session.epoch))?;
        tally.expect_ok(&response);
        tally.absorb(session.check_standing_hops()?);
        Ok((respawned.elapsed(), tally))
    }

    /// How many checkpoints the server has completed in the durable directory (the
    /// highest `ckpt-<id>.run` it holds, a hexadecimal id, plus one; older ones are
    /// pruned).
    fn checkpoints_completed(&self) -> u64 {
        std::fs::read_dir(self.durable_dir.path())
            .map(|entries| {
                entries
                    .flatten()
                    .filter_map(|entry| {
                        let name = entry.file_name();
                        let id = name.to_str()?.strip_prefix("ckpt-")?.strip_suffix(".run")?;
                        u64::from_str_radix(id, 16).ok()
                    })
                    .map(|id| id + 1)
                    .max()
                    .unwrap_or(0)
            })
            .unwrap_or(0)
    }
}

impl Workload for DurableRestart {
    const NAME: &'static str = "durable_restart";

    /// A durable deployment sets up from its directory: load the graph and the
    /// standing set into a server started on an empty directory, write a few durable
    /// epochs, crash it, and recover. The measured epochs then run against the
    /// *recovered* server, and `setup_s` carries both the load and the recovery.
    fn setup(env: &Env) -> Res<DurableRestart> {
        let begin = Instant::now();
        let durable_dir = Scratch::new("durable")?;
        let mut workload = DurableRestart {
            session: GraphSession::setup(env, Some(durable_dir.path()))?,
            durable_dir,
            server_exe: env.server_exe.clone(),
            peak_rss_mb: 0.0,
            load_s: 0.0,
            recovery_to_answer_s: 0.0,
        };
        workload.load_s = seconds_since(begin);
        let mut tally = Tally::default();
        for _ in 0..EPOCHS_BEFORE_CRASH {
            let expected = workload.session.stage_epoch();
            workload.session.conn.flush()?;
            read_epoch_answer(
                &mut workload.session.conn,
                &mut Tracer::off(),
                SpanId::NONE,
                0,
                expected.as_deref(),
                &mut tally,
            )?;
        }
        let (recovered, checked) = workload.crash_and_recover()?;
        workload.recovery_to_answer_s = recovered.as_secs_f64();
        tally.absorb(checked);
        workload.session.setup_tally.absorb(tally);
        Ok(workload)
    }

    /// Closed loop, one epoch in flight, against a server that stages every command
    /// in its WAL and fsyncs at every `AdvanceTime`, checkpointing in the background.
    fn measure(&mut self, seconds: f64, tracer: &mut Tracer) -> Res<Phase> {
        let mut tally = Tally::default();
        let cpu_before = self.session.server.cpu_seconds()?;
        let (latency, ops, throughput_per_s) = self
            .session
            .closed_loop_epochs(seconds, tracer, &mut tally)?;
        Ok(Phase {
            latency,
            throughput_per_s,
            ops,
            cpu_s: self.session.server.cpu_seconds()? - cpu_before,
            tally,
            open_loop: OpenLoop::default(),
        })
    }

    /// Crash once more, after the measured epochs: everything acknowledged during
    /// them must come back.
    fn finish(&mut self) -> Res<Tally> {
        Ok(self.crash_and_recover()?.1)
    }

    fn server(&self) -> &ServerChild {
        &self.session.server
    }

    fn peak_rss_mb(&self) -> Res<f64> {
        Ok(self.peak_rss_mb.max(self.session.server.peak_rss_mb()?))
    }

    fn observed(&mut self) -> Observed {
        Observed {
            durable_load_s: self.load_s,
            recovery_to_answer_s: self.recovery_to_answer_s,
            checkpoints_completed: self.checkpoints_completed() as f64,
            ..Observed::default()
        }
    }

    fn setup_tally(&self) -> Tally {
        self.session.setup_tally
    }
}
