//! The ladder: the identical `point_rtt` command stream and the identical
//! `epoch_stream` epoch, run through growing stacks of the serving path, each timed
//! from outside. The difference between two adjacent rungs is the self time of the
//! layer the higher rung adds:
//!
//! | rung | what answers the commands |
//! |---|---|
//! | `manager` | `Manager::execute`/`settle`/`query`, called directly |
//! | `core` | + `ServerCore`: sequencer, doorbell, worker thread, aggregator, response route |
//! | `codec` | + `kpg_wire` both ways in memory: encode, frame, assemble, decode |
//! | `socket` | + `kpg_net` and the kernel: in-process `serve` over loopback TCP |
//! | `durable` | + `kpg_store`: the same with a WAL directory |
//! | `child` | the real `kpg_server` child process (what the gated `point_rtt` measures) |
//!
//! `ladder.unexplained_pct` is how far the `socket` rung is from the `child` rung:
//! the share of the real round trip the in-process rungs do not account for.

use std::time::{Duration, Instant};

use kpg_dataflow::{execute, Config, Worker};
use kpg_plan::{Command, Manager};
use kpg_server::{serve, DurabilityConfig, Server, ServerConfig};
use kpg_wire::{write_frame, Frame, FrameAssembler, Response, WireCodec, DEFAULT_FRAME_LIMIT};

use crate::gen::{self, Graph, ToyGraph};
use crate::harness::{Conn, Res, Scratch, ServerChild, MAX_UNANSWERED};
use crate::layers::CoreFixture;
use crate::spans::{SpanId, Tracer};
use crate::stats::{metric, Metric, Samples};
use crate::workloads::Env;

/// How long each rung is measured for, per stream.
const RUNG_BUDGET: Duration = Duration::from_millis(300);

/// Something that answers commands, in order.
trait Stack {
    fn exchange(&mut self, commands: &[Command], tracer: &mut Tracer) -> Res<Vec<Response>>;
}

struct ManagerStack<'a> {
    manager: Manager,
    worker: &'a mut Worker,
}

impl Stack for ManagerStack<'_> {
    fn exchange(&mut self, commands: &[Command], tracer: &mut Tracer) -> Res<Vec<Response>> {
        let mut responses = Vec::with_capacity(commands.len());
        for command in commands {
            // As the server's worker loop does: settle before a query reads.
            if matches!(command, Command::Query { .. }) {
                let span = tracer.begin("manager.settle", SpanId::NONE, 0);
                self.manager.settle(self.worker);
                tracer.end(span);
            }
            let name = if matches!(command, Command::Query { .. }) {
                "manager.query"
            } else {
                "manager.execute"
            };
            let span = tracer.begin(name, SpanId::NONE, 0);
            let result = self.manager.execute(self.worker, command.clone());
            tracer.end(span);
            responses.push(match result {
                Ok(kpg_plan::Response::Rows(rows)) => Response::QueryResults {
                    diffs: rows.iter().map(|(_, diff)| *diff as i64).collect(),
                    rows: rows.into_iter().map(|(row, _)| row).collect(),
                },
                Ok(_) => Response::Ok,
                Err(error) => Response::PlanError {
                    code: error.code().to_string(),
                    message: error.to_string(),
                },
            });
        }
        Ok(responses)
    }
}

impl Stack for CoreFixture {
    fn exchange(&mut self, commands: &[Command], tracer: &mut Tracer) -> Res<Vec<Response>> {
        let span = tracer.begin("core.submit_batch", SpanId::NONE, 0);
        self.submit(commands);
        tracer.end(span);
        let span = tracer.begin("core.await_deliver", SpanId::NONE, 0);
        let responses = self.await_all();
        tracer.end(span);
        if responses.len() == commands.len() {
            Ok(responses)
        } else {
            Err(format!(
                "the core delivered {} responses to {} commands",
                responses.len(),
                commands.len()
            ))
        }
    }
}

/// A core behind the byte boundary, in memory: what the reactor does to a request
/// and its response, without the socket.
struct CodecStack {
    core: CoreFixture,
}

impl Stack for CodecStack {
    fn exchange(&mut self, commands: &[Command], tracer: &mut Tracer) -> Res<Vec<Response>> {
        let mut bytes = Vec::new();
        for command in commands {
            write_frame(&mut bytes, &command.encode()).expect("writing to a Vec cannot fail");
        }
        let decoded: Vec<Command> = unframe(&bytes)?;
        let responses = self.core.exchange(&decoded, tracer)?;
        bytes.clear();
        for response in &responses {
            write_frame(&mut bytes, &response.encode()).expect("writing to a Vec cannot fail");
        }
        unframe(&bytes)
    }
}

fn unframe<T: WireCodec>(bytes: &[u8]) -> Res<Vec<T>> {
    let mut assembler = FrameAssembler::new(DEFAULT_FRAME_LIMIT);
    assembler.ingest(bytes);
    let mut values = Vec::new();
    while let Some(frame) = assembler.next_frame() {
        match frame {
            Frame::Payload(payload) => {
                values.push(
                    T::decode(&payload).map_err(|e| format!("own bytes do not decode: {e}"))?,
                );
            }
            Frame::TooLarge(length) => {
                return Err(format!("own frame of {length} bytes too large"))
            }
        }
    }
    Ok(values)
}

/// A connection to a server over loopback TCP; the server is held so it outlives the
/// connection and is shut down (or killed) afterwards.
struct SocketStack<S> {
    conn: Conn,
    _server: S,
}

impl<S> Stack for SocketStack<S> {
    fn exchange(&mut self, commands: &[Command], _tracer: &mut Tracer) -> Res<Vec<Response>> {
        let mut responses = Vec::with_capacity(commands.len());
        for chunk in commands.chunks(MAX_UNANSWERED / 2) {
            for command in chunk {
                self.conn.stage(command);
            }
            self.conn.flush()?;
            for _ in chunk {
                responses.push(self.conn.recv()?);
            }
        }
        Ok(responses)
    }
}

/// An in-process `serve` that shuts down when dropped.
struct InProcess(Server);

impl Drop for InProcess {
    fn drop(&mut self) {
        self.0.shutdown();
    }
}

/// An in-process server over loopback, with a WAL directory if `durable`. The server
/// comes first in the pair, so it shuts down before its directory is removed.
fn in_process(durable: bool) -> Res<SocketStack<(InProcess, Option<Scratch>)>> {
    let dir = durable
        .then(|| Scratch::new("ladder-durable"))
        .transpose()?;
    let server = serve(
        "127.0.0.1:0",
        ServerConfig {
            workers: 1,
            durability: dir.as_ref().map(|dir| DurabilityConfig::new(dir.path())),
            ..ServerConfig::default()
        },
    )
    .map_err(|e| format!("cannot serve in process: {e}"))?;
    let conn = Conn::connect(server.local_addr())?;
    Ok(SocketStack {
        conn,
        _server: (InProcess(server), dir),
    })
}

fn all_ok(responses: &[Response]) -> Res<()> {
    match responses.iter().find(|response| **response != Response::Ok) {
        None => Ok(()),
        Some(other) => Err(format!(
            "a ladder command was answered {}",
            crate::harness::describe(other)
        )),
    }
}

/// The `point_rtt` stream on one rung: median microseconds per single-update round
/// trip, barriers untimed, the last `degrees` answer checked.
fn point_stream(stack: &mut dyn Stack, env: &Env, tracer: &mut Tracer) -> Res<f64> {
    let mut toy = ToyGraph::new(env.seed);
    let mut epoch = 0;
    let mut off = Tracer::off();
    for chunk in toy.load().chunks(MAX_UNANSWERED / 2) {
        all_ok(&stack.exchange(chunk, &mut off)?)?;
    }
    let mut barrier = |stack: &mut dyn Stack, toy: &ToyGraph| -> Res<()> {
        epoch += 1;
        let responses =
            stack.exchange(&[gen::advance(epoch), gen::query(gen::DEGREES)], &mut off)?;
        gen::check_answer(&responses[1], &toy.degrees())
    };
    barrier(stack, &toy)?;
    let mut samples = Samples::with_capacity(1 << 14);
    let begin = Instant::now();
    while begin.elapsed() < RUNG_BUDGET {
        let command = [toy.next_update()];
        let start = Instant::now();
        let responses = stack.exchange(&command, tracer)?;
        samples.record(start.elapsed());
        all_ok(&responses)?;
        if toy.updates().is_multiple_of(gen::TOY_BARRIER_EVERY) {
            barrier(stack, &toy)?;
        }
    }
    barrier(stack, &toy)?;
    Ok(samples.quantile_us(0.5))
}

/// The `epoch_stream` epoch on one rung: median milliseconds per epoch (the updates,
/// `AdvanceTime`, and a `Query` of a standing 2-hop), against the standing set, the
/// last answer checked.
fn epoch_stream(stack: &mut dyn Stack, env: &Env, tracer: &mut Tracer) -> Res<f64> {
    let mut graph = Graph::generate(env.scale, env.seed);
    let mut rng = gen::update_rng(env.seed);
    let mut off = Tracer::off();
    let roots = gen::draw_roots(&graph, &mut rng);
    all_ok(&stack.exchange(&gen::setup_commands(&graph, &roots), &mut off)?)?;
    // The first query makes the server build everything loaded so far; it belongs to
    // the set-up, not to the first measured epoch.
    let watched = gen::standing_hop(0);
    let first = stack.exchange(&[gen::query(&watched)], &mut off)?;
    gen::check_two_hop(&first[0], &graph.two_hop(&roots[0]))?;
    let mut epoch = gen::SETUP_EPOCH;
    let mut samples = Samples::with_capacity(1 << 10);
    let mut last = None;
    let begin = Instant::now();
    while samples.len() < 3 || begin.elapsed() < RUNG_BUDGET {
        let mut commands = gen::epoch_updates(&mut graph, &mut rng, gen::UPDATES_PER_EPOCH);
        epoch += 1;
        commands.push(gen::advance(epoch));
        commands.push(gen::query(&watched));
        let start = Instant::now();
        let mut responses = stack.exchange(&commands, tracer)?;
        samples.record(start.elapsed());
        last = responses.pop();
        all_ok(&responses)?;
    }
    let answer = last.ok_or_else(|| "no epoch was run".to_string())?;
    gen::check_two_hop(&answer, &graph.two_hop(&roots[0]))?;
    Ok(samples.quantile_ms(0.5))
}

type Stream = fn(&mut dyn Stack, &Env, &mut Tracer) -> Res<f64>;

/// Both streams on one kind of stack; each stream gets a fresh stack. The point
/// stream runs untraced on every rung: on the lower rungs a span costs as much as
/// the call it would wrap. The epoch stream, whose calls are long, carries the
/// ladder's spans.
fn rung<S: Stack>(
    env: &Env,
    tracer: &mut Tracer,
    mut fresh: impl FnMut() -> Res<S>,
) -> Res<(f64, f64)> {
    let point = point_stream(&mut fresh()?, env, &mut Tracer::off())?;
    let epoch = epoch_stream(&mut fresh()?, env, tracer)?;
    Ok((point, epoch))
}

/// One stream on the bottom rung: a `Manager` on a dataflow worker, nothing else.
fn on_manager(env: &Env, tracer: &mut Tracer, stream: Stream) -> Res<f64> {
    let (on, origin) = (tracer.is_on(), tracer.origin());
    let env = env.clone();
    let (outcome, spans) = execute(Config::new(1), move |worker| {
        let mut spans = Tracer::new(on, origin);
        let mut stack = ManagerStack {
            manager: Manager::new(),
            worker,
        };
        (stream(&mut stack, &env, &mut spans), spans)
    })
    .remove(0);
    tracer.absorb(spans);
    outcome
}

/// Runs every rung and returns the `ladder.*` and `net.*` metrics. Spans around the
/// in-process calls go to `tracer`.
pub fn run(env: &Env, tracer: &mut Tracer) -> Res<Vec<Metric>> {
    let manager = (
        on_manager(env, &mut Tracer::off(), point_stream)?,
        on_manager(env, tracer, epoch_stream)?,
    );
    let core = rung(env, tracer, || Ok(CoreFixture::start()))?;
    let codec = rung(env, tracer, || {
        Ok(CodecStack {
            core: CoreFixture::start(),
        })
    })?;
    let socket = rung(env, tracer, || in_process(false))?;
    let durable = rung(env, tracer, || in_process(true))?;
    let child = point_stream(
        &mut {
            let server = ServerChild::spawn(&env.server_exe, None)?;
            SocketStack {
                conn: Conn::connect(server.addr())?,
                _server: server,
            }
        },
        env,
        &mut Tracer::off(),
    )?;
    Ok(vec![
        metric("ladder.manager_us", "us", manager.0),
        metric("ladder.core_us", "us", core.0),
        metric("ladder.codec_us", "us", codec.0),
        metric("ladder.socket_us", "us", socket.0),
        metric("ladder.durable_us", "us", durable.0),
        metric("ladder.child_us", "us", child),
        metric(
            "ladder.unexplained_pct",
            "%",
            (socket.0 - child).abs() / child * 100.0,
        ),
        metric("ladder.epoch_manager_ms", "ms", manager.1),
        metric("ladder.epoch_core_ms", "ms", core.1),
        metric("ladder.epoch_codec_ms", "ms", codec.1),
        metric("ladder.epoch_socket_ms", "ms", socket.1),
        metric("ladder.epoch_durable_ms", "ms", durable.1),
        metric("net.loopback_rtt_us", "us", socket.0 - codec.0),
    ])
}
