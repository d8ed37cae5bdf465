//! The TCP front end: one readiness reactor, running as dataflow worker 0 of the
//! [`ServerCore`] behind it.
//!
//! The server runs **no threads per connection** and no reactor thread of its own.
//! Worker 0's thread owns a [`Poller`], the listener and every socket, and each pass
//! of its loop does, in order:
//!
//! * **Execute** — everything sequenced and not yet consumed (the batch the previous
//!   pass submitted) is executed on worker 0's `Manager` and deposited through
//!   `ServerCore::consume`, the same body every other worker runs. At `--workers 1`
//!   a request is read, executed and answered by one thread: no handoff, no doorbell,
//!   no waker.
//! * **Writes** — completed responses wait in the [`QueueRoute`]; the reactor reorders
//!   each connection's responses by request index and flushes them coalesced — all
//!   responses that arrived since the last pass leave in one write per connection. A
//!   response worker 0 deposited last is found there on the same pass and rings
//!   nothing; one that worker k ≥ 1 deposited last rings the reactor's [`Waker`]. A
//!   socket that blocks gets write interest and the residue goes out when it drains.
//! * **Reads** — a readable connection is drained nonblockingly into its
//!   [`FrameStream`]; completed frames decode into commands, and everything read is
//!   submitted through [`ServerCore::submit_batch`] — **one** sequencer-lock
//!   acquisition (and one WAL staging pass) per pass, no matter how many connections
//!   spoke. Batch order is append order is arbitration order, so the semantics are
//!   identical to per-command submission. A pass that read anything goes straight
//!   round to execute it. A connection's read stops after its first `Query`, so
//!   that answer is written before the commands queued behind it run; the rest
//!   waits in the assembler for the next pass.
//! * **Wait** — only a pass that read nothing waits, and it waits the way a worker
//!   does: a zero-timeout look at the sockets, then, while a merge is in progress,
//!   an idle turn of trace maintenance before each further look (the look is where
//!   a worker yields the core); then zero-timeout looks for as long as a parked
//!   worker's doorbell spins ([`Doorbell::spin_window`]); then a blocking
//!   `epoll_wait`.
//! * **Backpressure** — a connection with [`PIPELINE_DEPTH`] submitted-but-
//!   unflushed commands stops being *read*: its read interest is muted, leaving
//!   its bytes in the kernel buffer (ordinary TCP backpressure upstream). When
//!   responses flush, interest is restored and frames already sitting in the
//!   assembler are processed first — no readiness event re-announces bytes the
//!   reactor already read.
//! * **Accept** — the listener is a readiness source like any other. Transient
//!   accept failures (brief fd exhaustion, peers resetting before accept) mute
//!   the listener for a short backoff instead of killing the accept path; a
//!   wait timeout re-arms it. Shutdown and accept race safely by construction:
//!   accepting and tearing down happen on the same thread, so a stop flag set
//!   mid-accept is observed before the next pass and the just-registered
//!   connection is torn down with the rest — never leaked. Both protocols, and the
//!   wake rule above, are pinned as model tests in `tests/model_races.rs`.
//!
//! Worker 0 drains the recovery replay before the reactor exists (the listener binds
//! only after [`ServerCore::await_replayed`]), and once the reactor stops it carries on
//! as an ordinary worker until the log closes, so workers 1..N-1 never wait at a
//! barrier for a peer that has left.
//!
//! Wire-level failures behave as before: an undecodable or oversized frame is
//! answered with [`Response::WireError`] in
//! request order and the stream resumes at the next frame. EOF (or any socket
//! error) disconnects the client, which uninstalls the queries it owned and
//! nothing else.

use kpg_sync::atomic::{AtomicBool, Ordering};
use kpg_sync::thread::JoinHandle;
use kpg_sync::{mpsc, Arc, Doorbell};
use std::collections::{BTreeMap, HashMap};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use kpg_dataflow::Worker;
use kpg_net::{Event, FillOutcome, FrameStream, Interest, Poller, Waker};
use kpg_plan::Command;
use kpg_wire::{Frame, Response, WireCodec, DEFAULT_FRAME_LIMIT};

use crate::engine::{ClientId, ServerCore};
use crate::route::{QueueRoute, ResponseRoute};
use crate::worker::{Execute, Executor};
use crate::PIPELINE_DEPTH;

/// Poller token of the TCP listener.
const LISTENER: u64 = 0;
/// Poller token of the reactor waker.
const WAKER: u64 = 1;
/// First token handed to a connection.
const FIRST_CONN: u64 = 2;

/// How long the listener stays muted after a transient accept failure.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(20);

/// Server tunables.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Dataflow workers, one thread each. Worker 0's thread is also the reactor that
    /// reads, executes and answers for every connection, so a server runs `workers`
    /// threads plus the engine thread that joins them (and, when durable, the
    /// checkpoint thread and the heal probe).
    pub workers: usize,
    /// The largest frame payload accepted from a client, in bytes.
    pub frame_limit: usize,
    /// Retain the full command log (see [`ServerCore::with_history`]) instead of
    /// pruning consumed entries. For replay-based tests and introspection; a
    /// long-lived server should leave this off.
    pub retain_log: bool,
    /// Persist the command log and checkpoints here; `None` (the default) serves
    /// purely in memory. With durability on, [`serve`] first replays any recovered
    /// state to completion and only then binds the listener, so clients never observe
    /// a partially recovered server.
    pub durability: Option<crate::durability::DurabilityConfig>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 1,
            frame_limit: DEFAULT_FRAME_LIMIT,
            retain_log: false,
            durability: None,
        }
    }
}

/// A running server: the engine (whose worker 0 is the reactor) and every live
/// connection. [`Server::shutdown`] (or drop) stops all of it.
pub struct Server {
    core: Arc<ServerCore>,
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    waker: Arc<Waker>,
    /// Disconnects once the reactor has returned: it holds the only sender.
    reactor_done: mpsc::Receiver<()>,
    engine: Option<JoinHandle<()>>,
}

/// Binds `addr` and serves until [`Server::shutdown`]. Use port 0 to let the OS pick
/// (the bound address is [`Server::local_addr`]).
///
/// A durable configuration recovers first: the engine replays the checkpoint
/// bootstrap and WAL tail to completion *before* the listener binds, so the moment
/// the address is connectable the recovered state is fully settled.
pub fn serve(addr: impl ToSocketAddrs, config: ServerConfig) -> io::Result<Server> {
    let ServerConfig {
        workers,
        frame_limit,
        retain_log,
        durability,
    } = config;
    let core = Arc::new(match durability {
        Some(durability) => ServerCore::durable(workers, retain_log, durability)?,
        None if retain_log => ServerCore::with_history(workers),
        None => ServerCore::new(workers),
    });
    let (handoff, reactor) = mpsc::channel::<Reactor>();
    let engine = {
        let core_for_worker = Arc::clone(&core);
        core.start_with(move |worker| worker_zero(&core_for_worker, worker, &reactor))
    };
    core.await_replayed();
    let bound = (|| {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let poller = Poller::new()?;
        poller.register(&listener, LISTENER, Interest::READ)?;
        let waker = Waker::new(&poller, WAKER)?;
        Ok::<_, io::Error>((listener, local_addr, poller, waker))
    })();
    let (listener, local_addr, poller, waker) = match bound {
        Ok(bound) => bound,
        Err(error) => {
            // The engine is already running; wind it down cleanly (flushing the WAL
            // and final checkpoint on a durable core) before reporting the failure.
            // Worker 0 sees no reactor is coming and serves as an ordinary worker.
            drop(handoff);
            core.close();
            let _ = engine.join();
            core.final_checkpoint();
            return Err(error);
        }
    };
    let stop = Arc::new(AtomicBool::new(false));
    let waker = Arc::new(waker);
    let route = {
        let waker = Arc::clone(&waker);
        Arc::new(QueueRoute::new(move || waker.wake()))
    };
    let (done, reactor_done) = mpsc::channel();
    // If the engine has already died the send fails, the reactor drops here, and
    // shutdown finds it gone.
    let _ = handoff.send(Reactor {
        core: Arc::clone(&core),
        poller,
        listener,
        waker: Arc::clone(&waker),
        route,
        stop: Arc::clone(&stop),
        frame_limit,
        conns: HashMap::new(),
        by_client: HashMap::new(),
        next_token: FIRST_CONN,
        accept_muted_until: None,
        _done: done,
    });

    Ok(Server {
        core,
        local_addr,
        stop,
        waker,
        reactor_done,
        engine: Some(engine),
    })
}

/// Worker 0 of a socket server. The recovery replay is sequenced before the engine
/// starts and nothing can follow it until the listener binds, so the first `consume`
/// executes exactly the replay, and its last look records the cursor
/// [`ServerCore::await_replayed`] waits for. Then the reactor arrives — or, if binding
/// failed, its sender goes — and runs here. Once it stops, this thread carries on as
/// an ordinary worker until the log closes.
fn worker_zero(core: &ServerCore, worker: &mut Worker, handoff: &mpsc::Receiver<Reactor>) {
    let mut executor = Executor::new(worker);
    let mut next = 0;
    core.consume(0, &mut next, &mut executor);
    if let Ok(reactor) = handoff.recv() {
        reactor.run(&mut executor, &mut next);
    }
    core.run(0, next, &mut executor);
}

impl Server {
    /// The address the server is listening on.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The sequencer core (introspection: the merged command log).
    pub fn core(&self) -> &Arc<ServerCore> {
        &self.core
    }

    /// The core's storage health: whether mutations are currently being rejected
    /// (degraded read-only mode) and the failure/heal counters behind it.
    pub fn health(&self) -> crate::HealthSnapshot {
        self.core.health()
    }

    /// Stops accepting, disconnects every client, drains the engine, and joins every
    /// thread. Idempotent; also run on drop.
    pub fn shutdown(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // The reactor checks the flag on every pass; ring it so a reactor blocked
        // with no traffic notices now. Teardown happens on the reactor's thread, so
        // every connection — including one accepted while this flag was being set —
        // is dropped there. Wait for it before closing the log: the cleanup
        // `Uninstall`s of the connections it drops must still be sequenced (and, on a
        // durable core, logged).
        self.waker.wake();
        let _ = self.reactor_done.recv();
        self.core.close();
        if let Some(engine) = self.engine.take() {
            let _ = engine.join();
        }
        // Durable cores write one last checkpoint after the engine has drained, so a
        // clean shutdown restarts from a checkpoint instead of a full WAL replay.
        self.core.final_checkpoint();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One socket-backed session: the framed stream plus reply-ordering and
/// backpressure accounting.
struct Conn {
    stream: FrameStream<TcpStream>,
    client: ClientId,
    /// The next reply index to assign to an incoming frame — equivalently, how
    /// many frames this connection has submitted.
    submitted: u64,
    /// Responses fully flushed to the socket. `submitted - answered` is the
    /// in-flight depth the backpressure bound applies to.
    answered: u64,
    /// The next reply index to *emit*; responses completing out of order wait in
    /// `held` until their predecessors arrive.
    next_emit: u64,
    held: BTreeMap<u64, Response>,
    /// The interest currently armed with the poller (to skip no-op reregisters).
    armed: Interest,
    dead: bool,
}

impl Conn {
    fn in_flight(&self) -> u64 {
        self.submitted - self.answered
    }
}

/// The reactor: all connection state, confined to worker 0's thread.
struct Reactor {
    core: Arc<ServerCore>,
    poller: Poller,
    listener: TcpListener,
    waker: Arc<Waker>,
    route: Arc<QueueRoute>,
    stop: Arc<AtomicBool>,
    frame_limit: usize,
    conns: HashMap<u64, Conn>,
    by_client: HashMap<ClientId, u64>,
    next_token: u64,
    /// `Some(deadline)` while the listener is muted after a transient accept
    /// failure; the wait timeout is clamped so the deadline re-arms it.
    accept_muted_until: Option<Instant>,
    /// Dropped when the reactor returns, which releases [`Server::shutdown`].
    _done: mpsc::Sender<()>,
}

impl Reactor {
    /// The reactor's loop — see the module docs. `executor` and `next` are worker 0's
    /// `Manager` and log position.
    fn run(mut self, executor: &mut impl Execute, next: &mut u64) {
        let route = Arc::clone(&self.route);
        let _drainer = route.drain_here();
        let spin_window = Doorbell::spin_window();
        let mut events: Vec<Event> = Vec::with_capacity(256);
        let mut scratch = vec![0u8; 64 * 1024];
        // Connections whose last read left frames in the assembler — at the depth
        // bound, or stopped after a `Query` — read first on the next pass instead
        // of scanning all connections.
        let mut residue: Vec<u64> = Vec::new();
        let mut batch: Vec<(ClientId, u64, Command)> = Vec::new();
        loop {
            // Stop check first: whatever else this pass carries, teardown wins.
            // Dropping the connections here — on the thread that accepts — is
            // what makes the shutdown/accept race unable to leak a registration.
            if self.stop.load(Ordering::SeqCst) {
                // In token order, i.e. accept order, so the cleanup `Uninstall`s a
                // shutdown sequences (and a durable core logs) are the same in every
                // process.
                let mut conns: Vec<(u64, Conn)> = self.conns.drain().collect();
                conns.sort_unstable_by_key(|(token, _)| *token);
                for (_, conn) in conns {
                    let _ = self.poller.deregister(conn.stream.stream());
                    self.core.disconnect(conn.client);
                }
                return;
            }

            // 1. Execute and deposit everything sequenced: the batch the last pass
            // submitted, and any cleanup another worker's deposit appended.
            self.core.consume(0, next, executor);

            // 2. Responses out, coalesced per connection.
            self.flush(&events);

            // 3. Reads, then one sequencer pass for everything they produced; the
            // next pass executes it at once.
            let read = self.read(&events, &mut scratch, &mut residue, &mut batch);
            events.clear();
            if read {
                if !batch.is_empty() {
                    self.core.submit_batch(batch.drain(..));
                }
                continue;
            }

            // 4. Nothing read: wait.
            self.wait(&mut events, executor, spin_window);
            if events.iter().any(|event| event.token == WAKER) {
                self.waker.drain();
            }
            // A muted listener is re-armed once the backoff has passed.
            if let Some(deadline) = self.accept_muted_until {
                if Instant::now() >= deadline {
                    self.accept_muted_until = None;
                    let _ = self
                        .poller
                        .reregister(&self.listener, LISTENER, Interest::READ);
                }
            }
        }
    }

    /// Waits for readiness the way a worker waits for the log. Each round starts with
    /// a zero-timeout look at the sockets, as a worker's starts with a look at the log.
    /// A round that finds nothing takes an idle turn while a merge is in progress (so
    /// the look after a turn is where a worker offers its core); once nothing is
    /// merging, rounds only look, for as long as a parked worker's doorbell spins. Then
    /// a blocking wait, bounded by an accept backoff.
    fn wait(&self, events: &mut Vec<Event>, executor: &mut impl Execute, spin_window: Duration) {
        let mut spin_until = None;
        loop {
            let _ = self.poller.wait(events, Some(Duration::ZERO));
            if !events.is_empty() {
                return;
            }
            if spin_until.is_none() && executor.idle_turn() {
                continue;
            }
            let until = *spin_until.get_or_insert_with(|| Instant::now() + spin_window);
            if Instant::now() >= until {
                break;
            }
        }
        let timeout = self
            .accept_muted_until
            .map(|deadline| deadline.saturating_duration_since(Instant::now()));
        let _ = self.poller.wait(events, timeout);
    }

    /// Reorders every queued response into its connection and flushes each
    /// connection that got one or that `events` reports writable — every response
    /// queued since the last pass leaves in as few writes as the socket allows.
    fn flush(&mut self, events: &[Event]) {
        let mut flush: Vec<u64> = Vec::new();
        for (client, reply, response) in self.route.take() {
            let Some(&token) = self.by_client.get(&client) else {
                continue; // client departed; the response is moot
            };
            let conn = self.conns.get_mut(&token).expect("client map out of sync");
            conn.held.insert(reply, response);
            while let Some(response) = conn.held.remove(&conn.next_emit) {
                conn.stream.queue_frame(&response.encode());
                conn.next_emit += 1;
            }
            if !flush.contains(&token) {
                flush.push(token);
            }
        }
        for event in events {
            if event.token >= FIRST_CONN && event.writable && !flush.contains(&event.token) {
                flush.push(event.token);
            }
        }
        for token in flush {
            self.flush_conn(token);
        }
    }

    /// Accepts, fills every readable connection, then pops frames into `batch` up to
    /// the depth bound, and on each connection up to its first `Query`: a client
    /// waits on a query's answer, so it leaves before anything queued behind it
    /// runs. (Executing a backlog of `epoch_stream`'s epochs whole held each answer
    /// for the epochs after it; stopping at the query took the slowest tenth's mean
    /// from 3.8 to 3.0 ms on a 2-vCPU VM, lower in 5 of 6 pairs.) Connections in
    /// `residue` are read *first* and re-armed: their bytes are already read, so no
    /// readiness event will announce them again. Returns whether any frame was
    /// popped — each is a command in `batch` or a wire error already answered.
    fn read(
        &mut self,
        events: &[Event],
        scratch: &mut [u8],
        residue: &mut Vec<u64>,
        batch: &mut Vec<(ClientId, u64, Command)>,
    ) -> bool {
        let mut readers: Vec<u64> = std::mem::take(residue);
        for event in events {
            if event.token == LISTENER {
                if event.readable {
                    self.accept_ready();
                }
            } else if event.token >= FIRST_CONN && event.readable {
                if let Some(conn) = self.conns.get_mut(&event.token) {
                    if conn.fill(scratch) == FillOutcome::Closed {
                        conn.dead = true;
                    }
                    if !readers.contains(&event.token) {
                        readers.push(event.token);
                    }
                }
            }
        }
        let mut popped = false;
        for token in readers {
            let Some(conn) = self.conns.get_mut(&token) else {
                continue;
            };
            let mut at_query = false;
            while !at_query && conn.in_flight() < PIPELINE_DEPTH as u64 {
                let Some(frame) = conn.stream.next_frame() else {
                    break;
                };
                popped = true;
                let reply = conn.submitted;
                conn.submitted += 1;
                match frame {
                    Frame::Payload(payload) => match Command::decode(&payload) {
                        Ok(command) => {
                            at_query = matches!(command, Command::Query { .. });
                            batch.push((conn.client, reply, command));
                        }
                        Err(error) => {
                            self.core
                                .respond_wire_error(conn.client, reply, error.to_string());
                        }
                    },
                    Frame::TooLarge(length) => {
                        let error = kpg_wire::WireError::FrameTooLarge {
                            length,
                            limit: self.frame_limit as u64,
                        };
                        self.core
                            .respond_wire_error(conn.client, reply, error.to_string());
                    }
                }
            }
            let conn = self.conns.get_mut(&token).expect("conn present");
            if conn.dead && !conn.stream.has_pending_frames() {
                self.close_conn(token);
                continue;
            }
            if conn.in_flight() >= PIPELINE_DEPTH as u64
                || (at_query && conn.stream.has_pending_frames())
            {
                residue.push(token);
            }
            self.update_interest(token);
        }
        popped
    }

    /// Accepts until the listener would block. A transient failure mutes the
    /// listener for [`ACCEPT_BACKOFF`] — the reactor-native form of the old
    /// accept-thread sleep: readiness suppression plus a wait timeout, so the
    /// reactor keeps serving existing connections while the listener cools off.
    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let client = self
                        .core
                        .register_client_routed(Arc::clone(&self.route) as Arc<dyn ResponseRoute>);
                    let token = self.next_token;
                    self.next_token += 1;
                    if self
                        .poller
                        .register(&stream, token, Interest::READ)
                        .is_err()
                    {
                        self.core.disconnect(client);
                        continue;
                    }
                    self.by_client.insert(client, token);
                    self.conns.insert(
                        token,
                        Conn {
                            stream: FrameStream::new(stream, self.frame_limit),
                            client,
                            submitted: 0,
                            answered: 0,
                            next_emit: 0,
                            held: BTreeMap::new(),
                            armed: Interest::READ,
                            dead: false,
                        },
                    );
                }
                Err(error) if error.kind() == io::ErrorKind::WouldBlock => return,
                Err(error) if error.kind() == io::ErrorKind::Interrupted => {}
                // Transient accept failures (a peer that reset before we accepted,
                // brief fd exhaustion) must not kill the accept path: a server
                // that runs but can never accept again fails silently.
                Err(_) => {
                    self.accept_muted_until = Some(Instant::now() + ACCEPT_BACKOFF);
                    let _ = self
                        .poller
                        .reregister(&self.listener, LISTENER, Interest::NONE);
                    return;
                }
            }
        }
    }

    /// Flushes a connection's queued responses, advancing its backpressure
    /// accounting; tears it down on a write error or a drained EOF.
    fn flush_conn(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        match conn.stream.flush() {
            Ok(progress) => {
                conn.answered += progress.frames_completed as u64;
                if conn.dead && !conn.stream.has_pending_frames() {
                    self.close_conn(token);
                } else {
                    self.update_interest(token);
                }
            }
            Err(_) => self.close_conn(token),
        }
    }

    /// Re-arms the poller with the interest the connection's state implies:
    /// read while under the depth bound, write while output is blocked.
    fn update_interest(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let desired = Interest {
            read: !conn.dead && conn.in_flight() < PIPELINE_DEPTH as u64,
            write: conn.stream.backlog() > 0,
        };
        if desired != conn.armed
            && self
                .poller
                .reregister(conn.stream.stream(), token, desired)
                .is_ok()
        {
            conn.armed = desired;
        }
    }

    /// Retires a connection: poller deregistration, engine disconnect (which
    /// uninstalls the queries the client owned), socket drop.
    fn close_conn(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            let _ = self.poller.deregister(conn.stream.stream());
            self.by_client.remove(&conn.client);
            self.core.disconnect(conn.client);
        }
    }
}

impl Conn {
    /// Drains the socket into the assembler; returns what the kernel reported.
    fn fill(&mut self, scratch: &mut [u8]) -> FillOutcome {
        self.stream.fill(scratch)
    }
}
