//! The TCP front end: one readiness reactor, one [`ServerCore`] behind it.
//!
//! The server runs **no threads per connection**. A single reactor thread owns a
//! [`Poller`] and every socket:
//!
//! * **Reads** — a readable connection is drained nonblockingly into its
//!   [`FrameStream`]; completed frames decode into commands. Everything that
//!   became ready in one wakeup is submitted through
//!   [`ServerCore::submit_batch`] — **one** sequencer-lock acquisition (and one
//!   WAL staging pass) per wakeup, no matter how many connections spoke. Batch
//!   order is append order is arbitration order, so the semantics are identical
//!   to per-command submission.
//! * **Writes** — workers deliver responses to a shared queue (`QueueRoute`) and
//!   ring the reactor's [`Waker`]; the reactor reorders each connection's
//!   responses by request index and flushes them coalesced — all responses that
//!   arrived since the last wakeup leave in one write per connection. A socket
//!   that blocks gets write interest and the residue goes out when it drains.
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
//!   mid-accept is observed before the next wait and the just-registered
//!   connection is torn down with the rest — never leaked. Both protocols are
//!   pinned as model tests in `tests/model_races.rs`.
//!
//! Wire-level failures behave as before: an undecodable or oversized frame is
//! answered with [`Response::WireError`] in
//! request order and the stream resumes at the next frame. EOF (or any socket
//! error) disconnects the client, which uninstalls the queries it owned and
//! nothing else.

use kpg_sync::atomic::{AtomicBool, Ordering};
use kpg_sync::thread::JoinHandle;
use kpg_sync::{Arc, Mutex};
use std::collections::{BTreeMap, HashMap};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use kpg_net::{Event, FillOutcome, FrameStream, Interest, Poller, Waker};
use kpg_plan::Command;
use kpg_wire::{Frame, Response, WireCodec, DEFAULT_FRAME_LIMIT};

use crate::engine::{ClientId, ServerCore};
use crate::route::ResponseRoute;
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
    /// Dataflow worker threads.
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

/// The shared response path: workers deposit here (under the core's client-state
/// lock) and ring the reactor, which drains the queue on its next wakeup and
/// flushes per connection. One queue for every socket-backed client.
struct QueueRoute {
    queue: Mutex<Vec<(ClientId, u64, Response)>>,
    waker: Arc<Waker>,
}

impl ResponseRoute for QueueRoute {
    fn deliver(&self, client: ClientId, reply: u64, response: Response) {
        let mut queue = self.queue.lock().expect("response queue poisoned");
        let was_empty = queue.is_empty();
        queue.push((client, reply, response));
        drop(queue);
        // Wake only on the empty→non-empty transition: the reactor drains the
        // queue whole under the same lock, so one pending wake covers every
        // response that lands before it runs — a batch of N responses costs one
        // waker syscall, not N. (A push racing the drain sees the queue empty
        // again and re-wakes, so no response is ever left sleeping.)
        if was_empty {
            self.waker.wake();
        }
    }
}

/// A running server: the engine, the reactor, and every live connection.
/// [`Server::shutdown`] (or drop) stops all of it.
pub struct Server {
    core: Arc<ServerCore>,
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    waker: Arc<Waker>,
    reactor: Option<JoinHandle<()>>,
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
    let engine = core.start();
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
            core.close();
            let _ = engine.join();
            core.final_checkpoint();
            return Err(error);
        }
    };
    let stop = Arc::new(AtomicBool::new(false));
    let waker = Arc::new(waker);
    let route = Arc::new(QueueRoute {
        queue: Mutex::new(Vec::new()),
        waker: Arc::clone(&waker),
    });

    let reactor = {
        let core = Arc::clone(&core);
        let stop = Arc::clone(&stop);
        let waker = Arc::clone(&waker);
        kpg_sync::thread::Builder::new()
            .name("kpg-server-reactor".to_string())
            .spawn(move || {
                Reactor {
                    core,
                    poller,
                    listener,
                    waker,
                    route,
                    stop,
                    frame_limit,
                    conns: HashMap::new(),
                    by_client: HashMap::new(),
                    next_token: FIRST_CONN,
                    accept_muted_until: None,
                }
                .run();
            })
            .expect("failed to spawn the reactor thread")
    };

    Ok(Server {
        core,
        local_addr,
        stop,
        waker,
        reactor: Some(reactor),
        engine: Some(engine),
    })
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
        if let Some(reactor) = self.reactor.take() {
            // The reactor checks the flag on every wakeup; ring it so a reactor
            // parked with no traffic notices now. Teardown happens on the
            // reactor thread itself, so every connection — including one
            // accepted while this flag was being set — is dropped there.
            self.waker.wake();
            let _ = reactor.join();
        }
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

/// The reactor: all connection state, confined to its one thread.
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
}

impl Reactor {
    fn run(mut self) {
        let mut events: Vec<Event> = Vec::with_capacity(256);
        let mut scratch = vec![0u8; 64 * 1024];
        // Connections whose read interest is muted for depth; re-checked after
        // every flush pass instead of scanning all connections.
        let mut throttled: Vec<u64> = Vec::new();
        loop {
            events.clear();
            let timeout = self
                .accept_muted_until
                .map(|deadline| deadline.saturating_duration_since(Instant::now()));
            let _ = self.poller.wait(&mut events, timeout);
            // Stop check first: whatever else this wakeup carries, teardown wins.
            // Dropping the connections here — on the thread that accepts — is
            // what makes the shutdown/accept race unable to leak a registration.
            if self.stop.load(Ordering::SeqCst) {
                for (_, conn) in self.conns.drain() {
                    let _ = self.poller.deregister(conn.stream.stream());
                    self.core.disconnect(conn.client);
                }
                return;
            }

            // 1. New responses: reorder per connection and queue the encodings.
            let mut flush: Vec<u64> = Vec::new();
            for event in &events {
                if event.token == WAKER {
                    self.waker.drain();
                }
            }
            let deliveries =
                std::mem::take(&mut *self.route.queue.lock().expect("response queue poisoned"));
            for (client, reply, response) in deliveries {
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

            // 2. Flush: coalesced — every response queued above leaves in as few
            // writes as the socket allows; writable events flush blocked residue.
            for event in &events {
                if event.token >= FIRST_CONN && event.writable && !flush.contains(&event.token) {
                    flush.push(event.token);
                }
            }
            for &token in &flush {
                self.flush_conn(token);
            }

            // 3. Reads. Fill every readable connection, then pop frames up to the
            // depth bound. Connections that free up depth by the flush above are
            // re-armed and their assembler residue processed *first*: those bytes
            // are already read, so no readiness event will announce them again.
            let mut batch: Vec<(ClientId, u64, Command)> = Vec::new();
            let mut readers: Vec<u64> = std::mem::take(&mut throttled);
            for event in &events {
                if event.token == LISTENER {
                    if event.readable {
                        self.accept_ready();
                    }
                } else if event.token >= FIRST_CONN && event.readable {
                    if let Some(conn) = self.conns.get_mut(&event.token) {
                        if conn.fill(&mut scratch) == FillOutcome::Closed {
                            conn.dead = true;
                        }
                        if !readers.contains(&event.token) {
                            readers.push(event.token);
                        }
                    }
                }
            }
            // A timed-out wait re-arms a muted listener once the backoff passed.
            if let Some(deadline) = self.accept_muted_until {
                if Instant::now() >= deadline {
                    self.accept_muted_until = None;
                    let _ = self
                        .poller
                        .reregister(&self.listener, LISTENER, Interest::READ);
                }
            }
            for token in readers {
                let Some(conn) = self.conns.get_mut(&token) else {
                    continue;
                };
                while conn.in_flight() < PIPELINE_DEPTH as u64 {
                    let Some(frame) = conn.stream.next_frame() else {
                        break;
                    };
                    let reply = conn.submitted;
                    conn.submitted += 1;
                    match frame {
                        Frame::Payload(payload) => match Command::decode(&payload) {
                            Ok(command) => batch.push((conn.client, reply, command)),
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
                if conn.in_flight() >= PIPELINE_DEPTH as u64 {
                    throttled.push(token);
                }
                self.update_interest(token);
            }

            // 4. One sequencer pass for everything this wakeup produced.
            if !batch.is_empty() {
                self.core.submit_batch(batch);
            }
        }
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
