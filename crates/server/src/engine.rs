//! The sequencer core: one totally ordered command log, executed by every worker.
//!
//! PR 4's invariant is that a [`Manager`] is deterministic when every worker executes
//! the *same* command stream in the same order. A multi-client server therefore has
//! exactly one job at its heart: turn concurrently arriving per-client command streams
//! into one total order, and fan every worker's (identical) results back to the client
//! that asked. [`ServerCore`] is that job, with the network left out so tests can pin
//! its arbitration rules deterministically:
//!
//! * **Sequencing.** [`ServerCore::submit_batch`] appends a batch of client commands to
//!   the shared [`command log`](ServerCore::command_log) holding the client-state lock
//!   and, inside it, the log lock — one acquisition of each per batch, one worker
//!   doorbell ring after both are released; [`ServerCore::submit`] is a batch of one.
//!   The append order *is* the arbitration order for every name conflict. An
//!   `Uninstall` sequenced before a queued `Install` referencing the same input makes
//!   the install fail (`unknown-input`/`invalid-plan`); sequenced after it, the
//!   uninstall fails (`input-in-use`). Within one name, queries shadow inputs:
//!   `Uninstall` retires a live query named `n` before it would remove an input named
//!   `n` (the manager's namespace rule, pinned by `tests/arbitration.rs`). By default
//!   the log prunes the prefix every worker has consumed (a long-lived server holds
//!   O(in-flight) commands, not its full traffic history);
//!   [`ServerCore::with_history`] retains everything so tests can replay the merged log.
//! * **Execution.** Each worker thread runs [`ServerCore::worker_loop`]: a private
//!   `Manager`, the log consumed in order, [`Manager::settle`] before every `Query` so
//!   answers are deterministic.
//! * **Aggregation.** Workers deposit per-command results; the last deposit merges them
//!   (query rows union-summed across worker shards, everything else identical by
//!   determinism) into one wire [`Response`] and dispatches it to the origin client
//!   *under the client-state lock*, so each client's responses leave in its request
//!   order. On a durable core the same deposit pushes the completed command onto the
//!   open epoch's vector, and the one that completes an `AdvanceTime` hands the whole
//!   epoch to the checkpoint thread (see [`crate::durability`]) — a push per command
//!   and a channel send per epoch; an in-memory core pays one `Option` test.
//! * **Ownership.** The sequencer tracks which client owns each *live* query. A name
//!   is claimed when its `Install` **completes successfully** (completions occur in
//!   log order, so claims are log-order consistent) — a failed install, duplicate or
//!   otherwise, never claims anything. Client disconnect enqueues `Uninstall`s for the
//!   queries that client owns, and nothing else: shared inputs outlive their creator
//!   (arrangements outlive queries — the paper's model), and another client's queries
//!   are untouchable. An install still in flight when its client departs is retired by
//!   the deposit that completes it.

use kpg_sync::atomic::{AtomicBool, AtomicU64, Ordering};
use kpg_sync::thread::JoinHandle;
use kpg_sync::{mpsc, Arc, Condvar, Doorbell, Mutex, Weak};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io;

use kpg_dataflow::{execute, Config, Worker};
use kpg_plan::{Command, Manager, PlanError, Response as PlanResponse, Row};
use kpg_store::{RetryPolicy, StoreError, Wal, WalBatch};
use kpg_wire::{Response, WireCodec};

use crate::durability::{checkpoint, recover, DurabilityConfig, StateTracker};
use crate::route::{ChannelRoute, ResponseRoute};

/// Identifies one connected client (or test-registered pseudo-client).
pub type ClientId = u64;

/// One entry of the total command order.
pub struct SequencedCommand {
    /// The position in the log (dense, from 0).
    pub seq: u64,
    /// The submitting client and its per-client request index, or `None` for commands
    /// the server generated itself (disconnect cleanup, recovery replay).
    pub origin: Option<(ClientId, u64)>,
    /// The command's WAL sequence number on a durable core. `None` for `Query`
    /// commands (reads are never logged) and for recovery-bootstrap entries (their
    /// effects are already in the checkpoint the tracker was seeded from); the
    /// checkpoint thread is handed exactly the completions that carry one.
    pub wal_seq: Option<u64>,
    /// The command.
    pub command: Command,
}

struct LogState {
    /// The sequence number of `entries[0]` (everything below it has been pruned).
    base: u64,
    entries: VecDeque<Arc<SequencedCommand>>,
    /// Per worker, the next sequence number it will consume: everything below every
    /// cursor is done everywhere and (unless `retain`) can be dropped.
    cursors: Vec<u64>,
    /// Keep consumed entries (history mode, for replay-based tests/introspection).
    retain: bool,
    closed: bool,
    /// The command-log WAL of a durable core (absent on in-memory cores). Appends
    /// happen under this lock — sequencing order *is* WAL order.
    wal: Option<Wal>,
    /// Commands logged since the last epoch fsync, buffered for group commit.
    wal_pending: WalBatch,
    /// The next WAL sequence number to assign.
    next_wal_seq: u64,
    /// Entries pre-loaded by recovery (bootstrap + WAL tail): the count every worker
    /// must consume before the server may accept connections.
    replay_len: u64,
    /// Threads blocked in [`ServerCore::await_replayed`] on the `consumed` condvar.
    /// Guarded by the log lock; lets the per-command cursor advance skip the
    /// condvar notify (a futex syscall) on the hot path — replay waiting happens
    /// once, at startup.
    replay_waiters: usize,
}

impl LogState {
    fn prune(&mut self) {
        if self.retain {
            return;
        }
        let consumed = self.cursors.iter().copied().min().unwrap_or(0);
        while self.base < consumed {
            if self.entries.pop_front().is_none() {
                break;
            }
            self.base += 1;
        }
    }
}

/// A command's merged outcome while deposits accumulate.
enum Outcome {
    /// A non-query success (identical on every worker).
    Plain,
    /// Query rows, union-summed across the workers' output shards.
    Rows(BTreeMap<Row, isize>),
    /// The deterministic failure (identical on every worker; first deposit kept).
    Failed(PlanError),
}

struct PendingResponse {
    remaining: usize,
    outcome: Outcome,
}

/// Client-facing state: response routing, response aggregation, and name ownership —
/// plus, on a durable core, the hand-off of completed epochs to the checkpoint thread.
/// One lock, so dispatch order equals completion order equals per-client request order
/// (equals the order the checkpoint thread sees).
struct ClientState {
    /// Live query name → owning client. Written only when an `Install` or `Uninstall`
    /// *completes* (and at submit for `Uninstall`, which can only free a name early),
    /// so the map never credits a failed install.
    owners: HashMap<String, ClientId>,
    /// Per-seq aggregation of worker deposits.
    pending: HashMap<u64, PendingResponse>,
    /// Where each client's responses go — a per-client channel
    /// ([`ChannelRoute`]) or the reactor's shared queue.
    routes: HashMap<ClientId, Arc<dyn ResponseRoute>>,
    /// Durable cores only: the open epoch's successful, WAL-logged completions, in
    /// log order (this lock serialises completions). Sent to the checkpoint thread,
    /// whole, by the deposit that completes the epoch's `AdvanceTime`.
    open_epoch: SealedEpoch,
    /// The channel to the checkpoint thread; `None` on in-memory cores, before
    /// [`ServerCore::start`], and after [`ServerCore::final_checkpoint`] closed it.
    sealed_tx: Option<mpsc::Sender<SealedEpoch>>,
}

/// What crosses the channel to the checkpoint thread: one sealed epoch's successful,
/// WAL-logged completions in log order, the sealing `AdvanceTime` last.
type SealedEpoch = Vec<Arc<SequencedCommand>>;

/// The durable half of a [`ServerCore`]: the checkpoint thread that owns the state
/// tracker (fed through `ClientState::sealed_tx`) and the heal probe that retries
/// the WAL while the core is degraded.
struct DurableState {
    config: DurabilityConfig,
    /// The recovered tracker and the next checkpoint id, parked here only until
    /// [`ServerCore::start`] moves them onto the checkpoint thread's stack. Nothing
    /// else ever reads or clones the tracker.
    seed: Mutex<Option<(StateTracker, u64)>>,
    checkpoint_thread: Mutex<Option<JoinHandle<()>>>,
    probe_thread: Mutex<Option<JoinHandle<()>>>,
}

/// The core's storage-health counters. Atomics, not a lock: the hot submit path
/// reads `degraded` on every mutating command.
struct HealthState {
    /// Set while the core rejects mutating commands because it cannot persist them.
    degraded: AtomicBool,
    /// Consecutive failed WAL flush attempts (group commit and heal probe); reset to
    /// zero by any successful flush.
    wal_failures: AtomicU64,
    /// Consecutive failed checkpoint writes; reset to zero by a success.
    checkpoint_failures: AtomicU64,
    /// Times the core entered degraded read-only mode.
    degraded_transitions: AtomicU64,
    /// Times the core healed (left degraded mode because writes succeed again).
    heals: AtomicU64,
}

impl HealthState {
    fn new() -> Self {
        HealthState {
            degraded: AtomicBool::new(false),
            wal_failures: AtomicU64::new(0),
            checkpoint_failures: AtomicU64::new(0),
            degraded_transitions: AtomicU64::new(0),
            heals: AtomicU64::new(0),
        }
    }
}

/// A point-in-time copy of the core's storage health — see [`ServerCore::health`].
///
/// On an in-memory core every field is zero forever. On a durable core `degraded`
/// means mutating commands are currently answered with the
/// `degraded-read-only` plan error while queries keep serving from memory; the
/// counter fields let tests and operators distinguish "never failed" from
/// "failed and healed".
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HealthSnapshot {
    /// Mutations are being rejected because the WAL (or a checkpoint) failed past
    /// its retry budget and the probe has not yet seen a write succeed.
    pub degraded: bool,
    /// Consecutive failed WAL flush attempts; zero after any successful flush.
    pub wal_failures: u64,
    /// Consecutive failed checkpoint writes; zero after any successful checkpoint.
    /// Seals that found the checkpoint thread dead count here too (and never reset).
    pub checkpoint_failures: u64,
    /// Times the core has entered degraded read-only mode.
    pub degraded_transitions: u64,
    /// Times the core has healed and resumed accepting mutations.
    pub heals: u64,
}

/// The network-free server: sequencer, worker pool driver, response aggregator. See
/// the module docs for the architecture; [`crate::serve`] wraps it in TCP.
pub struct ServerCore {
    workers: usize,
    log: Mutex<LogState>,
    /// Rung once per append — or once per *batch* on the
    /// [`ServerCore::submit_batch`] path — to wake workers parked in
    /// [`ServerCore::next_command`]. An epoch-counting doorbell instead of a
    /// condvar: ringing is one atomic on the fast path (no lock, no syscall when
    /// no worker is parked), and the snapshot/check/wait protocol it enforces is
    /// model-checked in `kpg_sync`'s `model_doorbell` tests.
    grown: Doorbell,
    /// Signalled whenever a worker advances its cursor; [`ServerCore::await_replayed`]
    /// waits on it for recovery replay to drain before connections are accepted.
    consumed: Condvar,
    clients: Mutex<ClientState>,
    next_client: AtomicU64,
    durable: Option<DurableState>,
    health: HealthState,
}

impl ServerCore {
    /// A core that will drive `workers` dataflow workers, pruning log entries once
    /// every worker has consumed them (the long-lived-server default).
    pub fn new(workers: usize) -> Self {
        Self::build(workers, false)
    }

    /// Like [`ServerCore::new`], but the log retains every command ever sequenced, so
    /// [`ServerCore::command_log`] is the complete replayable history.
    pub fn with_history(workers: usize) -> Self {
        Self::build(workers, true)
    }

    /// A durable core: recovers the state persisted in `config.dir` (if any) and
    /// pre-loads the log with the recovery replay — the synthesized checkpoint
    /// bootstrap followed by the WAL tail. Callers should [`ServerCore::start`] the
    /// engine and then [`ServerCore::await_replayed`] before exposing the core to
    /// clients, so recovered state is settled before the first live command.
    pub fn durable(workers: usize, retain: bool, config: DurabilityConfig) -> io::Result<Self> {
        let recovered = recover(&config)?;
        let mut core = Self::build(workers, retain);
        let log = core.log.get_mut().expect("command log poisoned");
        let mut seq = 0u64;
        for command in recovered.bootstrap {
            log.entries.push_back(Arc::new(SequencedCommand {
                seq,
                origin: None,
                wal_seq: None,
                command,
            }));
            seq += 1;
        }
        for (wal_seq, command) in recovered.tail {
            log.entries.push_back(Arc::new(SequencedCommand {
                seq,
                origin: None,
                wal_seq: Some(wal_seq),
                command,
            }));
            seq += 1;
        }
        log.replay_len = seq;
        log.wal = Some(recovered.wal);
        log.next_wal_seq = recovered.next_wal_seq;
        core.durable = Some(DurableState {
            config,
            seed: Mutex::new(Some((recovered.tracker, recovered.next_checkpoint_id))),
            checkpoint_thread: Mutex::new(None),
            probe_thread: Mutex::new(None),
        });
        Ok(core)
    }

    fn build(workers: usize, retain: bool) -> Self {
        let workers = workers.max(1);
        ServerCore {
            workers,
            log: Mutex::new(LogState {
                base: 0,
                entries: VecDeque::new(),
                cursors: vec![0; workers],
                retain,
                closed: false,
                wal: None,
                wal_pending: WalBatch::new(),
                next_wal_seq: 0,
                replay_len: 0,
                replay_waiters: 0,
            }),
            grown: Doorbell::new(),
            consumed: Condvar::new(),
            clients: Mutex::new(ClientState {
                owners: HashMap::new(),
                pending: HashMap::new(),
                routes: HashMap::new(),
                open_epoch: Vec::new(),
                sealed_tx: None,
            }),
            next_client: AtomicU64::new(0),
            durable: None,
            health: HealthState::new(),
        }
    }

    /// The number of dataflow workers this core drives.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Starts the worker pool on a background thread. The thread exits once
    /// [`ServerCore::close`] is called and the log is drained. On a durable core this
    /// also starts the checkpoint thread and the heal probe.
    pub fn start(self: &Arc<Self>) -> kpg_sync::thread::JoinHandle<()> {
        if let Some(durable) = &self.durable {
            self.start_checkpointer(durable);
            // The heal probe: while the core is degraded, periodically retry the WAL
            // flush; the first success flips the core back to accepting mutations.
            // Idle (a single flag load per tick) when healthy.
            let weak = Arc::downgrade(self);
            let interval = durable.config.probe_interval;
            let probe = kpg_sync::thread::Builder::new()
                .name("kpg-server-heal-probe".to_string())
                .spawn(move || loop {
                    kpg_sync::thread::sleep(interval);
                    let Some(core) = weak.upgrade() else { break };
                    if core.log.lock().expect("command log poisoned").closed {
                        break;
                    }
                    if core.health.degraded.load(Ordering::SeqCst) {
                        core.try_heal();
                    }
                })
                .expect("failed to spawn the WAL heal probe");
            *durable.probe_thread.lock().expect("probe thread poisoned") = Some(probe);
        }
        let core = Arc::clone(self);
        kpg_sync::thread::Builder::new()
            .name("kpg-server-engine".to_string())
            .spawn(move || {
                let workers = core.workers;
                execute(Config::new(workers), move |worker| {
                    core.worker_loop(worker);
                });
            })
            .expect("failed to spawn the server engine thread")
    }

    /// Spawns the `kpg-server-checkpoint` thread and opens the sealed-epoch channel
    /// `deposit` feeds it through.
    fn start_checkpointer(self: &Arc<Self>, durable: &DurableState) {
        let (tracker, next_id) = durable
            .seed
            .lock()
            .expect("tracker seed poisoned")
            .take()
            .expect("a durable core is started once");
        let (sender, receiver) = mpsc::channel::<SealedEpoch>();
        self.clients
            .lock()
            .expect("client state poisoned")
            .sealed_tx = Some(sender);
        // Weak: the writer must not keep a closed core (and its WAL) alive.
        let weak = Arc::downgrade(self);
        let config = durable.config.clone();
        let thread = kpg_sync::thread::Builder::new()
            .name("kpg-server-checkpoint".to_string())
            .spawn(move || Self::checkpoint_loop(&weak, &receiver, tracker, next_id, &config))
            .expect("failed to spawn the checkpoint thread");
        *durable
            .checkpoint_thread
            .lock()
            .expect("checkpoint thread poisoned") = Some(thread);
    }

    /// [`ServerCore::start`]'s durable half without the engine and the heal probe:
    /// the deterministic-schedule tests drive the workers themselves
    /// ([`ServerCore::model_worker_loop`]) and need only the checkpoint thread.
    #[cfg(feature = "model")]
    pub fn model_start_checkpointer(self: &Arc<Self>) {
        if let Some(durable) = &self.durable {
            self.start_checkpointer(durable);
        }
    }

    /// The checkpoint thread: owns the state tracker, applies sealed epochs to it in
    /// the order they arrive (log order), and writes checkpoints from it in place.
    /// When the channel closes with the core still alive — which is
    /// [`ServerCore::final_checkpoint`] — it writes the shutdown checkpoint too.
    fn checkpoint_loop(
        core: &Weak<ServerCore>,
        sealed: &mpsc::Receiver<SealedEpoch>,
        mut tracker: StateTracker,
        mut next_id: u64,
        config: &DurabilityConfig,
    ) {
        let apply = |tracker: &mut StateTracker, epoch: SealedEpoch| {
            tracker.apply_epoch(epoch.iter().map(|entry| {
                let wal_seq = entry.wal_seq.expect("only WAL-logged completions cross");
                (wal_seq, &entry.command)
            }));
        };
        while let Ok(epoch) = sealed.recv() {
            apply(&mut tracker, epoch);
            // Epochs that sealed while the last checkpoint was being written are
            // waiting as commands: catch up before deciding, so the next checkpoint
            // covers all of them and none is cut from a state already superseded.
            for epoch in sealed.try_iter() {
                apply(&mut tracker, epoch);
            }
            if !tracker.checkpoint_due(config.checkpoint_every) {
                continue;
            }
            let Some(core) = core.upgrade() else { return };
            match checkpoint(config, &tracker, &mut next_id, "checkpoint write") {
                Ok(watermark) => {
                    tracker.note_checkpoint();
                    core.health.checkpoint_failures.store(0, Ordering::Relaxed);
                    core.prune_wal(watermark);
                }
                // A failed checkpoint leaves a committed one in force; the WAL keeps
                // everything and recovery stays correct. The tracker's count stands,
                // so the very next seal tries again (under a fresh id, as every
                // attempt does). But a disk that cannot take checkpoints cannot bound
                // recovery time (or likely take WAL writes for long), so degrade:
                // stop acknowledging new mutations until the probe sees writes
                // succeed again.
                Err(error) => {
                    let failures = core
                        .health
                        .checkpoint_failures
                        .fetch_add(1, Ordering::Relaxed)
                        + 1;
                    eprintln!("kpg_server: {error} ({failures} consecutive)");
                    core.enter_degraded("checkpointing", &error);
                }
            }
        }
        // The channel closed. A core that is gone was dropped without a shutdown
        // checkpoint (as a crash would leave it); one that is alive asked for it.
        let Some(core) = core.upgrade() else { return };
        if tracker.checkpoint_stale() {
            match checkpoint(config, &tracker, &mut next_id, "final checkpoint") {
                Ok(watermark) => core.prune_wal(watermark),
                // Not fatal for this shutdown: the WAL was flushed by `close`, so
                // recovery replays it against the previous checkpoint instead.
                Err(error) => eprintln!("kpg_server: {error}"),
            }
        }
    }

    /// Blocks until every worker has consumed the recovery replay (the bootstrap and
    /// WAL-tail entries pre-loaded by [`ServerCore::durable`]). A no-op on in-memory
    /// cores. Serving connections only after this returns guarantees recovered state
    /// is fully rebuilt before the first live command sequences behind it.
    pub fn await_replayed(&self) {
        let mut log = self.log.lock().expect("command log poisoned");
        let target = log.replay_len;
        log.replay_waiters += 1;
        while !log.closed && log.cursors.iter().copied().min().unwrap_or(0) < target {
            log = self.consumed.wait(log).expect("command log poisoned");
        }
        log.replay_waiters -= 1;
    }

    /// Drops WAL segments wholly covered by a committed checkpoint.
    fn prune_wal(&self, watermark: u64) {
        let mut log = self.log.lock().expect("command log poisoned");
        if let Some(wal) = log.wal.as_mut() {
            // Pruning mutates the segment list, which only the sequencing lock
            // guards; the directory fsync it implies is accepted under the lock
            // because pruning is rare (once per checkpoint).
            let _fsync = kpg_sync::blocking::allow_blocking(
                "WAL pruning fsyncs the directory under the sequencing lock",
            );
            // Failure to prune is not failure to persist: the segments are retried
            // by the next checkpoint.
            let _ = wal.prune_below(watermark + 1);
        }
    }

    /// A point-in-time copy of the core's storage health. All zeros on an in-memory
    /// core (it has no storage to fail).
    pub fn health(&self) -> HealthSnapshot {
        HealthSnapshot {
            degraded: self.health.degraded.load(Ordering::SeqCst),
            wal_failures: self.health.wal_failures.load(Ordering::Relaxed),
            checkpoint_failures: self.health.checkpoint_failures.load(Ordering::Relaxed),
            degraded_transitions: self.health.degraded_transitions.load(Ordering::Relaxed),
            heals: self.health.heals.load(Ordering::Relaxed),
        }
    }

    /// Whether the core is currently rejecting mutating commands.
    pub fn is_degraded(&self) -> bool {
        self.health.degraded.load(Ordering::SeqCst)
    }

    /// The runtime retry budget (the config's on a durable core).
    fn retry_policy(&self) -> RetryPolicy {
        self.durable
            .as_ref()
            .map_or_else(RetryPolicy::default, |durable| durable.config.retry)
    }

    /// Flips the core into degraded read-only mode (idempotent; counts and logs the
    /// transition once).
    fn enter_degraded(&self, cause: &str, error: &dyn std::fmt::Display) {
        if !self.health.degraded.swap(true, Ordering::SeqCst) {
            self.health
                .degraded_transitions
                .fetch_add(1, Ordering::Relaxed);
            eprintln!(
                "kpg_server: {cause}: {error}; entering degraded read-only mode \
                 (mutations rejected, queries still served)"
            );
        }
    }

    /// One heal-probe attempt: flush the staged WAL batch (plus an fsync even when
    /// empty, so success genuinely demonstrates a writable disk) and, if it
    /// succeeds, resume accepting mutations.
    fn try_heal(&self) {
        let mut log = self.log.lock().expect("command log poisoned");
        if log.closed {
            return;
        }
        let state = &mut *log;
        if state.wal.is_none() {
            return;
        }
        let _fsync = kpg_sync::blocking::allow_blocking(
            "the heal probe retries the WAL flush under the sequencing lock",
        );
        // Single attempt per tick: the probe *is* the retry loop, and backing off
        // under the sequencing lock would stall queries that still work.
        match Self::group_commit(state, RetryPolicy::none()) {
            Ok(()) => {
                drop(log);
                self.health.wal_failures.store(0, Ordering::Relaxed);
                if self.health.degraded.swap(false, Ordering::SeqCst) {
                    self.health.heals.fetch_add(1, Ordering::Relaxed);
                    eprintln!(
                        "kpg_server: WAL writes succeed again; leaving degraded \
                         read-only mode"
                    );
                }
            }
            Err(_) => {
                self.health.wal_failures.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Has the checkpoint thread write a final checkpoint and waits for it. Called by
    /// the owner after the engine has drained (so every sealed epoch has been handed
    /// over); a no-op on in-memory cores. Idempotent.
    pub fn final_checkpoint(&self) {
        let Some(durable) = &self.durable else {
            return;
        };
        // Closing the channel is the request: the thread applies every epoch still
        // queued, then — finding the core alive — writes the shutdown checkpoint from
        // its own tracker if anything was logged since the last one, and exits.
        let sender = self
            .clients
            .lock()
            .expect("client state poisoned")
            .sealed_tx
            .take();
        drop(sender);
        let thread = durable
            .checkpoint_thread
            .lock()
            .expect("checkpoint thread poisoned")
            .take();
        if let Some(thread) = thread {
            let _ = thread.join();
        }
        // The probe notices the closed log on its next tick and exits.
        let probe = durable
            .probe_thread
            .lock()
            .expect("probe thread poisoned")
            .take();
        if let Some(probe) = probe {
            let _ = probe.join();
        }
    }

    /// Registers a client: allocates its id and the channel its responses arrive on,
    /// tagged with the per-client request index they answer.
    pub fn register_client(&self) -> (ClientId, mpsc::Receiver<(u64, Response)>) {
        let (sender, receiver) = mpsc::channel();
        let client = self.register_client_routed(Arc::new(ChannelRoute::new(sender)));
        (client, receiver)
    }

    /// Registers a client whose responses go through `route` instead of a
    /// dedicated channel — the reactor registers every socket-backed client with
    /// a clone of its shared queue route.
    pub fn register_client_routed(&self, route: Arc<dyn ResponseRoute>) -> ClientId {
        let client = self.next_client.fetch_add(1, Ordering::Relaxed);
        self.clients
            .lock()
            .expect("client state poisoned")
            .routes
            .insert(client, route);
        client
    }

    /// Sequences one command from `client` (answering its request number `reply`): a
    /// one-element [`ServerCore::submit_batch`], so single submissions take exactly the
    /// locks, checks and rejections the reactor's batches do.
    pub fn submit(&self, client: ClientId, reply: u64, command: Command) {
        self.submit_batch(std::iter::once((client, reply, command)));
    }

    /// Answers `client`'s request `reply` with the degraded-read-only plan error,
    /// without sequencing anything.
    fn reject_degraded(clients: &ClientState, client: ClientId, reply: u64) {
        if let Some(route) = clients.routes.get(&client) {
            let error = PlanError::DegradedReadOnly;
            route.deliver(
                client,
                reply,
                Response::PlanError {
                    code: error.code().to_string(),
                    message: error.to_string(),
                },
            );
        }
    }

    /// Responds to `client`'s request `reply` with a wire-level error, without touching
    /// the log (the command never existed as far as the engine is concerned).
    pub fn respond_wire_error(&self, client: ClientId, reply: u64, message: String) {
        let clients = self.clients.lock().expect("client state poisoned");
        if let Some(route) = clients.routes.get(&client) {
            route.deliver(client, reply, Response::WireError { message });
        }
    }

    /// Removes a departed client: unregisters its response route and enqueues
    /// `Uninstall`s for the queries it owns — and for nothing else. Ownership holds
    /// only successfully installed queries, so the cleanup can never remove another
    /// client's query or a shared input. Route removal and the cleanup appends happen
    /// under the same lock that sequences live submissions, so a racing `Install` of a
    /// just-freed name cannot slip in between; an install of this client still in
    /// flight is retired by the deposit that completes it (the route is already gone).
    pub fn disconnect(&self, client: ClientId) {
        let mut clients = self.clients.lock().expect("client state poisoned");
        clients.routes.remove(&client);
        let mut owned: Vec<String> = clients
            .owners
            .iter()
            .filter(|(_, owner)| **owner == client)
            .map(|(name, _)| name.clone())
            .collect();
        owned.sort_unstable();
        for name in &owned {
            clients.owners.remove(name);
        }
        for name in owned {
            self.append_cleanup(name);
        }
    }

    /// Closes the log: workers drain what is already sequenced, then exit. Submissions
    /// after close are ignored. On a durable core the group-commit buffer is flushed
    /// and fsynced (best-effort — a disk still failing at shutdown loses only records
    /// that were never acknowledged as durable), so an orderly shutdown on a healthy
    /// disk loses nothing, epoch boundary or not.
    pub fn close(&self) {
        let mut log = self.log.lock().expect("command log poisoned");
        let state = &mut *log;
        if state.wal.is_some() {
            // Deliberate fsync under the sequencing lock: close must flush the
            // group-commit buffer before any later submission could observe the
            // closed flag, or the tail of the log would be acknowledged-but-lost.
            let _fsync = kpg_sync::blocking::allow_blocking(
                "close flushes the WAL under the sequencing lock",
            );
            if let Err(error) = Self::group_commit(state, self.retry_policy()) {
                // Exit without claiming durability: everything in the flushed
                // prefix is safe, and nothing past it was ever acknowledged as
                // durable (epochs only ack after their fsync).
                eprintln!(
                    "kpg_server: shutdown could not flush {} staged WAL record(s); \
                     they were never acknowledged as durable: {error}",
                    state.wal_pending.len()
                );
            }
        }
        state.closed = true;
        drop(log);
        self.grown.ring();
        self.consumed.notify_all();
    }

    /// A snapshot of the retained command log, in execution order. On a core built
    /// with [`ServerCore::with_history`] this is the complete stream a single
    /// `Manager` could replay to reproduce the server's state (the determinism the
    /// session tests check); on a default core, entries every worker has consumed are
    /// pruned and absent.
    pub fn command_log(&self) -> Vec<Command> {
        self.log
            .lock()
            .expect("command log poisoned")
            .entries
            .iter()
            .map(|entry| entry.command.clone())
            .collect()
    }

    /// How many log entries are currently held in memory (after pruning).
    pub fn retained_log_len(&self) -> usize {
        self.log.lock().expect("command log poisoned").entries.len()
    }

    /// Sequences a server-generated `Uninstall { name }` (disconnect cleanup) under its
    /// own log-lock acquisition; the caller holds the client-state lock. Ignored once
    /// the log is closed.
    fn append_cleanup(&self, name: String) {
        let mut log = self.log.lock().expect("command log poisoned");
        if log.closed {
            return;
        }
        // An Uninstall stages without flushing, so this cannot fail (only an
        // AdvanceTime's group commit can): the cleanup lands even while degraded.
        let _ = self.append_locked(&mut log, None, Command::Uninstall { name });
        drop(log);
        self.grown.ring();
    }

    /// Sequences `command` under an already-held log lock, staging it in the WAL batch
    /// on a durable core, *without* ringing the worker doorbell — the batch submission
    /// path appends many commands under one lock acquisition and rings once for all of
    /// them. The caller must have checked `closed`. `Err(())` means an `AdvanceTime`'s
    /// group commit failed past its retry budget: the advance was unstaged, nothing was
    /// sequenced, and the core is now degraded — only `AdvanceTime` can fail here.
    fn append_locked(
        &self,
        log: &mut LogState,
        origin: Option<(ClientId, u64)>,
        command: Command,
    ) -> Result<u64, ()> {
        let state = log;
        // Durable path: log every state-defining command (reads are not state) under
        // the sequencing lock, so WAL order is log order. Records accumulate in the
        // group-commit buffer; sequencing an `AdvanceTime` commits and fsyncs the
        // whole epoch, which is why an acknowledged epoch advance implies durability
        // of everything at or before it. A durable server that cannot write its log
        // must not acknowledge an epoch: the advance is rejected, its record
        // unstaged, and the core degrades to read-only until the probe heals it.
        // Earlier records of the unfinished epoch stay staged — their commands were
        // acknowledged only as sequenced, never as durable, and the heal probe (or
        // the next successful advance) flushes them.
        let wal_seq = if state.wal.is_some() && !matches!(command, Command::Query { .. }) {
            let wal_seq = state.next_wal_seq;
            state.wal_pending.put(wal_seq, command.encode());
            if matches!(command, Command::AdvanceTime { .. }) {
                // Deliberate fsync under the sequencing lock: WAL order must
                // equal log order, so the epoch's group commit happens before
                // any later command can sequence. This is the group-commit
                // protocol, not an accident — hence the explicit opt-in.
                let _fsync = kpg_sync::blocking::allow_blocking(
                    "group commit fsyncs the epoch under the sequencing lock",
                );
                // While degraded, don't even try: the probe owns retries, and a
                // failing disk under the sequencing lock would stall every client.
                // (Reached when the checkpoint thread degraded the core after
                // `submit_batch`'s up-front check passed.)
                if self.is_degraded() {
                    state.wal_pending.remove(wal_seq);
                    return Err(());
                }
                match Self::group_commit(state, self.retry_policy()) {
                    Ok(()) => self.health.wal_failures.store(0, Ordering::Relaxed),
                    Err(error) => {
                        state.wal_pending.remove(wal_seq);
                        self.health.wal_failures.fetch_add(1, Ordering::Relaxed);
                        self.enter_degraded("WAL group commit", &error);
                        return Err(());
                    }
                }
            }
            state.next_wal_seq = wal_seq + 1;
            Some(wal_seq)
        } else {
            None
        };
        let seq = state.base + state.entries.len() as u64;
        state.entries.push_back(Arc::new(SequencedCommand {
            seq,
            origin,
            wal_seq,
            command,
        }));
        Ok(seq)
    }

    /// Sequences a whole batch of client commands under **one** acquisition of
    /// each lock: one client-state pass (degraded checks and the
    /// Uninstall-at-submit ownership edits), one log pass (WAL staging for every
    /// command, group commit wherever an `AdvanceTime` falls), and one doorbell
    /// ring for the entire batch. This is the reactor's submission path: however
    /// many connections became readable in one wakeup, the sequencer lock is
    /// taken once, not once per command. Batch order is append order is
    /// arbitration order.
    ///
    /// Degradation mid-batch behaves exactly like degradation mid-stream: once a
    /// group commit fails, every later mutation in the batch is rejected with
    /// `degraded-read-only` (queries still pass). Rejections are delivered after
    /// the log lock is released, in batch order, which precedes any execution
    /// response for later commands (workers cannot deposit while this thread
    /// holds the client-state lock). Returns the number of commands sequenced.
    pub fn submit_batch(&self, batch: impl IntoIterator<Item = (ClientId, u64, Command)>) -> usize {
        let mut clients = self.clients.lock().expect("client state poisoned");
        let mut log = self.log.lock().expect("command log poisoned");
        let mut rejected: Vec<(ClientId, u64)> = Vec::new();
        let mut sequenced = 0;
        for (client, reply, command) in batch {
            // Submissions after close are ignored.
            if log.closed {
                continue;
            }
            // Degraded read-only mode: a core that cannot persist mutations refuses them
            // up front rather than acknowledging work it may lose. Queries pass — the
            // in-memory state is intact and reads were never logged anyway. Checked
            // before the Uninstall-at-submit ownership edit below, so a rejected
            // uninstall leaves ownership untouched.
            if !matches!(command, Command::Query { .. }) && self.is_degraded() {
                rejected.push((client, reply));
                continue;
            }
            // An Uninstall frees the name *at submit*: once one is sequenced, no
            // disconnect between now and its execution may still count the query as owned
            // (a cleanup Uninstall sequenced behind it would fall through to a same-named
            // input). Install claims happen at completion, never here — see `deposit`.
            if let Command::Uninstall { name } = &command {
                clients.owners.remove(name);
            }
            match self.append_locked(&mut log, Some((client, reply)), command) {
                Ok(_) => sequenced += 1,
                // The group commit for this epoch failed past its retry budget: the
                // advance was unstaged and never sequenced, and the core is now
                // degraded. Answer the client honestly instead of acknowledging.
                Err(()) => rejected.push((client, reply)),
            }
        }
        drop(log);
        for (client, reply) in rejected {
            Self::reject_degraded(&clients, client, reply);
        }
        drop(clients);
        if sequenced > 0 {
            self.grown.ring();
        }
        sequenced
    }

    /// Commits and fsyncs the staged WAL batch, clearing it on success. On failure
    /// the batch stays staged so a later attempt can retry — the WAL repairs itself
    /// back to its synced prefix first, so retries never duplicate records.
    fn group_commit(state: &mut LogState, policy: RetryPolicy) -> Result<(), StoreError> {
        let wal = state.wal.as_mut().expect("group commit requires a WAL");
        let pending = &state.wal_pending;
        policy.run("WAL group commit", || {
            wal.commit(pending)?;
            wal.sync()
        })?;
        state.wal_pending = WalBatch::new();
        Ok(())
    }

    /// The log entry at position `from`, blocking until it exists; records that
    /// `worker` has consumed everything below `from` (and prunes what everyone has).
    /// `None` once the log is closed and drained.
    fn next_command(&self, worker: usize, from: u64) -> Option<Arc<SequencedCommand>> {
        {
            let mut log = self.log.lock().expect("command log poisoned");
            log.cursors[worker] = from;
            // Only `await_replayed` ever waits on `consumed`, and only during
            // startup recovery — skip the notify syscall on every later command.
            if log.replay_waiters > 0 {
                self.consumed.notify_all();
            }
            log.prune();
            // Fast path: during a drained batch the next entry is already
            // sequenced — return it under the lock we hold instead of paying a
            // second acquisition (and an epoch load) per command.
            let index = from.checked_sub(log.base).expect("cursor below log base") as usize;
            if let Some(entry) = log.entries.get(index) {
                return Some(Arc::clone(entry));
            }
            if log.closed {
                return None;
            }
        }
        // The doorbell discipline (model-checked in kpg_sync): snapshot the
        // epoch, check the log, park only if nothing rang since the snapshot. A
        // ring between the check and the park advances the epoch past `seen`, so
        // `wait` returns immediately — no lost wakeup. Unlike the condvar this
        // replaces, waiting holds no lock, so a batch append never contends with
        // parked workers.
        loop {
            let seen = self.grown.epoch();
            {
                let log = self.log.lock().expect("command log poisoned");
                let index = from.checked_sub(log.base).expect("cursor below log base") as usize;
                if let Some(entry) = log.entries.get(index) {
                    return Some(Arc::clone(entry));
                }
                if log.closed {
                    return None;
                }
            }
            self.grown.wait(seen);
        }
    }

    /// One worker's service loop: a private [`Manager`] fed the shared log in order.
    /// Runs until the core is closed. Exposed so embedders (and the arbitration tests)
    /// can drive the engine through [`execute`] themselves.
    pub fn worker_loop(&self, worker: &mut Worker) {
        let mut manager = Manager::new();
        let mut next = 0u64;
        while let Some(entry) = self.next_command(worker.index(), next) {
            next = entry.seq + 1;
            // Settle before reading: Manager::query answers over everything sealed,
            // i.e. every time strictly before the current epoch, which is exactly what
            // settle brings into the query's result arrangement — so the answer is
            // deterministic (and equal to a single-manager replay). The read applies no
            // time filter: a settled arrangement holds nothing later, and compaction
            // moves sealed times up to the current epoch.
            if matches!(entry.command, Command::Query { .. }) {
                manager.settle(worker);
            }
            let result = manager.execute(worker, entry.command.clone());
            self.deposit(&entry, result);
        }
    }

    /// The client currently owning the live query `name`, if any. Ownership follows
    /// completions (see the module docs), so this is the arbitration's verdict — the
    /// model-checking tests assert its consistency across every interleaving.
    pub fn owner_of(&self, name: &str) -> Option<ClientId> {
        self.clients
            .lock()
            .expect("client state poisoned")
            .owners
            .get(name)
            .copied()
    }

    /// [`ServerCore::worker_loop`] with the dataflow swapped out: consumes the log in
    /// order like a real worker, but executes each command through `step` instead of a
    /// [`Manager`]. This is the seam the deterministic-schedule tests drive — the
    /// sequencing, aggregation, and ownership protocol under test is exactly the real
    /// one; only the (already deterministic) dataflow execution is stubbed.
    #[cfg(feature = "model")]
    pub fn model_worker_loop<F>(&self, worker: usize, mut step: F)
    where
        F: FnMut(&Command) -> Result<PlanResponse, PlanError>,
    {
        let mut next = 0u64;
        while let Some(entry) = self.next_command(worker, next) {
            next = entry.seq + 1;
            let result = step(&entry.command);
            self.deposit(&entry, result);
        }
    }

    /// Records one worker's result for `entry`; the final deposit merges, converts to
    /// the wire [`Response`], applies the completion's ownership effect, and
    /// dispatches to the origin client. All of it happens under the client-state
    /// lock, and completions occur in log order (every worker deposits in log order),
    /// so ownership and response order are both log-order consistent.
    fn deposit(&self, entry: &Arc<SequencedCommand>, result: Result<PlanResponse, PlanError>) {
        let mut clients = self.clients.lock().expect("client state poisoned");
        let workers = self.workers;
        let pending = clients.pending.entry(entry.seq).or_insert(PendingResponse {
            remaining: workers,
            outcome: Outcome::Plain,
        });
        match result {
            Err(error) => {
                // Deterministic command streams fail identically everywhere; keep the
                // first rendering.
                if !matches!(pending.outcome, Outcome::Failed(_)) {
                    pending.outcome = Outcome::Failed(error);
                }
            }
            Ok(PlanResponse::Rows(rows)) => {
                // Each worker holds one shard of the query's output; the answer is the
                // union with multiplicities summed.
                if !matches!(pending.outcome, Outcome::Rows(_)) {
                    pending.outcome = Outcome::Rows(BTreeMap::new());
                }
                if let Outcome::Rows(accumulated) = &mut pending.outcome {
                    for (row, diff) in rows {
                        *accumulated.entry(row).or_insert(0) += diff;
                    }
                }
            }
            Ok(_) => {}
        }
        pending.remaining -= 1;
        if pending.remaining > 0 {
            return;
        }
        let pending = clients
            .pending
            .remove(&entry.seq)
            .expect("completed response present");
        let succeeded = !matches!(pending.outcome, Outcome::Failed(_));
        self.apply_ownership(&mut clients, entry, succeeded);
        // Durable path: collect the completion for the checkpoint thread. Completions
        // occur in log order (and are serialized by the clients lock we hold), so the
        // open epoch's vector is in log order, and when an `AdvanceTime` completes it
        // is exactly the WAL records since the previous seal that took effect — the
        // delta between two consistent cuts. Failed commands change nothing (and
        // re-fail deterministically if ever replayed), so they are left out.
        // (Only a durable core assigns WAL sequence numbers: an in-memory one pays
        // this one `Option` test.)
        if succeeded && entry.wal_seq.is_some() {
            clients.open_epoch.push(Arc::clone(entry));
            if matches!(entry.command, Command::AdvanceTime { .. }) {
                // The next epoch is probably this one's size: one allocation, not a
                // doubling series under the lock.
                let next = Vec::with_capacity(clients.open_epoch.len());
                let epoch = std::mem::replace(&mut clients.open_epoch, next);
                let sealed = clients.sealed_tx.as_ref();
                if sealed.is_some_and(|sealed| sealed.send(epoch).is_err()) {
                    // The receiver is gone with our sender still open: the checkpoint
                    // thread died (a panic — it exits cleanly only once the channel
                    // is closed). Nothing acknowledged is lost, the WAL holds every one
                    // of these commands, but no checkpoint will ever bound recovery
                    // or prune the log again. Report it the way a failing checkpoint
                    // disk is reported, at every seal, so it cannot pass unseen.
                    self.health
                        .checkpoint_failures
                        .fetch_add(1, Ordering::Relaxed);
                    self.enter_degraded("checkpointing", &"the checkpoint thread has died");
                }
            }
        }
        let response = match pending.outcome {
            Outcome::Plain => Response::Ok,
            Outcome::Failed(error) => Response::PlanError {
                code: error.code().to_string(),
                message: error.to_string(),
            },
            Outcome::Rows(accumulated) => {
                let mut rows = Vec::new();
                let mut diffs = Vec::new();
                for (row, diff) in accumulated {
                    if diff != 0 {
                        rows.push(row);
                        diffs.push(diff as i64);
                    }
                }
                Response::QueryResults { rows, diffs }
            }
        };
        if let Some((client, reply)) = entry.origin {
            if let Some(route) = clients.routes.get(&client) {
                route.deliver(client, reply, response);
            }
        }
    }

    /// The ownership effect of a completed command. Only a *successful* `Install`
    /// claims its name — for its submitter if still connected, or, if the submitter
    /// departed while the install was in flight, the fresh query is retired right
    /// here (the disconnect could not see it). A successful `Uninstall` frees the
    /// name whoever issued it.
    fn apply_ownership(&self, clients: &mut ClientState, entry: &SequencedCommand, ok: bool) {
        if !ok {
            return;
        }
        match (&entry.command, entry.origin) {
            (Command::Install { name, .. }, Some((client, _))) => {
                if clients.routes.contains_key(&client) {
                    clients.owners.insert(name.clone(), client);
                } else {
                    clients.owners.remove(name);
                    self.append_cleanup(name.clone());
                }
            }
            (Command::Uninstall { name }, _) => {
                clients.owners.remove(name);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    /// A checkpoint thread that dies (here: handed an entry no deposit would ever
    /// send) must not fail silently. Every later seal finds the channel's receiver
    /// gone, counts a checkpoint failure and degrades, exactly as a disk that cannot
    /// take checkpoints does — and nothing acknowledged is lost: the WAL has it all.
    #[test]
    fn a_dead_checkpoint_thread_shows_in_health() {
        let dir = std::env::temp_dir().join(format!("kpg-engine-dead-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut config = DurabilityConfig::new(&dir);
        config.probe_interval = Duration::from_millis(5);
        let core = Arc::new(ServerCore::durable(1, false, config.clone()).expect("open"));
        let engine = core.start();
        let unlogged = Arc::new(SequencedCommand {
            seq: 0,
            origin: None,
            wal_seq: None,
            command: Command::AdvanceTime { epoch: 1 },
        });
        let sender = core.clients.lock().unwrap().sealed_tx.clone();
        sender
            .expect("a started durable core feeds its checkpoint thread")
            .send(vec![unlogged])
            .expect("the thread is still alive");

        let (client, responses) = core.register_client();
        let mut acked = 0u64;
        let deadline = Instant::now() + Duration::from_secs(30);
        while core.health().checkpoint_failures == 0 {
            assert!(
                Instant::now() < deadline,
                "the dead thread was never noticed"
            );
            core.submit(client, acked, Command::AdvanceTime { epoch: acked + 1 });
            match responses.recv().expect("every command is answered") {
                (_, Response::Ok) => acked += 1,
                // Degraded by an earlier seal whose count this loop is about to read.
                (_, Response::PlanError { code, .. }) => assert_eq!(code, "degraded-read-only"),
                (_, other) => panic!("unexpected response: {other:?}"),
            }
        }
        assert!(core.health().degraded_transitions >= 1);
        core.close();
        engine.join().expect("engine exits");
        core.final_checkpoint();
        drop(core);

        let recovered = recover(&config).expect("recover");
        assert!(recovered.bootstrap.is_empty(), "no checkpoint was ever cut");
        let sealed: Vec<u64> = recovered
            .tail
            .iter()
            .map(|(_, command)| match command {
                Command::AdvanceTime { epoch } => *epoch,
                other => panic!("unexpected WAL record: {other:?}"),
            })
            .collect();
        assert_eq!(sealed, (1..=acked).collect::<Vec<_>>());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
