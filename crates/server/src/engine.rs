//! The sequencer core: one totally ordered command log, executed by every worker.
//!
//! PR 4's invariant is that a [`Manager`](kpg_plan::Manager) is deterministic when
//! every worker executes the *same* command stream in the same order. A multi-client
//! server therefore has exactly one job at its heart: turn concurrently arriving
//! per-client command streams into one total order, and fan every worker's
//! (identical) results back to the client that asked. [`ServerCore`] is that job,
//! with the network left out so tests can pin its arbitration rules
//! deterministically. It owns no lock: it composes four private modules, each the
//! sole owner of its state, whose call graph is one line —
//!
//! ```text
//! aggregate  →  sequencer  →  commit            worker: sequencer, then aggregate
//! (clients)     (log)         (wal, threads)    (holds nothing across a step)
//! ```
//!
//! — and a lock is only ever taken while holding one to its left. `sequencer` and
//! `commit` are plain structs that cannot see the core (so neither can call back up);
//! `aggregate` and `worker`, above everything, implement their share of
//! [`ServerCore`]'s methods in place. Each module's docs say what it owns, what it
//! may call, and which lock it holds when it does.
//!
//! [`ServerCore::start`] runs every dataflow worker on the doorbell loop. The socket
//! server starts the same engine with worker 0's loop swapped for its reactor
//! (`start_with`), so a command read from a socket is executed, deposited and
//! written back by the thread that read it; workers 1..N-1 are unchanged.

use kpg_sync::thread::JoinHandle;
use kpg_sync::{Arc, Mutex};
use std::io;

use kpg_dataflow::{execute, Config, Worker};
use kpg_plan::Command;

use crate::aggregate::Aggregate;
use crate::commit::{Commit, Opened};
use crate::durability::DurabilityConfig;
use crate::sequencer::Sequencer;

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
    pub(crate) workers: usize,
    // Declaration order is drop order: both references to the commit path go before
    // `aggregate` drops the seals and thereby closes the checkpoint thread's channel,
    // so a core dropped without `final_checkpoint` finds that thread unable to
    // upgrade — no shutdown checkpoint, as the crash it stands for would leave it
    // (`tests/recovery.rs` builds its crash states this way).
    pub(crate) commit: Arc<Commit>,
    pub(crate) sequencer: Sequencer,
    pub(crate) aggregate: Aggregate,
}

impl ServerCore {
    /// A core that will drive `workers` dataflow workers, pruning log entries once
    /// every worker has consumed them (the long-lived-server default).
    pub fn new(workers: usize) -> Self {
        Self::compose(workers, false, Commit::in_memory())
    }

    /// Like [`ServerCore::new`], but the log retains every command ever sequenced, so
    /// [`ServerCore::command_log`] is the complete replayable history.
    pub fn with_history(workers: usize) -> Self {
        Self::compose(workers, true, Commit::in_memory())
    }

    /// A durable core: recovers the state persisted in `config.dir` (if any) and
    /// pre-loads the log with the recovery replay — the synthesized checkpoint
    /// bootstrap followed by the WAL tail. Callers should [`ServerCore::start`] the
    /// engine and then [`ServerCore::await_replayed`] before exposing the core to
    /// clients, so recovered state is settled before the first live command.
    pub fn durable(workers: usize, retain: bool, config: DurabilityConfig) -> io::Result<Self> {
        Ok(Self::compose(workers, retain, Commit::durable(config)?))
    }

    fn compose(workers: usize, retain: bool, (commit, seals, replay): Opened) -> Self {
        let workers = workers.max(1);
        ServerCore {
            workers,
            sequencer: Sequencer::new(workers, retain, Arc::clone(&commit), replay),
            commit,
            aggregate: Aggregate::new(seals),
        }
    }

    /// The number of dataflow workers this core drives.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Starts the worker pool on a background thread. The thread exits once
    /// [`ServerCore::close`] is called and the log is drained. On a durable core this
    /// also starts the checkpoint thread and the heal probe.
    pub fn start(self: &Arc<Self>) -> JoinHandle<()> {
        let core = Arc::clone(self);
        self.start_with(move |worker| core.worker_loop(worker))
    }

    /// [`ServerCore::start`] with worker 0's service swapped for `first`: the socket
    /// server runs its reactor there (`net.rs`). Workers 1..N-1 run
    /// [`ServerCore::worker_loop`]. `first` must consume the log to its close like any
    /// worker, or the others wait at the next barrier for a peer that has left.
    pub(crate) fn start_with(
        self: &Arc<Self>,
        first: impl FnOnce(&mut Worker) + Send + 'static,
    ) -> JoinHandle<()> {
        self.commit.start();
        let core = Arc::clone(self);
        let first = Mutex::new(Some(first));
        kpg_sync::thread::Builder::new()
            .name("kpg-server-engine".to_string())
            .spawn(move || {
                execute(Config::new(core.workers), move |worker| {
                    let first = match worker.index() {
                        0 => first.lock().expect("worker 0's service poisoned").take(),
                        _ => None,
                    };
                    match first {
                        Some(first) => first(worker),
                        None => core.worker_loop(worker),
                    }
                });
            })
            .expect("failed to spawn the server engine thread")
    }

    /// [`ServerCore::start`]'s durable half without the engine and the heal probe:
    /// the deterministic-schedule tests drive the workers themselves
    /// ([`ServerCore::model_worker_loop`]) and need only the checkpoint thread.
    #[cfg(feature = "model")]
    pub fn model_start_checkpointer(self: &Arc<Self>) {
        self.commit.start_checkpointer();
    }

    /// Blocks until every worker has consumed the recovery replay (the bootstrap and
    /// WAL-tail entries pre-loaded by [`ServerCore::durable`]). A no-op on in-memory
    /// cores. Serving connections only after this returns guarantees recovered state
    /// is fully rebuilt before the first live command sequences behind it.
    pub fn await_replayed(&self) {
        self.sequencer.await_replayed();
    }

    /// A point-in-time copy of the core's storage health. All zeros on an in-memory
    /// core (it has no storage to fail).
    pub fn health(&self) -> HealthSnapshot {
        self.commit.health()
    }

    /// Whether the core is currently rejecting mutating commands.
    pub fn is_degraded(&self) -> bool {
        self.commit.is_degraded()
    }

    /// Has the checkpoint thread write a final checkpoint and waits for it. Called by
    /// the owner after the engine has drained (so every sealed epoch has been handed
    /// over); a no-op on in-memory cores. Idempotent.
    pub fn final_checkpoint(&self) {
        self.commit.final_checkpoint(self.aggregate.take_seals());
    }

    /// Closes the log: workers drain what is already sequenced, then exit. Submissions
    /// after close are ignored. On a durable core the group-commit buffer is flushed
    /// and fsynced (best-effort — a disk still failing at shutdown loses only records
    /// that were never acknowledged as durable), so an orderly shutdown on a healthy
    /// disk loses nothing, epoch boundary or not.
    pub fn close(&self) {
        self.sequencer.close();
    }

    /// A snapshot of the retained command log, in execution order. On a core built
    /// with [`ServerCore::with_history`] this is the complete stream a single
    /// `Manager` could replay to reproduce the server's state (the determinism the
    /// session tests check); on a default core, entries every worker has consumed are
    /// pruned and absent.
    pub fn command_log(&self) -> Vec<Command> {
        self.sequencer.command_log()
    }

    /// How many log entries are currently held in memory (after pruning).
    pub fn retained_log_len(&self) -> usize {
        self.sequencer.retained_len()
    }
}
