//! The commit path: what makes a sequenced command durable, and what happens when
//! the disk says no.
//!
//! **Owns** the `wal` lock (the WAL, its group-commit buffer, the checkpoint and
//! heal-probe threads' handles), the storage-health counters, and [`Seals`].
//! **Calls** `durability` and `kpg_store` only: the bottom of
//! `aggregate → sequencer → commit`. **Is called** by the sequencer holding the log
//! lock ([`Commit::stage`], [`Commit::flush_for_shutdown`] — WAL order must equal log
//! order, so the epoch's fsync cannot move outside it), by `aggregate` holding the
//! client-state lock ([`Seals::completed`], which only pushes and sends), and by its
//! own two threads holding nothing. Every fsync under a lock is in this file, in an
//! `allow_blocking` scope that says why.
//!
//! **Durable or in-memory is decided here, once**: [`Commit::in_memory`] is the same
//! type with no WAL — it stages nothing, assigns no WAL sequence number (so nothing
//! enters its [`Seals`]), spawns no thread and reports all-zero health. No other
//! module names the WAL, the tracker or the configuration. Checkpoints and recovery
//! themselves are [`crate::durability`]'s: a checkpoint is one `ckpt-<id>.run` of
//! wire-encoded commands committed by rename, and all this file knows of it is the id
//! counter it carries from recovery (one above the newest committed file) to the
//! checkpoint thread, which only ever raises it.

use kpg_sync::atomic::{AtomicBool, AtomicU64, Ordering};
use kpg_sync::blocking::allow_blocking;
use kpg_sync::thread::{Builder, JoinHandle};
use kpg_sync::{mpsc, Arc, Mutex, MutexGuard, Weak};
use std::io;

use kpg_plan::Command;
use kpg_store::{RetryPolicy, StoreError, Wal, WalBatch};
use kpg_wire::WireCodec;

use crate::durability::{checkpoint, recover, DurabilityConfig, StateTracker};
use crate::engine::{HealthSnapshot, SequencedCommand};

/// What crosses the channel to the checkpoint thread: one sealed epoch's successful,
/// WAL-logged completions in log order, the sealing `AdvanceTime` last.
type SealedEpoch = Vec<Arc<SequencedCommand>>;

/// The live form of [`HealthSnapshot`], field for field. Atomics, not a lock: the hot
/// submit path reads `degraded` on every mutating command.
#[derive(Default)]
struct HealthState {
    degraded: AtomicBool,
    wal_failures: AtomicU64,
    checkpoint_failures: AtomicU64,
    degraded_transitions: AtomicU64,
    heals: AtomicU64,
}

/// What the `wal` lock guards. Staging happens with the sequencer's log lock held
/// outside this one — sequencing order *is* WAL order.
struct WalState {
    wal: Wal,
    /// Commands logged since the last epoch fsync.
    pending: WalBatch,
    next_seq: u64,
    /// The recovered tracker, the next checkpoint id and the sealed-epoch receiver,
    /// parked here only until [`Commit::start_checkpointer`] moves them onto the
    /// checkpoint thread's stack. Nothing else ever reads or clones the tracker.
    seed: Option<(StateTracker, u64, mpsc::Receiver<SealedEpoch>)>,
    /// The checkpoint thread, then the heal probe: joined by the final checkpoint.
    running: Vec<JoinHandle<()>>,
}

impl WalState {
    /// Commits and fsyncs the staged batch, clearing it on success. On failure the
    /// batch stays staged so a later attempt can retry — the WAL repairs itself back
    /// to its synced prefix first, so retries never duplicate records.
    fn group_commit(&mut self, policy: RetryPolicy) -> Result<(), StoreError> {
        let (wal, pending) = (&mut self.wal, &self.pending);
        policy.run("WAL group commit", || {
            wal.commit(pending)?;
            wal.sync()
        })?;
        self.pending = WalBatch::new();
        Ok(())
    }
}

struct Durable {
    config: DurabilityConfig,
    wal: Mutex<WalState>,
    /// Set by the shutdown flush, under the `wal` lock; the heal probe exits when it
    /// sees it. An atomic, so a probe tick on a healthy core takes no lock.
    closed: AtomicBool,
}

impl Durable {
    fn wal(&self) -> MutexGuard<'_, WalState> {
        self.wal.lock().expect("WAL poisoned")
    }
}

/// The commit path of one core — see the module docs.
#[derive(Default)]
pub(crate) struct Commit {
    health: HealthState,
    durable: Option<Durable>,
}

/// The open epoch on its way to the checkpoint thread. `aggregate` keeps it under the
/// client-state lock, which already serialises completions in log order: collecting
/// costs a push, not a lock. The in-memory form has no channel and holds nothing.
#[derive(Default)]
pub(crate) struct Seals {
    open: SealedEpoch,
    tx: Option<mpsc::Sender<SealedEpoch>>,
}

impl Seals {
    /// Notes that `entry` completed successfully on every worker. Failed commands
    /// change nothing (and re-fail deterministically if ever replayed), so the caller
    /// leaves them out; `Query`s and recovery-bootstrap entries carry no `wal_seq` and
    /// are left out here — the one test an in-memory core pays. The completion of an
    /// `AdvanceTime` hands the epoch — exactly the WAL records since the previous seal
    /// that took effect, the delta between two consistent cuts — to the thread.
    #[inline]
    pub(crate) fn completed(&mut self, entry: &Arc<SequencedCommand>, commit: &Commit) {
        if entry.wal_seq.is_none() {
            return;
        }
        self.open.push(Arc::clone(entry));
        if !matches!(entry.command, Command::AdvanceTime { .. }) {
            return;
        }
        // The next epoch is probably this one's size: one allocation, not a doubling
        // series under the caller's lock.
        let next = Vec::with_capacity(self.open.len());
        let epoch = std::mem::replace(&mut self.open, next);
        if self.tx.as_ref().is_some_and(|tx| tx.send(epoch).is_err()) {
            // The receiver is gone with our sender still open: the checkpoint thread
            // died (a panic — it exits cleanly only once the channel is closed).
            // Nothing acknowledged is lost, the WAL holds every one of these commands,
            // but no checkpoint will ever bound recovery or prune the log again.
            // Report it the way a failing checkpoint disk is reported, at every seal,
            // so it cannot pass unseen.
            let health = &commit.health;
            health.checkpoint_failures.fetch_add(1, Ordering::Relaxed);
            commit.enter_degraded("checkpointing", &"the checkpoint thread has died");
        }
    }
}

/// What opening a commit path yields: the path, the [`Seals`] feeding its checkpoint
/// thread, and the recovery replay the log must start with — `(wal_seq, command)`,
/// `None` for the synthesized checkpoint bootstrap (already durable, never re-logged).
pub(crate) type Opened = (Arc<Commit>, Seals, Vec<(Option<u64>, Command)>);

impl Commit {
    /// The commit path of an in-memory core: nothing to recover, nothing to stage.
    pub(crate) fn in_memory() -> Opened {
        (Arc::default(), Seals::default(), Vec::new())
    }

    /// Recovers the state persisted in `config.dir` (if any) and opens its WAL.
    pub(crate) fn durable(config: DurabilityConfig) -> io::Result<Opened> {
        let recovered = recover(&config)?;
        let bootstrap = recovered.bootstrap.into_iter();
        let tail = recovered.tail.into_iter();
        let replay = bootstrap.map(|command| (None, command));
        let replay = replay.chain(tail.map(|(wal_seq, command)| (Some(wal_seq), command)));
        let (tx, sealed) = mpsc::channel();
        let durable = Durable {
            config,
            wal: Mutex::new(WalState {
                wal: recovered.wal,
                pending: WalBatch::new(),
                next_seq: recovered.next_wal_seq,
                seed: Some((recovered.tracker, recovered.next_checkpoint_id, sealed)),
                running: Vec::new(),
            }),
            closed: AtomicBool::new(false),
        };
        let commit = Commit {
            durable: Some(durable),
            ..Commit::default()
        };
        let seals = Seals {
            tx: Some(tx),
            ..Seals::default()
        };
        Ok((Arc::new(commit), seals, replay.collect()))
    }

    /// Locks the WAL, for the threads only a durable commit path spawns.
    fn wal(&self) -> MutexGuard<'_, WalState> {
        let durable = self.durable.as_ref().expect("threads imply durable");
        durable.wal()
    }

    pub(crate) fn health(&self) -> HealthSnapshot {
        HealthSnapshot {
            degraded: self.is_degraded(),
            wal_failures: self.health.wal_failures.load(Ordering::Relaxed),
            checkpoint_failures: self.health.checkpoint_failures.load(Ordering::Relaxed),
            degraded_transitions: self.health.degraded_transitions.load(Ordering::Relaxed),
            heals: self.health.heals.load(Ordering::Relaxed),
        }
    }

    #[inline]
    pub(crate) fn is_degraded(&self) -> bool {
        self.health.degraded.load(Ordering::SeqCst)
    }

    /// Flips into degraded read-only mode (idempotent; counts and logs the
    /// transition once).
    fn enter_degraded(&self, cause: &str, error: &dyn std::fmt::Display) {
        let health = &self.health;
        if !health.degraded.swap(true, Ordering::SeqCst) {
            health.degraded_transitions.fetch_add(1, Ordering::Relaxed);
            eprintln!(
                "kpg_server: {cause}: {error}; entering degraded read-only mode \
                 (mutations rejected, queries still served)"
            );
        }
    }

    /// Stages `command` for the log position the caller is about to give it (the
    /// caller holds the log lock) and returns its WAL sequence number — `None` for
    /// reads (not state) and on an in-memory core. Records accumulate in the
    /// group-commit buffer; an `AdvanceTime` commits and fsyncs the whole epoch, which
    /// is why an acknowledged advance implies durability of everything at or before
    /// it. A durable server that cannot write its log must not acknowledge an epoch:
    /// `Err(())` means the advance was unstaged, must not be sequenced, and the core is
    /// now degraded (only `AdvanceTime` can fail). Earlier records of the unfinished
    /// epoch stay staged — their commands were acknowledged only as sequenced, never as
    /// durable — and the probe, or the next successful advance, flushes them.
    #[inline]
    pub(crate) fn stage(&self, command: &Command) -> Result<Option<u64>, ()> {
        match &self.durable {
            Some(durable) if !matches!(command, Command::Query { .. }) => {
                self.stage_durable(durable, command).map(Some)
            }
            _ => Ok(None),
        }
    }

    fn stage_durable(&self, durable: &Durable, command: &Command) -> Result<u64, ()> {
        let mut state = durable.wal();
        let wal_seq = state.next_seq;
        state.pending.put(wal_seq, command.encode());
        if matches!(command, Command::AdvanceTime { .. }) {
            // Deliberate fsync under the sequencing lock: WAL order must equal log
            // order, so the epoch's group commit happens before any later command can
            // sequence. This is the group-commit protocol, not an accident — hence
            // the explicit opt-in.
            let _fsync = allow_blocking("group commit fsyncs the epoch under the sequencing lock");
            // While degraded, don't even try: the probe owns retries, and a failing
            // disk under the sequencing lock would stall every client. (Reached when
            // the checkpoint thread degraded the core after `submit_batch`'s up-front
            // check passed.)
            if self.is_degraded() {
                state.pending.remove(wal_seq);
                return Err(());
            }
            if let Err(error) = state.group_commit(durable.config.retry) {
                state.pending.remove(wal_seq);
                self.health.wal_failures.fetch_add(1, Ordering::Relaxed);
                self.enter_degraded("WAL group commit", &error);
                return Err(());
            }
            self.health.wal_failures.store(0, Ordering::Relaxed);
        }
        state.next_seq = wal_seq + 1;
        Ok(wal_seq)
    }

    /// Flushes and fsyncs the group-commit buffer as the log closes (the caller holds
    /// the log lock and sets its closed flag next). Best-effort.
    pub(crate) fn flush_for_shutdown(&self) {
        let Some(durable) = &self.durable else {
            return;
        };
        let mut state = durable.wal();
        // Deliberate fsync under the sequencing lock: close must flush the
        // group-commit buffer before any later submission could observe the closed
        // flag, or the tail of the log would be acknowledged-but-lost.
        let _fsync = allow_blocking("close flushes the WAL under the sequencing lock");
        if let Err(error) = state.group_commit(durable.config.retry) {
            // Exit without claiming durability: everything in the flushed prefix is
            // safe, and nothing past it was ever acknowledged as durable (epochs only
            // ack after their fsync).
            eprintln!(
                "kpg_server: shutdown could not flush {} staged WAL record(s); \
                 they were never acknowledged as durable: {error}",
                state.pending.len()
            );
        }
        durable.closed.store(true, Ordering::SeqCst);
    }

    /// Starts the checkpoint thread and the heal probe; nothing on an in-memory core.
    pub(crate) fn start(self: &Arc<Self>) {
        let Some(durable) = &self.durable else {
            return;
        };
        self.start_checkpointer();
        // The heal probe: while the core is degraded, periodically retry the WAL
        // flush; the first success flips the core back to accepting mutations.
        let weak = Arc::downgrade(self);
        let interval = durable.config.probe_interval;
        let probe = Builder::new()
            .name("kpg-server-heal-probe".to_string())
            .spawn(move || loop {
                kpg_sync::thread::sleep(interval);
                let Some(commit) = weak.upgrade() else { break };
                if !commit.heal_tick() {
                    break;
                }
            })
            .expect("failed to spawn the WAL heal probe");
        durable.wal().running.push(probe);
    }

    /// [`Commit::start`] without the heal probe: all the deterministic-schedule tests need.
    pub(crate) fn start_checkpointer(self: &Arc<Self>) {
        let Some(durable) = &self.durable else {
            return;
        };
        let mut state = durable.wal();
        let seed = state.seed.take();
        let (tracker, next_id, sealed) = seed.expect("a durable core is started once");
        // Weak: the writer must not keep a closed core (and its WAL) alive.
        let weak = Arc::downgrade(self);
        let config = durable.config.clone();
        let thread = Builder::new()
            .name("kpg-server-checkpoint".to_string())
            .spawn(move || Self::checkpoint_loop(&weak, &sealed, tracker, next_id, &config))
            .expect("failed to spawn the checkpoint thread");
        state.running.push(thread);
    }

    /// The checkpoint thread: owns the state tracker, applies sealed epochs to it in
    /// the order they arrive (log order), and writes checkpoints from it in place.
    /// When the channel closes with the core still alive — which is
    /// [`Commit::final_checkpoint`] — it writes the shutdown checkpoint too.
    fn checkpoint_loop(
        commit: &Weak<Commit>,
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
            let Some(commit) = commit.upgrade() else {
                return;
            };
            match checkpoint(config, &tracker, &mut next_id, "checkpoint write") {
                Ok(watermark) => {
                    tracker.note_checkpoint();
                    let health = &commit.health;
                    health.checkpoint_failures.store(0, Ordering::Relaxed);
                    commit.prune_wal(watermark);
                }
                // A failed checkpoint leaves a committed one in force; the WAL keeps
                // everything and recovery stays correct. The tracker's count stands,
                // so the very next seal tries again (under a fresh id, as every
                // attempt does). But a disk that cannot take checkpoints cannot bound
                // recovery time (or likely take WAL writes for long), so degrade:
                // stop acknowledging new mutations until the probe sees writes
                // succeed again.
                Err(error) => {
                    let health = &commit.health;
                    let failures = health.checkpoint_failures.fetch_add(1, Ordering::Relaxed) + 1;
                    eprintln!("kpg_server: {error} ({failures} consecutive)");
                    commit.enter_degraded("checkpointing", &error);
                }
            }
        }
        // The channel closed. A core that is gone was dropped without a shutdown
        // checkpoint (as a crash would leave it); one that is alive asked for it.
        let Some(commit) = commit.upgrade() else {
            return;
        };
        if tracker.checkpoint_stale() {
            match checkpoint(config, &tracker, &mut next_id, "final checkpoint") {
                Ok(watermark) => commit.prune_wal(watermark),
                // Not fatal for this shutdown: the WAL was flushed by `close`, so
                // recovery replays it against the previous checkpoint instead.
                Err(error) => eprintln!("kpg_server: {error}"),
            }
        }
    }

    /// Drops WAL segments wholly covered by a committed checkpoint.
    fn prune_wal(&self, watermark: u64) {
        let mut state = self.wal();
        // Pruning mutates the segment list, which only the WAL lock guards; the
        // directory fsync it implies is accepted under the lock (a sequencer staging
        // meanwhile waits, holding its own) because pruning is rare: once per
        // checkpoint.
        let _fsync = allow_blocking("WAL pruning fsyncs the directory under the WAL lock");
        // Failure to prune is not failure to persist: the segments are retried by the
        // next checkpoint.
        let _ = state.wal.prune_below(watermark + 1);
    }

    /// One heal-probe tick — idle unless degraded: flush the staged batch (an fsync even
    /// when empty, so success demonstrates a writable disk) and, if it succeeds, resume
    /// accepting mutations. `false` once the WAL closed.
    fn heal_tick(&self) -> bool {
        let durable = self.durable.as_ref().expect("threads imply durable");
        // Both checks before the lock: a healthy core's tick never waits on a
        // sequencer staging under it.
        if durable.closed.load(Ordering::SeqCst) {
            return false;
        }
        if !self.is_degraded() {
            return true;
        }
        let mut state = durable.wal();
        // Again under the lock, which the shutdown flush holds as it closes: no probe
        // flush may follow the final one.
        if durable.closed.load(Ordering::SeqCst) {
            return false;
        }
        let _fsync = allow_blocking("the heal probe retries the WAL flush under the WAL lock");
        // Single attempt per tick: the probe *is* the retry loop, and backing off
        // under the lock would stall a sequencer that can still serve queries.
        if state.group_commit(RetryPolicy::none()).is_err() {
            self.health.wal_failures.fetch_add(1, Ordering::Relaxed);
            return true;
        }
        drop(state);
        self.health.wal_failures.store(0, Ordering::Relaxed);
        if self.health.degraded.swap(false, Ordering::SeqCst) {
            self.health.heals.fetch_add(1, Ordering::Relaxed);
            eprintln!("kpg_server: WAL writes succeed again; leaving degraded read-only mode");
        }
        true
    }

    /// Has the checkpoint thread write a final checkpoint and waits for it. Taking the
    /// `seals` is the request: dropping them closes the channel, so the thread applies
    /// every epoch still queued, then — finding the core alive — writes the shutdown
    /// checkpoint if anything was logged since the last one, and exits. The probe
    /// notices the closed WAL on its next tick and exits.
    pub(crate) fn final_checkpoint(&self, seals: Seals) {
        drop(seals);
        let Some(durable) = &self.durable else {
            return;
        };
        let running = std::mem::take(&mut durable.wal().running);
        for thread in running {
            let _ = thread.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    fn completion(seq: u64, wal_seq: Option<u64>, command: Command) -> Arc<SequencedCommand> {
        Arc::new(SequencedCommand {
            seq,
            origin: None,
            wal_seq,
            command,
        })
    }

    /// The in-memory form is the same type doing nothing: no replay, no WAL sequence
    /// number for any command, nothing collected for a checkpoint thread that does
    /// not exist, and health that stays all zeros through the whole lifecycle.
    #[test]
    fn the_in_memory_form_stages_nothing_and_spawns_nothing() {
        let (commit, mut seals, replay) = Commit::in_memory();
        assert!(replay.is_empty());
        let commands = [
            Command::CreateInput {
                name: "edges".to_string(),
                key_arity: None,
            },
            Command::AdvanceTime { epoch: 1 },
            Command::Query {
                name: "edges".to_string(),
            },
        ];
        commit.start();
        for (seq, command) in commands.into_iter().enumerate() {
            let wal_seq = commit.stage(&command).expect("nothing to fail");
            assert_eq!(wal_seq, None);
            seals.completed(&completion(seq as u64, wal_seq, command), &commit);
        }
        assert!(seals.open.is_empty() && seals.tx.is_none());
        // The thread slots live in the durable half only: there is nothing to join.
        assert!(commit.durable.is_none());
        commit.flush_for_shutdown();
        commit.final_checkpoint(seals);
        let h = commit.health();
        assert!(!h.degraded, "{h:?}");
        let counted = h.wal_failures + h.checkpoint_failures + h.degraded_transitions + h.heals;
        assert_eq!(counted, 0, "{h:?}");
    }

    /// The heal probe of a healthy core is lock-free: its tick returns while another
    /// thread holds the WAL lock, as a sequencer staging a slow fsync would.
    #[test]
    fn a_healthy_probe_tick_takes_no_lock() {
        let dir = std::env::temp_dir().join(format!("kpg-commit-probe-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (commit, _seals, _) = Commit::durable(DurabilityConfig::new(&dir)).expect("open");
        let held = commit.wal();
        let probe = {
            let commit = Arc::clone(&commit);
            kpg_sync::thread::spawn(move || commit.heal_tick())
        };
        let deadline = Instant::now() + Duration::from_secs(10);
        while !probe.is_finished() && Instant::now() < deadline {
            kpg_sync::thread::sleep(Duration::from_millis(1));
        }
        let finished = probe.is_finished();
        drop(held);
        assert!(finished, "the tick waited for the WAL lock");
        assert!(probe.join().expect("the probe thread"), "the WAL is open");
        commit.flush_for_shutdown();
        assert!(!commit.heal_tick(), "a closed WAL ends the probe");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A checkpoint thread that dies (here: handed an entry no completion would ever
    /// send) must not fail silently. Every later seal finds the channel's receiver
    /// gone, counts a checkpoint failure and degrades, exactly as a disk that cannot
    /// take checkpoints does — and nothing acknowledged is lost: the WAL has it all.
    #[test]
    fn a_dead_checkpoint_thread_shows_in_health() {
        let dir = std::env::temp_dir().join(format!("kpg-commit-dead-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut config = DurabilityConfig::new(&dir);
        config.probe_interval = Duration::from_millis(5);
        let (commit, mut seals, _) = Commit::durable(config.clone()).expect("open");
        commit.start();
        let unlogged = completion(0, None, Command::AdvanceTime { epoch: 1 });
        let sender = seals.tx.as_ref().expect("a durable commit path has one");
        sender.send(vec![unlogged]).expect("the thread is alive");

        let mut acked = 0u64;
        let deadline = Instant::now() + Duration::from_secs(30);
        while commit.health().checkpoint_failures == 0 {
            assert!(
                Instant::now() < deadline,
                "the dead thread was never noticed"
            );
            let command = Command::AdvanceTime { epoch: acked + 1 };
            match commit.stage(&command) {
                Ok(wal_seq) => {
                    acked += 1;
                    seals.completed(&completion(acked, wal_seq, command), &commit);
                }
                // Degraded by an earlier seal whose count this loop is about to read.
                Err(()) => assert!(commit.health().degraded_transitions >= 1),
            }
        }
        assert!(commit.health().degraded_transitions >= 1);
        commit.flush_for_shutdown();
        commit.final_checkpoint(seals);
        drop(commit);

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
