//! The sequencer: one totally ordered command log, consumed in order by every worker.
//!
//! **Owns** the `log` lock (entries, per-worker cursors, the closed flag), the `grown`
//! doorbell workers park on and the `consumed` condvar of the replay wait. **Calls**
//! [`Commit`] — to stage each command as it takes its position and to flush as the log
//! closes — always holding `log`, so WAL order is log order; it cannot call
//! `aggregate`. **Is called** by `aggregate` through an [`Appender`] (`clients` is
//! held outside it: `clients → log`, never the reverse), by `worker` through
//! [`Sequencer::try_next`] and [`Sequencer::park`], and by the core for `close` and
//! the replay wait.
//!
//! The append order *is* the arbitration order for every name conflict. By default
//! the log prunes the prefix every worker has consumed (a long-lived server holds
//! O(in-flight) commands, not its traffic history); `retain` keeps everything so
//! tests can replay the merged log.

use kpg_sync::{Arc, Condvar, Doorbell, Mutex, MutexGuard};
use std::collections::VecDeque;

use kpg_plan::Command;

use crate::commit::Commit;
use crate::engine::{ClientId, SequencedCommand};

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
    /// Entries pre-loaded by recovery (bootstrap + WAL tail): the count every worker
    /// must consume before the server may accept connections.
    replay_len: u64,
    /// Threads blocked in [`Sequencer::await_replayed`] on the `consumed` condvar.
    /// Lets the per-command cursor advance skip the condvar notify (a futex syscall)
    /// on the hot path — replay waiting happens once, at startup.
    replay_waiters: usize,
}

impl LogState {
    fn prune(&mut self) {
        if self.retain {
            return;
        }
        let consumed = self.consumed();
        while self.base < consumed && self.entries.pop_front().is_some() {
            self.base += 1;
        }
    }

    /// The position every worker has consumed up to.
    fn consumed(&self) -> u64 {
        self.cursors.iter().copied().min().unwrap_or(0)
    }

    /// The entry at position `from`, if it has been sequenced.
    fn get(&self, from: u64) -> Option<&Arc<SequencedCommand>> {
        let index = from.checked_sub(self.base).expect("cursor below log base");
        self.entries.get(index as usize)
    }

    #[inline]
    fn push(&mut self, origin: Option<(ClientId, u64)>, wal_seq: Option<u64>, command: Command) {
        let seq = self.base + self.entries.len() as u64;
        self.entries.push_back(Arc::new(SequencedCommand {
            seq,
            origin,
            wal_seq,
            command,
        }));
    }
}

/// The command log of one core — see the module docs.
pub(crate) struct Sequencer {
    log: Mutex<LogState>,
    /// Rung once per [`Appender`] that sequenced anything, to wake workers parked in
    /// [`Sequencer::park`]. A doorbell, not a condvar: ringing is one atomic
    /// (no lock, no syscall) when no worker is parked, and its snapshot/check/wait
    /// protocol is model-checked in `kpg_sync`'s `model_doorbell` tests.
    grown: Doorbell,
    /// Signalled whenever a worker advances its cursor while someone waits in
    /// [`Sequencer::await_replayed`].
    consumed: Condvar,
    commit: Arc<Commit>,
}

/// Rings when dropped, if anything was sequenced (or the log closed) meanwhile.
struct Bell<'a> {
    grown: &'a Doorbell,
    pending: bool,
}

impl Drop for Bell<'_> {
    fn drop(&mut self) {
        if self.pending {
            self.grown.ring();
        }
    }
}

/// The log, locked for appending: however many commands a batch holds, one
/// acquisition and — on drop, after the lock is released (fields drop in declaration
/// order) — one doorbell ring, none if nothing was sequenced.
pub(crate) struct Appender<'a> {
    log: MutexGuard<'a, LogState>,
    bell: Bell<'a>,
    commit: &'a Commit,
}

impl Appender<'_> {
    /// Whether the log is closed; callers skip a closed log's submissions silently.
    pub(crate) fn is_closed(&self) -> bool {
        self.log.closed
    }

    /// Sequences `command` (the caller has checked [`Appender::is_closed`]), staging
    /// it on the commit path first. `Err(())` is [`Commit::stage`]'s: an `AdvanceTime`
    /// that could not be made durable was not sequenced, and the core is degraded.
    #[inline]
    pub(crate) fn append(
        &mut self,
        origin: Option<(ClientId, u64)>,
        command: Command,
    ) -> Result<(), ()> {
        let wal_seq = self.commit.stage(&command)?;
        self.log.push(origin, wal_seq, command);
        self.bell.pending = true;
        Ok(())
    }
}

impl Sequencer {
    /// A log for `workers` consumers that starts with `replay` (see
    /// [`crate::commit::Opened`]) already sequenced.
    pub(crate) fn new(
        workers: usize,
        retain: bool,
        commit: Arc<Commit>,
        replay: Vec<(Option<u64>, Command)>,
    ) -> Self {
        let mut log = LogState {
            base: 0,
            entries: VecDeque::with_capacity(replay.len()),
            cursors: vec![0; workers],
            retain,
            closed: false,
            replay_len: replay.len() as u64,
            replay_waiters: 0,
        };
        for (wal_seq, command) in replay {
            log.push(None, wal_seq, command);
        }
        Sequencer {
            log: Mutex::new(log),
            grown: Doorbell::new(),
            consumed: Condvar::new(),
            commit,
        }
    }

    fn lock(&self) -> MutexGuard<'_, LogState> {
        self.log.lock().expect("command log poisoned")
    }

    pub(crate) fn appender(&self) -> Appender<'_> {
        Appender {
            log: self.lock(),
            bell: Bell {
                grown: &self.grown,
                pending: false,
            },
            commit: &self.commit,
        }
    }

    /// Closes the log: workers drain what is already sequenced, then exit. The commit
    /// path flushes under the same lock acquisition that sets the flag.
    pub(crate) fn close(&self) {
        let mut appender = self.appender();
        self.commit.flush_for_shutdown();
        appender.log.closed = true;
        appender.bell.pending = true;
        drop(appender);
        self.consumed.notify_all();
    }

    /// Blocks until every worker has consumed the recovery replay (or the log closed).
    pub(crate) fn await_replayed(&self) {
        let mut log = self.lock();
        log.replay_waiters += 1;
        while !log.closed && log.consumed() < log.replay_len {
            log = self.consumed.wait(log).expect("command log poisoned");
        }
        log.replay_waiters -= 1;
    }

    pub(crate) fn command_log(&self) -> Vec<Command> {
        let log = self.lock();
        let commands = log.entries.iter().map(|entry| entry.command.clone());
        commands.collect()
    }

    pub(crate) fn retained_len(&self) -> usize {
        self.lock().entries.len()
    }

    /// The log entry at position `from` if it has been sequenced, without blocking;
    /// records that `worker` has consumed everything below `from` (and prunes what
    /// everyone has). (`#[inline]`, like `push` and the aggregator's `deliver`: out of
    /// line they cost ~1 % server CPU on `point_rtt`.)
    #[inline]
    pub(crate) fn try_next(&self, worker: usize, from: u64) -> Peek {
        let mut log = self.lock();
        log.cursors[worker] = from;
        // Only `await_replayed` ever waits on `consumed`, and only during
        // startup recovery — skip the notify syscall on every later command.
        if log.replay_waiters > 0 {
            self.consumed.notify_all();
        }
        log.prune();
        match log.get(from) {
            Some(entry) => Peek::Ready(Arc::clone(entry)),
            None if log.closed => Peek::Closed,
            None => Peek::Empty,
        }
    }

    /// The doorbell's epoch. A worker snapshots it *before* it looks at the log and
    /// hands it to [`Sequencer::park`].
    pub(crate) fn epoch(&self) -> u64 {
        self.grown.epoch()
    }

    /// Parks until something is sequenced (or the log closes) after `seen` was
    /// snapshotted — the only place a worker parks. A ring between the caller's look
    /// and this call has already advanced the epoch past `seen`, so it returns at once:
    /// no lost wakeup. Waiting holds no lock, so a batch append never contends with
    /// parked workers.
    pub(crate) fn park(&self, seen: u64) {
        self.grown.wait(seen);
    }
}

/// What [`Sequencer::try_next`] found at a log position.
pub(crate) enum Peek {
    /// The entry there.
    Ready(Arc<SequencedCommand>),
    /// Nothing yet: the worker is ahead of the log.
    Empty,
    /// Nothing, ever: the log is closed and drained.
    Closed,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The append guard's contract: however many commands an [`Appender`] sequenced,
    /// the doorbell rings once when it drops; an appender that sequenced nothing —
    /// every command of its batch rejected up front, or the log already closed — does
    /// not ring at all; `close` itself rings once so parked workers see the flag.
    #[test]
    fn an_appender_rings_once_if_it_sequenced_anything_and_never_otherwise() {
        let (commit, _seals, replay) = Commit::in_memory();
        let sequencer = Sequencer::new(1, false, commit, replay);
        let rings = |act: &dyn Fn()| {
            let before = sequencer.grown.epoch();
            act();
            sequencer.grown.epoch() - before
        };

        let batch = || {
            let mut log = sequencer.appender();
            for epoch in 1..=3 {
                assert!(!log.is_closed());
                log.append(Some((0, epoch)), Command::AdvanceTime { epoch })
                    .expect("in-memory");
            }
            assert_eq!(sequencer.grown.epoch(), 0, "no ring while the lock is held");
        };
        assert_eq!(rings(&batch), 1, "three commands, one ring");
        assert_eq!(sequencer.retained_len(), 3);

        assert_eq!(rings(&|| drop(sequencer.appender())), 0, "all rejected");

        assert_eq!(
            rings(&|| sequencer.close()),
            1,
            "close wakes parked workers"
        );
        let after_close = || assert!(sequencer.appender().is_closed());
        assert_eq!(rings(&after_close), 0, "a post-close batch appends nothing");

        // What was sequenced before the close still drains, then the log ends.
        for from in 0..3 {
            let Peek::Ready(entry) = sequencer.try_next(0, from) else {
                panic!("entry {from} drains after the close");
            };
            assert_eq!(entry.seq, from);
        }
        assert!(matches!(sequencer.try_next(0, 3), Peek::Closed));
    }
}
