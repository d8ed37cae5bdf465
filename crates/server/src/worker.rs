//! The worker: the log consumed in order, one [`Manager::execute`] per command (which
//! settles ahead of a `Query` itself — nothing here knows a command by name), every
//! result deposited — and, while the log has nothing for it and a merge is in
//! progress, bounded turns of trace maintenance ([`Manager::idle_turn`]), then a wait.
//!
//! Merge work has two sources of fuel, the insert that owes it and the idle worker
//! (paper §4.2). Idle turns are not rationed: a worker takes one whenever the log is
//! dry and something is merging, offers its core after each, and stops as soon as
//! nothing is. Turns rationed to a tenth of the wait were measured against this rule
//! on `epoch_stream` (seeds 801–806, the reactor as worker 0) and read no different:
//! p50 1.36 vs 1.24 ms, slowest tenth 2.69 vs 2.47 ms. The contention the ration was
//! tuned against, turns on a worker thread beside the reactor, cannot arise at
//! `--workers 1`, where the reactor is the only worker.
//!
//! There is one way to consume the log, [`ServerCore::consume`]: try the next entry,
//! execute it, deposit the result, until the log is dry. Two loops call it and differ
//! only in how they wait. [`ServerCore::run`] parks on the sequencer's doorbell; it is
//! every worker of an in-process core and workers 1..N-1 of a socket server. Worker 0
//! of a socket server is the reactor (`net.rs`): it consumes right after each
//! `submit_batch` on the thread that read the commands, and waits in `epoll_wait`.
//!
//! **Owns** no lock and holds none across a step or an idle turn. **Calls**
//! [`Sequencer::try_next`](crate::sequencer::Sequencer::try_next) and
//! [`Sequencer::park`](crate::sequencer::Sequencer::park) (their only caller) and
//! [`ServerCore::deposit`], each of which takes and releases its own lock.

use kpg_dataflow::Worker;
use kpg_plan::{Command, Manager, PlanError, Response as PlanResponse};

use crate::engine::ServerCore;
use crate::sequencer::Peek;

/// What a worker does with the log: execute a command it took, or spend a moment of
/// a wait on maintenance.
pub(crate) trait Execute {
    /// Executes one command.
    fn execute(&mut self, command: &Command) -> Result<PlanResponse, PlanError>;

    /// One bounded turn of whatever can be done without a command; whether another
    /// turn would find work, i.e. whether to look at the log again before waiting.
    fn idle_turn(&mut self) -> bool;
}

/// A dataflow worker's side of the log: its private [`Manager`].
pub(crate) struct Executor<'w> {
    worker: &'w mut Worker,
    manager: Manager,
}

impl<'w> Executor<'w> {
    pub(crate) fn new(worker: &'w mut Worker) -> Self {
        Executor {
            worker,
            manager: Manager::new(),
        }
    }
}

impl Execute for Executor<'_> {
    fn execute(&mut self, command: &Command) -> Result<PlanResponse, PlanError> {
        self.manager.execute(self.worker, command.clone())
    }

    /// The wait between commands goes to the merges inserts left half-finished (paper
    /// §4.2: the slack absorbs what per-batch fuel did not): a merge that completes here
    /// needs no inline fuel at the next insert, is one batch fewer for every cursor to
    /// seek, and frees its sources sooner. A command that arrives first ends the wait;
    /// what the turns left undone, the next insert fuels inline.
    fn idle_turn(&mut self) -> bool {
        self.manager.idle_turn()
    }
}

/// The model tests' executor: the dataflow (and with it any maintenance) stubbed by
/// two closures.
#[cfg(feature = "model")]
struct Stub<F, I> {
    step: F,
    idle: I,
}

#[cfg(feature = "model")]
impl<F, I> Execute for Stub<F, I>
where
    F: FnMut(&Command) -> Result<PlanResponse, PlanError>,
    I: FnMut() -> bool,
{
    fn execute(&mut self, command: &Command) -> Result<PlanResponse, PlanError> {
        (self.step)(command)
    }

    fn idle_turn(&mut self) -> bool {
        (self.idle)()
    }
}

impl ServerCore {
    /// One worker's service loop: a private [`Manager`] fed the shared log in order.
    /// Runs until the core is closed. Exposed so embedders (and the arbitration tests)
    /// can drive the engine through [`kpg_dataflow::execute`] themselves.
    pub fn worker_loop(&self, worker: &mut Worker) {
        let index = worker.index();
        self.run(index, 0, &mut Executor::new(worker));
    }

    /// [`ServerCore::worker_loop`] with the dataflow swapped out: consumes the log in
    /// order like a real worker, but executes each command through `step` instead of a
    /// [`Manager`]. This is the seam the deterministic-schedule tests drive — only the
    /// (already deterministic) dataflow execution is stubbed. There is never anything
    /// to merge, so an idle turn does nothing.
    #[cfg(feature = "model")]
    pub fn model_worker_loop<F>(&self, worker: usize, step: F)
    where
        F: FnMut(&Command) -> Result<PlanResponse, PlanError>,
    {
        self.model_worker_loop_with_idle(worker, step, || false);
    }

    /// [`ServerCore::model_worker_loop`] with the idle turn stubbed too: `idle` is
    /// called whenever the worker finds the log empty and says whether maintenance is
    /// still outstanding (so the worker looks again instead of parking).
    #[cfg(feature = "model")]
    pub fn model_worker_loop_with_idle<F, I>(&self, worker: usize, step: F, idle: I)
    where
        F: FnMut(&Command) -> Result<PlanResponse, PlanError>,
        I: FnMut() -> bool,
    {
        self.run(worker, 0, &mut Stub { step, idle });
    }

    /// [`ServerCore::consume`] with a stubbed `step`, for a test thread that waits its
    /// own way between calls, as the reactor does: executes and deposits everything
    /// sequenced from `*next` on. Returns `false` once the log is closed and drained.
    #[cfg(feature = "model")]
    pub fn model_consume<F>(&self, worker: usize, next: &mut u64, step: F) -> bool
    where
        F: FnMut(&Command) -> Result<PlanResponse, PlanError>,
    {
        let mut stub = Stub {
            step,
            idle: || false,
        };
        self.consume(worker, next, &mut stub)
    }

    /// The one way to consume the log: executes and deposits, in log order, every
    /// command sequenced from `*next` on, and records that `index` has consumed
    /// everything below the new `*next`. Returns `false` once the log is closed and
    /// drained, `true` when it is merely dry.
    pub(crate) fn consume(
        &self,
        index: usize,
        next: &mut u64,
        executor: &mut impl Execute,
    ) -> bool {
        loop {
            let entry = match self.sequencer.try_next(index, *next) {
                Peek::Ready(entry) => entry,
                Peek::Empty => return true,
                Peek::Closed => return false,
            };
            *next = entry.seq + 1;
            let result = executor.execute(&entry.command);
            self.deposit(&entry, result);
        }
    }

    /// The doorbell-waiting loop, from log position `next` until the log closes:
    /// consume, then idle turns with a look at the log after each, then park.
    ///
    /// The doorbell discipline (model-checked in kpg_sync): snapshot the epoch, look at
    /// the log, park only if nothing rang since the snapshot. Each pass snapshots ahead
    /// of its own look, so a ring anywhere between the look and the park — the idle turn
    /// that found no work left included — advances the epoch past `seen` and the park
    /// returns at once.
    ///
    /// A worker with a merge in progress does not sleep: it takes turns back to back
    /// until nothing is merging or a command arrives. In about one server process in
    /// three on a two-core box, something the epoch needs — the reactor, with the
    /// answer just deposited or the next request — was runnable on this worker's core
    /// and sat behind a run of turns: the answer left 6–8 ms after its deposit though
    /// no step was slow, and `epoch_stream`'s slowest-tenth mean read 4.0–4.7 ms for
    /// that process against 1.5–2.0 (2.2–2.5 against 1.5–1.8 with the yield). So a
    /// turn that leaves more to do ends by offering the core; with nobody waiting for
    /// it that is one short syscall per ≈ 35 µs turn.
    pub(crate) fn run(&self, index: usize, mut next: u64, executor: &mut impl Execute) {
        loop {
            let seen = self.sequencer.epoch();
            if !self.consume(index, &mut next, executor) {
                return;
            }
            if executor.idle_turn() {
                kpg_sync::thread::yield_now();
            } else {
                self.sequencer.park(seen);
            }
        }
    }
}
