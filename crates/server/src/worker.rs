//! The worker: the log consumed in order, one [`Manager::execute`] per command (which
//! settles ahead of a `Query` itself — nothing here knows a command by name), every
//! result deposited — and, while the log has nothing for it, bounded turns of trace
//! maintenance until none is left or the wait's allowance is spent ([`Slack`]), then a
//! wait.
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

use std::cell::Cell;
use std::time::{Duration, Instant};

use kpg_dataflow::Worker;
use kpg_plan::{Command, Manager, PlanError, Response as PlanResponse};

use crate::engine::ServerCore;
use crate::sequencer::Peek;

/// The share of its waiting time a worker may fill with idle turns: a tenth, so a
/// command lands mid-turn about one time in ten at most, and a worker whose next
/// command is always about to arrive parks as it did before there were idle turns.
/// Measured on `epoch_stream`: at 250 epochs/s the log stays dry ≈ 3 ms an epoch, which
/// allows seven turns where four are wanted; closed-loop at saturation the next epoch
/// is ≈ 0.25 ms behind the answer, which allows a turn every other epoch. Without the
/// limit every one of those short waits was filled, the turns ran beside the client's
/// path or in front of it according to where the scheduler had put the three threads
/// of that server process on the box's two cores, and `throughput_per_s` came out near
/// 80k or near 99k from one process to the next.
const IDLE_SHARE: u32 = 10;

/// What one idle turn is charged: between a turn's median and its p90 on `epoch_stream`
/// (`IDLE_TURN_FUEL` in `kpg_plan::manager` sizes the turn itself).
const IDLE_TURN_CHARGE: Duration = Duration::from_micros(40);

/// The most allowance a quiet stretch can leave for a busy one.
const IDLE_CREDIT_CAP: Duration = Duration::from_millis(10);

/// One worker's idle-turn allowance: every wait for a command earns 1/[`IDLE_SHARE`] of
/// its length, every turn spends [`IDLE_TURN_CHARGE`]. Costs two clock reads per wait —
/// none per turn, none per command that was already sequenced when the worker looked.
#[derive(Default)]
struct Slack {
    /// When the current wait began: the first look that found the log empty.
    dry_since: Cell<Option<Instant>>,
    credit: Cell<Duration>,
}

impl Slack {
    /// Called with the log empty: marks the start of the wait, and pays for one turn
    /// if the allowance covers it.
    fn admits_turn(&self) -> bool {
        if self.dry_since.get().is_none() {
            self.dry_since.set(Some(Instant::now()));
        }
        let credit = self.credit.get();
        credit >= IDLE_TURN_CHARGE && {
            self.credit.set(credit - IDLE_TURN_CHARGE);
            true
        }
    }

    /// Called with a command in hand: if it ended a wait, the wait earns its share.
    fn command_arrived(&self) {
        if let Some(since) = self.dry_since.take() {
            self.earn(since.elapsed());
        }
    }

    fn earn(&self, waited: Duration) {
        let credit = self.credit.get() + waited / IDLE_SHARE;
        self.credit.set(credit.min(IDLE_CREDIT_CAP));
    }
}

/// What a worker does with the log: execute a command it took, or spend a moment of
/// a wait on maintenance.
pub(crate) trait Execute {
    /// Executes one command.
    fn execute(&mut self, command: &Command) -> Result<PlanResponse, PlanError>;

    /// One bounded turn of whatever can be done without a command, if the wait's
    /// allowance covers it; whether to look at the log again before waiting.
    fn idle_turn(&mut self) -> bool;
}

/// A dataflow worker's side of the log: its private [`Manager`] and its [`Slack`].
pub(crate) struct Executor<'w> {
    worker: &'w mut Worker,
    manager: Manager,
    slack: Slack,
}

impl<'w> Executor<'w> {
    pub(crate) fn new(worker: &'w mut Worker) -> Self {
        Executor {
            worker,
            manager: Manager::new(),
            slack: Slack::default(),
        }
    }
}

impl Execute for Executor<'_> {
    fn execute(&mut self, command: &Command) -> Result<PlanResponse, PlanError> {
        self.slack.command_arrived();
        self.manager.execute(self.worker, command.clone())
    }

    /// The wait between commands goes to the merges inserts left half-finished (paper
    /// §4.2: the slack absorbs what per-batch fuel did not): a merge that completes here
    /// needs no inline fuel at the next insert, is one batch fewer for every cursor to
    /// seek, and frees its sources sooner. A tenth of the wait (`Slack`); what that
    /// leaves undone, the next insert fuels inline as before.
    fn idle_turn(&mut self) -> bool {
        self.slack.admits_turn() && self.manager.idle_turn()
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
    /// A worker with turns left does not sleep, and saved-up allowance is up to 250
    /// turns back to back (a deep merge's first waits). In about one server process in
    /// three on the ruler's two cores, something the epoch needs — the reactor, with
    /// the answer just deposited or the next request — was runnable on this worker's
    /// core and sat behind the whole run: the answer left 6–8 ms after its deposit
    /// though no step was slow, and `epoch_stream`'s slowest-tenth mean read 4.0–4.7 ms
    /// for that process against 1.5–2.0 (2.2–2.5 against 1.5–1.8 with the yield). So a
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

#[cfg(test)]
mod tests {
    use super::*;

    fn turns(slack: &Slack) -> usize {
        std::iter::repeat_with(|| slack.admits_turn())
            .take_while(|&admitted| admitted)
            .count()
    }

    #[test]
    fn a_wait_admits_a_tenth_of_itself_in_turns_and_nothing_before_one() {
        let slack = Slack::default();
        assert_eq!(turns(&slack), 0, "no wait seen yet");
        slack.earn(Duration::from_millis(4));
        assert_eq!(turns(&slack), 10);
        assert_eq!(turns(&slack), 0, "spent");
    }

    #[test]
    fn short_waits_add_up_and_long_ones_are_capped() {
        let slack = Slack::default();
        // A client that answers within 0.25 ms: a turn every other wait.
        let admitted: usize = (0..100)
            .map(|_| {
                slack.earn(Duration::from_micros(250));
                turns(&slack)
            })
            .sum();
        assert_eq!(admitted, 100 * 25 / 40);
        slack.earn(Duration::from_secs(60));
        assert_eq!(
            turns(&slack) as u128,
            IDLE_CREDIT_CAP.as_nanos() / IDLE_TURN_CHARGE.as_nanos()
        );
    }

    #[test]
    fn a_wait_runs_from_the_first_empty_look_to_the_next_command() {
        let slack = Slack::default();
        slack.command_arrived();
        assert_eq!(slack.credit.get(), Duration::ZERO, "no wait to end");
        assert!(!slack.admits_turn());
        let began = slack.dry_since.get().expect("the look started a wait");
        assert!(!slack.admits_turn());
        assert_eq!(slack.dry_since.get(), Some(began), "one wait, two looks");
        kpg_sync::thread::sleep(Duration::from_millis(2));
        slack.command_arrived();
        assert!(slack.credit.get() >= Duration::from_millis(2) / IDLE_SHARE);
        assert!(slack.dry_since.get().is_none());
    }
}
