//! The deterministic scheduler: one runnable thread at a time, every blocking edge
//! visible, every nondeterministic choice routed through one strategy.
//!
//! Real OS threads execute the code under test, but each parks on the scheduler's
//! condvar until made *active*; only the active thread runs. Facade operations call
//! in here at every visible effect, so the scheduler sees the full happens-before
//! structure: lock ownership, condvar waits, channel occupancy-edges, joins,
//! barriers. A state where no thread is runnable and no timeout can fire is a real
//! deadlock and is reported (with each thread's blocked state), not hung on.
//!
//! Every multi-option choice — which runnable thread proceeds, which waiter a
//! `notify_one` wakes, which timeout fires — goes through [`State::pick`] and is
//! appended to the decision trace as `(choice, options)`. The trace is the
//! schedule: replaying it replays the run exactly.

use std::collections::HashMap;
use std::sync::{
    Condvar as StdCondvar, Mutex as StdMutex, MutexGuard as StdMutexGuard, PoisonError,
};
use std::time::Duration;

use super::rng::SplitMix64;

/// Demoted PCT priorities live below this; initial priorities at or above it.
const PRIORITY_BASE: u64 = 1 << 32;

/// How a run's scheduling choices are made.
pub(crate) enum Strategy {
    /// PCT-style randomized: threads get random priorities, the highest-priority
    /// runnable thread runs, and at `change_points` (step indices fixed up front)
    /// the running thread is demoted below everyone — so a run with `d` change
    /// points exercises any bug of preemption-depth `d` with known probability.
    Pct {
        rng: SplitMix64,
        priorities: Vec<u64>,
        change_points: Vec<usize>,
        low_counter: u64,
    },
    /// Exhaustive enumeration: follow `prefix` for the first decisions, take option
    /// 0 afterwards. The explorer advances the prefix between runs until the
    /// decision tree is exhausted.
    Dfs { prefix: Vec<u32> },
    /// Literal replay of a recorded decision trace.
    Trace { choices: Vec<u32> },
}

impl Strategy {
    pub(crate) fn pct(seed: u64, change_points: usize, estimated_len: usize) -> Self {
        let mut rng = SplitMix64::new(seed);
        let span = estimated_len.max(2);
        let change_points = (0..change_points)
            .map(|_| 1 + rng.below(span - 1))
            .collect();
        Strategy::Pct {
            rng,
            priorities: Vec::new(),
            change_points,
            low_counter: PRIORITY_BASE,
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Block {
    /// Waiting to acquire a mutex.
    Lock(usize),
    Condvar {
        cv: usize,
        timeout: bool,
    },
    Channel {
        id: usize,
        timeout: bool,
    },
    Join(usize),
    Barrier(usize),
}

impl Block {
    fn describe(&self) -> String {
        match self {
            Block::Lock(id) => format!("acquiring lock {id:#x}"),
            Block::Condvar { cv, timeout } => {
                format!("waiting on condvar {cv:#x} (timeout-able: {timeout})")
            }
            Block::Channel { id, timeout } => {
                format!("receiving on channel #{id} (timeout-able: {timeout})")
            }
            Block::Join(target) => format!("joining thread {target}"),
            Block::Barrier(id) => format!("at barrier {id:#x}"),
        }
    }

    fn timeout_able(&self) -> bool {
        matches!(
            self,
            Block::Condvar { timeout: true, .. } | Block::Channel { timeout: true, .. }
        )
    }
}

enum Run {
    Runnable,
    Blocked(Block),
    Finished,
}

/// No thread is active (run finished or aborting).
const NO_THREAD: usize = usize::MAX;

struct State {
    threads: Vec<Run>,
    /// The one thread allowed to execute, or [`NO_THREAD`].
    active: usize,
    /// Registered threads that have not finished.
    live: usize,
    steps: usize,
    max_steps: usize,
    abort: bool,
    failure: Option<String>,
    /// Model-level mutexes by address: the owning thread, or `None` while free.
    locks: HashMap<usize, Option<usize>>,
    barriers: HashMap<usize, Vec<usize>>,
    /// Why each thread's last block ended: `true` = synthesized timeout.
    wake_timed_out: Vec<bool>,
    strategy: Strategy,
    /// Every multi-option decision this run, as `(choice, options)`.
    trace: Vec<(u32, u32)>,
}

impl State {
    /// Tids currently runnable, ascending (so option ordering is deterministic).
    fn runnable(&self) -> Vec<usize> {
        self.threads
            .iter()
            .enumerate()
            .filter(|(_, run)| matches!(run, Run::Runnable))
            .map(|(tid, _)| tid)
            .collect()
    }

    /// Takes a decision with `options` alternatives. `prefer` is the
    /// strategy-computed choice for PCT thread picks (priority order); random and
    /// exhaustive strategies ignore it where they must.
    fn pick(&mut self, options: usize, prefer: Option<usize>) -> usize {
        let at = self.trace.len();
        let choice = match &mut self.strategy {
            Strategy::Pct { rng, .. } => prefer.unwrap_or_else(|| rng.below(options)),
            Strategy::Dfs { prefix } => prefix.get(at).map_or(0, |&c| c as usize).min(options - 1),
            Strategy::Trace { choices } => {
                choices.get(at).map_or(0, |&c| c as usize).min(options - 1)
            }
        };
        self.trace.push((
            u32::try_from(choice).unwrap(),
            u32::try_from(options).unwrap(),
        ));
        choice
    }

    /// Index into `runnable` the PCT strategy wants (highest priority, tid as
    /// tiebreak); `None` for strategies with no preference.
    fn prefer_index(&self, runnable: &[usize]) -> Option<usize> {
        if let Strategy::Pct { priorities, .. } = &self.strategy {
            runnable
                .iter()
                .enumerate()
                .max_by_key(|&(_, &tid)| (priorities[tid], tid))
                .map(|(index, _)| index)
        } else {
            None
        }
    }

    fn wake(&mut self, tid: usize, timed_out: bool) {
        self.wake_timed_out[tid] = timed_out;
        self.threads[tid] = Run::Runnable;
    }

    /// Releases a model-level mutex and makes its waiters runnable (they re-compete
    /// under scheduler control; who wins is a later decision).
    fn release_mutex(&mut self, id: usize, tid: usize) {
        if let Some(owner) = self.locks.get_mut(&id) {
            debug_assert_eq!(*owner, Some(tid), "release by non-owner");
            *owner = None;
        }
        self.wake_lock_waiters(id);
    }

    fn wake_lock_waiters(&mut self, id: usize) {
        for tid in 0..self.threads.len() {
            if matches!(self.threads[tid], Run::Blocked(Block::Lock(blocked)) if blocked == id) {
                self.wake(tid, false);
            }
        }
    }

    fn describe_deadlock(&self) -> String {
        let mut lines =
            vec!["deadlock: every live thread is blocked and no timeout can fire".to_string()];
        for (tid, run) in self.threads.iter().enumerate() {
            if let Run::Blocked(block) = run {
                lines.push(format!("  thread {tid}: {}", block.describe()));
            }
        }
        lines.join("\n")
    }
}

/// One model run's scheduler. Facade operations reach it through the thread-local
/// installed by [`super::enter_thread`].
pub struct Scheduler {
    state: StdMutex<State>,
    cv: StdCondvar,
}

impl Scheduler {
    pub(crate) fn new(strategy: Strategy, max_steps: usize) -> Self {
        let mut state = State {
            threads: Vec::new(),
            active: 0,
            live: 0,
            steps: 0,
            max_steps,
            abort: false,
            failure: None,
            locks: HashMap::new(),
            barriers: HashMap::new(),
            wake_timed_out: Vec::new(),
            strategy,
            trace: Vec::new(),
        };
        // Register the run's root thread as tid 0, active from the start.
        state.threads.push(Run::Runnable);
        state.wake_timed_out.push(false);
        state.live = 1;
        if let Strategy::Pct {
            rng, priorities, ..
        } = &mut state.strategy
        {
            priorities.push(PRIORITY_BASE + rng.next_u64() % PRIORITY_BASE);
        }
        Scheduler {
            state: StdMutex::new(state),
            cv: StdCondvar::new(),
        }
    }

    fn lock_state(&self) -> StdMutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Unwinds the calling thread out of an aborted run.
    fn teardown_panic(&self) -> ! {
        super::set_aborting();
        std::panic::panic_any(super::ModelAbort);
    }

    /// Parks until this thread is active. The only way any modeled thread waits.
    fn park(&self, mut st: StdMutexGuard<'_, State>, tid: usize) {
        loop {
            if st.abort {
                drop(st);
                self.teardown_panic();
            }
            if st.active == tid {
                return;
            }
            st = self.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn fail_and_teardown(&self, mut st: StdMutexGuard<'_, State>, message: String) -> ! {
        if st.failure.is_none() {
            st.failure = Some(message);
        }
        st.abort = true;
        st.active = NO_THREAD;
        self.cv.notify_all();
        drop(st);
        self.teardown_panic();
    }

    /// Chooses the next active thread when the current one cannot continue
    /// (blocked or finished). Fires a timeout if that is the only way forward;
    /// declares deadlock (fails the run) when there is none.
    fn hand_off(&self, st: &mut State) {
        let runnable = st.runnable();
        if !runnable.is_empty() {
            let index = if runnable.len() > 1 {
                let prefer = st.prefer_index(&runnable);
                st.pick(runnable.len(), prefer)
            } else {
                0
            };
            st.active = runnable[index];
            return;
        }
        // Nothing runnable: model "time passes" by firing one timeout-able wait,
        // chosen by the strategy (which timeout fires first is a real race).
        let timeouts: Vec<usize> = st
            .threads
            .iter()
            .enumerate()
            .filter(|(_, run)| matches!(run, Run::Blocked(block) if block.timeout_able()))
            .map(|(tid, _)| tid)
            .collect();
        if !timeouts.is_empty() {
            let index = if timeouts.len() > 1 {
                st.pick(timeouts.len(), None)
            } else {
                0
            };
            let tid = timeouts[index];
            st.wake(tid, true);
            st.active = tid;
            return;
        }
        if st.live == 0 {
            st.active = NO_THREAD;
            return;
        }
        let report = st.describe_deadlock();
        if st.failure.is_none() {
            st.failure = Some(report);
        }
        st.abort = true;
        st.active = NO_THREAD;
    }

    /// Blocks the calling thread as `block`, hands off, and parks.
    fn block_and_park(&self, mut st: StdMutexGuard<'_, State>, tid: usize, block: Block) {
        st.threads[tid] = Run::Blocked(block);
        self.hand_off(&mut st);
        self.cv.notify_all();
        self.park(st, tid);
    }

    /// One scheduling point: the strategy may hand the processor to any other
    /// runnable thread before the caller proceeds.
    pub fn yield_point(&self) {
        let tid = super::current_tid();
        let mut st = self.lock_state();
        if st.abort {
            drop(st);
            self.teardown_panic();
        }
        st.steps += 1;
        if st.steps > st.max_steps {
            let max = st.max_steps;
            self.fail_and_teardown(
                st,
                format!(
                    "exceeded max_steps ({max}): likely livelock, or raise \
                     Config::max_steps for this model"
                ),
            );
        }
        let steps = st.steps;
        if let Strategy::Pct {
            priorities,
            change_points,
            low_counter,
            ..
        } = &mut st.strategy
        {
            if change_points.contains(&steps) {
                *low_counter -= 1;
                priorities[tid] = *low_counter;
            }
        }
        let runnable = st.runnable();
        if runnable.len() > 1 {
            let prefer = st.prefer_index(&runnable);
            let index = st.pick(runnable.len(), prefer);
            let next = runnable[index];
            if next != tid {
                st.active = next;
                self.cv.notify_all();
                self.park(st, tid);
            }
        }
    }

    /// Acquires a model-level mutex, blocking under the scheduler as needed.
    pub fn lock_acquire(&self, id: usize) {
        let tid = super::current_tid();
        loop {
            self.yield_point();
            let mut st = self.lock_state();
            if st.abort {
                drop(st);
                self.teardown_panic();
            }
            let owner = st.locks.entry(id).or_default();
            if owner.is_none() {
                *owner = Some(tid);
                return;
            }
            self.block_and_park(st, tid, Block::Lock(id));
            // Woken by a release: loop and re-compete.
        }
    }

    /// Non-blocking mutex acquisition attempt.
    pub fn lock_try_acquire(&self, id: usize) -> bool {
        let tid = super::current_tid();
        self.yield_point();
        let mut st = self.lock_state();
        if st.abort {
            drop(st);
            self.teardown_panic();
        }
        let owner = st.locks.entry(id).or_default();
        if owner.is_none() {
            *owner = Some(tid);
            return true;
        }
        false
    }

    /// Releases a model-level mutex.
    pub fn lock_release(&self, id: usize) {
        let tid = super::current_tid();
        let mut st = self.lock_state();
        if st.abort {
            return;
        }
        st.release_mutex(id, tid);
    }

    /// Condvar wait: releases the model-level mutex, parks until notified or (if
    /// `timeout`) until the scheduler fires the timeout, re-acquires the mutex, and
    /// reports whether the wake was a timeout.
    pub fn condvar_wait(&self, cv: usize, lock: usize, timeout: bool) -> bool {
        let tid = super::current_tid();
        {
            let mut st = self.lock_state();
            if st.abort {
                drop(st);
                self.teardown_panic();
            }
            st.steps += 1;
            st.release_mutex(lock, tid);
            st.wake_timed_out[tid] = false;
            self.block_and_park(st, tid, Block::Condvar { cv, timeout });
        }
        let timed_out = self.lock_state().wake_timed_out[tid];
        self.lock_acquire(lock);
        timed_out
    }

    /// Wakes one (strategy-chosen) or all waiters of a condvar.
    pub fn condvar_notify(&self, cv: usize, all: bool) {
        let mut st = self.lock_state();
        if st.abort {
            return;
        }
        let waiters: Vec<usize> = st
            .threads
            .iter()
            .enumerate()
            .filter(
                |(_, run)| matches!(run, Run::Blocked(Block::Condvar { cv: waited, .. }) if *waited == cv),
            )
            .map(|(tid, _)| tid)
            .collect();
        if waiters.is_empty() {
            return;
        }
        if all {
            for tid in waiters {
                st.wake(tid, false);
            }
        } else {
            // Which waiter `notify_one` wakes is a real race: a decision.
            let index = if waiters.len() > 1 {
                st.pick(waiters.len(), None)
            } else {
                0
            };
            st.wake(waiters[index], false);
        }
    }

    /// Wakes every thread parked on this channel (a send arrived or a sender
    /// dropped); the woken receivers re-probe under scheduler control.
    pub fn channel_signal(&self, id: usize) {
        let mut st = self.lock_state();
        if st.abort {
            return;
        }
        for tid in 0..st.threads.len() {
            if matches!(
                st.threads[tid],
                Run::Blocked(Block::Channel { id: blocked, .. }) if blocked == id
            ) {
                st.wake(tid, false);
            }
        }
    }

    /// Parks the calling receiver on an empty channel; returns `true` if the wake
    /// was a synthesized timeout.
    pub fn channel_block(&self, id: usize, timeout: bool) -> bool {
        let tid = super::current_tid();
        let mut st = self.lock_state();
        if st.abort {
            drop(st);
            self.teardown_panic();
        }
        st.steps += 1;
        st.wake_timed_out[tid] = false;
        self.block_and_park(st, tid, Block::Channel { id, timeout });
        self.lock_state().wake_timed_out[tid]
    }

    /// Barrier arrival; the `n`-th arrival is the leader and releases the rest.
    pub fn barrier_wait(&self, id: usize, n: usize) -> bool {
        self.yield_point();
        let tid = super::current_tid();
        let mut st = self.lock_state();
        if st.abort {
            drop(st);
            self.teardown_panic();
        }
        let arrivals = st.barriers.entry(id).or_default();
        arrivals.push(tid);
        if arrivals.len() >= n {
            let group = std::mem::take(arrivals);
            for other in group {
                if other != tid {
                    st.wake(other, false);
                }
            }
            true
        } else {
            self.block_and_park(st, tid, Block::Barrier(id));
            false
        }
    }

    /// Blocks until thread `target` has finished.
    pub fn join(&self, target: usize) {
        self.yield_point();
        let tid = super::current_tid();
        let st = self.lock_state();
        if st.abort {
            drop(st);
            self.teardown_panic();
        }
        if matches!(st.threads[target], Run::Finished) {
            return;
        }
        self.block_and_park(st, tid, Block::Join(target));
    }

    /// Registers a new model thread (runnable immediately; the OS thread catches up
    /// in [`Self::thread_begin`]). Returns its tid.
    pub fn register_thread(&self) -> usize {
        let mut st = self.lock_state();
        let tid = st.threads.len();
        st.threads.push(Run::Runnable);
        st.wake_timed_out.push(false);
        st.live += 1;
        if let Strategy::Pct {
            rng, priorities, ..
        } = &mut st.strategy
        {
            priorities.push(PRIORITY_BASE + rng.next_u64() % PRIORITY_BASE);
        }
        tid
    }

    /// First park of a freshly spawned model thread.
    pub fn thread_begin(&self, tid: usize) {
        let st = self.lock_state();
        self.park(st, tid);
    }

    /// Marks `tid` finished, records its failure (if any), wakes joiners, and hands
    /// the processor off if this thread was active.
    pub fn thread_end(&self, tid: usize, failure: Option<String>) {
        let mut st = self.lock_state();
        if let Some(message) = failure {
            if st.failure.is_none() {
                st.failure = Some(message);
            }
            st.abort = true;
        }
        st.threads[tid] = Run::Finished;
        st.live -= 1;
        for waiter in 0..st.threads.len() {
            if matches!(st.threads[waiter], Run::Blocked(Block::Join(target)) if target == tid) {
                st.wake(waiter, false);
            }
        }
        if st.abort {
            st.active = NO_THREAD;
        } else if st.active == tid {
            self.hand_off(&mut st);
        }
        self.cv.notify_all();
    }

    /// Blocks the (non-modeled) explorer thread until every model thread has
    /// finished. Panics if the run wedges at the OS level — which indicates a bug
    /// in the model itself, not in the code under test.
    pub(crate) fn wait_all_finished(&self) {
        let mut st = self.lock_state();
        let mut waited = Duration::ZERO;
        let step = Duration::from_millis(200);
        let budget = Duration::from_secs(60);
        while st.live > 0 {
            let (guard, _) = self
                .cv
                .wait_timeout(st, step)
                .unwrap_or_else(PoisonError::into_inner);
            st = guard;
            waited += step;
            assert!(
                waited < budget,
                "model run wedged: {} thread(s) never reached thread_end",
                st.live
            );
        }
    }

    /// The run's result: `(failure, decision trace, steps taken)`.
    pub(crate) fn outcome(&self) -> (Option<String>, Vec<(u32, u32)>, usize) {
        let st = self.lock_state();
        (st.failure.clone(), st.trace.clone(), st.steps)
    }
}
