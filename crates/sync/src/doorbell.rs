//! The worker doorbell: an epoch-counting wakeup primitive in the eventfd mold.
//!
//! The server's sequencer appends a whole *batch* of commands and must wake the
//! worker pool exactly once — not once per command, and not by having workers
//! poll a condvar with timeouts. [`Doorbell`] is that primitive:
//!
//! * [`Doorbell::ring`] is **O(1) and lock-free on the fast path**: one atomic
//!   increment, plus a mutex/notify pass only when a sleeper is actually parked.
//!   Ringing an idle doorbell (everyone busy) costs a single `fetch_add`.
//! * [`Doorbell::wait`] parks until *any* ring newer than the epoch the caller
//!   last observed — the caller re-checks its real condition (the log grew, the
//!   server closed) after every return, classic condvar discipline.
//!
//! The usage protocol that makes lost wakeups impossible:
//!
//! ```text
//! let seen = bell.epoch();      // 1: snapshot
//! if work_available() { ... }   // 2: check the resource
//! bell.wait(seen);              // 3: park only if nothing rang since 1
//! ```
//!
//! A producer always makes work visible *before* ringing. If the producer's ring
//! lands between steps 1 and 3, `wait` observes `rings != seen` and returns
//! immediately; if it lands before step 1, step 2 sees the work. Both loads and
//! increments are `SeqCst`, so there is no interleaving in which the consumer
//! both misses the work at step 2 and sleeps through the ring at step 3 — the
//! same Dekker-style argument the facade's model scheduler can check, since the
//! doorbell is built entirely from facade primitives ([`AtomicU64`] +
//! [`Mutex`]/[`Condvar`]) and is therefore fully visible to `model::explore`.

use std::time::Duration;

use crate::atomic::{AtomicU64, AtomicUsize, Ordering};
use crate::{Condvar, Mutex};

/// An epoch-counting wakeup doorbell. See the module docs for the protocol.
pub struct Doorbell {
    /// Total rings ever — the epoch. Never decreases; wrap-around is a
    /// theoretical 2^64 rings away.
    rings: AtomicU64,
    /// How many threads are inside `wait` past the fast-path check. Lets `ring`
    /// skip the mutex+notify entirely when nobody is parked.
    sleepers: AtomicUsize,
    /// The parking lot. Holds no data — the epoch is the data — but waits must
    /// re-read `rings` under this lock to close the check-then-park window.
    gate: Mutex<()>,
    bell: Condvar,
}

impl Doorbell {
    /// A doorbell with no rings yet.
    pub const fn new() -> Doorbell {
        Doorbell {
            rings: AtomicU64::new(0),
            sleepers: AtomicUsize::new(0),
            gate: Mutex::new(()),
            bell: Condvar::new(),
        }
    }

    /// The current epoch. Snapshot this *before* checking for work; pass it to
    /// [`Doorbell::wait`] so a ring between the check and the park is not lost.
    pub fn epoch(&self) -> u64 {
        self.rings.load(Ordering::SeqCst)
    }

    /// Rings the doorbell: every current and future [`Doorbell::wait`] whose
    /// `seen` epoch predates this call returns. O(1); takes the internal lock
    /// only when a waiter is actually parked.
    pub fn ring(&self) {
        self.rings.fetch_add(1, Ordering::SeqCst);
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            // The lock pass orders this notify after the sleeper's under-lock
            // epoch re-check: either the sleeper saw the new epoch and never
            // parked, or it parked before we acquired the gate and this notify
            // reaches it.
            drop(self.gate.lock().unwrap());
            self.bell.notify_all();
        }
    }

    /// Parks the calling thread until the epoch advances past `seen`. Returns
    /// immediately if it already has. Spurious returns are allowed (and under the
    /// model scheduler, exercised) — callers re-check their condition in a loop.
    pub fn wait(&self, seen: u64) {
        if self.rings.load(Ordering::SeqCst) != seen {
            return;
        }
        #[cfg(not(any(feature = "model", miri)))]
        if self.spin(seen) {
            return;
        }
        if self.rings.load(Ordering::SeqCst) != seen {
            return;
        }
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        let mut guard = self.gate.lock().unwrap();
        // Re-check under the lock: a ring between the fast-path check and the
        // lock acquisition either bumped the epoch (seen here) or will take the
        // gate after us and notify.
        while self.rings.load(Ordering::SeqCst) == seen {
            guard = self.bell.wait(guard).unwrap();
        }
        drop(guard);
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
    }

    /// The brief spin before parking: a sequencer that is about to ring usually
    /// does so within a microsecond, and dodging the park/unpark syscall pair is
    /// worth ~10µs of round-trip latency. Bounded; skipped under the model
    /// scheduler (where spinning is livelock), under Miri (where it is just slow),
    /// and on a single hardware thread (where the ringer cannot run until we yield
    /// the CPU, so spinning only delays it). Returns whether the epoch moved.
    #[cfg(not(any(feature = "model", miri)))]
    fn spin(&self, seen: u64) -> bool {
        for _ in 0..spin_budget() {
            if self.rings.load(Ordering::Relaxed) != seen {
                // Confirm with the ordering the protocol argument relies on.
                if self.rings.load(Ordering::SeqCst) != seen {
                    return true;
                }
            }
            std::hint::spin_loop();
        }
        false
    }

    /// How long [`Doorbell::wait`] spins before it parks when nothing rings: the
    /// spin itself, timed once per process (the fastest of three, so a preempted
    /// measurement does not stick; 55–61 µs on a 2-vCPU Xeon VM). Zero wherever the
    /// doorbell does not spin. A thread that waits some other way — the server's
    /// reactor, in `epoll_wait` — polls for this long before it blocks, so every
    /// waiter gives its producer the same window.
    pub fn spin_window() -> Duration {
        #[cfg(not(any(feature = "model", miri)))]
        {
            static WINDOW: std::sync::OnceLock<Duration> = std::sync::OnceLock::new();
            *WINDOW.get_or_init(|| {
                let idle = Doorbell::new();
                let timed = || {
                    let start = std::time::Instant::now();
                    idle.spin(0);
                    start.elapsed()
                };
                (0..3).map(|_| timed()).min().unwrap_or_default()
            })
        }
        #[cfg(any(feature = "model", miri))]
        Duration::ZERO
    }

    /// Like [`Doorbell::wait`] but gives up after `timeout`. Returns `true` if
    /// the epoch advanced, `false` on timeout.
    pub fn wait_timeout(&self, seen: u64, timeout: Duration) -> bool {
        if self.rings.load(Ordering::SeqCst) != seen {
            return true;
        }
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        let mut guard = self.gate.lock().unwrap();
        let mut rang = true;
        while self.rings.load(Ordering::SeqCst) == seen {
            let (reacquired, result) = self.bell.wait_timeout(guard, timeout).unwrap();
            guard = reacquired;
            if result.timed_out() {
                rang = self.rings.load(Ordering::SeqCst) != seen;
                break;
            }
        }
        drop(guard);
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
        rang
    }
}

/// How long to spin in [`Doorbell::wait`] before parking: 4096 iterations on a
/// multi-core machine, zero on a single hardware thread (a spinner there holds
/// the only CPU the would-be ringer needs).
#[cfg(not(any(feature = "model", miri)))]
fn spin_budget() -> u32 {
    static BUDGET: std::sync::OnceLock<u32> = std::sync::OnceLock::new();
    *BUDGET.get_or_init(|| match std::thread::available_parallelism() {
        Ok(cores) if cores.get() > 1 => 4096,
        _ => 0,
    })
}

impl Default for Doorbell {
    fn default() -> Doorbell {
        Doorbell::new()
    }
}

impl std::fmt::Debug for Doorbell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Doorbell")
            .field("epoch", &self.rings.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{thread, Arc};

    #[test]
    fn ring_before_wait_returns_immediately() {
        let bell = Doorbell::new();
        let seen = bell.epoch();
        bell.ring();
        bell.wait(seen); // must not hang
        assert_eq!(bell.epoch(), seen + 1);
    }

    #[test]
    fn the_spin_window_is_measured_once_and_bounded() {
        let window = Doorbell::spin_window();
        assert_eq!(Doorbell::spin_window(), window, "timed once per process");
        assert!(window < Duration::from_millis(50), "{window:?}");
    }

    #[test]
    fn wait_timeout_reports_timeout() {
        let bell = Doorbell::new();
        let seen = bell.epoch();
        assert!(!bell.wait_timeout(seen, Duration::from_millis(10)));
        bell.ring();
        assert!(bell.wait_timeout(seen, Duration::from_millis(10)));
    }

    #[test]
    fn one_ring_wakes_every_parked_waiter() {
        let bell = Arc::new(Doorbell::new());
        let seen = bell.epoch();
        let waiters: Vec<_> = (0..4)
            .map(|index| {
                let bell = Arc::clone(&bell);
                thread::Builder::new()
                    .name(format!("waiter-{index}"))
                    .spawn(move || bell.wait(seen))
                    .unwrap()
            })
            .collect();
        // Let the waiters park (best effort; the protocol is correct either way).
        std::thread::sleep(Duration::from_millis(20));
        bell.ring();
        for waiter in waiters {
            waiter.join().unwrap();
        }
    }

    #[test]
    fn producer_consumer_never_loses_a_wakeup() {
        // Hammer the protocol from the module docs: a producer publishes N items
        // and rings once per item; the consumer must drain all N without hanging.
        const ITEMS: u64 = 10_000;
        let bell = Arc::new(Doorbell::new());
        let published = Arc::new(AtomicU64::new(0));

        let producer = {
            let bell = Arc::clone(&bell);
            let published = Arc::clone(&published);
            thread::Builder::new()
                .name("producer".into())
                .spawn(move || {
                    for next in 1..=ITEMS {
                        published.store(next, Ordering::SeqCst);
                        bell.ring();
                    }
                })
                .unwrap()
        };

        let mut consumed = 0;
        while consumed < ITEMS {
            let seen = bell.epoch();
            let available = published.load(Ordering::SeqCst);
            if available > consumed {
                consumed = available;
                continue;
            }
            bell.wait(seen);
        }
        producer.join().unwrap();
        assert_eq!(consumed, ITEMS);
    }
}
