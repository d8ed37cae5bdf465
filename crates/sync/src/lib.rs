//! The workspace's concurrency facade.
//!
//! Every crate in this repository synchronizes through these types instead of
//! `std::sync`/`std::thread` (enforced by the `lint_sync` scanner in `kpg_bench`).
//! The facade compiles to three progressively stricter behaviors:
//!
//! * **Release, no `model` feature** — thin `#[inline]` wrappers over the std
//!   primitives. Zero cost: no tracking, no branches, no extra state.
//! * **Debug builds (both modes)** — every [`Mutex`] acquisition feeds a
//!   process-wide *lock-order graph*; a cycle (AB/BA deadlock potential) panics with
//!   the offending chain of acquisition sites. [`blocking::annotate`] additionally
//!   panics when a blocking syscall (fsync, socket IO) runs while a tracked lock is
//!   held, unless the site opted in via [`blocking::allow_blocking`].
//! * **`model` feature** — operations performed by a thread inside
//!   `model::explore` route through an in-tree deterministic scheduler: exactly one
//!   runnable thread at a time, scheduling decisions taken by a seeded PCT-style
//!   strategy or exhaustive small-bound enumeration, every blocking operation visible
//!   to the scheduler (so real deadlocks are *detected*, not hung on), and every
//!   failing schedule replayable from its printed seed or decision trace. Threads
//!   outside a model run (ordinary tests sharing the binary) fall through to the std
//!   behavior above.
//!
//! The rules for using the facade are documented in the repository README under
//! "Concurrency verification".

#![forbid(unsafe_code)]

mod barrier;
pub mod blocking;
mod condvar;
mod doorbell;
pub mod mpsc;
mod mutex;
pub mod order;
pub mod thread;

pub mod atomic;

#[cfg(feature = "model")]
pub mod model;

pub use barrier::{Barrier, BarrierWaitResult};
pub use condvar::{Condvar, WaitTimeoutResult};
pub use doorbell::Doorbell;
pub use mutex::{Mutex, MutexGuard};

// Pure re-exports: these have no blocking semantics a scheduler needs to see (an
// `Arc` clone never waits), so the std types are the facade.
pub use std::sync::{Arc, LockResult, OnceLock, PoisonError, TryLockError, TryLockResult, Weak};

/// One scheduling point: under an active model run this hands control to the
/// scheduler (which may run any other runnable thread before returning); otherwise it
/// is free. Facade operations call this before every visible effect.
#[inline]
pub(crate) fn model_yield() {
    #[cfg(feature = "model")]
    if let Some(scheduler) = model::current() {
        scheduler.yield_point();
    }
}
