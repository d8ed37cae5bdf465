//! A dependency-free readiness reactor: the event-driven I/O layer under
//! `kpg_server`.
//!
//! The crate has exactly three layers, from bottom to top:
//!
//! * `sys` (private) — the platform selector: epoll on Linux, kqueue on the
//!   BSDs and macOS, reached through hand-written `extern "C"` declarations.
//!   This module is the workspace's **third sanctioned unsafe site** (after the
//!   server binary's signal-handler registration and the recovery test's
//!   `kill`): every `unsafe` block carries a SAFETY comment and the module is
//!   enumerated in `lint_unsafe_allow.txt`, which the `lint_sync` scanner
//!   enforces. Everything above it — including everything this crate exports —
//!   is safe Rust.
//! * [`poller`] — the safe readiness surface: [`Poller`] multiplexes any number
//!   of fds on one thread, [`Interest`] mutes and unmutes directions (the
//!   backpressure lever), and [`Waker`] lets any thread pop a parked
//!   [`Poller::wait`].
//! * [`conn`] — the per-connection state machine: [`FrameStream`] does
//!   incremental frame assembly (via `kpg_wire`'s [`FrameAssembler`]) on reads
//!   and coalesced, partial-write-safe frame emission on writes, never
//!   blocking in either direction.
//!
//! What this crate deliberately does *not* contain: threads, locks, protocol
//! knowledge, or server policy. The reactor loop itself — accept handling,
//! batched sequencing, response routing — lives in `kpg_server::net`, built
//! from these parts.
//!
//! [`FrameAssembler`]: kpg_wire::FrameAssembler

#![deny(missing_docs)]
// `forbid` would be unoverridable; `sys` opts back in with `allow(unsafe_code)`
// and is the only module permitted to (see the unsafe-audit inventory in the
// README).
#![deny(unsafe_code)]

pub mod conn;
pub mod poller;
mod sys;

pub use conn::{FillOutcome, FlushProgress, FrameStream};
pub use poller::{Event, Interest, Poller, Waker};
