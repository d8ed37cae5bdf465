//! The safe readiness surface: [`Poller`], [`Interest`], [`Event`], and the
//! cross-thread [`Waker`].
//!
//! Everything here is safe Rust; the platform syscalls live in `crate::sys`. The
//! poller is level-triggered on both backends: an fd with unconsumed readiness is
//! reported again on the next wait, so a consumer that processes only part of what
//! is available stays correct (if not maximally efficient) — the property the
//! server's read-interest backpressure relies on.

use std::io;
use std::os::fd::AsRawFd;
use std::time::Duration;

use kpg_sync::atomic::{AtomicBool, Ordering};

use crate::sys;

/// What a registration wants to hear about.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interest {
    /// Readiness to read (incoming bytes, pending accepts, peer hangup).
    pub read: bool,
    /// Readiness to write (socket send buffer has room).
    pub write: bool,
}

impl Interest {
    /// Read interest only.
    pub const READ: Interest = Interest {
        read: true,
        write: false,
    };
    /// Write interest only.
    pub const WRITE: Interest = Interest {
        read: false,
        write: true,
    };
    /// Both directions.
    pub const BOTH: Interest = Interest {
        read: true,
        write: true,
    };
    /// Registered but currently muted (backpressure): hangups still surface as
    /// read readiness on the next unmute or write attempt.
    pub const NONE: Interest = Interest {
        read: false,
        write: false,
    };
}

/// One decoded readiness event. Error and hangup conditions are folded into
/// `readable`/`writable` — a read or write on the fd observes the actual state,
/// which is the only robust way to learn *what* happened.
#[derive(Clone, Copy, Debug)]
pub struct Event {
    /// The token the fd was registered under.
    pub token: u64,
    /// The fd will not block on read (data, accept, EOF, or error pending).
    pub readable: bool,
    /// The fd will not block on write (or is in an error state a write reports).
    pub writable: bool,
}

/// A readiness selector: epoll on Linux, kqueue on the BSDs. One instance serves
/// any number of registered fds; [`Poller::wait`] parks the calling thread until
/// something is ready, a timeout passes, or a [`Waker`] is rung.
pub struct Poller {
    selector: sys::Selector,
    scratch: std::cell::RefCell<Vec<sys::RawEvent>>,
}

impl Poller {
    /// Creates a poller.
    pub fn new() -> io::Result<Poller> {
        Ok(Poller {
            selector: sys::Selector::new()?,
            scratch: std::cell::RefCell::new(Vec::with_capacity(256)),
        })
    }

    /// Registers `fd` under `token` with the given interest. The fd must stay open
    /// until [`Poller::deregister`]; the caller keeps ownership.
    pub fn register(&self, fd: &impl AsRawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.selector
            .register(fd.as_raw_fd(), token, interest.read, interest.write)
    }

    /// Replaces the interest set of an already registered fd.
    pub fn reregister(&self, fd: &impl AsRawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.selector
            .modify(fd.as_raw_fd(), token, interest.read, interest.write)
    }

    /// Removes a registration. (Closing an fd deregisters it implicitly on both
    /// backends, but doing it explicitly keeps the bookkeeping honest.)
    pub fn deregister(&self, fd: &impl AsRawFd) -> io::Result<()> {
        self.selector.deregister(fd.as_raw_fd())
    }

    /// Blocks until at least one registered fd is ready (or `timeout` elapses, or a
    /// registered [`Waker`] is rung), appending the events to `events`. `None`
    /// blocks indefinitely. Returns the number of events appended; zero means the
    /// timeout elapsed.
    pub fn wait(&self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<usize> {
        let mut scratch = self.scratch.borrow_mut();
        scratch.clear();
        self.selector.wait(&mut scratch, timeout)?;
        let count = scratch.len();
        events.extend(scratch.drain(..).map(|raw| Event {
            token: raw.token,
            readable: raw.readable,
            writable: raw.writable,
        }));
        Ok(count)
    }
}

/// Wakes a thread parked in [`Poller::wait`] from any other thread.
///
/// A pipe-based doorbell in the eventfd mold: ringing writes one byte the poller
/// sees as read readiness on the waker's token. An [`AtomicBool`] keeps at most one
/// byte in flight no matter how many threads ring concurrently, so ringing is a
/// single atomic swap (plus one 1-byte write for the first ringer) and can never
/// block — the pipe never holds more than one byte.
pub struct Waker {
    reader: std::io::PipeReader,
    writer: std::io::PipeWriter,
    rung: AtomicBool,
}

impl Waker {
    /// Creates a waker and registers its read side with `poller` under `token`.
    pub fn new(poller: &Poller, token: u64) -> io::Result<Waker> {
        let (reader, writer) = std::io::pipe()?;
        // Nonblocking on both ends: a drain with nothing pending must not park the
        // reactor, and a ring must never park the ringer (the flag already bounds
        // the pipe to one byte, this is belt and braces).
        sys::set_nonblocking(reader.as_raw_fd())?;
        sys::set_nonblocking(writer.as_raw_fd())?;
        let waker = Waker {
            reader,
            writer,
            rung: AtomicBool::new(false),
        };
        poller.register(&waker.reader, token, Interest::READ)?;
        Ok(waker)
    }

    /// Rings the doorbell: the poller's current (or next) wait returns with a
    /// readable event on the waker's token. Idempotent until drained.
    pub fn wake(&self) {
        use std::io::Write;
        if !self.rung.swap(true, Ordering::SeqCst) {
            // One byte; the flag guarantees the pipe was empty, so this cannot
            // block and a failure (unreachable in practice) only costs a wakeup
            // that the next ring re-attempts.
            let _ = (&self.writer).write(&[1u8]);
        }
    }

    /// Consumes the pending wakeup. Call after the poller reports the waker's
    /// token, *before* draining whatever queue the ring advertised: a ring that
    /// arrives after this reset writes a fresh byte and re-wakes the poller, so no
    /// notification is lost.
    pub fn drain(&self) {
        use std::io::Read;
        let mut sink = [0u8; 16];
        let _ = (&self.reader).read(&mut sink);
        self.rung.store(false, Ordering::SeqCst);
    }
}

impl std::fmt::Debug for Waker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Waker").finish_non_exhaustive()
    }
}
