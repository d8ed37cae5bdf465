//! Response routing: how a completed command's answer travels back toward the
//! client that asked.
//!
//! The sequencer core does not know whether a client is an in-process test
//! handle or a socket owned by the reactor; it knows only that each registered
//! client has a [`ResponseRoute`]. Two implementations exist:
//!
//! * [`ChannelRoute`] — an mpsc channel, one per client. What
//!   [`ServerCore::register_client`](crate::ServerCore::register_client)
//!   creates; the embedding test blocks on the receiver.
//! * [`QueueRoute`] — one shared queue for every socket-backed client, drained
//!   by the reactor. The reactor is worker 0 of the socket server, so most
//!   deliveries are made on the reactor's own thread, which drains the queue on
//!   its next pass anyway: those ring nothing. A delivery made on any other
//!   thread — worker k ≥ 1 depositing a command's last result — rings the
//!   reactor's waker when the queue goes non-empty, so the worker pool never
//!   blocks on socket writes and the reactor coalesces all responses that arrived
//!   since its last pass into one flush per connection.
//!
//! Delivery happens under the core's client-state lock, in completion order —
//! which (per the engine's aggregation rules) is log order, so each client's
//! responses are delivered in its request order no matter the route.

use std::cell::Cell;

use kpg_sync::{mpsc, Mutex};
use kpg_wire::Response;

use crate::ClientId;

/// Where one client's responses go. Implementations must tolerate delivery
/// after the client has departed (drop the response) and must not block: a
/// route is invoked under the core's client-state lock.
pub trait ResponseRoute: Send + Sync {
    /// Delivers the response to `client`'s request number `reply`.
    fn deliver(&self, client: ClientId, reply: u64, response: Response);
}

/// The per-client channel route behind
/// [`ServerCore::register_client`](crate::ServerCore::register_client).
pub struct ChannelRoute {
    sender: mpsc::Sender<(u64, Response)>,
}

impl ChannelRoute {
    /// Wraps the sending half of a client's response channel.
    pub fn new(sender: mpsc::Sender<(u64, Response)>) -> ChannelRoute {
        ChannelRoute { sender }
    }
}

impl ResponseRoute for ChannelRoute {
    fn deliver(&self, _client: ClientId, reply: u64, response: Response) {
        // A send fails only if the receiver is gone — the client departed and
        // the response is moot.
        let _ = self.sender.send((reply, response));
    }
}

impl std::fmt::Debug for ChannelRoute {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChannelRoute").finish_non_exhaustive()
    }
}

/// One response waiting in a [`QueueRoute`]: the client, its request number, the
/// answer.
pub type Delivery = (ClientId, u64, Response);

thread_local! {
    /// The address of the [`QueueRoute`] this thread drains, or 0: set for the
    /// lifetime of a [`Drainer`].
    static DRAINS: Cell<usize> = const { Cell::new(0) };
}

/// The reactor's route: one queue shared by every socket-backed client, and the
/// rule for when a delivery must wake the thread that drains it — see the module
/// docs.
pub struct QueueRoute {
    queue: Mutex<Vec<Delivery>>,
    wake: Box<dyn Fn() + Send + Sync>,
}

impl QueueRoute {
    /// An empty queue whose off-thread deliveries call `wake` (the server passes
    /// its reactor's `Waker`).
    pub fn new(wake: impl Fn() + Send + Sync + 'static) -> QueueRoute {
        QueueRoute {
            queue: Mutex::new(Vec::new()),
            wake: Box::new(wake),
        }
    }

    /// Marks the calling thread as the one that drains this queue until the guard
    /// drops. That thread promises to [`take`](QueueRoute::take) the queue before
    /// it next waits, so its own deliveries do not call `wake`.
    pub fn drain_here(&self) -> Drainer<'_> {
        DRAINS.with(|drains| drains.set(self.address()));
        Drainer { _route: self }
    }

    /// Everything delivered since the last take, in delivery order.
    pub fn take(&self) -> Vec<Delivery> {
        std::mem::take(&mut *self.queue.lock().expect("response queue poisoned"))
    }

    fn address(&self) -> usize {
        std::ptr::from_ref(self) as usize
    }
}

impl ResponseRoute for QueueRoute {
    fn deliver(&self, client: ClientId, reply: u64, response: Response) {
        let mut queue = self.queue.lock().expect("response queue poisoned");
        let was_empty = queue.is_empty();
        queue.push((client, reply, response));
        drop(queue);
        // Wake only on the empty→non-empty transition, and only from another thread.
        // The drainer takes the queue whole under the same lock, so one pending wake
        // covers every response that lands before it runs — a batch of N responses
        // costs one waker syscall, not N — and a queue the drainer itself made
        // non-empty is taken before it next waits, so a push behind its own needs no
        // wake either. (A push racing the take sees the queue empty again and
        // re-wakes, so no response is ever left sleeping.)
        if was_empty && DRAINS.with(Cell::get) != self.address() {
            (self.wake)();
        }
    }
}

impl std::fmt::Debug for QueueRoute {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueueRoute").finish_non_exhaustive()
    }
}

/// The calling thread drains a [`QueueRoute`] while this lives — see
/// [`QueueRoute::drain_here`].
pub struct Drainer<'a> {
    _route: &'a QueueRoute,
}

impl Drop for Drainer<'_> {
    fn drop(&mut self) {
        DRAINS.with(|drains| drains.set(0));
    }
}
