//! The exchange fabric: channels connecting workers.
//!
//! Workers are independent threads, each running an identical dataflow graph over its own
//! shard of the data (paper §3.1). Data crosses worker boundaries only at explicit
//! exchange operators; everything else is worker-local. The fabric provides one inbox per
//! worker and cloneable senders to every inbox, plus a global count of messages in flight
//! used by the quiescence protocol.

use kpg_sync::atomic::{AtomicI64, Ordering};
use kpg_sync::mpsc::{channel, Receiver, Sender};
use kpg_sync::Arc;

use crate::operator::BundleBox;

/// A message sent between workers: a payload destined for an edge of a dataflow.
///
/// The address is the dataflow's ordinal: every worker constructs the same dataflows in
/// the same order, and an ordinal is never handed out twice, so it names one dataflow on
/// every worker for the whole computation. Workers construct and retire dataflows only
/// between steps, and a step ends with every inbox empty, so the receiver always holds
/// the addressed dataflow; one that does not panics.
pub struct RemoteMessage {
    /// The ordinal of the dataflow the message is addressed to.
    pub dataflow: usize,
    /// The edge (channel) within the dataflow the payload travels along.
    pub edge: usize,
    /// The type-erased payload.
    pub payload: BundleBox,
}

/// Shared state for routing messages between workers.
pub struct Fabric {
    senders: Vec<Sender<RemoteMessage>>,
    in_flight: AtomicI64,
}

impl Fabric {
    /// Creates a fabric for `workers` workers, returning the shared fabric and each
    /// worker's private inbox.
    pub fn new(workers: usize) -> (Arc<Fabric>, Vec<Receiver<RemoteMessage>>) {
        let mut senders = Vec::with_capacity(workers);
        let mut receivers = Vec::with_capacity(workers);
        for _ in 0..workers {
            let (tx, rx) = channel();
            senders.push(tx);
            receivers.push(rx);
        }
        (
            Arc::new(Fabric {
                senders,
                in_flight: AtomicI64::new(0),
            }),
            receivers,
        )
    }

    /// Sends a message to `worker`'s inbox, incrementing the in-flight count.
    ///
    /// The increment is `Relaxed`: the counter is only compared against zero by the
    /// quiescence protocol, which reads it *after* a barrier that already orders every
    /// worker's sends and acknowledgements, and the increment is ordered before the
    /// matching decrement by the channel transfer itself (a receiver can only
    /// acknowledge a message that was observably sent). `SeqCst` here serialized every
    /// cross-worker message through one globally ordered RMW for no protocol benefit.
    pub fn send(&self, worker: usize, message: RemoteMessage) {
        self.in_flight.fetch_add(1, Ordering::Relaxed);
        self.senders[worker]
            .send(message)
            .expect("worker inbox disconnected");
    }

    /// Records that a previously sent message has been received and enqueued locally.
    pub fn acknowledge(&self) {
        self.acknowledge_n(1);
    }

    /// Records `count` received messages with a single decrement, so an inbox drain
    /// sweep costs one atomic operation instead of one per message.
    ///
    /// `AcqRel`: the release half publishes the local enqueueing that preceded the
    /// acknowledgement, and the acquire half pairs with other workers' decrements, so a
    /// worker that reads zero in-flight also observes every delivery that got it there.
    pub fn acknowledge_n(&self, count: usize) {
        if count > 0 {
            self.in_flight.fetch_sub(count as i64, Ordering::AcqRel);
        }
    }

    /// The number of messages sent but not yet received.
    pub fn in_flight(&self) -> i64 {
        self.in_flight.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fabric_tracks_in_flight_messages() {
        let (fabric, receivers) = Fabric::new(2);
        assert_eq!(fabric.in_flight(), 0);
        fabric.send(
            1,
            RemoteMessage {
                dataflow: 0,
                edge: 3,
                payload: Box::new(vec![1u64]),
            },
        );
        assert_eq!(fabric.in_flight(), 1);
        let message = receivers[1].try_recv().expect("message delivered");
        fabric.acknowledge();
        assert_eq!(message.edge, 3);
        assert_eq!(fabric.in_flight(), 0);
        assert!(receivers[0].try_recv().is_err());
    }
}
