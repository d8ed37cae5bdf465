//! The operator interface: how typed operator logic plugs into the type-erased runtime.

use std::any::Any;

use kpg_timestamp::{Antichain, Time};

use crate::fabric::{Fabric, RemoteMessage};
use crate::graph::EdgeId;

/// A type-erased, cloneable, sendable message payload.
///
/// Payloads are usually `Vec<(D, Time, R)>` update buffers or shared batch handles; the
/// runtime only needs to clone them (for fan-out to several consumers) and move them
/// across worker channels.
pub trait AnyBundle: Any + Send {
    /// Clones the payload into a new box.
    fn clone_bundle(&self) -> BundleBox;
    /// Upcasts to `Any` for downcasting by the receiving operator.
    fn as_any(&self) -> &dyn Any;
    /// Upcasts to a boxed `Any` for by-value downcasting.
    fn into_any(self: Box<Self>) -> Box<dyn Any>;
}

impl<T: Any + Send + Clone> AnyBundle for T {
    fn clone_bundle(&self) -> BundleBox {
        Box::new(self.clone())
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

/// A boxed type-erased payload.
pub type BundleBox = Box<dyn AnyBundle>;

/// Downcasts a payload to a concrete type, panicking with the operator name on mismatch.
pub fn downcast_payload<T: 'static>(payload: BundleBox, operator: &str) -> T {
    *payload
        .into_any()
        .downcast::<T>()
        .unwrap_or_else(|_| panic!("operator {operator} received a payload of unexpected type"))
}

/// The interface every operator implements.
///
/// Operators are instantiated once per worker. They receive payloads on numbered input
/// ports, perform work when scheduled (emitting payloads through the [`OutputContext`]),
/// learn about input frontier changes, and report the times at which they may still
/// produce output independently of future input (their *capabilities*).
pub trait Operator: 'static {
    /// A short name for diagnostics.
    fn name(&self) -> &str;

    /// Accepts a payload on input port `port`. Implementations should only buffer here;
    /// processing belongs in [`Operator::work`].
    fn recv(&mut self, port: usize, payload: BundleBox);

    /// Performs pending work, emitting outputs through `output`.
    ///
    /// Returns true if any work was performed (used by the quiescence protocol).
    fn work(&mut self, output: &mut OutputContext<'_>) -> bool;

    /// Observes a new frontier on input port `port`.
    ///
    /// Times not in advance of the frontier are complete: no further input will carry
    /// them. Operators that buffer state (arrange, reduce) react by minting batches or
    /// retiring pending work during their next [`Operator::work`] call.
    fn set_frontier(&mut self, port: usize, frontier: &Antichain<Time>);

    /// Inserts into `into` the times at which this operator may still produce output
    /// regardless of what its inputs do: buffered updates, scheduled future work, or
    /// (for sources) the times of data yet to be introduced.
    ///
    /// Leaving `into` empty means the operator produces output only in direct response
    /// to input. The runtime combines capabilities across workers and propagates them
    /// along edges to compute every input frontier. The caller clears and reuses the
    /// antichain, so the once-per-step capability sweep allocates nothing in steady
    /// state — which is why this writes into a caller-owned antichain instead of
    /// returning a fresh one.
    fn capabilities(&self, into: &mut Antichain<Time>);
}

/// A single emission: an edge of the dataflow whose operator produced it, a destination,
/// and a payload.
pub(crate) struct Emission {
    pub edge: EdgeId,
    pub worker: Option<usize>,
    pub payload: BundleBox,
}

/// The output side of an operator invocation.
///
/// Emissions are buffered and delivered by the worker after the operator returns, which
/// keeps operator scheduling free of re-entrancy.
pub struct OutputContext<'a> {
    pub(crate) worker_index: usize,
    pub(crate) peers: usize,
    pub(crate) dataflow: usize,
    pub(crate) node_outputs: &'a [EdgeId],
    pub(crate) emissions: &'a mut Vec<Emission>,
    pub(crate) fabric: &'a Fabric,
}

impl<'a> OutputContext<'a> {
    /// The index of the worker running this operator.
    pub fn worker_index(&self) -> usize {
        self.worker_index
    }

    /// The total number of workers.
    pub fn peers(&self) -> usize {
        self.peers
    }

    /// Emits `payload` along every outgoing edge of this node, to the local worker.
    ///
    /// This is the common case: operators produce data for their local downstream
    /// consumers; only explicit exchange operators send across workers. When the node has
    /// several consumers the payload is cloned per edge.
    pub fn send(&mut self, payload: BundleBox) {
        self.fan_out(None, payload);
    }

    /// Emits `payload` along every outgoing edge, destined for worker `worker`.
    ///
    /// Used by exchange operators, which partition their input by key and route each
    /// partition to the worker that owns it.
    pub fn send_to_worker(&mut self, worker: usize, payload: BundleBox) {
        let destination = (worker != self.worker_index).then_some(worker);
        self.fan_out(destination, payload);
    }

    /// The shared fan-out path: emits `payload` along every outgoing edge towards
    /// `destination` (`None` = this worker), cloning only for all but the last edge and
    /// allocating nothing beyond those clones.
    fn fan_out(&mut self, destination: Option<usize>, payload: BundleBox) {
        let outputs = self.node_outputs;
        let Some((&last, rest)) = outputs.split_last() else {
            return;
        };
        for &edge in rest {
            self.push(edge, destination, payload.clone_bundle());
        }
        self.push(last, destination, payload);
    }

    fn push(&mut self, edge: EdgeId, destination: Option<usize>, payload: BundleBox) {
        match destination {
            None => self.emissions.push(Emission {
                edge,
                worker: None,
                payload,
            }),
            Some(worker) => {
                // Remote messages go straight to the fabric; local ones are queued for
                // in-order delivery by the worker loop.
                self.fabric.send(
                    worker,
                    RemoteMessage {
                        dataflow: self.dataflow,
                        edge: edge.0,
                        payload,
                    },
                );
            }
        }
    }
}

/// Test support: drives one [`Operator::work`] call with a fresh single-edge
/// [`OutputContext`] over a throwaway fabric of `peers` workers, returning the
/// operator's work report and every emitted payload with its destination
/// (`None` = local to `worker_index`). Lets other crates unit-test operator hot paths
/// (e.g. exchange bucket reuse) without standing up a full worker runtime.
#[doc(hidden)]
pub fn drive_operator_work(
    operator: &mut dyn Operator,
    worker_index: usize,
    peers: usize,
) -> (bool, Vec<(Option<usize>, BundleBox)>) {
    let (fabric, receivers) = Fabric::new(peers);
    let mut emissions = Vec::new();
    let outputs = [EdgeId(0)];
    let mut context = OutputContext {
        worker_index,
        peers,
        dataflow: 0,
        node_outputs: &outputs,
        emissions: &mut emissions,
        fabric: &fabric,
    };
    let did_work = operator.work(&mut context);
    let mut sent: Vec<(Option<usize>, BundleBox)> = emissions
        .into_iter()
        .map(|emission| (None, emission.payload))
        .collect();
    for (worker, receiver) in receivers.iter().enumerate() {
        while let Ok(message) = receiver.try_recv() {
            fabric.acknowledge();
            sent.push((Some(worker), message.payload));
        }
    }
    (did_work, sent)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_roundtrip_through_any() {
        let payload: BundleBox = Box::new(vec![(1u64, 2u64)]);
        let cloned = payload.clone_bundle();
        let back: Vec<(u64, u64)> = downcast_payload(cloned, "test");
        assert_eq!(back, vec![(1, 2)]);
    }

    #[test]
    #[should_panic(expected = "unexpected type")]
    fn payload_downcast_mismatch_panics() {
        let payload: BundleBox = Box::new(42u32);
        let _: Vec<u64> = downcast_payload(payload, "test");
    }
}
