//! Generic operator building blocks: stateless unary operators, concatenation, exchange.

use std::marker::PhantomData;

use kpg_dataflow::operator::{downcast_payload, BundleBox, Operator, OutputContext};
use kpg_dataflow::Time;
use kpg_timestamp::Antichain;
use kpg_trace::{Data, Semigroup};

/// The payload carried by collection streams: a buffer of `(data, time, diff)` updates.
pub type UpdateVec<D, R> = Vec<(D, Time, R)>;

/// A stateless operator applying a buffer-to-buffer transformation.
///
/// Map, filter, flat_map, negate, inspect, and the retiming halves of loop feedback and
/// leave are all instances of this operator with different closures. Stateless operators
/// hold no capabilities: they respond to input immediately and never speak first.
pub struct StatelessUnary<D1, R1, D2, R2, L>
where
    L: FnMut(UpdateVec<D1, R1>) -> UpdateVec<D2, R2>,
{
    name: &'static str,
    logic: L,
    pending: Vec<UpdateVec<D1, R1>>,
    _marker: PhantomData<(D2, R2)>,
}

impl<D1, R1, D2, R2, L> StatelessUnary<D1, R1, D2, R2, L>
where
    L: FnMut(UpdateVec<D1, R1>) -> UpdateVec<D2, R2>,
{
    /// Creates a stateless operator with the given name and buffer transformation.
    pub fn new(name: &'static str, logic: L) -> Self {
        StatelessUnary {
            name,
            logic,
            pending: Vec::new(),
            _marker: PhantomData,
        }
    }
}

impl<D1, R1, D2, R2, L> Operator for StatelessUnary<D1, R1, D2, R2, L>
where
    D1: Data,
    R1: Semigroup,
    D2: Data,
    R2: Semigroup,
    L: FnMut(UpdateVec<D1, R1>) -> UpdateVec<D2, R2> + 'static,
{
    fn name(&self) -> &str {
        self.name
    }
    fn recv(&mut self, _port: usize, payload: BundleBox) {
        self.pending
            .push(downcast_payload::<UpdateVec<D1, R1>>(payload, self.name));
    }
    fn work(&mut self, output: &mut OutputContext<'_>) -> bool {
        if self.pending.is_empty() {
            return false;
        }
        for buffer in self.pending.drain(..) {
            let transformed = (self.logic)(buffer);
            if !transformed.is_empty() {
                output.send(Box::new(transformed));
            }
        }
        true
    }
    fn set_frontier(&mut self, _port: usize, _frontier: &Antichain<Time>) {}
    fn capabilities(&self, into: &mut Antichain<Time>) {
        for buffer in self.pending.iter() {
            for (_, time, _) in buffer.iter() {
                into.insert(*time);
            }
        }
    }
}

/// Concatenates any number of update streams of the same type.
pub struct Concat<D, R> {
    pending: Vec<UpdateVec<D, R>>,
}

impl<D, R> Concat<D, R> {
    /// Creates a concatenation operator.
    pub fn new() -> Self {
        Concat {
            pending: Vec::new(),
        }
    }
}

impl<D, R> Default for Concat<D, R> {
    fn default() -> Self {
        Self::new()
    }
}

impl<D: Data, R: Semigroup> Operator for Concat<D, R> {
    fn name(&self) -> &str {
        "Concat"
    }
    fn recv(&mut self, _port: usize, payload: BundleBox) {
        self.pending
            .push(downcast_payload::<UpdateVec<D, R>>(payload, "Concat"));
    }
    fn work(&mut self, output: &mut OutputContext<'_>) -> bool {
        if self.pending.is_empty() {
            return false;
        }
        for buffer in self.pending.drain(..) {
            if !buffer.is_empty() {
                output.send(Box::new(buffer));
            }
        }
        true
    }
    fn set_frontier(&mut self, _port: usize, _frontier: &Antichain<Time>) {}
    fn capabilities(&self, into: &mut Antichain<Time>) {
        for buffer in self.pending.iter() {
            for (_, time, _) in buffer.iter() {
                into.insert(*time);
            }
        }
    }
}

/// Routes updates to the worker that owns their key, by hashing.
///
/// This is the data-exchange half of the paper's decomposition of stateful operators
/// (Figure 2): `exchange` moves records to the worker responsible for their key, and the
/// downstream `arrange` indexes them there. Everything after the exchange is worker-local.
///
/// The hot path is allocation-amortized: received payloads are kept whole (not copied
/// into a staging buffer), and the routing pass scatters them into *persistent*
/// per-worker buckets whose capacity is retained across flushes. Each flush allocates
/// only the exactly-sized payloads actually sent; in steady state the buckets themselves
/// never reallocate. With one worker every record is already home, so
/// [`Collection::arrange_core`](crate::collection::Collection::arrange_core) builds no
/// exchange at all.
pub struct Exchange<D, R, H>
where
    H: FnMut(&D) -> u64,
{
    route: H,
    /// Received payloads, awaiting routing.
    pending: Vec<UpdateVec<D, R>>,
    /// Per-destination scratch buffers, drained (capacity retained) at each flush.
    buckets: Vec<UpdateVec<D, R>>,
}

impl<D, R, H: FnMut(&D) -> u64> Exchange<D, R, H> {
    /// Creates an exchange operator routing by `route`.
    pub fn new(route: H) -> Self {
        Exchange {
            route,
            pending: Vec::new(),
            buckets: Vec::new(),
        }
    }

    /// The capacity of each per-destination bucket, for capacity-stability tests.
    #[doc(hidden)]
    pub fn bucket_capacities(&self) -> Vec<usize> {
        self.buckets
            .iter()
            .map(|bucket| bucket.capacity())
            .collect()
    }
}

impl<D: Data, R: Semigroup, H: FnMut(&D) -> u64 + 'static> Operator for Exchange<D, R, H> {
    fn name(&self) -> &str {
        "Exchange"
    }
    fn recv(&mut self, _port: usize, payload: BundleBox) {
        self.pending
            .push(downcast_payload::<UpdateVec<D, R>>(payload, "Exchange"));
    }
    fn work(&mut self, output: &mut OutputContext<'_>) -> bool {
        if self.pending.is_empty() {
            return false;
        }
        let peers = output.peers();
        if self.buckets.len() < peers {
            self.buckets.resize_with(peers, Vec::new);
        }
        for buffer in self.pending.drain(..) {
            for (data, time, diff) in buffer {
                let target = ((self.route)(&data) as usize) % peers;
                self.buckets[target].push((data, time, diff));
            }
        }
        for (worker, bucket) in self.buckets.iter_mut().enumerate() {
            if !bucket.is_empty() {
                // Drain into an exactly-sized payload; the bucket keeps its capacity
                // (`mem::take`, clippy's preference, would surrender it every flush).
                #[allow(clippy::drain_collect)]
                let payload: UpdateVec<D, R> = bucket.drain(..).collect();
                output.send_to_worker(worker, Box::new(payload));
            }
        }
        true
    }
    fn set_frontier(&mut self, _port: usize, _frontier: &Antichain<Time>) {}
    fn capabilities(&self, into: &mut Antichain<Time>) {
        for buffer in self.pending.iter() {
            for (_, time, _) in buffer.iter() {
                into.insert(*time);
            }
        }
    }
}

/// A deterministic, worker-agnostic hash for routing records to workers.
///
/// FxHash-style multiply-xor over the `std` hasher would differ between builds; we use a
/// fixed 64-bit FNV-1a so that routing is stable and testable.
pub fn route_hash<T: std::hash::Hash>(value: &T) -> u64 {
    struct Fnv(u64);
    impl std::hash::Hasher for Fnv {
        fn finish(&self) -> u64 {
            self.0
        }
        fn write(&mut self, bytes: &[u8]) {
            for byte in bytes {
                self.0 ^= *byte as u64;
                self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
    }
    let mut hasher = Fnv(0xcbf2_9ce4_8422_2325);
    std::hash::Hash::hash(value, &mut hasher);
    std::hash::Hasher::finish(&hasher)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn route_hash_is_deterministic_and_spread() {
        let a = route_hash(&42u64);
        let b = route_hash(&42u64);
        assert_eq!(a, b);
        let distinct: std::collections::HashSet<u64> =
            (0..1000u64).map(|x| route_hash(&x) % 16).collect();
        assert!(distinct.len() > 8, "hash should spread keys across buckets");
    }

    #[test]
    fn stateless_unary_applies_logic() {
        let mut op = StatelessUnary::new("double", |buffer: UpdateVec<u64, isize>| {
            buffer
                .into_iter()
                .map(|(d, t, r)| (d * 2, t, r))
                .collect::<Vec<_>>()
        });
        op.recv(0, Box::new(vec![(3u64, Time::minimum(), 1isize)]));
        let mut capabilities = Antichain::new();
        op.capabilities(&mut capabilities);
        assert_eq!(
            capabilities.elements(),
            &[Time::minimum()],
            "buffered updates are covered by capabilities"
        );
        // Capabilities drop once work has drained the buffer; the emission itself is
        // checked in the integration tests, where a full worker is available.
    }
}
