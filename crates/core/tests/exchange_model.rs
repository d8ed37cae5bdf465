//! Model test of the exchange → arrange hot path: for a seeded update stream, the
//! pooled-bucket exchange and the amortized batch builder must produce batches that are
//! *byte-identical* — same keys, key offsets, values, value offsets, update histories,
//! and descriptions — to a reference scalar path (shard by routing hash, then
//! sort-then-coalesce), on 1 worker (where the arrangement builds no exchange) and on 2.

use kpg_sync::{Arc, Mutex};

use kpg_core::operators::route_hash;
use kpg_core::prelude::*;
use kpg_dataflow::operator::{downcast_payload, BundleBox, Operator, OutputContext};
use kpg_dataflow::Time;
use kpg_timestamp::rng::SmallRng;
use kpg_timestamp::Antichain;
use kpg_trace::BatchReader;

type Batch = ValBatch<u64, u64, isize>;

/// One captured batch, flattened to plain owned data so it can cross the worker
/// boundary in the `execute` result.
#[derive(Debug, PartialEq, Eq)]
struct BatchImage {
    lower: Vec<Time>,
    upper: Vec<Time>,
    since: Vec<Time>,
    keys: Vec<u64>,
    key_offs: Vec<usize>,
    vals: Vec<u64>,
    val_offs: Vec<usize>,
    updates: Vec<(Time, isize)>,
}

impl BatchImage {
    fn of(batch: &Batch) -> Self {
        let storage = batch.storage();
        BatchImage {
            lower: batch.description().lower().elements().to_vec(),
            upper: batch.description().upper().elements().to_vec(),
            since: batch.description().since().elements().to_vec(),
            keys: storage.keys.clone(),
            key_offs: storage.key_offs.clone(),
            vals: storage.vals.clone(),
            val_offs: storage.val_offs.clone(),
            updates: storage.updates.clone(),
        }
    }
}

/// Taps the arrange operator's batch stream, recording a clone of every batch.
struct CaptureBatches {
    batches: Arc<Mutex<Vec<Batch>>>,
}

impl Operator for CaptureBatches {
    fn name(&self) -> &str {
        "CaptureBatches"
    }
    fn recv(&mut self, _port: usize, payload: BundleBox) {
        let batch = downcast_payload::<Batch>(payload, "CaptureBatches");
        self.batches.lock().unwrap().push(batch);
    }
    fn work(&mut self, _output: &mut OutputContext<'_>) -> bool {
        false
    }
    fn set_frontier(&mut self, _port: usize, _frontier: &Antichain<Time>) {}
    fn capabilities(&self, _into: &mut Antichain<Time>) {}
}

/// The seeded update stream: `rounds` epochs of `per_epoch` upserts/retractions over a
/// small key domain, identical on every worker.
fn script(rounds: u64, per_epoch: usize) -> Vec<Vec<((u64, u64), isize)>> {
    let mut rng = SmallRng::seed_from_u64(0xE4C4A26E);
    (0..rounds)
        .map(|_| {
            (0..per_epoch)
                .map(|_| {
                    (
                        (rng.gen_range(0..64u64), rng.gen_range(0..8u64)),
                        if rng.gen_range(0..4u32) == 0 { -1 } else { 1 },
                    )
                })
                .collect()
        })
        .collect()
}

/// The reference scalar path for one worker's shard of one epoch: filter by routing
/// hash, then sort-then-coalesce by `(key, val, time)` into the columnar layout.
fn reference_batch(
    epoch_updates: &[((u64, u64), isize)],
    time: Time,
    worker: usize,
    peers: usize,
    lower: u64,
    upper: u64,
) -> BatchImage {
    let mut shard: Vec<(u64, u64, Time, isize)> = epoch_updates
        .iter()
        .filter(|((k, _), _)| (route_hash(k) as usize) % peers == worker)
        .map(|((k, v), r)| (*k, *v, time, *r))
        .collect();
    shard.sort_by_key(|update| (update.0, update.1, update.2));

    let mut coalesced: Vec<(u64, u64, Time, isize)> = Vec::new();
    for (k, v, t, r) in shard {
        match coalesced.last_mut() {
            Some(last) if last.0 == k && last.1 == v && last.2 == t => last.3 += r,
            _ => coalesced.push((k, v, t, r)),
        }
        if coalesced.last().map(|last| last.3 == 0).unwrap_or(false) {
            coalesced.pop();
        }
    }

    let mut image = BatchImage {
        lower: vec![Time::from_epoch(lower)],
        upper: vec![Time::from_epoch(upper)],
        since: vec![Time::minimum()],
        keys: Vec::new(),
        key_offs: vec![0],
        vals: Vec::new(),
        val_offs: vec![0],
        updates: Vec::new(),
    };
    for (k, v, t, r) in coalesced {
        let new_key = image.keys.last() != Some(&k);
        if new_key {
            if !image.keys.is_empty() {
                image.key_offs.push(image.vals.len());
            }
            image.keys.push(k);
        }
        if new_key || image.vals.last() != Some(&v) {
            if !image.vals.is_empty() {
                image.val_offs.push(image.updates.len());
            }
            image.vals.push(v);
        }
        image.updates.push((t, r));
    }
    if !image.vals.is_empty() {
        image.val_offs.push(image.updates.len());
    }
    if !image.keys.is_empty() {
        image.key_offs.push(image.vals.len());
    }
    image
}

/// Runs the seeded stream through exchange → arrange on `peers` workers and checks every
/// captured batch byte-for-byte against the reference scalar path.
fn run_and_check(peers: usize) {
    let rounds = 12u64;
    let per_epoch = 400usize;
    let results = execute(Config::new(peers), move |worker| {
        let index = worker.index();
        let peers = worker.peers();
        let captured = Arc::new(Mutex::new(Vec::new()));
        let capture = Arc::clone(&captured);
        let (mut input, probe) = worker.dataflow(move |builder| {
            let (input, collection) = new_collection::<(u64, u64), isize>(builder);
            let arranged = collection.arrange_by_key();
            let node = builder.add_operator(Box::new(CaptureBatches { batches: capture }), 1);
            builder.connect(arranged.node(), node, 0);
            (input, arranged.probe())
        });

        let script = script(rounds, per_epoch);
        for (epoch, epoch_updates) in script.iter().enumerate() {
            // Shard the input round-robin; the exchange re-routes it by key hash.
            for (i, ((k, v), r)) in epoch_updates.iter().enumerate() {
                if i % peers == index {
                    input.update((*k, *v), *r);
                }
            }
            let next = epoch as u64 + 1;
            input.advance_to(next);
            worker.step_while(|| probe.less_than(&Time::from_epoch(next)));
        }

        let images: Vec<BatchImage> = captured
            .lock()
            .unwrap()
            .iter()
            .map(BatchImage::of)
            .collect();
        (index, images)
    });

    let script = script(rounds, per_epoch);
    let empty: Vec<((u64, u64), isize)> = Vec::new();
    for (index, images) in results {
        assert!(
            !images.is_empty(),
            "worker {index} of {peers} captured no batches"
        );
        let mut expected_lower = 0u64;
        for image in images {
            assert_eq!(
                image.lower,
                vec![Time::from_epoch(expected_lower)],
                "worker {index}: batches must abut"
            );
            assert_eq!(image.upper.len(), 1, "flat times have singleton frontiers");
            let upper = image.upper[0].epoch();
            // Every epoch in [lower, upper) must have landed in this batch; with one
            // epoch per frontier advance that is exactly one script round (or none, for
            // an empty range minted while idling).
            assert!(
                upper == expected_lower + 1,
                "worker {index}: unexpected batch bounds [{expected_lower}, {upper})"
            );
            let epoch_updates = script.get(expected_lower as usize).unwrap_or(&empty);
            let reference = reference_batch(
                epoch_updates,
                Time::from_epoch(expected_lower),
                index,
                peers,
                expected_lower,
                upper,
            );
            assert_eq!(
                image, reference,
                "worker {index} of {peers}: batch [{expected_lower}, {upper}) diverged \
                 from the reference scalar path"
            );
            expected_lower = upper;
        }
        assert_eq!(
            expected_lower, rounds,
            "worker {index}: captured batches must cover every epoch"
        );
    }
}

#[test]
fn exchange_and_builder_match_reference_one_worker() {
    run_and_check(1);
}

#[test]
fn exchange_and_builder_match_reference_two_workers() {
    run_and_check(2);
}

/// Steady state must not allocate per flush: after the first flush has sized the
/// per-destination buckets, their capacities never change again.
#[test]
fn exchange_buckets_retain_capacity_across_flushes() {
    use kpg_core::operators::{Exchange, UpdateVec};
    use kpg_dataflow::operator::drive_operator_work;

    let mut exchange = Exchange::<u64, isize, _>::new(|x: &u64| *x);
    let mut warmed: Option<Vec<usize>> = None;
    for flush in 0..32 {
        let payload: UpdateVec<u64, isize> = (0..300u64)
            .map(|i| (i, Time::from_epoch(flush), 1isize))
            .collect();
        exchange.recv(0, Box::new(payload));
        let (did_work, sent) = drive_operator_work(&mut exchange, 0, 2);
        assert!(did_work);
        assert_eq!(sent.len(), 2, "both destinations receive a payload");
        for (destination, payload) in sent {
            let updates = *payload
                .into_any()
                .downcast::<UpdateVec<u64, isize>>()
                .expect("exchange emits update buffers");
            assert_eq!(updates.len(), 150);
            let worker = destination.unwrap_or(0);
            assert!(
                updates.iter().all(|(k, _, _)| (*k as usize) % 2 == worker),
                "flush {flush}: records routed to the wrong worker"
            );
        }
        match &warmed {
            None => warmed = Some(exchange.bucket_capacities()),
            Some(capacities) => assert_eq!(
                &exchange.bucket_capacities(),
                capacities,
                "flush {flush}: bucket capacities changed after warmup"
            ),
        }
    }
}
