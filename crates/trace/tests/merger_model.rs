//! Model-based tests of the batch merger: however a merge is sliced into fuel, it must
//! produce the storage a one-shot merge produces, charge the same fuel, and accumulate
//! to a scalar fold of both batches' updates advanced to `since` — and it must clone a
//! key or a value exactly when (and once when) that key or value survives.
//!
//! Cases are generated from a seeded deterministic PRNG (`kpg_timestamp::rng`), so every
//! run explores the same corpus and failures are reproducible by seed.

use std::cell::Cell;

use kpg_timestamp::rng::SmallRng;
use kpg_timestamp::{Antichain, AntichainRef};
use kpg_trace::cursor::cursor_to_updates;
use kpg_trace::ord_batch::{OrdValBatch, OrdValBuilder};
use kpg_trace::{Batch, BatchReader, Builder, Data, Merger};

const CASES: u64 = 96;

/// The case budget: `CASES` natively, shrunk under Miri, overridable either way with
/// `KPG_MODEL_CASES`.
fn cases() -> u64 {
    let scaled = if cfg!(miri) {
        (CASES / 16).max(2)
    } else {
        CASES
    };
    std::env::var("KPG_MODEL_CASES")
        .ok()
        .and_then(|value| value.trim().parse().ok())
        .unwrap_or(scaled)
}

type Update<K, V> = (K, V, u64, isize);

fn build<K: Data, V: Data>(
    updates: &[Update<K, V>],
    (lower, upper): (u64, u64),
) -> OrdValBatch<K, V, u64, isize> {
    let mut builder = OrdValBuilder::default();
    for (key, val, time, diff) in updates.iter().cloned() {
        builder.push(key, val, time, diff);
    }
    builder.done(
        Antichain::from_elem(lower),
        Antichain::from_elem(upper),
        Antichain::from_elem(0),
    )
}

/// The columns of a batch, for whole-storage equality.
type Columns<K, V> = (Vec<K>, Vec<usize>, Vec<V>, Vec<usize>, Vec<(u64, isize)>);

fn columns<K: Data, V: Data>(batch: &OrdValBatch<K, V, u64, isize>) -> Columns<K, V> {
    let storage = batch.storage();
    (
        storage.keys.clone(),
        storage.key_offs.clone(),
        storage.vals.clone(),
        storage.val_offs.clone(),
        storage.updates.clone(),
    )
}

/// Merges `older` and `newer` compacting to `since`, offering `slice` units of fuel per
/// call. Returns the merged batch and the fuel it was charged in total.
fn merge_sliced<K: Data, V: Data>(
    older: &OrdValBatch<K, V, u64, isize>,
    newer: &OrdValBatch<K, V, u64, isize>,
    since: u64,
    slice: isize,
) -> (OrdValBatch<K, V, u64, isize>, isize) {
    let mut merger = older.begin_merge(newer, AntichainRef::new(&[since]));
    let mut charged = 0;
    while !merger.is_complete() {
        let mut fuel = slice;
        merger.work(older, newer, &mut fuel);
        assert!(fuel < slice, "a call with fuel must make progress");
        charged += slice - fuel;
    }
    // A completed merge ignores further fuel.
    let mut fuel = slice;
    merger.work(older, newer, &mut fuel);
    assert_eq!(fuel, slice);
    (merger.done(older, newer), charged)
}

/// The scalar reference: every update of both batches with its time advanced to `since`,
/// sorted, equal `(key, val, time)` coalesced, zeros dropped.
fn fold<K: Data, V: Data>(
    updates: impl IntoIterator<Item = Update<K, V>>,
    since: u64,
) -> Vec<Update<K, V>> {
    let mut advanced: Vec<Update<K, V>> = updates
        .into_iter()
        .map(|(key, val, time, diff)| (key, val, time.max(since), diff))
        .collect();
    advanced.sort_by(|a, b| (&a.0, &a.1, a.2).cmp(&(&b.0, &b.1, b.2)));
    let mut folded: Vec<Update<K, V>> = Vec::new();
    for (key, val, time, diff) in advanced {
        match folded.last_mut() {
            Some(last) if last.0 == key && last.1 == val && last.2 == time => last.3 += diff,
            _ => folded.push((key, val, time, diff)),
        }
    }
    folded.retain(|update| update.3 != 0);
    folded
}

/// The shapes a batch's groups must have whatever built it.
fn assert_well_formed<K: Data, V: Data>(batch: &OrdValBatch<K, V, u64, isize>, context: &str) {
    let storage = batch.storage();
    assert_eq!(storage.key_offs.len(), storage.keys.len() + 1, "{context}");
    assert_eq!(storage.val_offs.len(), storage.vals.len() + 1, "{context}");
    assert_eq!(storage.key_offs[0], 0, "{context}");
    assert_eq!(storage.val_offs[0], 0, "{context}");
    assert_eq!(*storage.key_offs.last().unwrap(), storage.vals.len());
    assert_eq!(*storage.val_offs.last().unwrap(), storage.updates.len());
    assert!(storage.keys.windows(2).all(|w| w[0] < w[1]), "{context}");
    // No empty groups: a key with no surviving value, or a value with no surviving
    // update, is not in the batch at all.
    assert!(
        storage.key_offs.windows(2).all(|w| w[0] < w[1]),
        "{context}"
    );
    assert!(
        storage.val_offs.windows(2).all(|w| w[0] < w[1]),
        "{context}"
    );
}

/// One side's updates: `len` draws over `keys`, a few values and the times of
/// `[lower, upper)`, small enough domains that multi-update histories, repeated tuples
/// and exact cancellations are all common. `val` maps a draw to the value type.
fn draw<V>(
    rng: &mut SmallRng,
    len: usize,
    keys: std::ops::Range<u8>,
    (lower, upper): (u64, u64),
    val: impl Fn(u8) -> V,
) -> Vec<Update<u8, V>> {
    (0..len)
        .map(|_| {
            (
                rng.gen_range(keys.clone()),
                val(rng.gen_range(0..4u8)),
                rng.gen_range(lower..upper),
                rng.gen_range(-2..3isize),
            )
        })
        .collect()
}

/// Fuel-sliced (1, 7, 64 per call) and one-shot merges produce identical storage and
/// identical fuel totals, and that storage is the scalar fold — over overlapping,
/// adjacent and disjoint key ranges, empty sides, and compaction frontiers from "none"
/// to "past every time" (where whole values and whole keys cancel).
fn merges_match_the_fold_however_sliced<V: Data>(val: impl Fn(u8) -> V + Copy) {
    for case in 0..cases() {
        let mut rng = SmallRng::seed_from_u64(0xD1CE + case);
        let newer_keys = [0..12u8, 6..18, 12..24][(case % 3) as usize].clone();
        let len = |rng: &mut SmallRng| match rng.gen_range(0..6u8) {
            0 => 0,
            1 => 1,
            _ => rng.gen_range(2..400usize),
        };
        let (len1, len2) = (len(&mut rng), len(&mut rng));
        let older_updates = draw(&mut rng, len1, 0..12, (0, 4), val);
        let newer_updates = draw(&mut rng, len2, newer_keys, (4, 8), val);
        // 0 compacts nothing, 8 collapses every history to one time.
        let since = [0, 2, 5, 8][rng.gen_range(0..4usize)];
        let context = format!("case {case} (since {since}, {len1} + {len2} updates)");

        let older = build(&older_updates, (0, 4));
        let newer = build(&newer_updates, (4, 8));
        let expected = fold(older_updates.into_iter().chain(newer_updates), since);

        let (one_shot, charged) = merge_sliced(&older, &newer, since, isize::MAX);
        assert_well_formed(&one_shot, &context);
        assert_eq!(
            cursor_to_updates(&mut one_shot.cursor()),
            expected,
            "{context}"
        );
        assert_eq!(one_shot.len(), expected.len(), "{context}");
        assert_eq!(one_shot.description().lower().elements(), &[0]);
        assert_eq!(one_shot.description().upper().elements(), &[8]);
        assert_eq!(one_shot.description().since().elements(), &[since]);
        // What the spine's amortisation counts on: one unit per source update read (a
        // key holds at least one), and one for noticing both sides are exhausted.
        assert_eq!(
            charged,
            (older.len() + newer.len() + 1) as isize,
            "{context}"
        );

        for slice in [1, 7, 64] {
            let (sliced, sliced_charge) = merge_sliced(&older, &newer, since, slice);
            assert_eq!(
                columns(&sliced),
                columns(&one_shot),
                "{context}, slice {slice}"
            );
            assert_eq!(sliced_charge, charged, "{context}, slice {slice}");
        }
    }
}

#[test]
fn val_merges_match_the_fold_however_sliced() {
    merges_match_the_fold_however_sliced(|draw| draw);
}

#[test]
fn key_only_merges_match_the_fold_however_sliced() {
    merges_match_the_fold_however_sliced(|_| ());
}

thread_local! {
    /// Clones made on this thread of `Counted<0>` (keys) and `Counted<1>` (values).
    static CLONES: [Cell<usize>; 2] = const { [Cell::new(0), Cell::new(0)] };
}

/// A datum that counts its clones, per `KIND`, on the cloning thread.
#[derive(Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct Counted<const KIND: usize>(u32);

impl<const KIND: usize> Clone for Counted<KIND> {
    fn clone(&self) -> Self {
        CLONES.with(|clones| clones[KIND].set(clones[KIND].get() + 1));
        Counted(self.0)
    }
}

/// Merges two batches of `keys` keys each and returns `(key clones, value clones)` the
/// merge made. Per key `k` the older batch holds values 0..4 at time 0; the newer one,
/// at time 1, retracts all four for `k % 4 == 0` (the key cancels), retracts value 0
/// for `k % 4 == 1` (a value cancels), adds a fifth value for `k % 4 == 2`, and does
/// not mention `k % 4 == 3`; it also brings `keys / 4` keys of its own.
fn clones_in_merge(keys: u32) -> (usize, usize) {
    let mut older = Vec::new();
    let mut newer = Vec::new();
    for key in 0..keys {
        for val in 0..4 {
            older.push((Counted::<0>(key), Counted::<1>(val), 0, 1));
        }
        match key % 4 {
            0 => newer.extend((0..4).map(|val| (Counted(key), Counted(val), 1, -1))),
            1 => newer.push((Counted(key), Counted(0), 1, -1)),
            2 => newer.push((Counted(key), Counted(4), 1, 1)),
            _ => {}
        }
    }
    newer.extend((0..keys / 4).map(|extra| (Counted(keys + extra), Counted(0), 1, 1)));
    let older = build(&older, (0, 1));
    let newer = build(&newer, (1, 2));

    CLONES.with(|clones| clones.iter().for_each(|count| count.set(0)));
    let (merged, _) = merge_sliced(&older, &newer, 1, 64);
    let made = CLONES.with(|clones| (clones[0].get(), clones[1].get()));

    // A quarter of the shared keys cancelled; of the rest, a third lost a value and a
    // third gained one.
    let quarter = (keys / 4) as usize;
    assert_eq!(merged.key_count(), 4 * quarter);
    assert_eq!(merged.storage().vals.len(), (3 + 5 + 4 + 1) * quarter);
    assert_eq!(
        made,
        (merged.key_count(), merged.storage().vals.len()),
        "each surviving key and value is cloned exactly once, nothing that cancels is"
    );
    made
}

#[test]
fn a_merge_clones_what_survives_once_and_nothing_else() {
    let (keys_n, vals_n) = clones_in_merge(1 << 10);
    let (keys_2n, vals_2n) = clones_in_merge(1 << 11);
    // Twice the tuples, twice the clones: nothing the merge does grows faster.
    assert!(keys_2n as f64 <= 2.0 * 1.05 * keys_n as f64);
    assert!(vals_2n as f64 <= 2.0 * 1.05 * vals_n as f64);
}
