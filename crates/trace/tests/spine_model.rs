//! Model-based randomized tests: a `Spine` must accumulate exactly like a naive list of
//! updates, before and after compaction, for arbitrary update sequences.
//!
//! Cases are generated from a seeded deterministic PRNG (`kpg_timestamp::rng`), so every
//! run explores the same corpus and failures are reproducible by seed.
//!
//! Every property runs at two value types: `u8`, and `()` — the key-only batch
//! (`OrdKeyBatch`) is the same implementation at `V = ()`, so its merges and compaction
//! are modelled here rather than by a separate suite.

use kpg_timestamp::rng::SmallRng;
use kpg_timestamp::{Antichain, AntichainRef, PartialOrder};
use kpg_trace::cursor::Cursor;
use kpg_trace::ord_batch::{OrdValBatch, OrdValBuilder};
use kpg_trace::{BatchReader, Builder, Data, MergeEffort, Spine};
use std::collections::BTreeMap;

type Key = u8;
type TimeT = u64;

/// A value type the model can draw: `u8` below a bound, or the single value `()`.
trait ModelVal: Data + Copy {
    fn draw(rng: &mut SmallRng, bound: u8) -> Self;
}
impl ModelVal for u8 {
    fn draw(rng: &mut SmallRng, bound: u8) -> Self {
        rng.gen_range(0..bound)
    }
}
impl ModelVal for () {
    fn draw(_rng: &mut SmallRng, _bound: u8) -> Self {}
}

const CASES: u64 = 64;

/// The case budget: `CASES` natively, shrunk under Miri (interpretation is orders of
/// magnitude slower), overridable either way with `KPG_MODEL_CASES`.
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

/// Accumulate a naive update list at `time` for every (key, val).
fn naive_accumulate<V: ModelVal>(
    updates: &[(Key, V, TimeT, isize)],
    upto: TimeT,
) -> BTreeMap<(Key, V), isize> {
    let mut result = BTreeMap::new();
    for (k, v, t, r) in updates {
        if (*t).less_equal(&upto) {
            *result.entry((*k, *v)).or_insert(0) += *r;
        }
    }
    result.retain(|_, r| *r != 0);
    result
}

/// Accumulate the spine's cursor at `time` for every (key, val).
fn spine_accumulate<V: ModelVal>(
    spine: &Spine<OrdValBatch<Key, V, TimeT, isize>>,
    upto: TimeT,
) -> BTreeMap<(Key, V), isize> {
    cursor_accumulate(spine.cursor(), upto)
}

/// Accumulate `cursor` at `time` for every (key, val).
fn cursor_accumulate<'a, V: ModelVal>(
    mut cursor: impl Cursor<'a, Key = Key, Val = V, Time = TimeT, Diff = isize>,
    upto: TimeT,
) -> BTreeMap<(Key, V), isize> {
    let mut result = BTreeMap::new();
    while cursor.key_valid() {
        while cursor.val_valid() {
            let key = *cursor.key();
            let val = *cursor.val();
            let mut sum = 0isize;
            cursor.map_times(|t, r| {
                if t.less_equal(&upto) {
                    sum += *r;
                }
            });
            if sum != 0 {
                result.insert((key, val), sum);
            }
            cursor.step_val();
        }
        cursor.step_key();
    }
    result
}

/// Draws a random epoch script: per epoch, a small batch of (key, val, diff) changes.
fn random_epochs<V: ModelVal>(
    rng: &mut SmallRng,
    epoch_bounds: (usize, usize),
    changes_per_epoch: usize,
    key_bound: u8,
    val_bound: u8,
) -> Vec<Vec<(Key, V, isize)>> {
    let epochs = rng.gen_range(epoch_bounds.0..epoch_bounds.1);
    (0..epochs)
        .map(|_| {
            let changes = rng.gen_range(0..changes_per_epoch);
            (0..changes)
                .map(|_| {
                    (
                        rng.gen_range(0..key_bound),
                        V::draw(rng, val_bound),
                        rng.gen_range(-2isize..3),
                    )
                })
                .collect()
        })
        .collect()
}

/// The batch `[time, time + 1)` holding `changes` at `time`.
fn batch<V: ModelVal>(
    time: TimeT,
    changes: &[(Key, V, isize)],
) -> OrdValBatch<Key, V, TimeT, isize> {
    let mut builder = OrdValBuilder::with_capacity(changes.len());
    for (k, v, r) in changes {
        builder.push(*k, *v, time, *r);
    }
    builder.done(
        Antichain::from_elem(time),
        Antichain::from_elem(time + 1),
        Antichain::from_elem(0),
    )
}

#[allow(clippy::type_complexity)]
fn build_spine<V: ModelVal>(
    epochs: &[Vec<(Key, V, isize)>],
    effort: MergeEffort,
    compaction: Option<TimeT>,
) -> (
    Spine<OrdValBatch<Key, V, TimeT, isize>>,
    Vec<(Key, V, TimeT, isize)>,
) {
    let mut spine = Spine::new(effort);
    let mut all_updates = Vec::new();
    for (epoch, changes) in epochs.iter().enumerate() {
        let time = epoch as TimeT;
        all_updates.extend(changes.iter().map(|(k, v, r)| (*k, *v, time, *r)));
        spine.insert(batch(time, changes));
        if let Some(since) = compaction {
            if time >= since {
                spine.set_logical_compaction(AntichainRef::new(&[since]));
            }
        }
    }
    (spine, all_updates)
}

/// Without compaction, the spine accumulates identically to the naive model at every
/// probe time, regardless of merge effort.
fn spine_matches_naive_model<V: ModelVal>() {
    for case in 0..cases() {
        let mut rng = SmallRng::seed_from_u64(0xA001 + case);
        let epochs = random_epochs::<V>(&mut rng, (1, 12), 8, 8, 4);
        let effort =
            [MergeEffort::Eager, MergeEffort::Default, MergeEffort::Lazy][(case % 3) as usize];
        let probe = rng.gen_range(0u64..12);
        let (spine, updates) = build_spine(&epochs, effort, None);
        assert_eq!(
            spine_accumulate(&spine, probe),
            naive_accumulate(&updates, probe),
            "case {case} (effort {effort:?}, probe {probe})"
        );
    }
}

/// With the logical compaction frontier advanced to `since`, accumulations at times at
/// or beyond `since` are still exact.
fn spine_compaction_preserves_accumulations_beyond_since<V: ModelVal>() {
    for case in 0..cases() {
        let mut rng = SmallRng::seed_from_u64(0xB001 + case);
        let epochs = random_epochs::<V>(&mut rng, (2, 12), 8, 8, 4);
        let since = rng.gen_range(0u64..6);
        let probe = since + rng.gen_range(0u64..8);
        let (spine, updates) = build_spine(&epochs, MergeEffort::Eager, Some(since));
        assert_eq!(
            spine_accumulate(&spine, probe),
            naive_accumulate(&updates, probe),
            "case {case} (since {since}, probe {probe})"
        );
    }
}

/// The spine never holds more updates than were inserted (consolidation only shrinks),
/// and its layer count stays logarithmic.
fn spine_is_compact<V: ModelVal>() {
    for case in 0..cases() {
        let mut rng = SmallRng::seed_from_u64(0xC001 + case);
        let epochs = random_epochs::<V>(&mut rng, (1, 40), 6, 4, 2);
        let (mut spine, updates) = build_spine(&epochs, MergeEffort::Default, None);
        assert!(spine.len() <= updates.len(), "case {case}");
        let mut fuel = isize::MAX;
        assert!(!spine.exert(&mut fuel), "case {case}");
        assert!(
            spine.layer_count() <= layer_bound(updates.len()),
            "case {case}: {} layers for {} updates",
            spine.layer_count(),
            updates.len()
        );
    }
}

/// The logarithmic layer-count bound for a spine fed `updates` updates.
fn layer_bound(updates: usize) -> usize {
    4 * (updates.max(2) as f64).log2().ceil() as usize + 4
}

/// The uppers of the spine's batches, oldest first: its batch boundaries.
fn boundaries<V: ModelVal>(spine: &Spine<OrdValBatch<Key, V, TimeT, isize>>) -> Vec<TimeT> {
    let mut uppers = Vec::new();
    spine.map_batches(|batch| uppers.extend_from_slice(batch.description().upper().elements()));
    uppers
}

/// Readers hold random boundaries while epochs arrive, merges are fuelled and the
/// logical frontier advances. No merge crosses the meet of the holds, or anything past
/// it, so a read through any boundary at or past the meet lends exactly the updates
/// before that boundary and accumulates like the naive model of those updates.
fn held_boundaries_survive_merging<V: ModelVal>() {
    for case in 0..cases() {
        let mut rng = SmallRng::seed_from_u64(0xD001 + case);
        let epochs = random_epochs::<V>(&mut rng, (2, 24), 8, 8, 4);
        let effort =
            [MergeEffort::Eager, MergeEffort::Default, MergeEffort::Lazy][(case % 3) as usize];
        let meet = rng.gen_range(0..epochs.len() as TimeT);
        let since = rng.gen_range(0..=meet);
        let mut spine = Spine::new(effort);
        spine.set_physical_compaction(AntichainRef::new(&[meet]));
        let mut updates = Vec::new();
        for (epoch, changes) in epochs.iter().enumerate() {
            let time = epoch as TimeT;
            updates.extend(changes.iter().map(|(k, v, r)| (*k, *v, time, *r)));
            spine.insert(batch(time, changes));
            if time >= since {
                spine.set_logical_compaction(AntichainRef::new(&[since]));
            }
            spine.exert(&mut rng.gen_range(0isize..64));
            let held: Vec<TimeT> = boundaries(&spine)
                .into_iter()
                .filter(|upper| *upper >= meet)
                .collect();
            let expected: Vec<TimeT> = (meet.max(1)..=time + 1).collect();
            assert_eq!(
                held, expected,
                "case {case}: a merge crossed a held boundary"
            );
        }
        let end = epochs.len() as TimeT;
        for through in meet..=end {
            let before: Vec<_> = updates
                .iter()
                .filter(|update| update.2 < through)
                .copied()
                .collect();
            let probe = since + rng.gen_range(0u64..8);
            assert_eq!(
                cursor_accumulate(spine.cursor_through(AntichainRef::new(&[through])), probe),
                naive_accumulate(&before, probe),
                "case {case} (effort {effort:?}, meet {meet}, through {through}, probe {probe})"
            );
        }
    }
}

/// A hold defers merges; releasing it starts them, and idle fuel settles the spine
/// within the bound of an unheld one.
fn releasing_a_hold_lets_deferred_merges_run<V: ModelVal>() {
    for case in 0..cases() {
        let mut rng = SmallRng::seed_from_u64(0xE001 + case);
        let epochs = random_epochs::<V>(&mut rng, (24, 40), 6, 4, 2);
        let mut spine = Spine::new(MergeEffort::Default);
        spine.set_physical_compaction(AntichainRef::new(&[1]));
        let mut inserted = 0;
        for (epoch, changes) in epochs.iter().enumerate() {
            inserted += changes.len();
            spine.insert(batch(epoch as TimeT, changes));
        }
        assert!(!spine.exert(&mut { isize::MAX }), "case {case}");
        assert_eq!(
            spine.batch_count(),
            epochs.len(),
            "case {case}: a batch past the hold was merged"
        );
        spine.set_physical_compaction(AntichainRef::new(&[]));
        assert!(
            spine.exert(&mut 0),
            "case {case}: releasing the hold started no merge"
        );
        assert!(!spine.exert(&mut { isize::MAX }), "case {case}");
        assert!(
            spine.layer_count() <= layer_bound(inserted),
            "case {case}: {} layers for {inserted} updates",
            spine.layer_count()
        );
    }
}

/// A reader that advances its hold to the newest upper after every epoch, as a join
/// acknowledging each batch does, costs at most one layer over an unheld spine.
fn a_hold_that_follows_the_inserts_keeps_few_layers<V: ModelVal>() {
    for case in 0..cases() {
        let mut rng = SmallRng::seed_from_u64(0xF001 + case);
        let epochs = random_epochs::<V>(&mut rng, (1, 40), 6, 4, 2);
        let mut spine = Spine::new(MergeEffort::Default);
        let mut inserted = 0;
        for (epoch, changes) in epochs.iter().enumerate() {
            inserted += changes.len();
            spine.insert(batch(epoch as TimeT, changes));
            spine.set_physical_compaction(AntichainRef::new(&[epoch as TimeT + 1]));
            assert!(
                spine.layer_count() <= layer_bound(inserted) + 1,
                "case {case}, epoch {epoch}: {} layers for {inserted} updates",
                spine.layer_count()
            );
        }
        assert!(!spine.exert(&mut { isize::MAX }), "case {case}");
        assert!(
            spine.layer_count() <= layer_bound(inserted) + 1,
            "case {case}: {} layers for {inserted} updates",
            spine.layer_count()
        );
    }
}

/// Instantiates each property at `V = u8` (key/value batches) and `V = ()` (key-only).
macro_rules! at_both_value_types {
    ($($property:ident => $val_test:ident, $key_test:ident;)*) => {$(
        #[test]
        fn $val_test() {
            $property::<u8>();
        }
        #[test]
        fn $key_test() {
            $property::<()>();
        }
    )*};
}

at_both_value_types! {
    spine_matches_naive_model => val_spine_matches_naive_model, key_spine_matches_naive_model;
    spine_compaction_preserves_accumulations_beyond_since =>
        val_spine_compaction_preserves_accumulations_beyond_since,
        key_spine_compaction_preserves_accumulations_beyond_since;
    spine_is_compact => val_spine_is_compact, key_spine_is_compact;
    held_boundaries_survive_merging =>
        val_held_boundaries_survive_merging, key_held_boundaries_survive_merging;
    releasing_a_hold_lets_deferred_merges_run =>
        val_releasing_a_hold_lets_deferred_merges_run,
        key_releasing_a_hold_lets_deferred_merges_run;
    a_hold_that_follows_the_inserts_keeps_few_layers =>
        val_a_hold_that_follows_the_inserts_keeps_few_layers,
        key_a_hold_that_follows_the_inserts_keeps_few_layers;
}
