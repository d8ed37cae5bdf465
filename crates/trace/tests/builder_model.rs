//! Model-based tests of the amortized batch builders: interleaved push/seal cycles with
//! heavy duplication must consolidate *identically* to a one-shot sort-then-coalesce
//! reference, and the mid-build consolidations must keep the buffer bounded by the
//! number of distinct tuples.
//!
//! Cases are generated from a seeded deterministic PRNG (`kpg_timestamp::rng`), so every
//! run explores the same corpus and failures are reproducible by seed.

use kpg_timestamp::rng::SmallRng;
use kpg_timestamp::Antichain;
use kpg_trace::cursor::cursor_to_updates;
use kpg_trace::ord_batch::{OrdKeyBuilder, OrdValBuilder};
use kpg_trace::{BatchReader, Builder};

type Key = u8;
type Val = u8;
type TimeT = u64;

const CASES: u64 = 48;

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

/// The reference scalar path: sort by `(key, val, time)`, coalesce equal tuples by
/// adding diffs, and drop zeros.
fn sort_then_coalesce(mut updates: Vec<(Key, Val, TimeT, isize)>) -> Vec<(Key, Val, TimeT, isize)> {
    updates.sort_by_key(|update| (update.0, update.1, update.2));
    let mut result: Vec<(Key, Val, TimeT, isize)> = Vec::new();
    for (k, v, t, r) in updates {
        match result.last_mut() {
            Some(last) if last.0 == k && last.1 == v && last.2 == t => last.3 += r,
            _ => result.push((k, v, t, r)),
        }
        if result.last().map(|last| last.3 == 0).unwrap_or(false) {
            result.pop();
        }
    }
    // A zero mid-run only cancels if nothing of the same tuple follows; re-filter to be
    // safe against pop-then-push of the same tuple (cannot happen on sorted input, but
    // keeps the reference obviously correct).
    result.retain(|(_, _, _, r)| *r != 0);
    result
}

/// Draws one batch's worth of updates from small domains so duplicate `(key, val, time)`
/// tuples (and exact cancellations) are common.
fn draw_updates(rng: &mut SmallRng, len: usize) -> Vec<(Key, Val, TimeT, isize)> {
    (0..len)
        .map(|_| {
            (
                rng.gen_range(0..12u8),
                rng.gen_range(0..4u8),
                rng.gen_range(0..4u64),
                rng.gen_range(-2..3isize),
            )
        })
        .collect()
}

#[test]
fn ord_val_builder_matches_sort_then_coalesce() {
    for seed in 0..cases() {
        let mut rng = SmallRng::seed_from_u64(seed);
        // Sizes straddle the internal consolidation threshold so some cases exercise
        // only the final consolidation and others several mid-build ones.
        let len = rng.gen_range(0..2048usize);
        let updates = draw_updates(&mut rng, len);

        let mut builder = OrdValBuilder::default();
        for (k, v, t, r) in updates.iter() {
            builder.push(*k, *v, *t, *r);
        }
        let (_, buffered, _) = builder.buffer_state();
        let expected = sort_then_coalesce(updates);
        // The amortized buffer holds at most the distinct tuples plus one unsorted
        // prefix's worth of duplicates (the consolidation threshold or the sorted
        // prefix, whichever is larger); with a small domain this bounds it well below
        // the raw push count for the larger cases.
        assert!(
            buffered <= 2 * expected.len().max(256) + 256,
            "seed {seed}: buffer {buffered} not bounded by distinct tuples ({})",
            expected.len()
        );
        let batch = builder.done(
            Antichain::from_elem(0),
            Antichain::from_elem(4),
            Antichain::from_elem(0),
        );
        assert_eq!(batch.len(), expected.len(), "seed {seed}");
        let got = cursor_to_updates(&mut batch.cursor());
        assert_eq!(got, expected, "seed {seed}");
    }
}

#[test]
fn ord_val_builder_interleaved_seal_cycles_match() {
    // One logical update stream cut into several push/seal cycles: each sealed batch
    // must equal the reference consolidation of exactly its own slice.
    let mut rng = SmallRng::seed_from_u64(0xC0FFEE);
    for _case in 0..8 {
        let mut lower = 0u64;
        for cycle in 0..6u64 {
            let len = rng.gen_range(0..900usize);
            let updates: Vec<(Key, Val, TimeT, isize)> = (0..len)
                .map(|_| {
                    (
                        rng.gen_range(0..10u8),
                        rng.gen_range(0..3u8),
                        lower + rng.gen_range(0..2u64),
                        rng.gen_range(-1..2isize),
                    )
                })
                .collect();
            let mut builder = OrdValBuilder::with_capacity(16);
            for (k, v, t, r) in updates.iter() {
                builder.push(*k, *v, *t, *r);
            }
            let upper = lower + 2;
            let batch = builder.done(
                Antichain::from_elem(lower),
                Antichain::from_elem(upper),
                Antichain::from_elem(0),
            );
            let expected = sort_then_coalesce(updates);
            assert_eq!(
                cursor_to_updates(&mut batch.cursor()),
                expected,
                "cycle {cycle}"
            );
            assert_eq!(batch.description().lower().elements(), &[lower]);
            assert_eq!(batch.description().upper().elements(), &[upper]);
            lower = upper;
        }
    }
}

/// The key-only builder is `OrdValBuilder` at `V = ()`: same amortized buffer, zero-size
/// values.
#[test]
fn ord_key_builder_matches_sort_then_coalesce() {
    for seed in 0..cases() {
        let mut rng = SmallRng::seed_from_u64(1_000 + seed);
        let len = rng.gen_range(0..1500usize);
        let updates: Vec<(Key, TimeT, isize)> = (0..len)
            .map(|_| {
                (
                    rng.gen_range(0..12u8),
                    rng.gen_range(0..4u64),
                    rng.gen_range(-2..3isize),
                )
            })
            .collect();

        let mut builder = OrdKeyBuilder::default();
        for (k, t, r) in updates.iter() {
            builder.push(*k, (), *t, *r);
        }
        let batch = builder.done(
            Antichain::from_elem(0),
            Antichain::from_elem(4),
            Antichain::from_elem(0),
        );

        let expected: Vec<(Key, (), TimeT, isize)> =
            sort_then_coalesce(updates.iter().map(|(k, t, r)| (*k, 0u8, *t, *r)).collect())
                .into_iter()
                .map(|(k, _, t, r)| (k, (), t, r))
                .collect();
        assert_eq!(
            cursor_to_updates(&mut batch.cursor()),
            expected,
            "seed {seed}"
        );
    }
}
