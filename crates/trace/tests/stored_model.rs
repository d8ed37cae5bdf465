//! Model test for LSM-spilled spine layers: a spine kept under a small in-memory
//! budget — so most of its history lives in spilled sorted-run files — must answer
//! exactly like a scalar reference that accumulates the same random updates.

use std::collections::BTreeMap;

use kpg_timestamp::rng::SmallRng;
use kpg_timestamp::Antichain;
use kpg_trace::cursor::cursor_to_updates;
use kpg_trace::ord_batch::{OrdValBatch, OrdValBuilder};
use kpg_trace::{Builder, Cursor, MergeEffort, Spine};

type TestBatch = OrdValBatch<u64, u64, u64, isize>;

fn temp_run_dir(tag: &str) -> std::path::PathBuf {
    use kpg_sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let unique = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "kpg-stored-model-{tag}-{}-{unique}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The in-memory update budget the workload deliberately exceeds many times over.
const BUDGET: usize = 256;
const EPOCHS: u64 = 200;
const UPDATES_PER_EPOCH: usize = 24;
const KEYS: u64 = 64;
const VALS: u64 = 8;

#[test]
fn over_budget_spine_matches_scalar_reference() {
    let mut rng = SmallRng::seed_from_u64(0xD1CE_5EED);
    let mut spine: Spine<TestBatch> = Spine::new(MergeEffort::Lazy);
    // The scalar reference: the multiset of updates by (key, val, time).
    let mut reference: BTreeMap<(u64, u64, u64), isize> = BTreeMap::new();

    let dir = temp_run_dir("model");
    let mut spill_count = 0usize;
    let mut spilled_updates = 0usize;

    for epoch in 0..EPOCHS {
        let mut builder = OrdValBuilder::with_capacity(UPDATES_PER_EPOCH);
        for _ in 0..UPDATES_PER_EPOCH {
            let key = rng.gen_range(0..KEYS);
            let val = rng.gen_range(0..VALS);
            let diff: isize = if rng.gen_range(0..4u32) == 0 { -1 } else { 1 };
            builder.push(key, val, epoch, diff);
            let slot = reference.entry((key, val, epoch)).or_insert(0);
            *slot += diff;
            if *slot == 0 {
                reference.remove(&(key, val, epoch));
            }
        }
        spine.insert(builder.done(
            Antichain::from_elem(epoch),
            Antichain::from_elem(epoch + 1),
            Antichain::from_elem(0),
        ));
        // Enforce the memory budget by spilling oldest settled layers. A layer that
        // is mid-merge is skipped (spill_oldest returns false); it becomes eligible
        // once merging completes, so the budget is exceeded only transiently.
        while spine.in_memory_len() > BUDGET {
            let before = spine.in_memory_len();
            let path = dir.join(format!("spill-{spill_count:04}.run"));
            if !spine.spill_oldest(&path).unwrap() {
                spine.exert(&mut (1 << 14));
                if spine.in_memory_len() >= before && !spine.spill_oldest(&path).unwrap() {
                    break;
                }
            }
            spill_count += 1;
            spilled_updates += before - spine.in_memory_len();
        }
    }

    assert!(
        spilled_updates > BUDGET,
        "workload must overflow the budget: spilled {spilled_updates} <= {BUDGET}"
    );
    assert!(
        spine.stored_layer_count() >= 1,
        "expected stored layers, got none"
    );

    // Full-scan equivalence: the spine's merged cursor accumulates to the reference.
    let mut accumulated: BTreeMap<(u64, u64, u64), isize> = BTreeMap::new();
    for (key, val, time, diff) in cursor_to_updates(&mut spine.cursor()) {
        let slot = accumulated.entry((key, val, time)).or_insert(0);
        *slot += diff;
        if *slot == 0 {
            accumulated.remove(&(key, val, time));
        }
    }
    assert_eq!(accumulated, reference);

    // Random seek probes: accumulate_until through the mixed cursor must agree with
    // the reference folded to the same upper bound.
    for _ in 0..200 {
        let key = rng.gen_range(0..KEYS);
        let val = rng.gen_range(0..VALS);
        let upto = rng.gen_range(0..EPOCHS + 1);
        let expected: isize = reference
            .iter()
            .filter(|((k, v, t), _)| *k == key && *v == val && *t <= upto)
            .map(|(_, diff)| *diff)
            .sum();
        let mut cursor = spine.cursor();
        cursor.seek_key(&key);
        let mut observed = 0isize;
        if cursor.key_valid() && *cursor.key() == key {
            cursor.seek_val(&val);
            if cursor.val_valid() && *cursor.val() == val {
                observed = cursor.accumulate_until(&upto).unwrap_or(0);
            }
        }
        assert_eq!(
            observed, expected,
            "probe (key={key}, val={val}, upto={upto}) diverged"
        );
    }

    std::fs::remove_dir_all(&dir).unwrap();
}
