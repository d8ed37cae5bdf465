//! The sharing lifecycle at the trace level: arrange a collection once, import its trace
//! into query dataflows, retire one mid-stream by its ordinal, and verify that (a) the
//! survivor's results are unaffected and (b) the departed query's read frontiers are
//! released so the shared spine's compaction frontier advances past them. The same
//! lifecycle through the plan manager is `kpg_plan`'s `manager_model`.

use std::collections::BTreeMap;

use kpg_core::arrange::ValBatch;
use kpg_core::prelude::*;
use kpg_timestamp::{Antichain, PartialOrder};

/// Accumulates captured `(data, time, diff)` updates up to and including `epoch`.
fn accumulate<D: Ord + Clone>(updates: &[(D, Time, isize)], epoch: u64) -> BTreeMap<D, isize> {
    let mut map = BTreeMap::new();
    for (data, time, diff) in updates {
        if time.less_equal(&Time::from_epoch(epoch)) {
            *map.entry(data.clone()).or_insert(0) += diff;
        }
    }
    map.retain(|_, v| *v != 0);
    map
}

/// Builds the canonical session: an edge arrangement plus two queries importing its
/// trace (per-key counts, and a value filter), runs it to epoch 1, retires the counts
/// query, keeps the survivor running through epoch 3, and returns the observations.
fn run_lifecycle(workers: usize) -> Vec<LifecycleObservations> {
    execute(Config::new(workers), |worker| {
        // The shared arrangement, and the test's own handle on its trace.
        let (mut edges, graph_probe, mut trace) = worker.dataflow(|builder| {
            let (input, edges) = new_collection::<(u32, u32), isize>(builder);
            let arranged = edges.arrange_by_key();
            (input, arranged.probe(), arranged.trace)
        });
        for n in 0..50u32 {
            if n as usize % worker.peers() == worker.index() {
                edges.insert((n % 10, n));
            }
        }
        edges.advance_to(1);
        worker.step_while(|| graph_probe.less_than(&edges.time()));

        // Two queries importing the shared trace.
        let (counts, counts_probe, counts_results) = worker.dataflow(|builder| {
            let counts = trace
                .import(builder)
                .reduce_core("Count", |_k, input, output: &mut Vec<(isize, isize)>| {
                    output.push((input.iter().map(|(_, r)| *r).sum(), 1));
                })
                .as_collection(|k, c| (*k, *c));
            (builder.dataflow_index(), counts.probe(), counts.capture())
        });
        let (survivor_probe, survivor_results) = worker.dataflow(|builder| {
            let hits = trace
                .import(builder)
                .as_collection(|k, v| (*k, *v))
                .filter(|(_, v)| *v % 2 == 0);
            (hits.probe(), hits.capture())
        });
        assert_eq!(worker.live_dataflow_count(), 3);

        worker.step_while(|| {
            counts_probe.less_than(&edges.time()) || survivor_probe.less_than(&edges.time())
        });
        let counts_at_0 = accumulate(&counts_results.borrow(), 0);
        let survivor_at_0 = accumulate(&survivor_results.borrow(), 0);
        let since_before = trace.since();

        // Retire the counts query. Its dataflow leaves the scheduler and every reader it
        // registered (import handle, join/reduce trace handles) is dropped.
        assert!(worker.retire(counts));
        assert!(!worker.retire(counts), "idempotent");
        assert_eq!(worker.live_dataflow_count(), 2);

        // Keep the computation moving: more input, later epochs, and the test's own
        // handle advanced past what it no longer reads.
        edges.insert((3, 100 + worker.index() as u32 * 2));
        edges.advance_to(3);
        trace.set_logical_compaction(Antichain::from_elem(Time::from_epoch(2)).borrow());
        worker.step_while(|| survivor_probe.less_than(&edges.time()));

        let survivor_at_2 = accumulate(&survivor_results.borrow(), 2);
        let since_after = trace.since();
        let counts_frozen = accumulate(&counts_results.borrow(), 2);

        LifecycleObservations {
            counts_at_0,
            survivor_at_0,
            survivor_at_2,
            counts_frozen,
            since_before,
            since_after,
        }
    })
}

struct LifecycleObservations {
    counts_at_0: BTreeMap<(u32, isize), isize>,
    survivor_at_0: BTreeMap<(u32, u32), isize>,
    survivor_at_2: BTreeMap<(u32, u32), isize>,
    counts_frozen: BTreeMap<(u32, isize), isize>,
    since_before: Antichain<Time>,
    since_after: Antichain<Time>,
}

#[test]
fn uninstall_releases_readers_and_preserves_survivors() {
    for workers in [1usize, 2] {
        let observations = run_lifecycle(workers);

        // Single-worker observations carry the full picture; with two workers each
        // holds a shard, so merge the captures.
        let mut survivor_at_0 = BTreeMap::new();
        let mut survivor_at_2 = BTreeMap::new();
        for obs in &observations {
            for (k, v) in &obs.survivor_at_0 {
                *survivor_at_0.entry(*k).or_insert(0) += v;
            }
            for (k, v) in &obs.survivor_at_2 {
                *survivor_at_2.entry(*k).or_insert(0) += v;
            }
        }
        survivor_at_0.retain(|_, v| *v != 0);
        survivor_at_2.retain(|_, v| *v != 0);

        // (a) The survivor's epoch-0 answers are unchanged by the uninstall, and its
        // view keeps evolving: the even values 100/102 arrive for key 3 at epoch 2.
        let expected_at_0: BTreeMap<(u32, u32), isize> = (0..50u32)
            .filter(|n| n % 2 == 0)
            .map(|n| ((n % 10, n), 1))
            .collect();
        assert_eq!(survivor_at_0, expected_at_0, "workers = {workers}");
        let mut expected_at_2 = expected_at_0.clone();
        for w in 0..workers as u32 {
            expected_at_2.insert((3, 100 + w * 2), 1);
        }
        assert_eq!(survivor_at_2, expected_at_2, "workers = {workers}");

        for obs in &observations {
            // The uninstalled query's results are frozen exactly as of the uninstall.
            assert_eq!(obs.counts_frozen, obs.counts_at_0, "workers = {workers}");
            assert!(!obs.counts_at_0.is_empty());

            // (b) The shared spine's compaction frontier advances past the departed
            // reader's since: before the uninstall it could not pass the epoch-0 reads
            // the counts query was pinning; afterwards it reaches epoch 2.
            assert!(
                obs.since_before.less_equal(&Time::from_epoch(1)),
                "workers = {workers}: pinned since {:?}",
                obs.since_before
            );
            assert!(
                obs.since_after
                    .elements()
                    .iter()
                    .all(|t| *t >= Time::from_epoch(2)),
                "workers = {workers}: compaction frontier {:?} did not pass the departed reader",
                obs.since_after
            );
            assert!(
                !obs.since_after.less_equal(&Time::from_epoch(1)),
                "workers = {workers}: epoch-1 history still pinned after uninstall"
            );
        }
    }
}

/// Query churn end to end: many construct/retire cycles of a dataflow importing a shared
/// trace leave the worker holding only what is live (the graph dataflow, plus the one
/// query of the cycle while it runs) and the progress registry likewise, leave the
/// trace's reader table at its pre-churn size, and return the reader count to its
/// baseline — on one worker and on two.
#[test]
fn query_churn_keeps_slots_and_reader_tables_bounded() {
    for workers in [1usize, 2] {
        let cycles = 50usize;
        let observations = execute(Config::new(workers), move |worker| {
            let (mut edges, graph_probe, trace) = worker.dataflow(|builder| {
                let (input, edges) = new_collection::<(u32, u32), isize>(builder);
                let arranged = edges.arrange_by_key();
                (input, arranged.probe(), arranged.trace)
            });
            for n in 0..20u32 {
                if n as usize % worker.peers() == worker.index() {
                    edges.insert((n % 5, n));
                }
            }
            edges.advance_to(1);
            worker.step_while(|| graph_probe.less_than(&edges.time()));

            let baseline_readers = trace.reader_count();
            let mut live_high = 0usize;
            let mut reader_slots_after_first = 0usize;
            let mut epoch = 1u64;
            for cycle in 0..cycles {
                let (query, probe) = worker.dataflow(|builder| {
                    let imported = trace.import(builder);
                    let probe = imported.as_collection(|k, v| (*k, *v)).probe();
                    (builder.dataflow_index(), probe)
                });
                epoch += 1;
                edges.advance_to(epoch);
                worker.step_while(|| probe.less_than(&edges.time()));
                live_high = live_high.max(worker.live_dataflow_count());
                if cycle == 0 {
                    reader_slots_after_first = trace.reader_slot_capacity();
                }
                assert!(worker.retire(query));
            }

            // The registry is computation-wide: a step is where every worker is known
            // to have retired the last query.
            worker.step();
            let final_registered = worker.shared_dataflow_entries();
            let final_live = worker.live_dataflow_count();
            let final_readers = trace.reader_count();
            let final_reader_slots = trace.reader_slot_capacity();
            (
                baseline_readers,
                live_high,
                reader_slots_after_first,
                final_registered,
                final_live,
                final_readers,
                final_reader_slots,
            )
        });
        for (
            baseline_readers,
            live_high,
            reader_slots_after_first,
            final_registered,
            final_live,
            final_readers,
            final_reader_slots,
        ) in observations
        {
            // The graph dataflow plus the one query of the cycle, then the graph alone.
            assert_eq!(live_high, 2, "workers = {workers}");
            assert_eq!(final_live, 1, "workers = {workers}");
            assert_eq!(final_registered, 1, "workers = {workers}");
            // Departed queries release their readers: the count returns to baseline and
            // the reader table never grows past its first-cycle high-water mark.
            assert_eq!(final_readers, baseline_readers, "workers = {workers}");
            assert!(
                final_reader_slots <= reader_slots_after_first,
                "workers = {workers}: reader table grew under churn: {reader_slots_after_first} -> {final_reader_slots}"
            );
        }
    }
}

/// Reader-slot hygiene: churning many short-lived handles reuses slots instead of
/// growing the reader table, and departed readers stop pinning compaction.
#[test]
fn reader_slots_are_reused_after_drop() {
    let trace = TraceAgent::<ValBatch<u32, u32>>::new(MergeEffort::Default);
    let held = trace.clone();
    let baseline = trace.reader_slot_capacity();
    for _ in 0..1000 {
        drop(held.clone());
    }
    assert!(
        trace.reader_slot_capacity() <= baseline + 1,
        "reader table grew under churn: {} -> {}",
        baseline,
        trace.reader_slot_capacity()
    );
    assert_eq!(trace.reader_count(), 2, "the two handles held");
}

/// A read handle's frontier only advances. A join imports a shared arrangement that
/// has already compacted to epoch 3 and reports its *other* input's frontier — still
/// the minimum time on its first activation — as what it needs: that must leave the
/// handle (and so the spine) where it was, not ask for history back.
#[test]
fn a_read_frontier_that_would_regress_is_ignored() {
    let frontier = |epoch: u64| Antichain::from_elem(Time::from_epoch(epoch));
    let mut trace = TraceAgent::<ValBatch<u32, u32>>::new(MergeEffort::Default);
    trace.set_logical_compaction(frontier(3).borrow());
    let mut importer = trace.clone();
    importer.set_logical_compaction(frontier(0).borrow());
    assert!(trace.since().same_as(&frontier(3)));
    // Advancing still works, and the trace follows the slower of its two readers.
    importer.set_logical_compaction(frontier(5).borrow());
    assert!(trace.since().same_as(&frontier(3)));
    trace.set_logical_compaction(frontier(7).borrow());
    assert!(trace.since().same_as(&frontier(5)));
}

/// Merge work has two sources of fuel, the insert that owes it and the idle worker: a
/// step that mints no batch spends none. Epoch sizes 1000, 400, 100 and 100 leave the
/// last insert's 464 units (4 × 100 + 64) short of the 400 + 200 merge it cascades
/// into, and no number of empty steps may finish it; the idle worker's fuel, spent
/// through a trace handle, does.
#[test]
fn a_step_spends_no_merge_fuel_an_insert_did_not_owe() {
    execute(Config::new(1), |worker| {
        let (mut edges, probe, trace) = worker.dataflow(|builder| {
            let (input, edges) = new_collection::<(u32, u32), isize>(builder);
            let arranged = edges.arrange_by_key();
            (input, arranged.probe(), arranged.trace)
        });
        let mut next = 0u32;
        for (epoch, size) in [(1u64, 1000u32), (2, 400), (3, 100), (4, 100)] {
            for _ in 0..size {
                edges.insert((next, next));
                next += 1;
            }
            edges.advance_to(epoch);
            worker.step_while(|| probe.less_than(&edges.time()));
        }
        assert!(
            trace.exert(&mut 0),
            "the last insert left a merge in progress"
        );
        for _ in 0..16 {
            worker.step();
        }
        assert!(
            trace.exert(&mut 0),
            "steps with nothing to mint finished a merge no insert paid for"
        );
        let mut turns = 0;
        while trace.exert(&mut 384) {
            turns += 1;
            assert!(turns <= 16, "idle turns did not drain the merges");
        }
        assert!(!trace.exert(&mut 0));
        assert_eq!((trace.batch_count(), trace.len()), (1, 1600));
    });
}

/// A query imports a trace while one of its merges is in progress, and joins it with
/// itself and with a collection of its own. The import replays the merging layer's two
/// sources as two batches in one `work` call, and the join acknowledges only the end of
/// its drained queue, never the boundary between them, so the merge may complete while
/// the join holds the trace. Both joins equal a nested-loop join at every epoch, the
/// merge included.
#[test]
fn a_join_over_a_trace_imported_mid_merge_pairs_like_a_nested_loop() {
    execute(Config::new(1), |worker| {
        let (mut edges, graph_probe, trace) = worker.dataflow(|builder| {
            let (input, edges) = new_collection::<(u32, u32), isize>(builder);
            let arranged = edges.arrange_by_key();
            (input, arranged.probe(), arranged.trace)
        });
        let mut all_edges = Vec::new();
        let insert_edges = |edges: &mut InputHandle<(u32, u32), isize>,
                            all_edges: &mut Vec<(u32, u32)>,
                            count: u32| {
            for _ in 0..count {
                let next = all_edges.len() as u32;
                edges.insert((next % 40, next));
                all_edges.push((next % 40, next));
            }
        };
        // As in `a_step_spends_no_merge_fuel_an_insert_did_not_owe`: the last insert
        // leaves a 400 + 200 merge in progress.
        for (epoch, size) in [(1u64, 1000u32), (2, 400), (3, 100), (4, 100)] {
            insert_edges(&mut edges, &mut all_edges, size);
            edges.advance_to(epoch);
            worker.step_while(|| graph_probe.less_than(&edges.time()));
        }
        assert!(trace.exert(&mut 0), "no merge in progress at the import");

        let (mut probes, probe, self_joined, probed) = worker.dataflow(|builder| {
            let imported = trace.import(builder);
            let (probes_in, probes) = new_collection::<(u32, u32), isize>(builder);
            let probes = probes.arrange_by_key();
            let self_joined = imported.join_core(&imported, |k, v1, v2| (*k, *v1, *v2));
            let probed = imported.join_core(&probes, |k, v, w| (*k, *v, *w));
            let probe = self_joined.concat(&probed).probe();
            (probes_in, probe, self_joined.capture(), probed.capture())
        });
        let mut all_probes = Vec::new();
        let mut epoch = 4u64;
        let check = |epoch: u64, all_edges: &[(u32, u32)], all_probes: &[(u32, u32)]| {
            let nested = |left: &[(u32, u32)], right: &[(u32, u32)]| {
                let mut pairs = BTreeMap::new();
                for (k1, v) in left {
                    for (k2, w) in right {
                        if k1 == k2 {
                            *pairs.entry((*k1, *v, *w)).or_insert(0) += 1;
                        }
                    }
                }
                pairs
            };
            assert_eq!(
                accumulate(&self_joined.borrow(), epoch),
                nested(all_edges, all_edges),
                "self-join at epoch {epoch}"
            );
            assert_eq!(
                accumulate(&probed.borrow(), epoch),
                nested(all_edges, all_probes),
                "probe join at epoch {epoch}"
            );
        };
        for (round, size) in [(0u32, 100u32), (1, 50), (2, 50)] {
            for key in 0..10 {
                probes.insert((key * 4, round));
                all_probes.push((key * 4, round));
            }
            probes.advance_to(epoch + 1);
            insert_edges(&mut edges, &mut all_edges, size);
            epoch += 1;
            edges.advance_to(epoch);
            worker.step_while(|| probe.less_than(&edges.time()));
            check(epoch - 1, &all_edges, &all_probes);
            // Finish whatever the inserts left merging, under the join's holds.
            while trace.exert(&mut 384) {}
        }
    });
}
