//! The sharing lifecycle end to end: publish an arrangement, install queries against it
//! by name, retire one mid-stream, and verify that (a) the survivor's results are
//! unaffected and (b) the departed query's read frontiers are released so the shared
//! spine's compaction frontier advances past them.

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

/// Builds the canonical session: a published edge arrangement plus two queries reading
/// it (per-key counts, and a value filter), runs it to epoch 1, uninstalls the counts
/// query, keeps the survivor running through epoch 3, and returns the observations.
fn run_lifecycle(workers: usize) -> Vec<LifecycleObservations> {
    execute(Config::new(workers), |worker| {
        let catalog = Catalog::new();

        // Publish the shared arrangement under a name.
        let (mut edges, graph_probe) = worker.install("graph", {
            let catalog = catalog.clone();
            move |builder| {
                let (input, edges) = new_collection::<(u32, u32), isize>(builder);
                let arranged = edges.arrange_by_key();
                catalog.publish_if_absent("edges", &arranged).unwrap();
                (input, arranged.probe())
            }
        });
        for n in 0..50u32 {
            if n as usize % worker.peers() == worker.index() {
                edges.insert((n % 10, n));
            }
        }
        edges.advance_to(1);
        worker.step_while(|| graph_probe.less_than(&edges.time()));

        // Install two queries against the published arrangement.
        let counts = worker
            .install_query("counts", &catalog, |builder, catalog| {
                let imported = catalog
                    .import::<ValBatch<u32, u32>>("edges", builder)
                    .unwrap();
                let counts = imported
                    .reduce_core("Count", |_k, input, output: &mut Vec<(isize, isize)>| {
                        output.push((input.iter().map(|(_, r)| *r).sum(), 1));
                    })
                    .as_collection(|k, c| (*k, *c));
                (counts.probe(), counts.capture())
            })
            .unwrap();
        let survivor = worker
            .install_query("survivor", &catalog, |builder, catalog| {
                let imported = catalog
                    .import::<ValBatch<u32, u32>>("edges", builder)
                    .unwrap();
                let hits = imported
                    .as_collection(|k, v| (*k, *v))
                    .filter(|(_, v)| *v % 2 == 0);
                (hits.probe(), hits.capture())
            })
            .unwrap();
        assert_eq!(worker.installed(), vec!["graph", "counts", "survivor"]);

        let (counts_probe, counts_results) = &counts.result;
        let (survivor_probe, survivor_results) = &survivor.result;
        worker.step_while(|| {
            counts_probe.less_than(&edges.time()) || survivor_probe.less_than(&edges.time())
        });
        let counts_at_0 = accumulate(&counts_results.borrow(), 0);
        let survivor_at_0 = accumulate(&survivor_results.borrow(), 0);
        let since_before = catalog.since("edges").unwrap();

        // Retire the counts query. Its dataflow leaves the scheduler and every reader it
        // registered (import handle, join/reduce trace handles) is dropped.
        assert!(worker.uninstall_query("counts", &catalog));
        assert!(!worker.uninstall_query("counts", &catalog), "idempotent");
        assert_eq!(worker.installed(), vec!["graph", "survivor"]);

        // Keep the computation moving: more input, later epochs, catalog hygiene.
        edges.insert((3, 100 + worker.index() as u32 * 2));
        edges.advance_to(3);
        catalog.advance_all(Antichain::from_elem(Time::from_epoch(2)).borrow());
        worker.step_while(|| survivor_probe.less_than(&edges.time()));

        let survivor_at_2 = accumulate(&survivor_results.borrow(), 2);
        let since_after = catalog.since("edges").unwrap();
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

/// Query churn end to end: many install/uninstall cycles against a published
/// arrangement leave the worker holding only what is live (the graph dataflow, plus the
/// one query of the cycle while it runs) and the progress registry likewise, leave the
/// catalog's reader table at its pre-churn size, and return the reader count to its
/// baseline — on one worker and on two.
#[test]
fn query_churn_keeps_slots_and_reader_tables_bounded() {
    for workers in [1usize, 2] {
        let cycles = 50usize;
        let observations = execute(Config::new(workers), move |worker| {
            let catalog = Catalog::new();
            let (mut edges, graph_probe) = worker.install("graph", {
                let catalog = catalog.clone();
                move |builder| {
                    let (input, edges) = new_collection::<(u32, u32), isize>(builder);
                    let arranged = edges.arrange_by_key();
                    catalog.publish_if_absent("edges", &arranged).unwrap();
                    (input, arranged.probe())
                }
            });
            for n in 0..20u32 {
                if n as usize % worker.peers() == worker.index() {
                    edges.insert((n % 5, n));
                }
            }
            edges.advance_to(1);
            worker.step_while(|| graph_probe.less_than(&edges.time()));

            let baseline_readers = catalog.reader_count("edges").unwrap();
            let mut live_high = 0usize;
            let mut reader_slots_after_first = 0usize;
            let mut epoch = 1u64;
            for cycle in 0..cycles {
                let name = format!("q{cycle}");
                let query = worker
                    .install_query(&name, &catalog, |builder, catalog| {
                        let imported = catalog
                            .import::<ValBatch<u32, u32>>("edges", builder)
                            .unwrap();
                        imported.as_collection(|k, v| (*k, *v)).probe()
                    })
                    .unwrap();
                epoch += 1;
                edges.advance_to(epoch);
                let probe = query.result.clone();
                worker.step_while(|| probe.less_than(&edges.time()));
                live_high = live_high.max(worker.live_dataflow_count());
                if cycle == 0 {
                    reader_slots_after_first = catalog.reader_slots("edges").unwrap();
                }
                assert!(worker.uninstall_query(&name, &catalog));
            }

            // The registry is computation-wide: a step is where every worker is known
            // to have retired the last query.
            worker.step();
            let final_registered = worker.shared_dataflow_entries();
            let final_live = worker.live_dataflow_count();
            let final_readers = catalog.reader_count("edges").unwrap();
            let final_reader_slots = catalog.reader_slots("edges").unwrap();
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

/// Reader-slot hygiene: churning many short-lived handles (clones and lookups) reuses
/// slots instead of growing the reader table, and departed readers stop pinning
/// compaction.
#[test]
fn reader_slots_are_reused_after_drop() {
    let catalog = Catalog::new();
    let trace = TraceAgent::<ValBatch<u32, u32>>::new(MergeEffort::Default);
    catalog.publish_trace_if_absent("edges", &trace).unwrap();
    let baseline = trace.reader_slot_capacity();
    for _ in 0..1000 {
        let looked = catalog.lookup::<ValBatch<u32, u32>>("edges").unwrap();
        drop(looked);
    }
    assert!(
        trace.reader_slot_capacity() <= baseline + 1,
        "reader table grew under churn: {} -> {}",
        baseline,
        trace.reader_slot_capacity()
    );
    assert_eq!(trace.reader_count(), 2, "trace handle + catalog entry");
}

/// A read handle's frontier only advances. A join imports a catalog arrangement that
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
/// into, and no number of empty steps may finish it; the idle worker's fuel, through
/// the catalog, does.
#[test]
fn a_step_spends_no_merge_fuel_an_insert_did_not_owe() {
    execute(Config::new(1), |worker| {
        let catalog = Catalog::new();
        let (mut edges, probe, trace) = worker.dataflow(|builder| {
            let (input, edges) = new_collection::<(u32, u32), isize>(builder);
            let arranged = edges.arrange_by_key();
            catalog.publish_if_absent("edges", &arranged).unwrap();
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
        while catalog.exert_all(&mut 384) {
            turns += 1;
            assert!(turns <= 16, "idle turns did not drain the merges");
        }
        assert!(!trace.exert(&mut 0));
        assert_eq!((trace.batch_count(), trace.len()), (1, 1600));
    });
}
