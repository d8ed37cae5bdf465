//! End-to-end tests of the differential operators: incremental maintenance, joins,
//! reductions, iteration (the paper's Figure 1 reachability example), and sharing.

use std::collections::BTreeMap;

use kpg_core::prelude::*;
use kpg_dataflow::Time;

/// Merges captured update streams from all workers and accumulates the multiset of
/// records whose updates are at times `<= upto`.
fn accumulate<D: Ord + Clone>(
    captured: &[Vec<(D, Time, isize)>],
    upto: Time,
) -> BTreeMap<D, isize> {
    use kpg_timestamp::PartialOrder;
    let mut result = BTreeMap::new();
    for worker in captured {
        for (data, time, diff) in worker {
            if time.less_equal(&upto) {
                *result.entry(data.clone()).or_insert(0) += diff;
            }
        }
    }
    result.retain(|_, diff| *diff != 0);
    result
}

fn epoch(e: u64) -> Time {
    Time::from_epoch(e)
}

#[test]
fn map_filter_concat_negate() {
    let captured = execute(Config::new(1), |worker| {
        let (mut input, probe, captured) = worker.dataflow(|builder| {
            let (input, numbers) = new_collection::<u64, isize>(builder);
            let evens = numbers.filter(|x| x % 2 == 0);
            let doubled = evens.map(|x| x * 2);
            let with_original = doubled.concat(&numbers.filter(|x| x % 2 == 0));
            let minus_four = with_original.concat(&numbers.filter(|x| *x == 4).negate());
            let consolidated = minus_four.consolidate();
            let captured = consolidated.capture();
            let probe = consolidated.probe();
            (input, probe, captured)
        });
        for x in 0..6u64 {
            input.insert(x);
        }
        input.advance_to(1);
        worker.step_while(|| probe.less_than(&input.time()));
        let result = captured.borrow().clone();
        result
    });
    let totals = accumulate(&captured, epoch(0));
    // Evens 0,2,4 double to 0,4,8 and are concatenated with the evens themselves, then one
    // occurrence of 4 is removed.
    let expected: BTreeMap<u64, isize> = [(0u64, 2), (2, 1), (4, 1), (8, 1)].into_iter().collect();
    assert_eq!(totals, expected);
}

#[test]
fn count_and_distinct_maintain_updates() {
    let captured = execute(Config::new(1), |worker| {
        let (mut input, probe, counts, distinct) = worker.dataflow(|builder| {
            let (input, words) = new_collection::<String, isize>(builder);
            let counts = words.count().capture();
            let distinct_words = words.distinct();
            let probe = distinct_words.probe();
            let distinct = distinct_words.capture();
            (input, probe, counts, distinct)
        });

        input.insert("apple".to_string());
        input.insert("apple".to_string());
        input.insert("pear".to_string());
        input.advance_to(1);
        worker.step_while(|| probe.less_than(&input.time()));

        // Retract one apple and remove pear entirely.
        input.remove("apple".to_string());
        input.remove("pear".to_string());
        input.advance_to(2);
        worker.step_while(|| probe.less_than(&input.time()));

        let result = (counts.borrow().clone(), distinct.borrow().clone());
        result
    });

    let counts: Vec<_> = captured.iter().map(|(c, _)| c.clone()).collect();
    let distinct: Vec<_> = captured.iter().map(|(_, d)| d.clone()).collect();

    let counts_at_1 = accumulate(&counts, epoch(0));
    assert_eq!(counts_at_1.get(&("apple".to_string(), 2isize)), Some(&1));
    assert_eq!(counts_at_1.get(&("pear".to_string(), 1isize)), Some(&1));

    let counts_at_2 = accumulate(&counts, epoch(1));
    assert_eq!(counts_at_2.get(&("apple".to_string(), 1isize)), Some(&1));
    assert_eq!(counts_at_2.get(&("pear".to_string(), 1isize)), None);

    let distinct_at_1 = accumulate(&distinct, epoch(0));
    assert_eq!(distinct_at_1.len(), 2);
    let distinct_at_2 = accumulate(&distinct, epoch(1));
    assert_eq!(distinct_at_2.len(), 1);
    assert_eq!(distinct_at_2.get("apple"), Some(&1));
}

#[test]
fn join_maintains_matches_incrementally() {
    let captured = execute(Config::new(1), |worker| {
        let (mut people, mut cities, probe, captured) = worker.dataflow(|builder| {
            let (people_in, people) = new_collection::<(u32, String), isize>(builder);
            let (cities_in, cities) = new_collection::<(u32, String), isize>(builder);
            let joined = people.join(&cities);
            let probe = joined.probe();
            let captured = joined.capture();
            (people_in, cities_in, probe, captured)
        });

        people.insert((1, "alice".to_string()));
        people.insert((2, "bob".to_string()));
        cities.insert((1, "zurich".to_string()));
        people.advance_to(1);
        cities.advance_to(1);
        worker.step_while(|| probe.less_than(&Time::from_epoch(1)));

        // Add a city for bob and retract alice.
        cities.insert((2, "boston".to_string()));
        people.remove((1, "alice".to_string()));
        people.advance_to(2);
        cities.advance_to(2);
        worker.step_while(|| probe.less_than(&Time::from_epoch(2)));

        let result = captured.borrow().clone();
        result
    });

    let at_1 = accumulate(&captured, epoch(0));
    assert_eq!(at_1.len(), 1);
    assert_eq!(
        at_1.get(&(1u32, ("alice".to_string(), "zurich".to_string()))),
        Some(&1)
    );

    let at_2 = accumulate(&captured, epoch(1));
    assert_eq!(at_2.len(), 1);
    assert_eq!(
        at_2.get(&(2u32, ("bob".to_string(), "boston".to_string()))),
        Some(&1)
    );
}

#[test]
fn join_multiplies_multiplicities() {
    let captured = execute(Config::new(1), |worker| {
        let (mut left, mut right, probe, captured) = worker.dataflow(|builder| {
            let (left_in, left) = new_collection::<(u8, u8), isize>(builder);
            let (right_in, right) = new_collection::<(u8, u8), isize>(builder);
            let joined = left.join_map(&right, |k, a, b| (*k, *a, *b));
            (left_in, right_in, joined.probe(), joined.capture())
        });
        // Two copies on the left, three on the right: six matches.
        left.update((1, 10), 2);
        right.update((1, 20), 3);
        left.advance_to(1);
        right.advance_to(1);
        worker.step_while(|| probe.less_than(&Time::from_epoch(1)));
        let result = captured.borrow().clone();
        result
    });
    let at_1 = accumulate(&captured, epoch(0));
    assert_eq!(at_1.get(&(1u8, 10u8, 20u8)), Some(&6));
}

#[test]
fn semijoin_and_antijoin_partition_keys() {
    let captured = execute(Config::new(1), |worker| {
        let (mut data, mut keys, probe, semi, anti) = worker.dataflow(|builder| {
            let (data_in, data) = new_collection::<(u32, u32), isize>(builder);
            let (keys_in, keys) = new_collection::<u32, isize>(builder);
            let semi = data.semijoin(&keys);
            let anti = data.antijoin(&keys.distinct());
            let probe = anti.probe();
            (data_in, keys_in, probe, semi.capture(), anti.capture())
        });
        for k in 0..4u32 {
            data.insert((k, k * 100));
        }
        keys.insert(1);
        keys.insert(3);
        data.advance_to(1);
        keys.advance_to(1);
        worker.step_while(|| probe.less_than(&Time::from_epoch(1)));
        let result = (semi.borrow().clone(), anti.borrow().clone());
        result
    });
    let semi: Vec<_> = captured.iter().map(|(s, _)| s.clone()).collect();
    let anti: Vec<_> = captured.iter().map(|(_, a)| a.clone()).collect();
    let semi_at_1 = accumulate(&semi, epoch(0));
    let anti_at_1 = accumulate(&anti, epoch(0));
    assert_eq!(
        semi_at_1.keys().copied().collect::<Vec<_>>(),
        vec![(1, 100), (3, 300)]
    );
    assert_eq!(
        anti_at_1.keys().copied().collect::<Vec<_>>(),
        vec![(0, 0), (2, 200)]
    );
}

#[test]
fn reduce_tracks_maximum_per_key() {
    let captured = execute(Config::new(1), |worker| {
        let (mut input, probe, captured) = worker.dataflow(|builder| {
            let (input, readings) = new_collection::<(u8, u32), isize>(builder);
            let maxima = readings.max_by_key();
            (input, maxima.probe(), maxima.capture())
        });
        input.insert((1, 10));
        input.insert((1, 30));
        input.insert((2, 5));
        input.advance_to(1);
        worker.step_while(|| probe.less_than(&Time::from_epoch(1)));

        // Retract the maximum of key 1: the answer falls back to 10.
        input.remove((1, 30));
        input.advance_to(2);
        worker.step_while(|| probe.less_than(&Time::from_epoch(2)));
        let result = captured.borrow().clone();
        result
    });
    let at_1 = accumulate(&captured, epoch(0));
    assert_eq!(at_1.get(&(1u8, 30u32)), Some(&1));
    assert_eq!(at_1.get(&(2u8, 5u32)), Some(&1));
    assert_eq!(at_1.len(), 2);
    let at_2 = accumulate(&captured, epoch(1));
    assert_eq!(at_2.get(&(1u8, 10u32)), Some(&1));
    assert_eq!(at_2.get(&(1u8, 30u32)), None);
    assert_eq!(at_2.len(), 2);
}

/// The paper's Figure 1: interactive graph reachability, incrementally maintained while
/// both the query set and the edge set change.
#[test]
fn figure_one_reachability_is_incrementally_maintained() {
    let captured = execute(Config::new(1), |worker| {
        let (mut query, mut edges, probe, captured) = worker.dataflow(|builder| {
            let (query_in, query) = new_collection::<(u32, u32), isize>(builder);
            let (edges_in, edges) = new_collection::<(u32, u32), isize>(builder);

            // Reachability: seed with query sources, repeatedly extend along edges.
            let seeds = query.map(|(src, _dst)| (src, src)).distinct();
            let reached = seeds.iterate(|reach| {
                let edges = edges.enter();
                let seeds = seeds.enter();
                // reach: (node, root); follow edges from node, keeping the root.
                let expanded = reach
                    .map(|(node, root)| (node, root))
                    .join_map(&edges, |_node, root, next| (*next, *root));
                expanded
                    .concat(&seeds)
                    .distinct()
                    .map(|(node, root)| (node, root))
            });

            // Intersect with the query pairs: (dst, src) reached means query (src, dst) holds.
            let answers = query
                .map(|(src, dst)| ((dst, src), ()))
                .semijoin(&reached.map(|(node, root)| (node, root)))
                .map(|((dst, src), ())| (src, dst));

            let probe = answers.probe();
            let captured = answers.capture();
            (query_in, edges_in, probe, captured)
        });

        // Graph: 1 -> 2 -> 3, 4 -> 5. Queries: (1, 3) reachable, (1, 5) not.
        for edge in [(1, 2), (2, 3), (4, 5)] {
            edges.insert(edge);
        }
        query.insert((1, 3));
        query.insert((1, 5));
        edges.advance_to(1);
        query.advance_to(1);
        worker.step_while(|| probe.less_than(&Time::from_epoch(1)));

        // Add the edge 3 -> 4: now (1, 5) becomes reachable.
        edges.insert((3, 4));
        edges.advance_to(2);
        query.advance_to(2);
        worker.step_while(|| probe.less_than(&Time::from_epoch(2)));

        // Remove 2 -> 3: both answers disappear.
        edges.remove((2, 3));
        edges.advance_to(3);
        query.advance_to(3);
        worker.step_while(|| probe.less_than(&Time::from_epoch(3)));

        let result = captured.borrow().clone();
        result
    });

    let at_1 = accumulate(&captured, epoch(0));
    assert_eq!(at_1.get(&(1u32, 3u32)), Some(&1));
    assert_eq!(at_1.get(&(1u32, 5u32)), None);

    let at_2 = accumulate(&captured, epoch(1));
    assert_eq!(at_2.get(&(1u32, 3u32)), Some(&1));
    assert_eq!(at_2.get(&(1u32, 5u32)), Some(&1));

    let at_3 = accumulate(&captured, epoch(2));
    assert!(
        at_3.is_empty(),
        "removing 2->3 disconnects both queries: {at_3:?}"
    );
}

#[test]
fn arrangements_are_shared_between_operators() {
    // One arrangement of `edges` serves both a count and a join, and its trace reports a
    // single copy of the data.
    let stats = execute(Config::new(1), |worker| {
        let (mut edges_in, probe, degrees, matches, trace_len) = worker.dataflow(|builder| {
            let (edges_in, edges) = new_collection::<(u32, u32), isize>(builder);
            let arranged = edges.arrange_by_key();
            // Consumer 1: out-degrees, reading the shared arrangement.
            let degrees = arranged
                .reduce_core("Degrees", |_k, input, output: &mut Vec<(isize, isize)>| {
                    let total: isize = input.iter().map(|(_, r)| *r).sum();
                    output.push((total, 1));
                })
                .as_collection(|k, d| (*k, *d));
            // Consumer 2: self-join on source, also reading the shared arrangement.
            let matches = arranged.join_core(&arranged, |k, a, b| (*k, *a, *b));
            let probe = degrees.probe();
            let trace = arranged.trace;
            (edges_in, probe, degrees.capture(), matches.capture(), trace)
        });
        for (src, dst) in [(1u32, 2u32), (1, 3), (2, 3)] {
            edges_in.insert((src, dst));
        }
        edges_in.advance_to(1);
        worker.step_while(|| probe.less_than(&Time::from_epoch(1)));
        let result = (
            degrees.borrow().clone(),
            matches.borrow().clone(),
            trace_len.len(),
        );
        result
    });

    let degrees: Vec<_> = stats.iter().map(|(d, _, _)| d.clone()).collect();
    let matches: Vec<_> = stats.iter().map(|(_, m, _)| m.clone()).collect();
    let trace_len: usize = stats.iter().map(|(_, _, l)| *l).sum();

    let degrees_at_1 = accumulate(&degrees, epoch(0));
    assert_eq!(degrees_at_1.get(&(1u32, 2isize)), Some(&1));
    assert_eq!(degrees_at_1.get(&(2u32, 1isize)), Some(&1));

    let matches_at_1 = accumulate(&matches, epoch(0));
    // Key 1 has two destinations: 2x2 = 4 pairs; key 2 has one: 1 pair.
    assert_eq!(matches_at_1.values().sum::<isize>(), 5);

    // The shared trace holds exactly the three edges, once.
    assert_eq!(trace_len, 3);
}

#[test]
fn arrangements_import_into_new_dataflows() {
    let results = execute(Config::new(1), |worker| {
        // Dataflow 1 arranges the collection and keeps it maintained.
        let (mut input, probe1, trace) = worker.dataflow(|builder| {
            let (input, data) = new_collection::<(u32, u32), isize>(builder);
            let arranged = data.arrange_by_key();
            (input, arranged.probe(), arranged.trace)
        });
        input.insert((1, 10));
        input.insert((2, 20));
        input.advance_to(1);
        worker.step_while(|| probe1.less_than(&Time::from_epoch(1)));

        // Dataflow 2 imports the arrangement after the fact and counts per key.
        let (probe2, counts) = worker.dataflow(|builder| {
            let imported = trace.import(builder);
            let counts = imported
                .reduce_core("Count", |_k, input, output: &mut Vec<(isize, isize)>| {
                    let total: isize = input.iter().map(|(_, r)| *r).sum();
                    output.push((total, 1));
                })
                .as_collection(|k, c| (*k, *c));
            (counts.probe(), counts.capture())
        });
        // Step until the imported history has been processed.
        worker.step_while(|| probe2.less_than(&Time::from_epoch(1)));

        // Continue updating the original input; the imported dataflow follows along.
        input.insert((1, 11));
        input.advance_to(2);
        worker.step_while(|| {
            probe1.less_than(&Time::from_epoch(2)) || probe2.less_than(&Time::from_epoch(2))
        });
        let result = counts.borrow().clone();
        result
    });

    let at_1 = accumulate(&results, epoch(0));
    assert_eq!(at_1.get(&(1u32, 1isize)), Some(&1));
    assert_eq!(at_1.get(&(2u32, 1isize)), Some(&1));
    let at_2 = accumulate(&results, epoch(1));
    assert_eq!(
        at_2.get(&(1u32, 2isize)),
        Some(&1),
        "imported dataflow tracks new updates"
    );
}

#[test]
fn two_workers_agree_with_one() {
    // The same computation on one and two workers produces the same accumulated output.
    fn run(workers: usize) -> BTreeMap<(u32, isize), isize> {
        let captured = execute(Config::new(workers), |worker| {
            let (mut input, probe, captured) = worker.dataflow(|builder| {
                let (input, pairs) = new_collection::<(u32, u32), isize>(builder);
                let counts = pairs.map(|(k, _)| k).count();
                (input, counts.probe(), counts.capture())
            });
            // Each worker inserts a disjoint shard of the input.
            for i in 0..100u32 {
                if (i as usize) % worker.peers() == worker.index() {
                    input.insert((i % 10, i));
                }
            }
            input.advance_to(1);
            worker.step_while(|| probe.less_than(&Time::from_epoch(1)));
            let result = captured.borrow().clone();
            result
        });
        accumulate(&captured, epoch(0))
    }
    let one = run(1);
    let two = run(2);
    assert_eq!(one, two);
    assert_eq!(one.len(), 10);
    assert!(one.keys().all(|(_, count)| *count == 10));
}

// ---------------------------------------------------------------------------------
// Evaluation order cannot change answers.
//
// `reduce` evaluates every complete `(time, key)` pair of one `work` invocation in one
// ordered pass: one cursor pair that seeks forward within a time and rewinds between
// times, and a by-key index over the corrections it staged at earlier times. An
// epoch-by-epoch run never exercises either (one time per invocation); a backlog settled
// by one `step_while` — what a `Query` after many unsettled `AdvanceTime`s, or a WAL
// replay, hands the operator — exercises both, many times per invocation.
// ---------------------------------------------------------------------------------

use kpg_core::input::collection_from;
use kpg_timestamp::rng::SmallRng;

/// How a stream of epochs reaches the dataflow.
#[derive(Clone, Copy, Debug)]
enum Feed {
    /// Each epoch is settled by its own `step_while`.
    EpochByEpoch,
    /// Every epoch is pushed first; one `step_while` settles them all.
    Backlog,
}

/// One epoch's `(record, diff)` updates.
type Epoch<D> = Vec<(D, isize)>;

/// Pushes `stream` into `input` (each worker its own shard of every epoch) the way
/// `feed` says, stepping `worker` while `behind(epochs sealed so far)`.
fn feed_stream<D: Clone + Send + 'static>(
    worker: &mut Worker,
    input: &mut InputHandle<D, isize>,
    stream: &[Epoch<D>],
    feed: Feed,
    behind: impl Fn(u64) -> bool,
) {
    for (epoch, updates) in stream.iter().enumerate() {
        for (index, (record, diff)) in updates.iter().enumerate() {
            if index % worker.peers() == worker.index() {
                input.update(record.clone(), *diff);
            }
        }
        let sealed = epoch as u64 + 1;
        input.advance_to(sealed);
        if matches!(feed, Feed::EpochByEpoch) {
            worker.step_while(|| behind(sealed));
        }
    }
    let sealed = stream.len() as u64;
    worker.step_while(|| behind(sealed));
}

/// A seeded stream of `(key, value)` updates over `epochs` epochs on a dozen recurring
/// keys: mostly insertions, retractions of records that are present, and every seventh
/// epoch one key retracted to nothing (it usually returns later). Also returns the live
/// multiset after each epoch — the scalar side of the comparison.
#[allow(clippy::type_complexity)]
fn seeded_pairs(
    seed: u64,
    epochs: usize,
) -> (Vec<Epoch<(u32, u32)>>, Vec<BTreeMap<(u32, u32), isize>>) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut live: BTreeMap<(u32, u32), isize> = BTreeMap::new();
    let mut stream = Vec::new();
    let mut states = Vec::new();
    for epoch in 0..epochs {
        let mut updates = Vec::new();
        for _ in 0..rng.gen_range(3..10usize) {
            let present: Vec<(u32, u32)> = live.keys().copied().collect();
            if !present.is_empty() && rng.gen_range(0..3u32) == 0 {
                updates.push((present[rng.gen_range(0..present.len())], -1));
            } else {
                updates.push(((rng.gen_range(0..12u32), rng.gen_range(0..6u32)), 1));
            }
            let (record, diff) = *updates.last().expect("just pushed");
            *live.entry(record).or_insert(0) += diff;
            live.retain(|_, count| *count != 0);
        }
        if epoch % 7 == 6 {
            if let Some(&(doomed, _)) = live.keys().next() {
                for (&record, &count) in live.range((doomed, 0)..=(doomed, u32::MAX)) {
                    updates.push((record, -count));
                }
                live.retain(|(key, _), _| *key != doomed);
            }
        }
        stream.push(updates);
        states.push(live.clone());
    }
    (stream, states)
}

/// The four reductions under test, tagged into one record type so one capture and one
/// probe cover them: `count` of each key's records, `distinct` keys, `min_by_key`, and a
/// `reduce_core` with several output values per key (its three least values, each at its
/// own multiplicity — so a changed multiplicity is a correction to an existing value).
type Tagged = (&'static str, u32, i64);

fn four_reductions(pairs: &Collection<(u32, u32), isize>) -> Collection<Tagged, isize> {
    let keys = pairs.map(|(key, _)| key);
    let counts = keys
        .count()
        .map(|(key, count)| ("count", key, count as i64));
    let distinct = keys.distinct().map(|key| ("distinct", key, 0));
    let least = pairs
        .min_by_key()
        .map(|(key, val)| ("min", key, val as i64));
    let three_least = pairs
        .arrange_by_key()
        .reduce_core(
            "ThreeLeast",
            |_key, input, output: &mut Vec<(u32, isize)>| {
                output.extend(input.iter().take(3).map(|(val, diff)| (**val, *diff)));
            },
        )
        .as_collection(|key, val| ("three-least", *key, *val as i64));
    counts.concat(&distinct).concat(&least).concat(&three_least)
}

/// What [`four_reductions`] must hold when its input is `live`.
fn four_reductions_reference(live: &BTreeMap<(u32, u32), isize>) -> BTreeMap<Tagged, isize> {
    let mut by_key: BTreeMap<u32, Vec<(u32, isize)>> = BTreeMap::new();
    for (&(key, val), &count) in live {
        by_key.entry(key).or_default().push((val, count));
    }
    let mut expected = BTreeMap::new();
    for (key, vals) in by_key {
        let total: isize = vals.iter().map(|(_, count)| count).sum();
        expected.insert(("count", key, total as i64), 1);
        expected.insert(("distinct", key, 0), 1);
        expected.insert(("min", key, vals[0].0 as i64), 1);
        for &(val, count) in vals.iter().take(3) {
            expected.insert(("three-least", key, val as i64), count);
        }
    }
    expected
}

#[test]
fn a_backlog_of_epochs_reduces_to_the_same_answers_as_epoch_by_epoch() {
    const EPOCHS: usize = 36;
    let (stream, states) = seeded_pairs(0x5eed_0019, EPOCHS);
    let keys = |live: &BTreeMap<(u32, u32), isize>| -> Vec<u32> {
        live.keys().map(|(key, _)| *key).collect()
    };
    assert!(
        states.windows(2).any(|pair| keys(&pair[0])
            .iter()
            .any(|key| !keys(&pair[1]).contains(key))),
        "some key is retracted to nothing"
    );
    for workers in [1, 2] {
        let run = |feed: Feed| {
            let stream = stream.clone();
            execute(Config::new(workers), move |worker| {
                let (mut input, probe, captured) = worker.dataflow(|builder| {
                    let (input, pairs) = new_collection::<(u32, u32), isize>(builder);
                    let reduced = four_reductions(&pairs);
                    (input, reduced.probe(), reduced.capture())
                });
                feed_stream(worker, &mut input, &stream, feed, |sealed| {
                    probe.less_than(&Time::from_epoch(sealed))
                });
                let result = captured.borrow().clone();
                result
            })
        };
        let stepped = run(Feed::EpochByEpoch);
        let backlog = run(Feed::Backlog);
        for (index, live) in states.iter().enumerate() {
            let at = epoch(index as u64);
            let expected = four_reductions_reference(live);
            assert_eq!(
                accumulate(&stepped, at),
                expected,
                "epoch-by-epoch, {workers} workers, epoch {index}"
            );
            assert_eq!(
                accumulate(&backlog, at),
                expected,
                "backlog, {workers} workers, epoch {index}"
            );
        }
    }
}

/// The same comparison under `iterate`, where times are partially ordered — `(epoch,
/// round)` — so a key's history holds times that are not `<=` the one under evaluation
/// and the future-work `(joined, key)` path runs: the nodes reachable from node 0 while
/// edges come and go, including a retraction mid-stream that disconnects a chain.
#[test]
fn a_backlog_of_epochs_iterates_to_the_same_answers_as_epoch_by_epoch() {
    // A chain 0 -> 1 -> ... -> 6 built one edge per epoch, a shortcut, the retraction of
    // 2 -> 3 (which the shortcut 1 -> 4 partly heals), and its return.
    let stream: Vec<Epoch<(u32, u32)>> = vec![
        vec![((0, 1), 1)],
        vec![((1, 2), 1)],
        vec![((2, 3), 1), ((3, 4), 1)],
        vec![((4, 5), 1), ((5, 6), 1)],
        vec![((1, 4), 1)],
        vec![((2, 3), -1)],
        vec![((6, 0), 1)],
        vec![((1, 4), -1)],
        vec![((2, 3), 1), ((0, 1), -1)],
        vec![((0, 5), 1)],
    ];
    // Scalar reference: breadth-first search over the live edges after each epoch.
    let mut live: BTreeMap<(u32, u32), isize> = BTreeMap::new();
    let mut expected = Vec::new();
    for updates in stream.iter() {
        for &(edge, diff) in updates {
            *live.entry(edge).or_insert(0) += diff;
        }
        live.retain(|_, count| *count != 0);
        let mut reached = std::collections::BTreeSet::from([0u32]);
        let mut frontier = vec![0u32];
        while let Some(node) = frontier.pop() {
            for &(_, next) in live.keys().filter(|(src, _)| *src == node) {
                if reached.insert(next) {
                    frontier.push(next);
                }
            }
        }
        expected.push(
            reached
                .into_iter()
                .map(|node| (node, 1))
                .collect::<BTreeMap<u32, isize>>(),
        );
    }
    assert!(
        expected[5].len() < expected[4].len(),
        "the retraction disconnects nodes"
    );

    for workers in [1, 2] {
        let run = |feed: Feed| {
            let stream = stream.clone();
            execute(Config::new(workers), move |worker| {
                let (mut edges_in, probe, captured) = worker.dataflow(|builder| {
                    let (edges_in, edges) = new_collection::<(u32, u32), isize>(builder);
                    let roots = collection_from(builder, [(0u32, 1isize)]);
                    let reached = roots.iterate(|reach| {
                        let edges = edges.enter();
                        let roots = roots.enter();
                        reach
                            .map(|node| (node, ()))
                            .join_map(&edges, |_node, (), next| *next)
                            .concat(&roots)
                            .distinct()
                    });
                    (edges_in, reached.probe(), reached.capture())
                });
                feed_stream(worker, &mut edges_in, &stream, feed, |sealed| {
                    probe.less_than(&Time::from_epoch(sealed))
                });
                let result = captured.borrow().clone();
                result
            })
        };
        let stepped = run(Feed::EpochByEpoch);
        let backlog = run(Feed::Backlog);
        for (index, expected) in expected.iter().enumerate() {
            let at = epoch(index as u64);
            assert_eq!(
                &accumulate(&stepped, at),
                expected,
                "stepped, epoch {index}"
            );
            assert_eq!(
                &accumulate(&backlog, at),
                expected,
                "backlog, epoch {index}"
            );
        }
    }
}

// ---------------------------------------------------------------------------------
// A Count in the streaming scope reads only its own answer.
//
// `count` renders to `count_total` outside an `iterate`: a key's new count is its held
// count plus the batch's delta. It must agree with the general `reduce_core` count and
// with a scalar count at every epoch, whether epochs arrive one by one or as one batch
// spanning many (what a WAL replay hands it).
// ---------------------------------------------------------------------------------

/// A seeded stream of signed updates on a few recurring keys: diffs in `-2..=2`, so
/// counts go negative as readily as positive, plus fixed scenarios — key 100 is
/// inserted, retracted to zero and inserted again; key 101 is only ever retracted, so
/// its count is net negative; key 102 gains and loses a record within one epoch. Also
/// returns each key's count after every epoch.
#[allow(clippy::type_complexity)]
fn seeded_signed_keys(seed: u64, epochs: usize) -> (Vec<Epoch<u32>>, Vec<BTreeMap<u32, isize>>) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut counts: BTreeMap<u32, isize> = BTreeMap::new();
    let mut stream = Vec::new();
    let mut states = Vec::new();
    for epoch in 0..epochs {
        let mut updates: Epoch<u32> = (0..rng.gen_range(2..8usize))
            .map(|_| (rng.gen_range(0..6u32), rng.gen_range(-2..=2isize)))
            .filter(|(_, diff)| *diff != 0)
            .collect();
        match epoch % 4 {
            0 => updates.push((100, 1)),
            1 => updates.extend([(101, -1), (102, 1), (102, -1)]),
            2 => updates.push((100, -1)),
            _ => {}
        }
        for &(key, diff) in &updates {
            *counts.entry(key).or_insert(0) += diff;
        }
        counts.retain(|_, count| *count != 0);
        stream.push(updates);
        states.push(counts.clone());
    }
    (stream, states)
}

#[test]
fn count_total_matches_reduce_core_and_a_scalar_count() {
    const EPOCHS: usize = 40;
    let (stream, states) = seeded_signed_keys(0x5eed_0058, EPOCHS);
    assert!(states
        .iter()
        .any(|counts| counts.values().any(|count| *count < 0)));
    assert!(states.iter().any(|counts| !counts.contains_key(&100)));
    assert!(states.iter().any(|counts| counts.get(&101) < Some(&-5)));
    for workers in [1, 2] {
        let run = |feed: Feed| {
            let stream = stream.clone();
            execute(Config::new(workers), move |worker| {
                let (mut input, probe, captured) = worker.dataflow(|builder| {
                    let (input, keys) = new_collection::<u32, isize>(builder);
                    let total = keys.count().map(|(key, count)| ("total", key, count));
                    let general = keys
                        .arrange_by_self()
                        .reduce_core(
                            "GeneralCount",
                            |_key, input, output: &mut Vec<(isize, isize)>| {
                                output.push((input[0].1, 1));
                            },
                        )
                        .as_collection(|key, count| ("general", *key, *count));
                    let both = total.concat(&general);
                    (input, both.probe(), both.capture())
                });
                feed_stream(worker, &mut input, &stream, feed, |sealed| {
                    probe.less_than(&Time::from_epoch(sealed))
                });
                let result = captured.borrow().clone();
                result
            })
        };
        for feed in [Feed::EpochByEpoch, Feed::Backlog] {
            let captured = run(feed);
            for (index, counts) in states.iter().enumerate() {
                let expected: BTreeMap<_, _> = counts
                    .iter()
                    .flat_map(|(&key, &count)| {
                        [(("general", key, count), 1), (("total", key, count), 1)]
                    })
                    .collect();
                assert_eq!(
                    accumulate(&captured, epoch(index as u64)),
                    expected,
                    "{feed:?}, {workers} workers, epoch {index}"
                );
            }
        }
    }
}

/// A Count inside `iterate` keeps the general reduction (its times are partially
/// ordered): bootstrap percolation, where a node joins once two of its in-neighbours
/// have, from a fixed root set, while edges come and go. The scalar side repeats the
/// same rule to its fixed point.
#[test]
fn a_count_inside_iterate_reaches_the_scalar_fixed_point() {
    let stream: Vec<Epoch<(u32, u32)>> = vec![
        vec![
            ((1, 3), 1),
            ((2, 3), 1),
            ((3, 4), 1),
            ((1, 4), 1),
            ((4, 5), 1),
        ],
        vec![((2, 5), 1), ((5, 6), 1), ((4, 6), 1)],
        vec![((2, 3), -1)],
        vec![((2, 4), 1), ((1, 3), -1)],
        vec![((2, 3), 1), ((1, 3), 1), ((6, 7), 1), ((5, 7), 1)],
    ];
    let roots = [1u32, 2];
    let mut live: BTreeMap<(u32, u32), isize> = BTreeMap::new();
    let mut expected = Vec::new();
    for updates in stream.iter() {
        for &(edge, diff) in updates {
            *live.entry(edge).or_insert(0) += diff;
        }
        live.retain(|_, count| *count != 0);
        let mut active: std::collections::BTreeSet<u32> = roots.into_iter().collect();
        loop {
            let mut preds: BTreeMap<u32, usize> = BTreeMap::new();
            for &(_, dst) in live.keys().filter(|(src, _)| active.contains(src)) {
                *preds.entry(dst).or_insert(0) += 1;
            }
            let next: std::collections::BTreeSet<u32> = roots
                .into_iter()
                .chain(
                    preds
                        .into_iter()
                        .filter(|(_, n)| *n >= 2)
                        .map(|(node, _)| node),
                )
                .collect();
            if next == active {
                break;
            }
            active = next;
        }
        expected.push(
            active
                .into_iter()
                .map(|node| (node, 1))
                .collect::<BTreeMap<u32, isize>>(),
        );
    }
    assert!(
        expected[1].contains_key(&6),
        "node 6 joins through two joined nodes"
    );
    assert!(
        !expected[2].contains_key(&3),
        "a retraction deactivates node 3"
    );

    for workers in [1, 2] {
        for feed in [Feed::EpochByEpoch, Feed::Backlog] {
            let stream = stream.clone();
            let captured = execute(Config::new(workers), move |worker| {
                let (mut edges_in, probe, captured) = worker.dataflow(|builder| {
                    let (edges_in, edges) = new_collection::<(u32, u32), isize>(builder);
                    let roots = collection_from(builder, roots.map(|root| (root, 1isize)));
                    let active = roots.iterate(|active| {
                        let edges = edges.enter();
                        let roots = roots.enter();
                        active
                            .map(|node| (node, ()))
                            .join_map(&edges, |_node, (), next| *next)
                            .count()
                            .filter(|(_, preds)| *preds >= 2)
                            .map(|(node, _)| node)
                            .concat(&roots)
                            .distinct()
                    });
                    (edges_in, active.probe(), active.capture())
                });
                feed_stream(worker, &mut edges_in, &stream, feed, |sealed| {
                    probe.less_than(&Time::from_epoch(sealed))
                });
                let result = captured.borrow().clone();
                result
            });
            for (index, expected) in expected.iter().enumerate() {
                assert_eq!(
                    &accumulate(&captured, epoch(index as u64)),
                    expected,
                    "{feed:?}, {workers} workers, epoch {index}"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------------
// Linearity, as a count rather than a timing.
// ---------------------------------------------------------------------------------

thread_local! {
    /// Key comparisons (`Ord` and `PartialEq`) made on this thread.
    static COMPARISONS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// A key whose every comparison is counted.
#[derive(Clone, Debug)]
struct CountedKey(u64);

impl std::hash::Hash for CountedKey {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.0.hash(state);
    }
}

impl PartialEq for CountedKey {
    fn eq(&self, other: &Self) -> bool {
        COMPARISONS.with(|count| count.set(count.get() + 1));
        self.0 == other.0
    }
}
impl Eq for CountedKey {}
impl PartialOrd for CountedKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for CountedKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        COMPARISONS.with(|count| count.set(count.get() + 1));
        self.0.cmp(&other.0)
    }
}

/// How a bulk count is computed: by `count` (`count_total`, in the streaming scope) or
/// by the general `reduce_core`.
#[derive(Clone, Copy, Debug)]
enum Counter {
    Total,
    General,
}

/// The key comparisons a bulk count makes: `keys` keys, four records each, loaded in
/// one epoch and settled by one `step_while` (so every key is evaluated in one `work`).
fn bulk_count_comparisons(keys: u64, counter: Counter) -> u64 {
    execute(Config::new(1), move |worker| {
        COMPARISONS.with(|count| count.set(0));
        let (mut input, probe, captured) = worker.dataflow(|builder| {
            let (input, records) = new_collection::<CountedKey, isize>(builder);
            let counts = match counter {
                Counter::Total => records.count(),
                Counter::General => records
                    .arrange_by_self()
                    .reduce_core(
                        "GeneralCount",
                        |_key, input, output: &mut Vec<(isize, isize)>| {
                            output.push((input[0].1, 1));
                        },
                    )
                    .as_collection(|key, count| (key.clone(), *count)),
            };
            (input, counts.probe(), counts.capture())
        });
        // Scattered, not ascending, so the arrangement's sort does its real work.
        for round in 0..4 {
            for index in 0..keys {
                input.insert(CountedKey((index * 7919 + round * 31) % keys));
            }
        }
        input.advance_to(1);
        worker.step_while(|| probe.less_than(&Time::from_epoch(1)));
        let comparisons = COMPARISONS.with(|count| count.get());
        assert_eq!(captured.borrow().len() as u64, keys);
        assert!(captured
            .borrow()
            .iter()
            .all(|((_, n), _, diff)| *n == 4 && *diff == 1));
        comparisons
    })
    .remove(0)
}

/// Doubling the keys of a bulk reduction roughly doubles its comparisons (sorting and
/// seeking are n log n; nothing is n²). A `reduce` that scans everything it has staged
/// once per key, or seeks from the root of the trace once per key, quadruples them; so
/// does a `count_total` whose output seeks restart from the root.
#[test]
fn bulk_reduce_comparisons_grow_linearly_with_keys() {
    const KEYS: u64 = 2_000;
    for counter in [Counter::Total, Counter::General] {
        let small = bulk_count_comparisons(KEYS, counter);
        let large = bulk_count_comparisons(2 * KEYS, counter);
        assert!(
            large as f64 <= 2.3 * small as f64,
            "{counter:?}: {KEYS} keys: {small} comparisons; {} keys: {large} ({:.2}x)",
            2 * KEYS,
            large as f64 / small as f64
        );
    }
}
