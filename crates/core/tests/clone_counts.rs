//! Clone counts: `join` and `reduce` read keys and values in place.
//!
//! Keys and values here count their clones on the cloning thread, per kind, so a test
//! can pin how many an operator makes. A cursor's key and value borrow the batch, so
//! `join_core` needs no clone to seek, match or emit, and `reduce` clones a key or value
//! only into a staged correction or a recorded `(time, key)` pair. A join's output
//! counts the values alive at once, so a test can pin what the join buffers.

use std::cell::Cell;

use kpg_core::prelude::*;

thread_local! {
    /// Clones made on this thread of `Counted<0>`, `Counted<1>` and `Counted<2>`.
    static CLONES: [Cell<usize>; 3] = const { [Cell::new(0), Cell::new(0), Cell::new(0)] };
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

const KEY: usize = 0;
const VAL: usize = 1;
const OUT: usize = 2;

fn reset_clones() {
    CLONES.with(|clones| clones.iter().for_each(|count| count.set(0)));
}

fn clones(kind: usize) -> usize {
    CLONES.with(|clones| clones[kind].get())
}

fn settle(worker: &mut Worker, probe: &ProbeHandle, epoch: u64) {
    worker.step_while(|| probe.less_than(&Time::from_epoch(epoch)));
}

type Pair = (Counted<KEY>, Counted<VAL>);

/// Both sides of a join change in every epoch, so each epoch joins each side's new
/// batch against what the other side has acknowledged; the logic reads the three fields
/// without cloning. Each epoch's batch is under half the size of the one before, so no
/// spine starts a merge (a merge clones what survives it) and every clone counted would
/// be the join's: there are none.
#[test]
fn join_clones_no_key_or_value_per_match() {
    execute(Config::new(1), |worker| {
        let (mut left, mut right, probe, matched, traces) = worker.dataflow(|builder| {
            let (left_in, left) = new_collection::<Pair, isize>(builder);
            let (right_in, right) = new_collection::<Pair, isize>(builder);
            let (left, right) = (left.arrange_by_key(), right.arrange_by_key());
            let joined = left.join_core(&right, |key, v1, v2| (key.0, v1.0, v2.0));
            let traces = (left.trace, right.trace);
            (left_in, right_in, joined.probe(), joined.capture(), traces)
        });
        reset_clones();
        // Per epoch: the keys both sides update, two values each, and one key only the
        // left side holds, which seeks pass without matching.
        for (epoch, keys) in [(0u32, 64u32), (1, 16), (2, 4)] {
            for key in 0..keys {
                for val in 0..2 {
                    left.insert((Counted(key), Counted(10 * epoch + val)));
                    right.insert((Counted(key), Counted(100 + 10 * epoch + val)));
                }
            }
            left.insert((Counted(1000 + epoch), Counted(0)));
            let next = u64::from(epoch) + 1;
            left.advance_to(next);
            right.advance_to(next);
            settle(worker, &probe, next);
        }
        assert_eq!((traces.0.batch_count(), traces.1.batch_count()), (3, 3));
        // Key k holds 2 values per epoch that updated it on each side.
        let epochs = |key: u32| 1 + u32::from(key < 16) + u32::from(key < 4);
        let expected: u32 = (0..64).map(|key| (2 * epochs(key)).pow(2)).sum();
        let matches: isize = matched.borrow().iter().map(|(_, _, diff)| diff).sum();
        assert_eq!(matches, expected as isize);
        assert_eq!(
            (clones(KEY), clones(VAL)),
            (0, 0),
            "join cloned keys or values for {matches} matches"
        );
    });
}

/// Per epoch, some keys gain a value, and the even ones among them lose their oldest; the
/// logic emits the key's value count, built fresh. Input values are never cloned, an
/// output value only into the retraction of a replaced count, and a key only into a
/// correction or a recorded `(time, key)` pair — one pair per key and epoch here,
/// since no key's history holds a time the epoch has not passed. Batches shrink by
/// more than half each epoch, so no spine merges and clones nothing.
#[test]
fn reduce_clones_only_corrections_and_pending_pairs() {
    execute(Config::new(1), |worker| {
        let (mut input, probe, corrections, traces) = worker.dataflow(|builder| {
            let (input, pairs) = new_collection::<Pair, isize>(builder);
            let pairs = pairs.arrange_by_key();
            let counts = pairs.reduce_core(
                "CountValues",
                |_key, values, output: &mut Vec<(Counted<OUT>, isize)>| {
                    let count: isize = values.iter().map(|(_, diff)| diff).sum();
                    output.push((Counted(count as u32), 1));
                },
            );
            let corrections = counts.as_collection(|key, count| (key.0, count.0));
            let traces = (pairs.trace, counts.trace);
            (input, corrections.probe(), corrections.capture(), traces)
        });
        reset_clones();
        for key in 0..64 {
            for val in 0..4 {
                input.insert((Counted(key), Counted(val)));
            }
        }
        input.advance_to(1);
        settle(worker, &probe, 1);
        for (epoch, keys) in [(1u32, 16u32), (2, 2)] {
            for key in 0..keys {
                input.insert((Counted(key), Counted(10 * epoch)));
                if key % 2 == 0 {
                    input.remove((Counted(key), Counted(epoch - 1)));
                }
            }
            input.advance_to(u64::from(epoch) + 1);
            settle(worker, &probe, u64::from(epoch) + 1);
        }
        assert_eq!((traces.0.batch_count(), traces.1.batch_count()), (3, 3));
        let staged = corrections.borrow().len();
        let pending_pairs = 64 + 16 + 2;
        // Every key is set once; an odd key that gains a value is re-counted (a
        // retraction and an insertion), an even one keeps its count.
        assert_eq!(staged, 64 + 2 * 8 + 2);
        assert_eq!(clones(VAL), 0, "input values cloned");
        assert!(
            clones(OUT) <= staged,
            "{} output value clones for {staged} corrections",
            clones(OUT)
        );
        assert!(
            clones(KEY) <= staged + pending_pairs,
            "{} key clones for {staged} corrections and {pending_pairs} pending pairs",
            clones(KEY)
        );
    });
}

thread_local! {
    /// Calls of the join logic on this thread, per join.
    static CALLS: [Cell<usize>; 2] = const { [Cell::new(0), Cell::new(0)] };
}

fn call(join: usize) {
    CALLS.with(|calls| calls[join].set(calls[join].get() + 1));
}

fn calls(join: usize) -> usize {
    CALLS.with(|calls| calls[join].get())
}

/// Two-sided epochs: n values of one key arrive on both inputs of a join at once, and on
/// the one input of a self-join, so each `work` call has new batches on both ports. The
/// logic runs once per pair of matching values: n² in the first epoch, and in the second
/// the 3n² pairs it adds to the n² already made, never a pair twice plus a copy to
/// subtract.
#[test]
fn join_logic_runs_once_per_pair() {
    const N: u32 = 24;
    const PAIRS: usize = (N * N) as usize;
    execute(Config::new(1), |worker| {
        let (mut left, mut right, probe, joined, self_joined) = worker.dataflow(|builder| {
            let (left_in, left) = new_collection::<(u32, u32), isize>(builder);
            let (right_in, right) = new_collection::<(u32, u32), isize>(builder);
            let (left, right) = (left.arrange_by_key(), right.arrange_by_key());
            let joined = left.join_core(&right, |_, v1, v2| {
                call(0);
                (*v1, *v2)
            });
            let self_joined = left.join_core(&left, |_, v1, v2| {
                call(1);
                (*v1, *v2)
            });
            let probe = joined.concat(&self_joined).probe();
            (
                left_in,
                right_in,
                probe,
                joined.capture(),
                self_joined.capture(),
            )
        });
        for (epoch, expected) in [(0u32, PAIRS), (1, 4 * PAIRS)] {
            for val in 0..N {
                left.insert((7, N * epoch + val));
                right.insert((7, 1000 + N * epoch + val));
            }
            let next = u64::from(epoch) + 1;
            left.advance_to(next);
            right.advance_to(next);
            settle(worker, &probe, next);
            assert_eq!(
                (calls(0), calls(1)),
                (expected, expected),
                "epoch {epoch}: join and self-join logic calls"
            );
        }
        for output in [&joined, &self_joined] {
            let pairs: isize = output.borrow().iter().map(|(_, _, diff)| diff).sum();
            assert_eq!(pairs, 4 * PAIRS as isize);
            assert!(output.borrow().iter().all(|(_, _, diff)| *diff == 1));
        }
    });
}

thread_local! {
    /// `Live` values alive on this thread, and the most there have been at once.
    static LIVE: [Cell<usize>; 2] = const { [Cell::new(0), Cell::new(0)] };
}

/// A datum that counts the values of its type alive on this thread.
#[derive(Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct Live(u32);

impl Live {
    fn new(value: u32) -> Self {
        LIVE.with(|[live, peak]| {
            live.set(live.get() + 1);
            peak.set(peak.get().max(live.get()));
        });
        Live(value)
    }
}

impl Clone for Live {
    fn clone(&self) -> Self {
        Live::new(self.0)
    }
}

impl Drop for Live {
    fn drop(&mut self) {
        LIVE.with(|[live, _]| live.set(live.get() - 1));
    }
}

/// The most `Live` values alive at once since the last call.
fn take_peak_live() -> usize {
    LIVE.with(|[live, peak]| peak.replace(live.get()))
}

/// A self-join of one batch in which every key holds 64 values emits 64² pairs per key,
/// all to the key's one output: 4 096 emissions per distinct output, 262 144 in all. The
/// join buffers at most max(64k, 2 × distinct outputs) of them at once, whatever the
/// emissions number.
#[test]
fn join_buffers_at_most_twice_its_distinct_outputs() {
    const KEYS: u32 = 64;
    const VALS: u32 = 64;
    execute(Config::new(1), |worker| {
        let (mut input, probe, joined) = worker.dataflow(|builder| {
            let (input, pairs) = new_collection::<(u32, u32), isize>(builder);
            let pairs = pairs.arrange_by_key();
            let joined = pairs.join_core(&pairs, |key, _, _| Live::new(*key));
            (input, joined.probe(), joined.capture())
        });
        for key in 0..KEYS {
            for val in 0..VALS {
                input.insert((key, val));
            }
        }
        input.advance_to(1);
        take_peak_live();
        settle(worker, &probe, 1);
        let peak = take_peak_live();
        let output = joined.borrow().len();
        assert_eq!(output, KEYS as usize);
        let multiplicity = isize::try_from(VALS * VALS).unwrap();
        assert!(joined
            .borrow()
            .iter()
            .all(|(_, _, diff)| *diff == multiplicity));
        let bound = (1 << 16).max(2 * output) + output;
        assert!(
            peak <= bound,
            "the join held {peak} outputs at once for {output} distinct (bound {bound})"
        );
    });
}
