//! Consolidation: coalescing updates with equal data (and time) by adding their diffs.
//!
//! The arrange operator's input buffer is "effectively a partially evaluated merge sort"
//! (paper §4.2): sorting and consolidating keeps the number of buffered updates at most
//! linear in the number of distinct `(data, time)` pairs (design principle 3, bounded
//! memory footprint).

use std::cmp::Ordering;

use crate::diff::Semigroup;

/// The one sort-coalesce-drop-zero loop of the crate: sorts `updates` by `cmp`, folds each
/// run of `cmp`-equal elements into its first element by adding diffs (`diff` projects the
/// diff out of an element), and drops elements whose accumulated diff is zero.
///
/// The sort is stable and adaptive, so an already-sorted prefix costs a merge. Callers keep
/// their own early-outs and element layouts; this is only the loop.
pub(crate) fn consolidate_by<U, R: Semigroup>(
    updates: &mut Vec<U>,
    cmp: impl Fn(&U, &U) -> Ordering,
    diff: impl Fn(&mut U) -> &mut R,
) {
    updates.sort_by(&cmp);
    let mut write = 0;
    let mut read = 0;
    while read < updates.len() {
        // Accumulate the run of equal elements into position `read`.
        let (head, tail) = updates.split_at_mut(read + 1);
        let mut run = 0;
        while run < tail.len() && cmp(&tail[run], &head[read]) == Ordering::Equal {
            diff(&mut head[read]).plus_equals(diff(&mut tail[run]));
            run += 1;
        }
        if !diff(&mut head[read]).is_zero() {
            updates.swap(write, read);
            write += 1;
        }
        read += run + 1;
    }
    updates.truncate(write);
}

/// Sorts `updates` by data and adds together the diffs of equal data, dropping zeros.
pub fn consolidate<D: Ord, R: Semigroup>(updates: &mut Vec<(D, R)>) {
    if updates.len() <= 1 {
        updates.retain(|(_, r)| !r.is_zero());
        return;
    }
    consolidate_by(updates, |a, b| a.0.cmp(&b.0), |u| &mut u.1);
}

/// Sorts `updates` by `(data, time)` and adds together the diffs of equal pairs, dropping
/// zeros.
pub fn consolidate_updates<D: Ord, T: Ord, R: Semigroup>(updates: &mut Vec<(D, T, R)>) {
    if updates.len() <= 1 {
        updates.retain(|(_, _, r)| !r.is_zero());
        return;
    }
    consolidate_by(
        updates,
        |a, b| (&a.0, &a.1).cmp(&(&b.0, &b.1)),
        |u| &mut u.2,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cursor::cursor_to_updates;
    use crate::ord_batch::{compact_history, OrdValBuilder};
    use crate::{BatchReader, Builder, Data};
    use kpg_timestamp::{Antichain, AntichainRef};
    use std::collections::BTreeMap;

    /// The scalar reference: accumulate diffs per datum in a map, drop zeros, emit in order.
    fn reference<D: Ord>(updates: impl IntoIterator<Item = (D, isize)>) -> Vec<(D, isize)> {
        let mut sums = BTreeMap::new();
        for (data, diff) in updates {
            *sums.entry(data).or_insert(0) += diff;
        }
        sums.into_iter().filter(|(_, diff)| *diff != 0).collect()
    }

    /// Pushes `updates` through the batch builder and reads the sealed batch back.
    fn built<V: Data>(
        updates: impl IntoIterator<Item = (u8, V, u64, isize)>,
    ) -> Vec<(u8, V, u64, isize)> {
        let mut builder = OrdValBuilder::default();
        for (k, v, t, r) in updates {
            builder.push(k, v, t, r);
        }
        let batch = builder.done(
            Antichain::from_elem(0),
            Antichain::new(),
            Antichain::from_elem(0),
        );
        cursor_to_updates(&mut batch.cursor())
    }

    /// One table, five element layouts: every site that used to carry its own copy of the
    /// loop is driven through the kernel on each case and checked against `reference`.
    #[test]
    fn kernel_matches_reference_in_every_call_shape() {
        type Update = (u8, u8, u64, isize);
        let cases: Vec<(&str, Vec<Update>)> = vec![
            ("empty", vec![]),
            ("singleton", vec![(1, 1, 0, 2)]),
            ("singleton zero", vec![(1, 1, 0, 0)]),
            (
                "all cancel",
                vec![(1, 1, 0, 1), (1, 1, 0, -1), (2, 0, 3, 2), (2, 0, 3, -2)],
            ),
            (
                "zero amid others",
                vec![(2, 0, 0, 1), (1, 0, 0, 0), (3, 0, 0, 1)],
            ),
            (
                "runs, reordering and partial cancellation",
                vec![
                    (3, 1, 1, 1),
                    (1, 2, 0, 1),
                    (3, 1, 1, -1),
                    (1, 2, 0, 2),
                    (1, 1, 4, 1),
                    (2, 0, 2, 5),
                    (1, 2, 3, -3),
                    (3, 1, 1, 1),
                ],
            ),
            (
                "sorted prefix then unsorted tail",
                vec![
                    (1, 0, 0, 1),
                    (2, 0, 0, 1),
                    (3, 0, 0, 1),
                    (2, 0, 0, -1),
                    (1, 0, 0, 1),
                ],
            ),
            (
                "distinct only after projection",
                vec![(1, 0, 0, 1), (1, 1, 0, -1), (1, 0, 1, 1), (1, 1, 1, 1)],
            ),
        ];
        for (name, case) in cases {
            // `(D, R)`: `consolidate`.
            let mut got: Vec<((u8, u8, u64), isize)> =
                case.iter().map(|&(k, v, t, r)| ((k, v, t), r)).collect();
            let expected = reference(got.clone());
            consolidate(&mut got);
            assert_eq!(got, expected, "(D, R): {name}");

            // `(D, T, R)`: `consolidate_updates`.
            let mut got: Vec<((u8, u8), u64, isize)> =
                case.iter().map(|&(k, v, t, r)| ((k, v), t, r)).collect();
            consolidate_updates(&mut got);
            let got: Vec<_> = got
                .into_iter()
                .map(|((k, v), t, r)| ((k, v, t), r))
                .collect();
            assert_eq!(got, expected, "(D, T, R): {name}");

            // `(K, V, T, R)`: the builder's buffer, read back through the sealed batch.
            let got: Vec<_> = built(case.iter().copied())
                .into_iter()
                .map(|(k, v, t, r)| ((k, v, t), r))
                .collect();
            assert_eq!(got, expected, "(K, V, T, R): {name}");

            // `(K, T, R)`: the key-only builder, i.e. the same builder at `V = ()`.
            let got: Vec<_> = built(case.iter().map(|&(k, _, t, r)| (k, (), t, r)))
                .into_iter()
                .map(|(k, (), t, r)| ((k, t), r))
                .collect();
            let expected = reference(case.iter().map(|&(k, _, t, r)| ((k, t), r)));
            assert_eq!(got, expected, "(K, T, R): {name}");

            // `(T, R)`: one value's history, advanced to each `since` and compacted.
            for since in [0u64, 2, 9] {
                let mut got: Vec<(u64, isize)> = case.iter().map(|&(_, _, t, r)| (t, r)).collect();
                let expected = reference(got.iter().map(|&(t, r)| (t.max(since), r)));
                compact_history(&mut got, AntichainRef::new(&[since]));
                assert_eq!(got, expected, "(T, R) advanced to {since}: {name}");
            }
        }
    }

    #[test]
    fn consolidate_updates_respects_times() {
        let mut updates = vec![
            ("a", 1u64, 1isize),
            ("a", 2u64, 1),
            ("a", 1u64, 1),
            ("b", 1u64, 1),
            ("b", 1u64, -1),
        ];
        consolidate_updates(&mut updates);
        assert_eq!(updates, vec![("a", 1, 2), ("a", 2, 1)]);
    }

    #[test]
    fn consolidate_is_stable_under_reordering() {
        let mut a = vec![(3u64, 1u64, 1isize), (1, 2, 1), (3, 1, -1), (2, 1, 5)];
        let mut b = a.clone();
        b.reverse();
        consolidate_updates(&mut a);
        consolidate_updates(&mut b);
        assert_eq!(a, b);
    }
}
