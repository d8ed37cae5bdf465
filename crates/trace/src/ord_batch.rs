//! `OrdValBatch`: an immutable batch of updates indexed by key, then value.
//!
//! The storage is columnar: a sorted vector of keys, offsets into a vector of values, and
//! offsets into a flat vector of `(time, diff)` updates. Batches are wrapped in an `Arc`
//! so the batch stream and every trace reader share the same underlying memory (paper
//! §4.2, "Shared references").
//!
//! This is the crate's only batch implementation. Key-only collections (sets of keys,
//! e.g. `distinct`'s inputs and outputs) are the same batch at `V = ()`, named
//! [`OrdKeyBatch`]: `Vec<()>` allocates nothing, so the value layer costs one `val_offs`
//! word per key and nothing else.
//!
//! Batches come from two places, and both fill the columns in one pass without cloning
//! what they do not keep: [`OrdValBuilder::done`] moves its consolidated buffer in, and
//! [`OrdValMerger`] — fuelled by the spine per insert and per idle turn, see
//! [`crate::spine`] — clones a key or a value out of its sources once, and only if some
//! of its history survives compaction.

use std::cmp::Ordering;
use std::ops::Range;

use kpg_sync::Arc;

use crate::consolidation::{consolidate, consolidate_by};
use crate::cursor::Cursor;
use crate::description::Description;
use crate::diff::Semigroup;
use crate::{Batch, BatchReader, Builder, Data, Merger};
use kpg_timestamp::{Antichain, AntichainRef, Lattice, Timestamp};

/// Columnar storage for an [`OrdValBatch`].
#[derive(Debug)]
pub struct OrdValStorage<K, V, T, R> {
    /// Sorted, distinct keys.
    pub keys: Vec<K>,
    /// `key_offs[i]..key_offs[i+1]` are the value indices of `keys[i]`.
    pub key_offs: Vec<usize>,
    /// Values, grouped by key and sorted within each key.
    pub vals: Vec<V>,
    /// `val_offs[j]..val_offs[j+1]` are the update indices of `vals[j]`.
    pub val_offs: Vec<usize>,
    /// `(time, diff)` histories, grouped by value.
    pub updates: Vec<(T, R)>,
}

impl<K, V, T, R> OrdValStorage<K, V, T, R> {
    fn empty() -> Self {
        OrdValStorage {
            keys: Vec::new(),
            key_offs: vec![0],
            vals: Vec::new(),
            val_offs: vec![0],
            updates: Vec::new(),
        }
    }

    /// The `(time, diff)` history of the value at `val_idx`.
    fn history(&self, val_idx: usize) -> &[(T, R)] {
        &self.updates[self.val_offs[val_idx]..self.val_offs[val_idx + 1]]
    }
}

/// An immutable batch of `(key, val, time, diff)` updates, indexed by key then value.
#[derive(Debug)]
pub struct OrdValBatch<K, V, T, R> {
    storage: Arc<OrdValStorage<K, V, T, R>>,
    description: Description<T>,
}

/// A batch of `(key, time, diff)` updates for collections whose records are just keys:
/// the value batch with the zero-size value `()`.
pub type OrdKeyBatch<K, T, R> = OrdValBatch<K, (), T, R>;

/// The builder of an [`OrdKeyBatch`]; push `()` as the value.
pub type OrdKeyBuilder<K, T, R> = OrdValBuilder<K, (), T, R>;

impl<K, V, T, R> Clone for OrdValBatch<K, V, T, R>
where
    T: Clone,
{
    fn clone(&self) -> Self {
        OrdValBatch {
            storage: Arc::clone(&self.storage),
            description: self.description.clone(),
        }
    }
}

impl<K: Data, V: Data, T: Timestamp + Lattice, R: Semigroup> OrdValBatch<K, V, T, R> {
    /// The shared storage underlying this batch.
    pub fn storage(&self) -> &OrdValStorage<K, V, T, R> {
        &self.storage
    }

    /// The number of distinct keys in the batch.
    pub fn key_count(&self) -> usize {
        self.storage.keys.len()
    }
}

impl<K: Data, V: Data, T: Timestamp + Lattice, R: Semigroup> BatchReader
    for OrdValBatch<K, V, T, R>
{
    type Key = K;
    type Val = V;
    type Time = T;
    type Diff = R;
    type Cursor<'b> = OrdValCursor<'b, K, V, T, R>;

    fn cursor(&self) -> Self::Cursor<'_> {
        OrdValCursor {
            storage: &self.storage,
            key_pos: 0,
            val_pos: 0,
        }
    }
    fn len(&self) -> usize {
        self.storage.updates.len()
    }
    fn description(&self) -> &Description<T> {
        &self.description
    }
}

impl<K: Data, V: Data, T: Timestamp + Lattice, R: Semigroup> Batch for OrdValBatch<K, V, T, R> {
    type Builder = OrdValBuilder<K, V, T, R>;
    type Merger = OrdValMerger<K, V, T, R>;

    fn empty(lower: Antichain<T>, upper: Antichain<T>, since: Antichain<T>) -> Self {
        OrdValBatch {
            storage: Arc::new(OrdValStorage::empty()),
            description: Description::new(lower, upper, since),
        }
    }

    fn begin_merge(&self, other: &Self, since: AntichainRef<'_, T>) -> Self::Merger {
        OrdValMerger::new(self, other, since.to_owned())
    }
}

/// The minimum unsorted-tail length before a builder re-consolidates its buffer: below
/// this threshold the O(n log n) of a final sort is cheaper than the bookkeeping.
const BUILDER_CONSOLIDATE_MIN: usize = 256;

/// Builds an [`OrdValBatch`] from unsorted update tuples.
///
/// Consolidation is amortized: `buffer[..sorted]` is always sorted by `(key, val, time)`
/// with equal tuples coalesced, and whenever the unsorted tail grows to the size of that
/// prefix the whole buffer is re-consolidated (the sort is adaptive, so the sorted prefix
/// costs a merge, not a fresh sort). Each update therefore takes part in O(log n)
/// consolidations, the buffer stays at most linear in the number of *distinct* tuples
/// (paper §4.2, "partially evaluated merge sort"), and `done` only folds in the final
/// tail instead of sorting everything from scratch.
pub struct OrdValBuilder<K, V, T, R> {
    buffer: Vec<(K, V, T, R)>,
    /// Length of the sorted-and-consolidated prefix of `buffer`.
    sorted: usize,
}

impl<K, V, T, R> Default for OrdValBuilder<K, V, T, R> {
    fn default() -> Self {
        OrdValBuilder {
            buffer: Vec::new(),
            sorted: 0,
        }
    }
}

impl<K: Data, V: Data, T: Timestamp + Lattice, R: Semigroup> OrdValBuilder<K, V, T, R> {
    /// Sorts the buffer (a merge of the sorted prefix and the tail), coalesces equal
    /// `(key, val, time)` tuples, drops zero diffs, and marks the result sorted.
    fn consolidate_buffer(&mut self) {
        if self.sorted == self.buffer.len() {
            return;
        }
        consolidate_by(
            &mut self.buffer,
            |a, b| (&a.0, &a.1, &a.2).cmp(&(&b.0, &b.1, &b.2)),
            |u| &mut u.3,
        );
        self.sorted = self.buffer.len();
    }

    /// The sorted-prefix length and buffer capacity, for amortization tests.
    #[doc(hidden)]
    pub fn buffer_state(&self) -> (usize, usize, usize) {
        (self.sorted, self.buffer.len(), self.buffer.capacity())
    }
}

impl<K: Data, V: Data, T: Timestamp + Lattice, R: Semigroup> Builder for OrdValBuilder<K, V, T, R> {
    type Key = K;
    type Val = V;
    type Time = T;
    type Diff = R;
    type Output = OrdValBatch<K, V, T, R>;

    fn with_capacity(capacity: usize) -> Self {
        OrdValBuilder {
            buffer: Vec::with_capacity(capacity),
            sorted: 0,
        }
    }

    fn push(&mut self, key: K, val: V, time: T, diff: R) {
        self.buffer.push((key, val, time, diff));
        if self.buffer.len() - self.sorted >= self.sorted.max(BUILDER_CONSOLIDATE_MIN) {
            self.consolidate_buffer();
        }
    }

    fn done(
        mut self,
        lower: Antichain<T>,
        upper: Antichain<T>,
        since: Antichain<T>,
    ) -> Self::Output {
        // Freshly minted batches keep their original times: the `since` frontier records
        // how far accumulations are valid, but times are only advanced lazily, during
        // merges. Advancing here would re-timestamp the live batch stream that operator
        // shells (and loop feedback paths) consume.
        self.consolidate_buffer();

        let mut storage = OrdValStorage::empty();
        for (key, val, time, diff) in self.buffer.drain(..) {
            push_update(&mut storage, key, val, time, diff);
        }
        seal(&mut storage);
        OrdValBatch {
            storage: Arc::new(storage),
            description: Description::new(lower, upper, since),
        }
    }
}

/// Appends one consolidated update to storage under construction, opening new key/value
/// groups as needed; a key or value that repeats the open group's is dropped, one that
/// opens a group moves in. Requires updates to arrive in `(key, val, time)` order.
fn push_update<K: Data, V: Data, T: Timestamp, R: Semigroup>(
    storage: &mut OrdValStorage<K, V, T, R>,
    key: K,
    val: V,
    time: T,
    diff: R,
) {
    let new_key = storage.keys.last() != Some(&key);
    if new_key {
        // Seal the previous key's value range.
        if !storage.keys.is_empty() {
            storage.key_offs.push(storage.vals.len());
        }
        storage.keys.push(key);
    }
    // Within a key, updates arrive sorted by value, so an equal trailing value means the
    // same (key, val) group; an equal trailing value under a *different* key is covered by
    // `new_key`.
    let new_val = new_key || storage.vals.last() != Some(&val);
    if new_val {
        if !storage.vals.is_empty() {
            storage.val_offs.push(storage.updates.len());
        }
        storage.vals.push(val);
    }
    storage.updates.push((time, diff));
}

/// Seals the trailing offset vectors once all updates have been [`push_update`]d.
fn seal<K, V, T, R>(storage: &mut OrdValStorage<K, V, T, R>) {
    if !storage.vals.is_empty() {
        storage.val_offs.push(storage.updates.len());
    }
    if !storage.keys.is_empty() {
        storage.key_offs.push(storage.vals.len());
    }
    debug_assert_eq!(storage.key_offs.len(), storage.keys.len() + 1);
    debug_assert_eq!(storage.val_offs.len(), storage.vals.len() + 1);
}

/// A fuel-based, resumable merger of two [`OrdValBatch`]es.
///
/// One fuel unit is one source update read (at least one per key, so runs of cancelled
/// keys still end). What a unit costs is a comparison or two, one clone of the value and
/// one of the key *if they survive*, and a push: the result's columns are reserved once
/// from the sources' lengths, a one-update history — the common case — is advanced to
/// `since` and pushed directly, longer ones are compacted in one scratch buffer the
/// merger owns, and the loop that walks a key's values closes the groups it opens.
pub struct OrdValMerger<K, V, T, R> {
    key1: usize,
    key2: usize,
    /// The merged columns. Offsets are closed as each value and key group ends, so the
    /// storage is well-formed between any two keys and needs no sealing.
    result: OrdValStorage<K, V, T, R>,
    since: Antichain<T>,
    description: Description<T>,
    complete: bool,
    /// Scratch for the histories that need consolidating (more than one update).
    history: Vec<(T, R)>,
}

impl<K: Data, V: Data, T: Timestamp + Lattice, R: Semigroup> OrdValMerger<K, V, T, R> {
    fn new(
        batch1: &OrdValBatch<K, V, T, R>,
        batch2: &OrdValBatch<K, V, T, R>,
        since: Antichain<T>,
    ) -> Self {
        let description = batch1
            .description()
            .merged_with(batch2.description(), since.clone());
        let (storage1, storage2) = (batch1.storage(), batch2.storage());
        let keys = storage1.keys.len() + storage2.keys.len();
        let vals = storage1.vals.len() + storage2.vals.len();
        let mut result = OrdValStorage {
            keys: Vec::with_capacity(keys),
            key_offs: Vec::with_capacity(keys + 1),
            vals: Vec::with_capacity(vals),
            val_offs: Vec::with_capacity(vals + 1),
            updates: Vec::with_capacity(storage1.updates.len() + storage2.updates.len()),
        };
        result.key_offs.push(0);
        result.val_offs.push(0);
        OrdValMerger {
            key1: 0,
            key2: 0,
            result,
            since,
            description,
            complete: false,
            history: Vec::new(),
        }
    }

    /// Appends the history of one value — `first` then `second`, advanced to `since`
    /// and consolidated — and, if any of it survives, `val` and its closed offset.
    /// Returns the work performed (source updates read).
    fn push_val(&mut self, val: &V, first: &[(T, R)], second: &[(T, R)]) -> usize {
        let since = self.since.borrow();
        let updates = &mut self.result.updates;
        let before = updates.len();
        match (first, second) {
            ([(time, diff)], []) => {
                if !diff.is_zero() {
                    let mut time = time.clone();
                    if !since.is_empty() {
                        time.advance_by(since);
                    }
                    updates.push((time, diff.clone()));
                }
            }
            _ => {
                self.history.extend_from_slice(first);
                self.history.extend_from_slice(second);
                compact_history(&mut self.history, since);
                updates.append(&mut self.history);
            }
        }
        if updates.len() > before {
            self.result.vals.push(val.clone());
            self.result.val_offs.push(updates.len());
        }
        first.len() + second.len()
    }

    /// Closes the key group opened at value index `vals_before`, if any value survived.
    fn close_key(&mut self, key: &K, vals_before: usize) {
        if self.result.vals.len() > vals_before {
            self.result.keys.push(key.clone());
            self.result.key_offs.push(self.result.vals.len());
        }
    }

    /// Copies the values `vals` of `source` (one key's, or the rest of one), compacting
    /// their times to `self.since`. Returns the work performed.
    fn copy_vals(&mut self, source: &OrdValStorage<K, V, T, R>, vals: Range<usize>) -> usize {
        vals.map(|val_idx| self.push_val(&source.vals[val_idx], source.history(val_idx), &[]))
            .sum()
    }

    /// Copies the key at `key_idx` of `source`, compacting its times to `self.since`.
    /// Returns the amount of work performed (updates touched).
    fn copy_key(&mut self, source: &OrdValStorage<K, V, T, R>, key_idx: usize) -> usize {
        let vals_before = self.result.vals.len();
        let vals = source.key_offs[key_idx]..source.key_offs[key_idx + 1];
        let work = self.copy_vals(source, vals);
        self.close_key(&source.keys[key_idx], vals_before);
        work
    }

    /// Merges the key present at `key1` in `source1` and `key2` in `source2` (same key).
    fn merge_key(
        &mut self,
        source1: &OrdValStorage<K, V, T, R>,
        source2: &OrdValStorage<K, V, T, R>,
    ) -> usize {
        let vals_before = self.result.vals.len();
        let mut work = 0;
        let (mut v1, v1_hi) = (source1.key_offs[self.key1], source1.key_offs[self.key1 + 1]);
        let (mut v2, v2_hi) = (source2.key_offs[self.key2], source2.key_offs[self.key2 + 1]);
        while v1 < v1_hi && v2 < v2_hi {
            let (val1, val2) = (&source1.vals[v1], &source2.vals[v2]);
            work += match val1.cmp(val2) {
                Ordering::Less => {
                    v1 += 1;
                    self.push_val(val1, source1.history(v1 - 1), &[])
                }
                Ordering::Greater => {
                    v2 += 1;
                    self.push_val(val2, source2.history(v2 - 1), &[])
                }
                Ordering::Equal => {
                    v1 += 1;
                    v2 += 1;
                    self.push_val(val1, source1.history(v1 - 1), source2.history(v2 - 1))
                }
            };
        }
        work += self.copy_vals(source1, v1..v1_hi) + self.copy_vals(source2, v2..v2_hi);
        self.close_key(&source1.keys[self.key1], vals_before);
        work
    }
}

/// Advances every time in `history` to `since` and consolidates equal times, dropping
/// zero diffs. This is the per-value unit of compaction performed during merges.
pub(crate) fn compact_history<T: Timestamp + Lattice, R: Semigroup>(
    history: &mut Vec<(T, R)>,
    since: AntichainRef<'_, T>,
) {
    if !since.is_empty() {
        for (time, _) in history.iter_mut() {
            time.advance_by(since);
        }
    }
    consolidate(history);
}

impl<K: Data, V: Data, T: Timestamp + Lattice, R: Semigroup> Merger<OrdValBatch<K, V, T, R>>
    for OrdValMerger<K, V, T, R>
{
    fn work(
        &mut self,
        source1: &OrdValBatch<K, V, T, R>,
        source2: &OrdValBatch<K, V, T, R>,
        fuel: &mut isize,
    ) {
        let storage1 = source1.storage();
        let storage2 = source2.storage();
        while *fuel > 0 && !self.complete {
            let have1 = self.key1 < storage1.keys.len();
            let have2 = self.key2 < storage2.keys.len();
            let work = match (have1, have2) {
                (false, false) => {
                    self.complete = true;
                    0
                }
                (true, false) => {
                    let w = self.copy_key(storage1, self.key1);
                    self.key1 += 1;
                    w
                }
                (false, true) => {
                    let w = self.copy_key(storage2, self.key2);
                    self.key2 += 1;
                    w
                }
                (true, true) => match storage1.keys[self.key1].cmp(&storage2.keys[self.key2]) {
                    Ordering::Less => {
                        let w = self.copy_key(storage1, self.key1);
                        self.key1 += 1;
                        w
                    }
                    Ordering::Greater => {
                        let w = self.copy_key(storage2, self.key2);
                        self.key2 += 1;
                        w
                    }
                    Ordering::Equal => {
                        let w = self.merge_key(storage1, storage2);
                        self.key1 += 1;
                        self.key2 += 1;
                        w
                    }
                },
            };
            // Each key costs at least one unit so empty batches still complete promptly.
            *fuel -= work.max(1) as isize;
        }
    }

    fn is_complete(&self) -> bool {
        self.complete
    }

    fn done(
        self,
        _source1: &OrdValBatch<K, V, T, R>,
        _source2: &OrdValBatch<K, V, T, R>,
    ) -> OrdValBatch<K, V, T, R> {
        assert!(self.complete, "merge extracted before completion");
        debug_assert_eq!(self.result.key_offs.len(), self.result.keys.len() + 1);
        debug_assert_eq!(self.result.val_offs.len(), self.result.vals.len() + 1);
        OrdValBatch {
            storage: Arc::new(self.result),
            description: self.description,
        }
    }
}

/// A cursor over an [`OrdValBatch`]: two offsets into storage borrowed for `'b`.
pub struct OrdValCursor<'b, K, V, T, R> {
    storage: &'b OrdValStorage<K, V, T, R>,
    key_pos: usize,
    val_pos: usize,
}

impl<K: Data, V: Data, T: Timestamp + Lattice, R: Semigroup> OrdValCursor<'_, K, V, T, R> {
    fn val_bounds(&self) -> (usize, usize) {
        (
            self.storage.key_offs[self.key_pos],
            self.storage.key_offs[self.key_pos + 1],
        )
    }

    fn reset_vals(&mut self) {
        if self.key_valid() {
            self.val_pos = self.storage.key_offs[self.key_pos];
        }
    }
}

impl<'b, K: Data, V: Data, T: Timestamp + Lattice, R: Semigroup> Cursor<'b>
    for OrdValCursor<'b, K, V, T, R>
{
    type Key = K;
    type Val = V;
    type Time = T;
    type Diff = R;

    fn key_valid(&self) -> bool {
        self.key_pos < self.storage.keys.len()
    }
    fn val_valid(&self) -> bool {
        self.key_valid() && self.val_pos < self.val_bounds().1
    }
    fn key(&self) -> &'b K {
        &self.storage.keys[self.key_pos]
    }
    fn val(&self) -> &'b V {
        &self.storage.vals[self.val_pos]
    }
    fn map_times(&self, mut logic: impl FnMut(&T, &R)) {
        if self.val_valid() {
            for (time, diff) in self.storage.history(self.val_pos) {
                logic(time, diff);
            }
        }
    }
    fn step_key(&mut self) {
        if self.key_valid() {
            self.key_pos += 1;
            self.reset_vals();
        }
    }
    fn seek_key(&mut self, key: &K) {
        let remaining = &self.storage.keys[self.key_pos..];
        self.key_pos += remaining.partition_point(|k| k < key);
        self.reset_vals();
    }
    fn step_val(&mut self) {
        if self.val_valid() {
            self.val_pos += 1;
        }
    }
    fn seek_val(&mut self, val: &V) {
        if self.key_valid() {
            let (lo, hi) = self.val_bounds();
            let start = self.val_pos.max(lo);
            let remaining = &self.storage.vals[start..hi];
            self.val_pos = start + remaining.partition_point(|v| v < val);
        }
    }
    fn rewind_keys(&mut self) {
        self.key_pos = 0;
        self.reset_vals();
    }
    fn rewind_vals(&mut self) {
        self.reset_vals();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cursor::cursor_to_updates;

    fn batch_from(
        updates: Vec<(u64, &'static str, u64, isize)>,
        upper: u64,
    ) -> OrdValBatch<u64, &'static str, u64, isize> {
        let mut builder = OrdValBuilder::with_capacity(updates.len());
        for (k, v, t, r) in updates {
            builder.push(k, v, t, r);
        }
        builder.done(
            Antichain::from_elem(0),
            Antichain::from_elem(upper),
            Antichain::from_elem(0),
        )
    }

    #[test]
    fn builder_sorts_and_consolidates() {
        let batch = batch_from(
            vec![
                (2, "b", 0, 1),
                (1, "a", 0, 1),
                (1, "a", 0, 2),
                (1, "z", 1, 1),
                (3, "c", 0, 1),
                (3, "c", 0, -1),
            ],
            2,
        );
        let mut cursor = batch.cursor();
        let updates = cursor_to_updates(&mut cursor);
        assert_eq!(
            updates,
            vec![(1, "a", 0, 3), (1, "z", 1, 1), (2, "b", 0, 1),]
        );
        assert_eq!(batch.len(), 3);
        assert_eq!(batch.key_count(), 2);
    }

    #[test]
    fn cursor_seeks_keys_and_vals() {
        let batch = batch_from(
            vec![
                (1, "a", 0, 1),
                (1, "b", 0, 1),
                (5, "a", 0, 1),
                (9, "x", 0, 1),
            ],
            1,
        );
        let mut cursor = batch.cursor();
        cursor.seek_key(&4);
        assert!(cursor.key_valid());
        assert_eq!(*cursor.key(), 5);
        cursor.seek_key(&9);
        assert_eq!(*cursor.key(), 9);
        cursor.seek_key(&10);
        assert!(!cursor.key_valid());

        let mut cursor = batch.cursor();
        cursor.seek_val(&"b");
        assert_eq!(*cursor.val(), "b");
        cursor.rewind_vals();
        assert_eq!(*cursor.val(), "a");
    }

    #[test]
    fn same_value_under_different_keys() {
        let batch = batch_from(vec![(1, "a", 0, 1), (2, "a", 0, 1)], 1);
        let mut cursor = batch.cursor();
        let updates = cursor_to_updates(&mut cursor);
        assert_eq!(updates, vec![(1, "a", 0, 1), (2, "a", 0, 1)]);
        assert_eq!(batch.key_count(), 2);
    }

    #[test]
    fn merge_combines_and_cancels() {
        let batch1 = batch_from(vec![(1, "a", 0, 1), (2, "b", 0, 1)], 1);
        let mut builder = OrdValBuilder::with_capacity(2);
        builder.push(1, "a", 1, -1);
        builder.push(3, "c", 1, 1);
        let batch2 = builder.done(
            Antichain::from_elem(1),
            Antichain::from_elem(2),
            Antichain::from_elem(0),
        );

        // Merge with a since of 1: the (1,"a") history becomes +1 at 1 and -1 at 1 = zero.
        let mut merger = batch1.begin_merge(&batch2, AntichainRef::new(&[1u64]));
        let mut fuel = isize::MAX;
        merger.work(&batch1, &batch2, &mut fuel);
        assert!(merger.is_complete());
        let merged = merger.done(&batch1, &batch2);
        let mut cursor = merged.cursor();
        let updates = cursor_to_updates(&mut cursor);
        assert_eq!(updates, vec![(2, "b", 1, 1), (3, "c", 1, 1)]);
        assert_eq!(merged.description().lower().elements(), &[0]);
        assert_eq!(merged.description().upper().elements(), &[2]);
    }

    #[test]
    fn merge_respects_fuel() {
        let batch1 = batch_from((0..100).map(|i| (i, "a", 0, 1isize)).collect(), 1);
        let mut builder = OrdValBuilder::with_capacity(100);
        for i in 0..100u64 {
            builder.push(i, "b", 1, 1isize);
        }
        let batch2 = builder.done(
            Antichain::from_elem(1),
            Antichain::from_elem(2),
            Antichain::from_elem(0),
        );
        let mut merger = batch1.begin_merge(&batch2, AntichainRef::new(&[0u64]));
        let mut fuel = 10isize;
        merger.work(&batch1, &batch2, &mut fuel);
        assert!(!merger.is_complete());
        assert!(fuel <= 0);
        let mut fuel = isize::MAX;
        merger.work(&batch1, &batch2, &mut fuel);
        assert!(merger.is_complete());
        let merged = merger.done(&batch1, &batch2);
        assert_eq!(merged.len(), 200);
    }

    #[test]
    fn key_only_batch_builds_navigates_and_merges() {
        let mut builder = OrdKeyBuilder::with_capacity(4);
        builder.push(3u64, (), 0u64, 1isize);
        builder.push(1, (), 0, 1);
        builder.push(3, (), 1, -1);
        builder.push(1, (), 0, 1);
        let batch1 = builder.done(
            Antichain::from_elem(0),
            Antichain::from_elem(2),
            Antichain::from_elem(0),
        );
        let mut cursor = batch1.cursor();
        let updates = cursor_to_updates(&mut cursor);
        assert_eq!(updates, vec![(1, (), 0, 2), (3, (), 0, 1), (3, (), 1, -1)]);
        // Zero-size values: the value column holds one `()` per key and no memory.
        assert_eq!(batch1.storage().vals.len(), batch1.key_count());
        assert_eq!(batch1.storage().vals.capacity(), usize::MAX);

        let mut cursor = batch1.cursor();
        cursor.seek_key(&2);
        assert_eq!(*cursor.key(), 3);
        assert!(cursor.val_valid());
        cursor.step_val();
        assert!(!cursor.val_valid());
        cursor.rewind_vals();
        assert!(cursor.val_valid());

        let mut builder = OrdKeyBuilder::with_capacity(1);
        builder.push(1u64, (), 2u64, -2isize);
        let batch2 = builder.done(
            Antichain::from_elem(2),
            Antichain::from_elem(3),
            Antichain::from_elem(0),
        );
        // Compacted to 5, key 1 is +2 -2 and key 3 is +1 -1: everything cancels but the
        // merged batch is still well-formed.
        let mut merger = batch1.begin_merge(&batch2, AntichainRef::new(&[5u64]));
        let mut fuel = isize::MAX;
        merger.work(&batch1, &batch2, &mut fuel);
        let merged = merger.done(&batch1, &batch2);
        assert!(merged.is_empty());
        assert!(!merged.cursor().key_valid());

        let mut merger = batch1.begin_merge(&batch2, AntichainRef::new(&[0u64]));
        let mut fuel = isize::MAX;
        merger.work(&batch1, &batch2, &mut fuel);
        let merged = merger.done(&batch1, &batch2);
        assert_eq!(
            cursor_to_updates(&mut merged.cursor()),
            vec![(1, (), 0, 2), (1, (), 2, -2), (3, (), 0, 1), (3, (), 1, -1)]
        );
    }

    #[test]
    fn empty_batch_has_no_keys() {
        let batch = OrdValBatch::<u64, u64, u64, isize>::empty(
            Antichain::from_elem(0),
            Antichain::from_elem(0),
            Antichain::from_elem(0),
        );
        assert!(batch.is_empty());
        assert!(!batch.cursor().key_valid());
    }
}
