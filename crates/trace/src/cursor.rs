//! Cursors: navigation over one batch, or the union of several.
//!
//! A cursor is a position in storage it does not own: `Cursor<'b>` is offsets plus a
//! borrow of batch storage that lives for `'b`, so [`Cursor::key`] and [`Cursor::val`]
//! hand out `&'b` references that outlive the call — and the cursor's next step — but
//! never the batch. An operator can seek one cursor with another's key, or gather a
//! key's values, without cloning a row. A trace's cursor is a [`CursorList`] over its
//! batches' cursors, opened by a scoped read (`TraceAgent::read` or `read_through` in
//! `kpg_core`), so no cursor outlives the read that opened it.

use std::cmp::Ordering;

use crate::diff::Semigroup;
use crate::Data;
use kpg_timestamp::{Lattice, Timestamp};

/// A cursor over an ordered collection of `(key, val, time, diff)` updates held in
/// storage borrowed for `'b`.
///
/// Cursors expose the two-level (key, then value) structure of indexed batches, and the
/// `(time, diff)` history of each value. Operators navigate cursors with *alternating
/// seeks* (paper §5.3.1): when two cursors' keys differ, the one with the smaller key
/// seeks forward to the larger, ensuring work at most linear in the smaller input.
pub trait Cursor<'b> {
    /// The key component of updates.
    type Key: Data;
    /// The value component of updates.
    type Val: Data;
    /// The timestamp component of updates.
    type Time: Timestamp + Lattice;
    /// The difference component of updates.
    type Diff: Semigroup;

    /// True iff the cursor is positioned at a key.
    fn key_valid(&self) -> bool;
    /// True iff the cursor is positioned at a value of the current key.
    fn val_valid(&self) -> bool;
    /// The current key, borrowed from the batch; panics if `!key_valid()`.
    fn key(&self) -> &'b Self::Key;
    /// The current value, borrowed from the batch; panics if `!val_valid()`.
    fn val(&self) -> &'b Self::Val;
    /// Applies `logic` to every `(time, diff)` of the current `(key, val)` pair.
    fn map_times(&self, logic: impl FnMut(&Self::Time, &Self::Diff));
    /// Advances the cursor to the next key.
    fn step_key(&mut self);
    /// Advances the cursor to the first key `>= key`, if any.
    fn seek_key(&mut self, key: &Self::Key);
    /// Advances the cursor to the next value of the current key.
    fn step_val(&mut self);
    /// Advances the cursor to the first value `>= val` of the current key, if any.
    fn seek_val(&mut self, val: &Self::Val);
    /// Repositions the cursor at the first key.
    fn rewind_keys(&mut self);
    /// Repositions the cursor at the first value of the current key.
    fn rewind_vals(&mut self);

    /// Accumulates the diffs of the current `(key, val)` pair at times `<= upto`,
    /// returning `None` when the accumulation is zero (or there are no updates).
    fn accumulate_until(&self, upto: &Self::Time) -> Option<Self::Diff> {
        use kpg_timestamp::PartialOrder;
        let mut sum: Option<Self::Diff> = None;
        self.map_times(|t, r| {
            if t.less_equal(upto) {
                match &mut sum {
                    None => sum = Some(r.clone()),
                    Some(s) => s.plus_equals(r),
                }
            }
        });
        sum.filter(|s| !s.is_zero())
    }
}

/// A cursor over the union of several cursors (typically, the batches of a trace).
///
/// The merged cursor presents each key once, with the values (and their histories) merged
/// across all constituent cursors.
pub struct CursorList<C> {
    cursors: Vec<C>,
    min_key: Vec<usize>,
    min_val: Vec<usize>,
}

impl<'b, C: Cursor<'b>> CursorList<C> {
    /// Creates a merged cursor from a list of cursors.
    pub fn new(cursors: Vec<C>) -> Self {
        let mut result = CursorList {
            cursors,
            min_key: Vec::new(),
            min_val: Vec::new(),
        };
        result.minimize_keys();
        result
    }

    /// Recomputes `min_key`: the cursors positioned at the least key. One pass, comparing
    /// each cursor against the best so far *by index*, so no key is cloned.
    fn minimize_keys(&mut self) {
        self.min_key.clear();
        for (index, cursor) in self.cursors.iter().enumerate() {
            if !cursor.key_valid() {
                continue;
            }
            let order = match self.min_key.first() {
                None => Ordering::Less,
                Some(&best) => cursor.key().cmp(self.cursors[best].key()),
            };
            match order {
                Ordering::Less => {
                    self.min_key.clear();
                    self.min_key.push(index);
                }
                Ordering::Equal => self.min_key.push(index),
                Ordering::Greater => {}
            }
        }
        self.minimize_vals();
    }

    /// Recomputes `min_val`: among the `min_key` cursors, those at the least value.
    fn minimize_vals(&mut self) {
        self.min_val.clear();
        for &index in self.min_key.iter() {
            let cursor = &self.cursors[index];
            if !cursor.val_valid() {
                continue;
            }
            let order = match self.min_val.first() {
                None => Ordering::Less,
                Some(&best) => cursor.val().cmp(self.cursors[best].val()),
            };
            match order {
                Ordering::Less => {
                    self.min_val.clear();
                    self.min_val.push(index);
                }
                Ordering::Equal => self.min_val.push(index),
                Ordering::Greater => {}
            }
        }
    }
}

impl<'b, C: Cursor<'b>> Cursor<'b> for CursorList<C> {
    type Key = C::Key;
    type Val = C::Val;
    type Time = C::Time;
    type Diff = C::Diff;

    fn key_valid(&self) -> bool {
        !self.min_key.is_empty()
    }
    fn val_valid(&self) -> bool {
        !self.min_val.is_empty()
    }
    fn key(&self) -> &'b Self::Key {
        self.cursors[self.min_key[0]].key()
    }
    fn val(&self) -> &'b Self::Val {
        self.cursors[self.min_val[0]].val()
    }
    fn map_times(&self, mut logic: impl FnMut(&Self::Time, &Self::Diff)) {
        for &index in self.min_val.iter() {
            self.cursors[index].map_times(&mut logic);
        }
    }
    fn step_key(&mut self) {
        for &index in self.min_key.iter() {
            self.cursors[index].step_key();
        }
        self.minimize_keys();
    }
    fn seek_key(&mut self, key: &Self::Key) {
        for cursor in self.cursors.iter_mut() {
            cursor.seek_key(key);
        }
        self.minimize_keys();
    }
    fn step_val(&mut self) {
        for &index in self.min_val.iter() {
            self.cursors[index].step_val();
        }
        self.minimize_vals();
    }
    fn seek_val(&mut self, val: &Self::Val) {
        for &index in self.min_key.iter() {
            self.cursors[index].seek_val(val);
        }
        self.minimize_vals();
    }
    fn rewind_keys(&mut self) {
        for cursor in self.cursors.iter_mut() {
            cursor.rewind_keys();
        }
        self.minimize_keys();
    }
    fn rewind_vals(&mut self) {
        for &index in self.min_key.iter() {
            self.cursors[index].rewind_vals();
        }
        self.minimize_vals();
    }
}

/// Drains a cursor into a flat vector of `(key, val, time, diff)` tuples.
///
/// Intended for tests and small collections; production operators should navigate the
/// cursor directly.
#[allow(clippy::type_complexity)]
pub fn cursor_to_updates<'b, C: Cursor<'b>>(
    cursor: &mut C,
) -> Vec<(C::Key, C::Val, C::Time, C::Diff)> {
    let mut output = Vec::new();
    cursor.rewind_keys();
    while cursor.key_valid() {
        while cursor.val_valid() {
            let (key, val) = (cursor.key(), cursor.val());
            cursor.map_times(|t, r| output.push((key.clone(), val.clone(), t.clone(), r.clone())));
            cursor.step_val();
        }
        cursor.step_key();
    }
    output
}
