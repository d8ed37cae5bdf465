//! The lattice trait and the compaction function of Appendix A.

use crate::antichain::AntichainRef;
use crate::order::PartialOrder;

/// A partially ordered type with least upper bounds and greatest lower bounds.
///
/// Differential dataflow requires its timestamps to form a lattice: the `join` (least
/// upper bound, written `∧` in the paper) is used to determine the times at which a
/// `reduce` operator may need to produce output, and the `meet` (greatest lower bound,
/// `∨` in the paper) is used to summarise sets of times, e.g. during compaction.
pub trait Lattice: PartialOrder + Sized {
    /// The least upper bound of `self` and `other`.
    fn join(&self, other: &Self) -> Self;

    /// The greatest lower bound of `self` and `other`.
    fn meet(&self, other: &Self) -> Self;

    /// Updates `self` to the join of `self` and `other`; returns true if `self` changed.
    fn join_assign(&mut self, other: &Self) -> bool
    where
        Self: Clone + Eq,
    {
        let joined = self.join(other);
        if &joined != self {
            *self = joined;
            true
        } else {
            false
        }
    }

    /// Updates `self` to the meet of `self` and `other`; returns true if `self` changed.
    fn meet_assign(&mut self, other: &Self) -> bool
    where
        Self: Clone + Eq,
    {
        let met = self.meet(other);
        if &met != self {
            *self = met;
            true
        } else {
            false
        }
    }

    /// Advances `self` to its representative with respect to the frontier, in place.
    ///
    /// This is the compaction function `rep_F(t) = ⨅_{f ∈ F} (t ⨆ f)` of Appendix A: the
    /// greatest lower bound, over frontier elements `f`, of the least upper bound of the
    /// time and `f`. The result compares identically to `self` against all times greater
    /// than or equal to some element of the frontier (Theorem 1, correctness), and any two
    /// times that compare identically against all such times share a representative
    /// (Theorem 2, optimality). Both theorems are checked by property tests in this crate.
    ///
    /// If the frontier is empty there are no future times to distinguish and `self` is
    /// left unchanged (callers typically drop such updates entirely).
    fn advance_by(&mut self, frontier: AntichainRef<'_, Self>)
    where
        Self: Clone,
    {
        let mut iter = frontier.iter();
        if let Some(first) = iter.next() {
            let mut result = self.join(first);
            for f in iter {
                result = result.meet(&self.join(f));
            }
            *self = result;
        }
    }
}

macro_rules! implement_lattice_integer {
    ($($t:ty,)*) => (
        $(
            impl Lattice for $t {
                #[inline]
                fn join(&self, other: &Self) -> Self { std::cmp::max(*self, *other) }
                #[inline]
                fn meet(&self, other: &Self) -> Self { std::cmp::min(*self, *other) }
            }
        )*
    )
}

implement_lattice_integer!(u8, u16, u32, u64, u128, usize, i8, i16, i32, i64, i128, isize,);

impl Lattice for () {
    #[inline]
    fn join(&self, _other: &Self) -> Self {}
    #[inline]
    fn meet(&self, _other: &Self) -> Self {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::antichain::Antichain;

    #[test]
    fn integer_lattice_is_min_max() {
        assert_eq!(3u64.join(&5), 5);
        assert_eq!(3u64.meet(&5), 3);
    }

    #[test]
    fn join_assign_reports_change() {
        let mut t = 3u64;
        assert!(t.join_assign(&5));
        assert_eq!(t, 5);
        assert!(!t.join_assign(&4));
        assert_eq!(t, 5);
    }

    #[test]
    fn advance_by_totally_ordered() {
        let frontier = Antichain::from_elem(10u64);
        let mut t = 3u64;
        t.advance_by(frontier.borrow());
        assert_eq!(t, 10);

        let mut t = 12u64;
        t.advance_by(frontier.borrow());
        assert_eq!(t, 12);
    }

    #[test]
    fn advance_by_empty_frontier_is_identity() {
        let frontier = Antichain::<u64>::new();
        let mut t = 3u64;
        t.advance_by(frontier.borrow());
        assert_eq!(t, 3);
    }
}
