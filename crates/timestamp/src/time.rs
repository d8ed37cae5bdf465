//! The concrete timestamp used by the `kpg-dataflow` runtime.

use crate::lattice::Lattice;
use crate::order::PartialOrder;

/// The maximum loop nesting depth supported by [`Time`].
///
/// Coordinate 0 is the streaming epoch; coordinates 1 and 2 are rounds of iteration for
/// (up to doubly) nested `iterate` scopes. Doubly nested iteration is what the paper's
/// strongly connected components implementation requires (§6.3).
pub const MAX_DEPTH: usize = 3;

/// A logical timestamp: a streaming epoch plus up to two nested iteration rounds.
///
/// `Time` is the product lattice over its coordinates: `a <= b` iff every coordinate of
/// `a` is `<=` the corresponding coordinate of `b`. Times outside any loop leave the
/// round coordinates at zero, so epoch-only times compare exactly as their epochs do.
///
/// The runtime uses a single concrete timestamp type rather than the per-scope timestamp
/// types of timely dataflow; this is part of substitution S1 (README, "Substitutions and
/// experiment index").
/// The generic lattice machinery in this crate (notably [`Product`](crate::Product)) is
/// still what the trace layer is written against, so alternative timestamp types can be
/// used with arrangements directly.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time {
    coords: [u64; MAX_DEPTH],
}

impl Time {
    /// The least time: epoch zero, round zero everywhere.
    pub fn minimum() -> Self {
        Time {
            coords: [0; MAX_DEPTH],
        }
    }

    /// A time at the given streaming epoch, outside any loop.
    pub fn from_epoch(epoch: u64) -> Self {
        let mut coords = [0; MAX_DEPTH];
        coords[0] = epoch;
        Time { coords }
    }

    /// A time with explicit coordinates (epoch, first round, second round).
    pub fn from_coords(coords: [u64; MAX_DEPTH]) -> Self {
        Time { coords }
    }

    /// The streaming epoch.
    pub fn epoch(&self) -> u64 {
        self.coords[0]
    }

    /// The coordinate at `depth` (0 = epoch, 1.. = iteration rounds).
    pub fn coord(&self, depth: usize) -> u64 {
        self.coords[depth]
    }

    /// All coordinates.
    pub fn coords(&self) -> [u64; MAX_DEPTH] {
        self.coords
    }

    /// Returns a copy with the coordinate at `depth` incremented by `delta`.
    ///
    /// This is the feedback ("next round") operation of an `iterate` scope at the given
    /// nesting depth.
    pub fn advanced(&self, depth: usize, delta: u64) -> Self {
        let mut coords = self.coords;
        coords[depth] += delta;
        Time { coords }
    }

    /// Returns a copy with all coordinates at `depth` and deeper reset to zero.
    ///
    /// This is the `leave` operation: updates produced inside an `iterate` scope are
    /// re-timestamped to the enclosing scope's time. The epoch-synchronous scheduler only
    /// advances enclosing-scope frontiers after the loop for an epoch has fully quiesced,
    /// which keeps this re-timestamping sound (substitution S1 in the README's
    /// "Substitutions and experiment index").
    pub fn left(&self, depth: usize) -> Self {
        let mut coords = self.coords;
        for c in coords.iter_mut().skip(depth) {
            *c = 0;
        }
        Time { coords }
    }
}

impl std::fmt::Debug for Time {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "({}, {}, {})",
            self.coords[0], self.coords[1], self.coords[2]
        )
    }
}

impl PartialOrder for Time {
    #[inline]
    fn less_equal(&self, other: &Self) -> bool {
        self.coords
            .iter()
            .zip(other.coords.iter())
            .all(|(a, b)| a <= b)
    }
}

impl Lattice for Time {
    #[inline]
    fn join(&self, other: &Self) -> Self {
        let mut coords = [0; MAX_DEPTH];
        for (i, c) in coords.iter_mut().enumerate() {
            *c = std::cmp::max(self.coords[i], other.coords[i]);
        }
        Time { coords }
    }
    #[inline]
    fn meet(&self, other: &Self) -> Self {
        let mut coords = [0; MAX_DEPTH];
        for (i, c) in coords.iter_mut().enumerate() {
            *c = std::cmp::min(self.coords[i], other.coords[i]);
        }
        Time { coords }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::antichain::Antichain;

    #[test]
    fn epoch_times_compare_as_integers() {
        assert!(Time::from_epoch(2).less_equal(&Time::from_epoch(3)));
        assert!(!Time::from_epoch(3).less_equal(&Time::from_epoch(2)));
        assert!(Time::from_epoch(2).less_than(&Time::from_epoch(3)));
    }

    #[test]
    fn loop_times_are_products() {
        let a = Time::from_coords([1, 5, 0]);
        let b = Time::from_coords([2, 3, 0]);
        assert!(!a.less_equal(&b));
        assert!(!b.less_equal(&a));
        assert_eq!(a.join(&b), Time::from_coords([2, 5, 0]));
        assert_eq!(a.meet(&b), Time::from_coords([1, 3, 0]));
    }

    #[test]
    fn enter_advance_leave_round_trip() {
        let outer = Time::from_epoch(7);
        let in_loop = outer.advanced(1, 3);
        assert_eq!(in_loop.coord(1), 3);
        assert!(outer.less_equal(&in_loop));
        assert_eq!(in_loop.left(1), outer);
    }

    #[test]
    fn advance_by_respects_incomparable_frontier() {
        // Frontier: either epoch 0 at round >= 2, or epoch >= 1 at any round.
        let frontier =
            Antichain::from_iter([Time::from_coords([0, 2, 0]), Time::from_coords([1, 0, 0])]);
        let mut t = Time::from_coords([0, 1, 0]);
        let original = t;
        t.advance_by(frontier.borrow());
        for probe in [
            Time::from_coords([0, 2, 0]),
            Time::from_coords([0, 7, 0]),
            Time::from_coords([1, 0, 0]),
            Time::from_coords([1, 1, 0]),
            Time::from_coords([4, 4, 0]),
        ] {
            assert_eq!(original.less_equal(&probe), t.less_equal(&probe));
        }
    }

    #[test]
    fn debug_format_is_compact() {
        assert_eq!(format!("{:?}", Time::from_coords([1, 2, 0])), "(1, 2, 0)");
    }
}
