//! Antichains (frontiers) of partially ordered times.

use crate::order::PartialOrder;

/// A set of mutually incomparable elements, used as a *frontier*.
///
/// A frontier describes the times that may still be observed on a stream: every future
/// time is greater than or equal to some element of the frontier. The empty antichain
/// means "no further times will ever be observed" — the stream is complete.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Antichain<T> {
    elements: Vec<T>,
}

impl<T: PartialOrder> Antichain<T> {
    /// An empty antichain: no future times (a completed stream).
    pub fn new() -> Self {
        Antichain {
            elements: Vec::new(),
        }
    }

    /// An antichain containing a single element.
    pub fn from_elem(element: T) -> Self {
        Antichain {
            elements: vec![element],
        }
    }

    /// Builds an antichain from arbitrary elements, retaining only the minimal ones.
    // Deliberately an inherent method (not `FromIterator`): inserting into an antichain
    // filters dominated elements, which `collect()` would make easy to overlook.
    #[allow(clippy::should_implement_trait)]
    pub fn from_iter(iter: impl IntoIterator<Item = T>) -> Self {
        let mut result = Antichain::new();
        for element in iter {
            result.insert(element);
        }
        result
    }

    /// Inserts `element`, unless it is dominated by an existing element.
    ///
    /// Existing elements dominated by `element` are removed. Returns true if the element
    /// was inserted.
    pub fn insert(&mut self, element: T) -> bool {
        if self.elements.iter().any(|x| x.less_equal(&element)) {
            false
        } else {
            self.elements.retain(|x| !element.less_equal(x));
            self.elements.push(element);
            true
        }
    }

    /// True iff some element of the antichain is less than or equal to `time`.
    ///
    /// This is the paper's "`time` is in advance of the frontier": the time may still be
    /// observed (it is not yet complete).
    pub fn less_equal(&self, time: &T) -> bool {
        self.elements.iter().any(|x| x.less_equal(time))
    }

    /// True iff some element of the antichain is strictly less than `time`.
    pub fn less_than(&self, time: &T) -> bool {
        self.elements.iter().any(|x| x.less_than(time))
    }

    /// True iff the antichain has no elements (the stream is complete).
    pub fn is_empty(&self) -> bool {
        self.elements.is_empty()
    }

    /// The number of elements in the antichain.
    pub fn len(&self) -> usize {
        self.elements.len()
    }

    /// The elements of the antichain.
    pub fn elements(&self) -> &[T] {
        &self.elements
    }

    /// A borrowed view of the antichain.
    pub fn borrow(&self) -> AntichainRef<'_, T> {
        AntichainRef::new(&self.elements)
    }

    /// Removes all elements.
    pub fn clear(&mut self) {
        self.elements.clear();
    }

    /// True iff `self` and `other` describe the same frontier.
    ///
    /// Antichains are equal as sets; this comparison is insensitive to element order.
    pub fn same_as(&self, other: &Self) -> bool {
        self.elements.len() == other.elements.len()
            && self
                .elements
                .iter()
                .all(|x| other.elements.iter().any(|y| x == y))
    }

    /// True iff every element of `other` is greater than or equal to some element of
    /// `self`; i.e. `self` is a lower (earlier) frontier than `other`.
    pub fn dominates(&self, other: &Self) -> bool {
        other.elements.iter().all(|t| self.less_equal(t))
    }
}

impl<T: PartialOrder> Default for Antichain<T> {
    fn default() -> Self {
        Antichain::new()
    }
}

impl<T: PartialOrder> FromIterator<T> for Antichain<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        Antichain::from_iter(iter)
    }
}

/// A borrowed antichain, used to pass frontiers without cloning.
#[derive(Debug)]
pub struct AntichainRef<'a, T> {
    elements: &'a [T],
}

impl<'a, T> Clone for AntichainRef<'a, T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<'a, T> Copy for AntichainRef<'a, T> {}

impl<'a, T: PartialOrder> AntichainRef<'a, T> {
    /// Wraps a slice of (assumed mutually incomparable) elements.
    pub fn new(elements: &'a [T]) -> Self {
        AntichainRef { elements }
    }

    /// Iterates over the elements.
    pub fn iter(&self) -> std::slice::Iter<'a, T> {
        self.elements.iter()
    }

    /// True iff some element is less than or equal to `time`.
    pub fn less_equal(&self, time: &T) -> bool {
        self.elements.iter().any(|x| x.less_equal(time))
    }

    /// True iff some element is strictly less than `time`.
    pub fn less_than(&self, time: &T) -> bool {
        self.elements.iter().any(|x| x.less_than(time))
    }

    /// True iff the antichain is empty.
    pub fn is_empty(&self) -> bool {
        self.elements.is_empty()
    }

    /// The number of elements.
    pub fn len(&self) -> usize {
        self.elements.len()
    }

    /// The underlying elements.
    pub fn elements(&self) -> &'a [T] {
        self.elements
    }

    /// Clones into an owned antichain.
    pub fn to_owned(&self) -> Antichain<T>
    where
        T: Clone,
    {
        Antichain {
            elements: self.elements.to_vec(),
        }
    }
}

impl<'a, T> IntoIterator for AntichainRef<'a, T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.elements.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::product::Product;

    #[test]
    fn antichain_insert_keeps_minimal_elements() {
        let mut frontier = Antichain::new();
        assert!(frontier.insert(Product::new(2u64, 3u64)));
        assert!(frontier.insert(Product::new(3u64, 2u64)));
        assert_eq!(frontier.len(), 2);
        // Dominated by (2,3): rejected.
        assert!(!frontier.insert(Product::new(2u64, 4u64)));
        assert_eq!(frontier.len(), 2);
        // Dominates both existing elements: replaces them.
        assert!(frontier.insert(Product::new(1u64, 1u64)));
        assert_eq!(frontier.len(), 1);
    }

    #[test]
    fn antichain_less_equal_means_in_advance() {
        let frontier = Antichain::from_iter([Product::new(2u64, 3u64), Product::new(3u64, 2u64)]);
        assert!(frontier.less_equal(&Product::new(2, 3)));
        assert!(frontier.less_equal(&Product::new(5, 5)));
        assert!(!frontier.less_equal(&Product::new(2, 2)));
        assert!(!frontier.less_equal(&Product::new(1, 9)));
    }

    #[test]
    fn antichain_empty_admits_nothing() {
        let frontier = Antichain::<u64>::new();
        assert!(!frontier.less_equal(&0));
        assert!(frontier.is_empty());
    }

    #[test]
    fn antichain_same_as_is_order_insensitive() {
        let a = Antichain::from_iter([Product::new(2u64, 3u64), Product::new(3u64, 2u64)]);
        let b = Antichain::from_iter([Product::new(3u64, 2u64), Product::new(2u64, 3u64)]);
        assert!(a.same_as(&b));
    }

    #[test]
    fn antichain_dominates() {
        let lower = Antichain::from_elem(2u64);
        let upper = Antichain::from_elem(5u64);
        assert!(lower.dominates(&upper));
        assert!(!upper.dominates(&lower));
        // The empty antichain (nothing further) is dominated by everything.
        let empty = Antichain::<u64>::new();
        assert!(lower.dominates(&empty));
        assert!(!empty.dominates(&lower));
    }
}
