//! The algebra of differences.
//!
//! Differential dataflow requires the `diff` component of an update to form a commutative
//! group (paper §3.2): updates can be added together, cancel to zero, and be negated (for
//! retractions). Bilinear operators like `join` additionally multiply differences.

/// A commutative, associative addition with a test for the zero element.
pub trait Semigroup: Clone + PartialEq + std::fmt::Debug + Send + Sync + 'static {
    /// Adds `rhs` into `self`.
    fn plus_equals(&mut self, rhs: &Self);
    /// True iff `self` is the additive identity and the update it annotates can be dropped.
    fn is_zero(&self) -> bool;
}

/// A semigroup with an explicit zero element.
pub trait Monoid: Semigroup {
    /// The additive identity.
    fn zero() -> Self;
}

/// A monoid with additive inverses; required for retractions and the `negate` operator.
pub trait Abelian: Monoid {
    /// Replaces `self` with its additive inverse.
    fn negate(&mut self);
    /// Returns the additive inverse of `self`.
    fn negated(&self) -> Self {
        let mut clone = self.clone();
        clone.negate();
        clone
    }
}

/// Multiplication of differences, used by bilinear operators such as `join`.
pub trait Multiply<Rhs = Self> {
    /// The type of the product.
    type Output;
    /// Multiplies `self` by `rhs`.
    fn multiply(&self, rhs: &Rhs) -> Self::Output;
}

macro_rules! implement_diff_integer {
    ($($t:ty,)*) => (
        $(
            impl Semigroup for $t {
                #[inline]
                fn plus_equals(&mut self, rhs: &Self) { *self += rhs; }
                #[inline]
                fn is_zero(&self) -> bool { *self == 0 }
            }
            impl Monoid for $t {
                #[inline]
                fn zero() -> Self { 0 }
            }
            impl Abelian for $t {
                #[inline]
                fn negate(&mut self) { *self = -*self; }
            }
            impl Multiply for $t {
                type Output = $t;
                #[inline]
                fn multiply(&self, rhs: &Self) -> Self { self * rhs }
            }
        )*
    )
}

implement_diff_integer!(i8, i16, i32, i64, i128, isize,);

impl Multiply<i64> for isize {
    type Output = isize;
    fn multiply(&self, rhs: &i64) -> isize {
        self * (*rhs as isize)
    }
}

impl Multiply<isize> for i64 {
    type Output = i64;
    fn multiply(&self, rhs: &isize) -> i64 {
        self * (*rhs as i64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integer_diffs_add_and_cancel() {
        let mut a = 3isize;
        a.plus_equals(&-3);
        assert!(a.is_zero());
        assert_eq!((-4isize).negated(), 4);
        assert_eq!(3isize.multiply(&5isize), 15);
    }
}
