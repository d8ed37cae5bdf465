//! The atomics facade.
//!
//! Each operation is a scheduling point under a model run (an atomic is exactly the
//! kind of shared state whose interleavings the model must explore) and a plain
//! `#[inline]` passthrough otherwise. Orderings are forwarded verbatim: the model
//! serializes threads, so every modeled execution is sequentially consistent — a
//! superset of what any weaker ordering permits, which keeps modeled behaviors a
//! subset of real ones.

pub use std::sync::atomic::Ordering;

macro_rules! atomic_common {
    ($name:ident, $std:ty, $value:ty) => {
        /// Creates a new atomic. `const`, so statics work exactly as with std.
        pub const fn new(value: $value) -> Self {
            $name {
                inner: <$std>::new(value),
            }
        }

        /// Loads the value.
        #[inline]
        pub fn load(&self, order: Ordering) -> $value {
            crate::model_yield();
            self.inner.load(order)
        }

        /// Stores a value.
        #[inline]
        pub fn store(&self, value: $value, order: Ordering) {
            crate::model_yield();
            self.inner.store(value, order);
        }

        /// Swaps in a new value, returning the previous one.
        #[inline]
        pub fn swap(&self, value: $value, order: Ordering) -> $value {
            crate::model_yield();
            self.inner.swap(value, order)
        }

        /// Stores `new` if the current value equals `current`.
        #[inline]
        pub fn compare_exchange(
            &self,
            current: $value,
            new: $value,
            success: Ordering,
            failure: Ordering,
        ) -> Result<$value, $value> {
            crate::model_yield();
            self.inner.compare_exchange(current, new, success, failure)
        }

        /// Mutable access without synchronization (the `&mut` proves exclusivity).
        #[inline]
        pub fn get_mut(&mut self) -> &mut $value {
            self.inner.get_mut()
        }

        /// Consumes the atomic, returning the value.
        #[inline]
        pub fn into_inner(self) -> $value {
            self.inner.into_inner()
        }
    };
}

macro_rules! atomic_int {
    ($name:ident, $std:ty, $value:ty) => {
        /// A drop-in counterpart of the std atomic of the same name; every operation
        /// is a model scheduling point.
        #[derive(Default)]
        pub struct $name {
            inner: $std,
        }

        impl $name {
            atomic_common!($name, $std, $value);

            /// Adds, wrapping, returning the previous value.
            #[inline]
            pub fn fetch_add(&self, value: $value, order: Ordering) -> $value {
                crate::model_yield();
                self.inner.fetch_add(value, order)
            }

            /// Subtracts, wrapping, returning the previous value.
            #[inline]
            pub fn fetch_sub(&self, value: $value, order: Ordering) -> $value {
                crate::model_yield();
                self.inner.fetch_sub(value, order)
            }

            /// Stores the maximum of the current and given values, returning the
            /// previous value.
            #[inline]
            pub fn fetch_max(&self, value: $value, order: Ordering) -> $value {
                crate::model_yield();
                self.inner.fetch_max(value, order)
            }

            /// Stores the minimum of the current and given values, returning the
            /// previous value.
            #[inline]
            pub fn fetch_min(&self, value: $value, order: Ordering) -> $value {
                crate::model_yield();
                self.inner.fetch_min(value, order)
            }
        }

        impl std::fmt::Debug for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                self.inner.fmt(f)
            }
        }

        impl From<$value> for $name {
            fn from(value: $value) -> Self {
                Self::new(value)
            }
        }
    };
}

atomic_int!(AtomicU64, std::sync::atomic::AtomicU64, u64);
atomic_int!(AtomicUsize, std::sync::atomic::AtomicUsize, usize);
atomic_int!(AtomicI64, std::sync::atomic::AtomicI64, i64);
atomic_int!(AtomicU32, std::sync::atomic::AtomicU32, u32);

/// A drop-in `std::sync::atomic::AtomicBool`; every operation is a model scheduling
/// point.
#[derive(Default)]
pub struct AtomicBool {
    inner: std::sync::atomic::AtomicBool,
}

impl AtomicBool {
    atomic_common!(AtomicBool, std::sync::atomic::AtomicBool, bool);

    /// Logical OR, returning the previous value.
    #[inline]
    pub fn fetch_or(&self, value: bool, order: Ordering) -> bool {
        crate::model_yield();
        self.inner.fetch_or(value, order)
    }

    /// Logical AND, returning the previous value.
    #[inline]
    pub fn fetch_and(&self, value: bool, order: Ordering) -> bool {
        crate::model_yield();
        self.inner.fetch_and(value, order)
    }
}

impl std::fmt::Debug for AtomicBool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.inner.fmt(f)
    }
}

impl From<bool> for AtomicBool {
    fn from(value: bool) -> Self {
        Self::new(value)
    }
}
