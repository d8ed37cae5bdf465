//! Partially ordered timestamps, lattices, antichains and compaction.
//!
//! Differential dataflow update triples `(data, time, diff)` carry a *partially ordered*
//! logical timestamp. This crate provides the timestamp algebra the rest of the system
//! builds on:
//!
//! * [`PartialOrder`] and [`Lattice`] — the comparison, least-upper-bound (`join`) and
//!   greatest-lower-bound (`meet`) operations required of every timestamp type.
//! * [`Timestamp`] — the bundle of traits the runtime requires, plus a `minimum()`.
//! * [`Product`] — the product lattice used for iteration rounds inside `iterate` scopes.
//! * [`Antichain`] — frontiers: sets of mutually incomparable times describing "which
//!   times may still arrive".
//! * [`Lattice::advance_by`] — the compaction function `rep_F(t) = ⨅_{f∈F} (t ⨆ f)` from
//!   Appendix A of the paper, with its correctness and optimality theorems re-proved as
//!   property tests in this crate's test suite.
//! * [`Time`] — the concrete timestamp used by the `kpg-dataflow` runtime: a streaming
//!   epoch plus up to two nested iteration rounds, under the product partial order.
//!
//! As the workspace's one dependency-free foundation crate, it also hosts [`rng`], the
//! small deterministic PRNG the workload crates use for reproducible synthetic inputs.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod antichain;
pub mod lattice;
pub mod order;
pub mod product;
pub mod rng;
pub mod time;

pub use antichain::{Antichain, AntichainRef};
pub use lattice::Lattice;
pub use order::{PartialOrder, TotalOrder};
pub use product::Product;
pub use time::Time;

/// The full set of requirements the runtime places on a timestamp type.
///
/// A timestamp must be partially ordered, form a lattice, be cheaply clonable and
/// hashable, and have a minimum element from which all computation starts.
pub trait Timestamp:
    PartialOrder
    + Lattice
    + Clone
    + Ord
    + Eq
    + std::hash::Hash
    + std::fmt::Debug
    + Send
    + Sync
    + 'static
{
    /// The least element of the timestamp type; every other time is `>=` this one.
    fn minimum() -> Self;
}

impl Timestamp for () {
    fn minimum() -> Self {}
}

macro_rules! implement_timestamp_integer {
    ($($index_type:ty,)*) => (
        $(
            impl Timestamp for $index_type {
                fn minimum() -> Self { 0 }
            }
        )*
    )
}

implement_timestamp_integer!(u8, u16, u32, u64, usize, i32, i64, isize,);

impl<TOuter: Timestamp, TInner: Timestamp> Timestamp for Product<TOuter, TInner> {
    fn minimum() -> Self {
        Product::new(TOuter::minimum(), TInner::minimum())
    }
}

impl Timestamp for Time {
    fn minimum() -> Self {
        Time::minimum()
    }
}
