//! Relational analytics workload: a TPC-H-like schema, generator, incrementally
//! maintained queries, and a full re-evaluation baseline (paper §6.1, Appendix B).
//!
//! The paper evaluates incremental view maintenance of the 22 TPC-H queries against
//! DBToaster. dbgen data and DBToaster itself cannot be shipped here (substitution S2 in
//! the README's "Substitutions and experiment index"), so this crate provides:
//!
//! * [`data`] — schema-compatible row types, each with its plan-row encoder, and a seeded
//!   generator with the same key relationships and value skew, at laptop scale factors;
//! * [`plans`] — a representative set of the TPC-H queries as [`kpg_plan::Plan`] values
//!   over named inputs (scan/filter/aggregate, join/aggregate, semijoin, group-by
//!   shapes), installed through a `kpg_plan::Manager` like any other runtime query and
//!   incrementally maintained as the lineitem stream loads;
//! * [`baseline`] — a re-evaluation engine that recomputes each query from scratch per
//!   logical batch, the behaviour DBToaster falls back to for complex aggregates, and
//!   the oracle the plans are tested against.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod baseline;
pub mod data;
pub mod plans;
