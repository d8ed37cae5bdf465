//! Graph, Datalog and program-analysis workloads for the shared-arrangements evaluation
//! (paper §6.2–§6.4, Appendices C and D).
//!
//! * [`generate`] — seeded synthetic generators standing in for the paper's
//!   LiveJournal/Orkut/Twitter graphs and httpd/psql/linux program graphs (substitutions
//!   S3 and S4 in the README's "Substitutions and experiment index"), plus the
//!   tree/grid/gnp inputs of the Datalog benchmarks.
//! * [`plans`] — every query of those sections as a runtime [`kpg_plan::Plan`] value,
//!   installable from data through a [`kpg_plan::Manager`]: the interactive classes of
//!   Figure 5 / Table 10, reachability, breadth-first distances and connectivity,
//!   transitive closure and same-generation bottom-up and top-down, null propagation and
//!   points-to. The only statement of those queries in the library.
//! * [`baseline`] — the paper's "purpose-written single-threaded code" comparators
//!   (array- and hash-map-based BFS, union-find connectivity) and scalar evaluators of
//!   the interactive classes, which double as the plans' oracles.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod baseline;
pub mod generate;
pub mod plans;

/// A directed edge between two node identifiers.
pub type Edge = (u32, u32);
