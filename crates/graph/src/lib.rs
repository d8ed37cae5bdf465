//! Graph workloads for the shared-arrangements evaluation (paper §6.2, Appendix C).
//!
//! * [`generate`] — seeded synthetic graph generators standing in for the paper's
//!   LiveJournal/Orkut/Twitter datasets (substitution S3 in DESIGN.md).
//! * [`algorithms`] — differential implementations of reachability, breadth-first
//!   distances, single-source shortest paths, and undirected connectivity.
//! * [`plans`] — the interactive query classes of Figure 5 / Table 10 (point look-up
//!   and 1-hop, 2-hop, 4-hop shortest path) as runtime [`kpg_plan::Plan`] values,
//!   installable from data through a [`kpg_plan::Manager`]: the only statement of those
//!   queries in the library (their closure-built twin is a test oracle under `tests/`).
//! * [`baseline`] — the paper's "purpose-written single-threaded code" comparators
//!   (array- and hash-map-based BFS, union-find connectivity).

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod algorithms;
pub mod baseline;
pub mod generate;
pub mod plans;

/// A directed edge between two node identifiers.
pub type Edge = (u32, u32);
