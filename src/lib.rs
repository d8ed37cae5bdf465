//! # Shared Arrangements (K-Pg) — umbrella crate
//!
//! This crate re-exports the public API of the reproduction of *Shared Arrangements:
//! practical inter-query sharing for streaming dataflows* (VLDB 2020). The heavy lifting
//! lives in the workspace crates:
//!
//! * [`timestamp`] — partially ordered timestamps, lattices, antichains, compaction.
//! * [`trace`] — immutable indexed batches, cursors, and the amortized-merging spine
//!   that backs every arrangement.
//! * [`dataflow`] — the multi-worker dataflow runtime (workers, exchange channels,
//!   epoch/round-synchronous progress tracking), including the install/uninstall
//!   dataflow lifecycle.
//! * [`core`](mod@core) — differential collections, the `arrange` operator, the
//!   batch-oriented operator shells (`join`, `reduce`, `distinct`, `count`, `iterate`),
//!   and the [`Catalog`](kpg_core::Catalog) of named shared arrangements with the
//!   [`QueryLifecycle`](kpg_core::QueryLifecycle) install/uninstall API.
//! * [`plan`] — runtime query plans: the data-described `Plan` IR, the render pass
//!   onto shared arrangements, and the per-worker `Manager` command loop.
//! * [`wire`], [`server`] — the network boundary: the length-prefixed binary codec
//!   for `Command`/`Row`/`Response` and the multi-client TCP query server that
//!   sequences client streams into the managers (see `examples/remote_session.rs`).
//! * [`relational`], [`graph`] — the workloads of the paper's evaluation (TPC-H-like
//!   analytics; interactive and batch graph queries, Datalog and program analysis), each
//!   stated once, as `plan::Plan` values in a `plans` module, beside a seeded generator
//!   and the scalar baseline that is its oracle. [`plan::replay()`] runs a `Command`
//!   stream over them the way a server worker does (see
//!   `examples/incremental_analytics.rs`).
//!
//! ## The query-session API
//!
//! The paper's central claim is *interactive* sharing: new queries attach to
//! already-maintained indexes mid-stream, and retired queries release the index history
//! they alone were pinning. That loop is a first-class operation here:
//!
//! ```no_run
//! use shared_arrangements::prelude::*;
//!
//! execute(Config::new(1), |worker| {
//!     let catalog = Catalog::new();
//!
//!     // Ingest and arrange the data once; publish the arrangement by name.
//!     let (mut edges, probe) = worker.install("graph", {
//!         let catalog = catalog.clone();
//!         move |builder| {
//!             let (input, edges) = new_collection::<(u32, u32), isize>(builder);
//!             let arranged = edges.arrange_by_key();
//!             catalog.publish_if_absent("edges", &arranged).unwrap();
//!             (input, arranged.probe())
//!         }
//!     });
//!
//!     // Install a query against the published arrangement, by name.
//!     let degrees = worker
//!         .install_query("degrees", &catalog, |builder, catalog| {
//!             let edges = catalog
//!                 .import::<ValBatch<u32, u32>>("edges", builder)
//!                 .unwrap();
//!             edges.as_collection(|src, _dst| *src).probe()
//!         })
//!         .unwrap();
//!
//!     // ...run interactively (insert, advance_to, step_while)...
//!     let _ = (&mut edges, probe, degrees);
//!
//!     // Retire the query: its dataflow leaves the scheduler and its read frontiers
//!     // are released, so the shared arrangement can compact past them.
//!     worker.uninstall_query("degrees", &catalog);
//! });
//! ```
//!
//! The fastest way in is `examples/quickstart.rs` (the paper's Figure 1 reachability
//! dataflow, interactively updated) and `examples/shared_queries.rs` (the full
//! publish → install → uninstall lifecycle, with the compaction frontier visibly
//! advancing when a reader departs).

#![forbid(unsafe_code)]

pub use kpg_core as core;
pub use kpg_dataflow as dataflow;
pub use kpg_graph as graph;
pub use kpg_plan as plan;
pub use kpg_relational as relational;
pub use kpg_server as server;
pub use kpg_timestamp as timestamp;
pub use kpg_trace as trace;
pub use kpg_wire as wire;

/// Convenience prelude: the types most programs need.
pub mod prelude {
    pub use kpg_core::prelude::*;
    pub use kpg_dataflow::{execute, Config, InputHandle, ProbeHandle, Worker};
    pub use kpg_timestamp::{Antichain, Lattice, PartialOrder, Time, Timestamp};
}
