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
//! * [`core`](mod@core) — differential collections, the `arrange` operator and the
//!   batch-oriented operator shells (`join`, `reduce`, `distinct`, `count`, `iterate`)
//!   whose arrangements are shared through `TraceAgent` handles.
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
//! they alone were pinning. Here a query session is a stream of [`plan::Command`]s: a
//! [`plan::Manager`] per worker keeps one registry of maintained arrangements, keyed by
//! what they arrange, and every `Install` imports from it. [`plan::replay()`] runs a
//! recorded stream the way the server's workers run a live one:
//!
//! ```no_run
//! use shared_arrangements::plan::{replay, Command, Plan, ReduceKind, Response, Row};
//!
//! let edge = |src: u32, dst: u32| -> Row { vec![src.into(), dst.into()].into() };
//! let session = vec![
//!     // Ingest and arrange the data once, keyed by source node.
//!     Command::CreateInput { name: "edges".into(), key_arity: Some(1) },
//!     Command::Update { name: "edges".into(), row: edge(1, 2), diff: 1 },
//!     Command::Update { name: "edges".into(), row: edge(1, 3), diff: 1 },
//!     // Install a query described as data; it imports the shared base arrangement.
//!     Command::Install {
//!         name: "degrees".into(),
//!         plan: Plan::source("edges").reduce(1, ReduceKind::Count),
//!         locals: vec![],
//!     },
//!     Command::AdvanceTime { epoch: 1 },
//!     Command::Query { name: "degrees".into() },
//!     // Retire the query: its dataflow leaves the scheduler and its read frontiers
//!     // are released, so the shared arrangement can compact past them.
//!     Command::Uninstall { name: "degrees".into() },
//! ];
//! let replayed = replay(1, session);
//! let (answer, _elapsed) = &replayed.outcomes[5];
//! assert!(matches!(answer, Ok(Response::Rows(rows)) if rows.len() == 1));
//! ```
//!
//! The fastest way in is `examples/quickstart.rs` (the paper's Figure 1 reachability
//! dataflow, interactively updated) and `examples/plan_session.rs` (one command stream:
//! queries installed as data against a shared input, answered, and retired, with every
//! arrangement the registry still maintains listed at the end).

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
