//! Runtime query plans: install dataflows from *data*, not closures.
//!
//! Everything else in this workspace builds queries by running Rust closures against a
//! [`DataflowBuilder`](kpg_dataflow::DataflowBuilder) — which means every query class is
//! compiled into the binary. The paper's interactive evaluation (§6.2) instead treats
//! queries as things that *arrive at runtime* against shared arrangements. This crate is
//! that gateway:
//!
//! * [`Value`] / [`Row`] — the uniform dynamic row type every plan-rendered collection
//!   carries, so one render pass serves every query shape.
//! * [`Expr`] — a data-described scalar language for `Map` and `Filter` (columns,
//!   literals, arithmetic, comparisons, boolean connectives).
//! * [`Plan`] — the IR: `Source`, `Map`, `Filter`, `Join { keys }`,
//!   `Reduce { Count | Sum | Min | Top }`, `Distinct`, `Concat`, `Negate`, and
//!   `Iterate`/`Recur` for fixed points. Plans are plain, ordered values (`Ord`), which is
//!   what makes sub-plan sharing *recognisable*.
//! * [`render`] — the render pass compiling a validated plan into a dataflow that
//!   imports the manager's registry handles ([`Trace`]). Sub-trees reading only shared
//!   state are imported from memoized shared arrangements; plan-identical subtrees
//!   across queries import the *same* trace.
//! * [`Manager`] — the per-worker engine: named inputs, one registry of maintained
//!   arrangements (input bases and memoized sub-plans, by plan and key), and
//!   [`Command`] execution (`CreateInput`, `Update`, `AdvanceTime`, `Install`,
//!   `Uninstall`, `Query` — which settles first) — the loop `kpg_server`'s workers run
//!   over a live stream.
//! * [`replay()`] — the same loop over a *recorded* stream, on any number of workers:
//!   per command its outcome and wall time, plus the updates every arrangement holds.
//!   It is how the workload crates' tests, the bench bins and the examples run plans,
//!   and the oracle a server's answers are compared against.
//!
//! ```
//! use kpg_plan::{replay, Command, Plan, ReduceKind, Response, Row, Value};
//!
//! let edge = |src: u32, dst: u32| -> Row { Row::from(vec![src.into(), dst.into()]) };
//! let update = |row| Command::Update { name: "edges".into(), row, diff: 1 };
//! let replayed = replay(
//!     2,
//!     vec![
//!         Command::CreateInput { name: "edges".into(), key_arity: Some(1) },
//!         update(edge(1, 2)),
//!         update(edge(1, 3)),
//!         // Degree count per source node, described as data:
//!         Command::Install {
//!             name: "degrees".into(),
//!             plan: Plan::source("edges").reduce(1, ReduceKind::Count),
//!             locals: vec![],
//!         },
//!         Command::AdvanceTime { epoch: 1 },
//!         Command::Query { name: "degrees".into() },
//!     ],
//! );
//! let degrees = Row::from(vec![Value::UInt(1), Value::Int(2)]);
//! let (answer, _elapsed) = replayed.outcomes.last().unwrap();
//! assert_eq!(answer, &Ok(Response::Rows(vec![(degrees, 1)])));
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod expr;
pub mod manager;
pub mod plan;
pub mod render;
mod replay;
pub mod value;

pub use expr::{project, Expr};
pub use manager::{Command, Manager, PlanError, Response};
pub use plan::{ArrangeKey, KeySpec, Plan, PlanValidity, ReduceKind};
pub use render::{RowBatch, Trace};
pub use replay::{replay, Replay};
pub use value::{Row, Value};
