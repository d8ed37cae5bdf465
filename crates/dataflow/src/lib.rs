//! A multi-worker dataflow runtime with epoch/round-synchronous progress tracking.
//!
//! This crate plays the role timely dataflow plays for the paper's system (§3.1): it owns
//! worker threads, the channels between them, operator scheduling, and progress tracking
//! (frontiers). The differential operators and shared arrangements of `kpg-core` are
//! built on top of it.
//!
//! The design differs from timely dataflow in one deliberate way (substitution S1 in
//! the README's "Substitutions and experiment index"): instead of an asynchronous
//! pointstamp protocol, progress advances at global synchronization points. A [`Worker::step`] runs every operator until the whole
//! computation is quiescent, then publishes operator capabilities and recomputes every
//! input frontier. Frontiers are genuine antichains of partially ordered [`Time`]s, so
//! operator logic — multiversioned arrangements, `reduce` future-work scheduling,
//! compaction — is identical to the paper's.
//!
//! ```
//! use kpg_dataflow::{execute, Config, InputHandle, ProbeHandle};
//!
//! // Two workers, each contributing half of the input.
//! let totals = execute(Config::new(2), |worker| {
//!     let (mut input, probe) = worker.dataflow(|builder| {
//!         let (input, node) = InputHandle::<u64, isize>::new(builder);
//!         let probe = ProbeHandle::new(builder, node);
//!         (input, probe)
//!     });
//!     for value in 0..5u64 {
//!         input.insert(value + 100 * worker.index() as u64);
//!     }
//!     input.advance_to(1);
//!     worker.step_while(|| probe.less_than(&input.time()));
//!     worker.index()
//! });
//! assert_eq!(totals, vec![0, 1]);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod fabric;
pub mod graph;
pub mod input;
pub mod operator;
pub mod probe;
pub mod progress;
pub mod worker;

pub use graph::{DataflowGraph, EdgeDesc, EdgeId, EdgeTransform, NodeId};
pub use input::InputHandle;
pub use operator::{downcast_payload, AnyBundle, BundleBox, Operator, OutputContext};
pub use probe::ProbeHandle;
pub use worker::{execute, Config, DataflowBuilder, Worker};

/// The timestamp type used throughout the runtime.
pub use kpg_timestamp::Time;
