//! The network query server: the paper's interactive serving artifact.
//!
//! PR 4 built the engine — a per-worker [`Manager`](kpg_plan::Manager) executing a
//! data-described [`Command`](kpg_plan::Command) stream. This crate is the missing
//! half of §6.2's scenario: a socket boundary through which many concurrent clients
//! install, update, pose, and retire queries against one shared dataflow:
//!
//! * [`ServerCore`] — the network-free heart: one totally ordered command log (the
//!   sequencer, whose append order is the arbitration order for every name conflict),
//!   the worker pool executing it through per-worker `Manager`s, and the response
//!   aggregator that union-merges per-worker query shards and routes each client's
//!   responses back in request order. Ownership lives here too: a disconnecting client
//!   takes its own queries with it and nothing else.
//! * [`serve`] / [`Server`] — the TCP front end: framed [`kpg_wire`] messages,
//!   multiple concurrent clients, per-frame `WireError` replies with stream resync.
//! * [`Client`] — the connection handle: request/response helpers plus a
//!   [`send`](Client::send)/[`receive`](Client::receive) split for pipelining.
//! * [`DurabilityConfig`] — opt-in durability: every state-defining command is
//!   written to a segmented WAL (group-committed, fsynced per epoch), checkpointed in
//!   the background, and replayed deterministically on restart before the listener
//!   binds. See the [`durability`] module docs for the protocol.
//!
//! `examples/remote_session.rs` runs a §6.2 query class over a real socket;
//! `cargo run --release -p kpg_server --bin kpg_server` serves standalone (add
//! `--durable-dir DIR` to survive crashes).

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod aggregate;
pub mod client;
mod commit;
pub mod durability;
pub mod engine;
pub mod net;
pub mod route;
mod sequencer;
mod worker;

pub use client::{Client, ClientError};
pub use durability::DurabilityConfig;
pub use engine::{ClientId, HealthSnapshot, SequencedCommand, ServerCore};
pub use net::{serve, Server, ServerConfig};
pub use route::{ChannelRoute, QueueRoute, ResponseRoute};

/// The deepest a client should pipeline: the server stops reading a connection's
/// frames once this many of its commands are unanswered (backpressure), so a client
/// that keeps sending without receiving past this depth is gambling on kernel socket
/// buffers — far enough past it, both sides block and the connection deadlocks.
/// Interleave one [`Client::receive`] per [`Client::send`] after at most this many
/// outstanding commands.
pub const PIPELINE_DEPTH: usize = 1024;
