//! Durable storage primitives for the query server and the trace's batch codec.
//!
//! The paper's interactive service keeps every arrangement in memory and forgets
//! everything on exit. This crate supplies the two on-disk building blocks that fix
//! that, in the memtable/SSTable/WAL discipline of classic LSM designs (the spine is
//! already an in-memory LSM):
//!
//! * [`wal`] — a segmented **write-ahead log** of opaque records framed with a length
//!   prefix and a CRC32, appended via a `SchemaBatch`-style last-writes [`WalBatch`]
//!   and recovered with a *torn-tail-tolerant* total decoder that truncates at the
//!   first corrupt record. The server appends its wire-encoded command log here.
//! * [`run`] — immutable **run files**: CRC-framed blocks of entries in the caller's
//!   order, whose boundaries align with key boundaries. A checkpoint is a run of
//!   wire-encoded commands — the log's prefix, compacted — committed by
//!   [`RunWriter::commit`] (temporary name, fsync, rename, directory fsync: the rename
//!   is the commit point); the trace's batch codec writes a batch as a sorted run.
//!
//! The crate is dependency-free and byte-oriented: callers bring their own encodings
//! (the server uses the wire codec, the trace uses `StoreData`), this crate owns
//! framing, checksums, segmentation, and atomic commit.
//!
//! Two cross-cutting modules harden both against a disk that fails rather than
//! merely crashes: every file operation routes through the [`io`] seam (a zero-cost
//! passthrough normally; a deterministic, plan-driven fault injector under
//! `--features faults`), and failures are classified and retried through
//! [`error`]'s [`FaultClass`]/[`RetryPolicy`] vocabulary instead of panicking.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod bytes;
pub mod crc;
pub mod error;
pub mod io;
pub mod run;
pub mod wal;

pub use crc::crc32;
pub use error::{classify, FaultClass, RetryPolicy, StoreError};
pub use io::OpKind;
pub use run::{RunMeta, RunReader, RunWriter};
pub use wal::{Wal, WalBatch};
