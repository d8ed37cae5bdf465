//! The network byte boundary: a binary codec for the runtime-plan protocol.
//!
//! [`Manager`](kpg_plan::Manager) executes a [`Command`](kpg_plan::Command) stream that
//! is plain data; this crate is what lets that stream cross a socket. It defines:
//!
//! * A **codec** ([`WireCodec`]) for every protocol value — `Value`, `Row`, `Expr`,
//!   `Plan`, `Command`, and the server's [`Response`] — as a version-prefixed byte
//!   string. Encoding is manual and dependency-free (no derives, no serde); the layout
//!   is documented per type in [`codec`].
//! * **Total decoders**: malformed bytes return a [`WireError`] — never a panic, and
//!   never an unbounded allocation. Every length and count is checked against the bytes
//!   actually present, recursive structures ([`Expr`](kpg_plan::Expr),
//!   [`Plan`](kpg_plan::Plan)) are depth-limited ([`MAX_DEPTH`]), and column indices are
//!   bounded ([`MAX_COLUMN`]) so a hostile message cannot make the *executor* allocate
//!   absurd key vectors either.
//! * **Framing** ([`frame`]): each message travels as a 4-byte big-endian length prefix
//!   followed by the payload. A reader enforces a configurable frame-size limit
//!   ([`DEFAULT_FRAME_LIMIT`]); oversized frames are *discarded without buffering*, so
//!   the stream stays in sync and the next frame still decodes.
//!
//! The frame layout, version byte, and error taxonomy are documented in the README's
//! "Network protocol" section.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod assemble;
pub mod codec;
pub mod frame;

pub use assemble::{append_frame, FrameAssembler};
pub use codec::{
    encode_update_body, Reader, Response, WireCodec, WireError, DEFAULT_FRAME_LIMIT, MAX_COLUMN,
    MAX_DEPTH, VERSION,
};
pub use frame::{read_frame, write_frame, Frame};
