//! The value codec: version-prefixed, tag-discriminated, length-checked.
//!
//! ## Layout
//!
//! Every top-level encoding starts with one [`VERSION`] byte, followed by the value's
//! body. Bodies are built from five primitives: `u8`, `u32` little-endian (lengths and
//! counts), `u64` / `i64` little-endian (payload integers), and UTF-8 strings as a
//! `u32` byte length followed by the bytes. Enums write a one-byte variant tag followed
//! by the variant's fields in declaration order; sequences write a `u32` element count
//! followed by the elements.
//!
//! | type | body |
//! | --- | --- |
//! | `Value` | tag (`0` Int, `1` UInt, `2` String) + payload |
//! | `Row` | `u32` arity + values |
//! | `Expr` | tag (`0` Column .. `13` Not) + operands |
//! | `ReduceKind` | tag (`0` Count, `1` Sum, `2` Min, `3` Top) + column |
//! | `Plan` | tag (`0` Source .. `9` Iterate) + fields |
//! | `Command` | tag (`0` CreateInput .. `5` Query) + fields |
//! | [`Response`] | tag (`0` Ok, `1` PlanError, `2` QueryResults, `3` WireError) + fields |
//!
//! ## Totality
//!
//! Decoders never panic and never allocate beyond what the received bytes justify:
//! every read is bounds-checked, every sequence count is checked against the remaining
//! bytes (each element consumes at least one), recursion depth is capped at
//! [`MAX_DEPTH`], and column indices / key arities are capped at [`MAX_COLUMN`] so a
//! hostile `CreateInput { key_arity: 2^60 }` is rejected here instead of exhausting
//! memory in the executor. Anything out of contract returns a [`WireError`].
//!
//! Encoders are infallible for protocol-sized data and panic (debug contract) only on
//! locally constructed values that cannot be represented at all — a collection longer
//! than `u32::MAX` elements.

use std::fmt;

use kpg_plan::{Command, Expr, Plan, ReduceKind, Row, Value};

/// The wire protocol version this build speaks. The first byte of every encoded
/// message; decoders reject anything else.
pub const VERSION: u8 = 1;

/// The maximum nesting depth a decoder accepts for recursive structures (`Expr`,
/// `Plan`). Deeper messages return [`WireError::Depth`] instead of risking the stack.
pub const MAX_DEPTH: usize = 64;

/// The maximum column index / key arity a decoder accepts. Column numbers beyond this
/// are nonsensical for real plans and would make the executor allocate huge key
/// vectors, so the byte boundary rejects them.
pub const MAX_COLUMN: u64 = 1 << 16;

/// The default frame-size limit (1 MiB): the largest payload [`crate::read_frame`]
/// will buffer unless configured otherwise.
pub const DEFAULT_FRAME_LIMIT: usize = 1 << 20;

/// Why a decode was rejected. Every variant is a *protocol* failure: the bytes did not
/// describe a value, or described one outside the decoder's resource contract. The
/// manager never sees the message; the connection stays usable (framing is
/// length-prefixed, so the next frame still decodes).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The message ended before the value did.
    Truncated {
        /// Bytes the next read needed.
        needed: usize,
        /// Bytes actually remaining.
        remaining: usize,
    },
    /// The value ended before the message did.
    Trailing {
        /// Bytes the value consumed.
        consumed: usize,
        /// Total message length.
        length: usize,
    },
    /// The version byte was not [`VERSION`].
    Version {
        /// The version byte received.
        found: u8,
    },
    /// An enum tag was not a known variant.
    Tag {
        /// The type being decoded.
        what: &'static str,
        /// The unknown tag.
        tag: u8,
    },
    /// A string's bytes were not valid UTF-8.
    Utf8,
    /// A count or index exceeded the decoder's resource contract ([`MAX_COLUMN`], or a
    /// sequence count larger than the bytes that could possibly back it).
    Limit {
        /// What was being decoded.
        what: &'static str,
        /// The value received.
        value: u64,
        /// The largest acceptable value.
        limit: u64,
    },
    /// A recursive structure nested deeper than [`MAX_DEPTH`].
    Depth {
        /// The depth limit.
        limit: usize,
    },
    /// A frame announced a payload larger than the reader's limit (reported by the
    /// framing layer; the payload was discarded, not buffered).
    FrameTooLarge {
        /// The announced payload length.
        length: u64,
        /// The reader's limit.
        limit: u64,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { needed, remaining } => {
                write!(
                    f,
                    "truncated message: needed {needed} bytes, {remaining} remain"
                )
            }
            WireError::Trailing { consumed, length } => write!(
                f,
                "trailing garbage: value ended at byte {consumed} of a {length}-byte message"
            ),
            WireError::Version { found } => {
                write!(
                    f,
                    "unsupported protocol version {found} (this build speaks {VERSION})"
                )
            }
            WireError::Tag { what, tag } => write!(f, "unknown {what} tag {tag}"),
            WireError::Utf8 => write!(f, "string bytes are not valid UTF-8"),
            WireError::Limit { what, value, limit } => {
                write!(f, "{what} {value} exceeds the protocol limit {limit}")
            }
            WireError::Depth { limit } => {
                write!(f, "message nests deeper than the protocol limit {limit}")
            }
            WireError::FrameTooLarge { length, limit } => {
                write!(f, "frame of {length} bytes exceeds the frame limit {limit}")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// A bounds-checked cursor over a received message's bytes.
///
/// All decoding goes through this type: every primitive read verifies the bytes are
/// present, and recursive decoders track nesting depth through it. A `Reader` never
/// panics on any input.
pub struct Reader<'a> {
    bytes: &'a [u8],
    position: usize,
    depth: usize,
}

impl<'a> Reader<'a> {
    /// A reader over `bytes`, positioned at the start.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader {
            bytes,
            position: 0,
            depth: 0,
        }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.position
    }

    fn need(&self, needed: usize) -> Result<(), WireError> {
        if needed > self.remaining() {
            Err(WireError::Truncated {
                needed,
                remaining: self.remaining(),
            })
        } else {
            Ok(())
        }
    }

    /// The next byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        self.need(1)?;
        let byte = self.bytes[self.position];
        self.position += 1;
        Ok(byte)
    }

    /// The next 4 bytes as a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        self.need(4)?;
        let mut raw = [0u8; 4];
        raw.copy_from_slice(&self.bytes[self.position..self.position + 4]);
        self.position += 4;
        Ok(u32::from_le_bytes(raw))
    }

    /// The next 8 bytes as a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        self.need(8)?;
        let mut raw = [0u8; 8];
        raw.copy_from_slice(&self.bytes[self.position..self.position + 8]);
        self.position += 8;
        Ok(u64::from_le_bytes(raw))
    }

    /// The next 8 bytes as a little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64, WireError> {
        Ok(self.u64()? as i64)
    }

    /// A length-prefixed UTF-8 string (`u32` byte length + bytes).
    pub fn string(&mut self) -> Result<String, WireError> {
        let length = self.u32()? as usize;
        self.need(length)?;
        let raw = &self.bytes[self.position..self.position + length];
        let text = std::str::from_utf8(raw).map_err(|_| WireError::Utf8)?;
        self.position += length;
        Ok(text.to_string())
    }

    /// A sequence count (`u32`), checked against the remaining bytes: every element
    /// consumes at least one byte, so a count beyond `remaining` cannot be honest and
    /// is rejected *before* any allocation.
    pub fn count(&mut self, what: &'static str) -> Result<usize, WireError> {
        let count = self.u32()? as u64;
        let remaining = self.remaining() as u64;
        if count > remaining {
            return Err(WireError::Limit {
                what,
                value: count,
                limit: remaining,
            });
        }
        Ok(count as usize)
    }

    /// A column index / key arity (`u64`), capped at [`MAX_COLUMN`].
    pub fn column(&mut self, what: &'static str) -> Result<usize, WireError> {
        let value = self.u64()?;
        if value > MAX_COLUMN {
            return Err(WireError::Limit {
                what,
                value,
                limit: MAX_COLUMN,
            });
        }
        Ok(value as usize)
    }

    /// Enters one level of recursive structure; fails at [`MAX_DEPTH`].
    pub fn descend(&mut self) -> Result<(), WireError> {
        if self.depth == MAX_DEPTH {
            return Err(WireError::Depth { limit: MAX_DEPTH });
        }
        self.depth += 1;
        Ok(())
    }

    /// Leaves one level of recursive structure.
    pub fn ascend(&mut self) {
        self.depth -= 1;
    }

    /// Requires the message to be fully consumed.
    pub fn finish(self) -> Result<(), WireError> {
        if self.position == self.bytes.len() {
            Ok(())
        } else {
            Err(WireError::Trailing {
                consumed: self.position,
                length: self.bytes.len(),
            })
        }
    }
}

fn put_u32(out: &mut Vec<u8>, value: u32) {
    out.extend_from_slice(&value.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, value: u64) {
    out.extend_from_slice(&value.to_le_bytes());
}

fn put_i64(out: &mut Vec<u8>, value: i64) {
    out.extend_from_slice(&value.to_le_bytes());
}

fn put_string(out: &mut Vec<u8>, value: &str) {
    put_count(out, value.len(), "string");
    out.extend_from_slice(value.as_bytes());
}

fn put_count(out: &mut Vec<u8>, count: usize, what: &str) {
    let count = u32::try_from(count).unwrap_or_else(|_| panic!("{what} too long for the wire"));
    put_u32(out, count);
}

/// A protocol value: encodable to and decodable from the version-prefixed byte layout.
///
/// `encode_body` / `decode_body` handle the value itself; [`WireCodec::encode`] and
/// [`WireCodec::decode`] add (and check) the leading [`VERSION`] byte and require full
/// consumption — they are what frames carry.
pub trait WireCodec: Sized {
    /// Appends the value's body (no version byte) to `out`.
    fn encode_body(&self, out: &mut Vec<u8>);

    /// Decodes the value's body from `reader`.
    fn decode_body(reader: &mut Reader<'_>) -> Result<Self, WireError>;

    /// The full message: version byte + body.
    fn encode(&self) -> Vec<u8> {
        let mut out = vec![VERSION];
        self.encode_body(&mut out);
        out
    }

    /// Decodes a full message: checks the version byte, decodes the body, and requires
    /// every byte to be consumed. Total: any input returns `Ok` or a [`WireError`].
    fn decode(bytes: &[u8]) -> Result<Self, WireError> {
        let mut reader = Reader::new(bytes);
        let version = reader.u8()?;
        if version != VERSION {
            return Err(WireError::Version { found: version });
        }
        let value = Self::decode_body(&mut reader)?;
        reader.finish()?;
        Ok(value)
    }
}

impl WireCodec for Value {
    fn encode_body(&self, out: &mut Vec<u8>) {
        match self {
            Value::Int(value) => {
                out.push(0);
                put_i64(out, *value);
            }
            Value::UInt(value) => {
                out.push(1);
                put_u64(out, *value);
            }
            Value::String(value) => {
                out.push(2);
                put_string(out, value);
            }
        }
    }

    fn decode_body(reader: &mut Reader<'_>) -> Result<Self, WireError> {
        match reader.u8()? {
            0 => Ok(Value::Int(reader.i64()?)),
            1 => Ok(Value::UInt(reader.u64()?)),
            2 => Ok(Value::String(reader.string()?)),
            tag => Err(WireError::Tag { what: "Value", tag }),
        }
    }
}

impl WireCodec for Row {
    fn encode_body(&self, out: &mut Vec<u8>) {
        put_count(out, self.len(), "row");
        for value in self.iter() {
            value.encode_body(out);
        }
    }

    fn decode_body(reader: &mut Reader<'_>) -> Result<Self, WireError> {
        let arity = reader.count("row arity")?;
        let mut values = Vec::new();
        for _ in 0..arity {
            values.push(Value::decode_body(reader)?);
        }
        Ok(Row::from(values))
    }
}

/// Encodes a binary expression node: tag, then both operands.
fn put_expr_pair(out: &mut Vec<u8>, tag: u8, lhs: &Expr, rhs: &Expr) {
    out.push(tag);
    lhs.encode_body(out);
    rhs.encode_body(out);
}

impl WireCodec for Expr {
    fn encode_body(&self, out: &mut Vec<u8>) {
        match self {
            Expr::Column(index) => {
                out.push(0);
                put_u64(out, *index as u64);
            }
            Expr::Literal(value) => {
                out.push(1);
                value.encode_body(out);
            }
            Expr::Add(lhs, rhs) => put_expr_pair(out, 2, lhs, rhs),
            Expr::Sub(lhs, rhs) => put_expr_pair(out, 3, lhs, rhs),
            Expr::Mul(lhs, rhs) => put_expr_pair(out, 4, lhs, rhs),
            Expr::Eq(lhs, rhs) => put_expr_pair(out, 5, lhs, rhs),
            Expr::Ne(lhs, rhs) => put_expr_pair(out, 6, lhs, rhs),
            Expr::Lt(lhs, rhs) => put_expr_pair(out, 7, lhs, rhs),
            Expr::Le(lhs, rhs) => put_expr_pair(out, 8, lhs, rhs),
            Expr::Gt(lhs, rhs) => put_expr_pair(out, 9, lhs, rhs),
            Expr::Ge(lhs, rhs) => put_expr_pair(out, 10, lhs, rhs),
            Expr::And(lhs, rhs) => put_expr_pair(out, 11, lhs, rhs),
            Expr::Or(lhs, rhs) => put_expr_pair(out, 12, lhs, rhs),
            Expr::Not(inner) => {
                out.push(13);
                inner.encode_body(out);
            }
        }
    }

    fn decode_body(reader: &mut Reader<'_>) -> Result<Self, WireError> {
        reader.descend()?;
        let expr = decode_expr_unguarded(reader);
        reader.ascend();
        expr
    }
}

fn decode_expr_unguarded(reader: &mut Reader<'_>) -> Result<Expr, WireError> {
    {
        let tag = reader.u8()?;
        let pair = |reader: &mut Reader<'_>| -> Result<(Box<Expr>, Box<Expr>), WireError> {
            let lhs = Box::new(Expr::decode_body(reader)?);
            let rhs = Box::new(Expr::decode_body(reader)?);
            Ok((lhs, rhs))
        };
        match tag {
            0 => Ok(Expr::Column(reader.column("expression column")?)),
            1 => Ok(Expr::Literal(Value::decode_body(reader)?)),
            2 => pair(reader).map(|(l, r)| Expr::Add(l, r)),
            3 => pair(reader).map(|(l, r)| Expr::Sub(l, r)),
            4 => pair(reader).map(|(l, r)| Expr::Mul(l, r)),
            5 => pair(reader).map(|(l, r)| Expr::Eq(l, r)),
            6 => pair(reader).map(|(l, r)| Expr::Ne(l, r)),
            7 => pair(reader).map(|(l, r)| Expr::Lt(l, r)),
            8 => pair(reader).map(|(l, r)| Expr::Le(l, r)),
            9 => pair(reader).map(|(l, r)| Expr::Gt(l, r)),
            10 => pair(reader).map(|(l, r)| Expr::Ge(l, r)),
            11 => pair(reader).map(|(l, r)| Expr::And(l, r)),
            12 => pair(reader).map(|(l, r)| Expr::Or(l, r)),
            13 => Ok(Expr::Not(Box::new(Expr::decode_body(reader)?))),
            tag => Err(WireError::Tag { what: "Expr", tag }),
        }
    }
}

impl WireCodec for ReduceKind {
    fn encode_body(&self, out: &mut Vec<u8>) {
        match self {
            ReduceKind::Count => out.push(0),
            ReduceKind::Sum(column) => {
                out.push(1);
                put_u64(out, *column as u64);
            }
            ReduceKind::Min(column) => {
                out.push(2);
                put_u64(out, *column as u64);
            }
            ReduceKind::Top(column) => {
                out.push(3);
                put_u64(out, *column as u64);
            }
        }
    }

    fn decode_body(reader: &mut Reader<'_>) -> Result<Self, WireError> {
        match reader.u8()? {
            0 => Ok(ReduceKind::Count),
            1 => Ok(ReduceKind::Sum(reader.column("aggregate column")?)),
            2 => Ok(ReduceKind::Min(reader.column("aggregate column")?)),
            3 => Ok(ReduceKind::Top(reader.column("aggregate column")?)),
            tag => Err(WireError::Tag {
                what: "ReduceKind",
                tag,
            }),
        }
    }
}

impl WireCodec for Plan {
    fn encode_body(&self, out: &mut Vec<u8>) {
        match self {
            Plan::Source(name) => {
                out.push(0);
                put_string(out, name);
            }
            Plan::Recur => out.push(1),
            Plan::Map { input, exprs } => {
                out.push(2);
                input.encode_body(out);
                put_count(out, exprs.len(), "projection list");
                for expr in exprs {
                    expr.encode_body(out);
                }
            }
            Plan::Filter { input, predicate } => {
                out.push(3);
                input.encode_body(out);
                predicate.encode_body(out);
            }
            Plan::Join { left, right, keys } => {
                out.push(4);
                left.encode_body(out);
                right.encode_body(out);
                put_count(out, keys.len(), "join key list");
                for &(left_column, right_column) in keys {
                    put_u64(out, left_column as u64);
                    put_u64(out, right_column as u64);
                }
            }
            Plan::Reduce {
                input,
                key_arity,
                kind,
            } => {
                out.push(5);
                input.encode_body(out);
                put_u64(out, *key_arity as u64);
                kind.encode_body(out);
            }
            Plan::Distinct(input) => {
                out.push(6);
                input.encode_body(out);
            }
            Plan::Concat(plans) => {
                out.push(7);
                put_count(out, plans.len(), "concat list");
                for plan in plans {
                    plan.encode_body(out);
                }
            }
            Plan::Negate(input) => {
                out.push(8);
                input.encode_body(out);
            }
            Plan::Iterate { seed, body } => {
                out.push(9);
                seed.encode_body(out);
                body.encode_body(out);
            }
        }
    }

    fn decode_body(reader: &mut Reader<'_>) -> Result<Self, WireError> {
        reader.descend()?;
        let plan = decode_plan_unguarded(reader);
        reader.ascend();
        plan
    }
}

fn decode_plan_unguarded(reader: &mut Reader<'_>) -> Result<Plan, WireError> {
    {
        match reader.u8()? {
            0 => Ok(Plan::Source(reader.string()?)),
            1 => Ok(Plan::Recur),
            2 => {
                let input = Box::new(Plan::decode_body(reader)?);
                let count = reader.count("projection list")?;
                let mut exprs = Vec::new();
                for _ in 0..count {
                    exprs.push(Expr::decode_body(reader)?);
                }
                Ok(Plan::Map { input, exprs })
            }
            3 => Ok(Plan::Filter {
                input: Box::new(Plan::decode_body(reader)?),
                predicate: Expr::decode_body(reader)?,
            }),
            4 => {
                let left = Box::new(Plan::decode_body(reader)?);
                let right = Box::new(Plan::decode_body(reader)?);
                let count = reader.count("join key list")?;
                let mut keys = Vec::new();
                for _ in 0..count {
                    let left_column = reader.column("join key column")?;
                    let right_column = reader.column("join key column")?;
                    keys.push((left_column, right_column));
                }
                Ok(Plan::Join { left, right, keys })
            }
            5 => Ok(Plan::Reduce {
                input: Box::new(Plan::decode_body(reader)?),
                key_arity: reader.column("reduce key arity")?,
                kind: ReduceKind::decode_body(reader)?,
            }),
            6 => Ok(Plan::Distinct(Box::new(Plan::decode_body(reader)?))),
            7 => {
                let count = reader.count("concat list")?;
                let mut plans = Vec::new();
                for _ in 0..count {
                    plans.push(Plan::decode_body(reader)?);
                }
                Ok(Plan::Concat(plans))
            }
            8 => Ok(Plan::Negate(Box::new(Plan::decode_body(reader)?))),
            9 => Ok(Plan::Iterate {
                seed: Box::new(Plan::decode_body(reader)?),
                body: Box::new(Plan::decode_body(reader)?),
            }),
            tag => Err(WireError::Tag { what: "Plan", tag }),
        }
    }
}

/// Appends the body of a [`Command::Update`] — tag, input name, row, diff — to `out`
/// from borrowed parts: the one place that layout is written. A caller that streams
/// updates it holds by reference (the server's checkpoint writer) pushes [`VERSION`]
/// and calls this, and gets `Command::Update { .. }.encode()` without building one.
#[inline]
pub fn encode_update_body(out: &mut Vec<u8>, name: &str, row: &Row, diff: isize) {
    out.push(1);
    put_string(out, name);
    row.encode_body(out);
    put_i64(out, diff as i64);
}

impl WireCodec for Command {
    fn encode_body(&self, out: &mut Vec<u8>) {
        match self {
            Command::CreateInput { name, key_arity } => {
                out.push(0);
                put_string(out, name);
                match key_arity {
                    None => out.push(0),
                    Some(arity) => {
                        out.push(1);
                        put_u64(out, *arity as u64);
                    }
                }
            }
            Command::Update { name, row, diff } => encode_update_body(out, name, row, *diff),
            Command::AdvanceTime { epoch } => {
                out.push(2);
                put_u64(out, *epoch);
            }
            Command::Install { name, plan, locals } => {
                out.push(3);
                put_string(out, name);
                plan.encode_body(out);
                put_count(out, locals.len(), "locals list");
                for local in locals {
                    put_string(out, local);
                }
            }
            Command::Uninstall { name } => {
                out.push(4);
                put_string(out, name);
            }
            Command::Query { name } => {
                out.push(5);
                put_string(out, name);
            }
        }
    }

    fn decode_body(reader: &mut Reader<'_>) -> Result<Self, WireError> {
        match reader.u8()? {
            0 => {
                let name = reader.string()?;
                let key_arity = match reader.u8()? {
                    0 => None,
                    1 => Some(reader.column("input key arity")?),
                    tag => {
                        return Err(WireError::Tag {
                            what: "Option<key_arity>",
                            tag,
                        })
                    }
                };
                Ok(Command::CreateInput { name, key_arity })
            }
            1 => Ok(Command::Update {
                name: reader.string()?,
                row: Row::decode_body(reader)?,
                diff: reader.i64()? as isize,
            }),
            2 => Ok(Command::AdvanceTime {
                epoch: reader.u64()?,
            }),
            3 => {
                let name = reader.string()?;
                let plan = Plan::decode_body(reader)?;
                let count = reader.count("locals list")?;
                let mut locals = Vec::new();
                for _ in 0..count {
                    locals.push(reader.string()?);
                }
                Ok(Command::Install { name, plan, locals })
            }
            4 => Ok(Command::Uninstall {
                name: reader.string()?,
            }),
            5 => Ok(Command::Query {
                name: reader.string()?,
            }),
            tag => Err(WireError::Tag {
                what: "Command",
                tag,
            }),
        }
    }
}

/// What the server sends back, one per received frame, in the order the frames
/// arrived.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Response {
    /// The command executed successfully and produced no rows (`CreateInput`,
    /// `Update`, `AdvanceTime`, `Install`, `Uninstall`).
    Ok,
    /// The command was well-formed but the engine rejected it; the manager's state is
    /// unchanged.
    PlanError {
        /// The stable error class (see `kpg_plan::PlanError::code`).
        code: String,
        /// The human-readable description.
        message: String,
    },
    /// A `Query`'s settled, consolidated answer: `rows[i]` occurs with multiplicity
    /// `diffs[i]`, sorted by row, zero multiplicities omitted.
    QueryResults {
        /// The distinct rows.
        rows: Vec<Row>,
        /// The multiplicities, parallel to `rows`.
        diffs: Vec<i64>,
    },
    /// The received frame never reached the engine: it was oversized or its payload
    /// failed to decode. The stream stays usable (subsequent frames are processed).
    WireError {
        /// The decode failure, rendered.
        message: String,
    },
}

impl WireCodec for Response {
    fn encode_body(&self, out: &mut Vec<u8>) {
        match self {
            Response::Ok => out.push(0),
            Response::PlanError { code, message } => {
                out.push(1);
                put_string(out, code);
                put_string(out, message);
            }
            Response::QueryResults { rows, diffs } => {
                out.push(2);
                debug_assert_eq!(rows.len(), diffs.len(), "rows and diffs are parallel");
                put_count(out, rows.len(), "result set");
                for (row, diff) in rows.iter().zip(diffs) {
                    row.encode_body(out);
                    put_i64(out, *diff);
                }
            }
            Response::WireError { message } => {
                out.push(3);
                put_string(out, message);
            }
        }
    }

    fn decode_body(reader: &mut Reader<'_>) -> Result<Self, WireError> {
        match reader.u8()? {
            0 => Ok(Response::Ok),
            1 => Ok(Response::PlanError {
                code: reader.string()?,
                message: reader.string()?,
            }),
            2 => {
                let count = reader.count("result set")?;
                let mut rows = Vec::new();
                let mut diffs = Vec::new();
                for _ in 0..count {
                    rows.push(Row::decode_body(reader)?);
                    diffs.push(reader.i64()?);
                }
                Ok(Response::QueryResults { rows, diffs })
            }
            3 => Ok(Response::WireError {
                message: reader.string()?,
            }),
            tag => Err(WireError::Tag {
                what: "Response",
                tag,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn version_byte_is_checked() {
        let mut bytes = Command::AdvanceTime { epoch: 7 }.encode();
        assert_eq!(bytes[0], VERSION);
        bytes[0] = 9;
        assert_eq!(
            Command::decode(&bytes),
            Err(WireError::Version { found: 9 })
        );
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = Command::Query {
            name: "q".to_string(),
        }
        .encode();
        let clean = Command::decode(&bytes);
        assert!(clean.is_ok());
        bytes.push(0);
        assert!(matches!(
            Command::decode(&bytes),
            Err(WireError::Trailing { .. })
        ));
    }

    #[test]
    fn column_limits_are_enforced() {
        let oversized = Command::CreateInput {
            name: "wide".to_string(),
            key_arity: Some((MAX_COLUMN + 1) as usize),
        };
        assert!(matches!(
            Command::decode(&oversized.encode()),
            Err(WireError::Limit { .. })
        ));
    }

    #[test]
    fn hostile_counts_fail_before_allocating() {
        // Install with a locals count of u32::MAX but almost no bytes behind it.
        let mut bytes = vec![VERSION, 3];
        put_string(&mut bytes, "q");
        Plan::Recur.encode_body(&mut bytes);
        put_u32(&mut bytes, u32::MAX);
        assert!(matches!(
            Command::decode(&bytes),
            Err(WireError::Limit { .. })
        ));
    }
}
