//! Frame assembly: the one framing state machine, with two drivers.
//!
//! [`FrameAssembler`] turns a byte stream cut anywhere — mid-header, mid-payload, one
//! byte at a time — back into the frame sequence its writer produced. It owns the
//! header parse, the frame-limit test and the oversized-frame skip; what differs
//! between callers is only who brings the bytes:
//!
//! * A readiness-driven reader cannot block until a frame is complete, so it feeds
//!   every chunk the kernel delivers to [`FrameAssembler::ingest`] and pops completed
//!   frames with [`FrameAssembler::next_frame`].
//! * The blocking [`read_frame`](crate::read_frame) is a loop over
//!   `FrameAssembler::fill_from`, which reads from the stream at most what the current
//!   header, payload or skip still needs — a payload straight into its buffer — so it
//!   never consumes a byte of the following frame.
//!
//! The resynchronization properties hold under both:
//!
//! * An announced payload larger than the limit is *discarded as it streams in* —
//!   counted, never buffered — and surfaces as [`Frame::TooLarge`] once fully
//!   skipped, with the assembler already aligned on the next frame's header.
//! * A payload that later fails to decode costs exactly one frame: the length
//!   travels outside the payload, so the assembler is alignment-safe against any
//!   payload corruption.
//! * Memory held is bounded by one partial frame (at most the limit) plus whatever
//!   completed frames the consumer has not yet popped — which is in turn bounded by
//!   the chunk sizes the consumer chooses to ingest.

use std::collections::VecDeque;
use std::io::{self, Read};

use crate::frame::Frame;

/// Appends one frame to `out`: the payload's length as a big-endian `u32`, then the
/// payload — the layout [`FrameAssembler::ingest`] parses, written by every sender.
///
/// # Panics
///
/// If `payload` exceeds `u32::MAX` bytes (unrepresentable in the frame header).
pub fn append_frame(out: &mut Vec<u8>, payload: &[u8]) {
    let length = u32::try_from(payload.len()).expect("frame payload exceeds u32::MAX bytes");
    out.reserve(4 + payload.len());
    out.extend_from_slice(&length.to_be_bytes());
    out.extend_from_slice(payload);
}

/// Where the assembler is inside the byte stream.
enum State {
    /// Collecting the 4-byte big-endian length prefix.
    Header { got: [u8; 4], filled: usize },
    /// Collecting a payload of known, in-limit length.
    Body { payload: Vec<u8>, expect: usize },
    /// Discarding an oversized payload; `announced` is reported when it ends.
    Skip { announced: u64, remaining: u64 },
}

/// An incremental frame parser over arbitrarily chunked bytes. See the module docs.
pub struct FrameAssembler {
    limit: usize,
    state: State,
    ready: VecDeque<Frame>,
}

impl FrameAssembler {
    /// An assembler that buffers at most `limit` bytes per frame; larger frames are
    /// skipped unbuffered and reported as [`Frame::TooLarge`].
    pub fn new(limit: usize) -> FrameAssembler {
        FrameAssembler {
            limit,
            state: State::Header {
                got: [0; 4],
                filled: 0,
            },
            ready: VecDeque::new(),
        }
    }

    /// Consumes one received chunk, advancing the state machine. Completed frames
    /// queue up for [`FrameAssembler::next_frame`]; partial state waits for the
    /// next chunk.
    pub fn ingest(&mut self, mut chunk: &[u8]) {
        while !chunk.is_empty() {
            match &mut self.state {
                State::Header { got, filled } => {
                    let take = chunk.len().min(4 - *filled);
                    got[*filled..*filled + take].copy_from_slice(&chunk[..take]);
                    *filled += take;
                    chunk = &chunk[take..];
                    if *filled == 4 {
                        let length = u64::from(u32::from_be_bytes(*got));
                        self.state = if length > self.limit as u64 {
                            State::Skip {
                                announced: length,
                                remaining: length,
                            }
                        } else {
                            State::Body {
                                payload: Vec::with_capacity(length as usize),
                                expect: length as usize,
                            }
                        };
                        self.finish_if_complete();
                    }
                }
                State::Body { payload, expect } => {
                    let take = chunk.len().min(*expect - payload.len());
                    payload.extend_from_slice(&chunk[..take]);
                    chunk = &chunk[take..];
                    self.finish_if_complete();
                }
                State::Skip { remaining, .. } => {
                    let take = (chunk.len() as u64).min(*remaining);
                    *remaining -= take;
                    chunk = &chunk[take as usize..];
                    self.finish_if_complete();
                }
            }
        }
    }

    /// How many more bytes the current header, payload or skip needs — never zero, as
    /// a frame is emitted (and the next header begun) the moment its last byte arrives.
    fn needed(&self) -> u64 {
        match &self.state {
            State::Header { filled, .. } => (4 - filled) as u64,
            State::Body { payload, expect } => (expect - payload.len()) as u64,
            State::Skip { remaining, .. } => *remaining,
        }
    }

    /// The blocking driver's step: reads at most [`needed`](Self::needed) bytes, so
    /// nothing past the current frame is ever consumed, and returns how many it read
    /// (`0` is end of stream) with the frame they completed, if any. A payload goes
    /// straight into its buffer (as many `read`s as it takes, stopping early only at end
    /// of stream) and out again without passing through the queue; header and skipped
    /// bytes are ingested from a scratch sized for each.
    pub(crate) fn fill_from(
        &mut self,
        reader: &mut impl Read,
    ) -> io::Result<(usize, Option<Frame>)> {
        let need = self.needed();
        let read = match &mut self.state {
            State::Body { payload, .. } => {
                let read = reader.by_ref().take(need).read_to_end(payload)?;
                return Ok((read, self.take_complete()));
            }
            State::Header { .. } => self.ingest_from::<4>(reader, need)?,
            State::Skip { .. } => self.ingest_from::<8192>(reader, need)?,
        };
        Ok((read, self.ready.pop_front()))
    }

    fn ingest_from<const SCRATCH: usize>(
        &mut self,
        reader: &mut impl Read,
        need: u64,
    ) -> io::Result<usize> {
        let mut scratch = [0u8; SCRATCH];
        let read = reader.read(&mut scratch[..need.min(SCRATCH as u64) as usize])?;
        self.ingest(&scratch[..read]);
        Ok(read)
    }

    /// Queues the current frame if its final byte has arrived. (Also handles
    /// zero-length payloads and zero-length skips, which complete without consuming any
    /// body bytes.)
    fn finish_if_complete(&mut self) {
        if let Some(frame) = self.take_complete() {
            self.ready.push_back(frame);
        }
    }

    /// The current frame if its final byte has arrived, resetting to the header state.
    fn take_complete(&mut self) -> Option<Frame> {
        let done = match &self.state {
            State::Header { .. } => false,
            State::Body { payload, expect } => payload.len() == *expect,
            State::Skip { remaining, .. } => *remaining == 0,
        };
        if !done {
            return None;
        }
        let state = std::mem::replace(
            &mut self.state,
            State::Header {
                got: [0; 4],
                filled: 0,
            },
        );
        match state {
            State::Body { payload, .. } => Some(Frame::Payload(payload)),
            State::Skip { announced, .. } => Some(Frame::TooLarge(announced)),
            State::Header { .. } => unreachable!("checked above"),
        }
    }

    /// The next completed frame, in stream order.
    pub fn next_frame(&mut self) -> Option<Frame> {
        self.ready.pop_front()
    }

    /// How many completed frames are queued.
    pub fn pending_frames(&self) -> usize {
        self.ready.len()
    }

    /// Bytes currently held: the partial frame under assembly plus queued complete
    /// payloads. Skipped (oversized) bytes are never held and never counted.
    pub fn buffered_bytes(&self) -> usize {
        let partial = match &self.state {
            State::Header { filled, .. } => *filled,
            State::Body { payload, .. } => 4 + payload.len(),
            State::Skip { .. } => 4,
        };
        partial
            + self
                .ready
                .iter()
                .map(|frame| match frame {
                    Frame::Payload(payload) => 4 + payload.len(),
                    Frame::TooLarge(_) => 4,
                })
                .sum::<usize>()
    }

    /// Whether the assembler is at a frame boundary with nothing queued — the
    /// clean-EOF condition (a peer that closes mid-frame truncated its stream).
    pub fn is_idle(&self) -> bool {
        self.ready.is_empty() && matches!(&self.state, State::Header { filled: 0, .. })
    }
}

impl std::fmt::Debug for FrameAssembler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrameAssembler")
            .field("limit", &self.limit)
            .field("pending_frames", &self.ready.len())
            .finish_non_exhaustive()
    }
}
