//! Stream framing: 4-byte big-endian length prefix, then the payload.
//!
//! Frames are the unit of resynchronization. Because the length travels outside the
//! payload, a payload that fails to decode costs exactly one frame: the reader is
//! already positioned at the next length prefix, and an oversized frame is *skipped*
//! (its bytes read and discarded in bounded chunks, never buffered), so a hostile or
//! buggy peer cannot force an allocation larger than the configured limit or knock the
//! stream out of sync. The decoding itself lives in [`crate::assemble`].

use std::io::{self, Read, Write};

use crate::assemble::{append_frame, FrameAssembler};

/// One frame read from a stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Frame {
    /// A complete payload, at most the reader's limit.
    Payload(Vec<u8>),
    /// The peer announced a payload of this many bytes, above the reader's limit. The
    /// bytes were discarded; the stream is positioned at the next frame.
    TooLarge(u64),
}

/// Writes one frame (see [`append_frame`]) with a single `write_all`, so that a socket
/// with `TCP_NODELAY` set sends it as one segment and wakes its reader once, then flushes.
///
/// # Panics
///
/// If `payload` exceeds `u32::MAX` bytes (unrepresentable in the frame header).
pub fn write_frame(writer: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let mut frame = Vec::new();
    append_frame(&mut frame, payload);
    writer.write_all(&frame)?;
    writer.flush()
}

/// Reads one frame, buffering at most `limit` bytes: the blocking driver of
/// [`FrameAssembler`], reading the header and then exactly the body, never beyond.
///
/// Returns `Ok(None)` on a clean end of stream (EOF at a frame boundary); EOF inside a
/// frame is an [`io::ErrorKind::UnexpectedEof`] error. A frame announcing a payload
/// larger than `limit` is discarded in bounded chunks and reported as
/// [`Frame::TooLarge`], leaving the stream positioned at the next frame.
pub fn read_frame(reader: &mut impl Read, limit: usize) -> io::Result<Option<Frame>> {
    let mut assembler = FrameAssembler::new(limit);
    loop {
        match assembler.fill_from(reader) {
            Ok((_, Some(frame))) => return Ok(Some(frame)),
            Ok((0, None)) if assembler.is_idle() => return Ok(None),
            Ok((0, None)) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "stream ended inside a frame",
                ))
            }
            Ok(_) => {}
            Err(error) if error.kind() == io::ErrorKind::Interrupted => {}
            Err(error) => return Err(error),
        }
    }
}
