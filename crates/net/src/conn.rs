//! The nonblocking connection state machine: incremental frame assembly on the way
//! in, a coalescing write queue with partial-write tracking on the way out.
//!
//! [`FrameStream`] wraps any nonblocking byte stream (a `TcpStream` in the server;
//! an in-memory fake in tests). It never blocks: reads drain whatever the kernel
//! has and stop at `WouldBlock`; writes push as much of the queued output as the
//! socket accepts and remember the rest. The caller drives it from readiness
//! events and uses the returned facts — frames completed, backlog remaining — to
//! manage poller interest.

use std::collections::VecDeque;
use std::io::{self, Read, Write};

use kpg_wire::{append_frame, Frame, FrameAssembler};

/// What one [`FrameStream::fill`] pass learned about the stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FillOutcome {
    /// The kernel buffer was drained; more bytes may arrive later.
    Drained,
    /// The peer closed (EOF) or the stream errored; no more bytes will arrive.
    Closed,
}

/// Progress made by one [`FrameStream::flush`] pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FlushProgress {
    /// Queued frames whose final byte reached the socket during this pass.
    pub frames_completed: usize,
    /// Bytes still queued after the pass; nonzero means the socket blocked and the
    /// caller should arm write interest.
    pub backlog: usize,
}

/// A framed, nonblocking duplex stream. See the module docs.
pub struct FrameStream<S> {
    stream: S,
    assembler: FrameAssembler,
    /// Outgoing bytes: a contiguous buffer consumed from `out_pos`, compacted when
    /// fully drained so steady-state flushes never memmove.
    out: Vec<u8>,
    out_pos: usize,
    /// Byte length of each queued frame still (partially) unwritten, front first —
    /// how `flush` counts completed responses for backpressure accounting.
    out_frames: VecDeque<usize>,
    /// Bytes of the front queued frame already written in earlier passes.
    front_written: usize,
}

impl<S: Read + Write> FrameStream<S> {
    /// Wraps `stream` (which must already be in nonblocking mode) with a per-frame
    /// buffer limit of `limit` bytes.
    pub fn new(stream: S, limit: usize) -> FrameStream<S> {
        FrameStream {
            stream,
            assembler: FrameAssembler::new(limit),
            out: Vec::new(),
            out_pos: 0,
            out_frames: VecDeque::new(),
            front_written: 0,
        }
    }

    /// The wrapped stream (for poller registration and socket options).
    pub fn stream(&self) -> &S {
        &self.stream
    }

    /// Reads until the kernel has nothing more (`WouldBlock`), feeding every chunk
    /// to the frame assembler. Call on read readiness; completed frames then pop
    /// from [`FrameStream::next_frame`].
    pub fn fill(&mut self, scratch: &mut [u8]) -> FillOutcome {
        loop {
            match self.stream.read(scratch) {
                Ok(0) => return FillOutcome::Closed,
                Ok(read) => self.assembler.ingest(&scratch[..read]),
                Err(error) if error.kind() == io::ErrorKind::WouldBlock => {
                    return FillOutcome::Drained
                }
                Err(error) if error.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return FillOutcome::Closed,
            }
        }
    }

    /// The next fully assembled incoming frame, in stream order.
    pub fn next_frame(&mut self) -> Option<Frame> {
        self.assembler.next_frame()
    }

    /// Whether assembled-but-unpopped frames remain (bytes already read off the
    /// socket — no readiness event will re-announce them, so a caller that stopped
    /// popping for backpressure must come back for these on its own).
    pub fn has_pending_frames(&self) -> bool {
        self.assembler.pending_frames() > 0
    }

    /// Whether the peer can still be owed nothing: the assembler sits at a frame
    /// boundary with nothing buffered. False at EOF means the peer truncated a
    /// frame mid-stream.
    pub fn is_clean(&self) -> bool {
        self.assembler.is_idle()
    }

    /// Queues one outgoing frame. Nothing is written until [`FrameStream::flush`] —
    /// callers coalesce several responses per flush.
    ///
    /// # Panics
    ///
    /// If `payload` exceeds `u32::MAX` bytes (unrepresentable in the header).
    pub fn queue_frame(&mut self, payload: &[u8]) {
        let before = self.out.len();
        append_frame(&mut self.out, payload);
        self.out_frames.push_back(self.out.len() - before);
    }

    /// Bytes queued and not yet accepted by the socket.
    pub fn backlog(&self) -> usize {
        self.out.len() - self.out_pos
    }

    /// Writes as much queued output as the socket accepts. Returns the frames
    /// completed and the remaining backlog; `Err` means the connection is dead.
    pub fn flush(&mut self) -> io::Result<FlushProgress> {
        let mut progress = FlushProgress::default();
        while self.out_pos < self.out.len() {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "socket accepted zero bytes",
                    ))
                }
                Ok(written) => {
                    self.out_pos += written;
                    // Attribute the written bytes to queued frames, counting each
                    // frame whose final byte just left.
                    let mut credited = written + self.front_written;
                    self.front_written = 0;
                    while let Some(&front) = self.out_frames.front() {
                        if credited >= front {
                            credited -= front;
                            self.out_frames.pop_front();
                            progress.frames_completed += 1;
                        } else {
                            self.front_written = credited;
                            break;
                        }
                    }
                }
                Err(error) if error.kind() == io::ErrorKind::WouldBlock => break,
                Err(error) if error.kind() == io::ErrorKind::Interrupted => {}
                Err(error) => return Err(error),
            }
        }
        if self.out_pos == self.out.len() {
            self.out.clear();
            self.out_pos = 0;
        }
        progress.backlog = self.backlog();
        Ok(progress)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kpg_wire::write_frame;

    /// An in-memory nonblocking stream: reads deliver scripted chunks (then
    /// WouldBlock), writes accept a capped number of bytes per call.
    struct FakeStream {
        incoming: VecDeque<Vec<u8>>,
        written: Vec<u8>,
        write_cap: usize,
        eof_after_script: bool,
    }

    impl Read for FakeStream {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            match self.incoming.pop_front() {
                Some(chunk) => {
                    let take = chunk.len().min(buf.len());
                    buf[..take].copy_from_slice(&chunk[..take]);
                    if take < chunk.len() {
                        self.incoming.push_front(chunk[take..].to_vec());
                    }
                    Ok(take)
                }
                None if self.eof_after_script => Ok(0),
                None => Err(io::Error::from(io::ErrorKind::WouldBlock)),
            }
        }
    }

    impl Write for FakeStream {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let take = buf.len().min(self.write_cap);
            if take == 0 {
                return Err(io::Error::from(io::ErrorKind::WouldBlock));
            }
            self.written.extend_from_slice(&buf[..take]);
            Ok(take)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn frames_assemble_across_single_byte_chunks() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello").unwrap();
        write_frame(&mut wire, b"world").unwrap();
        let stream = FakeStream {
            incoming: wire.iter().map(|byte| vec![*byte]).collect(),
            written: Vec::new(),
            write_cap: usize::MAX,
            eof_after_script: false,
        };
        let mut conn = FrameStream::new(stream, 64);
        let mut scratch = [0u8; 8];
        assert_eq!(conn.fill(&mut scratch), FillOutcome::Drained);
        assert_eq!(conn.next_frame(), Some(Frame::Payload(b"hello".to_vec())));
        assert_eq!(conn.next_frame(), Some(Frame::Payload(b"world".to_vec())));
        assert_eq!(conn.next_frame(), None);
        assert!(conn.is_clean());
    }

    #[test]
    fn partial_writes_complete_frames_across_flushes() {
        let stream = FakeStream {
            incoming: VecDeque::new(),
            written: Vec::new(),
            write_cap: 3,
            eof_after_script: false,
        };
        let mut conn = FrameStream::new(stream, 64);
        conn.queue_frame(b"abcdef");
        conn.queue_frame(b"gh");
        // 4+6 + 4+2 = 16 bytes at 3 per write: several passes, frames credited
        // exactly when their last byte leaves.
        let mut completed = 0;
        while conn.backlog() > 0 {
            completed += conn.flush().unwrap().frames_completed;
        }
        assert_eq!(completed, 2);
        let mut expected = Vec::new();
        write_frame(&mut expected, b"abcdef").unwrap();
        write_frame(&mut expected, b"gh").unwrap();
        assert_eq!(conn.stream.written, expected);
    }

    #[test]
    fn eof_mid_frame_is_not_clean() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"abcdef").unwrap();
        wire.truncate(wire.len() - 2);
        let stream = FakeStream {
            incoming: VecDeque::from([wire]),
            written: Vec::new(),
            write_cap: usize::MAX,
            eof_after_script: true,
        };
        let mut conn = FrameStream::new(stream, 64);
        let mut scratch = [0u8; 32];
        assert_eq!(conn.fill(&mut scratch), FillOutcome::Closed);
        assert_eq!(conn.next_frame(), None);
        assert!(!conn.is_clean(), "a truncated frame is not a clean EOF");
    }
}
