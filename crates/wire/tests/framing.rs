//! The framing model: one suite over both drivers of the one decoder.
//!
//! [`FrameAssembler`] fed arbitrarily chunked bytes through `ingest`, and the blocking
//! [`read_frame`] pulling the same bytes from a `Read` that yields the same chunks, must
//! each produce *exactly the frames the test wrote* — including the resync guarantees
//! after oversized and corrupted frames, clean EOF only at a frame boundary, and (for
//! the blocking driver) never consuming a byte past the frame it returns.
//!
//! Chunkings exercised: one byte per readiness event (the pathological slow peer),
//! seeded random cuts, and chunk boundaries placed deliberately inside headers and
//! across frame boundaries.

mod common;

use std::io::{self, Read};

use common::{cases, Generator};
use kpg_timestamp::rng::SmallRng;
use kpg_wire::{read_frame, write_frame, Frame, FrameAssembler, WireCodec};

const LIMIT: usize = 1 << 16;

/// A byte stream under construction, beside the frames a reader with `limit` must
/// report for it: the expectation is what was written, not what some reader says.
struct Script {
    limit: usize,
    wire: Vec<u8>,
    expected: Vec<Frame>,
}

impl Script {
    fn new(limit: usize) -> Script {
        Script {
            limit,
            wire: Vec::new(),
            expected: Vec::new(),
        }
    }

    fn frame(&mut self, payload: &[u8]) {
        write_frame(&mut self.wire, payload).unwrap();
        self.expected.push(if payload.len() > self.limit {
            Frame::TooLarge(payload.len() as u64)
        } else {
            Frame::Payload(payload.to_vec())
        });
    }
}

/// A `Read` over `wire` that hands out at most one scheduled chunk per call (the way a
/// socket delivers what has arrived, not what was asked for) and fails every third call
/// with `Interrupted`, which a blocking reader must retry.
struct Chunked<'a, C> {
    wire: &'a [u8],
    chunks: C,
    consumed: usize,
    calls: usize,
}

impl<C: Iterator<Item = usize>> Read for Chunked<'_, C> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.calls += 1;
        if self.calls.is_multiple_of(3) {
            return Err(io::ErrorKind::Interrupted.into());
        }
        let rest = &self.wire[self.consumed..];
        let chunk = self.chunks.next().expect("chunk iterator ended early");
        let take = chunk.max(1).min(rest.len()).min(buf.len());
        buf[..take].copy_from_slice(&rest[..take]);
        self.consumed += take;
        Ok(take)
    }
}

/// The bytes a frame occupied on the wire after its header.
fn frame_body_len(frame: &Frame) -> usize {
    match frame {
        Frame::Payload(payload) => payload.len(),
        Frame::TooLarge(announced) => *announced as usize,
    }
}

/// How a driver's run over a (possibly truncated) stream ended.
#[derive(Debug, PartialEq, Eq)]
enum End {
    /// At a frame boundary.
    Clean,
    /// Inside a frame.
    Truncated,
}

/// Feeds `wire` to a fresh assembler in the given chunk sizes.
fn drive_ingest(
    wire: &[u8],
    mut chunks: impl Iterator<Item = usize>,
    limit: usize,
) -> (Vec<Frame>, End) {
    let mut assembler = FrameAssembler::new(limit);
    let mut frames = Vec::new();
    let mut offset = 0;
    while offset < wire.len() {
        let chunk = chunks.next().expect("chunk iterator ended early");
        let end = offset.saturating_add(chunk.max(1)).min(wire.len());
        assembler.ingest(&wire[offset..end]);
        offset = end;
        while let Some(frame) = assembler.next_frame() {
            frames.push(frame);
        }
    }
    let end = if assembler.is_idle() {
        End::Clean
    } else {
        End::Truncated
    };
    (frames, end)
}

/// Reads `wire` to its end with `read_frame`, checking after every frame that the
/// reader has consumed that frame's bytes and not one more.
fn drive_read_frame(
    wire: &[u8],
    chunks: impl Iterator<Item = usize>,
    limit: usize,
) -> (Vec<Frame>, End) {
    let mut reader = Chunked {
        wire,
        chunks,
        consumed: 0,
        calls: 0,
    };
    let mut frames = Vec::new();
    let mut boundary = 0;
    loop {
        match read_frame(&mut reader, limit) {
            Ok(Some(frame)) => {
                boundary += 4 + frame_body_len(&frame);
                assert_eq!(reader.consumed, boundary, "read past the frame returned");
                frames.push(frame);
            }
            Ok(None) => return (frames, End::Clean),
            Err(error) => {
                assert_eq!(error.kind(), io::ErrorKind::UnexpectedEof);
                return (frames, End::Truncated);
            }
        }
    }
}

/// Runs both drivers over `wire`, each with its own chunk-size sequence from `chunks`,
/// and returns what they (must) agree on.
fn drive_both<C: Iterator<Item = usize>>(
    wire: &[u8],
    mut chunks: impl FnMut() -> C,
    limit: usize,
) -> (Vec<Frame>, End) {
    let ingested = drive_ingest(wire, chunks(), limit);
    let read = drive_read_frame(wire, chunks(), limit);
    assert_eq!(ingested, read, "the two drivers disagree");
    read
}

#[test]
fn one_byte_per_event_yields_the_frames_written() {
    let mut generator = Generator::new(0xA55E);
    for _ in 0..cases(50) {
        let mut script = Script::new(LIMIT);
        for _ in 0..4 {
            script.frame(&generator.command().encode());
        }
        let got = drive_both(&script.wire, || std::iter::repeat(1), LIMIT);
        assert_eq!(got, (script.expected, End::Clean));
    }
}

#[test]
fn seeded_random_chunkings_yield_the_frames_written() {
    let mut rng = SmallRng::seed_from_u64(0xD1CE);
    for case in 0..cases(100) {
        // A stream mixing normal, empty, and oversized frames.
        let limit = 512;
        let mut script = Script::new(limit);
        for _ in 0..rng.gen_range(1..6usize) {
            match rng.gen_range(0..4u32) {
                0 => script.frame(&[]),
                1 => script.frame(&vec![7u8; rng.gen_range(limit + 1..limit * 4)]),
                _ => script.frame(&vec![3u8; rng.gen_range(1..limit)]),
            }
        }
        let most = script.wire.len().min(97);
        let cuts = || {
            let mut rng = SmallRng::seed_from_u64(case as u64);
            std::iter::from_fn(move || Some(rng.gen_range(1..=most)))
        };
        let got = drive_both(&script.wire, cuts, limit);
        assert_eq!(got, (script.expected, End::Clean));
    }
}

/// What `write_frame` hands its writer: the 4-byte big-endian length then the payload,
/// in one `write` (one segment on a `TCP_NODELAY` socket, one wake-up for its reader).
#[test]
fn write_frame_writes_header_and_payload_at_once() {
    struct Writes(Vec<Vec<u8>>);
    impl io::Write for Writes {
        fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
            self.0.push(bytes.to_vec());
            Ok(bytes.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }
    for payload in [&b""[..], b"alpha", &[7u8; 300]] {
        let mut expected = (payload.len() as u32).to_be_bytes().to_vec();
        expected.extend_from_slice(payload);
        let mut wire = Vec::new();
        write_frame(&mut wire, payload).unwrap();
        assert_eq!(wire, expected);
        let mut writes = Writes(Vec::new());
        write_frame(&mut writes, payload).unwrap();
        assert_eq!(writes.0, vec![expected]);
    }
}

#[test]
fn zero_length_payloads_and_clean_eof() {
    let mut script = Script::new(64);
    for payload in [&b"alpha"[..], b"", b"beta", b""] {
        script.frame(payload);
    }
    // Whole-stream chunks, then cuts that fall inside every header.
    for chunk in [usize::MAX, 3] {
        let got = drive_both(&script.wire, || std::iter::repeat(chunk), 64);
        assert_eq!(got.0, script.expected);
        assert_eq!(got.1, End::Clean);
    }
    // An empty stream is a clean end before any frame.
    assert_eq!(
        drive_both(&[], || std::iter::repeat(1), 64),
        (vec![], End::Clean)
    );
}

#[test]
fn truncation_at_every_byte_is_clean_only_on_a_frame_boundary() {
    let mut script = Script::new(8);
    for payload in [&b"abcdef"[..], b"", b"oversized: skipped", b"xy"] {
        script.frame(payload);
    }
    let mut boundaries = vec![0];
    for frame in &script.expected {
        boundaries.push(boundaries.last().unwrap() + 4 + frame_body_len(frame));
    }
    for cut in 0..=script.wire.len() {
        let whole = boundaries.iter().filter(|&&end| end <= cut).count() - 1;
        let end = if boundaries.contains(&cut) {
            End::Clean
        } else {
            End::Truncated
        };
        for chunk in [usize::MAX, 1, 5] {
            let got = drive_both(&script.wire[..cut], || std::iter::repeat(chunk), 8);
            assert_eq!(got.0, script.expected[..whole], "cut at byte {cut}");
            assert_eq!(got.1, end, "cut at byte {cut}");
        }
    }
}

#[test]
fn oversized_frame_skips_across_many_events_without_buffering() {
    // A 1 MiB announced frame against a 4 KiB limit, delivered in 1000-byte
    // chunks: must surface as TooLarge with the announced size, hold at most a
    // header's worth of memory throughout, and leave the next frame intact.
    let limit = 4096;
    let mut script = Script::new(limit);
    script.frame(&vec![0xAB; 1 << 20]);
    script.frame(b"after");

    let mut assembler = FrameAssembler::new(limit);
    for chunk in script.wire.chunks(1000) {
        assembler.ingest(chunk);
        assert!(
            assembler.buffered_bytes() <= limit + 4 + b"after".len() + 4,
            "oversized payload was buffered"
        );
    }
    assert_eq!(assembler.next_frame(), Some(Frame::TooLarge(1 << 20)));
    assert_eq!(
        assembler.next_frame(),
        Some(Frame::Payload(b"after".to_vec()))
    );
    assert_eq!(assembler.next_frame(), None);
    assert!(assembler.is_idle());

    let got = drive_both(&script.wire, || std::iter::repeat(1000), limit);
    assert_eq!(got, (script.expected, End::Clean));
}

#[test]
fn resync_after_payload_corruption_costs_exactly_one_frame() {
    // Corrupt every byte position of a middle frame's payload in turn: the
    // corrupted frame still arrives as a (garbage) payload of the right length —
    // alignment lives in the header, outside the payload — and the following
    // frame always survives byte-identical.
    let mut generator = Generator::new(0xC0DE);
    let middle = generator.command().encode();
    for position in 0..middle.len() {
        let mut corrupted = middle.clone();
        corrupted[position] ^= 0xFF;
        let mut script = Script::new(LIMIT);
        script.frame(b"first");
        script.frame(&corrupted);
        script.frame(b"last");
        let got = drive_both(&script.wire, || std::iter::repeat(7), LIMIT);
        assert_eq!(got, (script.expected, End::Clean));
    }
}

#[test]
fn partial_frame_is_not_idle() {
    let mut wire = Vec::new();
    write_frame(&mut wire, b"abc").unwrap();
    let mut assembler = FrameAssembler::new(LIMIT);

    // Mid-header.
    assembler.ingest(&wire[..2]);
    assert!(!assembler.is_idle());
    // Mid-payload.
    assembler.ingest(&wire[2..5]);
    assert!(!assembler.is_idle());
    // Complete but unpopped.
    assembler.ingest(&wire[5..]);
    assert!(!assembler.is_idle());
    assert_eq!(
        assembler.next_frame(),
        Some(Frame::Payload(b"abc".to_vec()))
    );
    assert!(assembler.is_idle());
}
