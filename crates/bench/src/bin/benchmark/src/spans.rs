//! Spans recorded from the benchmark's own files, around the calls it makes into each
//! layer. Held in memory while measuring and written out as JSON lines at the end.
//! Spans inside the crates are a later issue; this is the outside view.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// At most this many spans are kept per tracer (40 MB in memory, about twice that on
/// disk); later ones are counted as dropped so a long run cannot exhaust memory. The
/// traced half of a 15 s run records well under this.
const SPAN_CAP: usize = 1_000_000;

/// Index of a recorded span plus one; 0 means "no span" (tracing off, dropped, or no
/// parent).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SpanId(u32);

impl SpanId {
    pub const NONE: SpanId = SpanId(0);
}

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: SpanId,
    /// The request, cycle or epoch this span belongs to.
    op: u64,
}

/// One thread's span buffer. When `on` is false every call is a branch and nothing
/// else, so the gated runs carry no tracing cost.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    dropped: u64,
}

impl Tracer {
    pub fn new(on: bool, origin: Instant) -> Tracer {
        Tracer {
            on,
            origin,
            spans: Vec::new(),
            dropped: 0,
        }
    }

    pub fn off() -> Tracer {
        Tracer::new(false, Instant::now())
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    pub fn origin(&self) -> Instant {
        self.origin
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    pub fn begin(&mut self, name: &'static str, parent: SpanId, op: u64) -> SpanId {
        if !self.on {
            return SpanId::NONE;
        }
        if self.spans.len() >= SPAN_CAP {
            self.dropped += 1;
            return SpanId::NONE;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
        });
        SpanId(self.spans.len() as u32)
    }

    /// Opens a span whose start was observed earlier (an open-loop epoch starts when
    /// it was *due*, which is before the generator got to it).
    pub fn begin_at(
        &mut self,
        name: &'static str,
        parent: SpanId,
        op: u64,
        start: Instant,
    ) -> SpanId {
        let id = self.begin(name, parent, op);
        if id != SpanId::NONE {
            let start_ns = start.saturating_duration_since(self.origin).as_nanos();
            self.spans[id.0 as usize - 1].start_ns = u64::try_from(start_ns).unwrap_or(u64::MAX);
        }
        id
    }

    pub fn end(&mut self, id: SpanId) {
        if id != SpanId::NONE {
            let now = self.now_ns();
            self.spans[id.0 as usize - 1].end_ns = now;
        }
    }

    /// Moves another thread's spans in behind this tracer's own, keeping their parent
    /// links valid. Both tracers must share an origin.
    pub fn absorb(&mut self, other: Tracer) {
        let shift = self.spans.len() as u32;
        self.dropped += other.dropped;
        for mut span in other.spans {
            if span.parent != SpanId::NONE {
                span.parent = SpanId(span.parent.0 + shift);
            }
            self.spans.push(span);
        }
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Self time per span name, in nanoseconds: a span's duration minus the part of
    /// it its child spans cover. Children of one parent do not overlap here (each
    /// thread records its own calls in sequence), so subtraction is exact.
    pub fn self_times_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if span.parent != SpanId::NONE {
                covered[span.parent.0 as usize - 1] += span.end_ns.saturating_sub(span.start_ns);
            }
        }
        let mut totals = BTreeMap::new();
        for (span, covered) in self.spans.iter().zip(covered) {
            let own = span
                .end_ns
                .saturating_sub(span.start_ns)
                .saturating_sub(covered);
            *totals.entry(span.name).or_insert(0) += own;
        }
        totals
    }

    /// One JSON object per line and span: name, start and end in nanoseconds since
    /// the tracer's origin, the parent's line number (0 = none) and the operation id.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for span in &self.spans {
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op\":{}}}",
                span.name, span.start_ns, span.end_ns, span.parent.0, span.op
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_off_tracer_records_nothing() {
        let mut tracer = Tracer::off();
        let id = tracer.begin("x", SpanId::NONE, 1);
        tracer.end(id);
        assert_eq!(id, SpanId::NONE);
        assert_eq!(tracer.len(), 0);
    }

    #[test]
    fn self_time_excludes_children_and_absorb_keeps_parents() {
        let mut tracer = Tracer::new(true, Instant::now());
        let root = tracer.begin("root", SpanId::NONE, 7);
        let child = tracer.begin("child", root, 7);
        tracer.end(child);
        tracer.end(root);
        // Pin the clock readings so the arithmetic is exact.
        tracer.spans[0].start_ns = 0;
        tracer.spans[0].end_ns = 100;
        tracer.spans[1].start_ns = 10;
        tracer.spans[1].end_ns = 40;
        let totals = tracer.self_times_ns();
        assert_eq!(totals["root"], 70);
        assert_eq!(totals["child"], 30);

        let mut first = Tracer::new(true, tracer.origin());
        let lone = first.begin("lone", SpanId::NONE, 1);
        first.end(lone);
        first.absorb(tracer);
        assert_eq!(first.len(), 3);
        assert_eq!(first.spans[2].parent, SpanId(2));
        assert_eq!(first.self_times_ns()["root"], 70);
    }
}
