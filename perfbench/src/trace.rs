//! In-memory spans around every client call and every direct layer call of
//! a traced run, written out as JSON lines when the run ends.
//!
//! Spans of one request share its request id; a replayed layer call names
//! the client span of the same request as its parent, so a span file can
//! be joined request by request.

use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub req: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// One thread's span buffer. Ids are `tag << 32 | sequence`, so buffers of
/// different threads merge without collisions; id 0 means "no span".
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    tag: u64,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool, origin: Instant, tag: u64) -> Self {
        Self {
            enabled,
            origin,
            tag,
            spans: Vec::new(),
        }
    }

    fn offset(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Record a finished span; returns its id (0 when tracing is off).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u64,
        req: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        if !self.enabled {
            return 0;
        }
        let id = self.tag << 32 | (self.spans.len() as u64 + 1);
        self.spans.push(Span {
            id,
            parent,
            req,
            name,
            start_ns: self.offset(start),
            end_ns: self.offset(end),
        });
        id
    }

    /// Time `f` as one span; returns its result and duration (ns).
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: u64,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let start = Instant::now();
        let out = std::hint::black_box(f());
        let end = Instant::now();
        self.record(name, parent, req, start, end);
        (out, (end - start).as_nanos() as u64)
    }

    pub fn absorb(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.req, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
