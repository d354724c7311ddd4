//! In-memory spans for the traced replay.
//!
//! A span records a name, start, end, its parent span and the request id
//! it belongs to. Spans are kept in memory while the replay runs and are
//! written out once it ends. A layer's self time is a span's duration
//! minus the time its child spans cover; children are strictly nested and
//! sequential, so that is the duration minus the children's durations.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// Records spans when `on`; when off, `enter`/`exit` cost one branch, so
/// the same replay code gives the untraced baseline.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Pauses or resumes recording (warm-up requests are not traced).
    pub fn set_on(&mut self, on: bool) {
        assert!(self.open.is_empty(), "toggled inside a span");
        self.on = on;
    }

    pub fn enter(&mut self, name: &'static str, request: u64) -> Option<usize> {
        if !self.on {
            return None;
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            request,
            start_ns: self.now(),
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(index);
        Some(index)
    }

    pub fn exit(&mut self, span: Option<usize>) {
        if let Some(index) = span {
            let end = self.now();
            self.spans[index].end_ns = end;
            assert_eq!(self.open.pop(), Some(index), "spans close in order");
        }
    }

    /// Wraps one call in a span.
    pub fn call<T>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        let span = self.enter(name, request);
        let out = f();
        self.exit(span);
        out
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "every span closed");
        self.spans
    }
}

/// Self time of every span, index-aligned with `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            covered[parent] += span.end_ns - span.start_ns;
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c))
        .collect()
}

/// Writes one JSON object per span.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (index, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"span\":{index},\"parent\":{parent},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.request, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}
