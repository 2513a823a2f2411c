//! The benchmark's own span recorder.
//!
//! Every timed call into a layer goes through [`Spans::begin`] /
//! [`Spans::end`], in traced and untraced runs alike, so both time the
//! same code. Only a traced run keeps the spans (name, start, end,
//! parent, request id) in memory; it writes them out as JSONL when the
//! run ends and derives the per-layer metrics from them.

use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span id, unique within the run.
    pub id: u64,
    /// Layer call, e.g. `graph.load` or `server.request`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// Request id, for spans that belong to one server request.
    pub request: Option<u64>,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// An open span: its id (usable as a parent right away) and start.
#[derive(Debug, Clone, Copy)]
pub struct Open {
    /// The id the span will be recorded under.
    pub id: u64,
    start: Instant,
}

/// Span recorder; records nothing unless `enabled`.
pub struct Spans {
    enabled: bool,
    origin: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Spans {
    /// A recorder that keeps spans only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Spans {
            enabled,
            origin: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Open a span now.
    pub fn begin(&self) -> Open {
        self.begin_at(Instant::now())
    }

    /// Open a span that started at `start`.
    pub fn begin_at(&self, start: Instant) -> Open {
        // ordering(Relaxed): a unique-id counter, publishes nothing.
        Open {
            id: self.next.fetch_add(1, Ordering::Relaxed),
            start,
        }
    }

    /// Close `open` now under `name`; returns its duration.
    pub fn end(
        &self,
        open: Open,
        name: &'static str,
        parent: Option<u64>,
        request: Option<u64>,
    ) -> Duration {
        let end = Instant::now();
        let took = end - open.start;
        if self.enabled {
            let ns = |t: Instant| (t - self.origin).as_nanos() as u64;
            let span = Span {
                id: open.id,
                name,
                start_ns: ns(open.start),
                end_ns: ns(end),
                parent,
                request,
            };
            self.spans
                .lock()
                .expect("span recorder poisoned by a panicking benchmark thread")
                .push(span);
        }
        took
    }

    /// Time `f` as one span.
    pub fn time<R>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        f: impl FnOnce() -> R,
    ) -> (R, Duration) {
        let open = self.begin();
        let r = f();
        (r, self.end(open, name, parent, None))
    }

    /// Durations, in seconds, of every recorded span named `name`.
    pub fn secs(&self, name: &str) -> Vec<f64> {
        let spans = self
            .spans
            .lock()
            .expect("span recorder poisoned by a panicking benchmark thread");
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Write every recorded span to `path` as JSONL.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let spans = self
            .spans
            .lock()
            .expect("span recorder poisoned by a panicking benchmark thread");
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        for s in spans.iter() {
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            writeln!(
                w,
                "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{}}}",
                s.id,
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent),
                opt(s.request)
            )?;
        }
        w.flush()
    }
}
