//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around each call it makes into
//! a layer's public API: name, start, end, the enclosing span, and the
//! pass the span belongs to. Nothing is written while the benchmark
//! measures; [`Tracer::write_chrome`] dumps the spans at the end as
//! Chrome trace-event JSON (viewable in Perfetto).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span, times in seconds since the tracer's epoch.
pub struct Span {
    pub name: String,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
    pub pass: u32,
}

impl Span {
    pub fn dur(&self) -> f64 {
        self.end - self.start
    }

    /// The layer a span belongs to: its name up to the first `.`.
    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or(&self.name)
    }
}

/// Records spans when enabled; when disabled, [`Tracer::span`] only
/// calls its closure.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    /// Pass id stamped on every span opened from now on.
    pub pass: u32,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            on: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            pass: 0,
        }
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start: self.epoch.elapsed().as_secs_f64(),
            end: 0.0,
            parent: self.open.last().copied(),
            pass: self.pass,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end = self.epoch.elapsed().as_secs_f64();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Sum of the durations of `parent`'s direct children.
    pub fn child_time(&self, parent: usize) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent == Some(parent))
            .map(Span::dur)
            .sum()
    }

    /// Self time (duration minus direct children's) summed per layer,
    /// over the spans inside `bench.setup` and `bench.pass` trees.
    pub fn self_time_by_layer(&self) -> BTreeMap<String, f64> {
        let mut child = vec![0.0; self.spans.len()];
        let mut root = Vec::with_capacity(self.spans.len());
        for (i, s) in self.spans.iter().enumerate() {
            // A parent is always recorded before its children.
            root.push(s.parent.map_or(i, |p| root[p]));
            if let Some(p) = s.parent {
                child[p] += s.dur();
            }
        }
        let mut out = BTreeMap::new();
        for ((s, c), r) in self.spans.iter().zip(child).zip(root) {
            if matches!(self.spans[r].name.as_str(), "bench.setup" | "bench.pass") {
                *out.entry(s.layer().to_string()).or_insert(0.0) += s.dur() - c;
            }
        }
        out
    }

    /// Chrome trace-event JSON: one complete (`"ph": "X"`) event per
    /// span, microsecond timestamps, the pass as the thread id so each
    /// pass gets its own track.
    pub fn write_chrome(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut s = String::from("{\"traceEvents\": [\n");
        for (i, sp) in self.spans.iter().enumerate() {
            let parent = sp.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                s,
                "{}  {{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {:.3}, \
                 \"dur\": {:.3}, \"args\": {{\"id\": {i}, \"parent\": {parent}, \"pass\": {}}}}}",
                if i == 0 { "" } else { ",\n" },
                sp.name,
                sp.pass,
                sp.start * 1e6,
                sp.dur() * 1e6,
                sp.pass,
            );
        }
        s.push_str("\n]}\n");
        std::fs::write(path, s)
    }
}
