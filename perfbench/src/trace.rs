//! In-memory span recorder for the traced run.
//!
//! Spans are kept around the benchmark's own calls into each layer (name,
//! start, end, parent) and written out as JSON lines when the run ends.
//! Self time is a span's duration minus the part its children cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

pub struct Span {
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
    pub parent: Option<usize>,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer { origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let ix = self.spans.len();
        let start = self.origin.elapsed();
        self.spans.push(Span { name, start, end: start, parent: self.open.last().copied() });
        self.open.push(ix);
        let out = f(self);
        self.open.pop();
        self.spans[ix].end = self.origin.elapsed();
        out
    }

    /// Seconds spent in spans named `name`, summed.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans.iter().filter(|s| s.name == name).map(|s| (s.end - s.start).as_secs_f64()).sum()
    }

    /// Self seconds per span name: duration minus the children's.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut child = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end - s.start;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child) {
            *out.entry(s.name).or_insert(0.0) += (s.end - s.start).saturating_sub(c).as_secs_f64();
        }
        out
    }

    /// The spans as JSON lines, in start order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (ix, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {ix}, \"name\": \"{}\", \"start_us\": {}, \"end_us\": {}, \"parent\": {parent}}}",
                s.name,
                s.start.as_micros(),
                s.end.as_micros(),
            );
        }
        out
    }
}
