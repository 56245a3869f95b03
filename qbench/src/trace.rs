//! In-memory span recorder for the traced run.
//!
//! Spans are taken by the benchmark around its own calls into each layer's
//! public functions (name, start, end, parent span, request id); counts
//! taken at the same boundaries are kept beside them. Nothing is written
//! until the run ends. Per-layer metrics are medians over a name's spans or
//! counts.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<SpanId>,
    request: u64,
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    counts: Vec<(&'static str, u64, f64)>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            counts: Vec::new(),
        }
    }
}

impl Tracer {
    /// Run `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> (T, SpanId) {
        let start = self.origin.elapsed();
        let out = f();
        let end = self.origin.elapsed();
        self.spans.push(Span {
            name,
            start_ns: start.as_nanos() as u64,
            end_ns: end.as_nanos() as u64,
            parent,
            request,
        });
        (out, SpanId(self.spans.len() - 1))
    }

    /// Open a span whose end is set later by [`Tracer::close`], for a parent
    /// that encloses spans taken in between.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, request: u64) -> SpanId {
        let now = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            request,
        });
        SpanId(self.spans.len() - 1)
    }

    pub fn close(&mut self, id: SpanId) {
        self.spans[id.0].end_ns = self.origin.elapsed().as_nanos() as u64;
    }

    pub fn count(&mut self, name: &'static str, request: u64, value: f64) {
        self.counts.push((name, request, value));
    }

    /// Durations of `name`'s spans, in milliseconds.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }

    /// Duration of one span in milliseconds.
    pub fn duration_ms(&self, id: SpanId) -> f64 {
        let s = &self.spans[id.0];
        (s.end_ns - s.start_ns) as f64 / 1e6
    }

    pub fn counts(&self, name: &str) -> Vec<f64> {
        self.counts
            .iter()
            .filter(|(n, _, _)| *n == name)
            .map(|(_, _, v)| *v)
            .collect()
    }

    /// Tab-separated dump: one `span` line per span, one `count` line per
    /// count, then a summary line per name.
    pub fn dump(&self) -> String {
        let mut out = String::from("kind\tid\tname\tstart_ns\tend_ns\tparent\trequest\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.0.to_string());
            let _ = writeln!(
                out,
                "span\t{i}\t{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start_ns, s.end_ns, s.request
            );
        }
        for (name, request, value) in &self.counts {
            let _ = writeln!(out, "count\t-\t{name}\t{value}\t-\t-\t{request}");
        }
        let mut per_name: BTreeMap<&str, usize> = BTreeMap::new();
        for s in &self.spans {
            *per_name.entry(s.name).or_default() += 1;
        }
        for (name, n) in per_name {
            let _ = writeln!(out, "summary\t-\t{name}\t{n}\t-\t-\t-");
        }
        out
    }
}
