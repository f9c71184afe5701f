//! Spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name, a start and an end, the span that caused it, and the id of the
//! request (solve, chain step or session) it belongs to.  Spans stay in memory and
//! are written out once, when the run ends.  A layer's *self time* is its span's
//! duration minus the time its child spans cover.
//!
//! A disabled tracer records nothing, so the same workload code serves the untraced
//! run, whose end-to-end numbers are the ones reported.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Index of a recorded span; `NONE` when the tracer is off.
pub type SpanId = usize;

/// Parent of a root span.
pub const ROOT: Option<SpanId> = None;

const NONE: SpanId = usize::MAX;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `schedule.validate`.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// The span this one is nested in.
    pub parent: Option<SpanId>,
    /// Request the span belongs to.
    pub request: u64,
}

/// In-memory span recorder.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    request: u64,
}

impl Tracer {
    /// A tracer that records (`on`) or ignores every span.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            request: 0,
        }
    }

    /// Whether spans are recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Sets the request id stamped on the spans recorded from now on.
    pub fn set_request(&mut self, request: u64) {
        self.request = request;
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
    ) -> SpanId {
        if !self.on {
            return NONE;
        }
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: parent.filter(|&p| p != NONE),
            request: self.request,
        });
        self.spans.len() - 1
    }

    /// Opens a span now; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        let now = Instant::now();
        self.record(name, now, now, parent)
    }

    /// Ends an open span now.
    pub fn close(&mut self, id: SpanId) {
        if id != NONE {
            let end = self.ns(Instant::now());
            self.spans[id].end_ns = end;
        }
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, start, Instant::now(), parent);
        out
    }

    /// Per span name: (summed self time in nanoseconds, number of spans).
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (s, cov) in self.spans.iter().zip(covered) {
            let own = s.end_ns.saturating_sub(s.start_ns).saturating_sub(cov);
            let entry = out.entry(s.name).or_default();
            entry.0 += own;
            entry.1 += 1;
        }
        out
    }

    /// Mean self time per span of `name`, in nanoseconds (`NaN` if none was recorded).
    pub fn mean_self_ns(&self, name: &str) -> f64 {
        match self.self_times().get(name) {
            Some(&(total, count)) if count > 0 => total as f64 / count as f64,
            _ => f64::NAN,
        }
    }

    /// Mean duration (children included) of the spans of `name`, in nanoseconds
    /// (`NaN` if none was recorded).
    pub fn mean_ns(&self, name: &str) -> f64 {
        let durations: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns.saturating_sub(s.start_ns) as f64)
            .collect();
        durations.iter().sum::<f64>() / durations.len() as f64
    }

    /// Longest single span of `name`, in nanoseconds (`NaN` if none was recorded).
    pub fn max_ns(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns.saturating_sub(s.start_ns) as f64)
            .fold(f64::NAN, f64::max)
    }

    /// Writes every span as one JSON line after a header line.
    pub fn write(&self, path: &std::path::Path, header: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{header}")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_covered_children() {
        let mut t = Tracer::new(true);
        let e = t.epoch;
        let ms = |n: u64| e + Duration::from_millis(n);
        let op = t.record("op", ms(0), ms(10), ROOT);
        t.record("child", ms(1), ms(4), Some(op));
        t.record("child", ms(5), ms(6), Some(op));
        let st = t.self_times();
        assert_eq!(st["op"], (6_000_000, 1));
        assert_eq!(st["child"], (4_000_000, 2));
        assert_eq!(t.mean_self_ns("child"), 2_000_000.0);
        assert_eq!(t.max_ns("child"), 3_000_000.0);
        assert!(t.mean_self_ns("missing").is_nan());
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.open("op", ROOT);
        t.time("child", Some(id), || ());
        t.close(id);
        assert!(t.self_times().is_empty());
    }
}
