//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public functions: name, trace id, parent, start and end. They
//! stay in memory until the run ends, when [`Tracer::write_jsonl`] writes
//! them out and [`Tracer::self_times`] folds them into per-name self time
//! (a span's duration minus the part covered by its direct children).
//! A disabled tracer records nothing, so the timed runs pay one branch per
//! call site.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer boundary the span covers, e.g. `serve.submit`.
    pub name: &'static str,
    /// Identifier shared by the spans of one request or round.
    pub trace: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created (0 while open).
    pub end_ns: u64,
}

/// Handle of an open span; inert when tracing is off.
#[must_use = "a begun span must be ended"]
pub struct SpanId(Option<usize>);

/// Aggregated time of every span with one name.
#[derive(Debug, Clone, PartialEq)]
pub struct SelfTime {
    /// Span name.
    pub name: &'static str,
    /// Spans recorded.
    pub count: usize,
    /// Summed duration, ms.
    pub total_ms: f64,
    /// Summed duration minus time covered by direct children, ms.
    pub self_ms: f64,
}

/// Span recorder.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder; `enabled == false` makes every call a no-op.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off between spans.
    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.open.is_empty(), "toggled with a span open");
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str, trace: u64) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            trace,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(idx);
        SpanId(Some(idx))
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn end(&mut self, id: SpanId) {
        let Some(idx) = id.0 else { return };
        assert_eq!(
            self.open.pop(),
            Some(idx),
            "spans must close innermost first"
        );
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, trace: u64, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, trace);
        let out = f();
        self.end(id);
        out
    }

    /// Durations in µs of every closed span called `name`, ascending.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        crate::stats::sorted(
            self.spans
                .iter()
                .filter(|s| s.name == name && s.end_ns >= s.start_ns && s.end_ns > 0)
                .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
                .collect(),
        )
    }

    /// Per-name total and self time, sorted by descending self time.
    pub fn self_times(&self) -> Vec<SelfTime> {
        let dur = |s: &Span| s.end_ns.saturating_sub(s.start_ns);
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += dur(s);
            }
        }
        let mut by_name: BTreeMap<&'static str, (usize, u64, u64)> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(&covered) {
            let e = by_name.entry(s.name).or_default();
            e.0 += 1;
            e.1 += dur(s);
            e.2 += dur(s).saturating_sub(*child);
        }
        let mut out: Vec<SelfTime> = by_name
            .into_iter()
            .map(|(name, (count, total, own))| SelfTime {
                name,
                count,
                total_ms: total as f64 / 1e6,
                self_ms: own as f64 / 1e6,
            })
            .collect();
        out.sort_by(|a, b| b.self_ms.total_cmp(&a.self_ms));
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{i},\"parent\":{parent},\"trace\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.trace, s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut t = Tracer::new(true);
        let root = t.begin("round", 0);
        let child = t.begin("serve.submit", 1);
        let grandchild = t.begin("net.encode", 1);
        t.end(grandchild);
        t.end(child);
        t.end(root);
        // Rewrite the clock readings to known values: root 0..100,
        // child 10..60, grandchild 20..30.
        t.spans[0].start_ns = 0;
        t.spans[0].end_ns = 100;
        t.spans[1].start_ns = 10;
        t.spans[1].end_ns = 60;
        t.spans[2].start_ns = 20;
        t.spans[2].end_ns = 30;
        let by_name = |n: &str| t.self_times().into_iter().find(|s| s.name == n).unwrap();
        assert_eq!(by_name("round").self_ms, 50.0 / 1e6);
        assert_eq!(by_name("serve.submit").self_ms, 40.0 / 1e6);
        assert_eq!(by_name("net.encode").self_ms, 10.0 / 1e6);
        assert_eq!(by_name("round").total_ms, 100.0 / 1e6);
        assert_eq!(t.spans[2].parent, Some(1));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let v = t.span("serve.submit", 0, || 7);
        assert_eq!(v, 7);
        assert!(t.spans.is_empty());
        assert!(t.durations_us("serve.submit").is_empty());
    }
}
