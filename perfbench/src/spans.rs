//! In-memory span recording for the traced run, and per-layer self time.
//!
//! Spans are recorded by the benchmark around its calls into each
//! layer's public functions; they are kept in memory and written out
//! once, when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One timed interval at a layer boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// The operation this span belongs to; every span of one operation
    /// shares it.
    pub op: u64,
    /// This span's id, unique within the run.
    pub id: u32,
    /// The span that caused it, if any.
    pub parent: Option<u32>,
    /// The layer (crate) the span's time is charged to.
    pub layer: &'static str,
    /// What ran, e.g. `engine.viram-corner-turn`.
    pub name: String,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// The span's duration in milliseconds.
    #[must_use]
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// A thread-safe span store.
pub struct Recorder {
    epoch: Instant,
    next: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder { epoch: Instant::now(), next: AtomicU32::new(0), spans: Mutex::new(Vec::new()) }
    }
}

impl Recorder {
    /// Nanoseconds from the recorder's creation to `t`.
    #[must_use]
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Allocates a span id, so children can name their parent before
    /// the parent's span is stored.
    pub fn id(&self) -> u32 {
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    /// Runs `f` inside a new span and returns its result. `f` receives
    /// the span's id to pass to its children.
    pub fn time<R>(
        &self,
        op: u64,
        parent: Option<u32>,
        layer: &'static str,
        name: impl Into<String>,
        f: impl FnOnce(u32) -> R,
    ) -> R {
        let id = self.id();
        let start = Instant::now();
        let out = f(id);
        let end = Instant::now();
        self.push(Span {
            op,
            id,
            parent,
            layer,
            name: name.into(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
        out
    }

    /// Stores an already measured span.
    pub fn push(&self, span: Span) {
        self.spans.lock().expect("a span writer panicked").push(span);
    }

    /// Every span recorded so far, in completion order.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("a span writer panicked").clone()
    }
}

/// The median duration, in ms, of the spans called `name`; 0 if none.
#[must_use]
pub fn median_ms(spans: &[Span], name: &str) -> f64 {
    let ms: Vec<f64> = spans.iter().filter(|s| s.name == name).map(Span::ms).collect();
    crate::stats::median(&ms)
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (overlapping children counted once).
#[must_use]
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let index: BTreeMap<u32, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(&p) = s.parent.and_then(|p| index.get(&p)) {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, kids)| (s.end_ns - s.start_ns) - covered(s.start_ns, s.end_ns, kids))
        .collect()
}

/// Length of the union of `intervals` clipped to `[lo, hi)`.
fn covered(lo: u64, hi: u64, mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for (start, end) in intervals {
        let (start, end) = (start.max(reach), end.min(hi));
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

/// Self time summed per layer, in milliseconds, ordered by layer name.
#[must_use]
pub fn layer_self_ms(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (span, ns) in spans.iter().zip(self_times_ns(spans)) {
        *out.entry(span.layer).or_insert(0.0) += ns as f64 / 1e6;
    }
    out
}

/// The per-layer self-time table: total, per operation, and share.
#[must_use]
pub fn render_self_time(spans: &[Span], ops: usize) -> String {
    let layers = layer_self_ms(spans);
    let total: f64 = layers.values().sum();
    let mut out = format!("{:<14} {:>12} {:>12} {:>7}\n", "layer", "self_ms", "ms_per_op", "share");
    for (layer, ms) in &layers {
        let _ = writeln!(
            out,
            "{layer:<14} {ms:>12.3} {:>12.3} {:>6.1}%",
            ms / ops.max(1) as f64,
            100.0 * ms / total.max(f64::MIN_POSITIVE)
        );
    }
    out
}

/// The spans as JSON lines, one object per span.
#[must_use]
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let parent = s.parent.map_or_else(|| String::from("null"), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"op\": {}, \"id\": {}, \"parent\": {parent}, \"layer\": \"{}\", \"name\": \"{}\", \
             \"start_ns\": {}, \"end_ns\": {}}}",
            s.op, s.id, s.layer, s.name, s.start_ns, s.end_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, layer: &'static str, start: u64, end: u64) -> Span {
        Span { op: 0, id, parent, layer, name: String::new(), start_ns: start, end_ns: end }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(0, None, "bench", 0, 100),
            // Overlapping children count once; the part past the
            // parent's end is clipped.
            span(1, Some(0), "engine", 10, 30),
            span(2, Some(0), "engine", 20, 50),
            span(3, Some(0), "faults", 90, 120),
            span(4, Some(1), "kernels", 12, 15),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 17, 30, 30, 3]);
    }

    #[test]
    fn layers_sum_self_time() {
        let spans = vec![
            span(0, None, "bench", 0, 1_000_000),
            span(1, Some(0), "engine", 0, 400_000),
            span(2, Some(0), "engine", 400_000, 700_000),
        ];
        let layers = layer_self_ms(&spans);
        assert!((layers["bench"] - 0.3).abs() < 1e-12);
        assert!((layers["engine"] - 0.7).abs() < 1e-12);
    }

    #[test]
    fn recorder_links_children_to_parents() {
        let rec = Recorder::default();
        rec.time(7, None, "bench", "op", |root| {
            rec.time(7, Some(root), "engine", "child", |_| ());
        });
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        let (child, root) = (&spans[0], &spans[1]);
        assert_eq!(child.parent, Some(root.id));
        assert!(root.start_ns <= child.start_ns && child.end_ns <= root.end_ns);
        assert!(to_jsonl(&spans).lines().all(|l| l.contains("\"op\": 7")));
    }
}
