//! In-memory spans around calls into the layer modules.
//!
//! A span has a name, a start and end in nanoseconds since the
//! sample's origin, the span that caused it, and the sample (run) id.
//! Spans are kept in a `Vec` while the sample runs and handed to the
//! parent process when it ends; nothing is written mid-run. A disabled
//! [`Trace`] records nothing, so the untraced runs pay one branch per
//! span site.

use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified call name, e.g. `cluster.dispatch`.
    pub name: String,
    /// Nanoseconds from the sample origin to the call.
    pub start_ns: u64,
    /// Nanoseconds from the sample origin to the return.
    pub end_ns: u64,
    /// Index of the enclosing span in the same sample.
    pub parent: Option<usize>,
    /// Sample (run) id the span belongs to.
    pub run: u64,
}

impl Span {
    /// Wall time of the call, seconds.
    #[must_use]
    pub fn seconds(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }
}

/// Span recorder of one sample; disabled unless tracing was asked for.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    run: u64,
    spans: Option<Vec<Span>>,
}

/// Handle of an open span; `NONE` when tracing is off.
pub type SpanId = Option<usize>;

impl Trace {
    /// A recorder for sample `run`; `enabled: false` records nothing.
    #[must_use]
    pub fn new(run: u64, enabled: bool) -> Self {
        Trace {
            origin: Instant::now(),
            run,
            spans: enabled.then(Vec::new),
        }
    }

    /// Whether spans are being recorded.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.spans.is_some()
    }

    /// Opens a span under `parent`.
    pub fn begin(&mut self, name: &str, parent: SpanId) -> SpanId {
        let now = self.now_ns();
        let spans = self.spans.as_mut()?;
        spans.push(Span {
            name: name.to_string(),
            start_ns: now,
            end_ns: now,
            parent,
            run: self.run,
        });
        Some(spans.len() - 1)
    }

    /// Closes a span opened by [`Trace::begin`].
    pub fn end(&mut self, id: SpanId) {
        let now = self.now_ns();
        if let (Some(spans), Some(i)) = (self.spans.as_mut(), id) {
            spans[i].end_ns = now;
        }
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&mut self, name: &str, parent: SpanId, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, parent);
        let out = f();
        self.end(id);
        out
    }

    /// The spans recorded so far (empty when disabled).
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        self.spans.as_deref().unwrap_or(&[])
    }

    /// The recorded spans (empty when disabled).
    #[must_use]
    pub fn into_spans(self) -> Vec<Span> {
        self.spans.unwrap_or_default()
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// Summed wall time of every span called `name`, seconds.
#[must_use]
pub fn total_s(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::seconds)
        .sum()
}

/// Durations of every span called `name`, seconds, in record order.
#[must_use]
pub fn durations_s(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::seconds)
        .collect()
}

/// Summed wall time of the direct children of every span called
/// `parent_name`, seconds: what the layer calls under a root cover.
#[must_use]
pub fn children_s(spans: &[Span], parent_name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.parent.is_some_and(|p| spans[p].name == parent_name))
        .map(Span::seconds)
        .sum()
}

/// Self time of span `i`: its duration minus the part of it its
/// direct children cover (children are sequential calls, so their
/// durations add).
#[must_use]
pub fn self_s(spans: &[Span], i: usize) -> f64 {
    let covered: f64 = spans
        .iter()
        .filter(|s| s.parent == Some(i))
        .map(Span::seconds)
        .sum();
    (spans[i].seconds() - covered).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent,
            run: 0,
        }
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = Trace::new(0, false);
        let id = t.begin("x", None);
        assert_eq!(id, None);
        t.end(id);
        assert_eq!(t.time("y", None, || 7), 7);
        assert!(t.into_spans().is_empty());
    }

    #[test]
    fn spans_nest_under_their_parent() {
        let mut t = Trace::new(3, true);
        let root = t.begin("run", None);
        t.time("leaf", root, || std::hint::black_box(1 + 1));
        t.end(root);
        let spans = t.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].run, 3);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("run", 0, 1_000, None),
            span("a", 100, 400, Some(0)),
            span("b", 400, 900, Some(0)),
            span("a", 950, 1_000, None),
        ];
        assert!((self_s(&spans, 0) - 200e-9).abs() < 1e-15);
        assert!((self_s(&spans, 1) - 300e-9).abs() < 1e-15);
        assert!((total_s(&spans, "a") - 350e-9).abs() < 1e-15);
        assert!((children_s(&spans, "run") - 800e-9).abs() < 1e-15);
        assert_eq!(durations_s(&spans, "b").len(), 1);
    }
}
