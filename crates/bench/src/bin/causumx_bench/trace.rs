//! In-memory spans recorded around the public calls the traced run makes.
//!
//! A span is `{trace_id, name, start_ns, end_ns, parent}`; spans of one
//! operation share a trace id. Nothing is written while the benchmark
//! measures: [`Tracer::write_jsonl`] dumps every span once the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span inside its [`Tracer`].
pub type SpanId = usize;

/// One recorded span. Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub trace_id: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder for a single-threaded traced run.
pub struct Tracer {
    origin: Instant,
    trace_id: u64,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            trace_id: 0,
            spans: Vec::new(),
        }
    }

    /// Start a new operation: later spans carry `trace_id`.
    pub fn set_trace(&mut self, trace_id: u64) {
        self.trace_id = trace_id;
    }

    /// Nanoseconds since the tracer was created.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Record a finished span that started at `start_ns` and ends now.
    pub fn close(&mut self, name: &'static str, start_ns: u64, parent: Option<SpanId>) -> SpanId {
        let end_ns = self.now();
        self.push(Span {
            trace_id: self.trace_id,
            name,
            start_ns,
            end_ns,
            parent,
        })
    }

    /// Time `f` as one span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = self.now();
        let out = f();
        self.close(name, start, parent);
        out
    }

    /// Open a span whose children are recorded before it ends; finish it
    /// with [`Tracer::end`].
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        let now = self.now();
        self.push(Span {
            trace_id: self.trace_id,
            name,
            start_ns: now,
            end_ns: now,
            parent,
        })
    }

    pub fn end(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.now();
    }

    fn push(&mut self, span: Span) -> SpanId {
        self.spans.push(span);
        self.spans.len() - 1
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// All spans as JSON lines (`id` is the span's index, which `parent`
    /// refers to).
    pub fn write_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"trace_id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.trace_id, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// Self time of span `id`: its duration minus the part of its interval
/// that its child spans cover (overlapping children count once).
pub fn self_time_ns(spans: &[Span], id: SpanId) -> u64 {
    let span = &spans[id];
    let mut covered: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| (s.start_ns.max(span.start_ns), s.end_ns.min(span.end_ns)))
        .filter(|(a, b)| a < b)
        .collect();
    covered.sort_unstable();
    let mut busy = 0;
    let mut reach = span.start_ns;
    for (a, b) in covered {
        let a = a.max(reach);
        if b > a {
            busy += b - a;
            reach = b;
        }
    }
    span.duration_ns().saturating_sub(busy)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            trace_id: 1,
            name,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("query", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 40, 70, Some(0)),
            span("b.inner", 45, 50, Some(2)),
        ];
        assert_eq!(self_time_ns(&spans, 0), 100 - 20 - 30);
        // Grandchildren count against their own parent only.
        assert_eq!(self_time_ns(&spans, 2), 30 - 5);
        assert_eq!(self_time_ns(&spans, 3), 5);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span("p", 100, 200, None),
            span("c1", 90, 150, Some(0)),
            span("c2", 140, 160, Some(0)),
            span("c3", 190, 250, Some(0)),
        ];
        // Covered inside the parent: [100, 160) and [190, 200).
        assert_eq!(self_time_ns(&spans, 0), 100 - 60 - 10);
    }

    #[test]
    fn recorded_spans_nest_and_serialize() {
        let mut t = Tracer::new();
        t.set_trace(7);
        let root = t.open("query", None);
        let v = t.time("leaf", Some(root), || 41 + 1);
        t.end(root);
        assert_eq!(v, 42);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert!(spans.iter().all(|s| s.trace_id == 7));
        let text = t.write_jsonl();
        assert!(
            text.starts_with("{\"id\":0,\"trace_id\":7,\"name\":\"query\""),
            "{text}"
        );
        assert!(text.contains("\"name\":\"leaf\""), "{text}");
        assert!(text.contains("\"parent\":0}"), "{text}");
    }
}
