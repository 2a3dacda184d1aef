//! In-memory spans recorded around calls into the library's layers.
//!
//! A span is a name, an interval, and the span that caused it. Spans are
//! kept in memory while the workload runs and written once at the end,
//! so recording costs two clock reads and a push.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval, in nanoseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Id of a span opened with [`Tracer::open`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Self::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: parent.map(|p| p.0),
            start_ns,
            end_ns: start_ns,
        });
        SpanId(self.spans.len() - 1)
    }

    pub fn close(&mut self, id: SpanId) {
        self.spans[id.0].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent);
        let out = f();
        self.close(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name medians of total and self time, in milliseconds.
    pub fn summary(&self) -> BTreeMap<&'static str, SpanSummary> {
        let selfs = self_times_ns(&self.spans);
        let mut by_name: BTreeMap<&'static str, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(selfs) {
            let entry = by_name.entry(span.name).or_default();
            entry.0.push(span.duration_ns() as f64 / 1e6);
            entry.1.push(self_ns as f64 / 1e6);
        }
        by_name
            .into_iter()
            .map(|(name, (total, own))| {
                let summary = SpanSummary {
                    count: total.len(),
                    total_ms: crate::stats::median(&total).unwrap_or(0.0),
                    self_ms: crate::stats::median(&own).unwrap_or(0.0),
                    sum_ms: total.iter().sum(),
                };
                (name, summary)
            })
            .collect()
    }

    /// All spans as JSON lines, one object per span.
    pub fn to_jsonl(&self) -> String {
        let selfs = self_times_ns(&self.spans);
        let mut out = String::new();
        for (id, (span, self_ns)) in self.spans.iter().zip(selfs).enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{id},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}\n",
                span.name, span.start_ns, span.end_ns
            ));
        }
        out
    }
}

/// Medians over every span of one name.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanSummary {
    pub count: usize,
    pub total_ms: f64,
    pub self_ms: f64,
    /// Sum of the total times, for traced-versus-untraced totals.
    pub sum_ms: f64,
}

/// Self time of every span: its duration minus the part of its interval
/// that the union of its children's intervals covers. Children may
/// overlap each other (parallel work) or spill past the parent; only the
/// covered part of the parent's own interval is subtracted.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            children[p].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = span.start_ns;
            for (start, end) in kids {
                let start = start.max(cursor);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        let spans = [
            span("batch", None, 0, 100),
            span("a", Some(0), 10, 30),
            span("b", Some(0), 40, 70),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 20, 30]);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        // Two parallel children covering [10, 60) together.
        let spans = [
            span("batch", None, 0, 100),
            span("a", Some(0), 10, 50),
            span("b", Some(0), 20, 60),
            span("c", Some(0), 30, 40),
        ];
        assert_eq!(self_times_ns(&spans)[0], 50);
    }

    #[test]
    fn self_time_clips_children_to_the_parent() {
        let spans = [span("batch", None, 10, 50), span("late", Some(0), 40, 90)];
        assert_eq!(self_times_ns(&spans), vec![30, 50]);
    }

    #[test]
    fn self_time_is_per_level() {
        // A grandchild reduces its parent's self time, not the root's.
        let spans = [
            span("root", None, 0, 100),
            span("mid", Some(0), 0, 60),
            span("leaf", Some(1), 10, 40),
        ];
        assert_eq!(self_times_ns(&spans), vec![40, 30, 30]);
    }

    #[test]
    fn summary_takes_medians_per_name() {
        let t = Tracer {
            spans: vec![
                span("batch", None, 0, 3_000_000),
                span("tip", Some(0), 0, 2_000_000),
                span("batch", None, 3_000_000, 4_000_000),
                span("tip", Some(2), 3_000_000, 3_500_000),
            ],
            ..Default::default()
        };
        let s = t.summary();
        assert_eq!(s["batch"].count, 2);
        assert_eq!(s["batch"].total_ms, 1.0);
        assert_eq!(s["batch"].sum_ms, 4.0);
        assert_eq!(s["batch"].self_ms, 0.5);
        assert_eq!(s["tip"].self_ms, 0.5);
        assert!(t.to_jsonl().lines().count() == 4);
    }
}
