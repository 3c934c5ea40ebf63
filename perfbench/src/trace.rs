//! Spans recorded by the benchmark around its calls into the program.
//!
//! A span has a name, a start, an end, the span that caused it and a
//! request id. Spans stay in memory and are written out when the run ends.
//! A layer's self time is its span's duration minus the part of that
//! interval its child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

/// One recorded span; times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name, `module.operation`.
    pub name: &'static str,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns (equal to start while the span is open).
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Request id shared by the spans of one request (0 = none).
    pub rid: u64,
}

/// An in-memory span recorder. When off, nothing is recorded and the
/// calls cost one branch.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder that records only when `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Whether spans are recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span now.
    pub fn begin(&mut self, name: &'static str, parent: Option<SpanId>, rid: u64) -> SpanId {
        if !self.on {
            return 0;
        }
        let now = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            rid,
        });
        self.spans.len() - 1
    }

    /// Closes a span opened by [`Tracer::begin`].
    pub fn end(&mut self, id: SpanId) {
        if self.on {
            self.spans[id].end_ns = self.ns(Instant::now());
        }
    }

    /// Sets the request id of an open span.
    pub fn set_rid(&mut self, id: SpanId, rid: u64) {
        if self.on {
            self.spans[id].rid = rid;
        }
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Renders every span as one JSON array.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"rid\":{}}}",
                s.name, s.start_ns, s.end_ns, s.rid
            );
        }
        out.push_str("\n]\n");
        out
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, clipped to the span. Overlapping children (work
/// run in parallel) are counted once.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = 0u64;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(cursor);
                if hi > lo {
                    covered += hi - lo;
                }
                cursor = cursor.max(hi);
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Per span name: summed self time (ns) and span count.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times_ns(spans)) {
        let e = out.entry(s.name).or_default();
        e.0 += t;
        e.1 += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            rid: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 40, 90, Some(0)),
            span("b.inner", 50, 60, Some(2)),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 20, 40, 10]);
    }

    #[test]
    fn overlapping_children_count_once() {
        let spans = vec![
            span("root", 0, 100, None),
            span("w", 10, 60, Some(0)),
            span("w", 20, 70, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans)[0], 40);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = vec![span("root", 10, 50, None), span("late", 40, 80, Some(0))];
        assert_eq!(self_times_ns(&spans), vec![30, 40]);
    }

    #[test]
    fn self_time_sums_by_name() {
        let spans = vec![
            span("req", 0, 10, None),
            span("req", 20, 35, None),
            span("parse", 2, 4, Some(0)),
        ];
        let by = self_time_by_name(&spans);
        assert_eq!(by["req"], (23, 2));
        assert_eq!(by["parse"], (2, 1));
    }

    #[test]
    fn tracer_records_only_when_on() {
        let mut off = Tracer::new(false);
        let id = off.begin("x", None, 0);
        off.end(id);
        assert!(off.spans().is_empty());
        let mut on = Tracer::new(true);
        let root = on.begin("root", None, 7);
        let child = on.begin("child", Some(root), 7);
        on.end(child);
        on.end(root);
        assert_eq!(on.spans().len(), 2);
        assert_eq!(on.spans()[1].parent, Some(root));
        assert!(on.to_json().contains("\"name\":\"child\""));
    }
}
