//! In-memory span recording.
//!
//! The benchmark records a span around each call it makes into a
//! layer's public functions: name, start, end, parent span and op id.
//! Spans stay in memory while the run measures and are written out once
//! it ends. A span's self time is its duration minus the part of its
//! interval that its child spans cover; children may overlap (parallel
//! workers), so coverage is the length of their union, not their sum.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Index of a span within its [`Trace`].
pub type SpanId = usize;

/// One recorded interval, as offsets from the trace's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer boundary the span covers (`graph.open`, `orient`, ...).
    pub name: &'static str,
    /// The op the span belongs to; spans of one op share it.
    pub op: u64,
    /// The span that caused this one, if any.
    pub parent: Option<SpanId>,
    /// Start offset from the epoch.
    pub start: Duration,
    /// End offset from the epoch.
    pub end: Duration,
}

impl Span {
    /// `end - start`.
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// The spans of one run.
#[derive(Debug, Clone)]
pub struct Trace {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Trace {
    fn default() -> Self {
        Self::new()
    }
}

impl Trace {
    /// An empty trace whose epoch is now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Record a finished span timed by the caller (worker threads time
    /// themselves and are recorded after they are joined).
    pub fn record(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            op,
            parent,
            start: start.saturating_duration_since(self.epoch),
            end: end.saturating_duration_since(self.epoch),
        });
        self.spans.len() - 1
    }

    /// Open a span now; close it with [`end`](Self::end).
    pub fn begin(&mut self, name: &'static str, op: u64, parent: Option<SpanId>) -> SpanId {
        let now = Instant::now();
        self.record(name, op, parent, now, now)
    }

    /// Close span `id` now and return its duration.
    pub fn end(&mut self, id: SpanId) -> Duration {
        let span = &mut self.spans[id];
        span.end = self.epoch.elapsed();
        span.duration()
    }

    /// Time `f` as a span; returns its value and the span's duration.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let id = self.begin(name, op, parent);
        let value = f();
        (value, self.end(id))
    }

    /// Self time of span `id`: its duration minus the union of its
    /// children's intervals, each clipped to the span.
    pub fn self_time(&self, id: SpanId) -> Duration {
        let span = &self.spans[id];
        let mut children: Vec<(Duration, Duration)> = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(id))
            .map(|c| (c.start.max(span.start), c.end.min(span.end)))
            .filter(|(s, e)| s < e)
            .collect();
        span.duration().saturating_sub(union_length(&mut children))
    }

    /// The trace as a JSON document: every span with its self time.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\"spans\": [\n");
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = write!(
                s,
                "  {{\"id\": {id}, \"name\": \"{}\", \"op\": {}, \"parent\": {parent}, \
                 \"start_us\": {:.3}, \"end_us\": {:.3}, \"self_us\": {:.3}}}",
                span.name,
                span.op,
                micros(span.start),
                micros(span.end),
                micros(self.self_time(id)),
            );
            s.push_str(if id + 1 == self.spans.len() {
                "\n"
            } else {
                ",\n"
            });
        }
        s.push_str("]}\n");
        s
    }
}

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Total length covered by a set of intervals (sorted in place).
fn union_length(intervals: &mut [(Duration, Duration)]) -> Duration {
    intervals.sort();
    let mut total = Duration::ZERO;
    let mut current: Option<(Duration, Duration)> = None;
    for &(s, e) in intervals.iter() {
        current = match current {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = current {
        total += ce - cs;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    /// A trace with spans placed at fixed offsets.
    fn fixed(spans: &[(&'static str, Option<SpanId>, u64, u64)]) -> Trace {
        let mut t = Trace::new();
        let epoch = t.epoch;
        for &(name, parent, s, e) in spans {
            t.record(name, 0, parent, epoch + ms(s), epoch + ms(e));
        }
        t
    }

    #[test]
    fn leaf_self_time_is_its_duration() {
        let t = fixed(&[("op", None, 0, 100)]);
        assert_eq!(t.self_time(0), ms(100));
    }

    #[test]
    fn nested_children_are_subtracted_once() {
        // op [0,100) ⊃ a [10,30) ⊃ a.inner [12,20); b [40,70).
        let t = fixed(&[
            ("op", None, 0, 100),
            ("a", Some(0), 10, 30),
            ("a.inner", Some(1), 12, 20),
            ("b", Some(0), 40, 70),
        ]);
        assert_eq!(t.self_time(0), ms(50));
        assert_eq!(t.self_time(1), ms(12));
        assert_eq!(t.self_time(2), ms(8));
        assert_eq!(t.self_time(3), ms(30));
    }

    #[test]
    fn overlapping_children_count_their_union() {
        // Two parallel workers [10,60) and [20,90), a third inside the
        // first: union is [10,90) = 80 ms.
        let t = fixed(&[
            ("mgt", None, 0, 100),
            ("w0", Some(0), 10, 60),
            ("w1", Some(0), 20, 90),
            ("w2", Some(0), 30, 40),
        ]);
        assert_eq!(t.self_time(0), ms(20));
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let t = fixed(&[("op", None, 10, 50), ("late", Some(0), 40, 80)]);
        assert_eq!(t.self_time(0), ms(30));
        let t = fixed(&[("op", None, 10, 50), ("outside", Some(0), 60, 80)]);
        assert_eq!(t.self_time(0), ms(40));
    }

    #[test]
    fn disjoint_children_sum() {
        let mut iv = vec![(ms(50), ms(60)), (ms(0), ms(10)), (ms(10), ms(20))];
        assert_eq!(union_length(&mut iv), ms(30));
        assert_eq!(union_length(&mut []), Duration::ZERO);
    }

    #[test]
    fn begin_end_and_json() {
        let mut t = Trace::new();
        let (v, d) = t.time("op", 7, None, || 42);
        assert_eq!(v, 42);
        assert_eq!(t.self_time(0), d);
        let json = t.to_json();
        assert!(json.contains("\"name\": \"op\""), "{json}");
        assert!(json.contains("\"op\": 7"), "{json}");
        assert!(json.contains("\"parent\": null"), "{json}");
    }
}
