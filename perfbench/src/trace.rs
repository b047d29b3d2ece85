//! Outside-in spans: the benchmark wraps every call it makes into a layer's
//! public API in a span (name, start, end, parent, request id). Spans are
//! kept in memory and written when the run ends. With tracing off, a span
//! is a plain call.

use graphalign_json::Json;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a span in its [`Trace`].
pub type SpanId = usize;

/// One recorded call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer call, e.g. `core.CONE.similarity` or `serve.poll`.
    pub name: String,
    /// Seconds since the trace started.
    pub start: f64,
    /// Seconds since the trace started.
    pub end: f64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Spans of one class repeat (one request) share this id.
    pub request: u64,
}

/// In-memory span store shared by every thread of a run.
pub struct Trace {
    on: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Trace {
    /// A trace that records when `on`, and otherwise only runs the calls.
    pub fn new(on: bool) -> Self {
        Self { on, epoch: Instant::now(), spans: Mutex::new(Vec::new()) }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Runs `f` inside a span named `name`; `f` receives the span's id so
    /// that calls it makes can be recorded as its children.
    pub fn span<T>(
        &self,
        name: &str,
        parent: Option<SpanId>,
        request: u64,
        f: impl FnOnce(Option<SpanId>) -> T,
    ) -> T {
        if !self.on {
            return f(None);
        }
        let start = self.now();
        let id = {
            let mut spans = self.spans.lock().expect("span store lock");
            spans.push(Span { name: name.to_string(), start, end: start, parent, request });
            spans.len() - 1
        };
        let out = f(Some(id));
        let end = self.now();
        self.spans.lock().expect("span store lock")[id].end = end;
        out
    }

    /// Every recorded span, in start order of recording.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store lock").clone()
    }
}

/// Each span's self time: its duration minus the part of it that its child
/// spans cover. Children that overlap each other (two clients working under
/// one round span) are counted once, as the union of their intervals.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut cursor = s.start;
            for (lo, hi) in kids {
                let (lo, hi) = (lo.max(cursor), hi.min(s.end));
                if hi > lo {
                    covered += hi - lo;
                    cursor = hi;
                }
            }
            (s.end - s.start) - covered
        })
        .collect()
}

/// Sums self time per span name over the spans of the given requests, as
/// `<name>_s` layer metrics.
pub fn layer_seconds(spans: &[Span], requests: &[u64]) -> BTreeMap<String, f64> {
    let wanted: std::collections::HashSet<u64> = requests.iter().copied().collect();
    let selfs = self_times(spans);
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(selfs) {
        if wanted.contains(&s.request) {
            *out.entry(format!("{}_s", s.name)).or_insert(0.0) += t;
        }
    }
    out
}

/// The span file: run context plus every span with its self time.
pub fn to_json(spans: &[Span], context: Json) -> Json {
    let selfs = self_times(spans);
    let rows = spans
        .iter()
        .zip(selfs)
        .map(|(s, t)| {
            Json::Obj(vec![
                ("name".into(), Json::Str(s.name.clone())),
                ("start_s".into(), Json::Num(s.start)),
                ("end_s".into(), Json::Num(s.end)),
                ("self_s".into(), Json::Num(t)),
                ("parent".into(), s.parent.map_or(Json::Null, |p| Json::Num(p as f64))),
                ("request".into(), Json::Num(s.request as f64)),
            ])
        })
        .collect();
    Json::Obj(vec![("context".into(), context), ("spans".into(), Json::Arr(rows))])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: f64, end: f64, parent: Option<SpanId>, request: u64) -> Span {
        Span { name: name.into(), start, end, parent, request }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        // A round span over two serve clients whose class spans overlap:
        // client A works 1..5, client B 3..8, the round runs 0..10.
        let spans = vec![
            span("round", 0.0, 10.0, None, 0),
            span("class", 1.0, 5.0, Some(0), 1),
            span("class", 3.0, 8.0, Some(0), 2),
            // Nested under client A's class: a poll 2..4.
            span("serve.poll", 2.0, 4.0, Some(1), 1),
        ];
        let selfs = self_times(&spans);
        // Children cover 1..8 = 7 s of the round, not 4 + 5 = 9 s.
        assert!((selfs[0] - 3.0).abs() < 1e-12);
        assert!((selfs[1] - 2.0).abs() < 1e-12);
        assert!((selfs[2] - 5.0).abs() < 1e-12);
        assert!((selfs[3] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let spans = vec![
            span("parent", 1.0, 2.0, None, 0),
            span("child", 0.5, 1.5, Some(0), 0),
            span("child", 1.2, 1.4, Some(0), 0),
            span("child", 1.8, 3.0, Some(0), 0),
        ];
        let selfs = self_times(&spans);
        assert!((selfs[0] - 0.3).abs() < 1e-12);
    }

    #[test]
    fn layer_seconds_keeps_only_the_chosen_requests() {
        let spans = vec![
            span("class", 0.0, 4.0, None, 7),
            span("core.CONE.similarity", 0.0, 3.0, Some(0), 7),
            span("class", 5.0, 6.0, None, 8),
            span("core.CONE.similarity", 5.0, 5.5, Some(2), 8),
        ];
        let got = layer_seconds(&spans, &[7]);
        assert_eq!(got.get("core.CONE.similarity_s"), Some(&3.0));
        assert_eq!(got.get("class_s"), Some(&1.0));
    }

    #[test]
    fn spans_nest_and_record_only_when_on() {
        let off = Trace::new(false);
        assert_eq!(off.span("a", None, 0, |id| id), None);
        assert!(off.spans().is_empty());
        let on = Trace::new(true);
        on.span("outer", None, 3, |id| on.span("inner", id, 3, |_| ()));
        let spans = on.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
        assert!(spans.iter().all(|s| s.request == 3));
    }
}
