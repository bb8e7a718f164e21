//! Spans recorded from outside the system under test: one per call into a
//! public function of a layer crate, kept in memory and written out when the
//! workload ends.
//!
//! Every phase is timed with [`Tracer::time`] whether or not spans are being
//! kept, so a traced and an untraced query run the same code; the only
//! difference — and hence the tracing overhead — is the span record.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

/// One timed call. `parent` indexes the span that was open on the same
/// thread when this one started; spans of one query share `query`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub query: Option<u64>,
    pub thread: usize,
}

/// A per-thread span recorder. Threads of one workload share `epoch` so
/// their spans line up on one time axis once [`merge`]d.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    thread: usize,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(epoch: Instant, thread: usize, enabled: bool) -> Self {
        Self {
            epoch,
            thread,
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Switches span recording on or off; timing is unaffected.
    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.open.is_empty(), "toggled tracing inside a span");
        self.enabled = enabled;
    }

    /// Runs `f` as a span named `name`, returning its result and its wall
    /// time in seconds. `f` receives the tracer for nested spans.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        query: Option<u64>,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> (T, f64) {
        let start = Instant::now();
        let index = self.enabled.then(|| {
            self.spans.push(Span {
                name,
                start_ns: nanos(start - self.epoch),
                end_ns: 0,
                parent: self.open.last().copied(),
                query,
                thread: self.thread,
            });
            self.open.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        let out = f(self);
        let end = Instant::now();
        if let Some(index) = index {
            self.spans[index].end_ns = nanos(end - self.epoch);
            self.open.pop();
        }
        (out, (end - start).as_secs_f64())
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

fn nanos(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).expect("a benchmark run is shorter than 584 years")
}

/// Concatenates per-thread span lists, re-basing parent indices.
pub fn merge(per_thread: Vec<Vec<Span>>) -> Vec<Span> {
    let mut all = Vec::new();
    for spans in per_thread {
        let base = all.len();
        all.extend(spans.into_iter().map(|mut span| {
            span.parent = span.parent.map(|p| p + base);
            span
        }));
    }
    all
}

/// Self time of every span in nanoseconds: its duration minus the part its
/// direct children cover. Children of one parent run one after another on
/// the parent's thread, so their durations add without overlap.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            own[parent] = own[parent].saturating_sub(span.end_ns - span.start_ns);
        }
    }
    own
}

/// Per span name: how many, their total time and their total self time.
pub fn summarize(spans: &[Span]) -> Json {
    let mut by_name: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
    for (span, own) in spans.iter().zip(self_times_ns(spans)) {
        let entry = by_name.entry(span.name).or_default();
        entry.0 += 1;
        entry.1 += span.end_ns - span.start_ns;
        entry.2 += own;
    }
    Json::obj(by_name.into_iter().map(|(name, (count, total, own))| {
        (
            name,
            Json::obj([
                ("count", Json::Num(count as f64)),
                ("total_s", Json::Num(total as f64 / 1e9)),
                ("self_s", Json::Num(own as f64 / 1e9)),
            ]),
        )
    }))
}

/// The raw span list as JSON rows.
pub fn spans_json(spans: &[Span]) -> Json {
    let optional = |v: Option<u64>| v.map_or(Json::Null, |v| Json::Num(v as f64));
    Json::Arr(
        spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("name", Json::Str(s.name.to_string())),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    ("parent", optional(s.parent.map(|p| p as u64))),
                    ("query", optional(s.query)),
                    ("thread", Json::Num(s.thread as f64)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            query: Some(0),
            thread: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = [
            span("query", 0, 100, None),
            span("encrypt", 5, 25, Some(0)),
            span("execute", 30, 90, Some(0)),
            span("kernel", 40, 70, Some(2)),
        ];
        // query: 100 - 20 - 60; execute: 60 - 30; leaves keep all of theirs.
        assert_eq!(self_times_ns(&spans), vec![20, 20, 30, 30]);
    }

    #[test]
    fn nested_spans_record_their_parent_and_merge_rebases_it() {
        let epoch = Instant::now();
        let mut tracer = Tracer::new(epoch, 0, true);
        tracer.time("outer", Some(7), |t| {
            t.time("inner", Some(7), |_| ());
        });
        let mut other = Tracer::new(epoch, 1, true);
        other.time("outer", None, |t| {
            t.time("inner", None, |_| ());
        });
        let spans = merge(vec![tracer.into_spans(), other.into_spans()]);
        let parents: Vec<_> = spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), None, Some(2)]);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(spans[3].thread, 1);
    }

    #[test]
    fn a_disabled_tracer_times_but_keeps_nothing() {
        let mut tracer = Tracer::new(Instant::now(), 0, false);
        let (value, seconds) = tracer.time("work", None, |_| 41 + 1);
        assert_eq!(value, 42);
        assert!(seconds >= 0.0);
        assert!(tracer.into_spans().is_empty());
    }
}
