//! In-memory spans recorded around the calls the benchmark makes into each
//! layer, and the per-layer self times derived from them.
//!
//! Only the thread driving a workload records spans, so the tracer is plain
//! single-threaded state.  A disabled tracer records nothing: end-to-end
//! metrics always come from a run with tracing off.

use crate::json::Value;
use crate::stats::lower_half_mean;
use std::collections::BTreeMap;
use std::time::Instant;

/// Parent id of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// Spans a recording tracer reserves room for (a traced run records about a
/// million).
const RESERVED_SPANS: usize = 1 << 22;

/// Spans of one name the trace file keeps.
const FILE_SPANS_PER_NAME: usize = 50_000;

/// One recorded span.  `calls` > 1 marks consecutive calls of the same kind
/// folded into one span (polling misses), so hot loops do not record one
/// span per poll.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    /// Flow / event / batch id the span belongs to.
    pub request: u64,
    pub calls: u32,
}

/// Totals of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotals {
    /// Span time minus the time covered by direct child spans, seconds.
    pub self_s: f64,
    pub calls: u64,
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    /// Open spans, innermost last; new spans take the top as parent.
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        // Reserved up front: growing a vector of a million spans copies tens
        // of megabytes, a pause of milliseconds in the middle of whatever
        // window is being timed.
        let spans = if enabled { Vec::with_capacity(RESERVED_SPANS) } else { Vec::new() };
        Self { enabled, epoch: Instant::now(), spans, open: Vec::new() }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Switches recording on or off (the traced run times some sections both
    /// ways to report its own overhead).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span that later spans nest under; close it with
    /// [`Tracer::end`].  Returns [`NO_PARENT`] when disabled.
    pub fn begin(&mut self, name: &'static str, request: u64) -> u32 {
        if !self.enabled {
            return NO_PARENT;
        }
        let now = self.ns(Instant::now());
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        self.spans.push(Span { name, start_ns: now, end_ns: now, parent, request, calls: 1 });
        self.open.push(id);
        id
    }

    /// Closes the span `begin` returned.
    pub fn end(&mut self, id: u32) {
        if id == NO_PARENT {
            return;
        }
        let now = self.ns(Instant::now());
        debug_assert_eq!(self.open.last(), Some(&id), "spans close innermost first");
        self.open.pop();
        self.spans[id as usize].end_ns = now;
    }

    /// Records a finished leaf span from instants the caller already took.
    pub fn leaf(
        &mut self,
        name: &'static str,
        request: u64,
        start: Instant,
        end: Instant,
        calls: u32,
    ) {
        if !self.enabled {
            return;
        }
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span { name, start_ns, end_ns, parent, request, calls });
    }

    /// Times `work` as a leaf span (and runs it untimed when disabled).
    pub fn time<T>(&mut self, name: &'static str, request: u64, work: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return work();
        }
        let start = Instant::now();
        let out = work();
        self.leaf(name, request, start, Instant::now(), 1);
        out
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name self time and call counts.
    pub fn totals(&self) -> BTreeMap<&'static str, LayerTotals> {
        self_times(&self.spans)
    }

    /// The trace as one JSON document: a name table plus
    /// `[id, name, start_ns, end_ns, parent, request, calls]` rows (`parent` is
    /// a span id, `-1` for roots).  Every span is kept in memory and counted
    /// in the layer totals; the file keeps at most [`FILE_SPANS_PER_NAME`]
    /// spans of any one name (per-call serving spans run to millions) and
    /// says how many it left out.
    pub fn to_json(&self, workload: &str) -> Value {
        let mut names: Vec<&'static str> = Vec::new();
        let mut written: Vec<usize> = Vec::new();
        let mut rows = Vec::new();
        for (id, span) in self.spans.iter().enumerate() {
            let name = names.iter().position(|n| *n == span.name).unwrap_or_else(|| {
                names.push(span.name);
                written.push(0);
                names.len() - 1
            });
            written[name] += 1;
            if written[name] > FILE_SPANS_PER_NAME {
                continue;
            }
            let parent = if span.parent == NO_PARENT {
                Value::Num(-1.0)
            } else {
                Value::UInt(u64::from(span.parent))
            };
            rows.push(Value::Arr(vec![
                Value::UInt(id as u64),
                Value::UInt(name as u64),
                Value::UInt(span.start_ns),
                Value::UInt(span.end_ns),
                parent,
                Value::UInt(span.request),
                Value::UInt(u64::from(span.calls)),
            ]));
        }
        let omitted = self.spans.len() - rows.len();
        Value::obj([
            ("workload", Value::str(workload)),
            (
                "columns",
                Value::Arr(
                    ["id", "name", "start_ns", "end_ns", "parent", "request", "calls"]
                        .map(Value::str)
                        .to_vec(),
                ),
            ),
            ("names", Value::Arr(names.into_iter().map(Value::str).collect())),
            ("spans_omitted", Value::UInt(omitted as u64)),
            ("spans", Value::Arr(rows)),
        ])
    }
}

/// Seconds ([`lower_half_mean`]) of samples split by whether the tracer was
/// recording (`[off, on]`), as `(recording on, recording off)` — the two
/// sides of the trace-overhead ratio.  Equal when nothing was recorded.
pub fn traced_and_untraced(samples: &[Vec<f64>; 2]) -> (f64, f64) {
    let [off, on] = samples;
    let off_s = lower_half_mean(off);
    (if on.is_empty() { off_s } else { lower_half_mean(on) }, off_s)
}

/// A layer's self time is its spans' duration minus the part their direct
/// child spans cover.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTotals> {
    let mut child_ns = vec![0u64; spans.len()];
    for span in spans {
        if span.parent != NO_PARENT {
            child_ns[span.parent as usize] += span.end_ns - span.start_ns;
        }
    }
    let mut totals: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
    for (span, covered) in spans.iter().zip(child_ns) {
        let entry = totals.entry(span.name).or_default();
        entry.self_s += (span.end_ns - span.start_ns).saturating_sub(covered) as f64 / 1e9;
        entry.calls += u64::from(span.calls);
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span { name, start_ns, end_ns, parent, request: 0, calls: 1 }
    }

    #[test]
    fn self_time_is_the_span_minus_its_children() {
        // detect [0, 100)
        //   preprocess [0, 10)
        //   encode     [10, 80)
        //     tile     [20, 50)
        //   score      [80, 95)
        // preprocess [200, 230)          (a second root of a reused name)
        let spans = [
            span("detect", 0, 100, NO_PARENT),
            span("preprocess", 0, 10, 0),
            span("encode", 10, 80, 0),
            span("tile", 20, 50, 2),
            span("score", 80, 95, 0),
            span("preprocess", 200, 230, NO_PARENT),
        ];
        let totals = self_times(&spans);
        let self_ns = |name: &str| (totals[name].self_s * 1e9).round() as u64;
        assert_eq!(self_ns("detect"), 100 - 10 - 70 - 15);
        assert_eq!(self_ns("encode"), 70 - 30, "grandchildren count against their own parent");
        assert_eq!(self_ns("tile"), 30);
        assert_eq!(self_ns("score"), 15);
        assert_eq!(self_ns("preprocess"), 10 + 30);
        assert_eq!(totals["preprocess"].calls, 2);
        let total: f64 = totals.values().map(|t| t.self_s).sum();
        assert!((total * 1e9 - 130.0).abs() < 1e-3, "self times partition the covered time");
    }

    #[test]
    fn recorded_spans_nest_under_the_open_span() {
        let mut tracer = Tracer::new(true);
        let outer = tracer.begin("outer", 7);
        let t0 = Instant::now();
        tracer.leaf("inner", 7, t0, Instant::now(), 3);
        tracer.time("inner", 8, || ());
        tracer.end(outer);
        tracer.time("after", 9, || ());
        let spans = tracer.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[2].parent, 0);
        assert_eq!(spans[3].parent, NO_PARENT);
        assert_eq!(tracer.totals()["inner"].calls, 4, "folded calls are counted");
        assert!(spans[0].end_ns >= spans[2].end_ns);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(false);
        let id = tracer.begin("outer", 0);
        assert_eq!(tracer.time("inner", 0, || 5), 5);
        tracer.end(id);
        assert!(tracer.spans().is_empty());
    }

    #[test]
    fn the_trace_document_round_trips() {
        let mut tracer = Tracer::new(true);
        let outer = tracer.begin("outer", 1);
        tracer.time("inner", 2, || ());
        tracer.end(outer);
        let doc = tracer.to_json("nids_offline");
        let parsed = crate::json::parse(&doc.to_json()).unwrap();
        assert_eq!(parsed, doc);
        assert_eq!(parsed.get("spans").unwrap().as_arr().unwrap().len(), 2);
    }
}
