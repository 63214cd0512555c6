//! In-memory spans around the benchmark's own calls into each layer.
//!
//! Tracing inside the program stays off (`ADQ_TRACE` is never set): the
//! benchmark records a span where it calls into a layer, keeps every span
//! in memory, and at the end renders them with the repository's own
//! exporters (`adq_telemetry::trace::{write_chrome_trace,
//! write_collapsed_stacks}`).

use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::time::Instant;

use adq::telemetry::trace::{self, TraceSpan};
use serde_json::Value;

/// Thread id given to spans recorded on the benchmark's main thread.
pub const MAIN_THREAD: u64 = 1;

/// Handle of an open span (`0` when tracing is off).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u64);

/// Span recorder; a disabled recorder costs one branch per call.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<TraceSpan>,
    open: Vec<(u64, String, u64)>,
    next_id: u64,
}

/// Time accounting of all spans sharing one name.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            next_id: 1,
        }
    }

    /// Nanoseconds since the recorder was created.
    pub fn now_ns(&self) -> u64 {
        self.ns_at(Instant::now())
    }

    /// Nanoseconds from the recorder's creation to `at` (0 if earlier).
    pub fn ns_at(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span on the main thread, nested in the innermost open one.
    pub fn begin(&mut self, name: &str) -> SpanId {
        if !self.enabled {
            return SpanId(0);
        }
        let id = self.take_id();
        let start = self.now_ns();
        self.open.push((id, name.to_string(), start));
        SpanId(id)
    }

    /// Closes `span` (and any span left open inside it) with `args`.
    pub fn end(&mut self, span: SpanId, args: Value) {
        if !self.enabled {
            return;
        }
        let end = self.now_ns();
        while let Some((id, name, start)) = self.open.pop() {
            let parent = self.open.last().map_or(0, |(p, _, _)| *p);
            let closing = id == span.0;
            let args = if closing {
                args.clone()
            } else {
                Value::Map(Vec::new())
            };
            self.spans.push(TraceSpan {
                id,
                parent,
                thread: MAIN_THREAD,
                name,
                start_ns: start,
                end_ns: end,
                args,
            });
            if closing {
                break;
            }
        }
    }

    /// Records a finished span measured elsewhere (another thread, or
    /// reconstructed from the program's own stamps). Returns its id.
    pub fn record(
        &mut self,
        name: &str,
        parent: u64,
        thread: u64,
        (start_ns, end_ns): (u64, u64),
        args: Value,
    ) -> u64 {
        if !self.enabled {
            return 0;
        }
        let id = self.take_id();
        self.spans.push(TraceSpan {
            id,
            parent,
            thread,
            name: name.to_string(),
            start_ns,
            end_ns: end_ns.max(start_ns),
            args,
        });
        id
    }

    /// Id of the innermost open span (0 at top level).
    pub fn current(&self) -> u64 {
        self.open.last().map_or(0, |(id, _, _)| *id)
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[TraceSpan] {
        &self.spans
    }

    /// Count, total and self time per span name; self time is the span's
    /// duration minus its direct children's (`trace::child_time_ns`).
    pub fn totals_by_name(&self) -> BTreeMap<String, NameTotals> {
        let children = trace::child_time_ns(&self.spans);
        let mut out: BTreeMap<String, NameTotals> = BTreeMap::new();
        for span in &self.spans {
            let entry = out.entry(span.name.clone()).or_default();
            entry.count += 1;
            entry.total_ns += span.duration_ns();
            entry.self_ns += span
                .duration_ns()
                .saturating_sub(children.get(&span.id).copied().unwrap_or(0));
        }
        out
    }

    /// Writes `<stem>.trace.json` (Chrome trace) and `<stem>.folded`
    /// (collapsed stacks) into `dir`.
    pub fn write(&self, dir: &Path, stem: &str) -> io::Result<()> {
        trace::write_chrome_trace(dir.join(format!("{stem}.trace.json")), &self.spans)?;
        trace::write_collapsed_stacks(dir.join(format!("{stem}.folded")), &self.spans)
    }

    fn take_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_link_and_account_self_time() {
        let mut tracer = Tracer::new(true);
        let outer = tracer.begin("outer");
        let inner = tracer.begin("inner");
        std::thread::sleep(std::time::Duration::from_millis(2));
        tracer.end(inner, Value::Map(Vec::new()));
        tracer.end(outer, serde_json::json!({"k": 1}));
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "inner");
        assert_eq!(spans[0].parent, spans[1].id);
        assert_eq!(spans[1].arg_u64("k"), Some(1));
        let totals = tracer.totals_by_name();
        assert!(totals["inner"].self_ns >= 2_000_000);
        assert!(totals["outer"].self_ns < totals["outer"].total_ns);
        let doc = trace::chrome_trace(spans);
        assert_eq!(trace::validate_chrome_trace(&doc), Ok(2));
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(false);
        let span = tracer.begin("x");
        tracer.end(span, Value::Null);
        assert_eq!(tracer.record("y", 0, 2, (0, 5), Value::Null), 0);
        assert!(tracer.spans().is_empty());
    }
}
