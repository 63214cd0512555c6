//! Trace exporters: Chrome Trace Event JSON and collapsed-stack text.
//!
//! Spans travel through the normal telemetry stream as
//! [`TelemetryEvent::SpanClosed`] lines (see `crate::span`), so any run's
//! JSONL file doubles as a trace. This module turns those events back
//! into a [`TraceSpan`] forest and renders it two ways:
//!
//! * [`chrome_trace`] — Chrome Trace Event Format (`ph: "X"` complete
//!   events, microsecond timestamps), loadable in `chrome://tracing` or
//!   <https://ui.perfetto.dev>.
//! * [`collapsed_stacks`] — one `root;child;leaf weight` line per unique
//!   span path with self-time nanosecond weights, the input format of
//!   `flamegraph.pl` and speedscope.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;

use crate::event::TelemetryEvent;

/// One closed span, as parsed back from a telemetry stream.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSpan {
    /// Process-unique span id (1-based).
    pub id: u64,
    /// Id of the enclosing span (0 = root).
    pub parent: u64,
    /// Dense id of the recording thread.
    pub thread: u64,
    /// Span name (`adq.iteration`, `tensor.gemm.tile`, ...).
    pub name: String,
    /// Monotonic start, ns since the recording process's tracing epoch.
    pub start_ns: u64,
    /// Monotonic end, ns since the recording process's tracing epoch.
    pub end_ns: u64,
    /// Structured attributes.
    pub args: serde_json::Value,
}

impl TraceSpan {
    /// Wall time covered by the span.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// Extracts a span from a [`TelemetryEvent::SpanClosed`] event
    /// (`None` for every other event kind).
    pub fn from_event(event: &TelemetryEvent) -> Option<TraceSpan> {
        match event {
            TelemetryEvent::SpanClosed {
                id,
                parent,
                thread,
                name,
                start_ns,
                end_ns,
                args,
            } => Some(TraceSpan {
                id: *id,
                parent: *parent,
                thread: *thread,
                name: name.clone(),
                start_ns: *start_ns,
                end_ns: *end_ns,
                args: args.clone(),
            }),
            _ => None,
        }
    }

    /// An unsigned attribute from the span's args.
    pub fn arg_u64(&self, key: &str) -> Option<u64> {
        self.args.get(key).and_then(|v| v.as_u64())
    }
}

/// The spans embedded in an event stream, in stream order.
pub fn spans_from_events(events: &[TelemetryEvent]) -> Vec<TraceSpan> {
    events.iter().filter_map(TraceSpan::from_event).collect()
}

/// Parses a telemetry JSONL file back into its event stream.
///
/// # Errors
///
/// Propagates I/O errors; a line that is not a valid event maps to
/// [`std::io::ErrorKind::InvalidData`] naming the offending line number
/// (the sinks flush on drop, so a healthy run never truncates a line).
pub fn read_events_jsonl(path: impl AsRef<Path>) -> std::io::Result<Vec<TelemetryEvent>> {
    let text = std::fs::read_to_string(path)?;
    let mut events = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let event: TelemetryEvent = serde_json::from_str(line).map_err(|err| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("line {}: {err}", lineno + 1),
            )
        })?;
        events.push(event);
    }
    Ok(events)
}

/// The spans embedded in a telemetry JSONL file.
///
/// # Errors
///
/// See [`read_events_jsonl`].
pub fn read_spans_jsonl(path: impl AsRef<Path>) -> std::io::Result<Vec<TraceSpan>> {
    Ok(spans_from_events(&read_events_jsonl(path)?))
}

/// Per-span-id total duration of direct children, for self-time
/// attribution (`self = duration - child_time`).
pub fn child_time_ns(spans: &[TraceSpan]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, u64> = HashMap::new();
    for span in spans {
        if span.parent != 0 {
            *children.entry(span.parent).or_insert(0) += span.duration_ns();
        }
    }
    children
}

/// Renders spans as a Chrome Trace Event Format document: one complete
/// (`ph: "X"`) event per span, timestamps in microseconds, thread ids
/// mapped to `tid`, and span attributes (plus `span_id`/`parent`) under
/// `args`.
pub fn chrome_trace(spans: &[TraceSpan]) -> serde_json::Value {
    use serde_json::Value;
    let events: Vec<Value> = spans
        .iter()
        .map(|span| {
            let mut args = vec![
                ("span_id".to_string(), Value::U64(span.id)),
                ("parent".to_string(), Value::U64(span.parent)),
            ];
            if let Some(extra) = span.args.as_map() {
                args.extend(extra.iter().cloned());
            }
            Value::Map(vec![
                ("name".to_string(), Value::Str(span.name.clone())),
                ("cat".to_string(), Value::Str("adq".to_string())),
                ("ph".to_string(), Value::Str("X".to_string())),
                ("ts".to_string(), Value::F64(span.start_ns as f64 / 1e3)),
                (
                    "dur".to_string(),
                    Value::F64(span.duration_ns() as f64 / 1e3),
                ),
                ("pid".to_string(), Value::U64(1)),
                ("tid".to_string(), Value::U64(span.thread)),
                ("args".to_string(), Value::Map(args)),
            ])
        })
        .collect();
    Value::Map(vec![
        ("traceEvents".to_string(), Value::Seq(events)),
        ("displayTimeUnit".to_string(), Value::Str("ms".to_string())),
    ])
}

/// Checks that a parsed JSON document has the Chrome Trace Event shape
/// this crate exports: a non-empty `traceEvents` array whose entries all
/// carry `name`/`cat`/`ph`/`ts`/`dur`/`pid`/`tid`. Returns the event
/// count, or a description of the first violation.
///
/// # Errors
///
/// Returns a human-readable message naming the first malformed entry.
pub fn validate_chrome_trace(doc: &serde_json::Value) -> Result<usize, String> {
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_seq())
        .ok_or("missing traceEvents array")?;
    if events.is_empty() {
        return Err("traceEvents is empty".to_string());
    }
    for (idx, event) in events.iter().enumerate() {
        for key in ["name", "cat", "ph"] {
            if event.get(key).and_then(|v| v.as_str()).is_none() {
                return Err(format!("traceEvents[{idx}] missing string `{key}`"));
            }
        }
        for key in ["ts", "dur", "pid", "tid"] {
            if event.get(key).and_then(|v| v.as_f64()).is_none() {
                return Err(format!("traceEvents[{idx}] missing numeric `{key}`"));
            }
        }
    }
    Ok(events.len())
}

/// The parent-chain path of a span (`root;...;name`), following ids
/// through `by_id`. Parents absent from the slice root the path at the
/// span itself, so partial drains still render.
fn span_path(span: &TraceSpan, by_id: &HashMap<u64, usize>, spans: &[TraceSpan]) -> String {
    let mut names = vec![span.name.as_str()];
    let mut cursor = span.parent;
    // Parent chains are acyclic by construction; the depth cap guards
    // against corrupt input files.
    for _ in 0..128 {
        if cursor == 0 {
            break;
        }
        let Some(&idx) = by_id.get(&cursor) else {
            break;
        };
        names.push(spans[idx].name.as_str());
        cursor = spans[idx].parent;
    }
    names.reverse();
    names.join(";")
}

/// Renders spans as collapsed-stack text (`flamegraph.pl` input): one
/// line per unique parent-chain path, weighted by the path's total
/// self-time in nanoseconds (duration minus direct children). Lines are
/// sorted by path for deterministic output.
pub fn collapsed_stacks(spans: &[TraceSpan]) -> String {
    let by_id: HashMap<u64, usize> = spans
        .iter()
        .enumerate()
        .map(|(idx, s)| (s.id, idx))
        .collect();
    let children = child_time_ns(spans);
    let mut weights: std::collections::BTreeMap<String, u64> = std::collections::BTreeMap::new();
    for span in spans {
        let self_ns = span
            .duration_ns()
            .saturating_sub(children.get(&span.id).copied().unwrap_or(0));
        if self_ns == 0 {
            continue;
        }
        *weights.entry(span_path(span, &by_id, spans)).or_insert(0) += self_ns;
    }
    let mut out = String::new();
    for (path, weight) in weights {
        out.push_str(&path);
        out.push(' ');
        out.push_str(&weight.to_string());
        out.push('\n');
    }
    out
}

/// Writes the Chrome trace JSON for `spans` to `path`.
///
/// # Errors
///
/// Propagates file creation/write errors.
pub fn write_chrome_trace(path: impl AsRef<Path>, spans: &[TraceSpan]) -> std::io::Result<()> {
    let json = serde_json::to_string(&chrome_trace(spans))
        .map_err(|err| std::io::Error::new(std::io::ErrorKind::InvalidData, err.to_string()))?;
    let mut file = std::fs::File::create(path)?;
    file.write_all(json.as_bytes())?;
    file.write_all(b"\n")
}

/// Writes the collapsed-stack text for `spans` to `path`.
///
/// # Errors
///
/// Propagates file creation/write errors.
pub fn write_collapsed_stacks(path: impl AsRef<Path>, spans: &[TraceSpan]) -> std::io::Result<()> {
    std::fs::write(path, collapsed_stacks(spans))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &str, start_ns: u64, end_ns: u64) -> TraceSpan {
        TraceSpan {
            id,
            parent,
            thread: 1,
            name: name.to_string(),
            start_ns,
            end_ns,
            args: serde_json::Value::Map(Vec::new()),
        }
    }

    fn sample_tree() -> Vec<TraceSpan> {
        vec![
            span(1, 0, "iteration", 0, 1000),
            span(2, 1, "train", 100, 600),
            span(3, 2, "batch", 150, 400),
            span(4, 1, "evaluate", 700, 900),
        ]
    }

    #[test]
    fn spans_roundtrip_through_events() {
        let original = TraceSpan {
            id: 5,
            parent: 2,
            thread: 3,
            name: "tensor.gemm.tile".to_string(),
            start_ns: 10,
            end_ns: 60,
            args: serde_json::json!({"tile": 1}),
        };
        let event = TelemetryEvent::SpanClosed {
            id: original.id,
            parent: original.parent,
            thread: original.thread,
            name: original.name.clone(),
            start_ns: original.start_ns,
            end_ns: original.end_ns,
            args: original.args.clone(),
        };
        assert_eq!(TraceSpan::from_event(&event), Some(original.clone()));
        assert_eq!(
            TraceSpan::from_event(&TelemetryEvent::LayerRemoved {
                iteration: 1,
                layer: 2
            }),
            None
        );
        assert_eq!(spans_from_events(&[event]).len(), 1);
        assert_eq!(original.arg_u64("tile"), Some(1));
        assert_eq!(original.duration_ns(), 50);
    }

    #[test]
    fn chrome_trace_has_complete_events_in_microseconds() {
        let doc = chrome_trace(&sample_tree());
        assert_eq!(validate_chrome_trace(&doc), Ok(4));
        let events = doc.get("traceEvents").and_then(|v| v.as_seq()).unwrap();
        let train = events
            .iter()
            .find(|e| e.get("name").and_then(|v| v.as_str()) == Some("train"))
            .expect("train event");
        assert_eq!(train.get("ph").and_then(|v| v.as_str()), Some("X"));
        assert_eq!(train.get("ts").and_then(|v| v.as_f64()), Some(0.1));
        assert_eq!(train.get("dur").and_then(|v| v.as_f64()), Some(0.5));
        let args = train.get("args").expect("args");
        assert_eq!(args.get("span_id").and_then(|v| v.as_u64()), Some(2));
        assert_eq!(args.get("parent").and_then(|v| v.as_u64()), Some(1));
    }

    #[test]
    fn validate_rejects_malformed_documents() {
        assert!(validate_chrome_trace(&serde_json::json!({})).is_err());
        assert!(validate_chrome_trace(&serde_json::json!({"traceEvents": []})).is_err());
        let missing_dur = serde_json::json!({
            "traceEvents": [{"name": "x", "cat": "adq", "ph": "X", "ts": 0.0,
                             "pid": 1, "tid": 1}],
        });
        let err = validate_chrome_trace(&missing_dur).unwrap_err();
        assert!(err.contains("dur"), "unexpected message: {err}");
    }

    #[test]
    fn collapsed_stacks_weight_by_self_time() {
        let folded = collapsed_stacks(&sample_tree());
        let lines: Vec<&str> = folded.lines().collect();
        // iteration self = 1000 - (500 + 200); train self = 500 - 250.
        assert_eq!(
            lines,
            vec![
                "iteration 300",
                "iteration;evaluate 200",
                "iteration;train 250",
                "iteration;train;batch 250",
            ]
        );
    }

    #[test]
    fn collapsed_stacks_aggregate_repeated_paths_and_orphans() {
        let spans = vec![
            span(1, 0, "root", 0, 100),
            span(2, 1, "leaf", 0, 30),
            span(3, 1, "leaf", 40, 70),
            // Parent 99 is not in the slice: path roots at the span.
            span(4, 99, "orphan", 0, 10),
        ];
        let folded = collapsed_stacks(&spans);
        assert!(folded.contains("root;leaf 60\n"));
        assert!(folded.contains("orphan 10\n"));
    }

    #[test]
    fn empty_traces_export_cleanly() {
        // An empty span stream renders an empty (but well-formed)
        // document in both formats rather than erroring.
        assert_eq!(collapsed_stacks(&[]), "");
        assert!(child_time_ns(&[]).is_empty());
        let doc = chrome_trace(&[]);
        let events = doc.get("traceEvents").and_then(|v| v.as_seq());
        assert_eq!(events.map(<[serde_json::Value]>::len), Some(0));
        // The validator calls that document out as carrying no events.
        let err = validate_chrome_trace(&doc).unwrap_err();
        assert!(err.contains("empty"), "unexpected message: {err}");
        assert_eq!(spans_from_events(&[]), Vec::<TraceSpan>::new());
    }

    #[test]
    fn orphaned_spans_keep_their_subtrees_renderable() {
        // Parent id 50 was dropped (buffer cap) or lives in an earlier
        // drain: the orphan roots its own subtree in both exporters.
        let spans = vec![
            span(10, 50, "orphan.parent", 0, 100),
            span(11, 10, "orphan.child", 10, 40),
        ];
        let folded = collapsed_stacks(&spans);
        assert!(folded.contains("orphan.parent 70\n"), "folded: {folded}");
        assert!(
            folded.contains("orphan.parent;orphan.child 30\n"),
            "folded: {folded}"
        );
        // The child credit against the missing id must not corrupt any
        // present span's self-time.
        let children = child_time_ns(&spans);
        assert_eq!(children.get(&10), Some(&30));
        assert_eq!(children.get(&50), Some(&100));
        // Chrome trace still renders both spans with their stated parent.
        let doc = chrome_trace(&spans);
        assert_eq!(validate_chrome_trace(&doc), Ok(2));
    }

    #[test]
    fn zero_duration_spans_do_not_distort_self_time() {
        let spans = vec![
            span(1, 0, "root", 0, 100),
            // Zero-duration leaf: no weight of its own, no line.
            span(2, 1, "instant", 50, 50),
            // Zero-duration parent of a real child: its self-time
            // saturates at zero instead of underflowing, and the child's
            // path still runs through it.
            span(3, 1, "empty.parent", 60, 60),
            span(4, 3, "busy.child", 60, 80),
        ];
        let folded = collapsed_stacks(&spans);
        assert!(!folded.contains("instant"), "folded: {folded}");
        assert!(
            !folded.contains("root;empty.parent "),
            "zero-self parent got a line: {folded}"
        );
        assert!(
            folded.contains("root;empty.parent;busy.child 20\n"),
            "folded: {folded}"
        );
        // Root self-time subtracts only *direct* children (both zero
        // here), so the grandchild's 20 ns is attributed once, on its
        // own path, and root keeps its full 100 ns.
        assert!(folded.contains("root 100\n"), "folded: {folded}");
        // Children overlapping beyond the parent's duration saturate.
        let overlapping = vec![span(1, 0, "tiny", 0, 10), span(2, 1, "wide", 0, 50)];
        let folded = collapsed_stacks(&overlapping);
        assert!(!folded.contains("tiny "), "folded: {folded}");
        assert!(folded.contains("tiny;wide 50\n"), "folded: {folded}");
    }

    #[test]
    fn jsonl_files_roundtrip_spans() {
        let dir = std::env::temp_dir().join(format!(
            "adq-trace-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let jsonl = dir.join("run.jsonl");
        let mut text = String::new();
        for trace_span in sample_tree() {
            let event = TelemetryEvent::SpanClosed {
                id: trace_span.id,
                parent: trace_span.parent,
                thread: trace_span.thread,
                name: trace_span.name,
                start_ns: trace_span.start_ns,
                end_ns: trace_span.end_ns,
                args: trace_span.args,
            };
            text.push_str(&serde_json::to_string(&event).unwrap());
            text.push('\n');
        }
        // Non-span events are filtered out, not errors.
        text.push_str(
            &serde_json::to_string(&TelemetryEvent::LayerRemoved {
                iteration: 1,
                layer: 0,
            })
            .unwrap(),
        );
        text.push('\n');
        std::fs::write(&jsonl, &text).expect("write jsonl");
        let spans = read_spans_jsonl(&jsonl).expect("read spans");
        assert_eq!(spans, sample_tree());

        let trace_path = dir.join("run.trace.json");
        write_chrome_trace(&trace_path, &spans).expect("write trace");
        let parsed: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&trace_path).unwrap()).unwrap();
        assert_eq!(validate_chrome_trace(&parsed), Ok(4));

        let folded_path = dir.join("run.folded");
        write_collapsed_stacks(&folded_path, &spans).expect("write folded");
        let folded = std::fs::read_to_string(&folded_path).unwrap();
        assert_eq!(folded, collapsed_stacks(&spans));

        // A corrupt line is an InvalidData error naming the line.
        std::fs::write(&jsonl, "{not json\n").expect("write corrupt");
        let err = read_spans_jsonl(&jsonl).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        std::fs::remove_dir_all(&dir).ok();
    }
}
