//! `adq-report` — run analyzer for telemetry JSONL streams.
//!
//! Consumes the event stream a run wrote via `--telemetry run.jsonl`
//! (optionally with `ADQ_TRACE=1` spans embedded) and renders a markdown
//! report: per-iteration wall-time attribution from the span tree (self
//! vs. child time per Algorithm-1 phase), the AD trend and bit-width
//! schedule tables mirroring the paper's Table II, and the Table I energy
//! model breakdown. Two auxiliary modes serve CI:
//!
//! * `--validate-trace trace.json` checks an exported Chrome trace's shape
//!   (exit 2 when malformed).
//! * `--serving access.jsonl` renders per-stage latency attribution from a
//!   serving access log (exit 1 on count mismatches, or when
//!   `--decompose-within <frac>` finds the stage-median sum further than
//!   that fraction from the end-to-end median).
//!
//! ```text
//! adq-report <run.jsonl> [--metrics <metrics.json>] [--out <report.md>]
//!            [--json <report.json>] [--reconcile-trace <trace.json>]
//! adq-report --validate-trace <trace.json>
//! adq-report --serving <access.jsonl> [--decompose-within <frac>]
//! ```

use std::collections::{BTreeMap, HashMap};
use std::process::ExitCode;

use adq_telemetry::lifecycle::{self, RequestRecord};
use adq_telemetry::trace::{self, TraceSpan};
use adq_telemetry::TelemetryEvent;
use serde_json::json;

fn usage() -> ExitCode {
    eprintln!(
        "usage: adq-report <run.jsonl> [--metrics <metrics.json>] [--out <report.md>] \
         [--json <report.json>] [--memory-json <mem.json>] \
         [--reconcile-trace <trace.json>]\n       \
         adq-report --validate-trace <trace.json>\n       \
         adq-report --serving <access.jsonl> [--decompose-within <frac>]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        return usage();
    }
    match args[0].as_str() {
        "--validate-trace" => match args.get(1) {
            Some(path) => validate_trace(path),
            None => usage(),
        },
        "--serving" => match args.get(1) {
            Some(path) => {
                let decompose_within =
                    flag_value(&args, "--decompose-within").and_then(|raw| raw.parse::<f64>().ok());
                serving(path, decompose_within)
            }
            None => usage(),
        },
        path if !path.starts_with("--") => report(path, &args),
        _ => usage(),
    }
}

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
}

fn load_events(path: &str) -> Result<Vec<TelemetryEvent>, ExitCode> {
    trace::read_events_jsonl(path).map_err(|err| {
        eprintln!("adq-report: cannot read {path}: {err}");
        ExitCode::from(2)
    })
}

// ---------------------------------------------------------------- validate

fn validate_trace(path: &str) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(err) => {
            eprintln!("adq-report: cannot read {path}: {err}");
            return ExitCode::from(2);
        }
    };
    let doc: serde_json::Value = match serde_json::from_str(&text) {
        Ok(doc) => doc,
        Err(err) => {
            eprintln!("adq-report: {path} is not JSON: {err}");
            return ExitCode::from(2);
        }
    };
    match trace::validate_chrome_trace(&doc) {
        Ok(count) => {
            println!("{path}: valid Chrome trace with {count} events");
            ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("adq-report: {path} is not a valid Chrome trace: {err}");
            ExitCode::from(2)
        }
    }
}

// ----------------------------------------------------------------- serving

/// Picks one stage delta out of a [`RequestRecord`].
type StagePick = fn(&RequestRecord) -> u64;

/// Stage accessors for the serving attribution table, in pipeline order.
const STAGES: [(&str, StagePick); 5] = [
    ("admit", |r| r.admit_ns),
    ("queue-wait", |r| r.queue_wait_ns),
    ("batch-wait", |r| r.batch_wait_ns),
    ("exec", |r| r.exec_ns),
    ("write", |r| r.write_ns),
];

/// Exemplar waterfalls shown when the log carries no closing summary.
const COMPUTED_EXEMPLARS: usize = 8;

/// Nanoseconds as a fixed-point millisecond cell.
fn fmt_stage_ms(ns: u64) -> String {
    format!("{:.3}", ns as f64 / 1e6)
}

/// One-line ASCII waterfall: each lifecycle stage gets a run of its
/// letter, width proportional to its share of the stage sum (zero-length
/// stages are elided; every non-zero stage keeps at least one cell).
fn waterfall(record: &RequestRecord, width: usize) -> String {
    let sum = record.stage_sum_ns();
    if sum == 0 {
        return "-".to_string();
    }
    let letters = ['A', 'Q', 'B', 'E', 'W'];
    let mut bar = String::new();
    for (i, (_, stage)) in STAGES.iter().enumerate() {
        let ns = stage(record);
        if ns == 0 {
            continue;
        }
        let cells = ((ns as f64 / sum as f64) * width as f64).round().max(1.0) as usize;
        bar.extend(std::iter::repeat_n(letters[i], cells));
    }
    bar
}

/// `adq-report --serving`: per-stage latency attribution, outcome/shed
/// accounting reconciled against the closing summary, and tail-exemplar
/// waterfalls, all from a serving access log.
fn serving(path: &str, decompose_within: Option<f64>) -> ExitCode {
    let view = match lifecycle::read_records(path) {
        Ok(view) => view,
        Err(err) => {
            eprintln!("adq-report: cannot read {path}: {err}");
            return ExitCode::from(2);
        }
    };
    let count = |outcome: &str| view.records.iter().filter(|r| r.outcome == outcome).count() as u64;
    let (ok, shed, errors, refused) = (
        count(lifecycle::OUTCOME_OK),
        count(lifecycle::OUTCOME_SHED),
        count(lifecycle::OUTCOME_ERROR),
        count(lifecycle::OUTCOME_GOODBYE_REFUSED),
    );
    let mut failures = Vec::new();

    let mut md = String::new();
    md.push_str(&format!("# adq-report --serving — {path}\n\n"));
    md.push_str(&format!(
        "{} request record(s): {ok} ok, {shed} shed, {errors} error, \
         {refused} goodbye-refused ({} malformed line(s) skipped).\n",
        view.records.len(),
        view.malformed
    ));
    match &view.summary {
        Some(summary) => {
            md.push_str(&format!(
                "Log closed cleanly: summary counts {} record(s), {} dropped at the \
                 channel, {} write error(s).\n\n",
                summary.records, summary.dropped, summary.write_errors
            ));
            let expected = view.records.len() as u64;
            if summary.records != expected {
                failures.push(format!(
                    "summary claims {} records but the log holds {expected}",
                    summary.records
                ));
            }
            for (label, claimed, counted) in [
                ("ok", summary.ok, ok),
                ("shed", summary.shed, shed),
                ("error", summary.errors, errors),
                ("goodbye-refused", summary.goodbye_refused, refused),
            ] {
                if claimed != counted {
                    failures.push(format!(
                        "summary claims {claimed} {label} record(s) but the log holds {counted}"
                    ));
                }
            }
        }
        None => md.push_str(
            "No closing summary — the server was still running (or was killed) when \
             this log was read.\n\n",
        ),
    }

    // Per-stage latency attribution over completed requests
    let ok_records: Vec<&RequestRecord> = view
        .records
        .iter()
        .filter(|r| r.outcome == lifecycle::OUTCOME_OK)
        .collect();
    if ok_records.is_empty() {
        md.push_str("No completed requests — no stage attribution to render.\n");
    } else {
        let quantile = |pick: fn(&RequestRecord) -> u64, q: f64| {
            let mut sample: Vec<u64> = ok_records.iter().map(|r| pick(r)).collect();
            lifecycle::exact_quantile_ns(&mut sample, q)
        };
        let mean = |pick: fn(&RequestRecord) -> u64| {
            ok_records.iter().map(|r| pick(r)).sum::<u64>() / ok_records.len() as u64
        };
        md.push_str(&format!(
            "## Per-stage latency attribution ({} ok requests, ms)\n\n",
            ok_records.len()
        ));
        let mut rows = Vec::new();
        for (name, pick) in STAGES {
            rows.push(vec![
                name.to_string(),
                fmt_stage_ms(quantile(pick, 0.5)),
                fmt_stage_ms(quantile(pick, 0.9)),
                fmt_stage_ms(quantile(pick, 0.99)),
                fmt_stage_ms(mean(pick)),
            ]);
        }
        for (name, pick) in [
            (
                "stage sum",
                RequestRecord::stage_sum_ns as fn(&RequestRecord) -> u64,
            ),
            ("total", |r: &RequestRecord| r.total_ns),
        ] {
            rows.push(vec![
                format!("**{name}**"),
                fmt_stage_ms(quantile(pick, 0.5)),
                fmt_stage_ms(quantile(pick, 0.9)),
                fmt_stage_ms(quantile(pick, 0.99)),
                fmt_stage_ms(mean(pick)),
            ]);
        }
        md_table(&mut md, &["stage", "p50", "p90", "p99", "mean"], &rows);

        // Decomposition check: the stage medians must add up to (about)
        // the end-to-end median, or the instrumentation has a hole.
        let stage_p50_sum: u64 = STAGES.iter().map(|(_, pick)| quantile(*pick, 0.5)).sum();
        let total_p50 = quantile(|r| r.total_ns, 0.5);
        let gap = if total_p50 > 0 {
            (stage_p50_sum as f64 - total_p50 as f64).abs() / total_p50 as f64
        } else {
            0.0
        };
        md.push_str(&format!(
            "Decomposition: stage p50s sum to {} ms vs end-to-end p50 {} ms \
             ({:.1}% apart).\n\n",
            fmt_stage_ms(stage_p50_sum),
            fmt_stage_ms(total_p50),
            gap * 100.0
        ));
        if let Some(within) = decompose_within {
            if gap > within {
                failures.push(format!(
                    "stage-median sum {} ms is {:.1}% from the end-to-end p50 {} ms \
                     (allowed {:.1}%)",
                    fmt_stage_ms(stage_p50_sum),
                    gap * 100.0,
                    fmt_stage_ms(total_p50),
                    within * 100.0
                ));
            }
        }

        // Tail exemplars: the summary's ring-buffer survivors when the log
        // closed cleanly, else the slowest completed requests we can see.
        let exemplars: Vec<RequestRecord> = match &view.summary {
            Some(summary) if !summary.exemplars.is_empty() => summary.exemplars.clone(),
            _ => {
                let mut computed: Vec<RequestRecord> =
                    ok_records.iter().map(|r| (*r).clone()).collect();
                computed.sort_by_key(|r| std::cmp::Reverse(r.total_ns));
                computed.truncate(COMPUTED_EXEMPLARS);
                computed
            }
        };
        if !exemplars.is_empty() {
            md.push_str("## Tail exemplars (slowest requests)\n\n");
            let rows: Vec<Vec<String>> = exemplars
                .iter()
                .map(|r| {
                    vec![
                        r.trace_id.to_string(),
                        r.conn_id.to_string(),
                        r.replica.map_or_else(|| "-".to_string(), |v| v.to_string()),
                        r.batch_size
                            .map_or_else(|| "-".to_string(), |v| v.to_string()),
                        fmt_stage_ms(r.total_ns),
                        format!("`{}`", waterfall(r, 32)),
                    ]
                })
                .collect();
            md_table(
                &mut md,
                &[
                    "trace",
                    "conn",
                    "replica",
                    "batch",
                    "total ms",
                    "waterfall (A admit, Q queue, B batch-wait, E exec, W write)",
                ],
                &rows,
            );
        }
    }

    print!("{md}");
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("adq-report: {} serving check(s) failed:", failures.len());
        for failure in &failures {
            eprintln!("  {failure}");
        }
        ExitCode::FAILURE
    }
}

// ------------------------------------------------------------------ report

/// Resource deltas attributed to a span subtree (see `adq-telemetry`'s
/// `alloc` module for how spans record them).
#[derive(Debug, Default, Clone, Copy)]
struct PhaseResources {
    flops: u64,
    bytes_moved: u64,
    alloc_bytes: u64,
    freed_bytes: u64,
    allocs: u64,
    /// Process heap high-water mark at span close (max over the subtree).
    heap_peak_bytes: u64,
}

impl PhaseResources {
    /// A span's own recorded deltas (zero when the run was untracked).
    fn of_span(span: &TraceSpan) -> Self {
        Self {
            flops: span.arg_u64("flops").unwrap_or(0),
            bytes_moved: span.arg_u64("bytes_moved").unwrap_or(0),
            alloc_bytes: span.arg_u64("alloc_bytes").unwrap_or(0),
            freed_bytes: span.arg_u64("freed_bytes").unwrap_or(0),
            allocs: span.arg_u64("allocs").unwrap_or(0),
            heap_peak_bytes: span.arg_u64("heap_peak_bytes").unwrap_or(0),
        }
    }

    fn add(&mut self, other: &PhaseResources) {
        self.flops += other.flops;
        self.bytes_moved += other.bytes_moved;
        self.alloc_bytes += other.alloc_bytes;
        self.freed_bytes += other.freed_bytes;
        self.allocs += other.allocs;
        self.heap_peak_bytes = self.heap_peak_bytes.max(other.heap_peak_bytes);
    }

    fn any(&self) -> bool {
        self.flops > 0 || self.bytes_moved > 0 || self.alloc_bytes > 0 || self.allocs > 0
    }

    /// Bytes still held at span close (allocation churn nets out).
    fn net_bytes(&self) -> i64 {
        self.alloc_bytes as i64 - self.freed_bytes as i64
    }
}

/// Resources attributed to the subtree rooted at `spans[root]`.
///
/// A span's own counters already include everything its *same-thread*
/// descendants did (thread counters are monotonic and spans record
/// start/close deltas), so summing the whole subtree would double-count.
/// Work fanned out to other threads is invisible to the parent's delta,
/// though: each descendant opening on a different thread than its parent
/// contributes its own delta exactly once. The heap high-water mark is a
/// process-wide gauge, so the subtree maximum is taken regardless of
/// thread.
fn subtree_resources(
    root: usize,
    spans: &[TraceSpan],
    children: &HashMap<u64, Vec<usize>>,
) -> PhaseResources {
    let mut total = PhaseResources::of_span(&spans[root]);
    let mut stack = vec![root];
    while let Some(i) = stack.pop() {
        for &child in children.get(&spans[i].id).into_iter().flatten() {
            let own = PhaseResources::of_span(&spans[child]);
            if spans[child].thread != spans[i].thread {
                total.add(&own);
            } else {
                total.heap_peak_bytes = total.heap_peak_bytes.max(own.heap_peak_bytes);
            }
            stack.push(child);
        }
    }
    total
}

/// Per-phase timing plus attributed resources.
#[derive(Default)]
struct PhaseStats {
    total_ns: u64,
    self_ns: u64,
    resources: PhaseResources,
}

/// Wall-time and resource attribution for one `adq.iteration` span.
struct IterationTiming {
    iteration: u64,
    wall_ns: u64,
    self_ns: u64,
    /// Whole-iteration resource attribution.
    resources: PhaseResources,
    /// Direct-child phase name -> stats, in name order.
    phases: BTreeMap<String, PhaseStats>,
}

fn iteration_timings(spans: &[TraceSpan]) -> Vec<IterationTiming> {
    let child_time = trace::child_time_ns(spans);
    let mut children: HashMap<u64, Vec<usize>> = HashMap::new();
    for (i, span) in spans.iter().enumerate() {
        if span.parent != 0 {
            children.entry(span.parent).or_default().push(i);
        }
    }
    let mut timings: Vec<IterationTiming> = spans
        .iter()
        .enumerate()
        .filter(|(_, span)| span.name == "adq.iteration")
        .map(|(index, span)| IterationTiming {
            iteration: span.arg_u64("iteration").unwrap_or(0),
            wall_ns: span.duration_ns(),
            self_ns: span
                .duration_ns()
                .saturating_sub(child_time.get(&span.id).copied().unwrap_or(0)),
            resources: subtree_resources(index, spans, &children),
            phases: children.get(&span.id).into_iter().flatten().fold(
                BTreeMap::new(),
                |mut acc, &child| {
                    let entry = acc
                        .entry(spans[child].name.clone())
                        .or_insert_with(PhaseStats::default);
                    entry.total_ns += spans[child].duration_ns();
                    entry.self_ns += spans[child]
                        .duration_ns()
                        .saturating_sub(child_time.get(&spans[child].id).copied().unwrap_or(0));
                    entry
                        .resources
                        .add(&subtree_resources(child, spans, &children));
                    acc
                },
            ),
        })
        .collect();
    timings.sort_by_key(|t| t.iteration);
    timings
}

fn fmt_ms(ns: u64) -> String {
    format!("{:.3}", ns as f64 / 1e6)
}

/// Human-scale count (`1.23 G` flops) for the report tables.
fn fmt_scaled(value: u64) -> String {
    let v = value as f64;
    match value {
        0 => "0".to_string(),
        _ if v >= 1e9 => format!("{:.2} G", v / 1e9),
        _ if v >= 1e6 => format!("{:.2} M", v / 1e6),
        _ if v >= 1e3 => format!("{:.2} k", v / 1e3),
        _ => format!("{value}"),
    }
}

/// Human-scale byte count (`1.2 MiB`).
fn fmt_bytes(bytes: u64) -> String {
    let v = bytes as f64;
    match bytes {
        0 => "0".to_string(),
        _ if v >= 1024.0 * 1024.0 * 1024.0 => format!("{:.2} GiB", v / (1024.0 * 1024.0 * 1024.0)),
        _ if v >= 1024.0 * 1024.0 => format!("{:.2} MiB", v / (1024.0 * 1024.0)),
        _ if v >= 1024.0 => format!("{:.2} KiB", v / 1024.0),
        _ => format!("{bytes} B"),
    }
}

/// Signed variant of [`fmt_bytes`] for net (alloc − freed) columns.
fn fmt_bytes_signed(bytes: i64) -> String {
    if bytes < 0 {
        format!("-{}", fmt_bytes(bytes.unsigned_abs()))
    } else {
        fmt_bytes(bytes as u64)
    }
}

/// Renders a markdown table.
fn md_table(out: &mut String, headers: &[&str], rows: &[Vec<String>]) {
    out.push_str(&format!("| {} |\n", headers.join(" | ")));
    out.push_str(&format!(
        "|{}\n",
        headers.iter().map(|_| "---|").collect::<String>()
    ));
    for row in rows {
        out.push_str(&format!("| {} |\n", row.join(" | ")));
    }
    out.push('\n');
}

/// Bit-width list from a serialized `IterationRecord` (`null` = fp32).
fn bits_from_record(record: &serde_json::Value) -> String {
    let Some(bits) = record.get("bits").and_then(|v| v.as_seq()) else {
        return "-".to_string();
    };
    let inner: Vec<String> = bits
        .iter()
        .map(|b| {
            if b.is_null() {
                "fp".to_string()
            } else {
                b.as_u64()
                    .map_or_else(|| "?".to_string(), |v| v.to_string())
            }
        })
        .collect();
    format!("[{}]", inner.join(", "))
}

fn report(path: &str, args: &[String]) -> ExitCode {
    let events = match load_events(path) {
        Ok(events) => events,
        Err(code) => return code,
    };
    let spans = trace::spans_from_events(&events);
    let timings = iteration_timings(&spans);

    let mut md = String::new();
    let mut json_iterations = Vec::new();
    md.push_str(&format!("# adq-report — {path}\n\n"));

    // Dropped-span banner: a lossy trace silently skews every
    // attribution below, so it leads the report.
    let dropped_spans: u64 = events
        .iter()
        .filter_map(|event| match event {
            TelemetryEvent::TraceExported { dropped, .. } => Some(*dropped),
            _ => None,
        })
        .max()
        .unwrap_or(0);
    if dropped_spans > 0 {
        md.push_str(&format!(
            "> **Warning:** {dropped_spans} span(s) were dropped at the tracer's buffer \
             cap before export — wall-time and resource attribution below is incomplete. \
             Lower the trace level or trace a shorter run.\n\n"
        ));
    }

    // Run header
    for event in &events {
        if let TelemetryEvent::RunStarted { run, seed, .. } = event {
            md.push_str(&format!("Run `{run}`, seed {seed}.\n"));
        }
        if let TelemetryEvent::RunCompleted {
            iterations,
            training_complexity,
            final_accuracy,
        } = event
        {
            md.push_str(&format!(
                "Completed after {iterations} iteration(s): final test accuracy {:.2}%, \
                 eqn-4 training complexity {training_complexity:.3}x.\n",
                final_accuracy * 100.0
            ));
        }
    }
    md.push('\n');

    // Wall-time attribution from the span tree
    md.push_str("## Per-iteration wall-time attribution\n\n");
    if timings.is_empty() {
        md.push_str(
            "No spans in this stream — run with `ADQ_TRACE=1` (and `--telemetry`) to \
             record phase timings.\n\n",
        );
    } else {
        // Resource columns appear only when the run recorded resource
        // deltas (counting allocator + `ADQ_RESOURCES`), so untracked
        // reports keep the compact wall-time-only layout.
        let tracked = timings.iter().any(|t| t.resources.any());
        for timing in &timings {
            md.push_str(&format!(
                "### Iteration {} — {} ms wall\n\n",
                timing.iteration,
                fmt_ms(timing.wall_ns)
            ));
            let mut rows = Vec::new();
            let mut phase_json = Vec::new();
            for (name, stats) in &timing.phases {
                let share = if timing.wall_ns > 0 {
                    100.0 * stats.total_ns as f64 / timing.wall_ns as f64
                } else {
                    0.0
                };
                let mut row = vec![
                    name.clone(),
                    fmt_ms(stats.total_ns),
                    fmt_ms(stats.self_ns),
                    format!("{share:.1}%"),
                ];
                if tracked {
                    let r = &stats.resources;
                    row.extend([
                        fmt_scaled(r.flops),
                        fmt_bytes(r.bytes_moved),
                        fmt_bytes(r.alloc_bytes),
                        fmt_bytes_signed(r.net_bytes()),
                        fmt_bytes(r.heap_peak_bytes),
                    ]);
                }
                rows.push(row);
                phase_json.push(json!({
                    "phase": name,
                    "total_ns": stats.total_ns,
                    "self_ns": stats.self_ns,
                    "flops": stats.resources.flops,
                    "bytes_moved": stats.resources.bytes_moved,
                    "alloc_bytes": stats.resources.alloc_bytes,
                    "freed_bytes": stats.resources.freed_bytes,
                    "allocs": stats.resources.allocs,
                    "heap_peak_bytes": stats.resources.heap_peak_bytes,
                }));
            }
            let mut self_row = vec![
                "(iteration self)".to_string(),
                fmt_ms(timing.self_ns),
                fmt_ms(timing.self_ns),
                if timing.wall_ns > 0 {
                    format!(
                        "{:.1}%",
                        100.0 * timing.self_ns as f64 / timing.wall_ns as f64
                    )
                } else {
                    "0.0%".to_string()
                },
            ];
            if tracked {
                self_row.extend(std::iter::repeat_n("-".to_string(), 5));
            }
            rows.push(self_row);
            let headers: &[&str] = if tracked {
                &[
                    "phase",
                    "total ms",
                    "self ms",
                    "share",
                    "flops",
                    "bytes moved",
                    "alloc",
                    "net alloc",
                    "heap peak",
                ]
            } else {
                &["phase", "total ms", "self ms", "share"]
            };
            md_table(&mut md, headers, &rows);
            let phase_sum: u64 = timing.phases.values().map(|stats| stats.total_ns).sum();
            json_iterations.push(json!({
                "iteration": timing.iteration,
                "wall_ns": timing.wall_ns,
                "self_ns": timing.self_ns,
                "phase_total_ns": phase_sum,
                "flops": timing.resources.flops,
                "bytes_moved": timing.resources.bytes_moved,
                "alloc_bytes": timing.resources.alloc_bytes,
                "heap_peak_bytes": timing.resources.heap_peak_bytes,
                "phases": phase_json,
            }));
        }
    }

    // Table II mirror: bit-width schedule and accuracy per iteration
    let mut schedule_rows = Vec::new();
    for event in &events {
        if let TelemetryEvent::IterationCompleted {
            iteration,
            epochs_trained,
            test_accuracy,
            record,
        } = event
        {
            schedule_rows.push(vec![
                iteration.to_string(),
                epochs_trained.to_string(),
                format!("{:.2}%", test_accuracy * 100.0),
                record
                    .get("total_ad")
                    .and_then(|v| v.as_f64())
                    .map_or_else(|| "-".to_string(), |ad| format!("{ad:.3}")),
                bits_from_record(record),
            ]);
        }
    }
    if !schedule_rows.is_empty() {
        md.push_str("## Bit-width schedule (Table II mirror)\n\n");
        md_table(
            &mut md,
            &["iter", "epochs", "test acc", "total AD", "bits"],
            &schedule_rows,
        );
    }

    // AD trend
    let mut ad_rows = Vec::new();
    for event in &events {
        if let TelemetryEvent::DensityMeasured {
            iteration,
            epoch,
            total_ad,
            ..
        } = event
        {
            ad_rows.push(vec![
                iteration.to_string(),
                epoch.to_string(),
                format!("{total_ad:.4}"),
            ]);
        }
    }
    if !ad_rows.is_empty() {
        md.push_str("## Activation-density trend\n\n");
        md_table(&mut md, &["iter", "epoch", "total AD"], &ad_rows);
    }

    // Energy breakdown (Table I model evaluations)
    let mut energy_rows = Vec::new();
    for event in &events {
        if let TelemetryEvent::EnergyEstimated {
            label,
            total_pj,
            efficiency_vs_baseline,
        } = event
        {
            energy_rows.push(vec![
                label.clone(),
                format!("{total_pj:.3e}"),
                format!("{efficiency_vs_baseline:.2}x"),
            ]);
        }
    }
    if !energy_rows.is_empty() {
        md.push_str("## Energy breakdown (Table I model)\n\n");
        md_table(
            &mut md,
            &["network", "total pJ", "efficiency vs baseline"],
            &energy_rows,
        );
    }

    // Optional metrics snapshot: hot-path histogram quantiles
    if let Some(metrics_path) = flag_value(args, "--metrics") {
        match std::fs::read_to_string(metrics_path)
            .map_err(|err| err.to_string())
            .and_then(|text| {
                serde_json::from_str::<serde_json::Value>(&text).map_err(|err| err.to_string())
            }) {
            Ok(snapshot) => {
                if let Some(histograms) = snapshot.get("histograms").and_then(|v| v.as_seq()) {
                    let mut rows = Vec::new();
                    for hist in histograms {
                        let cell = |key: &str| {
                            hist.get(key)
                                .and_then(|v| v.as_f64())
                                .map_or_else(|| "-".to_string(), |v| format!("{:.1}", v / 1e3))
                        };
                        rows.push(vec![
                            hist.get("name")
                                .and_then(|v| v.as_str())
                                .unwrap_or("?")
                                .to_string(),
                            hist.get("count")
                                .and_then(|v| v.as_u64())
                                .map_or_else(|| "-".to_string(), |v| v.to_string()),
                            cell("p50_ns"),
                            cell("p90_ns"),
                            cell("p99_ns"),
                        ]);
                    }
                    if !rows.is_empty() {
                        md.push_str("## Hot-path timing quantiles (µs)\n\n");
                        md_table(&mut md, &["histogram", "count", "p50", "p90", "p99"], &rows);
                    }
                }
            }
            Err(err) => eprintln!("adq-report: cannot read metrics {metrics_path}: {err}"),
        }
    }

    // Span-stream footer: drop accounting from TraceExported events
    for event in &events {
        if let TelemetryEvent::TraceExported {
            path: artifact,
            spans: count,
            dropped,
            format,
        } = event
        {
            md.push_str(&format!(
                "Exported {format} artifact `{artifact}` ({count} spans, {dropped} dropped).\n"
            ));
        }
    }

    match flag_value(args, "--out") {
        Some(out_path) => {
            if let Err(err) = std::fs::write(out_path, &md) {
                eprintln!("adq-report: cannot write {out_path}: {err}");
                return ExitCode::from(2);
            }
            println!("(wrote {out_path})");
        }
        None => print!("{md}"),
    }
    if let Some(json_path) = flag_value(args, "--json") {
        let doc = json!({
            "source": path,
            "iterations": json_iterations,
            "span_count": spans.len(),
        });
        let text = serde_json::to_string_pretty(&doc).unwrap_or_else(|_| "{}".to_string());
        if let Err(err) = std::fs::write(json_path, text) {
            eprintln!("adq-report: cannot write {json_path}: {err}");
            return ExitCode::from(2);
        }
        println!("(wrote {json_path})");
    }
    if let Some(memory_path) = flag_value(args, "--memory-json") {
        let records = memory_records(&timings);
        if records.is_empty() {
            eprintln!(
                "adq-report: no resource attribution in {path} (run with the counting \
                 allocator and ADQ_RESOURCES=1); skipping {memory_path}"
            );
        } else {
            let text = serde_json::to_string_pretty(&records).unwrap_or_else(|_| "[]".to_string());
            if let Err(err) = std::fs::write(memory_path, text) {
                eprintln!("adq-report: cannot write {memory_path}: {err}");
                return ExitCode::from(2);
            }
            println!("(wrote {memory_path})");
        }
    }
    if let Some(trace_path) = flag_value(args, "--reconcile-trace") {
        return reconcile_trace(trace_path, &timings);
    }
    ExitCode::SUCCESS
}

/// Per-phase memory records for `bench_check --key bytes`: for each
/// Algorithm-1 phase, the peak heap high-water mark and total allocated
/// bytes across iterations, in `{name, bytes}` rows named
/// `<phase>/peak` and `<phase>/alloc`.
fn memory_records(timings: &[IterationTiming]) -> Vec<serde_json::Value> {
    let mut peaks: BTreeMap<String, u64> = BTreeMap::new();
    let mut allocs: BTreeMap<String, u64> = BTreeMap::new();
    for timing in timings {
        for (name, stats) in &timing.phases {
            if !stats.resources.any() && stats.resources.heap_peak_bytes == 0 {
                continue;
            }
            let peak = peaks.entry(name.clone()).or_insert(0);
            *peak = (*peak).max(stats.resources.heap_peak_bytes);
            *allocs.entry(name.clone()).or_insert(0) += stats.resources.alloc_bytes;
        }
    }
    let mut records = Vec::new();
    for (name, bytes) in &peaks {
        records.push(json!({"name": format!("{name}/peak"), "bytes": bytes}));
    }
    for (name, bytes) in &allocs {
        records.push(json!({"name": format!("{name}/alloc"), "bytes": bytes}));
    }
    records
}

/// Checks that the exported Chrome trace tells the same per-iteration
/// story as the report: one `adq.iteration` event per iteration span, with
/// wall times agreeing within 1%.
fn reconcile_trace(trace_path: &str, timings: &[IterationTiming]) -> ExitCode {
    let doc: serde_json::Value = match std::fs::read_to_string(trace_path)
        .map_err(|err| err.to_string())
        .and_then(|text| serde_json::from_str(&text).map_err(|err| err.to_string()))
    {
        Ok(doc) => doc,
        Err(err) => {
            eprintln!("adq-report: cannot read trace {trace_path}: {err}");
            return ExitCode::from(2);
        }
    };
    let Some(events) = doc.get("traceEvents").and_then(|v| v.as_seq()) else {
        eprintln!("adq-report: {trace_path} has no traceEvents");
        return ExitCode::from(2);
    };
    let mut trace_walls: Vec<f64> = events
        .iter()
        .filter(|e| e.get("name").and_then(|v| v.as_str()) == Some("adq.iteration"))
        .filter_map(|e| e.get("dur").and_then(|v| v.as_f64()))
        .collect();
    trace_walls.sort_by(f64::total_cmp);
    let mut report_walls: Vec<f64> = timings.iter().map(|t| t.wall_ns as f64 / 1e3).collect();
    report_walls.sort_by(f64::total_cmp);
    if trace_walls.len() != report_walls.len() {
        eprintln!(
            "adq-report: trace has {} iteration events, report has {}",
            trace_walls.len(),
            report_walls.len()
        );
        return ExitCode::FAILURE;
    }
    for (trace_us, report_us) in trace_walls.iter().zip(&report_walls) {
        let tolerance = report_us.abs().max(1.0) * 0.01;
        if (trace_us - report_us).abs() > tolerance {
            eprintln!(
                "adq-report: iteration wall mismatch: trace {trace_us:.1} µs vs \
                 report {report_us:.1} µs (>1%)"
            );
            return ExitCode::FAILURE;
        }
    }
    println!(
        "{trace_path}: {} iteration(s) reconcile with the report within 1%",
        report_walls.len()
    );
    ExitCode::SUCCESS
}
