//! Shared reporting helpers for the table/figure regenerator binaries.
//!
//! Each binary under `src/bin/` regenerates one table or figure of the
//! paper (see DESIGN.md §4) and prints it in a paper-comparable layout;
//! results are also dumped as JSON under `results/` so EXPERIMENTS.md can
//! cite exact numbers.

pub mod plot;
pub mod watch;

use std::fs;
use std::path::Path;
use std::sync::{Arc, OnceLock};

use adq_core::{AdQuantizer, AdqOutcome, CheckpointManager};
use adq_nn::train::Dataset;
use adq_nn::QuantModel;
use adq_telemetry::{
    alloc, metrics, span, trace, JsonlSink, MetricsEndpoint, NullSink, TelemetryEvent,
    TelemetrySink,
};
use serde::Serialize;

/// Every regenerator binary and bench harness links the counting
/// allocator, so per-phase memory attribution (DESIGN.md §12) is
/// available the moment `ADQ_RESOURCES` turns tracking on. When
/// tracking is off the shim is one relaxed atomic load over the
/// system allocator.
#[global_allocator]
static ALLOC: adq_telemetry::CountingAllocator = adq_telemetry::CountingAllocator;

/// The shared `--telemetry <path.jsonl>` option of the regenerator
/// binaries: a sink plus the path it streams to (when one was given).
pub struct TelemetryOption {
    /// Where run events go; [`NullSink`] when the option is absent.
    pub sink: Arc<dyn TelemetrySink>,
    /// The JSONL path, if `--telemetry` was passed and the file opened.
    pub path: Option<String>,
}

/// Binds the Prometheus metrics endpoint when `ADQ_METRICS_ADDR` is
/// set (e.g. `127.0.0.1:9184`, or port `0` to let the OS pick). The
/// endpoint lives for the rest of the process; the bound address is
/// printed and, when `ADQ_METRICS_PORT_FILE` names a path, written
/// there so scripts scraping an OS-assigned port can find it.
///
/// Failures are reported but not fatal: the run's numbers are the
/// primary output, live observability is best-effort.
fn bind_metrics_endpoint_from_env() {
    static ENDPOINT: OnceLock<Option<MetricsEndpoint>> = OnceLock::new();
    ENDPOINT.get_or_init(|| {
        let addr = std::env::var("ADQ_METRICS_ADDR").ok()?;
        match MetricsEndpoint::bind(&addr, metrics::global()) {
            Ok(endpoint) => {
                let bound = endpoint.local_addr();
                println!("(metrics endpoint listening on {bound})");
                if let Ok(port_file) = std::env::var("ADQ_METRICS_PORT_FILE") {
                    if let Err(err) = fs::write(&port_file, bound.to_string()) {
                        eprintln!("warning: cannot write {port_file}: {err}");
                    }
                }
                Some(endpoint)
            }
            Err(err) => {
                eprintln!("warning: cannot bind metrics endpoint on {addr}: {err}");
                None
            }
        }
    });
}

/// Parses `--telemetry <path.jsonl>` from the process arguments.
///
/// Also performs the run-wide observability setup every regenerator
/// binary shares: resource tracking defaults **on** here (the bench
/// binaries carry the counting allocator; `ADQ_RESOURCES=0` opts out)
/// and the metrics endpoint is bound when `ADQ_METRICS_ADDR` is set.
///
/// Without the flag (or if the file cannot be created — reported, not
/// fatal) the returned sink is the no-op [`NullSink`], so binaries can
/// thread it unconditionally.
pub fn telemetry_from_args() -> TelemetryOption {
    alloc::init_from_env(true);
    bind_metrics_endpoint_from_env();
    let args: Vec<String> = std::env::args().collect();
    let flag = args.iter().position(|a| a == "--telemetry");
    let path = flag.and_then(|i| args.get(i + 1)).cloned();
    if flag.is_some() && path.is_none() {
        eprintln!("warning: --telemetry requires a path argument; telemetry disabled");
    }
    match path {
        Some(path) => match JsonlSink::create(&path) {
            Ok(sink) => {
                println!("(streaming telemetry to {path})");
                TelemetryOption {
                    sink: Arc::new(sink),
                    path: Some(path),
                }
            }
            Err(err) => {
                eprintln!("warning: cannot open telemetry file {path}: {err}");
                TelemetryOption {
                    sink: Arc::new(NullSink),
                    path: None,
                }
            }
        },
        None => TelemetryOption {
            sink: Arc::new(NullSink),
            path: None,
        },
    }
}

/// The shared `--checkpoint-dir <dir>` / `--resume` options of the
/// regenerator binaries that run Algorithm 1 end-to-end.
pub struct CheckpointOption {
    /// Open checkpoint directory, when `--checkpoint-dir` was given and
    /// usable.
    pub manager: Option<CheckpointManager>,
    /// Whether `--resume` was passed.
    pub resume: bool,
}

/// Parses `--checkpoint-dir <dir>` and `--resume` from the process
/// arguments.
///
/// Without `--checkpoint-dir` (or if the directory cannot be created —
/// reported, not fatal) checkpointing is disabled and [`CheckpointOption::run`]
/// degrades to a plain run.
pub fn checkpoint_from_args() -> CheckpointOption {
    let args: Vec<String> = std::env::args().collect();
    let resume = args.iter().any(|a| a == "--resume");
    let flag = args.iter().position(|a| a == "--checkpoint-dir");
    let dir = flag.and_then(|i| args.get(i + 1)).cloned();
    if flag.is_some() && dir.is_none() {
        eprintln!("warning: --checkpoint-dir requires a path argument; checkpointing disabled");
    }
    if resume && dir.is_none() {
        eprintln!("warning: --resume requires --checkpoint-dir <dir>; starting fresh");
    }
    let manager = dir.and_then(|d| match CheckpointManager::new(&d) {
        Ok(manager) => {
            println!("(checkpointing to {d})");
            Some(manager)
        }
        Err(err) => {
            eprintln!("warning: cannot open checkpoint dir {d}: {err}");
            None
        }
    });
    CheckpointOption { manager, resume }
}

impl CheckpointOption {
    /// Scopes the checkpoint directory to a named subdirectory, so binaries
    /// that drive several Algorithm-1 runs keep their checkpoints apart.
    pub fn scoped(&self, name: &str) -> CheckpointOption {
        let manager = self.manager.as_ref().and_then(|m| {
            let dir = m.dir().join(name);
            match CheckpointManager::new(&dir) {
                Ok(scoped) => Some(scoped),
                Err(err) => {
                    eprintln!(
                        "warning: cannot open checkpoint dir {}: {err}",
                        dir.display()
                    );
                    None
                }
            }
        });
        CheckpointOption {
            manager,
            resume: self.resume,
        }
    }

    /// Runs Algorithm 1 respecting the parsed flags: resume from the latest
    /// checkpoint when `--resume` found one, otherwise run fresh; write
    /// checkpoints whenever a directory is configured.
    ///
    /// `model` must be freshly built (the resume path replays the original
    /// run's structural edits onto it). A corrupted checkpoint or a
    /// checkpoint from a differently-configured run aborts the process with
    /// a diagnostic rather than silently recomputing from scratch.
    pub fn run(
        &self,
        controller: &AdQuantizer,
        model: &mut dyn QuantModel,
        train: &Dataset,
        test: &Dataset,
        sink: &dyn TelemetrySink,
    ) -> AdqOutcome {
        let Some(manager) = &self.manager else {
            return controller.run_with_sink(model, train, test, sink);
        };
        let resume_from = if self.resume {
            match manager.load_latest() {
                Ok(checkpoint) => checkpoint,
                Err(err) => {
                    eprintln!(
                        "error: cannot resume from {}: {err}",
                        manager.dir().display()
                    );
                    std::process::exit(2);
                }
            }
        } else {
            None
        };
        let result = match resume_from {
            Some(checkpoint) => {
                println!(
                    "(resuming from {} at iteration {})",
                    manager.dir().display(),
                    checkpoint.next_iteration
                );
                controller.resume_from(model, train, test, sink, checkpoint, Some(manager))
            }
            None => {
                if self.resume {
                    println!(
                        "(no checkpoint found in {}; starting fresh)",
                        manager.dir().display()
                    );
                }
                controller.run_checkpointed(model, train, test, sink, manager)
            }
        };
        match result {
            Ok(outcome) => outcome,
            Err(err) => {
                eprintln!("error: checkpointed run failed: {err}");
                std::process::exit(2);
            }
        }
    }
}

/// Exports the trace artifacts of a finished run: when tracing was on
/// (`ADQ_TRACE>=1`) and events streamed to a JSONL file, reads the
/// `SpanClosed` lines back, writes `<stem>.trace.json` (Chrome Trace Event
/// JSON) and `<stem>.folded` (collapsed stacks) next to the stream, and
/// records one [`TelemetryEvent::TraceExported`] per artifact into the
/// sink. Returns the two paths when both were written.
///
/// Failures are reported but not fatal, matching the other artifact
/// writers: the run's numbers are the primary output.
pub fn export_trace_artifacts(telemetry: &TelemetryOption) -> Option<(String, String)> {
    let path = telemetry.path.as_ref()?;
    if !span::enabled() {
        return None;
    }
    telemetry.sink.flush();
    let spans = match trace::read_spans_jsonl(path) {
        Ok(spans) => spans,
        Err(err) => {
            eprintln!("warning: cannot read spans back from {path}: {err}");
            return None;
        }
    };
    if spans.is_empty() {
        eprintln!("warning: no spans recorded in {path}; skipping trace export");
        return None;
    }
    let dropped = span::take_dropped();
    if dropped > 0 {
        // Surface lossy tracing where dashboards can see it: the
        // scrapeable counter feeds the endpoint, the TraceExported
        // events below feed adq-report's warning banner.
        metrics::global()
            .counter("telemetry.spans.dropped")
            .add(dropped);
        eprintln!("warning: {dropped} span(s) dropped during tracing; trace is incomplete");
    }
    let stem = path.strip_suffix(".jsonl").unwrap_or(path);
    let trace_path = format!("{stem}.trace.json");
    let folded_path = format!("{stem}.folded");
    for (artifact, format, write) in [
        (
            &trace_path,
            "chrome-trace",
            trace::write_chrome_trace(&trace_path, &spans),
        ),
        (
            &folded_path,
            "collapsed-stacks",
            trace::write_collapsed_stacks(&folded_path, &spans),
        ),
    ] {
        match write {
            Ok(()) => {
                telemetry.sink.record(&TelemetryEvent::TraceExported {
                    path: artifact.clone(),
                    spans: spans.len() as u64,
                    dropped,
                    format: format.to_string(),
                });
                println!("(wrote {artifact}: {} spans)", spans.len());
            }
            Err(err) => {
                eprintln!("warning: cannot write {artifact}: {err}");
                return None;
            }
        }
    }
    telemetry.sink.flush();
    Some((trace_path, folded_path))
}

/// Writes the run manifest (`results/<name>_manifest.json`) and a snapshot
/// of the process-wide metrics registry (`results/<name>_metrics.json`) —
/// hot-path timing histograms for `tensor.im2col`, `tensor.matmul`,
/// `quant.forward` and `ad.meter` among them.
pub fn write_run_artifacts(name: &str, manifest: &serde_json::Value) {
    write_json(&format!("{name}_manifest"), manifest);
    write_json(
        &format!("{name}_metrics"),
        &adq_telemetry::metrics::global().snapshot(),
    );
}

/// Prints an aligned plain-text table.
///
/// # Panics
///
/// Panics if any row's length differs from the header's.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    for row in rows {
        assert_eq!(row.len(), headers.len(), "ragged table row");
    }
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let header_line: Vec<String> = headers
        .iter()
        .zip(&widths)
        .map(|(h, w)| format!("{h:<w$}"))
        .collect();
    println!("{}", header_line.join(" | "));
    println!("{}", "-".repeat(header_line.join(" | ").len()));
    for row in rows {
        let line: Vec<String> = row
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:<w$}"))
            .collect();
        println!("{}", line.join(" | "));
    }
}

/// Serialises a result payload to `results/<name>.json`, creating the
/// directory if needed. Failures are reported but not fatal — the printed
/// table is the primary artefact.
pub fn write_json<T: Serialize>(name: &str, value: &T) {
    let dir = Path::new("results");
    if let Err(err) = fs::create_dir_all(dir) {
        eprintln!("warning: cannot create results dir: {err}");
        return;
    }
    match serde_json::to_string_pretty(value) {
        Ok(json) => {
            let path = dir.join(format!("{name}.json"));
            if let Err(err) = fs::write(&path, json) {
                eprintln!("warning: cannot write {}: {err}", path.display());
            } else {
                println!("(wrote results/{name}.json)");
            }
        }
        Err(err) => eprintln!("warning: cannot serialise {name}: {err}"),
    }
}

/// Formats an optional bit-width column entry.
pub fn fmt_bits(bits: Option<adq_quant::BitWidth>) -> String {
    bits.map_or_else(|| "fp32".to_string(), |b| format!("{}", b.get()))
}

/// Formats a bit-width vector like the paper's tables:
/// `[16, 4, 5, 4, ..., 16]`.
pub fn fmt_bits_list(bits: &[Option<adq_quant::BitWidth>]) -> String {
    let inner: Vec<String> = bits
        .iter()
        .map(|b| b.map_or_else(|| "fp".into(), |b| b.get().to_string()))
        .collect();
    format!("[{}]", inner.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;
    use adq_quant::BitWidth;

    #[test]
    fn fmt_bits_handles_both_cases() {
        assert_eq!(fmt_bits(None), "fp32");
        assert_eq!(fmt_bits(Some(BitWidth::new(5).unwrap())), "5");
    }

    #[test]
    fn fmt_bits_list_matches_paper_style() {
        let bits = vec![
            Some(BitWidth::SIXTEEN),
            Some(BitWidth::new(4).unwrap()),
            None,
        ];
        assert_eq!(fmt_bits_list(&bits), "[16, 4, fp]");
    }

    #[test]
    #[should_panic]
    fn ragged_rows_panic() {
        print_table("t", &["a", "b"], &[vec!["x".into()]]);
    }
}
