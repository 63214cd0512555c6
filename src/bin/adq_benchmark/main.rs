//! `adq_benchmark` — one command for Algorithm-1 training time and
//! mixed-precision serving latency and capacity, with a per-layer traced
//! run. `README.md` beside this file describes the workloads and metrics;
//! `BENCHMARK.json` at the repository root names them and fixes each
//! end-to-end metric's regression bound.
//!
//! ```text
//! adq_benchmark --workload W --seed N --seconds S --trace 0|1
//!               [--trace-dir DIR] [--strict]
//! adq_benchmark run [--seed N] [--workload W] [--seconds S] [--out FILE]
//!                   [--trace DIR] [--strict]
//! adq_benchmark compare A.jsonl B.jsonl
//! ```
//!
//! The first form measures one workload in this process and prints, as
//! its last line, `{"correct", "attempted", "failed", "metrics"}`: every
//! end-to-end metric with `--trace 0`, every per-layer metric with
//! `--trace 1`. `run` measures each workload in a fresh child process of
//! itself (so set-up time and peak memory stay per workload) and appends
//! one summary line to `--out`. `compare` judges two sets of such lines
//! against the bounds in `BENCHMARK.json`.

mod compare;
mod load;
mod probes;
mod spans;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

use serde_json::{json, Value};

use spans::Tracer;
use workloads::{Measured, Workload};

/// The benchmark's contract: workload and metric names, units, bounds.
pub const BENCHMARK_JSON: &str = include_str!("../../../BENCHMARK.json");

/// Where a traced run writes its files unless told otherwise.
const DEFAULT_TRACE_DIR: &str = "target/adq_benchmark/trace";

/// A metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Allowed worsening as a share of the baseline median (end-to-end).
    pub bound: Option<f64>,
}

/// The parsed contract.
pub struct Contract {
    pub run_seconds: u64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

impl Contract {
    pub fn parse(text: &str) -> Result<Contract, String> {
        let doc: Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
        let metrics = |key: &str| -> Result<Vec<MetricSpec>, String> {
            doc.get(key)
                .and_then(Value::as_seq)
                .ok_or(format!("`{key}` is not a list"))?
                .iter()
                .map(|m| {
                    let field = |k: &str| {
                        m.get(k)
                            .and_then(Value::as_str)
                            .map(str::to_string)
                            .ok_or(format!("a `{key}` entry lacks `{k}`"))
                    };
                    Ok(MetricSpec {
                        name: field("name")?,
                        unit: field("unit")?,
                        higher_is_better: field("better")? == "higher",
                        bound: m.get("bound").and_then(Value::as_f64),
                    })
                })
                .collect()
        };
        Ok(Contract {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Value::as_u64)
                .ok_or("`run_seconds` missing")?,
            workloads: doc
                .get("workloads")
                .and_then(Value::as_seq)
                .ok_or("`workloads` is not a list")?
                .iter()
                .filter_map(|w| w.get("name").and_then(Value::as_str).map(str::to_string))
                .collect(),
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }

    pub fn embedded() -> Contract {
        Contract::parse(BENCHMARK_JSON).expect("the embedded BENCHMARK.json parses")
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("compare") => compare::cmd_compare(&args[1..]),
        Some("help" | "--help" | "-h") | None => {
            println!("{}", usage());
            return ExitCode::SUCCESS;
        }
        Some(_) => cmd_measure(&args),
    };
    match result {
        Ok(code) => code,
        Err(err) => {
            eprintln!("error: {err}");
            ExitCode::from(2)
        }
    }
}

fn usage() -> &'static str {
    "usage: adq_benchmark --workload W --seed N --seconds S --trace 0|1 [--trace-dir DIR] [--strict]\n\
     \x20      adq_benchmark run [--seed N] [--workload W] [--seconds S] [--out FILE] [--trace DIR] [--strict]\n\
     \x20      adq_benchmark compare A.jsonl B.jsonl\n\
     workloads: train, serve-c1, serve-mixed-c1, serve-open"
}

/// `--name value` pairs; bare `--strict` is a switch.
fn parse_flags(args: &[String]) -> Result<BTreeMap<String, String>, String> {
    let mut flags = BTreeMap::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let name = arg
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{arg}`\n{}", usage()))?;
        if name == "strict" {
            flags.insert(name.to_string(), "1".to_string());
            continue;
        }
        let value = iter
            .next()
            .ok_or_else(|| format!("flag --{name} needs a value"))?;
        flags.insert(name.to_string(), value.clone());
    }
    Ok(flags)
}

fn flag<T: std::str::FromStr>(
    flags: &BTreeMap<String, String>,
    name: &str,
    default: Option<T>,
) -> Result<T, String> {
    match flags.get(name) {
        Some(raw) => raw
            .parse()
            .map_err(|_| format!("flag --{name}: cannot parse `{raw}`")),
        None => default.ok_or_else(|| format!("flag --{name} is required")),
    }
}

/// Load-generation and worker threads: `min(nproc, 2)`.
fn load_threads() -> usize {
    nproc().min(2)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// One workload measured in this process.
fn cmd_measure(args: &[String]) -> Result<ExitCode, String> {
    let flags = parse_flags(args)?;
    let name: String = flag(&flags, "workload", None)?;
    let workload = Workload::parse(&name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let seed: u64 = flag(&flags, "seed", None)?;
    let seconds: f64 = flag(&flags, "seconds", None)?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} is outside (0, 600]"));
    }
    let traced = match flag::<u8>(&flags, "trace", Some(0))? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace takes 0 or 1, not {other}")),
    };
    // the worker pool reads this once, at its first use below
    if std::env::var_os("RAYON_NUM_THREADS").is_none() {
        std::env::set_var("RAYON_NUM_THREADS", load_threads().to_string());
    }
    let contract = Contract::embedded();
    // a traced run sends the same traffic, so its end-to-end values less
    // the untraced run's are the tracing overhead; the probes come after
    let window = Duration::from_secs_f64(seconds);
    let mut tracer = Tracer::new(traced);

    let trace_dir = PathBuf::from(flag(
        &flags,
        "trace-dir",
        Some(DEFAULT_TRACE_DIR.to_string()),
    )?);
    let log_path = trace_dir.join(format!("{name}.access.jsonl"));
    if traced {
        std::fs::create_dir_all(&trace_dir)
            .map_err(|e| format!("cannot create {}: {e}", trace_dir.display()))?;
    }
    let log = traced.then_some(log_path.as_path());
    let (measured, serving) = measure(workload, seed, window, &mut tracer, log);

    let mut strict_failed = false;
    let mut detail = Vec::new();
    let metrics = if traced {
        let layers = probes::run(
            workload,
            seed,
            &mut tracer,
            serving,
            &log_path,
            measured.stages_until,
        );
        strict_failed = flags.contains_key("strict") && !layers.reconciled;
        detail = layers.detail;
        detail.push(("reconciled".into(), json!(layers.reconciled)));
        let traced_e2e = measured.metrics.iter().map(|(n, v)| (n.clone(), json!(*v)));
        detail.push(("traced_end_to_end".into(), Value::Map(traced_e2e.collect())));
        tracer
            .write(&trace_dir, &name)
            .map_err(|e| format!("cannot write the trace: {e}"))?;
        write_layers_json(&trace_dir, &name, &layers.all)?;
        pick(&contract.per_layer, &layers.all)?
    } else {
        if let Some(mut serving) = serving {
            serving.server.shutdown();
        }
        pick(&contract.end_to_end, &measured.metrics)?
    };
    let status = exit_status(measured.failed, strict_failed);
    let correct = status == 0;
    detail.extend(measured.detail.iter().cloned());
    detail.extend([
        (
            "error_rate".to_string(),
            json!(error_rate(measured.attempted, measured.failed)),
        ),
        (
            "threads".to_string(),
            json!(adq::tensor::dispatch::current_num_threads()),
        ),
        ("nproc".to_string(), json!(nproc())),
        ("seed".to_string(), json!(seed)),
    ]);
    for (name, value, unit) in &metrics {
        println!("{:<28} {value:>14.6} {unit}", name);
    }
    println!(
        "{}",
        serde_json::to_string(&json!({"detail": Value::Map(detail)})).expect("detail serializes")
    );
    let result = json!({
        "correct": correct,
        "attempted": measured.attempted,
        "failed": measured.failed,
        "metrics": Value::Map(
            metrics
                .iter()
                .map(|(n, v, u)| (n.clone(), json!({"value": *v, "unit": u.clone()})))
                .collect(),
        ),
    });
    println!(
        "{}",
        serde_json::to_string(&result).expect("result serializes")
    );
    std::io::stdout().flush().ok();
    Ok(ExitCode::from(status))
}

/// Share of attempted operations that failed: errors, sheds, wrong or
/// missing outputs.
fn error_rate(attempted: u64, failed: u64) -> f64 {
    failed as f64 / attempted.max(1) as f64
}

/// Exit status of a measured run: 0 only when every output was correct
/// (and, under `--strict`, the traced parts reconciled with the whole).
fn exit_status(failed: u64, strict_failed: bool) -> u8 {
    u8::from(failed > 0 || strict_failed)
}

/// Runs `workload`'s measured phase; serving workloads hand back their
/// still-running server for the per-layer probes.
fn measure(
    workload: Workload,
    seed: u64,
    window: Duration,
    tracer: &mut Tracer,
    log: Option<&Path>,
) -> (Measured, Option<workloads::Serving>) {
    match workload {
        Workload::Train => (workloads::measure_train(seed, window, tracer), None),
        Workload::ServeOpen => {
            let (m, serving) = workloads::measure_open(seed, window, tracer, log);
            (m, Some(serving))
        }
        Workload::ServeC1 | Workload::ServeMixedC1 => {
            let bits = workload.serving_bits().expect("a serving workload");
            let (m, serving) = workloads::measure_closed(seed, &bits, window, tracer, log);
            (m, Some(serving))
        }
    }
}

/// The declared metrics, in declaration order, from what was measured.
/// A declared metric that was not measured, or is not finite, is a bug.
fn pick(
    declared: &[MetricSpec],
    measured: &[(String, f64)],
) -> Result<Vec<(String, f64, String)>, String> {
    declared
        .iter()
        .map(|spec| {
            let value = measured
                .iter()
                .find(|(n, _)| *n == spec.name)
                .map(|(_, v)| *v)
                .ok_or_else(|| format!("metric `{}` was not measured", spec.name))?;
            if !value.is_finite() {
                return Err(format!("metric `{}` is {value}", spec.name));
            }
            Ok((spec.name.clone(), value, spec.unit.clone()))
        })
        .collect()
}

fn write_layers_json(dir: &Path, workload: &str, all: &[(String, f64)]) -> Result<(), String> {
    let path = dir.join("layers.json");
    // one file for every workload traced into this directory
    let mut doc = std::fs::read_to_string(&path)
        .ok()
        .and_then(|text| serde_json::from_str::<Value>(&text).ok())
        .and_then(|v| v.as_map().map(<[(String, Value)]>::to_vec))
        .unwrap_or_default();
    doc.retain(|(k, _)| k != workload);
    doc.push((
        workload.to_string(),
        Value::Map(all.iter().map(|(n, v)| (n.clone(), json!(*v))).collect()),
    ));
    let text = serde_json::to_string_pretty(&Value::Map(doc)).expect("layers serialize");
    std::fs::write(&path, text + "\n").map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// One child run's parsed output.
struct ChildRun {
    result: Value,
    detail: Value,
}

/// Runs one workload in a fresh child process of this binary.
fn run_child(
    workload: &str,
    seed: u64,
    seconds: u64,
    trace_dir: Option<&Path>,
    strict: bool,
) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate myself: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .env("RAYON_NUM_THREADS", load_threads().to_string())
        .stdout(Stdio::piped());
    match trace_dir {
        Some(dir) => {
            command.args(["--trace", "1", "--trace-dir"]).arg(dir);
            if strict {
                command.arg("--strict");
            }
        }
        None => {
            command.args(["--trace", "0"]);
        }
    }
    let output = command
        .output()
        .map_err(|e| format!("cannot run {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    for line in &lines {
        if !line.starts_with('{') {
            println!("  {workload}: {line}");
        }
    }
    let parse = |line: Option<&&str>| -> Result<Value, String> {
        let line = line.ok_or_else(|| format!("{workload} printed no result"))?;
        serde_json::from_str(line).map_err(|e| format!("{workload}: unparsable line: {e}"))
    };
    let result = parse(lines.last())?;
    let detail = parse(lines.len().checked_sub(2).and_then(|i| lines.get(i)))?
        .get("detail")
        .cloned()
        .unwrap_or(Value::Null);
    Ok(ChildRun { result, detail })
}

/// `run`: every (or one) workload in its own child process.
fn cmd_run(args: &[String]) -> Result<ExitCode, String> {
    let flags = parse_flags(args)?;
    let contract = Contract::embedded();
    let seed: u64 = flag(&flags, "seed", Some(1))?;
    let seconds: u64 = flag(&flags, "seconds", Some(contract.run_seconds))?;
    let strict = flags.contains_key("strict");
    let trace_dir = flags.get("trace").map(PathBuf::from);
    let selected: Vec<String> = match flags.get("workload") {
        Some(name) if Workload::parse(name).is_some() => vec![name.clone()],
        Some(name) => return Err(format!("unknown workload `{name}`")),
        None => contract.workloads.clone(),
    };

    let mut all_ok = true;
    let mut summary = Vec::new();
    for workload in &selected {
        println!("== {workload} (seed {seed}, {seconds} s)");
        let run = run_child(workload, seed, seconds, None, false)?;
        let attempted = run
            .result
            .get("attempted")
            .and_then(Value::as_u64)
            .unwrap_or(0);
        let failed = run
            .result
            .get("failed")
            .and_then(Value::as_u64)
            .unwrap_or(0);
        let correct = run.result.get("correct").and_then(Value::as_bool) == Some(true);
        all_ok &= correct;
        let rate = error_rate(attempted, failed);
        println!("  {workload}: correct {correct}, error_rate {rate:.6} ({failed} of {attempted})");
        let metrics = run.result.get("metrics").cloned().unwrap_or(Value::Null);
        let mut entry = vec![
            ("correct".to_string(), json!(correct)),
            ("attempted".to_string(), json!(attempted)),
            ("failed".to_string(), json!(failed)),
            ("error_rate".to_string(), json!(rate)),
            ("metrics".to_string(), metrics.clone()),
            ("detail".to_string(), run.detail),
        ];
        if let Some(dir) = &trace_dir {
            let traced = run_child(workload, seed, seconds, Some(dir), strict)?;
            let ok = traced.result.get("correct").and_then(Value::as_bool) == Some(true);
            all_ok &= ok;
            let overhead = tracing_overhead(&metrics, traced.detail.get("traced_end_to_end"));
            println!(
                "  {workload}: traced run correct {ok}; tracing overhead (traced - untraced):"
            );
            for (name, delta) in overhead.as_map().unwrap_or_default() {
                println!("    {name:<24} {:+.6}", delta.as_f64().unwrap_or(f64::NAN));
            }
            entry.push(("tracing_overhead".to_string(), overhead));
            entry.push((
                "per_layer".to_string(),
                traced.result.get("metrics").cloned().unwrap_or(Value::Null),
            ));
        }
        summary.push((workload.clone(), Value::Map(entry)));
    }
    let doc = json!({
        "claim": null,
        "seed": seed,
        "seconds": seconds,
        "threads": load_threads(),
        "nproc": nproc(),
        "workloads": Value::Map(summary),
    });
    if let Some(out) = flags.get("out") {
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(out)
            .map_err(|e| format!("cannot open {out}: {e}"))?;
        writeln!(
            file,
            "{}",
            serde_json::to_string(&doc).expect("summary serializes")
        )
        .map_err(|e| format!("cannot write {out}: {e}"))?;
        println!("appended the summary to {out}");
    }
    Ok(if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Traced minus untraced value of every end-to-end metric both have.
fn tracing_overhead(untraced: &Value, traced: Option<&Value>) -> Value {
    let entries = untraced
        .as_map()
        .unwrap_or_default()
        .iter()
        .filter_map(|(name, m)| {
            let base = m.get("value")?.as_f64()?;
            let with = traced?.get(name)?.as_f64()?;
            Some((name.clone(), json!(with - base)))
        })
        .collect();
    Value::Map(entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_contract_names_every_workload_and_metric_this_binary_measures() {
        let contract = Contract::embedded();
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(contract.workloads, names);
        assert!(contract.end_to_end.iter().any(|m| m.name == "setup_s"));
        for spec in contract.end_to_end.iter().chain(&contract.per_layer) {
            assert!(
                spec.name.len() <= 64
                    && spec
                        .name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{}",
                spec.name
            );
        }
        for spec in &contract.end_to_end {
            let bound = spec.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}", spec.name);
        }
        assert!(contract.per_layer.len() <= 128);
    }

    /// A served int8 model answered against a one-image pool: correct
    /// expectations pass, a single flipped logit bit fails every answer.
    #[test]
    fn a_corrupted_expected_logit_fails_the_run() {
        use std::sync::Arc;
        use std::time::Duration;

        let (_, compiled) = workloads::serving_model(3, &[8; 7]);
        let compiled = Arc::new(compiled);
        let mut pool = workloads::image_pool_of(&compiled, 3, 1);
        let mut server = workloads::start_server(compiled, None);
        let addr = server.local_addr();
        let window = Duration::from_millis(100);
        let clean = load::closed_loop(addr, &pool, 1, window).unwrap();
        pool.expected[0][3] = f32::from_bits(pool.expected[0][3].to_bits() ^ 1);
        let corrupted = load::closed_loop(addr, &pool, 1, window).unwrap();
        server.shutdown();

        assert!(clean.sent > 0 && corrupted.sent > 0);
        assert_eq!(error_rate(clean.sent, clean.failed()), 0.0);
        assert_eq!(exit_status(clean.failed(), false), 0);
        assert_eq!(corrupted.wrong, corrupted.sent);
        assert!(error_rate(corrupted.sent, corrupted.failed()) > 0.0);
        assert_ne!(exit_status(corrupted.failed(), false), 0);
        assert_ne!(exit_status(0, true), 0);
    }

    #[test]
    fn pick_orders_by_declaration_and_refuses_gaps() {
        let declared = vec![
            MetricSpec {
                name: "b".into(),
                unit: "s".into(),
                higher_is_better: false,
                bound: Some(0.1),
            },
            MetricSpec {
                name: "a".into(),
                unit: "ms".into(),
                higher_is_better: false,
                bound: Some(0.1),
            },
        ];
        let measured = vec![
            ("a".to_string(), 1.0),
            ("b".to_string(), 2.0),
            ("c".to_string(), 3.0),
        ];
        let picked = pick(&declared, &measured).unwrap();
        assert_eq!(picked[0], ("b".to_string(), 2.0, "s".to_string()));
        assert_eq!(picked[1], ("a".to_string(), 1.0, "ms".to_string()));
        assert!(pick(&declared, &measured[..1]).is_err());
        assert!(pick(&declared[..1], &[("b".to_string(), f64::NAN)]).is_err());
    }
}
