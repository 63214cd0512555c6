//! Live run monitoring: the logic behind the `adq-watch` binary.
//!
//! `adq-watch` tails a run's telemetry JSONL (the `--telemetry` stream of
//! any regenerator binary) and renders a refreshing text dashboard —
//! loss/accuracy/AD trend, current bit schedule, epoch rate and
//! iteration ETA — while a [`HealthMonitor`] raises typed [`RunHealth`]
//! anomalies (non-finite loss, accuracy collapse, stalled run).
//!
//! Everything stateful lives in [`WatchState`], which is pure over
//! `(line, now_secs)` observations: the clock is always passed in, so
//! tests drive the dashboard and the watchdog deterministically without
//! sleeping. Only [`follow`] touches the wall clock and the terminal.

use std::collections::{BTreeMap, VecDeque};
use std::fs::File;
use std::io::{BufRead, BufReader, Seek, SeekFrom};
use std::path::Path;

use adq_telemetry::health::{DEFAULT_COLLAPSE_FRACTION, DEFAULT_STALL_SECS, DEFAULT_WARMUP_EPOCHS};
use adq_telemetry::lifecycle::{self, LogLine, LogSummary, RequestRecord};
use adq_telemetry::{HealthMonitor, RunHealth};
use serde_json::Value;

/// Points kept per trend series (loss / accuracy / total AD).
const TREND_WINDOW: usize = 64;

/// Epoch arrivals kept for the epoch-rate / ETA estimate.
const RATE_WINDOW: usize = 16;

/// Unicode sparkline ramp, low to high.
const SPARKS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// Rolling view of one run's telemetry stream plus its health monitor.
pub struct WatchState {
    /// Run label from `RunStarted` (e.g. `table2_quantization`).
    pub run: Option<String>,
    /// Seed from `RunStarted`.
    pub seed: Option<u64>,
    /// Worker threads from `WorkerPoolConfigured`.
    pub threads: Option<u64>,
    /// Epoch budget per iteration, from the run config when present.
    pub max_epochs: Option<u64>,
    /// Iteration cap `N`, from the run config when present.
    pub max_iterations: Option<u64>,
    /// Latest Algorithm-1 iteration seen.
    pub iteration: u64,
    /// Latest epoch within that iteration.
    pub epoch: u64,
    /// Trailing training-loss series (non-finite kept as NaN).
    pub loss: Vec<f64>,
    /// Trailing training-accuracy series.
    pub accuracy: Vec<f64>,
    /// Trailing network-mean activation density series.
    pub total_ad: Vec<f64>,
    /// Current bit schedule: layer index → assigned bits.
    pub bits: BTreeMap<u64, u64>,
    /// Channels-pruned events seen.
    pub pruned: u64,
    /// Dead-layer removals seen.
    pub removed: u64,
    /// Latest energy estimate `(label, total_pj, efficiency)`.
    pub energy: Option<(String, f64, f64)>,
    /// Final `(iterations, final_accuracy)` once `RunCompleted` arrives.
    pub completed: Option<(u64, f64)>,
    /// Events applied so far.
    pub events: u64,
    /// Lines that failed to parse as telemetry events.
    pub malformed: u64,
    /// Every anomaly raised so far, in arrival order.
    pub alerts: Vec<RunHealth>,
    /// Arrival clocks of recent `EpochCompleted` events, for the rate
    /// estimate.
    epoch_arrivals: Vec<f64>,
    /// Clock of the last applied event, for the stall watchdog.
    last_event_secs: f64,
    health: HealthMonitor,
}

impl Default for WatchState {
    fn default() -> Self {
        Self::new()
    }
}

impl WatchState {
    /// A fresh dashboard with the default health thresholds.
    pub fn new() -> Self {
        Self::with_monitor(HealthMonitor::new(
            DEFAULT_COLLAPSE_FRACTION,
            DEFAULT_WARMUP_EPOCHS,
            DEFAULT_STALL_SECS,
        ))
    }

    /// A fresh dashboard around a custom-threshold monitor.
    pub fn with_monitor(health: HealthMonitor) -> Self {
        Self {
            run: None,
            seed: None,
            threads: None,
            max_epochs: None,
            max_iterations: None,
            iteration: 0,
            epoch: 0,
            loss: Vec::new(),
            accuracy: Vec::new(),
            total_ad: Vec::new(),
            bits: BTreeMap::new(),
            pruned: 0,
            removed: 0,
            energy: None,
            completed: None,
            events: 0,
            malformed: 0,
            alerts: Vec::new(),
            epoch_arrivals: Vec::new(),
            last_event_secs: 0.0,
            health,
        }
    }

    /// Applies one JSONL line observed at `now_secs` (any monotonic
    /// clock, seconds). Returns the anomalies this line raised; they
    /// are also appended to [`WatchState::alerts`].
    ///
    /// Unknown tags are counted as events and ignored; unparsable lines
    /// bump [`WatchState::malformed`] (a live tailer can catch a line
    /// mid-write — the rewritten complete line arrives next poll).
    pub fn apply_line(&mut self, line: &str, now_secs: f64) -> Vec<RunHealth> {
        let line = line.trim();
        if line.is_empty() {
            return Vec::new();
        }
        let Ok(value) = serde_json::from_str::<Value>(line) else {
            self.malformed += 1;
            return Vec::new();
        };
        let Some((tag, payload)) = value.as_map().and_then(|m| m.first()) else {
            self.malformed += 1;
            return Vec::new();
        };
        self.events += 1;
        self.last_event_secs = now_secs;
        self.health.reset_stall();
        let mut raised = Vec::new();
        match tag.as_str() {
            "RunStarted" => {
                self.run = payload.get("run").and_then(Value::as_str).map(String::from);
                self.seed = payload.get("seed").and_then(Value::as_u64);
                if let Some(config) = payload.get("config") {
                    self.max_epochs = config
                        .get("max_epochs_per_iteration")
                        .and_then(Value::as_u64);
                    self.max_iterations = config.get("max_iterations").and_then(Value::as_u64);
                }
                // Streams can hold several back-to-back runs (baseline,
                // then quantized): the new run starting from scratch
                // accuracy is not a collapse of the previous one.
                self.health.reset_run();
                self.bits.clear();
                self.epoch_arrivals.clear();
            }
            "WorkerPoolConfigured" => {
                self.threads = payload.get("threads").and_then(Value::as_u64);
            }
            "EpochCompleted" => {
                let iteration = payload
                    .get("iteration")
                    .and_then(Value::as_u64)
                    .unwrap_or(0);
                let epoch = payload.get("epoch").and_then(Value::as_u64).unwrap_or(0);
                // Non-finite floats serialize as JSON null: read them
                // back as NaN so the health monitor sees the bad loss.
                let loss = non_finite_aware_f64(payload.get("loss"));
                let accuracy = non_finite_aware_f64(payload.get("accuracy"));
                self.iteration = iteration;
                self.epoch = epoch;
                push_trend(&mut self.loss, loss);
                push_trend(&mut self.accuracy, accuracy);
                self.epoch_arrivals.push(now_secs);
                if self.epoch_arrivals.len() > RATE_WINDOW {
                    self.epoch_arrivals.remove(0);
                }
                raised =
                    self.health
                        .observe_epoch(iteration as usize, epoch as usize, loss, accuracy);
            }
            "DensityMeasured" => {
                push_trend(
                    &mut self.total_ad,
                    non_finite_aware_f64(payload.get("total_ad")),
                );
            }
            "BitWidthAssigned" => {
                if let (Some(layer), Some(bits)) = (
                    payload.get("layer").and_then(Value::as_u64),
                    payload.get("new_bits").and_then(Value::as_u64),
                ) {
                    self.bits.insert(layer, bits);
                }
            }
            "LayerPruned" => self.pruned += 1,
            "LayerRemoved" => {
                self.removed += 1;
                if let Some(layer) = payload.get("layer").and_then(Value::as_u64) {
                    self.bits.remove(&layer);
                }
            }
            "EnergyEstimated" => {
                self.energy = Some((
                    payload
                        .get("label")
                        .and_then(Value::as_str)
                        .unwrap_or("?")
                        .to_string(),
                    non_finite_aware_f64(payload.get("total_pj")),
                    non_finite_aware_f64(payload.get("efficiency_vs_baseline")),
                ));
            }
            "RunCompleted" => {
                self.completed = Some((
                    payload
                        .get("iterations")
                        .and_then(Value::as_u64)
                        .unwrap_or(0),
                    non_finite_aware_f64(payload.get("final_accuracy")),
                ));
            }
            _ => {}
        }
        self.alerts.extend(raised.iter().cloned());
        raised
    }

    /// Runs the stalled-iteration watchdog against `now_secs`. Only
    /// meaningful in follow mode — a finished file is idle by nature.
    pub fn check_stall(&mut self, now_secs: f64) -> Option<RunHealth> {
        if self.events == 0 || self.completed.is_some() {
            return None;
        }
        let idle = (now_secs - self.last_event_secs).max(0.0) as u64;
        let raised = self.health.check_stall(idle);
        if let Some(alert) = &raised {
            self.alerts.push(alert.clone());
        }
        raised
    }

    /// Epochs per second over the recent arrival window.
    pub fn epoch_rate(&self) -> Option<f64> {
        let (first, last) = (self.epoch_arrivals.first()?, self.epoch_arrivals.last()?);
        let spanned = self.epoch_arrivals.len() - 1;
        if spanned == 0 || last <= first {
            return None;
        }
        Some(spanned as f64 / (last - first))
    }

    /// Seconds until the current iteration exhausts its epoch budget at
    /// the observed epoch rate (saturation can end it earlier).
    pub fn iteration_eta_secs(&self) -> Option<f64> {
        let rate = self.epoch_rate()?;
        let remaining = self.max_epochs?.saturating_sub(self.epoch);
        Some(remaining as f64 / rate)
    }

    /// Renders the dashboard as plain text (no cursor control — follow
    /// mode clears the screen around it).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let run = self.run.as_deref().unwrap_or("(awaiting RunStarted)");
        out.push_str(&format!("== adq-watch: {run} ==\n"));
        let mut line = format!("events {:>6}", self.events);
        if let Some(seed) = self.seed {
            line.push_str(&format!("  seed {seed}"));
        }
        if let Some(threads) = self.threads {
            line.push_str(&format!("  threads {threads}"));
        }
        if self.malformed > 0 {
            line.push_str(&format!("  malformed {}", self.malformed));
        }
        out.push_str(&line);
        out.push('\n');
        let progress = match (self.max_iterations, self.max_epochs) {
            (Some(n), Some(e)) => {
                format!("iteration {}/{n}  epoch {}/{e}", self.iteration, self.epoch)
            }
            _ => format!("iteration {}  epoch {}", self.iteration, self.epoch),
        };
        out.push_str(&progress);
        if let Some(rate) = self.epoch_rate() {
            out.push_str(&format!("  ({rate:.2} epochs/s"));
            match self.iteration_eta_secs() {
                Some(eta) => out.push_str(&format!(", iteration ETA {eta:.0}s)")),
                None => out.push(')'),
            }
        }
        out.push('\n');
        for (label, series) in [
            ("loss    ", &self.loss),
            ("accuracy", &self.accuracy),
            ("total AD", &self.total_ad),
        ] {
            if let Some(latest) = series.last() {
                out.push_str(&format!("{label} {latest:>9.4}  {}\n", sparkline(series)));
            }
        }
        if !self.bits.is_empty() {
            let schedule: Vec<String> = self
                .bits
                .iter()
                .map(|(layer, bits)| format!("L{layer}:{bits}"))
                .collect();
            out.push_str(&format!("bits     [{}]\n", schedule.join(" ")));
        }
        if self.pruned > 0 || self.removed > 0 {
            out.push_str(&format!(
                "pruning  {} layer-prune events, {} dead layers removed\n",
                self.pruned, self.removed
            ));
        }
        if let Some((label, total_pj, efficiency)) = &self.energy {
            out.push_str(&format!(
                "energy   {label}: {total_pj:.1} pJ ({efficiency:.2}x vs 16-bit baseline)\n"
            ));
        }
        if let Some((iterations, final_accuracy)) = self.completed {
            out.push_str(&format!(
                "DONE     {iterations} iterations, final accuracy {final_accuracy:.4}\n"
            ));
        }
        match self.alerts.len() {
            0 => out.push_str("health   ok\n"),
            n => {
                out.push_str(&format!("health   {n} alert(s):\n"));
                for alert in &self.alerts {
                    out.push_str(&format!("  !! [{}] {}\n", alert.kind(), alert.describe()));
                }
            }
        }
        out
    }
}

/// `Some(value)` widened to f64; JSON null (serde's non-finite float
/// encoding) and absent fields read back as NaN.
fn non_finite_aware_f64(value: Option<&Value>) -> f64 {
    value.and_then(Value::as_f64).unwrap_or(f64::NAN)
}

fn push_trend(series: &mut Vec<f64>, value: f64) {
    series.push(value);
    if series.len() > TREND_WINDOW {
        series.remove(0);
    }
}

/// Renders a numeric series as a unicode sparkline; NaN points render
/// as `?` so a poisoned run is visible in the trend itself.
pub fn sparkline(series: &[f64]) -> String {
    let finite: Vec<f64> = series.iter().copied().filter(|v| v.is_finite()).collect();
    let (lo, hi) = finite
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        });
    series
        .iter()
        .map(|&v| {
            if !v.is_finite() {
                '?'
            } else if hi <= lo {
                SPARKS[0]
            } else {
                let t = (v - lo) / (hi - lo);
                SPARKS[((t * (SPARKS.len() - 1) as f64).round() as usize).min(SPARKS.len() - 1)]
            }
        })
        .collect()
}

/// Prints a health alert to stderr.
fn report(alert: &RunHealth) {
    eprintln!("!! [{}] {}", alert.kind(), alert.describe());
}

/// The one log tailer: applies every complete line of `path` past
/// `*offset` to `state` and advances `*offset` past it. A partial trailing
/// line (no newline yet: the writer is mid-append) waits for the next
/// call. A file shorter than `*offset` was truncated or rewritten
/// underneath us: `state` and `*offset` start over. Returns whether any
/// line was applied.
fn tail_lines<S: Default>(
    path: impl AsRef<Path>,
    offset: &mut u64,
    state: &mut S,
    mut apply: impl FnMut(&mut S, &str),
) -> std::io::Result<bool> {
    let mut file = File::open(path)?;
    if file.metadata()?.len() < *offset {
        *state = S::default();
        *offset = 0;
    }
    file.seek(SeekFrom::Start(*offset))?;
    let mut reader = BufReader::new(file);
    let start = *offset;
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 || !line.ends_with('\n') {
            return Ok(*offset > start);
        }
        *offset += line.len() as u64;
        apply(state, &line);
    }
}

/// Reads every line currently in `path` into `state` (the `--once`
/// mode, and the catch-up pass of follow mode). Returns the byte offset
/// reached, for the tail loop to resume from.
pub fn apply_file(
    state: &mut WatchState,
    path: impl AsRef<Path>,
    now_secs: f64,
) -> std::io::Result<u64> {
    let mut offset = 0;
    tail_lines(path, &mut offset, state, |state, line| {
        state.apply_line(line, now_secs).iter().for_each(report)
    })?;
    Ok(offset)
}

/// Follow mode: render the dashboard, then poll `path` for appended
/// lines every `poll_ms`, re-rendering on growth and running the stall
/// watchdog, until `RunCompleted` arrives (then one final render).
pub fn follow(path: &str, poll_ms: u64) -> std::io::Result<()> {
    let start = std::time::Instant::now();
    let now = || start.elapsed().as_secs_f64();
    let mut state = WatchState::new();
    let mut offset = apply_file(&mut state, path, now())?;
    print!("\x1b[2J\x1b[H{}", state.render());
    while state.completed.is_none() {
        std::thread::sleep(std::time::Duration::from_millis(poll_ms));
        let grew = tail_lines(path, &mut offset, &mut state, |state, line| {
            state.apply_line(line, now()).iter().for_each(report)
        })?;
        let stalled = state.check_stall(now());
        if let Some(alert) = &stalled {
            report(alert);
        }
        if grew || stalled.is_some() {
            print!("\x1b[2J\x1b[H{}", state.render());
        }
    }
    Ok(())
}

/// Scrape mode: fetch `http://addr/metrics` once, validate the
/// Prometheus exposition text, and print a short summary plus any
/// `adq_run_*` and `adq_serve_*` sample lines (the latter are the
/// inference server's live gauges and latency histograms). Returns the
/// number of samples.
pub fn scrape(addr: &str) -> Result<usize, String> {
    let text = adq_telemetry::endpoint::scrape_text(addr)
        .map_err(|err| format!("cannot scrape {addr}: {err}"))?;
    let samples = adq_telemetry::endpoint::validate_prometheus_text(&text)
        .map_err(|err| format!("invalid Prometheus text from {addr}: {err}"))?;
    println!("scraped {addr}: {samples} samples, valid Prometheus text 0.0.4");
    for line in text.lines() {
        if line.starts_with("adq_run_")
            || line.starts_with("adq_resource_")
            || line.starts_with("adq_serve_")
        {
            println!("  {line}");
        }
    }
    if let Some(summary) = serving_summary(&text) {
        println!("  {summary}");
    }
    Ok(samples)
}

/// Parses an unlabeled Prometheus sample line into `(name, value)`.
/// Comments and labeled series (histogram buckets) return `None`.
fn plain_sample(line: &str) -> Option<(&str, f64)> {
    if line.starts_with('#') || line.contains('{') {
        return None;
    }
    let (name, value) = line.split_once(' ')?;
    Some((name, value.parse().ok()?))
}

/// Estimates a quantile for a Prometheus histogram family from its
/// cumulative `<metric>_bucket{le="..."}` samples, interpolating
/// linearly within the bucket holding the target rank (the classic
/// `histogram_quantile` estimator). `None` when the page has no such
/// family or it is empty. A rank landing in the `+Inf` bucket returns
/// the highest finite bound — the estimate saturates rather than
/// inventing mass beyond the instrumented range.
pub fn bucket_quantile(text: &str, metric: &str, q: f64) -> Option<f64> {
    let prefix = format!("{metric}_bucket{{le=\"");
    let mut buckets: Vec<(f64, f64)> = Vec::new();
    let mut saw_inf = 0.0f64;
    for line in text.lines() {
        let Some(rest) = line.strip_prefix(&prefix) else {
            continue;
        };
        let (le, count) = rest.split_once("\"}")?;
        let count: f64 = count.trim().parse().ok()?;
        if le == "+Inf" {
            saw_inf = count;
        } else {
            buckets.push((le.parse().ok()?, count));
        }
    }
    if saw_inf <= 0.0 {
        return None;
    }
    buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
    let rank = (q.clamp(0.0, 1.0) * saw_inf).max(1.0);
    let mut lower_bound = 0.0f64;
    let mut lower_cum = 0.0f64;
    for (bound, cum) in &buckets {
        if *cum >= rank {
            let span = cum - lower_cum;
            let t = if span > 0.0 {
                (rank - lower_cum) / span
            } else {
                1.0
            };
            return Some(lower_bound + t * (bound - lower_bound));
        }
        lower_bound = *bound;
        lower_cum = *cum;
    }
    // target rank sits in the +Inf bucket: saturate at the top bound
    Some(lower_bound)
}

/// Nanoseconds rendered for a dashboard one-liner.
fn fmt_ns_short(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.2}s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.1}ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.1}µs", ns / 1e3)
    } else {
        format!("{ns:.0}ns")
    }
}

/// Condenses a Prometheus page's `adq_serve_*` samples — replica fan-out,
/// queue/batch/in-flight gauges, request totals and the admission-control
/// shed counters — into one human line. `None` when the page carries no
/// serving metrics.
pub fn serving_summary(text: &str) -> Option<String> {
    let mut queue_depth = None;
    let mut inflight = None;
    let mut requests = None;
    let mut batches = None;
    let mut batch_sum = None;
    let mut replicas = None;
    let mut queue_cap = None;
    let mut shed = None;
    for line in text.lines() {
        let Some((name, value)) = plain_sample(line) else {
            continue;
        };
        match name {
            "adq_serve_queue_depth" => queue_depth = Some(value),
            "adq_serve_inflight" => inflight = Some(value),
            "adq_serve_requests" => requests = Some(value),
            "adq_serve_batch_size_count" => batches = Some(value),
            "adq_serve_batch_size_sum" => batch_sum = Some(value),
            "adq_serve_replicas" => replicas = Some(value),
            "adq_serve_queue_cap" => queue_cap = Some(value),
            "adq_serve_shed_total" => shed = Some(value),
            _ => {}
        }
    }
    if queue_depth.is_none() && inflight.is_none() && requests.is_none() && batches.is_none() {
        return None;
    }
    let mut parts = Vec::new();
    if let Some(r) = replicas {
        parts.push(format!("{r} replicas"));
    }
    match (queue_depth, queue_cap) {
        (Some(v), Some(cap)) => parts.push(format!("queue depth {v}/{cap}")),
        (Some(v), None) => parts.push(format!("queue depth {v}")),
        _ => {}
    }
    if let Some(v) = inflight {
        parts.push(format!("inflight {v}"));
    }
    if let Some(r) = requests {
        parts.push(format!("{r} requests"));
    }
    if let (Some(b), Some(sum)) = (batches, batch_sum) {
        if b > 0.0 {
            parts.push(format!("{b} batches (avg {:.1}/batch)", sum / b));
        }
    }
    // surface overload even when zero: sheds are the signal that the
    // admission queue is saturating
    if let Some(s) = shed {
        parts.push(format!("{s} shed"));
    }
    // per-stage tails, when the server exports the stage histograms:
    // queue-wait p99 against exec p99 splits "slow server" into
    // "overloaded queue" vs. "slow model"
    if let Some(p99) = bucket_quantile(text, "adq_serve_stage_queue_wait_ns", 0.99) {
        parts.push(format!("queue-wait p99 {}", fmt_ns_short(p99)));
    }
    if let Some(p99) = bucket_quantile(text, "adq_serve_stage_exec_ns", 0.99) {
        parts.push(format!("exec p99 {}", fmt_ns_short(p99)));
    }
    Some(format!("serving: {}", parts.join(", ")))
}

// ---- serving access-log tail --------------------------------------------

/// Trailing `ok` records kept for the live stage-quantile estimate.
const STAGE_WINDOW: usize = 512;

/// Rolling view of a serving access log (`adq-watch --access-log`):
/// outcome tallies, a trailing window of stage waterfalls for live
/// p50/p99 per stage, and a [`HealthMonitor`] watching for sustained
/// queue saturation. Pure over lines, like [`WatchState`].
pub struct ServeLogState {
    /// Per-request records applied.
    pub records: u64,
    /// Lines that parsed as neither record nor summary.
    pub malformed: u64,
    /// `ok` records seen.
    pub ok: u64,
    /// `shed` records seen.
    pub shed: u64,
    /// `error` records seen.
    pub errors: u64,
    /// `goodbye-refused` records seen.
    pub goodbye_refused: u64,
    /// The closing summary once the server shuts the log.
    pub summary: Option<LogSummary>,
    /// Every anomaly raised so far.
    pub alerts: Vec<RunHealth>,
    window: VecDeque<RequestRecord>,
    health: HealthMonitor,
}

impl Default for ServeLogState {
    fn default() -> Self {
        Self::new()
    }
}

impl ServeLogState {
    /// A fresh access-log dashboard.
    pub fn new() -> Self {
        Self {
            records: 0,
            malformed: 0,
            ok: 0,
            shed: 0,
            errors: 0,
            goodbye_refused: 0,
            summary: None,
            alerts: Vec::new(),
            window: VecDeque::new(),
            health: HealthMonitor::default(),
        }
    }

    /// Applies one access-log line; returns the anomaly it raised, if
    /// any (also appended to [`ServeLogState::alerts`]).
    pub fn apply_line(&mut self, line: &str) -> Option<RunHealth> {
        match lifecycle::parse_line(line) {
            Some(LogLine::Record(record)) => {
                self.records += 1;
                match record.outcome.as_str() {
                    lifecycle::OUTCOME_OK => self.ok += 1,
                    lifecycle::OUTCOME_SHED => self.shed += 1,
                    lifecycle::OUTCOME_GOODBYE_REFUSED => self.goodbye_refused += 1,
                    _ => self.errors += 1,
                }
                let raised =
                    self.health
                        .observe_queue(record.queue_depth, record.queue_cap, self.shed);
                if record.outcome == lifecycle::OUTCOME_OK {
                    self.window.push_back(record);
                    if self.window.len() > STAGE_WINDOW {
                        self.window.pop_front();
                    }
                }
                if let Some(alert) = &raised {
                    self.alerts.push(alert.clone());
                }
                raised
            }
            Some(LogLine::Summary(summary)) => {
                self.summary = Some(summary);
                None
            }
            None => {
                if !line.trim().is_empty() {
                    self.malformed += 1;
                }
                None
            }
        }
    }

    /// Stage quantile in nanoseconds over the trailing `ok` window.
    fn stage_quantile(&self, stage: fn(&RequestRecord) -> u64, q: f64) -> u64 {
        let mut sample: Vec<u64> = self.window.iter().map(stage).collect();
        lifecycle::exact_quantile_ns(&mut sample, q)
    }

    /// One dashboard line: outcome tallies plus the live per-stage
    /// breakdown over the trailing window.
    pub fn render_line(&self) -> String {
        let mut out = format!(
            "access-log: {} records ({} ok, {} shed, {} error, {} goodbye-refused)",
            self.records, self.ok, self.shed, self.errors, self.goodbye_refused
        );
        if !self.window.is_empty() {
            out.push_str(&format!(
                ", stages p50 queue {} | batch {} | exec {} | write {}, total p99 {}",
                fmt_ns_short(self.stage_quantile(|r| r.queue_wait_ns, 0.5) as f64),
                fmt_ns_short(self.stage_quantile(|r| r.batch_wait_ns, 0.5) as f64),
                fmt_ns_short(self.stage_quantile(|r| r.exec_ns, 0.5) as f64),
                fmt_ns_short(self.stage_quantile(|r| r.write_ns, 0.5) as f64),
                fmt_ns_short(self.stage_quantile(|r| r.total_ns, 0.99) as f64),
            ));
        }
        if self.malformed > 0 {
            out.push_str(&format!(", {} malformed", self.malformed));
        }
        if !self.alerts.is_empty() {
            out.push_str(&format!(", {} alert(s)", self.alerts.len()));
        }
        if self.summary.is_some() {
            out.push_str(" [closed]");
        }
        out
    }
}

/// Reads every complete line currently in an access log into `state`,
/// holding back a partial trailing line; returns the offset reached.
pub fn apply_access_log_file(
    state: &mut ServeLogState,
    path: impl AsRef<Path>,
) -> std::io::Result<u64> {
    let mut offset = 0;
    tail_lines(path, &mut offset, state, |state, line| {
        state.apply_line(line).iter().for_each(report)
    })?;
    Ok(offset)
}

/// Tails a serving access log live, printing the stage-breakdown line on
/// growth, until the server closes the log (summary line observed).
/// Returns the final state so the caller can set its exit code.
pub fn follow_access_log(path: &str, poll_ms: u64) -> std::io::Result<ServeLogState> {
    let mut state = ServeLogState::new();
    let mut offset = apply_access_log_file(&mut state, path)?;
    println!("{}", state.render_line());
    while state.summary.is_none() {
        std::thread::sleep(std::time::Duration::from_millis(poll_ms));
        let grew = tail_lines(path, &mut offset, &mut state, |state, line| {
            state.apply_line(line).iter().for_each(report)
        })?;
        if grew {
            println!("{}", state.render_line());
        }
    }
    Ok(state)
}

#[cfg(test)]
mod tests {
    use super::*;
    use adq_telemetry::TelemetryEvent;

    fn line(event: &TelemetryEvent) -> String {
        serde_json::to_string(event).expect("serialize event")
    }

    fn epoch_line(iteration: usize, epoch: usize, loss: f64, accuracy: f64) -> String {
        line(&TelemetryEvent::EpochCompleted {
            iteration,
            epoch,
            loss,
            accuracy,
        })
    }

    #[test]
    fn dashboard_tracks_run_progress_and_bit_schedule() {
        let mut state = WatchState::new();
        state.apply_line(
            &line(&TelemetryEvent::RunStarted {
                run: "table2".into(),
                config: serde_json::json!({
                    "max_epochs_per_iteration": 8,
                    "max_iterations": 4,
                }),
                seed: 7,
            }),
            0.0,
        );
        for epoch in 1..=4 {
            let alerts = state.apply_line(
                &epoch_line(1, epoch, 2.0 / epoch as f64, 0.2 * epoch as f64),
                epoch as f64,
            );
            assert!(alerts.is_empty(), "healthy run raised {alerts:?}");
        }
        state.apply_line(
            &line(&TelemetryEvent::DensityMeasured {
                iteration: 1,
                epoch: 4,
                densities: vec![0.5, 0.7],
                total_ad: 0.6,
            }),
            4.1,
        );
        for (layer, bits) in [(0u64, 12u64), (1, 9)] {
            state.apply_line(
                &line(&TelemetryEvent::BitWidthAssigned {
                    iteration: 1,
                    layer: layer as usize,
                    old_bits: 16,
                    new_bits: bits as u32,
                }),
                4.2,
            );
        }
        assert_eq!(state.run.as_deref(), Some("table2"));
        assert_eq!(state.max_epochs, Some(8));
        assert_eq!((state.iteration, state.epoch), (1, 4));
        assert_eq!(state.bits.get(&1), Some(&9));
        // 3 epoch gaps over 3 seconds → 1 epoch/s → 4 remaining epochs.
        assert!((state.epoch_rate().unwrap() - 1.0).abs() < 1e-9);
        assert!((state.iteration_eta_secs().unwrap() - 4.0).abs() < 1e-9);
        let rendered = state.render();
        assert!(rendered.contains("table2"));
        assert!(rendered.contains("iteration 1/4  epoch 4/8"));
        assert!(rendered.contains("L1:9"));
        assert!(rendered.contains("health   ok"));
    }

    #[test]
    fn nan_loss_serialized_as_null_raises_non_finite_alert() {
        let mut state = WatchState::new();
        // Through the real serializer: non-finite f64 becomes null.
        let poisoned = epoch_line(2, 3, f64::NAN, 0.5);
        assert!(poisoned.contains("\"loss\":null"), "line: {poisoned}");
        let alerts = state.apply_line(&poisoned, 1.0);
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].kind(), "non_finite_loss");
        assert!(state
            .render()
            .contains("non-finite loss at iteration 2 epoch 3"));
    }

    #[test]
    fn accuracy_collapse_is_raised_once_per_episode() {
        let mut state = WatchState::new();
        let mut kinds = Vec::new();
        for (epoch, accuracy) in [(1, 0.8), (2, 0.82), (3, 0.85), (4, 0.9), (5, 0.1), (6, 0.1)] {
            for alert in state.apply_line(&epoch_line(1, epoch, 0.3, accuracy), epoch as f64) {
                kinds.push(alert.kind());
            }
        }
        assert_eq!(kinds, vec!["accuracy_collapse"]);
    }

    #[test]
    fn back_to_back_runs_do_not_fake_a_collapse() {
        let mut state = WatchState::new();
        let run_started = line(&TelemetryEvent::RunStarted {
            run: "adq.baseline".into(),
            config: serde_json::json!({}),
            seed: 1,
        });
        state.apply_line(&run_started, 0.0);
        // A healthy first run climbing to perfect accuracy...
        for epoch in 1..=6 {
            let alerts = state.apply_line(
                &epoch_line(1, epoch, 0.1, 0.9 + 0.01 * epoch as f64),
                epoch as f64,
            );
            assert!(alerts.is_empty());
        }
        // ...then the stream's next run starts from scratch accuracy.
        state.apply_line(&run_started, 7.0);
        for epoch in 1..=4 {
            let alerts = state.apply_line(
                &epoch_line(1, epoch, 0.5, 0.2 * epoch as f64),
                7.0 + epoch as f64,
            );
            assert!(
                alerts.is_empty(),
                "run restart misread as collapse: {alerts:?}"
            );
        }
    }

    #[test]
    fn stall_watchdog_fires_after_idle_window_and_rearms() {
        let mut state = WatchState::new();
        state.apply_line(&epoch_line(1, 1, 0.5, 0.5), 10.0);
        assert!(state.check_stall(50.0).is_none());
        let alert = state.check_stall(200.0).expect("stalled");
        assert_eq!(alert.kind(), "stalled");
        // Edge-triggered: still idle → no second alert.
        assert!(state.check_stall(300.0).is_none());
        // A fresh event re-arms the watchdog.
        state.apply_line(&epoch_line(1, 2, 0.4, 0.6), 301.0);
        assert!(state.check_stall(302.0).is_none());
        assert!(state.check_stall(600.0).is_some());
    }

    #[test]
    fn malformed_and_unknown_lines_are_tolerated() {
        let mut state = WatchState::new();
        state.apply_line("{not json", 0.0);
        state.apply_line("[1, 2, 3]", 0.0);
        state.apply_line("", 0.0);
        state.apply_line("{\"FutureEvent\": {\"x\": 1}}", 0.0);
        assert_eq!(state.malformed, 2);
        assert_eq!(state.events, 1);
        assert!(state.alerts.is_empty());
    }

    #[test]
    fn apply_file_holds_back_partial_trailing_lines() {
        let dir = std::env::temp_dir().join(format!("adq_watch_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.jsonl");
        let complete = epoch_line(1, 1, 0.5, 0.5);
        std::fs::write(&path, format!("{complete}\n{{\"EpochComp")).unwrap();
        let mut state = WatchState::new();
        let offset = apply_file(&mut state, &path, 1.0).unwrap();
        assert_eq!(state.events, 1);
        assert_eq!(
            state.malformed, 0,
            "partial line must not count as malformed"
        );
        assert_eq!(offset, complete.len() as u64 + 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn completed_runs_report_done_and_quiet_watchdog() {
        let mut state = WatchState::new();
        state.apply_line(&epoch_line(1, 1, 0.5, 0.5), 1.0);
        state.apply_line(
            &line(&TelemetryEvent::RunCompleted {
                iterations: 3,
                training_complexity: 1.4,
                final_accuracy: 0.91,
            }),
            2.0,
        );
        assert_eq!(state.completed, Some((3, 0.91)));
        assert!(state.check_stall(10_000.0).is_none());
        assert!(state
            .render()
            .contains("DONE     3 iterations, final accuracy 0.9100"));
    }

    #[test]
    fn sparkline_marks_non_finite_points() {
        let s = sparkline(&[0.0, 0.5, f64::NAN, 1.0]);
        assert_eq!(s.chars().count(), 4);
        assert_eq!(s.chars().nth(2), Some('?'));
        assert_eq!(s.chars().last(), Some('█'));
        assert_eq!(sparkline(&[2.0, 2.0]), "▁▁");
    }

    #[test]
    fn serving_summary_condenses_the_server_gauges() {
        // the exposition shape adq-serve's metrics endpoint produces:
        // plain gauges/counters plus a batch-size histogram family
        let page = "\
# TYPE adq_serve_requests counter\n\
adq_serve_requests 120\n\
# TYPE adq_serve_queue_depth gauge\n\
adq_serve_queue_depth 3\n\
# TYPE adq_serve_queue_cap gauge\n\
adq_serve_queue_cap 256\n\
# TYPE adq_serve_replicas gauge\n\
adq_serve_replicas 2\n\
# TYPE adq_serve_inflight gauge\n\
adq_serve_inflight 8\n\
# TYPE adq_serve_shed_total counter\n\
adq_serve_shed_total 5\n\
# TYPE adq_serve_batch_size histogram\n\
adq_serve_batch_size_bucket{le=\"8\"} 30\n\
adq_serve_batch_size_bucket{le=\"+Inf\"} 30\n\
adq_serve_batch_size_sum 120\n\
adq_serve_batch_size_count 30\n";
        let summary = serving_summary(page).expect("serving metrics present");
        assert_eq!(
            summary,
            "serving: 2 replicas, queue depth 3/256, inflight 8, 120 requests, \
             30 batches (avg 4.0/batch), 5 shed"
        );
        // pre-replica exposition (no fan-out/shed samples) still condenses
        let old_page = "\
adq_serve_requests 12\n\
adq_serve_queue_depth 1\n\
adq_serve_inflight 2\n";
        assert_eq!(
            serving_summary(old_page).expect("serving metrics present"),
            "serving: queue depth 1, inflight 2, 12 requests"
        );
    }

    #[test]
    fn serving_summary_is_absent_without_serving_metrics() {
        let page = "# TYPE adq_core_train_batches counter\nadq_core_train_batches 7\n";
        assert_eq!(serving_summary(page), None);
        // bucket lines alone (labeled series) must not be misparsed
        assert_eq!(
            serving_summary("adq_serve_latency_ns_bucket{le=\"+Inf\"} 4\n"),
            None
        );
    }

    #[test]
    fn bucket_quantile_interpolates_cumulative_buckets() {
        let page = "\
adq_serve_stage_exec_ns_bucket{le=\"1000\"} 5\n\
adq_serve_stage_exec_ns_bucket{le=\"10000\"} 9\n\
adq_serve_stage_exec_ns_bucket{le=\"+Inf\"} 10\n\
adq_serve_stage_exec_ns_sum 50000\n\
adq_serve_stage_exec_ns_count 10\n";
        let m = "adq_serve_stage_exec_ns";
        // rank 5 lands exactly at the first bucket's top edge
        assert_eq!(bucket_quantile(page, m, 0.5), Some(1000.0));
        // rank 9 at the second bucket's top edge
        assert_eq!(bucket_quantile(page, m, 0.9), Some(10000.0));
        // rank 9.9 falls in +Inf: saturate at the highest finite bound
        assert_eq!(bucket_quantile(page, m, 0.99), Some(10000.0));
        // a tiny quantile still targets at least one sample
        assert_eq!(bucket_quantile(page, m, 0.0), Some(200.0));
        // absent metric / empty histogram → no estimate
        assert_eq!(bucket_quantile(page, "adq_serve_stage_write_ns", 0.5), None);
        assert_eq!(
            bucket_quantile("adq_x_bucket{le=\"+Inf\"} 0\n", "adq_x", 0.5),
            None
        );
    }

    #[test]
    fn serving_summary_appends_stage_p99s_when_exposed() {
        let page = "\
adq_serve_requests 120\n\
adq_serve_queue_depth 3\n\
adq_serve_queue_cap 256\n\
adq_serve_replicas 2\n\
adq_serve_inflight 8\n\
adq_serve_shed_total 5\n\
adq_serve_batch_size_bucket{le=\"8\"} 30\n\
adq_serve_batch_size_bucket{le=\"+Inf\"} 30\n\
adq_serve_batch_size_sum 120\n\
adq_serve_batch_size_count 30\n\
adq_serve_stage_queue_wait_ns_bucket{le=\"1000\"} 30\n\
adq_serve_stage_queue_wait_ns_bucket{le=\"+Inf\"} 30\n\
adq_serve_stage_exec_ns_bucket{le=\"2000000\"} 30\n\
adq_serve_stage_exec_ns_bucket{le=\"+Inf\"} 30\n";
        let summary = serving_summary(page).expect("serving metrics present");
        assert_eq!(
            summary,
            "serving: 2 replicas, queue depth 3/256, inflight 8, 120 requests, \
             30 batches (avg 4.0/batch), 5 shed, \
             queue-wait p99 990ns, exec p99 2.0ms"
        );
    }

    fn log_record(
        outcome: &str,
        queue_depth: u64,
        queue_cap: u64,
        exec_ns: u64,
        total_ns: u64,
    ) -> String {
        serde_json::to_string(&RequestRecord {
            trace_id: 1,
            conn_id: 1,
            replica: Some(0),
            batch_size: Some(1),
            outcome: outcome.to_string(),
            admit_ns: 10,
            queue_wait_ns: 100,
            batch_wait_ns: 200,
            exec_ns,
            write_ns: 50,
            total_ns,
            queue_depth,
            queue_cap,
            ts_ns: 0,
        })
        .expect("record serializes")
    }

    #[test]
    fn serve_log_state_tallies_outcomes_and_renders_stages() {
        let mut state = ServeLogState::new();
        assert_eq!(
            state.apply_line(&log_record(lifecycle::OUTCOME_OK, 0, 4, 3000, 5000)),
            None
        );
        assert_eq!(
            state.apply_line(&log_record(lifecycle::OUTCOME_OK, 1, 4, 1000, 2000)),
            None
        );
        state.apply_line(&log_record(lifecycle::OUTCOME_ERROR, 0, 4, 0, 100));
        state.apply_line("not json");
        assert_eq!((state.records, state.ok, state.errors), (3, 2, 1));
        assert_eq!(state.malformed, 1);
        let line = state.render_line();
        assert!(
            line.starts_with("access-log: 3 records (2 ok, 0 shed, 1 error, 0 goodbye-refused)"),
            "unexpected render: {line}"
        );
        // window holds only ok records: nearest-rank p50 of {1000, 3000}
        assert!(line.contains("exec 1.0µs"), "unexpected render: {line}");
        assert!(
            line.contains("total p99 5.0µs"),
            "unexpected render: {line}"
        );
        assert!(line.contains("1 malformed"), "unexpected render: {line}");
        assert!(state.summary.is_none());
        // summary line closes the log
        let closing = "{\"summary\":{\"records\":3,\"dropped\":0,\"write_errors\":0,\
             \"ok\":2,\"shed\":0,\"errors\":1,\"goodbye_refused\":0,\"exemplars\":[]}}";
        state.apply_line(closing);
        let summary = state.summary.as_ref().expect("summary parsed");
        assert_eq!((summary.records, summary.ok), (3, 2));
        assert!(state.render_line().ends_with("[closed]"));
    }

    #[test]
    fn serve_log_state_raises_queue_saturation_once_per_episode() {
        let mut state = ServeLogState::new();
        // depth pinned at cap but no sheds yet: not an overload signal
        assert_eq!(
            state.apply_line(&log_record(lifecycle::OUTCOME_OK, 4, 4, 1000, 2000)),
            None
        );
        // shed while pinned: edge-triggered alert
        let alert = state
            .apply_line(&log_record(lifecycle::OUTCOME_SHED, 4, 4, 0, 500))
            .expect("saturation raised");
        assert_eq!(alert.kind(), "queue_saturated");
        // still pinned, still shedding: same episode, no re-fire
        assert_eq!(
            state.apply_line(&log_record(lifecycle::OUTCOME_SHED, 4, 4, 0, 500)),
            None
        );
        // drain below cap resets the episode...
        assert_eq!(
            state.apply_line(&log_record(lifecycle::OUTCOME_OK, 1, 4, 1000, 2000)),
            None
        );
        // ...so the next pinned-and-shedding record fires again
        assert!(state
            .apply_line(&log_record(lifecycle::OUTCOME_SHED, 4, 4, 0, 500))
            .is_some());
        assert_eq!(state.alerts.len(), 2);
        assert_eq!((state.ok, state.shed), (2, 3));
    }

    #[test]
    fn apply_access_log_file_holds_back_partial_lines() {
        let dir = std::env::temp_dir().join(format!(
            "adq_watch_log_{}_{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("access.jsonl");
        let full = log_record(lifecycle::OUTCOME_OK, 0, 4, 1000, 2000);
        let partial = &log_record(lifecycle::OUTCOME_OK, 0, 4, 1000, 2000)[..20];
        std::fs::write(&path, format!("{full}\n{partial}")).unwrap();
        let mut state = ServeLogState::new();
        let offset = apply_access_log_file(&mut state, &path).unwrap();
        // only the complete line was consumed; the tail stays pending
        assert_eq!(state.records, 1);
        assert_eq!(state.malformed, 0);
        assert_eq!(offset, full.len() as u64 + 1);
        std::fs::remove_dir_all(&dir).ok();
    }
}
