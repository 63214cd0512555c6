//! The four workloads: set-up, measured traffic, and the correctness
//! checks on every output.
//!
//! | workload | what runs | why |
//! |---|---|---|
//! | `train` | `AdQuantizer::run` on the Table-II VGG and `ResNet::small` | what a researcher reproducing Table II waits for |
//! | `serve-c1` | 1 closed-loop client, int8 `Vgg::small` | single-image integer execution on U8 containers |
//! | `serve-mixed-c1` | the same, per-layer bits `[16,4,3,2,3,3,16]` | U16 and nibble containers, no U8 path |
//! | `serve-open` | Poisson arrivals on one pipelined connection | queueing, batching and admission |

use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use adq::core::{AdQuantizer, AdqConfig, AdqOutcome};
use adq::datasets::SyntheticSpec;
use adq::infer::serve::{Client, ServeConfig, Server};
use adq::infer::{CompileOptions, CompiledVgg};
use adq::nn::train::Dataset;
use adq::nn::{QuantModel, ResNet, Vgg, VggItem};
use adq::quant::BitWidth;
use adq::telemetry::lifecycle::{self, RequestRecord, OUTCOME_OK};
use adq::telemetry::{AccessLog, TelemetryEvent, TelemetrySink};
use adq::tensor::{init, Tensor};
use serde_json::{json, Value};

use crate::load::{self, ImagePool, PhaseResult, ProbeVerdict, SplitMix};
use crate::spans::{Tracer, MAIN_THREAD};
use crate::stats;

/// Set-ups timed per run; `setup_s` is their median, which a few slow
/// set-ups do not move. Set-up is short (README, "Measured spread"), so
/// the repetitions add little to a run.
pub const SETUP_REPS: usize = 101;
/// Seeded images every serving request draws from.
pub const POOL_IMAGES: usize = 64;
/// Latency limit on p99 for `serve-open`'s capacity search.
pub const SLO_P99_MS: f64 = 25.0;
/// `serve-open`'s fixed-rate phases: offered rate, share of the window.
/// The median is taken at 400 rps, where service time rather than queue
/// length sets it; at 800 rps (about 75% of capacity) the same median
/// swings by more than 10% run to run, so it is reported beside it only.
pub const OPEN_FIXED_RATES: [(f64, f64); 2] = [(400.0, 0.2), (800.0, 0.1)];
/// Bracket of `serve-open`'s capacity bisection.
pub const BISECT_RPS: (f64, f64) = (200.0, 3000.0);
/// Length of one capacity probe.
const PROBE_WINDOW: Duration = Duration::from_secs(2);
/// Closed-loop traffic before measuring, so lazy set-up is not timed.
const WARMUP: Duration = Duration::from_millis(300);
/// Per-layer bits of `serve-mixed-c1`, the Table II(a) iter-2 pattern.
pub const MIXED_BITS: [u32; 7] = [16, 4, 3, 2, 3, 3, 16];
/// Training batch of the `train` workload (the Table-II dynamic config).
pub const TRAIN_BATCH: usize = 24;
/// The Table-II dynamic VGG (no batch-norm: raw ReLU density dynamics).
pub const TRAIN_VGG: [VggItem; 8] = [
    VggItem::Conv(16),
    VggItem::Conv(16),
    VggItem::Pool,
    VggItem::Conv(32),
    VggItem::Conv(32),
    VggItem::Pool,
    VggItem::Conv(64),
    VggItem::Pool,
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Train,
    ServeC1,
    ServeMixedC1,
    ServeOpen,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Train,
        Workload::ServeC1,
        Workload::ServeMixedC1,
        Workload::ServeOpen,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Train => "train",
            Workload::ServeC1 => "serve-c1",
            Workload::ServeMixedC1 => "serve-mixed-c1",
            Workload::ServeOpen => "serve-open",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Per-layer bits of the served model (`None` for `train`).
    pub fn serving_bits(self) -> Option<[u32; 7]> {
        match self {
            Workload::Train => None,
            Workload::ServeMixedC1 => Some(MIXED_BITS),
            Workload::ServeC1 | Workload::ServeOpen => Some([8; 7]),
        }
    }
}

/// A seed derived from the run seed for one purpose, so inputs that
/// should differ never share a stream.
pub fn derive_seed(seed: u64, purpose: u64) -> u64 {
    SplitMix::new(seed ^ purpose.wrapping_mul(0xA24B_AED4_963E_E407)).next_u64()
}

/// What one measured run of a workload produced.
#[derive(Debug, Default)]
pub struct Measured {
    /// Operations attempted (Algorithm-1 runs, or requests).
    pub attempted: u64,
    /// Operations whose output was wrong, refused or missing.
    pub failed: u64,
    /// End-to-end metrics by name.
    pub metrics: Vec<(String, f64)>,
    /// Context printed beside the metrics (tails, counts, accuracy).
    pub detail: Vec<(String, Value)>,
    /// Serving only: the server's clock at the end of the traffic its
    /// `serve.*` stage numbers describe (capacity probes come after).
    pub stages_until: Option<Duration>,
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Median wall time of [`SETUP_REPS`] calls of `setup`, and the last
/// result (earlier ones go to `discard`).
fn timed_setup<T>(mut setup: impl FnMut() -> T, mut discard: impl FnMut(T)) -> (f64, T) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let started = Instant::now();
        let value = setup();
        times.push(started.elapsed().as_secs_f64());
        if let Some(previous) = last.replace(value) {
            discard(previous);
        }
    }
    let median = stats::median(&times).expect("SETUP_REPS > 0");
    (median, last.expect("SETUP_REPS > 0"))
}

/// The end-to-end metrics every workload reports, each in its workload's
/// terms (see `README.md`).
fn end_to_end(setup_s: f64, p50_ms: f64, per_s: f64, rss_mb: f64) -> Vec<(String, f64)> {
    [
        ("setup_s", setup_s),
        ("latency_p50_ms", p50_ms),
        ("throughput_per_s", per_s),
        ("peak_rss_mb", rss_mb),
    ]
    .into_iter()
    .map(|(name, value)| (name.to_string(), value))
    .collect()
}

// ---- train ---------------------------------------------------------------

/// The Table-II dynamic configuration (`table2_quantization`), seeded.
pub fn train_config(seed: u64) -> AdqConfig {
    AdqConfig {
        max_iterations: 3,
        max_epochs_per_iteration: 8,
        min_epochs_per_iteration: 3,
        batch_size: TRAIN_BATCH,
        lr: 1.5e-3,
        seed: derive_seed(seed, 3),
        ..AdqConfig::paper_default()
    }
}

/// One of the two Table-II dynamic tasks.
pub struct TrainTask {
    pub name: &'static str,
    pub train: Dataset,
    pub test: Dataset,
    model_seed: u64,
}

impl TrainTask {
    /// A freshly initialised model for this task.
    pub fn model(&self) -> Box<dyn QuantModel> {
        match self.name {
            "vgg" => Box::new(train_vgg(self.model_seed)),
            _ => Box::new(ResNet::small(3, 16, 10, self.model_seed)),
        }
    }
}

/// The Table-II dynamic VGG at Algorithm 1's starting precision.
pub fn train_vgg(model_seed: u64) -> Vgg {
    Vgg::from_config(3, 16, 10, &TRAIN_VGG, false, model_seed)
}

/// Set-up of `train`: both datasets generated and both models built.
pub fn train_tasks(seed: u64) -> Vec<TrainTask> {
    let (train, test) = SyntheticSpec::cifar10_like()
        .with_resolution(16)
        .with_samples(24, 10)
        .with_noise(0.9)
        .with_seed(derive_seed(seed, 1))
        .generate();
    let vgg = TrainTask {
        name: "vgg",
        train,
        test,
        model_seed: derive_seed(seed, 4),
    };
    let (train, test) = SyntheticSpec::cifar100_like()
        .with_classes(10)
        .with_resolution(16)
        .with_samples(16, 6)
        .with_seed(derive_seed(seed, 2))
        .generate();
    let resnet = TrainTask {
        name: "resnet",
        train,
        test,
        model_seed: derive_seed(seed, 5),
    };
    let tasks = vec![vgg, resnet];
    for task in &tasks {
        std::hint::black_box(task.model());
    }
    tasks
}

/// FNV-1a over the serialized outcome: equal digests mean equal runs.
pub fn outcome_digest(outcome: &AdqOutcome) -> u64 {
    let text = serde_json::to_string(outcome).expect("outcomes serialize");
    text.bytes().fold(0xCBF2_9CE4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// Stamps Algorithm 1's own epoch and iteration events as they arrive,
/// each with the span it closes: the epoch, or the iteration's tail since
/// the last epoch.
#[derive(Default)]
struct StampSink {
    stamps: Mutex<Vec<(Instant, &'static str)>>,
}

impl TelemetrySink for StampSink {
    fn record(&self, event: &TelemetryEvent) {
        let span = match event {
            TelemetryEvent::EpochCompleted { .. } => "core.epoch",
            TelemetryEvent::IterationCompleted { .. } => "core.iteration_tail",
            _ => return,
        };
        self.stamps
            .lock()
            .expect("stamp sink poisoned")
            .push((Instant::now(), span));
    }
}

/// One Algorithm-1 run: its outcome and its wall time. Traced runs also
/// get, under `core.run`, a `core.epoch` span per epoch and a
/// `core.iteration_tail` span (evaluation, AD, eqn 3, energy) per
/// iteration, stamped from the run's own events.
fn run_algorithm1(task: &TrainTask, seed: u64, tracer: &mut Tracer) -> (AdqOutcome, Duration) {
    let mut model = task.model();
    let controller = AdQuantizer::new(train_config(seed));
    let sink = StampSink::default();
    let span = tracer.begin("core.run");
    let started = Instant::now();
    let outcome = controller.run_with_sink(model.as_mut(), &task.train, &task.test, &sink);
    let wall = started.elapsed();
    let parent = tracer.current();
    let mut from = started;
    for (at, name) in sink.stamps.into_inner().expect("stamp sink poisoned") {
        let stamps = (tracer.ns_at(from), tracer.ns_at(at));
        tracer.record(name, parent, MAIN_THREAD, stamps, Value::Null);
        from = at;
    }
    tracer.end(
        span,
        json!({"model": task.name, "epochs": outcome.total_epochs()}),
    );
    (outcome, wall)
}

/// `train`: Algorithm-1 run pairs (VGG then ResNet), as many as fit
/// `window` to the nearest whole pair, at least one. `latency_p50_ms` is
/// the median wall time of a pair: every epoch Algorithm 1's saturation
/// check lets it train, and every evaluation, AD measurement,
/// re-quantization and energy evaluation between them. `throughput_per_s`
/// is the training images of one pair (epochs × training-set size, both
/// models) per second of that median. A run whose outcome digest differs
/// from the first run of the same model fails. The first runs' final
/// accuracy and MAC reduction go to the detail line, where `compare`
/// holds them: speed bought with learning dynamics shows there.
pub fn measure_train(seed: u64, window: Duration, tracer: &mut Tracer) -> Measured {
    let (setup_s, tasks) = timed_setup(|| train_tasks(seed), drop);
    let mut first: Vec<(u64, AdqOutcome)> = Vec::new();
    let (mut pair_ms, mut wall) = (Vec::new(), Duration::ZERO);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut pair = Duration::ZERO;
    // start another pair only if, lasting as long as the last one, it
    // would end less than half a pair past the window
    while pair_ms.is_empty() || wall + pair / 2 < window {
        pair = Duration::ZERO;
        for (i, task) in tasks.iter().enumerate() {
            let (outcome, took) = run_algorithm1(task, seed, tracer);
            pair += took;
            attempted += 1;
            let digest = outcome_digest(&outcome);
            match first.get(i) {
                Some((d, _)) if *d != digest => failed += 1,
                Some(_) => {}
                None => first.push((digest, outcome)),
            }
        }
        wall += pair;
        pair_ms.push(pair.as_secs_f64() * 1e3);
    }
    let median_pair_ms = stats::median(&pair_ms).expect("at least one pair");
    let epochs: Vec<usize> = first.iter().map(|(_, o)| o.total_epochs()).collect();
    let images: usize = tasks
        .iter()
        .zip(&epochs)
        .map(|(t, e)| t.train.len() * e)
        .sum();
    let finals: Vec<_> = first.iter().map(|(_, o)| o.final_record()).collect();
    let acc = finals.iter().map(|r| r.test_accuracy).sum::<f64>() / finals.len() as f64;
    let mac = finals.iter().map(|r| r.mac_reduction.ln()).sum::<f64>() / finals.len() as f64;
    Measured {
        attempted,
        failed,
        metrics: end_to_end(
            setup_s,
            median_pair_ms,
            images as f64 / (median_pair_ms / 1e3),
            peak_rss_mb(),
        ),
        detail: vec![
            ("pairs".into(), json!(pair_ms.len())),
            ("pair_ms".into(), json!(pair_ms)),
            ("epochs".into(), json!(epochs)),
            ("images_per_pair".into(), json!(images)),
            ("train_final_acc".into(), json!(acc)),
            ("train_mac_reduction_x".into(), json!(mac.exp())),
        ],
        stages_until: None,
    }
}

// ---- serving -------------------------------------------------------------

/// The served model: `Vgg::small(3, 16, 10)` with `bits` per layer,
/// compiled exactly as `adq-serve` compiles its demo model (a seeded
/// calibration batch of 16).
pub fn serving_model(seed: u64, bits: &[u32]) -> (Vgg, CompiledVgg) {
    let mut model = Vgg::small(3, 16, 10, derive_seed(seed, 6));
    for (index, &b) in bits.iter().enumerate() {
        model.set_bits_of(index, Some(BitWidth::new(b).expect("valid bit-width")));
    }
    let compiled = compile(&model, seed);
    (model, compiled)
}

/// `CompiledVgg::compile` on a seeded normal calibration batch of 16.
pub fn compile(model: &Vgg, seed: u64) -> CompiledVgg {
    let stats = model.layer_stats();
    let hw = stats[0].input_hw;
    let channels = stats[0].geom.map_or(3, |g| g.in_channels);
    let mut rng = init::rng(derive_seed(seed, 7));
    let calibration = init::normal(&[16, channels, hw, hw], 0.0, 1.0, &mut rng);
    CompiledVgg::compile(model, &calibration, CompileOptions::default())
        .expect("the benchmark models compile")
}

/// The seeded pool of [`POOL_IMAGES`] images, each with its logits run
/// alone.
pub fn image_pool(compiled: &CompiledVgg, seed: u64) -> ImagePool {
    image_pool_of(compiled, seed, POOL_IMAGES)
}

/// [`image_pool`] with `count` images.
pub fn image_pool_of(compiled: &CompiledVgg, seed: u64, count: usize) -> ImagePool {
    let (c, hw) = compiled.input_shape();
    let mut rng = init::rng(derive_seed(seed, 8));
    let all = init::normal(&[count, c, hw, hw], 0.0, 1.0, &mut rng);
    let len = compiled.input_len();
    let images: Vec<Vec<f32>> = all.data().chunks_exact(len).map(<[f32]>::to_vec).collect();
    let expected = images
        .iter()
        .map(|image| {
            let one = Tensor::from_vec(image.clone(), &[1, c, hw, hw]).expect("one image");
            compiled.run(&one).data().to_vec()
        })
        .collect();
    ImagePool { images, expected }
}

/// A running server and what it serves.
pub struct Serving {
    pub float: Vgg,
    pub compiled: Arc<CompiledVgg>,
    pub server: Server,
    /// When the server was bound (its access-log clock starts here).
    pub bound: Instant,
}

/// Set-up of a serving workload: float model built, compiled, bound with
/// the default `ServeConfig`, first ping answered. `log` attaches an
/// access log (traced runs only).
pub fn start_serving(seed: u64, bits: &[u32], log: Option<&Path>) -> Serving {
    let (float, compiled) = serving_model(seed, bits);
    let compiled = Arc::new(compiled);
    let bound = Instant::now();
    let server = start_server(Arc::clone(&compiled), log);
    Serving {
        float,
        compiled,
        server,
        bound,
    }
}

/// Binds `compiled` on a loopback port with the default `ServeConfig`
/// and waits for its first ping.
pub fn start_server(compiled: Arc<CompiledVgg>, log: Option<&Path>) -> Server {
    let access_log = log.map(|path| {
        AccessLog::create(path, lifecycle::DEFAULT_EXEMPLARS).expect("access log is writable")
    });
    let server = Server::bind_logged(
        "127.0.0.1:0",
        compiled as _,
        ServeConfig::default(),
        access_log,
    )
    .expect("bind a loopback port");
    Client::connect(server.local_addr())
        .and_then(|mut client| client.ping())
        .expect("the new server answers a ping");
    server
}

/// Timed set-up plus pool; the untimed set-ups are shut down.
pub fn setup_serving(seed: u64, bits: &[u32], log: Option<&Path>) -> (f64, Serving, ImagePool) {
    let (setup_s, serving) = timed_setup(
        || start_serving(seed, bits, None),
        |mut old| old.server.shutdown(),
    );
    // a traced run swaps in a logged server on identical weights
    let serving = match log {
        Some(path) => {
            let mut untraced = serving;
            untraced.server.shutdown();
            start_serving(seed, bits, Some(path))
        }
        None => serving,
    };
    let pool = image_pool(&serving.compiled, seed);
    let addr = serving.server.local_addr();
    load::closed_loop(addr, &pool, derive_seed(seed, 9), WARMUP).expect("warm-up traffic");
    (setup_s, serving, pool)
}

/// Request latencies of a phase in milliseconds, ascending.
fn latencies_ms(phase: &PhaseResult) -> Vec<f64> {
    stats::sorted(
        &phase
            .latencies_ns
            .iter()
            .map(|ns| ns / 1e6)
            .collect::<Vec<_>>(),
    )
}

/// Median, p99 (when the sample supports it) and count of a phase.
fn latency_detail(phase: &PhaseResult) -> Value {
    let ms = latencies_ms(phase);
    json!({
        "samples": ms.len(),
        "achieved_rps": phase.achieved_rps(),
        "p50_ms": stats::nearest_rank(&ms, 0.5),
        "p90_ms": stats::supported_tail(&ms, 0.9),
        "p99_ms": stats::supported_tail(&ms, 0.99),
        "sent": phase.sent,
        "ok": phase.ok,
        "wrong": phase.wrong,
        "errors": phase.errors,
        "shed": phase.shed,
        "unanswered": phase.unanswered,
    })
}

/// `serve-c1` / `serve-mixed-c1`: one closed-loop client for `window`.
pub fn measure_closed(
    seed: u64,
    bits: &[u32],
    window: Duration,
    tracer: &mut Tracer,
    log: Option<&Path>,
) -> (Measured, Serving) {
    let (setup_s, serving, pool) = setup_serving(seed, bits, log);
    let span = tracer.begin("client.closed_loop");
    let phase = load::closed_loop(
        serving.server.local_addr(),
        &pool,
        derive_seed(seed, 10),
        window,
    )
    .expect("closed-loop traffic");
    tracer.end(span, json!({"requests": phase.sent}));
    let ms = latencies_ms(&phase);
    let measured = Measured {
        attempted: phase.sent,
        failed: phase.failed(),
        metrics: end_to_end(
            setup_s,
            stats::nearest_rank(&ms, 0.5).unwrap_or(f64::NAN),
            phase.achieved_rps(),
            peak_rss_mb(),
        ),
        detail: vec![("requests".into(), latency_detail(&phase))],
        stages_until: None,
    };
    (measured, serving)
}

/// Whether the server kept pace during a probe: nothing shed, refused or
/// lost, and completions at least 97% of the offered rate, so no backlog
/// grew.
fn kept_pace(probe: &PhaseResult) -> bool {
    probe.failed() == 0 && probe.ok > 0 && probe.achieved_rps() >= 0.97 * probe.offered_rps
}

/// A capacity probe's verdict: it meets the limit when the server kept
/// pace and p99 is within [`SLO_P99_MS`].
pub fn judge_probe(probe: &PhaseResult) -> ProbeVerdict {
    let p99 = stats::nearest_rank(&latencies_ms(probe), 0.99).unwrap_or(f64::INFINITY);
    let kept_pace = kept_pace(probe);
    ProbeVerdict {
        meets: kept_pace && p99 <= SLO_P99_MS,
        kept_pace,
        achieved_rps: probe.achieved_rps(),
    }
}

/// `serve-open`: each of [`OPEN_FIXED_RATES`] for its share of `window`
/// (the first gives the median), then a bisection of [`BISECT_RPS`] with
/// 2 s probes for the highest rate meeting the limit ([`judge_probe`])
/// (`load::bisect_max_rate`). Sheds in probes above capacity are the
/// search working, so probes count only wrong, refused and lost answers.
pub fn measure_open(
    seed: u64,
    window: Duration,
    tracer: &mut Tracer,
    log: Option<&Path>,
) -> (Measured, Serving) {
    let (setup_s, serving, pool) = setup_serving(seed, &[8; 7], log);
    let addr = serving.server.local_addr();
    let (mut attempted, mut failed) = (0, 0);
    let mut fixed = Vec::new();
    let mut spent = Duration::ZERO;
    for (index, &(rate, share)) in OPEN_FIXED_RATES.iter().enumerate() {
        let phase_window = window.mul_f64(share).max(Duration::from_secs(1));
        let schedule =
            load::poisson_schedule(derive_seed(seed, 11 + index as u64), rate, phase_window);
        let span = tracer.begin("client.open_loop");
        let phase = load::open_loop(addr, &pool, derive_seed(seed, 21 + index as u64), &schedule)
            .expect("open-loop traffic");
        tracer.end(span, json!({"rate": rate, "requests": phase.sent}));
        attempted += phase.sent;
        failed += phase.failed();
        spent += phase_window;
        fixed.push((rate, phase));
    }
    let stages_until = serving.bound.elapsed();
    // overloaded probes fill the bounded queue to a depth that varies run
    // to run, so memory is read at steady load, before the search
    let rss = peak_rss_mb();

    let probes = (window.saturating_sub(spent).as_secs_f64() / PROBE_WINDOW.as_secs_f64())
        .floor()
        .max(1.0) as usize;
    let mut probe_log = Vec::new();
    let mut index = 0u64;
    let capacity = load::bisect_max_rate(BISECT_RPS.0, BISECT_RPS.1, probes, |rate| {
        index += 1;
        let schedule = load::poisson_schedule(derive_seed(seed, 100 + index), rate, PROBE_WINDOW);
        let span = tracer.begin("client.capacity_probe");
        let probe = load::open_loop(addr, &pool, derive_seed(seed, 200 + index), &schedule)
            .expect("open-loop probe");
        let verdict = judge_probe(&probe);
        tracer.end(span, json!({"rate": rate, "meets_slo": verdict.meets}));
        attempted += probe.sent;
        failed += probe.wrong + probe.errors + probe.unanswered;
        let p99 = stats::nearest_rank(&latencies_ms(&probe), 0.99);
        probe_log.push(json!({
            "rate": rate, "meets_slo": verdict.meets, "p99_ms": p99,
            "shed": probe.shed, "achieved_rps": probe.achieved_rps(),
            "offered_rps": probe.offered_rps,
        }));
        verdict
    });
    let p50 = stats::nearest_rank(&latencies_ms(&fixed[0].1), 0.5).unwrap_or(f64::NAN);
    let late_us: Vec<f64> = fixed
        .iter()
        .flat_map(|(_, phase)| phase.late_ns.iter().map(|ns| ns / 1e3))
        .collect();
    let mut detail: Vec<(String, Value)> = fixed
        .iter()
        .map(|(rate, phase)| (format!("at_{rate}_rps"), latency_detail(phase)))
        .collect();
    detail.push((
        "client_late_p99_us".into(),
        json!(stats::supported_tail(&stats::sorted(&late_us), 0.99)),
    ));
    detail.push(("probes".into(), Value::Seq(probe_log)));
    let measured = Measured {
        attempted,
        failed,
        metrics: end_to_end(setup_s, p50, capacity, rss),
        detail,
        stages_until: Some(stages_until),
    };
    (measured, serving)
}

/// Per-stage percentiles of the `ok` records in an access log, in µs,
/// plus the mean batch size (`serve.*` per-layer metrics).
pub fn serve_stage_metrics(records: &[RequestRecord]) -> Vec<(String, f64)> {
    let ok: Vec<&RequestRecord> = records.iter().filter(|r| r.outcome == OUTCOME_OK).collect();
    let us = |pick: fn(&RequestRecord) -> u64| -> Vec<f64> {
        stats::sorted(&ok.iter().map(|r| pick(r) as f64 / 1e3).collect::<Vec<_>>())
    };
    let (queue, batch, exec, write) = (
        us(|r| r.queue_wait_ns),
        us(|r| r.batch_wait_ns),
        us(|r| r.exec_ns),
        us(|r| r.write_ns),
    );
    let q = |v: &[f64], p: f64| stats::supported_tail(v, p).unwrap_or(f64::NAN);
    let batch_sizes: Vec<f64> = ok
        .iter()
        .filter_map(|r| r.batch_size)
        .map(|b| b as f64)
        .collect();
    vec![
        ("serve.queue_wait_p50_us".into(), q(&queue, 0.5)),
        ("serve.queue_wait_p99_us".into(), q(&queue, 0.99)),
        ("serve.batch_wait_p50_us".into(), q(&batch, 0.5)),
        ("serve.exec_p50_us".into(), q(&exec, 0.5)),
        ("serve.exec_p99_us".into(), q(&exec, 0.99)),
        ("serve.write_p50_us".into(), q(&write, 0.5)),
        (
            "serve.batch_size_mean".into(),
            batch_sizes.iter().sum::<f64>() / batch_sizes.len().max(1) as f64,
        ),
        (
            "serve.shed".into(),
            records
                .iter()
                .filter(|r| r.outcome == lifecycle::OUTCOME_SHED)
                .count() as f64,
        ),
    ]
}
