//! The observation-only contract of resource tracking, enforced where
//! the counting allocator is actually installed: this test binary links
//! `adq_bench`, whose `#[global_allocator]` shim meters every
//! allocation, so the contract is exercised under the exact conditions
//! of the regenerator binaries.
//!
//! Three properties:
//!
//! 1. Tracking on vs. off yields **byte-identical** Algorithm-1
//!    outcomes — counters never feed back into the computation.
//! 2. With tracking and tracing on, every Algorithm-1 phase span
//!    carries the resource attribution (`flops`, `bytes_moved`, and —
//!    because the shim is live here — allocator deltas) that
//!    `adq-report` renders next to wall time.
//! 3. A warm training step of the models `train` benchmarks allocates
//!    at most a tenth of what it did while its non-GEMM passes still
//!    allocated their outputs (global totals: pool workers count too).
//!
//! Plus one property of the hot-path timers: `tensor.matmul` and
//! `tensor.im2col` never time the same interval, so over a step their
//! sums add up to no more than the step.

use std::sync::{Mutex, PoisonError};
use std::time::Instant;

// Pull in `adq_bench` even though no item is needed: linking the lib is
// what installs its `#[global_allocator]` shim in this test binary.
use adq_bench as _;
use adq_core::{AdQuantizer, AdqConfig, AdqOutcome};
use adq_datasets::SyntheticSpec;
use adq_nn::train::Dataset;
use adq_nn::{softmax_cross_entropy, QuantModel, ResNet, Vgg, VggItem};
use adq_telemetry::trace::{self, TraceSpan};
use adq_telemetry::{alloc, span, MemorySink, NullSink};
use adq_tensor::init;

/// Tracking and the tracer level are process-global; tests in this file
/// must not interleave.
static GLOBALS: Mutex<()> = Mutex::new(());

fn tiny_task() -> (Dataset, Dataset) {
    SyntheticSpec::cifar10_like()
        .with_classes(4)
        .with_resolution(8)
        .with_samples(8, 4)
        .generate()
}

fn run_once(seed: u64, tracked: bool) -> AdqOutcome {
    let (train, test) = tiny_task();
    let mut model = Vgg::tiny(3, 8, 4, seed);
    alloc::set_tracking(tracked);
    let outcome =
        AdQuantizer::new(AdqConfig::fast()).run_with_sink(&mut model, &train, &test, &NullSink);
    alloc::set_tracking(false);
    outcome
}

#[test]
fn the_counting_allocator_shim_is_installed_here() {
    let _guard = GLOBALS.lock().unwrap_or_else(PoisonError::into_inner);
    alloc::set_tracking(true);
    // Any heap allocation under tracking latches `allocator_active`;
    // black_box keeps the optimizer from eliding this one.
    drop(std::hint::black_box(vec![0u8; 4096]));
    alloc::set_tracking(false);
    assert!(
        alloc::allocator_active(),
        "bench binaries must route allocations through CountingAllocator"
    );
}

#[test]
fn tracked_and_untracked_outcomes_are_byte_identical() {
    let _guard = GLOBALS.lock().unwrap_or_else(PoisonError::into_inner);
    let untracked = run_once(77, false);
    let tracked = run_once(77, true);
    assert_eq!(
        untracked, tracked,
        "resource tracking changed the Algorithm-1 outcome"
    );
    // Belt and braces: the serialized records match byte for byte.
    assert_eq!(
        serde_json::to_string(&untracked).unwrap(),
        serde_json::to_string(&tracked).unwrap()
    );
}

#[test]
fn phase_spans_carry_resource_attribution_when_tracked() {
    let _guard = GLOBALS.lock().unwrap_or_else(PoisonError::into_inner);
    span::set_level(0);
    span::drain();

    let (train, test) = tiny_task();
    let mut model = Vgg::tiny(3, 8, 4, 31);
    let sink = MemorySink::new();
    span::set_level(1);
    alloc::set_tracking(true);
    AdQuantizer::new(AdqConfig::fast()).run_with_sink(&mut model, &train, &test, &sink);
    alloc::set_tracking(false);
    span::set_level(0);
    span::drain();
    let spans: Vec<TraceSpan> = trace::spans_from_events(&sink.take());
    assert!(!spans.is_empty(), "traced run produced no spans");

    // Every span opened while tracking records the full attribution
    // attr set (the allocator columns because the shim is live here).
    for s in &spans {
        for attr in [
            "flops",
            "bytes_moved",
            "alloc_bytes",
            "allocs",
            "heap_peak_bytes",
        ] {
            assert!(
                s.arg_u64(attr).is_some(),
                "span {} lacks tracked resource attr {attr}",
                s.name
            );
        }
    }
    // The training phase did real work: compute, traffic, and heap all
    // register. (GEMMs run under it, so flops must be nonzero.)
    let train_phase =
        spans
            .iter()
            .filter(|s| s.name == "adq.phase.train")
            .fold((0u64, 0u64, 0u64), |acc, s| {
                (
                    acc.0 + s.arg_u64("flops").unwrap(),
                    acc.1 + s.arg_u64("bytes_moved").unwrap(),
                    acc.2.max(s.arg_u64("heap_peak_bytes").unwrap()),
                )
            });
    assert!(train_phase.0 > 0, "train phase recorded no flops");
    assert!(train_phase.1 > 0, "train phase recorded no bytes moved");
    assert!(train_phase.2 > 0, "train phase recorded no heap high-water");
    // The evaluate phase runs real forward passes: compute registers
    // there too, not just under training.
    let eval_phase = spans
        .iter()
        .find(|s| s.name == "adq.phase.evaluate")
        .expect("evaluate phase span");
    assert!(eval_phase.arg_u64("flops").unwrap() > 0);
}

#[test]
fn untracked_spans_stay_attribution_free() {
    let _guard = GLOBALS.lock().unwrap_or_else(PoisonError::into_inner);
    span::set_level(0);
    span::drain();

    let (train, test) = tiny_task();
    let mut model = Vgg::tiny(3, 8, 4, 31);
    let sink = MemorySink::new();
    span::set_level(1);
    AdQuantizer::new(AdqConfig::fast()).run_with_sink(&mut model, &train, &test, &sink);
    span::set_level(0);
    span::drain();
    let spans = trace::spans_from_events(&sink.take());
    assert!(!spans.is_empty());
    for s in &spans {
        assert!(
            s.arg_u64("flops").is_none() && s.arg_u64("alloc_bytes").is_none(),
            "untracked span {} carries resource attrs",
            s.name
        );
    }
}

/// The Table-II dynamic VGG of the `train` benchmark workload, copied
/// here so this test pins the shapes Algorithm 1 trains.
const TABLE2_VGG: [VggItem; 8] = [
    VggItem::Conv(16),
    VggItem::Conv(16),
    VggItem::Pool,
    VggItem::Conv(32),
    VggItem::Conv(32),
    VggItem::Pool,
    VggItem::Conv(64),
    VggItem::Pool,
];

/// Heap bytes (all threads: pool workers allocate too) that one
/// training-mode forward and backward of `model` allocates at batch 24
/// on 16×16 images, after two warm steps.
fn warm_step_alloc_bytes(model: &mut dyn QuantModel) -> u64 {
    let mut r = init::rng(5);
    let images = init::uniform(&[24, 3, 16, 16], -1.0, 1.0, &mut r);
    let labels: Vec<usize> = (0..24).map(|i| i % 10).collect();
    let mut step = || {
        let logits = model.forward(&images, true);
        let out = softmax_cross_entropy(&logits, &labels);
        model.zero_grad();
        model.backward(&out.grad);
    };
    step();
    step();
    alloc::set_tracking(true);
    let before = alloc::global_totals().alloc_bytes;
    step();
    let bytes = alloc::global_totals().alloc_bytes - before;
    alloc::set_tracking(false);
    bytes
}

/// Bytes one warm step allocated when every batch-norm, ReLU, junction
/// and layout pass still allocated its output: `ResNet::small(3, 16, 10)`
/// and the Table-II VGG, measured as below.
const ALLOCATING_STEP_BYTES: (u64, u64) = (25_058_612, 6_487_140);

#[test]
fn a_warm_training_step_allocates_almost_nothing() {
    let _guard = GLOBALS.lock().unwrap_or_else(PoisonError::into_inner);
    let resnet = warm_step_alloc_bytes(&mut ResNet::small(3, 16, 10, 1));
    let vgg = warm_step_alloc_bytes(&mut Vgg::from_config(3, 16, 10, &TABLE2_VGG, false, 2));
    // activations and gradients come from the thread's arena and go back
    // to it; what is left are per-channel statistics, the head and the
    // loss, far below one activation per layer
    let (resnet_before, vgg_before) = ALLOCATING_STEP_BYTES;
    assert!(
        resnet * 10 <= resnet_before,
        "ResNet step allocated {resnet} B (allocating passes: {resnet_before} B)"
    );
    assert!(
        vgg * 10 <= vgg_before,
        "VGG step allocated {vgg} B (allocating passes: {vgg_before} B)"
    );
}

#[test]
fn product_and_lowering_timers_never_time_one_interval_twice() {
    let _guard = GLOBALS.lock().unwrap_or_else(PoisonError::into_inner);
    let registry = adq_telemetry::metrics::global();
    let timed =
        || registry.histogram("tensor.matmul").sum() + registry.histogram("tensor.im2col").sum();
    let mut model = ResNet::small(3, 16, 10, 1);
    let mut r = init::rng(5);
    let images = init::uniform(&[24, 3, 16, 16], -1.0, 1.0, &mut r);
    let labels: Vec<usize> = (0..24).map(|i| i % 10).collect();
    let mut step = || {
        let logits = model.forward(&images, true);
        let out = softmax_cross_entropy(&logits, &labels);
        model.zero_grad();
        model.backward(&out.grad);
    };
    step();
    let before = timed();
    let started = Instant::now();
    step();
    let wall = u64::try_from(started.elapsed().as_nanos()).expect("a step fits in u64 ns");
    let recorded = timed() - before;
    assert!(
        recorded <= wall,
        "tensor.matmul + tensor.im2col grew by {recorded} ns over a {wall} ns step"
    );
}
