//! Integration tests for hierarchical tracing through a full Algorithm-1
//! run: phase coverage, span-tree shape, Chrome-trace export validity,
//! wall-time reconciliation, and the observation-only contract with
//! tracing enabled.

use std::collections::BTreeSet;
use std::sync::{Mutex, PoisonError};

use adq_core::{AdQuantizer, AdqConfig, AdqOutcome};
use adq_datasets::SyntheticSpec;
use adq_nn::train::Dataset;
use adq_nn::Vgg;
use adq_telemetry::span;
use adq_telemetry::trace::{self, TraceSpan};
use adq_telemetry::{MemorySink, TelemetryEvent};

/// The tracer level is process-global; tests in this file must not
/// interleave.
static TRACER: Mutex<()> = Mutex::new(());

fn tiny_task() -> (Dataset, Dataset) {
    SyntheticSpec::cifar10_like()
        .with_classes(4)
        .with_resolution(8)
        .with_samples(8, 4)
        .generate()
}

/// One traced run at the given level; returns the outcome and the spans
/// that reached the sink as `SpanClosed` events.
fn traced_run(seed: u64, level: u8) -> (AdqOutcome, Vec<TraceSpan>) {
    let (train, test) = tiny_task();
    let mut model = Vgg::tiny(3, 8, 4, seed);
    let sink = MemorySink::new();
    span::set_level(level);
    let outcome =
        AdQuantizer::new(AdqConfig::fast()).run_with_sink(&mut model, &train, &test, &sink);
    span::set_level(0);
    span::drain();
    (outcome, trace::spans_from_events(&sink.take()))
}

#[test]
fn traced_run_covers_every_iteration_phase() {
    let _guard = TRACER.lock().unwrap_or_else(PoisonError::into_inner);
    span::set_level(0);
    span::drain();

    let (outcome, spans) = traced_run(31, 1);
    assert!(!spans.is_empty(), "traced run produced no spans");

    let iterations: Vec<&TraceSpan> = spans.iter().filter(|s| s.name == "adq.iteration").collect();
    assert_eq!(
        iterations.len(),
        outcome.iterations.len(),
        "one top-level span per Algorithm-1 iteration"
    );
    for span in &iterations {
        assert_eq!(span.parent, 0, "iteration spans are roots");
    }

    // Every phase the controller executed must appear, parented under an
    // iteration span.
    let phase_names: BTreeSet<&str> = spans
        .iter()
        .filter(|s| s.name.starts_with("adq.phase."))
        .map(|s| s.name.as_str())
        .collect();
    for required in [
        "adq.phase.train",
        "adq.phase.ad_measure",
        "adq.phase.evaluate",
        "adq.phase.energy_eval",
        "adq.phase.bitwidth_update",
        "adq.phase.prune",
    ] {
        assert!(
            phase_names.contains(required),
            "missing phase span {required}; got {phase_names:?}"
        );
    }
    // Every phase span roots at an iteration span (directly, or through
    // the train phase for the per-epoch AD measurements).
    for phase in spans.iter().filter(|s| s.name.starts_with("adq.phase.")) {
        let mut cursor = phase.parent;
        let mut reached_iteration = false;
        for _ in 0..16 {
            let Some(parent) = spans.iter().find(|s| s.id == cursor) else {
                break;
            };
            if parent.name == "adq.iteration" {
                reached_iteration = true;
                break;
            }
            cursor = parent.parent;
        }
        assert!(
            reached_iteration,
            "phase span {} does not root at an iteration span",
            phase.name
        );
    }

    // Training internals nest below the train phase.
    assert!(
        spans.iter().any(|s| s.name == "adq.epoch"),
        "missing per-epoch spans"
    );
    assert!(
        spans.iter().any(|s| s.name == "nn.batch"),
        "missing batch spans from the trainer"
    );
}

#[test]
fn chrome_trace_from_run_is_valid_and_reconciles() {
    let _guard = TRACER.lock().unwrap_or_else(PoisonError::into_inner);
    span::set_level(0);
    span::drain();

    let (_, spans) = traced_run(32, 1);
    let doc = trace::chrome_trace(&spans);
    let count = trace::validate_chrome_trace(&doc).expect("valid Chrome trace");
    assert_eq!(count, spans.len());

    // Per-iteration reconciliation: the direct-child phase durations of an
    // iteration span must sum to no more than its wall time, and cover it
    // within tolerance (the controller does little outside its phases; 25%
    // leaves room for per-iteration bookkeeping on noisy CI machines).
    for iteration in spans.iter().filter(|s| s.name == "adq.iteration") {
        let child_sum: u64 = spans
            .iter()
            .filter(|s| s.parent == iteration.id)
            .map(TraceSpan::duration_ns)
            .sum();
        let wall = iteration.duration_ns();
        assert!(
            child_sum <= wall,
            "phases exceed their iteration: {child_sum} > {wall}"
        );
        assert!(
            child_sum as f64 >= wall as f64 * 0.75,
            "phases cover too little of the iteration: {child_sum} of {wall}"
        );
    }

    let folded = trace::collapsed_stacks(&spans);
    assert!(
        folded.lines().any(|l| l.starts_with("adq.iteration")),
        "collapsed stacks must root at the iteration spans"
    );
}

#[test]
fn tracing_is_observation_only() {
    let _guard = TRACER.lock().unwrap_or_else(PoisonError::into_inner);
    span::set_level(0);
    span::drain();

    let (train, test) = tiny_task();

    // Baseline: no sink, no tracing.
    let mut model = Vgg::tiny(3, 8, 4, 33);
    let plain = AdQuantizer::new(AdqConfig::fast()).run(&mut model, &train, &test);

    // Tracing at the verbose level into a NullSink.
    let mut model = Vgg::tiny(3, 8, 4, 33);
    span::set_level(2);
    let null_traced = AdQuantizer::new(AdqConfig::fast()).run(&mut model, &train, &test);
    span::set_level(0);
    span::drain();

    // Tracing at the verbose level into a MemorySink.
    let (memory_traced, spans) = traced_run(33, 2);
    assert!(
        spans.iter().any(|s| s.name == "quant.fake_quantize"),
        "verbose tracing must reach the quantizer"
    );

    let reference = serde_json::to_string(&plain).expect("serialise");
    assert_eq!(
        reference,
        serde_json::to_string(&null_traced).expect("serialise"),
        "tracing into a NullSink changed the outcome"
    );
    assert_eq!(
        reference,
        serde_json::to_string(&memory_traced).expect("serialise"),
        "tracing into a MemorySink changed the outcome"
    );
}

#[test]
fn span_events_only_appear_when_tracing_is_enabled() {
    let _guard = TRACER.lock().unwrap_or_else(PoisonError::into_inner);
    span::set_level(0);
    span::drain();

    let (train, test) = tiny_task();
    let mut model = Vgg::tiny(3, 8, 4, 34);
    let sink = MemorySink::new();
    AdQuantizer::new(AdqConfig::fast()).run_with_sink(&mut model, &train, &test, &sink);
    let events = sink.take();
    assert!(
        !events
            .iter()
            .any(|e| matches!(e, TelemetryEvent::SpanClosed { .. })),
        "tracing disabled must emit zero SpanClosed events"
    );
}
