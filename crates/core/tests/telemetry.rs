//! Integration tests for the telemetry event stream emitted by the
//! Algorithm-1 controller: ordering, per-iteration coverage, the
//! observation-only contract, and JSONL persistence.

use adq_core::{AdQuantizer, AdqConfig, AdqOutcome};
use adq_datasets::SyntheticSpec;
use adq_nn::train::Dataset;
use adq_nn::Vgg;
use adq_telemetry::{JsonlSink, MemorySink, TelemetryEvent};

fn tiny_task() -> (Dataset, Dataset) {
    SyntheticSpec::cifar10_like()
        .with_classes(4)
        .with_resolution(8)
        .with_samples(8, 4)
        .generate()
}

fn run_with_memory_sink(seed: u64) -> (AdqOutcome, Vec<TelemetryEvent>) {
    let (train, test) = tiny_task();
    let mut model = Vgg::tiny(3, 8, 4, seed);
    let sink = MemorySink::new();
    let outcome =
        AdQuantizer::new(AdqConfig::fast()).run_with_sink(&mut model, &train, &test, &sink);
    (outcome, sink.take())
}

#[test]
fn stream_is_ordered_run_to_completion() {
    let (outcome, events) = run_with_memory_sink(1);
    assert_eq!(events.first().map(TelemetryEvent::kind), Some("RunStarted"));
    assert_eq!(
        events.last().map(TelemetryEvent::kind),
        Some("RunCompleted")
    );

    // exactly one IterationCompleted per controller iteration, in order
    let completed: Vec<usize> = events
        .iter()
        .filter_map(|e| match e {
            TelemetryEvent::IterationCompleted { iteration, .. } => Some(*iteration),
            _ => None,
        })
        .collect();
    let expected: Vec<usize> = outcome.iterations.iter().map(|r| r.iteration).collect();
    assert_eq!(completed, expected);

    // every iteration emits one EpochCompleted and one DensityMeasured per
    // trained epoch
    for record in &outcome.iterations {
        let epochs = events
            .iter()
            .filter(|e| {
                matches!(e, TelemetryEvent::EpochCompleted { iteration, .. }
                    if *iteration == record.iteration)
            })
            .count();
        assert_eq!(epochs, record.epochs_trained, "iter {}", record.iteration);
        let densities = events
            .iter()
            .filter(|e| {
                matches!(e, TelemetryEvent::DensityMeasured { iteration, .. }
                    if *iteration == record.iteration)
            })
            .count();
        assert_eq!(densities, record.epochs_trained);
    }
}

#[test]
fn bit_widths_are_monotonically_non_increasing() {
    let (_, events) = run_with_memory_sink(2);
    let mut assigned = 0usize;
    let mut last_bits: std::collections::BTreeMap<usize, u32> = Default::default();
    for event in &events {
        if let TelemetryEvent::BitWidthAssigned {
            layer,
            old_bits,
            new_bits,
            ..
        } = event
        {
            assigned += 1;
            assert!(new_bits <= old_bits, "layer {layer} grew");
            if let Some(prev) = last_bits.get(layer) {
                assert!(old_bits <= prev, "layer {layer} regrew between events");
            }
            last_bits.insert(*layer, *new_bits);
        }
    }
    assert!(assigned > 0, "run never re-assigned a bit-width");
}

#[test]
fn null_sink_and_memory_sink_outcomes_are_byte_identical() {
    let (train, test) = tiny_task();
    let config = AdqConfig::fast();

    let mut quiet_model = Vgg::tiny(3, 8, 4, 3);
    let quiet = AdQuantizer::new(config).run(&mut quiet_model, &train, &test);

    let mut observed_model = Vgg::tiny(3, 8, 4, 3);
    let sink = MemorySink::new();
    let observed =
        AdQuantizer::new(config).run_with_sink(&mut observed_model, &train, &test, &sink);

    assert!(!sink.events().is_empty(), "sink saw no events");
    assert_eq!(
        serde_json::to_string(&quiet).expect("serialise"),
        serde_json::to_string(&observed).expect("serialise"),
        "attaching telemetry changed the run result"
    );
}

#[test]
fn jsonl_sink_writes_one_parseable_event_per_line() {
    let path =
        std::env::temp_dir().join(format!("adq-telemetry-test-{}.jsonl", std::process::id()));
    let (train, test) = tiny_task();
    let mut model = Vgg::tiny(3, 8, 4, 4);
    {
        let sink = JsonlSink::create(&path).expect("create jsonl file");
        AdQuantizer::new(AdqConfig::fast()).run_with_sink(&mut model, &train, &test, &sink);
    }
    let contents = std::fs::read_to_string(&path).expect("read back");
    std::fs::remove_file(&path).ok();

    let events: Vec<TelemetryEvent> = contents
        .lines()
        .map(|line| serde_json::from_str(line).expect("every line parses"))
        .collect();
    assert!(events.len() >= 4);
    assert_eq!(events.first().map(TelemetryEvent::kind), Some("RunStarted"));
    assert_eq!(
        events.last().map(TelemetryEvent::kind),
        Some("RunCompleted")
    );
    for kind in [
        "EpochCompleted",
        "DensityMeasured",
        "IterationCompleted",
        "EnergyEstimated",
        "BitWidthAssigned",
    ] {
        assert!(
            events.iter().any(|e| e.kind() == kind),
            "stream is missing {kind}"
        );
    }
}

#[test]
fn hot_path_histograms_fill_during_a_run() {
    let (_, _) = run_with_memory_sink(5);
    let registry = adq_telemetry::metrics::global();
    for name in [
        "tensor.im2col",
        "tensor.matmul",
        "quant.forward",
        "ad.meter",
    ] {
        assert!(
            registry.histogram(name).count() > 0,
            "no timings recorded for {name}"
        );
    }
    assert!(registry.counter("core.train_batches").get() > 0);
}
