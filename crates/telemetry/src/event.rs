//! The typed event stream emitted by the AD-quantization pipeline.
//!
//! Events mirror the lifecycle of Algorithm 1: a run starts, each iteration
//! trains for some epochs (emitting [`TelemetryEvent::EpochCompleted`] and
//! density measurements) until the AD trend saturates, bit-widths are
//! re-assigned from the measured densities (eqn 3), optional pruning and
//! dead-layer removal fire, and the iteration closes with its full record.
//!
//! Bit-widths travel as plain `u32` and the full iteration record as a
//! [`serde_json::Value`] so this crate stays at the bottom of the workspace
//! dependency graph (events can describe `adq-core` types without depending
//! on them).

use serde::{Deserialize, Serialize};

/// One structured event in a run's telemetry stream.
///
/// Serialized form is externally tagged, one JSON object per event, so a
/// JSONL stream can be filtered by tag: `jq 'select(.EpochCompleted)'`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TelemetryEvent {
    /// A controller or baseline run began.
    RunStarted {
        /// Human label for the run (e.g. bench binary name).
        run: String,
        /// Serialized `AdqConfig` (or equivalent) manifest.
        config: serde_json::Value,
        /// The seed that makes this run reproducible.
        seed: u64,
    },
    /// One training epoch finished.
    EpochCompleted {
        /// Algorithm-1 iteration this epoch belongs to (1-based, matching `IterationRecord`).
        iteration: usize,
        /// Epoch index within the iteration (1-based, matching `IterationRecord`).
        epoch: usize,
        /// Sample-weighted mean training loss.
        loss: f64,
        /// Training accuracy in `[0, 1]`.
        accuracy: f64,
    },
    /// Per-layer activation densities were measured (eqn 2).
    DensityMeasured {
        /// Algorithm-1 iteration (1-based, matching `IterationRecord`).
        iteration: usize,
        /// Epoch within the iteration at which the measurement was taken.
        epoch: usize,
        /// Per-quantized-layer activation density, in layer order.
        densities: Vec<f64>,
        /// Network-level mean activation density.
        total_ad: f64,
    },
    /// The AD trend stopped improving, ending the iteration's training.
    SaturationDetected {
        /// Algorithm-1 iteration (1-based, matching `IterationRecord`).
        iteration: usize,
        /// Epoch at which saturation was declared.
        epoch: usize,
        /// Trailing epochs inspected by the detector.
        window: usize,
        /// Maximum AD movement tolerated inside the window.
        tolerance: f64,
    },
    /// A layer's bit-width was re-assigned from its density (eqn 3).
    BitWidthAssigned {
        /// Algorithm-1 iteration (1-based, matching `IterationRecord`).
        iteration: usize,
        /// Layer index in the model.
        layer: usize,
        /// Bit-width before re-assignment.
        old_bits: u32,
        /// Bit-width after re-assignment (`new_bits <= old_bits`).
        new_bits: u32,
    },
    /// A layer's channels were pruned from its density (eqn 5).
    LayerPruned {
        /// Algorithm-1 iteration (1-based, matching `IterationRecord`).
        iteration: usize,
        /// Layer index in the model.
        layer: usize,
        /// Channel count before pruning.
        old_channels: usize,
        /// Channel count after pruning.
        new_channels: usize,
    },
    /// A dead (zero-density) layer was removed from the model.
    LayerRemoved {
        /// Algorithm-1 iteration (1-based, matching `IterationRecord`).
        iteration: usize,
        /// Index of the removed layer (pre-removal numbering).
        layer: usize,
    },
    /// An Algorithm-1 iteration finished.
    IterationCompleted {
        /// Algorithm-1 iteration (1-based, matching `IterationRecord`).
        iteration: usize,
        /// Epochs trained during this iteration.
        epochs_trained: usize,
        /// Test accuracy at iteration end.
        test_accuracy: f64,
        /// Serialized `IterationRecord` with the full per-layer detail.
        record: serde_json::Value,
    },
    /// An energy model was evaluated for a network configuration.
    EnergyEstimated {
        /// What was estimated (network/model label).
        label: String,
        /// Total energy in picojoules.
        total_pj: f64,
        /// Energy efficiency relative to a 16-bit baseline (1.0 = equal).
        efficiency_vs_baseline: f64,
    },
    /// A run checkpoint was durably written (atomic rename completed).
    CheckpointSaved {
        /// Last fully completed Algorithm-1 iteration captured by the file.
        iteration: usize,
        /// Filesystem path of the checkpoint file.
        path: String,
        /// Serialized size in bytes (header + payload).
        bytes: u64,
    },
    /// The worker pool the run's kernels split their products over was
    /// configured. Lines carrying keys this version does not know (older
    /// runs logged more) still parse: unknown keys are ignored.
    WorkerPoolConfigured {
        /// Effective worker thread count at startup.
        threads: usize,
    },
    /// A run continued from a checkpoint instead of starting fresh.
    RunResumed {
        /// Human label for the run (e.g. bench binary name).
        run: String,
        /// Iteration the resumed run starts at (1-based).
        next_iteration: usize,
        /// Iterations already completed inside the checkpoint.
        completed_iterations: usize,
    },
    /// The run finished.
    RunCompleted {
        /// Iterations executed.
        iterations: usize,
        /// Normalized training complexity (eqn 4).
        training_complexity: f64,
        /// Final test accuracy in `[0, 1]`.
        final_accuracy: f64,
    },
    /// A tracing span closed (see `crate::span`); drained into the sink
    /// in `(start_ns, id)` order.
    SpanClosed {
        /// Process-unique span id (1-based).
        id: u64,
        /// Id of the enclosing span (0 = root).
        parent: u64,
        /// Dense id of the recording thread (1-based, first-use order).
        thread: u64,
        /// Span name, dot-separated by subsystem (`adq.iteration`, ...).
        name: String,
        /// Monotonic start, ns since the process tracing epoch.
        start_ns: u64,
        /// Monotonic end, ns since the process tracing epoch.
        end_ns: u64,
        /// Structured attributes (layer, bits, GEMM m/n/k, ...).
        args: serde_json::Value,
    },
    /// A trace artifact was exported from the buffered spans.
    TraceExported {
        /// Filesystem path of the exported artifact.
        path: String,
        /// Spans included in the export.
        spans: u64,
        /// Spans dropped at buffer caps before the export.
        dropped: u64,
        /// Artifact format (`chrome-trace` or `collapsed-stacks`).
        format: String,
    },
}

impl TelemetryEvent {
    /// The event's tag name as it appears in serialized form.
    pub fn kind(&self) -> &'static str {
        match self {
            TelemetryEvent::RunStarted { .. } => "RunStarted",
            TelemetryEvent::EpochCompleted { .. } => "EpochCompleted",
            TelemetryEvent::DensityMeasured { .. } => "DensityMeasured",
            TelemetryEvent::SaturationDetected { .. } => "SaturationDetected",
            TelemetryEvent::BitWidthAssigned { .. } => "BitWidthAssigned",
            TelemetryEvent::LayerPruned { .. } => "LayerPruned",
            TelemetryEvent::LayerRemoved { .. } => "LayerRemoved",
            TelemetryEvent::IterationCompleted { .. } => "IterationCompleted",
            TelemetryEvent::CheckpointSaved { .. } => "CheckpointSaved",
            TelemetryEvent::WorkerPoolConfigured { .. } => "WorkerPoolConfigured",
            TelemetryEvent::RunResumed { .. } => "RunResumed",
            TelemetryEvent::EnergyEstimated { .. } => "EnergyEstimated",
            TelemetryEvent::RunCompleted { .. } => "RunCompleted",
            TelemetryEvent::SpanClosed { .. } => "SpanClosed",
            TelemetryEvent::TraceExported { .. } => "TraceExported",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_roundtrip_through_json() {
        let events = vec![
            TelemetryEvent::RunStarted {
                run: "test".into(),
                config: serde_json::json!({"initial_bits": 16}),
                seed: 7,
            },
            TelemetryEvent::EpochCompleted {
                iteration: 0,
                epoch: 3,
                loss: 1.25,
                accuracy: 0.5,
            },
            TelemetryEvent::BitWidthAssigned {
                iteration: 1,
                layer: 4,
                old_bits: 16,
                new_bits: 9,
            },
            TelemetryEvent::LayerRemoved {
                iteration: 2,
                layer: 5,
            },
            TelemetryEvent::CheckpointSaved {
                iteration: 2,
                path: "ckpt/iter-0002.ckpt".into(),
                bytes: 4096,
            },
            TelemetryEvent::WorkerPoolConfigured { threads: 4 },
            TelemetryEvent::RunResumed {
                run: "adq.run".into(),
                next_iteration: 3,
                completed_iterations: 2,
            },
            TelemetryEvent::RunCompleted {
                iterations: 3,
                training_complexity: 0.8,
                final_accuracy: 0.9,
            },
            TelemetryEvent::SpanClosed {
                id: 17,
                parent: 3,
                thread: 2,
                name: "adq.phase.train".into(),
                start_ns: 1_000,
                end_ns: 5_500,
                args: serde_json::json!({"iteration": 1, "epochs": 4}),
            },
            TelemetryEvent::TraceExported {
                path: "results/run.trace.json".into(),
                spans: 128,
                dropped: 0,
                format: "chrome-trace".into(),
            },
        ];
        for event in events {
            let line = serde_json::to_string(&event).expect("serialise");
            let back: TelemetryEvent = serde_json::from_str(&line).expect("deserialise");
            assert_eq!(back, event);
        }
    }

    #[test]
    fn serialized_form_is_externally_tagged() {
        let event = TelemetryEvent::LayerRemoved {
            iteration: 1,
            layer: 2,
        };
        let line = serde_json::to_string(&event).expect("serialise");
        assert_eq!(line, r#"{"LayerRemoved":{"iteration":1,"layer":2}}"#);
        assert_eq!(event.kind(), "LayerRemoved");
    }

    #[test]
    fn a_pool_event_with_an_unknown_key_still_parses() {
        let line = r#"{"WorkerPoolConfigured":{"threads":2,"retired":4}}"#;
        let event: TelemetryEvent = serde_json::from_str(line).expect("deserialise");
        assert_eq!(event, TelemetryEvent::WorkerPoolConfigured { threads: 2 });
    }
}
