use adq_ad::{DensityHistory, SaturationDetector};
use adq_energy::EnergyModel;
use adq_nn::train::{evaluate_observed, export_params, train_epoch_observed, Dataset};
use adq_nn::{Adam, QuantModel};
use adq_quant::BitWidth;
use adq_telemetry::span::{self, SpanGuard};
use adq_telemetry::{NullSink, TelemetryEvent, TelemetrySink};
use adq_tensor::init::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::builders::network_spec_from_stats;
use crate::checkpoint::{
    CheckpointError, CheckpointManager, RngState, RunCheckpoint, StructuralOp, CHECKPOINT_VERSION,
};
use crate::complexity::{training_complexity, IterationCost};

/// Configuration of AD-based channel pruning (eqn 5), applied simultaneously
/// with re-quantization when enabled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PruneConfig {
    /// Lower bound on channels per layer (a layer is never pruned away
    /// entirely by eqn 5).
    pub min_channels: usize,
}

impl Default for PruneConfig {
    fn default() -> Self {
        Self { min_channels: 2 }
    }
}

/// Policy for removing dead layers (the paper's Table II iter-2a move):
/// a layer already at `at_most_bits` whose AD stays below `ad_below` is
/// deleted entirely ("the AD of the last layer is very low in spite of
/// extreme quantization … suggesting that we can entirely remove that
/// layer").
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DeadLayerPolicy {
    /// Bit-width at or below which a layer is a removal candidate.
    pub at_most_bits: u32,
    /// AD below which the candidate is considered dead.
    pub ad_below: f64,
}

impl Default for DeadLayerPolicy {
    /// 1-bit layers with AD under 0.05.
    fn default() -> Self {
        Self {
            at_most_bits: 1,
            ad_below: 0.05,
        }
    }
}

/// Configuration of the in-training quantization controller (Algorithm 1).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdqConfig {
    /// Starting precision of every quantizable interior layer
    /// (`k_l⁽⁰⁾ = 16` in the paper; 32 for the TinyImagenet runs).
    pub initial_bits: BitWidth,
    /// Precision the first conv and final classifier are held at
    /// throughout (the paper never quantizes them below 16-bit).
    pub full_precision_bits: BitWidth,
    /// Maximum quantization iterations `N`.
    pub max_iterations: usize,
    /// Epoch budget per iteration (the saturation check can end an
    /// iteration earlier).
    pub max_epochs_per_iteration: usize,
    /// Epochs an iteration must train before the saturation check may fire.
    pub min_epochs_per_iteration: usize,
    /// The per-layer AD saturation detector.
    pub saturation: SaturationDetector,
    /// Mean network AD at which the loop declares convergence
    /// ("AD reaches ~1.0 when further quantization is not possible").
    pub converged_ad: f64,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Enables simultaneous AD-based pruning.
    pub prune: Option<PruneConfig>,
    /// Enables iter-2a removal of dead layers.
    pub remove_dead_layers: Option<DeadLayerPolicy>,
    /// Epoch count of the full-precision baseline schedule that the
    /// training-complexity metric (eqn 4) normalises against.
    pub baseline_epochs: usize,
    /// Seed for shuffling (model weights are seeded at construction).
    pub seed: u64,
}

impl AdqConfig {
    /// Paper-flavoured defaults scaled to the synthetic workloads:
    /// 16-bit start, up to 4 iterations.
    pub fn paper_default() -> Self {
        Self {
            initial_bits: BitWidth::SIXTEEN,
            full_precision_bits: BitWidth::SIXTEEN,
            max_iterations: 4,
            max_epochs_per_iteration: 30,
            min_epochs_per_iteration: 5,
            saturation: SaturationDetector::new(4, 0.01),
            converged_ad: 0.98,
            batch_size: 32,
            lr: 2e-3,
            prune: None,
            remove_dead_layers: None,
            baseline_epochs: 60,
            seed: 0,
        }
    }

    /// Small budget for tests and quick examples.
    pub fn fast() -> Self {
        Self {
            max_iterations: 3,
            max_epochs_per_iteration: 4,
            min_epochs_per_iteration: 2,
            saturation: SaturationDetector::new(2, 0.05),
            baseline_epochs: 8,
            ..Self::paper_default()
        }
    }

    /// Enables pruning with the default floor.
    pub fn with_pruning(mut self) -> Self {
        self.prune = Some(PruneConfig::default());
        self
    }

    /// Enables iter-2a dead-layer removal with the default policy.
    pub fn with_layer_removal(mut self) -> Self {
        self.remove_dead_layers = Some(DeadLayerPolicy::default());
        self
    }
}

impl Default for AdqConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Everything recorded about one quantization iteration — one row of the
/// paper's Tables II/III.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IterationRecord {
    /// 1-based iteration number (`iter` in Algorithm 1).
    pub iteration: usize,
    /// Per-layer bit-widths of the model *during* this iteration.
    pub bits: Vec<Option<BitWidth>>,
    /// Per-layer output channel counts during this iteration.
    pub channels: Vec<usize>,
    /// Epochs actually trained before AD saturated.
    pub epochs_trained: usize,
    /// Per-layer AD measured over the final epoch.
    pub densities: Vec<f64>,
    /// Mean of `densities` — the paper's "Total AD" column.
    pub total_ad: f64,
    /// Test accuracy at the end of the iteration.
    pub test_accuracy: f64,
    /// Training accuracy over the final epoch.
    pub train_accuracy: f64,
    /// Per-epoch, per-layer AD (epoch-major) — the Fig 1/3/4 curves.
    pub ad_history: Vec<Vec<f64>>,
    /// Per-epoch training accuracy.
    pub accuracy_history: Vec<f64>,
    /// Analytical energy reduction of a training step of this iteration's
    /// model relative to the initial-precision model (the
    /// `MAC reduction_i` of eqn 4; 1.0 for iteration 1).
    pub mac_reduction: f64,
}

/// The full result of an Algorithm-1 run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdqOutcome {
    /// One record per quantization iteration, in order.
    pub iterations: Vec<IterationRecord>,
    /// eqn 4, normalised to [`AdqConfig::baseline_epochs`].
    pub training_complexity: f64,
    /// The baseline epoch count used for normalisation.
    pub baseline_epochs: usize,
}

impl AdqOutcome {
    /// The last iteration's record.
    ///
    /// # Panics
    ///
    /// Panics if the run produced no iterations (impossible via
    /// [`AdQuantizer::run`]).
    pub fn final_record(&self) -> &IterationRecord {
        self.iterations
            .last()
            .expect("run always records iterations")
    }

    /// Per-layer bit-widths of the final mixed-precision model.
    pub fn final_bits(&self) -> &[Option<BitWidth>] {
        &self.final_record().bits
    }

    /// Total epochs trained across all iterations.
    pub fn total_epochs(&self) -> usize {
        self.iterations.iter().map(|r| r.epochs_trained).sum()
    }
}

/// The in-training quantization controller — Algorithm 1 of the paper.
///
/// Drives any [`QuantModel`]: trains, watches per-layer Activation Density,
/// re-quantizes with eqn 3 when AD saturates, optionally prunes with eqn 5,
/// and repeats until AD stops changing (≈ 1.0 everywhere).
///
/// # Example
///
/// ```no_run
/// use adq_core::{AdqConfig, AdQuantizer};
/// use adq_datasets::SyntheticSpec;
/// use adq_nn::Vgg;
///
/// let (train, test) = SyntheticSpec::cifar10_like().generate();
/// let mut model = Vgg::small(3, 16, 10, 1);
/// let outcome = AdQuantizer::new(AdqConfig::fast()).run(&mut model, &train, &test);
/// assert!(!outcome.iterations.is_empty());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdQuantizer {
    config: AdqConfig,
}

impl AdQuantizer {
    /// Creates a controller.
    pub fn new(config: AdqConfig) -> Self {
        Self { config }
    }

    /// The configuration.
    pub fn config(&self) -> &AdqConfig {
        &self.config
    }

    /// Runs Algorithm 1 to completion on `model`.
    ///
    /// The model's first and last layers are pinned to
    /// [`AdqConfig::full_precision_bits`]; every interior layer starts at
    /// [`AdqConfig::initial_bits`] and is re-quantized by eqn 3 whenever its
    /// AD saturates, until the network's mean AD reaches
    /// [`AdqConfig::converged_ad`] or the bit-widths stop changing.
    pub fn run(&self, model: &mut dyn QuantModel, train: &Dataset, test: &Dataset) -> AdqOutcome {
        self.run_with_sink(model, train, test, &NullSink)
    }

    /// [`AdQuantizer::run`] with every lifecycle step emitted to `sink`.
    ///
    /// Telemetry is observation-only: the returned [`AdqOutcome`] is
    /// identical whatever sink is attached (the default is the no-op
    /// [`NullSink`]).
    pub fn run_with_sink(
        &self,
        model: &mut dyn QuantModel,
        train: &Dataset,
        test: &Dataset,
        sink: &dyn TelemetrySink,
    ) -> AdqOutcome {
        self.run_impl(model, train, test, sink, None, None)
            .expect("run without checkpointing cannot fail")
    }

    /// [`AdQuantizer::run_with_sink`] that additionally writes a durable
    /// [`RunCheckpoint`] into `manager`'s directory after every iteration
    /// that re-quantizes and continues, and one more when the run stops.
    /// A process killed mid-run can then be continued with
    /// [`AdQuantizer::resume_from`] instead of starting over, and the last
    /// file holds the trained model ([`crate::checkpoint::restore_model`]).
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Io`] if a checkpoint cannot be written;
    /// training state up to that point is lost with the process, never
    /// half-written to disk.
    pub fn run_checkpointed(
        &self,
        model: &mut dyn QuantModel,
        train: &Dataset,
        test: &Dataset,
        sink: &dyn TelemetrySink,
        manager: &CheckpointManager,
    ) -> Result<AdqOutcome, CheckpointError> {
        self.run_impl(model, train, test, sink, Some(manager), None)
    }

    /// Continues an interrupted run from `checkpoint`, producing the same
    /// [`AdqOutcome`] the uninterrupted run would have produced.
    ///
    /// `model` must be a freshly built instance of the *original* run's
    /// starting model (same constructor, same seed): the checkpoint's
    /// structural edits are replayed onto it, then parameters, bit-widths,
    /// normalisation statistics, optimizer moments and the RNG position are
    /// restored. Pass `manager` to keep writing checkpoints while the
    /// resumed run progresses.
    ///
    /// # Errors
    ///
    /// * [`CheckpointError::ConfigMismatch`] — this controller's config is
    ///   not the one the checkpoint was taken under,
    /// * [`CheckpointError::ModelMismatch`] — `model` does not match the
    ///   checkpoint (wrong architecture, shapes, or normalisation layout),
    /// * [`CheckpointError::Io`] — a new checkpoint could not be written.
    pub fn resume_from(
        &self,
        model: &mut dyn QuantModel,
        train: &Dataset,
        test: &Dataset,
        sink: &dyn TelemetrySink,
        checkpoint: RunCheckpoint,
        manager: Option<&CheckpointManager>,
    ) -> Result<AdqOutcome, CheckpointError> {
        self.run_impl(model, train, test, sink, manager, Some(checkpoint))
    }

    // indexed loops: `idx` addresses per-layer densities and the model's
    // index-based interface together
    #[allow(clippy::needless_range_loop)]
    fn run_impl(
        &self,
        model: &mut dyn QuantModel,
        train: &Dataset,
        test: &Dataset,
        sink: &dyn TelemetrySink,
        manager: Option<&CheckpointManager>,
        resume: Option<RunCheckpoint>,
    ) -> Result<AdqOutcome, CheckpointError> {
        let cfg = &self.config;
        let count = model.layer_count();
        assert!(count >= 2, "model needs at least two quantizable layers");
        let energy_model = EnergyModel::paper_45nm();
        let mut optimizer = Adam::new(cfg.lr);

        let (mut iterations, mut structural_ops, mut rng, baseline_energy, start_iteration);
        if let Some(ckpt) = resume {
            if ckpt.config != *cfg {
                return Err(CheckpointError::ConfigMismatch(format!(
                    "resuming controller configured differently from checkpoint \
                     (seed {} vs {}, {} vs {} max iterations, ...)",
                    cfg.seed, ckpt.config.seed, cfg.max_iterations, ckpt.config.max_iterations,
                )));
            }
            if let Some(microbatch) = ckpt.microbatch {
                return Err(CheckpointError::ConfigMismatch(format!(
                    "checkpoint was taken under microbatch {microbatch}; training is \
                     serial now and would not continue it bit-identically"
                )));
            }
            crate::checkpoint::restore_model(model, &ckpt)?;
            optimizer.import_state(ckpt.optimizer);
            rng = adq_tensor::init::rng_from_state(ckpt.rng.key, ckpt.rng.counter, ckpt.rng.index);
            baseline_energy = ckpt.baseline_energy_pj;
            iterations = ckpt.iterations;
            structural_ops = ckpt.structural_ops;
            start_iteration = ckpt.next_iteration;
            sink.record(&TelemetryEvent::RunResumed {
                run: "adq.run".to_string(),
                next_iteration: start_iteration,
                completed_iterations: iterations.len(),
            });
        } else {
            // k_l^(0): pin the ends, initialise the interior
            model.set_bits_of(0, Some(cfg.full_precision_bits));
            model.set_bits_of(count - 1, Some(cfg.full_precision_bits));
            for idx in 1..count - 1 {
                model.set_bits_of(idx, Some(cfg.initial_bits));
            }
            sink.record(&TelemetryEvent::RunStarted {
                run: "adq.run".to_string(),
                config: serde_json::to_value(cfg),
                seed: cfg.seed,
            });
            // the eqn-4 baseline: the unquantized-geometry model at k^(0)
            let baseline_spec =
                network_spec_from_stats("baseline", &model.layer_stats(), cfg.initial_bits)
                    .with_uniform_bits(cfg.initial_bits);
            baseline_energy = baseline_spec.energy_pj(&energy_model);
            sink.record(&TelemetryEvent::EnergyEstimated {
                label: "baseline".to_string(),
                total_pj: baseline_energy,
                efficiency_vs_baseline: 1.0,
            });
            rng = adq_tensor::init::rng(cfg.seed);
            iterations = Vec::new();
            structural_ops = Vec::new();
            start_iteration = 1;
        }

        sink.record(&TelemetryEvent::WorkerPoolConfigured {
            threads: adq_tensor::dispatch::current_num_threads(),
        });

        let metrics = adq_telemetry::metrics::global();
        let eval_batches = metrics.counter("core.eval_batches");

        for iteration in start_iteration..=cfg.max_iterations {
            // The iteration body runs inside a labeled block yielding the
            // loop-exit decision; the iteration's span closes after the
            // checkpoint write and before the per-iteration span drain below.
            let iteration_span = phase_span("adq.iteration", iteration);
            let stop = 'iteration: {
                // layer removal can shrink the model between iterations
                let count = model.layer_count();
                let phase = self.train_phase(
                    model,
                    train,
                    &mut optimizer,
                    &mut rng,
                    sink,
                    iteration,
                    cfg.max_epochs_per_iteration,
                    true,
                );
                let test_stats = {
                    let _evaluate_span = phase_span("adq.phase.evaluate", iteration);
                    evaluate_observed(model, test, cfg.batch_size, &mut |_| eval_batches.inc())
                };
                let (own_energy, mac_reduction) = {
                    let _energy_span = phase_span("adq.phase.energy_eval", iteration);
                    let spec =
                        network_spec_from_stats("iter", &model.layer_stats(), cfg.initial_bits);
                    let own_energy = spec.energy_pj(&energy_model);
                    let mac_reduction = if own_energy > 0.0 {
                        baseline_energy / own_energy
                    } else {
                        1.0
                    };
                    (own_energy, mac_reduction)
                };
                sink.record(&TelemetryEvent::EnergyEstimated {
                    label: format!("iteration-{iteration}"),
                    total_pj: own_energy,
                    efficiency_vs_baseline: mac_reduction,
                });
                let record = phase.record(iteration, model, test_stats.accuracy, mac_reduction);
                let (densities, total_ad) = (record.densities.clone(), record.total_ad);
                sink.record(&TelemetryEvent::IterationCompleted {
                    iteration,
                    epochs_trained: record.epochs_trained,
                    test_accuracy: record.test_accuracy,
                    record: serde_json::to_value(&record),
                });
                iterations.push(record);

                if iteration == cfg.max_iterations {
                    break 'iteration true;
                }
                // convergence: AD ≈ 1 everywhere
                if total_ad >= cfg.converged_ad {
                    break 'iteration true;
                }
                // eqn 3 re-quantization of interior layers
                let mut any_change = false;
                {
                    let _bitwidth_span = phase_span("adq.phase.bitwidth_update", iteration);
                    for idx in 1..count - 1 {
                        let current = model
                            .bits_of(idx)
                            .expect("interior layers were initialised with bits");
                        let updated = current.scaled_by_density(densities[idx]);
                        sink.record(&TelemetryEvent::BitWidthAssigned {
                            iteration,
                            layer: idx,
                            old_bits: current.get(),
                            new_bits: updated.get(),
                        });
                        // Current bit schedule as gauges, one per layer,
                        // for the live endpoint's dashboard view.
                        metrics
                            .gauge(&format!("run.bits.layer{idx}"))
                            .set(updated.get() as f64);
                        if updated != current {
                            any_change = true;
                            model.set_bits_of(idx, Some(updated));
                        }
                    }
                }
                {
                    let _prune_span = phase_span("adq.phase.prune", iteration);
                    // eqn 5 simultaneous pruning
                    if let Some(prune) = cfg.prune {
                        for idx in 1..count - 1 {
                            let channels = model.out_channels_of(idx);
                            let keep = ((channels as f64) * densities[idx]).round() as usize;
                            let keep = keep.clamp(prune.min_channels.min(channels), channels);
                            if keep < channels && model.prune_layer_to(idx, keep) {
                                any_change = true;
                                structural_ops.push(StructuralOp::Prune { layer: idx, keep });
                                sink.record(&TelemetryEvent::LayerPruned {
                                    iteration,
                                    layer: idx,
                                    old_channels: channels,
                                    new_channels: keep,
                                });
                            }
                        }
                        // pruned shapes invalidate optimizer state
                        optimizer.reset_state();
                    }
                    // iter-2a: delete layers that stay dead at extreme
                    // quantization. High-to-low order keeps the densities
                    // indices valid while the model shrinks.
                    if let Some(policy) = cfg.remove_dead_layers {
                        for idx in (1..densities.len().saturating_sub(1)).rev() {
                            if idx >= model.layer_count().saturating_sub(1) {
                                continue;
                            }
                            let dead = model
                                .bits_of(idx)
                                .is_some_and(|b| b.get() <= policy.at_most_bits)
                                && densities[idx] <= policy.ad_below;
                            if dead && model.remove_layer(idx) {
                                any_change = true;
                                optimizer.reset_state();
                                structural_ops.push(StructuralOp::Remove { layer: idx });
                                sink.record(&TelemetryEvent::LayerRemoved {
                                    iteration,
                                    layer: idx,
                                });
                            }
                        }
                    }
                }
                // fixed point: k_l stable for every layer
                !any_change
            };
            // durably capture the state the run continues from or, once it
            // stops, the trained model it ends with
            if let Some(manager) = manager {
                let _checkpoint_span = phase_span("adq.phase.checkpoint", iteration);
                let (key, counter, index) = adq_tensor::init::rng_state(&rng);
                let checkpoint = RunCheckpoint {
                    version: CHECKPOINT_VERSION,
                    config: *cfg,
                    next_iteration: if stop {
                        cfg.max_iterations + 1
                    } else {
                        iteration + 1
                    },
                    iterations: iterations.clone(),
                    structural_ops: structural_ops.clone(),
                    params: export_params(model),
                    norm_stats: model.norm_stats(),
                    bits: (0..model.layer_count()).map(|i| model.bits_of(i)).collect(),
                    optimizer: optimizer.export_state(),
                    rng: RngState {
                        key,
                        counter,
                        index,
                    },
                    baseline_energy_pj: baseline_energy,
                    microbatch: None,
                };
                let (path, bytes) = manager.save(&checkpoint)?;
                sink.record(&TelemetryEvent::CheckpointSaved {
                    iteration,
                    path: path.display().to_string(),
                    bytes,
                });
            }
            drop(iteration_span);
            // Stream this iteration's spans out while they are fresh;
            // with tracing off the buffers are empty and this is a no-op.
            span::drain_into(sink);
            if stop {
                break;
            }
        }

        let costs: Vec<IterationCost> = iterations
            .iter()
            .map(|r| IterationCost::new(r.mac_reduction.max(1e-9), r.epochs_trained))
            .collect();
        let outcome = AdqOutcome {
            training_complexity: training_complexity(&costs, cfg.baseline_epochs),
            baseline_epochs: cfg.baseline_epochs,
            iterations,
        };
        sink.record(&TelemetryEvent::RunCompleted {
            iterations: outcome.iterations.len(),
            training_complexity: outcome.training_complexity,
            final_accuracy: outcome.final_record().test_accuracy,
        });
        // Catch spans recorded after the last iteration drain.
        span::drain_into(sink);
        sink.flush();
        Ok(outcome)
    }

    /// Trains `model` at a fixed uniform precision for the full epoch
    /// budget, recording AD trajectories — the paper's baseline runs
    /// (Table II iter 1, Fig 3).
    pub fn run_baseline(
        &self,
        model: &mut dyn QuantModel,
        train: &Dataset,
        test: &Dataset,
        epochs: usize,
    ) -> IterationRecord {
        self.run_baseline_with_sink(model, train, test, epochs, &NullSink)
    }

    /// [`AdQuantizer::run_baseline`] with the epoch/density/completion
    /// events emitted to `sink` (observation-only, like
    /// [`AdQuantizer::run_with_sink`]).
    pub fn run_baseline_with_sink(
        &self,
        model: &mut dyn QuantModel,
        train: &Dataset,
        test: &Dataset,
        epochs: usize,
        sink: &dyn TelemetrySink,
    ) -> IterationRecord {
        let cfg = &self.config;
        for idx in 0..model.layer_count() {
            model.set_bits_of(idx, Some(cfg.initial_bits));
        }
        sink.record(&TelemetryEvent::RunStarted {
            run: "adq.baseline".to_string(),
            config: serde_json::to_value(cfg),
            seed: cfg.seed,
        });
        sink.record(&TelemetryEvent::WorkerPoolConfigured {
            threads: adq_tensor::dispatch::current_num_threads(),
        });
        let mut optimizer = Adam::new(cfg.lr);
        let mut rng = adq_tensor::init::rng(cfg.seed);
        let mut baseline_span = phase_span("adq.iteration", 1);
        baseline_span.attr("baseline", 1u64);
        let phase = self.train_phase(
            model,
            train,
            &mut optimizer,
            &mut rng,
            sink,
            1,
            epochs,
            false,
        );
        let test_stats = {
            let _evaluate_span = phase_span("adq.phase.evaluate", 1);
            evaluate_observed(model, test, cfg.batch_size, &mut |_| {})
        };
        let record = phase.record(1, model, test_stats.accuracy, 1.0);
        sink.record(&TelemetryEvent::IterationCompleted {
            iteration: 1,
            epochs_trained: epochs,
            test_accuracy: record.test_accuracy,
            record: serde_json::to_value(&record),
        });
        sink.record(&TelemetryEvent::RunCompleted {
            iterations: 1,
            training_complexity: training_complexity(
                &[IterationCost::new(1.0, epochs)],
                cfg.baseline_epochs,
            ),
            final_accuracy: record.test_accuracy,
        });
        drop(baseline_span);
        span::drain_into(sink);
        sink.flush();
        record
    }

    /// Algorithm 1's epoch loop: trains `model` for up to `max_epochs`
    /// epochs and measures every layer's AD after each. With
    /// `saturation_exit`, it stops once every layer's AD has saturated and
    /// [`AdqConfig::min_epochs_per_iteration`] epochs have run.
    #[allow(clippy::too_many_arguments)]
    fn train_phase(
        &self,
        model: &mut dyn QuantModel,
        train: &Dataset,
        optimizer: &mut Adam,
        rng: &mut ChaCha8Rng,
        sink: &dyn TelemetrySink,
        iteration: usize,
        max_epochs: usize,
        saturation_exit: bool,
    ) -> TrainedPhase {
        let cfg = &self.config;
        let metrics = adq_telemetry::metrics::global();
        let train_batches = metrics.counter("core.train_batches");
        // Live-run gauges: last-write-wins progress values the metrics
        // endpoint serves mid-run (Prometheus scrapers, `adq-watch`).
        // Observation-only — nothing reads them back into the run.
        let run_iteration = metrics.gauge("run.iteration");
        let run_epoch = metrics.gauge("run.epoch");
        let run_loss = metrics.gauge("run.loss");
        let run_accuracy = metrics.gauge("run.accuracy");
        let run_total_ad = metrics.gauge("run.total_ad");
        let mut phase = TrainedPhase {
            histories: (0..model.layer_count())
                .map(|_| DensityHistory::new())
                .collect(),
            accuracy_history: Vec::new(),
        };
        let mut train_span = phase_span("adq.phase.train", iteration);
        for epoch in 1..=max_epochs {
            let mut epoch_span = phase_span("adq.epoch", iteration);
            epoch_span.attr("epoch", epoch);
            model.reset_densities();
            let stats =
                train_epoch_observed(model, train, optimizer, cfg.batch_size, rng, &mut |_| {
                    train_batches.inc()
                });
            phase.accuracy_history.push(stats.accuracy);
            let mut ad_span = phase_span("adq.phase.ad_measure", iteration);
            ad_span.attr("epoch", epoch);
            for (idx, history) in phase.histories.iter_mut().enumerate() {
                history.record(model.density_of(idx).clamp(0.0, 1.0));
            }
            sink.record(&TelemetryEvent::EpochCompleted {
                iteration,
                epoch,
                loss: stats.loss,
                accuracy: stats.accuracy,
            });
            run_iteration.set(iteration as f64);
            run_epoch.set(epoch as f64);
            run_loss.set(stats.loss);
            run_accuracy.set(stats.accuracy);
            let epoch_densities = phase.densities();
            run_total_ad.set(mean(&epoch_densities));
            sink.record(&TelemetryEvent::DensityMeasured {
                iteration,
                epoch,
                total_ad: mean(&epoch_densities),
                densities: epoch_densities,
            });
            if saturation_exit
                && epoch >= cfg.min_epochs_per_iteration
                && phase
                    .histories
                    .iter()
                    .all(|h| h.is_saturated(&cfg.saturation))
            {
                sink.record(&TelemetryEvent::SaturationDetected {
                    iteration,
                    epoch,
                    window: cfg.saturation.window(),
                    tolerance: cfg.saturation.tolerance(),
                });
                break;
            }
        }
        train_span.attr("epochs", phase.accuracy_history.len());
        phase
    }
}

/// What one training phase measured: every layer's AD and the training
/// accuracy, per epoch.
struct TrainedPhase {
    histories: Vec<DensityHistory>,
    accuracy_history: Vec<f64>,
}

impl TrainedPhase {
    /// Each layer's AD over the latest epoch.
    fn densities(&self) -> Vec<f64> {
        self.histories
            .iter()
            .map(|h| h.latest().unwrap_or(0.0))
            .collect()
    }

    /// The phase's row of Tables II/III, with `model`'s current bit-widths
    /// and channel counts.
    fn record(
        self,
        iteration: usize,
        model: &dyn QuantModel,
        test_accuracy: f64,
        mac_reduction: f64,
    ) -> IterationRecord {
        let count = model.layer_count();
        let epochs_trained = self.accuracy_history.len();
        let densities = self.densities();
        IterationRecord {
            iteration,
            bits: (0..count).map(|i| model.bits_of(i)).collect(),
            channels: (0..count).map(|i| model.out_channels_of(i)).collect(),
            epochs_trained,
            total_ad: mean(&densities),
            densities,
            test_accuracy,
            train_accuracy: self.accuracy_history.last().copied().unwrap_or(0.0),
            ad_history: (0..epochs_trained)
                .map(|e| self.histories.iter().map(|h| h.samples()[e]).collect())
                .collect(),
            accuracy_history: self.accuracy_history,
            mac_reduction,
        }
    }
}

/// Opens a controller phase span carrying the iteration attribute, or a
/// no-op guard when tracing is off (the attribute vector is only built
/// when it will be recorded).
fn phase_span(name: &'static str, iteration: usize) -> SpanGuard {
    if span::enabled() {
        span::span_with(
            name,
            vec![("iteration", span::AttrValue::U64(iteration as u64))],
        )
    } else {
        SpanGuard::disabled()
    }
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adq_datasets::SyntheticSpec;
    use adq_nn::{ResNet, Vgg};

    fn tiny_task() -> (Dataset, Dataset) {
        SyntheticSpec::cifar10_like()
            .with_classes(4)
            .with_resolution(8)
            .with_samples(8, 4)
            .generate()
    }

    #[test]
    fn run_records_at_least_one_iteration() {
        let (train, test) = tiny_task();
        let mut model = Vgg::tiny(3, 8, 4, 1);
        let outcome = AdQuantizer::new(AdqConfig::fast()).run(&mut model, &train, &test);
        assert!(!outcome.iterations.is_empty());
        assert!(outcome.total_epochs() > 0);
    }

    #[test]
    fn first_and_last_layers_stay_full_precision() {
        let (train, test) = tiny_task();
        let mut model = Vgg::tiny(3, 8, 4, 2);
        let cfg = AdqConfig::fast();
        let outcome = AdQuantizer::new(cfg).run(&mut model, &train, &test);
        for record in &outcome.iterations {
            assert_eq!(record.bits[0], Some(cfg.full_precision_bits));
            assert_eq!(
                record.bits[record.bits.len() - 1],
                Some(cfg.full_precision_bits)
            );
        }
    }

    #[test]
    fn interior_bits_never_increase_across_iterations() {
        let (train, test) = tiny_task();
        let mut model = Vgg::tiny(3, 8, 4, 3);
        let outcome = AdQuantizer::new(AdqConfig::fast()).run(&mut model, &train, &test);
        for pair in outcome.iterations.windows(2) {
            for idx in 1..pair[0].bits.len() - 1 {
                assert!(
                    pair[1].bits[idx] <= pair[0].bits[idx],
                    "layer {idx} grew: {:?} -> {:?}",
                    pair[0].bits[idx],
                    pair[1].bits[idx]
                );
            }
        }
    }

    #[test]
    fn first_iteration_reduction_is_one() {
        let (train, test) = tiny_task();
        let mut model = Vgg::tiny(3, 8, 4, 4);
        let outcome = AdQuantizer::new(AdqConfig::fast()).run(&mut model, &train, &test);
        assert!((outcome.iterations[0].mac_reduction - 1.0).abs() < 1e-9);
    }

    #[test]
    fn later_iterations_are_cheaper() {
        let (train, test) = tiny_task();
        let mut model = Vgg::tiny(3, 8, 4, 5);
        let outcome = AdQuantizer::new(AdqConfig::fast()).run(&mut model, &train, &test);
        if outcome.iterations.len() >= 2 {
            assert!(outcome.iterations[1].mac_reduction > 1.0);
        }
    }

    #[test]
    fn densities_are_probabilities() {
        let (train, test) = tiny_task();
        let mut model = Vgg::tiny(3, 8, 4, 6);
        let outcome = AdQuantizer::new(AdqConfig::fast()).run(&mut model, &train, &test);
        for record in &outcome.iterations {
            assert!(record.densities.iter().all(|d| (0.0..=1.0).contains(d)));
            assert!((0.0..=1.0).contains(&record.total_ad));
        }
    }

    #[test]
    fn ad_history_shape_matches_epochs() {
        let (train, test) = tiny_task();
        let mut model = Vgg::tiny(3, 8, 4, 7);
        let outcome = AdQuantizer::new(AdqConfig::fast()).run(&mut model, &train, &test);
        for record in &outcome.iterations {
            assert_eq!(record.ad_history.len(), record.epochs_trained);
            for row in &record.ad_history {
                assert_eq!(row.len(), record.bits.len());
            }
        }
    }

    #[test]
    fn pruning_shrinks_channels() {
        let (train, test) = tiny_task();
        let mut model = Vgg::tiny(3, 8, 4, 8);
        let before: Vec<usize> = (0..model.layer_count())
            .map(|i| model.out_channels_of(i))
            .collect();
        let cfg = AdqConfig::fast().with_pruning();
        let outcome = AdQuantizer::new(cfg).run(&mut model, &train, &test);
        let last = outcome.final_record();
        // densities are well below 1 early on, so pruning must have bitten
        // somewhere unless the run converged after one iteration
        if outcome.iterations.len() >= 2 {
            let shrunk = last
                .channels
                .iter()
                .zip(&before)
                .any(|(after, before)| after < before);
            assert!(shrunk, "{:?} vs {before:?}", last.channels);
        }
    }

    #[test]
    fn works_on_resnet_with_junctions() {
        let (train, test) = tiny_task();
        let mut model = ResNet::tiny(3, 8, 4, 9);
        let outcome = AdQuantizer::new(AdqConfig::fast()).run(&mut model, &train, &test);
        assert!(!outcome.iterations.is_empty());
        // junction bits must never exceed initial precision
        for record in &outcome.iterations {
            for bits in record.bits.iter().flatten() {
                assert!(*bits <= BitWidth::SIXTEEN);
            }
        }
    }

    #[test]
    fn training_complexity_positive_and_finite() {
        let (train, test) = tiny_task();
        let mut model = Vgg::tiny(3, 8, 4, 10);
        let outcome = AdQuantizer::new(AdqConfig::fast()).run(&mut model, &train, &test);
        assert!(outcome.training_complexity > 0.0);
        assert!(outcome.training_complexity.is_finite());
    }

    #[test]
    fn baseline_run_keeps_uniform_bits() {
        let (train, test) = tiny_task();
        let mut model = Vgg::tiny(3, 8, 4, 11);
        let cfg = AdqConfig::fast();
        let record = AdQuantizer::new(cfg).run_baseline(&mut model, &train, &test, 3);
        assert_eq!(record.epochs_trained, 3);
        assert!(record.bits.iter().all(|b| *b == Some(cfg.initial_bits)));
        assert!((record.mac_reduction - 1.0).abs() < 1e-12);
    }

    #[test]
    fn dead_layer_removal_shrinks_model() {
        use adq_nn::VggItem::{Conv, Pool};
        let (train, test) = tiny_task();
        // interior square blocks (8->8) are removable
        let mut model = adq_nn::Vgg::from_config(
            3,
            8,
            4,
            &[Conv(8), Conv(8), Conv(8), Pool, Conv(16)],
            true,
            30,
        );
        let before = model.layer_count();
        let mut cfg = AdqConfig::fast();
        cfg.max_iterations = 4;
        // force the trigger: everything counts as dead once bits collapse
        cfg.remove_dead_layers = Some(DeadLayerPolicy {
            at_most_bits: 16,
            ad_below: 1.0,
        });
        let outcome = AdQuantizer::new(cfg).run(&mut model, &train, &test);
        assert!(
            model.layer_count() < before,
            "no layer was removed ({before} -> {})",
            model.layer_count()
        );
        // records reflect the shrinking architecture
        let first = outcome.iterations.first().expect("ran").bits.len();
        let last = outcome.final_record().bits.len();
        assert!(last < first);
        // and the model still runs
        let y = model.forward(&test.images, false);
        assert_eq!(y.dims()[1], 4);
    }

    #[test]
    fn default_policy_spares_healthy_layers() {
        let (train, test) = tiny_task();
        let mut model = Vgg::tiny(3, 8, 4, 31);
        let before = model.layer_count();
        let cfg = AdqConfig::fast().with_layer_removal();
        AdQuantizer::new(cfg).run(&mut model, &train, &test);
        // healthy ADs (~0.5) never cross the 0.05 default threshold
        assert_eq!(model.layer_count(), before);
    }

    #[test]
    fn saturation_can_end_iteration_early() {
        let (train, test) = tiny_task();
        let mut model = Vgg::tiny(3, 8, 4, 12);
        let mut cfg = AdqConfig::fast();
        cfg.max_epochs_per_iteration = 50;
        cfg.min_epochs_per_iteration = 2;
        cfg.saturation = SaturationDetector::new(2, 0.5); // very lax
        let outcome = AdQuantizer::new(cfg).run(&mut model, &train, &test);
        assert!(outcome.iterations[0].epochs_trained < 50);
    }
}
