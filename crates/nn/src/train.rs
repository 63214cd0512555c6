//! Training-loop helpers: mini-batching, one-epoch train/eval passes, and
//! a deterministic data-parallel epoch that splits batches into fixed-size
//! microbatches across rayon workers.

use std::sync::{Arc, OnceLock};

use adq_telemetry::span::{self, SpanGuard};
use adq_telemetry::{Histogram, ScopedTimer};
use adq_tensor::Tensor;
use rand::seq::SliceRandom;
use rand::Rng;
use rayon::prelude::*;

use crate::loss::{accuracy, softmax_cross_entropy};
use crate::model::QuantModel;
use crate::optim::{Adam, Optimizer};

/// Wall-time of one microbatch forward/backward, recorded per worker run
/// into the process-wide `nn.train.microbatch` histogram.
fn microbatch_timer() -> ScopedTimer {
    static HIST: OnceLock<Arc<Histogram>> = OnceLock::new();
    ScopedTimer::new(
        HIST.get_or_init(|| adq_telemetry::metrics::global().histogram("nn.train.microbatch")),
    )
}

/// Wall-time of the fixed-tree gradient reduction (`nn.train.reduce`).
fn reduce_timer() -> ScopedTimer {
    static HIST: OnceLock<Arc<Histogram>> = OnceLock::new();
    ScopedTimer::new(
        HIST.get_or_init(|| adq_telemetry::metrics::global().histogram("nn.train.reduce")),
    )
}

/// Opens an `nn.batch` span for one training batch (no-op when tracing
/// is off; the attribute vector is only built when recorded).
///
/// Also feeds the `nn.train.samples` counter, the live-throughput signal
/// the metrics endpoint exposes (`adq-watch` derives iteration ETA from
/// its rate); counting happens whether or not tracing is on.
fn batch_span(batch: usize, samples: usize) -> SpanGuard {
    static SAMPLES: OnceLock<Arc<adq_telemetry::Counter>> = OnceLock::new();
    SAMPLES
        .get_or_init(|| adq_telemetry::metrics::global().counter("nn.train.samples"))
        .add(samples as u64);
    if span::enabled() {
        span::span_with(
            "nn.batch",
            vec![("batch", batch.into()), ("samples", samples.into())],
        )
    } else {
        SpanGuard::disabled()
    }
}

/// A labelled image-classification dataset held in memory:
/// images `[N, C, H, W]` plus `N` class indices.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    /// Images, `[N, C, H, W]`.
    pub images: Tensor,
    /// Class index per image.
    pub labels: Vec<usize>,
}

impl Dataset {
    /// Creates a dataset, validating shapes.
    ///
    /// # Panics
    ///
    /// Panics if `images` is not rank-4 or the label count mismatches.
    pub fn new(images: Tensor, labels: Vec<usize>) -> Self {
        assert_eq!(images.rank(), 4, "images must be [N, C, H, W]");
        assert_eq!(images.dims()[0], labels.len(), "one label per image");
        Self { images, labels }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Copies the samples at `indices` into a contiguous batch.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn batch(&self, indices: &[usize]) -> (Tensor, Vec<usize>) {
        let dims = self.images.dims();
        let (c, h, w) = (dims[1], dims[2], dims[3]);
        let sample = c * h * w;
        let mut data = Vec::with_capacity(indices.len() * sample);
        let mut labels = Vec::with_capacity(indices.len());
        for &i in indices {
            data.extend_from_slice(&self.images.data()[i * sample..(i + 1) * sample]);
            labels.push(self.labels[i]);
        }
        let images =
            Tensor::from_vec(data, &[indices.len(), c, h, w]).expect("batch sized by construction");
        (images, labels)
    }
}

/// Metrics of one pass over a dataset.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EpochStats {
    /// Sample-weighted mean loss over the pass (every sample contributes
    /// equally, regardless of how the pass was batched).
    pub loss: f64,
    /// Fraction of correctly classified samples.
    pub accuracy: f64,
}

/// Per-batch metrics handed to the `_observed` pass variants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchStats {
    /// 0-based batch index within the pass.
    pub batch: usize,
    /// Samples in this batch (the trailing batch may be smaller).
    pub samples: usize,
    /// Mean loss over this batch.
    pub loss: f64,
    /// Fraction of this batch classified correctly.
    pub accuracy: f64,
}

/// Trains one epoch with Adam, returning loss/accuracy over the epoch.
///
/// Shuffles with the supplied RNG, so epochs are reproducible given a seeded
/// stream.
pub fn train_epoch(
    model: &mut dyn QuantModel,
    data: &Dataset,
    optimizer: &mut Adam,
    batch_size: usize,
    rng: &mut impl Rng,
) -> EpochStats {
    train_epoch_observed(model, data, optimizer, batch_size, rng, &mut |_| {})
}

/// [`train_epoch`] with a per-batch observation hook — the emission point
/// telemetry layers attach to without this crate depending on them.
pub fn train_epoch_observed(
    model: &mut dyn QuantModel,
    data: &Dataset,
    optimizer: &mut Adam,
    batch_size: usize,
    rng: &mut impl Rng,
    observe: &mut dyn FnMut(BatchStats),
) -> EpochStats {
    assert!(batch_size > 0, "batch size must be positive");
    let mut order: Vec<usize> = (0..data.len()).collect();
    order.shuffle(rng);
    let mut total_loss = 0.0f64;
    let mut correct = 0.0f64;
    for (batch, chunk) in order.chunks(batch_size).enumerate() {
        let _batch_span = batch_span(batch, chunk.len());
        let (images, labels) = data.batch(chunk);
        let logits = model.forward(&images, true);
        let out = softmax_cross_entropy(&logits, &labels);
        let batch_acc = accuracy(&logits, &labels);
        // weight by sample count: the trailing batch may be smaller
        total_loss += f64::from(out.loss) * labels.len() as f64;
        correct += batch_acc * labels.len() as f64;
        model.zero_grad();
        model.backward(&out.grad);
        optimizer.begin_step();
        model.visit_params(&mut |slot, p| optimizer.step_param(slot, p));
        observe(BatchStats {
            batch,
            samples: labels.len(),
            loss: f64::from(out.loss),
            accuracy: batch_acc,
        });
    }
    pass_stats(total_loss, correct, data.len())
}

/// One microbatch worker's model replica plus everything it ships back to
/// the master after a forward/backward: gradients, density counts,
/// batch-norm statistics, and loss/accuracy tallies.
struct ReplicaSlot {
    model: Box<dyn QuantModel + Send>,
    grads: Vec<Tensor>,
    density: Vec<u64>,
    bn_updates: Vec<(Vec<f32>, Vec<f32>)>,
    loss: f64,
    accuracy: f64,
    samples: usize,
}

impl ReplicaSlot {
    fn new(model: Box<dyn QuantModel + Send>) -> Self {
        Self {
            model,
            grads: Vec::new(),
            density: Vec::new(),
            bn_updates: Vec::new(),
            loss: 0.0,
            accuracy: 0.0,
            samples: 0,
        }
    }
}

/// Forward/backward of one microbatch on a replica. The replica's
/// trainable parameters are refreshed from `params` first; its density
/// meters are reset so the exported counts are this microbatch's exact
/// delta. The loss gradient is rescaled from the microbatch mean to the
/// microbatch's share of the batch mean (`n_m / batch_n`), so summing the
/// per-replica gradients yields a full-batch-mean gradient.
fn run_microbatch(
    slot: &mut ReplicaSlot,
    indices: &[usize],
    params: &[Tensor],
    data: &Dataset,
    batch_n: usize,
) {
    let model = slot.model.as_mut();
    import_params(model, params).expect("replica shares the master architecture");
    model.zero_grad();
    model.reset_densities();
    let (images, labels) = data.batch(indices);
    let logits = model.forward(&images, true);
    let out = softmax_cross_entropy(&logits, &labels);
    slot.loss = f64::from(out.loss);
    slot.accuracy = accuracy(&logits, &labels);
    slot.samples = labels.len();
    let scale = labels.len() as f32 / batch_n as f32;
    let grad = if scale == 1.0 {
        out.grad
    } else {
        out.grad.scaled(scale)
    };
    model.backward(&grad);
    slot.grads.clear();
    model.visit_params(&mut |_, p| slot.grads.push(p.grad.clone()));
    slot.bn_updates = model.take_batch_norm_updates();
    slot.density = model.export_density_counts();
}

/// Sums per-microbatch gradient sets into `grads[0]` with a fixed binary
/// tree whose pairing depends only on the microbatch index — never on the
/// thread count or completion order — so the reduced gradient is
/// bit-identical however the forward/backward work was scheduled.
fn tree_reduce_into_first(grads: &mut [Vec<Tensor>]) {
    let m = grads.len();
    let mut stride = 1;
    while stride < m {
        let mut i = 0;
        while i + stride < m {
            let (left, right) = grads.split_at_mut(i + stride);
            for (a, b) in left[i].iter_mut().zip(&right[0]) {
                a.add_scaled(b, 1.0).expect("gradient shapes agree");
            }
            i += 2 * stride;
        }
        stride *= 2;
    }
}

/// Trains one epoch with Adam using intra-batch data parallelism: each
/// batch is split into fixed-size microbatches that run forward/backward
/// on independent model replicas across rayon workers.
///
/// The outcome is **bit-identical at any worker count** (including 1):
/// microbatch boundaries are a pure function of the batch layout, each
/// replica's computation depends only on its microbatch index, gradients
/// combine through a fixed binary tree ([`tree_reduce_into_first`]), and
/// the master replays density counts and batch-norm updates in microbatch
/// index order. With a single microbatch per batch
/// (`microbatch >= batch_size`) the result is additionally bit-identical
/// to the serial [`train_epoch`].
///
/// Falls back to the serial path when the model does not support
/// [`QuantModel::fork`]. Models using [`crate::ActRangeMode::Ema`] keep
/// per-replica observer state (keyed to the microbatch index, so still
/// deterministic) rather than the master's.
///
/// # Panics
///
/// Panics if `batch_size` or `microbatch` is zero.
pub fn train_epoch_parallel(
    model: &mut dyn QuantModel,
    data: &Dataset,
    optimizer: &mut Adam,
    batch_size: usize,
    microbatch: usize,
    rng: &mut impl Rng,
) -> EpochStats {
    train_epoch_parallel_observed(
        model,
        data,
        optimizer,
        batch_size,
        microbatch,
        rng,
        &mut |_| {},
    )
}

/// [`train_epoch_parallel`] with a per-batch observation hook (one
/// [`BatchStats`] per batch, combining its microbatches sample-weighted).
pub fn train_epoch_parallel_observed(
    model: &mut dyn QuantModel,
    data: &Dataset,
    optimizer: &mut Adam,
    batch_size: usize,
    microbatch: usize,
    rng: &mut impl Rng,
    observe: &mut dyn FnMut(BatchStats),
) -> EpochStats {
    assert!(batch_size > 0, "batch size must be positive");
    assert!(microbatch > 0, "microbatch size must be positive");
    let replica_count = batch_size.div_ceil(microbatch);
    let mut replicas: Vec<ReplicaSlot> = Vec::with_capacity(replica_count);
    for _ in 0..replica_count {
        match model.fork() {
            Some(m) => replicas.push(ReplicaSlot::new(m)),
            // graceful serial fallback (no RNG has been consumed yet)
            None => return train_epoch_observed(model, data, optimizer, batch_size, rng, observe),
        }
    }
    let mut order: Vec<usize> = (0..data.len()).collect();
    order.shuffle(rng);
    let mut total_loss = 0.0f64;
    let mut correct = 0.0f64;
    for (batch, chunk) in order.chunks(batch_size).enumerate() {
        let batch_n = chunk.len();
        let active = batch_n.div_ceil(microbatch);
        let _batch_span = batch_span(batch, batch_n);
        // Workers have no ambient current span, so the fan-out hands the
        // batch span's id down explicitly (0 when tracing is off).
        let batch_span_id = _batch_span.id();
        let params = export_params(model);
        {
            // microbatch i always runs on replica i: any replica-resident
            // state (e.g. EMA range observers) evolves identically at any
            // worker count
            let params = &params;
            let jobs: Vec<(usize, (&mut ReplicaSlot, &[usize]))> = replicas
                .iter_mut()
                .zip(chunk.chunks(microbatch))
                .enumerate()
                .collect();
            jobs.into_par_iter().for_each(|(index, (slot, indices))| {
                let _span = if span::enabled() {
                    span::child_span_with(
                        batch_span_id,
                        "nn.microbatch",
                        vec![("index", index.into()), ("samples", indices.len().into())],
                    )
                } else {
                    SpanGuard::disabled()
                };
                let _timer = microbatch_timer();
                run_microbatch(slot, indices, params, data, batch_n);
            });
        }
        let reduced = {
            // Nested under the still-open batch span on this thread.
            let _span = span::span("nn.reduce");
            let _timer = reduce_timer();
            let mut trees: Vec<Vec<Tensor>> = replicas[..active]
                .iter_mut()
                .map(|s| std::mem::take(&mut s.grads))
                .collect();
            tree_reduce_into_first(&mut trees);
            trees.swap_remove(0)
        };
        model.zero_grad();
        let mut next = reduced.into_iter();
        model.visit_params(&mut |_, p| {
            p.grad = next.next().expect("one gradient per parameter");
        });
        optimizer.begin_step();
        model.visit_params(&mut |slot, p| optimizer.step_param(slot, p));
        // replay side effects in microbatch index order
        let mut batch_loss = 0.0f64;
        let mut batch_correct = 0.0f64;
        for part in replicas[..active].iter_mut() {
            model
                .absorb_density_counts(&part.density)
                .expect("replica layout matches master");
            let updates = std::mem::take(&mut part.bn_updates);
            model
                .apply_batch_norm_updates(&updates)
                .expect("replica layout matches master");
            batch_loss += part.loss * part.samples as f64;
            batch_correct += part.accuracy * part.samples as f64;
        }
        total_loss += batch_loss;
        correct += batch_correct;
        // a lone microbatch reports its stats untouched, keeping the
        // single-microbatch path bit-identical to the serial one
        let (loss, acc) = if active == 1 {
            (replicas[0].loss, replicas[0].accuracy)
        } else {
            (batch_loss / batch_n as f64, batch_correct / batch_n as f64)
        };
        observe(BatchStats {
            batch,
            samples: batch_n,
            loss,
            accuracy: acc,
        });
    }
    pass_stats(total_loss, correct, data.len())
}

/// Evaluates the model (no gradient, no density accumulation).
pub fn evaluate(model: &mut dyn QuantModel, data: &Dataset, batch_size: usize) -> EpochStats {
    evaluate_observed(model, data, batch_size, &mut |_| {})
}

/// [`evaluate`] with a per-batch observation hook.
pub fn evaluate_observed(
    model: &mut dyn QuantModel,
    data: &Dataset,
    batch_size: usize,
    observe: &mut dyn FnMut(BatchStats),
) -> EpochStats {
    assert!(batch_size > 0, "batch size must be positive");
    let order: Vec<usize> = (0..data.len()).collect();
    let mut total_loss = 0.0f64;
    let mut correct = 0.0f64;
    for (batch, chunk) in order.chunks(batch_size).enumerate() {
        let (images, labels) = data.batch(chunk);
        let logits = model.forward(&images, false);
        let out = softmax_cross_entropy(&logits, &labels);
        let batch_acc = accuracy(&logits, &labels);
        total_loss += f64::from(out.loss) * labels.len() as f64;
        correct += batch_acc * labels.len() as f64;
        observe(BatchStats {
            batch,
            samples: labels.len(),
            loss: f64::from(out.loss),
            accuracy: batch_acc,
        });
    }
    pass_stats(total_loss, correct, data.len())
}

/// Folds sample-weighted totals into [`EpochStats`].
fn pass_stats(total_loss: f64, correct: f64, samples: usize) -> EpochStats {
    if samples == 0 {
        EpochStats::default()
    } else {
        EpochStats {
            loss: total_loss / samples as f64,
            accuracy: correct / samples as f64,
        }
    }
}

/// Snapshots every trainable parameter value, in stable slot order — a
/// minimal "state dict" for persistence (tensors are serde-serialisable).
///
/// Only *trainable* parameters are captured; batch-norm running statistics
/// are not, so a restored model reproduces the donor exactly in
/// architectures without BN and up to re-estimated statistics otherwise.
pub fn export_params(model: &mut dyn QuantModel) -> Vec<Tensor> {
    let mut out = Vec::new();
    model.visit_params(&mut |_, p| out.push(p.value.clone()));
    out
}

/// Restores parameter values captured by [`export_params`] into a model of
/// identical architecture.
///
/// # Errors
///
/// Returns a message naming the first mismatching slot if the parameter
/// count or any shape disagrees; the model is left partially updated in
/// that case (load into a fresh model).
pub fn import_params(model: &mut dyn QuantModel, params: &[Tensor]) -> Result<(), String> {
    let mut error: Option<String> = None;
    let mut index = 0usize;
    model.visit_params(&mut |_, p| {
        if error.is_some() {
            return;
        }
        match params.get(index) {
            None => error = Some(format!("missing parameter for slot {index}")),
            Some(value) if value.dims() != p.value.dims() => {
                error = Some(format!(
                    "shape mismatch at slot {index} ({}): {:?} vs {:?}",
                    p.name,
                    value.dims(),
                    p.value.dims()
                ));
            }
            Some(value) => p.value = value.clone(),
        }
        index += 1;
    });
    if let Some(err) = error {
        return Err(err);
    }
    if index != params.len() {
        return Err(format!(
            "parameter count mismatch: model has {index}, snapshot has {}",
            params.len()
        ));
    }
    Ok(())
}

/// Runs the training set through the model in *training* mode without
/// updating weights — the paper's AD measurement pass (eqn 2 "calculated by
/// passing the training set through the network").
pub fn measure_densities(model: &mut dyn QuantModel, data: &Dataset, batch_size: usize) {
    measure_densities_observed(model, data, batch_size, &mut |_, _| {});
}

/// [`measure_densities`] with a per-batch observation hook receiving
/// `(batch_index, samples)`.
pub fn measure_densities_observed(
    model: &mut dyn QuantModel,
    data: &Dataset,
    batch_size: usize,
    observe: &mut dyn FnMut(usize, usize),
) {
    assert!(batch_size > 0, "batch size must be positive");
    model.reset_densities();
    let order: Vec<usize> = (0..data.len()).collect();
    for (batch, chunk) in order.chunks(batch_size).enumerate() {
        let (images, _) = data.batch(chunk);
        let _ = model.forward(&images, true);
        observe(batch, chunk.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ResNet, Vgg};
    use adq_tensor::init;

    fn toy_dataset(n: usize, seed: u64) -> Dataset {
        // two classes separated by mean intensity
        let mut rng = init::rng(seed);
        let mut images = Tensor::zeros(&[n, 1, 4, 4]);
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let class = i % 2;
            let base = if class == 0 { -1.0 } else { 1.0 };
            for h in 0..4 {
                for w in 0..4 {
                    *images.at4_mut(i, 0, h, w) = base + 0.3 * (rng.gen::<f32>() - 0.5);
                }
            }
            labels.push(class);
        }
        Dataset::new(images, labels)
    }

    #[test]
    fn dataset_batch_copies_samples() {
        let ds = toy_dataset(6, 1);
        let (images, labels) = ds.batch(&[0, 3]);
        assert_eq!(images.dims(), &[2, 1, 4, 4]);
        assert_eq!(labels, vec![0, 1]);
        assert_eq!(images.at4(0, 0, 0, 0), ds.images.at4(0, 0, 0, 0));
        assert_eq!(images.at4(1, 0, 2, 2), ds.images.at4(3, 0, 2, 2));
    }

    #[test]
    #[should_panic]
    fn dataset_label_mismatch_panics() {
        Dataset::new(Tensor::zeros(&[2, 1, 2, 2]), vec![0]);
    }

    #[test]
    fn training_learns_separable_task() {
        let ds = toy_dataset(32, 2);
        let mut net = Vgg::tiny(1, 4, 2, 3);
        let mut adam = Adam::new(5e-3);
        let mut rng = init::rng(4);
        let mut last = EpochStats::default();
        for _ in 0..12 {
            last = train_epoch(&mut net, &ds, &mut adam, 8, &mut rng);
        }
        assert!(
            last.accuracy > 0.9,
            "failed to learn separable task: acc {}",
            last.accuracy
        );
    }

    #[test]
    fn evaluate_does_not_touch_densities() {
        let ds = toy_dataset(8, 5);
        let mut net = Vgg::tiny(1, 4, 2, 6);
        net.reset_densities();
        evaluate(&mut net, &ds, 4);
        assert_eq!(net.density_of(0), 0.0);
    }

    #[test]
    fn measure_densities_resets_then_accumulates() {
        let ds = toy_dataset(8, 7);
        let mut net = Vgg::tiny(1, 4, 2, 8);
        measure_densities(&mut net, &ds, 4);
        assert!(net.density_of(0) > 0.0);
        let first = net.density_of(0);
        // second call resets: same value, not doubled counts with drift
        measure_densities(&mut net, &ds, 4);
        assert!((net.density_of(0) - first).abs() < 1e-12);
    }

    #[test]
    fn export_import_roundtrips_exactly() {
        use crate::model::VggItem::{Conv, Pool};
        let ds = toy_dataset(16, 10);
        // no batch-norm: running statistics are not part of the snapshot
        let build =
            |seed| crate::model::Vgg::from_config(1, 4, 2, &[Conv(4), Pool, Conv(8)], false, seed);
        let mut trained = build(11);
        let mut adam = Adam::new(3e-3);
        let mut rng = init::rng(12);
        for _ in 0..3 {
            train_epoch(&mut trained, &ds, &mut adam, 8, &mut rng);
        }
        let snapshot = export_params(&mut trained);
        let mut fresh = build(99); // different init seed
        import_params(&mut fresh, &snapshot).expect("same architecture");
        let a = trained.forward(&ds.images, false);
        let b = fresh.forward(&ds.images, false);
        assert_eq!(a, b);
    }

    #[test]
    fn norm_stats_roundtrip_restores_eval_behaviour() {
        // with BN, params alone are not enough — stats must round-trip too
        let ds = toy_dataset(16, 20);
        for (mut trained, mut fresh) in tiny_models(21).into_iter().zip(tiny_models(77)) {
            let mut adam = Adam::new(3e-3);
            let mut rng = init::rng(22);
            for _ in 0..3 {
                train_epoch(trained.as_mut(), &ds, &mut adam, 8, &mut rng);
            }
            let params = export_params(trained.as_mut());
            let stats = trained.norm_stats();
            assert!(!stats.is_empty());
            import_params(fresh.as_mut(), &params).expect("same architecture");
            fresh.set_norm_stats(&stats).expect("same architecture");
            let a = trained.forward(&ds.images, false);
            let b = fresh.forward(&ds.images, false);
            assert_eq!(a, b, "{}", trained.name());
        }
    }

    #[test]
    fn set_norm_stats_rejects_mismatch() {
        let mut model = Vgg::tiny(1, 4, 2, 23);
        // wrong layer count
        assert!(model.set_norm_stats(&[(vec![0.0], vec![1.0])]).is_err());
        // wrong channel count
        let mut stats = model.norm_stats();
        stats[0].0.push(0.0);
        assert!(model.set_norm_stats(&stats).is_err());
    }

    #[test]
    fn import_rejects_wrong_architecture() {
        let mut donor = Vgg::tiny(1, 4, 2, 13);
        let snapshot = export_params(&mut donor);
        let mut other = Vgg::tiny(1, 4, 3, 14); // different class count
        assert!(import_params(&mut other, &snapshot).is_err());
        let mut truncated = Vgg::tiny(1, 4, 2, 15);
        assert!(import_params(&mut truncated, &snapshot[..2]).is_err());
    }

    #[test]
    fn loss_is_invariant_to_batching() {
        // 10 samples, batch 4 -> batches of 4, 4, 2. Sample-weighted
        // averaging makes the pass loss identical to a single full batch;
        // the old batch-mean-of-means was biased toward the small tail.
        let ds = toy_dataset(10, 30);
        let mut net = Vgg::tiny(1, 4, 2, 31);
        let whole = evaluate(&mut net, &ds, 10);
        let split = evaluate(&mut net, &ds, 4);
        assert!(
            (whole.loss - split.loss).abs() < 1e-6,
            "loss depends on batch size: {} vs {}",
            whole.loss,
            split.loss
        );
        assert!((whole.accuracy - split.accuracy).abs() < 1e-12);
    }

    #[test]
    fn observed_hooks_see_every_sample() {
        let ds = toy_dataset(10, 40);
        let mut net = Vgg::tiny(1, 4, 2, 41);
        let mut batches = Vec::new();
        evaluate_observed(&mut net, &ds, 4, &mut |b| batches.push(b));
        assert_eq!(batches.len(), 3);
        assert_eq!(batches.iter().map(|b| b.samples).sum::<usize>(), 10);
        assert_eq!(batches.last().expect("three batches").samples, 2);
        // hook-reported per-batch losses recombine into the pass loss
        let recombined: f64 = batches
            .iter()
            .map(|b| b.loss * b.samples as f64)
            .sum::<f64>()
            / 10.0;
        let pass = evaluate(&mut net, &ds, 4);
        assert!((recombined - pass.loss).abs() < 1e-9);

        let mut adam = Adam::new(1e-3);
        let mut rng = init::rng(42);
        let mut seen = 0usize;
        train_epoch_observed(&mut net, &ds, &mut adam, 3, &mut rng, &mut |b| {
            seen += b.samples;
        });
        assert_eq!(seen, 10);

        let mut measured = 0usize;
        measure_densities_observed(&mut net, &ds, 6, &mut |_, samples| measured += samples);
        assert_eq!(measured, 10);
    }

    #[test]
    fn fixed_tree_reduction_pairs_by_index() {
        // values chosen so the fixed tree ((g0+g1)+(g2+g3))+g4 differs
        // from a sequential left fold: the pairing is observable
        let vals = [1e8f32, 1.0, -1e8, 1.0, 1.0];
        let mut grads: Vec<Vec<Tensor>> = vals
            .iter()
            .map(|&v| vec![Tensor::from_slice(&[v])])
            .collect();
        tree_reduce_into_first(&mut grads);
        let tree = ((1e8f32 + 1.0) + (-1e8 + 1.0)) + 1.0;
        let sequential = vals.iter().copied().fold(0.0f32, |a, b| a + b);
        assert_eq!(grads[0][0].data()[0].to_bits(), tree.to_bits());
        assert_ne!(tree.to_bits(), sequential.to_bits(), "values too tame");
    }

    /// One model of each family. ResNet's junction meters and projection
    /// batch-norms go through the replica walks that VGG's plain chain of
    /// conv blocks never reaches.
    fn tiny_models(seed: u64) -> [Box<dyn QuantModel>; 2] {
        [
            Box::new(Vgg::tiny(1, 4, 2, seed)),
            Box::new(ResNet::tiny(1, 4, 2, seed)),
        ]
    }

    /// A (model, optimizer, rng) training setup for each model family.
    fn setups(seed: u64) -> Vec<(Box<dyn QuantModel>, Adam, rand_chacha::ChaCha8Rng)> {
        tiny_models(seed)
            .into_iter()
            .map(|net| (net, Adam::new(5e-3), init::rng(seed + 100)))
            .collect()
    }

    /// Everything training mutates: parameters, batch-norm running stats,
    /// the raw density counts and each layer's Activation Density.
    type ModelState = (Vec<Tensor>, Vec<(Vec<f32>, Vec<f32>)>, Vec<u64>, Vec<f64>);

    fn full_state(model: &mut dyn QuantModel) -> ModelState {
        (
            export_params(model),
            model.norm_stats(),
            model.export_density_counts(),
            (0..model.layer_count())
                .map(|i| model.density_of(i))
                .collect(),
        )
    }

    #[test]
    fn single_microbatch_parallel_epoch_equals_serial_bitwise() {
        let ds = toy_dataset(20, 50);
        for (serial, par) in setups(51).into_iter().zip(setups(51)) {
            let (mut serial, mut adam_s, mut rng_s) = serial;
            let (mut par, mut adam_p, mut rng_p) = par;
            for _ in 0..2 {
                let a = train_epoch(serial.as_mut(), &ds, &mut adam_s, 8, &mut rng_s);
                let b = train_epoch_parallel(par.as_mut(), &ds, &mut adam_p, 8, 8, &mut rng_p);
                assert_eq!(a, b);
            }
            assert_eq!(full_state(serial.as_mut()), full_state(par.as_mut()));
            assert_eq!(adam_s.export_state(), adam_p.export_state());
        }
    }

    #[test]
    fn parallel_epoch_is_bit_identical_across_thread_counts() {
        let ds = toy_dataset(22, 60);
        for family in 0..2 {
            let mut outcomes = Vec::new();
            for threads in [1usize, 4] {
                rayon::set_thread_override(Some(threads));
                let (mut net, mut adam, mut rng) = setups(61).swap_remove(family);
                let mut batch_log = Vec::new();
                let stats = train_epoch_parallel_observed(
                    net.as_mut(),
                    &ds,
                    &mut adam,
                    8,
                    3, // 3 microbatches per full batch, uneven tail
                    &mut rng,
                    &mut |b| batch_log.push(b),
                );
                outcomes.push((
                    stats,
                    full_state(net.as_mut()),
                    adam.export_state(),
                    batch_log,
                ));
            }
            rayon::set_thread_override(None);
            assert_eq!(outcomes[0], outcomes[1]);
        }
    }

    #[test]
    fn parallel_epoch_density_counts_cover_every_sample() {
        let ds = toy_dataset(10, 70);
        let (mut net, mut adam, mut rng) =
            (Vgg::tiny(1, 4, 2, 71), Adam::new(5e-3), init::rng(171));
        net.reset_densities();
        train_epoch_parallel(&mut net, &ds, &mut adam, 4, 2, &mut rng);
        // conv1 output is 8 channels * 16 pixels per sample
        let stats = net.layer_stats();
        assert_eq!(stats[0].out_channels, 8);
        let counts = net.export_density_counts();
        // first block meter total = samples * channels * spatial
        assert_eq!(counts[1], 10 * 8 * 16);
    }

    #[test]
    fn epoch_stats_on_empty_dataset() {
        let ds = Dataset::new(Tensor::zeros(&[0, 1, 4, 4]), vec![]);
        let mut net = Vgg::tiny(1, 4, 2, 9);
        let stats = evaluate(&mut net, &ds, 4);
        assert_eq!(stats.loss, 0.0);
        assert_eq!(stats.accuracy, 0.0);
    }
}
