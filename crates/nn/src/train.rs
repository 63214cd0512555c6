//! Training-loop helpers: mini-batching and one-epoch train/eval passes.
//!
//! Training is serial over batches; the parallelism lives inside the
//! kernels, which split every large product over the worker pool with
//! bit-identical results, so an epoch's outcome does not depend on the
//! worker count.

use std::sync::{Arc, OnceLock};

use adq_telemetry::span::{self, SpanGuard};
use adq_tensor::Tensor;
use rand::seq::SliceRandom;
use rand::Rng;

use crate::loss::{accuracy, softmax_cross_entropy};
use crate::model::QuantModel;
use crate::optim::Adam;

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
    use crate::model::{LayerMut, ResNet, Vgg};
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
        for (mut trained, mut fresh) in tiny_models(1, 4, 21).into_iter().zip(tiny_models(1, 4, 77))
        {
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

    /// One model of each family. ResNet adds junction meters and
    /// projection batch-norms to VGG's plain chain of conv blocks.
    fn tiny_models(in_channels: usize, hw: usize, seed: u64) -> [Box<dyn QuantModel>; 2] {
        [
            Box::new(Vgg::tiny(in_channels, hw, 2, seed)),
            Box::new(ResNet::tiny(in_channels, hw, 2, seed)),
        ]
    }

    /// Everything training mutates: parameters, batch-norm running stats,
    /// each layer's Activation Density and each conv block's per-channel
    /// densities.
    type ModelState = (
        Vec<Tensor>,
        Vec<(Vec<f32>, Vec<f32>)>,
        Vec<f64>,
        Vec<Vec<f64>>,
    );

    fn full_state(model: &mut dyn QuantModel) -> ModelState {
        let mut channels = Vec::new();
        model.visit_layers(&mut |layer| {
            if let LayerMut::Conv(block) = layer {
                channels.push(block.channel_densities());
            }
        });
        (
            export_params(model),
            model.norm_stats(),
            (0..model.layer_count())
                .map(|i| model.density_of(i))
                .collect(),
            channels,
        )
    }

    #[test]
    fn epoch_is_bit_identical_across_thread_counts() {
        // 3×16×16 images in batches of 32 (tail 8): VGG's second conv and
        // ResNet's first block run products above the GEMM's parallel
        // tile threshold, so the kernels fan out at 4 workers
        let mut rng = init::rng(60);
        let images = init::uniform(&[40, 3, 16, 16], -1.0, 1.0, &mut rng);
        let ds = Dataset::new(images, (0..40).map(|i| i % 2).collect());
        let grids = adq_telemetry::metrics::global().counter("tensor.gemm.par_grids");
        for family in 0..2 {
            let mut outcomes = Vec::new();
            for threads in [1usize, 4] {
                let before = grids.get();
                rayon::set_thread_override(Some(threads));
                let mut net = tiny_models(3, 16, 61).into_iter().nth(family).unwrap();
                let (mut adam, mut rng) = (Adam::new(5e-3), init::rng(161));
                let mut batch_log = Vec::new();
                let stats =
                    train_epoch_observed(net.as_mut(), &ds, &mut adam, 32, &mut rng, &mut |b| {
                        batch_log.push(b)
                    });
                rayon::set_thread_override(None);
                assert!(
                    grids.get() > before,
                    "{}: no tile grid fanned out",
                    net.name()
                );
                outcomes.push((
                    stats,
                    full_state(net.as_mut()),
                    adam.export_state(),
                    batch_log,
                ));
            }
            assert_eq!(outcomes[0], outcomes[1]);
        }
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
