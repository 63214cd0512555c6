//! Model-level interfaces: the [`QuantModel`] trait driven by the
//! Algorithm-1 controller, plus VGG and ResNet builders.

mod resnet;
mod vgg;

use adq_ad::DensityMeter;
use adq_quant::BitWidth;
use adq_tensor::{Conv2dGeom, Tensor};
use serde::{Deserialize, Serialize};

use crate::block::{ConvBlock, LinearHead};
use crate::layers::BatchNorm2d;
use crate::param::Param;

pub use resnet::{ResNet, ResNetBlockView};
pub use vgg::{Vgg, VggItem};

/// What kind of quantizable unit a layer handle refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LayerKind {
    /// A convolution block (conv + optional BN + ReLU).
    Conv,
    /// A residual junction: skip-add + ReLU. Its bit-width is the
    /// "destination layer" precision of Fig 2 — the skip branch is
    /// quantized with it.
    Junction,
    /// A fully connected layer.
    Linear,
}

/// A read-only snapshot of one quantizable layer, consumed by the
/// controller (`adq-core`) and the energy models.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerStat {
    /// Layer name, unique within the model.
    pub name: String,
    /// Kind of unit.
    pub kind: LayerKind,
    /// Current bit-width (`None` = full precision).
    pub bits: Option<BitWidth>,
    /// Activation Density since the last reset.
    pub density: f64,
    /// Output channels (classes for the final linear layer).
    pub out_channels: usize,
    /// Convolution geometry, for [`LayerKind::Conv`].
    pub geom: Option<Conv2dGeom>,
    /// Spatial input side the layer sees (convolutions only; 0 otherwise).
    pub input_hw: usize,
    /// Input features (linear layers only; 0 otherwise).
    pub in_features: usize,
}

/// One layer of a model, as [`QuantModel::visit_layers`] hands it out.
///
/// These are the parts that own per-layer state: parameters, batch-norm
/// statistics and Activation Density meters.
#[derive(Debug)]
pub enum LayerMut<'a> {
    /// A convolution block (a ResNet projection shortcut is one too).
    Conv(&'a mut ConvBlock),
    /// A residual junction's meter on the post-add ReLU.
    Junction(&'a mut DensityMeter),
    /// The classifier.
    Head(&'a mut LinearHead),
}

/// The model interface the in-training quantization controller drives.
///
/// Layers are addressed by a stable index in `0..layer_count()`; the order
/// matches the paper's layer-wise bit-width tables (first conv first, final
/// classifier last).
pub trait QuantModel {
    /// Model family name (diagnostics, e.g. `"vgg"`).
    fn name(&self) -> &str;

    /// Runs the network, returning logits `[N, classes]`. Training mode
    /// accumulates Activation Density and uses batch statistics in BN.
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor;

    /// Backpropagates from a logits gradient, accumulating parameter
    /// gradients.
    fn backward(&mut self, grad_logits: &Tensor);

    /// Visits every layer in a fixed order. Checkpoints store parameters
    /// and batch-norm statistics in this order, and replicas ship density
    /// counts in it, so it is part of the persisted format.
    fn visit_layers(&mut self, visitor: &mut dyn FnMut(LayerMut<'_>));

    /// Visits every trainable parameter with a stable slot index.
    fn visit_params(&mut self, visitor: &mut dyn FnMut(usize, &mut Param)) {
        let mut slot = 0;
        let mut visit = |p: &mut Param| {
            visitor(slot, p);
            slot += 1;
        };
        self.visit_layers(&mut |layer| match layer {
            LayerMut::Conv(block) => {
                let conv = block.conv_mut();
                visit(&mut conv.weight);
                visit(&mut conv.bias);
                if let Some(bn) = block.bn_mut() {
                    visit(&mut bn.gamma);
                    visit(&mut bn.beta);
                }
            }
            LayerMut::Junction(_) => {}
            LayerMut::Head(head) => {
                let linear = head.linear_mut();
                visit(&mut linear.weight);
                visit(&mut linear.bias);
            }
        });
    }

    /// Zeroes all gradients.
    fn zero_grad(&mut self) {
        self.visit_params(&mut |_, p| p.zero_grad());
    }

    /// Number of quantizable layers.
    fn layer_count(&self) -> usize;

    /// Snapshots of all quantizable layers, in index order.
    fn layer_stats(&self) -> Vec<LayerStat>;

    /// Bit-width of layer `index` (`None` = full precision).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    fn bits_of(&self, index: usize) -> Option<BitWidth>;

    /// Sets the bit-width of layer `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    fn set_bits_of(&mut self, index: usize, bits: Option<BitWidth>);

    /// Activation Density of layer `index` since the last reset.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    fn density_of(&self, index: usize) -> f64;

    /// Clears all density statistics (start of a measurement epoch).
    fn reset_densities(&mut self) {
        self.visit_layers(&mut |layer| match layer {
            LayerMut::Conv(block) => block.reset_density(),
            LayerMut::Junction(meter) => meter.reset(),
            LayerMut::Head(head) => head.meter_mut().reset(),
        });
    }

    /// Output channel count of layer `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    fn out_channels_of(&self, index: usize) -> usize;

    /// Prunes layer `index` to its `keep` highest-density output channels,
    /// propagating the change to successors. Returns `false` when the model
    /// does not support pruning this layer (e.g. residual junctions).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range or `keep` is invalid for a
    /// supported layer.
    fn prune_layer_to(&mut self, index: usize, keep: usize) -> bool;

    /// Removes layer `index` entirely — the paper's Table II iter-2a move,
    /// where a layer whose AD stays minimal even at 1-bit is deleted.
    /// Returns `false` when the model cannot remove this layer (shape
    /// constraints, boundary layers); the default implementation supports
    /// no removals.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    fn remove_layer(&mut self, index: usize) -> bool {
        let _ = index;
        false
    }

    /// Snapshots all normalisation running statistics, in a stable order
    /// (`(mean, var)` per batch-norm layer). Models without normalisation
    /// return an empty vector.
    fn norm_stats(&mut self) -> Vec<(Vec<f32>, Vec<f32>)> {
        collect_batch_norms(self, |bn| bn.running_stats())
    }

    /// Restores statistics captured by [`QuantModel::norm_stats`].
    ///
    /// # Errors
    ///
    /// Returns a message if the layer count or channel counts disagree.
    fn set_norm_stats(&mut self, stats: &[(Vec<f32>, Vec<f32>)]) -> Result<(), String> {
        zip_batch_norms(self, stats, "statistics", BatchNorm2d::set_running_stats)
    }

    /// Total number of trainable scalars.
    fn param_count(&mut self) -> usize {
        let mut count = 0;
        self.visit_params(&mut |_, p| count += p.len());
        count
    }

    /// Clones this model into an independent replica for microbatch data
    /// parallelism, or `None` when the model cannot be replicated — the
    /// parallel trainer then falls back to the serial path.
    ///
    /// Replicas carry their own density meters and batch-norm buffers;
    /// the trainer ships those back to the master through
    /// [`QuantModel::export_density_counts`] and
    /// [`QuantModel::take_batch_norm_updates`].
    fn fork(&self) -> Option<Box<dyn QuantModel + Send>> {
        None
    }

    /// Flat dump of every Activation Density counter in
    /// [`QuantModel::visit_layers`] order — the wire format replicas use to
    /// ship tallies back to the master. Counts are integers, so absorbing
    /// replica dumps in any order reproduces the serial tallies exactly.
    fn export_density_counts(&mut self) -> Vec<u64> {
        let mut out = Vec::new();
        self.visit_layers(&mut |layer| match layer {
            LayerMut::Conv(block) => block.export_density_counts(&mut out),
            LayerMut::Junction(meter) => export_meter(meter, &mut out),
            LayerMut::Head(head) => export_meter(head.meter_mut(), &mut out),
        });
        out
    }

    /// Adds counts exported by [`QuantModel::export_density_counts`] into
    /// this model's meters.
    ///
    /// # Errors
    ///
    /// Returns a message if the layout does not match this model.
    fn absorb_density_counts(&mut self, counts: &[u64]) -> Result<(), String> {
        let mut offset = 0;
        try_visit_layers(self, |layer| {
            let rest = &counts[offset..];
            offset += match layer {
                LayerMut::Conv(block) => block.absorb_density_counts(rest)?,
                LayerMut::Junction(meter) => absorb_meter(meter, rest)?,
                LayerMut::Head(head) => absorb_meter(head.meter_mut(), rest)?,
            };
            Ok(())
        })?;
        if offset != counts.len() {
            return Err(format!(
                "density counts length mismatch: used {offset} of {}",
                counts.len()
            ));
        }
        Ok(())
    }

    /// Takes the per-channel `(mean, var)` each batch-norm layer computed
    /// on its most recent training batch, in [`QuantModel::norm_stats`]
    /// order. Models without normalisation return an empty vector.
    fn take_batch_norm_updates(&mut self) -> Vec<(Vec<f32>, Vec<f32>)> {
        collect_batch_norms(self, BatchNorm2d::take_batch_stats)
    }

    /// Replays one EMA running-stat update per batch-norm layer from stats
    /// taken on a replica ([`QuantModel::take_batch_norm_updates`]). The
    /// master applies replica updates in microbatch index order, ending
    /// bit-identical to having run the training forwards itself.
    ///
    /// # Errors
    ///
    /// Returns a message if the layer or channel counts disagree.
    fn apply_batch_norm_updates(&mut self, updates: &[(Vec<f32>, Vec<f32>)]) -> Result<(), String> {
        zip_batch_norms(self, updates, "updates", BatchNorm2d::apply_batch_stats)
    }
}

/// [`QuantModel::visit_layers`] with a visitor that can fail: the walk
/// skips every layer after the first error and returns it.
fn try_visit_layers<M: QuantModel + ?Sized>(
    model: &mut M,
    mut visitor: impl FnMut(LayerMut<'_>) -> Result<(), String>,
) -> Result<(), String> {
    let mut result = Ok(());
    model.visit_layers(&mut |layer| {
        if result.is_ok() {
            result = visitor(layer);
        }
    });
    result
}

/// One `f(bn)` per batch-norm layer, in visiting order.
fn collect_batch_norms<M: QuantModel + ?Sized>(
    model: &mut M,
    mut f: impl FnMut(&mut BatchNorm2d) -> (Vec<f32>, Vec<f32>),
) -> Vec<(Vec<f32>, Vec<f32>)> {
    let mut out = Vec::new();
    model.visit_layers(&mut |layer| {
        if let LayerMut::Conv(block) = layer {
            out.extend(block.bn_mut().map(&mut f));
        }
    });
    out
}

/// Pairs `stats` with the model's batch-norm layers in visiting order and
/// calls `apply(bn, mean, var)` on each, after checking that the entry
/// count and each channel count match.
fn zip_batch_norms<M: QuantModel + ?Sized>(
    model: &mut M,
    stats: &[(Vec<f32>, Vec<f32>)],
    what: &str,
    apply: fn(&mut BatchNorm2d, &[f32], &[f32]),
) -> Result<(), String> {
    let mut iter = stats.iter();
    try_visit_layers(model, |layer| {
        let LayerMut::Conv(block) = layer else {
            return Ok(());
        };
        let Some(bn) = block.bn_mut() else {
            return Ok(());
        };
        let (mean, var) = iter
            .next()
            .ok_or_else(|| format!("missing batch-norm {what}"))?;
        if mean.len() != bn.channels() {
            return Err(format!(
                "channel mismatch: {} vs {}",
                mean.len(),
                bn.channels()
            ));
        }
        apply(bn, mean, var);
        Ok(())
    })?;
    if iter.next().is_some() {
        return Err(format!("too many batch-norm {what}"));
    }
    Ok(())
}

/// Appends one meter's `(nonzero, total)` counts to `out`.
fn export_meter(meter: &DensityMeter, out: &mut Vec<u64>) {
    out.push(meter.nonzero_count());
    out.push(meter.total_count());
}

/// Merges counts appended by [`export_meter`], returning how many values
/// it consumed.
fn absorb_meter(meter: &mut DensityMeter, counts: &[u64]) -> Result<usize, String> {
    match counts {
        [nonzero, total, ..] => {
            meter.merge(&DensityMeter::from_counts(*nonzero, *total));
            Ok(2)
        }
        _ => Err(format!(
            "density counts for a meter need 2 values, got {}",
            counts.len()
        )),
    }
}
