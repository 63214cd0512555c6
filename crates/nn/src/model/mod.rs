//! Model-level interfaces: the [`QuantModel`] trait driven by the
//! Algorithm-1 controller, plus VGG and ResNet builders.

mod resnet;
mod vgg;

use adq_ad::DensityMeter;
use adq_quant::BitWidth;
use adq_tensor::{Conv2dGeom, Tensor};
use serde::{Deserialize, Serialize};

use crate::block::{ConvBlock, LinearHead};
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
    /// and batch-norm statistics in this order, so it is part of the
    /// persisted format.
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
        let mut out = Vec::new();
        self.visit_layers(&mut |layer| {
            if let LayerMut::Conv(block) = layer {
                out.extend(block.bn_mut().map(|bn| bn.running_stats()));
            }
        });
        out
    }

    /// Restores statistics captured by [`QuantModel::norm_stats`].
    ///
    /// # Errors
    ///
    /// Returns a message if the layer count or channel counts disagree.
    fn set_norm_stats(&mut self, stats: &[(Vec<f32>, Vec<f32>)]) -> Result<(), String> {
        let mut iter = stats.iter();
        let mut result = Ok(());
        self.visit_layers(&mut |layer| {
            let LayerMut::Conv(block) = layer else {
                return;
            };
            let Some(bn) = block.bn_mut() else {
                return;
            };
            if result.is_err() {
                return;
            }
            result = match iter.next() {
                None => Err("missing batch-norm statistics".to_string()),
                Some((mean, _)) if mean.len() != bn.channels() => Err(format!(
                    "channel mismatch: {} vs {}",
                    mean.len(),
                    bn.channels()
                )),
                Some((mean, var)) => {
                    bn.set_running_stats(mean, var);
                    Ok(())
                }
            };
        });
        result?;
        if iter.next().is_some() {
            return Err("too many batch-norm statistics".to_string());
        }
        Ok(())
    }

    /// Total number of trainable scalars.
    fn param_count(&mut self) -> usize {
        let mut count = 0;
        self.visit_params(&mut |_, p| count += p.len());
        count
    }
}
