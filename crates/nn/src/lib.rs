//! Neural-network training substrate for the `adq` workspace.
//!
//! The paper trains VGG19 and ResNet18 with in-training quantization; this
//! crate provides everything that training loop needs, built from scratch on
//! [`adq_tensor`]:
//!
//! * primitive layers with explicit forward/backward passes
//!   ([`Conv2d`], [`Linear`], [`BatchNorm2d`], [`Relu`], [`MaxPool2d`],
//!   [`GlobalAvgPool`]),
//! * [`ConvBlock`] — the paper's unit of quantization: convolution +
//!   optional batch-norm + ReLU, with per-layer weight/activation fake
//!   quantization and an Activation Density meter on the ReLU output,
//! * [`QuantModel`] — the object-safe model interface the Algorithm-1
//!   controller in `adq-core` drives (bit-width get/set, densities, pruning),
//! * [`Vgg`] and [`ResNet`] model builders (scaled-down variants train on a
//!   laptop; full-size geometry is used statically by the energy models),
//! * the [`Adam`] optimizer, [`softmax_cross_entropy`] loss and
//!   accuracy/data helpers in [`train`].
//!
//! Straight-through estimation: quantizers are applied in the forward pass
//! (weights and activations) while gradients flow through unchanged and are
//! applied to full-precision master weights. This is the standard, stable
//! realisation of the paper's "updated weights are again quantized before the
//! next training step".
//!
//! # Example
//!
//! ```
//! use adq_nn::{Vgg, QuantModel};
//! use adq_tensor::Tensor;
//!
//! // A tiny VGG-style net: 3-channel 8x8 inputs, 4 classes.
//! let mut net = Vgg::tiny(3, 8, 4, 42);
//! let x = Tensor::zeros(&[2, 3, 8, 8]);
//! let logits = net.forward(&x, false);
//! assert_eq!(logits.dims(), &[2, 4]);
//! ```

mod block;
mod layers;
mod loss;
mod model;
mod optim;
mod param;

pub mod train;

pub use block::{ActRangeMode, ConvBlock, ConvBlockConfig, LinearHead};
pub use layers::{BatchNorm2d, Conv2d, GlobalAvgPool, Linear, MaxPool2d, Relu};
pub use loss::{accuracy, softmax_cross_entropy, LossOutput};
pub use model::{
    LayerKind, LayerMut, LayerStat, QuantModel, ResNet, ResNetBlockView, Vgg, VggItem,
};
pub use optim::{Adam, AdamState};
pub use param::Param;
