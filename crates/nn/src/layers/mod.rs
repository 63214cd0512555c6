//! Primitive layers with explicit forward/backward passes.
//!
//! Each layer caches exactly what its backward pass needs during `forward`
//! and panics (in debug builds) if `backward` is called without a preceding
//! `forward` — the training loop in `adq-nn::train` always pairs them.

mod batchnorm;
mod channels;
mod conv;
mod linear;
mod pool;
mod relu;

pub use batchnorm::BatchNorm2d;
pub use conv::Conv2d;
pub use linear::Linear;
pub use pool::{GlobalAvgPool, MaxPool2d};
pub use relu::Relu;
