//! Dense `f32` tensors for the `adq` workspace.
//!
//! This crate is the lowest substrate of the reproduction of *"Activation
//! Density based Mixed-Precision Quantization for Energy Efficient Neural
//! Networks"* (DATE 2021). It provides exactly what the neural-network,
//! quantization and hardware-model layers above it need:
//!
//! * [`Tensor`] — an owned, row-major, arbitrary-rank `f32` tensor with
//!   shape-checked constructors and NCHW convenience accessors,
//! * [`matmul`] — a matrix multiply that routes large products through a
//!   cache-blocked, panel-packed GEMM kernel (an 8×16 AVX-512 register
//!   tile where the CPU has it),
//! * [`pad_input`]/[`conv_gemm`] — a convolution's forward product and
//!   weight gradient as implicit GEMMs that gather the column matrix from
//!   a zero-padded input instead of materialising it (the training hot
//!   loop), and [`conv_input_grad`], its input gradient with the `col2im`
//!   scatter fused into the product,
//! * [`take_tensor`]/[`recycle`] — the calling thread's buffer arena, the
//!   one home of every pooled buffer (padded inputs, GEMM panels,
//!   outputs, the tensors that pass between layers), reused across
//!   batches,
//! * [`im2col`]/[`col2im`] — explicit lowering of 2-D convolutions to
//!   matrix multiplies and its adjoint scatter (the references the
//!   implicit products and the fused input gradient are tested against),
//! * [`init`] — deterministic, seedable weight initialisers.
//!
//! # Example
//!
//! ```
//! use adq_tensor::Tensor;
//!
//! # fn main() -> Result<(), adq_tensor::ShapeError> {
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
//! let b = Tensor::eye(2);
//! let c = adq_tensor::matmul(&a, &b)?;
//! assert_eq!(c.data(), a.data());
//! # Ok(())
//! # }
//! ```

mod conv;
mod gemm;
mod im2col;
mod matmul;
mod ops;
mod scratch;
mod shape;
mod simd;
mod tensor;

pub mod dispatch;
pub mod init;
pub mod plan;

pub use conv::{conv_gemm, conv_input_grad, pad_input, ConvGemm, PaddedInput};
pub use gemm::{gemm_nn, gemm_nt, gemm_tn, KC, MC, MR, NC, NR};
pub use im2col::{col2im, im2col, Conv2dGeom};
pub use matmul::{
    matmul, matmul_a_bt, matmul_a_bt_naive, matmul_at_b, matmul_at_b_naive, matmul_naive,
};
pub use scratch::{
    give as recycle_vec, recycle, take as take_vec, take_tensor, take_tensor_zeroed,
};
pub use shape::ShapeError;
pub use tensor::Tensor;
