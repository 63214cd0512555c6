//! Bit-packed integer inference engine.
//!
//! `adq-infer` is the deployment endpoint of the activation-density
//! pipeline: it takes a trained, mixed-precision model and lowers it to a
//! self-contained [`CompiledVgg`] or [`CompiledResNet`] that runs on real
//! integer arithmetic — nibble-packed int4, int8 and int16 operand
//! containers, i32/i64 accumulation, and per-layer affine requantization —
//! instead of the float-simulated quantization used during training and
//! analysis.
//!
//! The crate splits into three layers:
//!
//! - [`qgemm`] — packed integer GEMM kernels. Operands are quantization
//!   *codes* in the smallest container that fits ([`qgemm::Container`]),
//!   with runtime-dispatched AVX2 bodies and bit-exact scalar references.
//! - [`compile`] — lowering. Batch-norm folding, weight quantization at
//!   each layer's trained bit-width, frozen post-training activation
//!   calibration, and the requantization chain that turns integer
//!   accumulators back into floats.
//! - [`serve`] — a scaled-out TCP serving front-end
//!   ([`serve::Server`] / [`serve::Client`]): a fixed connection-worker
//!   pool multiplexes sockets, replica executors share the packed
//!   weights and run batches concurrently, and a bounded queue with
//!   admission control ([`serve::OverloadPolicy`]) sheds load with typed
//!   wire frames instead of growing without bound.

pub mod compile;
pub mod qgemm;
pub mod serve;

pub use compile::{CompileError, CompileOptions, CompiledResNet, CompiledVgg};
pub use qgemm::{Container, PackedMatrix};
pub use serve::{
    load_generate, load_generate_traced, stats_from_latencies, Client, LoadStats, OverloadPolicy,
    Reply, ServeConfig, ServeModel, Server, TracedLoad,
};
