//! Bit-packed integer inference engine.
//!
//! `adq-infer` is the deployment endpoint of the activation-density
//! pipeline: it takes a trained, mixed-precision model and lowers it to a
//! self-contained [`CompiledVgg`] or [`CompiledResNet`] that runs on real
//! integer arithmetic — int4, int8 and int16 precisions on byte-plane
//! operands, i32/i64 accumulation, and per-layer affine requantization —
//! instead of the float-simulated quantization used during training and
//! analysis.
//!
//! The crate splits into three layers:
//!
//! - [`qgemm`] — the integer GEMM. Operands are quantization *codes*,
//!   legalized to the smallest container that fits ([`qgemm::Container`])
//!   and stored as one or two byte planes; one register tile serves all
//!   three containers, on AVX-512 VNNI when the CPU has it and a portable
//!   body otherwise, both bit-exact against scalar references.
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
