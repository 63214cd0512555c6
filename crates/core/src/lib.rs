//! Activation-Density based mixed-precision quantization — the primary
//! contribution of *"Activation Density based Mixed-Precision Quantization
//! for Energy Efficient Neural Networks"* (DATE 2021).
//!
//! The method (the paper's Algorithm 1):
//!
//! 1. train the network at an initial precision (16-bit) while monitoring
//!    each layer's Activation Density `AD_l` (eqn 2);
//! 2. once `AD_l` has saturated for every layer, re-quantize each layer to
//!    `k_l = round(k_l · AD_l)` (eqn 3) — both weights and activations;
//! 3. keep training the new mixed-precision network and repeat until AD no
//!    longer changes (in practice it climbs to ≈ 1 within 3–4 iterations);
//! 4. optionally prune channels simultaneously with
//!    `C_l = round(C_l · AD_l)` (eqn 5);
//! 5. the first conv layer and the final classifier are never quantized.
//!
//! Because progressively lower-precision models are trained, the overall
//! *training complexity* (eqn 4) drops ~50 % relative to training the
//! full-precision baseline for the whole schedule.
//!
//! Crate layout:
//!
//! * [`AdQuantizer`] / [`AdqConfig`] / [`AdqOutcome`] — the in-training
//!   controller, generic over any [`adq_nn::QuantModel`];
//! * [`checkpoint`] — durable checkpoint/resume for long Algorithm-1 runs
//!   ([`CheckpointManager`], [`RunCheckpoint`]), driven by
//!   [`AdQuantizer::run_checkpointed`] / [`AdQuantizer::resume_from`];
//! * [`training_complexity`] — eqn 4;
//! * [`builders`] — glue from live models to the analytical
//!   ([`adq_energy`]) and PIM ([`adq_pim`]) energy models;
//! * [`paper`] — the exact architectures and published per-layer operating
//!   points of Tables II and III, used to regenerate the paper's energy
//!   numbers without retraining.
//!
//! # Example
//!
//! ```no_run
//! use adq_core::{AdqConfig, AdQuantizer};
//! use adq_datasets::SyntheticSpec;
//! use adq_nn::Vgg;
//!
//! let (train, test) = SyntheticSpec::cifar10_like().generate();
//! let mut model = Vgg::small(3, 16, 10, 7);
//! let outcome = AdQuantizer::new(AdqConfig::fast()).run(&mut model, &train, &test);
//! println!("final bits: {:?}", outcome.final_bits());
//! ```

mod complexity;
mod controller;

pub mod baselines;
pub mod builders;
pub mod checkpoint;
pub mod paper;

pub use checkpoint::{
    restore_model, CheckpointError, CheckpointManager, RunCheckpoint, StructuralOp,
};
pub use complexity::{training_complexity, IterationCost};
pub use controller::{
    AdQuantizer, AdqConfig, AdqOutcome, DeadLayerPolicy, IterationRecord, PruneConfig,
};
