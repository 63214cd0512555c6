//! Process-In-Memory (PIM) accelerator model — §V of the paper.
//!
//! The paper's accelerator (its Fig 5) has three sections:
//!
//! 1. an **input decoder** that streams layer `l−1` activations into the
//!    array in a structured pattern,
//! 2. a **PIM block**: a 2-D array of 1-bit SRAM memory-and-multiply cells,
//!    each computing a 1-bit product between an input activation bit and a
//!    stored weight bit,
//! 3. a **shift-accumulator block**: a hierarchy of accumulators (4-bit at
//!    the lowest level, then 8-bit, then 16-bit) that shift-and-add the
//!    1-bit products into multi-bit MACs. The level a layer uses is selected
//!    by its precision; only {2, 4, 8, 16}-bit operation is supported.
//!
//! This crate provides:
//!
//! * [`BitSerialMac`] — a *bit-exact* behavioural simulation of the
//!   array + shift-accumulate datapath (dot products decomposed into
//!   bit-plane AND/popcount/shift operations), with cycle and bit-operation
//!   statistics,
//! * [`ShiftAccumulatorTree`] — the accumulator-hierarchy activity model,
//! * [`PimEnergyModel`] — per-MAC energies; defaults are exactly Table IV,
//! * [`PimArray`]/[`LayerMapping`]/[`NetworkEnergyReport`] — mapping whole
//!   layers and networks onto the accelerator (Tables V and VI).
//!
//! # Example
//!
//! ```
//! use adq_pim::{BitSerialMac, PimEnergyModel};
//! use adq_quant::HwPrecision;
//!
//! // 4-bit dot product computed the way the hardware does it
//! let mac = BitSerialMac::new(HwPrecision::B4);
//! let (value, stats) = mac.dot(&[3, 15, 7], &[2, 1, 4]);
//! assert_eq!(value, 3 * 2 + 15 * 1 + 7 * 4);
//! assert!(stats.cell_ops > 0);
//!
//! // Table IV energy
//! let energy = PimEnergyModel::paper_table4();
//! assert_eq!(energy.mac_fj(HwPrecision::B2), 2.942);
//! ```

mod array;
mod energy;
mod mac;
mod tree;

pub use array::{LayerMapping, NetworkEnergyReport, PimArray};
pub use energy::PimEnergyModel;
pub use mac::{BitSerialMac, MacStats};
pub use tree::{AccLevel, ShiftAccumulatorTree};
