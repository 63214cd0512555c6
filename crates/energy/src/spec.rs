use adq_quant::BitWidth;
use adq_tensor::Conv2dGeom;
use serde::{Deserialize, Serialize};

use crate::model::EnergyModel;

/// One layer of a network, as the analytical energy model sees it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum LayerSpec {
    /// A convolution: geometry plus the spatial side of its input map.
    Conv {
        /// Kernel/channel/stride/padding description.
        geom: Conv2dGeom,
        /// Input feature-map side `N` (maps are `N × N`).
        input_hw: usize,
        /// Operating bit-width `k_l`.
        bits: BitWidth,
    },
    /// A fully connected layer.
    Fc {
        /// Input features.
        in_features: usize,
        /// Output features.
        out_features: usize,
        /// Operating bit-width `k_l`.
        bits: BitWidth,
    },
}

impl LayerSpec {
    /// Convenience constructor for a convolution spec.
    pub fn conv(geom: Conv2dGeom, input_hw: usize, bits: BitWidth) -> Self {
        Self::Conv {
            geom,
            input_hw,
            bits,
        }
    }

    /// Convenience constructor for a fully connected spec.
    pub fn fc(in_features: usize, out_features: usize, bits: BitWidth) -> Self {
        Self::Fc {
            in_features,
            out_features,
            bits,
        }
    }

    /// The layer's operating bit-width.
    pub fn bits(&self) -> BitWidth {
        match *self {
            Self::Conv { bits, .. } | Self::Fc { bits, .. } => bits,
        }
    }

    /// Returns the spec with a different bit-width.
    pub fn with_bits(self, bits: BitWidth) -> Self {
        match self {
            Self::Conv { geom, input_hw, .. } => Self::Conv {
                geom,
                input_hw,
                bits,
            },
            Self::Fc {
                in_features,
                out_features,
                ..
            } => Self::Fc {
                in_features,
                out_features,
                bits,
            },
        }
    }

    /// `N_mem = N²·I + p²·I·O` for convolutions; activations + weights for
    /// fully connected layers.
    pub fn mem_count(&self) -> u64 {
        match *self {
            Self::Conv { geom, input_hw, .. } => {
                let n2 = (input_hw * input_hw) as u64;
                let weights =
                    (geom.kernel * geom.kernel * geom.in_channels * geom.out_channels) as u64;
                n2 * geom.in_channels as u64 + weights
            }
            Self::Fc {
                in_features,
                out_features,
                ..
            } => (in_features + in_features * out_features) as u64,
        }
    }

    /// `N_MAC = M²·I·p²·O` for convolutions; `in·out` for fully connected
    /// layers.
    pub fn mac_count(&self) -> u64 {
        match *self {
            Self::Conv { geom, input_hw, .. } => {
                let m = geom.output_size(input_hw) as u64;
                m * m
                    * geom.in_channels as u64
                    * (geom.kernel * geom.kernel) as u64
                    * geom.out_channels as u64
            }
            Self::Fc {
                in_features,
                out_features,
                ..
            } => (in_features * out_features) as u64,
        }
    }

    /// `E_l = N_mem·E_mem(k) + N_MAC·E_MAC(k)`, in picojoules.
    pub fn energy_pj(&self, model: &EnergyModel) -> f64 {
        let bits = self.bits();
        self.mem_count() as f64 * model.mem_access_pj(bits)
            + self.mac_count() as f64 * model.mac_pj(bits)
    }

    /// Energy on a *zero-skipping* accelerator (the paper's §II-B point,
    /// its ref \[22\] SCNN): MACs whose input activation is zero are skipped,
    /// so the MAC term scales with the layer's input Activation Density.
    /// Memory traffic for activations scales the same way; weights must
    /// still be fetched.
    ///
    /// # Panics
    ///
    /// Panics if `input_density` is outside `[0, 1]`.
    pub fn energy_pj_sparse(&self, model: &EnergyModel, input_density: f64) -> f64 {
        assert!(
            (0.0..=1.0).contains(&input_density),
            "density {input_density} outside [0, 1]"
        );
        let bits = self.bits();
        let (act_mem, weight_mem) = match *self {
            Self::Conv { geom, input_hw, .. } => {
                let acts = (input_hw * input_hw * geom.in_channels) as f64;
                (acts, (self.mem_count() as f64) - acts)
            }
            Self::Fc { in_features, .. } => {
                let acts = in_features as f64;
                (acts, (self.mem_count() as f64) - acts)
            }
        };
        (act_mem * input_density + weight_mem) * model.mem_access_pj(bits)
            + self.mac_count() as f64 * input_density * model.mac_pj(bits)
    }
}

/// A whole network for analytical energy accounting.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetworkSpec {
    name: String,
    layers: Vec<LayerSpec>,
}

impl NetworkSpec {
    /// Creates a network spec.
    pub fn new(name: impl Into<String>, layers: Vec<LayerSpec>) -> Self {
        Self {
            name: name.into(),
            layers,
        }
    }

    /// Network name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The layer specs, in order.
    pub fn layers(&self) -> &[LayerSpec] {
        &self.layers
    }

    /// Total inference energy in picojoules.
    pub fn energy_pj(&self, model: &EnergyModel) -> f64 {
        self.layers.iter().map(|l| l.energy_pj(model)).sum()
    }

    /// Total inference energy in microjoules.
    pub fn energy_uj(&self, model: &EnergyModel) -> f64 {
        self.energy_pj(model) / 1e6
    }

    /// Total MAC count.
    pub fn mac_count(&self) -> u64 {
        self.layers.iter().map(LayerSpec::mac_count).sum()
    }

    /// Total memory-access count.
    pub fn mem_count(&self) -> u64 {
        self.layers.iter().map(LayerSpec::mem_count).sum()
    }

    /// A copy with every layer forced to one bit-width (the paper's
    /// homogeneous-precision baselines).
    pub fn with_uniform_bits(&self, bits: BitWidth) -> NetworkSpec {
        NetworkSpec {
            name: format!("{}-{}bit", self.name, bits.get()),
            layers: self.layers.iter().map(|l| l.with_bits(bits)).collect(),
        }
    }

    /// Energy efficiency of `self` relative to `baseline` (the paper's
    /// "Energy Efficiency" column): `E_baseline / E_self`.
    ///
    /// # Panics
    ///
    /// Panics if this network's energy is zero.
    pub fn efficiency_vs(&self, baseline: &NetworkSpec, model: &EnergyModel) -> f64 {
        let own = self.energy_pj(model);
        assert!(own > 0.0, "network has zero energy");
        baseline.energy_pj(model) / own
    }

    /// Total energy on a zero-skipping accelerator, given each layer's
    /// *input* Activation Density (`densities[l]` ∈ [0, 1], one per layer;
    /// the first layer's input is the image, typically density ≈ 1).
    ///
    /// # Panics
    ///
    /// Panics if `densities` does not have one entry per layer or any
    /// density is out of range.
    pub fn energy_pj_sparse(&self, model: &EnergyModel, densities: &[f64]) -> f64 {
        assert_eq!(
            densities.len(),
            self.layers.len(),
            "one input density per layer"
        );
        self.layers
            .iter()
            .zip(densities)
            .map(|(l, &d)| l.energy_pj_sparse(model, d))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bw(bits: u32) -> BitWidth {
        BitWidth::new(bits).unwrap()
    }

    fn conv(i: usize, o: usize, hw: usize, bits: u32) -> LayerSpec {
        LayerSpec::conv(Conv2dGeom::new(i, o, 3, 1, 1), hw, bw(bits))
    }

    #[test]
    fn conv_counts_match_formulas() {
        // N=32, I=3, O=64, p=3, same padding -> M=32
        let l = conv(3, 64, 32, 16);
        assert_eq!(l.mem_count(), 32 * 32 * 3 + 9 * 3 * 64);
        assert_eq!(l.mac_count(), 32 * 32 * 3 * 9 * 64);
    }

    #[test]
    fn strided_conv_shrinks_macs() {
        let dense = LayerSpec::conv(Conv2dGeom::new(8, 8, 3, 1, 1), 16, bw(8));
        let strided = LayerSpec::conv(Conv2dGeom::new(8, 8, 3, 2, 1), 16, bw(8));
        assert!(strided.mac_count() < dense.mac_count());
    }

    #[test]
    fn fc_counts() {
        let l = LayerSpec::fc(512, 10, bw(16));
        assert_eq!(l.mac_count(), 5120);
        assert_eq!(l.mem_count(), 512 + 5120);
    }

    #[test]
    fn energy_monotone_in_bits() {
        let m = EnergyModel::paper_45nm();
        for bits in 1..16u32 {
            assert!(conv(3, 8, 8, bits).energy_pj(&m) < conv(3, 8, 8, bits + 1).energy_pj(&m));
        }
    }

    #[test]
    fn with_bits_only_changes_bits() {
        let l = conv(3, 8, 8, 16);
        let l4 = l.with_bits(bw(4));
        assert_eq!(l4.bits(), bw(4));
        assert_eq!(l4.mac_count(), l.mac_count());
        assert_eq!(l4.mem_count(), l.mem_count());
    }

    #[test]
    fn self_efficiency_is_one() {
        let m = EnergyModel::paper_45nm();
        let net = NetworkSpec::new("n", vec![conv(3, 8, 8, 16), LayerSpec::fc(32, 4, bw(16))]);
        assert!((net.efficiency_vs(&net, &m) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn quantized_network_is_more_efficient() {
        let m = EnergyModel::paper_45nm();
        let base = NetworkSpec::new("n", vec![conv(3, 8, 8, 16)]);
        let quant = base.with_uniform_bits(bw(4));
        assert!(quant.efficiency_vs(&base, &m) > 1.0);
    }

    #[test]
    fn uniform_bits_renames() {
        let base = NetworkSpec::new("vgg", vec![conv(3, 8, 8, 16)]);
        assert_eq!(base.with_uniform_bits(bw(4)).name(), "vgg-4bit");
    }

    #[test]
    fn network_totals_are_sums() {
        let a = conv(3, 8, 8, 16);
        let b = LayerSpec::fc(32, 4, bw(8));
        let net = NetworkSpec::new("n", vec![a, b]);
        assert_eq!(net.mac_count(), a.mac_count() + b.mac_count());
        assert_eq!(net.mem_count(), a.mem_count() + b.mem_count());
        let m = EnergyModel::paper_45nm();
        assert!((net.energy_pj(&m) - a.energy_pj(&m) - b.energy_pj(&m)).abs() < 1e-9);
    }

    #[test]
    fn sparse_energy_at_full_density_equals_dense() {
        let m = EnergyModel::paper_45nm();
        let l = conv(4, 8, 8, 8);
        assert!((l.energy_pj_sparse(&m, 1.0) - l.energy_pj(&m)).abs() < 1e-9);
    }

    #[test]
    fn sparse_energy_scales_down_with_density() {
        let m = EnergyModel::paper_45nm();
        let l = conv(4, 8, 8, 8);
        let half = l.energy_pj_sparse(&m, 0.5);
        let full = l.energy_pj(&m);
        assert!(half < full);
        // weights must still be fetched: energy does not halve exactly
        assert!(half > full * 0.5 - 1e-9);
    }

    #[test]
    fn sparse_energy_at_zero_density_keeps_weight_traffic() {
        let m = EnergyModel::paper_45nm();
        let l = conv(4, 8, 8, 8);
        let zero = l.energy_pj_sparse(&m, 0.0);
        // only the weight-fetch term survives
        let weights = (9 * 4 * 8) as f64 * m.mem_access_pj(bw(8));
        assert!((zero - weights).abs() < 1e-9);
    }

    #[test]
    #[should_panic]
    fn sparse_energy_rejects_bad_density() {
        let m = EnergyModel::paper_45nm();
        conv(4, 8, 8, 8).energy_pj_sparse(&m, 1.5);
    }

    #[test]
    fn network_sparse_energy_sums_layers() {
        let m = EnergyModel::paper_45nm();
        let a = conv(3, 8, 8, 16);
        let b = LayerSpec::fc(32, 4, bw(8));
        let net = NetworkSpec::new("n", vec![a, b]);
        let expected = a.energy_pj_sparse(&m, 0.9) + b.energy_pj_sparse(&m, 0.3);
        assert!((net.energy_pj_sparse(&m, &[0.9, 0.3]) - expected).abs() < 1e-9);
    }

    #[test]
    fn mac_reduction_roughly_matches_bit_ratio() {
        // the MAC term dominates large convs; 16b vs 4b MAC energy ratio is
        // 1.65/0.4875 ≈ 3.38
        let m = EnergyModel::paper_45nm();
        let base = NetworkSpec::new("n", vec![conv(64, 64, 32, 16)]);
        let quant = base.with_uniform_bits(bw(4));
        let eff = quant.efficiency_vs(&base, &m);
        assert!((3.0..3.5).contains(&eff), "eff {eff}");
    }
}
