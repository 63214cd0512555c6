use adq_ad::DensityMeter;
use adq_quant::{BitWidth, MovingAverageObserver, QuantRange, Quantizer, RangeObserver};
use adq_tensor::{recycle, take_tensor, Conv2dGeom, Tensor};
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::layers::{BatchNorm2d, Conv2d, Linear, Relu};

/// How a [`ConvBlock`] calibrates the range its output activations are
/// quantized over.
///
/// Per-batch min/max (the default) matches the paper's in-training
/// behaviour; a smoothed EMA range is the robust-to-outliers alternative
/// quantified by the `ablation_observer` bench.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub enum ActRangeMode {
    /// Fit the quantization range to each batch's min/max.
    #[default]
    PerBatch,
    /// Track an exponential-moving-average range across batches (updated in
    /// training mode only; evaluation uses the frozen smoothed range).
    Ema(MovingAverageObserver),
}

/// Configuration of a [`ConvBlock`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConvBlockConfig {
    /// Convolution geometry.
    pub geom: Conv2dGeom,
    /// Whether to batch-normalise before the non-linearity.
    pub batch_norm: bool,
    /// Whether the block ends in a ReLU. ResNet's second block conv defers
    /// its ReLU until after the skip addition, so it sets this to `false`.
    pub relu: bool,
}

/// The paper's unit of quantization: convolution (+ batch-norm) + ReLU with
///
/// * optional *weight* fake-quantization at the block's bit-width,
/// * optional *activation* fake-quantization of the block output,
/// * an Activation Density meter (eqn 2) tapping the post-ReLU output, with
///   per-output-channel counts for AD-based pruning (eqn 5).
///
/// A bit-width of `None` means full precision (the paper's FP baselines and
/// the never-quantized first layer).
///
/// # Example
///
/// ```
/// use adq_nn::{ConvBlock, ConvBlockConfig};
/// use adq_quant::BitWidth;
/// use adq_tensor::{Conv2dGeom, Tensor};
///
/// # fn main() -> Result<(), adq_quant::QuantError> {
/// let mut rng = adq_tensor::init::rng(0);
/// let cfg = ConvBlockConfig { geom: Conv2dGeom::new(3, 4, 3, 1, 1), batch_norm: true, relu: true };
/// let mut block = ConvBlock::new("conv1", cfg, &mut rng);
/// block.set_bits(Some(BitWidth::new(4)?));
/// let y = block.forward(&Tensor::zeros(&[1, 3, 8, 8]), true);
/// assert_eq!(y.dims(), &[1, 4, 8, 8]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ConvBlock {
    name: String,
    conv: Conv2d,
    bn: Option<BatchNorm2d>,
    relu: Option<Relu>,
    bits: Option<BitWidth>,
    act_range: ActRangeMode,
    meter: DensityMeter,
    channel_nonzero: Vec<u64>,
    channel_total: Vec<u64>,
}

impl ConvBlock {
    /// Creates a block with fresh parameters.
    pub fn new(name: impl Into<String>, config: ConvBlockConfig, rng: &mut impl Rng) -> Self {
        let conv = Conv2d::new(config.geom, rng);
        let out = config.geom.out_channels;
        Self {
            name: name.into(),
            conv,
            bn: config.batch_norm.then(|| BatchNorm2d::new(out)),
            relu: config.relu.then(Relu::new),
            bits: None,
            act_range: ActRangeMode::PerBatch,
            meter: DensityMeter::new(),
            channel_nonzero: vec![0; out],
            channel_total: vec![0; out],
        }
    }

    /// How output activations' quantization ranges are calibrated.
    pub fn act_range_mode(&self) -> &ActRangeMode {
        &self.act_range
    }

    /// Switches the activation range calibration strategy.
    pub fn set_act_range_mode(&mut self, mode: ActRangeMode) {
        self.act_range = mode;
    }

    /// Block name (diagnostics).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Current bit-width (`None` = full precision).
    pub fn bits(&self) -> Option<BitWidth> {
        self.bits
    }

    /// Sets the bit-width for weights and activations of this block.
    pub fn set_bits(&mut self, bits: Option<BitWidth>) {
        self.bits = bits;
    }

    /// Convolution geometry (reflects any pruning applied so far).
    pub fn geom(&self) -> Conv2dGeom {
        self.conv.geom()
    }

    /// Read access to the convolution.
    pub fn conv(&self) -> &Conv2d {
        &self.conv
    }

    /// Whether the block ends in a ReLU (see [`ConvBlockConfig::relu`]).
    pub fn has_relu(&self) -> bool {
        self.relu.is_some()
    }

    /// Read access to the optional batch-norm layer.
    pub fn bn(&self) -> Option<&BatchNorm2d> {
        self.bn.as_ref()
    }

    /// Direct access to the convolution's parameters.
    pub fn conv_mut(&mut self) -> &mut Conv2d {
        &mut self.conv
    }

    /// Batch-norm-folded deployment parameters: flattened weights
    /// `[O, I·p·p]` with the BN scale absorbed per output channel, and the
    /// matching bias vector. Blocks without batch-norm return the raw
    /// convolution parameters. This is the first lowering step every
    /// integer deployment target shares.
    pub fn folded_weight_bias(&self) -> (Tensor, Vec<f32>) {
        let geom = self.conv.geom();
        let (scale, shift) = match &self.bn {
            Some(bn) => bn.fold_factors(),
            None => (vec![1.0; geom.out_channels], vec![0.0; geom.out_channels]),
        };
        let fan_in = geom.in_channels * geom.kernel * geom.kernel;
        let mut weight = Tensor::zeros(&[geom.out_channels, fan_in]);
        let mut bias = vec![0.0f32; geom.out_channels];
        for o in 0..geom.out_channels {
            for i in 0..fan_in {
                *weight.at2_mut(o, i) = self.conv.weight.value.at2(o, i) * scale[o];
            }
            bias[o] = self.conv.bias.value.data()[o] * scale[o] + shift[o];
        }
        (weight, bias)
    }

    /// Direct access to the optional batch-norm parameters.
    pub fn bn_mut(&mut self) -> Option<&mut BatchNorm2d> {
        self.bn.as_mut()
    }

    /// Activation Density of the block output since the last reset.
    pub fn density(&self) -> f64 {
        self.meter.density()
    }

    /// The underlying density meter.
    pub fn meter(&self) -> DensityMeter {
        self.meter
    }

    /// Per-output-channel densities since the last reset.
    pub fn channel_densities(&self) -> Vec<f64> {
        self.channel_nonzero
            .iter()
            .zip(&self.channel_total)
            .map(|(&nz, &t)| if t == 0 { 0.0 } else { nz as f64 / t as f64 })
            .collect()
    }

    /// Clears the density statistics (start of a measurement epoch).
    pub fn reset_density(&mut self) {
        self.meter.reset();
        self.channel_nonzero.iter_mut().for_each(|v| *v = 0);
        self.channel_total.iter_mut().for_each(|v| *v = 0);
    }

    /// Forward pass. In training mode, density statistics accumulate and
    /// batch-norm uses batch statistics.
    ///
    /// The output comes from the calling thread's arena
    /// ([`adq_tensor::take_tensor`]), and batch-norm, ReLU and activation
    /// quantization transform it in place.
    pub fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        // weight fake-quantization (straight-through: master stays fp32)
        let mut weight = self.conv.weight_copy();
        if let Some(bits) = self.bits {
            if let Ok(q) = Quantizer::fit(bits, self.conv.weight.value.data()) {
                q.fake_quantize_tensor_inplace(&mut weight);
            }
        }
        let mut y = self.conv.forward_with_weight(input, weight);
        if let Some(bn) = self.bn.as_mut() {
            bn.forward_in_place(&mut y, train);
        }
        if let Some(relu) = self.relu.as_mut() {
            relu.forward_in_place(&mut y);
        }
        if train {
            self.observe(&y);
        }
        // activation fake-quantization
        if let Some(bits) = self.bits {
            let range = match &mut self.act_range {
                ActRangeMode::PerBatch => QuantRange::from_data(y.data()).ok(),
                ActRangeMode::Ema(observer) => {
                    if train {
                        observer.observe(y.data());
                    }
                    observer
                        .range()
                        .ok()
                        .or_else(|| QuantRange::from_data(y.data()).ok())
                }
            };
            if let Some(range) = range {
                Quantizer::new(bits, range).fake_quantize_tensor_inplace(&mut y);
            }
        }
        y
    }

    /// Backward pass (activation quantization is straight-through).
    pub fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let g = self.backward_to_conv(grad_output);
        let dx = self.conv.backward(g.as_ref().unwrap_or(grad_output));
        if let Some(g) = g {
            recycle(g);
        }
        dx
    }

    /// Backward pass for a network's first block, whose input needs no
    /// gradient: accumulates every parameter gradient exactly as
    /// [`ConvBlock::backward`] does, without computing the input gradient.
    pub fn backward_params(&mut self, grad_output: &Tensor) {
        let g = self.backward_to_conv(grad_output);
        self.conv.backward_params(g.as_ref().unwrap_or(grad_output));
        if let Some(g) = g {
            recycle(g);
        }
    }

    /// The ReLU and batch-norm backward passes, in a buffer from the
    /// calling thread's arena: the gradient at the convolution's output, or
    /// `None` when the block has neither layer and `grad_output` already
    /// is it.
    fn backward_to_conv(&mut self, grad_output: &Tensor) -> Option<Tensor> {
        if self.relu.is_none() && self.bn.is_none() {
            return None;
        }
        let mut g = take_tensor(grad_output.dims());
        g.data_mut().copy_from_slice(grad_output.data());
        if let Some(relu) = self.relu.as_mut() {
            relu.backward_in_place(&mut g);
        }
        if let Some(bn) = self.bn.as_mut() {
            bn.backward_in_place(&mut g);
        }
        Some(g)
    }

    /// Counts each output plane's nonzeros once, into its channel's
    /// counts and the block's meter.
    fn observe(&mut self, y: &Tensor) {
        let c = y.dims()[1];
        let spatial = (y.dims()[2] * y.dims()[3]) as u64;
        let (nonzero, total) = (&mut self.channel_nonzero, &mut self.channel_total);
        self.meter.observe_planes(y, |i, nz| {
            nonzero[i % c] += nz;
            total[i % c] += spatial;
        });
    }

    /// Prunes to the `keep` highest-density output channels, returning the
    /// retained (original) indices in ascending order.
    ///
    /// The caller must propagate the returned indices to the successor
    /// layer's input side.
    ///
    /// # Panics
    ///
    /// Panics if `keep` is zero or exceeds the current channel count.
    pub fn prune_to(&mut self, keep: usize) -> Vec<usize> {
        let c = self.conv.geom().out_channels;
        assert!(keep >= 1 && keep <= c, "keep {keep} out of range 1..={c}");
        let densities = self.channel_densities();
        let mut order: Vec<usize> = (0..c).collect();
        // highest density first; stable on ties
        order.sort_by(|&a, &b| densities[b].total_cmp(&densities[a]));
        let mut kept: Vec<usize> = order[..keep].to_vec();
        kept.sort_unstable();
        self.conv.retain_out_channels(&kept);
        if let Some(bn) = self.bn.as_mut() {
            bn.retain_channels(&kept);
        }
        self.channel_nonzero = vec![0; keep];
        self.channel_total = vec![0; keep];
        self.meter.reset();
        kept
    }

    /// Restructures the input side after the predecessor was pruned.
    pub fn retain_in_channels(&mut self, keep: &[usize]) {
        self.conv.retain_in_channels(keep);
    }
}

/// The classifier head: a fully connected layer with optional weight
/// fake-quantization and an AD meter on its (linear) output.
#[derive(Debug, Clone)]
pub struct LinearHead {
    name: String,
    linear: Linear,
    bits: Option<BitWidth>,
    meter: DensityMeter,
}

impl LinearHead {
    /// Creates a head with fresh parameters.
    pub fn new(
        name: impl Into<String>,
        in_features: usize,
        out_features: usize,
        rng: &mut impl Rng,
    ) -> Self {
        Self {
            name: name.into(),
            linear: Linear::new(in_features, out_features, rng),
            bits: None,
            meter: DensityMeter::new(),
        }
    }

    /// Head name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Current bit-width (`None` = full precision).
    pub fn bits(&self) -> Option<BitWidth> {
        self.bits
    }

    /// Sets the weight/activation bit-width.
    pub fn set_bits(&mut self, bits: Option<BitWidth>) {
        self.bits = bits;
    }

    /// Read access to the linear layer.
    pub fn linear(&self) -> &Linear {
        &self.linear
    }

    /// Direct access to the linear layer.
    pub fn linear_mut(&mut self) -> &mut Linear {
        &mut self.linear
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.linear.in_features()
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.linear.out_features()
    }

    /// Activation Density of the head output since the last reset.
    pub fn density(&self) -> f64 {
        self.meter.density()
    }

    /// The head's density meter.
    pub fn meter_mut(&mut self) -> &mut DensityMeter {
        &mut self.meter
    }

    /// Forward pass.
    pub fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let weight = match self.bits {
            Some(bits) => match Quantizer::fit(bits, self.linear.weight.value.data()) {
                Ok(q) => q.fake_quantize_tensor(&self.linear.weight.value),
                Err(_) => self.linear.weight.value.clone(),
            },
            None => self.linear.weight.value.clone(),
        };
        let y = self.linear.forward_with_weight(input, weight);
        if train {
            self.meter.observe(&y);
        }
        y
    }

    /// Backward pass.
    pub fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        self.linear.backward(grad_output)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adq_tensor::init::{self, rng};

    fn block(bn: bool, relu: bool, seed: u64) -> ConvBlock {
        let mut r = rng(seed);
        let cfg = ConvBlockConfig {
            geom: Conv2dGeom::new(2, 3, 3, 1, 1),
            batch_norm: bn,
            relu,
        };
        ConvBlock::new("b", cfg, &mut r)
    }

    #[test]
    fn forward_shapes() {
        let mut b = block(true, true, 1);
        let y = b.forward(&Tensor::zeros(&[2, 2, 6, 6]), false);
        assert_eq!(y.dims(), &[2, 3, 6, 6]);
    }

    #[test]
    fn density_counted_only_in_train_mode() {
        let mut b = block(false, true, 2);
        let mut r = rng(3);
        let x = init::uniform(&[1, 2, 4, 4], -1.0, 1.0, &mut r);
        b.forward(&x, false);
        assert_eq!(b.meter().total_count(), 0);
        b.forward(&x, true);
        assert!(b.meter().total_count() > 0);
    }

    #[test]
    fn relu_block_density_below_one() {
        let mut b = block(true, true, 4);
        let mut r = rng(5);
        let x = init::normal(&[4, 2, 6, 6], 0.0, 1.0, &mut r);
        b.forward(&x, true);
        let d = b.density();
        assert!(d > 0.0 && d < 1.0, "density {d}");
    }

    #[test]
    fn quantized_forward_has_few_levels() {
        let mut b = block(false, true, 6);
        b.set_bits(Some(BitWidth::new(2).unwrap()));
        let mut r = rng(7);
        let x = init::uniform(&[1, 2, 4, 4], -1.0, 1.0, &mut r);
        let y = b.forward(&x, false);
        let mut levels: Vec<u32> = y.data().iter().map(|v| v.to_bits()).collect();
        levels.sort_unstable();
        levels.dedup();
        assert!(levels.len() <= 4, "{} levels", levels.len());
    }

    #[test]
    fn full_precision_and_16bit_nearly_agree() {
        let mut b16 = block(false, true, 8);
        let mut bfp = b16.clone();
        b16.set_bits(Some(BitWidth::SIXTEEN));
        let mut r = rng(9);
        let x = init::uniform(&[1, 2, 4, 4], -1.0, 1.0, &mut r);
        let y16 = b16.forward(&x, false);
        let yfp = bfp.forward(&x, false);
        for (a, b) in y16.data().iter().zip(yfp.data()) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
    }

    #[test]
    fn backward_runs_after_forward() {
        let mut b = block(true, true, 10);
        let mut r = rng(11);
        let x = init::uniform(&[2, 2, 4, 4], -1.0, 1.0, &mut r);
        let y = b.forward(&x, true);
        let dx = b.backward(&Tensor::ones(y.dims()));
        assert_eq!(dx.dims(), x.dims());
    }

    #[test]
    fn prune_keeps_densest_channels() {
        let mut b = block(false, true, 12);
        // bias channel 1 strongly positive so it is densest
        b.conv_mut()
            .bias
            .value
            .data_mut()
            .copy_from_slice(&[-10.0, 10.0, -10.0]);
        let mut r = rng(13);
        let x = init::uniform(&[2, 2, 4, 4], -0.1, 0.1, &mut r);
        b.forward(&x, true);
        let kept = b.prune_to(1);
        assert_eq!(kept, vec![1]);
        assert_eq!(b.geom().out_channels, 1);
    }

    #[test]
    fn prune_then_forward_works() {
        let mut b = block(true, true, 14);
        let mut r = rng(15);
        let x = init::uniform(&[1, 2, 4, 4], -1.0, 1.0, &mut r);
        b.forward(&x, true);
        b.prune_to(2);
        let y = b.forward(&x, false);
        assert_eq!(y.dims(), &[1, 2, 4, 4]);
    }

    #[test]
    fn channel_density_sums_match_meter() {
        let mut b = block(false, true, 16);
        let mut r = rng(17);
        let x = init::normal(&[3, 2, 4, 4], 0.0, 1.0, &mut r);
        b.forward(&x, true);
        let total_nz: u64 = b
            .channel_densities()
            .iter()
            .zip(16u64..)
            .map(|(d, _)| (d * (3 * 16) as f64).round() as u64)
            .sum();
        assert_eq!(total_nz, b.meter().nonzero_count());
    }

    #[test]
    fn ema_mode_freezes_range_in_eval() {
        let mut b = block(false, true, 40);
        b.set_bits(Some(BitWidth::new(4).unwrap()));
        b.set_act_range_mode(ActRangeMode::Ema(adq_quant::MovingAverageObserver::new(
            0.5,
        )));
        let mut r = rng(41);
        // calibrate on moderate activations
        for _ in 0..5 {
            let x = init::normal(&[2, 2, 4, 4], 0.0, 1.0, &mut r);
            b.forward(&x, true);
        }
        let range_before = match b.act_range_mode() {
            ActRangeMode::Ema(o) => o.range().unwrap(),
            ActRangeMode::PerBatch => panic!("mode changed"),
        };
        // a wild eval batch must not move the calibrated range
        let wild = init::normal(&[2, 2, 4, 4], 0.0, 50.0, &mut r);
        let y = b.forward(&wild, false);
        let range_after = match b.act_range_mode() {
            ActRangeMode::Ema(o) => o.range().unwrap(),
            ActRangeMode::PerBatch => panic!("mode changed"),
        };
        assert_eq!(range_before, range_after);
        // and outputs are clamped into the calibrated range
        assert!(y.max() <= range_after.max() + 1e-4);
    }

    #[test]
    fn ema_mode_falls_back_before_calibration() {
        let mut b = block(false, true, 42);
        b.set_bits(Some(BitWidth::new(2).unwrap()));
        b.set_act_range_mode(ActRangeMode::Ema(
            adq_quant::MovingAverageObserver::default(),
        ));
        let mut r = rng(43);
        let x = init::uniform(&[1, 2, 4, 4], -1.0, 1.0, &mut r);
        // eval before any training batch: falls back to per-batch fit
        let y = b.forward(&x, false);
        assert!(y.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn head_forward_backward_roundtrip() {
        let mut r = rng(18);
        let mut head = LinearHead::new("fc", 6, 3, &mut r);
        let x = init::uniform(&[2, 6], -1.0, 1.0, &mut r);
        let y = head.forward(&x, true);
        assert_eq!(y.dims(), &[2, 3]);
        assert!(head.density() > 0.0);
        let dx = head.backward(&Tensor::ones(y.dims()));
        assert_eq!(dx.dims(), x.dims());
    }

    #[test]
    fn head_quantization_reduces_levels() {
        let mut r = rng(19);
        let mut head = LinearHead::new("fc", 4, 2, &mut r);
        head.set_bits(Some(BitWidth::ONE));
        // 1-bit weights take at most 2 distinct values
        let x = Tensor::eye(4).reshaped(&[4, 4]).unwrap();
        let _ = head.forward(&x, false);
        // forward succeeded with binary weights; check master untouched
        assert!(head
            .linear_mut()
            .weight
            .value
            .data()
            .iter()
            .any(|&w| w != 0.0));
    }
}
