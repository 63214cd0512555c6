use adq_ad::DensityMeter;
use adq_quant::BitWidth;
use adq_tensor::{recycle, Conv2dGeom, Tensor};
use rand::Rng;

use crate::block::{ConvBlock, ConvBlockConfig, LinearHead};
use crate::layers::{GlobalAvgPool, Relu};
use crate::model::{LayerKind, LayerMut, LayerStat, QuantModel};

/// One residual basic block: two 3×3 conv blocks plus a skip path, joined
/// by an add and a ReLU.
///
/// Per Fig 2 of the paper, the skip branch is quantized with the
/// *destination* (junction) bit-width; a projection shortcut, when present,
/// inherits the junction bit-width too.
#[derive(Debug, Clone)]
struct BasicBlock {
    conv1: ConvBlock,
    conv2: ConvBlock,
    /// 1×1 projection when shapes change; identity otherwise.
    proj: Option<ConvBlock>,
    junction_relu: Relu,
    junction_bits: Option<BitWidth>,
    junction_meter: DensityMeter,
}

impl BasicBlock {
    fn new(
        index: usize,
        in_channels: usize,
        out_channels: usize,
        stride: usize,
        batch_norm: bool,
        rng: &mut impl Rng,
    ) -> Self {
        let conv1 = ConvBlock::new(
            format!("block{index}.conv1"),
            ConvBlockConfig {
                geom: Conv2dGeom::new(in_channels, out_channels, 3, stride, 1),
                batch_norm,
                relu: true,
            },
            rng,
        );
        let conv2 = ConvBlock::new(
            format!("block{index}.conv2"),
            ConvBlockConfig {
                geom: Conv2dGeom::new(out_channels, out_channels, 3, 1, 1),
                batch_norm,
                relu: false,
            },
            rng,
        );
        let proj = (stride != 1 || in_channels != out_channels).then(|| {
            ConvBlock::new(
                format!("block{index}.proj"),
                ConvBlockConfig {
                    geom: Conv2dGeom::new(in_channels, out_channels, 1, stride, 0),
                    batch_norm,
                    relu: false,
                },
                rng,
            )
        });
        Self {
            conv1,
            conv2,
            proj,
            junction_relu: Relu::new(),
            junction_bits: None,
            junction_meter: DensityMeter::new(),
        }
    }

    fn set_junction_bits(&mut self, bits: Option<BitWidth>) {
        self.junction_bits = bits;
        // the projection shortcut computes at the destination precision
        if let Some(p) = self.proj.as_mut() {
            p.set_bits(bits);
        }
    }

    /// Forward pass on an input the block owns: the skip is quantized in
    /// place in it (or in the projection's output) and added into the
    /// main branch's output, which the junction ReLU and quantizer then
    /// transform in place. Every buffer the block is done with goes back
    /// to the thread's arena.
    fn forward(&mut self, mut input: Tensor, train: bool) -> Tensor {
        let hidden = self.conv1.forward(&input, train);
        let mut main = self.conv2.forward(&hidden, train);
        recycle(hidden);
        let mut projected = self.proj.as_mut().map(|p| p.forward(&input, train));
        let skip = projected.as_mut().unwrap_or(&mut input);
        // Fig 2: quantize the skip branch at the destination bit-width
        if let Some(bits) = self.junction_bits {
            if let Ok(q) = adq_quant::Quantizer::fit(bits, skip.data()) {
                q.fake_quantize_tensor_inplace(skip);
            }
        }
        main.add_scaled(skip, 1.0).expect("branch shapes agree");
        if let Some(s) = projected {
            recycle(s);
        }
        recycle(input);
        self.junction_relu.forward_in_place(&mut main);
        if train {
            self.junction_meter.observe(&main);
        }
        if let Some(bits) = self.junction_bits {
            if let Ok(q) = adq_quant::Quantizer::fit(bits, main.data()) {
                q.fake_quantize_tensor_inplace(&mut main);
            }
        }
        main
    }

    /// Backward pass on an output gradient the block owns; returns the
    /// input gradient.
    fn backward(&mut self, mut grad: Tensor) -> Tensor {
        self.junction_relu.backward_in_place(&mut grad);
        let gx_skip = self.proj.as_mut().map(|p| p.backward(&grad));
        let g_main = self.conv2.backward(&grad);
        let mut gx = self.conv1.backward(&g_main);
        recycle(g_main);
        match gx_skip {
            Some(s) => {
                gx.add_scaled(&s, 1.0).expect("branch shapes agree");
                recycle(s);
            }
            None => gx.add_scaled(&grad, 1.0).expect("branch shapes agree"),
        }
        recycle(grad);
        gx
    }
}

/// A ResNet-style network: a stem convolution, stages of basic blocks,
/// global average pooling and a fully connected classifier.
///
/// Quantizable layers are ordered `[stem, (conv1, conv2, junction)*, fc]`;
/// for ResNet18 this yields the 26 entries of Table II (b).
///
/// # Example
///
/// ```
/// use adq_nn::{QuantModel, ResNet};
/// use adq_tensor::Tensor;
///
/// let mut net = ResNet::tiny(3, 8, 4, 0);
/// let logits = net.forward(&Tensor::zeros(&[1, 3, 8, 8]), false);
/// assert_eq!(logits.dims(), &[1, 4]);
/// ```
#[derive(Debug, Clone)]
pub struct ResNet {
    stem: ConvBlock,
    blocks: Vec<BasicBlock>,
    /// Spatial input side each block sees.
    block_hw: Vec<usize>,
    stem_hw: usize,
    gap: GlobalAvgPool,
    head: LinearHead,
    classes: usize,
}

impl ResNet {
    /// Builds a ResNet from stage descriptions `(channels, blocks, stride)`.
    ///
    /// # Panics
    ///
    /// Panics if `stages` is empty.
    pub fn from_stages(
        in_channels: usize,
        input_hw: usize,
        classes: usize,
        stem_channels: usize,
        stages: &[(usize, usize, usize)],
        batch_norm: bool,
        seed: u64,
    ) -> Self {
        assert!(!stages.is_empty(), "at least one stage required");
        let mut rng = adq_tensor::init::rng(seed);
        let stem = ConvBlock::new(
            "stem",
            ConvBlockConfig {
                geom: Conv2dGeom::new(in_channels, stem_channels, 3, 1, 1),
                batch_norm,
                relu: true,
            },
            &mut rng,
        );
        let mut blocks = Vec::new();
        let mut block_hw = Vec::new();
        let mut channels = stem_channels;
        let mut hw = input_hw;
        let mut index = 0;
        for &(out, count, stage_stride) in stages {
            for b in 0..count {
                let stride = if b == 0 { stage_stride } else { 1 };
                block_hw.push(hw);
                blocks.push(BasicBlock::new(
                    index, channels, out, stride, batch_norm, &mut rng,
                ));
                hw = Conv2dGeom::new(channels, out, 3, stride, 1).output_size(hw);
                channels = out;
                index += 1;
            }
        }
        let head = LinearHead::new("fc", channels, classes, &mut rng);
        Self {
            stem,
            blocks,
            block_hw,
            stem_hw: input_hw,
            gap: GlobalAvgPool::new(),
            head,
            classes,
        }
    }

    /// Two-block test-sized network.
    pub fn tiny(in_channels: usize, input_hw: usize, classes: usize, seed: u64) -> Self {
        Self::from_stages(
            in_channels,
            input_hw,
            classes,
            8,
            &[(8, 1, 1), (16, 1, 2)],
            true,
            seed,
        )
    }

    /// Four-block scaled-down ResNet used by the dynamic experiments.
    pub fn small(in_channels: usize, input_hw: usize, classes: usize, seed: u64) -> Self {
        Self::from_stages(
            in_channels,
            input_hw,
            classes,
            16,
            &[(16, 2, 1), (32, 2, 2)],
            true,
            seed,
        )
    }

    /// Full ResNet18 (CIFAR variant: 3×3 stem, stride-1 first stage) —
    /// the paper's architecture. 26 quantizable layers as in Table II (b).
    pub fn resnet18(in_channels: usize, input_hw: usize, classes: usize, seed: u64) -> Self {
        Self::from_stages(
            in_channels,
            input_hw,
            classes,
            64,
            &[(64, 2, 1), (128, 2, 2), (256, 2, 2), (512, 2, 2)],
            true,
            seed,
        )
    }

    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Read access to the stem conv block (deployment/export).
    pub fn stem(&self) -> &ConvBlock {
        &self.stem
    }

    /// Number of basic blocks.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Read view of basic block `index`'s parts (deployment/export).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn block_view(&self, index: usize) -> ResNetBlockView<'_> {
        let block = &self.blocks[index];
        ResNetBlockView {
            conv1: &block.conv1,
            conv2: &block.conv2,
            proj: block.proj.as_ref(),
            junction_bits: block.junction_bits,
        }
    }

    /// Read access to the classifier head.
    pub fn head(&self) -> &LinearHead {
        &self.head
    }

    /// Decodes a layer index into its unit.
    fn locate(&self, index: usize) -> Unit {
        if index == 0 {
            return Unit::Stem;
        }
        let rest = index - 1;
        let block = rest / 3;
        if block < self.blocks.len() {
            match rest % 3 {
                0 => Unit::Conv1(block),
                1 => Unit::Conv2(block),
                _ => Unit::Junction(block),
            }
        } else {
            assert_eq!(index, self.layer_count() - 1, "layer index out of range");
            Unit::Head
        }
    }
}

/// Read-only view of one basic block's parts (used by deployment).
#[derive(Debug, Clone, Copy)]
pub struct ResNetBlockView<'a> {
    /// First 3×3 convolution (ReLU inside).
    pub conv1: &'a ConvBlock,
    /// Second 3×3 convolution (ReLU deferred to the junction).
    pub conv2: &'a ConvBlock,
    /// Projection shortcut when shapes change.
    pub proj: Option<&'a ConvBlock>,
    /// Destination precision of the junction (Fig 2).
    pub junction_bits: Option<BitWidth>,
}

#[derive(Debug, Clone, Copy)]
enum Unit {
    Stem,
    Conv1(usize),
    Conv2(usize),
    Junction(usize),
    Head,
}

impl QuantModel for ResNet {
    fn name(&self) -> &str {
        "resnet"
    }

    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let mut x = self.stem.forward(input, train);
        for block in &mut self.blocks {
            x = block.forward(x, train);
        }
        let pooled = self.gap.forward(&x);
        recycle(x);
        self.head.forward(&pooled, train)
    }

    fn backward(&mut self, grad_logits: &Tensor) {
        let g = self.head.backward(grad_logits);
        let mut g = self.gap.backward(&g);
        for block in self.blocks.iter_mut().rev() {
            g = block.backward(g);
        }
        // the input image needs no gradient
        self.stem.backward_params(&g);
        recycle(g);
    }

    fn visit_layers(&mut self, visitor: &mut dyn FnMut(LayerMut<'_>)) {
        visitor(LayerMut::Conv(&mut self.stem));
        for block in &mut self.blocks {
            visitor(LayerMut::Conv(&mut block.conv1));
            visitor(LayerMut::Conv(&mut block.conv2));
            if let Some(proj) = block.proj.as_mut() {
                visitor(LayerMut::Conv(proj));
            }
            visitor(LayerMut::Junction(&mut block.junction_meter));
        }
        visitor(LayerMut::Head(&mut self.head));
    }

    fn layer_count(&self) -> usize {
        2 + 3 * self.blocks.len()
    }

    fn layer_stats(&self) -> Vec<LayerStat> {
        let mut stats = Vec::with_capacity(self.layer_count());
        stats.push(LayerStat {
            name: self.stem.name().to_string(),
            kind: LayerKind::Conv,
            bits: self.stem.bits(),
            density: self.stem.density(),
            out_channels: self.stem.geom().out_channels,
            geom: Some(self.stem.geom()),
            input_hw: self.stem_hw,
            in_features: 0,
        });
        for (block, &hw) in self.blocks.iter().zip(&self.block_hw) {
            let conv1_out_hw = block.conv1.geom().output_size(hw);
            stats.push(LayerStat {
                name: block.conv1.name().to_string(),
                kind: LayerKind::Conv,
                bits: block.conv1.bits(),
                density: block.conv1.density(),
                out_channels: block.conv1.geom().out_channels,
                geom: Some(block.conv1.geom()),
                input_hw: hw,
                in_features: 0,
            });
            stats.push(LayerStat {
                name: block.conv2.name().to_string(),
                kind: LayerKind::Conv,
                bits: block.conv2.bits(),
                // measured at the junction ReLU; see density_of
                density: block.junction_meter.density(),
                out_channels: block.conv2.geom().out_channels,
                geom: Some(block.conv2.geom()),
                input_hw: conv1_out_hw,
                in_features: 0,
            });
            stats.push(LayerStat {
                name: format!("{}.junction", block.conv2.name().trim_end_matches(".conv2")),
                kind: LayerKind::Junction,
                bits: block.junction_bits,
                density: block.junction_meter.density(),
                out_channels: block.conv2.geom().out_channels,
                geom: block.proj.as_ref().map(|p| p.geom()),
                input_hw: if block.proj.is_some() { hw } else { 0 },
                in_features: 0,
            });
        }
        stats.push(LayerStat {
            name: self.head.name().to_string(),
            kind: LayerKind::Linear,
            bits: self.head.bits(),
            density: self.head.density(),
            out_channels: self.head.out_features(),
            geom: None,
            input_hw: 0,
            in_features: self.head.in_features(),
        });
        stats
    }

    fn bits_of(&self, index: usize) -> Option<BitWidth> {
        match self.locate(index) {
            Unit::Stem => self.stem.bits(),
            Unit::Conv1(b) => self.blocks[b].conv1.bits(),
            Unit::Conv2(b) => self.blocks[b].conv2.bits(),
            Unit::Junction(b) => self.blocks[b].junction_bits,
            Unit::Head => self.head.bits(),
        }
    }

    fn set_bits_of(&mut self, index: usize, bits: Option<BitWidth>) {
        match self.locate(index) {
            Unit::Stem => self.stem.set_bits(bits),
            Unit::Conv1(b) => self.blocks[b].conv1.set_bits(bits),
            Unit::Conv2(b) => self.blocks[b].conv2.set_bits(bits),
            Unit::Junction(b) => self.blocks[b].set_junction_bits(bits),
            Unit::Head => self.head.set_bits(bits),
        }
    }

    fn density_of(&self, index: usize) -> f64 {
        match self.locate(index) {
            Unit::Stem => self.stem.density(),
            Unit::Conv1(b) => self.blocks[b].conv1.density(),
            // conv2 has no ReLU of its own (it fires after the skip-add),
            // so its activation density is the junction's — which is why the
            // paper's printed per-block lists always show conv2 and the skip
            // at the same precision
            Unit::Conv2(b) | Unit::Junction(b) => self.blocks[b].junction_meter.density(),
            Unit::Head => self.head.density(),
        }
    }

    fn out_channels_of(&self, index: usize) -> usize {
        match self.locate(index) {
            Unit::Stem => self.stem.geom().out_channels,
            Unit::Conv1(b) => self.blocks[b].conv1.geom().out_channels,
            Unit::Conv2(b) | Unit::Junction(b) => self.blocks[b].conv2.geom().out_channels,
            Unit::Head => self.head.out_features(),
        }
    }

    fn prune_layer_to(&mut self, index: usize, keep: usize) -> bool {
        // Only the internal channel of a basic block can be pruned without
        // breaking the residual additions; see DESIGN.md §2.
        match self.locate(index) {
            Unit::Conv1(b) => {
                let block = &mut self.blocks[b];
                let kept = block.conv1.prune_to(keep);
                block.conv2.retain_in_channels(&kept);
                true
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adq_tensor::init;

    #[test]
    fn forward_shape() {
        let mut net = ResNet::tiny(3, 8, 4, 1);
        let y = net.forward(&Tensor::zeros(&[2, 3, 8, 8]), false);
        assert_eq!(y.dims(), &[2, 4]);
    }

    #[test]
    fn resnet18_has_26_quant_layers() {
        let net = ResNet::resnet18(3, 32, 100, 2);
        assert_eq!(net.layer_count(), 26);
    }

    #[test]
    fn tiny_layer_layout() {
        let net = ResNet::tiny(3, 8, 4, 3);
        // stem + 2 blocks * 3 + head
        assert_eq!(net.layer_count(), 8);
        let stats = net.layer_stats();
        assert_eq!(stats[0].kind, LayerKind::Conv);
        assert_eq!(stats[3].kind, LayerKind::Junction);
        assert_eq!(stats[7].kind, LayerKind::Linear);
    }

    #[test]
    fn junction_bits_propagate_to_projection() {
        let mut net = ResNet::tiny(3, 8, 4, 4);
        // block 1 (index 1) has a projection (8 -> 16, stride 2)
        let junction_idx = 1 + 3 + 2; // stem + block0 triple + (conv1, conv2)
        net.set_bits_of(junction_idx, Some(BitWidth::new(4).unwrap()));
        assert_eq!(net.bits_of(junction_idx), Some(BitWidth::new(4).unwrap()));
        let stats = net.layer_stats();
        assert_eq!(stats[junction_idx].kind, LayerKind::Junction);
        // projection geometry is exposed on the junction stat
        assert!(stats[junction_idx].geom.is_some());
    }

    #[test]
    fn identity_block_junction_has_no_geometry() {
        let net = ResNet::tiny(3, 8, 4, 5);
        let stats = net.layer_stats();
        // block 0 is 8->8 stride 1: identity skip
        assert!(stats[3].geom.is_none());
    }

    #[test]
    fn backward_populates_all_gradients() {
        let mut net = ResNet::tiny(3, 8, 4, 6);
        let mut r = init::rng(7);
        let x = init::normal(&[2, 3, 8, 8], 0.0, 1.0, &mut r);
        let y = net.forward(&x, true);
        net.zero_grad();
        net.backward(&Tensor::ones(y.dims()));
        let mut grads_nonzero = 0usize;
        let mut params_total = 0usize;
        net.visit_params(&mut |_, p| {
            params_total += 1;
            if p.grad.data().iter().any(|&g| g != 0.0) {
                grads_nonzero += 1;
            }
        });
        // most parameters should receive gradient
        assert!(
            grads_nonzero * 2 > params_total,
            "{grads_nonzero}/{params_total}"
        );
    }

    /// Every parameter gradient's bits, in slot order.
    fn grad_bits(net: &mut ResNet) -> Vec<u32> {
        let mut bits = Vec::new();
        net.visit_params(&mut |_, p| bits.extend(p.grad.data().iter().map(|g| g.to_bits())));
        bits
    }

    #[test]
    fn skipping_the_stem_input_gradient_keeps_every_parameter_gradient() {
        let mut net = ResNet::small(3, 16, 10, 31);
        net.set_bits_of(1, Some(BitWidth::new(4).unwrap()));
        let x = init::normal(&[4, 3, 16, 16], 0.0, 1.0, &mut init::rng(32));
        let grad = init::normal(&[4, 10], 0.0, 1.0, &mut init::rng(33));
        let mut chained = net.clone();
        net.forward(&x, true);
        net.backward(&grad);

        // the same pass as a chain of block backwards ending in the stem's
        // ConvBlock::backward, which still computes the input gradient
        chained.forward(&x, true);
        let g = chained.head.backward(&grad);
        let mut g = chained.gap.backward(&g);
        for block in chained.blocks.iter_mut().rev() {
            g = block.backward(g);
        }
        let dx = chained.stem.backward(&g);
        assert_eq!(dx.dims(), x.dims());
        assert_eq!(grad_bits(&mut net), grad_bits(&mut chained));
    }

    #[test]
    fn densities_tracked_for_junctions() {
        let mut net = ResNet::tiny(3, 8, 4, 8);
        let mut r = init::rng(9);
        let x = init::normal(&[2, 3, 8, 8], 0.0, 1.0, &mut r);
        net.forward(&x, true);
        assert!(net.density_of(3) > 0.0); // block 0 junction
        net.reset_densities();
        assert_eq!(net.density_of(3), 0.0);
    }

    #[test]
    fn prune_internal_channel_keeps_residual_valid() {
        let mut net = ResNet::tiny(3, 8, 4, 10);
        let mut r = init::rng(11);
        let x = init::normal(&[1, 3, 8, 8], 0.0, 1.0, &mut r);
        net.forward(&x, true);
        // conv1 of block 0 is layer index 1
        assert!(net.prune_layer_to(1, 5));
        assert_eq!(net.out_channels_of(1), 5);
        let y = net.forward(&x, false);
        assert_eq!(y.dims(), &[1, 4]);
    }

    #[test]
    fn prune_junction_unsupported() {
        let mut net = ResNet::tiny(3, 8, 4, 12);
        assert!(!net.prune_layer_to(3, 4));
        assert!(!net.prune_layer_to(0, 4));
    }

    #[test]
    fn quantized_resnet_runs() {
        let mut net = ResNet::tiny(3, 8, 4, 13);
        for i in 0..net.layer_count() {
            net.set_bits_of(i, Some(BitWidth::new(2).unwrap()));
        }
        let y = net.forward(&Tensor::zeros(&[1, 3, 8, 8]), false);
        assert!(y.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn stats_input_hw_tracks_strides() {
        let net = ResNet::tiny(3, 8, 4, 14);
        let stats = net.layer_stats();
        assert_eq!(stats[0].input_hw, 8); // stem
        assert_eq!(stats[1].input_hw, 8); // block0 conv1
        assert_eq!(stats[4].input_hw, 8); // block1 conv1 (stride 2 input)
        assert_eq!(stats[5].input_hw, 4); // block1 conv2 after stride
    }
}
