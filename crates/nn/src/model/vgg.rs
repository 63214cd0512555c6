use adq_quant::BitWidth;
use adq_tensor::{recycle, Conv2dGeom, Tensor};

use crate::block::{ConvBlock, ConvBlockConfig, LinearHead};
use crate::layers::MaxPool2d;
use crate::model::{LayerKind, LayerMut, LayerStat, QuantModel};

/// An element of a VGG configuration string: a conv layer or a max-pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VggItem {
    /// 3×3 convolution with this many output channels.
    Conv(usize),
    /// 2×2 max-pool.
    Pool,
}

/// A VGG-style network: a chain of 3×3 [`ConvBlock`]s interleaved with
/// 2×2 max-pools, followed by a single fully connected classifier.
///
/// Quantizable layers are the conv blocks (in order) plus the classifier —
/// matching the 17-entry layer lists of Table II (a) for VGG19.
///
/// # Example
///
/// ```
/// use adq_nn::{QuantModel, Vgg};
/// use adq_tensor::Tensor;
///
/// let mut net = Vgg::tiny(3, 8, 4, 0);
/// let logits = net.forward(&Tensor::zeros(&[1, 3, 8, 8]), false);
/// assert_eq!(logits.dims(), &[1, 4]);
/// assert_eq!(net.layer_count(), 4); // 3 convs + classifier
/// ```
#[derive(Debug, Clone)]
pub struct Vgg {
    blocks: Vec<ConvBlock>,
    /// `pools[i]` follows `blocks[i]` when present.
    pools: Vec<Option<MaxPool2d>>,
    /// Spatial input side each block sees.
    block_hw: Vec<usize>,
    head: LinearHead,
    /// Spatial side of the feature map entering the classifier.
    head_hw: usize,
    classes: usize,
}

impl Vgg {
    /// Builds a VGG from a configuration list.
    ///
    /// # Panics
    ///
    /// Panics if the config contains no convolutions, or pooling reduces the
    /// spatial size below 1.
    pub fn from_config(
        in_channels: usize,
        input_hw: usize,
        classes: usize,
        config: &[VggItem],
        batch_norm: bool,
        seed: u64,
    ) -> Self {
        let mut rng = adq_tensor::init::rng(seed);
        let mut blocks = Vec::new();
        let mut pools: Vec<Option<MaxPool2d>> = Vec::new();
        let mut block_hw = Vec::new();
        let mut channels = in_channels;
        let mut hw = input_hw;
        for item in config {
            match *item {
                VggItem::Conv(out) => {
                    let cfg = ConvBlockConfig {
                        geom: Conv2dGeom::new(channels, out, 3, 1, 1),
                        batch_norm,
                        relu: true,
                    };
                    let name = format!("conv{}", blocks.len() + 1);
                    blocks.push(ConvBlock::new(name, cfg, &mut rng));
                    pools.push(None);
                    block_hw.push(hw);
                    channels = out;
                }
                VggItem::Pool => {
                    assert!(hw >= 2, "cannot pool a {hw}x{hw} map");
                    let last = pools.last_mut().expect("config must not start with a pool");
                    assert!(last.is_none(), "consecutive pools are not supported");
                    *last = Some(MaxPool2d::new(2));
                    hw /= 2;
                }
            }
        }
        assert!(!blocks.is_empty(), "config must contain a convolution");
        let head_features = channels * hw * hw;
        let head = LinearHead::new("fc", head_features, classes, &mut rng);
        Self {
            blocks,
            pools,
            block_hw,
            head,
            head_hw: hw,
            classes,
        }
    }

    /// Three-conv test-sized network (8/16/32 channels, two pools).
    pub fn tiny(in_channels: usize, input_hw: usize, classes: usize, seed: u64) -> Self {
        use VggItem::{Conv, Pool};
        Self::from_config(
            in_channels,
            input_hw,
            classes,
            &[Conv(8), Pool, Conv(16), Pool, Conv(32)],
            true,
            seed,
        )
    }

    /// Six-conv scaled-down VGG used by the dynamic experiments.
    pub fn small(in_channels: usize, input_hw: usize, classes: usize, seed: u64) -> Self {
        use VggItem::{Conv, Pool};
        Self::from_config(
            in_channels,
            input_hw,
            classes,
            &[
                Conv(16),
                Conv(16),
                Pool,
                Conv(32),
                Conv(32),
                Pool,
                Conv(64),
                Conv(64),
                Pool,
            ],
            true,
            seed,
        )
    }

    /// Full VGG19 (16 convolutions, 5 pools) — the paper's architecture.
    /// Constructible and runnable, but sized for the static energy analyses
    /// rather than CPU training.
    pub fn vgg19(in_channels: usize, input_hw: usize, classes: usize, seed: u64) -> Self {
        use VggItem::{Conv, Pool};
        Self::from_config(
            in_channels,
            input_hw,
            classes,
            &[
                Conv(64),
                Conv(64),
                Pool,
                Conv(128),
                Conv(128),
                Pool,
                Conv(256),
                Conv(256),
                Conv(256),
                Conv(256),
                Pool,
                Conv(512),
                Conv(512),
                Conv(512),
                Conv(512),
                Pool,
                Conv(512),
                Conv(512),
                Conv(512),
                Conv(512),
                Pool,
            ],
            true,
            seed,
        )
    }

    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Read access to the conv blocks, in order (deployment/export).
    pub fn conv_blocks(&self) -> &[ConvBlock] {
        &self.blocks
    }

    /// Mutable access to conv block `index` (range-mode configuration).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn conv_block_mut(&mut self, index: usize) -> &mut ConvBlock {
        &mut self.blocks[index]
    }

    /// Whether a 2×2 max-pool follows block `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn pool_after(&self, index: usize) -> bool {
        self.pools[index].is_some()
    }

    /// Read access to the classifier head.
    pub fn head(&self) -> &LinearHead {
        &self.head
    }

    fn head_index(&self) -> usize {
        self.blocks.len()
    }
}

impl QuantModel for Vgg {
    fn name(&self) -> &str {
        "vgg"
    }

    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        // each tensor a layer received goes back to the thread's arena
        // once the layer is done with it; the image is only borrowed
        let mut x: Option<Tensor> = None;
        for (block, pool) in self.blocks.iter_mut().zip(self.pools.iter_mut()) {
            let mut y = block.forward(x.as_ref().unwrap_or(input), train);
            if let Some(x) = x.take() {
                recycle(x);
            }
            if let Some(p) = pool {
                let pooled = p.forward(&y);
                recycle(std::mem::replace(&mut y, pooled));
            }
            x = Some(y);
        }
        let mut x = x.expect("non-empty");
        let n = x.dims()[0];
        let features = x.len() / n.max(1);
        x.reshape(&[n, features]).expect("flatten preserves count");
        // not recycled: the head's input gradient, which backward hands to
        // the last pool's arena slot, takes this buffer's place
        self.head.forward(&x, train)
    }

    fn backward(&mut self, grad_logits: &Tensor) {
        let mut g = self.head.backward(grad_logits);
        // un-flatten to the last feature-map shape
        let n = g.dims()[0];
        let c = self.blocks.last().expect("non-empty").geom().out_channels;
        let hw = self.head_hw;
        g.reshape(&[n, c, hw, hw]).expect("feature count matches");
        for (i, (block, pool)) in self
            .blocks
            .iter_mut()
            .zip(&mut self.pools)
            .enumerate()
            .rev()
        {
            if let Some(p) = pool {
                let dx = p.backward(&g);
                recycle(std::mem::replace(&mut g, dx));
            }
            // the input image needs no gradient
            if i == 0 {
                block.backward_params(&g);
                recycle(g);
                break;
            }
            let dx = block.backward(&g);
            recycle(std::mem::replace(&mut g, dx));
        }
    }

    fn visit_layers(&mut self, visitor: &mut dyn FnMut(LayerMut<'_>)) {
        for block in &mut self.blocks {
            visitor(LayerMut::Conv(block));
        }
        visitor(LayerMut::Head(&mut self.head));
    }

    fn layer_count(&self) -> usize {
        self.blocks.len() + 1
    }

    fn layer_stats(&self) -> Vec<LayerStat> {
        let mut stats: Vec<LayerStat> = self
            .blocks
            .iter()
            .zip(&self.block_hw)
            .map(|(b, &hw)| LayerStat {
                name: b.name().to_string(),
                kind: LayerKind::Conv,
                bits: b.bits(),
                density: b.density(),
                out_channels: b.geom().out_channels,
                geom: Some(b.geom()),
                input_hw: hw,
                in_features: 0,
            })
            .collect();
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
        if index == self.head_index() {
            self.head.bits()
        } else {
            self.blocks[index].bits()
        }
    }

    fn set_bits_of(&mut self, index: usize, bits: Option<BitWidth>) {
        if index == self.head_index() {
            self.head.set_bits(bits);
        } else {
            self.blocks[index].set_bits(bits);
        }
    }

    fn density_of(&self, index: usize) -> f64 {
        if index == self.head_index() {
            self.head.density()
        } else {
            self.blocks[index].density()
        }
    }

    fn out_channels_of(&self, index: usize) -> usize {
        if index == self.head_index() {
            self.head.out_features()
        } else {
            self.blocks[index].geom().out_channels
        }
    }

    fn remove_layer(&mut self, index: usize) -> bool {
        // only interior conv blocks whose input and output channel counts
        // match can vanish without re-wiring neighbours (the paper's removed
        // conv16 is a square 512->512 layer); a trailing pool migrates to
        // the predecessor
        if index == 0 || index >= self.head_index() {
            return false;
        }
        let geom = self.blocks[index].geom();
        if geom.in_channels != geom.out_channels || geom.stride != 1 {
            return false;
        }
        if self.pools[index].is_some() && self.pools[index - 1].is_some() {
            // both this block and its predecessor pool: removal would need
            // two pools on one block, which the chain cannot express
            return false;
        }
        let pool = self.pools.remove(index);
        if pool.is_some() {
            self.pools[index - 1] = pool;
        }
        self.blocks.remove(index);
        self.block_hw.remove(index);
        true
    }

    fn prune_layer_to(&mut self, index: usize, keep: usize) -> bool {
        if index >= self.head_index() {
            // pruning the classifier's classes is not meaningful
            return false;
        }
        let kept = self.blocks[index].prune_to(keep);
        if index + 1 < self.blocks.len() {
            self.blocks[index + 1].retain_in_channels(&kept);
        } else {
            // classifier side: each channel owns head_hw² flattened features
            let spatial = self.head_hw * self.head_hw;
            let features: Vec<usize> = kept
                .iter()
                .flat_map(|&c| (0..spatial).map(move |s| c * spatial + s))
                .collect();
            self.head.linear_mut().retain_in_features(&features);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adq_tensor::init;

    #[test]
    fn forward_shape() {
        let mut net = Vgg::tiny(3, 8, 5, 1);
        let y = net.forward(&Tensor::zeros(&[2, 3, 8, 8]), false);
        assert_eq!(y.dims(), &[2, 5]);
    }

    #[test]
    fn layer_count_matches_config() {
        let net = Vgg::tiny(3, 8, 4, 2);
        assert_eq!(net.layer_count(), 4);
        let stats = net.layer_stats();
        assert_eq!(stats.len(), 4);
        assert_eq!(stats[0].kind, LayerKind::Conv);
        assert_eq!(stats[3].kind, LayerKind::Linear);
    }

    #[test]
    fn vgg19_has_17_quant_layers() {
        // 16 convs + classifier, as in Table II (a)
        let net = Vgg::vgg19(3, 32, 10, 3);
        assert_eq!(net.layer_count(), 17);
    }

    #[test]
    fn vgg19_geometry_matches_paper() {
        let net = Vgg::vgg19(3, 32, 10, 4);
        let stats = net.layer_stats();
        assert_eq!(stats[0].geom.unwrap().out_channels, 64);
        assert_eq!(stats[0].input_hw, 32);
        // pools follow convs 2, 4, 8, 12, 16 (1-based): conv9..12 see 4x4,
        // conv13..16 see 2x2
        assert_eq!(stats[8].input_hw, 4);
        assert_eq!(stats[12].input_hw, 2);
        assert_eq!(stats[16].in_features, 512);
    }

    #[test]
    fn set_and_get_bits() {
        let mut net = Vgg::tiny(3, 8, 4, 5);
        let b = BitWidth::new(4).unwrap();
        net.set_bits_of(1, Some(b));
        assert_eq!(net.bits_of(1), Some(b));
        assert_eq!(net.bits_of(0), None);
        net.set_bits_of(3, Some(BitWidth::SIXTEEN));
        assert_eq!(net.bits_of(3), Some(BitWidth::SIXTEEN));
    }

    #[test]
    fn densities_accumulate_in_training() {
        let mut net = Vgg::tiny(3, 8, 4, 6);
        let mut r = init::rng(7);
        let x = init::normal(&[2, 3, 8, 8], 0.0, 1.0, &mut r);
        net.forward(&x, true);
        for i in 0..net.layer_count() - 1 {
            assert!(net.density_of(i) > 0.0, "layer {i} density zero");
        }
        net.reset_densities();
        assert_eq!(net.density_of(0), 0.0);
    }

    #[test]
    fn backward_populates_gradients() {
        let mut net = Vgg::tiny(3, 8, 4, 8);
        let mut r = init::rng(9);
        let x = init::normal(&[2, 3, 8, 8], 0.0, 1.0, &mut r);
        let y = net.forward(&x, true);
        net.zero_grad();
        net.backward(&Tensor::ones(y.dims()));
        let mut nonzero = 0usize;
        net.visit_params(&mut |_, p| {
            nonzero += p.grad.data().iter().filter(|&&g| g != 0.0).count();
        });
        assert!(nonzero > 0);
    }

    /// Every parameter gradient's bits, in slot order.
    fn grad_bits(net: &mut Vgg) -> Vec<u32> {
        let mut bits = Vec::new();
        net.visit_params(&mut |_, p| bits.extend(p.grad.data().iter().map(|g| g.to_bits())));
        bits
    }

    #[test]
    fn skipping_the_input_gradient_keeps_every_parameter_gradient() {
        let mut net = Vgg::small(3, 16, 10, 21);
        net.set_bits_of(1, Some(BitWidth::new(4).unwrap()));
        let x = init::normal(&[4, 3, 16, 16], 0.0, 1.0, &mut init::rng(22));
        let grad = init::normal(&[4, 10], 0.0, 1.0, &mut init::rng(23));
        let mut chained = net.clone();
        net.forward(&x, true);
        net.backward(&grad);

        // the same pass as a chain of ConvBlock::backward, which still
        // computes block 0's input gradient
        chained.forward(&x, true);
        let g = chained.head.backward(&grad);
        let c = chained.blocks.last().unwrap().geom().out_channels;
        let hw = chained.head_hw;
        let mut g = g.reshaped(&[4, c, hw, hw]).unwrap();
        for (block, pool) in chained.blocks.iter_mut().zip(&mut chained.pools).rev() {
            if let Some(p) = pool {
                g = p.backward(&g);
            }
            g = block.backward(&g);
        }
        assert_eq!(g.dims(), x.dims());
        assert_eq!(grad_bits(&mut net), grad_bits(&mut chained));
    }

    #[test]
    fn param_slots_are_stable() {
        let mut net = Vgg::tiny(3, 8, 4, 10);
        let mut first = Vec::new();
        net.visit_params(&mut |slot, _| first.push(slot));
        let mut second = Vec::new();
        net.visit_params(&mut |slot, _| second.push(slot));
        assert_eq!(first, second);
        // slots strictly increasing
        assert!(first.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn prune_interior_block_keeps_network_valid() {
        let mut net = Vgg::tiny(3, 8, 4, 11);
        let mut r = init::rng(12);
        let x = init::normal(&[2, 3, 8, 8], 0.0, 1.0, &mut r);
        net.forward(&x, true);
        assert!(net.prune_layer_to(1, 7));
        assert_eq!(net.out_channels_of(1), 7);
        let y = net.forward(&x, false);
        assert_eq!(y.dims(), &[2, 4]);
    }

    #[test]
    fn prune_last_block_adjusts_classifier() {
        let mut net = Vgg::tiny(3, 8, 4, 13);
        let mut r = init::rng(14);
        let x = init::normal(&[1, 3, 8, 8], 0.0, 1.0, &mut r);
        net.forward(&x, true);
        let last_conv = net.layer_count() - 2;
        assert!(net.prune_layer_to(last_conv, 10));
        let y = net.forward(&x, false);
        assert_eq!(y.dims(), &[1, 4]);
    }

    #[test]
    fn prune_classifier_unsupported() {
        let mut net = Vgg::tiny(3, 8, 4, 15);
        let head = net.layer_count() - 1;
        assert!(!net.prune_layer_to(head, 2));
    }

    #[test]
    fn remove_square_interior_block() {
        use VggItem::{Conv, Pool};
        // conv2 is 8->8 square: removable
        let mut net = Vgg::from_config(3, 8, 4, &[Conv(8), Conv(8), Pool, Conv(16)], true, 20);
        assert_eq!(net.layer_count(), 4);
        let x = Tensor::zeros(&[1, 3, 8, 8]);
        assert!(net.remove_layer(1));
        assert_eq!(net.layer_count(), 3);
        let y = net.forward(&x, false);
        assert_eq!(y.dims(), &[1, 4]);
    }

    #[test]
    fn remove_migrates_pool_to_predecessor() {
        use VggItem::{Conv, Pool};
        let mut net = Vgg::from_config(3, 8, 4, &[Conv(8), Conv(8), Pool], true, 21);
        assert!(net.remove_layer(1));
        // the pool survived: the head still sees a 4x4 map
        let y = net.forward(&Tensor::zeros(&[1, 3, 8, 8]), false);
        assert_eq!(y.dims(), &[1, 4]);
        let stats = net.layer_stats();
        assert_eq!(stats.last().expect("head").in_features, 8 * 4 * 4);
    }

    #[test]
    fn remove_rejects_shape_changing_blocks() {
        let mut net = Vgg::tiny(3, 8, 4, 22); // channels 8 -> 16 -> 32, never square
        assert!(!net.remove_layer(1));
        // and never the first conv or the classifier
        assert!(!net.remove_layer(0));
        let head = net.layer_count() - 1;
        assert!(!net.remove_layer(head));
    }

    #[test]
    fn remove_rejects_double_pool() {
        use VggItem::{Conv, Pool};
        let mut net = Vgg::from_config(
            3,
            16,
            4,
            &[Conv(8), Pool, Conv(8), Pool, Conv(16)],
            true,
            23,
        );
        // removing conv2 would need its pool and conv1's pool on one block
        assert!(!net.remove_layer(1));
    }

    #[test]
    fn quantized_network_still_classifies_shapes() {
        let mut net = Vgg::tiny(3, 8, 4, 16);
        for i in 0..net.layer_count() {
            net.set_bits_of(i, Some(BitWidth::new(3).unwrap()));
        }
        let y = net.forward(&Tensor::zeros(&[1, 3, 8, 8]), false);
        assert_eq!(y.dims(), &[1, 4]);
        assert!(y.data().iter().all(|v| v.is_finite()));
    }
}
