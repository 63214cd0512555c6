use adq_tensor::{
    conv_gemm, conv_input_grad, init, pad_input, recycle, take_tensor, Conv2dGeom, ConvGemm,
    PaddedInput, Tensor,
};
use rand::Rng;

use super::channels::channel_sums;
use crate::param::Param;

/// A 2-D convolution with square kernel, implemented as an implicit GEMM.
///
/// Weights are stored as `[O, I·p·p]` (already flattened for the matmul);
/// use [`Conv2d::geom`] for the logical `[O, I, p, p]` view. The forward
/// product `W·cols` and the weight gradient `dY·colsᵀ` gather the im2col
/// column matrix strip by strip from a zero-padded copy of the input
/// ([`adq_tensor::conv_gemm`]), which is all the layer caches for
/// backward. The input gradient `col2im(Wᵀ·dY)` scatters each tile of
/// `Wᵀ·dY` onto the input planes as it is computed
/// ([`adq_tensor::conv_input_grad`]), so the column matrix is never
/// stored; a first layer skips it ([`Conv2d::backward_params`]).
///
/// Every buffer the layer uses — the padded input, the weight copy, the
/// product matrices, the `dY` rows, the output and the input gradient —
/// comes from the calling thread's arena ([`adq_tensor::take_tensor`])
/// and goes back to it, so a warm layer allocates nothing (watch the
/// `tensor.scratch.reuse_hits` counter).
///
/// # Example
///
/// ```
/// use adq_nn::Conv2d;
/// use adq_tensor::{Conv2dGeom, Tensor};
///
/// let mut rng = adq_tensor::init::rng(0);
/// let mut conv = Conv2d::new(Conv2dGeom::new(3, 8, 3, 1, 1), &mut rng);
/// let y = conv.forward(&Tensor::zeros(&[2, 3, 16, 16]));
/// assert_eq!(y.dims(), &[2, 8, 16, 16]);
/// ```
#[derive(Debug, Clone)]
pub struct Conv2d {
    geom: Conv2dGeom,
    /// Kernel weights, `[O, I·p·p]`.
    pub weight: Param,
    /// Per-output-channel bias, `[O]`.
    pub bias: Param,
    cache: Option<Cache>,
}

#[derive(Debug, Clone)]
struct Cache {
    input: PaddedInput,
    /// Weights actually used in the forward pass (post fake-quantization)
    /// so the backward pass differentiates what was computed.
    used_weight: Tensor,
}

impl Conv2d {
    /// Creates a convolution with Kaiming-initialised weights and zero bias.
    pub fn new(geom: Conv2dGeom, rng: &mut impl Rng) -> Self {
        let fan_in = geom.in_channels * geom.kernel * geom.kernel;
        let weight = init::kaiming(&[geom.out_channels, fan_in], fan_in, rng);
        Self {
            geom,
            weight: Param::new("conv.weight", weight),
            bias: Param::new("conv.bias", Tensor::zeros(&[geom.out_channels])),
            cache: None,
        }
    }

    /// The convolution geometry.
    pub fn geom(&self) -> Conv2dGeom {
        self.geom
    }

    /// Forward pass using the master weights.
    ///
    /// # Panics
    ///
    /// Panics if `input` is not `[N, I, H, W]`.
    pub fn forward(&mut self, input: &Tensor) -> Tensor {
        let weight = self.weight_copy();
        self.forward_with_weight(input, weight)
    }

    /// Forward pass with externally transformed weights (fake-quantized by
    /// [`crate::ConvBlock`]); gradients will be taken w.r.t. these weights
    /// and applied to the master copy (straight-through estimation).
    /// Backward gives `weight`'s buffer to the calling thread's arena.
    ///
    /// # Panics
    ///
    /// Panics if shapes are inconsistent with the geometry.
    pub fn forward_with_weight(&mut self, input: &Tensor, weight: Tensor) -> Tensor {
        assert_eq!(
            weight.dims(),
            self.weight.value.dims(),
            "transformed weight must keep the master shape"
        );
        let (n, h, w) = (input.dims()[0], input.dims()[2], input.dims()[3]);
        let (oh, ow) = (self.geom.output_size(h), self.geom.output_size(w));
        // an unconsumed cache (forward without backward) feeds its buffers
        // back to the arena before they are re-taken below
        if let Some(stale) = self.cache.take() {
            stale.input.recycle();
            recycle(stale.used_weight);
        }
        let padded = pad_input(input, &self.geom).expect("input shape checked by caller");
        let out_mat = conv_gemm(&weight, &padded, ConvGemm::Forward)
            .expect("weight/cols shapes agree by construction");
        let mut out = take_tensor(&[n, self.geom.out_channels, oh, ow]);
        rows_to_nchw(&out_mat, self.bias.value.data(), &mut out);
        recycle(out_mat);
        self.cache = Some(Cache {
            input: padded,
            used_weight: weight,
        });
        out
    }

    /// A copy of the master weights in a buffer from the calling thread's
    /// arena.
    pub(crate) fn weight_copy(&self) -> Tensor {
        let mut weight = take_tensor(self.weight.value.dims());
        weight.data_mut().copy_from_slice(self.weight.value.data());
        weight
    }

    /// Restructures the convolution to keep only the given output channels
    /// (AD-based channel pruning, eqn 5). Gradients and caches are reset.
    ///
    /// # Panics
    ///
    /// Panics if `keep` is empty or contains an out-of-range index.
    pub fn retain_out_channels(&mut self, keep: &[usize]) {
        assert!(!keep.is_empty(), "cannot prune all output channels");
        let fan_in = self.geom.in_channels * self.geom.kernel * self.geom.kernel;
        let mut weight = Tensor::zeros(&[keep.len(), fan_in]);
        let mut bias = Tensor::zeros(&[keep.len()]);
        for (new_o, &old_o) in keep.iter().enumerate() {
            assert!(
                old_o < self.geom.out_channels,
                "channel {old_o} out of range"
            );
            for i in 0..fan_in {
                *weight.at2_mut(new_o, i) = self.weight.value.at2(old_o, i);
            }
            bias.data_mut()[new_o] = self.bias.value.data()[old_o];
        }
        self.geom.out_channels = keep.len();
        self.weight = Param::new("conv.weight", weight);
        self.bias = Param::new("conv.bias", bias);
        self.cache = None;
    }

    /// Restructures the convolution to keep only the given input channels
    /// (the successor-side half of channel pruning).
    ///
    /// # Panics
    ///
    /// Panics if `keep` is empty or contains an out-of-range index.
    pub fn retain_in_channels(&mut self, keep: &[usize]) {
        assert!(!keep.is_empty(), "cannot prune all input channels");
        let pp = self.geom.kernel * self.geom.kernel;
        let new_fan_in = keep.len() * pp;
        let mut weight = Tensor::zeros(&[self.geom.out_channels, new_fan_in]);
        for o in 0..self.geom.out_channels {
            for (new_c, &old_c) in keep.iter().enumerate() {
                assert!(
                    old_c < self.geom.in_channels,
                    "channel {old_c} out of range"
                );
                for k in 0..pp {
                    *weight.at2_mut(o, new_c * pp + k) = self.weight.value.at2(o, old_c * pp + k);
                }
            }
        }
        self.geom.in_channels = keep.len();
        self.weight = Param::new("conv.weight", weight);
        self.cache = None;
    }

    /// Backward pass: accumulates weight/bias gradients, returns the
    /// input gradient.
    ///
    /// # Panics
    ///
    /// Panics if called before `forward` or with a gradient whose shape does
    /// not match the last forward output.
    pub fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        self.backward_with(grad_output, true)
            .expect("input gradient requested")
    }

    /// Backward pass for a layer whose input needs no gradient (a
    /// network's first convolution): accumulates weight/bias gradients
    /// exactly as [`Conv2d::backward`] does and skips `Wᵀ·dY`.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Conv2d::backward`].
    pub fn backward_params(&mut self, grad_output: &Tensor) {
        self.backward_with(grad_output, false);
    }

    fn backward_with(&mut self, grad_output: &Tensor, input_grad: bool) -> Option<Tensor> {
        let cache = self
            .cache
            .take()
            .expect("Conv2d::backward called without forward");
        let (n, o) = (grad_output.dims()[0], grad_output.dims()[1]);
        let (oh, ow) = (grad_output.dims()[2], grad_output.dims()[3]);
        assert_eq!(o, self.geom.out_channels, "grad channel mismatch");
        let dy = nchw_to_rows(grad_output);
        // dW = dY · colsᵀ
        let dw = conv_gemm(&dy, &cache.input, ConvGemm::WeightGrad).expect("dy/cols shapes agree");
        self.weight
            .grad
            .add_scaled(&dw, 1.0)
            .expect("gradient shape matches weight");
        recycle(dw);
        // db = per-channel sums of dY, each in `Iterator::sum`'s order and
        // start value over the channel's `[N·OH·OW]` row
        let mut db = vec![0.0f32; o];
        channel_sums(grad_output.data(), None, [n, o, oh * ow], -0.0, &mut db);
        for (grad, sum) in self.bias.grad.data_mut().iter_mut().zip(db) {
            *grad += sum;
        }
        // dX = col2im(Wᵀ · dY), with W the weights actually used forward
        let dx = input_grad.then(|| {
            let dims = cache.input.input_dims();
            conv_input_grad(&cache.used_weight, &dy, dims, &self.geom)
                .expect("cache dims are consistent")
        });
        recycle(dy);
        recycle(cache.used_weight);
        cache.input.recycle();
        dx
    }
}

/// Rearranges `[O, N·OH·OW]` matmul output into the NCHW `out`, adding
/// bias; every element of `out` is written.
fn rows_to_nchw(mat: &Tensor, bias: &[f32], out: &mut Tensor) {
    let [n, o, oh, ow] = [0, 1, 2, 3].map(|d| out.dims()[d]);
    let spatial = oh * ow;
    let src = mat.data();
    for (i, dst) in out.data_mut().chunks_exact_mut(spatial.max(1)).enumerate() {
        let (ni, oi) = (i / o, i % o);
        let b = bias[oi];
        let row = &src[(oi * n + ni) * spatial..][..spatial];
        for (d, &v) in dst.iter_mut().zip(row) {
            *d = v + b;
        }
    }
}

/// Inverse of [`rows_to_nchw`] (without bias): NCHW → `[O, N·OH·OW]`,
/// in a buffer from the calling thread's arena (every element is
/// overwritten), which backward gives back.
fn nchw_to_rows(t: &Tensor) -> Tensor {
    let [n, o, oh, ow] = [0, 1, 2, 3].map(|d| t.dims()[d]);
    let spatial = oh * ow;
    let mut dst = take_tensor(&[o, n * spatial]);
    let rows = dst.data_mut();
    for (i, plane) in t.data().chunks_exact(spatial.max(1)).enumerate() {
        let (ni, oi) = (i / o, i % o);
        rows[(oi * n + ni) * spatial..][..spatial].copy_from_slice(plane);
    }
    dst
}

#[cfg(test)]
mod tests {
    use super::*;
    use adq_tensor::init::rng;

    /// Direct (quadruple-loop) convolution used as the reference.
    fn naive_conv(input: &Tensor, conv: &Conv2d) -> Tensor {
        let g = conv.geom();
        let (n, h, w) = (input.dims()[0], input.dims()[2], input.dims()[3]);
        let (oh, ow) = (g.output_size(h), g.output_size(w));
        let mut out = Tensor::zeros(&[n, g.out_channels, oh, ow]);
        for ni in 0..n {
            for oi in 0..g.out_channels {
                for y in 0..oh {
                    for x in 0..ow {
                        let mut acc = conv.bias.value.data()[oi];
                        for ci in 0..g.in_channels {
                            for kh in 0..g.kernel {
                                for kw in 0..g.kernel {
                                    let ih = (y * g.stride + kh) as isize - g.padding as isize;
                                    let iw = (x * g.stride + kw) as isize - g.padding as isize;
                                    if ih < 0 || iw < 0 || ih >= h as isize || iw >= w as isize {
                                        continue;
                                    }
                                    let wi = (ci * g.kernel + kh) * g.kernel + kw;
                                    acc += input.at4(ni, ci, ih as usize, iw as usize)
                                        * conv.weight.value.at2(oi, wi);
                                }
                            }
                        }
                        *out.at4_mut(ni, oi, y, x) = acc;
                    }
                }
            }
        }
        out
    }

    #[test]
    fn forward_matches_naive() {
        let mut r = rng(1);
        let mut conv = Conv2d::new(Conv2dGeom::new(2, 3, 3, 1, 1), &mut r);
        conv.bias
            .value
            .data_mut()
            .copy_from_slice(&[0.1, -0.2, 0.3]);
        let x = init::uniform(&[2, 2, 5, 5], -1.0, 1.0, &mut r);
        let fast = conv.forward(&x);
        let slow = naive_conv(&x, &conv);
        assert_eq!(fast.dims(), slow.dims());
        for (a, b) in fast.data().iter().zip(slow.data()) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn forward_stride_two_matches_naive() {
        let mut r = rng(2);
        let mut conv = Conv2d::new(Conv2dGeom::new(3, 4, 3, 2, 1), &mut r);
        let x = init::uniform(&[1, 3, 8, 8], -1.0, 1.0, &mut r);
        let fast = conv.forward(&x);
        let slow = naive_conv(&x, &conv);
        for (a, b) in fast.data().iter().zip(slow.data()) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn one_by_one_conv_is_channel_mix() {
        let mut r = rng(3);
        let mut conv = Conv2d::new(Conv2dGeom::new(2, 2, 1, 1, 0), &mut r);
        let x = init::uniform(&[1, 2, 4, 4], -1.0, 1.0, &mut r);
        let fast = conv.forward(&x);
        let slow = naive_conv(&x, &conv);
        for (a, b) in fast.data().iter().zip(slow.data()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    /// Finite-difference check of input, weight and bias gradients.
    #[test]
    fn backward_matches_finite_difference() {
        let mut r = rng(4);
        let geom = Conv2dGeom::new(2, 2, 3, 1, 1);
        let mut conv = Conv2d::new(geom, &mut r);
        let x = init::uniform(&[1, 2, 4, 4], -1.0, 1.0, &mut r);

        // scalar objective: sum of outputs
        let y = conv.forward(&x);
        let dy = Tensor::ones(y.dims());
        let dx = conv.backward(&dy);

        let eps = 1e-2f32;
        // input gradient
        for idx in [0usize, 5, 17, 31] {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let fp = conv.forward(&xp).sum();
            conv.cache = None;
            let fm = conv.forward(&xm).sum();
            conv.cache = None;
            let num = (fp - fm) / (2.0 * eps);
            assert!(
                (dx.data()[idx] - num).abs() < 1e-2,
                "input grad at {idx}: {} vs {num}",
                dx.data()[idx]
            );
        }
        // weight gradient
        for idx in [0usize, 7, 20] {
            let orig = conv.weight.value.data()[idx];
            conv.weight.value.data_mut()[idx] = orig + eps;
            let fp = conv.forward(&x).sum();
            conv.weight.value.data_mut()[idx] = orig - eps;
            let fm = conv.forward(&x).sum();
            conv.weight.value.data_mut()[idx] = orig;
            let num = (fp - fm) / (2.0 * eps);
            assert!(
                (conv.weight.grad.data()[idx] - num).abs() < 2e-2,
                "weight grad at {idx}: {} vs {num}",
                conv.weight.grad.data()[idx]
            );
        }
        // bias gradient: d(sum)/db_o = #output pixels
        let pixels = (4 * 4) as f32;
        for g in conv.bias.grad.data() {
            assert!((g - pixels).abs() < 1e-3);
        }
    }

    #[test]
    fn backward_accumulates_gradients() {
        let mut r = rng(5);
        let mut conv = Conv2d::new(Conv2dGeom::new(1, 1, 3, 1, 1), &mut r);
        let x = init::uniform(&[1, 1, 4, 4], -1.0, 1.0, &mut r);
        let y = conv.forward(&x);
        let dy = Tensor::ones(y.dims());
        conv.backward(&dy);
        let first = conv.weight.grad.clone();
        conv.forward(&x);
        conv.backward(&dy);
        // second backward doubles the accumulated gradient
        for (a, b) in conv.weight.grad.data().iter().zip(first.data()) {
            assert!((a - 2.0 * b).abs() < 1e-4);
        }
    }

    #[test]
    #[should_panic]
    fn backward_without_forward_panics() {
        let mut r = rng(6);
        let mut conv = Conv2d::new(Conv2dGeom::new(1, 1, 3, 1, 1), &mut r);
        conv.backward(&Tensor::zeros(&[1, 1, 4, 4]));
    }

    #[test]
    fn retain_out_channels_keeps_selected_filters() {
        let mut r = rng(8);
        let mut conv = Conv2d::new(Conv2dGeom::new(1, 3, 1, 1, 0), &mut r);
        conv.weight
            .value
            .data_mut()
            .copy_from_slice(&[1.0, 2.0, 3.0]);
        conv.bias.value.data_mut().copy_from_slice(&[0.1, 0.2, 0.3]);
        conv.retain_out_channels(&[2, 0]);
        assert_eq!(conv.geom().out_channels, 2);
        assert_eq!(conv.weight.value.data(), &[3.0, 1.0]);
        assert_eq!(conv.bias.value.data(), &[0.3, 0.1]);
    }

    #[test]
    fn retain_in_channels_keeps_selected_taps() {
        let mut r = rng(9);
        let mut conv = Conv2d::new(Conv2dGeom::new(3, 1, 1, 1, 0), &mut r);
        conv.weight
            .value
            .data_mut()
            .copy_from_slice(&[1.0, 2.0, 3.0]);
        conv.retain_in_channels(&[1]);
        assert_eq!(conv.geom().in_channels, 1);
        assert_eq!(conv.weight.value.data(), &[2.0]);
    }

    #[test]
    fn pruned_conv_still_runs() {
        let mut r = rng(10);
        let mut conv = Conv2d::new(Conv2dGeom::new(4, 6, 3, 1, 1), &mut r);
        conv.retain_out_channels(&[0, 2, 4]);
        conv.retain_in_channels(&[1, 3]);
        let y = conv.forward(&Tensor::zeros(&[1, 2, 5, 5]));
        assert_eq!(y.dims(), &[1, 3, 5, 5]);
    }

    #[test]
    #[should_panic]
    fn retain_empty_panics() {
        let mut r = rng(11);
        let mut conv = Conv2d::new(Conv2dGeom::new(1, 2, 1, 1, 0), &mut r);
        conv.retain_out_channels(&[]);
    }

    #[test]
    fn scratch_reuse_across_batches_is_bitwise_stable() {
        // second forward/backward round runs on recycled (dirty) buffers
        // and must produce exactly the same numbers as the cold round
        let mut r = rng(12);
        let mut conv = Conv2d::new(Conv2dGeom::new(2, 3, 3, 1, 1), &mut r);
        let x = init::uniform(&[2, 2, 6, 6], -1.0, 1.0, &mut r);
        let y1 = conv.forward(&x);
        let dy = Tensor::ones(y1.dims());
        let dx1 = conv.backward(&dy);
        for len in [16, 72, 144, 400] {
            recycle(Tensor::full(&[len], f32::NAN));
        }
        let y2 = conv.forward(&x);
        let dx2 = conv.backward(&dy);
        assert_eq!(y1, y2);
        assert_eq!(dx1, dx2);
    }

    #[test]
    fn forward_with_weight_uses_given_weights() {
        let mut r = rng(7);
        let mut conv = Conv2d::new(Conv2dGeom::new(1, 1, 1, 1, 0), &mut r);
        let x = Tensor::ones(&[1, 1, 2, 2]);
        let y = conv.forward_with_weight(&x, Tensor::full(&[1, 1], 3.0));
        assert!(y.data().iter().all(|&v| (v - 3.0).abs() < 1e-6));
    }
}
