use adq_tensor::{recycle_vec, take_vec, Tensor};

use super::channels::channel_sums;
use crate::param::Param;

/// Batch normalisation over the channel axis of NCHW tensors.
///
/// Training mode normalises with batch statistics and updates running
/// estimates; evaluation mode uses the running estimates.
///
/// The passes run in place (the models call them on tensors they own)
/// and allocate nothing on a warm thread: the normalised input `x̂` that
/// backward needs lives in a buffer from the calling thread's arena
/// ([`adq_tensor::take_vec`]), which backward gives back. Per-channel
/// statistics sum several channels side by side, each in its serial
/// order (image-major, then pixel), so they are the bits of a
/// one-channel-at-a-time loop.
///
/// # Example
///
/// ```
/// use adq_nn::BatchNorm2d;
/// use adq_tensor::Tensor;
///
/// let mut bn = BatchNorm2d::new(2);
/// let x = Tensor::ones(&[4, 2, 3, 3]);
/// let y = bn.forward(&x, true);
/// assert_eq!(y.dims(), x.dims());
/// ```
#[derive(Debug, Clone)]
pub struct BatchNorm2d {
    channels: usize,
    eps: f32,
    momentum: f32,
    /// Scale γ, `[C]`.
    pub gamma: Param,
    /// Shift β, `[C]`.
    pub beta: Param,
    running_mean: Vec<f32>,
    running_var: Vec<f32>,
    cache: Option<Cache>,
}

#[derive(Debug, Clone)]
struct Cache {
    x_hat: Vec<f32>,
    inv_std: Vec<f32>,
}

impl BatchNorm2d {
    /// Creates a batch-norm layer with γ = 1, β = 0.
    pub fn new(channels: usize) -> Self {
        Self {
            channels,
            eps: 1e-5,
            momentum: 0.1,
            gamma: Param::new("bn.gamma", Tensor::ones(&[channels])),
            beta: Param::new("bn.beta", Tensor::zeros(&[channels])),
            running_mean: vec![0.0; channels],
            running_var: vec![1.0; channels],
            cache: None,
        }
    }

    /// Number of normalised channels.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Forward pass into a new tensor.
    ///
    /// # Panics
    ///
    /// Panics if the input is not `[N, C, H, W]` with `C == channels`.
    pub fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let mut out = input.clone();
        self.forward_in_place(&mut out, train);
        out
    }

    /// Forward pass, overwriting `x` with the normalised output. Training
    /// mode also caches `x̂` for backward.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not `[N, C, H, W]` with `C == channels`.
    // indexed loops: `ci` addresses the sums and the running stats at once
    #[allow(clippy::needless_range_loop)]
    pub(crate) fn forward_in_place(&mut self, x: &mut Tensor, train: bool) {
        assert_eq!(x.rank(), 4, "BatchNorm2d expects NCHW input");
        assert_eq!(x.dims()[1], self.channels, "channel mismatch");
        let [n, c, h, w] = [0, 1, 2, 3].map(|d| x.dims()[d]);
        // `hw` only sizes the plane chunks, which an empty input has none of
        let hw = (h * w).max(1);
        if let Some(stale) = self.cache.take() {
            recycle_vec(stale.x_hat);
        }
        let (mean, var) = if train {
            let per_channel = (n * h * w) as f32;
            let (mut sum, mut sq) = (vec![0.0f32; c], vec![0.0f32; c]);
            channel_sums(
                x.data(),
                Some((x.data(), &mut sq)),
                [n, c, h * w],
                0.0,
                &mut sum,
            );
            for ci in 0..c {
                let mean = sum[ci] / per_channel;
                let var = (sq[ci] / per_channel - mean * mean).max(0.0);
                self.running_mean[ci] += self.momentum * (mean - self.running_mean[ci]);
                self.running_var[ci] += self.momentum * (var - self.running_var[ci]);
                (sum[ci], sq[ci]) = (mean, var);
            }
            (sum, sq)
        } else {
            (self.running_mean.clone(), self.running_var.clone())
        };
        let inv_std: Vec<f32> = var.iter().map(|v| 1.0 / (v + self.eps).sqrt()).collect();
        let (gamma, beta) = (self.gamma.value.data(), self.beta.value.data());
        let data = x.data_mut();
        if train {
            // one read of each element writes both x̂ and the output
            let mut x_hat = take_vec(data.len());
            for (i, (plane, hat)) in data
                .chunks_exact_mut(hw)
                .zip(x_hat.chunks_exact_mut(hw))
                .enumerate()
            {
                let ci = i % c;
                let (m, s, g, b) = (mean[ci], inv_std[ci], gamma[ci], beta[ci]);
                for (v, xh) in plane.iter_mut().zip(hat) {
                    *xh = (*v - m) * s;
                    *v = g * *xh + b;
                }
            }
            self.cache = Some(Cache { x_hat, inv_std });
        } else {
            for (i, plane) in data.chunks_exact_mut(hw).enumerate() {
                let ci = i % c;
                let (m, s, g, b) = (mean[ci], inv_std[ci], gamma[ci], beta[ci]);
                for v in plane {
                    *v = g * ((*v - m) * s) + b;
                }
            }
        }
    }

    /// Backward pass into a new tensor (training statistics).
    ///
    /// # Panics
    ///
    /// Panics if called before a training-mode `forward`.
    pub fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let mut dx = grad_output.clone();
        self.backward_in_place(&mut dx);
        dx
    }

    /// Backward pass (training statistics): accumulates the γ/β
    /// gradients and overwrites `grad` (the output gradient) with the
    /// input gradient.
    ///
    /// # Panics
    ///
    /// Panics if called before a training-mode forward, or with a
    /// gradient whose shape differs from that forward's input.
    pub(crate) fn backward_in_place(&mut self, grad: &mut Tensor) {
        let cache = self
            .cache
            .take()
            .expect("BatchNorm2d::backward requires a training-mode forward");
        let dims = grad.dims();
        assert_eq!(dims.len(), 4, "BatchNorm2d expects an NCHW gradient");
        let (n, c, area) = (dims[0], dims[1], dims[2] * dims[3]);
        let hw = area.max(1);
        assert_eq!(grad.len(), cache.x_hat.len(), "gradient shape mismatch");
        let per_channel = (n * area) as f32;
        // dβ, dγ and the two means dx needs
        let (mut sum_dy, mut sum_dy_xhat) = (vec![0.0f32; c], vec![0.0f32; c]);
        channel_sums(
            grad.data(),
            Some((&cache.x_hat, &mut sum_dy_xhat)),
            [n, c, area],
            0.0,
            &mut sum_dy,
        );
        for ci in 0..c {
            self.beta.grad.data_mut()[ci] += sum_dy[ci];
            self.gamma.grad.data_mut()[ci] += sum_dy_xhat[ci];
        }
        let gamma = self.gamma.value.data();
        for (i, (plane, hat)) in grad
            .data_mut()
            .chunks_exact_mut(hw)
            .zip(cache.x_hat.chunks_exact(hw))
            .enumerate()
        {
            let ci = i % c;
            let scale = gamma[ci] * cache.inv_std[ci];
            let mean_dy = sum_dy[ci] / per_channel;
            let mean_dy_xhat = sum_dy_xhat[ci] / per_channel;
            for (dy, &xh) in plane.iter_mut().zip(hat) {
                *dy = scale * (*dy - mean_dy - xh * mean_dy_xhat);
            }
        }
        recycle_vec(cache.x_hat);
    }

    /// Snapshot of the running `(mean, variance)` statistics.
    pub fn running_stats(&self) -> (Vec<f32>, Vec<f32>) {
        (self.running_mean.clone(), self.running_var.clone())
    }

    /// Restores running statistics captured by
    /// [`BatchNorm2d::running_stats`].
    ///
    /// # Panics
    ///
    /// Panics if the lengths do not match the channel count.
    pub fn set_running_stats(&mut self, mean: &[f32], var: &[f32]) {
        assert_eq!(mean.len(), self.channels, "mean length mismatch");
        assert_eq!(var.len(), self.channels, "variance length mismatch");
        self.running_mean = mean.to_vec();
        self.running_var = var.to_vec();
    }

    /// Per-channel `(scale, shift)` that fold this layer's *inference-mode*
    /// transform into a preceding convolution:
    /// `bn(x) = scale·x + shift` with `scale = γ/√(var+ε)`,
    /// `shift = β − mean·scale` — the standard BN-folding used when
    /// deploying quantized models.
    pub fn fold_factors(&self) -> (Vec<f32>, Vec<f32>) {
        let mut scale = Vec::with_capacity(self.channels);
        let mut shift = Vec::with_capacity(self.channels);
        for c in 0..self.channels {
            let s = self.gamma.value.data()[c] / (self.running_var[c] + self.eps).sqrt();
            scale.push(s);
            shift.push(self.beta.value.data()[c] - self.running_mean[c] * s);
        }
        (scale, shift)
    }

    /// Restructures the layer to `keep` channels, retaining the given
    /// channel indices (used by AD-based pruning).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn retain_channels(&mut self, keep: &[usize]) {
        let pick = |src: &[f32]| -> Vec<f32> { keep.iter().map(|&i| src[i]).collect() };
        self.gamma = Param::new(
            "bn.gamma",
            Tensor::from_slice(&pick(self.gamma.value.data())),
        );
        self.beta = Param::new("bn.beta", Tensor::from_slice(&pick(self.beta.value.data())));
        self.running_mean = pick(&self.running_mean);
        self.running_var = pick(&self.running_var);
        self.channels = keep.len();
        self.cache = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adq_tensor::init::{self, rng};

    #[test]
    fn train_output_is_normalised() {
        let mut bn = BatchNorm2d::new(2);
        let mut r = rng(1);
        let x = init::normal(&[8, 2, 4, 4], 3.0, 2.0, &mut r);
        let y = bn.forward(&x, true);
        // per-channel mean ~0, var ~1
        for ci in 0..2 {
            let mut vals = Vec::new();
            for ni in 0..8 {
                for h in 0..4 {
                    for w in 0..4 {
                        vals.push(y.at4(ni, ci, h, w));
                    }
                }
            }
            let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
            let var: f32 =
                vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / vals.len() as f32;
            assert!(mean.abs() < 1e-4, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "var {var}");
        }
    }

    #[test]
    fn eval_uses_running_stats() {
        let mut bn = BatchNorm2d::new(1);
        let mut r = rng(2);
        // drive the running stats toward the data distribution
        for _ in 0..200 {
            let x = init::normal(&[4, 1, 2, 2], 5.0, 1.0, &mut r);
            bn.forward(&x, true);
        }
        let x = init::normal(&[4, 1, 2, 2], 5.0, 1.0, &mut r);
        let y = bn.forward(&x, false);
        assert!(y.mean().abs() < 0.3, "eval mean {}", y.mean());
    }

    #[test]
    fn backward_matches_finite_difference() {
        let mut bn = BatchNorm2d::new(2);
        let mut r = rng(3);
        bn.gamma.value.data_mut().copy_from_slice(&[1.5, 0.5]);
        bn.beta.value.data_mut().copy_from_slice(&[0.2, -0.1]);
        let x = init::uniform(&[2, 2, 2, 2], -1.0, 1.0, &mut r);

        // objective: weighted sum to make gradient non-uniform
        let weights: Vec<f32> = (0..x.len()).map(|i| (i as f32 * 0.37).sin()).collect();
        let objective = |bn: &mut BatchNorm2d, x: &Tensor| -> f32 {
            let y = bn.forward(x, true);
            y.data().iter().zip(&weights).map(|(&v, &w)| v * w).sum()
        };
        let y = bn.forward(&x, true);
        let dy = Tensor::from_vec(weights.clone(), y.dims()).unwrap();
        let dx = bn.backward(&dy);

        let eps = 1e-2f32;
        for idx in [0usize, 3, 9, 15] {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            // freeze running-stat updates' effect by reconstructing
            let mut bn_p = bn.clone();
            let mut bn_m = bn.clone();
            let fp = objective(&mut bn_p, &xp);
            let fm = objective(&mut bn_m, &xm);
            let num = (fp - fm) / (2.0 * eps);
            assert!(
                (dx.data()[idx] - num).abs() < 2e-2,
                "dx at {idx}: {} vs {num}",
                dx.data()[idx]
            );
        }
    }

    #[test]
    fn gamma_beta_grads_match_finite_difference() {
        let mut bn = BatchNorm2d::new(1);
        let mut r = rng(4);
        let x = init::uniform(&[2, 1, 2, 2], -1.0, 1.0, &mut r);
        let y = bn.forward(&x, true);
        let dy = Tensor::ones(y.dims());
        bn.backward(&dy);
        // d(sum y)/dβ = #elements; d(sum y)/dγ = sum x_hat ≈ 0
        assert!((bn.beta.grad.data()[0] - 8.0).abs() < 1e-4);
        assert!(bn.gamma.grad.data()[0].abs() < 1e-3);
    }

    #[test]
    fn fold_factors_reproduce_eval_forward() {
        let mut bn = BatchNorm2d::new(2);
        let mut r = rng(5);
        // give the running stats something non-trivial
        for _ in 0..50 {
            let x = init::normal(&[4, 2, 2, 2], 1.5, 2.0, &mut r);
            bn.forward(&x, true);
        }
        bn.gamma.value.data_mut().copy_from_slice(&[1.3, 0.7]);
        bn.beta.value.data_mut().copy_from_slice(&[0.2, -0.4]);
        let x = init::normal(&[2, 2, 2, 2], 1.5, 2.0, &mut r);
        let eval = bn.forward(&x, false);
        let (scale, shift) = bn.fold_factors();
        for ni in 0..2 {
            for ci in 0..2 {
                for h in 0..2 {
                    for w in 0..2 {
                        let folded = scale[ci] * x.at4(ni, ci, h, w) + shift[ci];
                        assert!((folded - eval.at4(ni, ci, h, w)).abs() < 1e-4);
                    }
                }
            }
        }
    }

    #[test]
    fn retain_channels_shrinks() {
        let mut bn = BatchNorm2d::new(4);
        bn.gamma
            .value
            .data_mut()
            .copy_from_slice(&[1.0, 2.0, 3.0, 4.0]);
        bn.retain_channels(&[1, 3]);
        assert_eq!(bn.channels(), 2);
        assert_eq!(bn.gamma.value.data(), &[2.0, 4.0]);
    }

    #[test]
    #[should_panic]
    fn backward_without_forward_panics() {
        BatchNorm2d::new(1).backward(&Tensor::zeros(&[1, 1, 1, 1]));
    }

    #[test]
    fn constant_input_does_not_blow_up() {
        let mut bn = BatchNorm2d::new(1);
        let x = Tensor::full(&[2, 1, 2, 2], 7.0);
        let y = bn.forward(&x, true);
        assert!(y.data().iter().all(|v| v.is_finite()));
    }
}
