use adq_tensor::{init, matmul, matmul_a_bt, matmul_at_b, recycle, take_tensor, Tensor};
use rand::Rng;

use crate::param::Param;

/// A fully connected layer: `y = x · Wᵀ + b` with `x: [N, in]`, `W: [out, in]`.
///
/// Like [`crate::Conv2d`], the layer takes the cached input copy and its
/// GEMM workspace from the calling thread's arena
/// ([`adq_tensor::take_tensor`]) and gives them back after backward.
///
/// # Example
///
/// ```
/// use adq_nn::Linear;
/// use adq_tensor::Tensor;
///
/// let mut rng = adq_tensor::init::rng(0);
/// let mut fc = Linear::new(8, 3, &mut rng);
/// let y = fc.forward(&Tensor::zeros(&[4, 8]));
/// assert_eq!(y.dims(), &[4, 3]);
/// ```
#[derive(Debug, Clone)]
pub struct Linear {
    in_features: usize,
    out_features: usize,
    /// Weights, `[out, in]`.
    pub weight: Param,
    /// Bias, `[out]`.
    pub bias: Param,
    cache: Option<Cache>,
}

#[derive(Debug, Clone)]
struct Cache {
    input: Tensor,
    used_weight: Tensor,
}

impl Linear {
    /// Creates a layer with Kaiming-initialised weights and zero bias.
    pub fn new(in_features: usize, out_features: usize, rng: &mut impl Rng) -> Self {
        let weight = init::kaiming(&[out_features, in_features], in_features, rng);
        Self {
            in_features,
            out_features,
            weight: Param::new("linear.weight", weight),
            bias: Param::new("linear.bias", Tensor::zeros(&[out_features])),
            cache: None,
        }
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// Forward pass with the master weights.
    pub fn forward(&mut self, input: &Tensor) -> Tensor {
        let weight = self.weight.value.clone();
        self.forward_with_weight(input, weight)
    }

    /// Forward pass with externally transformed (e.g. fake-quantized)
    /// weights; see [`crate::Conv2d::forward_with_weight`].
    ///
    /// # Panics
    ///
    /// Panics if shapes are inconsistent.
    pub fn forward_with_weight(&mut self, input: &Tensor, weight: Tensor) -> Tensor {
        assert_eq!(input.rank(), 2, "Linear expects [N, in] input");
        assert_eq!(input.dims()[1], self.in_features, "feature mismatch");
        if let Some(stale) = self.cache.take() {
            recycle(stale.input);
        }
        let mut out = matmul_a_bt(input, &weight).expect("shapes checked above");
        let n = out.dims()[0];
        let o = self.out_features;
        let bias = self.bias.value.data().to_vec();
        let data = out.data_mut();
        for ni in 0..n {
            for (oi, &b) in bias.iter().enumerate() {
                data[ni * o + oi] += b;
            }
        }
        // cache the input in a recycled buffer rather than a fresh clone
        let mut input_copy = take_tensor(input.dims());
        input_copy.data_mut().copy_from_slice(input.data());
        self.cache = Some(Cache {
            input: input_copy,
            used_weight: weight,
        });
        out
    }

    /// Restructures the layer to keep only the given input features —
    /// the classifier-side half of channel pruning (a pruned channel removes
    /// all the flattened features it produced).
    ///
    /// # Panics
    ///
    /// Panics if `keep` is empty or contains an out-of-range index.
    pub fn retain_in_features(&mut self, keep: &[usize]) {
        assert!(!keep.is_empty(), "cannot prune all input features");
        let mut weight = Tensor::zeros(&[self.out_features, keep.len()]);
        for o in 0..self.out_features {
            for (new_i, &old_i) in keep.iter().enumerate() {
                assert!(old_i < self.in_features, "feature {old_i} out of range");
                *weight.at2_mut(o, new_i) = self.weight.value.at2(o, old_i);
            }
        }
        self.in_features = keep.len();
        self.weight = Param::new("linear.weight", weight);
        self.cache = None;
    }

    /// Backward pass: accumulates gradients, returns input gradient.
    ///
    /// # Panics
    ///
    /// Panics if called before `forward`.
    pub fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let cache = self
            .cache
            .take()
            .expect("Linear::backward called without forward");
        // dW = dyᵀ · x
        let dw = matmul_at_b(grad_output, &cache.input).expect("shapes agree from forward");
        self.weight
            .grad
            .add_scaled(&dw, 1.0)
            .expect("weight grad shape");
        recycle(dw);
        recycle(cache.input);
        // db = column sums of dy
        let (n, o) = (grad_output.dims()[0], grad_output.dims()[1]);
        for ni in 0..n {
            for oi in 0..o {
                self.bias.grad.data_mut()[oi] += grad_output.at2(ni, oi);
            }
        }
        // dx = dy · W
        matmul(grad_output, &cache.used_weight).expect("shapes agree from forward")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adq_tensor::init::rng;

    #[test]
    fn forward_matches_manual() {
        let mut r = rng(1);
        let mut fc = Linear::new(2, 2, &mut r);
        fc.weight
            .value
            .data_mut()
            .copy_from_slice(&[1.0, 2.0, 3.0, 4.0]);
        fc.bias.value.data_mut().copy_from_slice(&[0.5, -0.5]);
        let x = Tensor::from_vec(vec![1.0, 1.0], &[1, 2]).unwrap();
        let y = fc.forward(&x);
        // y0 = 1+2+0.5, y1 = 3+4-0.5
        assert_eq!(y.data(), &[3.5, 6.5]);
    }

    #[test]
    fn backward_matches_finite_difference() {
        let mut r = rng(2);
        let mut fc = Linear::new(3, 2, &mut r);
        let x = init::uniform(&[2, 3], -1.0, 1.0, &mut r);
        let y = fc.forward(&x);
        let dy = Tensor::ones(y.dims());
        let dx = fc.backward(&dy);

        let eps = 1e-2f32;
        for idx in 0..x.len() {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let fp = fc.forward(&xp).sum();
            let fm = fc.forward(&xm).sum();
            let num = (fp - fm) / (2.0 * eps);
            assert!((dx.data()[idx] - num).abs() < 1e-2);
        }
        for idx in 0..fc.weight.value.len() {
            let orig = fc.weight.value.data()[idx];
            fc.weight.value.data_mut()[idx] = orig + eps;
            let fp = fc.forward(&x).sum();
            fc.weight.value.data_mut()[idx] = orig - eps;
            let fm = fc.forward(&x).sum();
            fc.weight.value.data_mut()[idx] = orig;
            let num = (fp - fm) / (2.0 * eps);
            assert!((fc.weight.grad.data()[idx] - num).abs() < 2e-2);
        }
        // bias grad = batch size for sum objective
        for g in fc.bias.grad.data() {
            assert!((g - 2.0).abs() < 1e-4);
        }
    }

    #[test]
    #[should_panic]
    fn wrong_feature_count_panics() {
        let mut r = rng(3);
        let mut fc = Linear::new(4, 2, &mut r);
        fc.forward(&Tensor::zeros(&[1, 5]));
    }

    #[test]
    #[should_panic]
    fn backward_without_forward_panics() {
        let mut r = rng(4);
        let mut fc = Linear::new(2, 2, &mut r);
        fc.backward(&Tensor::zeros(&[1, 2]));
    }

    #[test]
    fn retain_in_features_selects_columns() {
        let mut r = rng(6);
        let mut fc = Linear::new(3, 2, &mut r);
        fc.weight
            .value
            .data_mut()
            .copy_from_slice(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        fc.retain_in_features(&[0, 2]);
        assert_eq!(fc.in_features(), 2);
        assert_eq!(fc.weight.value.data(), &[1.0, 3.0, 4.0, 6.0]);
    }

    #[test]
    fn scratch_reuse_across_batches_is_bitwise_stable() {
        let mut r = rng(7);
        let mut fc = Linear::new(5, 3, &mut r);
        let x = init::uniform(&[4, 5], -1.0, 1.0, &mut r);
        let y1 = fc.forward(&x);
        let dy = Tensor::ones(y1.dims());
        let dx1 = fc.backward(&dy);
        for len in [12, 15, 20] {
            recycle(Tensor::full(&[len], f32::NAN));
        }
        let y2 = fc.forward(&x);
        let dx2 = fc.backward(&dy);
        assert_eq!(y1, y2);
        assert_eq!(dx1, dx2);
    }

    #[test]
    fn forward_with_weight_overrides_master() {
        let mut r = rng(5);
        let mut fc = Linear::new(2, 1, &mut r);
        let x = Tensor::from_vec(vec![1.0, 1.0], &[1, 2]).unwrap();
        let y = fc.forward_with_weight(&x, Tensor::full(&[1, 2], 2.0));
        assert!((y.data()[0] - 4.0).abs() < 1e-6);
    }
}
