use adq_tensor::Tensor;

/// Rectified linear unit, `y = max(x, 0)`.
///
/// ReLU is the source of the exact zeros that Activation Density (eqn 2)
/// counts; the AD meter in [`crate::ConvBlock`] taps this layer's output.
///
/// The passes run in place (the models call them on tensors they own)
/// and allocate nothing on a warm layer: the activation mask reuses one
/// buffer across batches.
///
/// # Example
///
/// ```
/// use adq_nn::Relu;
/// use adq_tensor::Tensor;
///
/// let mut relu = Relu::new();
/// let y = relu.forward(&Tensor::from_slice(&[-1.0, 2.0]));
/// assert_eq!(y.data(), &[0.0, 2.0]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Relu {
    mask: Vec<bool>,
    /// Whether `mask` holds a forward pass backward has not consumed.
    armed: bool,
}

impl Relu {
    /// Creates a ReLU layer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Forward pass into a new tensor; caches the activation mask for
    /// backward.
    pub fn forward(&mut self, input: &Tensor) -> Tensor {
        let mut out = input.clone();
        self.forward_in_place(&mut out);
        out
    }

    /// Forward pass in place; caches the activation mask for backward.
    pub(crate) fn forward_in_place(&mut self, x: &mut Tensor) {
        let data = x.data_mut();
        self.mask.resize(data.len(), false);
        for (m, v) in self.mask.iter_mut().zip(data) {
            *m = *v > 0.0;
            *v = v.max(0.0);
        }
        self.armed = true;
    }

    /// Backward pass: zeroes gradient where the input was non-positive.
    ///
    /// # Panics
    ///
    /// Panics if called before `forward` or with a mismatched shape.
    pub fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let mut dx = grad_output.clone();
        self.backward_in_place(&mut dx);
        dx
    }

    /// Backward pass in place on the output gradient.
    ///
    /// # Panics
    ///
    /// Panics if called before `forward` or with a mismatched shape.
    pub(crate) fn backward_in_place(&mut self, grad: &mut Tensor) {
        assert!(self.armed, "Relu::backward called without forward");
        assert_eq!(self.mask.len(), grad.len(), "gradient shape mismatch");
        self.armed = false;
        for (g, &m) in grad.data_mut().iter_mut().zip(&self.mask) {
            if !m {
                *g = 0.0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_clamps_negatives() {
        let mut relu = Relu::new();
        let y = relu.forward(&Tensor::from_slice(&[-2.0, 0.0, 3.0]));
        assert_eq!(y.data(), &[0.0, 0.0, 3.0]);
    }

    #[test]
    fn backward_masks_gradient() {
        let mut relu = Relu::new();
        relu.forward(&Tensor::from_slice(&[-1.0, 2.0, 0.0]));
        let dx = relu.backward(&Tensor::from_slice(&[5.0, 5.0, 5.0]));
        assert_eq!(dx.data(), &[0.0, 5.0, 0.0]);
    }

    #[test]
    fn zero_input_has_zero_gradient() {
        // subgradient convention: d relu(0) = 0
        let mut relu = Relu::new();
        relu.forward(&Tensor::from_slice(&[0.0]));
        let dx = relu.backward(&Tensor::from_slice(&[1.0]));
        assert_eq!(dx.data(), &[0.0]);
    }

    #[test]
    #[should_panic]
    fn backward_without_forward_panics() {
        Relu::new().backward(&Tensor::zeros(&[1]));
    }

    #[test]
    fn output_density_matches_positive_fraction() {
        let mut relu = Relu::new();
        let y = relu.forward(&Tensor::from_slice(&[-1.0, 1.0, -2.0, 2.0]));
        assert_eq!(y.count_nonzero(), 2);
    }
}
