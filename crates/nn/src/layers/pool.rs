use adq_tensor::{take_tensor, take_tensor_zeroed, Tensor};

/// Max pooling with square window and stride equal to the window size
/// (the configuration used by VGG).
///
/// Outputs and input gradients come from the calling thread's arena
/// ([`adq_tensor::take_tensor`]) and the argmax cache reuses one buffer.
///
/// # Example
///
/// ```
/// use adq_nn::MaxPool2d;
/// use adq_tensor::Tensor;
///
/// # fn main() -> Result<(), adq_tensor::ShapeError> {
/// let mut pool = MaxPool2d::new(2);
/// let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2])?;
/// let y = pool.forward(&x);
/// assert_eq!(y.data(), &[4.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct MaxPool2d {
    window: usize,
    /// Input dims of a forward pass backward has not consumed.
    input_dims: Option<[usize; 4]>,
    argmax: Vec<usize>,
}

impl MaxPool2d {
    /// Creates a pooling layer with `window × window` cells.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "pool window must be positive");
        Self {
            window,
            input_dims: None,
            argmax: Vec::new(),
        }
    }

    /// The pooling window side.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Forward pass; input spatial dims must be divisible by the window.
    ///
    /// # Panics
    ///
    /// Panics on rank ≠ 4 or indivisible spatial dims.
    pub fn forward(&mut self, input: &Tensor) -> Tensor {
        assert_eq!(input.rank(), 4, "MaxPool2d expects NCHW input");
        let [n, c, h, w] = [0, 1, 2, 3].map(|d| input.dims()[d]);
        assert!(
            h % self.window == 0 && w % self.window == 0,
            "spatial dims {h}x{w} not divisible by window {}",
            self.window
        );
        let (oh, ow) = (h / self.window, w / self.window);
        let len = n * c * oh * ow;
        let mut out = take_tensor(&[n, c, oh, ow]);
        self.argmax.resize(len, 0);
        let src = input.data();
        let dst = out.data_mut();
        for ni in 0..n {
            for ci in 0..c {
                let plane = (ni * c + ci) * h * w;
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut best_idx = plane + (oy * self.window) * w + ox * self.window;
                        let mut best = src[best_idx];
                        for ky in 0..self.window {
                            for kx in 0..self.window {
                                let idx =
                                    plane + (oy * self.window + ky) * w + ox * self.window + kx;
                                if src[idx] > best {
                                    best = src[idx];
                                    best_idx = idx;
                                }
                            }
                        }
                        let out_idx = ((ni * c + ci) * oh + oy) * ow + ox;
                        dst[out_idx] = best;
                        self.argmax[out_idx] = best_idx;
                    }
                }
            }
        }
        self.input_dims = Some([n, c, h, w]);
        out
    }

    /// Backward pass: routes each gradient to the winning input cell.
    ///
    /// # Panics
    ///
    /// Panics if called before `forward`.
    pub fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let dims = self
            .input_dims
            .take()
            .expect("MaxPool2d::backward called without forward");
        assert_eq!(
            self.argmax.len(),
            grad_output.len(),
            "gradient shape mismatch"
        );
        let mut dx = take_tensor_zeroed(&dims);
        let data = dx.data_mut();
        for (&in_idx, &g) in self.argmax.iter().zip(grad_output.data()) {
            data[in_idx] += g;
        }
        dx
    }
}

/// Global average pooling: `[N, C, H, W] → [N, C]` (ResNet's head).
///
/// The input gradient comes from the calling thread's arena
/// ([`adq_tensor::take_tensor`]).
///
/// # Example
///
/// ```
/// use adq_nn::GlobalAvgPool;
/// use adq_tensor::Tensor;
///
/// let mut pool = GlobalAvgPool::new();
/// let y = pool.forward(&Tensor::ones(&[2, 3, 4, 4]));
/// assert_eq!(y.dims(), &[2, 3]);
/// assert_eq!(y.data()[0], 1.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct GlobalAvgPool {
    input_dims: Option<[usize; 4]>,
}

impl GlobalAvgPool {
    /// Creates a global average pooling layer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Forward pass.
    ///
    /// # Panics
    ///
    /// Panics on rank ≠ 4.
    pub fn forward(&mut self, input: &Tensor) -> Tensor {
        assert_eq!(input.rank(), 4, "GlobalAvgPool expects NCHW input");
        let [n, c, h, w] = [0, 1, 2, 3].map(|d| input.dims()[d]);
        let area = (h * w) as f32;
        let mut out = Tensor::zeros(&[n, c]);
        for ni in 0..n {
            for ci in 0..c {
                let plane = (ni * c + ci) * h * w;
                let sum: f32 = input.data()[plane..plane + h * w].iter().sum();
                *out.at2_mut(ni, ci) = sum / area;
            }
        }
        self.input_dims = Some([n, c, h, w]);
        out
    }

    /// Backward pass: spreads each gradient uniformly over its plane.
    ///
    /// # Panics
    ///
    /// Panics if called before `forward`.
    pub fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let dims = self
            .input_dims
            .take()
            .expect("GlobalAvgPool::backward called without forward");
        let area = (dims[2] * dims[3]) as f32;
        let mut dx = take_tensor(&dims);
        for (plane, &g) in dx
            .data_mut()
            .chunks_exact_mut((dims[2] * dims[3]).max(1))
            .zip(grad_output.data())
        {
            plane.fill(g / area);
        }
        dx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maxpool_picks_max_per_window() {
        let mut pool = MaxPool2d::new(2);
        let x = Tensor::from_vec(
            vec![
                1.0, 2.0, 5.0, 6.0, //
                3.0, 4.0, 7.0, 8.0, //
                9.0, 10.0, 13.0, 14.0, //
                11.0, 12.0, 15.0, 16.0,
            ],
            &[1, 1, 4, 4],
        )
        .unwrap();
        let y = pool.forward(&x);
        assert_eq!(y.data(), &[4.0, 8.0, 12.0, 16.0]);
    }

    #[test]
    fn maxpool_backward_routes_to_winner() {
        let mut pool = MaxPool2d::new(2);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]).unwrap();
        pool.forward(&x);
        let dx = pool.backward(&Tensor::from_vec(vec![1.0], &[1, 1, 1, 1]).unwrap());
        assert_eq!(dx.data(), &[0.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    fn maxpool_ties_pick_first() {
        let mut pool = MaxPool2d::new(2);
        let x = Tensor::from_vec(vec![5.0, 5.0, 5.0, 5.0], &[1, 1, 2, 2]).unwrap();
        pool.forward(&x);
        let dx = pool.backward(&Tensor::from_vec(vec![1.0], &[1, 1, 1, 1]).unwrap());
        assert_eq!(dx.data(), &[1.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    #[should_panic]
    fn maxpool_indivisible_panics() {
        MaxPool2d::new(2).forward(&Tensor::zeros(&[1, 1, 3, 4]));
    }

    #[test]
    fn gap_averages_planes() {
        let mut pool = GlobalAvgPool::new();
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]).unwrap();
        let y = pool.forward(&x);
        assert_eq!(y.data(), &[2.5]);
    }

    #[test]
    fn gap_backward_spreads_uniformly() {
        let mut pool = GlobalAvgPool::new();
        pool.forward(&Tensor::zeros(&[1, 2, 2, 2]));
        let dy = Tensor::from_vec(vec![4.0, 8.0], &[1, 2]).unwrap();
        let dx = pool.backward(&dy);
        assert_eq!(dx.data(), &[1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    fn gap_grad_preserves_total() {
        // sum(dx) == sum(dy) for average pooling
        let mut pool = GlobalAvgPool::new();
        pool.forward(&Tensor::zeros(&[2, 3, 4, 4]));
        let dy = Tensor::ones(&[2, 3]);
        let dx = pool.backward(&dy);
        assert!((dx.sum() - dy.sum()).abs() < 1e-5);
    }
}
