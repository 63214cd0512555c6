use crate::dispatch;
use crate::shape::ShapeError;
use crate::tensor::Tensor;

// The elementwise transforms below parallelise through crate::dispatch on
// large tensors: per-element-independent math over fixed-size chunks, so
// results are bit-identical to the serial loops at any worker count. The
// float reductions (sum/mean/min/max/norm_sq) stay serial — regrouping
// their accumulation would change results.

impl Tensor {
    /// Applies `f` to every element, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32 + Sync) -> Tensor {
        let mut data = self.data().to_vec();
        dispatch::for_each_chunk(&mut data, |chunk| {
            for x in chunk {
                *x = f(*x);
            }
        });
        Tensor::from_vec(data, self.dims()).expect("map preserves element count")
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32 + Sync) {
        dispatch::for_each_chunk(self.data_mut(), |chunk| {
            for x in chunk {
                *x = f(*x);
            }
        });
    }

    /// Element-wise combination of two same-shaped tensors.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the shapes differ.
    pub fn zip_with(
        &self,
        other: &Tensor,
        f: impl Fn(f32, f32) -> f32 + Sync,
    ) -> Result<Tensor, ShapeError> {
        if self.dims() != other.dims() {
            return Err(ShapeError::mismatch("zip_with", self.dims(), other.dims()));
        }
        let mut data = self.data().to_vec();
        dispatch::for_each_chunk2(&mut data, other.data(), |dst, src| {
            for (a, &b) in dst.iter_mut().zip(src) {
                *a = f(*a, b);
            }
        });
        Tensor::from_vec(data, self.dims())
    }

    /// Element-wise sum.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the shapes differ.
    pub fn add(&self, other: &Tensor) -> Result<Tensor, ShapeError> {
        self.zip_with(other, |a, b| a + b)
    }

    /// Element-wise difference.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the shapes differ.
    pub fn sub(&self, other: &Tensor) -> Result<Tensor, ShapeError> {
        self.zip_with(other, |a, b| a - b)
    }

    /// Element-wise product (Hadamard).
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the shapes differ.
    pub fn mul(&self, other: &Tensor) -> Result<Tensor, ShapeError> {
        self.zip_with(other, |a, b| a * b)
    }

    /// Adds `other * alpha` into `self` in place (axpy).
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the shapes differ.
    pub fn add_scaled(&mut self, other: &Tensor, alpha: f32) -> Result<(), ShapeError> {
        if self.dims() != other.dims() {
            return Err(ShapeError::mismatch(
                "add_scaled",
                self.dims(),
                other.dims(),
            ));
        }
        dispatch::for_each_chunk2(self.data_mut(), other.data(), |dst, src| {
            for (a, &b) in dst.iter_mut().zip(src) {
                *a += alpha * b;
            }
        });
        Ok(())
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data().iter().sum()
    }

    /// Arithmetic mean of all elements (0 for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.is_empty() {
            0.0
        } else {
            self.sum() / self.len() as f32
        }
    }

    /// Minimum element (`+inf` for an empty tensor).
    pub fn min(&self) -> f32 {
        self.data().iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Maximum element (`-inf` for an empty tensor).
    pub fn max(&self) -> f32 {
        self.data()
            .iter()
            .copied()
            .fold(f32::NEG_INFINITY, f32::max)
    }

    /// Number of elements different from exactly zero.
    ///
    /// This is the counting primitive behind the paper's Activation Density
    /// metric (eqn 2). Large tensors count in parallel: partial counts are
    /// integers, so the combine is exact whatever the worker count.
    pub fn count_nonzero(&self) -> usize {
        dispatch::count_nonzero_slice(self.data())
    }

    /// Index of the maximum element of a rank-1 tensor (ties: first wins).
    ///
    /// # Panics
    ///
    /// Panics if the tensor is empty.
    pub fn argmax(&self) -> usize {
        assert!(!self.is_empty(), "argmax of empty tensor");
        let mut best = 0;
        let mut best_val = self.data()[0];
        for (i, &v) in self.data().iter().enumerate().skip(1) {
            if v > best_val {
                best = i;
                best_val = v;
            }
        }
        best
    }

    /// Transposes a rank-2 tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank-2.
    pub fn transposed(&self) -> Tensor {
        assert_eq!(self.rank(), 2, "transposed requires a rank-2 tensor");
        let (rows, cols) = (self.dims()[0], self.dims()[1]);
        let mut out = Tensor::zeros(&[cols, rows]);
        for i in 0..rows {
            for j in 0..cols {
                *out.at2_mut(j, i) = self.at2(i, j);
            }
        }
        out
    }

    /// Squared L2 norm of all elements.
    pub fn norm_sq(&self) -> f32 {
        self.data().iter().map(|&x| x * x).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: &[f32]) -> Tensor {
        Tensor::from_slice(v)
    }

    #[test]
    fn map_squares() {
        assert_eq!(t(&[1.0, 2.0, 3.0]).map(|x| x * x).data(), &[1.0, 4.0, 9.0]);
    }

    #[test]
    fn add_and_sub_roundtrip() {
        let a = t(&[1.0, 2.0]);
        let b = t(&[3.0, 5.0]);
        let c = a.add(&b).unwrap().sub(&b).unwrap();
        assert_eq!(c.data(), a.data());
    }

    #[test]
    fn add_shape_mismatch_is_error() {
        assert!(t(&[1.0]).add(&t(&[1.0, 2.0])).is_err());
    }

    #[test]
    fn add_scaled_is_axpy() {
        let mut a = t(&[1.0, 2.0]);
        a.add_scaled(&t(&[10.0, 10.0]), 0.5).unwrap();
        assert_eq!(a.data(), &[6.0, 7.0]);
    }

    #[test]
    fn reductions() {
        let a = t(&[-1.0, 0.0, 3.0, 2.0]);
        assert_eq!(a.sum(), 4.0);
        assert_eq!(a.mean(), 1.0);
        assert_eq!(a.min(), -1.0);
        assert_eq!(a.max(), 3.0);
        assert_eq!(a.count_nonzero(), 3);
        assert_eq!(a.argmax(), 2);
    }

    #[test]
    fn mean_of_empty_is_zero() {
        assert_eq!(Tensor::default().mean(), 0.0);
    }

    #[test]
    fn count_nonzero_all_zero() {
        assert_eq!(Tensor::zeros(&[8]).count_nonzero(), 0);
    }

    #[test]
    fn count_nonzero_treats_negatives_as_nonzero() {
        assert_eq!(t(&[-0.5, 0.0, 1e-30]).count_nonzero(), 2);
    }

    #[test]
    fn transpose_involution() {
        let a = Tensor::from_vec((0..6).map(|x| x as f32).collect(), &[2, 3]).unwrap();
        let back = a.transposed().transposed();
        assert_eq!(back, a);
    }

    #[test]
    fn transpose_moves_element() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let at = a.transposed();
        assert_eq!(at.dims(), &[3, 2]);
        assert_eq!(at.at2(2, 0), a.at2(0, 2));
    }

    #[test]
    fn norm_sq_sums_squares() {
        assert_eq!(t(&[3.0, 4.0]).norm_sq(), 25.0);
    }

    #[test]
    fn argmax_first_tie_wins() {
        assert_eq!(t(&[5.0, 5.0, 1.0]).argmax(), 0);
    }

    /// A tensor large enough to cross the elementwise parallel threshold,
    /// with an uneven chunk tail and some exact zeros.
    fn large(seed: u64) -> Tensor {
        let n = (1 << 17) + 11;
        let data: Vec<f32> = (0..n)
            .map(|i| {
                let x = ((i as f32) * 0.37 + seed as f32).sin();
                if i % 5 == 0 {
                    0.0
                } else {
                    x
                }
            })
            .collect();
        Tensor::from_slice(&data)
    }

    #[test]
    fn parallel_map_matches_serial_bitwise() {
        let a = large(1);
        let par = a.map(|x| x.mul_add(3.0, -1.0));
        let serial: Vec<f32> = a.data().iter().map(|&x| x.mul_add(3.0, -1.0)).collect();
        assert_eq!(par.data(), &serial[..]);
    }

    #[test]
    fn parallel_map_inplace_matches_serial_bitwise() {
        let mut a = large(2);
        let serial: Vec<f32> = a.data().iter().map(|&x| x.max(0.0)).collect();
        a.map_inplace(|x| x.max(0.0));
        assert_eq!(a.data(), &serial[..]);
    }

    #[test]
    fn parallel_zip_matches_serial_bitwise() {
        let a = large(3);
        let b = large(4);
        let par = a.zip_with(&b, |x, y| x * y + 0.5).unwrap();
        let serial: Vec<f32> = a
            .data()
            .iter()
            .zip(b.data())
            .map(|(&x, &y)| x * y + 0.5)
            .collect();
        assert_eq!(par.data(), &serial[..]);
    }

    #[test]
    fn parallel_add_scaled_matches_serial_bitwise() {
        let mut a = large(5);
        let b = large(6);
        let serial: Vec<f32> = a
            .data()
            .iter()
            .zip(b.data())
            .map(|(&x, &y)| x + 0.25 * y)
            .collect();
        a.add_scaled(&b, 0.25).unwrap();
        assert_eq!(a.data(), &serial[..]);
    }

    #[test]
    fn parallel_count_nonzero_matches_serial() {
        let a = large(7);
        let serial = a.data().iter().filter(|&&x| x != 0.0).count();
        assert_eq!(a.count_nonzero(), serial);
    }
}
