use adq_tensor::Tensor;
use serde::{Deserialize, Serialize};

use crate::param::Param;

/// Adam (Kingma & Ba) — the optimizer the paper trains with
/// ("The model is trained using Adam optimizer under standard settings").
///
/// Parameters are visited in a stable order each step and per-parameter
/// moments are keyed on that order ([`Adam::step_param`]'s `slot`). After
/// structural changes (pruning), call [`Adam::reset_state`].
///
/// # Example
///
/// ```
/// use adq_nn::{Adam, Param};
/// use adq_tensor::Tensor;
///
/// let mut adam = Adam::new(0.1);
/// let mut p = Param::new("w", Tensor::ones(&[1]));
/// p.grad.data_mut()[0] = 1.0;
/// adam.begin_step();
/// adam.step_param(0, &mut p);
/// // the first bias-corrected step moves a weight by about `lr`
/// assert!((p.value.data()[0] - 0.9).abs() < 1e-6);
/// ```
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
    moments: Vec<Option<(Tensor, Tensor)>>,
}

impl Adam {
    /// Creates Adam with standard settings (β₁ = 0.9, β₂ = 0.999, ε = 1e-8).
    ///
    /// # Panics
    ///
    /// Panics if `lr` is not positive and finite.
    pub fn new(lr: f32) -> Self {
        assert!(lr > 0.0 && lr.is_finite(), "learning rate must be positive");
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            moments: Vec::new(),
        }
    }

    /// Current learning rate.
    pub fn lr(&self) -> f32 {
        self.lr
    }

    /// Updates the learning rate.
    pub fn set_lr(&mut self, lr: f32) {
        assert!(lr > 0.0 && lr.is_finite(), "learning rate must be positive");
        self.lr = lr;
    }

    /// Advances the shared timestep; call once per optimization step,
    /// before visiting parameters.
    pub fn begin_step(&mut self) {
        self.t += 1;
    }

    /// Snapshots the full optimizer state (timestep + per-slot moments) for
    /// run checkpoints. Restoring with [`Adam::import_state`] reproduces the
    /// donor's update sequence bit-exactly.
    pub fn export_state(&self) -> AdamState {
        AdamState {
            lr: self.lr,
            t: self.t,
            moments: self.moments.clone(),
        }
    }

    /// Restores a snapshot captured by [`Adam::export_state`], replacing all
    /// current state including the learning rate.
    pub fn import_state(&mut self, state: AdamState) {
        self.lr = state.lr;
        self.t = state.t;
        self.moments = state.moments;
    }

    /// Applies one update step to the parameter at stable index `slot`.
    pub fn step_param(&mut self, slot: usize, param: &mut Param) {
        if self.t == 0 {
            // tolerate callers that skip begin_step
            self.t = 1;
        }
        if self.moments.len() <= slot {
            self.moments.resize(slot + 1, None);
        }
        let (beta1, beta2, lr, eps, t) = (self.beta1, self.beta2, self.lr, self.eps, self.t);
        let entry = self.moments[slot].get_or_insert_with(|| {
            (
                Tensor::zeros(param.value.dims()),
                Tensor::zeros(param.value.dims()),
            )
        });
        if entry.0.dims() != param.value.dims() {
            *entry = (
                Tensor::zeros(param.value.dims()),
                Tensor::zeros(param.value.dims()),
            );
        }
        let (m, v) = entry;
        let bc1 = 1.0 - beta1.powi(t as i32);
        let bc2 = 1.0 - beta2.powi(t as i32);
        // Per-element-independent update: large parameters fan out through
        // the shared dispatch policy, bit-identical to the serial loop.
        adq_tensor::dispatch::for_each_chunk4(
            param.value.data_mut(),
            param.grad.data(),
            m.data_mut(),
            v.data_mut(),
            |wc, gc, mc, vc| {
                for ((w, &g), (mi, vi)) in
                    wc.iter_mut().zip(gc).zip(mc.iter_mut().zip(vc.iter_mut()))
                {
                    *mi = beta1 * *mi + (1.0 - beta1) * g;
                    *vi = beta2 * *vi + (1.0 - beta2) * g * g;
                    let m_hat = *mi / bc1;
                    let v_hat = *vi / bc2;
                    *w -= lr * m_hat / (v_hat.sqrt() + eps);
                }
            },
        );
    }

    /// Discards the per-parameter moments and the timestep.
    pub fn reset_state(&mut self) {
        self.moments.clear();
        self.t = 0;
    }
}

/// Serializable snapshot of an [`Adam`] optimizer — part of the run
/// checkpoint alongside model parameters (β/ε are compile-time constants of
/// [`Adam::new`] and are not stored).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdamState {
    /// Learning rate at snapshot time.
    pub lr: f32,
    /// Shared timestep (bias-correction exponent).
    pub t: u64,
    /// First/second moment pair per parameter slot; `None` for slots never
    /// stepped.
    pub moments: Vec<Option<(Tensor, Tensor)>>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quadratic_param(x0: f32) -> Param {
        Param::new("x", Tensor::from_slice(&[x0]))
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut adam = Adam::new(0.3);
        let mut p = quadratic_param(5.0);
        for _ in 0..300 {
            adam.begin_step();
            p.zero_grad();
            p.grad.data_mut()[0] = 2.0 * p.value.data()[0];
            adam.step_param(0, &mut p);
        }
        assert!(p.value.data()[0].abs() < 1e-2, "x = {}", p.value.data()[0]);
    }

    #[test]
    fn adam_handles_shape_change_after_pruning() {
        let mut adam = Adam::new(0.1);
        let mut p = Param::new("w", Tensor::ones(&[4]));
        p.grad = Tensor::ones(&[4]);
        adam.begin_step();
        adam.step_param(0, &mut p);
        // simulate pruning: shape shrinks, same slot
        let mut p2 = Param::new("w", Tensor::ones(&[2]));
        p2.grad = Tensor::ones(&[2]);
        adam.begin_step();
        adam.step_param(0, &mut p2); // must not panic
        assert!(p2.value.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    #[should_panic]
    fn zero_lr_panics() {
        Adam::new(0.0);
    }

    #[test]
    fn adam_state_roundtrip_reproduces_updates() {
        // step two Adams in lockstep; export/import mid-way must keep the
        // restored one bit-identical to the uninterrupted one
        let mut reference = Adam::new(0.1);
        let mut donor = Adam::new(0.1);
        let mut p_ref = quadratic_param(5.0);
        let mut p_don = quadratic_param(5.0);
        let step = |adam: &mut Adam, p: &mut Param| {
            adam.begin_step();
            p.zero_grad();
            p.grad.data_mut()[0] = 2.0 * p.value.data()[0];
            adam.step_param(0, p);
        };
        for _ in 0..5 {
            step(&mut reference, &mut p_ref);
            step(&mut donor, &mut p_don);
        }
        let mut restored = Adam::new(0.9); // wrong lr, overwritten by import
        restored.import_state(donor.export_state());
        let mut p_res = p_don.clone();
        for _ in 0..5 {
            step(&mut reference, &mut p_ref);
            step(&mut restored, &mut p_res);
        }
        assert_eq!(p_ref.value.data(), p_res.value.data());
    }

    #[test]
    fn adam_parallel_update_matches_scalar_math_bitwise() {
        // a parameter large enough to cross the elementwise dispatch
        // threshold: the chunked update must equal the scalar recurrence
        let n = (1 << 17) + 13;
        let w0: Vec<f32> = (0..n).map(|i| ((i * 3) as f32).sin()).collect();
        let g0: Vec<f32> = (0..n).map(|i| ((i * 7) as f32).cos() * 0.1).collect();

        let mut adam = Adam::new(0.01);
        let mut p = Param::new("big", Tensor::from_slice(&w0));
        p.grad = Tensor::from_slice(&g0);
        adam.begin_step();
        adam.step_param(0, &mut p);
        adam.begin_step();
        adam.step_param(0, &mut p);

        // scalar reference: the same recurrence, element at a time
        let (beta1, beta2, lr, eps) = (0.9f32, 0.999f32, 0.01f32, 1e-8f32);
        let mut expected = w0.clone();
        let mut m = vec![0.0f32; n];
        let mut v = vec![0.0f32; n];
        for t in 1..=2i32 {
            let bc1 = 1.0 - beta1.powi(t);
            let bc2 = 1.0 - beta2.powi(t);
            for i in 0..n {
                let g = g0[i];
                m[i] = beta1 * m[i] + (1.0 - beta1) * g;
                v[i] = beta2 * v[i] + (1.0 - beta2) * g * g;
                expected[i] -= lr * (m[i] / bc1) / ((v[i] / bc2).sqrt() + eps);
            }
        }
        assert_eq!(p.value.data(), &expected[..]);
    }
}
