//! Deterministic, seedable weight initialisers.
//!
//! All experiments in the workspace are reproducible bit-for-bit: every
//! random stream is a [`rand_chacha::ChaCha8Rng`] derived from an explicit
//! seed.

use rand::Rng;
use rand::SeedableRng;
pub use rand_chacha::ChaCha8Rng;

use crate::tensor::Tensor;

/// Creates the deterministic RNG used throughout the workspace.
///
/// # Example
///
/// ```
/// use rand::Rng;
///
/// let mut rng = adq_tensor::init::rng(42);
/// let x: f32 = rng.gen();
/// let mut rng2 = adq_tensor::init::rng(42);
/// assert_eq!(x, rng2.gen::<f32>());
/// ```
pub fn rng(seed: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed)
}

/// Snapshots an RNG's keystream position as plain words, for inclusion in
/// run checkpoints: `(key, counter, index)` as produced by
/// [`rand_chacha::ChaCha8Rng::state`].
pub fn rng_state(rng: &ChaCha8Rng) -> ([u32; 8], u64, u32) {
    let s = rng.state();
    (s.key, s.counter, s.index)
}

/// Rebuilds an RNG from a [`rng_state`] snapshot; the restored stream
/// continues bit-exactly from where the snapshot was taken.
pub fn rng_from_state(key: [u32; 8], counter: u64, index: u32) -> ChaCha8Rng {
    ChaCha8Rng::from_state(rand_chacha::ChaChaState {
        key,
        counter,
        index,
    })
}

/// Tensor with elements drawn uniformly from `[lo, hi)`.
pub fn uniform(dims: &[usize], lo: f32, hi: f32, rng: &mut impl Rng) -> Tensor {
    let n: usize = dims.iter().product();
    let data = (0..n).map(|_| rng.gen_range(lo..hi)).collect();
    Tensor::from_vec(data, dims).expect("uniform: element count matches by construction")
}

/// Tensor with elements drawn from a normal distribution via Box–Muller.
pub fn normal(dims: &[usize], mean: f32, std: f32, rng: &mut impl Rng) -> Tensor {
    let n: usize = dims.iter().product();
    let data = (0..n).map(|_| mean + std * standard_normal(rng)).collect();
    Tensor::from_vec(data, dims).expect("normal: element count matches by construction")
}

/// Kaiming/He normal initialisation for ReLU networks: `std = sqrt(2 / fan_in)`.
///
/// # Panics
///
/// Panics if `fan_in` is zero.
pub fn kaiming(dims: &[usize], fan_in: usize, rng: &mut impl Rng) -> Tensor {
    assert!(fan_in > 0, "kaiming: fan_in must be positive");
    normal(dims, 0.0, (2.0 / fan_in as f32).sqrt(), rng)
}

fn standard_normal(rng: &mut impl Rng) -> f32 {
    // Box–Muller transform; u1 in (0, 1] to avoid ln(0).
    let u1: f32 = 1.0 - rng.gen::<f32>();
    let u2: f32 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic() {
        let a = uniform(&[16], 0.0, 1.0, &mut rng(7));
        let b = uniform(&[16], 0.0, 1.0, &mut rng(7));
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = uniform(&[16], 0.0, 1.0, &mut rng(7));
        let b = uniform(&[16], 0.0, 1.0, &mut rng(8));
        assert_ne!(a, b);
    }

    #[test]
    fn uniform_respects_bounds() {
        let t = uniform(&[1000], -2.0, 3.0, &mut rng(1));
        assert!(t.data().iter().all(|&x| (-2.0..3.0).contains(&x)));
    }

    #[test]
    fn normal_has_roughly_right_moments() {
        let t = normal(&[20_000], 1.0, 2.0, &mut rng(2));
        let mean = t.mean();
        let var = t.map(|x| (x - mean) * (x - mean)).mean();
        assert!((mean - 1.0).abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.3, "var {var}");
    }

    #[test]
    fn kaiming_std_scales_with_fan_in() {
        let t = kaiming(&[20_000], 50, &mut rng(3));
        let var = t.map(|x| x * x).mean();
        assert!((var - 2.0 / 50.0).abs() < 0.01, "var {var}");
    }

    #[test]
    #[should_panic]
    fn kaiming_zero_fan_in_panics() {
        kaiming(&[4], 0, &mut rng(0));
    }

    #[test]
    fn normal_produces_finite_values() {
        let t = normal(&[10_000], 0.0, 1.0, &mut rng(4));
        assert!(t.data().iter().all(|x| x.is_finite()));
    }

    #[test]
    fn rng_state_roundtrip_continues_stream() {
        let mut original = rng(11);
        let _: f32 = original.gen(); // advance mid-block
        let (key, counter, index) = rng_state(&original);
        let mut restored = rng_from_state(key, counter, index);
        for _ in 0..100 {
            assert_eq!(original.gen::<u64>(), restored.gen::<u64>());
        }
    }
}
