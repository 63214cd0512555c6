use std::sync::{Arc, OnceLock};

use adq_telemetry::{Histogram, ScopedTimer};
use adq_tensor::Tensor;
use serde::{Deserialize, Serialize};

/// Wall-time of density-counting passes, recorded into the process-wide
/// `ad.meter` histogram.
fn meter_timer() -> ScopedTimer {
    static HIST: OnceLock<Arc<Histogram>> = OnceLock::new();
    ScopedTimer::new(HIST.get_or_init(|| adq_telemetry::metrics::global().histogram("ad.meter")))
}

/// Streaming Activation Density counter for a single layer (eqn 2).
///
/// Feed it every activation tensor the layer emits during an epoch; read
/// [`DensityMeter::density`] at the epoch boundary and [`DensityMeter::reset`]
/// for the next one.
///
/// An activation counts as non-zero iff it differs from exactly `0.0` — the
/// natural definition downstream of ReLU, which produces exact zeros.
///
/// # Example
///
/// ```
/// use adq_ad::DensityMeter;
/// use adq_tensor::Tensor;
///
/// let mut meter = DensityMeter::new();
/// meter.observe(&Tensor::from_slice(&[0.0, 3.0]));
/// meter.observe(&Tensor::from_slice(&[0.0, 0.0]));
/// assert_eq!(meter.density(), 0.25);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DensityMeter {
    nonzero: u64,
    total: u64,
}

impl DensityMeter {
    /// Creates a meter with zero counts.
    pub fn new() -> Self {
        Self::default()
    }

    /// Accumulates the non-zero/total counts of one activation tensor.
    ///
    /// Activation-sized tensors count in parallel (through
    /// [`adq_tensor::dispatch`]); partial counts are integers, so the
    /// result is exact at any worker count.
    pub fn observe(&mut self, activations: &Tensor) {
        let _timer = meter_timer();
        self.nonzero += activations.count_nonzero() as u64;
        self.total += activations.len() as u64;
    }

    /// Accumulates counts from a raw slice (useful off the tensor path).
    pub fn observe_slice(&mut self, activations: &[f32]) {
        let _timer = meter_timer();
        self.nonzero += adq_tensor::dispatch::count_nonzero_slice(activations) as u64;
        self.total += activations.len() as u64;
    }

    /// Accumulates an NCHW activation tensor plane by plane, reading each
    /// element once: `per_plane(i, nonzero)` receives plane `i`'s
    /// non-zero count (plane `i` is image `i / C`, channel `i % C`), and
    /// the meter adds their sum — the per-channel counts of a layer and
    /// its meter come from one pass.
    ///
    /// # Panics
    ///
    /// Panics if `activations` is not rank 4.
    pub fn observe_planes(&mut self, activations: &Tensor, mut per_plane: impl FnMut(usize, u64)) {
        let _timer = meter_timer();
        assert_eq!(activations.rank(), 4, "observe_planes expects NCHW");
        let spatial = activations.dims()[2] * activations.dims()[3];
        for (i, plane) in activations.data().chunks_exact(spatial.max(1)).enumerate() {
            let nonzero = adq_tensor::dispatch::count_nonzero_slice(plane) as u64;
            per_plane(i, nonzero);
            self.nonzero += nonzero;
        }
        self.total += activations.len() as u64;
    }

    /// Activation Density: non-zero / total, or 0 if nothing observed.
    pub fn density(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.nonzero as f64 / self.total as f64
        }
    }

    /// Number of non-zero activations observed.
    pub fn nonzero_count(&self) -> u64 {
        self.nonzero
    }

    /// Total number of activations observed.
    pub fn total_count(&self) -> u64 {
        self.total
    }

    /// Whether any activations have been observed.
    pub fn has_observations(&self) -> bool {
        self.total > 0
    }

    /// Clears the counts for a new measurement window.
    pub fn reset(&mut self) {
        *self = Self::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_meter_reports_zero() {
        let m = DensityMeter::new();
        assert_eq!(m.density(), 0.0);
        assert!(!m.has_observations());
    }

    #[test]
    fn paper_example_100_of_512() {
        // §II-C: 512 neurons, 100 non-zero -> AD = 0.195...
        let mut values = vec![0.0f32; 512];
        for v in values.iter_mut().take(100) {
            *v = 1.0;
        }
        let mut m = DensityMeter::new();
        m.observe_slice(&values);
        assert!((m.density() - 100.0 / 512.0).abs() < 1e-12);
    }

    #[test]
    fn all_zero_gives_zero() {
        let mut m = DensityMeter::new();
        m.observe(&Tensor::zeros(&[4, 4]));
        assert_eq!(m.density(), 0.0);
        assert!(m.has_observations());
    }

    #[test]
    fn no_zero_gives_one() {
        let mut m = DensityMeter::new();
        m.observe(&Tensor::ones(&[3, 3]));
        assert_eq!(m.density(), 1.0);
    }

    #[test]
    fn accumulates_across_batches() {
        let mut m = DensityMeter::new();
        m.observe(&Tensor::ones(&[2]));
        m.observe(&Tensor::zeros(&[2]));
        assert_eq!(m.density(), 0.5);
        assert_eq!(m.total_count(), 4);
        assert_eq!(m.nonzero_count(), 2);
    }

    #[test]
    fn reset_clears() {
        let mut m = DensityMeter::new();
        m.observe_slice(&[1.0]);
        m.reset();
        assert_eq!(m, DensityMeter::new());
    }

    #[test]
    fn negatives_count_as_nonzero() {
        let mut m = DensityMeter::new();
        m.observe_slice(&[-1.0, 0.0]);
        assert_eq!(m.density(), 0.5);
    }

    #[test]
    fn density_always_in_unit_interval() {
        let mut m = DensityMeter::new();
        for i in 0..100 {
            m.observe_slice(&[i as f32 - 50.0]);
            let d = m.density();
            assert!((0.0..=1.0).contains(&d));
        }
    }

    #[test]
    fn parallel_counting_pass_is_exact() {
        // above the dispatch threshold observe_slice counts in parallel;
        // the integer combine must match a serial count exactly
        let n = (1 << 17) + 9;
        let values: Vec<f32> = (0..n)
            .map(|i| if i % 7 == 0 { 0.0 } else { (i as f32).sin() })
            .collect();
        let expected = values.iter().filter(|&&x| x != 0.0).count() as u64;
        let mut m = DensityMeter::new();
        m.observe_slice(&values);
        assert_eq!(m.nonzero_count(), expected);
        assert_eq!(m.total_count(), n as u64);
    }
}
