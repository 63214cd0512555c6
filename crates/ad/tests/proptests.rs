//! Property-based tests for Activation Density metering (DESIGN.md §7).

use adq_ad::{DensityMeter, NetworkDensity, SaturationDetector};
use proptest::prelude::*;

proptest! {
    #[test]
    fn density_always_in_unit_interval(values in proptest::collection::vec(-10.0f32..10.0, 0..256)) {
        let mut meter = DensityMeter::new();
        meter.observe_slice(&values);
        let d = meter.density();
        prop_assert!((0.0..=1.0).contains(&d));
    }

    #[test]
    fn density_counts_exact_nonzeros(values in proptest::collection::vec(-3i32..3, 1..128)) {
        let floats: Vec<f32> = values.iter().map(|&v| v as f32).collect();
        let expected = values.iter().filter(|&&v| v != 0).count() as f64 / values.len() as f64;
        let mut meter = DensityMeter::new();
        meter.observe_slice(&floats);
        prop_assert!((meter.density() - expected).abs() < 1e-12);
    }

    #[test]
    fn split_observation_equals_whole(values in proptest::collection::vec(-2.0f32..2.0, 2..128), split in 1usize..127) {
        let split = split.min(values.len() - 1);
        let mut whole = DensityMeter::new();
        whole.observe_slice(&values);
        let mut parts = DensityMeter::new();
        parts.observe_slice(&values[..split]);
        parts.observe_slice(&values[split..]);
        prop_assert_eq!(whole, parts);
    }

    #[test]
    fn network_mean_bounded_by_extremes(densities in proptest::collection::vec(0.0f64..=1.0, 1..20)) {
        let net = NetworkDensity::from_densities(densities.clone());
        let lo = densities.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = densities.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(net.mean() >= lo - 1e-12 && net.mean() <= hi + 1e-12);
    }

    #[test]
    fn saturation_monotone_in_tolerance(
        series in proptest::collection::vec(0.0f64..=1.0, 2..32),
        window in 2usize..6,
        tol in 0.0f64..0.5,
    ) {
        let strict = SaturationDetector::new(window, tol);
        let lax = SaturationDetector::new(window, tol + 0.1);
        if strict.is_saturated(&series) {
            prop_assert!(lax.is_saturated(&series));
        }
    }

    #[test]
    fn constant_series_always_saturates(value in 0.0f64..=1.0, len in 2usize..32, window in 2usize..6) {
        prop_assume!(len >= window);
        let series = vec![value; len];
        prop_assert!(SaturationDetector::new(window, 0.0).is_saturated(&series));
    }
}
