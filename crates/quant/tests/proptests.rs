//! Property-based tests for quantization invariants (DESIGN.md §7).

use adq_quant::{
    BitWidth, HwPrecision, MinMaxObserver, MovingAverageObserver, QuantError, QuantRange,
    Quantizer, RangeObserver,
};
use proptest::prelude::*;

fn quantizer_strategy() -> impl Strategy<Value = Quantizer> {
    (1u32..=16, -100.0f32..100.0, 0.001f32..200.0).prop_map(|(bits, min, width)| {
        Quantizer::new(
            BitWidth::new(bits).expect("bits in 1..=16"),
            QuantRange::new(min, min + width).expect("min <= min + width"),
        )
    })
}

/// The full legal bit-width span. Code arithmetic runs in f64 internally,
/// so invariants hold all the way to 32 bits (f32 arithmetic lost whole
/// codes above ~24 bits).
fn wide_quantizer_strategy() -> impl Strategy<Value = Quantizer> {
    (1u32..=32, -100.0f32..100.0, 0.001f32..200.0).prop_map(|(bits, min, width)| {
        Quantizer::new(
            BitWidth::new(bits).expect("bits in 1..=32"),
            QuantRange::new(min, min + width).expect("min <= min + width"),
        )
    })
}

proptest! {
    #[test]
    fn codes_never_exceed_max((q, x) in (quantizer_strategy(), -1000.0f32..1000.0)) {
        prop_assert!(q.quantize(x) <= q.bits().max_code());
    }

    #[test]
    fn fake_quantize_stays_in_range((q, x) in (quantizer_strategy(), -1000.0f32..1000.0)) {
        let y = q.fake_quantize(x);
        prop_assert!(y >= q.range().min() - 1e-3);
        prop_assert!(y <= q.range().max() + 1e-3);
    }

    #[test]
    fn fake_quantize_idempotent((q, x) in (quantizer_strategy(), -1000.0f32..1000.0)) {
        let once = q.fake_quantize(x);
        let twice = q.fake_quantize(once);
        // identical codes => identical values
        prop_assert_eq!(once.to_bits(), twice.to_bits());
    }

    #[test]
    fn quantize_is_monotone((q, a, b) in (quantizer_strategy(), -500.0f32..500.0, -500.0f32..500.0)) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(q.quantize(lo) <= q.quantize(hi));
    }

    #[test]
    fn error_bounded_by_half_step((q, x) in (quantizer_strategy(), -1000.0f32..1000.0)) {
        let clamped = q.range().clamp(x);
        let err = (q.fake_quantize(x) - clamped).abs();
        // relative tolerance absorbs f32 rounding on large ranges
        prop_assert!(err <= q.step() / 2.0 + 1e-3 * (1.0 + clamped.abs()),
            "err={} step={}", err, q.step());
    }

    #[test]
    fn dequantize_quantize_roundtrips_codes(
        (q, code) in (quantizer_strategy(), 0u64..65536)
    ) {
        let code = code.min(q.bits().max_code());
        let value = q.dequantize(code);
        let back = q.quantize(value);
        // allow one code of slack for f32 rounding at high bit-widths
        let diff = back.abs_diff(code);
        prop_assert!(diff <= 1, "code {} -> {} -> {}", code, value, back);
    }

    #[test]
    fn eqn3_nonincreasing(bits in 1u32..=32, density in 0.0f64..=1.0) {
        let k = BitWidth::new(bits).expect("valid");
        prop_assert!(k.scaled_by_density(density) <= k);
    }

    #[test]
    fn eqn3_at_full_density_is_identity(bits in 1u32..=32) {
        let k = BitWidth::new(bits).expect("valid");
        prop_assert_eq!(k.scaled_by_density(1.0), k);
    }

    #[test]
    fn codes_never_exceed_max_up_to_32_bits(
        (q, x) in (wide_quantizer_strategy(), -1000.0f32..1000.0)
    ) {
        prop_assert!(q.quantize(x) <= q.bits().max_code());
    }

    #[test]
    fn quantize_is_monotone_up_to_32_bits(
        (q, a, b) in (wide_quantizer_strategy(), -500.0f32..500.0, -500.0f32..500.0)
    ) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(q.quantize(lo) <= q.quantize(hi));
    }

    #[test]
    fn fake_quantize_idempotent_up_to_32_bits(
        (q, x) in (wide_quantizer_strategy(), -1000.0f32..1000.0)
    ) {
        let once = q.fake_quantize(x);
        let twice = q.fake_quantize(once);
        prop_assert_eq!(once.to_bits(), twice.to_bits());
    }

    #[test]
    fn error_bounded_by_half_step_up_to_32_bits(
        (q, x) in (wide_quantizer_strategy(), -1000.0f32..1000.0)
    ) {
        let clamped = q.range().clamp(x);
        let err = (q.fake_quantize(x) - clamped).abs();
        // at very high bit-widths the f32 return value dominates the error,
        // so the bound is half a step plus a few ulps of the magnitude
        prop_assert!(err <= q.step() / 2.0 + 4.0 * f32::EPSILON * (1.0 + clamped.abs()),
            "err={} step={}", err, q.step());
    }

    #[test]
    fn code_roundtrip_exact_where_f32_resolves_codes(
        (bits, min, width, frac) in (1u32..=20, -1.0f32..1.0, 0.5f32..2.0, 0.0f64..=1.0)
    ) {
        // with f64 internals, codes survive dequantize → quantize exactly as
        // long as the step is wider than f32 rounding at the value magnitude
        // (here: |value| <= 3, k <= 20); the old f32 arithmetic already broke
        // this within 1..=16 on wide ranges
        let q = Quantizer::new(
            BitWidth::new(bits).expect("valid"),
            QuantRange::new(min, min + width).expect("min <= min + width"),
        );
        let code = (frac * q.bits().max_code() as f64).round() as u64;
        prop_assert_eq!(q.quantize(q.dequantize(code)), code);
    }

    #[test]
    fn legalize_rounds_up_within_16(bits in 1u32..=16) {
        let k = BitWidth::new(bits).expect("valid");
        let p = HwPrecision::legalize(k);
        prop_assert!(p.bits() >= bits);
        // tight: the next smaller hw precision would not fit
        let smaller: Option<HwPrecision> = match p {
            HwPrecision::B2 => None,
            HwPrecision::B4 => Some(HwPrecision::B2),
            HwPrecision::B8 => Some(HwPrecision::B4),
            HwPrecision::B16 => Some(HwPrecision::B8),
        };
        if let Some(s) = smaller {
            prop_assert!(s.bits() < bits);
        }
    }
}

/// `QuantRange::from_data` as a per-element scalar fold: the reference
/// the vector scan must reproduce bit for bit.
fn scalar_range(data: &[f32]) -> Result<QuantRange, QuantError> {
    if data.is_empty() {
        return Err(QuantError::EmptyObserver);
    }
    let mut lo = f32::INFINITY;
    let mut hi = f32::NEG_INFINITY;
    for &x in data {
        if !x.is_finite() {
            return Err(QuantError::InvalidRange { min: x, max: x });
        }
        // the running bound stays on a ±0 tie
        lo = if x < lo { x } else { lo };
        hi = if x > hi { x } else { hi };
    }
    QuantRange::new(lo, hi)
}

/// The observers' range scan as the per-element serial loop it
/// replaced: skip NaN and ±inf, fold the rest from ±inf keeping the
/// running bound on a tie.
fn scalar_finite_range(data: &[f32]) -> Result<QuantRange, QuantError> {
    let mut lo = f32::INFINITY;
    let mut hi = f32::NEG_INFINITY;
    let mut kept = 0usize;
    for &x in data {
        if x.is_finite() {
            lo = if x < lo { x } else { lo };
            hi = if x > hi { x } else { hi };
            kept += 1;
        }
    }
    if kept == 0 {
        return Err(QuantError::EmptyObserver);
    }
    QuantRange::new(lo, hi)
}

/// A result as bits, so NaN payloads and signed zeros compare exactly.
fn range_bits(r: Result<QuantRange, QuantError>) -> Result<(u32, u32), (String, u32, u32)> {
    match r {
        Ok(r) => Ok((r.min().to_bits(), r.max().to_bits())),
        Err(QuantError::InvalidRange { min, max }) => {
            Err(("invalid".into(), min.to_bits(), max.to_bits()))
        }
        Err(e) => Err((e.to_string(), 0, 0)),
    }
}

/// A finite value that stresses a min/max scan, picked by `kind`:
/// signed zeros (often), subnormals of either sign, ordinary values and
/// arbitrary finite bit patterns.
fn scan_value(kind: u8, bits: u32, x: f32) -> f32 {
    let sign = bits & 0x8000_0000;
    match kind {
        0..=2 => 0.0,
        3..=5 => -0.0,
        6 | 7 => f32::from_bits(sign | (bits % 0x007f_ffff + 1)),
        8 => Some(f32::from_bits(bits))
            .filter(|v| v.is_finite())
            .unwrap_or(x),
        _ => x,
    }
}

/// ±inf, or a NaN of either sign with any payload.
fn non_finite(kind: u8, bits: u32) -> f32 {
    match kind % 3 {
        0 => f32::INFINITY,
        1 => f32::NEG_INFINITY,
        _ => f32::from_bits(bits & 0x8000_0000 | 0x7f80_0000 | (bits % 0x007f_ffff + 1)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Lengths up to 80 leave every remainder of the 16-lane scan.
    #[test]
    fn from_data_matches_the_scalar_fold_bitwise(
        values in proptest::collection::vec((0u8..12, any::<u32>(), -8.0f32..8.0), 0..80),
        sign in 0u8..3,
        bad in proptest::collection::vec((any::<usize>(), any::<u8>(), any::<u32>()), 0..3),
        with_bad in any::<bool>(),
    ) {
        // one-signed data makes a zero the bound the ±0 tie decides
        let mut data: Vec<f32> = values
            .into_iter()
            .map(|(kind, bits, x)| match scan_value(kind, bits, x) {
                v if sign == 1 && v < 0.0 => -v,
                v if sign == 2 && v > 0.0 => -v,
                v => v,
            })
            .collect();
        for (at, kind, bits) in bad.into_iter().filter(|_| with_bad) {
            data.insert(at % (data.len() + 1), non_finite(kind, bits));
        }
        prop_assert_eq!(
            range_bits(QuantRange::from_data(&data)),
            range_bits(scalar_range(&data))
        );
    }

    /// Batches of signed zeros mixed with values, one-signed at times so
    /// a zero is the bound: merging per-batch ranges (`union`, and the
    /// min/max observer built on it) must give the bits of the range of
    /// the concatenation, and an EMA observer's first batch the bits of
    /// that batch's range.
    #[test]
    fn merged_ranges_keep_the_first_zero_bitwise(
        batches in proptest::collection::vec(
            proptest::collection::vec((0u8..12, any::<u32>(), -8.0f32..8.0), 0..24),
            1..5,
        ),
        sign in 0u8..3,
    ) {
        let batches: Vec<Vec<f32>> = batches
            .into_iter()
            .map(|values| {
                values
                    .into_iter()
                    .map(|(kind, bits, x)| match scan_value(kind, bits, x) {
                        v if sign == 1 && v < 0.0 => -v,
                        v if sign == 2 && v > 0.0 => -v,
                        v => v,
                    })
                    .collect()
            })
            .collect();
        let whole = range_bits(QuantRange::from_data(&batches.concat()));
        let unioned = batches
            .iter()
            .filter_map(|b| QuantRange::from_data(b).ok())
            .reduce(|acc, r| acc.union(&r))
            .ok_or(QuantError::EmptyObserver);
        prop_assert_eq!(range_bits(unioned), whole.clone());
        let mut minmax = MinMaxObserver::new();
        for batch in &batches {
            minmax.observe(batch);
        }
        prop_assert_eq!(range_bits(minmax.range()), whole);

        let mut ema = MovingAverageObserver::default();
        ema.observe(&batches[0]);
        prop_assert_eq!(
            range_bits(ema.range()),
            range_bits(QuantRange::from_data(&batches[0]))
        );
    }

    /// Data mixing signed zeros, values, NaN and ±inf, one-signed at
    /// times so a zero is the bound: a fresh min/max or EMA observer
    /// must take the bits of the serial loop over the finite values,
    /// and count every value it skipped.
    #[test]
    fn observers_skip_non_finite_values_like_the_serial_loop(
        values in proptest::collection::vec((0u8..12, any::<u32>(), -8.0f32..8.0), 0..80),
        sign in 0u8..3,
        bad in proptest::collection::vec((any::<usize>(), any::<u8>(), any::<u32>()), 0..40),
    ) {
        let mut data: Vec<f32> = values
            .into_iter()
            .map(|(kind, bits, x)| match scan_value(kind, bits, x) {
                v if sign == 1 && v < 0.0 => -v,
                v if sign == 2 && v > 0.0 => -v,
                v => v,
            })
            .collect();
        for &(at, kind, bits) in &bad {
            data.insert(at % (data.len() + 1), non_finite(kind, bits));
        }
        let want = range_bits(scalar_finite_range(&data));
        let counter =
            adq_telemetry::metrics::global().counter("quant.observer.nonfinite_dropped");
        let before = counter.get();
        let mut minmax = MinMaxObserver::new();
        minmax.observe(&data);
        // other tests feed non-finite data concurrently, so the counter
        // moved by at least this observation's count
        prop_assert!(counter.get() >= before + bad.len() as u64);
        prop_assert_eq!(range_bits(minmax.range()), want.clone());
        let mut ema = MovingAverageObserver::default();
        ema.observe(&data);
        prop_assert_eq!(range_bits(ema.range()), want);
    }
}
