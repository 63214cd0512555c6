use std::sync::{Arc, OnceLock};

use adq_telemetry::span::{self, SpanGuard};
use adq_telemetry::{Histogram, ScopedTimer};
use adq_tensor::Tensor;
use serde::{Deserialize, Serialize};

use crate::bitwidth::BitWidth;
use crate::range::QuantRange;
use crate::simd::{CodeParams, FakeQuantParams};

/// Wall-time of whole-tensor quantization passes (the fake-quantization
/// applied on every forward), recorded into the process-wide
/// `quant.forward` histogram.
fn forward_timer() -> ScopedTimer {
    static HIST: OnceLock<Arc<Histogram>> = OnceLock::new();
    ScopedTimer::new(
        HIST.get_or_init(|| adq_telemetry::metrics::global().histogram("quant.forward")),
    )
}

/// A `k`-bit uniform affine quantizer over a calibrated range (eqn 1).
///
/// Values outside the range are clamped to it before quantization — the
/// standard behaviour of fixed-range quantizers and the reason observers
/// must be calibrated on representative data.
///
/// # Example
///
/// ```
/// use adq_quant::{BitWidth, QuantRange, Quantizer};
///
/// # fn main() -> Result<(), adq_quant::QuantError> {
/// let q = Quantizer::new(BitWidth::new(4)?, QuantRange::new(0.0, 15.0)?);
/// assert_eq!(q.quantize(7.4), 7);
/// assert_eq!(q.dequantize(7), 7.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Quantizer {
    bits: BitWidth,
    range: QuantRange,
}

impl Quantizer {
    /// Creates a quantizer from a bit-width and range.
    pub fn new(bits: BitWidth, range: QuantRange) -> Self {
        Self { bits, range }
    }

    /// The quantizer's bit-width.
    pub fn bits(&self) -> BitWidth {
        self.bits
    }

    /// The quantizer's range.
    pub fn range(&self) -> QuantRange {
        self.range
    }

    /// The value spacing between adjacent codes (0 for a degenerate range).
    pub fn step(&self) -> f32 {
        self.step_f64() as f32
    }

    /// Code arithmetic runs in f64: `max_code` reaches 2³² − 1, far beyond
    /// f32's 24-bit mantissa — f32 scaling loses whole codes above ~24 bits.
    fn step_f64(&self) -> f64 {
        if self.range.is_degenerate() {
            0.0
        } else {
            self.width_f64() / self.bits.max_code() as f64
        }
    }

    fn width_f64(&self) -> f64 {
        f64::from(self.range.max()) - f64::from(self.range.min())
    }

    /// eqn 1: maps a real value to its integer code in `0..=2^k − 1`.
    ///
    /// Inputs are clamped into the range first; a degenerate range maps
    /// everything to code 0.
    pub fn quantize(&self, x: f32) -> u64 {
        if self.range.is_degenerate() {
            return 0;
        }
        let x = self.range.clamp(x);
        let scaled = (f64::from(x) - f64::from(self.range.min()))
            * (self.bits.max_code() as f64 / self.width_f64());
        // round-half-away-from-zero like the paper's `round`; scaled >= 0 here
        (scaled.round() as u64).min(self.bits.max_code())
    }

    /// The clamp → scale → round → saturate constants of this quantizer;
    /// a degenerate range has none.
    fn code_params(&self) -> Option<CodeParams> {
        (!self.range.is_degenerate()).then(|| CodeParams {
            lo: self.range.min(),
            hi: self.range.max(),
            min64: f64::from(self.range.min()),
            inv_step: self.bits.max_code() as f64 / self.width_f64(),
            max_code: self.bits.max_code(),
        })
    }

    /// A precomputed bulk encoder for tight packing loops.
    ///
    /// It hoists the division by the range width out of the per-element
    /// loop, and [`Encoder::encode_into`] encodes whole slices in vector
    /// lanes; both produce the codes of [`Quantizer::quantize`].
    /// Deployment packers quantize every im2col element of every batch
    /// through this path.
    pub fn encoder(&self) -> Encoder {
        Encoder {
            params: self.code_params(),
        }
    }

    /// Maps an integer code back to its real representative value.
    ///
    /// Codes above `2^k − 1` are saturated.
    pub fn dequantize(&self, code: u64) -> f32 {
        if self.range.is_degenerate() {
            return self.range.min();
        }
        let code = code.min(self.bits.max_code());
        (f64::from(self.range.min()) + code as f64 * self.step_f64()) as f32
    }

    /// Decodes a slice of codes, `out[i] = dequantize(codes[i])`, with the
    /// range minimum and step computed once instead of per code: the same
    /// expression in the same order, so the values are the same bits as
    /// [`Quantizer::dequantize`]'s, saturation of codes above `2^k − 1`
    /// included.
    ///
    /// # Panics
    ///
    /// Panics if `codes` and `out` differ in length.
    pub fn dequantize_slice(&self, codes: &[u16], out: &mut [f32]) {
        assert_eq!(codes.len(), out.len(), "one value per code");
        if self.range.is_degenerate() {
            out.fill(self.range.min());
            return;
        }
        let (min, step, max_code) = (
            f64::from(self.range.min()),
            self.step_f64(),
            self.bits.max_code(),
        );
        for (value, &code) in out.iter_mut().zip(codes) {
            *value = (min + u64::from(code).min(max_code) as f64 * step) as f32;
        }
    }

    /// Quantize-dequantize: the value the hardware would actually compute
    /// with. This is the "fake quantization" applied to weights and
    /// activations during the paper's in-training quantization.
    pub fn fake_quantize(&self, x: f32) -> f32 {
        self.dequantize(self.quantize(x))
    }

    /// Integer codes for a whole tensor.
    pub fn quantize_tensor(&self, t: &Tensor) -> Vec<u64> {
        let _timer = forward_timer();
        t.data().iter().map(|&x| self.quantize(x)).collect()
    }

    /// Fake-quantizes a slice in place with the range constants hoisted out
    /// of the loop.
    ///
    /// The per-element [`Quantizer::fake_quantize`] re-derives the scale
    /// (`max_code / width`), step and clamp bounds on every call; this path
    /// computes them once and runs a tight clamp → scale → round →
    /// reconstruct loop, explicitly vectorized where the CPU supports it
    /// (see `crate::simd`). Whichever body runs, the arithmetic per element
    /// is the *same expressions in the same rounding order* as the scalar
    /// path, so results are bit-identical to calling
    /// [`Quantizer::fake_quantize`] per element — including NaN inputs
    /// (mapped to the range minimum, as the scalar path's saturating
    /// `as u64` cast does) and infinities (clamped).
    ///
    /// Activation-sized slices fan chunks out to rayon workers through
    /// [`adq_tensor::dispatch`]; the transform is per-element independent,
    /// so the parallel result is bit-identical at any worker count.
    pub fn fake_quantize_slice(&self, data: &mut [f32]) {
        let _timer = forward_timer();
        // Verbose-only (level 2): this runs once per layer per forward pass.
        let _span = if span::verbose() {
            span::span_with(
                "quant.fake_quantize",
                vec![
                    ("elements", data.len().into()),
                    ("bits", u64::from(self.bits.get()).into()),
                ],
            )
        } else {
            SpanGuard::disabled()
        };
        if adq_telemetry::alloc::tracking() {
            // Clamp → scale → round → reconstruct is ~5 flops per
            // element; the slice is read and written once in place.
            let elements = data.len() as u64;
            adq_telemetry::alloc::add_flops(5 * elements);
            adq_telemetry::alloc::add_bytes_moved(8 * elements);
        }
        let Some(code) = self.code_params() else {
            data.fill(self.range.min());
            return;
        };
        let params = FakeQuantParams {
            code,
            step: self.step_f64(),
        };
        adq_tensor::dispatch::for_each_chunk(data, |chunk| {
            crate::simd::fake_quantize_chunk(chunk, &params);
        });
    }

    /// Fake-quantizes a whole tensor, preserving its shape.
    pub fn fake_quantize_tensor(&self, t: &Tensor) -> Tensor {
        let mut out = t.clone();
        self.fake_quantize_slice(out.data_mut());
        out
    }

    /// Fake-quantizes a tensor in place.
    pub fn fake_quantize_tensor_inplace(&self, t: &mut Tensor) {
        self.fake_quantize_slice(t.data_mut());
    }

    /// Quantizer for the given data: range calibrated to its min/max.
    ///
    /// # Errors
    ///
    /// Returns [`crate::QuantError`] if `data` is empty or non-finite.
    pub fn fit(bits: BitWidth, data: &[f32]) -> Result<Self, crate::QuantError> {
        Ok(Self::new(bits, QuantRange::from_data(data)?))
    }
}

/// Bulk fast path for [`Quantizer::quantize`]: the clamp bounds and the
/// `max_code / width` scale factor are computed once at construction, so
/// per-element encoding is a subtract, a multiply and a round. Produced
/// by [`Quantizer::encoder`]; guaranteed bit-identical to `quantize`.
#[derive(Debug, Clone, Copy)]
pub struct Encoder {
    /// `None` for a degenerate range, which maps everything to code 0.
    params: Option<CodeParams>,
}

impl Encoder {
    /// Maps a real value to its integer code, exactly like
    /// [`Quantizer::quantize`].
    ///
    /// Inputs are clamped into the range first (NaN takes code 0); a
    /// degenerate range maps everything to code 0.
    #[inline]
    pub fn encode(&self, x: f32) -> u64 {
        self.params.map_or(0, |p| p.code(x))
    }

    /// Encodes a slice: `out[i] = encode(values[i]) as u16`.
    ///
    /// Where the CPU has AVX2 and the codes fit 16 bits, the values run
    /// in vector lanes that take the scalar path's operations in the
    /// same order (see `crate::simd`), so the codes are the same bits
    /// as [`Encoder::encode`]'s, ties, NaN and signed zeros included.
    ///
    /// # Panics
    ///
    /// Panics if `values` and `out` differ in length.
    pub fn encode_into(&self, values: &[f32], out: &mut [u16]) {
        assert_eq!(values.len(), out.len(), "one code per value");
        match &self.params {
            Some(p) => crate::simd::encode_chunk(values, out, p),
            None => out.fill(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(bits: u32, min: f32, max: f32) -> Quantizer {
        Quantizer::new(
            BitWidth::new(bits).unwrap(),
            QuantRange::new(min, max).unwrap(),
        )
    }

    #[test]
    fn one_bit_is_binary() {
        let quant = q(1, 0.0, 1.0);
        assert_eq!(quant.quantize(0.2), 0);
        assert_eq!(quant.quantize(0.8), 1);
        assert_eq!(quant.fake_quantize(0.8), 1.0);
    }

    #[test]
    fn encoder_is_bit_identical_to_quantize() {
        // fractional ranges with inexact widths, plus degenerate + wide bits
        let cases = [
            q(1, 0.0, 1.0),
            q(3, -0.7, 1.3),
            q(8, -1e-3, 2.5e-3),
            q(16, -123.456, 78.9),
            q(32, -1.0, 1.0),
            Quantizer::new(BitWidth::new(4).unwrap(), QuantRange::default()),
        ];
        for quant in cases {
            let enc = quant.encoder();
            for i in -4000..=4000 {
                let x = i as f32 * 0.037;
                assert_eq!(enc.encode(x), quant.quantize(x), "{quant:?} at {x}");
            }
            for x in [f32::NEG_INFINITY, f32::INFINITY, 0.0, -0.0] {
                assert_eq!(enc.encode(x), quant.quantize(x), "{quant:?} at {x}");
            }
        }
    }

    #[test]
    fn encode_into_matches_encode_including_a_degenerate_range() {
        let cases = [
            q(4, -0.7, 1.3),
            q(8, 0.0, 6.0),
            q(16, -123.456, 78.9),
            // codes past 16 bits take the portable body and keep the
            // low 16 bits, as `encode(v) as u16` does
            q(20, -1.0, 1.0),
            q(8, 5.0, 5.0),
            Quantizer::new(BitWidth::new(4).unwrap(), QuantRange::default()),
        ];
        let mut values: Vec<f32> = (-400..=400).map(|i| i as f32 * 0.0371).collect();
        values.extend([f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 0.0, -0.0, 5.0]);
        for quant in cases {
            let enc = quant.encoder();
            let mut codes = vec![7u16; values.len()];
            enc.encode_into(&values, &mut codes);
            let want: Vec<u16> = values.iter().map(|&v| enc.encode(v) as u16).collect();
            assert_eq!(codes, want, "{quant:?}");
        }
    }

    #[test]
    fn dequantize_slice_is_bit_identical_to_dequantize() {
        for bits in [2u32, 4, 8, 16] {
            let codes: Vec<u16> = (0..=u16::MAX).collect();
            // every code of the width, and the saturated ones above it
            for (min, max) in [(-1.7f32, 2.3f32), (0.0, 6.5), (-3.0, -3.0)] {
                let quantizer = q(bits, min, max);
                let mut out = vec![0.0f32; codes.len()];
                quantizer.dequantize_slice(&codes, &mut out);
                for (&code, value) in codes.iter().zip(&out) {
                    assert_eq!(
                        value.to_bits(),
                        quantizer.dequantize(u64::from(code)).to_bits(),
                        "code {code} at {bits} bits over [{min}, {max}]"
                    );
                }
            }
        }
    }

    #[test]
    fn codes_are_bounded() {
        let quant = q(3, -1.0, 1.0);
        for i in -20..=20 {
            let code = quant.quantize(i as f32 * 0.1);
            assert!(code <= quant.bits().max_code());
        }
    }

    #[test]
    fn out_of_range_clamps() {
        let quant = q(4, 0.0, 1.0);
        assert_eq!(quant.quantize(-100.0), 0);
        assert_eq!(quant.quantize(100.0), 15);
    }

    #[test]
    fn endpoints_are_fixed_points() {
        let quant = q(5, -3.0, 7.0);
        assert_eq!(quant.fake_quantize(-3.0), -3.0);
        assert_eq!(quant.fake_quantize(7.0), 7.0);
    }

    #[test]
    fn error_bounded_by_half_step() {
        let quant = q(4, -2.0, 2.0);
        let half = quant.step() / 2.0;
        for i in -20..=20 {
            let x = i as f32 * 0.1;
            let err = (quant.fake_quantize(x) - x).abs();
            assert!(err <= half + 1e-6, "x={x} err={err} half={half}");
        }
    }

    #[test]
    fn fake_quantize_is_idempotent() {
        let quant = q(3, -1.0, 1.0);
        for i in -10..=10 {
            let once = quant.fake_quantize(i as f32 * 0.1);
            assert_eq!(quant.fake_quantize(once), once);
        }
    }

    #[test]
    fn degenerate_range_maps_to_min() {
        let quant = q(8, 5.0, 5.0);
        assert_eq!(quant.quantize(123.0), 0);
        assert_eq!(quant.fake_quantize(123.0), 5.0);
        assert_eq!(quant.step(), 0.0);
    }

    #[test]
    fn dequantize_saturates_codes() {
        let quant = q(2, 0.0, 3.0);
        assert_eq!(quant.dequantize(99), 3.0);
    }

    #[test]
    fn distinct_levels_at_most_2k() {
        let quant = q(3, 0.0, 1.0);
        let mut levels: Vec<_> = (0..1000)
            .map(|i| quant.fake_quantize(i as f32 / 999.0).to_bits())
            .collect();
        levels.sort_unstable();
        levels.dedup();
        assert!(levels.len() <= 8, "got {} levels", levels.len());
    }

    #[test]
    fn fit_calibrates_to_data() {
        let data = [0.5, -1.5, 2.5];
        let quant = Quantizer::fit(BitWidth::new(8).unwrap(), &data).unwrap();
        assert_eq!(quant.range().min(), -1.5);
        assert_eq!(quant.range().max(), 2.5);
    }

    #[test]
    fn fit_empty_is_error() {
        assert!(Quantizer::fit(BitWidth::ONE, &[]).is_err());
    }

    #[test]
    fn tensor_roundtrip_shape_preserved() {
        let t = Tensor::from_slice(&[0.1, 0.9, 0.5]);
        let quant = q(2, 0.0, 1.0);
        let out = quant.fake_quantize_tensor(&t);
        assert_eq!(out.dims(), t.dims());
    }

    #[test]
    fn inplace_matches_pure() {
        let t = Tensor::from_slice(&[0.13, 0.77, -0.4]);
        let quant = q(3, -1.0, 1.0);
        let pure = quant.fake_quantize_tensor(&t);
        let mut inplace = t;
        quant.fake_quantize_tensor_inplace(&mut inplace);
        assert_eq!(pure, inplace);
    }

    #[test]
    fn sixteen_bit_nearly_lossless_on_unit_range() {
        let quant = q(16, 0.0, 1.0);
        for i in 0..100 {
            let x = i as f32 / 99.0;
            assert!((quant.fake_quantize(x) - x).abs() < 1e-4);
        }
    }

    #[test]
    fn high_bitwidth_codes_match_f64_reference() {
        // f32 code arithmetic drifts by whole codes above ~24 bits; with the
        // unit range, scaled = x * max_code exactly, so the reference is
        // computable in the test
        for bits in [24u32, 28, 32] {
            let quant = q(bits, 0.0, 1.0);
            let max_code = quant.bits().max_code();
            for i in 1..10 {
                let x = i as f32 / 10.0;
                let expected = (f64::from(x) * max_code as f64).round() as u64;
                assert_eq!(
                    quant.quantize(x),
                    expected.min(max_code),
                    "bits={bits} x={x}"
                );
            }
        }
    }

    #[test]
    fn thirty_two_bit_lossless_within_f32_rounding() {
        let quant = q(32, 0.0, 1.0);
        for i in 0..100 {
            let x = i as f32 / 99.0;
            let err = (quant.fake_quantize(x) - x).abs();
            assert!(err <= 2.0 * f32::EPSILON, "x={x} err={err}");
        }
    }

    #[test]
    fn slice_path_is_bit_identical_to_scalar_path() {
        // the fused loop hoists constants but must keep the exact scalar
        // arithmetic — verify bit-for-bit across bit widths and ranges
        let mut inputs: Vec<f32> = Vec::new();
        let mut state = 0x9e3779b97f4a7c15u64;
        for _ in 0..200 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            inputs.push(((state >> 33) as f32 / u32::MAX as f32) * 6.0 - 3.0);
        }
        inputs.extend([
            0.0,
            -0.0,
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            f32::MAX,
            f32::MIN,
        ]);
        for bits in 1..=32 {
            for (lo, hi) in [(-1.0f32, 1.0f32), (0.0, 2.5), (-0.3, 0.7), (5.0, 5.0)] {
                let quant = q(bits, lo, hi);
                let expected: Vec<u32> = inputs
                    .iter()
                    .map(|&x| quant.fake_quantize(x).to_bits())
                    .collect();
                let mut fused = inputs.clone();
                quant.fake_quantize_slice(&mut fused);
                let got: Vec<u32> = fused.iter().map(|v| v.to_bits()).collect();
                assert_eq!(got, expected, "bits={bits} range=[{lo},{hi}]");
            }
        }
    }

    #[test]
    fn parallel_slice_path_is_bit_identical_to_scalar_path() {
        // above the elementwise dispatch threshold the fused loop fans
        // chunks out to workers; per-element arithmetic is unchanged, so
        // the result must still match the scalar path bit-for-bit
        let n = (1 << 17) + 31;
        let mut state = 0x243f6a8885a308d3u64;
        let inputs: Vec<f32> = (0..n)
            .map(|i| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                match i % 1021 {
                    0 => f32::NAN,
                    1 => f32::INFINITY,
                    2 => f32::NEG_INFINITY,
                    _ => ((state >> 33) as f32 / u32::MAX as f32) * 8.0 - 4.0,
                }
            })
            .collect();
        let quant = q(4, -3.0, 3.0);
        let expected: Vec<u32> = inputs
            .iter()
            .map(|&x| quant.fake_quantize(x).to_bits())
            .collect();
        let mut fused = inputs;
        quant.fake_quantize_slice(&mut fused);
        let got: Vec<u32> = fused.iter().map(|v| v.to_bits()).collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn slice_path_handles_empty_slice() {
        let quant = q(4, 0.0, 1.0);
        let mut empty: [f32; 0] = [];
        quant.fake_quantize_slice(&mut empty);
    }

    #[test]
    fn code_roundtrip_exact_up_to_20_bits() {
        for bits in 1..=20 {
            let quant = q(bits, -1.0, 1.0);
            let max_code = quant.bits().max_code();
            for code in [0, 1, max_code / 3, max_code / 2, max_code - 1, max_code] {
                let code = code.min(max_code);
                assert_eq!(
                    quant.quantize(quant.dequantize(code)),
                    code,
                    "bits={bits} code={code}"
                );
            }
        }
    }
}
