//! Explicitly vectorized quantization, gated on runtime CPU feature
//! detection.
//!
//! [`Quantizer::fake_quantize_slice`](crate::Quantizer::fake_quantize_slice)
//! and [`Encoder::encode_into`](crate::Encoder::encode_into) promise
//! results bit-identical to the per-element scalar path, so the vector
//! bodies reproduce the scalar arithmetic operation-for-operation in
//! 4 × `f64` lanes. Both share one vector implementation of the steps
//! from a value to its code, [`CodeLanes::code`]:
//!
//! * **clamp** — `max` then `min` against the range bounds. `maxpd`
//!   returns its second operand when the first is NaN, so a NaN lane
//!   becomes the range minimum — the same final output as the scalar
//!   path's NaN → saturating-cast-to-0 → code 0 route.
//! * **scale** — a subtract then a separate multiply, never an FMA: the
//!   scalar expression `(x - min) * inv_step` is two roundings and the
//!   lanes must round in the same places.
//! * **round half away from zero** — `f64::round` is not the `roundpd`
//!   nearest-even mode, so the lanes compute `trunc(s)` plus one when
//!   `s - trunc(s) >= 0.5`; the fraction subtraction is exact, making
//!   the tie comparison exact too (values here are non-negative).
//! * **saturate** — `min` against `max_code` as `f64`; bit-widths are
//!   capped at 32, so every code is exactly representable.
//!
//! Fake quantization then **reconstructs** — multiply then separate add
//! (again no FMA), then one rounding down to `f32` — and encoding
//! converts the integral lanes to `u16` codes.
//!
//! The unit tests drive both bodies over NaN, infinities, signed zero,
//! subnormals, exact ties and random streams at every tail length and
//! compare outputs bit-for-bit.

/// The constants that map a value to its code, hoisted once per slice
/// (see `Quantizer::encoder`).
#[derive(Debug, Clone, Copy)]
pub(crate) struct CodeParams {
    /// Range minimum, the clamp floor.
    pub lo: f32,
    /// Range maximum, the clamp ceiling.
    pub hi: f32,
    /// `f64::from(lo)`, the code-space origin.
    pub min64: f64,
    /// `max_code / width`: scale from the clamped value to code space.
    pub inv_step: f64,
    /// Largest valid integer code (`2^bits - 1`).
    pub max_code: u64,
}

impl CodeParams {
    /// The scalar reference: eqn 1 for one value — clamp, scale, round
    /// half away from zero, saturate.
    #[inline]
    pub(crate) fn code(&self, x: f32) -> u64 {
        let x = x.clamp(self.lo, self.hi);
        let scaled = (f64::from(x) - self.min64) * self.inv_step;
        (scaled.round() as u64).min(self.max_code)
    }
}

/// The loop constants [`fake_quantize_chunk`] needs, hoisted once per
/// slice by the caller (see `Quantizer::fake_quantize_slice`).
#[derive(Debug, Clone, Copy)]
pub(crate) struct FakeQuantParams {
    /// Value to code.
    pub code: CodeParams,
    /// `width / max_code`: scale from code space back to values.
    pub step: f64,
}

/// Fake-quantizes one chunk in place via the widest available vector
/// path, bit-identical to [`fake_quantize_scalar`].
pub(crate) fn fake_quantize_chunk(chunk: &mut [f32], p: &FakeQuantParams) {
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        debug_assert!(p.code.max_code < 1 << 52, "codes must be exact in f64");
        // SAFETY: the AVX2 feature was detected at runtime.
        unsafe { fake_quantize_avx2(chunk, p) };
        return;
    }
    fake_quantize_scalar(chunk, p);
}

/// The scalar reference loop — the exact arithmetic of
/// `Quantizer::fake_quantize` per element, with the constants hoisted.
pub(crate) fn fake_quantize_scalar(chunk: &mut [f32], p: &FakeQuantParams) {
    for v in chunk {
        let code = p.code.code(*v);
        *v = (p.code.min64 + code as f64 * p.step) as f32;
    }
}

/// Encodes `values` into `out` (equal lengths) via the widest available
/// vector path, bit-identical to [`encode_scalar`].
pub(crate) fn encode_chunk(values: &[f32], out: &mut [u16], p: &CodeParams) {
    assert_eq!(values.len(), out.len(), "one code per value");
    #[cfg(target_arch = "x86_64")]
    if avx2_available() && p.max_code <= u64::from(u16::MAX) {
        // SAFETY: the AVX2 feature was detected at runtime, and the
        // lengths agree.
        unsafe { encode_avx2(values, out, p) };
        return;
    }
    encode_scalar(values, out, p);
}

/// The scalar reference loop: [`CodeParams::code`] per value, kept in
/// the low 16 bits.
pub(crate) fn encode_scalar(values: &[f32], out: &mut [u16], p: &CodeParams) {
    for (code, &v) in out.iter_mut().zip(values) {
        *code = p.code(v) as u16;
    }
}

/// Runtime AVX2 detection, resolved once per process.
#[cfg(target_arch = "x86_64")]
fn avx2_available() -> bool {
    static AVX2: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *AVX2.get_or_init(|| is_x86_feature_detected!("avx2"))
}

/// [`CodeParams`] broadcast to 4 × `f64` lanes.
#[cfg(target_arch = "x86_64")]
struct CodeLanes {
    lo: std::arch::x86_64::__m256d,
    hi: std::arch::x86_64::__m256d,
    min64: std::arch::x86_64::__m256d,
    inv_step: std::arch::x86_64::__m256d,
    max_code: std::arch::x86_64::__m256d,
}

#[cfg(target_arch = "x86_64")]
impl CodeLanes {
    /// # Safety
    ///
    /// The caller must ensure the CPU supports AVX2.
    #[target_feature(enable = "avx2")]
    unsafe fn new(p: &CodeParams) -> Self {
        use std::arch::x86_64::_mm256_set1_pd;
        Self {
            lo: _mm256_set1_pd(f64::from(p.lo)),
            hi: _mm256_set1_pd(f64::from(p.hi)),
            min64: _mm256_set1_pd(p.min64),
            inv_step: _mm256_set1_pd(p.inv_step),
            max_code: _mm256_set1_pd(p.max_code as f64),
        }
    }

    /// The codes of 4 values widened to `f64`, as integral `f64` lanes:
    /// [`CodeParams::code`] operation for operation (see the module
    /// docs).
    ///
    /// # Safety
    ///
    /// The caller must ensure the CPU supports AVX2.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn code(&self, x: std::arch::x86_64::__m256d) -> std::arch::x86_64::__m256d {
        use std::arch::x86_64::{
            _mm256_add_pd, _mm256_and_pd, _mm256_cmp_pd, _mm256_max_pd, _mm256_min_pd,
            _mm256_mul_pd, _mm256_round_pd, _mm256_set1_pd, _mm256_sub_pd, _CMP_GE_OQ,
            _MM_FROUND_NO_EXC, _MM_FROUND_TO_ZERO,
        };
        // max(x, lo) yields lo for NaN lanes (maxpd returns the second
        // operand on unordered), min then clamps the top — widening
        // before the clamp is exact and monotone, so this equals the
        // scalar f32 clamp.
        let x = _mm256_min_pd(_mm256_max_pd(x, self.lo), self.hi);
        let scaled = _mm256_mul_pd(_mm256_sub_pd(x, self.min64), self.inv_step);
        // round half away from zero (all lanes are >= +0.0 here)
        let trunc = _mm256_round_pd::<{ _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC }>(scaled);
        let frac = _mm256_sub_pd(scaled, trunc);
        let bump = _mm256_and_pd(
            _mm256_cmp_pd::<_CMP_GE_OQ>(frac, _mm256_set1_pd(0.5)),
            _mm256_set1_pd(1.0),
        );
        _mm256_min_pd(_mm256_add_pd(trunc, bump), self.max_code)
    }
}

/// AVX2 fake-quantize: 4 values per iteration, widened to `f64` lanes
/// (the scalar path computes in `f64`), scalar tail.
///
/// # Safety
///
/// The caller must ensure the CPU supports AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn fake_quantize_avx2(chunk: &mut [f32], p: &FakeQuantParams) {
    use std::arch::x86_64::{
        _mm256_add_pd, _mm256_cvtpd_ps, _mm256_cvtps_pd, _mm256_mul_pd, _mm256_set1_pd,
        _mm_loadu_ps, _mm_storeu_ps,
    };
    let lanes = CodeLanes::new(&p.code);
    let step = _mm256_set1_pd(p.step);

    let mut iter = chunk.chunks_exact_mut(4);
    for quad in &mut iter {
        let x = _mm256_cvtps_pd(_mm_loadu_ps(quad.as_ptr()));
        let code = lanes.code(x);
        let out = _mm256_add_pd(lanes.min64, _mm256_mul_pd(code, step));
        _mm_storeu_ps(quad.as_mut_ptr(), _mm256_cvtpd_ps(out));
    }
    fake_quantize_scalar(iter.into_remainder(), p);
}

/// AVX2 encode: 8 values per iteration, as two quads of `f64` lanes
/// whose integral codes truncate exactly to `i32` and pack to `u16`
/// (codes are at most `u16::MAX`, so the saturating pack never
/// saturates), scalar tail.
///
/// # Safety
///
/// The caller must ensure the CPU supports AVX2, that
/// `values.len() == out.len()` and that `p.max_code <= u16::MAX`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn encode_avx2(values: &[f32], out: &mut [u16], p: &CodeParams) {
    use std::arch::x86_64::{
        _mm256_cvtps_pd, _mm256_cvttpd_epi32, _mm_loadu_ps, _mm_packus_epi32, _mm_storeu_si128,
    };
    let lanes = CodeLanes::new(p);
    let mut src = values.chunks_exact(8);
    let mut dst = out.chunks_exact_mut(8);
    for (eight, codes) in (&mut src).zip(&mut dst) {
        let low = _mm256_cvtps_pd(_mm_loadu_ps(eight.as_ptr()));
        let high = _mm256_cvtps_pd(_mm_loadu_ps(eight.as_ptr().add(4)));
        let packed = _mm_packus_epi32(
            _mm256_cvttpd_epi32(lanes.code(low)),
            _mm256_cvttpd_epi32(lanes.code(high)),
        );
        _mm_storeu_si128(codes.as_mut_ptr().cast(), packed);
    }
    encode_scalar(src.remainder(), dst.into_remainder(), p);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Params for a handful of representative quantizers, derived the
    /// same way `fake_quantize_slice` derives them.
    fn param_sets() -> Vec<FakeQuantParams> {
        [
            (-1.0f32, 1.0f32, 8u32),
            (-6.3, 6.7, 4),
            (0.0, 1.0, 1),
            (-0.0, 1000.0, 16),
            (-3.0e-4, 2.9e-4, 32),
        ]
        .into_iter()
        .map(|(lo, hi, bits)| {
            let max_code = (1u64 << bits) - 1;
            let width = f64::from(hi) - f64::from(lo);
            FakeQuantParams {
                code: CodeParams {
                    lo,
                    hi,
                    min64: f64::from(lo),
                    inv_step: max_code as f64 / width,
                    max_code,
                },
                step: width / max_code as f64,
            }
        })
        .collect()
    }

    /// Deterministic LCG stream with the special values salted in.
    fn awkward_data(len: usize, seed: u64) -> Vec<f32> {
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        (0..len)
            .map(|i| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                match i % 13 {
                    0 => 0.0,
                    1 => -0.0,
                    2 => f32::NAN,
                    3 => f32::INFINITY,
                    4 => f32::NEG_INFINITY,
                    5 => f32::MIN_POSITIVE / 2.0, // subnormal
                    6 => 0.5,                     // a likely exact tie
                    _ => ((state >> 33) as f32 / u32::MAX as f32) * 20.0 - 10.0,
                }
            })
            .collect()
    }

    #[test]
    fn vector_path_is_bit_identical_to_scalar() {
        for p in param_sets() {
            // every tail length around the 4-lane width
            for len in 0..24 {
                for seed in [3, 17, 91] {
                    let data = awkward_data(len, seed);
                    let mut fast = data.clone();
                    let mut slow = data;
                    fake_quantize_chunk(&mut fast, &p);
                    fake_quantize_scalar(&mut slow, &p);
                    let fast_bits: Vec<u32> = fast.iter().map(|v| v.to_bits()).collect();
                    let slow_bits: Vec<u32> = slow.iter().map(|v| v.to_bits()).collect();
                    assert_eq!(fast_bits, slow_bits, "len {len} seed {seed} params {p:?}");
                }
            }
        }
    }

    #[test]
    fn long_streams_are_bit_identical() {
        for p in param_sets() {
            let data = awkward_data(10_007, 5);
            let mut fast = data.clone();
            let mut slow = data;
            fake_quantize_chunk(&mut fast, &p);
            fake_quantize_scalar(&mut slow, &p);
            assert!(
                fast.iter()
                    .zip(&slow)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "params {p:?}"
            );
        }
    }

    #[test]
    fn ties_round_away_from_zero_like_the_scalar_path() {
        // lo = 0, hi = max_code puts every half-integer input exactly on
        // a tie: x.5 must round up (away from zero), not to even
        let max_code = 255u64;
        let p = FakeQuantParams {
            code: CodeParams {
                lo: 0.0,
                hi: 255.0,
                min64: 0.0,
                inv_step: 1.0,
                max_code,
            },
            step: 1.0,
        };
        let mut data: Vec<f32> = (0..16).map(|i| i as f32 + 0.5).collect();
        let expected: Vec<f32> = (0..16).map(|i| (i + 1) as f32).collect();
        fake_quantize_chunk(&mut data, &p);
        assert_eq!(data, expected);
    }

    /// Encoders at the container widths the integer engine uses (max
    /// codes 15, 255, 65535), over inexact and zero-touching ranges.
    fn code_sets() -> Vec<CodeParams> {
        [
            (-1.0f32, 1.0f32, 4u32),
            (-6.3, 6.7, 8),
            (0.0, 1.0, 16),
            (-0.0, 1000.0, 8),
            (-3.0e-4, 2.9e-4, 16),
            (0.0, 15.0, 4),
        ]
        .into_iter()
        .map(|(lo, hi, bits)| {
            let max_code = (1u64 << bits) - 1;
            CodeParams {
                lo,
                hi,
                min64: f64::from(lo),
                inv_step: max_code as f64 / (f64::from(hi) - f64::from(lo)),
                max_code,
            }
        })
        .collect()
    }

    /// Runs both encode bodies and compares them with the per-value
    /// [`CodeParams::code`].
    fn assert_encodes_agree(values: &[f32], p: &CodeParams, case: &str) {
        let want: Vec<u16> = values.iter().map(|&v| p.code(v) as u16).collect();
        let mut fast = vec![0xABCD; values.len()];
        let mut slow = vec![0xABCD; values.len()];
        encode_chunk(values, &mut fast, p);
        encode_scalar(values, &mut slow, p);
        assert_eq!(slow, want, "portable body, {case} {p:?}");
        assert_eq!(fast, want, "dispatched body, {case} {p:?}");
    }

    #[test]
    fn encode_bodies_match_the_scalar_code_at_every_tail_length() {
        for p in code_sets() {
            for len in 0..40 {
                for seed in [3, 17, 91] {
                    let data = awkward_data(len, seed);
                    assert_encodes_agree(&data, &p, &format!("len {len} seed {seed}"));
                }
            }
            assert_encodes_agree(&awkward_data(10_007, 5), &p, "long stream");
        }
    }

    #[test]
    fn encode_ties_ends_and_signed_zeros_match_the_scalar_code() {
        for p in code_sets() {
            let (lo, hi) = (f64::from(p.lo), f64::from(p.hi));
            let step = (hi - lo) / p.max_code as f64;
            let mut values = vec![
                p.lo,
                p.hi,
                -p.lo,
                -p.hi,
                f32::MAX,
                f32::MIN,
                0.0,
                -0.0,
                f32::MIN_POSITIVE / 2.0,
                -f32::MIN_POSITIVE / 2.0,
                f32::NAN,
                f32::INFINITY,
                f32::NEG_INFINITY,
            ];
            // x.5 in code space, and its f32 neighbours, across the range
            for c in (0..p.max_code).step_by((p.max_code as usize / 37).max(1)) {
                let tie = (lo + (c as f64 + 0.5) * step) as f32;
                values.extend([tie, tie.next_down(), tie.next_up()]);
            }
            values.extend([p.lo.next_down(), p.hi.next_up()]);
            assert_encodes_agree(&values, &p, "edges");
        }
        // lo = 0, hi = max_code puts every x.5 exactly on a tie, which
        // rounds away from zero
        for max_code in [15u64, 255, 65535] {
            let p = CodeParams {
                lo: 0.0,
                hi: max_code as f32,
                min64: 0.0,
                inv_step: 1.0,
                max_code,
            };
            let values: Vec<f32> = (0..max_code.min(300)).map(|i| i as f32 + 0.5).collect();
            let mut codes = vec![0; values.len()];
            encode_chunk(&values, &mut codes, &p);
            assert!(codes.iter().zip(1..).all(|(&c, i)| u64::from(c) == i));
            assert_encodes_agree(&values, &p, "exact ties");
        }
    }
}
