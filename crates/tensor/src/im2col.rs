use std::sync::{Arc, OnceLock};

use adq_telemetry::alloc;
use adq_telemetry::span::{self, SpanGuard};
use adq_telemetry::{Histogram, ScopedTimer};
use serde::{Deserialize, Serialize};

use crate::scratch;
use crate::shape::ShapeError;
use crate::tensor::Tensor;

/// Times one lowering call into the process-wide `tensor.im2col`
/// histogram. Only lowering that runs outside a product is timed here —
/// [`crate::pad_input`], [`im2col`] and [`col2im`] — so no interval is
/// recorded both here and under `tensor.matmul`: the implicit GEMM's
/// strip gathers, the fused input gradient's scatter and the naive
/// plan's column matrix are part of their product's time.
pub(crate) fn im2col_timer() -> ScopedTimer {
    static HIST: OnceLock<Arc<Histogram>> = OnceLock::new();
    ScopedTimer::new(
        HIST.get_or_init(|| adq_telemetry::metrics::global().histogram("tensor.im2col")),
    )
}

/// Verbose-only (level 2) tracing span for one lowering call — the per-batch
/// call rate is far too high for level-1 traces.
fn im2col_span(name: &'static str, rows: usize, cols: usize) -> SpanGuard {
    if span::verbose() {
        span::span_with(name, vec![("rows", rows.into()), ("cols", cols.into())])
    } else {
        SpanGuard::disabled()
    }
}

/// Reports one lowering call's memory traffic: the `rows·cols` column
/// matrix is written (or read, for `col2im`) once and the corresponding
/// input pixels are read (or accumulated) once — `2·rows·cols` `f32`
/// elements of traffic. Lowering performs no arithmetic, so it moves
/// bytes without flops: exactly the memory-bound corner of the roofline.
#[inline]
pub(crate) fn count_lowering_resources(rows: usize, cols: usize) {
    if !alloc::tracking() {
        return;
    }
    alloc::add_bytes_moved(8 * (rows as u64) * (cols as u64));
}

/// Geometry of a 2-D convolution: square kernel, symmetric stride/padding.
///
/// This is the shape vocabulary shared by the convolution layer in `adq-nn`
/// and the energy models in `adq-energy`/`adq-pim` (the paper's
/// `N_mem`/`N_MAC` formulas are functions of exactly these quantities).
///
/// # Example
///
/// ```
/// use adq_tensor::Conv2dGeom;
///
/// let geom = Conv2dGeom::new(3, 64, 3, 1, 1);
/// assert_eq!(geom.output_size(32), 32); // "same" padding at stride 1
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Conv2dGeom {
    /// Input channels `I`.
    pub in_channels: usize,
    /// Output channels `O`.
    pub out_channels: usize,
    /// Kernel side `p` (kernels are `p × p`).
    pub kernel: usize,
    /// Stride in both spatial dimensions.
    pub stride: usize,
    /// Zero padding on each border.
    pub padding: usize,
}

impl Conv2dGeom {
    /// Creates a convolution geometry.
    ///
    /// # Panics
    ///
    /// Panics if `kernel` or `stride` is zero.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
    ) -> Self {
        assert!(kernel > 0, "kernel must be positive");
        assert!(stride > 0, "stride must be positive");
        Self {
            in_channels,
            out_channels,
            kernel,
            stride,
            padding,
        }
    }

    /// Output spatial side for an input spatial side.
    ///
    /// # Panics
    ///
    /// Panics if the kernel does not fit in the padded input.
    pub fn output_size(&self, input_size: usize) -> usize {
        let padded = input_size + 2 * self.padding;
        assert!(
            padded >= self.kernel,
            "kernel {} larger than padded input {}",
            self.kernel,
            padded
        );
        (padded - self.kernel) / self.stride + 1
    }

    /// Number of weights: `O · I · p²`.
    pub fn weight_count(&self) -> usize {
        self.out_channels * self.in_channels * self.kernel * self.kernel
    }
}

/// The contiguous run of output columns `owi ∈ [lo, hi)` whose input tap
/// `iw = owi·stride + kw − padding` lands in `[0, extent)`, for one tap
/// offset `kw`. Everything outside the run is padding.
#[inline]
fn in_bounds_run(
    extent: usize,
    out_extent: usize,
    kw: usize,
    stride: usize,
    padding: usize,
) -> (usize, usize) {
    let lo = if padding > kw {
        (padding - kw).div_ceil(stride)
    } else {
        0
    };
    let hi = if extent + padding > kw {
        out_extent.min((extent - 1 + padding - kw) / stride + 1)
    } else {
        0
    };
    (lo, hi.max(lo))
}

/// Lowers an NCHW input into a `[C·p·p, N·OH·OW]` column matrix so that a
/// convolution becomes a single matrix multiply against a `[O, C·p·p]`
/// weight matrix.
///
/// Column `((n·OH + oh)·OW + ow)` holds the receptive field of output pixel
/// `(oh, ow)` of sample `n`; out-of-bounds taps (padding) are zero.
///
/// The column buffer comes zeroed from the calling thread's arena (give
/// it back with [`crate::recycle`]); per output row only the in-bounds
/// run of input pixels is copied (a single `copy_from_slice` at stride
/// 1), instead of testing every tap individually.
///
/// # Errors
///
/// Returns [`ShapeError`] if `input` is not rank-4 or its channel count does
/// not match `geom`.
pub fn im2col(input: &Tensor, geom: &Conv2dGeom) -> Result<Tensor, ShapeError> {
    if input.rank() != 4 || input.dims()[1] != geom.in_channels {
        return Err(ShapeError::new(format!(
            "im2col: expected [N, {}, H, W] input, got {:?}",
            geom.in_channels,
            input.dims()
        )));
    }
    let _timer = im2col_timer();
    Ok(lower(input, geom))
}

/// [`im2col`]'s lowering, untimed, of an `input` already checked against
/// `geom`.
pub(crate) fn lower(input: &Tensor, geom: &Conv2dGeom) -> Tensor {
    let (n, c, h, w) = (
        input.dims()[0],
        input.dims()[1],
        input.dims()[2],
        input.dims()[3],
    );
    let oh = geom.output_size(h);
    let ow = geom.output_size(w);
    let p = geom.kernel;
    let stride = geom.stride;
    let padding = geom.padding;
    let rows = c * p * p;
    let cols = n * oh * ow;
    let _span = im2col_span("tensor.im2col", rows, cols);
    count_lowering_resources(rows, cols);
    let mut out = scratch::take_zeroed(rows * cols);
    let data = input.data();
    for ci in 0..c {
        for kh in 0..p {
            let (oh_lo, oh_hi) = in_bounds_run(h, oh, kh, stride, padding);
            for kw in 0..p {
                let (ow_lo, ow_hi) = in_bounds_run(w, ow, kw, stride, padding);
                if oh_lo >= oh_hi || ow_lo >= ow_hi {
                    continue;
                }
                let row = (ci * p + kh) * p + kw;
                let out_row = &mut out[row * cols..(row + 1) * cols];
                let iw0 = ow_lo * stride + kw - padding;
                for ni in 0..n {
                    let in_base = (ni * c + ci) * h * w;
                    for ohi in oh_lo..oh_hi {
                        let ih = ohi * stride + kh - padding;
                        let in_row = in_base + ih * w;
                        let col_base = (ni * oh + ohi) * ow;
                        if stride == 1 {
                            let run = ow_hi - ow_lo;
                            out_row[col_base + ow_lo..col_base + ow_hi]
                                .copy_from_slice(&data[in_row + iw0..in_row + iw0 + run]);
                        } else {
                            for (step, owi) in (ow_lo..ow_hi).enumerate() {
                                out_row[col_base + owi] = data[in_row + iw0 + step * stride];
                            }
                        }
                    }
                }
            }
        }
    }
    Tensor::from_vec(out, &[rows, cols]).expect("sized to fit")
}

/// Scatters a `[C·p·p, N·OH·OW]` column-gradient matrix back onto an NCHW
/// input-gradient tensor — the adjoint of [`im2col`]. Uses the same
/// in-bounds-run iteration, skipping padding taps wholesale.
///
/// Every input element sums its contributions onto `0.0` in ascending
/// `(kh, kw)` order, one `(image, channel)` plane at a time
/// (`scatter_plane`); the fused input gradient
/// ([`crate::conv_input_grad`]) adds the same values in the same
/// order per plane, which is what makes the two bit-identical.
///
/// # Errors
///
/// Returns [`ShapeError`] if `cols` does not have the shape [`im2col`] would
/// produce for `input_dims` and `geom`.
pub fn col2im(
    cols: &Tensor,
    input_dims: &[usize],
    geom: &Conv2dGeom,
) -> Result<Tensor, ShapeError> {
    if input_dims.len() != 4 {
        return Err(ShapeError::new(format!(
            "col2im: expected rank-4 input dims, got {input_dims:?}"
        )));
    }
    let _timer = im2col_timer();
    let (n, c, h, w) = (input_dims[0], input_dims[1], input_dims[2], input_dims[3]);
    let spatial = geom.output_size(h) * geom.output_size(w);
    let taps = geom.kernel * geom.kernel;
    let rows = c * taps;
    let ncols = n * spatial;
    if cols.dims() != [rows, ncols] {
        return Err(ShapeError::mismatch("col2im", cols.dims(), &[rows, ncols]));
    }
    let _span = im2col_span("tensor.col2im", rows, ncols);
    count_lowering_resources(rows, ncols);
    let mut out = Tensor::zeros(input_dims);
    for (plane, dst) in out.data_mut().chunks_exact_mut(h * w).enumerate() {
        let (ni, ci) = (plane / c, plane % c);
        let src = &cols.data()[ci * taps * ncols + ni * spatial..];
        scatter_plane(src, ncols, dst, [h, w], geom);
    }
    Ok(out)
}

/// Adds one `(image, channel)` plane's column gradient onto `dst`, the
/// `h × w` input-gradient plane: tap `t = kh·p + kw` reads the `OH·OW`
/// values at `cols[t·ld..]` and adds each onto the input element it came
/// from, taps in ascending order, so every element of `dst` receives its
/// contributions in ascending `(kh, kw)` order.
pub(crate) fn scatter_plane(
    cols: &[f32],
    ld: usize,
    dst: &mut [f32],
    [h, w]: [usize; 2],
    geom: &Conv2dGeom,
) {
    let (oh, ow) = (geom.output_size(h), geom.output_size(w));
    let (p, stride, padding) = (geom.kernel, geom.stride, geom.padding);
    for kh in 0..p {
        let (oh_lo, oh_hi) = in_bounds_run(h, oh, kh, stride, padding);
        for kw in 0..p {
            let (ow_lo, ow_hi) = in_bounds_run(w, ow, kw, stride, padding);
            if oh_lo >= oh_hi || ow_lo >= ow_hi {
                continue;
            }
            let tap = &cols[(kh * p + kw) * ld..];
            let iw0 = ow_lo * stride + kw - padding;
            for ohi in oh_lo..oh_hi {
                let ih = ohi * stride + kh - padding;
                let src = &tap[ohi * ow + ow_lo..ohi * ow + ow_hi];
                let out_row = &mut dst[ih * w + iw0..];
                if stride == 1 {
                    out_row.iter_mut().zip(src).for_each(|(o, &v)| *o += v);
                } else {
                    let out = out_row.iter_mut().step_by(stride);
                    out.zip(src).for_each(|(o, &v)| *o += v);
                }
            }
        }
    }
}

/// Widest kernel [`scatter_plane_avx512`] keeps a lane-mask table for.
const MAX_WIDE_KERNEL: usize = 16;

/// [`scatter_plane`] onto a zeroed `dst` through the widest available
/// path: at stride 1 on AVX-512, [`scatter_plane_avx512`]; otherwise
/// `scatter_plane` itself. Both add the same values in the same order,
/// so they agree bit for bit. `dst` may hold anything where
/// [`scatter_overwrites`] holds; elsewhere it must start zeroed.
pub(crate) fn scatter_plane_wide(
    cols: &[f32],
    ld: usize,
    dst: &mut [f32],
    hw: [usize; 2],
    geom: &Conv2dGeom,
) {
    #[cfg(target_arch = "x86_64")]
    if scatter_overwrites(geom) {
        // SAFETY: AVX-512F was detected at runtime; the stride is 1 and
        // the kernel fits the mask table.
        unsafe { scatter_plane_avx512(cols, ld, dst, hw, geom) };
        return;
    }
    scatter_plane(cols, ld, dst, hw, geom);
}

/// Whether [`scatter_plane_wide`] takes the gathered body for `geom`,
/// which stores every element of the plane once instead of adding into
/// it — so its `dst` need not start zeroed.
pub(crate) fn scatter_overwrites(geom: &Conv2dGeom) -> bool {
    #[cfg(target_arch = "x86_64")]
    if geom.stride == 1 && geom.kernel <= MAX_WIDE_KERNEL && crate::gemm::avx512_available() {
        return true;
    }
    let _ = geom;
    false
}

/// [`scatter_plane`] onto a zeroed `dst` at stride 1, gathered instead
/// of scattered: each 16-wide chunk of an input row starts at `+0.0`,
/// adds the shifted tap rows of every `(kh, kw)` whose output row is in
/// range, ascending, and is stored once. The lane masks depend only on
/// the chunk and `kw`, so they are tabulated once per chunk column.
/// Lanes whose output column falls outside the plane load `+0.0`; a sum
/// that starts at `+0.0` is never `-0.0`, and adding `+0.0` to it
/// changes nothing, so the masked lanes leave exactly `scatter_plane`'s
/// result.
///
/// # Safety
///
/// The CPU must support AVX-512F and `geom.stride` must be 1.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn scatter_plane_avx512(
    cols: &[f32],
    ld: usize,
    dst: &mut [f32],
    [h, w]: [usize; 2],
    geom: &Conv2dGeom,
) {
    use crate::gemm::lane_mask;
    use std::arch::x86_64::{
        _mm512_add_ps, _mm512_mask_storeu_ps, _mm512_maskz_loadu_ps, _mm512_setzero_ps,
    };
    let (oh, ow) = (geom.output_size(h), geom.output_size(w));
    let (p, pad) = (geom.kernel, geom.padding);
    assert!(geom.stride == 1 && p <= MAX_WIDE_KERNEL && dst.len() >= h * w);
    assert!(cols.len() >= (p * p - 1) * ld + oh * ow);
    let mut masks = [0u16; MAX_WIDE_KERNEL];
    for c0 in (0..w).step_by(16) {
        // lane `l` is input column `c0 + l`; under tap column `kw` it
        // reads output column `c0 + l + pad − kw`, in range for lanes
        // `kw − pad − c0 ..` up to `ow + kw − pad − c0`
        for (kw, mask) in masks.iter_mut().enumerate().take(p) {
            let first = kw.saturating_sub(pad + c0).min(16);
            let end = (ow + kw).saturating_sub(pad + c0).min(w - c0).min(16);
            *mask = lane_mask(end) & !lane_mask(first);
        }
        let store = lane_mask(w - c0);
        for ih in 0..h {
            let mut acc = _mm512_setzero_ps();
            // taps whose output row `ih + pad − kh` lies in `0..oh`
            for kh in (ih + pad + 1).saturating_sub(oh)..p.min(ih + pad + 1) {
                let row = ih + pad - kh;
                for (kw, &mask) in masks.iter().enumerate().take(p) {
                    // only the masked lanes are read, all inside output
                    // row `row` of tap row `kh·p + kw`
                    let at = (kh * p + kw) * ld + row * ow + c0 + pad;
                    let src = cols.as_ptr().wrapping_add(at).wrapping_sub(kw);
                    acc = _mm512_add_ps(acc, _mm512_maskz_loadu_ps(mask, src));
                }
            }
            _mm512_mask_storeu_ps(dst.as_mut_ptr().add(ih * w + c0), store, acc);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_size_same_padding() {
        let g = Conv2dGeom::new(3, 8, 3, 1, 1);
        assert_eq!(g.output_size(32), 32);
    }

    #[test]
    fn output_size_stride_two() {
        let g = Conv2dGeom::new(3, 8, 3, 2, 1);
        assert_eq!(g.output_size(32), 16);
    }

    #[test]
    fn output_size_one_by_one() {
        let g = Conv2dGeom::new(64, 128, 1, 2, 0);
        assert_eq!(g.output_size(16), 8);
    }

    #[test]
    #[should_panic]
    fn kernel_larger_than_input_panics() {
        Conv2dGeom::new(1, 1, 5, 1, 0).output_size(3);
    }

    #[test]
    fn weight_count() {
        assert_eq!(Conv2dGeom::new(3, 64, 3, 1, 1).weight_count(), 3 * 64 * 9);
    }

    #[test]
    fn im2col_identity_kernel_is_flatten() {
        // 1x1 kernel, stride 1, no padding: columns are just pixels.
        let input = Tensor::from_vec((0..8).map(|x| x as f32).collect(), &[1, 2, 2, 2]).unwrap();
        let g = Conv2dGeom::new(2, 1, 1, 1, 0);
        let cols = im2col(&input, &g).unwrap();
        assert_eq!(cols.dims(), &[2, 4]);
        assert_eq!(cols.data(), input.data());
    }

    #[test]
    fn im2col_shape() {
        let input = Tensor::zeros(&[2, 3, 5, 5]);
        let g = Conv2dGeom::new(3, 4, 3, 1, 1);
        let cols = im2col(&input, &g).unwrap();
        assert_eq!(cols.dims(), &[3 * 9, 2 * 25]);
    }

    #[test]
    fn im2col_padding_is_zero() {
        let input = Tensor::ones(&[1, 1, 2, 2]);
        let g = Conv2dGeom::new(1, 1, 3, 1, 1);
        let cols = im2col(&input, &g).unwrap();
        // top-left output pixel: the (0,0) tap falls on padding
        assert_eq!(cols.at2(0, 0), 0.0);
        // centre tap of top-left pixel hits input(0,0)=1
        assert_eq!(cols.at2(4, 0), 1.0);
    }

    #[test]
    fn im2col_wrong_channels_is_error() {
        let input = Tensor::zeros(&[1, 2, 4, 4]);
        let g = Conv2dGeom::new(3, 4, 3, 1, 1);
        assert!(im2col(&input, &g).is_err());
    }

    /// Embeds an NCHW tensor into a zero canvas with `pad` extra pixels on
    /// every spatial border.
    fn embed_padded(input: &Tensor, pad: usize) -> Tensor {
        let (n, c, h, w) = (
            input.dims()[0],
            input.dims()[1],
            input.dims()[2],
            input.dims()[3],
        );
        let (ph, pw) = (h + 2 * pad, w + 2 * pad);
        let mut out = Tensor::zeros(&[n, c, ph, pw]);
        for ni in 0..n {
            for ci in 0..c {
                for hi in 0..h {
                    for wi in 0..w {
                        *out.at4_mut(ni, ci, hi + pad, wi + pad) = input.at4(ni, ci, hi, wi);
                    }
                }
            }
        }
        out
    }

    #[test]
    fn padded_equals_explicitly_embedded_unpadded() {
        // im2col with padding must equal im2col with padding pre-applied to
        // the input — across strides and asymmetric spatial sizes.
        let input =
            Tensor::from_vec((0..120).map(|v| (v as f32).cos()).collect(), &[2, 3, 4, 5]).unwrap();
        for (stride, pad) in [(1, 1), (1, 2), (2, 1), (3, 2)] {
            let padded_geom = Conv2dGeom::new(3, 4, 3, stride, pad);
            let unpadded_geom = Conv2dGeom::new(3, 4, 3, stride, 0);
            let direct = im2col(&input, &padded_geom).unwrap();
            let embedded = im2col(&embed_padded(&input, pad), &unpadded_geom).unwrap();
            assert_eq!(direct, embedded, "stride {stride}, padding {pad}");
        }
    }

    #[test]
    fn scratch_reuse_with_dirty_buffer_is_equal() {
        let input =
            Tensor::from_vec((0..64).map(|v| v as f32 * 0.5).collect(), &[1, 1, 8, 8]).unwrap();
        let g = Conv2dGeom::new(1, 1, 3, 1, 1);
        let first = im2col(&input, &g).unwrap();
        crate::recycle(Tensor::full(&[first.len() * 2], f32::NAN));
        let second = im2col(&input, &g).unwrap();
        assert_eq!(first, second);
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for the adjoint pair.
        let dims = [2, 3, 4, 4];
        let g = Conv2dGeom::new(3, 2, 3, 1, 1);
        let x = Tensor::from_vec((0..96).map(|v| (v as f32).sin()).collect(), &dims).unwrap();
        let cols = im2col(&x, &g).unwrap();
        let y = cols.map(|v| v * 0.5 + 0.1);
        let lhs: f32 = cols.mul(&y).unwrap().sum();
        let back = col2im(&y, &dims, &g).unwrap();
        let rhs: f32 = x.mul(&back).unwrap().sum();
        assert!((lhs - rhs).abs() < 1e-2, "{lhs} vs {rhs}");
    }

    #[test]
    fn col2im_adjoint_holds_with_stride_and_padding() {
        let dims = [1, 2, 5, 7];
        let g = Conv2dGeom::new(2, 2, 3, 2, 2);
        let x = Tensor::from_vec((0..70).map(|v| (v as f32).sin()).collect(), &dims).unwrap();
        let cols = im2col(&x, &g).unwrap();
        let y = cols.map(|v| v * -0.25 + 0.3);
        let lhs: f32 = cols.mul(&y).unwrap().sum();
        let back = col2im(&y, &dims, &g).unwrap();
        let rhs: f32 = x.mul(&back).unwrap().sum();
        assert!((lhs - rhs).abs() < 1e-2, "{lhs} vs {rhs}");
    }

    /// NaN, infinities, signed zeros and subnormals among ordinary values.
    fn awkward(len: usize, seed: u32) -> Vec<f32> {
        let mut state = seed.wrapping_mul(2_654_435_761).wrapping_add(1);
        (0..len)
            .map(|i| {
                state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                match i % 13 {
                    0 => -0.0,
                    1 => 0.0,
                    2 => f32::from_bits(0x7fc0_0000 | (state >> 12)),
                    3 if i % 3 == 0 => f32::NEG_INFINITY,
                    4 => f32::MIN_POSITIVE / 4.0,
                    _ => (state >> 8) as f32 / (1 << 24) as f32 - 0.5,
                }
            })
            .collect()
    }

    #[test]
    fn the_wide_scatter_matches_the_scalar_scatter_bitwise() {
        // kernels 1–5, paddings up to wider than the kernel reach, planes
        // of one to three 16-lane chunks with ragged ends
        for (p, pad) in [
            (1, 0),
            (1, 1),
            (2, 1),
            (3, 0),
            (3, 1),
            (3, 2),
            (5, 2),
            (5, 3),
        ] {
            for (h, w) in [(1, 1), (3, 5), (8, 8), (16, 16), (7, 17), (5, 33), (20, 3)] {
                if h + 2 * pad < p || w + 2 * pad < p {
                    continue;
                }
                let geom = Conv2dGeom::new(1, 1, p, 1, pad);
                // taps rows wider than one plane's outputs, as in a block
                let ld = geom.output_size(h) * geom.output_size(w) + 3;
                let cols = awkward(p * p * ld, (h * 64 + w) as u32);
                let mut want = vec![0.0; h * w];
                scatter_plane(&cols, ld, &mut want, [h, w], &geom);
                let mut got = vec![0.0; h * w];
                scatter_plane_wide(&cols, ld, &mut got, [h, w], &geom);
                // arithmetic leaves a NaN's payload unspecified: compare
                // every NaN as one value, everything else bit for bit
                let bits = |v: &[f32]| {
                    let canonical = |x: &f32| if x.is_nan() { u32::MAX } else { x.to_bits() };
                    v.iter().map(canonical).collect::<Vec<_>>()
                };
                assert_eq!(bits(&got), bits(&want), "p {p} pad {pad} {h}x{w}");
            }
        }
    }

    #[test]
    fn col2im_shape_mismatch_is_error() {
        let g = Conv2dGeom::new(1, 1, 3, 1, 1);
        let cols = Tensor::zeros(&[9, 10]);
        assert!(col2im(&cols, &[1, 1, 4, 4], &g).is_err());
    }
}
