//! Implicit-GEMM convolution: the two products of a convolution layer
//! that read the `im2col` column matrix, computed without materialising
//! it.
//!
//! [`pad_input`] copies an NCHW input once into a zero-bordered
//! `[N, C, H+2p, W+2p]` buffer and tabulates two offset lists: one per
//! tap `(c, kh, kw)` (an `im2col` row) and one per output pixel
//! `(n, oh, ow)` (an `im2col` column). Element `cols[tap][pixel]` is then
//! `padded[tap + pixel]`, always in bounds, so the packed GEMM kernel
//! gathers each `kc × NR` strip of `B` straight from the padded input
//! into an L1-sized buffer ([`crate::gemm`]). The forward product `W·cols`
//! gathers tap rows × pixel columns; the weight gradient `dY·colsᵀ` the
//! same offsets with their roles swapped.
//!
//! Dispatch is [`crate::matmul`]'s: the same plan for the same
//! `(variant, m, n, k)` as the explicit `matmul`/`matmul_a_bt` of the
//! column matrix, the same counters and spans. Shapes planned onto the
//! naive loops still lower with [`im2col`] and stream the explicit
//! matrix. Every element accumulates in the same ascending-k order from
//! the same values, so the results are bit-identical to
//! `im2col` + `matmul*` (the `conv_equality` proptest in `adq-nn`).
//!
//! The third product, the input gradient `Wᵀ·dY`, writes the column
//! matrix instead of reading it; [`conv_input_grad`] scatters it onto the
//! input planes block by block, so it is never stored either.
//!
//! Every buffer — the padded input, pack panels, gathered strips, the
//! outputs — comes from the running thread's arena ([`crate::scratch`]).

use std::sync::OnceLock;

use adq_telemetry::alloc;
use adq_telemetry::span::{self, SpanGuard};
use rayon::prelude::*;

use crate::gemm::{self, AStore, BOperand, Gather, MR, NR};
use crate::im2col::{
    count_lowering_resources, im2col_timer, lower, scatter_overwrites, scatter_plane_wide,
    Conv2dGeom,
};
use crate::matmul::{dispatch_matmul, matmul_timer, GemmOp};
use crate::scratch::{self, take_tensor, take_tensor_zeroed};
use crate::shape::ShapeError;
use crate::tensor::Tensor;

/// An NCHW input copied into a zero-bordered buffer, with the offset
/// tables that address its `im2col` column matrix (built by
/// [`pad_input`]).
///
/// A product planned onto the naive loops lowers the input explicitly
/// instead; the column matrix is then kept here, so a layer whose forward
/// product and weight gradient both take the naive plan lowers once, as
/// before.
#[derive(Debug, Clone)]
pub struct PaddedInput {
    /// `[N, C, H+2p, W+2p]`, zero outside the copied input.
    padded: Tensor,
    input_dims: [usize; 4],
    geom: Conv2dGeom,
    /// Offset of tap `(c, kh, kw)` from a window's origin, in `im2col`
    /// row order.
    taps: Vec<i32>,
    /// Offset of output pixel `(n, oh, ow)`'s window origin, in `im2col`
    /// column order.
    pixels: Vec<i32>,
    /// The explicit column matrix, once a naive-plan product needed it.
    cols: OnceLock<Tensor>,
}

impl PaddedInput {
    /// Dimensions of the unpadded input.
    pub fn input_dims(&self) -> &[usize] {
        &self.input_dims
    }

    /// Gives the padded buffer (and the column matrix, if one was
    /// lowered) back to the calling thread's arena.
    pub fn recycle(self) {
        crate::recycle(self.padded);
        if let Some(cols) = self.cols.into_inner() {
            crate::recycle(cols);
        }
    }

    /// The column matrix (or its transpose) as an implicit gather.
    pub(crate) fn gather(&self, which: ConvGemm) -> Gather<'_> {
        let src = self.padded.data();
        match which {
            ConvGemm::Forward => Gather::new(src, &self.taps, &self.pixels),
            ConvGemm::WeightGrad => Gather::new(src, &self.pixels, &self.taps),
        }
    }

    /// The explicit `[C·p², N·OH·OW]` column matrix, for the naive plan,
    /// lowered on first use and kept: `im2col` of the padded input
    /// without further padding, which equals `im2col` of the input with
    /// it. Part of the product, so timed with it under `tensor.matmul`
    /// rather than under `tensor.im2col`.
    pub(crate) fn cols(&self) -> &Tensor {
        self.cols.get_or_init(|| {
            let geom = Conv2dGeom {
                padding: 0,
                ..self.geom
            };
            lower(&self.padded, &geom)
        })
    }
}

/// Which im2col-shaped product of a convolution to compute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConvGemm {
    /// The forward pass `A · cols`, with `A` the `[O, C·p²]` weights.
    Forward,
    /// The weight gradient `A · colsᵀ`, with `A` the `[O, N·OH·OW]`
    /// output gradient.
    WeightGrad,
}

/// Copies `input` once into a zero-bordered buffer from the calling
/// thread's arena, ready for [`conv_gemm`]. Timed under the
/// `tensor.im2col` histogram; reports the bytes it reads and writes to
/// the lowering counter.
///
/// # Errors
///
/// Returns [`ShapeError`] if `input` is not rank-4, its channel count
/// does not match `geom`, or the padded buffer is too long for the
/// kernel's 32-bit gather offsets.
///
/// # Panics
///
/// Panics if the kernel does not fit in the padded input.
pub fn pad_input(input: &Tensor, geom: &Conv2dGeom) -> Result<PaddedInput, ShapeError> {
    if input.rank() != 4 || input.dims()[1] != geom.in_channels {
        return Err(ShapeError::new(format!(
            "pad_input: expected [N, {}, H, W] input, got {:?}",
            geom.in_channels,
            input.dims()
        )));
    }
    let _timer = im2col_timer();
    let [n, c, h, w] = [0, 1, 2, 3].map(|d| input.dims()[d]);
    let (oh, ow) = (geom.output_size(h), geom.output_size(w));
    let (p, stride, pad) = (geom.kernel, geom.stride, geom.padding);
    let (ph, pw) = (h + 2 * pad, w + 2 * pad);
    let len = n * c * ph * pw;
    if i32::try_from(len).is_err() {
        return Err(ShapeError::new(format!(
            "pad_input: padded input of {len} elements exceeds 32-bit gather offsets"
        )));
    }
    // every tap and pixel offset is below `len`, so it fits in an i32
    let offset = |v: usize| v as i32;
    let _span = if span::verbose() {
        span::span_with("tensor.pad", vec![("elements", len.into())])
    } else {
        SpanGuard::disabled()
    };
    if alloc::tracking() {
        alloc::add_bytes_moved(4 * (input.len() + len) as u64);
    }
    let mut out = scratch::take(len);
    // a plane at a time: one clear of the whole padded plane, then one
    // copy per image row (not three calls per row)
    if input.is_empty() {
        out.fill(0.0);
    }
    for (dst, src) in out
        .chunks_exact_mut((ph * pw).max(1))
        .zip(input.data().chunks_exact((h * w).max(1)))
    {
        dst.fill(0.0);
        for (dst_row, src_row) in dst[pad * pw..]
            .chunks_exact_mut(pw)
            .zip(src.chunks_exact(w))
        {
            dst_row[pad..pad + w].copy_from_slice(src_row);
        }
    }
    let plane = ph * pw;
    let mut taps = Vec::with_capacity(c * p * p);
    for ci in 0..c {
        for kh in 0..p {
            for kw in 0..p {
                taps.push(offset(ci * plane + kh * pw + kw));
            }
        }
    }
    let mut pixels = Vec::with_capacity(n * oh * ow);
    for ni in 0..n {
        for ohi in 0..oh {
            for owi in 0..ow {
                pixels.push(offset(ni * c * plane + ohi * stride * pw + owi * stride));
            }
        }
    }
    Ok(PaddedInput {
        padded: Tensor::from_vec(out, &[n, c, ph, pw])?,
        input_dims: [n, c, h, w],
        geom: *geom,
        taps,
        pixels,
        cols: OnceLock::new(),
    })
}

/// One im2col-shaped product of a convolution, `A · cols` or
/// `A · colsᵀ`, with `cols` the `[C·p², N·OH·OW]` column matrix of
/// `input` — bit-identical to [`crate::matmul`] or [`crate::matmul_a_bt`]
/// against [`crate::im2col`]'s output, and dispatched the same way, but
/// the packed kernel gathers `cols` from the padded input instead of
/// reading a materialised copy.
///
/// # Errors
///
/// Returns [`ShapeError`] if `a` is not rank-2 or its column count is not
/// the column matrix's row count (forward) or column count (weight
/// gradient).
pub fn conv_gemm(a: &Tensor, input: &PaddedInput, which: ConvGemm) -> Result<Tensor, ShapeError> {
    let (taps, pixels) = (input.taps.len(), input.pixels.len());
    let (n, k) = match which {
        ConvGemm::Forward => (pixels, taps),
        ConvGemm::WeightGrad => (taps, pixels),
    };
    if a.rank() != 2 || a.dims()[1] != k {
        return Err(ShapeError::mismatch("conv_gemm", a.dims(), &[taps, pixels]));
    }
    let m = a.dims()[0];
    let out = dispatch_matmul(&GemmOp {
        m,
        n,
        k,
        a: a.data(),
        a_store: AStore::Normal,
        b: BOperand::Cols(input, which),
    });
    Tensor::from_vec(out, &[m, n])
}

/// Upper bound on one input-gradient task's column block, in floats
/// (128 KiB, so it stays in L2 between the GEMM tiles that write it and
/// the scatter that reads it). Larger blocks amortise packing the image's
/// `dY` columns over more tap rows: on a 2-vCPU 2 GHz Xeon VM with 2
/// workers, the Table-II VGG's four inner input gradients at batch 24
/// took 1.37 ms per step at 16–1024 Ki floats, 1.49 ms at 8 Ki and
/// 1.90 ms at 4 Ki (medians of 7 rounds).
const INPUT_GRAD_BLOCK: usize = 32 * 1024;

/// The input gradient of a convolution, `col2im(Wᵀ · dY)`, without the
/// `[C·p², N·OH·OW]` column matrix: bit-identical to
/// [`crate::matmul_at_b`] followed by [`crate::col2im`].
///
/// `weight` is the `[O, C·p²]` kernel and `dy` the output gradient as
/// `[O, N·OH·OW]` rows; the result is `input_dims` (`[N, C, H, W]`).
/// Each task owns whole `(image, input channel)` planes of the result:
/// it computes the `p²` tap rows of its channels against its image's
/// columns with the packed GEMM tiles, each element an ascending-`o`
/// sum, and scatters them onto its planes taps in ascending `(kh, kw)`
/// order, exactly as `col2im` adds them. No two tasks write one element,
/// so the split and the worker count never change a bit.
///
/// The call, scatter included, is timed under `tensor.matmul`. It counts
/// the product's `2·m·n·k` flops and `4·(m·k + k·n)` bytes of operands
/// plus the 4-byte input gradient — the column matrix is no operand in
/// memory — and, as `col2im` does, 8 bytes per column-matrix element for
/// the scatter. The packed weights and the output come from the calling
/// thread's arena, and per-task buffers from the arena of the thread
/// that runs the task.
///
/// # Errors
///
/// Returns [`ShapeError`] if `input_dims` is not rank-4 with `geom`'s
/// channel count, or `weight`/`dy` do not have the shapes above.
pub fn conv_input_grad(
    weight: &Tensor,
    dy: &Tensor,
    input_dims: &[usize],
    geom: &Conv2dGeom,
) -> Result<Tensor, ShapeError> {
    let &[n, c, h, w] = input_dims else {
        return Err(ShapeError::new(format!(
            "conv_input_grad: expected rank-4 input dims, got {input_dims:?}"
        )));
    };
    let (o, taps) = (geom.out_channels, geom.kernel * geom.kernel);
    let spatial = geom.output_size(h) * geom.output_size(w);
    let (m, cols) = (c * taps, n * spatial);
    if c != geom.in_channels || weight.dims() != [o, m] {
        return Err(ShapeError::mismatch(
            "conv_input_grad",
            weight.dims(),
            &[o, m],
        ));
    }
    if dy.dims() != [o, cols] {
        return Err(ShapeError::mismatch(
            "conv_input_grad",
            dy.dims(),
            &[o, cols],
        ));
    }
    // the scatter's gathered body stores every element; the other adds
    // into them, so its output starts cleared
    let mut out = if scatter_overwrites(geom) {
        take_tensor(input_dims)
    } else {
        take_tensor_zeroed(input_dims)
    };
    if out.is_empty() {
        return Ok(out);
    }
    let _timer = matmul_timer();
    let flops = m.saturating_mul(cols).saturating_mul(o);
    let _span = if span::verbose() || (span::enabled() && flops >= crate::plan::MIN_BLOCKED_FLOPS) {
        span::span_with(
            "tensor.conv_input_grad",
            vec![("m", m.into()), ("n", cols.into()), ("k", o.into())],
        )
    } else {
        SpanGuard::disabled()
    };
    if alloc::tracking() {
        let (m64, n64, k64) = (m as u64, cols as u64, o as u64);
        alloc::add_flops(2 * m64 * n64 * k64);
        alloc::add_bytes_moved(4 * (m64 * k64 + k64 * n64 + (n * c * h * w) as u64));
    }
    count_lowering_resources(m, cols);

    // tasks own `group` channels of one image: a column block of at most
    // INPUT_GRAD_BLOCK floats, channels spread evenly over the groups
    let per_channel = taps * spatial;
    let groups = c.div_ceil((INPUT_GRAD_BLOCK / per_channel).max(1));
    let group = c.div_ceil(groups);
    // Wᵀ rows of each channel group, packed once for every image
    let strips = (group * taps).div_ceil(MR) * MR;
    let mut packed_a = scratch::take(groups * o * strips);
    for g in 0..groups {
        let rows = (c.min((g + 1) * group) - g * group) * taps;
        let src = &weight.data()[g * group * taps..];
        let dst = &mut packed_a[g * o * strips..];
        gemm::pack_a(src, rows, o, o, AStore::Transposed, m, dst);
    }

    let plane = h * w;
    let mut tasks = Vec::with_capacity(n * groups);
    for (ni, image) in out.data_mut().chunks_mut(c * plane).enumerate() {
        for (g, planes) in image.chunks_mut(group * plane).enumerate() {
            tasks.push((ni, g, planes));
        }
    }
    let run = |(ni, g, planes): (usize, usize, &mut [f32])| {
        let rows = planes.len() / plane * taps;
        let mut packed_b = scratch::take(o * spatial.div_ceil(NR) * NR);
        let mut block = scratch::take(rows * spatial);
        gemm::gemm_block(
            (rows, spatial, o),
            &packed_a[g * o * strips..],
            (&dy.data()[ni * spatial..], cols),
            &mut packed_b,
            &mut block,
        );
        for (ci, dst) in planes.chunks_exact_mut(plane).enumerate() {
            scatter_plane_wide(&block[ci * per_channel..], spatial, dst, [h, w], geom);
        }
        scratch::give(block);
        scratch::give(packed_b);
    };
    if tasks.len() >= 2 && flops >= gemm::PAR_TILE_MIN_FLOPS {
        tasks.into_par_iter().for_each(run);
    } else {
        tasks.into_iter().for_each(run);
    }
    scratch::give(packed_a);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{col2im, im2col, matmul, matmul_a_bt, matmul_at_b};

    fn lcg_tensor(dims: &[usize], seed: u64) -> Tensor {
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let n: usize = dims.iter().product();
        let data = (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 33) as f32 / u32::MAX as f32) * 2.0 - 1.0
            })
            .collect();
        Tensor::from_vec(data, dims).unwrap()
    }

    #[test]
    fn padded_input_gathers_exactly_the_column_matrix() {
        let x = lcg_tensor(&[2, 3, 5, 7], 1);
        for (stride, pad) in [(1, 0), (1, 1), (2, 1), (2, 2)] {
            let geom = Conv2dGeom::new(3, 4, 3, stride, pad);
            let cols = im2col(&x, &geom).unwrap();
            let padded = pad_input(&x, &geom).unwrap();
            let (rows, ncols) = (cols.dims()[0], cols.dims()[1]);
            assert_eq!((padded.taps.len(), padded.pixels.len()), (rows, ncols));
            for (r, &tap) in padded.taps.iter().enumerate() {
                for (j, &pixel) in padded.pixels.iter().enumerate() {
                    let got = padded.padded.data()[(tap + pixel) as usize];
                    assert_eq!(got.to_bits(), cols.at2(r, j).to_bits());
                }
            }
            assert_eq!(padded.cols(), &cols);
        }
    }

    #[test]
    fn both_products_equal_the_explicit_ones_bitwise() {
        // 16→16 3×3 at 9×9, batch 3: blocked plans, a tail pixel strip
        let geom = Conv2dGeom::new(16, 16, 3, 1, 1);
        let x = lcg_tensor(&[3, 16, 9, 9], 2);
        let w = lcg_tensor(&[16, 16 * 9], 3);
        let dy = lcg_tensor(&[16, 3 * 81], 4);
        let cols = im2col(&x, &geom).unwrap();
        let padded = pad_input(&x, &geom).unwrap();
        let fwd = conv_gemm(&w, &padded, ConvGemm::Forward).unwrap();
        assert_eq!(fwd, matmul(&w, &cols).unwrap());
        let dw = conv_gemm(&dy, &padded, ConvGemm::WeightGrad).unwrap();
        assert_eq!(dw, matmul_a_bt(&dy, &cols).unwrap());
    }

    #[test]
    fn the_input_gradient_equals_col2im_of_the_explicit_product_bitwise() {
        let cases = [
            // one group per image, below the parallel threshold
            (Conv2dGeom::new(16, 16, 3, 1, 1), [3, 16, 9, 9]),
            // uneven channel groups over 20×20 planes (two 16-lane
            // chunks per row), run in parallel
            (Conv2dGeom::new(37, 24, 3, 1, 1), [4, 37, 20, 20]),
            // stride 2 takes the scalar scatter
            (Conv2dGeom::new(5, 7, 3, 2, 1), [2, 5, 9, 11]),
            // a 5×5 kernel over three chunks per row
            (Conv2dGeom::new(3, 5, 5, 1, 2), [2, 3, 18, 35]),
            // a 1×1 kernel and a single image
            (Conv2dGeom::new(6, 4, 1, 1, 0), [1, 6, 5, 5]),
        ];
        for (i, (geom, dims)) in cases.into_iter().enumerate() {
            let pixels = dims[0] * geom.output_size(dims[2]) * geom.output_size(dims[3]);
            let taps = geom.in_channels * geom.kernel * geom.kernel;
            let w = lcg_tensor(&[geom.out_channels, taps], 10 + i as u64);
            let dy = lcg_tensor(&[geom.out_channels, pixels], 20 + i as u64);
            // the output comes from this thread's arena: stale contents
            // there must not leak into it
            crate::recycle(Tensor::full(&dims, f32::NAN));
            let got = conv_input_grad(&w, &dy, &dims, &geom).unwrap();
            let want = col2im(&matmul_at_b(&w, &dy).unwrap(), &dims, &geom).unwrap();
            let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "{geom:?} {dims:?}");
        }
    }

    #[test]
    fn shape_errors_are_reported() {
        let geom = Conv2dGeom::new(2, 4, 3, 1, 1);
        assert!(pad_input(&Tensor::zeros(&[1, 3, 4, 4]), &geom).is_err());
        assert!(pad_input(&Tensor::zeros(&[3, 4, 4]), &geom).is_err());
        let padded = pad_input(&Tensor::zeros(&[1, 2, 4, 4]), &geom).unwrap();
        let wrong = Tensor::zeros(&[4, 17]);
        assert!(conv_gemm(&wrong, &padded, ConvGemm::Forward).is_err());
        assert!(conv_gemm(&wrong, &padded, ConvGemm::WeightGrad).is_err());
        let dy = Tensor::zeros(&[4, 16]);
        let w = Tensor::zeros(&[4, 18]);
        assert!(conv_input_grad(&w, &dy, &[1, 2, 4, 4], &geom).is_ok());
        assert!(conv_input_grad(&wrong, &dy, &[1, 2, 4, 4], &geom).is_err());
        assert!(conv_input_grad(&w, &wrong, &[1, 2, 4, 4], &geom).is_err());
        assert!(conv_input_grad(&w, &dy, &[1, 3, 4, 4], &geom).is_err());
        assert!(conv_input_grad(&w, &dy, &[2, 4, 4], &geom).is_err());
    }
}
