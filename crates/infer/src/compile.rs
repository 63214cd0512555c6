//! Lowering a trained [`Vgg`] or [`ResNet`] into a self-contained
//! [`CompiledVgg`] / [`CompiledResNet`]: BN-folded weights quantized at
//! each layer's trained bit-width, packed into the bit-width's storage
//! container, plus the frozen requantization parameters the integer
//! kernels need between layers.
//!
//! Every layer executes real integer arithmetic through [`crate::qgemm`].
//! For uniform affine quantizers `x = x_min + c·s`,
//!
//! ```text
//! Σ fq(w)·fq(a) = s_w·s_a·Σ c_w·c_a
//!               + w_min·s_a·Σ c_a + a_min·s_w·Σ c_w + n·w_min·a_min
//! ```
//!
//! so each output needs one wide integer dot product (the GEMM) plus the
//! cheap per-row code sums [`PackedMatrix`] precomputes. Convolution
//! padding is quantized like any other activation (its code is
//! `quantize(0.0)`, the zero point), so `n` is the full fan-in — the
//! convention of real integer engines, which pad the code matrix with the
//! zero point rather than skipping taps. The residual against exact-zero
//! padding is below one activation quantization step per padded tap;
//! `tests/golden_equivalence.rs` bounds the resulting logits against the
//! float model.
//!
//! Activation quantizers are **calibrated post-training**: compilation
//! runs a calibration batch through the integer engine itself, fits each
//! layer's input range at the carried precision, and freezes it. This
//! replaces the per-batch range fitting the training-time simulation uses
//! — a server cannot re-fit ranges per request batch without making
//! results batch-composition-dependent.
//!
//! Around the GEMM, a conv layer gathers its input codes into the GEMM's
//! byte planes, requantizes each output row (`Requant::row_into`),
//! encodes the layer's rows into the next layer's codes
//! ([`Encoder::encode_into`]) and scatters them into NCHW, max-pooling
//! as it goes. The row kernels and the tap gather run in vector lanes
//! where the CPU has them, under one contract: the vector body performs
//! the scalar expression's operations in the same order — no FMA, no
//! reassociation — so its results are the same bits as the portable
//! body's, which the unit tests call directly.
//!
//! A ResNet adds one operation to the VGG chain, the residual junction
//! (Fig 2). The skip branch — the block input, or its 1×1 projection — is
//! fake-quantized at the junction bits with a range frozen at
//! calibration, added to the second conv's pre-activation output, passed
//! through ReLU and encoded into the next layer's codes. A global average
//! pool over the last junction feeds the head.

use adq_nn::{
    ConvBlock, GlobalAvgPool, LinearHead, MaxPool2d, QuantModel, ResNet, ResNetBlockView, Vgg,
};
use adq_quant::{BitWidth, Encoder, HwPrecision, QuantError, Quantizer};
use adq_telemetry::metrics;
use adq_tensor::{Conv2dGeom, Tensor};

use crate::qgemm::{qgemm_rows, Container, PackedMatrix};

/// Why a model could not be lowered.
#[derive(Debug, Clone, PartialEq)]
pub enum CompileError {
    /// A layer has no trained bit-width and [`CompileOptions`] forbids the
    /// 16-bit fallback.
    Unquantized {
        /// Name of the offending layer.
        layer: String,
    },
    /// Weight or activation quantization failed (empty / non-finite data).
    Quant(QuantError),
    /// The calibration batch does not match the model's input shape.
    Shape(String),
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::Unquantized { layer } => {
                write!(f, "layer '{layer}' has no trained bit-width")
            }
            CompileError::Quant(e) => write!(f, "quantization failed: {e}"),
            CompileError::Shape(msg) => write!(f, "shape mismatch: {msg}"),
        }
    }
}

impl std::error::Error for CompileError {}

impl From<QuantError> for CompileError {
    fn from(e: QuantError) -> Self {
        CompileError::Quant(e)
    }
}

/// Lowering policy knobs.
#[derive(Debug, Clone, Copy)]
pub struct CompileOptions {
    /// When `true` (the default), layers without a trained bit-width fall
    /// back to 16-bit, the accelerator's widest mode, and bump the
    /// `infer.compile.unquantized_fallback` counter; when `false` they
    /// fail with [`CompileError::Unquantized`].
    pub allow_unquantized: bool,
}

impl Default for CompileOptions {
    fn default() -> Self {
        Self {
            allow_unquantized: true,
        }
    }
}

fn layer_bits(
    name: &str,
    bits: Option<BitWidth>,
    options: CompileOptions,
) -> Result<BitWidth, CompileError> {
    match bits {
        Some(b) => Ok(b),
        None if options.allow_unquantized => {
            metrics::global()
                .counter("infer.compile.unquantized_fallback")
                .inc();
            Ok(BitWidth::SIXTEEN)
        }
        None => Err(CompileError::Unquantized {
            layer: name.to_string(),
        }),
    }
}

/// A frozen activation quantizer at a carried precision; degenerate
/// calibration data falls back to the point range.
fn frozen_act_quantizer(bits: BitWidth, data: &[f32]) -> Quantizer {
    Quantizer::fit(bits, data).unwrap_or_else(|_| Quantizer::new(bits, Default::default()))
}

/// Checks that a calibration batch is `[N, channels, hw, hw]`.
fn check_calibration(calibration: &Tensor, channels: usize, hw: usize) -> Result<(), CompileError> {
    let d = calibration.dims();
    if calibration.rank() == 4 && d[1] == channels && d[2] == hw && d[3] == hw {
        return Ok(());
    }
    Err(CompileError::Shape(format!(
        "calibration batch {d:?} does not match model input [N, {channels}, {hw}, {hw}]"
    )))
}

/// The dimensions of an NCHW tensor.
fn nchw(t: &Tensor) -> [usize; 4] {
    assert_eq!(t.rank(), 4, "input must be NCHW");
    let d = t.dims();
    [d[0], d[1], d[2], d[3]]
}

/// The affine requantization of one layer's integer accumulators, with
/// every term that does not depend on the activation row frozen at
/// compile time:
///
/// ```text
/// value = (s_w·s_a)·acc + (w_min·s_a)·Σc_a + (a_min·s_w)·Σc_w[o] + n·w_min·a_min + bias[o]
/// ```
///
/// Each output still multiplies and adds in this order, so hoisting the
/// invariant terms leaves every value bit-identical to evaluating the
/// whole expression per output.
#[derive(Debug, Clone)]
struct Requant {
    /// `s_w·s_a`, the scale of the integer dot product.
    scale: f64,
    /// `w_min·s_a`, the scale of an activation row's code sum.
    act_sum_scale: f64,
    /// `a_min·s_w·Σc_w[o]` per output channel.
    weight_terms: Vec<f64>,
    /// `n·w_min·a_min`.
    offset: f64,
    bias: Vec<f64>,
}

impl Requant {
    fn new(weight_q: &Quantizer, act_q: &Quantizer, weights: &PackedMatrix, bias: &[f32]) -> Self {
        let s_w = f64::from(weight_q.step());
        let s_a = f64::from(act_q.step());
        let w_min = f64::from(weight_q.range().min());
        let a_min = f64::from(act_q.range().min());
        let taps = weights.k() as f64;
        Self {
            scale: s_w * s_a,
            act_sum_scale: w_min * s_a,
            weight_terms: weights
                .row_sums()
                .iter()
                .map(|&sum| a_min * s_w * sum as f64)
                .collect(),
            offset: taps * w_min * a_min,
            bias: bias.iter().map(|&b| f64::from(b)).collect(),
        }
    }

    /// The requantized values of one activation row, one per output
    /// channel, from the row's accumulators and code sum: the scalar
    /// expression [`Requant::row_into`] is held to.
    #[cfg(test)]
    fn row<'a>(&'a self, accs: &'a [i64], act_sum: u64) -> impl Iterator<Item = f64> + 'a {
        let row_term = self.act_sum_scale * act_sum as f64;
        accs.iter().zip(&self.weight_terms).zip(&self.bias).map(
            move |((&acc, &weight_term), &bias)| {
                self.scale * acc as f64 + row_term + weight_term + self.offset + bias
            },
        )
    }

    /// Requantizes one activation row into `out`, one `f32` per output
    /// channel: each value rounded to `f32` and raised to `floor` —
    /// `x > floor ? x : floor`, so NaN gives the floor, and so does
    /// `-0.0` under the floor `0.0`, a fused ReLU (`-inf` passes every
    /// other value).
    ///
    /// Where the CPU has AVX-512F and DQ, 8 channels run per step in
    /// `f64` lanes that take the scalar expression's operations in the
    /// same order (convert, multiply, then four separate adds — no FMA —
    /// then one rounding to `f32` and a `max`), so every value has the
    /// bits of the portable body, [`Requant::row_into_portable`].
    ///
    /// # Panics
    ///
    /// Panics unless `accs` and `out` hold one entry per output channel.
    fn row_into(&self, accs: &[i64], act_sum: u64, floor: f32, out: &mut [f32]) {
        assert!(
            accs.len() == self.bias.len() && out.len() == accs.len(),
            "one accumulator and one output per channel"
        );
        #[cfg(target_arch = "x86_64")]
        if avx512dq_available() {
            // SAFETY: the features were detected at runtime, and the
            // slice lengths were checked above.
            unsafe { self.row_into_avx512(accs, act_sum, floor, out) };
            return;
        }
        self.row_into_portable(accs, act_sum, floor, out);
    }

    /// The scalar body of [`Requant::row_into`].
    fn row_into_portable(&self, accs: &[i64], act_sum: u64, floor: f32, out: &mut [f32]) {
        let row_term = self.act_sum_scale * act_sum as f64;
        self.floored_from(0, accs, row_term, floor, out);
    }

    /// Channels `from..` of [`Requant::row_into_portable`].
    fn floored_from(&self, from: usize, accs: &[i64], row_term: f64, floor: f32, out: &mut [f32]) {
        for (o, v) in out.iter_mut().enumerate().skip(from) {
            let value = self.scale * accs[o] as f64
                + row_term
                + self.weight_terms[o]
                + self.offset
                + self.bias[o];
            let x = value as f32;
            *v = if x > floor { x } else { floor };
        }
    }

    /// The AVX-512 body of [`Requant::row_into`]: 8 channels per step,
    /// scalar tail.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX-512F and AVX-512DQ, and `accs` and `out`
    /// must hold one entry per output channel.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,avx512dq")]
    unsafe fn row_into_avx512(&self, accs: &[i64], act_sum: u64, floor: f32, out: &mut [f32]) {
        use std::arch::x86_64::{
            _mm256_max_ps, _mm256_set1_ps, _mm256_storeu_ps, _mm512_add_pd, _mm512_cvtepi64_pd,
            _mm512_cvtpd_ps, _mm512_loadu_pd, _mm512_loadu_si512, _mm512_mul_pd, _mm512_set1_pd,
        };
        let row_term = self.act_sum_scale * act_sum as f64;
        let scale = _mm512_set1_pd(self.scale);
        let row = _mm512_set1_pd(row_term);
        let offset = _mm512_set1_pd(self.offset);
        let low = _mm256_set1_ps(floor);
        let whole = out.len() / 8 * 8;
        for o in (0..whole).step_by(8) {
            let acc = _mm512_cvtepi64_pd(_mm512_loadu_si512(accs.as_ptr().add(o).cast()));
            let x = _mm512_mul_pd(scale, acc);
            let x = _mm512_add_pd(x, row);
            let x = _mm512_add_pd(x, _mm512_loadu_pd(self.weight_terms.as_ptr().add(o)));
            let x = _mm512_add_pd(x, offset);
            let x = _mm512_add_pd(x, _mm512_loadu_pd(self.bias.as_ptr().add(o)));
            // vmaxps returns its second operand unless the first is
            // greater: `x > floor ? x : floor`
            let v = _mm256_max_ps(_mm512_cvtpd_ps(x), low);
            _mm256_storeu_ps(out.as_mut_ptr().add(o), v);
        }
        self.floored_from(whole, accs, row_term, floor, out);
    }
}

/// Runtime AVX-512F + DQ detection, resolved once per process.
#[cfg(target_arch = "x86_64")]
fn avx512dq_available() -> bool {
    static AVX512DQ: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *AVX512DQ
        .get_or_init(|| is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512dq"))
}

/// Bytes past a [`PaddedPlane`]'s last row, so a tap body may read 4
/// bytes wherever a run of up to 4 taps starts.
const PLANE_SLACK: usize = 3;

/// One byte plane of one image's input codes, bordered by `padding`
/// rows and columns of the plane's byte of the padding code: `[c, h +
/// 2·padding, w + 2·padding]` bytes, then [`PLANE_SLACK`] zero bytes.
/// Every tap of a convolution window is an in-bounds byte here, so the
/// run of `p` taps at `(channel, kh)` of output pixel `(oy, ox)` is the
/// `p` bytes at column `ox·stride` of padded row `oy·stride + kh` of that
/// channel. The interior is rewritten per image; the border is written
/// once.
struct PaddedPlane {
    bytes: Vec<u8>,
    /// `w + 2·padding`.
    width: usize,
    /// `h + 2·padding`.
    height: usize,
    /// `8 ×` the byte plane.
    shift: u32,
    /// `Σ_ci plane[ci][r][x]` per padded row `r` and column `x`.
    channel_sums: Vec<u32>,
    /// Scratch for one output row's column sums.
    col_sums: Vec<u32>,
}

impl PaddedPlane {
    /// A plane for `[c, h, w]` images under `geom`, its border set to
    /// `pad`.
    fn new([c, h, w]: [usize; 3], geom: Conv2dGeom, shift: u32, pad: u8) -> Self {
        let (width, height) = (w + 2 * geom.padding, h + 2 * geom.padding);
        assert!(
            c * geom.kernel * geom.kernel * 255 <= u32::MAX as usize,
            "a row's byte sum must fit u32"
        );
        let mut bytes = vec![pad; c * height * width + PLANE_SLACK];
        bytes[c * height * width..].fill(0);
        Self {
            bytes,
            width,
            height,
            shift,
            channel_sums: vec![0; height * width],
            col_sums: vec![0; width],
        }
    }

    /// Writes this plane's byte of each of `image`'s codes into the
    /// interior and sums the channels.
    fn fill(&mut self, image: &[u16], padding: usize) {
        let (width, height, shift) = (self.width, self.height, self.shift);
        let w = width - 2 * padding;
        let h = height - 2 * padding;
        let len = self.bytes.len() - PLANE_SLACK;
        let channels = self.bytes[..len].chunks_exact_mut(height * width);
        for (channel, src) in channels.zip(image.chunks_exact(h * w)) {
            let rows = channel[padding * width..].chunks_exact_mut(width);
            for (row, codes) in rows.zip(src.chunks_exact(w)) {
                for (lane, &code) in row[padding..padding + w].iter_mut().zip(codes) {
                    *lane = (code >> shift) as u8;
                }
            }
        }
        self.channel_sums.fill(0);
        for channel in self.bytes[..len].chunks_exact(height * width) {
            for (sum, &byte) in self.channel_sums.iter_mut().zip(channel) {
                *sum += u32::from(byte);
            }
        }
    }

    /// Offset of the first byte of padded row `kh` of channel `ci`, for
    /// each tap line `ci·p + kh` in order: adding `oy·stride·width + x`
    /// gives the line's run for output pixel `(oy, ox)` at column `x`.
    fn line_starts(&self, geom: Conv2dGeom) -> Vec<u32> {
        let p = geom.kernel;
        let starts = (0..geom.in_channels * p)
            .map(|j| ((j / p * self.height + j % p) * self.width) as u32)
            .collect();
        assert!(
            self.bytes.len() < i32::MAX as usize,
            "plane offsets must fit i32"
        );
        starts
    }

    /// Adds this plane's share of the code sum of each im2col row of
    /// output row `oy` to `sums`: the taps of pixel `ox` are columns
    /// `ox·stride .. ox·stride + p` of padded rows `oy·stride ..
    /// oy·stride + p` of every channel, so its row sum is the sum of
    /// those `p × p` channel sums.
    fn add_row_sums(&mut self, geom: Conv2dGeom, oy: usize, sums: &mut [u64]) {
        let (p, stride, width) = (geom.kernel, geom.stride, self.width);
        let window = &self.channel_sums[oy * stride * width..][..p * width];
        self.col_sums.fill(0);
        for row in window.chunks_exact(width) {
            for (col, &sum) in self.col_sums.iter_mut().zip(row) {
                *col += sum;
            }
        }
        for (ox, sum) in sums.iter_mut().enumerate() {
            let x = ox * stride;
            let taps: u32 = self.col_sums[x..x + p].iter().sum();
            *sum += u64::from(taps) << self.shift;
        }
    }

    /// Writes the im2col rows of output row `oy` — `rows.len() / k4` rows
    /// of `c·p·p` taps in `(channel, kh, kw)` order, each `k4` bytes
    /// apart — into `rows` through `body`; `lines` is
    /// [`PaddedPlane::line_starts`]. Bytes past the taps are left as
    /// they are.
    fn taps(
        &self,
        body: TapBody,
        geom: Conv2dGeom,
        lines: &[u32],
        oy: usize,
        rows: &mut [u8],
        k4: usize,
    ) {
        let top = oy * geom.stride * self.width;
        match body {
            TapBody::Portable => self.taps_portable(geom, lines, top, rows, k4),
            // Below 16 lines a row is one partly masked gather, which
            // costs more than the copies it replaces.
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `Vbmi` exists only where the features were
            // detected, and it only takes kernels of up to 4 taps.
            TapBody::Vbmi if geom.kernel <= 4 && lines.len() >= 16 => unsafe {
                self.taps_vbmi(geom, lines, top, rows, k4)
            },
            #[cfg(target_arch = "x86_64")]
            TapBody::Vbmi => self.taps_portable(geom, lines, top, rows, k4),
        }
    }

    /// The portable tap body: one copy per run of `p` taps.
    fn taps_portable(
        &self,
        geom: Conv2dGeom,
        lines: &[u32],
        top: usize,
        rows: &mut [u8],
        k4: usize,
    ) {
        let (p, stride) = (geom.kernel, geom.stride);
        let fan_in = lines.len() * p;
        for (ox, row) in rows.chunks_exact_mut(k4).enumerate() {
            let x = top + ox * stride;
            let runs = row[..fan_in].chunks_exact_mut(p).zip(lines);
            if p == 3 {
                // a fixed-size copy the compiler unrolls; a slice copy per
                // 3-tap run costs more than the taps themselves
                for (taps, &line) in runs {
                    let at = line as usize + x;
                    let taps: &mut [u8; 3] = taps.try_into().expect("3 taps");
                    *taps = self.bytes[at..at + 3].try_into().expect("3 taps");
                }
            } else {
                for (taps, &line) in runs {
                    let at = line as usize + x;
                    taps.copy_from_slice(&self.bytes[at..at + p]);
                }
            }
        }
    }

    /// The AVX-512 VBMI tap body, for kernels of up to 4 taps: for 16
    /// lines at a time, one gather reads the 4 bytes at each line's run,
    /// one byte permute keeps the first `p` bytes of each, and one masked
    /// store writes the `16·p` taps.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX-512F, BW and VBMI, `geom.kernel` must be
    /// at most 4, and `lines` must be [`PaddedPlane::line_starts`].
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,avx512bw,avx512vbmi")]
    unsafe fn taps_vbmi(
        &self,
        geom: Conv2dGeom,
        lines: &[u32],
        top: usize,
        rows: &mut [u8],
        k4: usize,
    ) {
        use std::arch::x86_64::{
            _mm512_add_epi32, _mm512_loadu_si512, _mm512_mask_i32gather_epi32,
            _mm512_mask_storeu_epi8, _mm512_maskz_loadu_epi32, _mm512_permutexvar_epi8,
            _mm512_set1_epi32, _mm512_setzero_si512,
        };
        let (p, stride) = (geom.kernel, geom.stride);
        let fan_in = lines.len() * p;
        let ow = rows.len() / k4;
        assert!(
            p <= 4 && rows.len() == ow * k4 && fan_in <= k4,
            "tap operands out of shape"
        );
        // every run lies in its padded row; a gathered word ends at most
        // 3 bytes past the run, in the next row or the slack
        assert!(
            ow == 0 || (ow - 1) * stride + p <= self.width,
            "runs must lie in their rows"
        );
        assert!(
            lines
                .iter()
                .all(|&l| l as usize + top + self.width <= self.bytes.len() - PLANE_SLACK),
            "lines must lie in the plane"
        );
        // output byte i is byte i % p of the word of line i / p
        let keep: [u8; 64] = std::array::from_fn(|i| (i / p * 4 + i % p) as u8);
        let keep = _mm512_loadu_si512(keep.as_ptr().cast());
        let base = self.bytes.as_ptr();
        for (ox, row) in rows.chunks_exact_mut(k4).enumerate() {
            let x = _mm512_set1_epi32((top + ox * stride) as i32);
            for j0 in (0..lines.len()).step_by(16) {
                let count = (lines.len() - j0).min(16);
                let lanes = ((1u32 << count) - 1) as u16;
                // SAFETY: the masked load reads `lines[j0 .. j0 + count]`
                let starts = _mm512_maskz_loadu_epi32(lanes, lines.as_ptr().add(j0).cast());
                // SAFETY: lane j reads 4 bytes from its run's start,
                // inside the plane and its slack (asserted above)
                let words = _mm512_mask_i32gather_epi32::<1>(
                    _mm512_setzero_si512(),
                    lanes,
                    _mm512_add_epi32(starts, x),
                    base.cast(),
                );
                let taps = _mm512_permutexvar_epi8(keep, words);
                let bytes = count * p;
                let mask = if bytes == 64 {
                    u64::MAX
                } else {
                    (1u64 << bytes) - 1
                };
                // SAFETY: the store writes row bytes `j0·p .. (j0 +
                // count)·p`, inside the row's `fan_in` taps
                _mm512_mask_storeu_epi8(row.as_mut_ptr().add(j0 * p).cast(), mask, taps);
            }
        }
    }
}

/// Which tap body [`PaddedPlane::taps`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TapBody {
    Portable,
    /// Only constructed once `avx512f`, `avx512bw` and `avx512vbmi` were
    /// detected.
    #[cfg(target_arch = "x86_64")]
    Vbmi,
}

impl TapBody {
    /// The fastest body this CPU runs, resolved once per process.
    fn detect() -> TapBody {
        #[cfg(target_arch = "x86_64")]
        {
            static VBMI: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
            let vbmi = *VBMI.get_or_init(|| {
                is_x86_feature_detected!("avx512f")
                    && is_x86_feature_detected!("avx512bw")
                    && is_x86_feature_detected!("avx512vbmi")
            });
            if vbmi {
                return TapBody::Vbmi;
            }
        }
        TapBody::Portable
    }
}

/// Quantizes a `[rows, k]` weight matrix at `bits` and packs it in the
/// container both it and the activations `act_q` emits fit in.
fn pack_weights(
    weight: &[f32],
    rows: usize,
    k: usize,
    bits: BitWidth,
    act_q: &Quantizer,
) -> Result<(Quantizer, PackedMatrix, Container), CompileError> {
    let weight_q = Quantizer::fit(bits, weight)?;
    let container = Container::for_max_code(weight_q.bits().max_code())
        .join(Container::for_max_code(act_q.bits().max_code()));
    let weights = PackedMatrix::pack_rows(weight, rows, k, &weight_q, container);
    Ok((weight_q, weights, container))
}

/// One lowered convolution layer: packed BN-folded weight codes plus the
/// requantization constants of the affine expansion.
#[derive(Debug, Clone)]
pub struct CompiledConv {
    geom: Conv2dGeom,
    /// Packed weight codes, `[O, I·p·p]`.
    weights: PackedMatrix,
    /// Frozen quantizer for this layer's *input* activations.
    act_q: Quantizer,
    requant: Requant,
    precision: HwPrecision,
    container: Container,
    /// Whether a 2×2 max-pool follows.
    pool: bool,
    /// Whether the output passes through ReLU; a ResNet block's second
    /// conv and projection emit pre-activation values.
    relu: bool,
}

/// The lowered classifier head.
#[derive(Debug, Clone)]
pub struct CompiledLinear {
    in_features: usize,
    out_features: usize,
    weights: PackedMatrix,
    act_q: Quantizer,
    requant: Requant,
    precision: HwPrecision,
    container: Container,
}

impl CompiledConv {
    /// Folds `block`'s batch-norm into its convolution and packs the
    /// result at the block's bit-width, reading its input through the
    /// frozen `act_q`. Also returns the bit-width, which the block's
    /// output is carried at.
    fn lower(
        block: &ConvBlock,
        act_q: Quantizer,
        pool: bool,
        options: CompileOptions,
    ) -> Result<(Self, BitWidth), CompileError> {
        let bits = layer_bits(block.name(), block.bits(), options)?;
        let (weight, bias) = block.folded_weight_bias();
        let geom = block.geom();
        let fan_in = geom.in_channels * geom.kernel * geom.kernel;
        let (weight_q, weights, container) =
            pack_weights(weight.data(), geom.out_channels, fan_in, bits, &act_q)?;
        let layer = Self {
            geom,
            requant: Requant::new(&weight_q, &act_q, &weights, &bias),
            weights,
            act_q,
            precision: HwPrecision::legalize(bits),
            container,
            pool,
            relu: block.has_relu(),
        };
        Ok((layer, bits))
    }
}

impl CompiledLinear {
    /// Packs a classifier head at its bit-width, reading its input
    /// features through the frozen `act_q`.
    fn lower(
        head: &LinearHead,
        act_q: Quantizer,
        options: CompileOptions,
    ) -> Result<Self, CompileError> {
        let bits = layer_bits(head.name(), head.bits(), options)?;
        let linear = head.linear();
        let (weight_q, weights, container) = pack_weights(
            linear.weight.value.data(),
            head.out_features(),
            head.in_features(),
            bits,
            &act_q,
        )?;
        Ok(Self {
            in_features: head.in_features(),
            out_features: head.out_features(),
            requant: Requant::new(&weight_q, &act_q, &weights, linear.bias.value.data()),
            weights,
            act_q,
            precision: HwPrecision::legalize(bits),
            container,
        })
    }
}

/// A trained [`Vgg`] lowered to bit-packed integer inference — weights
/// folded, quantized, and packed; activation ranges calibrated and frozen.
/// Self-contained: holds no reference to the training model and is `Send +
/// Sync`, so a server can share it behind an `Arc`.
#[derive(Debug, Clone)]
pub struct CompiledVgg {
    convs: Vec<CompiledConv>,
    head: CompiledLinear,
    classes: usize,
    in_channels: usize,
    input_hw: usize,
}

impl CompiledVgg {
    /// Lowers `model`, calibrating activation ranges on `calibration`
    /// (shape `[N, C, H, W]` matching the model input).
    ///
    /// # Errors
    ///
    /// Returns [`CompileError`] on unquantized layers (strict mode only),
    /// non-finite weights, or a calibration shape mismatch.
    pub fn compile(
        model: &Vgg,
        calibration: &Tensor,
        options: CompileOptions,
    ) -> Result<Self, CompileError> {
        let in_channels = model.conv_blocks()[0].geom().in_channels;
        let input_hw = model.layer_stats()[0].input_hw;
        check_calibration(calibration, in_channels, input_hw)?;

        let mut convs = Vec::new();
        let mut x = calibration.clone();
        // network input is carried at the accelerator's full width
        let mut carry_bits = BitWidth::SIXTEEN;
        for (index, block) in model.conv_blocks().iter().enumerate() {
            let act_q = frozen_act_quantizer(carry_bits, x.data());
            let (layer, bits) =
                CompiledConv::lower(block, act_q, model.pool_after(index), options)?;
            // calibrate the next layer on this layer's integer output;
            // encoding through the layer's own quantizer is exactly what
            // the serving chain feeds it
            x = layer.run_values(&encode_all(x.data(), &layer.act_q), nchw(&x));
            carry_bits = bits;
            convs.push(layer);
        }

        let act_q = frozen_act_quantizer(carry_bits, x.data());
        Ok(Self {
            convs,
            head: CompiledLinear::lower(model.head(), act_q, options)?,
            classes: model.classes(),
            in_channels,
            input_hw,
        })
    }

    /// Number of output classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Expected input shape as `(channels, height/width)`.
    pub fn input_shape(&self) -> (usize, usize) {
        (self.in_channels, self.input_hw)
    }

    /// Flattened input length of one image.
    pub fn input_len(&self) -> usize {
        self.in_channels * self.input_hw * self.input_hw
    }

    /// Hardware precisions the layers execute at, convs then classifier.
    pub fn precisions(&self) -> Vec<HwPrecision> {
        let mut out: Vec<HwPrecision> = self.convs.iter().map(|c| c.precision).collect();
        out.push(self.head.precision);
        out
    }

    /// Storage containers per layer (diagnostics / size accounting).
    pub fn containers(&self) -> Vec<Container> {
        let mut out: Vec<Container> = self.convs.iter().map(|c| c.container).collect();
        out.push(self.head.container);
        out
    }

    /// Total packed weight bytes across all layers.
    pub fn packed_weight_bytes(&self) -> usize {
        self.convs
            .iter()
            .map(|c| c.weights.packed_bytes())
            .sum::<usize>()
            + self.head.weights.packed_bytes()
    }

    /// Integer-only inference: logits `[N, classes]`.
    ///
    /// The whole network runs as a fused requantization chain — the input
    /// is encoded once, every conv consumes and emits integer codes in
    /// the next layer's code space, and only the head's logits come back
    /// as floats.
    ///
    /// # Panics
    ///
    /// Panics if `images` is not `[N, C, H, W]` matching the model.
    pub fn run(&self, images: &Tensor) -> Tensor {
        let mut dims = nchw(images);
        let mut codes = encode_all(images.data(), &self.convs[0].act_q);
        for (i, conv) in self.convs.iter().enumerate() {
            let next_q = match self.convs.get(i + 1) {
                Some(next) => &next.act_q,
                None => &self.head.act_q,
            };
            (codes, dims) = conv.run_codes(&codes, dims, &next_q.encoder());
        }
        let [n, c, h, w] = dims;
        self.head.run_codes(&codes, n, c * h * w)
    }
}

/// One lowered residual basic block.
#[derive(Debug, Clone)]
struct CompiledBlock {
    conv1: CompiledConv,
    conv2: CompiledConv,
    /// 1×1 projection shortcut; it reads the block input through
    /// `conv1`'s quantizer.
    proj: Option<CompiledConv>,
    /// Frozen quantizer of the skip branch at the junction bits (Fig 2).
    skip_q: Quantizer,
}

impl CompiledBlock {
    /// Lowers one basic block whose float input `x` is carried at
    /// `carry_bits`, calibrating every range it freezes on `x`. Returns
    /// the block, its junction output on `x` and the junction bits, at
    /// which that output is carried.
    fn lower(
        view: ResNetBlockView<'_>,
        x: &Tensor,
        carry_bits: BitWidth,
        options: CompileOptions,
    ) -> Result<(Self, Tensor, BitWidth), CompileError> {
        let in_q = frozen_act_quantizer(carry_bits, x.data());
        let (conv1, conv1_bits) = CompiledConv::lower(view.conv1, in_q, false, options)?;
        let codes = encode_all(x.data(), &in_q);
        let dims = nchw(x);
        let mid = conv1.run_values(&codes, dims);
        let mid_q = frozen_act_quantizer(conv1_bits, mid.data());
        let (conv2, _) = CompiledConv::lower(view.conv2, mid_q, false, options)?;
        let proj = match view.proj {
            Some(p) => Some(CompiledConv::lower(p, in_q, false, options)?.0),
            None => None,
        };
        let name = view.conv1.name().trim_end_matches(".conv1");
        let junction_bits = layer_bits(&format!("{name}.junction"), view.junction_bits, options)?;
        let main = conv2.run_values(&encode_all(mid.data(), &mid_q), nchw(&mid));
        let skip = skip_branch(proj.as_ref(), &in_q, &codes, dims);
        let block = Self {
            conv1,
            conv2,
            proj,
            skip_q: frozen_act_quantizer(junction_bits, skip.data()),
        };
        let y = block.junction(main, &skip);
        Ok((block, y, junction_bits))
    }

    /// The block on input codes in `conv1`'s code space: the junction
    /// output, post-ReLU, as floats.
    fn run_values(&self, codes: &[u16], dims: [usize; 4]) -> Tensor {
        let (mid, mid_dims) = self
            .conv1
            .run_codes(codes, dims, &self.conv2.act_q.encoder());
        let main = self.conv2.run_values(&mid, mid_dims);
        let skip = skip_branch(self.proj.as_ref(), &self.conv1.act_q, codes, dims);
        self.junction(main, &skip)
    }

    /// `relu(main + fq(skip))`, the skip fake-quantized at the junction
    /// bits (Fig 2).
    fn junction(&self, mut main: Tensor, skip: &Tensor) -> Tensor {
        assert_eq!(main.dims(), skip.dims(), "main and skip shapes agree");
        for (m, &s) in main.data_mut().iter_mut().zip(skip.data()) {
            *m = (*m + self.skip_q.fake_quantize(s)).max(0.0);
        }
        main
    }
}

/// The skip branch of a block on input codes read through `in_q`, before
/// its junction quantization: the projection's pre-activation output, or
/// the decoded block input.
fn skip_branch(
    proj: Option<&CompiledConv>,
    in_q: &Quantizer,
    codes: &[u16],
    dims: [usize; 4],
) -> Tensor {
    match proj {
        Some(proj) => proj.run_values(codes, dims),
        None => {
            let values = codes
                .iter()
                .map(|&c| in_q.dequantize(u64::from(c)))
                .collect();
            Tensor::from_vec(values, &dims).expect("one value per code")
        }
    }
}

/// A trained [`ResNet`] lowered to bit-packed integer inference: the stem
/// and every block conv run on the same integer layers as
/// [`CompiledVgg`], with the residual junctions of Fig 2 between them.
/// Like [`CompiledVgg`] it is self-contained and `Send + Sync`.
#[derive(Debug, Clone)]
pub struct CompiledResNet {
    stem: CompiledConv,
    blocks: Vec<CompiledBlock>,
    head: CompiledLinear,
}

impl CompiledResNet {
    /// Lowers `model`, calibrating activation ranges on `calibration`
    /// (shape `[N, C, H, W]` matching the model input).
    ///
    /// # Errors
    ///
    /// Returns [`CompileError`] on unquantized layers (strict mode only),
    /// non-finite weights, or a calibration shape mismatch.
    pub fn compile(
        model: &ResNet,
        calibration: &Tensor,
        options: CompileOptions,
    ) -> Result<Self, CompileError> {
        let in_channels = model.stem().geom().in_channels;
        check_calibration(calibration, in_channels, model.layer_stats()[0].input_hw)?;

        let act_q = frozen_act_quantizer(BitWidth::SIXTEEN, calibration.data());
        let (stem, mut carry_bits) = CompiledConv::lower(model.stem(), act_q, false, options)?;
        let mut x = stem.run_values(&encode_all(calibration.data(), &act_q), nchw(calibration));
        let mut blocks = Vec::new();
        for index in 0..model.block_count() {
            let (block, y, bits) =
                CompiledBlock::lower(model.block_view(index), &x, carry_bits, options)?;
            blocks.push(block);
            (x, carry_bits) = (y, bits);
        }
        let pooled = GlobalAvgPool::new().forward(&x);
        let act_q = frozen_act_quantizer(carry_bits, pooled.data());
        Ok(Self {
            stem,
            blocks,
            head: CompiledLinear::lower(model.head(), act_q, options)?,
        })
    }

    /// Hardware precisions of the datapath layers: stem, then per block
    /// conv1, conv2 and the projection if any, then the classifier.
    pub fn precisions(&self) -> Vec<HwPrecision> {
        let mut out = vec![self.stem.precision];
        for block in &self.blocks {
            out.push(block.conv1.precision);
            out.push(block.conv2.precision);
            out.extend(block.proj.as_ref().map(|p| p.precision));
        }
        out.push(self.head.precision);
        out
    }

    /// Integer-only inference: logits `[N, classes]`.
    ///
    /// # Panics
    ///
    /// Panics if `images` is not `[N, C, H, W]` matching the model.
    pub fn run(&self, images: &Tensor) -> Tensor {
        let codes = encode_all(images.data(), &self.stem.act_q);
        let mut x = self.stem.run_values(&codes, nchw(images));
        for block in &self.blocks {
            x = block.run_values(&encode_all(x.data(), &block.conv1.act_q), nchw(&x));
        }
        let pooled = GlobalAvgPool::new().forward(&x);
        let [n, features] = [pooled.dims()[0], pooled.dims()[1]];
        self.head
            .run_codes(&encode_all(pooled.data(), &self.head.act_q), n, features)
    }
}

/// Encodes a float slice into a `u16` code buffer — the entry into the
/// fused code chain (network input, or calibration activations).
fn encode_all(values: &[f32], quantizer: &Quantizer) -> Vec<u16> {
    let mut codes = vec![0u16; values.len()];
    quantizer.encoder().encode_into(values, &mut codes);
    codes
}

impl CompiledConv {
    /// Output shape `[N, O, H', W']` for an input of shape `dims`, with
    /// the spatial sides halved when `pooled`.
    fn output_dims(&self, dims: [usize; 4], pooled: bool) -> [usize; 4] {
        let [n, _, h, w] = dims;
        let (oh, ow) = (self.geom.output_size(h), self.geom.output_size(w));
        if !pooled {
            return [n, self.geom.out_channels, oh, ow];
        }
        assert!(
            oh % 2 == 0 && ow % 2 == 0,
            "spatial dims {oh}x{ow} not divisible by pool window 2"
        );
        [n, self.geom.out_channels, oh / 2, ow / 2]
    }

    /// The activation quantizer's zero point, which padding taps carry:
    /// what quantizing a zero-padded float buffer would produce.
    fn pad_code(&self) -> u16 {
        self.act_q.quantize(0.0) as u16
    }

    /// Gathers the transposed `[M, fan_in]` code matrix straight from the
    /// NCHW input codes into the GEMM's activation planes — integer
    /// im2col — with each row's code sum. Each byte plane is written in
    /// its own pass, one row of output pixels at a time; rows are padded
    /// to whole groups of 4 taps with zero bytes.
    fn gather_cols(&self, codes: &[u16], dims: [usize; 4]) -> PackedMatrix {
        self.gather_cols_with(TapBody::detect(), codes, dims)
    }

    /// [`CompiledConv::gather_cols`] with a chosen tap body.
    fn gather_cols_with(&self, body: TapBody, codes: &[u16], dims: [usize; 4]) -> PackedMatrix {
        let [n, c, h, w] = dims;
        assert_eq!(
            c, self.geom.in_channels,
            "channel mismatch: input {dims:?} vs geom {:?}",
            self.geom
        );
        assert_eq!(codes.len(), n * c * h * w, "codes must be {dims:?}");
        debug_assert!(
            codes
                .iter()
                .all(|&code| u64::from(code) <= self.container.max_code()),
            "codes overflow {:?}",
            self.container
        );
        let (oh, ow) = (self.geom.output_size(h), self.geom.output_size(w));
        let fan_in = c * self.geom.kernel * self.geom.kernel;
        let k4 = fan_in.next_multiple_of(4);
        let m = n * oh * ow;
        let mut bytes = vec![0u8; self.container.planes() * m * k4];
        let mut row_sums = vec![0u64; m];
        for (p, plane) in bytes.chunks_exact_mut((m * k4).max(1)).enumerate() {
            let shift = 8 * p as u32;
            let pad = (self.pad_code() >> shift) as u8;
            let mut padded = PaddedPlane::new([c, h, w], self.geom, shift, pad);
            let lines = padded.line_starts(self.geom);
            let images = plane
                .chunks_exact_mut((oh * ow * k4).max(1))
                .zip(row_sums.chunks_exact_mut((oh * ow).max(1)));
            for ((image_rows, image_sums), image) in images.zip(codes.chunks_exact(c * h * w)) {
                padded.fill(image, self.geom.padding);
                let blocks = image_rows
                    .chunks_exact_mut(ow * k4)
                    .zip(image_sums.chunks_exact_mut(ow));
                for (oy, (rows, sums)) in blocks.enumerate() {
                    padded.taps(body, self.geom, &lines, oy, rows, k4);
                    padded.add_row_sums(self.geom, oy, sums);
                }
            }
        }
        PackedMatrix::from_row_planes(m, fan_in, self.container, bytes, row_sums)
    }

    /// Shared gather + GEMM + requantization core: the layer's output as
    /// `[M, O]` pixel rows in `(image, oy, ox)` order, a bias-added float
    /// per output channel, ReLU-clamped when the layer has a ReLU.
    fn requantized_rows(&self, codes: &[u16], dims: [usize; 4]) -> Vec<f32> {
        let acts = self.gather_cols(codes, dims);
        let oc = self.geom.out_channels;
        let sum_ca = acts.row_sums();
        let mut values = vec![0f32; acts.rows() * oc];
        // fused ReLU; without one, every value passes the floor
        let floor = if self.relu { 0.0 } else { f32::NEG_INFINITY };
        qgemm_rows(&acts, &self.weights, |mi, accs| {
            let row = &mut values[mi * oc..][..oc];
            self.requant.row_into(accs, sum_ca[mi], floor, row);
        });
        values
    }

    /// Moves `[M, O]` pixel rows of the output of an input of shape
    /// `dims` into the NCHW `out`, merging each value into its cell with
    /// `merge`. When `pooled`, `out` is the 2×2-pooled map, where the
    /// four pixels of a pool window share a cell.
    fn scatter_rows<T: Copy>(
        &self,
        rows: &[T],
        dims: [usize; 4],
        pooled: bool,
        out: &mut [T],
        merge: impl Fn(T, T) -> T,
    ) {
        let [_, oc, plane_h, plane_w] = self.output_dims(dims, pooled);
        let (oh, ow) = (
            self.geom.output_size(dims[2]),
            self.geom.output_size(dims[3]),
        );
        let shift = usize::from(pooled);
        let plane = plane_h * plane_w;
        let pixels =
            (0..oh).flat_map(|y| (0..ow).map(move |x| (y >> shift) * plane_w + (x >> shift)));
        let images = rows.chunks_exact((oh * ow * oc).max(1));
        for (image, maps) in images.zip(out.chunks_exact_mut((oc * plane).max(1))) {
            for (row, cell) in image.chunks_exact(oc).zip(pixels.clone()) {
                for (map, &v) in maps.chunks_exact_mut(plane).zip(row) {
                    map[cell] = merge(map[cell], v);
                }
            }
        }
    }

    /// Serving path: consumes input codes, emits the *next* layer's input
    /// codes directly (fused requantization chain — no float tensor
    /// materializes between layers), max-pooled in the same pass.
    fn run_codes(
        &self,
        codes: &[u16],
        dims: [usize; 4],
        next_enc: &Encoder,
    ) -> (Vec<u16>, [usize; 4]) {
        let values = self.requantized_rows(codes, dims);
        let mut rows = vec![0u16; values.len()];
        next_enc.encode_into(&values, &mut rows);
        let out_dims = self.output_dims(dims, self.pool);
        let mut out = vec![0u16; out_dims.iter().product()];
        // Codes are never negative, so taking the max into a zeroed cell
        // is exactly the 2×2 max-pool (and encoding is monotone, so
        // pooling codes is pooling values); unpooled, each cell is written
        // once.
        self.scatter_rows(&rows, dims, self.pool, &mut out, u16::max);
        (out, out_dims)
    }

    /// Float-output path: same integer datapath, but the requantized
    /// activations are kept as floats — for calibration, so the *next*
    /// layer's quantizer can be fitted on them before its encoder exists,
    /// and for a ResNet junction, which adds them to the skip branch.
    fn run_values(&self, codes: &[u16], dims: [usize; 4]) -> Tensor {
        let values = self.requantized_rows(codes, dims);
        let out_dims = self.output_dims(dims, false);
        let mut staged = vec![0f32; out_dims.iter().product()];
        self.scatter_rows(&values, dims, false, &mut staged, |_, v| v);
        let mut out = Tensor::from_vec(staged, &out_dims).expect("sized above");
        if self.pool {
            let mut pool = MaxPool2d::new(2);
            out = pool.forward(&out);
        }
        out
    }
}

impl CompiledLinear {
    /// Runs the head on flattened `[N, in]` input codes, producing float
    /// logits — the only float tensor the serving chain materializes.
    fn run_codes(&self, codes: &[u16], n: usize, features: usize) -> Tensor {
        assert_eq!(features, self.in_features, "feature mismatch");
        let acts = PackedMatrix::from_codes(codes, n, self.in_features, self.container);
        let o = self.out_features;
        let sum_ca = acts.row_sums();
        let mut out = Tensor::zeros(&[n, o]);
        let dst = out.data_mut();
        qgemm_rows(&acts, &self.weights, |ni, accs| {
            let logits = &mut dst[ni * o..(ni + 1) * o];
            self.requant
                .row_into(accs, sum_ca[ni], f32::NEG_INFINITY, logits);
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adq_nn::QuantModel;
    use adq_quant::QuantRange;
    use adq_tensor::init;

    fn quantized_tiny(bits: &[u32]) -> Vgg {
        let mut model = Vgg::tiny(3, 8, 4, 42);
        for (i, &b) in bits.iter().enumerate() {
            model.set_bits_of(i, Some(BitWidth::new(b).unwrap()));
        }
        model
    }

    #[test]
    fn compile_and_run_shapes() {
        let model = quantized_tiny(&[8, 4, 2, 8]);
        let mut r = init::rng(1);
        let images = init::normal(&[3, 3, 8, 8], 0.0, 1.0, &mut r);
        let compiled = CompiledVgg::compile(&model, &images, CompileOptions::default()).unwrap();
        let logits = compiled.run(&images);
        assert_eq!(logits.dims(), &[3, 4]);
        assert!(logits.data().iter().all(|v| v.is_finite()));
        assert_eq!(compiled.precisions().len(), 4);
        assert_eq!(compiled.input_shape(), (3, 8));
        assert_eq!(compiled.input_len(), 3 * 8 * 8);
    }

    #[test]
    fn containers_snap_to_the_hw_grid() {
        let model = quantized_tiny(&[2, 4, 8, 16]);
        let mut r = init::rng(2);
        let images = init::normal(&[2, 3, 8, 8], 0.0, 1.0, &mut r);
        let compiled = CompiledVgg::compile(&model, &images, CompileOptions::default()).unwrap();
        // first conv reads SIXTEEN-bit network input, so its container is
        // U16 regardless of its 2-bit weights; conv2 reads 2-bit codes
        // with 4-bit weights (Nib); conv3 reads 4-bit with 8-bit (U8);
        // the head reads 8-bit with 16-bit weights (U16)
        assert_eq!(
            compiled.containers(),
            vec![
                Container::U16,
                Container::Nib,
                Container::U8,
                Container::U16
            ]
        );
        assert_eq!(
            compiled.precisions(),
            vec![
                HwPrecision::B2,
                HwPrecision::B4,
                HwPrecision::B8,
                HwPrecision::B16
            ]
        );
        assert!(compiled.packed_weight_bytes() > 0);
    }

    #[test]
    fn strict_mode_rejects_unquantized_layers() {
        let model = Vgg::tiny(3, 8, 4, 7); // no bits assigned
        let images = Tensor::zeros(&[1, 3, 8, 8]);
        let strict = CompileOptions {
            allow_unquantized: false,
        };
        match CompiledVgg::compile(&model, &images, strict) {
            Err(CompileError::Unquantized { layer }) => assert_eq!(layer, "conv1"),
            other => panic!("expected Unquantized error, got {other:?}"),
        }
    }

    #[test]
    fn lenient_mode_counts_fallbacks() {
        let model = Vgg::tiny(3, 8, 4, 8); // no bits assigned
        let mut r = init::rng(3);
        let images = init::normal(&[2, 3, 8, 8], 0.0, 1.0, &mut r);
        let counter = metrics::global().counter("infer.compile.unquantized_fallback");
        let before = counter.get();
        let compiled = CompiledVgg::compile(&model, &images, CompileOptions::default()).unwrap();
        // 3 convs + head all fell back
        assert_eq!(counter.get() - before, 4);
        assert!(compiled.precisions().iter().all(|&p| p == HwPrecision::B16));
    }

    #[test]
    fn calibration_shape_mismatch_is_a_typed_error() {
        let model = quantized_tiny(&[8, 8, 8, 8]);
        let images = Tensor::zeros(&[1, 3, 16, 16]);
        assert!(matches!(
            CompiledVgg::compile(&model, &images, CompileOptions::default()),
            Err(CompileError::Shape(_))
        ));
    }

    #[test]
    fn inference_is_deterministic_across_runs() {
        let model = quantized_tiny(&[8, 4, 8, 8]);
        let mut r = init::rng(4);
        let images = init::normal(&[2, 3, 8, 8], 0.0, 1.0, &mut r);
        let compiled = CompiledVgg::compile(&model, &images, CompileOptions::default()).unwrap();
        let a = compiled.run(&images);
        let b = compiled.run(&images);
        assert_eq!(a, b);
    }

    #[test]
    fn batch_of_one_matches_row_of_batch() {
        // dynamic batching must not change results: running an image alone
        // and inside a batch must produce identical logits, because the
        // quantizers are frozen (not per-batch)
        let model = quantized_tiny(&[8, 4, 2, 8]);
        let mut r = init::rng(5);
        let images = init::normal(&[3, 3, 8, 8], 0.0, 1.0, &mut r);
        let compiled = CompiledVgg::compile(&model, &images, CompileOptions::default()).unwrap();
        let batched = compiled.run(&images);
        for i in 0..3 {
            let one = images.index_axis0(i);
            let solo = compiled.run(&one.reshaped(&[1, 3, 8, 8]).unwrap());
            assert_eq!(
                solo.data(),
                &batched.data()[i * 4..(i + 1) * 4],
                "image {i}"
            );
        }
    }

    const CONTAINERS: [Container; 3] = [Container::Nib, Container::U8, Container::U16];

    /// A conv layer over `geom` in `container`, with seeded weights and an
    /// activation range whose zero point — the padding code — is not 0.
    fn conv_layer(geom: Conv2dGeom, container: Container, pool: bool) -> CompiledConv {
        let bits = BitWidth::new(match container {
            Container::Nib => 4,
            Container::U8 => 8,
            Container::U16 => 16,
        })
        .unwrap();
        let fan_in = geom.in_channels * geom.kernel * geom.kernel;
        let mut r = init::rng(9);
        let weight = init::normal(&[geom.out_channels, fan_in], 0.0, 1.0, &mut r);
        let weight_q = Quantizer::fit(bits, weight.data()).unwrap();
        let act_q = Quantizer::new(bits, QuantRange::new(-1.0, 3.0).unwrap());
        let weights = PackedMatrix::pack_rows(
            weight.data(),
            geom.out_channels,
            fan_in,
            &weight_q,
            container,
        );
        let bias = vec![0.25; geom.out_channels];
        CompiledConv {
            geom,
            requant: Requant::new(&weight_q, &act_q, &weights, &bias),
            weights,
            act_q,
            precision: HwPrecision::legalize(bits),
            container,
            pool,
            relu: true,
        }
    }

    /// Seeded NCHW codes spanning the container's code range.
    fn input_codes(dims: [usize; 4], container: Container, seed: u64) -> Vec<u16> {
        let max = match container {
            Container::Nib => 0xF,
            Container::U8 => 0xFF,
            Container::U16 => 0xFFFF,
        };
        random_codes(dims, max, seed)
    }

    /// Seeded NCHW codes in `0..=max`.
    fn random_codes(dims: [usize; 4], max: u64, seed: u64) -> Vec<u16> {
        let mut state = seed;
        (0..dims.iter().product::<usize>())
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 33) % (max + 1)) as u16
            })
            .collect()
    }

    /// im2col one tap at a time: a row per output pixel, taps in
    /// `(channel, kh, kw)` order, out-of-bounds taps `pad`.
    fn reference_cols(
        codes: &[u16],
        [n, c, h, w]: [usize; 4],
        geom: Conv2dGeom,
        pad: u16,
    ) -> Vec<u16> {
        let (oh, ow, p) = (geom.output_size(h), geom.output_size(w), geom.kernel);
        let mut cols = Vec::new();
        for pixel in 0..n * oh * ow {
            let (ni, oy, ox) = (pixel / (oh * ow), pixel / ow % oh, pixel % ow);
            for tap in 0..c * p * p {
                let (ci, kh, kw) = (tap / (p * p), tap / p % p, tap % p);
                let ih = (oy * geom.stride + kh)
                    .checked_sub(geom.padding)
                    .filter(|&i| i < h);
                let iw = (ox * geom.stride + kw)
                    .checked_sub(geom.padding)
                    .filter(|&i| i < w);
                cols.push(match (ih, iw) {
                    (Some(ih), Some(iw)) => codes[((ni * c + ci) * h + ih) * w + iw],
                    _ => pad,
                });
            }
        }
        cols
    }

    #[test]
    fn fused_gather_matches_a_per_tap_reference() {
        for container in CONTAINERS {
            // two and three input channels leave 2 and 3 taps of each
            // row in its last group of 4, ahead of the zero padding
            for channels in [2, 3] {
                for kernel in [1, 3, 5] {
                    for (stride, padding) in
                        [1, 2].into_iter().flat_map(|s| [0, 1, 2].map(|p| (s, p)))
                    {
                        let geom = Conv2dGeom::new(channels, 4, kernel, stride, padding);
                        let layer = conv_layer(geom, container, false);
                        let dims = [2, channels, 7, 6];
                        let codes = input_codes(dims, container, 31);
                        let pad = layer.pad_code();
                        assert_ne!(pad, 0, "padding taps must differ from code 0");
                        let fan_in = channels * kernel * kernel;
                        let cols = reference_cols(&codes, dims, geom, pad);
                        let want =
                            PackedMatrix::from_codes(&cols, cols.len() / fan_in, fan_in, container);
                        assert_eq!(
                            layer.gather_cols(&codes, dims),
                            want,
                            "{container:?} {geom:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn both_tap_bodies_match_a_per_tap_reference() {
        for container in CONTAINERS {
            // 6 and 17 channels give the vector body whole and partial
            // groups of 16 tap lines
            for channels in [2, 3, 6, 17] {
                for kernel in [1, 3, 5] {
                    for (stride, padding) in
                        [1, 2].into_iter().flat_map(|s| [0, 1, 2].map(|p| (s, p)))
                    {
                        let geom = Conv2dGeom::new(channels, 4, kernel, stride, padding);
                        let layer = conv_layer(geom, container, false);
                        let dims = [2, channels, 7, 6];
                        let codes = input_codes(dims, container, 43);
                        let fan_in = channels * kernel * kernel;
                        let cols = reference_cols(&codes, dims, geom, layer.pad_code());
                        let want =
                            PackedMatrix::from_codes(&cols, cols.len() / fan_in, fan_in, container);
                        for body in [TapBody::Portable, TapBody::detect()] {
                            assert_eq!(
                                layer.gather_cols_with(body, &codes, dims),
                                want,
                                "{body:?} {container:?} {geom:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn fused_pool_equals_pooling_the_unpooled_codes() {
        let next = Quantizer::new(
            BitWidth::new(8).unwrap(),
            QuantRange::new(0.0, 16.0).unwrap(),
        )
        .encoder();
        let geom = Conv2dGeom::new(3, 5, 3, 1, 1);
        let dims = [2, 3, 8, 6];
        for container in CONTAINERS {
            let codes = input_codes(dims, container, 37);
            let (pooled, pooled_dims) =
                conv_layer(geom, container, true).run_codes(&codes, dims, &next);
            let (full, [n, c, h, w]) =
                conv_layer(geom, container, false).run_codes(&codes, dims, &next);
            assert_eq!(pooled_dims, [n, c, h / 2, w / 2]);
            let mut want = Vec::new();
            for plane in full.chunks_exact(h * w) {
                for y in (0..h).step_by(2) {
                    for x in (0..w).step_by(2) {
                        let at = |dy: usize, dx: usize| plane[(y + dy) * w + x + dx];
                        want.push(at(0, 0).max(at(0, 1)).max(at(1, 0)).max(at(1, 1)));
                    }
                }
            }
            assert_eq!(pooled, want, "{container:?}");
            assert!(
                pooled.iter().any(|&code| code > 0) && pooled.iter().any(|&code| code < 255),
                "{container:?}: codes must vary for the check to bite"
            );
        }
    }

    #[test]
    fn non_finite_weights_are_a_typed_error() {
        use adq_nn::Param;
        let model = quantized_tiny(&[8, 8, 8, 8]);
        let images = Tensor::zeros(&[1, 3, 8, 8]);
        for poison in [f32::NAN, f32::INFINITY] {
            let mut bad = model.clone();
            bad.visit_params(&mut |slot: usize, p: &mut Param| {
                if slot == 0 {
                    p.value.data_mut()[0] = poison;
                }
            });
            assert!(matches!(
                CompiledVgg::compile(&bad, &images, CompileOptions::default()),
                Err(CompileError::Quant(_))
            ));
        }
    }

    const BITS: [u32; 4] = [2, 4, 8, 16];

    /// A conv layer at `weight_bits` reading `act_bits` codes, with its
    /// unpacked weight codes. The activation range's zero point — the
    /// padding code — is not 0.
    fn conv_at_bits(
        geom: Conv2dGeom,
        weight_bits: u32,
        act_bits: u32,
        seed: u64,
    ) -> (CompiledConv, Vec<u64>) {
        let fan_in = geom.in_channels * geom.kernel * geom.kernel;
        let weight = init::normal(&[geom.out_channels, fan_in], 0.0, 1.0, &mut init::rng(seed));
        let bits = BitWidth::new(weight_bits).unwrap();
        let act_q = Quantizer::new(
            BitWidth::new(act_bits).unwrap(),
            QuantRange::new(-1.0, 3.0).unwrap(),
        );
        let (weight_q, weights, container) =
            pack_weights(weight.data(), geom.out_channels, fan_in, bits, &act_q).unwrap();
        let codes = weight
            .data()
            .iter()
            .map(|&w| weight_q.quantize(w))
            .collect();
        let bias = vec![0.25; geom.out_channels];
        let layer = CompiledConv {
            geom,
            requant: Requant::new(&weight_q, &act_q, &weights, &bias),
            weights,
            act_q,
            precision: HwPrecision::legalize(bits),
            container,
            pool: false,
            relu: true,
        };
        (layer, codes)
    }

    #[test]
    fn accumulators_and_codes_match_a_scalar_reference_at_every_bit_pair() {
        let dims = [2, 3, 6, 5];
        for (weight_bits, act_bits) in BITS.into_iter().flat_map(|w| BITS.map(|a| (w, a))) {
            for (stride, padding) in [1, 2].into_iter().flat_map(|s| [0, 1].map(|p| (s, p))) {
                let geom = Conv2dGeom::new(3, 4, 3, stride, padding);
                let case = format!("w{weight_bits} a{act_bits} {geom:?}");
                let (layer, weight_codes) = conv_at_bits(geom, weight_bits, act_bits, 40);
                let codes = random_codes(dims, layer.act_q.bits().max_code(), 41);
                let pad = layer.act_q.quantize(0.0) as u16;
                let cols = reference_cols(&codes, dims, geom, pad);
                let (fan_in, oc) = (3 * 3 * 3, geom.out_channels);
                let rows = cols.len() / fan_in;

                // accumulators: qgemm over the fused gather vs a scalar
                // i64 loop over unpacked weight codes and per-tap codes
                let mut want_accs = vec![0i64; rows * oc];
                for (row, taps) in cols.chunks_exact(fan_in).enumerate() {
                    for (o, filter) in weight_codes.chunks_exact(fan_in).enumerate() {
                        want_accs[row * oc + o] = taps
                            .iter()
                            .zip(filter)
                            .map(|(&a, &w)| i64::from(a) * w as i64)
                            .sum();
                    }
                }
                let acts = layer.gather_cols(&codes, dims);
                let mut got_accs = vec![0i64; rows * oc];
                qgemm_rows(&acts, &layer.weights, |mi, accs| {
                    got_accs[mi * oc..(mi + 1) * oc].copy_from_slice(accs);
                });
                assert_eq!(got_accs, want_accs, "{case}");

                // emitted codes: Encoder::encode of the same Requant value
                let values: Vec<f32> = cols
                    .chunks_exact(fan_in)
                    .zip(want_accs.chunks_exact(oc))
                    .flat_map(|(taps, accs)| {
                        let sum = taps.iter().map(|&c| u64::from(c)).sum();
                        let row: Vec<f32> = layer
                            .requant
                            .row(accs, sum)
                            .map(|v| (v as f32).max(0.0))
                            .collect();
                        row
                    })
                    .collect();
                let next = Quantizer::fit(BitWidth::new(8).unwrap(), &values).unwrap();
                let enc = next.encoder();
                let (emitted, [_, _, oh, ow]) = layer.run_codes(&codes, dims, &enc);
                let spatial = oh * ow;
                for (row, chans) in values.chunks_exact(oc).enumerate() {
                    let (ni, s) = (row / spatial, row % spatial);
                    for (o, &v) in chans.iter().enumerate() {
                        let code = emitted[(ni * oc + o) * spatial + s];
                        assert_eq!(u64::from(code), enc.encode(v), "{case} row {row} ch {o}");
                    }
                }
                assert!(
                    emitted.contains(&0) && emitted.iter().any(|&c| c > 0),
                    "{case}: ReLU and requant must both show in the codes"
                );
            }
        }
    }

    /// A seeded stream of `u64`s.
    fn lcg(seed: u64) -> impl FnMut() -> u64 {
        let mut state = seed;
        move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state
        }
    }

    /// `Requant::row` → `as f32` → raised to `floor`, the scalar
    /// reference of both row bodies. The floor is taken as `x > floor ?
    /// x : floor` rather than through `f32::max`, which leaves the ±0 tie
    /// to code generation.
    fn reference_row(requant: &Requant, accs: &[i64], act_sum: u64, floor: f32) -> Vec<u32> {
        requant
            .row(accs, act_sum)
            .map(|v| {
                let x = v as f32;
                if x > floor { x } else { floor }.to_bits()
            })
            .collect()
    }

    #[test]
    fn row_bodies_match_the_scalar_requant_bit_for_bit() {
        let mut next = lcg(77);
        let mut uniform =
            move |lo: f64, hi: f64| lo + (hi - lo) * (next() >> 11) as f64 / (1u64 << 53) as f64;
        let mut accs_rng = lcg(78);
        // the largest accumulator a U16 layer of fan-in `k` can produce,
        // with `k` past 2^21 so the i64 → f64 conversion rounds
        let bound = (1i64 << 22) * 65535 * 65535;
        // (scale, act-sum scale, offset, term spread, cancelling):
        // ordinary layers; a scale so small that values underflow to ±0
        // in f32; one so large they overflow to ±inf; and terms near 1e16
        // whose bias cancels the rest down to a few units, so every f64
        // rounding of the sum shows in the f32 result
        let shapes = [
            (3.1e-5, -0.0123, 0.75, 2.0, false),
            (1.7e-9, 4.2e-4, -3.5, 0.5, false),
            (1e-50, 0.0, 0.0, 1e-47, false),
            (1e300, 1e290, -1e300, 1e300, false),
            (0.75, 3.3, -3.1e15, 2.9e15, true),
        ];
        let (mut negative_zeros, mut infinities) = (0, 0);
        for (scale, act_sum_scale, offset, spread, cancelling) in shapes {
            for len in 1..=70 {
                let accs: Vec<i64> = (0..len)
                    .map(|o| match accs_rng() >> 61 {
                        0 => bound,
                        1 => -bound,
                        2 => (1 << 53) + 1 + o as i64,
                        3 => 0,
                        _ => (accs_rng() as i64 >> 1) % (bound + 1),
                    })
                    .collect();
                let weight_terms: Vec<f64> = (0..len).map(|_| uniform(-spread, spread)).collect();
                let bias = (0..len)
                    .map(|o| match cancelling {
                        true => {
                            let rest = scale * accs[o] as f64
                                + act_sum_scale * 12_345.0
                                + weight_terms[o]
                                + offset;
                            uniform(-4.0, 4.0) - rest
                        }
                        false => uniform(-spread, spread),
                    })
                    .collect();
                let requant = Requant {
                    scale,
                    act_sum_scale,
                    weight_terms,
                    offset,
                    bias,
                };
                for act_sum in [0, 1, 12_345, u64::from(u32::MAX)] {
                    for floor in [0.0, f32::NEG_INFINITY] {
                        let want = reference_row(&requant, &accs, act_sum, floor);
                        negative_zeros += want.iter().filter(|&&b| b == (-0f32).to_bits()).count();
                        infinities += want
                            .iter()
                            .filter(|&&b| f32::from_bits(b).is_infinite())
                            .count();
                        let mut fast = vec![f32::NAN; len];
                        let mut slow = vec![f32::NAN; len];
                        requant.row_into(&accs, act_sum, floor, &mut fast);
                        requant.row_into_portable(&accs, act_sum, floor, &mut slow);
                        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                        let case = format!("len {len} scale {scale} sum {act_sum} floor {floor}");
                        assert_eq!(bits(&slow), want, "portable body, {case}");
                        assert_eq!(bits(&fast), want, "dispatched body, {case}");
                    }
                }
            }
        }
        assert!(
            negative_zeros > 0 && infinities > 0,
            "the cases must reach -0.0 and ±inf: {negative_zeros} {infinities}"
        );
    }

    /// A mixed-precision `ResNet::tiny`: block 0 has an identity skip,
    /// block 1 a projection.
    fn compiled_tiny_resnet(seed: u64) -> (Tensor, CompiledResNet) {
        let mut model = ResNet::tiny(3, 8, 4, seed);
        let bits = [16, 4, 8, 4, 8, 2, 8, 16];
        for (i, &b) in bits.iter().enumerate() {
            model.set_bits_of(i, Some(BitWidth::new(b).unwrap()));
        }
        let images = init::normal(&[3, 3, 8, 8], 0.0, 1.0, &mut init::rng(seed));
        let compiled = CompiledResNet::compile(&model, &images, CompileOptions::default()).unwrap();
        (images, compiled)
    }

    #[test]
    fn junction_matches_a_scalar_decode_quantize_add_relu_encode() {
        let (_, net) = compiled_tiny_resnet(12);
        assert!(net.blocks[0].proj.is_none() && net.blocks[1].proj.is_some());
        let next = [&net.blocks[1].conv1.act_q, &net.head.act_q];
        for (block, next_q) in net.blocks.iter().zip(next) {
            let dims = [2, block.conv1.geom.in_channels, 8, 8];
            let in_q = &block.conv1.act_q;
            let codes = random_codes(dims, in_q.bits().max_code(), 13);
            let (mid, mid_dims) = block
                .conv1
                .run_codes(&codes, dims, &block.conv2.act_q.encoder());
            let main = block.conv2.run_values(&mid, mid_dims);
            let skip: Vec<f32> = match &block.proj {
                Some(proj) => proj.run_values(&codes, dims).data().to_vec(),
                None => codes
                    .iter()
                    .map(|&c| in_q.dequantize(u64::from(c)))
                    .collect(),
            };
            let enc = next_q.encoder();
            let want: Vec<u64> = main
                .data()
                .iter()
                .zip(&skip)
                .map(|(&m, &s)| enc.encode((m + block.skip_q.fake_quantize(s)).max(0.0)))
                .collect();
            let got = encode_all(block.run_values(&codes, dims).data(), next_q);
            let got: Vec<u64> = got.into_iter().map(u64::from).collect();
            assert_eq!(got, want, "proj: {}", block.proj.is_some());
            assert!(want.iter().any(|&c| c > 0), "the junction must pass values");
        }
    }

    #[test]
    fn resnet_compiles_every_conv_and_runs_batch_independently() {
        let (images, net) = compiled_tiny_resnet(14);
        // stem + block0 (2 convs, identity) + block1 (2 convs + proj) + head
        assert_eq!(net.precisions().len(), 1 + 2 + 3 + 1);
        // block 1: conv1, conv2, then the projection at the junction bits
        assert_eq!(
            net.precisions()[3..6],
            [HwPrecision::B8, HwPrecision::B2, HwPrecision::B8]
        );
        let batched = net.run(&images);
        assert_eq!(batched.dims(), &[3, 4]);
        assert!(batched.data().iter().all(|v| v.is_finite()));
        for i in 0..3 {
            let one = images.index_axis0(i).reshaped(&[1, 3, 8, 8]).unwrap();
            assert_eq!(net.run(&one).data(), &batched.data()[i * 4..(i + 1) * 4]);
        }
    }

    #[test]
    fn strict_mode_rejects_an_unquantized_resnet() {
        let model = ResNet::tiny(3, 8, 4, 31); // no bits assigned
        let strict = CompileOptions {
            allow_unquantized: false,
        };
        match CompiledResNet::compile(&model, &Tensor::zeros(&[1, 3, 8, 8]), strict) {
            Err(CompileError::Unquantized { layer }) => assert_eq!(layer, "stem"),
            other => panic!("expected Unquantized error, got {other:?}"),
        }
        assert!(matches!(
            CompiledResNet::compile(&model, &Tensor::zeros(&[1, 3, 16, 16]), strict),
            Err(CompileError::Shape(_))
        ));
    }
}
