//! Lowering a trained [`Vgg`] or [`ResNet`] into one self-contained
//! [`CompiledNet`]: BN-folded weights quantized at each layer's trained
//! bit-width, packed into the bit-width's storage container, plus the
//! frozen requantization parameters the integer kernels need between
//! layers.
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
//! convention of real integer engines. The residual against exact-zero
//! padding is below one activation quantization step per padded tap;
//! `tests/golden_equivalence.rs` bounds the resulting logits.
//!
//! Both models lower the same way, to a list of stages — convs, and a
//! ResNet's residual blocks — then the head. One loop calibrates the
//! stages and one runs them. Calibration is **post-training**: it runs a
//! calibration batch through the integer stages themselves, fits each
//! layer's input range at the carried precision, and freezes it, so
//! results never depend on batch composition.
//!
//! Layers hand codes to each other **channel-last**. A layer's input is
//! a batch of byte planes, each `[n, h + 2·pad, w + 2·pad, c]`, bordered
//! by the layer's padding code (`Planes`). A conv orders its taps `(kh,
//! kw, c)`, and its weights are re-packed in that order once, so the
//! `kw·c` taps of one kernel row are `p·c` adjacent bytes of the plane.
//! The integer GEMM reads each 4-byte group where it lies — an implicit
//! GEMM, with no gathered copy — and each row's code sum comes from a
//! table of per-pixel channel sums. The GEMM's rows are output pixels, so
//! requantize (`Requant::rows_into`), encode ([`Encoder::encode_into`])
//! and the 2×2 max-pool run over contiguous rows and write the next
//! layer's interior directly. The head is a conv whose kernel covers the
//! last map: its `(c, kh, kw)` taps are the model's NCHW flatten.
//!
//! The residual junction (Fig 2) runs in the output pass of a block's
//! second conv, on the same rows: `relu(rows + fq(skip))`, then encode.
//! The skip is the block input's codes, decoded, or its 1×1 projection,
//! which reads the same input batch; `fq` quantizes it at the junction
//! bits with a range frozen at calibration. Only the last junction's
//! output stays float, for the global average pool that feeds the head.
//!
//! The row kernels run in vector lanes where the CPU has them, and give
//! the same bits as their portable bodies (`Requant::rows_into`).

use adq_nn::{ConvBlock, LinearHead, QuantModel, ResNet, ResNetBlockView, Vgg};
use adq_quant::{BitWidth, Encoder, HwPrecision, QuantError, Quantizer};
use adq_telemetry::metrics;
use adq_tensor::{Conv2dGeom, Tensor};

use crate::qgemm::{qgemm_tiles_with, Body, Container, PackedMatrix};

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

/// Checks that a calibration batch is `[N, channels, hw, hw]` with at
/// least one image.
fn check_calibration(calibration: &Tensor, channels: usize, hw: usize) -> Result<(), CompileError> {
    let d = calibration.dims();
    if calibration.rank() == 4 && d[0] > 0 && d[1] == channels && d[2] == hw && d[3] == hw {
        return Ok(());
    }
    Err(CompileError::Shape(format!(
        "calibration batch {d:?} does not match model input [N > 0, {channels}, {hw}, {hw}]"
    )))
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
    /// expression [`Requant::rows_into`] is held to.
    #[cfg(test)]
    fn row<'a>(&'a self, accs: &'a [i64], act_sum: u64) -> impl Iterator<Item = f64> + 'a {
        let row_term = self.act_sum_scale * act_sum as f64;
        accs.iter().zip(&self.weight_terms).zip(&self.bias).map(
            move |((&acc, &weight_term), &bias)| {
                self.scale * acc as f64 + row_term + weight_term + self.offset + bias
            },
        )
    }

    /// Requantizes a tile of activation rows into `out`, one `f32` per
    /// output channel: row `i` reads its accumulators at `accs[i·ld..]`
    /// and its code sum `act_sums[i]`, and writes `out[i·o..(i + 1)·o]`.
    /// Each value is rounded to `f32` and raised to `floor` — `x > floor
    /// ? x : floor`, so NaN gives the floor, and so does `-0.0` under the
    /// floor `0.0`, a fused ReLU (`-inf` passes every other value).
    ///
    /// Where the CPU has AVX-512F and DQ, 8 channels run per step in
    /// `f64` lanes that take the scalar expression's operations in the
    /// same order (convert, multiply, then four separate adds — no FMA —
    /// then one rounding to `f32` and a `max`), so every value has the
    /// bits of the portable body, [`Requant::rows_into_portable`].
    ///
    /// # Panics
    ///
    /// Panics unless every row has one accumulator and one output per
    /// channel.
    fn rows_into(&self, accs: &[i64], ld: usize, act_sums: &[u64], floor: f32, out: &mut [f32]) {
        let (o, rows) = (self.bias.len(), act_sums.len());
        assert!(
            out.len() == rows * o && ld >= o && accs.len() + ld >= rows * ld + o,
            "one accumulator and one output per channel"
        );
        #[cfg(target_arch = "x86_64")]
        if avx512dq_available() {
            // SAFETY: the features were detected at runtime, and the
            // slice lengths were checked above.
            unsafe { self.rows_into_avx512(accs, ld, act_sums, floor, out) };
            return;
        }
        self.rows_into_portable(accs, ld, act_sums, floor, out);
    }

    /// The scalar body of [`Requant::rows_into`].
    fn rows_into_portable(
        &self,
        accs: &[i64],
        ld: usize,
        act_sums: &[u64],
        floor: f32,
        out: &mut [f32],
    ) {
        let o = self.bias.len();
        for (i, (&act_sum, row)) in act_sums.iter().zip(out.chunks_exact_mut(o)).enumerate() {
            let row_term = self.act_sum_scale * act_sum as f64;
            self.floored_from(0, &accs[i * ld..][..o], row_term, floor, row);
        }
    }

    /// Channels `from..` of one row of [`Requant::rows_into_portable`].
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

    /// The AVX-512 body of [`Requant::rows_into`]: 8 channels per step,
    /// scalar tail.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX-512F and AVX-512DQ, and every row must
    /// have one accumulator and one output per channel.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,avx512dq")]
    unsafe fn rows_into_avx512(
        &self,
        accs: &[i64],
        ld: usize,
        act_sums: &[u64],
        floor: f32,
        out: &mut [f32],
    ) {
        use std::arch::x86_64::{
            _mm256_max_ps, _mm256_set1_ps, _mm256_storeu_ps, _mm512_add_pd, _mm512_cvtepi64_pd,
            _mm512_cvtpd_ps, _mm512_loadu_pd, _mm512_loadu_si512, _mm512_mul_pd, _mm512_set1_pd,
        };
        let o = self.bias.len();
        let scale = _mm512_set1_pd(self.scale);
        let offset = _mm512_set1_pd(self.offset);
        let low = _mm256_set1_ps(floor);
        let whole = o / 8 * 8;
        for (i, (&act_sum, row)) in act_sums.iter().zip(out.chunks_exact_mut(o)).enumerate() {
            let accs = &accs[i * ld..][..o];
            let row_term = self.act_sum_scale * act_sum as f64;
            let terms = _mm512_set1_pd(row_term);
            for c in (0..whole).step_by(8) {
                let acc = _mm512_cvtepi64_pd(_mm512_loadu_si512(accs.as_ptr().add(c).cast()));
                let x = _mm512_mul_pd(scale, acc);
                let x = _mm512_add_pd(x, terms);
                let x = _mm512_add_pd(x, _mm512_loadu_pd(self.weight_terms.as_ptr().add(c)));
                let x = _mm512_add_pd(x, offset);
                let x = _mm512_add_pd(x, _mm512_loadu_pd(self.bias.as_ptr().add(c)));
                // vmaxps returns its second operand unless the first is
                // greater: `x > floor ? x : floor`
                let v = _mm256_max_ps(_mm512_cvtpd_ps(x), low);
                _mm256_storeu_ps(row.as_mut_ptr().add(c), v);
            }
            self.floored_from(whole, accs, row_term, floor, row);
        }
    }
}

/// Runtime AVX-512F + DQ detection, resolved once per process.
#[cfg(target_arch = "x86_64")]
fn avx512dq_available() -> bool {
    static AVX512DQ: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *AVX512DQ
        .get_or_init(|| is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512dq"))
}

/// Bytes past each byte plane of a [`Planes`]: the group of 4 that ends
/// a padded tap run may read up to 3 bytes past the plane's last code.
const PLANE_SLACK: usize = 3;

/// A batch of one layer's input codes, channel-last. Each byte plane is
/// `[n, h + 2·border, w + 2·border, c]` bytes, then [`PLANE_SLACK`] zero
/// bytes; the border holds that plane's byte of the layer's padding code
/// (its zero point). A pixel's `c` channels lie side by side, and so do
/// the `kw·c` taps of one kernel row of a convolution window, which the
/// integer GEMM reads where they lie. A layer writes its output codes
/// straight into the next layer's interior; the border is written once,
/// when the batch is made.
#[derive(Debug, Clone)]
struct Planes {
    /// `[n, c, h, w]` of the interior.
    dims: [usize; 4],
    border: usize,
    /// 1, or 2 when the codes need a high byte.
    planes: usize,
    bytes: Vec<u8>,
}

impl Planes {
    /// A batch of `dims` codes in `planes` byte planes, every code still
    /// the border's `pad`.
    fn new(dims: [usize; 4], border: usize, planes: usize, pad: u16) -> Self {
        let mut out = Self {
            dims,
            border,
            planes,
            bytes: Vec::new(),
        };
        let len = out.plane_len();
        assert!(len <= u32::MAX as usize, "plane offsets must fit u32");
        out.bytes = vec![0; planes * len];
        for (p, plane) in out.bytes.chunks_exact_mut(len).enumerate() {
            plane[..len - PLANE_SLACK].fill((pad >> (8 * p)) as u8);
        }
        out
    }

    /// `(h + 2·border, w + 2·border)`.
    fn padded_hw(&self) -> (usize, usize) {
        let [_, _, h, w] = self.dims;
        (h + 2 * self.border, w + 2 * self.border)
    }

    /// Bytes per plane, slack included.
    fn plane_len(&self) -> usize {
        let [n, c, _, _] = self.dims;
        let (hp, wp) = self.padded_hw();
        n * hp * wp * c + PLANE_SLACK
    }

    /// Writes `codes`, row `y` of image `ni` as `[w, c]`, into the
    /// interior.
    fn write_row(&mut self, ni: usize, y: usize, codes: &[u16]) {
        let [n, c, h, w] = self.dims;
        assert!(
            ni < n && y < h && codes.len() == w * c,
            "a row of pixels must lie in the interior"
        );
        debug_assert!(
            codes
                .iter()
                .all(|&code| u32::from(code) >> (8 * self.planes) == 0),
            "codes overflow {} planes",
            self.planes
        );
        let (hp, wp) = self.padded_hw();
        let at = ((ni * hp + y + self.border) * wp + self.border) * c;
        let len = self.plane_len();
        for (p, plane) in self.bytes.chunks_exact_mut(len).enumerate() {
            for (byte, &code) in plane[at..at + codes.len()].iter_mut().zip(codes) {
                *byte = (code >> (8 * p)) as u8;
            }
        }
    }

    /// Writes the whole batch from NCHW codes — the network input's
    /// layout — one row of pixels at a time.
    fn write_nchw(&mut self, codes: &[u16]) {
        let [n, c, h, w] = self.dims;
        assert_eq!(codes.len(), n * c * h * w, "codes must be {:?}", self.dims);
        let mut line = vec![0u16; w * c];
        for ni in 0..n {
            for y in 0..h {
                for (ci, plane) in codes[ni * c * h * w..]
                    .chunks_exact(h * w)
                    .take(c)
                    .enumerate()
                {
                    for (x, &code) in plane[y * w..(y + 1) * w].iter().enumerate() {
                        line[x * c + ci] = code;
                    }
                }
                self.write_row(ni, y, &line);
            }
        }
    }

    /// The code sum of each padded pixel's channels, `[n, h + 2·border,
    /// w + 2·border]`.
    fn pixel_sums(&self) -> Vec<u64> {
        let c = self.dims[1];
        let len = self.plane_len();
        let mut sums = vec![0u64; (len - PLANE_SLACK) / c];
        for (p, plane) in self.bytes.chunks_exact(len).enumerate() {
            for (sum, pixel) in sums.iter_mut().zip(plane.chunks_exact(c)) {
                let bytes: u32 = pixel.iter().map(|&b| u32::from(b)).sum();
                *sum += u64::from(bytes) << (8 * p);
            }
        }
        sums
    }

    /// The interior's codes, channel-last `[n, h, w, c]`.
    fn interior(&self) -> Vec<u16> {
        let [n, c, h, w] = self.dims;
        let (hp, wp) = self.padded_hw();
        let len = self.plane_len();
        let mut out = vec![0u16; n * h * w * c];
        for (row, line) in out.chunks_exact_mut((w * c).max(1)).enumerate() {
            let at = ((row / h * hp + row % h + self.border) * wp + self.border) * c;
            for (p, plane) in self.bytes.chunks_exact(len).enumerate() {
                for (code, &byte) in line.iter_mut().zip(&plane[at..]) {
                    *code |= u16::from(byte) << (8 * p);
                }
            }
        }
        out
    }
}

/// The shape `[n, c, h, w]` of a channel-last `[n, h, w, c]` tensor.
fn channel_last_dims(t: &Tensor) -> [usize; 4] {
    assert_eq!(t.rank(), 4, "values must be [n, h, w, c]");
    let d = t.dims();
    [d[0], d[3], d[1], d[2]]
}

/// One lowered convolution layer — or a classifier head, which runs as
/// a convolution over its whole input map: packed BN-folded weight codes
/// plus the requantization constants of the affine expansion.
#[derive(Debug, Clone)]
pub struct CompiledConv {
    geom: Conv2dGeom,
    /// Packed weight codes, `[O, p·p·I]` in `(kh, kw, c)` order, one run
    /// per kernel row.
    weights: PackedMatrix,
    /// Frozen quantizer for this layer's *input* activations.
    act_q: Quantizer,
    requant: Requant,
    precision: HwPrecision,
    container: Container,
    /// Whether a 2×2 max-pool follows.
    pool: bool,
    /// Whether the output passes through ReLU; a ResNet block's second
    /// conv and projection, and the head, emit pre-activation values.
    relu: bool,
}

impl CompiledConv {
    /// A layer over `geom` with the float model's `[O, I·p·p]` weights in
    /// `(c, kh, kw)` order, quantized at `bits` and packed in `(kh, kw,
    /// c)` order, in the container both they and the activations `act_q`
    /// emits fit in.
    fn from_weights(
        geom: Conv2dGeom,
        weight: &[f32],
        bias: &[f32],
        bits: BitWidth,
        act_q: Quantizer,
        pool: bool,
        relu: bool,
    ) -> Result<Self, CompileError> {
        let Conv2dGeom {
            in_channels: c,
            kernel: p,
            ..
        } = geom;
        let fan_in = c * p * p;
        // tap t = (kh·p + kw)·c + ci is the model's (ci·p + kh)·p + kw
        let taps: Vec<f32> = weight
            .chunks_exact(fan_in)
            .flat_map(|filter| (0..fan_in).map(move |t| filter[t % c * p * p + t / c]))
            .collect();
        let weight_q = Quantizer::fit(bits, weight)?;
        let container = Container::for_max_code(weight_q.bits().max_code())
            .join(Container::for_max_code(act_q.bits().max_code()));
        let weights =
            PackedMatrix::pack_runs(&taps, geom.out_channels, fan_in, p, &weight_q, container);
        Ok(Self {
            geom,
            requant: Requant::new(&weight_q, &act_q, &weights, bias),
            weights,
            act_q,
            precision: HwPrecision::legalize(bits),
            container,
            pool,
            relu,
        })
    }

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
        let relu = block.has_relu();
        let layer =
            Self::from_weights(block.geom(), weight.data(), &bias, bits, act_q, pool, relu)?;
        Ok((layer, bits))
    }

    /// Packs a classifier head at its bit-width, reading its input
    /// features through the frozen `act_q`. The model flattens a
    /// `[channels, side, side]` map NCHW, which is the `(c, kh, kw)` tap
    /// order of a conv whose kernel covers the map: the head runs as one.
    fn lower_head(
        head: &LinearHead,
        act_q: Quantizer,
        [channels, side]: [usize; 2],
        options: CompileOptions,
    ) -> Result<Self, CompileError> {
        let bits = layer_bits(head.name(), head.bits(), options)?;
        assert_eq!(
            channels * side * side,
            head.in_features(),
            "one feature per tap"
        );
        let geom = Conv2dGeom::new(channels, head.out_features(), side, 1, 0);
        let linear = head.linear();
        let (weight, bias) = (linear.weight.value.data(), linear.bias.value.data());
        Self::from_weights(geom, weight, bias, bits, act_q, false, false)
    }

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

    /// An input batch of shape `dims` for this layer, bordered by its
    /// padding code, in as many byte planes as its input codes need.
    fn input(&self, dims: [usize; 4]) -> Planes {
        let planes = Container::for_max_code(self.act_q.bits().max_code()).planes();
        Planes::new(dims, self.geom.padding, planes, self.pad_code())
    }

    /// This layer's input batch holding NCHW `images`, encoded through
    /// its quantizer.
    fn input_nchw(&self, images: &Tensor) -> Planes {
        let mut codes = vec![0u16; images.len()];
        self.act_q.encoder().encode_into(images.data(), &mut codes);
        let mut input = self.input(images.dims().try_into().expect("input must be NCHW"));
        input.write_nchw(&codes);
        input
    }

    /// The GEMM operand of this layer on `input`, read in place — an
    /// implicit im2col. Row `m` is output pixel `(image, oy, ox)`; its
    /// taps are `(kh, kw, c)`, one run of `p·c` codes per kernel row,
    /// starting at padded pixel `(oy·stride + kh, ox·stride)`. A row's
    /// code sum adds the channel sums of the `p × p` pixels under its
    /// window. A border wider than the layer's padding — a projection
    /// reading its block's input — moves every window in by the
    /// difference.
    fn operand(&self, input: Planes) -> PackedMatrix {
        let [n, c, h, w] = input.dims;
        assert!(
            c == self.geom.in_channels && input.border >= self.geom.padding,
            "input {:?} with border {} does not fit {:?}",
            input.dims,
            input.border,
            self.geom
        );
        let Conv2dGeom {
            kernel: p, stride, ..
        } = self.geom;
        let shift = input.border - self.geom.padding;
        let (oh, ow) = (self.geom.output_size(h), self.geom.output_size(w));
        let (hp, wp) = input.padded_hw();
        let run4 = (p * c).next_multiple_of(4);
        let groups = (0..p * run4 / 4)
            .map(|g| (4 * g / run4 * wp * c + 4 * g % run4) as u32)
            .collect();
        let sums = input.pixel_sums();
        let mut starts = Vec::with_capacity(n * oh * ow);
        let mut row_sums = Vec::with_capacity(n * oh * ow);
        // the channel sums of the window rows, per padded column
        let mut cols = vec![0u64; wp];
        for (ni, image) in sums.chunks_exact(hp * wp).enumerate() {
            for oy in 0..oh {
                let top = (oy * stride + shift) * wp;
                let (first, rest) = image[top..top + p * wp].split_at(wp);
                cols.copy_from_slice(first);
                for line in rest.chunks_exact(wp) {
                    for (col, &sum) in cols.iter_mut().zip(line) {
                        *col += sum;
                    }
                }
                let base = ni * hp * wp + top;
                for x in (0..ow).map(|ox| ox * stride + shift) {
                    starts.push(((base + x) * c) as u32);
                    row_sums.push(cols[x..x + p].iter().sum::<u64>());
                }
            }
        }
        PackedMatrix::in_place(
            [n * oh * ow, p * p * c, p],
            self.container,
            input.planes,
            input.bytes,
            starts,
            groups,
            row_sums,
        )
    }

    /// GEMM + requantization on `input`: the layer's output as `[M, O]`
    /// rows, one per output pixel in `(image, oy, ox)` order — already
    /// channel-last — a bias-added float per output channel,
    /// ReLU-clamped when the layer has a ReLU.
    fn requantized_rows(&self, body: Body, input: Planes) -> Vec<f32> {
        let acts = self.operand(input);
        let oc = self.geom.out_channels;
        let sums = acts.row_sums();
        let mut values = vec![0f32; acts.rows() * oc];
        // fused ReLU; without one, every value passes the floor
        let floor = if self.relu { 0.0 } else { f32::NEG_INFINITY };
        qgemm_tiles_with(body, &acts, &self.weights, |m0, accs, ld| {
            let rows = accs.len() / ld;
            let out = &mut values[m0 * oc..(m0 + rows) * oc];
            self.requant
                .rows_into(accs, ld, &sums[m0..m0 + rows], floor, out);
        });
        values
    }

    /// Hands `sink(image, y, pixels)` this layer's output, one row of
    /// pixels at a time: the `[M, O]` `rows` of an input of shape `dims`,
    /// or when the layer pools, their 2×2 max-pool, each window taken as
    /// `max(max(top-left, top-right), max(bottom-left, bottom-right))`.
    /// For a `max` that keeps the first of equals, that is the first
    /// greatest value in `MaxPool2d`'s order, the rows holding no NaN.
    fn pooled_rows<T: Copy + Default>(
        &self,
        rows: &[T],
        dims: [usize; 4],
        max: impl Fn(T, T) -> T,
        mut sink: impl FnMut(usize, usize, &[T]),
    ) {
        let [_, o, oh, ow] = self.output_dims(dims, false);
        let line = (ow * o).max(1);
        if !self.pool {
            for (i, pixels) in rows.chunks_exact(line).enumerate() {
                sink(i / oh, i % oh, pixels);
            }
            return;
        }
        let [.., ph, pw] = self.output_dims(dims, true);
        // each row's pixel pairs, side by side
        let pairs = |row: &[T], out: &mut [T]| {
            let cells = out.chunks_exact_mut(o.max(1));
            for (cell, pair) in cells.zip(row.chunks_exact(2 * o)) {
                let (left, right) = pair.split_at(o);
                for ((v, &l), &r) in cell.iter_mut().zip(left).zip(right) {
                    *v = max(l, r);
                }
            }
        };
        let (mut top, mut bottom) = (vec![T::default(); pw * o], vec![T::default(); pw * o]);
        for (i, pair) in rows.chunks_exact(2 * line).enumerate() {
            pairs(&pair[..line], &mut top);
            pairs(&pair[line..], &mut bottom);
            for (t, &b) in top.iter_mut().zip(&bottom) {
                *t = max(*t, b);
            }
            sink(i / ph, i % ph, &top);
        }
    }

    /// `next`'s input batch holding this layer's output `rows`, on an
    /// input of shape `dims`, encoded through `next`'s quantizer — a
    /// fused requantization chain, no float tensor between layers.
    fn emit(&self, rows: &[f32], dims: [usize; 4], next: &CompiledConv) -> Planes {
        let mut out = next.input(self.output_dims(dims, self.pool));
        self.write_codes(rows, dims, &mut out, &next.act_q.encoder());
        out
    }

    /// Encodes this layer's output `values`, the `[M, O]` rows of an
    /// input of shape `dims`, into `next`'s interior, max-pooled when the
    /// layer pools.
    fn write_codes(&self, values: &[f32], dims: [usize; 4], next: &mut Planes, next_enc: &Encoder) {
        assert_eq!(
            next.dims,
            self.output_dims(dims, self.pool),
            "next batch shape"
        );
        let mut rows = vec![0u16; values.len()];
        next_enc.encode_into(values, &mut rows);
        // Codes are never negative and encoding is monotone, so pooling
        // codes is pooling values.
        self.pooled_rows(&rows, dims, u16::max, |ni, y, pixels| {
            next.write_row(ni, y, pixels)
        });
    }

    /// This layer's output `rows`, on an input of shape `dims`, as
    /// channel-last floats `[n, h', w', o]`, max-pooled when the layer
    /// pools: what calibration fits the next layer's range on, before
    /// its encoder exists, and what a global average pool reads.
    fn pooled_values(&self, rows: &[f32], dims: [usize; 4]) -> Tensor {
        let [n, o, h, w] = self.output_dims(dims, self.pool);
        let mut out = Vec::with_capacity(n * o * h * w);
        // `MaxPool2d`'s comparison: a later value wins only if greater;
        // the requant floor leaves no NaN
        let max = |best: f32, v: f32| if v > best { v } else { best };
        self.pooled_rows(rows, dims, max, |_, _, pixels| {
            out.extend_from_slice(pixels)
        });
        Tensor::from_vec(out, &[n, h, w, o]).expect("one value per output")
    }

    /// A classifier head's logits `[n, classes]` on its input.
    fn logits(&self, input: Planes) -> Tensor {
        let n = input.dims[0];
        let values = self.requantized_rows(Body::detect(), input);
        Tensor::from_vec(values, &[n, self.geom.out_channels]).expect("one logit per class")
    }
}

/// One stage of a model as [`CompiledNet::compile`] walks it.
#[derive(Debug, Clone, Copy)]
enum Part<'a> {
    /// A convolution block, and whether a 2×2 max-pool follows it.
    Conv(&'a ConvBlock, bool),
    /// A residual basic block.
    Block(ResNetBlockView<'a>),
}

/// A [`Vgg`]'s or [`ResNet`]'s stages in the order they run, and its
/// classifier: what [`CompiledNet::compile`] lowers.
#[derive(Debug, Clone)]
pub struct Graph<'a> {
    parts: Vec<Part<'a>>,
    head: &'a LinearHead,
    input_hw: usize,
}

impl<'a> From<&'a Vgg> for Graph<'a> {
    fn from(model: &'a Vgg) -> Self {
        let blocks = model.conv_blocks().iter().enumerate();
        Self {
            parts: blocks
                .map(|(index, block)| Part::Conv(block, model.pool_after(index)))
                .collect(),
            head: model.head(),
            input_hw: model.layer_stats()[0].input_hw,
        }
    }
}

impl<'a> From<&'a ResNet> for Graph<'a> {
    fn from(model: &'a ResNet) -> Self {
        let blocks = (0..model.block_count()).map(|index| Part::Block(model.block_view(index)));
        Self {
            parts: std::iter::once(Part::Conv(model.stem(), false))
                .chain(blocks)
                .collect(),
            head: model.head(),
            input_hw: model.layer_stats()[0].input_hw,
        }
    }
}

/// A stage's output as `[M, O]` rows, before pool and encode, and the
/// shape of the input of the conv that emits them.
type Rows = (Vec<f32>, [usize; 4]);

/// One lowered stage: a conv, and when the stage is a residual basic
/// block, the rest of the block.
#[derive(Debug, Clone)]
struct Stage {
    /// The conv, or the block's first; it reads the stage's input batch.
    conv: CompiledConv,
    residual: Option<Residual>,
}

/// A residual basic block after its first conv.
#[derive(Debug, Clone)]
struct Residual {
    conv2: CompiledConv,
    /// 1×1 projection shortcut; it reads the block input through the
    /// first conv's quantizer.
    proj: Option<CompiledConv>,
    /// Frozen quantizer of the skip branch at the junction bits (Fig 2).
    skip_q: Quantizer,
}

impl Stage {
    /// The conv whose output pass emits the stage's output.
    fn last(&self) -> &CompiledConv {
        self.residual.as_ref().map_or(&self.conv, |r| &r.conv2)
    }

    /// The stage's layers: the conv, then a block's second conv and its
    /// projection if any.
    fn layers(&self) -> impl Iterator<Item = &CompiledConv> {
        let rest = self
            .residual
            .iter()
            .flat_map(|r| std::iter::once(&r.conv2).chain(&r.proj));
        std::iter::once(&self.conv).chain(rest)
    }

    /// The stage's output on `input`; [`Stage::last`] emits the rows.
    fn rows(&self, input: Planes) -> Rows {
        let dims = input.dims;
        let Some(residual) = &self.residual else {
            return (self.conv.requantized_rows(Body::detect(), input), dims);
        };
        let skip = skip_rows(residual.proj.as_ref(), &self.conv.act_q, &input);
        let mid = self.conv.requantized_rows(Body::detect(), input);
        residual.junction(&self.conv, mid, dims, skip)
    }
}

impl Residual {
    /// Lowers the rest of a basic block after its first conv, lowered at
    /// `conv1_bits`, calibrating every range it freezes on the block's
    /// calibration `input`. Also returns the block's output on that
    /// batch, as [`Stage::rows`] does, and the junction bits it is
    /// carried at.
    fn lower(
        view: ResNetBlockView<'_>,
        conv1: &CompiledConv,
        conv1_bits: BitWidth,
        input: Planes,
        options: CompileOptions,
    ) -> Result<(Self, Rows, BitWidth), CompileError> {
        let dims = input.dims;
        let proj = match view.proj {
            Some(p) => Some(CompiledConv::lower(p, conv1.act_q, false, options)?.0),
            None => None,
        };
        let skip = skip_rows(proj.as_ref(), &conv1.act_q, &input);
        let mid = conv1.requantized_rows(Body::detect(), input);
        let mid_q = frozen_act_quantizer(conv1_bits, &mid);
        let (conv2, _) = CompiledConv::lower(view.conv2, mid_q, false, options)?;
        let name = view.conv1.name().trim_end_matches(".conv1");
        let junction_bits = layer_bits(&format!("{name}.junction"), view.junction_bits, options)?;
        let residual = Self {
            conv2,
            proj,
            skip_q: frozen_act_quantizer(junction_bits, &skip),
        };
        let out = residual.junction(conv1, mid, dims, skip);
        Ok((residual, out, junction_bits))
    }

    /// The block after its first conv `conv1`, whose output rows `mid`,
    /// on an input of shape `dims`, are encoded into `conv2`'s input;
    /// `conv2`'s output pass adds the `skip` rows. Returns `relu(main +
    /// fq(skip))`, the skip fake-quantized at the junction bits (Fig 2)
    /// with the range constants hoisted, and the shape of `conv2`'s input.
    fn junction(
        &self,
        conv1: &CompiledConv,
        mid: Vec<f32>,
        dims: [usize; 4],
        mut skip: Vec<f32>,
    ) -> Rows {
        let input = conv1.emit(&mid, dims, &self.conv2);
        let dims = input.dims;
        let mut rows = self.conv2.requantized_rows(Body::detect(), input);
        self.skip_q.fake_quantize_slice(&mut skip);
        for (m, &s) in rows.iter_mut().zip(&skip) {
            *m = (*m + s).max(0.0);
        }
        (rows, dims)
    }
}

/// A trained [`Vgg`] or [`ResNet`] lowered to bit-packed integer
/// inference — weights folded, quantized, and packed; activation ranges
/// calibrated and frozen. Self-contained: holds no reference to the
/// training model and is `Send + Sync`, so a server can share it behind
/// an `Arc`.
#[derive(Debug, Clone)]
pub struct CompiledNet {
    stages: Vec<Stage>,
    /// A conv over the last stage's output map, whose kernel covers the
    /// map; a wider map is global-average-pooled down to one pixel first.
    head: CompiledConv,
    input_hw: usize,
}

/// The name [`CompiledNet`] had while it lowered only a [`Vgg`]. It
/// exists only for the benchmark's sources, which name it; ROADMAP item 2
/// deletes it.
pub type CompiledVgg = CompiledNet;

impl CompiledNet {
    /// Lowers `model`, a `&Vgg` or a `&ResNet`, calibrating activation
    /// ranges on `calibration` (shape `[N, C, H, W]`, `N > 0`, matching
    /// the model input). Each layer's input range is fitted on what the
    /// integer layers before it emit on the calibration batch.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError`] on unquantized layers (strict mode only),
    /// non-finite weights, or a calibration shape mismatch.
    pub fn compile<'a>(
        model: impl Into<Graph<'a>>,
        calibration: &Tensor,
        options: CompileOptions,
    ) -> Result<Self, CompileError> {
        let graph = model.into();
        let (Part::Conv(first, _) | Part::Block(ResNetBlockView { conv1: first, .. })) =
            graph.parts[0];
        check_calibration(calibration, first.geom().in_channels, graph.input_hw)?;

        let mut stages: Vec<Stage> = Vec::new();
        // the last stage's output on the calibration batch, as rows and
        // as channel-last values
        let mut out: Rows = (Vec::new(), [0; 4]);
        let mut x: Option<Tensor> = None;
        // network input is carried at the accelerator's full width
        let mut carry_bits = BitWidth::SIXTEEN;
        for part in graph.parts {
            let act_q = frozen_act_quantizer(carry_bits, x.as_ref().unwrap_or(calibration).data());
            let (block, pool) = match part {
                Part::Conv(block, pool) => (block, pool),
                Part::Block(view) => (view.conv1, false),
            };
            let (conv, bits) = CompiledConv::lower(block, act_q, pool, options)?;
            // the stage's input batch, as its first conv reads it
            let input = match stages.last() {
                None => conv.input_nchw(calibration),
                Some(prev) => prev.last().emit(&out.0, out.1, &conv),
            };
            let mut stage = Stage {
                conv,
                residual: None,
            };
            (out, carry_bits) = match part {
                Part::Conv(..) => (stage.rows(input), bits),
                Part::Block(view) => {
                    let (residual, out, bits) =
                        Residual::lower(view, &stage.conv, bits, input, options)?;
                    stage.residual = Some(residual);
                    (out, bits)
                }
            };
            x = Some(stage.last().pooled_values(&out.0, out.1));
            stages.push(stage);
        }

        let x = x.expect("a network has stages");
        let [_, channels, side, _] = channel_last_dims(&x);
        // a VGG's head reads the flattened map; a ResNet's, one feature
        // per channel, reads the map's global average pool
        let (features, side) = if channels * side * side == graph.head.in_features() {
            (x, side)
        } else {
            (channel_means(&x), 1)
        };
        let act_q = frozen_act_quantizer(carry_bits, features.data());
        Ok(Self {
            stages,
            head: CompiledConv::lower_head(graph.head, act_q, [channels, side], options)?,
            input_hw: graph.input_hw,
        })
    }

    /// Number of output classes.
    pub fn classes(&self) -> usize {
        self.head.geom.out_channels
    }

    /// Expected input shape as `(channels, height/width)`.
    pub fn input_shape(&self) -> (usize, usize) {
        (self.stages[0].conv.geom.in_channels, self.input_hw)
    }

    /// Flattened input length of one image.
    pub fn input_len(&self) -> usize {
        let (channels, hw) = self.input_shape();
        channels * hw * hw
    }

    /// Every layer in datapath order: the convs — a ResNet block's
    /// conv1, conv2, then its projection if any — then the classifier.
    fn layers(&self) -> impl Iterator<Item = &CompiledConv> {
        let convs = self.stages.iter().flat_map(Stage::layers);
        convs.chain(std::iter::once(&self.head))
    }

    /// Hardware precisions the layers execute at, in datapath order.
    pub fn precisions(&self) -> Vec<HwPrecision> {
        self.layers().map(|layer| layer.precision).collect()
    }

    /// Storage containers per layer, in datapath order (diagnostics /
    /// size accounting).
    pub fn containers(&self) -> Vec<Container> {
        self.layers().map(|layer| layer.container).collect()
    }

    /// Total packed weight bytes across all layers.
    pub fn packed_weight_bytes(&self) -> usize {
        self.layers()
            .map(|layer| layer.weights.packed_bytes())
            .sum()
    }

    /// Integer-only inference: logits `[N, classes]`.
    ///
    /// The input is encoded once. Every stage then consumes and emits
    /// integer codes in the next layer's code space, channel-last — a
    /// ResNet junction too. Only the last junction's output, which the
    /// global average pool reads, and the logits are floats.
    ///
    /// # Panics
    ///
    /// Panics if `images` is not `[N, C, H, W]` matching the model.
    pub fn run(&self, images: &Tensor) -> Tensor {
        let (last, rest) = self.stages.split_last().expect("a network has stages");
        let mut input = self.stages[0].conv.input_nchw(images);
        for (stage, next) in rest.iter().zip(&self.stages[1..]) {
            let (rows, dims) = stage.rows(input);
            input = stage.last().emit(&rows, dims, &next.conv);
        }
        let (rows, dims) = last.rows(input);
        let conv = last.last();
        let [.., side, _] = conv.output_dims(dims, conv.pool);
        let features = if side == self.head.geom.kernel {
            conv.emit(&rows, dims, &self.head)
        } else {
            self.head
                .input_nchw(&channel_means(&conv.pooled_values(&rows, dims)))
        };
        self.head.logits(features)
    }
}

/// The skip branch of a block on its input batch, read through `in_q`,
/// before its junction quantization: the projection's pre-activation
/// rows, or the decoded block input — `[M, O]` rows either way, in the
/// order of `conv2`'s.
fn skip_rows(proj: Option<&CompiledConv>, in_q: &Quantizer, input: &Planes) -> Vec<f32> {
    match proj {
        Some(proj) => proj.requantized_rows(Body::detect(), input.clone()),
        None => {
            let codes = input.interior();
            let mut values = vec![0.0; codes.len()];
            in_q.dequantize_slice(&codes, &mut values);
            values
        }
    }
}

/// Global average pool of a channel-last `[n, h, w, c]` tensor: `[n, c,
/// 1, 1]`, each channel's values summed in raster order, the order
/// `GlobalAvgPool` sums an NCHW plane in.
fn channel_means(x: &Tensor) -> Tensor {
    let [n, c, h, w] = channel_last_dims(x);
    let area = h * w;
    let mut out = Vec::with_capacity(n * c);
    for image in x.data().chunks_exact((area * c).max(1)) {
        for ci in 0..c {
            let sum: f32 = image.iter().skip(ci).step_by(c).sum();
            out.push(sum / area as f32);
        }
    }
    Tensor::from_vec(out, &[n, c, 1, 1]).expect("one mean per channel")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qgemm::{qgemm_rows, qgemm_rows_with};
    use adq_nn::QuantModel;
    use adq_quant::QuantRange;
    use adq_tensor::init;
    use proptest::prelude::*;

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
        let compiled = CompiledNet::compile(&model, &images, CompileOptions::default()).unwrap();
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
        let compiled = CompiledNet::compile(&model, &images, CompileOptions::default()).unwrap();
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
        match CompiledNet::compile(&model, &images, strict) {
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
        let compiled = CompiledNet::compile(&model, &images, CompileOptions::default()).unwrap();
        // 3 convs + head all fell back
        assert_eq!(counter.get() - before, 4);
        assert!(compiled.precisions().iter().all(|&p| p == HwPrecision::B16));
    }

    #[test]
    fn calibration_shape_mismatch_is_a_typed_error() {
        let model = quantized_tiny(&[8, 8, 8, 8]);
        // a wrong side, and an empty batch, which would freeze every
        // range at a point and answer all-zero logits
        for dims in [[1, 3, 16, 16], [0, 3, 8, 8]] {
            let images = Tensor::zeros(&dims);
            assert!(matches!(
                CompiledNet::compile(&model, &images, CompileOptions::default()),
                Err(CompileError::Shape(_))
            ));
        }
    }

    #[test]
    fn inference_is_deterministic_across_runs() {
        let model = quantized_tiny(&[8, 4, 8, 8]);
        let mut r = init::rng(4);
        let images = init::normal(&[2, 3, 8, 8], 0.0, 1.0, &mut r);
        let compiled = CompiledNet::compile(&model, &images, CompileOptions::default()).unwrap();
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
        let compiled = CompiledNet::compile(&model, &images, CompileOptions::default()).unwrap();
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
        let bits = match container {
            Container::Nib => 4,
            Container::U8 => 8,
            Container::U16 => 16,
        };
        let (mut layer, _) = conv_at_bits(geom, bits, bits, 9);
        layer.pool = pool;
        assert_eq!(layer.container, container);
        layer
    }

    /// NCHW adapters. The scalar references below index codes and values
    /// NCHW; these move them into and out of the channel-last batches the
    /// layers run on.
    impl Planes {
        /// The code of channel `ci` of padded pixel `(py, px)` of image
        /// `ni`.
        fn padded_code(&self, ni: usize, py: usize, px: usize, ci: usize) -> u16 {
            let c = self.dims[1];
            let (hp, wp) = self.padded_hw();
            let at = ((ni * hp + py) * wp + px) * c + ci;
            (0..self.planes)
                .map(|p| u16::from(self.bytes[p * self.plane_len() + at]) << (8 * p))
                .sum()
        }

        /// The interior as NCHW codes.
        fn nchw_codes(&self) -> Vec<u16> {
            let [n, c, h, w] = self.dims;
            let b = self.border;
            let mut out = Vec::with_capacity(n * c * h * w);
            for ni in 0..n {
                for ci in 0..c {
                    for y in 0..h {
                        out.extend((0..w).map(|x| self.padded_code(ni, y + b, x + b, ci)));
                    }
                }
            }
            out
        }

        /// Every code of the border.
        fn border_codes(&self) -> Vec<u16> {
            let [n, c, h, w] = self.dims;
            let (hp, wp) = self.padded_hw();
            let inside = |py: usize, px: usize| {
                (self.border..self.border + h).contains(&py)
                    && (self.border..self.border + w).contains(&px)
            };
            let mut out = Vec::new();
            for ni in 0..n {
                for py in 0..hp {
                    for px in (0..wp).filter(|&px| !inside(py, px)) {
                        out.extend((0..c).map(|ci| self.padded_code(ni, py, px, ci)));
                    }
                }
            }
            out
        }
    }

    /// A channel-last `[n, h, w, c]` tensor as NCHW.
    fn to_nchw(x: &Tensor) -> Tensor {
        let [n, c, h, w] = channel_last_dims(x);
        let mut out = vec![0f32; x.len()];
        for (i, &v) in x.data().iter().enumerate() {
            let (ni, y, xx, ci) = (i / (h * w * c), i / (w * c) % h, i / c % w, i % c);
            out[((ni * c + ci) * h + y) * w + xx] = v;
        }
        Tensor::from_vec(out, &[n, c, h, w]).unwrap()
    }

    impl CompiledConv {
        /// This layer's input batch holding NCHW `codes`.
        fn input_nchw_codes(&self, codes: &[u16], dims: [usize; 4]) -> Planes {
            let mut input = self.input(dims);
            input.write_nchw(codes);
            input
        }

        /// The layer's GEMM operand on NCHW input codes.
        fn gather_cols(&self, codes: &[u16], dims: [usize; 4]) -> PackedMatrix {
            self.operand(self.input_nchw_codes(codes, dims))
        }

        /// [`CompiledConv::codes_into`] on NCHW codes, returning NCHW
        /// codes.
        fn run_codes(
            &self,
            codes: &[u16],
            dims: [usize; 4],
            next_enc: &Encoder,
        ) -> (Vec<u16>, [usize; 4]) {
            let out_dims = self.output_dims(dims, self.pool);
            let mut next = Planes::new(out_dims, 0, 2, 0);
            let input = self.input_nchw_codes(codes, dims);
            self.codes_into(Body::detect(), input, &mut next, next_enc);
            (next.nchw_codes(), out_dims)
        }

        /// The layer's output values on NCHW codes, returning NCHW
        /// values.
        fn run_values(&self, codes: &[u16], dims: [usize; 4]) -> Tensor {
            let rows = self.requantized_rows(Body::detect(), self.input_nchw_codes(codes, dims));
            to_nchw(&self.pooled_values(&rows, dims))
        }

        /// One layer of the code chain: runs the layer on `input` and
        /// writes the next layer's input codes into `next`'s interior,
        /// max-pooled in the same pass.
        fn codes_into(&self, body: Body, input: Planes, next: &mut Planes, next_enc: &Encoder) {
            let dims = input.dims;
            let values = self.requantized_rows(body, input);
            self.write_codes(&values, dims, next, next_enc);
        }
    }

    /// A residual stage's parts, named as the block's.
    struct Block<'a> {
        conv1: &'a CompiledConv,
        conv2: &'a CompiledConv,
        proj: &'a Option<CompiledConv>,
        skip_q: &'a Quantizer,
        stage: &'a Stage,
    }

    impl Block<'_> {
        /// The block's output on NCHW codes, encoded through `next_q` as
        /// a stage encodes into the next one's input, returning NCHW
        /// codes.
        fn run_codes(&self, codes: &[u16], dims: [usize; 4], next_q: &Quantizer) -> Vec<u16> {
            let input = self.conv1.input_nchw_codes(codes, dims);
            let (rows, mid_dims) = self.stage.rows(input);
            let mut next = Planes::new(self.conv2.output_dims(mid_dims, false), 0, 2, 0);
            self.conv2
                .write_codes(&rows, mid_dims, &mut next, &next_q.encoder());
            next.nchw_codes()
        }
    }

    impl CompiledNet {
        /// The residual blocks, in order.
        fn blocks(&self) -> Vec<Block<'_>> {
            let blocks = self.stages.iter().filter_map(|stage| {
                let residual = stage.residual.as_ref()?;
                Some(Block {
                    conv1: &stage.conv,
                    conv2: &residual.conv2,
                    proj: &residual.proj,
                    skip_q: &residual.skip_q,
                    stage,
                })
            });
            blocks.collect()
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
    fn in_place_operand_reads_the_per_tap_reference() {
        for container in CONTAINERS {
            // 1, 2, 3 and 5 input channels leave runs that end inside a
            // group of 4, whose padding lanes read the next pixel
            for channels in [1, 2, 3, 5, 16] {
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
                        let acts = layer.gather_cols(&codes, dims);
                        assert_eq!(acts.rows(), cols.len() / fan_in, "{container:?} {geom:?}");
                        for (m, taps) in cols.chunks_exact(fan_in).enumerate() {
                            let got: Vec<u16> = (0..fan_in)
                                .map(|t| {
                                    // reference tap (ci, kh, kw) is operand
                                    // tap (kh, kw, ci)
                                    let (ci, tap) = (t / (kernel * kernel), t % (kernel * kernel));
                                    acts.code(m, tap * channels + ci)
                                })
                                .collect();
                            assert_eq!(got, taps, "{container:?} {geom:?} row {m}");
                            let sum: u64 = taps.iter().map(|&c| u64::from(c)).sum();
                            assert_eq!(acts.row_sums()[m], sum, "{container:?} {geom:?} row {m}");
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
                CompiledNet::compile(&bad, &images, CompileOptions::default()),
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
        let weight_q = Quantizer::fit(bits, weight.data()).unwrap();
        let codes = weight
            .data()
            .iter()
            .map(|&w| weight_q.quantize(w))
            .collect();
        let bias = vec![0.25; geom.out_channels];
        let layer =
            CompiledConv::from_weights(geom, weight.data(), &bias, bits, act_q, false, true)
                .unwrap();
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
                        requant.rows_into(&accs, len, &[act_sum], floor, &mut fast);
                        requant.rows_into_portable(&accs, len, &[act_sum], floor, &mut slow);
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
    fn compiled_tiny_resnet(seed: u64) -> (Tensor, CompiledNet) {
        let mut model = ResNet::tiny(3, 8, 4, seed);
        let bits = [16, 4, 8, 4, 8, 2, 8, 16];
        for (i, &b) in bits.iter().enumerate() {
            model.set_bits_of(i, Some(BitWidth::new(b).unwrap()));
        }
        let images = init::normal(&[3, 3, 8, 8], 0.0, 1.0, &mut init::rng(seed));
        let compiled = CompiledNet::compile(&model, &images, CompileOptions::default()).unwrap();
        (images, compiled)
    }

    #[test]
    fn junction_matches_a_scalar_decode_quantize_add_relu_encode() {
        let (_, net) = compiled_tiny_resnet(12);
        assert!(net.blocks()[0].proj.is_none() && net.blocks()[1].proj.is_some());
        let next = [&net.blocks()[1].conv1.act_q, &net.head.act_q];
        for (block, next_q) in net.blocks().into_iter().zip(next) {
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
            let got = block.run_codes(&codes, dims, next_q);
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

    /// 2×2 max-pool of NCHW codes.
    fn pool_codes(codes: &[u16], [n, c, h, w]: [usize; 4]) -> Vec<u16> {
        let mut out = Vec::with_capacity(n * c * h * w / 4);
        for plane in codes.chunks_exact(h * w) {
            for y in (0..h).step_by(2) {
                for x in (0..w).step_by(2) {
                    let at = |dy: usize, dx: usize| plane[(y + dy) * w + x + dx];
                    out.push(at(0, 0).max(at(0, 1)).max(at(1, 0)).max(at(1, 1)));
                }
            }
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        // One channel-last layer against a scalar NCHW reference: per-tap
        // im2col, i64 dot products, `Requant::row`, `Encoder::encode` and a
        // 2×2 max over codes. Most channel counts leave each kernel row's
        // run ending inside a group of 4, whose padding lanes read the
        // next pixel; every bit pair puts codes in each container.
        #[test]
        fn channel_last_layer_matches_a_scalar_nchw_reference(
            (channels, out_channels) in (1usize..=70, 1usize..=20),
            kernel in prop_oneof![Just(1usize), Just(3)],
            (stride, padding) in (1usize..=2, 0usize..=1),
            (pool, relu, batch) in (any::<bool>(), any::<bool>(), 1usize..=3),
            (out_h, out_w) in (1usize..=3, 1usize..=3),
            (weight_pick, act_pick) in (0usize..4, 0usize..4),
            seed in 0u64..1_000_000,
        ) {
            let factor = if pool { 2 } else { 1 };
            let side = |out: usize| {
                ((out * factor - 1) * stride + kernel)
                    .checked_sub(2 * padding)
                    .filter(|&side| side > 0)
            };
            let (Some(h), Some(w)) = (side(out_h), side(out_w)) else {
                return Ok(());
            };
            let geom = Conv2dGeom::new(channels, out_channels, kernel, stride, padding);
            let (weight_bits, act_bits) = (BITS[weight_pick], BITS[act_pick]);
            let (mut layer, weight_codes) = conv_at_bits(geom, weight_bits, act_bits, seed);
            (layer.pool, layer.relu) = (pool, relu);
            let dims = [batch, channels, h, w];
            let codes = random_codes(dims, layer.act_q.bits().max_code(), seed);
            let cols = reference_cols(&codes, dims, geom, layer.pad_code());
            let (fan_in, oc) = (channels * kernel * kernel, out_channels);
            let rows = cols.len() / fan_in;

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
            let floor = if relu { 0.0 } else { f32::NEG_INFINITY };
            let values: Vec<f32> = cols
                .chunks_exact(fan_in)
                .zip(want_accs.chunks_exact(oc))
                .flat_map(|(taps, accs)| {
                    let sum = taps.iter().map(|&c| u64::from(c)).sum();
                    let row: Vec<f32> = layer
                        .requant
                        .row(accs, sum)
                        .map(|v| {
                            let x = v as f32;
                            if x > floor { x } else { floor }
                        })
                        .collect();
                    row
                })
                .collect();
            let enc = frozen_act_quantizer(BitWidth::new(8).unwrap(), &values).encoder();
            let full = layer.output_dims(dims, false);
            let spatial = full[2] * full[3];
            let mut want = vec![0u16; values.len()];
            for (row, chans) in values.chunks_exact(oc).enumerate() {
                let (ni, s) = (row / spatial, row % spatial);
                for (o, &v) in chans.iter().enumerate() {
                    want[(ni * oc + o) * spatial + s] = enc.encode(v) as u16;
                }
            }
            if pool {
                want = pool_codes(&want, full);
            }

            for body in Body::all() {
                let mut got_accs = vec![0i64; rows * oc];
                qgemm_rows_with(body, &layer.gather_cols(&codes, dims), &layer.weights, |mi, accs| {
                    got_accs[mi * oc..(mi + 1) * oc].copy_from_slice(accs);
                });
                prop_assert_eq!(&got_accs, &want_accs, "{:?} accumulators", body);

                // into a bordered batch, as the next layer would read it
                let pad = 0xA5C3;
                let mut next = Planes::new(layer.output_dims(dims, pool), 1, 2, pad);
                let input = layer.input_nchw_codes(&codes, dims);
                layer.codes_into(body, input, &mut next, &enc);
                prop_assert_eq!(next.nchw_codes(), want.clone(), "{:?} codes", body);
                prop_assert!(next.border_codes().iter().all(|&c| c == pad), "{:?} border", body);
            }
        }
    }

    #[test]
    fn strict_mode_rejects_an_unquantized_resnet() {
        let model = ResNet::tiny(3, 8, 4, 31); // no bits assigned
        let strict = CompileOptions {
            allow_unquantized: false,
        };
        match CompiledNet::compile(&model, &Tensor::zeros(&[1, 3, 8, 8]), strict) {
            Err(CompileError::Unquantized { layer }) => assert_eq!(layer, "stem"),
            other => panic!("expected Unquantized error, got {other:?}"),
        }
        assert!(matches!(
            CompiledNet::compile(&model, &Tensor::zeros(&[1, 3, 16, 16]), strict),
            Err(CompileError::Shape(_))
        ));
    }
}
