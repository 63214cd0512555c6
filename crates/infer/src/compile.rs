//! Lowering a trained [`Vgg`] into a self-contained [`CompiledVgg`]:
//! BN-folded weights quantized at each layer's trained bit-width, packed
//! into the bit-width's storage container, plus the frozen requantization
//! parameters the integer kernels need between layers.
//!
//! This extends the float-simulated lowering in `adq-core`'s `deploy`
//! module with a datapath that executes real integer arithmetic through
//! [`crate::qgemm`]. The affine algebra is the same one the PIM
//! simulation uses: for uniform affine quantizers `x = x_min + c·s`,
//!
//! ```text
//! Σ fq(w)·fq(a) = s_w·s_a·Σ c_w·c_a
//!               + w_min·s_a·Σ c_a + a_min·s_w·Σ c_w + n·w_min·a_min
//! ```
//!
//! so each output needs one wide integer dot product (the GEMM) plus the
//! cheap per-row code sums [`PackedMatrix`] precomputes. One deliberate
//! difference from the PIM path: convolution padding is quantized like
//! any other activation (its code is `quantize(0.0)`, the zero point), so
//! `n` is the full fan-in — the convention of real integer engines, which
//! pad the code matrix with the zero point rather than skipping taps.
//! The residual against exact-zero padding is below one activation
//! quantization step per padded tap; argmax-level agreement with the
//! float-simulated deployment is enforced by `tests/golden_equivalence.rs`.
//!
//! Activation quantizers are **calibrated post-training**: compilation
//! runs a calibration batch through the integer engine itself, fits each
//! layer's input range at the carried precision, and freezes it. This
//! replaces the per-batch range fitting the training-time simulation uses
//! — a server cannot re-fit ranges per request batch without making
//! results batch-composition-dependent.

use adq_nn::{MaxPool2d, QuantModel, Vgg};
use adq_quant::{BitWidth, Encoder, HwPrecision, QuantError, Quantizer};
use adq_telemetry::metrics;
use adq_tensor::{Conv2dGeom, Tensor};

use crate::qgemm::{qgemm_rows, Codes, Container, PackedMatrix};

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
    /// When `true` (the default, matching `deploy.rs`), layers without a
    /// trained bit-width fall back to 16-bit and bump the
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
/// calibration data falls back to the point range (same convention as
/// `deploy.rs`).
fn frozen_act_quantizer(bits: BitWidth, data: &[f32]) -> Quantizer {
    Quantizer::fit(bits, data).unwrap_or_else(|_| Quantizer::new(bits, Default::default()))
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
    /// channel, from the row's accumulators and code sum.
    #[inline]
    fn row<'a>(&'a self, accs: &'a [i64], act_sum: u64) -> impl Iterator<Item = f64> + 'a {
        let row_term = self.act_sum_scale * act_sum as f64;
        accs.iter().zip(&self.weight_terms).zip(&self.bias).map(
            move |((&acc, &weight_term), &bias)| {
                self.scale * acc as f64 + row_term + weight_term + self.offset + bias
            },
        )
    }
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
        let stats = model.layer_stats();
        let first_geom = model.conv_blocks()[0].geom();
        let input_hw = stats[0].input_hw;
        if calibration.rank() != 4
            || calibration.dims()[1] != first_geom.in_channels
            || calibration.dims()[2] != input_hw
            || calibration.dims()[3] != input_hw
        {
            return Err(CompileError::Shape(format!(
                "calibration batch {:?} does not match model input [N, {}, {input_hw}, {input_hw}]",
                calibration.dims(),
                first_geom.in_channels
            )));
        }

        let mut convs = Vec::new();
        let mut x = calibration.clone();
        // network input is carried at the accelerator's full width
        let mut carry_bits = BitWidth::SIXTEEN;
        for (index, block) in model.conv_blocks().iter().enumerate() {
            let bits = layer_bits(block.name(), block.bits(), options)?;
            let (weight, bias) = block.folded_weight_bias();
            let weight_q = Quantizer::fit(bits, weight.data())?;
            let act_q = frozen_act_quantizer(carry_bits, x.data());
            let container = Container::for_max_code(weight_q.bits().max_code())
                .join(Container::for_max_code(act_q.bits().max_code()));
            let geom = block.geom();
            let fan_in = geom.in_channels * geom.kernel * geom.kernel;
            let weights = PackedMatrix::pack_rows(
                weight.data(),
                geom.out_channels,
                fan_in,
                &weight_q,
                container,
            );
            let layer = CompiledConv {
                geom,
                requant: Requant::new(&weight_q, &act_q, &weights, &bias),
                weights,
                act_q,
                precision: HwPrecision::legalize(bits),
                container,
                pool: model.pool_after(index),
            };
            // calibrate the next layer on this layer's integer output;
            // encoding through the layer's own quantizer is exactly what
            // the serving chain feeds it
            let codes = encode_all(x.data(), &layer.act_q);
            let dims = [x.dims()[0], x.dims()[1], x.dims()[2], x.dims()[3]];
            x = layer.run_calibrate(&codes, dims);
            carry_bits = bits;
            convs.push(layer);
        }

        let head = model.head();
        let bits = layer_bits(head.name(), head.bits(), options)?;
        let linear = head.linear();
        let weight_q = Quantizer::fit(bits, linear.weight.value.data())?;
        let n = x.dims()[0];
        let features = x.len() / n.max(1);
        let flat = x.reshaped(&[n, features]).expect("flatten preserves count");
        let act_q = frozen_act_quantizer(carry_bits, flat.data());
        let container = Container::for_max_code(weight_q.bits().max_code())
            .join(Container::for_max_code(act_q.bits().max_code()));
        let weights = PackedMatrix::pack_rows(
            linear.weight.value.data(),
            head.out_features(),
            head.in_features(),
            &weight_q,
            container,
        );
        let head = CompiledLinear {
            in_features: head.in_features(),
            out_features: head.out_features(),
            requant: Requant::new(&weight_q, &act_q, &weights, linear.bias.value.data()),
            weights,
            act_q,
            precision: HwPrecision::legalize(bits),
            container,
        };

        Ok(Self {
            convs,
            head,
            classes: model.classes(),
            in_channels: first_geom.in_channels,
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
        assert_eq!(images.rank(), 4, "input must be NCHW");
        let d = images.dims();
        let mut dims = [d[0], d[1], d[2], d[3]];
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

/// Encodes a float slice into a `u16` code buffer — the entry into the
/// fused code chain (network input, or calibration activations).
fn encode_all(values: &[f32], quantizer: &Quantizer) -> Vec<u16> {
    let enc = quantizer.encoder();
    values.iter().map(|&v| enc.encode(v) as u16).collect()
}

/// A container lane the integer im2col gather writes codes into.
trait Lane: Copy + Into<u64> {
    fn from_code(code: u16) -> Self;
}

impl Lane for u8 {
    #[inline]
    fn from_code(code: u16) -> Self {
        debug_assert!(code <= 0xFF, "code {code} overflows a byte lane");
        code as u8
    }
}

impl Lane for u16 {
    #[inline]
    fn from_code(code: u16) -> Self {
        code
    }
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
    /// NCHW input codes into the layer's container — integer im2col —
    /// with each row's code sum.
    fn gather_cols(&self, codes: &[u16], dims: [usize; 4]) -> PackedMatrix {
        let [n, c, h, w] = dims;
        assert_eq!(
            c, self.geom.in_channels,
            "channel mismatch: input {dims:?} vs geom {:?}",
            self.geom
        );
        assert_eq!(codes.len(), n * c * h * w, "codes must be {dims:?}");
        let ow = self.geom.output_size(w);
        let fan_in = c * self.geom.kernel * self.geom.kernel;
        let m = n * self.geom.output_size(h) * ow;
        let mut row_sums = vec![0u64; m];
        let packed = match self.container {
            Container::U8 => Codes::U8(self.gather_lanes(codes, dims, &mut row_sums)),
            Container::U16 => Codes::U16(self.gather_lanes(codes, dims, &mut row_sums)),
            Container::Nib => {
                // byte rows, packed low nibble first one row of output
                // pixels at a time; an odd fan-in leaves each row's last
                // high nibble zero
                let rb = Container::Nib.row_bytes(fan_in);
                let mut out = vec![0u8; m * rb];
                let mut strip = self.strip(w);
                let mut bytes = vec![0u8; ow * fan_in];
                let blocks = out
                    .chunks_exact_mut(ow * rb)
                    .zip(row_sums.chunks_exact_mut(ow));
                for ((packed, sums), (image, oy)) in blocks.zip(self.pixel_rows(codes, dims)) {
                    self.gather_pixel_row(image, dims, oy, &mut strip, &mut bytes, sums);
                    for (dst, row) in packed.chunks_exact_mut(rb).zip(bytes.chunks_exact(fan_in)) {
                        for (byte, pair) in dst.iter_mut().zip(row.chunks(2)) {
                            debug_assert!(pair.iter().all(|&code| code <= 0xF), "overflows Nib");
                            *byte = pair[0] | pair.get(1).map_or(0, |&hi| hi << 4);
                        }
                    }
                }
                Codes::Nib(out)
            }
        };
        PackedMatrix::from_packed(m, fan_in, packed, row_sums)
    }

    /// The im2col matrix in `T` lanes, written one row of output pixels
    /// at a time.
    fn gather_lanes<T: Lane>(
        &self,
        codes: &[u16],
        dims: [usize; 4],
        row_sums: &mut [u64],
    ) -> Vec<T> {
        let ow = self.geom.output_size(dims[3]);
        let fan_in = dims[1] * self.geom.kernel * self.geom.kernel;
        let mut out = vec![T::from_code(0); row_sums.len() * fan_in];
        let mut strip = self.strip(dims[3]);
        let blocks = out
            .chunks_exact_mut(ow * fan_in)
            .zip(row_sums.chunks_exact_mut(ow));
        for ((rows, sums), (image, oy)) in blocks.zip(self.pixel_rows(codes, dims)) {
            self.gather_pixel_row(image, dims, oy, &mut strip, rows, sums);
        }
        out
    }

    /// Every output row of every image, as `(image codes, row index)`.
    fn pixel_rows<'a>(
        &self,
        codes: &'a [u16],
        [_, c, h, w]: [usize; 4],
    ) -> impl Iterator<Item = (&'a [u16], usize)> + 'a {
        let oh = self.geom.output_size(h);
        codes
            .chunks_exact(c * h * w)
            .flat_map(move |image| (0..oh).map(move |oy| (image, oy)))
    }

    /// Room for the `c·p` input rows one row of output pixels reads, each
    /// `padding` lanes wider on both sides; those border lanes hold the
    /// padding code for good.
    fn strip<T: Lane>(&self, w: usize) -> Vec<T> {
        let Conv2dGeom {
            in_channels,
            kernel,
            padding,
            ..
        } = self.geom;
        vec![T::from_code(self.pad_code()); in_channels * kernel * (w + 2 * padding)]
    }

    /// Writes the im2col rows of output row `oy` of one image — `ow` rows
    /// of `c·p·p` lanes, taps in `(channel, kh, kw)` order — into `rows`
    /// and their code sums into `sums`. The input rows they read are
    /// first copied into `strip` (see [`CompiledConv::strip`]), so every
    /// run of `p` taps is one in-bounds copy.
    fn gather_pixel_row<T: Lane>(
        &self,
        image: &[u16],
        [_, c, h, w]: [usize; 4],
        oy: usize,
        strip: &mut [T],
        rows: &mut [T],
        sums: &mut [u64],
    ) {
        let Conv2dGeom {
            kernel: p,
            stride,
            padding,
            ..
        } = self.geom;
        let width = w + 2 * padding;
        let pad = T::from_code(self.pad_code());
        for (j, line) in strip.chunks_exact_mut(width).enumerate() {
            let (ci, kh) = (j / p, j % p);
            // underflow wraps far past `h`, folding both padding sides
            // into one bounds check
            let ih = (oy * stride + kh).wrapping_sub(padding);
            let line = &mut line[padding..padding + w];
            if ih < h {
                let src = &image[(ci * h + ih) * w..][..w];
                for (lane, &code) in line.iter_mut().zip(src) {
                    *lane = T::from_code(code);
                }
            } else {
                line.fill(pad);
            }
        }
        for (ox, (row, sum)) in rows.chunks_exact_mut(c * p * p).zip(sums).enumerate() {
            let x = ox * stride;
            let runs = row.chunks_exact_mut(p).zip(strip.chunks_exact(width));
            if p == 3 {
                // a fixed-size copy the compiler unrolls; a slice copy per
                // 3-tap run costs more than the taps themselves
                for (taps, line) in runs {
                    let taps: &mut [T; 3] = taps.try_into().expect("3 taps");
                    *taps = line[x..x + 3].try_into().expect("3 taps");
                }
            } else {
                for (taps, line) in runs {
                    taps.copy_from_slice(&line[x..x + p]);
                }
            }
            *sum = row.iter().map(|&lane| lane.into()).sum();
        }
    }

    /// Shared gather + GEMM + requantization core. Requantizes one output
    /// row at a time — a bias-added, ReLU-clamped float per output
    /// channel — and hands it to `sink` with the NCHW index of channel 0
    /// and the stride between channels. When `pooled` the indices are
    /// those of the 2×2-pooled map, where the four outputs of a pool
    /// window share one index.
    fn forward_into(
        &self,
        codes: &[u16],
        dims: [usize; 4],
        pooled: bool,
        mut sink: impl FnMut(usize, usize, &[f32]),
    ) {
        let acts = self.gather_cols(codes, dims);
        let [_, oc, _, plane_w] = self.output_dims(dims, pooled);
        let (oh, ow) = (
            self.geom.output_size(dims[2]),
            self.geom.output_size(dims[3]),
        );
        let spatial = oh * ow;
        let shift = usize::from(pooled);
        let plane = spatial >> (2 * shift);
        let sum_ca = acts.row_sums();
        let mut values = vec![0f32; oc];
        qgemm_rows(&acts, &self.weights, |mi, accs| {
            let (ni, s) = (mi / spatial, mi % spatial);
            let base = ni * oc * plane + ((s / ow) >> shift) * plane_w + ((s % ow) >> shift);
            // fused ReLU
            for (v, x) in values.iter_mut().zip(self.requant.row(accs, sum_ca[mi])) {
                *v = (x as f32).max(0.0);
            }
            sink(base, plane, &values);
        });
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
        let out_dims = self.output_dims(dims, self.pool);
        let mut out = vec![0u16; out_dims.iter().product()];
        let mut row = vec![0u16; self.geom.out_channels];
        let enc = *next_enc;
        // Codes are never negative, so taking the max into a zeroed cell
        // is exactly the 2×2 max-pool (and encoding is monotone, so
        // pooling codes is pooling values); unpooled, each cell is written
        // once. A row is encoded before it is scattered, which keeps the
        // encode loop free of strided stores.
        self.forward_into(codes, dims, self.pool, |base, plane, values| {
            for (code, &v) in row.iter_mut().zip(values) {
                *code = enc.encode(v) as u16;
            }
            for (cell, &code) in out[base..].iter_mut().step_by(plane).zip(&row) {
                *cell = (*cell).max(code);
            }
        });
        (out, out_dims)
    }

    /// Calibration path: same integer datapath, but the requantized
    /// activations are kept as floats so the *next* layer's quantizer can
    /// be fitted on them before its encoder exists.
    fn run_calibrate(&self, codes: &[u16], dims: [usize; 4]) -> Tensor {
        let out_dims = self.output_dims(dims, false);
        let mut staged = vec![0f32; out_dims.iter().product()];
        self.forward_into(codes, dims, false, |base, plane, values| {
            for (cell, &v) in staged[base..].iter_mut().step_by(plane).zip(values) {
                *cell = v;
            }
        });
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
            for (logit, v) in logits.iter_mut().zip(self.requant.row(accs, sum_ca[ni])) {
                *logit = v as f32;
            }
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
        }
    }

    /// Seeded NCHW codes spanning the container's code range.
    fn input_codes(dims: [usize; 4], container: Container, seed: u64) -> Vec<u16> {
        let max: u64 = match container {
            Container::Nib => 0xF,
            Container::U8 => 0xFF,
            Container::U16 => 0xFFFF,
        };
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
            // three input channels make every fan-in odd, which leaves
            // each nibble row's last high nibble empty; two make it even
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
}
