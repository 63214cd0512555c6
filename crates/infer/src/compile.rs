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
    let enc = quantizer.encoder();
    values.iter().map(|&v| enc.encode(v) as u16).collect()
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
        let ow = self.geom.output_size(w);
        let fan_in = c * self.geom.kernel * self.geom.kernel;
        let k4 = fan_in.next_multiple_of(4);
        let m = n * self.geom.output_size(h) * ow;
        let mut bytes = vec![0u8; self.container.planes() * m * k4];
        let mut row_sums = vec![0u64; m];
        for (p, plane) in bytes.chunks_exact_mut((m * k4).max(1)).enumerate() {
            let shift = 8 * p as u32;
            let mut strip = self.strip(w, shift);
            let blocks = plane
                .chunks_exact_mut(ow * k4)
                .zip(row_sums.chunks_exact_mut(ow));
            for ((rows, sums), (image, oy)) in blocks.zip(self.pixel_rows(codes, dims)) {
                self.gather_pixel_row(image, dims, oy, shift, &mut strip, rows, sums);
            }
        }
        PackedMatrix::from_row_planes(m, fan_in, self.container, bytes, row_sums)
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

    /// Room for the `c·p` input rows one row of output pixels reads, as
    /// the byte `shift` selects, each `padding` lanes wider on both sides;
    /// those border lanes hold that byte of the padding code for good.
    fn strip(&self, w: usize, shift: u32) -> Vec<u8> {
        let Conv2dGeom {
            in_channels,
            kernel,
            padding,
            ..
        } = self.geom;
        vec![(self.pad_code() >> shift) as u8; in_channels * kernel * (w + 2 * padding)]
    }

    /// Writes byte plane `shift / 8` of the im2col rows of output row `oy`
    /// of one image — `ow` rows of `c·p·p` taps in `(channel, kh, kw)`
    /// order, each `k4` bytes apart — into `rows`, and adds the plane's
    /// share of their code sums to `sums`. The input rows they read are
    /// first copied into `strip` (see [`CompiledConv::strip`]), so every
    /// run of `p` taps is one in-bounds copy.
    #[allow(clippy::too_many_arguments)]
    fn gather_pixel_row(
        &self,
        image: &[u16],
        [_, c, h, w]: [usize; 4],
        oy: usize,
        shift: u32,
        strip: &mut [u8],
        rows: &mut [u8],
        sums: &mut [u64],
    ) {
        let Conv2dGeom {
            kernel: p,
            stride,
            padding,
            ..
        } = self.geom;
        let width = w + 2 * padding;
        let pad = (self.pad_code() >> shift) as u8;
        for (j, line) in strip.chunks_exact_mut(width).enumerate() {
            let (ci, kh) = (j / p, j % p);
            // underflow wraps far past `h`, folding both padding sides
            // into one bounds check
            let ih = (oy * stride + kh).wrapping_sub(padding);
            let line = &mut line[padding..padding + w];
            if ih < h {
                let src = &image[(ci * h + ih) * w..][..w];
                for (lane, &code) in line.iter_mut().zip(src) {
                    *lane = (code >> shift) as u8;
                }
            } else {
                line.fill(pad);
            }
        }
        let fan_in = c * p * p;
        let k4 = fan_in.next_multiple_of(4);
        for (ox, (row, sum)) in rows.chunks_exact_mut(k4).zip(sums).enumerate() {
            let row = &mut row[..fan_in];
            let x = ox * stride;
            let runs = row.chunks_exact_mut(p).zip(strip.chunks_exact(width));
            if p == 3 {
                // a fixed-size copy the compiler unrolls; a slice copy per
                // 3-tap run costs more than the taps themselves
                for (taps, line) in runs {
                    let taps: &mut [u8; 3] = taps.try_into().expect("3 taps");
                    *taps = line[x..x + 3].try_into().expect("3 taps");
                }
            } else {
                for (taps, line) in runs {
                    taps.copy_from_slice(&line[x..x + p]);
                }
            }
            *sum += row.iter().map(|&byte| u64::from(byte)).sum::<u64>() << shift;
        }
    }

    /// Shared gather + GEMM + requantization core. Requantizes one output
    /// row at a time — a bias-added float per output channel, ReLU-clamped
    /// when the layer has a ReLU — and hands it to `sink` with the NCHW index of channel 0
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
        // fused ReLU; without one, every value passes the floor
        let floor = if self.relu { 0.0 } else { f32::NEG_INFINITY };
        qgemm_rows(&acts, &self.weights, |mi, accs| {
            let (ni, s) = (mi / spatial, mi % spatial);
            let base = ni * oc * plane + ((s / ow) >> shift) * plane_w + ((s % ow) >> shift);
            for (v, x) in values.iter_mut().zip(self.requant.row(accs, sum_ca[mi])) {
                *v = (x as f32).max(floor);
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

    /// Float-output path: same integer datapath, but the requantized
    /// activations are kept as floats — for calibration, so the *next*
    /// layer's quantizer can be fitted on them before its encoder exists,
    /// and for a ResNet junction, which adds them to the skip branch.
    fn run_values(&self, codes: &[u16], dims: [usize; 4]) -> Tensor {
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
