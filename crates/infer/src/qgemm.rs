//! Bit-packed integer GEMM kernels — the datapath the quantized engine
//! actually executes, as opposed to the `adq-pim` crate's cycle-accounting
//! simulation.
//!
//! All three kernels compute the same quantity: for an activation matrix
//! of integer codes `A = [M, K]` and a weight matrix of integer codes
//! `W = [O, K]` (both row-major), the integer products
//!
//! ```text
//! acc[m, o] = Σ_k A[m, k] · W[o, k]
//! ```
//!
//! which is the only term of the affine-quantized dot product that needs
//! wide arithmetic (see [`crate::compile`] for the requantization chain
//! that turns `acc` back into real values). Codes are unsigned
//! (`0 ..= 2^k − 1`, the convention of [`adq_quant::Quantizer`]), so the
//! kernels are unsigned-integer GEMMs:
//!
//! * **int8** ([`Container::U8`]) — one code per byte, `i32` partial
//!   accumulation in bounded chunks widened into `i64` totals,
//! * **int16** ([`Container::U16`]) — one code per `u16`, `u64`/`i64`
//!   accumulation,
//! * **int4** ([`Container::Nib`]) — two codes per byte (low nibble =
//!   even `k`), `i32` accumulation; 2-bit layers ride this path too
//!   (their codes fit a nibble).
//!
//! Every kernel has a scalar reference body and a runtime-AVX2 body
//! (`_mm256_maddubs_epi16` / `_mm256_madd_epi16` / `_mm256_mul_epu32`
//! inner loops). Integer arithmetic is exact, and the accumulation
//! bounds below rule out overflow in both bodies, so vector and scalar
//! results are **bit-identical** — enforced element-for-element by the
//! proptests in `tests/qgemm_exactness.rs` at every tail length.

use adq_quant::{Encoder, Quantizer};

/// Per-chunk cap on `i32` partial accumulation in the u8 kernels.
///
/// A u8·u8 product is at most `255² = 65 025`; a chunk of 16 384 such
/// products tops out at `1.07e9 < i32::MAX`, and the AVX2 body's worst
/// lane (one eighth of the chunk's pair-sums) stays far below that.
const I32_CHUNK: usize = 16_384;

/// Storage container a layer's codes are packed into, chosen from the
/// widest code either operand can produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Container {
    /// Two 4-bit codes per byte (low nibble first). 2-bit codes ride here.
    Nib,
    /// One code per byte.
    U8,
    /// One code per `u16`.
    U16,
}

impl Container {
    /// The narrowest container that holds codes up to `max_code`.
    pub fn for_max_code(max_code: u64) -> Container {
        if max_code <= 0xF {
            Container::Nib
        } else if max_code <= 0xFF {
            Container::U8
        } else {
            Container::U16
        }
    }

    /// The wider of two containers (operands must share one).
    pub fn join(self, other: Container) -> Container {
        use Container::*;
        match (self, other) {
            (U16, _) | (_, U16) => U16,
            (U8, _) | (_, U8) => U8,
            _ => Nib,
        }
    }

    /// Bytes one row of `k` codes occupies in this container.
    pub fn row_bytes(self, k: usize) -> usize {
        match self {
            Container::Nib => k.div_ceil(2),
            Container::U8 => k,
            Container::U16 => 2 * k,
        }
    }
}

/// Code storage for one packed operand.
#[derive(Debug, Clone, PartialEq)]
pub enum Codes {
    /// Nibble-packed rows, `row_bytes = ceil(k / 2)` each.
    Nib(Vec<u8>),
    /// Byte rows, `k` each.
    U8(Vec<u8>),
    /// `u16` rows, `k` each.
    U16(Vec<u16>),
}

/// A row-major matrix of integer codes plus its per-row code sums — one
/// operand of the integer GEMM. Weights are packed once at compile time;
/// activations are packed per batch.
#[derive(Debug, Clone, PartialEq)]
pub struct PackedMatrix {
    rows: usize,
    k: usize,
    codes: Codes,
    /// `Σ_k codes[row, k]` per row — the cheap side sums the affine
    /// requantization correction needs.
    row_sums: Vec<u64>,
}

impl PackedMatrix {
    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Logical row length (codes per row, before packing).
    pub fn k(&self) -> usize {
        self.k
    }

    /// The container codes are stored in.
    pub fn container(&self) -> Container {
        match self.codes {
            Codes::Nib(_) => Container::Nib,
            Codes::U8(_) => Container::U8,
            Codes::U16(_) => Container::U16,
        }
    }

    /// Per-row code sums (`Σ c` per row).
    pub fn row_sums(&self) -> &[u64] {
        &self.row_sums
    }

    /// Approximate packed size in bytes (codes only).
    pub fn packed_bytes(&self) -> usize {
        self.container().row_bytes(self.k) * self.rows
    }

    /// Packs a row-major `[rows, k]` matrix of real values into integer
    /// codes under `quantizer`, into `container` storage.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != rows * k` or the quantizer's codes
    /// overflow the container.
    pub fn pack_rows(
        values: &[f32],
        rows: usize,
        k: usize,
        quantizer: &Quantizer,
        container: Container,
    ) -> PackedMatrix {
        assert_eq!(values.len(), rows * k, "values must be [rows, k]");
        assert_container_fits(quantizer, container);
        let enc = quantizer.encoder();
        let mut row_sums = vec![0u64; rows];
        let codes = match container {
            Container::U8 => {
                let mut out = vec![0u8; rows * k];
                for ((src, dst), sum) in values
                    .chunks_exact(k.max(1))
                    .zip(out.chunks_exact_mut(k.max(1)))
                    .zip(&mut row_sums)
                {
                    pack_row_u8(src, dst, &enc, sum);
                }
                Codes::U8(out)
            }
            Container::U16 => {
                let mut out = vec![0u16; rows * k];
                for ((src, dst), sum) in values
                    .chunks_exact(k.max(1))
                    .zip(out.chunks_exact_mut(k.max(1)))
                    .zip(&mut row_sums)
                {
                    pack_row_u16(src, dst, &enc, sum);
                }
                Codes::U16(out)
            }
            Container::Nib => {
                let rb = Container::Nib.row_bytes(k);
                let mut out = vec![0u8; rows * rb];
                for ((src, dst), sum) in values
                    .chunks_exact(k.max(1))
                    .zip(out.chunks_exact_mut(rb.max(1)))
                    .zip(&mut row_sums)
                {
                    pack_row_nib(src, dst, &enc, sum);
                }
                Codes::Nib(out)
            }
        };
        PackedMatrix {
            rows,
            k,
            codes,
            row_sums,
        }
    }

    /// Packs a `[k, m]` column-matrix of real values (the layout
    /// [`adq_tensor::im2col`] produces: one column per output pixel) into
    /// the transposed `[m, k]` code matrix the GEMM wants.
    ///
    /// The transpose runs in cache-friendly tiles; the quantization
    /// arithmetic is element-for-element the same as
    /// [`Quantizer::quantize`].
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != k * m` or the quantizer's codes
    /// overflow the container.
    pub fn pack_cols(
        values: &[f32],
        k: usize,
        m: usize,
        quantizer: &Quantizer,
        container: Container,
    ) -> PackedMatrix {
        assert_eq!(values.len(), k * m, "values must be [k, m]");
        assert_container_fits(quantizer, container);
        let enc = quantizer.encoder();
        let mut row_sums = vec![0u64; m];
        // Two passes: encode in the source's contiguous `[k, m]` order
        // (one sequential sweep over the floats — this is the hot
        // per-batch cost of the whole engine), then transpose the small
        // integer codes in cache-friendly tiles. Transposing codes
        // instead of floats keeps the strided traffic at one or two
        // bytes per element.
        let codes = match container {
            Container::U16 => {
                let staged = encode_cols_u16(values, m, &enc, &mut row_sums);
                let mut out = vec![0u16; m * k];
                transpose_u16(&staged, k, m, &mut out);
                Codes::U16(out)
            }
            Container::U8 => {
                let staged = encode_cols_u8(values, m, &enc, &mut row_sums);
                let mut out = vec![0u8; m * k];
                transpose_u8(&staged, k, m, &mut out);
                Codes::U8(out)
            }
            Container::Nib => {
                let staged = encode_cols_u8(values, m, &enc, &mut row_sums);
                let rb = Container::Nib.row_bytes(k);
                let mut out = vec![0u8; m * rb];
                transpose_nib(&staged, k, m, rb, &mut out);
                Codes::Nib(out)
            }
        };
        PackedMatrix {
            rows: m,
            k,
            codes,
            row_sums,
        }
    }

    /// Packs already-quantized codes (row-major `[rows, k]`, one code per
    /// `u16`) into container storage — the integer twin of
    /// [`PackedMatrix::pack_rows`] for the fused requantization chain,
    /// where layers exchange codes and no float quantization happens
    /// between them.
    ///
    /// # Panics
    ///
    /// Panics if `codes.len() != rows * k`; debug-asserts every code fits
    /// the container.
    pub fn from_codes(codes: &[u16], rows: usize, k: usize, container: Container) -> PackedMatrix {
        assert_eq!(codes.len(), rows * k, "codes must be [rows, k]");
        let mut row_sums = vec![0u64; rows];
        let packed = match container {
            Container::U8 => {
                let mut out = vec![0u8; rows * k];
                for ((src, dst), sum) in codes
                    .chunks_exact(k.max(1))
                    .zip(out.chunks_exact_mut(k.max(1)))
                    .zip(&mut row_sums)
                {
                    for (&c, d) in src.iter().zip(dst) {
                        debug_assert!(c <= 0xFF, "code {c} overflows U8");
                        *sum += u64::from(c);
                        *d = c as u8;
                    }
                }
                Codes::U8(out)
            }
            Container::U16 => {
                for (src, sum) in codes.chunks_exact(k.max(1)).zip(&mut row_sums) {
                    for &c in src {
                        *sum += u64::from(c);
                    }
                }
                Codes::U16(codes.to_vec())
            }
            Container::Nib => {
                let rb = Container::Nib.row_bytes(k);
                let mut out = vec![0u8; rows * rb];
                for ((src, dst), sum) in codes
                    .chunks_exact(k.max(1))
                    .zip(out.chunks_exact_mut(rb.max(1)))
                    .zip(&mut row_sums)
                {
                    for (i, &c) in src.iter().enumerate() {
                        debug_assert!(c <= 0xF, "code {c} overflows Nib");
                        *sum += u64::from(c);
                        dst[i / 2] |= (c as u8) << ((i & 1) * 4);
                    }
                }
                Codes::Nib(out)
            }
        };
        PackedMatrix {
            rows,
            k,
            codes: packed,
            row_sums,
        }
    }

    /// Wraps codes a caller already wrote in container layout, with their
    /// row sums — for producers such as the integer im2col gather that
    /// emit packed rows directly.
    pub(crate) fn from_packed(rows: usize, k: usize, codes: Codes, row_sums: Vec<u64>) -> Self {
        let (len, row_len) = match &codes {
            Codes::Nib(c) => (c.len(), Container::Nib.row_bytes(k)),
            Codes::U8(c) => (c.len(), k),
            Codes::U16(c) => (c.len(), k),
        };
        assert_eq!(len, rows * row_len, "codes must be [rows, k] packed");
        assert_eq!(row_sums.len(), rows, "one code sum per row");
        PackedMatrix {
            rows,
            k,
            codes,
            row_sums,
        }
    }
}

/// Tile edge for the code transposes: 64×64 byte tiles sit well inside
/// L1 alongside the staging rows they read.
const TRANSPOSE_TILE: usize = 64;

/// Encodes a `[k, m]` float matrix in source order into u8 codes,
/// accumulating the per-column code sums.
fn encode_cols_u8(values: &[f32], m: usize, enc: &Encoder, row_sums: &mut [u64]) -> Vec<u8> {
    let mut staged = vec![0u8; values.len()];
    for (src, dst) in values
        .chunks_exact(m.max(1))
        .zip(staged.chunks_exact_mut(m.max(1)))
    {
        for ((&x, d), sum) in src.iter().zip(dst).zip(row_sums.iter_mut()) {
            let code = enc.encode(x);
            *sum += code;
            *d = code as u8;
        }
    }
    staged
}

/// u16 twin of [`encode_cols_u8`].
fn encode_cols_u16(values: &[f32], m: usize, enc: &Encoder, row_sums: &mut [u64]) -> Vec<u16> {
    let mut staged = vec![0u16; values.len()];
    for (src, dst) in values
        .chunks_exact(m.max(1))
        .zip(staged.chunks_exact_mut(m.max(1)))
    {
        for ((&x, d), sum) in src.iter().zip(dst).zip(row_sums.iter_mut()) {
            let code = enc.encode(x);
            *sum += code;
            *d = code as u16;
        }
    }
    staged
}

/// Tiled `[k, m]` → `[m, k]` byte transpose.
fn transpose_u8(staged: &[u8], k: usize, m: usize, out: &mut [u8]) {
    for k0 in (0..k).step_by(TRANSPOSE_TILE) {
        let k1 = (k0 + TRANSPOSE_TILE).min(k);
        for m0 in (0..m).step_by(TRANSPOSE_TILE) {
            let m1 = (m0 + TRANSPOSE_TILE).min(m);
            for mm in m0..m1 {
                let dst = &mut out[mm * k..mm * k + k];
                for kk in k0..k1 {
                    dst[kk] = staged[kk * m + mm];
                }
            }
        }
    }
}

/// u16 twin of [`transpose_u8`].
fn transpose_u16(staged: &[u16], k: usize, m: usize, out: &mut [u16]) {
    for k0 in (0..k).step_by(TRANSPOSE_TILE) {
        let k1 = (k0 + TRANSPOSE_TILE).min(k);
        for m0 in (0..m).step_by(TRANSPOSE_TILE) {
            let m1 = (m0 + TRANSPOSE_TILE).min(m);
            for mm in m0..m1 {
                let dst = &mut out[mm * k..mm * k + k];
                for kk in k0..k1 {
                    dst[kk] = staged[kk * m + mm];
                }
            }
        }
    }
}

/// Tiled transpose straight into nibble-packed rows (low nibble = even
/// `k`, trailing pad nibble left zero).
fn transpose_nib(staged: &[u8], k: usize, m: usize, rb: usize, out: &mut [u8]) {
    for k0 in (0..k).step_by(TRANSPOSE_TILE) {
        let k1 = (k0 + TRANSPOSE_TILE).min(k);
        for m0 in (0..m).step_by(TRANSPOSE_TILE) {
            let m1 = (m0 + TRANSPOSE_TILE).min(m);
            for mm in m0..m1 {
                let dst = &mut out[mm * rb..(mm + 1) * rb];
                for kk in k0..k1 {
                    dst[kk / 2] |= staged[kk * m + mm] << ((kk & 1) * 4);
                }
            }
        }
    }
}

fn assert_container_fits(quantizer: &Quantizer, container: Container) {
    let max_code = quantizer.bits().max_code();
    let cap = match container {
        Container::Nib => 0xF,
        Container::U8 => 0xFF,
        Container::U16 => 0xFFFF,
    };
    assert!(
        max_code <= cap,
        "{}-bit codes (max {max_code}) overflow {container:?}",
        quantizer.bits().get()
    );
}

fn pack_row_u8(src: &[f32], dst: &mut [u8], enc: &Encoder, sum: &mut u64) {
    for (d, &x) in dst.iter_mut().zip(src) {
        let code = enc.encode(x);
        *sum += code;
        *d = code as u8;
    }
}

fn pack_row_u16(src: &[f32], dst: &mut [u16], enc: &Encoder, sum: &mut u64) {
    for (d, &x) in dst.iter_mut().zip(src) {
        let code = enc.encode(x);
        *sum += code;
        *d = code as u16;
    }
}

fn pack_row_nib(src: &[f32], dst: &mut [u8], enc: &Encoder, sum: &mut u64) {
    for (i, &x) in src.iter().enumerate() {
        let code = enc.encode(x);
        *sum += code;
        dst[i / 2] |= (code as u8) << ((i & 1) * 4);
    }
}

/// Runs the integer GEMM: for every activation row `m` and weight row
/// `o`, computes `acc = Σ_k A[m, k]·W[o, k]` and calls
/// `emit(m, o, acc)`.
///
/// Both operands must share a container and a `k`; the caller (see
/// [`crate::compile`]) chooses the container as the join of the two
/// quantizers' widths.
///
/// # Panics
///
/// Panics if containers or `k` mismatch.
pub fn qgemm(acts: &PackedMatrix, weights: &PackedMatrix, mut emit: impl FnMut(usize, usize, i64)) {
    qgemm_rows(acts, weights, |m, accs| {
        for (o, &acc) in accs.iter().enumerate() {
            emit(m, o, acc);
        }
    });
}

/// The row form of [`qgemm`]: for every activation row `m`, fills one
/// accumulator per weight row (`accs[o] = Σ_k A[m, k]·W[o, k]`) and calls
/// `emit_row(m, accs)`, so a caller can requantize a whole output row with
/// its row-invariant terms computed once.
///
/// # Panics
///
/// Panics if containers or `k` mismatch.
pub(crate) fn qgemm_rows(
    acts: &PackedMatrix,
    weights: &PackedMatrix,
    mut emit_row: impl FnMut(usize, &[i64]),
) {
    assert_eq!(acts.k, weights.k, "operand k mismatch");
    assert_eq!(
        acts.container(),
        weights.container(),
        "operand container mismatch"
    );
    let k = acts.k;
    let mut accs = vec![0i64; weights.rows];
    match (&acts.codes, &weights.codes) {
        (Codes::U8(a), Codes::U8(w)) => {
            // The u8 path carries the serving workload, so it is blocked
            // over 4 weight rows: one activation load feeds 4 multiply
            // accumulators, and the per-dot horizontal reduction cost is
            // paid once per block instead of once per output. Integer
            // sums are order-independent, so the result stays bit-equal
            // to the plain per-output dot.
            let blocks = weights.rows / 4 * 4;
            for m in 0..acts.rows {
                let a_row = &a[m * k..(m + 1) * k];
                for o in (0..blocks).step_by(4) {
                    accs[o..o + 4].copy_from_slice(&dot4_u8(
                        a_row,
                        [
                            &w[o * k..(o + 1) * k],
                            &w[(o + 1) * k..(o + 2) * k],
                            &w[(o + 2) * k..(o + 3) * k],
                            &w[(o + 3) * k..(o + 4) * k],
                        ],
                    ));
                }
                for (o, acc) in accs.iter_mut().enumerate().skip(blocks) {
                    *acc = dot_u8(a_row, &w[o * k..(o + 1) * k]);
                }
                emit_row(m, &accs);
            }
        }
        (Codes::U16(a), Codes::U16(w)) => {
            for m in 0..acts.rows {
                let a_row = &a[m * k..(m + 1) * k];
                for (o, acc) in accs.iter_mut().enumerate() {
                    *acc = dot_u16(a_row, &w[o * k..(o + 1) * k]);
                }
                emit_row(m, &accs);
            }
        }
        (Codes::Nib(a), Codes::Nib(w)) => {
            let rb = Container::Nib.row_bytes(k);
            for m in 0..acts.rows {
                let a_row = &a[m * rb..(m + 1) * rb];
                for (o, acc) in accs.iter_mut().enumerate() {
                    *acc = dot_nib(a_row, &w[o * rb..(o + 1) * rb]);
                }
                emit_row(m, &accs);
            }
        }
        _ => unreachable!("container mismatch is asserted above"),
    }
}

/// Runtime AVX2 detection, resolved once per process.
#[cfg(target_arch = "x86_64")]
fn avx2_available() -> bool {
    static AVX2: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *AVX2.get_or_init(|| is_x86_feature_detected!("avx2"))
}

/// u8·u8 dot product via the widest available path.
pub fn dot_u8(a: &[u8], w: &[u8]) -> i64 {
    debug_assert_eq!(a.len(), w.len());
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        // SAFETY: the AVX2 feature was detected at runtime.
        return unsafe { dot_u8_avx2(a, w) };
    }
    dot_u8_reference(a, w)
}

/// Scalar u8 reference: `i32` partials over bounded chunks, `i64` total.
pub fn dot_u8_reference(a: &[u8], w: &[u8]) -> i64 {
    let mut total = 0i64;
    for (ac, wc) in a.chunks(I32_CHUNK).zip(w.chunks(I32_CHUNK)) {
        let mut acc = 0i32;
        for (&x, &y) in ac.iter().zip(wc) {
            acc += i32::from(x) * i32::from(y);
        }
        total += i64::from(acc);
    }
    total
}

/// AVX2 u8 dot: 16 codes per step, widened to `i16` lanes and pair-summed
/// into `i32` lanes with `_mm256_madd_epi16` (no saturation: products are
/// at most `255²` and pair sums at most `2·255²`, far inside `i16`-pair ×
/// `i32` headroom given [`I32_CHUNK`]).
///
/// # Safety
///
/// The caller must ensure the CPU supports AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn dot_u8_avx2(a: &[u8], w: &[u8]) -> i64 {
    use std::arch::x86_64::{
        __m128i, __m256i, _mm256_add_epi32, _mm256_cvtepu8_epi16, _mm256_madd_epi16,
        _mm256_setzero_si256, _mm256_storeu_si256, _mm_loadu_si128,
    };
    let mut total = 0i64;
    for (ac, wc) in a.chunks(I32_CHUNK).zip(w.chunks(I32_CHUNK)) {
        let mut acc = _mm256_setzero_si256();
        let mut ai = ac.chunks_exact(16);
        let mut wi = wc.chunks_exact(16);
        for (aq, wq) in (&mut ai).zip(&mut wi) {
            let av = _mm256_cvtepu8_epi16(_mm_loadu_si128(aq.as_ptr() as *const __m128i));
            let wv = _mm256_cvtepu8_epi16(_mm_loadu_si128(wq.as_ptr() as *const __m128i));
            acc = _mm256_add_epi32(acc, _mm256_madd_epi16(av, wv));
        }
        let mut lanes = [0i32; 8];
        _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, acc);
        total += lanes.iter().map(|&v| i64::from(v)).sum::<i64>();
        total += dot_u8_reference(ai.remainder(), wi.remainder());
    }
    total
}

/// Four u8·u8 dot products sharing one activation row — the blocked
/// inner kernel of the u8 GEMM. Bit-equal to four [`dot_u8`] calls.
pub fn dot4_u8(a: &[u8], w: [&[u8]; 4]) -> [i64; 4] {
    for row in &w {
        debug_assert_eq!(a.len(), row.len());
    }
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        // SAFETY: the AVX2 feature was detected at runtime.
        return unsafe { dot4_u8_avx2(a, w) };
    }
    w.map(|row| dot_u8_reference(a, row))
}

/// AVX2 blocked u8 kernel: per 16 activation codes, one widening load is
/// multiply-accumulated against 4 weight rows into 4 independent `i32`
/// lane accumulators (same per-chunk overflow bound as [`dot_u8_avx2`]),
/// reduced once per [`I32_CHUNK`].
///
/// # Safety
///
/// The caller must ensure the CPU supports AVX2. All four weight rows
/// must be at least as long as `a`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn dot4_u8_avx2(a: &[u8], w: [&[u8]; 4]) -> [i64; 4] {
    use std::arch::x86_64::{
        __m128i, __m256i, _mm256_add_epi32, _mm256_cvtepu8_epi16, _mm256_madd_epi16,
        _mm256_setzero_si256, _mm256_storeu_si256, _mm_loadu_si128,
    };
    let mut totals = [0i64; 4];
    let mut start = 0;
    while start < a.len() {
        let end = (start + I32_CHUNK).min(a.len());
        let ac = &a[start..end];
        let mut acc = [_mm256_setzero_si256(); 4];
        let mut ai = ac.chunks_exact(16);
        let mut offset = 0;
        for aq in &mut ai {
            let av = _mm256_cvtepu8_epi16(_mm_loadu_si128(aq.as_ptr() as *const __m128i));
            for j in 0..4 {
                let wq = w[j].as_ptr().add(start + offset) as *const __m128i;
                let wv = _mm256_cvtepu8_epi16(_mm_loadu_si128(wq));
                acc[j] = _mm256_add_epi32(acc[j], _mm256_madd_epi16(av, wv));
            }
            offset += 16;
        }
        let tail = ai.remainder();
        for j in 0..4 {
            let mut lanes = [0i32; 8];
            _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, acc[j]);
            totals[j] += lanes.iter().map(|&v| i64::from(v)).sum::<i64>();
            totals[j] += dot_u8_reference(tail, &w[j][start + offset..end]);
        }
        start = end;
    }
    totals
}

/// u16·u16 dot product via the widest available path.
pub fn dot_u16(a: &[u16], w: &[u16]) -> i64 {
    debug_assert_eq!(a.len(), w.len());
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        // SAFETY: the AVX2 feature was detected at runtime.
        return unsafe { dot_u16_avx2(a, w) };
    }
    dot_u16_reference(a, w)
}

/// Scalar u16 reference: products up to `2³²` accumulate exactly in `u64`.
pub fn dot_u16_reference(a: &[u16], w: &[u16]) -> i64 {
    let mut acc = 0u64;
    for (&x, &y) in a.iter().zip(w) {
        acc += u64::from(x) * u64::from(y);
    }
    acc as i64
}

/// AVX2 u16 dot: 8 codes per step, widened to 32-bit lanes, multiplied
/// with `_mm256_mul_epu32` on even/odd lanes into 64-bit accumulators.
///
/// # Safety
///
/// The caller must ensure the CPU supports AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn dot_u16_avx2(a: &[u16], w: &[u16]) -> i64 {
    use std::arch::x86_64::{
        __m128i, __m256i, _mm256_add_epi64, _mm256_cvtepu16_epi32, _mm256_mul_epu32,
        _mm256_setzero_si256, _mm256_srli_epi64, _mm256_storeu_si256, _mm_loadu_si128,
    };
    let mut acc = _mm256_setzero_si256();
    let mut ai = a.chunks_exact(8);
    let mut wi = w.chunks_exact(8);
    for (aq, wq) in (&mut ai).zip(&mut wi) {
        let av = _mm256_cvtepu16_epi32(_mm_loadu_si128(aq.as_ptr() as *const __m128i));
        let wv = _mm256_cvtepu16_epi32(_mm_loadu_si128(wq.as_ptr() as *const __m128i));
        let even = _mm256_mul_epu32(av, wv);
        let odd = _mm256_mul_epu32(_mm256_srli_epi64::<32>(av), _mm256_srli_epi64::<32>(wv));
        acc = _mm256_add_epi64(acc, _mm256_add_epi64(even, odd));
    }
    let mut lanes = [0u64; 4];
    _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, acc);
    lanes.iter().sum::<u64>() as i64 + dot_u16_reference(ai.remainder(), wi.remainder())
}

/// Nibble-packed dot product via the widest available path. Both rows
/// must be packed with low nibble = even `k`; a trailing half-byte pad
/// is zero in both operands and contributes nothing.
pub fn dot_nib(a: &[u8], w: &[u8]) -> i64 {
    debug_assert_eq!(a.len(), w.len());
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        // SAFETY: the AVX2 feature was detected at runtime.
        return unsafe { dot_nib_avx2(a, w) };
    }
    dot_nib_reference(a, w)
}

/// Scalar nibble reference: products are at most `15² = 225`, so an
/// `i32` accumulator is exact for any realistic row (overflow would
/// need > 4.7M taps; layer fan-ins are thousands).
pub fn dot_nib_reference(a: &[u8], w: &[u8]) -> i64 {
    debug_assert!(
        a.len() < (1 << 22),
        "nibble rows capped well below i32 overflow"
    );
    let mut acc = 0i32;
    for (&ab, &wb) in a.iter().zip(w) {
        acc += i32::from(ab & 0xF) * i32::from(wb & 0xF) + i32::from(ab >> 4) * i32::from(wb >> 4);
    }
    i64::from(acc)
}

/// AVX2 nibble dot: 64 codes (32 packed bytes) per step. Nibbles are
/// masked apart and multiplied with `_mm256_maddubs_epi16` (u8 × "i8"
/// — nibble values are 0..=15, so the signed operand never goes
/// negative and pair sums top out at `2·225 = 450`, far from i16
/// saturation), then pair-summed into `i32` lanes.
///
/// # Safety
///
/// The caller must ensure the CPU supports AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn dot_nib_avx2(a: &[u8], w: &[u8]) -> i64 {
    use std::arch::x86_64::{
        __m256i, _mm256_add_epi32, _mm256_and_si256, _mm256_loadu_si256, _mm256_madd_epi16,
        _mm256_maddubs_epi16, _mm256_set1_epi16, _mm256_set1_epi8, _mm256_setzero_si256,
        _mm256_srli_epi16, _mm256_storeu_si256,
    };
    let lo_mask = _mm256_set1_epi8(0x0F);
    let ones = _mm256_set1_epi16(1);
    let mut acc = _mm256_setzero_si256();
    let mut ai = a.chunks_exact(32);
    let mut wi = w.chunks_exact(32);
    for (aq, wq) in (&mut ai).zip(&mut wi) {
        let av = _mm256_loadu_si256(aq.as_ptr() as *const __m256i);
        let wv = _mm256_loadu_si256(wq.as_ptr() as *const __m256i);
        let alo = _mm256_and_si256(av, lo_mask);
        let wlo = _mm256_and_si256(wv, lo_mask);
        let ahi = _mm256_and_si256(_mm256_srli_epi16::<4>(av), lo_mask);
        let whi = _mm256_and_si256(_mm256_srli_epi16::<4>(wv), lo_mask);
        let plo = _mm256_maddubs_epi16(alo, wlo);
        let phi = _mm256_maddubs_epi16(ahi, whi);
        acc = _mm256_add_epi32(acc, _mm256_madd_epi16(plo, ones));
        acc = _mm256_add_epi32(acc, _mm256_madd_epi16(phi, ones));
    }
    let mut lanes = [0i32; 8];
    _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, acc);
    lanes.iter().map(|&v| i64::from(v)).sum::<i64>()
        + dot_nib_reference(ai.remainder(), wi.remainder())
}

#[cfg(test)]
mod tests {
    use super::*;
    use adq_quant::{BitWidth, QuantRange};

    fn lcg_codes(len: usize, max: u64, seed: u64) -> Vec<u64> {
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 33) % (max + 1)
            })
            .collect()
    }

    fn reference_dot(a: &[u64], w: &[u64]) -> i64 {
        a.iter().zip(w).map(|(&x, &y)| (x * y) as i64).sum()
    }

    #[test]
    fn u8_paths_match_wide_reference_at_every_tail() {
        for len in (0..40).chain([255, 1024, 16_385]) {
            let a = lcg_codes(len, 255, 7);
            let w = lcg_codes(len, 255, 13);
            let a8: Vec<u8> = a.iter().map(|&c| c as u8).collect();
            let w8: Vec<u8> = w.iter().map(|&c| c as u8).collect();
            let want = reference_dot(&a, &w);
            assert_eq!(dot_u8_reference(&a8, &w8), want, "len {len}");
            assert_eq!(dot_u8(&a8, &w8), want, "len {len}");
        }
    }

    #[test]
    fn blocked_u8_kernel_matches_four_plain_dots() {
        for len in (0..40).chain([255, 1024, I32_CHUNK + 17]) {
            let a: Vec<u8> = lcg_codes(len, 255, 23).iter().map(|&c| c as u8).collect();
            let rows: Vec<Vec<u8>> = (0..4)
                .map(|r| {
                    lcg_codes(len, 255, 29 + r)
                        .iter()
                        .map(|&c| c as u8)
                        .collect()
                })
                .collect();
            let got = dot4_u8(&a, [&rows[0], &rows[1], &rows[2], &rows[3]]);
            for j in 0..4 {
                assert_eq!(got[j], dot_u8_reference(&a, &rows[j]), "len {len} row {j}");
            }
        }
        // all-max rows across the chunk straddle
        let len = I32_CHUNK + 5;
        let maxed = vec![255u8; len];
        let got = dot4_u8(&maxed, [&maxed, &maxed, &maxed, &maxed]);
        assert_eq!(got, [len as i64 * 255 * 255; 4]);
    }

    #[test]
    fn u16_paths_match_wide_reference_at_every_tail() {
        for len in (0..24).chain([63, 500]) {
            let a = lcg_codes(len, 65_535, 3);
            let w = lcg_codes(len, 65_535, 5);
            let a16: Vec<u16> = a.iter().map(|&c| c as u16).collect();
            let w16: Vec<u16> = w.iter().map(|&c| c as u16).collect();
            let want = reference_dot(&a, &w);
            assert_eq!(dot_u16_reference(&a16, &w16), want, "len {len}");
            assert_eq!(dot_u16(&a16, &w16), want, "len {len}");
        }
    }

    fn pack_nibbles(codes: &[u64]) -> Vec<u8> {
        let mut out = vec![0u8; codes.len().div_ceil(2)];
        for (i, &c) in codes.iter().enumerate() {
            out[i / 2] |= (c as u8) << ((i & 1) * 4);
        }
        out
    }

    #[test]
    fn nib_paths_match_wide_reference_at_every_tail() {
        for len in (0..80).chain([129, 1000]) {
            let a = lcg_codes(len, 15, 11);
            let w = lcg_codes(len, 15, 17);
            let want = reference_dot(&a, &w);
            let ap = pack_nibbles(&a);
            let wp = pack_nibbles(&w);
            assert_eq!(dot_nib_reference(&ap, &wp), want, "len {len}");
            assert_eq!(dot_nib(&ap, &wp), want, "len {len}");
        }
    }

    #[test]
    fn max_code_rows_do_not_overflow() {
        // all-255 rows at a length straddling the chunk boundary
        let len = I32_CHUNK + 17;
        let a8 = vec![255u8; len];
        assert_eq!(dot_u8(&a8, &a8), len as i64 * 255 * 255);
        let a16 = vec![65_535u16; 100];
        assert_eq!(dot_u16(&a16, &a16), 100i64 * 65_535 * 65_535);
        let nib = vec![0xFFu8; 64];
        assert_eq!(dot_nib(&nib, &nib), 128 * 225);
    }

    fn q(bits: u32, lo: f32, hi: f32) -> Quantizer {
        Quantizer::new(
            BitWidth::new(bits).unwrap(),
            QuantRange::new(lo, hi).unwrap(),
        )
    }

    #[test]
    fn from_codes_matches_pack_rows_in_every_container() {
        for (bits, container) in [
            (4u32, Container::Nib),
            (8, Container::U8),
            (16, Container::U16),
        ] {
            let quant = q(bits, -1.0, 1.0);
            let values: Vec<f32> = (0..60).map(|i| (i as f32) * 0.07 - 2.0).collect();
            let via_floats = PackedMatrix::pack_rows(&values, 5, 12, &quant, container);
            let codes: Vec<u16> = values.iter().map(|&v| quant.quantize(v) as u16).collect();
            let via_codes = PackedMatrix::from_codes(&codes, 5, 12, container);
            assert_eq!(via_codes.row_sums(), via_floats.row_sums(), "{container:?}");
            let mut lhs = Vec::new();
            let mut rhs = Vec::new();
            qgemm(&via_floats, &via_floats, |m, o, acc| lhs.push((m, o, acc)));
            qgemm(&via_codes, &via_codes, |m, o, acc| rhs.push((m, o, acc)));
            assert_eq!(lhs, rhs, "{container:?}");
        }
    }

    #[test]
    fn pack_rows_matches_per_element_quantize() {
        let quant = q(8, -1.0, 1.0);
        let values: Vec<f32> = (0..24).map(|i| (i as f32) / 10.0 - 1.2).collect();
        let packed = PackedMatrix::pack_rows(&values, 4, 6, &quant, Container::U8);
        let Codes::U8(codes) = &packed.codes else {
            panic!("expected U8")
        };
        for (i, &v) in values.iter().enumerate() {
            assert_eq!(u64::from(codes[i]), quant.quantize(v), "element {i}");
        }
        for row in 0..4 {
            let want: u64 = values[row * 6..(row + 1) * 6]
                .iter()
                .map(|&v| quant.quantize(v))
                .sum();
            assert_eq!(packed.row_sums()[row], want, "row {row}");
        }
    }

    #[test]
    fn pack_cols_is_the_transpose_of_pack_rows() {
        let quant = q(4, -2.0, 2.0);
        let (k, m) = (7, 5);
        let col_major: Vec<f32> = (0..k * m).map(|i| (i as f32 * 0.37).sin()).collect();
        // row-major transpose of the same values
        let mut row_major = vec![0f32; k * m];
        for kk in 0..k {
            for mm in 0..m {
                row_major[mm * k + kk] = col_major[kk * m + mm];
            }
        }
        for container in [Container::Nib, Container::U8, Container::U16] {
            let a = PackedMatrix::pack_cols(&col_major, k, m, &quant, container);
            let b = PackedMatrix::pack_rows(&row_major, m, k, &quant, container);
            assert_eq!(a, b, "{container:?}");
        }
    }

    #[test]
    fn qgemm_matches_wide_reference_across_containers() {
        let (m, o, k) = (5, 4, 33);
        let aq = q(4, -1.0, 1.0);
        let wq = q(8, -0.5, 0.5);
        let acts_f: Vec<f32> = (0..m * k).map(|i| (i as f32 * 0.11).cos()).collect();
        let wts_f: Vec<f32> = (0..o * k).map(|i| (i as f32 * 0.07).sin() * 0.5).collect();
        // wide reference from raw codes
        let a_codes: Vec<u64> = acts_f.iter().map(|&v| aq.quantize(v)).collect();
        let w_codes: Vec<u64> = wts_f.iter().map(|&v| wq.quantize(v)).collect();
        let container = Container::for_max_code(aq.bits().max_code())
            .join(Container::for_max_code(wq.bits().max_code()));
        let acts = PackedMatrix::pack_rows(&acts_f, m, k, &aq, container);
        let wts = PackedMatrix::pack_rows(&wts_f, o, k, &wq, container);
        let mut got = vec![0i64; m * o];
        qgemm(&acts, &wts, |mi, oi, acc| got[mi * o + oi] = acc);
        for mi in 0..m {
            for oi in 0..o {
                let want = reference_dot(
                    &a_codes[mi * k..(mi + 1) * k],
                    &w_codes[oi * k..(oi + 1) * k],
                );
                assert_eq!(got[mi * o + oi], want, "m={mi} o={oi}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "container mismatch")]
    fn qgemm_rejects_container_mismatch() {
        let quant = q(4, 0.0, 1.0);
        let a = PackedMatrix::pack_rows(&[0.5; 4], 1, 4, &quant, Container::U8);
        let w = PackedMatrix::pack_rows(&[0.5; 4], 1, 4, &quant, Container::Nib);
        qgemm(&a, &w, |_, _, _| {});
    }

    #[test]
    fn container_join_prefers_wider() {
        assert_eq!(Container::Nib.join(Container::U16), Container::U16);
        assert_eq!(Container::Nib.join(Container::U8), Container::U8);
        assert_eq!(Container::Nib.join(Container::Nib), Container::Nib);
        assert_eq!(Container::for_max_code(3), Container::Nib);
        assert_eq!(Container::for_max_code(255), Container::U8);
        assert_eq!(Container::for_max_code(65_535), Container::U16);
    }
}
