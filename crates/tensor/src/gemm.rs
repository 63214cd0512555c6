//! Cache-blocked, panel-packed GEMM — the training hot loop's kernel.
//!
//! The naive `ikj` matmul streams all of `B` once per output row and leaves
//! wide-short products serial (its parallel split is over rows only). This
//! module implements the classic three-level blocking scheme instead:
//!
//! * `A` is packed into `MR`-row strips and `B` into `NR`-column strips,
//!   both laid out k-major so the inner kernel reads unit-stride,
//! * a register-tiled micro-kernel computes an `MR × NR` block of `C` with
//!   `MR·NR` scalar accumulators the compiler keeps in vector registers;
//!   where AVX-512F is detected at runtime an explicit 8×16 tile (two `MR`
//!   strips against one `NR` strip) runs instead,
//! * macro-tiles of `MC × NC` outputs are dispatched over a 2-D tile grid
//!   (rows *and* columns), so a `[4, 4096]·[4096, 4096]` product
//!   parallelises even though it has only one row strip.
//!
//! `B` is either a materialised matrix, packed before the kernel runs, or
//! an implicit [`Gather`] — a convolution's column matrix read from a
//! padded input — whose strips are gathered as the kernel consumes them
//! and never packed or stored whole.
//!
//! # Numerical contract
//!
//! For every output element the micro-kernel adds `a[i][l]·b[l][j]` terms in
//! strictly ascending `l` order, loading the partial sum back from `C`
//! between `KC` blocks; the AVX-512 tile rounds each product and each sum
//! separately, exactly as the portable kernel does. This is exactly the association of the serial
//! fallback loops in [`crate::matmul`], so blocked and serial results are
//! **bit-identical** whenever no `±0.0` product lands on a `-0.0` partial
//! sum (the serial `ikj` loops skip zero `a` entries; adding the skipped
//! `±0.0` product can only flip a negative zero to `+0.0`, never change a
//! non-zero value). Dispatch depends only on shapes, never on data or
//! thread count, so whole-run determinism — and with it PR 2's bit-identical
//! checkpoint resume — is preserved.

use std::ops::Range;
use std::sync::{Arc, OnceLock};

use crate::conv::{ConvGemm, PaddedInput};
use crate::plan::Blocking;
use crate::scratch;
use crate::shape::ShapeError;
use crate::tensor::Tensor;
use adq_telemetry::span::{self, SpanGuard};
use adq_telemetry::Counter;
use rayon::prelude::*;

/// Micro-kernel rows: each inner-kernel invocation produces `MR` rows of C.
///
/// `MR·NR = 64` accumulators fill four 16-lane AVX-512 registers (or eight
/// 8-lane AVX2 registers); larger tiles spill the portable kernel's
/// accumulator to the stack and collapse it to scalar speed — measured,
/// not theoretical. The explicit AVX-512 tile pairs two strips (eight
/// accumulator registers).
pub const MR: usize = 4;
/// Micro-kernel columns: each invocation produces `NR` columns of C. One
/// `NR`-wide row is exactly one cache line of f32s.
pub const NR: usize = 16;
/// Default macro-tile rows (multiple of [`MR`]); one parallel task owns
/// `MC` rows. Per-shape plans may override ([`crate::plan`]).
pub const MC: usize = 64;
/// Default macro-tile columns (multiple of [`NR`]); one task owns `NC`
/// columns.
pub const NC: usize = 128;
/// Default k-dimension block: packed panels of `KC·MR`/`KC·NR` floats
/// stay cache resident while the micro-kernel streams them.
pub const KC: usize = 256;

/// Minimum `m·n·k` before the tile grid is dispatched across threads.
/// Tuned when every parallel call spawned its own threads; kept unchanged
/// under the persistent pool so band layouts and results stay identical.
pub(crate) const PAR_TILE_MIN_FLOPS: usize = 1 << 21;

/// Counts one product whose tile grid is handed to the worker pool, in
/// the process-wide `tensor.gemm.par_grids` counter (a one-worker pool
/// runs the grid inline, but the count is the same at any worker count).
fn count_par_grid() {
    static GRIDS: OnceLock<Arc<Counter>> = OnceLock::new();
    GRIDS
        .get_or_init(|| adq_telemetry::metrics::global().counter("tensor.gemm.par_grids"))
        .inc();
}

/// Whether `A` (logically `[m, k]`) is stored transposed (`[k, m]`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AStore {
    /// Row-major `[m, k]`.
    Normal,
    /// Stored `[k, m]` (the `matmul_at_b` left operand).
    Transposed,
}

/// Whether `B` (logically `[k, n]`) is stored transposed (`[n, k]`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BStore {
    /// Row-major `[k, n]`.
    Normal,
    /// Stored `[n, k]` (the `matmul_a_bt` right operand).
    Transposed,
}

/// Raw output pointer shared across tile tasks.
///
/// Safety: the tile grid partitions `C` into disjoint `[rows × cols]`
/// regions — every element is written by exactly one task — so concurrent
/// access through this pointer never overlaps.
#[derive(Clone, Copy)]
struct CPtr(*mut f32);
unsafe impl Send for CPtr {}
unsafe impl Sync for CPtr {}

/// The `B` operand (logically `[k, n]`) of a product.
#[derive(Clone, Copy)]
pub(crate) enum BOperand<'a> {
    /// A materialised matrix in the given storage order, packed into
    /// k-major strips before the kernel runs.
    Matrix(&'a [f32], BStore),
    /// A convolution's column matrix (`cols` for [`ConvGemm::Forward`],
    /// `colsᵀ` for [`ConvGemm::WeightGrad`]), implicit in a padded input
    /// and gathered strip by strip as the kernel needs it.
    Cols(&'a PaddedInput, ConvGemm),
}

/// An implicit `[k, n]` matrix `B[l][j] = src[row_off[l] + col_off[j]]`.
///
/// This is how a convolution's column matrix is read without being
/// written: with `src` the zero-padded input, a tap's offset plus a
/// pixel's offset addresses one element of `im2col`'s output
/// ([`crate::conv`] builds both offset tables). The kernel gathers each
/// `kc × NR` strip into an L1-sized buffer from the running thread's
/// arena right before the row strips consume it, so the matrix is never
/// materialised or re-packed.
#[derive(Clone, Copy)]
pub(crate) struct Gather<'a> {
    src: &'a [f32],
    row_off: &'a [i32],
    col_off: &'a [i32],
}

impl<'a> Gather<'a> {
    /// A gather over `src`, `row_off.len()` rows by `col_off.len()`
    /// columns.
    ///
    /// # Panics
    ///
    /// Panics if `src` is longer than `i32::MAX` elements, an offset is
    /// negative, or some `row_off[l] + col_off[j]` lies outside `src` —
    /// the unchecked gathers below rely on all three.
    pub(crate) fn new(src: &'a [f32], row_off: &'a [i32], col_off: &'a [i32]) -> Self {
        assert!(
            i32::try_from(src.len()).is_ok(),
            "gather source of {} elements exceeds i32 offsets",
            src.len()
        );
        let max = |off: &[i32]| -> usize {
            off.iter()
                .map(|&o| usize::try_from(o).expect("gather offsets are non-negative"))
                .max()
                .unwrap_or(0)
        };
        if !row_off.is_empty() && !col_off.is_empty() {
            assert!(
                max(row_off) + max(col_off) < src.len(),
                "gather offsets reach past the source"
            );
        }
        Self {
            src,
            row_off,
            col_off,
        }
    }

    /// Writes rows `k0..k0 + kc` of columns `j0..j0 + cols` into `out` in
    /// the packed layout (`kc` rows of `NR` floats, columns past `cols`
    /// zeroed), via the widest available path.
    fn strip(&self, k0: usize, kc: usize, j0: usize, cols: usize, out: &mut [f32]) {
        #[cfg(target_arch = "x86_64")]
        if avx512_available() {
            // SAFETY: AVX-512F was detected at runtime; `Gather::new`
            // checked every offset sum against `src`.
            unsafe { gather_strip_avx512(self, k0, kc, j0, cols, out) };
            return;
        }
        gather_strip_scalar(self, k0, kc, j0, cols, out);
    }
}

/// The portable strip gather, the reference [`gather_strip_avx512`] must
/// match.
fn gather_strip_scalar(g: &Gather, k0: usize, kc: usize, j0: usize, cols: usize, out: &mut [f32]) {
    let col_off = &g.col_off[j0..j0 + cols];
    for (dst, &base) in out.chunks_exact_mut(NR).zip(&g.row_off[k0..k0 + kc]) {
        let row = &g.src[base as usize..];
        for (slot, &c) in dst.iter_mut().zip(col_off) {
            *slot = row[c as usize];
        }
        dst[cols..].fill(0.0);
    }
}

/// AVX-512 strip gather: one 16-lane `vgatherdps` per row, the column
/// offsets loaded once and shifted by each row's offset. A tail strip
/// masks its missing columns, which read nothing and come out zero. When
/// the strip's 16 column offsets are consecutive (a forward strip of 16
/// pixels in one output row at stride 1), each row is a plain unaligned
/// load instead.
///
/// # Safety
///
/// The CPU must support AVX-512F, and `g` must come from [`Gather::new`]
/// (so every offset sum lies inside `g.src`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn gather_strip_avx512(
    g: &Gather,
    k0: usize,
    kc: usize,
    j0: usize,
    cols: usize,
    out: &mut [f32],
) {
    use std::arch::x86_64::{
        _mm512_add_epi32, _mm512_cmpeq_epi32_mask, _mm512_loadu_ps, _mm512_mask_i32gather_ps,
        _mm512_maskz_loadu_epi32, _mm512_set1_epi32, _mm512_setr_epi32, _mm512_setzero_ps,
        _mm512_storeu_ps,
    };
    let rows = &g.row_off[k0..k0 + kc];
    assert!(j0 + cols <= g.col_off.len() && (1..=NR).contains(&cols));
    assert!(out.len() >= kc * NR);
    let mask = lane_mask(cols);
    let col_idx = _mm512_maskz_loadu_epi32(mask, g.col_off.as_ptr().add(j0));
    let first = _mm512_set1_epi32(g.col_off[j0]);
    let lanes = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
    let run = _mm512_add_epi32(first, lanes);
    if mask == u16::MAX && _mm512_cmpeq_epi32_mask(col_idx, run) == u16::MAX {
        let start = g.src.as_ptr().add(g.col_off[j0] as usize);
        for (kk, &base) in rows.iter().enumerate() {
            let v = _mm512_loadu_ps(start.add(base as usize));
            _mm512_storeu_ps(out.as_mut_ptr().add(kk * NR), v);
        }
        return;
    }
    for (kk, &base) in rows.iter().enumerate() {
        let idx = _mm512_add_epi32(col_idx, _mm512_set1_epi32(base));
        let v = _mm512_mask_i32gather_ps::<4>(_mm512_setzero_ps(), mask, idx, g.src.as_ptr());
        _mm512_storeu_ps(out.as_mut_ptr().add(kk * NR), v);
    }
}

/// Lane mask selecting the first `cols` of `NR` columns.
#[cfg(target_arch = "x86_64")]
#[inline]
pub(crate) fn lane_mask(cols: usize) -> u16 {
    if cols >= NR {
        u16::MAX
    } else {
        (1u16 << cols) - 1
    }
}

/// Runtime AVX-512F detection, resolved once per process (false off
/// x86-64).
pub(crate) fn avx512_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        static AVX512: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
        *AVX512.get_or_init(|| is_x86_feature_detected!("avx512f"))
    }
    #[cfg(not(target_arch = "x86_64"))]
    false
}

/// Blocked GEMM over raw row-major buffers, returning the output drawn
/// from the calling thread's arena.
///
/// Every element of the returned `m·n` buffer is written (no pre-zeroing
/// happens or is needed). Pack panels are drawn from the arena and
/// returned to it, so repeated calls stop allocating.
///
/// **Take order matters**: the pack panels are taken *before* the output
/// buffer. The output escapes into a `Tensor` and never comes back, so
/// if it were taken first it would steal a pooled pack panel (best-fit
/// hands the smallest covering buffer to whoever asks first), cascading
/// into a fresh zeroed allocation of the *largest* panel on every call.
/// Panels first means both
/// panels exact-hit their own buffers from the previous call and the one
/// unavoidable fresh allocation per call is the `m·n` output.
///
/// A [`BOperand::Cols`] operand is never packed: each task gathers the
/// strips of its own column tile, once per k-block, into a strip buffer
/// from its own thread's arena, and runs the same `MC × NC` tile grid as
/// a packed operand. The gather is part of the product, timed with it
/// under `tensor.matmul`.
pub(crate) fn gemm_alloc(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    a_store: AStore,
    b: BOperand,
    blocking: Blocking,
) -> Vec<f32> {
    debug_assert!(blocking.is_valid(), "invalid blocking {blocking:?}");
    if m == 0 || n == 0 {
        return scratch::take(m * n);
    }
    if k == 0 {
        return scratch::take_zeroed(m * n);
    }
    let kc = blocking.kc;
    let m_strips = m.div_ceil(MR);
    let n_strips = n.div_ceil(NR);
    let mut packed_a = scratch::take(k * m_strips * MR);
    let mut packed_b = match b {
        BOperand::Matrix(..) => scratch::take(k * n_strips * NR),
        BOperand::Cols(..) => Vec::new(),
    };
    let mut c = scratch::take(m * n);
    pack_a(a, m, k, kc, a_store, a_ld(m, k, a_store), &mut packed_a);
    let tile_b = match b {
        BOperand::Matrix(src, store) => {
            pack_b(src, k, n, kc, store, b_ld(k, n, store), &mut packed_b);
            TileB::Packed(&packed_b)
        }
        BOperand::Cols(input, which) => TileB::Gather(input.gather(which)),
    };
    let (row_tiles, col_tiles) = (m.div_ceil(blocking.mc), n.div_ceil(blocking.nc));
    let tiles = row_tiles * col_tiles;
    let cp = CPtr(c.as_mut_ptr());
    let flops = m.saturating_mul(n).saturating_mul(k);
    let pa = &packed_a;
    // Tile spans are verbose-only (level 2): at level 1 the per-tile guard
    // cost would show up inside the very kernel being measured. The parent
    // id is captured before the parallel loop so worker-thread tile spans
    // still nest under the enclosing matmul span.
    let trace_tiles = span::verbose();
    let tile_parent = if trace_tiles {
        span::current_span_id()
    } else {
        0
    };
    let wide = avx512_available();
    let run_tile = |tile: usize| {
        let (ti, tj) = (tile / col_tiles, tile % col_tiles);
        let _span = if trace_tiles {
            span::child_span_with(
                tile_parent,
                "tensor.gemm.tile",
                vec![("tile", tile.into()), ("ti", ti.into()), ("tj", tj.into())],
            )
        } else {
            SpanGuard::disabled()
        };
        let rows = ti * blocking.mc..m.min((ti + 1) * blocking.mc);
        let cols = tj * blocking.nc..n.min((tj + 1) * blocking.nc);
        match tile_b {
            TileB::Packed(_) => macro_tile(rows, cols, m, n, k, kc, pa, tile_b, &mut [], cp, wide),
            TileB::Gather(_) => {
                let mut strip = scratch::take(kc.min(k) * NR);
                macro_tile(rows, cols, m, n, k, kc, pa, tile_b, &mut strip, cp, wide);
                scratch::give(strip);
            }
        }
    };
    if tiles >= 2 && flops >= PAR_TILE_MIN_FLOPS {
        count_par_grid();
        (0..tiles).into_par_iter().for_each(run_tile);
    } else {
        (0..tiles).for_each(run_tile);
    }
    if matches!(tile_b, TileB::Gather(_)) {
        // every row tile gathers all of `B`
        crate::im2col::count_lowering_resources(k, n * row_tiles);
    }
    scratch::give(packed_a);
    scratch::give(packed_b);
    c
}

/// `C = A · B` for one block, serially, through the same tiles as
/// [`gemm_alloc`], so every element is bit-identical to the whole
/// product's. `packed_a` holds `A` (`m × k`) from [`pack_a`] in one
/// k-block (`kc = k`); `B` (`k × n`) is read from `b` with rows `ldb`
/// floats apart and packed into `packed_b` (at least `k·⌈n/NR⌉·NR`
/// floats). `c` receives the `m × n` result, rows `n` floats apart.
pub(crate) fn gemm_block(
    (m, n, k): (usize, usize, usize),
    packed_a: &[f32],
    (b, ldb): (&[f32], usize),
    packed_b: &mut [f32],
    c: &mut [f32],
) {
    assert!(c.len() >= m * n, "output block too short");
    if k == 0 {
        c[..m * n].fill(0.0);
        return;
    }
    pack_b(b, k, n, k, BStore::Normal, ldb, packed_b);
    // one k-block: the tiles write every element and never read `C`
    let b = TileB::Packed(packed_b);
    let cp = CPtr(c.as_mut_ptr());
    macro_tile(
        0..m,
        0..n,
        m,
        n,
        k,
        k,
        packed_a,
        b,
        &mut [],
        cp,
        avx512_available(),
    );
}

/// The `B` operand as one tile task sees it.
#[derive(Clone, Copy)]
enum TileB<'a> {
    /// The packed panel of all of `B` (`[k-block][col-strip][kk][NR]`).
    Packed(&'a [f32]),
    /// Strips gathered on demand.
    Gather(Gather<'a>),
}

/// Computes rows `rows` × columns `cols` of `C` (bounds on `MR`/`NR` strip
/// boundaries): for each k-block, each `NR` column strip of `B` meets
/// every `MR` row strip of `rows`. A gathered strip lands in `strip_buf`
/// (at least `min(kc, k)·NR` floats). `wide` selects the AVX-512 register tile, which the caller
/// must have detected; otherwise the portable 4×16 kernel runs.
#[allow(clippy::too_many_arguments)]
fn macro_tile(
    rows: Range<usize>,
    cols: Range<usize>,
    m: usize,
    n: usize,
    k: usize,
    kc: usize,
    packed_a: &[f32],
    b: TileB,
    strip_buf: &mut [f32],
    cp: CPtr,
    wide: bool,
) {
    let m_strips = m.div_ceil(MR);
    // tile bounds land on strip bounds (mc/nc are multiples of MR/NR)
    let (s_lo, s_hi) = (rows.start / MR, rows.end.div_ceil(MR));
    let (t_lo, t_hi) = (cols.start / NR, cols.end.div_ceil(NR));
    #[cfg(not(target_arch = "x86_64"))]
    let _ = wide;
    for kb in 0..k.div_ceil(kc) {
        let k0 = kb * kc;
        let kc_len = kc.min(k - k0);
        let a_base = k0 * m_strips * MR;
        let a_strip = |s: usize| &packed_a[a_base + s * kc_len * MR..][..kc_len * MR];
        let first_block = kb == 0;
        for t in t_lo..t_hi {
            let width = NR.min(n - t * NR);
            let b_k: &[f32] = match b {
                TileB::Packed(packed_b) => {
                    &packed_b[k0 * n.div_ceil(NR) * NR + t * kc_len * NR..][..kc_len * NR]
                }
                TileB::Gather(g) => {
                    let strip = &mut strip_buf[..kc_len * NR];
                    g.strip(k0, kc_len, t * NR, width, strip);
                    strip
                }
            };
            #[cfg(target_arch = "x86_64")]
            if wide {
                // Two row strips per 8×16 register tile; an odd last strip
                // runs as a 4×16 tile. Masks cover every edge.
                let mut s = s_lo;
                while s < s_hi {
                    let i0 = s * MR;
                    let height = (m - i0).min(2 * MR);
                    // SAFETY: AVX-512F was detected at runtime; the strips
                    // are exactly `kc_len` rows long; rows `i0..i0+height`
                    // × columns `t·NR..t·NR+width` lie in this task's part
                    // of `C`.
                    unsafe {
                        if s + 1 < s_hi {
                            tile_avx512::<2>(
                                kc_len,
                                [a_strip(s), a_strip(s + 1)],
                                b_k,
                                cp,
                                n,
                                (i0, t * NR),
                                (height, width),
                                first_block,
                            );
                            s += 2;
                        } else {
                            tile_avx512::<1>(
                                kc_len,
                                [a_strip(s)],
                                b_k,
                                cp,
                                n,
                                (i0, t * NR),
                                (height.min(MR), width),
                                first_block,
                            );
                            s += 1;
                        }
                    }
                }
                continue;
            }
            for s in s_lo..s_hi {
                let height = MR.min(m - s * MR);
                // The full-tile and edge-tile paths are kept as two separate
                // inlined kernel instantiations on purpose: feeding the
                // accumulator through the runtime-masked edge loads/stores
                // makes LLVM spill it to the stack, and the inner loop drops
                // from vector registers to scalar memory read-modify-write
                // (~10× slower, measured). The constant-bound full path is
                // what the hot loop runs; edges pay the slow masked copies.
                if height == MR && width == NR {
                    let init = if first_block {
                        [[0.0f32; NR]; MR]
                    } else {
                        load_full(cp, n, s * MR, t * NR)
                    };
                    let acc = micro_kernel(kc_len, a_strip(s), b_k, init);
                    store_full(cp, n, s * MR, t * NR, &acc);
                } else {
                    let init = if first_block {
                        [[0.0f32; NR]; MR]
                    } else {
                        load_edge(cp, n, s * MR, t * NR, height, width)
                    };
                    let acc = micro_kernel(kc_len, a_strip(s), b_k, init);
                    store_edge(cp, n, s * MR, t * NR, height, width, &acc);
                }
            }
        }
    }
}

/// The portable register-tiled inner kernel: `init + a_strip · b_strip`
/// over `kc` steps, both operands k-major and unit-stride. Accumulation per
/// element is in ascending-k order (see the module-level numerical
/// contract). Takes and returns the accumulator by value so its address
/// never escapes — LLVM keeps all `MR·NR` lanes in vector registers across
/// the loop.
#[inline(always)]
fn micro_kernel(
    kc: usize,
    a_strip: &[f32],
    b_strip: &[f32],
    mut acc: [[f32; NR]; MR],
) -> [[f32; NR]; MR] {
    for (a_k, b_k) in a_strip
        .chunks_exact(MR)
        .zip(b_strip.chunks_exact(NR))
        .take(kc)
    {
        for r in 0..MR {
            let a_rl = a_k[r];
            for j in 0..NR {
                acc[r][j] += a_rl * b_k[j];
            }
        }
    }
    acc
}

/// The AVX-512 register tile: `S` row strips (`S·MR` rows) against one
/// `NR`-column strip, one 16-lane accumulator per row. Each step is a
/// broadcast, a `vmulps` and a separate `vaddps` — never an FMA — so every
/// output element sees exactly [`micro_kernel`]'s rounding sequence and
/// the results are bit-identical. `C` is read (after the first k-block)
/// and written through masked loads and stores: only rows `..height` and
/// columns `..width` of the tile at `at` are touched, so edge tiles need
/// no separate path (the packed `A` and `B` strips are zero past their
/// edges).
///
/// # Safety
///
/// The CPU must support AVX-512F. Each `a[s]` must hold `kc·MR` floats and
/// `b` `kc·NR`; `height ≤ S·MR` and `1 ≤ width ≤ NR`; rows
/// `at.0..at.0+height` × columns `at.1..at.1+width` of the `ldc`-wide `C`
/// behind `cp` must be in bounds and written by no other task.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
#[allow(clippy::too_many_arguments)]
unsafe fn tile_avx512<const S: usize>(
    kc: usize,
    a: [&[f32]; S],
    b: &[f32],
    cp: CPtr,
    ldc: usize,
    at: (usize, usize),
    (height, width): (usize, usize),
    first_block: bool,
) {
    use std::arch::x86_64::{
        __m512, _mm512_add_ps, _mm512_loadu_ps, _mm512_mask_storeu_ps, _mm512_maskz_loadu_ps,
        _mm512_mul_ps, _mm512_set1_ps, _mm512_setzero_ps,
    };
    debug_assert!(a.iter().all(|strip| strip.len() >= kc * MR) && b.len() >= kc * NR);
    debug_assert!(height <= S * MR && (1..=NR).contains(&width));
    let mask = lane_mask(width);
    let c_row = |i: usize| cp.0.add((at.0 + i) * ldc + at.1);
    let mut acc: [[__m512; MR]; S] = [[_mm512_setzero_ps(); MR]; S];
    if !first_block {
        for (s, acc_s) in acc.iter_mut().enumerate() {
            for (r, slot) in acc_s.iter_mut().enumerate() {
                if s * MR + r < height {
                    *slot = _mm512_maskz_loadu_ps(mask, c_row(s * MR + r));
                }
            }
        }
    }
    let a_ptr = a.map(<[f32]>::as_ptr);
    for kk in 0..kc {
        let bv = _mm512_loadu_ps(b.as_ptr().add(kk * NR));
        for (acc_s, &a_s) in acc.iter_mut().zip(&a_ptr) {
            for (r, slot) in acc_s.iter_mut().enumerate() {
                let av = _mm512_set1_ps(*a_s.add(kk * MR + r));
                *slot = _mm512_add_ps(*slot, _mm512_mul_ps(av, bv));
            }
        }
    }
    for (s, acc_s) in acc.iter().enumerate() {
        for (r, &value) in acc_s.iter().enumerate() {
            if s * MR + r < height {
                _mm512_mask_storeu_ps(c_row(s * MR + r), mask, value);
            }
        }
    }
}

/// Loads a full `MR × NR` block of partial sums from `C` (constant bounds —
/// compiles to `MR` unmasked vector loads).
#[inline(always)]
fn load_full(cp: CPtr, ldc: usize, i0: usize, j0: usize) -> [[f32; NR]; MR] {
    let mut acc = [[0.0f32; NR]; MR];
    for (r, acc_row) in acc.iter_mut().enumerate() {
        let base = (i0 + r) * ldc + j0;
        for (j, slot) in acc_row.iter_mut().enumerate() {
            // Safety: (i0 + r, j0 + j) lies inside this task's tile.
            *slot = unsafe { *cp.0.add(base + j) };
        }
    }
    acc
}

/// Stores a full `MR × NR` accumulator block into `C` (constant bounds).
#[inline(always)]
fn store_full(cp: CPtr, ldc: usize, i0: usize, j0: usize, acc: &[[f32; NR]; MR]) {
    for (r, acc_row) in acc.iter().enumerate() {
        let base = (i0 + r) * ldc + j0;
        for (j, &value) in acc_row.iter().enumerate() {
            // Safety: (i0 + r, j0 + j) lies inside this task's tile.
            unsafe { *cp.0.add(base + j) = value };
        }
    }
}

/// Masked load for edge tiles. Deliberately `inline(never)`: keeping the
/// runtime-bound loops out of the caller is what lets the full-tile path's
/// accumulator stay in registers.
#[inline(never)]
fn load_edge(
    cp: CPtr,
    ldc: usize,
    i0: usize,
    j0: usize,
    rows: usize,
    cols: usize,
) -> [[f32; NR]; MR] {
    let mut acc = [[0.0f32; NR]; MR];
    for (r, acc_row) in acc.iter_mut().enumerate().take(rows) {
        let base = (i0 + r) * ldc + j0;
        for (j, slot) in acc_row.iter_mut().enumerate().take(cols) {
            // Safety: (i0 + r, j0 + j) lies inside this task's tile.
            *slot = unsafe { *cp.0.add(base + j) };
        }
    }
    acc
}

/// Masked store for edge tiles (valid region only); see [`load_edge`].
#[inline(never)]
fn store_edge(
    cp: CPtr,
    ldc: usize,
    i0: usize,
    j0: usize,
    rows: usize,
    cols: usize,
    acc: &[[f32; NR]; MR],
) {
    for (r, acc_row) in acc.iter().enumerate().take(rows) {
        let base = (i0 + r) * ldc + j0;
        for (j, &value) in acc_row.iter().enumerate().take(cols) {
            // Safety: (i0 + r, j0 + j) lies inside this task's tile.
            unsafe { *cp.0.add(base + j) = value };
        }
    }
}

/// The row stride of a dense `A` (logical `[m, k]`) stored as `store`.
fn a_ld(m: usize, k: usize, store: AStore) -> usize {
    match store {
        AStore::Normal => k,
        AStore::Transposed => m,
    }
}

/// The row stride of a dense `B` (logical `[k, n]`) stored as `store`.
fn b_ld(k: usize, n: usize, store: BStore) -> usize {
    match store {
        BStore::Normal => n,
        BStore::Transposed => k,
    }
}

/// Packs `A` (logical `[m, k]`) into `[k-block][row-strip][kk][MR]` order,
/// zero-padding the tail strip so the micro-kernel never branches on edges.
/// `src` rows are `ld` floats apart, so `A` may be a block of a wider
/// matrix.
pub(crate) fn pack_a(
    src: &[f32],
    m: usize,
    k: usize,
    kc: usize,
    store: AStore,
    ld: usize,
    out: &mut [f32],
) {
    let m_strips = m.div_ceil(MR);
    for kb in 0..k.div_ceil(kc) {
        let k0 = kb * kc;
        let kc_len = kc.min(k - k0);
        let base = k0 * m_strips * MR;
        match store {
            AStore::Normal => {
                // src rows are strip-local: each strip reads its own MR rows
                // once, so strip-outer order already streams the source.
                for s in 0..m_strips {
                    let i0 = s * MR;
                    let rows = MR.min(m - i0);
                    let dst = &mut out[base + s * kc_len * MR..][..kc_len * MR];
                    for (kk, dst_k) in dst.chunks_exact_mut(MR).enumerate() {
                        let l = k0 + kk;
                        for (r, slot) in dst_k.iter_mut().enumerate() {
                            *slot = if r < rows {
                                src[(i0 + r) * ld + l]
                            } else {
                                0.0
                            };
                        }
                    }
                }
            }
            AStore::Transposed => {
                // src is [k, m]: row l holds a(·, l) for every strip at once,
                // so iterate kk outermost — each source row is read exactly
                // once instead of once per strip.
                for kk in 0..kc_len {
                    let row = &src[(k0 + kk) * ld..][..m];
                    for s in 0..m_strips {
                        let i0 = s * MR;
                        let rows = MR.min(m - i0);
                        let dst_k = &mut out[base + s * kc_len * MR + kk * MR..][..MR];
                        for (r, slot) in dst_k.iter_mut().enumerate() {
                            *slot = if r < rows { row[i0 + r] } else { 0.0 };
                        }
                    }
                }
            }
        }
    }
}

/// Packs `B` (logical `[k, n]`) into `[k-block][col-strip][kk][NR]` order,
/// zero-padding the tail strip. `src` rows are `ld` floats apart.
fn pack_b(src: &[f32], k: usize, n: usize, kc: usize, store: BStore, ld: usize, out: &mut [f32]) {
    let n_strips = n.div_ceil(NR);
    for kb in 0..k.div_ceil(kc) {
        let k0 = kb * kc;
        let kc_len = kc.min(k - k0);
        let base = k0 * n_strips * NR;
        match store {
            BStore::Normal => {
                // src row l spans every strip, so iterate kk outermost: each
                // source row streams through once (strip-outer order re-reads
                // every row `n_strips` times — for a wide B that is gigabytes
                // of redundant traffic). The strided destination writes are
                // exactly one NR-float cache line each.
                for kk in 0..kc_len {
                    let row = &src[(k0 + kk) * ld..][..n];
                    for t in 0..n_strips {
                        let j0 = t * NR;
                        let cols = NR.min(n - j0);
                        let dst_k = &mut out[base + t * kc_len * NR + kk * NR..][..NR];
                        dst_k[..cols].copy_from_slice(&row[j0..j0 + cols]);
                        dst_k[cols..].fill(0.0);
                    }
                }
            }
            BStore::Transposed => {
                // src is [n, k]: column j of B is row j of src, owned by one
                // strip — strip-outer order already streams the source.
                for t in 0..n_strips {
                    let j0 = t * NR;
                    let cols = NR.min(n - j0);
                    let dst = &mut out[base + t * kc_len * NR..][..kc_len * NR];
                    for (kk, dst_k) in dst.chunks_exact_mut(NR).enumerate() {
                        let l = k0 + kk;
                        for (j, slot) in dst_k.iter_mut().enumerate() {
                            *slot = if j < cols {
                                src[(j0 + j) * ld + l]
                            } else {
                                0.0
                            };
                        }
                    }
                }
            }
        }
    }
}

/// Blocked `C = A · B` (dispatch-free: always the packed kernel).
///
/// [`crate::matmul`] routes here above its size threshold; this entry point
/// exists so tests and benches can exercise the blocked kernel directly at
/// any size.
///
/// # Errors
///
/// Returns [`ShapeError`] if either input is not rank-2 or the inner
/// dimensions disagree.
pub fn gemm_nn(a: &Tensor, b: &Tensor) -> Result<Tensor, ShapeError> {
    rank2(a, b, "gemm_nn")?;
    let (m, k) = (a.dims()[0], a.dims()[1]);
    let (kb, n) = (b.dims()[0], b.dims()[1]);
    if k != kb {
        return Err(ShapeError::mismatch("gemm_nn", a.dims(), b.dims()));
    }
    let out = gemm_alloc(
        m,
        n,
        k,
        a.data(),
        AStore::Normal,
        BOperand::Matrix(b.data(), BStore::Normal),
        Blocking::default_tiles(),
    );
    Tensor::from_vec(out, &[m, n])
}

/// Blocked `C = Aᵀ · B` with `a: [k, m]`, `b: [k, n]` (dispatch-free).
///
/// # Errors
///
/// Returns [`ShapeError`] if either input is not rank-2 or the shared
/// dimension disagrees.
pub fn gemm_tn(a: &Tensor, b: &Tensor) -> Result<Tensor, ShapeError> {
    rank2(a, b, "gemm_tn")?;
    let (k, m) = (a.dims()[0], a.dims()[1]);
    let (kb, n) = (b.dims()[0], b.dims()[1]);
    if k != kb {
        return Err(ShapeError::mismatch("gemm_tn", a.dims(), b.dims()));
    }
    let out = gemm_alloc(
        m,
        n,
        k,
        a.data(),
        AStore::Transposed,
        BOperand::Matrix(b.data(), BStore::Normal),
        Blocking::default_tiles(),
    );
    Tensor::from_vec(out, &[m, n])
}

/// Blocked `C = A · Bᵀ` with `a: [m, k]`, `b: [n, k]` (dispatch-free).
///
/// # Errors
///
/// Returns [`ShapeError`] if either input is not rank-2 or the shared
/// dimension disagrees.
pub fn gemm_nt(a: &Tensor, b: &Tensor) -> Result<Tensor, ShapeError> {
    rank2(a, b, "gemm_nt")?;
    let (m, k) = (a.dims()[0], a.dims()[1]);
    let (n, kb) = (b.dims()[0], b.dims()[1]);
    if k != kb {
        return Err(ShapeError::mismatch("gemm_nt", a.dims(), b.dims()));
    }
    let out = gemm_alloc(
        m,
        n,
        k,
        a.data(),
        AStore::Normal,
        BOperand::Matrix(b.data(), BStore::Transposed),
        Blocking::default_tiles(),
    );
    Tensor::from_vec(out, &[m, n])
}

fn rank2(a: &Tensor, b: &Tensor, context: &str) -> Result<(), ShapeError> {
    if a.rank() != 2 || b.rank() != 2 {
        return Err(ShapeError::mismatch(context, a.dims(), b.dims()));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serial reference with the same ascending-k association and no
    /// zero-skip — the kernel must match it bit-for-bit.
    fn reference(a: &Tensor, b: &Tensor, at: bool, bt: bool) -> Tensor {
        let (m, k) = if at {
            (a.dims()[1], a.dims()[0])
        } else {
            (a.dims()[0], a.dims()[1])
        };
        let n = if bt { b.dims()[0] } else { b.dims()[1] };
        let mut out = Tensor::zeros(&[m, n]);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for l in 0..k {
                    let av = if at { a.at2(l, i) } else { a.at2(i, l) };
                    let bv = if bt { b.at2(j, l) } else { b.at2(l, j) };
                    acc += av * bv;
                }
                *out.at2_mut(i, j) = acc;
            }
        }
        out
    }

    fn random_tensor(dims: &[usize], seed: u64) -> Tensor {
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
    fn blocked_matches_reference_bitwise_across_edges() {
        // dimensions straddling MR/NR/KC strip edges, including primes
        for (m, k, n) in [
            (1, 1, 1),
            (3, 5, 7),
            (4, 8, 8),
            (5, 9, 17),
            (13, 300, 11), // crosses the KC=256 block boundary
            (67, 67, 67),
        ] {
            let a = random_tensor(&[m, k], (m * 1000 + k) as u64);
            let b = random_tensor(&[k, n], (k * 1000 + n) as u64);
            let got = gemm_nn(&a, &b).unwrap();
            assert_eq!(got, reference(&a, &b, false, false), "nn {m}x{k}x{n}");

            let at = random_tensor(&[k, m], (m + k) as u64);
            let got = gemm_tn(&at, &b).unwrap();
            assert_eq!(got, reference(&at, &b, true, false), "tn {m}x{k}x{n}");

            let bt = random_tensor(&[n, k], (n + k) as u64);
            let got = gemm_nt(&a, &bt).unwrap();
            assert_eq!(got, reference(&a, &bt, false, true), "nt {m}x{k}x{n}");
        }
    }

    #[test]
    fn parallel_tile_grid_matches_serial_bitwise() {
        // big enough to cross PAR_TILE_MIN_FLOPS and span several tiles
        let (m, k, n) = (150, 200, 150);
        let a = random_tensor(&[m, k], 21);
        let b = random_tensor(&[k, n], 22);
        let got = gemm_nn(&a, &b).unwrap();
        assert_eq!(got, reference(&a, &b, false, false));
    }

    #[test]
    fn scratch_reuse_with_dirty_buffers_is_equal() {
        let a = random_tensor(&[37, 53], 31);
        let b = random_tensor(&[53, 29], 32);
        let first = gemm_nn(&a, &b).unwrap();
        // pollute the arena: buffers full of garbage must not leak through
        crate::recycle(Tensor::full(&[37 * 53 * 4], f32::NAN));
        let second = gemm_nn(&a, &b).unwrap();
        assert_eq!(first, second);
    }

    #[test]
    fn zero_dimensions_are_handled() {
        let c = gemm_nn(&Tensor::zeros(&[0, 3]), &Tensor::zeros(&[3, 2])).unwrap();
        assert_eq!(c.dims(), &[0, 2]);
        // k == 0: the product is all zeros, even with a dirty arena
        crate::recycle(Tensor::full(&[8], 9.0));
        let c = gemm_nn(&Tensor::zeros(&[2, 0]), &Tensor::zeros(&[0, 4])).unwrap();
        assert!(c.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn shape_errors_propagate() {
        assert!(gemm_nn(&Tensor::zeros(&[2, 3]), &Tensor::zeros(&[4, 2])).is_err());
        assert!(gemm_tn(&Tensor::zeros(&[3, 2]), &Tensor::zeros(&[4, 2])).is_err());
        assert!(gemm_nt(&Tensor::zeros(&[3, 2]), &Tensor::zeros(&[4, 3])).is_err());
        assert!(gemm_nn(&Tensor::zeros(&[6]), &Tensor::zeros(&[6, 2])).is_err());
    }

    /// LCG floats salted with the values rounding is most fragile on:
    /// signed zeros, subnormals and magnitudes whose products overflow.
    fn awkward(len: usize, seed: u64) -> Vec<f32> {
        let data = random_tensor(&[len], seed).into_vec();
        data.into_iter()
            .enumerate()
            .map(|(i, v)| match i % 13 {
                0 => 0.0,
                1 => -0.0,
                2 => f32::MIN_POSITIVE / 3.0,
                3 => v * 1e30,
                _ => v,
            })
            .collect()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// `C` after the portable kernel (plus edge copies) ran strip by strip
    /// over rows `i0..i0+height` × columns `..width` of a `ldc`-wide
    /// buffer — the reference for the AVX-512 tile.
    #[allow(clippy::too_many_arguments)]
    fn portable_tile(
        kc: usize,
        a: &[&[f32]],
        b: &[f32],
        c: &mut [f32],
        ldc: usize,
        i0: usize,
        height: usize,
        width: usize,
        first_block: bool,
    ) {
        let cp = CPtr(c.as_mut_ptr());
        for (s, a_s) in a.iter().enumerate() {
            let rows = MR.min(height.saturating_sub(s * MR));
            if rows == 0 {
                continue;
            }
            let init = if first_block {
                [[0.0f32; NR]; MR]
            } else {
                load_edge(cp, ldc, i0 + s * MR, 0, rows, width)
            };
            let acc = micro_kernel(kc, a_s, b, init);
            store_edge(cp, ldc, i0 + s * MR, 0, rows, width, &acc);
        }
    }

    #[test]
    fn avx512_tile_matches_the_portable_kernel_bitwise() {
        #[cfg(target_arch = "x86_64")]
        {
            if !avx512_available() {
                eprintln!("skipped: no AVX-512F on this CPU");
                return;
            }
            let ldc = NR + 3;
            for (case, kc) in [1usize, 2, 7, 64, 300].into_iter().enumerate() {
                let a0 = awkward(kc * MR, 10 + case as u64);
                let a1 = awkward(kc * MR, 20 + case as u64);
                let b = awkward(kc * NR, 30 + case as u64);
                for first_block in [true, false] {
                    for width in [NR, 11, 1] {
                        for height in [2 * MR, 2 * MR - 1, MR + 1, MR, 3, 1] {
                            let c0 = awkward(2 * MR * ldc, 40 + kc as u64);
                            let strips: Vec<&[f32]> = if height > MR {
                                vec![&a0, &a1]
                            } else {
                                vec![&a0]
                            };
                            let mut want = c0.clone();
                            portable_tile(
                                kc,
                                &strips,
                                &b,
                                &mut want,
                                ldc,
                                0,
                                height,
                                width,
                                first_block,
                            );
                            let mut got = c0.clone();
                            let cp = CPtr(got.as_mut_ptr());
                            // SAFETY: AVX-512F detected above; the strips
                            // hold kc rows and the tile fits in `got`.
                            unsafe {
                                if height > MR {
                                    tile_avx512::<2>(
                                        kc,
                                        [&a0, &a1],
                                        &b,
                                        cp,
                                        ldc,
                                        (0, 0),
                                        (height, width),
                                        first_block,
                                    );
                                } else {
                                    tile_avx512::<1>(
                                        kc,
                                        [&a0],
                                        &b,
                                        cp,
                                        ldc,
                                        (0, 0),
                                        (height, width),
                                        first_block,
                                    );
                                }
                            }
                            assert_eq!(
                                bits(&got),
                                bits(&want),
                                "kc {kc} height {height} width {width} first {first_block}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn avx512_gather_matches_the_scalar_gather_bitwise() {
        #[cfg(target_arch = "x86_64")]
        {
            if !avx512_available() {
                eprintln!("skipped: no AVX-512F on this CPU");
                return;
            }
            let src = awkward(4000, 7);
            // rows: scattered offsets; columns: a consecutive run (the
            // plain-load path), a scattered set, and a ragged tail
            let row_off: Vec<i32> = (0..40).map(|l| l * 37 % 1500).collect();
            let mut col_off: Vec<i32> = (0..16).map(|j| 900 + j).collect();
            col_off.extend((0..21).map(|j| j * 131 % 2400));
            let g = Gather::new(&src, &row_off, &col_off);
            for (k0, kc) in [(0, 40), (3, 17), (39, 1)] {
                for (j0, cols) in [(0, 16), (1, 16), (16, 16), (32, 5), (36, 1)] {
                    let mut want = vec![f32::NAN; kc * NR];
                    gather_strip_scalar(&g, k0, kc, j0, cols, &mut want);
                    let mut got = vec![f32::NAN; kc * NR];
                    // SAFETY: AVX-512F detected above; `g` is from `new`.
                    unsafe { gather_strip_avx512(&g, k0, kc, j0, cols, &mut got) };
                    assert_eq!(bits(&got), bits(&want), "k0 {k0} kc {kc} j0 {j0}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "reach past the source")]
    fn gather_offsets_past_the_source_are_rejected() {
        let src = [0.0f32; 10];
        Gather::new(&src, &[0, 5], &[0, 5]);
    }

    /// `C = A·B` through [`macro_tile`] over one whole-matrix task, with
    /// `B` gathered (`b_gather`) or packed from its explicit form.
    fn whole_tile(a: &Tensor, b: &Tensor, b_gather: Option<Gather>, wide: bool) -> Vec<f32> {
        let (m, k, n) = (a.dims()[0], a.dims()[1], b.dims()[1]);
        let kc = KC;
        let mut packed_a = vec![0.0; k * m.div_ceil(MR) * MR];
        pack_a(a.data(), m, k, kc, AStore::Normal, k, &mut packed_a);
        let mut packed_b = vec![0.0; k * n.div_ceil(NR) * NR];
        pack_b(b.data(), k, n, kc, BStore::Normal, n, &mut packed_b);
        let tile_b = match b_gather {
            Some(g) => TileB::Gather(g),
            None => TileB::Packed(&packed_b),
        };
        let mut strip = vec![0.0; kc.min(k) * NR];
        let mut c = vec![f32::NAN; m * n];
        let cp = CPtr(c.as_mut_ptr());
        macro_tile(
            0..m,
            0..n,
            m,
            n,
            k,
            kc,
            &packed_a,
            tile_b,
            &mut strip,
            cp,
            wide,
        );
        c
    }

    #[test]
    fn every_tile_and_operand_source_gives_the_same_bits() {
        // odd row strips, a ragged column strip, two k-blocks
        let (m, k, n) = (23, 300, 37);
        let a = Tensor::from_vec(awkward(m * k, 51), &[m, k]).unwrap();
        let b = Tensor::from_vec(awkward(k * n, 52), &[k, n]).unwrap();
        // B[l][j] = src[row_off[l] + col_off[j]] with src = B row-major
        let row_off: Vec<i32> = (0..k).map(|l| (l * n) as i32).collect();
        let col_off: Vec<i32> = (0..n).map(|j| j as i32).collect();
        let g = Gather::new(b.data(), &row_off, &col_off);
        let want = bits(reference(&a, &b, false, false).data());
        assert_eq!(bits(&whole_tile(&a, &b, None, false)), want, "portable");
        assert_eq!(
            bits(&whole_tile(&a, &b, Some(g), false)),
            want,
            "portable gather"
        );
        if avx512_available() {
            assert_eq!(bits(&whole_tile(&a, &b, None, true)), want, "avx512");
            assert_eq!(
                bits(&whole_tile(&a, &b, Some(g), true)),
                want,
                "avx512 gather"
            );
        }
    }

    #[test]
    fn gathered_gemm_matches_the_packed_gemm_through_the_tile_grid() {
        // m = 70 spans two MC row tiles; 286 pixels span three NC column
        // tiles; the weight gradient's 286-long k spans two k-blocks
        let geom = crate::Conv2dGeom::new(5, 70, 3, 1, 1);
        let x = random_tensor(&[2, 5, 13, 11], 61);
        let cols = crate::im2col(&x, &geom).unwrap();
        let (k, n) = (cols.dims()[0], cols.dims()[1]);
        let m = 70;
        let padded = crate::pad_input(&x, &geom).unwrap();
        let blocking = Blocking::default_tiles();
        let w = random_tensor(&[m, k], 62);
        let dy = random_tensor(&[m, n], 63);
        for (a, which, b_store, n, k) in [
            (&w, ConvGemm::Forward, BStore::Normal, n, k),
            (&dy, ConvGemm::WeightGrad, BStore::Transposed, k, n),
        ] {
            let (a, store) = (a.data(), AStore::Normal);
            let implicit = BOperand::Cols(&padded, which);
            let explicit = BOperand::Matrix(cols.data(), b_store);
            let gathered = gemm_alloc(m, n, k, a, store, implicit, blocking);
            let packed = gemm_alloc(m, n, k, a, store, explicit, blocking);
            assert_eq!(bits(&gathered), bits(&packed), "{which:?}");
        }
    }
}
