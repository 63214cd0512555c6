//! Cache-blocked, panel-packed GEMM — the training hot loop's kernel.
//!
//! The naive `ikj` matmul streams all of `B` once per output row and leaves
//! wide-short products serial (its parallel split is over rows only). This
//! module implements the classic three-level blocking scheme instead:
//!
//! * `A` is packed into `MR`-row strips and `B` into `NR`-column strips,
//!   both laid out k-major so the inner kernel reads unit-stride,
//! * a register-tiled micro-kernel computes an `MR × NR` block of `C` with
//!   `MR·NR` scalar accumulators the compiler keeps in vector registers,
//! * macro-tiles of `MC × NC` outputs are dispatched over a 2-D tile grid
//!   (rows *and* columns), so a `[4, 4096]·[4096, 4096]` product
//!   parallelises even though it has only one row strip.
//!
//! # Numerical contract
//!
//! For every output element the micro-kernel adds `a[i][l]·b[l][j]` terms in
//! strictly ascending `l` order, loading the partial sum back from `C`
//! between `KC` blocks. This is exactly the association of the serial
//! fallback loops in [`crate::matmul`], so blocked and serial results are
//! **bit-identical** whenever no `±0.0` product lands on a `-0.0` partial
//! sum (the serial `ikj` loops skip zero `a` entries; adding the skipped
//! `±0.0` product can only flip a negative zero to `+0.0`, never change a
//! non-zero value). Dispatch depends only on shapes, never on data or
//! thread count, so whole-run determinism — and with it PR 2's bit-identical
//! checkpoint resume — is preserved.

use crate::plan::Blocking;
use crate::scratch::Scratch;
use crate::shape::ShapeError;
use crate::tensor::Tensor;
use adq_telemetry::span::{self, SpanGuard};
use rayon::prelude::*;

/// Micro-kernel rows: each inner-kernel invocation produces `MR` rows of C.
///
/// `MR·NR = 64` accumulators fill four 16-lane AVX-512 registers (or eight
/// 8-lane AVX2 registers); larger tiles spill the accumulator to the stack
/// and collapse the kernel to scalar speed — measured, not theoretical.
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
const PAR_TILE_MIN_FLOPS: usize = 1 << 21;

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

/// Blocked GEMM over raw row-major buffers, returning the output drawn
/// from `scratch`.
///
/// Every element of the returned `m·n` buffer is written (no pre-zeroing
/// happens or is needed). Pack panels are drawn from `scratch` and
/// returned to it, so repeated calls through one arena stop allocating.
///
/// **Take order matters**: the pack panels are taken *before* the output
/// buffer. The output escapes into a `Tensor` and never comes back, so
/// if it were taken first it would steal a pooled pack panel (best-fit
/// hands the smallest covering buffer to whoever asks first), cascading
/// into a fresh zeroed allocation of the *largest* panel on every call —
/// the PR-3 `blocked_scratch` conv regression. Panels first means both
/// panels exact-hit their own buffers from the previous call and the one
/// unavoidable fresh allocation per call is the `m·n` output.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_alloc(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    a_store: AStore,
    b: &[f32],
    b_store: BStore,
    blocking: Blocking,
    scratch: &mut Scratch,
) -> Vec<f32> {
    debug_assert!(blocking.is_valid(), "invalid blocking {blocking:?}");
    if m == 0 || n == 0 {
        return scratch.take(m * n);
    }
    if k == 0 {
        return scratch.take_zeroed(m * n);
    }
    let kc = blocking.kc;
    let m_strips = m.div_ceil(MR);
    let n_strips = n.div_ceil(NR);
    let mut packed_a = scratch.take(k * m_strips * MR);
    let mut packed_b = scratch.take(k * n_strips * NR);
    let mut c = scratch.take(m * n);
    pack_a(a, m, k, kc, a_store, &mut packed_a);
    pack_b(b, k, n, kc, b_store, &mut packed_b);

    let row_tiles = m.div_ceil(blocking.mc);
    let col_tiles = n.div_ceil(blocking.nc);
    let tiles = row_tiles * col_tiles;
    let cp = CPtr(c.as_mut_ptr());
    let flops = m.saturating_mul(n).saturating_mul(k);
    let pa = &packed_a;
    let pb = &packed_b;
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
    let tile_span = |tile: usize, ti: usize, tj: usize| -> SpanGuard {
        if trace_tiles {
            span::child_span_with(
                tile_parent,
                "tensor.gemm.tile",
                vec![("tile", tile.into()), ("ti", ti.into()), ("tj", tj.into())],
            )
        } else {
            SpanGuard::disabled()
        }
    };
    if tiles >= 2 && flops >= PAR_TILE_MIN_FLOPS {
        (0..tiles).into_par_iter().for_each(|tile| {
            let (ti, tj) = (tile / col_tiles, tile % col_tiles);
            let _span = tile_span(tile, ti, tj);
            macro_tile(
                ti * blocking.mc,
                tj * blocking.nc,
                m,
                n,
                k,
                blocking,
                pa,
                pb,
                cp,
            );
        });
    } else {
        for tile in 0..tiles {
            let (ti, tj) = (tile / col_tiles, tile % col_tiles);
            let _span = tile_span(tile, ti, tj);
            macro_tile(
                ti * blocking.mc,
                tj * blocking.nc,
                m,
                n,
                k,
                blocking,
                pa,
                pb,
                cp,
            );
        }
    }
    scratch.give(packed_a);
    scratch.give(packed_b);
    c
}

/// Computes the `[i0.., j0..]` macro-tile of `C` from the packed panels.
#[allow(clippy::too_many_arguments)]
fn macro_tile(
    i0: usize,
    j0: usize,
    m: usize,
    n: usize,
    k: usize,
    blocking: Blocking,
    packed_a: &[f32],
    packed_b: &[f32],
    cp: CPtr,
) {
    let mc = blocking.mc.min(m - i0);
    let nc = blocking.nc.min(n - j0);
    let m_strips = m.div_ceil(MR);
    let n_strips = n.div_ceil(NR);
    // mc/nc are multiples of MR/NR, so tile bounds land on strip bounds.
    let s_lo = i0 / MR;
    let s_hi = (i0 + mc).div_ceil(MR);
    let t_lo = j0 / NR;
    let t_hi = (j0 + nc).div_ceil(NR);
    let k_blocks = k.div_ceil(blocking.kc);
    for kb in 0..k_blocks {
        let k0 = kb * blocking.kc;
        let kc_len = blocking.kc.min(k - k0);
        let a_base = k0 * m_strips * MR;
        let b_base = k0 * n_strips * NR;
        let first_block = kb == 0;
        for t in t_lo..t_hi {
            let b_strip = &packed_b[b_base + t * kc_len * NR..][..kc_len * NR];
            let cols = NR.min(n - t * NR);
            for s in s_lo..s_hi {
                let a_strip = &packed_a[a_base + s * kc_len * MR..][..kc_len * MR];
                let rows = MR.min(m - s * MR);
                // The full-tile and edge-tile paths are kept as two separate
                // inlined kernel instantiations on purpose: feeding the
                // accumulator through the runtime-masked edge loads/stores
                // makes LLVM spill it to the stack, and the inner loop drops
                // from vector registers to scalar memory read-modify-write
                // (~10× slower, measured). The constant-bound full path is
                // what the hot loop runs; edges pay the slow masked copies.
                if rows == MR && cols == NR {
                    let init = if first_block {
                        [[0.0f32; NR]; MR]
                    } else {
                        load_full(cp, n, s * MR, t * NR)
                    };
                    let acc = micro_kernel(kc_len, a_strip, b_strip, init);
                    store_full(cp, n, s * MR, t * NR, &acc);
                } else {
                    let init = if first_block {
                        [[0.0f32; NR]; MR]
                    } else {
                        load_edge(cp, n, s * MR, t * NR, rows, cols)
                    };
                    let acc = micro_kernel(kc_len, a_strip, b_strip, init);
                    store_edge(cp, n, s * MR, t * NR, rows, cols, &acc);
                }
            }
        }
    }
}

/// The register-tiled inner kernel: `init + a_strip · b_strip` over `kc`
/// steps, both operands k-major and unit-stride. Accumulation per element
/// is in ascending-k order (see the module-level numerical contract). Takes
/// and returns the accumulator by value so its address never escapes —
/// LLVM keeps all `MR·NR` lanes in vector registers across the loop.
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

/// Packs `A` (logical `[m, k]`) into `[k-block][row-strip][kk][MR]` order,
/// zero-padding the tail strip so the micro-kernel never branches on edges.
fn pack_a(src: &[f32], m: usize, k: usize, kc: usize, store: AStore, out: &mut [f32]) {
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
                            *slot = if r < rows { src[(i0 + r) * k + l] } else { 0.0 };
                        }
                    }
                }
            }
            AStore::Transposed => {
                // src is [k, m]: row l holds a(·, l) for every strip at once,
                // so iterate kk outermost — each source row is read exactly
                // once instead of once per strip.
                for kk in 0..kc_len {
                    let row = &src[(k0 + kk) * m..][..m];
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
/// zero-padding the tail strip.
fn pack_b(src: &[f32], k: usize, n: usize, kc: usize, store: BStore, out: &mut [f32]) {
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
                    let row = &src[(k0 + kk) * n..][..n];
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
                            *slot = if j < cols { src[(j0 + j) * k + l] } else { 0.0 };
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
pub fn gemm_nn(a: &Tensor, b: &Tensor, scratch: &mut Scratch) -> Result<Tensor, ShapeError> {
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
        b.data(),
        BStore::Normal,
        Blocking::default_tiles(),
        scratch,
    );
    Tensor::from_vec(out, &[m, n])
}

/// Blocked `C = Aᵀ · B` with `a: [k, m]`, `b: [k, n]` (dispatch-free).
///
/// # Errors
///
/// Returns [`ShapeError`] if either input is not rank-2 or the shared
/// dimension disagrees.
pub fn gemm_tn(a: &Tensor, b: &Tensor, scratch: &mut Scratch) -> Result<Tensor, ShapeError> {
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
        b.data(),
        BStore::Normal,
        Blocking::default_tiles(),
        scratch,
    );
    Tensor::from_vec(out, &[m, n])
}

/// Blocked `C = A · Bᵀ` with `a: [m, k]`, `b: [n, k]` (dispatch-free).
///
/// # Errors
///
/// Returns [`ShapeError`] if either input is not rank-2 or the shared
/// dimension disagrees.
pub fn gemm_nt(a: &Tensor, b: &Tensor, scratch: &mut Scratch) -> Result<Tensor, ShapeError> {
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
        b.data(),
        BStore::Transposed,
        Blocking::default_tiles(),
        scratch,
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
        let mut scratch = Scratch::new();
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
            let got = gemm_nn(&a, &b, &mut scratch).unwrap();
            assert_eq!(got, reference(&a, &b, false, false), "nn {m}x{k}x{n}");

            let at = random_tensor(&[k, m], (m + k) as u64);
            let got = gemm_tn(&at, &b, &mut scratch).unwrap();
            assert_eq!(got, reference(&at, &b, true, false), "tn {m}x{k}x{n}");

            let bt = random_tensor(&[n, k], (n + k) as u64);
            let got = gemm_nt(&a, &bt, &mut scratch).unwrap();
            assert_eq!(got, reference(&a, &bt, false, true), "nt {m}x{k}x{n}");
        }
    }

    #[test]
    fn parallel_tile_grid_matches_serial_bitwise() {
        // big enough to cross PAR_TILE_MIN_FLOPS and span several tiles
        let (m, k, n) = (150, 200, 150);
        let a = random_tensor(&[m, k], 21);
        let b = random_tensor(&[k, n], 22);
        let mut scratch = Scratch::new();
        let got = gemm_nn(&a, &b, &mut scratch).unwrap();
        assert_eq!(got, reference(&a, &b, false, false));
    }

    #[test]
    fn scratch_reuse_with_dirty_buffers_is_equal() {
        let a = random_tensor(&[37, 53], 31);
        let b = random_tensor(&[53, 29], 32);
        let mut scratch = Scratch::new();
        let first = gemm_nn(&a, &b, &mut scratch).unwrap();
        // pollute the pool: buffers full of garbage must not leak through
        let mut junk = scratch.take(37 * 53 * 4);
        junk.fill(f32::NAN);
        scratch.give(junk);
        let second = gemm_nn(&a, &b, &mut scratch).unwrap();
        assert_eq!(first, second);
    }

    #[test]
    fn zero_dimensions_are_handled() {
        let mut scratch = Scratch::new();
        let c = gemm_nn(
            &Tensor::zeros(&[0, 3]),
            &Tensor::zeros(&[3, 2]),
            &mut scratch,
        )
        .unwrap();
        assert_eq!(c.dims(), &[0, 2]);
        // k == 0: the product is all zeros, even with a dirty pool
        let mut junk = scratch.take(8);
        junk.fill(9.0);
        scratch.give(junk);
        let c = gemm_nn(
            &Tensor::zeros(&[2, 0]),
            &Tensor::zeros(&[0, 4]),
            &mut scratch,
        )
        .unwrap();
        assert!(c.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn shape_errors_propagate() {
        let mut scratch = Scratch::new();
        assert!(gemm_nn(
            &Tensor::zeros(&[2, 3]),
            &Tensor::zeros(&[4, 2]),
            &mut scratch
        )
        .is_err());
        assert!(gemm_tn(
            &Tensor::zeros(&[3, 2]),
            &Tensor::zeros(&[4, 2]),
            &mut scratch
        )
        .is_err());
        assert!(gemm_nt(
            &Tensor::zeros(&[3, 2]),
            &Tensor::zeros(&[4, 3]),
            &mut scratch
        )
        .is_err());
        assert!(gemm_nn(&Tensor::zeros(&[6]), &Tensor::zeros(&[6, 2]), &mut scratch).is_err());
    }
}
