//! Matrix-multiply entry points with shape-adaptive kernel dispatch.
//!
//! Each of the three variants (`A·B`, `Aᵀ·B`, `A·Bᵀ`) asks
//! [`crate::plan`] for the [`KernelPlan`] of its `(m, n, k)` and
//! executes it: the streaming fallback loops below for shapes where
//! packing cannot pay for itself, or the cache-blocked packed kernel in
//! [`crate::gemm`] with either the default or a shape-tuned blocking.
//! The chosen plan is surfaced through the `tensor.dispatch.plan` span
//! attribute and the `tensor.dispatch.plan.*` counters.
//!
//! Plan choice never changes results: every kernel accumulates each
//! output element in the same strictly ascending-k order (the numerical
//! contract in [`crate::gemm`]), so dispatch is purely a performance
//! decision.
//!
//! The `*_scratch` variants draw their output and pack buffers from a
//! caller-owned [`Scratch`] arena so per-batch allocations disappear
//! from the training loop; the plain variants draw from the calling
//! thread's arena in the process-wide thread-keyed pool
//! ([`crate::scratch::with_thread_scratch`]), so their pack panels are
//! recycled across calls too.
//!
//! The pre-blocking kernels remain available as `matmul_naive` /
//! `matmul_at_b_naive` / `matmul_a_bt_naive` — they are the comparison
//! baseline for the `kernels` criterion bench and the reference oracle
//! for the dispatch-boundary proptests.

use std::sync::{Arc, OnceLock};

use adq_telemetry::alloc;
use adq_telemetry::span::{self, SpanGuard};
use adq_telemetry::{Counter, Histogram, ScopedTimer};
use rayon::prelude::*;

use crate::conv::ConvGemm;
use crate::gemm::{self, AStore, BOperand, BStore};
use crate::plan::{self, KernelPlan};
use crate::scratch::Scratch;
use crate::shape::ShapeError;
use crate::tensor::Tensor;

/// Minimum number of output rows before the fallback loops split work
/// across threads — with fewer rows there is nothing to distribute (the
/// blocked kernel has no such limit: it splits over column tiles too).
const PAR_ROW_THRESHOLD: usize = 8;

// The flop floor before the fallback loops split across threads lives in
// crate::dispatch (GEMM_PAR_FLOPS):
// handing a call to rayon's persistent worker pool costs 1–3 µs (measured
// over 20,000 two-band calls on a 2-vCPU x86-64 VM), and a tall but skinny
// product (say 64×4·4, a training-batch logits matmul) has plenty of rows
// yet finishes serially in less time than that.

/// Parallel-dispatch heuristic for the *fallback* loops: enough rows to
/// split and enough total work to amortise the dispatch.
#[inline]
fn par_dispatch(m: usize, n: usize, k: usize) -> bool {
    m >= PAR_ROW_THRESHOLD
        && m.saturating_mul(n).saturating_mul(k) >= crate::dispatch::GEMM_PAR_FLOPS
}

/// Wall-time of every matmul variant, recorded into the process-wide
/// `tensor.matmul` histogram. The `Arc` is resolved once per process.
pub(crate) fn matmul_timer() -> ScopedTimer {
    static HIST: OnceLock<Arc<Histogram>> = OnceLock::new();
    ScopedTimer::new(
        HIST.get_or_init(|| adq_telemetry::metrics::global().histogram("tensor.matmul")),
    )
}

/// Reports one GEMM call's compute and memory traffic to the resource
/// counters: `2·m·n·k` flops (multiply + add) and one pass over each
/// operand plus the output (`4·(m·k + k·n + m·n)` bytes of `f32`), the
/// standard roofline lower bound. One call per matmul, whatever kernel
/// the shape dispatches to.
#[inline]
fn count_gemm_resources(m: usize, n: usize, k: usize) {
    if !alloc::tracking() {
        return;
    }
    let (m, n, k) = (m as u64, n as u64, k as u64);
    alloc::add_flops(2 * m * n * k);
    alloc::add_bytes_moved(4 * (m * k + k * n + m * n));
}

/// Counts one dispatch into the chosen plan's
/// `tensor.dispatch.plan.<label>` counter.
fn count_plan(chosen: &KernelPlan) {
    static NAIVE: OnceLock<Arc<Counter>> = OnceLock::new();
    static BLOCKED: OnceLock<Arc<Counter>> = OnceLock::new();
    static TUNED: OnceLock<Arc<Counter>> = OnceLock::new();
    let (cell, name) = match chosen {
        KernelPlan::Naive => (&NAIVE, "tensor.dispatch.plan.naive"),
        KernelPlan::Blocked(_) => (&BLOCKED, "tensor.dispatch.plan.blocked"),
        KernelPlan::BlockedTuned(_) => (&TUNED, "tensor.dispatch.plan.blocked_tuned"),
    };
    cell.get_or_init(|| adq_telemetry::metrics::global().counter(name))
        .inc();
}

/// One dispatched product: the output shape and the operands in their
/// declared storage orders.
pub(crate) struct GemmOp<'a> {
    pub(crate) m: usize,
    pub(crate) n: usize,
    pub(crate) k: usize,
    pub(crate) a: &'a [f32],
    pub(crate) a_store: AStore,
    pub(crate) b: BOperand<'a>,
}

impl GemmOp<'_> {
    /// How `B` is read: a convolution's weight gradient reads `cols`
    /// transposed.
    fn b_store(&self) -> BStore {
        match self.b {
            BOperand::Matrix(_, store) => store,
            BOperand::Cols(_, ConvGemm::Forward) => BStore::Normal,
            BOperand::Cols(_, ConvGemm::WeightGrad) => BStore::Transposed,
        }
    }
}

/// Tracing span for one matmul call, carrying the transpose variant the
/// storage orders make and the chosen plan as the `tensor.dispatch.plan`
/// attribute. Products big enough for a blocked plan are worth a span at
/// level 1; everything else (the per-batch small products) only at level
/// 2, so level-1 traces stay below noise.
fn matmul_span(op: &GemmOp, chosen: &KernelPlan) -> SpanGuard {
    let flops = op.m.saturating_mul(op.n).saturating_mul(op.k);
    if span::verbose() || (span::enabled() && flops >= plan::MIN_BLOCKED_FLOPS) {
        let variant = match (op.a_store, op.b_store()) {
            (AStore::Transposed, _) => "tn",
            (_, BStore::Transposed) => "nt",
            _ => "nn",
        };
        span::span_with(
            "tensor.matmul",
            vec![
                ("variant", variant.into()),
                ("m", op.m.into()),
                ("n", op.n.into()),
                ("k", op.k.into()),
                ("tensor.dispatch.plan", chosen.label().into()),
            ],
        )
    } else {
        SpanGuard::disabled()
    }
}

/// Runs one plan on the operands, drawing every buffer from `scratch`.
/// The returned buffer is the `m·n` output, row-major.
///
/// A convolution's column matrix is gathered straight from the padded
/// input by the packed kernel; the naive plan lowers it with [`im2col`]
/// and streams the explicit matrix, as it always has.
///
/// [`im2col`]: crate::im2col
pub(crate) fn execute_plan(chosen: &KernelPlan, op: &GemmOp, scratch: &mut Scratch) -> Vec<f32> {
    if let Some(blocking) = chosen.blocking() {
        let GemmOp { m, n, k, a, .. } = *op;
        return gemm::gemm_alloc(m, n, k, a, op.a_store, op.b, blocking, scratch);
    }
    let b = match op.b {
        BOperand::Matrix(b, _) => b,
        BOperand::Cols(input, _) => input.cols(scratch).data(),
    };
    naive_plan(op, b, scratch)
}

/// The streaming fallback loops on an explicit `B`.
fn naive_plan(op: &GemmOp, b: &[f32], scratch: &mut Scratch) -> Vec<f32> {
    let GemmOp { m, n, k, a, .. } = *op;
    match (op.a_store, op.b_store()) {
        (AStore::Normal, BStore::Normal) => {
            let mut out = scratch.take_zeroed(m * n);
            nn_fallback(m, n, k, a, b, &mut out);
            out
        }
        (AStore::Transposed, BStore::Normal) => {
            let mut out = scratch.take_zeroed(m * n);
            tn_fallback(m, n, k, a, b, &mut out);
            out
        }
        (AStore::Normal, BStore::Transposed) => {
            let mut out = scratch.take(m * n);
            nt_fallback(m, n, k, a, b, &mut out);
            out
        }
        (AStore::Transposed, BStore::Transposed) => {
            unreachable!("no matmul entry point produces a TT product")
        }
    }
}

/// The shared driver behind all three dispatched variants and the
/// implicit convolution products: time, count, plan, trace, execute.
pub(crate) fn dispatch_matmul(op: &GemmOp, scratch: &mut Scratch) -> Vec<f32> {
    let _timer = matmul_timer();
    count_gemm_resources(op.m, op.n, op.k);
    let chosen = match op.b {
        BOperand::Matrix(..) => plan::static_plan(op.m, op.n, op.k),
        BOperand::Cols(..) => plan::gathered_plan(op.m, op.n, op.k),
    };
    let _span = matmul_span(op, &chosen);
    count_plan(&chosen);
    execute_plan(&chosen, op, scratch)
}

/// Dense matrix product `C = A · B` for rank-2 tensors.
///
/// The shape picks the kernel (see [`crate::plan`]): large well-shaped
/// products use the blocked packed kernel (`gemm`); small or
/// lopsided ones an `ikj` loop parallelised over rows. See the module
/// docs of the `gemm` module for the exact numerical guarantee relating
/// the kernels.
///
/// # Errors
///
/// Returns [`ShapeError`] if either input is not rank-2 or the inner
/// dimensions disagree.
///
/// # Example
///
/// ```
/// use adq_tensor::{matmul, Tensor};
///
/// # fn main() -> Result<(), adq_tensor::ShapeError> {
/// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
/// let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2])?;
/// let c = matmul(&a, &b)?;
/// assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
/// # Ok(())
/// # }
/// ```
pub fn matmul(a: &Tensor, b: &Tensor) -> Result<Tensor, ShapeError> {
    crate::scratch::with_thread_scratch(|scratch| matmul_scratch(a, b, scratch))
}

/// [`matmul`] drawing its output and pack buffers from `scratch`.
///
/// # Errors
///
/// Returns [`ShapeError`] under the same conditions as [`matmul`].
pub fn matmul_scratch(a: &Tensor, b: &Tensor, scratch: &mut Scratch) -> Result<Tensor, ShapeError> {
    check_rank2("matmul", a, b)?;
    let (m, k) = (a.dims()[0], a.dims()[1]);
    let (kb, n) = (b.dims()[0], b.dims()[1]);
    if k != kb {
        return Err(ShapeError::mismatch("matmul", a.dims(), b.dims()));
    }
    let out = dispatch_matmul(
        &GemmOp {
            m,
            n,
            k,
            a: a.data(),
            a_store: AStore::Normal,
            b: BOperand::Matrix(b.data(), BStore::Normal),
        },
        scratch,
    );
    Tensor::from_vec(out, &[m, n])
}

/// Computes `C = Aᵀ · B` without materialising the transpose.
///
/// `a` is `[k, m]`, `b` is `[k, n]`, the result is `[m, n]`.
///
/// # Errors
///
/// Returns [`ShapeError`] if either input is not rank-2 or the shared
/// dimension disagrees.
pub fn matmul_at_b(a: &Tensor, b: &Tensor) -> Result<Tensor, ShapeError> {
    crate::scratch::with_thread_scratch(|scratch| matmul_at_b_scratch(a, b, scratch))
}

/// [`matmul_at_b`] drawing its output and pack buffers from `scratch`.
///
/// # Errors
///
/// Returns [`ShapeError`] under the same conditions as [`matmul_at_b`].
pub fn matmul_at_b_scratch(
    a: &Tensor,
    b: &Tensor,
    scratch: &mut Scratch,
) -> Result<Tensor, ShapeError> {
    check_rank2("matmul_at_b", a, b)?;
    let (k, m) = (a.dims()[0], a.dims()[1]);
    let (kb, n) = (b.dims()[0], b.dims()[1]);
    if k != kb {
        return Err(ShapeError::mismatch("matmul_at_b", a.dims(), b.dims()));
    }
    let out = dispatch_matmul(
        &GemmOp {
            m,
            n,
            k,
            a: a.data(),
            a_store: AStore::Transposed,
            b: BOperand::Matrix(b.data(), BStore::Normal),
        },
        scratch,
    );
    Tensor::from_vec(out, &[m, n])
}

/// Computes `C = A · Bᵀ` without materialising the transpose.
///
/// `a` is `[m, k]`, `b` is `[n, k]`, the result is `[m, n]`.
///
/// # Errors
///
/// Returns [`ShapeError`] if either input is not rank-2 or the shared
/// dimension disagrees.
pub fn matmul_a_bt(a: &Tensor, b: &Tensor) -> Result<Tensor, ShapeError> {
    crate::scratch::with_thread_scratch(|scratch| matmul_a_bt_scratch(a, b, scratch))
}

/// [`matmul_a_bt`] drawing its output and pack buffers from `scratch`.
///
/// # Errors
///
/// Returns [`ShapeError`] under the same conditions as [`matmul_a_bt`].
pub fn matmul_a_bt_scratch(
    a: &Tensor,
    b: &Tensor,
    scratch: &mut Scratch,
) -> Result<Tensor, ShapeError> {
    check_rank2("matmul_a_bt", a, b)?;
    let (m, k) = (a.dims()[0], a.dims()[1]);
    let (n, kb) = (b.dims()[0], b.dims()[1]);
    if k != kb {
        return Err(ShapeError::mismatch("matmul_a_bt", a.dims(), b.dims()));
    }
    let out = dispatch_matmul(
        &GemmOp {
            m,
            n,
            k,
            a: a.data(),
            a_store: AStore::Normal,
            b: BOperand::Matrix(b.data(), BStore::Transposed),
        },
        scratch,
    );
    Tensor::from_vec(out, &[m, n])
}

/// `C = A · B` via the pre-blocking streaming loops — the criterion-bench
/// baseline and proptest oracle. Accumulates in ascending-k order,
/// skipping zero `a` entries.
///
/// # Errors
///
/// Returns [`ShapeError`] under the same conditions as [`matmul`].
pub fn matmul_naive(a: &Tensor, b: &Tensor) -> Result<Tensor, ShapeError> {
    check_rank2("matmul", a, b)?;
    let (m, k) = (a.dims()[0], a.dims()[1]);
    let (kb, n) = (b.dims()[0], b.dims()[1]);
    if k != kb {
        return Err(ShapeError::mismatch("matmul", a.dims(), b.dims()));
    }
    let _timer = matmul_timer();
    count_gemm_resources(m, n, k);
    let mut out = vec![0.0f32; m * n];
    nn_fallback(m, n, k, a.data(), b.data(), &mut out);
    Tensor::from_vec(out, &[m, n])
}

/// `C = Aᵀ · B` via the pre-blocking streaming loops (see
/// [`matmul_naive`]).
///
/// # Errors
///
/// Returns [`ShapeError`] under the same conditions as [`matmul_at_b`].
pub fn matmul_at_b_naive(a: &Tensor, b: &Tensor) -> Result<Tensor, ShapeError> {
    check_rank2("matmul_at_b", a, b)?;
    let (k, m) = (a.dims()[0], a.dims()[1]);
    let (kb, n) = (b.dims()[0], b.dims()[1]);
    if k != kb {
        return Err(ShapeError::mismatch("matmul_at_b", a.dims(), b.dims()));
    }
    let _timer = matmul_timer();
    count_gemm_resources(m, n, k);
    let mut out = vec![0.0f32; m * n];
    tn_fallback(m, n, k, a.data(), b.data(), &mut out);
    Tensor::from_vec(out, &[m, n])
}

/// `C = A · Bᵀ` via the pre-blocking streaming loops (see
/// [`matmul_naive`]).
///
/// # Errors
///
/// Returns [`ShapeError`] under the same conditions as [`matmul_a_bt`].
pub fn matmul_a_bt_naive(a: &Tensor, b: &Tensor) -> Result<Tensor, ShapeError> {
    check_rank2("matmul_a_bt", a, b)?;
    let (m, k) = (a.dims()[0], a.dims()[1]);
    let (n, kb) = (b.dims()[0], b.dims()[1]);
    if k != kb {
        return Err(ShapeError::mismatch("matmul_a_bt", a.dims(), b.dims()));
    }
    let _timer = matmul_timer();
    count_gemm_resources(m, n, k);
    let mut out = vec![0.0f32; m * n];
    nt_fallback(m, n, k, a.data(), b.data(), &mut out);
    Tensor::from_vec(out, &[m, n])
}

/// Streaming `ikj` loop for `C += A·B`; `out` must be zeroed.
fn nn_fallback(m: usize, n: usize, k: usize, a_data: &[f32], b_data: &[f32], out: &mut [f32]) {
    let body = |(i, row): (usize, &mut [f32])| {
        for l in 0..k {
            let a_il = a_data[i * k + l];
            if a_il == 0.0 {
                continue;
            }
            let b_row = &b_data[l * n..(l + 1) * n];
            for (c, &bv) in row.iter_mut().zip(b_row) {
                *c += a_il * bv;
            }
        }
    };
    if par_dispatch(m, n, k) {
        out.par_chunks_mut(n).enumerate().for_each(body);
    } else {
        out.chunks_mut(n).enumerate().for_each(body);
    }
}

/// Streaming `ikj` loop for `C += Aᵀ·B` (`a_data` is `[k, m]`); `out` must
/// be zeroed.
fn tn_fallback(m: usize, n: usize, k: usize, a_data: &[f32], b_data: &[f32], out: &mut [f32]) {
    let body = |(i, row): (usize, &mut [f32])| {
        for l in 0..k {
            let a_li = a_data[l * m + i];
            if a_li == 0.0 {
                continue;
            }
            let b_row = &b_data[l * n..(l + 1) * n];
            for (c, &bv) in row.iter_mut().zip(b_row) {
                *c += a_li * bv;
            }
        }
    };
    if par_dispatch(m, n, k) {
        out.par_chunks_mut(n).enumerate().for_each(body);
    } else {
        out.chunks_mut(n).enumerate().for_each(body);
    }
}

/// Row-dot loop for `C = A·Bᵀ` (`b_data` is `[n, k]`); writes every
/// element of `out`.
fn nt_fallback(m: usize, n: usize, k: usize, a_data: &[f32], b_data: &[f32], out: &mut [f32]) {
    let body = |(i, row): (usize, &mut [f32])| {
        let a_row = &a_data[i * k..(i + 1) * k];
        for (j, c) in row.iter_mut().enumerate() {
            let b_row = &b_data[j * k..(j + 1) * k];
            *c = dot(a_row, b_row);
        }
    };
    if par_dispatch(m, n, k) {
        out.par_chunks_mut(n).enumerate().for_each(body);
    } else {
        out.chunks_mut(n).enumerate().for_each(body);
    }
}

#[inline]
fn dot(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).map(|(&x, &y)| x * y).sum()
}

fn check_rank2(context: &str, a: &Tensor, b: &Tensor) -> Result<(), ShapeError> {
    if a.rank() != 2 || b.rank() != 2 {
        return Err(ShapeError::mismatch(context, a.dims(), b.dims()));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::static_plan;

    fn naive(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = (a.dims()[0], a.dims()[1]);
        let n = b.dims()[1];
        let mut out = Tensor::zeros(&[m, n]);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for l in 0..k {
                    acc += a.at2(i, l) * b.at2(l, j);
                }
                *out.at2_mut(i, j) = acc;
            }
        }
        out
    }

    fn random_tensor(dims: &[usize], seed: u64) -> Tensor {
        // simple deterministic LCG so this test has no RNG dependency
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

    fn assert_close(a: &Tensor, b: &Tensor, tol: f32) {
        assert_eq!(a.dims(), b.dims());
        for (x, y) in a.data().iter().zip(b.data()) {
            assert!((x - y).abs() <= tol, "{x} vs {y}");
        }
    }

    #[test]
    fn matmul_matches_naive_small() {
        let a = random_tensor(&[3, 4], 1);
        let b = random_tensor(&[4, 5], 2);
        assert_close(&matmul(&a, &b).unwrap(), &naive(&a, &b), 1e-5);
    }

    #[test]
    fn matmul_matches_naive_parallel_path() {
        let a = random_tensor(&[33, 17], 3);
        let b = random_tensor(&[17, 29], 4);
        assert_close(&matmul(&a, &b).unwrap(), &naive(&a, &b), 1e-4);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = random_tensor(&[6, 6], 5);
        assert_close(&matmul(&a, &Tensor::eye(6)).unwrap(), &a, 1e-6);
    }

    #[test]
    fn matmul_inner_dim_mismatch() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[4, 5]);
        assert!(matmul(&a, &b).is_err());
        assert!(matmul_naive(&a, &b).is_err());
    }

    #[test]
    fn matmul_rejects_rank1() {
        let a = Tensor::zeros(&[6]);
        let b = Tensor::zeros(&[6, 2]);
        assert!(matmul(&a, &b).is_err());
        assert!(matmul_naive(&a, &b).is_err());
    }

    #[test]
    fn at_b_matches_explicit_transpose() {
        let a = random_tensor(&[7, 3], 6);
        let b = random_tensor(&[7, 5], 7);
        let expected = matmul(&a.transposed(), &b).unwrap();
        assert_close(&matmul_at_b(&a, &b).unwrap(), &expected, 1e-5);
    }

    #[test]
    fn a_bt_matches_explicit_transpose() {
        let a = random_tensor(&[4, 6], 8);
        let b = random_tensor(&[9, 6], 9);
        let expected = matmul(&a, &b.transposed()).unwrap();
        assert_close(&matmul_a_bt(&a, &b).unwrap(), &expected, 1e-5);
    }

    #[test]
    fn at_b_shape_mismatch() {
        assert!(matmul_at_b(&Tensor::zeros(&[3, 2]), &Tensor::zeros(&[4, 2])).is_err());
        assert!(matmul_at_b_naive(&Tensor::zeros(&[3, 2]), &Tensor::zeros(&[4, 2])).is_err());
    }

    #[test]
    fn a_bt_shape_mismatch() {
        assert!(matmul_a_bt(&Tensor::zeros(&[3, 2]), &Tensor::zeros(&[4, 3])).is_err());
        assert!(matmul_a_bt_naive(&Tensor::zeros(&[3, 2]), &Tensor::zeros(&[4, 3])).is_err());
    }

    #[test]
    fn zero_sized_matmul() {
        let a = Tensor::zeros(&[0, 3]);
        let b = Tensor::zeros(&[3, 2]);
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.dims(), &[0, 2]);
    }

    #[test]
    fn fallback_dispatch_requires_both_rows_and_flops() {
        // many rows, trivial work: stays serial
        assert!(!par_dispatch(64, 4, 4));
        // few rows: the fallback never splits (wide-short products route
        // to the naive plan and stream serially — see crate::plan)
        assert!(!par_dispatch(4, 1024, 1024));
        // both thresholds met: parallel
        assert!(par_dispatch(64, 64, 64));
        // boundary: exactly the flop threshold qualifies
        assert!(par_dispatch(8, 64, 64));
        assert!(!par_dispatch(8, 64, 63));
        // degenerate shapes never overflow the work estimate
        assert!(par_dispatch(usize::MAX, usize::MAX, usize::MAX));
    }

    #[test]
    fn every_plan_kind_matches_the_naive_reference() {
        // one shape per plan kind, checked via the public entry points
        let cases = [
            // 64·64·64 = 2^18 flops, k ≥ MIN_K, 16 row / 4 col strips
            (64usize, 64usize, 64usize, "blocked"),
            // m ≤ TUNED_MAX_M with k > KC: shape-tuned k blocking
            (16, 2048, 32, "blocked_tuned"),
            // one row strip: the wide-short regression class
            (4, 256, 256, "naive"),
        ];
        for (m, k, n, label) in cases {
            assert_eq!(
                static_plan(m, n, k).label(),
                label,
                "plan for ({m},{k},{n})"
            );
            let a = random_tensor(&[m, k], 101 + m as u64);
            let b = random_tensor(&[k, n], 102 + n as u64);
            assert_close(
                &matmul(&a, &b).unwrap(),
                &matmul_naive(&a, &b).unwrap(),
                1e-4,
            );

            let at = random_tensor(&[k, m], 103 + m as u64);
            assert_close(
                &matmul_at_b(&at, &b).unwrap(),
                &matmul_at_b_naive(&at, &b).unwrap(),
                1e-4,
            );
            let bt = random_tensor(&[n, k], 104 + n as u64);
            assert_close(
                &matmul_a_bt(&a, &bt).unwrap(),
                &matmul_a_bt_naive(&a, &bt).unwrap(),
                1e-4,
            );
        }
    }

    #[test]
    fn wide_short_products_take_the_naive_plan() {
        // the PR-3 regression: one row strip cannot amortise packing B,
        // so the plan layer now keeps these on the streaming loops
        assert_eq!(static_plan(4, 4096, 4096).label(), "naive");
        // the square-ish bench winners stay blocked
        assert_eq!(static_plan(512, 512, 512).label(), "blocked");
    }

    #[test]
    fn forced_blocked_plans_match_naive_even_where_the_plan_says_no() {
        // dispatch is a pure performance decision: running the packed
        // kernel on a shape the heuristic routes to naive must still
        // produce the same numbers
        let (m, k, n) = (4usize, 300usize, 256usize);
        assert_eq!(static_plan(m, n, k).label(), "naive");
        let a = random_tensor(&[m, k], 301);
        let b = random_tensor(&[k, n], 302);
        let mut scratch = Scratch::new();
        for chosen in [
            KernelPlan::Blocked(crate::plan::Blocking::default_tiles()),
            KernelPlan::BlockedTuned(crate::plan::Blocking {
                kc: 300,
                ..crate::plan::Blocking::default_tiles()
            }),
        ] {
            let out = execute_plan(
                &chosen,
                &GemmOp {
                    m,
                    n,
                    k,
                    a: a.data(),
                    a_store: AStore::Normal,
                    b: BOperand::Matrix(b.data(), BStore::Normal),
                },
                &mut scratch,
            );
            let expected = matmul_naive(&a, &b).unwrap();
            for (x, y) in out.iter().zip(expected.data()) {
                assert!((x - y).abs() <= 1e-4, "{chosen:?}: {x} vs {y}");
            }
            scratch.give(out);
        }
    }

    #[test]
    fn warm_scratch_blocked_matmul_allocates_only_the_escaping_output() {
        // the conv blocked_scratch regression: the output buffer was
        // taken from the arena *before* the pack panels, so best-fit
        // handed the output a pooled pack panel and every warm call
        // cascaded into a fresh allocation of the largest panel. With
        // panels taken first, a warm call's only fresh allocation is the
        // m·n output that escapes to the caller as a Tensor.
        let (m, k, n) = (64usize, 512usize, 64usize); // conv-like: panels > output
        assert!(
            static_plan(m, n, k).blocking().is_some(),
            "the test shape must route to a packed-kernel plan"
        );
        let a = random_tensor(&[m, k], 401);
        let b = random_tensor(&[k, n], 402);
        let mut scratch = Scratch::new();
        let _ = matmul_scratch(&a, &b, &mut scratch).unwrap(); // cold call warms the pool
        let warm = scratch.fresh_allocs();
        for _ in 0..3 {
            let _ = matmul_scratch(&a, &b, &mut scratch).unwrap();
        }
        assert_eq!(
            scratch.fresh_allocs() - warm,
            3,
            "a warm blocked matmul_scratch call must allocate exactly once (the escaping output)"
        );
    }

    #[test]
    fn scratch_variants_match_plain_variants() {
        let mut scratch = Scratch::new();
        let a = random_tensor(&[12, 9], 55);
        let b = random_tensor(&[9, 14], 56);
        assert_eq!(
            matmul_scratch(&a, &b, &mut scratch).unwrap(),
            matmul(&a, &b).unwrap()
        );
        let at = random_tensor(&[9, 12], 57);
        assert_eq!(
            matmul_at_b_scratch(&at, &b, &mut scratch).unwrap(),
            matmul_at_b(&at, &b).unwrap()
        );
        let bt = random_tensor(&[14, 9], 58);
        assert_eq!(
            matmul_a_bt_scratch(&a, &bt, &mut scratch).unwrap(),
            matmul_a_bt(&a, &bt).unwrap()
        );
        // a second pass through the (now warm) arena must be identical
        assert_eq!(
            matmul_scratch(&a, &b, &mut scratch).unwrap(),
            matmul(&a, &b).unwrap()
        );
    }

    #[test]
    fn small_shapes_stay_serial_and_correct() {
        // shapes straddling the row threshold but below the flop threshold:
        // all three variants must agree with the naive reference on the
        // serial path they now take
        for (m, k, n) in [(64, 4, 4), (16, 8, 8), (9, 3, 7)] {
            assert!(
                !par_dispatch(m, n, k),
                "({m},{k},{n}) unexpectedly parallel"
            );
            let a = random_tensor(&[m, k], (m * k) as u64);
            let b = random_tensor(&[k, n], (k * n + 1) as u64);
            assert_close(&matmul(&a, &b).unwrap(), &naive(&a, &b), 1e-5);

            let at = random_tensor(&[k, m], (m + k) as u64);
            let expected = matmul(&at.transposed(), &b).unwrap();
            assert_close(&matmul_at_b(&at, &b).unwrap(), &expected, 1e-5);

            let bt = random_tensor(&[n, k], (n + k) as u64);
            let expected = matmul(&a, &bt.transposed()).unwrap();
            assert_close(&matmul_a_bt(&a, &bt).unwrap(), &expected, 1e-5);
        }
    }

    #[test]
    fn parallel_and_serial_paths_agree_across_threshold() {
        // one shape just under and one just over the flop threshold
        let small = (8usize, 16usize, 16usize); // 2048 flops: serial
        let large = (32usize, 64usize, 64usize); // 131072 flops: parallel
        assert!(!par_dispatch(small.0, small.2, small.1));
        assert!(par_dispatch(large.0, large.2, large.1));
        for (m, k, n) in [small, large] {
            let a = random_tensor(&[m, k], 77);
            let b = random_tensor(&[k, n], 78);
            assert_close(&matmul(&a, &b).unwrap(), &naive(&a, &b), 1e-4);
        }
    }
}
