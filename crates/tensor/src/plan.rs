//! Shape-adaptive kernel selection for the three matmul variants.
//!
//! PR 3's blocked GEMM dispatched on a single flop cutoff and lost on
//! shapes where its fixed `MC/NC/KC` tiling cannot pay for the pack pass:
//! `wide_short` (`[4, 4096]·[4096, 4096]`) packs all 64 MB of `B` for a
//! kernel that reads each packed element exactly once, and ran ~2.6×
//! *slower* than the naive stream. One tiling does not fit every
//! `(m, n, k, transpose)` Algorithm 1 produces — the same
//! one-size-fits-none observation that drives the paper's per-layer
//! bit-widths, applied to kernel choice.
//!
//! This module picks a [`KernelPlan`] per shape instead:
//!
//! * **Naive** — the streaming fallback loops. Chosen when the product is
//!   small, thinner than a micro-tile, or so lopsided that a packed
//!   operand would be reused too few times to amortise packing it
//!   (wide-short: few row strips ⇒ the `B` panel is nearly write-only;
//!   tall-thin: few column strips ⇒ ditto for `A`; tiny-k: the inner
//!   loop is too short to amortise either pack).
//! * **Blocked** — the packed kernel with the default
//!   [`MC`]/[`NC`]/[`KC`]
//!   tiles, the right choice for the square-ish conv/linear shapes.
//! * **BlockedTuned** — the packed kernel with shape-tuned `(MC, NC, KC)`
//!   blocking: products with few row tiles re-load `C` once per k-block,
//!   so a short-`m` product balances `k` into fewer, larger blocks.
//!
//! Every candidate accumulates each output element in the same strictly
//! ascending-k order, so **plan choice never changes results** (see the
//! numerical contract in the `gemm` module) — dispatch is a pure
//! performance decision, and whole-run determinism (bit-identical
//! checkpoint resume, thread-count invariance) is preserved no matter
//! which plan wins.
//!
//! The plan is a pure function of `(m, n, k)` and of whether `B` is a
//! matrix or gathered from a convolution's input ([`gathered_plan`]):
//! the transpose variant does not enter it, and there is no runtime
//! override.

use crate::gemm::{KC, MC, MR, NC, NR};

/// Minimum estimated work (`m·n·k` multiply-adds) before any blocked
/// plan is considered. Below this, packing costs more than the cache
/// locality recovers; above it the blocked kernel wins decisively on
/// shapes that pass the reuse gates (the 512³ bench shape is 512× this
/// threshold).
pub const MIN_BLOCKED_FLOPS: usize = 1 << 18;

/// Minimum row strips (`ceil(m / MR)`) before packing `B` pays off: each
/// packed `B` element is read once per row strip, so fewer strips than
/// this leaves the dominant pack pass mostly unamortised (the
/// `wide_short` bench shape has exactly one row strip and regressed
/// 2.6× under the blocked kernel).
pub const MIN_ROW_STRIPS: usize = 4;

/// Minimum column strips (`ceil(n / NR)`) before packing `A` pays off —
/// the transpose of the [`MIN_ROW_STRIPS`] argument, for tall-thin
/// products.
pub const MIN_COL_STRIPS: usize = 2;

/// Minimum inner dimension before either pack pass pays off: with `k`
/// below this the micro-kernel's per-tile loop is shorter than its
/// load/store epilogue and the naive stream wins.
pub const MIN_K: usize = 16;

/// Products with at most this many rows take the shape-tuned blocking:
/// their entire `C` footprint is small enough that re-loading it per
/// k-block is the dominant traffic, so `k` is balanced into fewer,
/// larger blocks (see `tuned_blocking`).
pub const TUNED_MAX_M: usize = MC;

/// Upper bound on a tuned k-block: `4 × KC` keeps the packed B strip
/// (`kc·NR` floats) within L2 while quartering the number of `C`
/// reload passes.
pub const TUNED_KC_MAX: usize = 4 * KC;

/// Cache-blocking parameters for the packed GEMM kernel. The register
/// micro-tile (`MR × NR`) is fixed — it is sized to the machine's vector
/// registers, not the shape — but the macro tiling is per-plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Blocking {
    /// Macro-tile rows (multiple of [`MR`]).
    pub mc: usize,
    /// Macro-tile columns (multiple of [`NR`]).
    pub nc: usize,
    /// k-dimension block length.
    pub kc: usize,
}

impl Blocking {
    /// The PR-3 default tiles: `MC=64`, `NC=128`, `KC=256`.
    pub const fn default_tiles() -> Self {
        Self {
            mc: MC,
            nc: NC,
            kc: KC,
        }
    }

    /// Validates the micro-tile alignment invariants the packed kernel
    /// relies on (macro tiles must cover whole register tiles).
    pub fn is_valid(&self) -> bool {
        self.mc > 0
            && self.nc > 0
            && self.kc > 0
            && self.mc.is_multiple_of(MR)
            && self.nc.is_multiple_of(NR)
    }
}

/// The kernel a product of a given shape is routed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelPlan {
    /// The streaming fallback loops (ascending-k, row-major).
    Naive,
    /// The packed kernel with the default tiles.
    Blocked(Blocking),
    /// The packed kernel with shape-tuned tiles.
    BlockedTuned(Blocking),
}

impl KernelPlan {
    /// Label surfaced in the `tensor.dispatch.plan` span attribute and
    /// the per-plan dispatch counters.
    pub fn label(&self) -> &'static str {
        match self {
            KernelPlan::Naive => "naive",
            KernelPlan::Blocked(_) => "blocked",
            KernelPlan::BlockedTuned(_) => "blocked_tuned",
        }
    }

    /// The blocking to run the packed kernel with, if this is a blocked
    /// plan.
    pub fn blocking(&self) -> Option<Blocking> {
        match self {
            KernelPlan::Naive => None,
            KernelPlan::Blocked(b) | KernelPlan::BlockedTuned(b) => Some(*b),
        }
    }
}

/// Shape-tuned blocking for products that qualify for the packed kernel
/// but sit badly in the default tiles.
///
/// Currently one tuning rule, for products with `m ≤ TUNED_MAX_M` and
/// `k > KC`. They have a single row tile, so:
///
/// * the whole cost of multi-pass blocking is the `C` reload per
///   k-block — balance `k` into the fewest blocks whose packed strips
///   still stream from L2 (`kc ≤ TUNED_KC_MAX`), with near-equal block
///   lengths so the tail block is not degenerate;
/// * every tile is one column tile, and the worker pool splits the tiles
///   into contiguous bands — so each tile is one `NR` column strip
///   (`nc = NR`). With `NC`-wide tiles, a weight gradient of `n = 144`
///   has tiles of 8 strips and 1 strip, and one worker gets 8/9 of the
///   work.
fn tuned_blocking(m: usize, k: usize) -> Option<Blocking> {
    if m <= TUNED_MAX_M && k > KC {
        let blocks = k.div_ceil(TUNED_KC_MAX);
        Some(Blocking {
            mc: MC,
            nc: NR,
            kc: k.div_ceil(blocks),
        })
    } else {
        None
    }
}

/// The static shape heuristic: aspect-ratio and per-dimension fit
/// against the `MR=4`/`NR=16` micro-tile and the cache block sizes.
///
/// This replaces the single `BLOCKED_MIN_FLOPS` cutoff that routed
/// *every* sufficiently large product — including the pathological
/// wide-short ones — to one fixed tiling.
pub fn static_plan(m: usize, n: usize, k: usize) -> KernelPlan {
    if !fits_blocked(m, n, k) {
        return KernelPlan::Naive;
    }
    // Reuse gates: a packed element of B is read once per row strip, a
    // packed element of A once per column strip.
    if m.div_ceil(MR) < MIN_ROW_STRIPS || n.div_ceil(NR) < MIN_COL_STRIPS {
        return KernelPlan::Naive;
    }
    blocked(m, k)
}

/// The plan for a convolution product whose `B` the packed kernel
/// gathers from the padded input instead of packing it. Such a `B` has
/// no pack pass to amortise, while the naive plan would first have to
/// build the whole column matrix, so the reuse gates do not apply:
/// every product at least one register tile wide takes the blocked
/// kernel. `ResNet::small`'s projection weight gradient (`m = 32`, `n =
/// 16`, `k = 1536` at batch 24) is one.
pub fn gathered_plan(m: usize, n: usize, k: usize) -> KernelPlan {
    if !fits_blocked(m, n, k) {
        return KernelPlan::Naive;
    }
    blocked(m, k)
}

/// Whether a product is big enough in every dimension for the packed
/// kernel at all.
fn fits_blocked(m: usize, n: usize, k: usize) -> bool {
    let flops = m.saturating_mul(n).saturating_mul(k);
    // Thinner than one register tile: the packed kernel would zero-pad
    // most of every strip it touches. Too little total work to amortise
    // any packing at all. Too short an inner loop to amortise either pack
    // pass.
    m >= MR && n >= NR && flops >= MIN_BLOCKED_FLOPS && k >= MIN_K
}

/// The blocked plan for a product of `m` rows and inner dimension `k`.
fn blocked(m: usize, k: usize) -> KernelPlan {
    match tuned_blocking(m, k) {
        Some(b) => KernelPlan::BlockedTuned(b),
        None => KernelPlan::Blocked(Blocking::default_tiles()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_shapes_get_the_right_static_plans() {
        // the PR-3 wins stay blocked
        assert!(matches!(static_plan(512, 512, 512), KernelPlan::Blocked(_)));
        assert!(matches!(
            static_plan(512, 1024, 4608),
            KernelPlan::Blocked(_)
        ));
        assert!(matches!(
            static_plan(128, 1152, 1024),
            KernelPlan::Blocked(_)
        ));
        // the regressions route to naive
        assert_eq!(static_plan(4, 4096, 4096), KernelPlan::Naive);
    }

    #[test]
    fn thin_small_and_short_k_products_stay_naive() {
        assert_eq!(static_plan(3, 4096, 4096), KernelPlan::Naive); // m < MR
        assert_eq!(static_plan(4096, 15, 4096), KernelPlan::Naive); // n < NR
        assert_eq!(static_plan(8, 8, 8), KernelPlan::Naive); // tiny flops
        assert_eq!(static_plan(4096, 4096, 4), KernelPlan::Naive); // tiny k
        assert_eq!(static_plan(12, 4096, 4096), KernelPlan::Naive); // 3 row strips
        assert_eq!(static_plan(4096, 16, 256), KernelPlan::Naive); // 1 col strip
    }

    #[test]
    fn reuse_gate_boundaries_are_exact() {
        // 13 rows is the first m with ceil(m/MR) == MIN_ROW_STRIPS
        assert_eq!(static_plan(12, 2048, 2048), KernelPlan::Naive);
        assert!(matches!(
            static_plan(13, 2048, 2048),
            KernelPlan::BlockedTuned(_)
        ));
        // 17 columns is the first n with ceil(n/NR) == MIN_COL_STRIPS
        assert_eq!(static_plan(512, 16, 512), KernelPlan::Naive);
        assert!(matches!(static_plan(512, 17, 512), KernelPlan::Blocked(_)));
        // k straddling MIN_K
        assert_eq!(static_plan(512, 512, MIN_K - 1), KernelPlan::Naive);
        assert!(matches!(
            static_plan(512, 512, MIN_K),
            KernelPlan::Blocked(_)
        ));
        // flops straddling MIN_BLOCKED_FLOPS (64·64·64 == 2^18)
        assert_eq!(static_plan(64, 64, 63), KernelPlan::Naive);
        assert!(matches!(static_plan(64, 64, 64), KernelPlan::Blocked(_)));
    }

    #[test]
    fn gathered_products_one_tile_wide_take_the_blocked_kernel() {
        // ResNet::small's projection weight gradient at batch 24: one
        // column strip, so a packed B would fail the reuse gate, but a
        // gathered one has no pack pass to amortise
        assert_eq!(static_plan(32, 16, 1536), KernelPlan::Naive);
        let plan = gathered_plan(32, 16, 1536);
        assert!(
            matches!(plan, KernelPlan::BlockedTuned(b) if b.is_valid()),
            "{plan:?}"
        );
        // fewer row strips than the B-reuse gate asks for
        assert!(matches!(
            gathered_plan(8, 4096, 4096),
            KernelPlan::BlockedTuned(_)
        ));
        // every shape the matrix plan blocks stays blocked, alike
        for (m, n, k) in [(512, 512, 512), (128, 1152, 1024), (32, 144, 1536)] {
            assert_eq!(gathered_plan(m, n, k), static_plan(m, n, k));
        }
        // thinner than a register tile, or too little work, stays naive
        assert_eq!(gathered_plan(32, NR - 1, 1536), KernelPlan::Naive);
        assert_eq!(gathered_plan(MR - 1, 4096, 4096), KernelPlan::Naive);
        assert_eq!(gathered_plan(32, 16, MIN_K - 1), KernelPlan::Naive);
        assert_eq!(gathered_plan(4, 16, 64), KernelPlan::Naive);
    }

    #[test]
    fn degenerate_shapes_never_overflow() {
        // saturating work estimate: must not panic and must stay blocked
        assert!(matches!(
            static_plan(usize::MAX, usize::MAX, usize::MAX),
            KernelPlan::Blocked(_)
        ));
    }

    #[test]
    fn tuned_blocking_balances_k() {
        // m small, k large: tuned plan with near-equal k-blocks
        let plan = static_plan(32, 2048, 4096);
        let KernelPlan::BlockedTuned(b) = plan else {
            panic!("expected tuned plan, got {plan:?}");
        };
        assert!(b.is_valid());
        assert!(b.kc > KC && b.kc <= TUNED_KC_MAX);
        // one row tile, so one column strip per tile
        assert_eq!((b.mc, b.nc), (MC, NR));
        // blocks differ in length by at most one kc
        let blocks = 4096usize.div_ceil(b.kc);
        assert!(blocks * b.kc >= 4096 && (blocks - 1) * b.kc < 4096);
        // m above the tuned band keeps the default tiles
        assert_eq!(
            static_plan(TUNED_MAX_M + 1, 2048, 4096),
            KernelPlan::Blocked(Blocking::default_tiles())
        );
    }

    #[test]
    fn plan_labels_are_stable() {
        assert_eq!(KernelPlan::Naive.label(), "naive");
        assert_eq!(
            KernelPlan::Blocked(Blocking::default_tiles()).label(),
            "blocked"
        );
        assert_eq!(
            KernelPlan::BlockedTuned(Blocking::default_tiles()).label(),
            "blocked_tuned"
        );
        assert_eq!(KernelPlan::Naive.blocking(), None);
        assert_eq!(
            KernelPlan::Blocked(Blocking::default_tiles()).blocking(),
            Some(Blocking::default_tiles())
        );
    }
}
