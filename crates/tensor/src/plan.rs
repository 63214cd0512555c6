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
//!   [`MC`](crate::gemm::MC)/[`NC`](crate::gemm::NC)/[`KC`](crate::gemm::KC)
//!   tiles, the right choice for the square-ish conv/linear shapes.
//! * **BlockedTuned** — the packed kernel with shape-tuned `(MC, NC, KC)`
//!   blocking: products with few row tiles re-load `C` once per k-block,
//!   so a short-`m` product balances `k` into fewer, larger blocks.
//!
//! Every candidate accumulates each output element in the same strictly
//! ascending-k order, so **plan choice never changes results** (see the
//! numerical contract in [`crate::gemm`]) — dispatch is a pure
//! performance decision, and whole-run determinism (bit-identical
//! checkpoint resume, thread-count invariance) is preserved no matter
//! which plan wins.
//!
//! Setting `ADQ_AUTOTUNE=1` additionally enables a one-shot autotune
//! pass: the first time a shape is seen, every candidate plan is timed
//! on the live operands and the winner is cached in a process-level
//! table (`tensor.dispatch.autotune.benched` / `.cache_hits` count the
//! activity). The cache makes the choice deterministic for the rest of
//! the process even though the timings themselves are noisy.

use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};
use std::time::Duration;

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
/// larger blocks (see [`tuned_blocking`]).
pub const TUNED_MAX_M: usize = MC;

/// Upper bound on a tuned k-block: `4 × KC` keeps the packed B strip
/// (`kc·NR` floats) within L2 while quartering the number of `C`
/// reload passes.
pub const TUNED_KC_MAX: usize = 4 * KC;

/// Which of the three matmul entry points a plan is selected for. The
/// transpose variant changes packing cost (strided vs streaming reads),
/// so it is part of the plan key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Variant {
    /// `C = A · B`.
    NN,
    /// `C = Aᵀ · B`.
    TN,
    /// `C = A · Bᵀ`.
    NT,
}

impl Variant {
    /// Short label used in span attributes and autotune logs.
    pub fn label(self) -> &'static str {
        match self {
            Variant::NN => "nn",
            Variant::TN => "tn",
            Variant::NT => "nt",
        }
    }
}

/// Cache-blocking parameters for the packed GEMM kernel. The register
/// micro-tile (`MR × NR`) is fixed — it is sized to the machine's vector
/// registers, not the shape — but the macro tiling is per-plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
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

impl Default for Blocking {
    fn default() -> Self {
        Self::default_tiles()
    }
}

/// The kernel a product of a given shape is routed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
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
/// Currently one tuning rule: products with `m ≤ TUNED_MAX_M` have a
/// single row tile, so the whole cost of multi-pass blocking is the `C`
/// reload per k-block — balance `k` into the fewest blocks whose packed
/// strips still stream from L2 (`kc ≤ TUNED_KC_MAX`), with near-equal
/// block lengths so the tail block is not degenerate.
fn tuned_blocking(m: usize, _n: usize, k: usize) -> Option<Blocking> {
    if m <= TUNED_MAX_M && k > KC {
        let blocks = k.div_ceil(TUNED_KC_MAX);
        Some(Blocking {
            kc: k.div_ceil(blocks),
            ..Blocking::default_tiles()
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
pub fn static_plan(_variant: Variant, m: usize, n: usize, k: usize) -> KernelPlan {
    let flops = m.saturating_mul(n).saturating_mul(k);
    // Thinner than one register tile: the packed kernel would zero-pad
    // most of every strip it touches.
    if m < MR || n < NR {
        return KernelPlan::Naive;
    }
    // Too little total work to amortise any packing at all.
    if flops < MIN_BLOCKED_FLOPS {
        return KernelPlan::Naive;
    }
    // Too short an inner loop to amortise either pack pass.
    if k < MIN_K {
        return KernelPlan::Naive;
    }
    // Reuse gates: a packed element of B is read once per row strip, a
    // packed element of A once per column strip.
    if m.div_ceil(MR) < MIN_ROW_STRIPS || n.div_ceil(NR) < MIN_COL_STRIPS {
        return KernelPlan::Naive;
    }
    match tuned_blocking(m, n, k) {
        Some(b) => KernelPlan::BlockedTuned(b),
        None => KernelPlan::Blocked(Blocking::default_tiles()),
    }
}

/// Candidate plans the autotune pass races for a shape: the static
/// choice always competes, plus every distinct alternative.
pub fn candidates(variant: Variant, m: usize, n: usize, k: usize) -> Vec<KernelPlan> {
    let mut plans = vec![KernelPlan::Naive];
    // Blocked candidates only make sense where the packed kernel can
    // form at least one register tile.
    if m >= MR && n >= NR && k > 0 {
        plans.push(KernelPlan::Blocked(Blocking::default_tiles()));
        if let Some(b) = tuned_blocking(m, n, k) {
            plans.push(KernelPlan::BlockedTuned(b));
        }
    }
    let static_choice = static_plan(variant, m, n, k);
    if !plans.contains(&static_choice) {
        plans.push(static_choice);
    }
    plans
}

/// Whether the one-shot autotune pass is enabled (`ADQ_AUTOTUNE`,
/// parsed once through the hardened [`adq_telemetry::env`] reader:
/// invalid values warn and fall back to off).
pub fn autotune_enabled() -> bool {
    static ENABLED: OnceLock<bool> = OnceLock::new();
    *ENABLED.get_or_init(|| adq_telemetry::env::bool_var("ADQ_AUTOTUNE", false))
}

/// Autotune-table key: the transpose variant, the exact shape, and
/// whether `B` is a convolution's implicit column matrix.
type PlanKey = (Variant, usize, usize, usize, bool);

/// Process-level table of autotuned plans, keyed by exact shape and
/// transpose variant.
fn cache() -> &'static Mutex<HashMap<PlanKey, KernelPlan>> {
    static CACHE: OnceLock<Mutex<HashMap<PlanKey, KernelPlan>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Number of shapes currently in the autotune table (for tests and the
/// `adq-report` run analyzer).
pub fn autotune_cache_len() -> usize {
    cache().lock().expect("autotune cache poisoned").len()
}

/// The autotuned plan for a shape: cached winner if present, otherwise
/// every candidate is timed via `bench` (warm-up + timed run each, on
/// the caller's live operands) and the fastest is cached and returned.
///
/// The first insert wins: once a shape is in the table its plan never
/// changes for the lifetime of the process, so dispatch is deterministic
/// per process even though the timings are not.
///
/// `implicit` marks a convolution product whose `B` is gathered from a
/// padded input: its naive candidate also pays the `im2col` lowering, so
/// its winner is kept apart from an explicit matmul of the same shape.
pub fn autotuned(
    variant: Variant,
    m: usize,
    n: usize,
    k: usize,
    implicit: bool,
    mut bench: impl FnMut(&KernelPlan) -> Duration,
) -> KernelPlan {
    let key = (variant, m, n, k, implicit);
    if let Some(plan) = cache().lock().expect("autotune cache poisoned").get(&key) {
        autotune_hits().inc();
        return *plan;
    }
    let mut best: Option<(Duration, KernelPlan)> = None;
    for plan in candidates(variant, m, n, k) {
        let elapsed = bench(&plan);
        autotune_benched().inc();
        if best.is_none_or(|(t, _)| elapsed < t) {
            best = Some((elapsed, plan));
        }
    }
    let winner = best.expect("candidates is never empty").1;
    *cache()
        .lock()
        .expect("autotune cache poisoned")
        .entry(key)
        .or_insert(winner)
}

fn autotune_hits() -> &'static std::sync::Arc<adq_telemetry::Counter> {
    static HITS: OnceLock<std::sync::Arc<adq_telemetry::Counter>> = OnceLock::new();
    HITS.get_or_init(|| {
        adq_telemetry::metrics::global().counter("tensor.dispatch.autotune.cache_hits")
    })
}

fn autotune_benched() -> &'static std::sync::Arc<adq_telemetry::Counter> {
    static BENCHED: OnceLock<std::sync::Arc<adq_telemetry::Counter>> = OnceLock::new();
    BENCHED.get_or_init(|| {
        adq_telemetry::metrics::global().counter("tensor.dispatch.autotune.benched")
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_shapes_get_the_right_static_plans() {
        // the PR-3 wins stay blocked
        assert!(matches!(
            static_plan(Variant::NN, 512, 512, 512),
            KernelPlan::Blocked(_)
        ));
        assert!(matches!(
            static_plan(Variant::NN, 512, 1024, 4608),
            KernelPlan::Blocked(_)
        ));
        assert!(matches!(
            static_plan(Variant::NT, 128, 1152, 1024),
            KernelPlan::Blocked(_)
        ));
        // the regressions route to naive
        assert_eq!(static_plan(Variant::NN, 4, 4096, 4096), KernelPlan::Naive);
        assert_eq!(static_plan(Variant::NT, 4, 4096, 4096), KernelPlan::Naive);
    }

    #[test]
    fn thin_small_and_short_k_products_stay_naive() {
        assert_eq!(static_plan(Variant::NN, 3, 4096, 4096), KernelPlan::Naive); // m < MR
        assert_eq!(static_plan(Variant::NN, 4096, 15, 4096), KernelPlan::Naive); // n < NR
        assert_eq!(static_plan(Variant::NN, 8, 8, 8), KernelPlan::Naive); // tiny flops
        assert_eq!(static_plan(Variant::TN, 4096, 4096, 4), KernelPlan::Naive); // tiny k
        assert_eq!(static_plan(Variant::NN, 12, 4096, 4096), KernelPlan::Naive); // 3 row strips
        assert_eq!(static_plan(Variant::NN, 4096, 16, 256), KernelPlan::Naive); // 1 col strip
    }

    #[test]
    fn reuse_gate_boundaries_are_exact() {
        // 13 rows is the first m with ceil(m/MR) == MIN_ROW_STRIPS
        assert_eq!(static_plan(Variant::NN, 12, 2048, 2048), KernelPlan::Naive);
        assert!(matches!(
            static_plan(Variant::NN, 13, 2048, 2048),
            KernelPlan::BlockedTuned(_)
        ));
        // 17 columns is the first n with ceil(n/NR) == MIN_COL_STRIPS
        assert_eq!(static_plan(Variant::NN, 512, 16, 512), KernelPlan::Naive);
        assert!(matches!(
            static_plan(Variant::NN, 512, 17, 512),
            KernelPlan::Blocked(_)
        ));
        // k straddling MIN_K
        assert_eq!(
            static_plan(Variant::NN, 512, 512, MIN_K - 1),
            KernelPlan::Naive
        );
        assert!(matches!(
            static_plan(Variant::NN, 512, 512, MIN_K),
            KernelPlan::Blocked(_)
        ));
        // flops straddling MIN_BLOCKED_FLOPS (64·64·64 == 2^18)
        assert_eq!(static_plan(Variant::NN, 64, 64, 63), KernelPlan::Naive);
        assert!(matches!(
            static_plan(Variant::NN, 64, 64, 64),
            KernelPlan::Blocked(_)
        ));
    }

    #[test]
    fn degenerate_shapes_never_overflow() {
        // saturating work estimate: must not panic and must stay blocked
        assert!(matches!(
            static_plan(Variant::NN, usize::MAX, usize::MAX, usize::MAX),
            KernelPlan::Blocked(_)
        ));
    }

    #[test]
    fn tuned_blocking_balances_k() {
        // m small, k large: tuned plan with near-equal k-blocks
        let plan = static_plan(Variant::NN, 32, 2048, 4096);
        let KernelPlan::BlockedTuned(b) = plan else {
            panic!("expected tuned plan, got {plan:?}");
        };
        assert!(b.is_valid());
        assert!(b.kc > KC && b.kc <= TUNED_KC_MAX);
        // blocks differ in length by at most one kc
        let blocks = 4096usize.div_ceil(b.kc);
        assert!(blocks * b.kc >= 4096 && (blocks - 1) * b.kc < 4096);
        // m above the tuned band keeps the default tiles
        assert_eq!(
            static_plan(Variant::NN, TUNED_MAX_M + 1, 2048, 4096),
            KernelPlan::Blocked(Blocking::default_tiles())
        );
    }

    #[test]
    fn candidates_cover_all_three_kernels_and_include_the_static_choice() {
        let c = candidates(Variant::NN, 32, 2048, 4096);
        assert!(c.contains(&KernelPlan::Naive));
        assert!(c.contains(&KernelPlan::Blocked(Blocking::default_tiles())));
        assert!(c.iter().any(|p| matches!(p, KernelPlan::BlockedTuned(_))));
        let static_choice = static_plan(Variant::NN, 32, 2048, 4096);
        assert!(c.contains(&static_choice));
        // thinner than a register tile: only naive competes
        assert_eq!(
            candidates(Variant::NN, 2, 4096, 4096),
            vec![KernelPlan::Naive]
        );
    }

    #[test]
    fn autotune_cache_is_deterministic_per_process() {
        // unique shape so parallel tests cannot collide on the key
        let (m, n, k) = (19, 4099, 257);
        let mut benches = 0usize;
        // fake bencher: tuned < blocked < naive
        let timing = |plan: &KernelPlan| match plan {
            KernelPlan::Naive => Duration::from_micros(300),
            KernelPlan::Blocked(_) => Duration::from_micros(200),
            KernelPlan::BlockedTuned(_) => Duration::from_micros(100),
        };
        let first = autotuned(Variant::TN, m, n, k, false, |p| {
            benches += 1;
            timing(p)
        });
        assert!(matches!(first, KernelPlan::BlockedTuned(_)));
        assert!(benches >= 2, "first call must bench every candidate");
        // second call: cache hit, the bencher must not run, the plan is
        // identical even if a re-bench would now prefer another kernel
        let second = autotuned(Variant::TN, m, n, k, false, |_| {
            panic!("cached shape must not re-bench")
        });
        assert_eq!(first, second);
        // same dims under a different variant is a different key
        let mut tn_benches = 0usize;
        let other = autotuned(Variant::NT, m, n, k, false, |p| {
            tn_benches += 1;
            timing(p)
        });
        assert!(tn_benches >= 2);
        assert_eq!(other, first, "same fake timings pick the same winner");
        // and so is the same product with an implicit convolution operand
        let mut implicit_benches = 0usize;
        autotuned(Variant::TN, m, n, k, true, |p| {
            implicit_benches += 1;
            timing(p)
        });
        assert!(implicit_benches >= 2);
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
