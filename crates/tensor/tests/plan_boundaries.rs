//! Exact-equality tests for the shape classes straddling every kernel-plan
//! boundary.
//!
//! The dispatch layer (`adq_tensor::plan`) may route a product to the
//! streaming loops, the default-tiled packed kernel, or a shape-tuned
//! blocking — but every kernel accumulates each output element in the
//! same strictly ascending-k order, so whichever side of a heuristic
//! boundary a shape lands on, the result must equal the naive oracle
//! **exactly**. These proptests sample shapes from the boundary classes
//! the heuristics key on (wide-short, tall-thin, tiny-k, `m < MR`,
//! `n < NR`, the flop floor, the tuned-blocking band) and compare all
//! three transpose variants bit-for-bit.

use adq_tensor::plan::{static_plan, KernelPlan, MIN_K, TUNED_MAX_M};
use adq_tensor::{
    matmul, matmul_a_bt, matmul_a_bt_naive, matmul_at_b, matmul_at_b_naive, matmul_naive, Tensor,
    KC, MR, NR,
};
use proptest::prelude::*;

/// Deterministic LCG-filled tensor: keeps proptest shrinking over the
/// (dims, seed) tuple instead of over thousands of float elements. The
/// stream never produces exact zeros, so the naive loops' zero-skip
/// cannot introduce `-0.0` asymmetries and equality is exact.
fn lcg_tensor(dims: &[usize], seed: u64) -> Tensor {
    let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
    let n: usize = dims.iter().product();
    let data = (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f32 / u32::MAX as f32) * 4.0 - 2.0
        })
        .collect();
    Tensor::from_vec(data, dims).expect("sized to fit")
}

/// One (m, k, n) from each boundary class the static heuristic keys on,
/// with every dimension free to straddle its gate.
fn boundary_shape() -> impl Strategy<Value = (usize, usize, usize)> {
    prop_oneof![
        // wide-short: m crosses MR (4) and the row-strip gate (12|13)
        (1usize..=14, 32usize..=160, 64usize..=224),
        // tall-thin: n crosses NR (16) and the col-strip gate (16|17)
        (64usize..=224, 32usize..=160, 1usize..=18),
        // tiny-k: k crosses MIN_K
        (32usize..=96, 1usize..=MIN_K + 2, 32usize..=96),
        // the flop floor: 64·64·64 is exactly MIN_BLOCKED_FLOPS
        (60usize..=68, 60usize..=68, 60usize..=68),
        // the tuned band: m crosses TUNED_MAX_M while k crosses KC
        (
            TUNED_MAX_M - 2..=TUNED_MAX_M + 2,
            KC - 2..=KC + 2,
            32usize..=48
        ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Whatever plan a boundary shape lands on, all three dispatched
    /// variants equal their naive oracles exactly.
    #[test]
    fn dispatched_variants_equal_naive_exactly_at_plan_boundaries(
        (m, k, n) in boundary_shape(),
        seed in 0u64..1000,
    ) {
        let a = lcg_tensor(&[m, k], seed);
        let b = lcg_tensor(&[k, n], seed ^ 0xabcdef);
        prop_assert_eq!(matmul(&a, &b).unwrap(), matmul_naive(&a, &b).unwrap());

        let at = lcg_tensor(&[k, m], seed.wrapping_add(7));
        prop_assert_eq!(
            matmul_at_b(&at, &b).unwrap(),
            matmul_at_b_naive(&at, &b).unwrap()
        );

        let bt = lcg_tensor(&[n, k], seed.wrapping_add(13));
        prop_assert_eq!(
            matmul_a_bt(&a, &bt).unwrap(),
            matmul_a_bt_naive(&a, &bt).unwrap()
        );
    }

    /// The static heuristic is internally consistent: a blocked plan is
    /// only ever handed shapes the packed kernel can tile, and
    /// micro-tile-starved shapes always stay naive.
    #[test]
    fn static_plans_respect_the_micro_tile_floor(
        (m, k, n) in boundary_shape(),
    ) {
        let chosen = static_plan(m, n, k);
        if let Some(blocking) = chosen.blocking() {
            prop_assert!(blocking.is_valid());
            prop_assert!(m >= MR && n >= NR, "blocked plan for ({m},{n},{k})");
            prop_assert!(k >= MIN_K);
        }
        if m < MR || n < NR {
            prop_assert_eq!(chosen, KernelPlan::Naive);
        }
    }
}
