//! Property-based tests for the tensor substrate.

use adq_tensor::{
    col2im, gemm_nn, gemm_nt, gemm_tn, im2col, matmul, matmul_a_bt, matmul_a_bt_naive, matmul_at_b,
    matmul_at_b_naive, matmul_naive, recycle, Conv2dGeom, Tensor,
};
use proptest::prelude::*;

/// Deterministic LCG-filled tensor: keeps proptest shrinking over the
/// (dims, seed) tuple instead of over thousands of float elements.
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

fn tensor_strategy(max_elems: usize) -> impl Strategy<Value = Tensor> {
    (1usize..=4, 1usize..=4)
        .prop_flat_map(move |(r, c)| {
            let n = (r * c).min(max_elems);
            (
                Just((r, c)),
                proptest::collection::vec(-100.0f32..100.0, n..=n),
            )
        })
        .prop_map(|((r, c), data)| Tensor::from_vec(data, &[r, c]).expect("sized to fit"))
}

proptest! {
    #[test]
    fn reshape_roundtrip(t in tensor_strategy(16)) {
        let dims = t.dims().to_vec();
        let flat = t.reshaped(&[t.len()]).unwrap();
        let back = flat.reshaped(&dims).unwrap();
        prop_assert_eq!(back, t);
    }

    #[test]
    fn add_commutes(a in tensor_strategy(16)) {
        let b = a.map(|x| x * 0.5 - 1.0);
        let lhs = a.add(&b).unwrap();
        let rhs = b.add(&a).unwrap();
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn sub_self_is_zero(a in tensor_strategy(16)) {
        let z = a.sub(&a).unwrap();
        prop_assert!(z.data().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn count_nonzero_bounded(a in tensor_strategy(16)) {
        prop_assert!(a.count_nonzero() <= a.len());
    }

    #[test]
    fn transpose_involution(a in tensor_strategy(16)) {
        prop_assert_eq!(a.transposed().transposed(), a);
    }

    #[test]
    fn matmul_identity(a in tensor_strategy(16)) {
        let n = a.dims()[1];
        let c = matmul(&a, &Tensor::eye(n)).unwrap();
        for (x, y) in c.data().iter().zip(a.data()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn matmul_distributes_over_add(
        a in tensor_strategy(16),
    ) {
        let b = a.map(|x| x + 1.0);
        let c = a.map(|x| x * 2.0 - 3.0);
        let n = a.dims()[1];
        let m = Tensor::full(&[n, 3], 0.5);
        let lhs = matmul(&b.add(&c).unwrap(), &m).unwrap();
        let rhs = matmul(&b, &m).unwrap().add(&matmul(&c, &m).unwrap()).unwrap();
        for (x, y) in lhs.data().iter().zip(rhs.data()) {
            prop_assert!((x - y).abs() < 1e-2, "{} vs {}", x, y);
        }
    }

    #[test]
    fn transpose_variants_agree(a in tensor_strategy(16)) {
        let b = a.map(|x| x * 0.25);
        // A^T B with A [r,c]: shared dim is r
        let r1 = matmul_at_b(&a, &b).unwrap();
        let r2 = matmul(&a.transposed(), &b).unwrap();
        for (x, y) in r1.data().iter().zip(r2.data()) {
            prop_assert!((x - y).abs() < 1e-2);
        }
        let r3 = matmul_a_bt(&a, &b).unwrap();
        let r4 = matmul(&a, &b.transposed()).unwrap();
        for (x, y) in r3.data().iter().zip(r4.data()) {
            prop_assert!((x - y).abs() < 1e-2);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    // The blocked kernel accumulates each output element in ascending-k
    // order, exactly like the naive loops, so the comparison below is exact
    // equality — any reassociation in the blocked kernel fails these.
    #[test]
    fn blocked_gemm_equals_naive_all_variants(
        m in 1usize..=67,
        k in 1usize..=67,
        n in 1usize..=67,
        seed in 0u64..1000,
    ) {
        let a = lcg_tensor(&[m, k], seed);
        let b = lcg_tensor(&[k, n], seed ^ 0xabcdef);
        prop_assert_eq!(
            gemm_nn(&a, &b).unwrap(),
            matmul_naive(&a, &b).unwrap()
        );
        let at = lcg_tensor(&[k, m], seed.wrapping_add(7));
        prop_assert_eq!(
            gemm_tn(&at, &b).unwrap(),
            matmul_at_b_naive(&at, &b).unwrap()
        );
        let bt = lcg_tensor(&[n, k], seed.wrapping_add(13));
        prop_assert_eq!(
            gemm_nt(&a, &bt).unwrap(),
            matmul_a_bt_naive(&a, &bt).unwrap()
        );
    }

    #[test]
    fn blocked_gemm_scratch_reuse_is_stable(
        m in 1usize..=40,
        k in 1usize..=40,
        n in 1usize..=40,
        seed in 0u64..1000,
    ) {
        // a warm arena full of garbage must not change any result
        let a = lcg_tensor(&[m, k], seed);
        let b = lcg_tensor(&[k, n], seed ^ 0x5eed);
        let cold = gemm_nn(&a, &b).unwrap();
        recycle(Tensor::full(&[(m * k + k * n + m * n) * 2], f32::NAN));
        let warm = gemm_nn(&a, &b).unwrap();
        prop_assert_eq!(cold, warm);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    #[test]
    fn im2col_col2im_adjoint(
        n in 1usize..3,
        c in 1usize..3,
        hw in 3usize..7,
        kernel in 1usize..4,
        stride in 1usize..3,
        padding in 0usize..2,
        seed in 0u64..1000,
    ) {
        prop_assume!(hw + 2 * padding >= kernel);
        let dims = [n, c, hw, hw];
        let geom = Conv2dGeom::new(c, 1, kernel, stride, padding);
        let total = n * c * hw * hw;
        let x = Tensor::from_vec(
            (0..total).map(|i| ((i as u64).wrapping_mul(seed + 1) % 17) as f32 - 8.0).collect(),
            &dims,
        ).unwrap();
        let cols = im2col(&x, &geom).unwrap();
        let y = cols.map(|v| v * 0.5 + 0.25);
        let lhs: f32 = cols.mul(&y).unwrap().sum();
        let back = col2im(&y, &dims, &geom).unwrap();
        let rhs: f32 = x.mul(&back).unwrap().sum();
        prop_assert!((lhs - rhs).abs() <= 1e-2 * (1.0 + lhs.abs()), "{} vs {}", lhs, rhs);
    }
}
