//! `Conv2d` computes its forward product and weight gradient as implicit
//! GEMMs (the column matrix gathered from a padded input, never
//! materialised). These tests hold it to the explicit lowering it
//! replaced — `im2col`, then `matmul` / `matmul_a_bt` / `matmul_at_b` +
//! `col2im` — **bit for bit**: the output, and the weight, bias and input
//! gradients.
//!
//! The proptest draws channel counts up to 40 with `O` never a multiple
//! of 8 (so the AVX-512 tile's two-strip pairing ends on a lone strip),
//! `p ∈ {1, 3}`, stride ∈ {1, 2}, padding ∈ {0, 1}, odd spatial sizes, and
//! batches whose `N·OH·OW` leaves a ragged 16-pixel strip. A product with
//! `m = O ≤ 64` takes the shape-tuned blocking, whose k-blocks hold up to
//! 1024 steps, so the fixed cases below add `O = 70` (default 256-step
//! blocks) to cross k-block boundaries in both gathered products.

use adq_nn::Conv2d;
use adq_tensor::{col2im, im2col, init, matmul, matmul_a_bt, matmul_at_b, Conv2dGeom, Tensor};
use proptest::prelude::*;

/// NCHW gradient → `[O, N·OH·OW]` rows, the layout the products use.
fn nchw_to_rows(t: &Tensor) -> Tensor {
    let [n, o, oh, ow] = [0, 1, 2, 3].map(|d| t.dims()[d]);
    let spatial = oh * ow;
    let mut out = Tensor::zeros(&[o, n * spatial]);
    for oi in 0..o {
        for ni in 0..n {
            for s in 0..spatial {
                *out.at2_mut(oi, ni * spatial + s) = t.data()[(ni * o + oi) * spatial + s];
            }
        }
    }
    out
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// Runs one forward + backward through the layer and through the
/// explicit reference, and asserts every result is bit-identical.
fn check(geom: Conv2dGeom, dims: [usize; 4], seed: u64) {
    let mut rng = init::rng(seed);
    let mut conv = Conv2d::new(geom, &mut rng);
    conv.bias.value = init::uniform(&[geom.out_channels], -1.0, 1.0, &mut rng);
    let x = init::uniform(&dims, -1.0, 1.0, &mut rng);
    let y = conv.forward(&x);
    let dy = init::uniform(y.dims(), -1.0, 1.0, &mut rng);
    let dx = conv.backward(&dy);

    let weight = &conv.weight.value;
    let cols = im2col(&x, &geom).expect("shapes agree");
    let out = matmul(weight, &cols).expect("shapes agree");
    let spatial = y.dims()[2] * y.dims()[3];
    let mut want_y = Tensor::zeros(y.dims());
    for (i, slot) in want_y.data_mut().iter_mut().enumerate() {
        let (ni, oi, s) = (
            i / (geom.out_channels * spatial),
            i / spatial % geom.out_channels,
            i % spatial,
        );
        *slot = out.at2(oi, ni * spatial + s) + conv.bias.value.data()[oi];
    }
    assert_eq!(bits(&y), bits(&want_y), "forward {geom:?} {dims:?}");

    let dy_rows = nchw_to_rows(&dy);
    let mut want_dw = Tensor::zeros(weight.dims());
    want_dw
        .add_scaled(&matmul_a_bt(&dy_rows, &cols).expect("shapes agree"), 1.0)
        .expect("shapes agree");
    assert_eq!(
        bits(&conv.weight.grad),
        bits(&want_dw),
        "weight grad {geom:?} {dims:?}"
    );
    let row = dy_rows.dims()[1];
    let want_db: Vec<f32> = (0..geom.out_channels)
        .map(|oi| 0.0 + dy_rows.data()[oi * row..(oi + 1) * row].iter().sum::<f32>())
        .collect();
    let want_db = Tensor::from_vec(want_db, &[geom.out_channels]).expect("sized to fit");
    assert_eq!(
        bits(&conv.bias.grad),
        bits(&want_db),
        "bias grad {geom:?} {dims:?}"
    );
    let dcols = matmul_at_b(weight, &dy_rows).expect("shapes agree");
    let want_dx = col2im(&dcols, &dims, &geom).expect("shapes agree");
    assert_eq!(bits(&dx), bits(&want_dx), "input grad {geom:?} {dims:?}");
}

/// `(geometry, input dims)` from the case classes in the module docs.
fn conv_case() -> impl Strategy<Value = (Conv2dGeom, [usize; 4])> {
    (
        1usize..=40,
        1usize..=40,
        prop_oneof![Just(1usize), Just(3usize)],
        1usize..=2,
        0usize..=1,
        (1usize..=6, 1usize..=6),
        1usize..=3,
    )
        .prop_filter_map("O % 8 != 0, kernel fits, ragged strip", |case| {
            let (c, o, p, stride, pad, (hh, wh), n) = case;
            let (h, w) = (2 * hh + 1, 2 * wh + 1);
            if o.is_multiple_of(8) || h + 2 * pad < p || w + 2 * pad < p {
                return None;
            }
            let geom = Conv2dGeom::new(c, o, p, stride, pad);
            let pixels = n * geom.output_size(h) * geom.output_size(w);
            (!pixels.is_multiple_of(16)).then_some((geom, [n, c, h, w]))
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn conv_matches_the_explicit_lowering_bitwise(
        (geom, dims) in conv_case(),
        seed in 0u64..1000,
    ) {
        check(geom, dims, seed);
    }
}

#[test]
fn multi_k_block_products_match_the_explicit_lowering_bitwise() {
    // forward k = 32·9 = 288 and weight-grad k = 2·13·13 = 338, both over
    // one default KC = 256 block; O = 70 is 17 row strips plus 2 rows
    check(Conv2dGeom::new(32, 70, 3, 1, 1), [2, 32, 13, 13], 1);
    // stride 2 with no padding over an odd input
    check(Conv2dGeom::new(29, 70, 3, 2, 0), [3, 29, 15, 15], 2);
}

#[test]
fn the_training_shapes_match_the_explicit_lowering_bitwise() {
    // the Table-II VGG's dominant layers at batch 24
    check(Conv2dGeom::new(3, 16, 3, 1, 1), [24, 3, 16, 16], 3);
    check(Conv2dGeom::new(16, 16, 3, 1, 1), [24, 16, 16, 16], 4);
    check(Conv2dGeom::new(32, 32, 3, 1, 1), [24, 32, 8, 8], 5);
}
