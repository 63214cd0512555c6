//! The `tensor.matmul` span's attributes: the transpose variant each
//! entry point runs and the plan [`static_plan`] picks for its shape.
//!
//! The tracer is process-global, so this is the only test in its binary:
//! nothing else sets the level or drains the buffers while it reads them.

use adq_telemetry::span::{self, AttrValue, SpanRecord};
use adq_tensor::plan::static_plan;
use adq_tensor::{
    conv_gemm_scratch, matmul, matmul_a_bt, matmul_at_b, pad_input, Conv2dGeom, ConvGemm, Scratch,
    ShapeError, Tensor,
};

/// Drains the one `tensor.matmul` span the call that returned
/// `product` recorded and checks its variant, shape and plan.
fn assert_span(
    variant: &str,
    (m, n, k): (usize, usize, usize),
    product: Result<Tensor, ShapeError>,
) {
    product.unwrap();
    let spans: Vec<SpanRecord> = span::drain()
        .into_iter()
        .filter(|r| r.name == "tensor.matmul")
        .collect();
    assert_eq!(spans.len(), 1, "one tensor.matmul span per call");
    let expected: [(&str, AttrValue); 5] = [
        ("variant", variant.into()),
        ("m", m.into()),
        ("n", n.into()),
        ("k", k.into()),
        ("tensor.dispatch.plan", static_plan(m, n, k).label().into()),
    ];
    for (key, want) in expected {
        let got = spans[0].attrs.iter().find(|(k, _)| *k == key);
        assert_eq!(got.map(|(_, v)| v), Some(&want), "{key} of ({m}, {n}, {k})");
    }
}

#[test]
fn every_dispatched_product_reports_its_variant_and_plan() {
    span::set_level(span::LEVEL_VERBOSE);
    // one shape per plan kind: blocked, blocked_tuned, naive
    for (m, k, n) in [(64, 64, 64), (16, 2048, 32), (4, 256, 256)] {
        let (a, b) = (Tensor::zeros(&[m, k]), Tensor::zeros(&[k, n]));
        assert_span("nn", (m, n, k), matmul(&a, &b));
        let at = Tensor::zeros(&[k, m]);
        assert_span("tn", (m, n, k), matmul_at_b(&at, &b));
        let bt = Tensor::zeros(&[n, k]);
        assert_span("nt", (m, n, k), matmul_a_bt(&a, &bt));
    }
    // convolutions, 16→16 3×3 at 9×9, batch 3: blocked plans; 3→4 at
    // 5×7, batch 2: naive plans
    for (c, o, batch, h, w) in [(16, 16, 3, 9, 9), (3, 4, 2, 5, 7)] {
        let geom = Conv2dGeom::new(c, o, 3, 1, 1);
        let mut scratch = Scratch::new();
        let padded = pad_input(&Tensor::zeros(&[batch, c, h, w]), &geom, &mut scratch).unwrap();
        let (taps, pixels) = (c * 9, batch * h * w);
        let weights = Tensor::zeros(&[o, taps]);
        assert_span(
            "nn",
            (o, pixels, taps),
            conv_gemm_scratch(&weights, &padded, ConvGemm::Forward, &mut scratch),
        );
        let dy = Tensor::zeros(&[o, pixels]);
        assert_span(
            "nt",
            (o, taps, pixels),
            conv_gemm_scratch(&dy, &padded, ConvGemm::WeightGrad, &mut scratch),
        );
    }
}
