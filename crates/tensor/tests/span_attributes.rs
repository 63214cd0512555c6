//! The `tensor.matmul` span's attributes: the transpose variant each
//! entry point runs and the plan its shape gets — [`static_plan`] for a
//! matrix `B`, [`gathered_plan`] for a convolution's gathered one.
//!
//! The tracer is process-global, so this is the only test in its binary:
//! nothing else sets the level or drains the buffers while it reads them.

use adq_telemetry::span::{self, AttrValue, SpanRecord};
use adq_tensor::plan::{gathered_plan, static_plan, KernelPlan};
use adq_tensor::{
    conv_gemm, matmul, matmul_a_bt, matmul_at_b, pad_input, Conv2dGeom, ConvGemm, ShapeError,
    Tensor,
};

/// Drains the one `tensor.matmul` span the call that returned
/// `product` recorded and checks its variant, shape and plan.
fn assert_span(
    variant: &str,
    (m, n, k): (usize, usize, usize),
    plan: fn(usize, usize, usize) -> KernelPlan,
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
        ("tensor.dispatch.plan", plan(m, n, k).label().into()),
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
        assert_span("nn", (m, n, k), static_plan, matmul(&a, &b));
        let at = Tensor::zeros(&[k, m]);
        assert_span("tn", (m, n, k), static_plan, matmul_at_b(&at, &b));
        let bt = Tensor::zeros(&[n, k]);
        assert_span("nt", (m, n, k), static_plan, matmul_a_bt(&a, &bt));
    }
    // convolutions: 16→16 3×3 at 9×9, batch 3: blocked plans; 3→4 3×3 at
    // 5×7, batch 2: naive plans; ResNet::small's 1×1 stride-2 projection,
    // 16→32 at 16×16, batch 24, whose weight gradient (one column strip)
    // a matrix B would send to the naive plan
    let convs = [
        (Conv2dGeom::new(16, 16, 3, 1, 1), [3, 16, 9, 9]),
        (Conv2dGeom::new(3, 4, 3, 1, 1), [2, 3, 5, 7]),
        (Conv2dGeom::new(16, 32, 1, 2, 0), [24, 16, 16, 16]),
    ];
    for (geom, [batch, c, h, w]) in convs {
        let padded = pad_input(&Tensor::zeros(&[batch, c, h, w]), &geom).unwrap();
        let taps = c * geom.kernel * geom.kernel;
        let pixels = batch * geom.output_size(h) * geom.output_size(w);
        let weights = Tensor::zeros(&[geom.out_channels, taps]);
        assert_span(
            "nn",
            (geom.out_channels, pixels, taps),
            gathered_plan,
            conv_gemm(&weights, &padded, ConvGemm::Forward),
        );
        let dy = Tensor::zeros(&[geom.out_channels, pixels]);
        assert_span(
            "nt",
            (geom.out_channels, taps, pixels),
            gathered_plan,
            conv_gemm(&dy, &padded, ConvGemm::WeightGrad),
        );
    }
    assert_ne!(gathered_plan(32, 16, 1536), static_plan(32, 16, 1536));
}
