//! Kernel-level benchmarks for the conv/quant hot path: blocked GEMM vs
//! the pre-blocking naive kernels, im2col lowering, the implicit-GEMM
//! convolution products vs explicit im2col + matmul, fused
//! fake-quantization, and the serving engine's integer GEMM per layer.
//!
//! `ci.sh --bench` runs these in quick mode and snapshots the medians to
//! `BENCH_kernels.json` at the repo root (via the harness's
//! `CRITERION_JSON` hook); `bench_check` then fails CI when a tracked
//! kernel regresses against the committed baseline. The `square512` and
//! `vgg19_conv` groups carry the PR acceptance comparison: `blocked` must
//! hold a ≥2× median advantage over `naive`.

use adq_infer::qgemm::{qgemm, Container, PackedMatrix};
use adq_nn::{QuantModel, Vgg};
use adq_quant::{BitWidth, QuantRange, Quantizer};
use adq_tensor::{
    conv_gemm, im2col, init, matmul, matmul_a_bt, matmul_a_bt_naive, matmul_at_b,
    matmul_at_b_naive, matmul_naive, pad_input, recycle, Conv2dGeom, ConvGemm, Tensor,
};
use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion};

/// `C = A·B` pairs: the blocked kernel vs the pre-PR naive kernel.
fn bench_gemm_nn(c: &mut Criterion) {
    // (group, m, k, n): paper-relevant GEMM shapes.
    // vgg19_conv:   O=512 filters over C·p² = 512·9 = 4608 taps, 1024 output
    //               pixels — the widest layer of Table 2's VGG19 runs.
    // resnet18_conv: O=128, C·p² = 128·9 = 1152, 1024 pixels.
    // wide_short:   one row strip (m=4): packing B cannot amortise, the
    //               plan layer must keep this on the streaming loops.
    // wide_mid:     m=32 straddles the other side of the row-strip gate —
    //               few strips but enough reuse for the tuned blocking.
    // tall_thin:    n=4 < NR: the transpose of the wide_short pathology.
    // tiny_k:       k=8 < MIN_K: too short an inner loop to pack for.
    let shapes: &[(&str, usize, usize, usize)] = &[
        ("square512", 512, 512, 512),
        ("vgg19_conv", 512, 4608, 1024),
        ("resnet18_conv", 128, 1152, 1024),
        ("wide_short", 4, 4096, 4096),
        ("wide_mid", 32, 2048, 2048),
        ("tall_thin", 4096, 512, 4),
        ("tiny_k", 512, 8, 512),
    ];
    for &(name, m, k, n) in shapes {
        let mut rng = init::rng(11);
        let a = init::normal(&[m, k], 0.0, 1.0, &mut rng);
        let b = init::normal(&[k, n], 0.0, 1.0, &mut rng);
        let mut group = c.benchmark_group(name);
        group.bench_function("naive", |bch| {
            bch.iter(|| {
                black_box(matmul_naive(black_box(&a), black_box(&b)).expect("shapes agree"))
            })
        });
        group.bench_function("blocked", |bch| {
            bch.iter(|| black_box(matmul(black_box(&a), black_box(&b)).expect("shapes agree")))
        });
        group.finish();
    }
}

/// The two transpose variants on the conv-backward shapes they serve:
/// `dW = dY · colsᵀ` and `dCols = Wᵀ · dY`.
fn bench_gemm_transposed(c: &mut Criterion) {
    let (o, taps, pixels) = (128, 1152, 1024);
    let mut rng = init::rng(12);
    let dy = init::normal(&[o, pixels], 0.0, 1.0, &mut rng);
    let cols = init::normal(&[taps, pixels], 0.0, 1.0, &mut rng);
    let weight = init::normal(&[o, taps], 0.0, 1.0, &mut rng);

    let mut group = c.benchmark_group("conv_backward_gemm");
    group.bench_function("a_bt_naive", |bch| {
        bch.iter(|| black_box(matmul_a_bt_naive(black_box(&dy), black_box(&cols)).unwrap()))
    });
    group.bench_function("a_bt_blocked", |bch| {
        bch.iter(|| black_box(matmul_a_bt(black_box(&dy), black_box(&cols)).unwrap()))
    });
    group.bench_function("at_b_naive", |bch| {
        bch.iter(|| black_box(matmul_at_b_naive(black_box(&weight), black_box(&dy)).unwrap()))
    });
    group.bench_function("at_b_blocked", |bch| {
        bch.iter(|| black_box(matmul_at_b(black_box(&weight), black_box(&dy)).unwrap()))
    });
    group.finish();

    // The wide-short backward pair: a 4-filter conv layer's dW = dY·colsᵀ
    // is an m=4 NT product (one row strip — packing must not win) and its
    // dCols = Wᵀ·dY is a k=4 TN product (tiny-k). Both regressed under
    // the old single-cutoff dispatch.
    let (o, taps, pixels) = (4, 4096, 4096);
    let mut rng = init::rng(15);
    let dy = init::normal(&[o, pixels], 0.0, 1.0, &mut rng);
    let cols = init::normal(&[taps, pixels], 0.0, 1.0, &mut rng);
    let weight = init::normal(&[o, taps], 0.0, 1.0, &mut rng);

    let mut group = c.benchmark_group("conv_backward_wide_short");
    group.bench_function("a_bt_naive", |bch| {
        bch.iter(|| black_box(matmul_a_bt_naive(black_box(&dy), black_box(&cols)).unwrap()))
    });
    group.bench_function("a_bt_dispatched", |bch| {
        bch.iter(|| black_box(matmul_a_bt(black_box(&dy), black_box(&cols)).unwrap()))
    });
    group.bench_function("at_b_naive", |bch| {
        bch.iter(|| black_box(matmul_at_b_naive(black_box(&weight), black_box(&dy)).unwrap()))
    });
    group.bench_function("at_b_dispatched", |bch| {
        bch.iter(|| black_box(matmul_at_b(black_box(&weight), black_box(&dy)).unwrap()))
    });
    group.finish();
}

/// im2col lowering of a mid-network VGG-style activation.
fn bench_im2col(c: &mut Criterion) {
    let mut rng = init::rng(13);
    let input = init::normal(&[8, 64, 32, 32], 0.0, 1.0, &mut rng);
    let geom = Conv2dGeom::new(64, 64, 3, 1, 1);
    let strided = Conv2dGeom::new(64, 64, 3, 2, 1);

    let mut group = c.benchmark_group("im2col");
    group.bench_function("vgg_3x3_pad1", |bch| {
        bch.iter(|| black_box(im2col(black_box(&input), &geom).unwrap()))
    });
    group.bench_function("vgg_3x3_stride2", |bch| {
        bch.iter(|| black_box(im2col(black_box(&input), &strided).unwrap()))
    });
    group.finish();
}

/// The two im2col-shaped products of a training conv layer (3×3, stride
/// 1, padding 1, batch 24) at the Table-II VGG's dominant shapes, plus
/// full-size VGG-19's 512→512 layer at 4×4, whose `O = 512` spans eight
/// `MC` row tiles: the implicit GEMM (pad once, gather `B` strips in the
/// kernel) against the explicit im2col + matmul it replaced, both warm in
/// the thread's arena.
fn bench_conv_lowering(c: &mut Criterion) {
    let mut group = c.benchmark_group("conv_lowering");
    for (channels, hw) in [(16usize, 16usize), (32, 8), (512, 4)] {
        let mut rng = init::rng(16);
        let geom = Conv2dGeom::new(channels, channels, 3, 1, 1);
        let x = init::normal(&[24, channels, hw, hw], 0.0, 1.0, &mut rng);
        let w = init::normal(&[channels, channels * 9], 0.0, 1.0, &mut rng);
        let dy = init::normal(&[channels, 24 * hw * hw], 0.0, 1.0, &mut rng);
        let shape = format!("c{channels}_hw{hw}");
        group.bench_function(format!("fwd_{shape}_im2col_matmul"), |bch| {
            bch.iter(|| {
                let cols = im2col(black_box(&x), &geom).unwrap();
                recycle(black_box(matmul(black_box(&w), &cols).unwrap()));
                recycle(cols);
            })
        });
        group.bench_function(format!("fwd_{shape}_implicit"), |bch| {
            bch.iter(|| {
                let padded = pad_input(black_box(&x), &geom).unwrap();
                recycle(black_box(
                    conv_gemm(black_box(&w), &padded, ConvGemm::Forward).unwrap(),
                ));
                padded.recycle();
            })
        });
        group.bench_function(format!("wgrad_{shape}_im2col_matmul"), |bch| {
            bch.iter(|| {
                let cols = im2col(black_box(&x), &geom).unwrap();
                recycle(black_box(matmul_a_bt(black_box(&dy), &cols).unwrap()));
                recycle(cols);
            })
        });
        group.bench_function(format!("wgrad_{shape}_implicit"), |bch| {
            bch.iter(|| {
                let padded = pad_input(black_box(&x), &geom).unwrap();
                recycle(black_box(
                    conv_gemm(black_box(&dy), &padded, ConvGemm::WeightGrad).unwrap(),
                ));
                padded.recycle();
            })
        });
    }
    group.finish();
}

/// Fake quantization of an activation-sized tensor: the fused slice loop
/// vs calling the scalar path per element.
fn bench_fake_quantize(c: &mut Criterion) {
    let mut rng = init::rng(14);
    let data = init::normal(&[1 << 18], 0.0, 1.0, &mut rng);
    let quant = Quantizer::new(
        BitWidth::new(4).expect("valid bits"),
        QuantRange::new(-3.0, 3.0).expect("valid range"),
    );

    let mut group = c.benchmark_group("fake_quantize");
    group.bench_function("scalar_per_element", |bch| {
        bch.iter_batched(
            || data.clone(),
            |t: Tensor| t.map(|x| quant.fake_quantize(x)),
            BatchSize::LargeInput,
        )
    });
    group.bench_function("fused_slice", |bch| {
        bch.iter_batched(
            || data.clone(),
            |mut t: Tensor| {
                quant.fake_quantize_slice(t.data_mut());
                t
            },
            BatchSize::LargeInput,
        )
    });
    group.finish();
}

/// The integer GEMM of each `Vgg::small(3, 16, 10)` layer at batch 1, in
/// the containers the two single-client serving workloads compile to:
/// uniform int8 (`c1`; the first conv reads 16-bit input) and the Table
/// II(a) schedule `[16, 4, 3, 2, 3, 3, 16]` (`mixed`). Weights are packed
/// once, as compile does; activations are random codes at the width the
/// previous layer emits.
fn bench_qgemm(c: &mut Criterion) {
    let model = Vgg::small(3, 16, 10, 11);
    let stats = model.layer_stats();
    // (k, activation rows, outputs) per layer, convs then the head
    let mut shapes: Vec<(usize, usize, usize)> = model
        .conv_blocks()
        .iter()
        .zip(&stats)
        .map(|(block, stat)| {
            let geom = block.geom();
            let side = geom.output_size(stat.input_hw);
            let k = geom.in_channels * geom.kernel * geom.kernel;
            (k, side * side, geom.out_channels)
        })
        .collect();
    let head = model.head();
    shapes.push((head.in_features(), 1, head.out_features()));
    let mut group = c.benchmark_group("qgemm");
    for (schedule, bits) in [("c1", [8u32; 7]), ("mixed", [16, 4, 3, 2, 3, 3, 16])] {
        let mut rng = init::rng(17);
        let mut act_bits = 16;
        for (layer, (&(k, m, o), &w_bits)) in shapes.iter().zip(&bits).enumerate() {
            let act_max = BitWidth::new(act_bits).unwrap().max_code();
            let weight_q = Quantizer::new(
                BitWidth::new(w_bits).unwrap(),
                QuantRange::new(-1.0, 1.0).unwrap(),
            );
            let container = Container::for_max_code(weight_q.bits().max_code())
                .join(Container::for_max_code(act_max));
            let values = init::normal(&[o, k], 0.0, 0.5, &mut rng);
            let weights = PackedMatrix::pack_rows(values.data(), o, k, &weight_q, container);
            let uniform = init::uniform(&[m, k], 0.0, 1.0, &mut rng);
            let codes: Vec<u16> = uniform
                .data()
                .iter()
                .map(|&u| (f64::from(u) * (act_max + 1) as f64) as u16)
                .collect();
            let acts = PackedMatrix::from_codes(&codes, m, k, container);
            let name = if layer + 1 == bits.len() {
                "head".to_string()
            } else {
                format!("conv{}", layer + 1)
            };
            group.bench_function(format!("{schedule}_{name}"), |bch| {
                bch.iter(|| {
                    let mut sum = 0i64;
                    qgemm(black_box(&acts), &weights, |_, _, acc| {
                        sum = sum.wrapping_add(acc)
                    });
                    black_box(sum)
                })
            });
            act_bits = w_bits;
        }
    }
    group.finish();
}

criterion_group!(
    kernels,
    bench_gemm_nn,
    bench_gemm_transposed,
    bench_im2col,
    bench_conv_lowering,
    bench_fake_quantize,
    bench_qgemm
);
criterion_main!(kernels);
