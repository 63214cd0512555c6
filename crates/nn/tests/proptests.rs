//! Property-based tests for the training substrate (DESIGN.md §7).

use adq_nn::{BatchNorm2d, Conv2d, ConvBlock, ConvBlockConfig, GlobalAvgPool, MaxPool2d, Relu};
use adq_quant::BitWidth;
use adq_tensor::{im2col, init, matmul, matmul_a_bt, Conv2dGeom, Tensor};
use proptest::prelude::*;

fn image_strategy() -> impl Strategy<Value = Tensor> {
    (1usize..3, 1usize..3, 1usize..3)
        .prop_flat_map(|(n, c, half_hw)| {
            let hw = half_hw * 2;
            let len = n * c * hw * hw;
            (
                Just((n, c, hw)),
                proptest::collection::vec(-10.0f32..10.0, len..=len),
            )
        })
        .prop_map(|((n, c, hw), data)| {
            Tensor::from_vec(data, &[n, c, hw, hw]).expect("sized to fit")
        })
}

proptest! {
    #[test]
    fn relu_output_is_nonnegative_and_idempotent(x in image_strategy()) {
        let mut relu = Relu::new();
        let y = relu.forward(&x);
        prop_assert!(y.data().iter().all(|&v| v >= 0.0));
        let mut relu2 = Relu::new();
        let yy = relu2.forward(&y);
        prop_assert_eq!(y, yy);
    }

    #[test]
    fn relu_grad_is_subset_of_upstream(x in image_strategy()) {
        let mut relu = Relu::new();
        relu.forward(&x);
        let upstream = x.map(|v| v.abs() + 1.0);
        let g = relu.backward(&upstream);
        // each gradient is either 0 or exactly the upstream value
        for (gv, uv) in g.data().iter().zip(upstream.data()) {
            prop_assert!(*gv == 0.0 || gv == uv);
        }
    }

    #[test]
    fn maxpool_output_bounded_by_input_extremes(x in image_strategy()) {
        let mut pool = MaxPool2d::new(2);
        let y = pool.forward(&x);
        prop_assert!(y.max() <= x.max());
        prop_assert!(y.min() >= x.min());
        // pooling preserves batch/channel dims and halves spatial ones
        prop_assert_eq!(y.dims()[0], x.dims()[0]);
        prop_assert_eq!(y.dims()[1], x.dims()[1]);
        prop_assert_eq!(y.dims()[2] * 2, x.dims()[2]);
    }

    #[test]
    fn maxpool_gradient_is_sparse(x in image_strategy()) {
        let mut pool = MaxPool2d::new(2);
        let y = pool.forward(&x);
        let g = pool.backward(&Tensor::ones(y.dims()));
        // exactly one routed gradient per pooling window
        let nonzero = g.data().iter().filter(|&&v| v != 0.0).count();
        prop_assert!(nonzero <= y.len());
        prop_assert!((g.sum() - y.len() as f32).abs() < 1e-4);
    }

    #[test]
    fn gap_is_mean_per_plane(x in image_strategy()) {
        let mut gap = GlobalAvgPool::new();
        let y = gap.forward(&x);
        let (n, c) = (x.dims()[0], x.dims()[1]);
        let area = x.dims()[2] * x.dims()[3];
        for ni in 0..n {
            for ci in 0..c {
                let mut sum = 0.0f32;
                for h in 0..x.dims()[2] {
                    for w in 0..x.dims()[3] {
                        sum += x.at4(ni, ci, h, w);
                    }
                }
                prop_assert!((y.at2(ni, ci) - sum / area as f32).abs() < 1e-3);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn quantized_block_output_level_count_bounded(
        bits in 1u32..=4,
        seed in 0u64..100,
    ) {
        let mut rng = adq_tensor::init::rng(seed);
        let cfg = ConvBlockConfig {
            geom: Conv2dGeom::new(2, 3, 3, 1, 1),
            batch_norm: false,
            relu: true,
        };
        let mut block = ConvBlock::new("p", cfg, &mut rng);
        block.set_bits(Some(BitWidth::new(bits).expect("valid")));
        let x = adq_tensor::init::normal(&[1, 2, 6, 6], 0.0, 1.0, &mut rng);
        let y = block.forward(&x, false);
        let mut levels: Vec<u32> = y.data().iter().map(|v| v.to_bits()).collect();
        levels.sort_unstable();
        levels.dedup();
        prop_assert!(
            levels.len() as u64 <= 1u64 << bits,
            "{} levels at {} bits",
            levels.len(),
            bits
        );
    }

    #[test]
    fn block_density_invariant_under_eval_repeats(seed in 0u64..100) {
        let mut rng = adq_tensor::init::rng(seed);
        let cfg = ConvBlockConfig {
            geom: Conv2dGeom::new(1, 2, 3, 1, 1),
            batch_norm: true,
            relu: true,
        };
        let mut block = ConvBlock::new("p", cfg, &mut rng);
        let x = adq_tensor::init::normal(&[1, 1, 4, 4], 0.0, 1.0, &mut rng);
        block.forward(&x, true);
        let d = block.density();
        // eval-mode passes never change the measured density
        block.forward(&x, false);
        block.forward(&x, false);
        prop_assert_eq!(block.density(), d);
    }
}

// ---- bit identity of the in-place, channel-interleaved passes -----------
//
// The references below are the one-channel-at-a-time loops batch-norm,
// ReLU and the convolution's layout and bias-gradient passes ran before
// those passes went in place and summed channels side by side. Every
// result must keep their bits, at channel counts that are and are not a
// multiple of the interleave width.

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The serial batch-norm forward: returns the output and `x̂`, updating
/// `running` (mean, variance) in training mode.
// indexed as the loop it reproduces was
#[allow(clippy::needless_range_loop)]
fn bn_forward_ref(
    bn: &BatchNorm2d,
    running: &mut (Vec<f32>, Vec<f32>),
    input: &Tensor,
    train: bool,
) -> (Tensor, Tensor, Vec<f32>) {
    let [n, c, h, w] = [0, 1, 2, 3].map(|d| input.dims()[d]);
    let per_channel = (n * h * w) as f32;
    let mut out = Tensor::zeros(input.dims());
    let mut x_hat = Tensor::zeros(input.dims());
    let mut inv_stds = vec![0.0f32; c];
    for ci in 0..c {
        let (mean, var) = if train {
            let mut sum = 0.0f32;
            let mut sq = 0.0f32;
            for ni in 0..n {
                let plane = (ni * c + ci) * h * w;
                for &v in &input.data()[plane..plane + h * w] {
                    sum += v;
                    sq += v * v;
                }
            }
            let mean = sum / per_channel;
            let var = (sq / per_channel - mean * mean).max(0.0);
            running.0[ci] += 0.1 * (mean - running.0[ci]);
            running.1[ci] += 0.1 * (var - running.1[ci]);
            (mean, var)
        } else {
            (running.0[ci], running.1[ci])
        };
        let inv_std = 1.0 / (var + 1e-5).sqrt();
        inv_stds[ci] = inv_std;
        let g = bn.gamma.value.data()[ci];
        let b = bn.beta.value.data()[ci];
        for ni in 0..n {
            let plane = (ni * c + ci) * h * w;
            for i in plane..plane + h * w {
                let xh = (input.data()[i] - mean) * inv_std;
                x_hat.data_mut()[i] = xh;
                out.data_mut()[i] = g * xh + b;
            }
        }
    }
    (out, x_hat, inv_stds)
}

/// The serial batch-norm backward: `(dx, dγ, dβ)`.
// indexed as the loop it reproduces was
#[allow(clippy::needless_range_loop)]
fn bn_backward_ref(
    bn: &BatchNorm2d,
    x_hat: &Tensor,
    inv_std: &[f32],
    grad_output: &Tensor,
) -> (Tensor, Vec<f32>, Vec<f32>) {
    let [n, c, h, w] = [0, 1, 2, 3].map(|d| grad_output.dims()[d]);
    let per_channel = (n * h * w) as f32;
    let mut dx = Tensor::zeros(grad_output.dims());
    let (mut dgamma, mut dbeta) = (vec![0.0f32; c], vec![0.0f32; c]);
    for ci in 0..c {
        let mut sum_dy = 0.0f32;
        let mut sum_dy_xhat = 0.0f32;
        for ni in 0..n {
            let plane = (ni * c + ci) * h * w;
            for i in plane..plane + h * w {
                let dy = grad_output.data()[i];
                sum_dy += dy;
                sum_dy_xhat += dy * x_hat.data()[i];
            }
        }
        dbeta[ci] = 0.0 + sum_dy;
        dgamma[ci] = 0.0 + sum_dy_xhat;
        let g = bn.gamma.value.data()[ci];
        let mean_dy = sum_dy / per_channel;
        let mean_dy_xhat = sum_dy_xhat / per_channel;
        for ni in 0..n {
            let plane = (ni * c + ci) * h * w;
            for i in plane..plane + h * w {
                let dy = grad_output.data()[i];
                let xh = x_hat.data()[i];
                dx.data_mut()[i] = g * inv_std[ci] * (dy - mean_dy - xh * mean_dy_xhat);
            }
        }
    }
    (dx, dgamma, dbeta)
}

/// The serial `[O, N·OH·OW]` → NCHW layout pass, adding bias.
// indexed as the loop it reproduces was
#[allow(clippy::needless_range_loop)]
fn rows_to_nchw_ref(mat: &Tensor, dims: [usize; 4], bias: &[f32]) -> Tensor {
    let [n, o, oh, ow] = dims;
    let mut out = Tensor::zeros(&dims);
    let spatial = oh * ow;
    for oi in 0..o {
        let row = &mat.data()[oi * n * spatial..(oi + 1) * n * spatial];
        for ni in 0..n {
            for s in 0..spatial {
                out.data_mut()[(ni * o + oi) * spatial + s] = row[ni * spatial + s] + bias[oi];
            }
        }
    }
    out
}

/// The serial NCHW → `[O, N·OH·OW]` layout pass.
fn nchw_to_rows_ref(t: &Tensor) -> Tensor {
    let [n, o, oh, ow] = [0, 1, 2, 3].map(|d| t.dims()[d]);
    let spatial = oh * ow;
    let mut dst = vec![0.0f32; o * n * spatial];
    for oi in 0..o {
        let row = &mut dst[oi * n * spatial..(oi + 1) * n * spatial];
        for ni in 0..n {
            let src = (ni * o + oi) * spatial;
            row[ni * spatial..(ni + 1) * spatial].copy_from_slice(&t.data()[src..src + spatial]);
        }
    }
    Tensor::from_vec(dst, &[o, n * spatial]).expect("sized to fit")
}

/// `(n, c, h, w, seed)` with `c` in 1..=40: widths AD pruning leaves
/// that are and are not multiples of the interleave width.
fn nchw_case() -> impl Strategy<Value = (usize, usize, usize, usize, u64)> {
    (
        1usize..=3,
        1usize..=40,
        1usize..=6,
        1usize..=6,
        any::<u64>(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn batchnorm_keeps_the_serial_bits((n, c, h, w, seed) in nchw_case()) {
        let mut rng = init::rng(seed);
        let mut bn = BatchNorm2d::new(c);
        bn.gamma.value = init::uniform(&[c], 0.5, 1.5, &mut rng);
        bn.beta.value = init::uniform(&[c], -0.5, 0.5, &mut rng);
        let mut running = bn.running_stats();
        for train in [true, false, true] {
            let x = init::normal(&[n, c, h, w], 0.3, 2.0, &mut rng);
            let (want_y, x_hat, inv_std) = bn_forward_ref(&bn, &mut running, &x, train);
            let y = bn.forward(&x, train);
            prop_assert_eq!(bits(y.data()), bits(want_y.data()), "output, train {}", train);
            let (mean, var) = bn.running_stats();
            prop_assert_eq!(bits(&mean), bits(&running.0), "running mean");
            prop_assert_eq!(bits(&var), bits(&running.1), "running variance");
            if train {
                bn.gamma.grad = Tensor::zeros(&[c]);
                bn.beta.grad = Tensor::zeros(&[c]);
                let dy = init::uniform(&[n, c, h, w], -1.0, 1.0, &mut rng);
                let (want_dx, dgamma, dbeta) = bn_backward_ref(&bn, &x_hat, &inv_std, &dy);
                let dx = bn.backward(&dy);
                prop_assert_eq!(bits(dx.data()), bits(want_dx.data()), "dx");
                prop_assert_eq!(bits(bn.gamma.grad.data()), bits(&dgamma), "dγ");
                prop_assert_eq!(bits(bn.beta.grad.data()), bits(&dbeta), "dβ");
            }
        }
    }

    #[test]
    fn relu_keeps_the_serial_bits((n, c, h, w, seed) in nchw_case()) {
        let mut rng = init::rng(seed);
        let mut x = init::normal(&[n, c, h, w], 0.0, 1.0, &mut rng);
        // exact and signed zeros take the non-positive branch
        for (i, v) in x.data_mut().iter_mut().enumerate().step_by(7) {
            *v = if i % 2 == 0 { 0.0 } else { -0.0 };
        }
        let dy = init::uniform(x.dims(), -1.0, 1.0, &mut rng);
        let mask: Vec<bool> = x.data().iter().map(|&v| v > 0.0).collect();
        let want_y = x.map(|v| v.max(0.0));
        let want_dx: Vec<f32> =
            dy.data().iter().zip(&mask).map(|(&g, &m)| if m { g } else { 0.0 }).collect();
        let mut relu = Relu::new();
        let y = relu.forward(&x);
        prop_assert_eq!(bits(y.data()), bits(want_y.data()));
        let dx = relu.backward(&dy);
        prop_assert_eq!(bits(dx.data()), bits(&want_dx));
    }

    #[test]
    fn conv_layout_and_bias_grad_keep_the_serial_bits((n, c, h, w, seed) in nchw_case()) {
        let mut rng = init::rng(seed);
        let geom = Conv2dGeom::new(2, c, 3, 1, 1);
        let mut conv = Conv2d::new(geom, &mut rng);
        conv.bias.value = init::uniform(&[c], -1.0, 1.0, &mut rng);
        conv.bias.grad = init::uniform(&[c], -1.0, 1.0, &mut rng);
        let start_db = conv.bias.grad.clone();
        let x = init::uniform(&[n, 2, h, w], -1.0, 1.0, &mut rng);
        let y = conv.forward(&x);
        let cols = im2col(&x, &geom).expect("shapes agree");
        let product = matmul(&conv.weight.value, &cols).expect("shapes agree");
        let want_y = rows_to_nchw_ref(&product, [n, c, h, w], conv.bias.value.data());
        prop_assert_eq!(bits(y.data()), bits(want_y.data()), "forward layout");

        let dy = init::uniform(y.dims(), -1.0, 1.0, &mut rng);
        conv.backward(&dy);
        let rows = nchw_to_rows_ref(&dy);
        let len = rows.dims()[1];
        let want_db: Vec<f32> = (0..c)
            .map(|oi| start_db.data()[oi] + rows.data()[oi * len..(oi + 1) * len].iter().sum::<f32>())
            .collect();
        prop_assert_eq!(bits(conv.bias.grad.data()), bits(&want_db), "bias grad");
        let mut want_dw = Tensor::zeros(conv.weight.value.dims());
        want_dw
            .add_scaled(&matmul_a_bt(&rows, &cols).expect("shapes agree"), 1.0)
            .expect("shapes agree");
        prop_assert_eq!(bits(conv.weight.grad.data()), bits(want_dw.data()), "backward layout");
    }
}
