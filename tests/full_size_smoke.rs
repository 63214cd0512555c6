//! Full-size architecture smoke tests.
//!
//! The paper's actual VGG19/ResNet18 are constructible and trainable here,
//! just slow on CPU — these tests run one forward/backward on the real
//! geometry to prove the full pipeline is not limited to the scaled-down
//! variants, and lower both to the integer engine at the 16-bit
//! fallback. They are `#[ignore]`d by default; run with
//! `cargo test --release -- --ignored full_size`.

use adq::core::builders::network_spec_from_stats;
use adq::infer::{CompileOptions, CompiledNet};
use adq::nn::{softmax_cross_entropy, QuantModel, ResNet, Vgg};
use adq::quant::BitWidth;
use adq::tensor::Tensor;

#[test]
#[ignore = "full-size geometry; run with --release -- --ignored"]
fn full_size_vgg19_forward_backward() {
    let mut model = Vgg::vgg19(3, 32, 10, 1);
    assert_eq!(model.layer_count(), 17);
    // apply the paper's iter-2 bit assignment
    for (i, &bits) in adq::core::paper::TABLE2A_ITER2_BITS.iter().enumerate() {
        model.set_bits_of(i, Some(BitWidth::new(bits).expect("valid preset")));
    }
    let x = Tensor::ones(&[2, 3, 32, 32]);
    let logits = model.forward(&x, true);
    assert_eq!(logits.dims(), &[2, 10]);
    assert!(logits.data().iter().all(|v| v.is_finite()));
    let out = softmax_cross_entropy(&logits, &[0, 1]);
    model.zero_grad();
    model.backward(&out.grad);
    let mut nonzero = 0usize;
    model.visit_params(&mut |_, p| {
        nonzero += usize::from(p.grad.data().iter().any(|&g| g != 0.0));
    });
    assert!(nonzero > 0);
}

#[test]
#[ignore = "full-size geometry; run with --release -- --ignored"]
fn full_size_resnet18_forward_backward() {
    let mut model = ResNet::resnet18(3, 32, 100, 2);
    assert_eq!(model.layer_count(), 26);
    for (i, &bits) in adq::core::paper::TABLE2B_ITER3_BITS.iter().enumerate() {
        model.set_bits_of(i, Some(BitWidth::new(bits).expect("valid preset")));
    }
    let x = Tensor::ones(&[2, 3, 32, 32]);
    let logits = model.forward(&x, true);
    assert_eq!(logits.dims(), &[2, 100]);
    assert!(logits.data().iter().all(|v| v.is_finite()));
    let out = softmax_cross_entropy(&logits, &[3, 7]);
    model.zero_grad();
    model.backward(&out.grad);
}

#[test]
#[ignore = "full-size geometry; run with --release -- --ignored"]
fn full_size_vgg19_integer_deployment() {
    let mut model = Vgg::vgg19(3, 32, 10, 3);
    let images =
        adq::tensor::init::normal(&[2, 3, 32, 32], 0.0, 1.0, &mut adq::tensor::init::rng(4));
    let compiled = CompiledNet::compile(&model, &images, CompileOptions::default())
        .expect("finite fresh weights");
    let logits = compiled.run(&images);
    assert_eq!(logits.dims(), &[2, 10]);
    let float_logits = model.forward(&images, false);
    for i in 0..2 {
        assert_eq!(
            logits.index_axis0(i).argmax(),
            float_logits.index_axis0(i).argmax(),
            "image {i}"
        );
    }
    // one image through VGG19 is ~398M MACs by the Table-I count, which
    // includes padding taps as the integer engine does
    let spec = network_spec_from_stats("vgg19", &model.layer_stats(), BitWidth::SIXTEEN);
    assert!(
        (397_000_000..=398_200_000).contains(&spec.mac_count()),
        "{} MACs",
        spec.mac_count()
    );
}

#[test]
#[ignore = "full-size geometry; run with --release -- --ignored"]
fn full_size_resnet18_integer_deployment() {
    let mut model = ResNet::resnet18(3, 32, 100, 5);
    let images =
        adq::tensor::init::normal(&[2, 3, 32, 32], 0.0, 1.0, &mut adq::tensor::init::rng(6));
    let compiled = CompiledNet::compile(&model, &images, CompileOptions::default())
        .expect("finite fresh weights");
    let logits = compiled.run(&images);
    assert_eq!(logits.dims(), &[2, 100]);
    assert!(logits.data().iter().all(|v| v.is_finite()));
    let float_logits = model.forward(&images, false);
    for i in 0..2 {
        assert_eq!(
            logits.index_axis0(i).argmax(),
            float_logits.index_axis0(i).argmax(),
            "image {i}"
        );
    }
}
