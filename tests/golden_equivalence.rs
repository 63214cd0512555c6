//! Golden equivalence between a trained model and its integer lowering:
//! `adq-infer`'s bit-packed engine (`CompiledVgg`, `CompiledResNet`)
//! against the float model's own fake-quantized forward pass.
//!
//! The two are deliberately not bit-identical — the integer engine
//! freezes activation ranges at compile time (a server cannot re-fit
//! ranges per request batch), while the float model fits them per batch —
//! but on a trained network they must agree where it matters: the
//! predicted class of every evaluation sample. At 16 bits the
//! quantization grid is ~4 decimal digits finer than the logits, so the
//! logits themselves must match within 2% of their scale; any larger gap
//! means the lowering (folding, weight packing, requantization) is wrong,
//! not rounding.

use std::sync::OnceLock;

use adq::core::builders::{network_spec_from_stats, pim_mappings_from_spec};
use adq::core::{AdQuantizer, AdqConfig};
use adq::datasets::SyntheticSpec;
use adq::infer::{CompileOptions, CompiledResNet, CompiledVgg};
use adq::nn::train::Dataset;
use adq::nn::{QuantModel, ResNet, Vgg};
use adq::quant::BitWidth;
use adq::tensor::Tensor;

fn argmax_rows(logits: &Tensor) -> Vec<usize> {
    let [n, classes] = [logits.dims()[0], logits.dims()[1]];
    (0..n)
        .map(|i| {
            let row = &logits.data()[i * classes..(i + 1) * classes];
            row.iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map(|(j, _)| j)
                .expect("non-empty row")
        })
        .collect()
}

/// Fraction of rows whose argmax agrees.
fn agreement(a: &Tensor, b: &Tensor) -> f64 {
    let (a, b) = (argmax_rows(a), argmax_rows(b));
    a.iter().zip(&b).filter(|(x, y)| x == y).count() as f64 / a.len() as f64
}

/// Largest `|int − float|` over all logits, as a fraction of the float
/// logits' scale.
fn worst_logit_error(int: &Tensor, float: &Tensor) -> f32 {
    assert_eq!(int.dims(), float.dims());
    let scale = float.data().iter().fold(1.0f32, |m, &v| m.max(v.abs()));
    int.data()
        .iter()
        .zip(float.data())
        .map(|(&got, &want)| (got - want).abs() / scale)
        .fold(0.0, f32::max)
}

fn with_all_bits<M: QuantModel>(mut model: M, bits: u32) -> M {
    for i in 0..model.layer_count() {
        model.set_bits_of(i, Some(BitWidth::new(bits).expect("valid bits")));
    }
    model
}

/// The trained VGG task, trained once per test binary.
fn trained_task() -> &'static (Vgg, Dataset, Dataset) {
    static TASK: OnceLock<(Vgg, Dataset, Dataset)> = OnceLock::new();
    TASK.get_or_init(|| {
        let (train, test) = SyntheticSpec::cifar10_like()
            .with_classes(4)
            .with_resolution(8)
            .with_samples(24, 16)
            .with_seed(77)
            .generate();
        let config = AdqConfig {
            max_iterations: 2,
            max_epochs_per_iteration: 4,
            min_epochs_per_iteration: 2,
            batch_size: 12,
            baseline_epochs: 6,
            ..AdqConfig::paper_default()
        };
        let mut model = Vgg::tiny(3, 8, 4, 21);
        AdQuantizer::new(config).run(&mut model, &train, &test);
        (model, train, test)
    })
}

/// A trained `ResNet::tiny` (identity and projection skips), trained
/// once per test binary.
fn trained_resnet_task() -> &'static (ResNet, Dataset, Dataset) {
    static TASK: OnceLock<(ResNet, Dataset, Dataset)> = OnceLock::new();
    TASK.get_or_init(|| {
        let (train, test) = SyntheticSpec::cifar10_like()
            .with_classes(4)
            .with_resolution(8)
            .with_samples(12, 6)
            .generate();
        let mut model = ResNet::tiny(3, 8, 4, 5);
        let config = AdqConfig {
            max_iterations: 2,
            max_epochs_per_iteration: 4,
            min_epochs_per_iteration: 2,
            batch_size: 12,
            ..AdqConfig::fast()
        };
        AdQuantizer::new(config).run(&mut model, &train, &test);
        (model, train, test)
    })
}

/// The integer engine's logits must pick the same class as the float
/// model for every sample of the full eval batch.
#[test]
fn compiled_model_matches_float_lowering_argmax_for_argmax() {
    let (model, train, test) = trained_task();
    let compiled = CompiledVgg::compile(model, &train.images, CompileOptions::default())
        .expect("trained model lowers");
    let float_logits = model.clone().forward(&test.images, false);
    let int_logits = compiled.run(&test.images);
    assert_eq!(float_logits.dims(), int_logits.dims());
    assert!(int_logits.data().iter().all(|v| v.is_finite()));

    let want = argmax_rows(&float_logits);
    let got = argmax_rows(&int_logits);
    assert_eq!(
        got,
        want,
        "integer engine disagreed with the float model on {} of {} eval samples",
        want.iter().zip(&got).filter(|(a, b)| a != b).count(),
        test.len()
    );
}

#[test]
fn compiled_vgg_logits_match_the_float_model_at_16_bits() {
    let (model, train, test) = trained_task();
    let model = with_all_bits(model.clone(), 16);
    let compiled = CompiledVgg::compile(&model, &train.images, CompileOptions::default())
        .expect("trained model lowers");
    let worst = worst_logit_error(
        &compiled.run(&test.images),
        &model.clone().forward(&test.images, false),
    );
    println!(
        "VGG 16-bit worst logit error: {:.4}% of scale",
        100.0 * worst
    );
    assert!(worst <= 0.02, "worst logit error {worst} of scale");
}

/// The integer engine and the energy accounting must execute at the same
/// legalized hardware precisions — they read the same trained bit-widths.
#[test]
fn lowerings_agree_on_hardware_precisions() {
    let (model, train, _) = trained_task();
    let compiled = CompiledVgg::compile(model, &train.images, CompileOptions::default())
        .expect("trained model lowers");
    let spec = network_spec_from_stats("golden", &model.layer_stats(), BitWidth::SIXTEEN);
    let costed: Vec<_> = pim_mappings_from_spec(&spec)
        .iter()
        .map(|m| m.precision)
        .collect();
    assert_eq!(compiled.precisions(), costed);
}

#[test]
fn compiled_resnet_agrees_with_the_float_model() {
    let (model, train, test) = trained_resnet_task();
    let compiled = CompiledResNet::compile(model, &train.images, CompileOptions::default())
        .expect("trained model lowers");
    let int_logits = compiled.run(&test.images);
    assert!(int_logits.data().iter().all(|v| v.is_finite()));
    let agree = agreement(&int_logits, &model.clone().forward(&test.images, false));
    println!("ResNet argmax agreement: {agree}");
    assert!(agree >= 0.6, "integer/float agreement only {agree}");
}

#[test]
fn compiled_resnet_logits_match_the_float_model_at_16_bits() {
    let (model, train, test) = trained_resnet_task();
    let model = with_all_bits(model.clone(), 16);
    let compiled = CompiledResNet::compile(&model, &train.images, CompileOptions::default())
        .expect("trained model lowers");
    let worst = worst_logit_error(
        &compiled.run(&test.images),
        &model.clone().forward(&test.images, false),
    );
    println!(
        "ResNet 16-bit worst logit error: {:.4}% of scale",
        100.0 * worst
    );
    assert!(worst <= 0.02, "worst logit error {worst} of scale");
}
