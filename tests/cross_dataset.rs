//! AD dynamics must not be an artefact of one input distribution: run the
//! same pipeline on the blob-prototype and texture task families.

use adq::core::{AdQuantizer, AdqConfig};
use adq::datasets::{SyntheticSpec, TextureSpec};
use adq::infer::{CompileOptions, CompiledNet};
use adq::nn::{QuantModel, Vgg};

fn config() -> AdqConfig {
    AdqConfig {
        max_iterations: 2,
        max_epochs_per_iteration: 4,
        min_epochs_per_iteration: 2,
        batch_size: 16,
        ..AdqConfig::fast()
    }
}

#[test]
fn texture_task_trains_and_quantizes() {
    let (train, test) = TextureSpec::default()
        .with_resolution(8)
        .with_samples(12, 4)
        .generate();
    let mut model = Vgg::tiny(1, 8, 8, 3);
    let outcome = AdQuantizer::new(config()).run(&mut model, &train, &test);
    let last = outcome.final_record();
    assert!(
        last.test_accuracy > 0.5,
        "texture task barely learned: {}",
        last.test_accuracy
    );
    // quantization happened
    assert!(last.bits.iter().flatten().any(|b| b.get() < 16));
}

#[test]
fn ad_saturates_below_one_on_both_families() {
    let controller = AdQuantizer::new(config());

    let (blob_train, blob_test) = SyntheticSpec::cifar10_like()
        .with_classes(4)
        .with_resolution(8)
        .with_samples(12, 4)
        .generate();
    let mut blob_model = Vgg::tiny(3, 8, 4, 5);
    let blob = controller.run_baseline(&mut blob_model, &blob_train, &blob_test, 5);

    let (tex_train, tex_test) = TextureSpec::default()
        .with_resolution(8)
        .with_samples(12, 4)
        .generate();
    let mut tex_model = Vgg::tiny(1, 8, 8, 6);
    let tex = controller.run_baseline(&mut tex_model, &tex_train, &tex_test, 5);

    for (family, record) in [("blobs", &blob), ("textures", &tex)] {
        assert!(
            record.total_ad > 0.0 && record.total_ad < 0.95,
            "{family}: total AD {} not in (0, 0.95)",
            record.total_ad
        );
    }
}

#[test]
fn texture_dataset_feeds_deployment_pipeline() {
    let (train, test) = TextureSpec::default()
        .with_resolution(8)
        .with_samples(10, 4)
        .generate();
    let mut model = Vgg::tiny(1, 8, 8, 7);
    AdQuantizer::new(config()).run(&mut model, &train, &test);
    let compiled = CompiledNet::compile(&model, &train.images, CompileOptions::default())
        .expect("finite weights");
    let logits = compiled.run(&test.images);
    assert_eq!(logits.dims(), &[test.len(), 8]);
    let float_logits = model.forward(&test.images, false);
    let agree = (0..test.len())
        .filter(|&i| logits.index_axis0(i).argmax() == float_logits.index_axis0(i).argmax())
        .count();
    assert_eq!(agree, test.len(), "integer engine vs float model argmax");
}
