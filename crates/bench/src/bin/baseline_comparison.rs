//! §I framing — AD in-training quantization vs the two families of
//! baselines the paper positions against: homogeneous-precision training
//! from scratch, and the conventional train → quantize → retrain pipeline.
//!
//! Columns: accuracy, mixed vs uniform precision, total epochs and eqn-4
//! training complexity, and analytical energy efficiency of the resulting
//! model.

use adq_core::baselines::{train_homogeneous, train_quantize_retrain, PtqConfig};
use adq_core::builders::network_spec_from_stats;
use adq_core::{AdQuantizer, AdqConfig};
use adq_datasets::SyntheticSpec;
use adq_energy::EnergyModel;
use adq_nn::VggItem::{Conv, Pool};
use adq_nn::{QuantModel, Vgg};
use adq_quant::BitWidth;
use serde_json::json;

const VGG_CONFIG: [adq_nn::VggItem; 8] = [
    Conv(16),
    Conv(16),
    Pool,
    Conv(32),
    Conv(32),
    Pool,
    Conv(64),
    Pool,
];

fn build() -> Vgg {
    Vgg::from_config(3, 16, 10, &VGG_CONFIG, false, 77)
}

fn efficiency(model: &Vgg) -> f64 {
    let energy_model = EnergyModel::paper_45nm();
    let spec = network_spec_from_stats("m", &model.layer_stats(), BitWidth::SIXTEEN);
    spec.with_uniform_bits(BitWidth::SIXTEEN)
        .energy_pj(&energy_model)
        / spec.energy_pj(&energy_model)
}

fn main() {
    let telemetry = adq_bench::telemetry_from_args();
    let checkpoint = adq_bench::checkpoint_from_args();
    let (train, test) = SyntheticSpec::cifar10_like()
        .with_resolution(16)
        .with_samples(24, 10)
        .with_noise(0.9)
        .generate();
    let baseline_epochs = 20;

    let mut rows = Vec::new();
    let mut payload = Vec::new();

    // 1. full-precision reference (16-bit, full schedule)
    let mut fp = build();
    let fp_record = AdQuantizer::new(AdqConfig {
        batch_size: 24,
        lr: 1.5e-3,
        ..AdqConfig::paper_default()
    })
    .run_baseline_with_sink(
        &mut fp,
        &train,
        &test,
        baseline_epochs,
        telemetry.sink.as_ref(),
    );
    rows.push(vec![
        "16-bit full schedule".into(),
        format!("{:.1}%", 100.0 * fp_record.test_accuracy),
        "uniform 16".into(),
        format!("{baseline_epochs}"),
        "1.000x".into(),
        "1.00x".into(),
    ]);

    // 2. AD in-training quantization (the paper's method)
    let mut adq = build();
    let adq_config = AdqConfig {
        max_iterations: 3,
        max_epochs_per_iteration: 8,
        min_epochs_per_iteration: 3,
        batch_size: 24,
        lr: 1.5e-3,
        baseline_epochs,
        ..AdqConfig::paper_default()
    };
    let outcome = checkpoint.run(
        &AdQuantizer::new(adq_config),
        &mut adq,
        &train,
        &test,
        telemetry.sink.as_ref(),
    );
    let last = outcome.final_record();
    rows.push(vec![
        "AD in-training (Alg 1)".into(),
        format!("{:.1}%", 100.0 * last.test_accuracy),
        adq_bench::fmt_bits_list(&last.bits),
        format!("{}", outcome.total_epochs()),
        format!("{:.3}x", outcome.training_complexity),
        format!("{:.2}x", efficiency(&adq)),
    ]);
    payload.push(json!({"method": "adq", "accuracy": last.test_accuracy,
        "complexity": outcome.training_complexity, "efficiency": efficiency(&adq)}));

    // 3. homogeneous precision from scratch at 4 and 2 bits
    for bits in [4u32, 2] {
        let mut model = build();
        let record = train_homogeneous(
            &mut model,
            &train,
            &test,
            BitWidth::new(bits).expect("valid"),
            baseline_epochs,
            24,
            1.5e-3,
            0,
            baseline_epochs,
        );
        rows.push(vec![
            format!("homogeneous {bits}-bit"),
            format!("{:.1}%", 100.0 * record.test_accuracy),
            format!("uniform {bits}"),
            format!("{}", record.epochs),
            format!("{:.3}x", record.training_complexity),
            format!("{:.2}x", efficiency(&model)),
        ]);
        payload.push(json!({"method": format!("homogeneous-{bits}"),
            "accuracy": record.test_accuracy, "complexity": record.training_complexity}));
    }

    // 4. conventional train -> quantize -> retrain
    let mut ptq = build();
    let record = train_quantize_retrain(
        &mut ptq,
        &train,
        &test,
        &PtqConfig {
            pretrain_epochs: 14,
            retrain_epochs: 6,
            batch_size: 24,
            lr: 1.5e-3,
            baseline_epochs,
            ..PtqConfig::default()
        },
    );
    rows.push(vec![
        "train->quantize->retrain".into(),
        format!(
            "{:.1}% (post-quant dip {:.1}%)",
            100.0 * record.final_accuracy,
            100.0 * record.quantized_accuracy
        ),
        adq_bench::fmt_bits_list(&record.bits),
        format!("{}", record.total_epochs),
        format!("{:.3}x", record.training_complexity),
        format!("{:.2}x", efficiency(&ptq)),
    ]);
    payload.push(json!({"method": "ptq", "accuracy": record.final_accuracy,
        "post_quant_accuracy": record.quantized_accuracy,
        "complexity": record.training_complexity}));

    adq_bench::print_table(
        "baseline comparison — method vs accuracy, schedule cost, energy",
        &[
            "method",
            "test acc",
            "bit-widths",
            "epochs",
            "train complexity",
            "energy eff",
        ],
        &rows,
    );
    println!(
        "\nreading: Algorithm 1 reaches mixed precision at lower schedule cost than\n\
         train->quantize->retrain (which pays the full-precision pre-training), and\n\
         unlike aggressive homogeneous precision it chooses per-layer widths."
    );
    adq_bench::write_json("baseline_comparison", &payload);
    adq_bench::write_run_artifacts(
        "baseline_comparison",
        &json!({
            "bench": "baseline_comparison",
            "config": adq_config,
            "seed": adq_config.seed,
            "telemetry": telemetry.path,
        }),
    );
}
