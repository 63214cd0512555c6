//! Table II — results summary for AD-based quantization.
//!
//! Two parts:
//!
//! 1. **Static reproduction** of the energy-efficiency and
//!    training-complexity columns from the paper's published per-layer
//!    bit-widths (exact geometry, Table I energy model, eqn 4 with the
//!    paper's epoch counts).
//! 2. **Dynamic reproduction** of the accuracy/AD *shape* by running
//!    Algorithm 1 end-to-end on the synthetic stand-in tasks.

use adq_core::paper::{self, RESNET18_CHANNELS, VGG19_CHANNELS};
use adq_core::{training_complexity, AdQuantizer, AdqConfig, IterationCost};
use adq_datasets::SyntheticSpec;
use adq_energy::{EnergyModel, NetworkSpec};
use adq_nn::{ResNet, Vgg};
use adq_telemetry::TelemetrySink;
use serde_json::json;

struct StaticRow {
    label: &'static str,
    spec: NetworkSpec,
    paper_eff: &'static str,
    paper_acc: &'static str,
    epochs: usize,
}

fn complexity_column(
    rows: &[StaticRow],
    baseline: &NetworkSpec,
    model: &EnergyModel,
    baseline_epochs: usize,
) -> Vec<f64> {
    // cumulative eqn-4 complexity, paper-style: the baseline row is the full
    // schedule (1.0 by definition); each later row reports the in-training
    // quantization schedule up to and including that iteration
    let mut costs: Vec<IterationCost> = Vec::new();
    let mut out = vec![1.0];
    for row in rows.iter().skip(1) {
        if costs.is_empty() {
            // iteration 1 trains the initial-precision model
            costs.push(IterationCost::new(1.0, rows[0].epochs));
        }
        let reduction = baseline.energy_pj(model) / row.spec.energy_pj(model);
        costs.push(IterationCost::new(reduction.max(1e-9), row.epochs));
        out.push(training_complexity(&costs, baseline_epochs));
    }
    out
}

fn print_section(
    title: &str,
    rows: Vec<StaticRow>,
    baseline_epochs: usize,
    json_rows: &mut Vec<serde_json::Value>,
) {
    let model = EnergyModel::paper_45nm();
    let baseline = rows[0].spec.clone();
    let complexities = complexity_column(&rows, &baseline, &model, baseline_epochs);
    let mut table = Vec::new();
    for (row, complexity) in rows.iter().zip(&complexities) {
        let eff = row.spec.efficiency_vs(&baseline, &model);
        table.push(vec![
            row.label.to_string(),
            format!("{:.2}x", eff),
            row.paper_eff.to_string(),
            format!("{}", row.epochs),
            format!("{complexity:.3}x"),
            row.paper_acc.to_string(),
        ]);
        json_rows.push(json!({
            "section": title,
            "row": row.label,
            "efficiency": eff,
            "paper_efficiency": row.paper_eff,
            "epochs": row.epochs,
            "training_complexity": complexity,
        }));
    }
    adq_bench::print_table(
        title,
        &[
            "iter",
            "energy eff (ours)",
            "energy eff (paper)",
            "epochs (paper)",
            "train complexity (ours)",
            "paper accuracy",
        ],
        &table,
    );
}

fn static_reproduction(json_rows: &mut Vec<serde_json::Value>) {
    // (a) VGG19 on CIFAR-10
    print_section(
        "Table II (a) — VGG19 on CIFAR-10 (static, published operating points)",
        vec![
            StaticRow {
                label: "1 (16-bit baseline)",
                spec: paper::vgg19_baseline(32, 10, 16),
                paper_eff: "1x",
                paper_acc: "91.85%",
                epochs: 100,
            },
            StaticRow {
                label: "2",
                spec: paper::vgg19_spec(
                    "iter2",
                    32,
                    10,
                    &paper::TABLE2A_ITER2_BITS,
                    &VGG19_CHANNELS,
                    &[],
                ),
                paper_eff: "4.16x",
                paper_acc: "91.62%",
                epochs: 70,
            },
            StaticRow {
                label: "2a (conv16 removed)",
                spec: paper::vgg19_spec(
                    "iter2a",
                    32,
                    10,
                    &paper::TABLE2A_ITER2_BITS,
                    &VGG19_CHANNELS,
                    &[paper::TABLE2A_ITER2A_REMOVED_CONV],
                ),
                paper_eff: "4.19x",
                paper_acc: "92.16%",
                epochs: 70,
            },
        ],
        210,
        json_rows,
    );

    // (b) ResNet18 on CIFAR-100
    print_section(
        "Table II (b) — ResNet18 on CIFAR-100 (static)",
        vec![
            StaticRow {
                label: "1 (16-bit baseline)",
                spec: paper::resnet18_baseline(32, 100, 16),
                paper_eff: "1x",
                paper_acc: "70.90%",
                epochs: 120,
            },
            StaticRow {
                label: "2",
                spec: paper::resnet18_spec(
                    "iter2",
                    32,
                    100,
                    &paper::TABLE2B_ITER2_BITS,
                    &RESNET18_CHANNELS,
                ),
                paper_eff: "2.76x",
                paper_acc: "71.51%",
                epochs: 70,
            },
            StaticRow {
                label: "3",
                spec: paper::resnet18_spec(
                    "iter3",
                    32,
                    100,
                    &paper::TABLE2B_ITER3_BITS,
                    &RESNET18_CHANNELS,
                ),
                paper_eff: "3.19x",
                paper_acc: "70.51%",
                epochs: 70,
            },
        ],
        240,
        json_rows,
    );

    // (c) ResNet18 on TinyImagenet (32-bit baseline)
    print_section(
        "Table II (c) — ResNet18 on TinyImagenet (static)",
        vec![
            StaticRow {
                label: "1 (32-bit baseline)",
                spec: paper::resnet18_baseline(64, 200, 32),
                paper_eff: "1x",
                paper_acc: "44.26%",
                epochs: 60,
            },
            StaticRow {
                label: "2",
                spec: paper::resnet18_spec(
                    "iter2",
                    64,
                    200,
                    &paper::TABLE2C_ITER2_BITS,
                    &RESNET18_CHANNELS,
                ),
                paper_eff: "2.73x",
                paper_acc: "43.94%",
                epochs: 25,
            },
            StaticRow {
                label: "3",
                spec: paper::resnet18_spec(
                    "iter3",
                    64,
                    200,
                    &paper::TABLE2C_ITER3_BITS,
                    &RESNET18_CHANNELS,
                ),
                paper_eff: "4.14x",
                paper_acc: "44.00%",
                epochs: 25,
            },
            StaticRow {
                label: "4",
                spec: paper::resnet18_spec(
                    "iter4",
                    64,
                    200,
                    &paper::TABLE2C_ITER4_BITS,
                    &RESNET18_CHANNELS,
                ),
                paper_eff: "4.50x",
                paper_acc: "43.50%",
                epochs: 25,
            },
        ],
        100,
        json_rows,
    );
}

fn dynamic_config() -> AdqConfig {
    AdqConfig {
        max_iterations: 3,
        max_epochs_per_iteration: 8,
        min_epochs_per_iteration: 3,
        batch_size: 24,
        lr: 1.5e-3,
        ..AdqConfig::paper_default()
    }
}

fn dynamic_reproduction(
    json_rows: &mut Vec<serde_json::Value>,
    sink: &dyn TelemetrySink,
    checkpoint: &adq_bench::CheckpointOption,
) {
    let controller = AdQuantizer::new(dynamic_config());

    // VGG on synthetic CIFAR-10 (no batch-norm: raw ReLU density dynamics;
    // high noise so accuracy comparisons are informative)
    let (train, test) = SyntheticSpec::cifar10_like()
        .with_resolution(16)
        .with_samples(24, 10)
        .with_noise(0.9)
        .generate();
    use adq_nn::VggItem::{Conv, Pool};
    let vgg_config = [
        Conv(16),
        Conv(16),
        Pool,
        Conv(32),
        Conv(32),
        Pool,
        Conv(64),
        Pool,
    ];
    let mut baseline_model = Vgg::from_config(3, 16, 10, &vgg_config, false, 7);
    let baseline = controller.run_baseline_with_sink(&mut baseline_model, &train, &test, 8, sink);
    let mut model = Vgg::from_config(3, 16, 10, &vgg_config, false, 7);
    let outcome = checkpoint
        .scoped("vgg")
        .run(&controller, &mut model, &train, &test, sink);
    let mut rows = vec![vec![
        "baseline (16-bit)".to_string(),
        format!("{:.1}%", 100.0 * baseline.test_accuracy),
        format!("{:.3}", baseline.total_ad),
        "1.00x".into(),
        format!("{}", baseline.epochs_trained),
        "1.000x".into(),
    ]];
    for r in &outcome.iterations {
        rows.push(vec![
            format!("iter {} {}", r.iteration, adq_bench::fmt_bits_list(&r.bits)),
            format!("{:.1}%", 100.0 * r.test_accuracy),
            format!("{:.3}", r.total_ad),
            format!("{:.2}x", r.mac_reduction),
            format!("{}", r.epochs_trained),
            format!("{:.3}x", outcome.training_complexity),
        ]);
    }
    adq_bench::print_table(
        "Table II (dynamic) — Algorithm 1 on VGG / synthetic CIFAR-10",
        &[
            "model",
            "test acc",
            "total AD",
            "MAC reduction",
            "epochs",
            "train complexity",
        ],
        &rows,
    );
    json_rows.push(json!({
        "section": "dynamic-vgg",
        "baseline_accuracy": baseline.test_accuracy,
        "final_accuracy": outcome.final_record().test_accuracy,
        "training_complexity": outcome.training_complexity,
        "iterations": outcome.iterations.len(),
    }));

    // ResNet on synthetic CIFAR-100
    let (train, test) = SyntheticSpec::cifar100_like()
        .with_classes(10)
        .with_resolution(16)
        .with_samples(16, 6)
        .generate();
    let mut resnet = ResNet::small(3, 16, 10, 9);
    let outcome = checkpoint
        .scoped("resnet")
        .run(&controller, &mut resnet, &train, &test, sink);
    let mut rows = Vec::new();
    for r in &outcome.iterations {
        rows.push(vec![
            format!("iter {}", r.iteration),
            format!("{:.1}%", 100.0 * r.test_accuracy),
            format!("{:.3}", r.total_ad),
            format!("{:.2}x", r.mac_reduction),
            format!("{}", r.epochs_trained),
        ]);
    }
    adq_bench::print_table(
        "Table II (dynamic) — Algorithm 1 on ResNet / synthetic CIFAR-100",
        &["iter", "test acc", "total AD", "MAC reduction", "epochs"],
        &rows,
    );
    json_rows.push(json!({
        "section": "dynamic-resnet",
        "final_accuracy": outcome.final_record().test_accuracy,
        "training_complexity": outcome.training_complexity,
    }));
}

fn main() {
    let telemetry = adq_bench::telemetry_from_args();
    let checkpoint = adq_bench::checkpoint_from_args();
    let mut json_rows = Vec::new();
    static_reproduction(&mut json_rows);
    dynamic_reproduction(&mut json_rows, telemetry.sink.as_ref(), &checkpoint);
    adq_bench::write_json("table2_quantization", &json_rows);
    adq_bench::export_trace_artifacts(&telemetry);
    adq_bench::write_run_artifacts(
        "table2_quantization",
        &json!({
            "bench": "table2_quantization",
            "config": dynamic_config(),
            "seed": dynamic_config().seed,
            "telemetry": telemetry.path,
        }),
    );
}
