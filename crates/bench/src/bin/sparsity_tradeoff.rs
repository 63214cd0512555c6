//! The sparsity/precision trade-off (extension; paper §II-B + §III).
//!
//! The paper's intro notes that pruning composes with *zero-skipping*
//! accelerators (its ref \[22\], SCNN) that exploit activation sparsity — the
//! very zeros Activation Density counts. But AD-based quantization drives
//! AD toward 1, *consuming* that sparsity. This bench quantifies the
//! trade on a real trained model: per-iteration energy on a dense datapath
//! (bits win) vs a zero-skipping datapath (sparsity wins), using the
//! measured per-layer densities of each Algorithm-1 iteration.

use adq_core::builders::network_spec_from_stats;
use adq_core::{AdQuantizer, AdqConfig};
use adq_datasets::SyntheticSpec;
use adq_energy::EnergyModel;
use adq_nn::VggItem::{Conv, Pool};
use adq_nn::{QuantModel, Vgg};
use adq_quant::BitWidth;
use serde_json::json;

fn main() {
    let (train, test) = SyntheticSpec::cifar10_like()
        .with_resolution(16)
        .with_samples(24, 8)
        .with_noise(0.6)
        .generate();
    let mut model = Vgg::from_config(
        3,
        16,
        10,
        &[
            Conv(16),
            Conv(16),
            Pool,
            Conv(32),
            Conv(32),
            Pool,
            Conv(64),
            Pool,
        ],
        false,
        61,
    );
    let config = AdqConfig {
        max_iterations: 3,
        max_epochs_per_iteration: 8,
        min_epochs_per_iteration: 3,
        batch_size: 24,
        lr: 1.5e-3,
        ..AdqConfig::paper_default()
    };
    let outcome = AdQuantizer::new(config).run(&mut model, &train, &test);

    let energy_model = EnergyModel::paper_45nm();
    let mut rows = Vec::new();
    let mut payload = Vec::new();
    let mut dense_baseline = None;
    let mut sparse_baseline = None;
    for record in &outcome.iterations {
        // rebuild the spec for this iteration's bits/channels; layer l's
        // *input* density is layer l-1's output density (images ~ dense)
        let spec = {
            let mut m = model.clone();
            for (idx, bits) in record.bits.iter().enumerate() {
                m.set_bits_of(idx, *bits);
            }
            network_spec_from_stats("iter", &m.layer_stats(), BitWidth::SIXTEEN)
        };
        let mut input_densities = vec![1.0f64];
        input_densities.extend(record.densities.iter().take(record.densities.len() - 1));
        let dense = spec.energy_pj(&energy_model) / 1e6;
        let sparse = spec.energy_pj_sparse(&energy_model, &input_densities) / 1e6;
        let dense_base = *dense_baseline.get_or_insert(dense);
        let sparse_base = *sparse_baseline.get_or_insert(sparse);
        rows.push(vec![
            format!("iter {}", record.iteration),
            format!("{:.3}", record.total_ad),
            format!("{dense:.4}"),
            format!("{:.2}x", dense_base / dense),
            format!("{sparse:.4}"),
            format!("{:.2}x", sparse_base / sparse),
        ]);
        payload.push(json!({
            "iteration": record.iteration,
            "total_ad": record.total_ad,
            "dense_uj": dense,
            "sparse_uj": sparse,
        }));
    }
    adq_bench::print_table(
        "sparsity/precision trade-off — dense vs zero-skipping accelerator",
        &[
            "iteration",
            "total AD",
            "dense (uJ)",
            "dense gain",
            "zero-skip (uJ)",
            "zero-skip gain",
        ],
        &rows,
    );
    println!(
        "\nreading: on a dense datapath every quantization iteration helps (bits\n\
         shrink). On a zero-skipping datapath the baseline already exploits the\n\
         low-AD zeros, so AD-quantization's gains are partially offset as AD\n\
         rises — quantifying the interplay the paper's §II-B hints at. Pruning\n\
         (eqn 5) avoids the tension by removing channels outright."
    );
    adq_bench::write_json("sparsity_tradeoff", &payload);
}
