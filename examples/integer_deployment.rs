//! Deployment: compile an AD-quantized model to the integer engine
//! (BN folding + weight packing + integer GEMMs with frozen activation
//! ranges), verify it agrees with the floating-point training-time
//! simulation, and cost it on the PIM accelerator.
//!
//! Run with: `cargo run --release --example integer_deployment`

use adq::core::builders::{network_spec_from_stats, pim_mappings_from_spec};
use adq::core::{AdQuantizer, AdqConfig};
use adq::datasets::SyntheticSpec;
use adq::infer::{CompileOptions, CompiledVgg};
use adq::nn::{accuracy, QuantModel, Vgg};
use adq::pim::{NetworkEnergyReport, PimEnergyModel};
use adq::quant::BitWidth;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (train, test) = SyntheticSpec::cifar10_like()
        .with_resolution(16)
        .with_samples(24, 10)
        .with_noise(0.7)
        .generate();

    // train with in-training AD quantization
    let mut model = Vgg::small(3, 16, 10, 33);
    let outcome = AdQuantizer::new(AdqConfig {
        max_iterations: 3,
        max_epochs_per_iteration: 6,
        min_epochs_per_iteration: 3,
        batch_size: 24,
        ..AdqConfig::paper_default()
    })
    .run(&mut model, &train, &test);
    println!(
        "trained mixed-precision model: bits {:?}",
        outcome
            .final_bits()
            .iter()
            .map(|b| b.map_or(32, |b| b.get()))
            .collect::<Vec<_>>()
    );

    // float (fake-quantized) reference
    let float_logits = model.forward(&test.images, false);
    let float_acc = accuracy(&float_logits, &test.labels);

    // integer engine, activation ranges calibrated on the training images
    let compiled = CompiledVgg::compile(&model, &train.images, CompileOptions::default())?;
    let int_logits = compiled.run(&test.images);
    let int_acc = accuracy(&int_logits, &test.labels);
    let agreement = (0..test.len())
        .filter(|&i| int_logits.index_axis0(i).argmax() == float_logits.index_axis0(i).argmax())
        .count() as f64
        / test.len() as f64;

    println!("\nfloat (fake-quant) accuracy : {:.1}%", 100.0 * float_acc);
    println!("integer (compiled) accuracy : {:.1}%", 100.0 * int_acc);
    println!("classification agreement    : {:.1}%", 100.0 * agreement);

    // Table-I MAC count at the trained precisions × Table-IV energy/MAC
    let spec = network_spec_from_stats("deployed", &model.layer_stats(), BitWidth::SIXTEEN);
    let report = NetworkEnergyReport::new(
        "deployed",
        pim_mappings_from_spec(&spec),
        &PimEnergyModel::paper_table4(),
    );
    println!("\naccelerator cost of one image:");
    println!("  MACs    : {}", spec.mac_count());
    println!("  energy  : {:.6} µJ (Table IV model)", report.total_uj());
    println!(
        "  per-layer precisions: {:?}",
        compiled
            .precisions()
            .iter()
            .map(|p| p.bits())
            .collect::<Vec<_>>()
    );
    Ok(())
}
