//! `adq` — command-line front-end for the workspace.
//!
//! ```text
//! adq quantize [--model vgg|resnet] [--iters N] [--epochs N] [--prune]
//!              [--seed S] [--classes K] [--resolution R] [--noise X]
//!              [--save DIR]
//! adq eval     --load PATH [--model vgg|resnet] [--classes K]
//!              [--resolution R] [--noise X] [--seed S]
//! adq baseline [--bits B] [--epochs N] [--seed S]
//! adq energy   [--preset <name>]        # table2a-iter2, table2b-iter3, ...
//! adq deploy   [--seed S]               # train, lower to integer, compare
//! adq presets                           # list energy presets
//! adq help
//! ```
//!
//! `quantize --save DIR` checkpoints the run into `DIR`; its last file
//! holds the trained model. `eval --load PATH` restores that model (a
//! `.ckpt` file, or a directory's latest) onto a fresh `--model` built
//! for the dataset flags, which must be the ones the run trained with.
//! `adq-serve --checkpoint` serves the same files.
//!
//! Everything is seeded and deterministic; see README.md for the library
//! API behind each command.

use std::collections::HashMap;
use std::path::Path;
use std::process::ExitCode;

use adq::core::builders::{network_spec_from_stats, pim_mappings_from_spec};
use adq::core::checkpoint::{load_checkpoint, restore_model, CheckpointManager};
use adq::core::{paper, AdQuantizer, AdqConfig};
use adq::datasets::SyntheticSpec;
use adq::energy::{EnergyModel, NetworkSpec};
use adq::infer::{CompileOptions, CompiledNet};
use adq::nn::{accuracy, QuantModel, ResNet, Vgg};
use adq::pim::{NetworkEnergyReport, PimEnergyModel};
use adq::quant::BitWidth;
use adq::telemetry::NullSink;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        print_help();
        return ExitCode::FAILURE;
    };
    let flags = match parse_flags(rest) {
        Ok(flags) => flags,
        Err(err) => {
            eprintln!("error: {err}");
            return ExitCode::FAILURE;
        }
    };
    let result = match command.as_str() {
        "quantize" => cmd_quantize(&flags),
        "eval" => cmd_eval(&flags),
        "baseline" => cmd_baseline(&flags),
        "energy" => cmd_energy(&flags),
        "deploy" => cmd_deploy(&flags),
        "presets" => {
            list_presets();
            Ok(())
        }
        "help" | "--help" | "-h" => {
            print_help();
            Ok(())
        }
        other => Err(format!("unknown command `{other}` (try `adq help`)")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("error: {err}");
            ExitCode::FAILURE
        }
    }
}

type Flags = HashMap<String, String>;

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags::new();
    let mut iter = args.iter().peekable();
    while let Some(arg) = iter.next() {
        let Some(name) = arg.strip_prefix("--") else {
            return Err(format!("unexpected argument `{arg}`"));
        };
        // boolean flags take no value; everything else takes one
        if name == "prune" {
            flags.insert(name.to_string(), "true".to_string());
        } else {
            let value = iter
                .next()
                .ok_or_else(|| format!("flag --{name} needs a value"))?;
            flags.insert(name.to_string(), value.clone());
        }
    }
    Ok(flags)
}

fn get<T: std::str::FromStr>(flags: &Flags, name: &str, default: T) -> Result<T, String> {
    match flags.get(name) {
        Some(raw) => raw
            .parse()
            .map_err(|_| format!("invalid value `{raw}` for --{name}")),
        None => Ok(default),
    }
}

fn dataset(flags: &Flags) -> Result<(adq::nn::train::Dataset, adq::nn::train::Dataset), String> {
    let classes: usize = get(flags, "classes", 10)?;
    let resolution: usize = get(flags, "resolution", 16)?;
    let noise: f32 = get(flags, "noise", 0.6)?;
    let seed: u64 = get(flags, "seed", 0)?;
    if !resolution.is_multiple_of(8) {
        return Err("resolution must be a multiple of 8".to_string());
    }
    Ok(SyntheticSpec::cifar10_like()
        .with_classes(classes)
        .with_resolution(resolution)
        .with_samples(24, 8)
        .with_noise(noise)
        .with_seed(seed ^ 0xD5)
        .generate())
}

/// A freshly built `--model vgg|resnet` for the dataset's shape, the
/// architecture `quantize` trains and `eval` restores onto.
fn build_model(
    flags: &Flags,
    resolution: usize,
    classes: usize,
    seed: u64,
) -> Result<Box<dyn QuantModel>, String> {
    match get(flags, "model", "vgg".to_string())?.as_str() {
        "vgg" => Ok(Box::new(Vgg::small(3, resolution, classes, seed))),
        "resnet" => Ok(Box::new(ResNet::small(3, resolution, classes, seed))),
        other => Err(format!("unknown model `{other}` (vgg|resnet)")),
    }
}

fn cmd_eval(flags: &Flags) -> Result<(), String> {
    let path: String = get(flags, "load", String::new())?;
    if path.is_empty() {
        return Err("eval needs --load PATH".to_string());
    }
    let ckpt = load_checkpoint(Path::new(&path)).map_err(|e| format!("cannot load {path}: {e}"))?;
    let (train, test) = dataset(flags)?;
    let classes = train.labels.iter().copied().max().unwrap_or(0) + 1;
    let mut model = build_model(flags, train.images.dims()[2], classes, 0)?;
    restore_model(model.as_mut(), &ckpt).map_err(|e| {
        format!(
            "cannot restore {path} (pass the --model, --resolution and --classes \
             it was trained with): {e}"
        )
    })?;
    let logits = model.forward(&test.images, false);
    println!(
        "loaded {} ({} layers): test acc {:.1}% on {} samples",
        model.name(),
        ckpt.bits.len(),
        100.0 * accuracy(&logits, &test.labels),
        test.len()
    );
    Ok(())
}

fn cmd_quantize(flags: &Flags) -> Result<(), String> {
    let seed: u64 = get(flags, "seed", 0)?;
    let iters: usize = get(flags, "iters", 3)?;
    let epochs: usize = get(flags, "epochs", 6)?;
    let save_dir: String = get(flags, "save", String::new())?;
    let (train, test) = dataset(flags)?;
    let classes = train.labels.iter().copied().max().unwrap_or(0) + 1;
    let resolution = train.images.dims()[2];

    let mut config = AdqConfig {
        max_iterations: iters,
        max_epochs_per_iteration: epochs,
        min_epochs_per_iteration: (epochs / 2).max(2),
        batch_size: 24,
        seed,
        ..AdqConfig::paper_default()
    };
    if flags.contains_key("prune") {
        config = config.with_pruning();
    }
    let controller = AdQuantizer::new(config);

    let mut model = build_model(flags, resolution, classes, seed)?;
    let outcome = if save_dir.is_empty() {
        controller.run(model.as_mut(), &train, &test)
    } else {
        let manager = CheckpointManager::new(&save_dir)
            .map_err(|e| format!("cannot use {save_dir} for checkpoints: {e}"))?;
        // a stale run's later iterations would shadow this run's files
        if manager.latest().map_err(|e| e.to_string())?.is_some() {
            return Err(format!("{save_dir} already holds checkpoints"));
        }
        controller
            .run_checkpointed(model.as_mut(), &train, &test, &NullSink, &manager)
            .map_err(|e| format!("cannot checkpoint into {save_dir}: {e}"))?
    };
    println!("iter | epochs | total AD | test acc | MAC reduction | bits");
    for r in &outcome.iterations {
        let bits: Vec<String> = r
            .bits
            .iter()
            .map(|b| b.map_or("fp".into(), |b| b.get().to_string()))
            .collect();
        println!(
            "  {}  |   {:2}   |  {:.3}   |  {:5.1}%  |    {:5.2}x     | [{}]",
            r.iteration,
            r.epochs_trained,
            r.total_ad,
            100.0 * r.test_accuracy,
            r.mac_reduction,
            bits.join(",")
        );
    }
    println!(
        "training complexity: {:.3}x (vs {}-epoch baseline)",
        outcome.training_complexity, outcome.baseline_epochs
    );
    if !save_dir.is_empty() {
        println!("saved the trained model's checkpoint in {save_dir}");
    }
    Ok(())
}

fn cmd_baseline(flags: &Flags) -> Result<(), String> {
    let seed: u64 = get(flags, "seed", 0)?;
    let bits: u32 = get(flags, "bits", 16)?;
    let epochs: usize = get(flags, "epochs", 10)?;
    let (train, test) = dataset(flags)?;
    let classes = train.labels.iter().copied().max().unwrap_or(0) + 1;
    let resolution = train.images.dims()[2];
    let mut model = Vgg::small(3, resolution, classes, seed);
    let config = AdqConfig {
        initial_bits: BitWidth::new(bits).map_err(|e| e.to_string())?,
        batch_size: 24,
        seed,
        ..AdqConfig::paper_default()
    };
    let record = AdQuantizer::new(config).run_baseline(&mut model, &train, &test, epochs);
    println!(
        "baseline {}-bit, {} epochs: test acc {:.1}%, total AD {:.3}",
        bits,
        epochs,
        100.0 * record.test_accuracy,
        record.total_ad
    );
    for (epoch, ads) in record.ad_history.iter().enumerate() {
        let mean = ads.iter().sum::<f64>() / ads.len() as f64;
        println!(
            "  epoch {:2}: train acc {:.3}, mean AD {:.3}",
            epoch + 1,
            record.accuracy_history[epoch],
            mean
        );
    }
    Ok(())
}

fn presets() -> Vec<(&'static str, NetworkSpec, NetworkSpec)> {
    vec![
        (
            "table2a-iter2",
            paper::vgg19_spec(
                "q",
                32,
                10,
                &paper::TABLE2A_ITER2_BITS,
                &paper::VGG19_CHANNELS,
                &[],
            ),
            paper::vgg19_baseline(32, 10, 16),
        ),
        (
            "table2b-iter3",
            paper::resnet18_spec(
                "q",
                32,
                100,
                &paper::TABLE2B_ITER3_BITS,
                &paper::RESNET18_CHANNELS,
            ),
            paper::resnet18_baseline(32, 100, 16),
        ),
        (
            "table2c-iter4",
            paper::resnet18_spec(
                "q",
                64,
                200,
                &paper::TABLE2C_ITER4_BITS,
                &paper::RESNET18_CHANNELS,
            ),
            paper::resnet18_baseline(64, 200, 32),
        ),
        (
            "table3a-iter2",
            paper::vgg19_spec(
                "pq",
                32,
                10,
                &paper::TABLE3A_ITER2_BITS,
                &paper::TABLE3A_ITER2_CHANNELS,
                &[],
            ),
            paper::vgg19_baseline(32, 10, 16),
        ),
        (
            "table3b-iter3",
            paper::resnet18_spec(
                "pq",
                32,
                100,
                &paper::expand_bits18_to_26(&paper::TABLE3B_ITER3_BITS),
                &paper::TABLE3B_ITER3_CHANNELS,
            ),
            paper::resnet18_baseline(32, 100, 16),
        ),
    ]
}

fn list_presets() {
    println!("available --preset values:");
    for (name, _, _) in presets() {
        println!("  {name}");
    }
}

fn cmd_energy(flags: &Flags) -> Result<(), String> {
    let preset_name: String = get(flags, "preset", "table2a-iter2".to_string())?;
    let all = presets();
    let Some((name, quant, base)) = all.into_iter().find(|(n, _, _)| *n == preset_name) else {
        list_presets();
        return Err(format!("unknown preset `{preset_name}`"));
    };
    let analytical = EnergyModel::paper_45nm();
    let pim = PimEnergyModel::paper_table4();
    let quant_pim = NetworkEnergyReport::new("q", pim_mappings_from_spec(&quant), &pim);
    let base_pim = NetworkEnergyReport::new("b", pim_mappings_from_spec(&base), &pim);
    println!("preset {name}:");
    println!("  MACs                : {}", quant.mac_count());
    println!(
        "  analytical          : {:.4} uJ (baseline {:.4} uJ, {:.2}x)",
        quant.energy_uj(&analytical),
        base.energy_uj(&analytical),
        quant.efficiency_vs(&base, &analytical)
    );
    println!(
        "  PIM (Table IV)      : {:.4} uJ (baseline {:.4} uJ, {:.2}x)",
        quant_pim.total_uj(),
        base_pim.total_uj(),
        quant_pim.reduction_vs(&base_pim)
    );
    Ok(())
}

fn cmd_deploy(flags: &Flags) -> Result<(), String> {
    let seed: u64 = get(flags, "seed", 0)?;
    let (train, test) = dataset(flags)?;
    let classes = train.labels.iter().copied().max().unwrap_or(0) + 1;
    let resolution = train.images.dims()[2];
    let mut model = Vgg::small(3, resolution, classes, seed);
    let config = AdqConfig {
        max_iterations: 3,
        max_epochs_per_iteration: 6,
        min_epochs_per_iteration: 3,
        batch_size: 24,
        seed,
        ..AdqConfig::paper_default()
    };
    AdQuantizer::new(config).run(&mut model, &train, &test);
    let float_logits = model.forward(&test.images, false);
    let compiled = CompiledNet::compile(&model, &train.images, CompileOptions::default())
        .map_err(|e| e.to_string())?;
    let int_logits = compiled.run(&test.images);
    let agreement = (0..test.len())
        .filter(|&i| int_logits.index_axis0(i).argmax() == float_logits.index_axis0(i).argmax())
        .count() as f64
        / test.len() as f64;
    println!(
        "float acc {:.1}% | integer acc {:.1}% | agreement {:.1}%",
        100.0 * accuracy(&float_logits, &test.labels),
        100.0 * accuracy(&int_logits, &test.labels),
        100.0 * agreement
    );
    // one image's Table-I MAC count at the trained precisions, costed
    // per MAC by Table IV and by the analytical 45nm model
    let spec = network_spec_from_stats("deployed", &model.layer_stats(), BitWidth::SIXTEEN);
    let pim = PimEnergyModel::paper_table4();
    let report = NetworkEnergyReport::new("deployed", pim_mappings_from_spec(&spec), &pim);
    println!(
        "accelerator, one image: {} MACs, {:.6} µJ (Table IV), precisions {:?}",
        spec.mac_count(),
        report.total_uj(),
        compiled
            .precisions()
            .iter()
            .map(|p| p.bits())
            .collect::<Vec<_>>()
    );
    println!(
        "analytical estimate for one image: {:.6} µJ",
        spec.energy_uj(&EnergyModel::paper_45nm())
    );
    Ok(())
}

fn print_help() {
    println!(
        "adq — Activation-Density based mixed-precision quantization (DATE 2021 reproduction)\n\
         \n\
         usage: adq <command> [flags]\n\
         \n\
         commands:\n\
         \x20 quantize   run Algorithm 1 on a synthetic task\n\
         \x20            --model vgg|resnet  --iters N  --epochs N  --prune\n\
         \x20            --classes K  --resolution R  --noise X  --seed S\n\
         \x20            --save DIR   (checkpoint the run; the last file is the model)\n\
         \x20 eval       evaluate a saved model: --load FILE.ckpt|DIR  --model vgg|resnet\n\
         \x20            with the --classes/--resolution/--noise/--seed it trained with\n\
         \x20 baseline   train a uniform-precision baseline and print AD trends\n\
         \x20            --bits B  --epochs N  --seed S\n\
         \x20 energy     analytical + PIM energy of a published operating point\n\
         \x20            --preset <name>   (see `adq presets`)\n\
         \x20 deploy     train, lower to the integer datapath, compare accuracy\n\
         \x20 presets    list energy presets\n\
         \x20 help       this message"
    );
}
