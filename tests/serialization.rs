//! Serde round-trips: experiment records and architecture specs are data
//! (C-SERDE) — users persist outcomes and reload them for analysis.

use adq::core::checkpoint::{load_checkpoint, StructuralOp};
use adq::core::{paper, AdQuantizer, AdqConfig, AdqOutcome, IterationRecord};
use adq::datasets::SyntheticSpec;
use adq::energy::NetworkSpec;
use adq::nn::Vgg;
use adq::quant::{BitWidth, HwPrecision, QuantRange, Quantizer};

fn small_outcome() -> AdqOutcome {
    let (train, test) = SyntheticSpec::cifar10_like()
        .with_classes(4)
        .with_resolution(8)
        .with_samples(8, 4)
        .generate();
    let mut model = Vgg::tiny(3, 8, 4, 1);
    let cfg = AdqConfig {
        max_iterations: 2,
        max_epochs_per_iteration: 2,
        min_epochs_per_iteration: 2,
        batch_size: 8,
        ..AdqConfig::fast()
    };
    AdQuantizer::new(cfg).run(&mut model, &train, &test)
}

#[test]
fn adq_outcome_roundtrips_through_json() {
    let outcome = small_outcome();
    let json = serde_json::to_string(&outcome).expect("serialise");
    let back: AdqOutcome = serde_json::from_str(&json).expect("deserialise");
    assert_eq!(outcome, back);
}

#[test]
fn iteration_record_roundtrips_through_json() {
    let outcome = small_outcome();
    let record = outcome.final_record();
    let json = serde_json::to_string(record).expect("serialise");
    let back: IterationRecord = serde_json::from_str(&json).expect("deserialise");
    assert_eq!(*record, back);
    // the nested structure survives, not just equality of the whole
    assert_eq!(back.ad_history.len(), record.epochs_trained);
    assert_eq!(back.bits, record.bits);
}

#[test]
fn network_spec_roundtrips_through_json() {
    let spec = paper::vgg19_spec(
        "vgg19-iter2",
        32,
        10,
        &paper::TABLE2A_ITER2_BITS,
        &paper::VGG19_CHANNELS,
        &[],
    );
    let json = serde_json::to_string(&spec).expect("serialise");
    let back: NetworkSpec = serde_json::from_str(&json).expect("deserialise");
    assert_eq!(spec, back);
    assert_eq!(back.mac_count(), spec.mac_count());
}

#[test]
fn bitwidth_serialises_as_number() {
    let bits = BitWidth::new(5).expect("valid");
    assert_eq!(serde_json::to_string(&bits).expect("serialise"), "5");
    let back: BitWidth = serde_json::from_str("5").expect("deserialise");
    assert_eq!(back, bits);
}

#[test]
fn bitwidth_rejects_invalid_json() {
    assert!(serde_json::from_str::<BitWidth>("0").is_err());
    assert!(serde_json::from_str::<BitWidth>("99").is_err());
}

#[test]
fn quantizer_roundtrips() {
    let q = Quantizer::new(
        BitWidth::new(4).expect("valid"),
        QuantRange::new(-2.5, 3.5).expect("valid"),
    );
    let json = serde_json::to_string(&q).expect("serialise");
    let back: Quantizer = serde_json::from_str(&json).expect("deserialise");
    assert_eq!(q, back);
    assert_eq!(q.quantize(1.234), back.quantize(1.234));
}

#[test]
fn hw_precision_roundtrips() {
    for p in HwPrecision::ALL {
        let json = serde_json::to_string(&p).expect("serialise");
        let back: HwPrecision = serde_json::from_str(&json).expect("deserialise");
        assert_eq!(p, back);
    }
}

#[test]
fn config_roundtrips() {
    let cfg = AdqConfig::paper_default().with_pruning();
    let json = serde_json::to_string(&cfg).expect("serialise");
    let back: AdqConfig = serde_json::from_str(&json).expect("deserialise");
    assert_eq!(cfg, back);
}

#[test]
fn pruned_model_saved_by_the_cli_loads_again() {
    let dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("target/cli-save-tests")
        .join(std::process::id().to_string());
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let save = dir.join("pruned");
    let path = save.to_str().expect("utf-8 path");
    let adq = |args: &[&str]| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_adq"))
            .args(args)
            .output()
            .expect("run adq");
        assert!(
            out.status.success(),
            "adq {args:?} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let task = ["--resolution", "8", "--classes", "4"];
    adq(&[
        &[
            "quantize", "--prune", "--iters", "2", "--epochs", "2", "--save", path,
        ],
        &task[..],
    ]
    .concat());
    let saved = load_checkpoint(&save).expect("the run's checkpoint loads");
    assert!(
        saved
            .structural_ops
            .iter()
            .any(|op| matches!(op, StructuralOp::Prune { .. })),
        "nothing was pruned: {:?}",
        saved.structural_ops
    );
    let eval = adq(&[&["eval", "--load", path], &task[..]].concat());
    assert!(eval.contains("test acc"), "{eval}");
    // the first run's later files would shadow a second run's in `path`
    let again = std::process::Command::new(env!("CARGO_BIN_EXE_adq"))
        .args([&["quantize", "--iters", "1", "--save", path], &task[..]].concat())
        .output()
        .expect("run adq");
    assert!(
        !again.status.success(),
        "quantize --save reused a directory that holds checkpoints"
    );
    std::fs::remove_dir_all(&dir).ok();
}
