//! The checkpoint subsystem's headline guarantee: an Algorithm-1 run killed
//! after iteration *i* and resumed from its checkpoint produces an
//! [`AdqOutcome`] identical to the uninterrupted run — same records, same
//! bit-widths, same training complexity — and corrupted or truncated
//! checkpoint files are rejected with a typed error, never silently loaded.

use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

use adq_core::checkpoint::{CheckpointError, CheckpointManager, RunCheckpoint};
use adq_core::{AdQuantizer, AdqConfig, AdqOutcome};
use adq_datasets::SyntheticSpec;
use adq_nn::train::Dataset;
use adq_nn::{QuantModel, Vgg};
use adq_telemetry::{MemorySink, NullSink};

fn scratch_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("target/ckpt-tests")
        .join(format!("{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn task() -> (Dataset, Dataset) {
    SyntheticSpec::cifar10_like()
        .with_classes(4)
        .with_resolution(8)
        .with_samples(12, 6)
        .generate()
}

fn config() -> AdqConfig {
    // enough iterations that at least one checkpoint is written
    let mut cfg = AdqConfig::fast();
    cfg.max_iterations = 3;
    cfg.seed = 5;
    cfg
}

fn model() -> Vgg {
    Vgg::tiny(3, 8, 4, 41)
}

/// Runs to completion with checkpointing, then simulates a crash by
/// re-running from each saved checkpoint on a fresh model, asserting the
/// resumed outcome is identical to the uninterrupted one.
fn assert_resume_identical(cfg: AdqConfig, build: impl Fn() -> Vgg, name: &str) {
    let (train, test) = task();
    let dir = scratch_dir(name);
    let manager = CheckpointManager::new(&dir).expect("manager");
    let controller = AdQuantizer::new(cfg);

    let mut uninterrupted = build();
    let expected: AdqOutcome = controller
        .run_checkpointed(&mut uninterrupted, &train, &test, &NullSink, &manager)
        .expect("checkpointed run");

    // collect every checkpoint the run left behind
    let mut paths: Vec<PathBuf> = fs::read_dir(&dir)
        .expect("read dir")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "ckpt"))
        .collect();
    paths.sort();
    assert!(
        !paths.is_empty(),
        "run wrote no checkpoints — max_iterations too low for the test"
    );

    // "kill" the process after each checkpoint in turn and resume
    for path in paths {
        let checkpoint = RunCheckpoint::load(&path).expect("load checkpoint");
        let mut resumed_model = build();
        let resumed = controller
            .resume_from(
                &mut resumed_model,
                &train,
                &test,
                &NullSink,
                checkpoint,
                None,
            )
            .expect("resume");
        assert_eq!(
            resumed,
            expected,
            "resume from {} diverged from the uninterrupted run",
            path.display()
        );
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn resumed_run_matches_uninterrupted_run() {
    assert_resume_identical(config(), model, "identical");
}

#[test]
fn resumed_run_matches_with_pruning_and_removal() {
    // structural edits (pruning) must replay exactly on the fresh model
    let cfg = config().with_pruning();
    assert_resume_identical(cfg, model, "identical-pruned");
}

#[test]
fn checkpointing_does_not_change_the_outcome() {
    let (train, test) = task();
    let dir = scratch_dir("observation-only");
    let manager = CheckpointManager::new(&dir).expect("manager");
    let controller = AdQuantizer::new(config());

    let mut plain_model = model();
    let plain = controller.run(&mut plain_model, &train, &test);
    let mut ckpt_model = model();
    let checkpointed = controller
        .run_checkpointed(&mut ckpt_model, &train, &test, &NullSink, &manager)
        .expect("checkpointed run");
    assert_eq!(plain, checkpointed);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn truncated_checkpoint_is_rejected_not_loaded() {
    let (train, test) = task();
    let dir = scratch_dir("truncated");
    let manager = CheckpointManager::new(&dir).expect("manager");
    let controller = AdQuantizer::new(config());
    controller
        .run_checkpointed(&mut model(), &train, &test, &NullSink, &manager)
        .expect("checkpointed run");

    let latest = manager.latest().expect("scan").expect("has checkpoint");
    let raw = fs::read(&latest).expect("read");
    fs::write(&latest, &raw[..raw.len() / 2]).expect("truncate");
    match manager.load_latest() {
        Err(CheckpointError::ChecksumMismatch { .. }) => {}
        other => panic!("truncated checkpoint must fail checksum, got {other:?}"),
    }

    // a corrupted payload byte is equally fatal
    let mut raw_bad = raw.clone();
    let last = raw_bad.len() - 1;
    raw_bad[last] ^= 0x01;
    fs::write(&latest, &raw_bad).expect("corrupt");
    assert!(matches!(
        manager.load_latest(),
        Err(CheckpointError::ChecksumMismatch { .. })
    ));

    // and an intact file still loads
    fs::write(&latest, &raw).expect("restore");
    assert!(manager.load_latest().expect("load").is_some());
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn resume_under_different_config_is_rejected() {
    let (train, test) = task();
    let dir = scratch_dir("config-mismatch");
    let manager = CheckpointManager::new(&dir).expect("manager");
    AdQuantizer::new(config())
        .run_checkpointed(&mut model(), &train, &test, &NullSink, &manager)
        .expect("checkpointed run");
    let checkpoint = manager.load_latest().expect("load").expect("present");

    let mut other_cfg = config();
    other_cfg.seed = 999;
    let result = AdQuantizer::new(other_cfg).resume_from(
        &mut model(),
        &train,
        &test,
        &NullSink,
        checkpoint,
        None,
    );
    assert!(matches!(result, Err(CheckpointError::ConfigMismatch(_))));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn resume_onto_wrong_model_is_rejected() {
    let (train, test) = task();
    let dir = scratch_dir("model-mismatch");
    let manager = CheckpointManager::new(&dir).expect("manager");
    let controller = AdQuantizer::new(config());
    controller
        .run_checkpointed(&mut model(), &train, &test, &NullSink, &manager)
        .expect("checkpointed run");
    let checkpoint = manager.load_latest().expect("load").expect("present");

    // a different architecture cannot host the checkpointed state
    let mut wrong = Vgg::small(3, 8, 4, 41);
    assert_ne!(wrong.layer_count(), model().layer_count());
    let result = controller.resume_from(&mut wrong, &train, &test, &NullSink, checkpoint, None);
    assert!(matches!(result, Err(CheckpointError::ModelMismatch(_))));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn checkpoint_and_resume_events_are_emitted() {
    let (train, test) = task();
    let dir = scratch_dir("events");
    let manager = CheckpointManager::new(&dir).expect("manager");
    let controller = AdQuantizer::new(config());

    let save_sink = Arc::new(MemorySink::new());
    controller
        .run_checkpointed(&mut model(), &train, &test, save_sink.as_ref(), &manager)
        .expect("checkpointed run");
    let kinds: Vec<&str> = save_sink.events().iter().map(|e| e.kind()).collect();
    assert!(
        kinds.contains(&"CheckpointSaved"),
        "no CheckpointSaved in {kinds:?}"
    );

    let checkpoint = manager.load_latest().expect("load").expect("present");
    let resume_sink = Arc::new(MemorySink::new());
    controller
        .resume_from(
            &mut model(),
            &train,
            &test,
            resume_sink.as_ref(),
            checkpoint,
            None,
        )
        .expect("resume");
    let kinds: Vec<&str> = resume_sink.events().iter().map(|e| e.kind()).collect();
    assert!(kinds.contains(&"RunResumed"), "no RunResumed in {kinds:?}");
    assert!(
        !kinds.contains(&"RunStarted"),
        "resume must not re-emit RunStarted: {kinds:?}"
    );
    // the latest checkpoint is the one the run wrote when it stopped:
    // resuming from it trains nothing
    assert!(
        !kinds.contains(&"EpochCompleted"),
        "resuming from the final checkpoint trained again: {kinds:?}"
    );
    let _ = fs::remove_dir_all(&dir);
}
