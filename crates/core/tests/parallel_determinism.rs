//! End-to-end determinism contract of training with kernels that split
//! their products over the worker pool: a full Algorithm-1 run produces
//! bit-identical outcomes — and bit-identical checkpoint files — whatever
//! the worker-thread count, and resume refuses a checkpoint written by
//! the former microbatch trainer.

use std::fs;
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, PoisonError};

use adq_core::checkpoint::{CheckpointError, CheckpointManager};
use adq_core::{AdQuantizer, AdqConfig, AdqOutcome};
use adq_datasets::SyntheticSpec;
use adq_nn::train::Dataset;
use adq_nn::Vgg;
use adq_telemetry::{MemorySink, NullSink, TelemetryEvent};

/// `rayon::set_thread_override` is process-global, so tests that flip it
/// must not interleave.
static THREAD_OVERRIDE: Mutex<()> = Mutex::new(());

/// Takes [`THREAD_OVERRIDE`]. A test that failed while holding it
/// poisons the mutex and may have left the override set; taking the
/// guard anyway and clearing the override keeps each test's result its
/// own.
fn override_guard() -> MutexGuard<'static, ()> {
    let guard = THREAD_OVERRIDE
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    rayon::set_thread_override(None);
    guard
}

fn tiny_task() -> (Dataset, Dataset) {
    SyntheticSpec::cifar10_like()
        .with_classes(4)
        .with_resolution(8)
        .with_samples(8, 4)
        .generate()
}

/// 16×16 images in one batch of 32: the tiny VGG's second and third
/// convolutions run products above the GEMM's parallel tile threshold.
fn fan_out_task() -> (Dataset, Dataset) {
    SyntheticSpec::cifar10_like()
        .with_classes(4)
        .with_resolution(16)
        .with_samples(32, 8)
        .generate()
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("adq-parallel-e2e-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// One checkpointed run under a fixed worker count; returns the outcome
/// plus the raw bytes of every checkpoint file written.
fn run_with_threads(threads: usize, tag: &str) -> (AdqOutcome, Vec<(String, Vec<u8>)>) {
    let (train, test) = fan_out_task();
    let mut model = Vgg::tiny(3, 16, 4, 11);
    let dir = scratch_dir(tag);
    let manager = CheckpointManager::new(&dir).expect("manager");
    let grids = adq_telemetry::metrics::global().counter("tensor.gemm.par_grids");
    let before = grids.get();

    rayon::set_thread_override(Some(threads));
    let outcome = AdQuantizer::new(AdqConfig::fast())
        .run_checkpointed(&mut model, &train, &test, &NullSink, &manager)
        .expect("checkpointed run");
    rayon::set_thread_override(None);
    assert!(grids.get() > before, "no tile grid fanned out");

    let mut files: Vec<(String, Vec<u8>)> = fs::read_dir(&dir)
        .expect("read checkpoint dir")
        .map(|e| {
            let path = e.expect("dir entry").path();
            let name = path
                .file_name()
                .expect("file name")
                .to_string_lossy()
                .into_owned();
            (name, fs::read(&path).expect("read checkpoint"))
        })
        .collect();
    files.sort_by(|a, b| a.0.cmp(&b.0));
    let _ = fs::remove_dir_all(&dir);
    (outcome, files)
}

#[test]
fn outcome_and_checkpoints_are_bit_identical_across_thread_counts() {
    let _guard = override_guard();

    let (serial, serial_files) = run_with_threads(1, "t1");
    let (wide, wide_files) = run_with_threads(4, "t4");

    assert_eq!(
        serde_json::to_string(&serial).expect("serialise"),
        serde_json::to_string(&wide).expect("serialise"),
        "AdqOutcome differs between 1 and 4 worker threads"
    );

    assert!(
        !serial_files.is_empty(),
        "run wrote no checkpoints; the byte comparison below would be vacuous"
    );
    assert_eq!(
        serial_files.len(),
        wide_files.len(),
        "runs wrote different numbers of checkpoint files"
    );
    for ((name_a, bytes_a), (name_b, bytes_b)) in serial_files.iter().zip(&wide_files) {
        assert_eq!(name_a, name_b, "checkpoint file names diverged");
        assert_eq!(
            bytes_a, bytes_b,
            "checkpoint {name_a} is not byte-identical across thread counts"
        );
    }
}

#[test]
fn resume_refuses_a_checkpoint_taken_under_a_microbatch() {
    let _guard = override_guard();

    let (train, test) = tiny_task();
    let dir = scratch_dir("mismatch");
    let manager = CheckpointManager::new(&dir).expect("manager");

    let mut model = Vgg::tiny(3, 8, 4, 12);
    AdQuantizer::new(AdqConfig::fast())
        .run_checkpointed(&mut model, &train, &test, &NullSink, &manager)
        .expect("checkpointed run");
    let mut checkpoint = manager
        .load_latest()
        .expect("scan")
        .expect("run saved at least one checkpoint");
    assert_eq!(
        checkpoint.microbatch, None,
        "serial runs write no microbatch"
    );

    // a run of the former microbatch trainer: continuing it serially
    // would splice two different trajectories, so resume must refuse
    checkpoint.microbatch = Some(3);
    let mut fresh = Vgg::tiny(3, 8, 4, 12);
    let err = AdQuantizer::new(AdqConfig::fast())
        .resume_from(&mut fresh, &train, &test, &NullSink, checkpoint, None)
        .expect_err("a microbatch checkpoint must be rejected");
    assert!(
        matches!(err, CheckpointError::ConfigMismatch(ref msg) if msg.contains("microbatch")),
        "unexpected error: {err:?}"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn run_reports_its_worker_pool() {
    let _guard = override_guard();

    let (train, test) = tiny_task();
    let mut model = Vgg::tiny(3, 8, 4, 13);
    let sink = MemorySink::new();
    AdQuantizer::new(AdqConfig::fast()).run_with_sink(&mut model, &train, &test, &sink);

    let pools: Vec<usize> = sink
        .events()
        .into_iter()
        .filter_map(|e| match e {
            TelemetryEvent::WorkerPoolConfigured { threads } => Some(threads),
            _ => None,
        })
        .collect();
    assert_eq!(pools.len(), 1, "expected exactly one pool event");
    assert!(pools[0] >= 1);
}
