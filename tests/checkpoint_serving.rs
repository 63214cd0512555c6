//! Serving a *trained* artifact: checkpoint → restore → integer engine →
//! wire protocol, golden-tested against the float model.
//!
//! PR-2's `CheckpointManager` persists a training run; `restore_model`
//! rebuilds the trained network (structural edits, bit-widths, params,
//! norm stats) onto a fresh instance; `CompiledVgg` lowers it to packed
//! integer kernels; and `serve::Server` answers requests over TCP. This
//! test drives that entire pipeline and asserts the served logits pick
//! the same class as the float model on every evaluation sample — the same
//! golden bar `tests/golden_equivalence.rs` sets for the in-process
//! engine. A second test runs the `adq-serve` binary itself with
//! `--checkpoint`, proving the CLI restore path lowers bit-identically
//! to a library-side compile of the same checkpoint.

use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

use adq::core::checkpoint::{restore_model, CheckpointManager};
use adq::core::{AdQuantizer, AdqConfig};
use adq::datasets::SyntheticSpec;
use adq::infer::serve::{Client, ServeConfig, ServeModel, Server};
use adq::infer::{CompileOptions, CompiledVgg};
use adq::nn::train::Dataset;
use adq::nn::{QuantModel, Vgg};
use adq::telemetry::NullSink;
use adq::tensor::{init, Tensor};

fn scratch_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("target/ckpt-serving-tests")
        .join(format!("{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

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

/// Trains a tiny run with checkpointing enabled and returns the trained
/// model, the datasets, and the checkpoint directory.
fn checkpointed_task(name: &str) -> (Vgg, Dataset, Dataset, PathBuf) {
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
    let dir = scratch_dir(name);
    let manager = CheckpointManager::new(&dir).expect("manager");
    let mut model = Vgg::tiny(3, 8, 4, 21);
    AdQuantizer::new(config)
        .run_checkpointed(&mut model, &train, &test, &NullSink, &manager)
        .expect("checkpointed training run");
    (model, train, test, dir)
}

/// checkpoint → `restore_model` → compile → serve: the logits coming
/// back over the wire must pick the same class as the float forward pass
/// of the originally trained model, for every eval sample.
#[test]
fn served_checkpoint_matches_deploy_golden_argmax() {
    let (trained, train, test, dir) = checkpointed_task("golden");

    // the serving side never sees `trained` — only the checkpoint
    let ckpt = CheckpointManager::new(&dir)
        .expect("manager")
        .load_latest()
        .expect("readable checkpoint")
        .expect("training wrote at least one checkpoint");
    let mut restored = Vgg::tiny(3, 8, 4, 0); // construction seed is irrelevant
    restore_model(&mut restored, &ckpt).expect("checkpoint restores onto a fresh tiny VGG");

    let compiled = Arc::new(
        CompiledVgg::compile(&restored, &train.images, CompileOptions::default())
            .expect("restored model lowers"),
    );
    let want = argmax_rows(&trained.clone().forward(&test.images, false));

    let mut server = Server::bind(
        "127.0.0.1:0",
        Arc::clone(&compiled) as Arc<dyn ServeModel>,
        ServeConfig {
            replicas: 2,
            ..ServeConfig::default()
        },
    )
    .expect("bind serving socket");
    let mut client = Client::connect(server.local_addr()).expect("connect");

    let input_len = compiled.input_len();
    let classes = compiled.classes();
    let mut got = Vec::with_capacity(test.len());
    for i in 0..test.len() {
        let row = &test.images.data()[i * input_len..(i + 1) * input_len];
        let logits = client
            .infer(row)
            .expect("request completes")
            .into_result()
            .expect("request is answered, not refused");
        assert_eq!(logits.len(), classes);
        got.push(
            logits
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map(|(j, _)| j)
                .expect("non-empty logits"),
        );
    }
    server.shutdown();

    let agree = want.iter().zip(&got).filter(|(a, b)| a == b).count();
    assert_eq!(
        agree,
        test.len(),
        "served checkpoint disagreed with the float model on {} of {} eval samples \
         (float {want:?} vs served {got:?})",
        test.len() - agree,
        test.len()
    );

    let _ = fs::remove_dir_all(&dir);
}

/// The `adq-serve` binary's `--checkpoint` path must lower the artifact
/// bit-identically to a library-side compile of the same checkpoint with
/// the same seeded calibration — the CLI adds flag plumbing, not a
/// different numeric path.
#[test]
fn serve_binary_checkpoint_flag_serves_the_trained_artifact() {
    let (trained, _train, test, dir) = checkpointed_task("binary");

    // reference lowering: restore + compile in-process with the exact
    // calibration the binary derives from its flags (seed 0, batch 16)
    let ckpt = CheckpointManager::new(&dir)
        .expect("manager")
        .load_latest()
        .expect("readable checkpoint")
        .expect("training wrote at least one checkpoint");
    let mut restored = Vgg::tiny(3, 8, 4, 0);
    restore_model(&mut restored, &ckpt).expect("checkpoint restores");
    let mut rng = init::rng(0xCA11B8A7E); // --calib-seed 0 ^ the binary's mix constant
    let calibration = init::normal(&[16, 3, 8, 8], 0.0, 1.0, &mut rng);
    let reference = CompiledVgg::compile(&restored, &calibration, CompileOptions::default())
        .expect("restored model lowers");

    let port_file = dir.join("port");
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_adq-serve"))
        .args([
            "serve",
            "--checkpoint",
            dir.to_str().expect("utf-8 dir"),
            "--arch",
            "tiny",
            "--resolution",
            "8",
            "--classes",
            "4",
            "--addr",
            "127.0.0.1:0",
            "--port-file",
            port_file.to_str().expect("utf-8 path"),
        ])
        .stdout(std::process::Stdio::null())
        .spawn()
        .expect("spawn adq-serve");

    // same handshake as ci.sh: poll the port file
    let mut addr = None;
    for _ in 0..200 {
        if let Ok(contents) = fs::read_to_string(&port_file) {
            if let Ok(parsed) = contents.trim().parse::<std::net::SocketAddr>() {
                addr = Some(parsed);
                break;
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    let addr = addr.expect("server wrote its bound address");

    let run = || -> std::io::Result<()> {
        let mut client = Client::connect(addr)?;
        let input_len = reference.input_len();
        let classes = reference.classes();
        let direct = reference.run(&test.images);
        let want = argmax_rows(&trained.clone().forward(&test.images, false));
        for (i, &want_class) in want.iter().enumerate().take(test.len()) {
            let row = &test.images.data()[i * input_len..(i + 1) * input_len];
            let logits = client
                .infer(row)?
                .into_result()
                .expect("request answered, not refused");
            // bit-identical to the reference lowering of the same artifact
            assert_eq!(
                logits,
                &direct.data()[i * classes..(i + 1) * classes],
                "binary served different logits than the reference compile for sample {i}"
            );
            let got = logits
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map(|(j, _)| j)
                .expect("non-empty logits");
            assert_eq!(
                got, want_class,
                "served argmax disagreed with the float model on eval sample {i}"
            );
        }
        client.shutdown_server()?;
        Ok(())
    };
    let result = run();
    // make sure the child cannot outlive the test whatever happened
    let status = match result {
        Ok(()) => child.wait().expect("server exits after shutdown"),
        Err(e) => {
            let _ = child.kill();
            let _ = child.wait();
            panic!("wire session failed: {e}");
        }
    };
    assert!(status.success(), "adq-serve exited with {status}");
    let _ = fs::remove_dir_all(&dir);
}
