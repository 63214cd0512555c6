//! Serving a *trained* artifact: checkpoint → restore → integer engine →
//! wire protocol, golden-tested against the trained model.
//!
//! `CheckpointManager` persists a training run, and the last checkpoint a
//! run writes holds the model it ends with; `restore_model` rebuilds that
//! network (structural edits, bit-widths, params, norm stats) onto a
//! fresh instance; `CompiledNet` lowers it to packed integer kernels; and
//! `serve::Server` answers requests over TCP. The first test drives that
//! pipeline in-process: the restored model must equal the trained one bit
//! for bit, the served logits must equal a lowering of the trained model
//! bit for bit, and they must pick the float model's class on every
//! evaluation sample. The second runs the `adq-serve` binary itself with
//! `--checkpoint`, proving the CLI restore path serves exactly what a
//! library-side compile of the trained model computes. Both run on a tiny
//! VGG and a tiny ResNet.

use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

use adq::core::checkpoint::{restore_model, CheckpointManager};
use adq::core::{AdQuantizer, AdqConfig};
use adq::datasets::SyntheticSpec;
use adq::infer::compile::Graph;
use adq::infer::serve::{Client, ServeConfig, ServeModel, Server};
use adq::infer::{CompileOptions, CompiledNet};
use adq::nn::train::{export_params, Dataset};
use adq::nn::{QuantModel, ResNet, Vgg};
use adq::quant::BitWidth;
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

fn argmax(row: &[f32]) -> usize {
    row.iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(j, _)| j)
        .expect("non-empty row")
}

fn argmax_rows(logits: &Tensor) -> Vec<usize> {
    let classes = logits.dims()[1];
    logits.data().chunks(classes).map(argmax).collect()
}

fn to_bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Everything a checkpoint restores, as raw bits: parameter shapes and
/// values, batch-norm running statistics, per-layer bit-widths.
type ModelBits = (
    Vec<(Vec<usize>, Vec<u32>)>,
    Vec<(Vec<u32>, Vec<u32>)>,
    Vec<Option<BitWidth>>,
);

fn model_bits(model: &mut dyn QuantModel) -> ModelBits {
    let params = export_params(model)
        .iter()
        .map(|t| (t.dims().to_vec(), to_bits(t.data())))
        .collect();
    let norm_stats = model
        .norm_stats()
        .iter()
        .map(|(mean, var)| (to_bits(mean), to_bits(var)))
        .collect();
    let bits = (0..model.layer_count()).map(|i| model.bits_of(i)).collect();
    (params, norm_stats, bits)
}

/// Trains a tiny run of the model `build(seed)` builds, with
/// checkpointing enabled, and returns the trained model, the datasets,
/// and the checkpoint directory.
fn checkpointed_task<M: QuantModel>(
    name: &str,
    build: fn(u64) -> M,
) -> (M, Dataset, Dataset, PathBuf) {
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
    let mut model = build(21);
    AdQuantizer::new(config)
        .run_checkpointed(&mut model, &train, &test, &NullSink, &manager)
        .expect("checkpointed training run");
    (model, train, test, dir)
}

fn tiny_vgg(seed: u64) -> Vgg {
    Vgg::tiny(3, 8, 4, seed)
}

fn tiny_resnet(seed: u64) -> ResNet {
    ResNet::tiny(3, 8, 4, seed)
}

/// checkpoint → `restore_model` → compile → serve: the restored model is
/// the trained one bit for bit, the logits coming back over the wire
/// equal a lowering of the trained model bit for bit, and they pick the
/// same class as the trained model's float forward pass on every eval
/// sample.
fn assert_served_checkpoint_is_the_trained_model<M>(name: &str, build: fn(u64) -> M)
where
    M: QuantModel + Clone,
    for<'a> &'a M: Into<Graph<'a>>,
{
    let (mut trained, train, test, dir) = checkpointed_task(name, build);

    // the serving side never sees `trained` — only the checkpoint
    let ckpt = CheckpointManager::new(&dir)
        .expect("manager")
        .load_latest()
        .expect("readable checkpoint")
        .expect("training wrote at least one checkpoint");
    let mut restored = build(0); // construction seed is irrelevant
    restore_model(&mut restored, &ckpt).expect("checkpoint restores onto a fresh model");
    assert!(
        model_bits(&mut restored) == model_bits(&mut trained),
        "{name}: the restored model's params, norm stats or bits differ from the trained model's"
    );

    let compiled = Arc::new(
        CompiledNet::compile(&restored, &train.images, CompileOptions::default())
            .expect("restored model lowers"),
    );
    let direct = CompiledNet::compile(&trained, &train.images, CompileOptions::default())
        .expect("trained model lowers")
        .run(&test.images);
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
        assert_eq!(
            to_bits(&logits),
            to_bits(&direct.data()[i * classes..(i + 1) * classes]),
            "{name}: served logits differ from the trained model's lowering on sample {i}"
        );
        got.push(argmax(&logits));
    }
    server.shutdown();

    let agree = want.iter().zip(&got).filter(|(a, b)| a == b).count();
    assert_eq!(
        agree,
        test.len(),
        "{name}: served checkpoint disagreed with the float model on {} of {} eval samples \
         (float {want:?} vs served {got:?})",
        test.len() - agree,
        test.len()
    );

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn served_checkpoint_matches_deploy_golden_argmax() {
    assert_served_checkpoint_is_the_trained_model("golden-vgg", tiny_vgg);
    assert_served_checkpoint_is_the_trained_model("golden-resnet", tiny_resnet);
}

/// The `adq-serve` binary's `--checkpoint --model <model> --arch tiny`
/// path must serve exactly what a library-side compile of the trained
/// model computes with the same seeded calibration — the CLI adds flag
/// plumbing, not a different numeric path.
fn assert_binary_serves_the_trained_model<M>(name: &str, model_flag: &str, build: fn(u64) -> M)
where
    M: QuantModel + Clone,
    for<'a> &'a M: Into<Graph<'a>>,
{
    let (trained, _train, test, dir) = checkpointed_task(name, build);

    // reference lowering with the exact calibration the binary derives
    // from its flags (seed 0, batch 16)
    let mut rng = init::rng(0xCA11B8A7E); // --calib-seed 0 ^ the binary's mix constant
    let calibration = init::normal(&[16, 3, 8, 8], 0.0, 1.0, &mut rng);
    let reference = CompiledNet::compile(&trained, &calibration, CompileOptions::default())
        .expect("trained model lowers");

    let port_file = dir.join("port");
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_adq-serve"))
        .args([
            "serve",
            "--checkpoint",
            dir.to_str().expect("utf-8 dir"),
            "--model",
            model_flag,
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
    let Some(addr) = addr else {
        let _ = child.kill();
        let _ = child.wait();
        panic!("{name}: server never wrote its bound address");
    };

    let run = || -> std::io::Result<()> {
        let mut client = Client::connect(addr)?;
        let input_len = reference.input_len();
        let classes = reference.classes();
        let direct = reference.run(&test.images);
        let want = argmax_rows(&trained.clone().forward(&test.images, false));
        for (i, &want_class) in want.iter().enumerate() {
            let row = &test.images.data()[i * input_len..(i + 1) * input_len];
            let logits = client
                .infer(row)?
                .into_result()
                .expect("request answered, not refused");
            // bit-identical to the reference lowering of the trained model
            assert_eq!(
                to_bits(&logits),
                to_bits(&direct.data()[i * classes..(i + 1) * classes]),
                "{name}: binary served different logits than the reference compile for sample {i}"
            );
            assert_eq!(
                argmax(&logits),
                want_class,
                "{name}: served argmax disagreed with the float model on eval sample {i}"
            );
        }
        client.shutdown_server()?;
        Ok(())
    };
    // make sure the child cannot outlive the test whatever happened
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run));
    let status = match result {
        Ok(Ok(())) => child.wait().expect("server exits after shutdown"),
        Ok(Err(e)) => {
            let _ = child.kill();
            let _ = child.wait();
            panic!("{name}: wire session failed: {e}");
        }
        Err(panic) => {
            let _ = child.kill();
            let _ = child.wait();
            std::panic::resume_unwind(panic);
        }
    };
    assert!(status.success(), "{name}: adq-serve exited with {status}");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn serve_binary_checkpoint_flag_serves_the_trained_artifact() {
    assert_binary_serves_the_trained_model("binary-vgg", "vgg", tiny_vgg);
    assert_binary_serves_the_trained_model("binary-resnet", "resnet", tiny_resnet);
}
