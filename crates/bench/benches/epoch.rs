//! Epoch-level benchmark for the trainer Algorithm 1 runs: one full
//! training epoch (shuffle, forward/backward, optimizer step) at 1/2/4/8
//! worker threads, which the kernels split their larger products over.
//!
//! The `epoch_vgg`/`epoch_resnet` rows train the tiny models on 8×8
//! images at batch 16, where no conv product is large enough to fan out.
//! The `epoch_vgg_table2`/`epoch_resnet_small` rows train the two models
//! the `train` benchmark workload runs — the Table-II dynamic VGG and
//! `ResNet::small` — at its shapes: 16×16 images, batch 24, on 1 and 2
//! workers.
//!
//! Thread counts are pinned with `rayon::set_thread_override`, so the
//! measured scaling reflects the machine the bench runs on: on a single
//! hardware core all counts collapse to the same serial schedule and the
//! figures document that floor rather than a fan-out speedup.

use adq_datasets::SyntheticSpec;
use adq_nn::train::{train_epoch, Dataset};
use adq_nn::{Adam, QuantModel, ResNet, Vgg, VggItem};
use adq_tensor::init;
use criterion::{black_box, criterion_group, criterion_main, Criterion};

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const BATCH: usize = 16;

/// The `train` workload's batch and its worker counts (one, and the two
/// it runs on).
const TRAIN_BATCH: usize = 24;
const TRAIN_THREADS: [usize; 2] = [1, 2];

/// The Table-II dynamic VGG the `train` workload runs (no batch-norm),
/// copied rather than imported so this bench keeps its shapes.
const TABLE2_VGG: [VggItem; 8] = [
    VggItem::Conv(16),
    VggItem::Conv(16),
    VggItem::Pool,
    VggItem::Conv(32),
    VggItem::Conv(32),
    VggItem::Pool,
    VggItem::Conv(64),
    VggItem::Pool,
];

fn bench_task() -> Dataset {
    let (train, _) = SyntheticSpec::cifar10_like()
        .with_classes(4)
        .with_resolution(8)
        .with_samples(32, 4)
        .generate();
    train
}

/// Five batches of 16×16 images, 12 of each of 10 classes.
fn train_shaped_task() -> Dataset {
    let (train, _) = SyntheticSpec::cifar10_like()
        .with_resolution(16)
        .with_samples(12, 1)
        .generate();
    train
}

fn bench_epoch_for(c: &mut Criterion, name: &str, build: &dyn Fn() -> Box<dyn QuantModel>) {
    bench_epochs(c, name, &bench_task(), BATCH, &THREAD_COUNTS, build);
}

fn bench_epochs(
    c: &mut Criterion,
    name: &str,
    data: &Dataset,
    batch: usize,
    thread_counts: &[usize],
    build: &dyn Fn() -> Box<dyn QuantModel>,
) {
    let mut group = c.benchmark_group(name);
    group.sample_size(10);
    for &threads in thread_counts {
        rayon::set_thread_override(Some(threads));
        let mut model = build();
        let mut optimizer = Adam::new(1e-3);
        let mut rng = init::rng(7);
        group.bench_function(format!("t{threads}"), |b| {
            b.iter(|| {
                black_box(train_epoch(
                    model.as_mut(),
                    data,
                    &mut optimizer,
                    batch,
                    &mut rng,
                ))
            })
        });
    }
    rayon::set_thread_override(None);
    group.finish();
}

fn bench_epoch_vgg(c: &mut Criterion) {
    bench_epoch_for(c, "epoch_vgg", &|| Box::new(Vgg::tiny(3, 8, 4, 21)));
}

fn bench_epoch_resnet(c: &mut Criterion) {
    bench_epoch_for(c, "epoch_resnet", &|| Box::new(ResNet::tiny(3, 8, 4, 22)));
}

fn bench_epoch_vgg_table2(c: &mut Criterion) {
    bench_epochs(
        c,
        "epoch_vgg_table2",
        &train_shaped_task(),
        TRAIN_BATCH,
        &TRAIN_THREADS,
        &|| Box::new(Vgg::from_config(3, 16, 10, &TABLE2_VGG, false, 23)),
    );
}

fn bench_epoch_resnet_small(c: &mut Criterion) {
    bench_epochs(
        c,
        "epoch_resnet_small",
        &train_shaped_task(),
        TRAIN_BATCH,
        &TRAIN_THREADS,
        &|| Box::new(ResNet::small(3, 16, 10, 24)),
    );
}

criterion_group!(
    benches,
    bench_epoch_vgg,
    bench_epoch_resnet,
    bench_epoch_vgg_table2,
    bench_epoch_resnet_small
);
criterion_main!(benches);
