//! Epoch-level benchmark for the trainer Algorithm 1 runs: one full
//! training epoch (shuffle, forward/backward, optimizer step) at 1/2/4/8
//! worker threads, which the kernels split their larger products over.
//!
//! Thread counts are pinned with `rayon::set_thread_override`, so the
//! measured scaling reflects the machine the bench runs on: on a single
//! hardware core all counts collapse to the same serial schedule and the
//! figures document that floor rather than a fan-out speedup.

use adq_datasets::SyntheticSpec;
use adq_nn::train::{train_epoch, Dataset};
use adq_nn::{Adam, QuantModel, ResNet, Vgg};
use adq_tensor::init;
use criterion::{black_box, criterion_group, criterion_main, Criterion};

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const BATCH: usize = 16;

fn bench_task() -> Dataset {
    let (train, _) = SyntheticSpec::cifar10_like()
        .with_classes(4)
        .with_resolution(8)
        .with_samples(32, 4)
        .generate();
    train
}

fn bench_epoch_for(c: &mut Criterion, name: &str, build: &dyn Fn() -> Box<dyn QuantModel>) {
    let data = bench_task();
    let mut group = c.benchmark_group(name);
    group.sample_size(10);
    for threads in THREAD_COUNTS {
        rayon::set_thread_override(Some(threads));
        let mut model = build();
        let mut optimizer = Adam::new(1e-3);
        let mut rng = init::rng(7);
        group.bench_function(format!("t{threads}"), |b| {
            b.iter(|| {
                black_box(train_epoch(
                    model.as_mut(),
                    &data,
                    &mut optimizer,
                    BATCH,
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

criterion_group!(benches, bench_epoch_vgg, bench_epoch_resnet);
criterion_main!(benches);
