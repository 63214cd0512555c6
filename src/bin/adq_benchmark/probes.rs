//! The traced run's per-layer numbers: each layer's public functions timed
//! from outside at the workload model's own shapes, the serving stages
//! from the access log, and the reconciliation of the parts against the
//! whole they make up.
//!
//! Every workload gets the same per-layer names. `train` probes the
//! Table-II VGG at Algorithm 1's starting precision (and serves it briefly
//! for the `serve.*` stages); the serving workloads probe the model they
//! serve, at its containers. A layer a workload never calls is still
//! probed at that workload's shapes, so a change to it shows in the
//! per-layer numbers while the workload's end-to-end metrics, by
//! prediction, do not move.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use adq::ad::DensityMeter;
use adq::core::builders::network_spec_from_stats;
use adq::energy::EnergyModel;
use adq::infer::qgemm::{qgemm, PackedMatrix};
use adq::infer::CompiledVgg;
use adq::nn::train::{evaluate, train_epoch_observed, Dataset};
use adq::nn::{softmax_cross_entropy, Adam, ConvBlock, MaxPool2d, QuantModel, Vgg};
use adq::quant::{BitWidth, QuantRange, Quantizer};
use adq::telemetry::lifecycle::{self, RequestRecord};
use adq::tensor::{im2col, init, matmul, Tensor};
use serde_json::{json, Value};

use crate::load::{self, SplitMix};
use crate::spans::Tracer;
use crate::stats;
use crate::workloads::{self, derive_seed, Serving, Workload, TRAIN_BATCH};

/// Largest share by which a sum of parts may miss its whole.
pub const RECONCILE_WITHIN: f64 = 0.15;
/// Fewest timed calls per probe.
const MIN_REPS: usize = 5;
/// Time spent repeating one probe beyond [`MIN_REPS`].
const PROBE_BUDGET: Duration = Duration::from_millis(30);
/// Answered requests the `serve.*` stages need (p99 with 10 beyond).
const SERVE_SAMPLES: usize = 1_000;
/// Access-log records turned into request spans in the Chrome trace.
const MAX_REQUEST_SPANS: usize = 2_000;

/// Everything the traced run measured.
pub struct Layers {
    /// Per-layer metrics by name, aggregate and per model layer.
    pub all: Vec<(String, f64)>,
    /// Whether both reconciliations held within [`RECONCILE_WITHIN`].
    pub reconciled: bool,
    pub detail: Vec<(String, Value)>,
}

/// Median of `sample()` (nanoseconds it measured) after one warm-up call.
fn median_ns(mut sample: impl FnMut() -> f64) -> f64 {
    sample();
    let mut samples = Vec::new();
    let started = Instant::now();
    while samples.len() < MIN_REPS || started.elapsed() < PROBE_BUDGET {
        samples.push(sample());
    }
    stats::median(&samples).expect("MIN_REPS > 0")
}

/// [`median_ns`] inside a `probe.<name>` span.
fn probe_with(tracer: &mut Tracer, name: &str, layer: &str, sample: impl FnMut() -> f64) -> f64 {
    let span = tracer.begin(&format!("probe.{name}"));
    let ns = median_ns(sample);
    tracer.end(span, json!({"layer": layer, "median_ns": ns}));
    ns
}

/// Median nanoseconds per call of `f`, inside a `probe.<name>` span.
fn probe(tracer: &mut Tracer, name: &str, layer: &str, mut f: impl FnMut()) -> f64 {
    probe_with(tracer, name, layer, || {
        let t = Instant::now();
        f();
        since(t)
    })
}

/// Runs the per-layer suite for `workload` after its traced traffic.
pub fn run(
    workload: Workload,
    seed: u64,
    tracer: &mut Tracer,
    serving: Option<Serving>,
    log: &Path,
    stages_until: Option<Duration>,
) -> Layers {
    let (float, compiled, mut server, bound) = match serving {
        Some(s) => (s.float, s.compiled, s.server, s.bound),
        None => {
            // train never serves: serve its own VGG briefly so the serving
            // layers are probed at train's shapes
            let mut float = workloads::train_vgg(derive_seed(seed, 4));
            for index in 0..float.layer_stats().len() {
                float.set_bits_of(index, Some(BitWidth::SIXTEEN));
            }
            let compiled = Arc::new(workloads::compile(&float, seed));
            let bound = Instant::now();
            let server = workloads::start_server(Arc::clone(&compiled), Some(log));
            let pool = workloads::image_pool(&compiled, seed);
            let addr = server.local_addr();
            let span = tracer.begin("client.serve_probe");
            let mut served = 0;
            let mut round = 0;
            while served < SERVE_SAMPLES {
                round += 1;
                let phase = load::closed_loop(
                    addr,
                    &pool,
                    derive_seed(seed, 300 + round),
                    Duration::from_millis(500),
                )
                .expect("serve probe traffic");
                served += phase.ok as usize;
            }
            tracer.end(span, json!({"requests": served}));
            (float, compiled, server, bound)
        }
    };
    server.shutdown();
    let records = lifecycle::read_records(log)
        .map(|view| view.records)
        .unwrap_or_default();
    request_spans(tracer, &records, tracer.ns_at(bound));

    let until = stages_until.map_or(u64::MAX, |d| d.as_nanos() as u64);
    let staged: Vec<RequestRecord> = records
        .iter()
        .filter(|r| r.ts_ns <= until)
        .cloned()
        .collect();
    let mut all: Vec<(String, f64)> = workloads::serve_stage_metrics(&staged);
    let mut detail = Vec::new();
    let nn = nn_probes(&float, seed, tracer, &mut all);
    let infer = infer_probes(&float, &compiled, seed, tracer, &mut all);
    let totals = tracer.totals_by_name();
    if workload == Workload::Train {
        let mean_ms = |name: &str| {
            totals.get(name).map_or(f64::NAN, |t| {
                t.total_ns as f64 / t.count.max(1) as f64 / 1e6
            })
        };
        all.push(("core.epoch_ms".into(), mean_ms("core.epoch")));
        all.push((
            "core.iteration_tail_ms".into(),
            mean_ms("core.iteration_tail"),
        ));
        all.push((
            "core.epochs".into(),
            totals.get("core.epoch").map_or(0.0, |t| t.count as f64),
        ));
    }
    for (name, t) in &totals {
        all.push((format!("span.{name}.self_ms"), t.self_ns as f64 / 1e6));
        all.push((format!("span.{name}.count"), t.count as f64));
    }

    let reconciled = nn.holds() && infer.holds();
    for (label, check) in [("nn", &nn), ("infer", &infer)] {
        println!(
            "reconcile {label}: parts {:.4} ms vs whole {:.4} ms ({:+.1}%) {}",
            check.parts_ms,
            check.whole_ms,
            100.0 * check.miss(),
            if check.holds() { "ok" } else { "MISSED" }
        );
        detail.push((
            format!("reconcile_{label}"),
            json!({"parts_ms": check.parts_ms, "whole_ms": check.whole_ms, "miss": check.miss()}),
        ));
    }
    Layers {
        all,
        reconciled,
        detail,
    }
}

/// A sum of parts against the whole it should make up.
#[derive(Debug, Clone, Copy)]
pub struct Reconciliation {
    pub parts_ms: f64,
    pub whole_ms: f64,
    /// Only too-large parts count (a remainder the parts leave out is
    /// measured separately, as `infer.rest_b1_us`).
    pub one_sided: bool,
}

impl Reconciliation {
    /// Signed miss as a share of the whole.
    pub fn miss(&self) -> f64 {
        (self.parts_ms - self.whole_ms) / self.whole_ms
    }

    pub fn holds(&self) -> bool {
        let miss = self.miss();
        miss.is_finite()
            && miss <= RECONCILE_WITHIN
            && (self.one_sided || miss >= -RECONCILE_WITHIN)
    }
}

/// Access-log records as request spans: `serve.request` with its
/// queue-wait, batch-wait, exec and write stages, on one lane per
/// connection. A record's `ts_ns` counts from the server's start, which
/// `origin` (the bind, on the tracer's clock) stands in for.
fn request_spans(tracer: &mut Tracer, records: &[RequestRecord], origin: u64) {
    for record in records.iter().take(MAX_REQUEST_SPANS) {
        let end = origin + record.ts_ns;
        let start = end.saturating_sub(record.total_ns);
        let lane = 1_000 + record.conn_id;
        let parent = tracer.record(
            "serve.request",
            0,
            lane,
            (start, end),
            json!({"trace_id": record.trace_id, "outcome": record.outcome.clone()}),
        );
        let mut at = start + record.admit_ns;
        for (name, ns) in [
            ("serve.queue_wait", record.queue_wait_ns),
            ("serve.batch_wait", record.batch_wait_ns),
            ("serve.exec", record.exec_ns),
            ("serve.write", record.write_ns),
        ] {
            tracer.record(name, parent, lane, (at, at + ns), Value::Null);
            at += ns;
        }
    }
}

/// A probe batch in the model's input shape, and labels for it.
fn probe_batch(model: &Vgg, n: usize, seed: u64) -> (Tensor, Vec<usize>) {
    let stats = model.layer_stats();
    let hw = stats[0].input_hw;
    let channels = stats[0].geom.map_or(3, |g| g.in_channels);
    let mut rng = init::rng(derive_seed(seed, 400));
    let images = init::normal(&[n, channels, hw, hw], 0.0, 1.0, &mut rng);
    let mut pick = SplitMix::new(derive_seed(seed, 401));
    let labels = (0..n).map(|_| pick.below(model.classes())).collect();
    (images, labels)
}

fn push(all: &mut Vec<(String, f64)>, name: impl Into<String>, value: f64) {
    all.push((name.into(), value));
}

/// Nanoseconds since `t`.
fn since(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64
}

/// Training-side layers at batch [`TRAIN_BATCH`]. Rounds alternate the
/// model-level step (`Vgg::forward` + `backward`) with the same step
/// driven block by block through `ConvBlock`, `MaxPool2d` and
/// `LinearHead`, so both meet the same machine and the per-layer times
/// can be reconciled with the whole. Then, at each block's shapes,
/// `tensor` im2col and GEMM, `quant` fake-quantize and `ad` metering; an
/// observed epoch, evaluation, the input encoder and the eqn-4 energy
/// evaluation.
fn nn_probes(
    model: &Vgg,
    seed: u64,
    tracer: &mut Tracer,
    all: &mut Vec<(String, f64)>,
) -> Reconciliation {
    let (input, labels) = probe_batch(model, TRAIN_BATCH, seed);
    let mut whole = model.clone();
    let grad = softmax_cross_entropy(&whole.forward(&input, true), &labels).grad;
    whole.backward(&grad);
    let mut blocks: Vec<ConvBlock> = model.conv_blocks().to_vec();
    let mut pools: Vec<Option<MaxPool2d>> = (0..blocks.len())
        .map(|i| model.pool_after(i).then(|| MaxPool2d::new(2)))
        .collect();
    let mut head = model.head().clone();
    let layers = blocks.len() + 1;
    let (mut forward, mut backward) = (vec![Vec::new(); layers], vec![Vec::new(); layers]);
    let mut step = Vec::new();
    // each block's input and output, for the kernel probes below
    let mut io: Vec<(Tensor, Tensor)> = Vec::new();
    let span = tracer.begin("probe.nn.step");
    let started = Instant::now();
    while step.len() < MIN_REPS || started.elapsed() < 4 * PROBE_BUDGET {
        let t = Instant::now();
        std::hint::black_box(whole.forward(&input, true));
        whole.backward(&grad);
        step.push(since(t));

        io.clear();
        let mut x = input.clone();
        for (i, (block, pool)) in blocks.iter_mut().zip(&mut pools).enumerate() {
            let t = Instant::now();
            let y = block.forward(&x, true);
            let next = match pool {
                Some(p) => p.forward(&y),
                None => y.clone(),
            };
            forward[i].push(since(t));
            io.push((x, y));
            x = next;
        }
        let shape = x.dims().to_vec();
        let flat = x
            .reshaped(&[shape[0], x.len() / shape[0]])
            .expect("flatten preserves count");
        let t = Instant::now();
        std::hint::black_box(head.forward(&flat, true));
        forward[layers - 1].push(since(t));
        let t = Instant::now();
        let mut g = head.backward(&grad);
        backward[layers - 1].push(since(t));
        g = g.reshaped(&shape).expect("feature count matches");
        for (i, (block, pool)) in blocks.iter_mut().zip(&mut pools).enumerate().rev() {
            let t = Instant::now();
            if let Some(p) = pool {
                g = p.backward(&g);
            }
            g = block.backward(&g);
            backward[i].push(since(t));
        }
    }
    let median = |v: &[f64]| stats::median(v).expect("MIN_REPS > 0");
    let step = median(&step);
    tracer.end(span, json!({"median_ns": step}));
    let names: Vec<String> = model
        .conv_blocks()
        .iter()
        .map(|b| b.name().to_string())
        .chain([head.name().to_string()])
        .collect();
    let (mut forward_sum, mut backward_sum) = (0.0, 0.0);
    for (name, (f, b)) in names.iter().zip(forward.iter().zip(&backward)) {
        let (f, b) = (median(f), median(b));
        push(all, format!("nn.{name}.forward_ms"), f / 1e6);
        push(all, format!("nn.{name}.backward_ms"), b / 1e6);
        forward_sum += f;
        backward_sum += b;
    }
    push(all, "nn.forward_ms", forward_sum / 1e6);
    push(all, "nn.backward_ms", backward_sum / 1e6);
    push(all, "nn.step_ms", step / 1e6);

    let mut sums = [0.0f64; 4]; // im2col, gemm, fake-quantize, observe
    for (block, (x, y)) in model.conv_blocks().iter().zip(&io) {
        let name = block.name();
        let geom = block.geom();
        let im2col_ns = probe(tracer, "tensor.im2col", name, || {
            std::hint::black_box(im2col(x, &geom).expect("probe shapes agree"));
        });
        let cols = im2col(x, &geom).expect("probe shapes agree");
        let weight = &block.conv().weight.value;
        let gemm = probe(tracer, "tensor.gemm", name, || {
            std::hint::black_box(matmul(weight, &cols).expect("probe shapes agree"));
        });
        let bits = block.bits().unwrap_or(BitWidth::SIXTEEN);
        // what `ConvBlock::forward` quantizes: the weights into a copy, the
        // activations in place (on an untimed copy here)
        let fake = probe_with(tracer, "quant.fake_quantize", name, || {
            let mut act = y.clone();
            let t = Instant::now();
            let q = Quantizer::fit(bits, weight.data()).expect("finite weights");
            std::hint::black_box(q.fake_quantize_tensor(weight));
            if let Ok(range) = QuantRange::from_data(act.data()) {
                Quantizer::new(bits, range).fake_quantize_tensor_inplace(&mut act);
            }
            std::hint::black_box(&act);
            since(t)
        });
        let observe = probe(tracer, "ad.observe", name, || {
            let mut meter = DensityMeter::new();
            meter.observe(y);
            std::hint::black_box(meter.density());
        });
        for (slot, value) in [im2col_ns, gemm, fake, observe].into_iter().enumerate() {
            sums[slot] += value;
        }
        push(all, format!("tensor.{name}.im2col_ms"), im2col_ns / 1e6);
        push(all, format!("tensor.{name}.gemm_ms"), gemm / 1e6);
        push(all, format!("quant.{name}.fake_quantize_us"), fake / 1e3);
        push(all, format!("ad.{name}.observe_us"), observe / 1e3);
    }
    push(all, "tensor.im2col_ms", sums[0] / 1e6);
    push(all, "tensor.gemm_ms", sums[1] / 1e6);
    push(all, "quant.fake_quantize_us", sums[2] / 1e3);
    push(all, "ad.observe_us", sums[3] / 1e3);
    // an observed epoch over 4 batches, stamped from the per-batch hook
    let (images, labels) = probe_batch(model, 4 * TRAIN_BATCH, seed);
    let data = Dataset::new(images, labels);
    let mut trained = model.clone();
    let mut optimizer = Adam::new(1.5e-3);
    let mut rng = init::rng(derive_seed(seed, 403));
    let mut batch_ns = Vec::new();
    let span = tracer.begin("probe.nn.epoch");
    for _ in 0..3 {
        let mut last = Instant::now();
        train_epoch_observed(
            &mut trained,
            &data,
            &mut optimizer,
            TRAIN_BATCH,
            &mut rng,
            &mut |_| {
                batch_ns.push(last.elapsed().as_nanos() as f64);
                last = Instant::now();
            },
        );
    }
    tracer.end(span, json!({"batches": batch_ns.len()}));
    push(
        all,
        "nn.batch_ms",
        stats::median(&batch_ns).expect("batches ran") / 1e6,
    );
    let mut evaluated = model.clone();
    let eval = probe(tracer, "nn.evaluate", "model", || {
        std::hint::black_box(evaluate(&mut evaluated, &data, TRAIN_BATCH));
    });
    push(all, "nn.evaluate_ms", eval / 1e6);

    let image = &input.data()[..input.len() / TRAIN_BATCH];
    let encoder = Quantizer::fit(BitWidth::SIXTEEN, image)
        .expect("finite input")
        .encoder();
    let encode = probe(tracer, "quant.encode", "input", || {
        let codes: u64 = image.iter().map(|&v| encoder.encode(v)).sum();
        std::hint::black_box(codes);
    });
    push(all, "quant.encode_us", encode / 1e3);
    let energy_model = EnergyModel::paper_45nm();
    let energy = probe(tracer, "core.energy_eval", "model", || {
        let spec = network_spec_from_stats("iter", &model.layer_stats(), BitWidth::SIXTEEN);
        std::hint::black_box(spec.energy_pj(&energy_model));
    });
    push(all, "core.energy_eval_us", energy / 1e3);

    Reconciliation {
        parts_ms: (forward_sum + backward_sum) / 1e6,
        whole_ms: step / 1e6,
        one_sided: false,
    }
}

/// One integer layer as the engine runs it: its packed weights (in the
/// layer's container) and the shape of one image's activation codes.
struct IntLayer {
    name: String,
    weights: PackedMatrix,
    /// Activation rows per image (output pixels, or 1 for the head).
    rows_per_image: usize,
    k: usize,
    outputs: usize,
    act_max_code: u64,
}

/// The compiled model's layers, re-packed from the float model with the
/// same quantizers and containers `CompiledVgg::compile` chooses.
fn int_layers(model: &Vgg, compiled: &CompiledVgg) -> Vec<IntLayer> {
    let containers = compiled.containers();
    let stats = model.layer_stats();
    let mut carry = BitWidth::SIXTEEN;
    let mut out = Vec::new();
    for (index, block) in model.conv_blocks().iter().enumerate() {
        let bits = block.bits().unwrap_or(BitWidth::SIXTEEN);
        let (weight, _) = block.folded_weight_bias();
        let geom = block.geom();
        let fan_in = geom.in_channels * geom.kernel * geom.kernel;
        let q = Quantizer::fit(bits, weight.data()).expect("finite weights");
        let side = geom.output_size(stats[index].input_hw);
        out.push(IntLayer {
            name: block.name().to_string(),
            weights: PackedMatrix::pack_rows(
                weight.data(),
                geom.out_channels,
                fan_in,
                &q,
                containers[index],
            ),
            rows_per_image: side * side,
            k: fan_in,
            outputs: geom.out_channels,
            act_max_code: carry.max_code(),
        });
        carry = bits;
    }
    let head = model.head();
    let bits = head.bits().unwrap_or(BitWidth::SIXTEEN);
    let weight = &head.linear().weight.value;
    let q = Quantizer::fit(bits, weight.data()).expect("finite weights");

    out.push(IntLayer {
        name: head.name().to_string(),
        weights: PackedMatrix::pack_rows(
            weight.data(),
            head.out_features(),
            head.in_features(),
            &q,
            *containers.last().expect("a head"),
        ),
        rows_per_image: 1,
        k: head.in_features(),
        outputs: head.out_features(),
        act_max_code: carry.max_code(),
    });
    out
}

/// Serving-side layers: `infer` compile, whole-model runs at batch 1 and
/// 8, and per layer the activation packing and integer GEMM at the
/// layer's container, with Table-I MACs and achieved GMAC/s. Whatever the
/// run spends outside GEMM and packing (gather, requantization, pooling,
/// encoding) is `infer.rest_b1_us`.
fn infer_probes(
    model: &Vgg,
    compiled: &CompiledVgg,
    seed: u64,
    tracer: &mut Tracer,
    all: &mut Vec<(String, f64)>,
) -> Reconciliation {
    let compile = probe(tracer, "infer.compile", "model", || {
        std::hint::black_box(workloads::compile(model, seed));
    });
    push(all, "infer.compile_ms", compile / 1e6);
    let (batch, _) = probe_batch(model, 8, seed);
    let one = batch.index_axis0(0);
    let (c, hw) = compiled.input_shape();
    let one = one.reshaped(&[1, c, hw, hw]).expect("one image");
    let run_b1 = probe(tracer, "infer.run_b1", "model", || {
        std::hint::black_box(compiled.run(&one));
    });
    let run_b8 = probe(tracer, "infer.run_b8", "model", || {
        std::hint::black_box(compiled.run(&batch));
    });
    push(all, "infer.run_b1_ms", run_b1 / 1e6);
    push(all, "infer.run_b8_ms", run_b8 / 1e6);

    let mut rng = SplitMix::new(derive_seed(seed, 404));
    let (mut pack_sum, mut gemm_b1_sum, mut gemm_b8_sum, mut macs_sum) = (0.0, 0.0, 0.0, 0u64);
    for layer in int_layers(model, compiled) {
        let codes = |rows: usize, rng: &mut SplitMix| -> Vec<u16> {
            (0..rows * layer.k)
                .map(|_| (rng.next_u64() % (layer.act_max_code + 1)) as u16)
                .collect()
        };
        let (m1, m8) = (layer.rows_per_image, 8 * layer.rows_per_image);
        let (codes_b1, codes_b8) = (codes(m1, &mut rng), codes(m8, &mut rng));
        let pack = probe(tracer, "infer.pack_b1", &layer.name, || {
            std::hint::black_box(PackedMatrix::from_codes(
                &codes_b1,
                m1,
                layer.k,
                layer.weights.container(),
            ));
        });
        let acts_b1 = PackedMatrix::from_codes(&codes_b1, m1, layer.k, layer.weights.container());
        let acts_b8 = PackedMatrix::from_codes(&codes_b8, m8, layer.k, layer.weights.container());
        let gemm = |acts: &PackedMatrix| {
            let mut acc = 0i64;
            qgemm(acts, &layer.weights, |_, _, v| acc = acc.wrapping_add(v));
            std::hint::black_box(acc);
        };
        let gemm_b1 = probe(tracer, "infer.qgemm_b1", &layer.name, || gemm(&acts_b1));
        let gemm_b8 = probe(tracer, "infer.qgemm_b8", &layer.name, || gemm(&acts_b8));
        let macs = (m1 * layer.k * layer.outputs) as u64;
        let name = &layer.name;
        push(all, format!("infer.{name}.pack_b1_us"), pack / 1e3);
        push(all, format!("infer.{name}.qgemm_b1_us"), gemm_b1 / 1e3);
        push(all, format!("infer.{name}.qgemm_b8_us"), gemm_b8 / 1e3);
        push(all, format!("infer.{name}.macs_b1"), macs as f64);
        push(all, format!("infer.{name}.gmacs_b1"), macs as f64 / gemm_b1);
        push(
            all,
            format!("infer.{name}.container_bits"),
            match layer.weights.container() {
                adq::infer::Container::Nib => 4.0,
                adq::infer::Container::U8 => 8.0,
                adq::infer::Container::U16 => 16.0,
            },
        );
        pack_sum += pack;
        gemm_b1_sum += gemm_b1;
        gemm_b8_sum += gemm_b8;
        macs_sum += macs;
    }
    push(all, "infer.pack_b1_us", pack_sum / 1e3);
    push(all, "infer.qgemm_b1_us", gemm_b1_sum / 1e3);
    push(all, "infer.qgemm_b8_us", gemm_b8_sum / 1e3);
    push(
        all,
        "infer.rest_b1_us",
        (run_b1 - pack_sum - gemm_b1_sum) / 1e3,
    );
    push(all, "infer.gmacs_b1", macs_sum as f64 / gemm_b1_sum);
    Reconciliation {
        parts_ms: (pack_sum + gemm_b1_sum) / 1e6,
        whole_ms: run_b1 / 1e6,
        one_sided: true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reconciliation_bounds_the_miss() {
        let check = |parts, whole, one_sided| {
            Reconciliation {
                parts_ms: parts,
                whole_ms: whole,
                one_sided,
            }
            .holds()
        };
        assert!(check(1.1, 1.0, false));
        assert!(!check(1.2, 1.0, false));
        assert!(!check(0.8, 1.0, false));
        assert!(check(0.5, 1.0, true));
        assert!(!check(1.2, 1.0, true));
        assert!(!check(1.0, 0.0, true));
    }
}
