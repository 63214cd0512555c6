//! Concurrency contract of the tracing layer under the trainer: GEMM tile
//! spans recorded on rayon workers (level 2) nest under the product that
//! fanned them out, drain into structurally identical traces at any
//! worker count, and never interleave into corrupt JSONL lines.

use std::fs;
use std::sync::Mutex;

use adq_nn::train::{train_epoch, Dataset};
use adq_nn::{Adam, Vgg};
use adq_telemetry::span::{self, AttrValue, SpanRecord};
use adq_telemetry::{JsonlSink, TelemetryEvent, TelemetrySink};
use adq_tensor::Tensor;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The tracer level and rayon override are process-global; tests in this
/// file must not interleave with each other.
static TRACER: Mutex<()> = Mutex::new(());

const SAMPLES: usize = 64;
const BATCH: usize = 32;
/// The GEMM's floor (`m·n·k`) for handing a tile grid to the pool.
const PAR_TILE_MIN_FLOPS: u64 = 1 << 21;

/// 3×16×16 images: at batch 32 the tiny VGG's second and third
/// convolutions run products above the parallel tile threshold.
fn tiny_dataset() -> Dataset {
    let n = SAMPLES * 3 * 16 * 16;
    let images = Tensor::from_vec(
        (0..n).map(|v| (v as f32 * 0.37).sin()).collect(),
        &[SAMPLES, 3, 16, 16],
    )
    .expect("images");
    Dataset::new(images, (0..SAMPLES).map(|i| i % 4).collect())
}

/// One epoch traced at level 2 (tile spans on) under `threads` workers;
/// returns the drained span records (sorted by start time, ids
/// process-unique).
fn traced_epoch(threads: usize) -> Vec<SpanRecord> {
    let data = tiny_dataset();
    let mut model = Vgg::tiny(3, 16, 4, 17);
    let mut optimizer = Adam::new(1e-3);
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let grids = adq_telemetry::metrics::global().counter("tensor.gemm.par_grids");
    let before = grids.get();

    rayon::set_thread_override(Some(threads));
    span::set_level(2);
    train_epoch(&mut model, &data, &mut optimizer, BATCH, &mut rng);
    span::set_level(0);
    rayon::set_thread_override(None);
    assert!(grids.get() > before, "no tile grid fanned out");
    span::drain()
}

fn attr_u64(record: &SpanRecord, key: &str) -> u64 {
    match record.attrs.iter().find(|(k, _)| *k == key) {
        Some((_, AttrValue::U64(v))) => *v,
        other => panic!("span {} lacks u64 attribute {key}: {other:?}", record.name),
    }
}

fn attr_line(attrs: &[(&'static str, AttrValue)]) -> String {
    let mut parts: Vec<String> = attrs.iter().map(|(k, v)| format!("{k}={v:?}")).collect();
    parts.sort();
    parts.join(",")
}

/// Structural fingerprint of a trace: one `name|parent-name|attrs` line per
/// span, sorted. Ids, timestamps, and thread ids are scheduling-dependent;
/// the structure must not be.
fn normalize(records: &[SpanRecord]) -> String {
    let name_of = |id: u64| -> &str {
        records
            .iter()
            .find(|r| r.id == id)
            .map_or("<root>", |r| r.name)
    };
    let mut lines: Vec<String> = records
        .iter()
        .map(|r| format!("{}|{}|{}", r.name, name_of(r.parent), attr_line(&r.attrs)))
        .collect();
    lines.sort();
    lines.join("\n")
}

#[test]
fn tile_spans_nest_under_their_product_at_any_thread_count() {
    let _guard = TRACER
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    span::set_level(0);
    span::drain();

    let serial = traced_epoch(1);
    let wide = traced_epoch(4);

    for records in [&serial, &wide] {
        let batches = records.iter().filter(|r| r.name == "nn.batch").count();
        assert_eq!(batches, SAMPLES / BATCH, "one span per batch");
        let tiles: Vec<&SpanRecord> = records
            .iter()
            .filter(|r| r.name == "tensor.gemm.tile")
            .collect();
        let mut fanned_out = 0;
        for product in records.iter().filter(|r| r.name == "tensor.matmul") {
            let children: Vec<&&SpanRecord> =
                tiles.iter().filter(|t| t.parent == product.id).collect();
            for tile in &children {
                // a tile runs inside its product's time window
                assert!(
                    tile.start_ns >= product.start_ns && tile.end_ns <= product.end_ns,
                    "tile span outside its product's window"
                );
            }
            let flops = attr_u64(product, "m") * attr_u64(product, "n") * attr_u64(product, "k");
            if children.len() >= 2 && flops >= PAR_TILE_MIN_FLOPS {
                fanned_out += 1;
            }
        }
        assert!(fanned_out > 0, "no product split its tile grid");
        for tile in &tiles {
            assert!(
                records
                    .iter()
                    .any(|r| r.id == tile.parent && r.name == "tensor.matmul"),
                "tile span {} has a parent that is not a product",
                tile.id
            );
        }
    }

    // Scheduling must not change the trace's structure: byte-identical
    // normalized output at 1 and 4 workers.
    assert_eq!(normalize(&serial), normalize(&wide));
}

#[test]
fn concurrent_span_drain_never_corrupts_jsonl() {
    let _guard = TRACER
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    span::set_level(0);
    span::drain();

    let records = traced_epoch(4);
    assert!(!records.is_empty(), "traced epoch recorded no spans");

    let dir = std::env::temp_dir().join(format!("adq-span-jsonl-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("spans.jsonl");
    {
        let sink = JsonlSink::create(&path).expect("jsonl sink");
        for record in &records {
            sink.record(&record.to_event());
        }
        sink.flush();
        assert_eq!(sink.write_errors(), 0, "healthy target must not error");
    }

    let text = fs::read_to_string(&path).expect("read back");
    let mut parsed = 0;
    for (lineno, line) in text.lines().enumerate() {
        let event: TelemetryEvent = serde_json::from_str(line)
            .unwrap_or_else(|err| panic!("line {} is corrupt: {err}", lineno + 1));
        assert!(
            matches!(event, TelemetryEvent::SpanClosed { .. }),
            "unexpected event kind on line {}",
            lineno + 1
        );
        parsed += 1;
    }
    assert_eq!(parsed, records.len(), "every span must round-trip one line");
    let _ = fs::remove_dir_all(&dir);
}
