//! Request-lifecycle observability contracts of the serving layer:
//!
//! * **version tolerance** — an old-format client (no trace-id flag)
//!   gets byte-for-byte the pre-tracing protocol, while a tracing client
//!   on the same server receives echoed trace ids;
//! * **observation-only logging** — a server with an access log attached
//!   produces byte-identical responses to one without, for the same
//!   request byte sequence;
//! * **exact accounting** — ok/shed/shutdown paths each produce one
//!   well-formed access-log record, and record counts reconcile with the
//!   global `serve.*` counters and the log's own summary line;
//! * **input validation** — a non-finite input gets a typed error and an
//!   `error` record, never a prediction.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use adq_infer::load_generate_traced;
use adq_infer::serve::{Client, Reply, ServeConfig, ServeModel, Server};
use adq_telemetry::lifecycle::{self, AccessLog, RequestRecord};
use adq_telemetry::metrics;
use adq_tensor::Tensor;

/// The serving metrics are process-global and the tests in this binary
/// run on parallel threads; every test that asserts counter deltas or
/// record counts takes this lock so another test's server can't
/// interleave its own records.
fn test_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Deterministic echo model: logits are `first_input + column`, so any
/// two servers given the same bytes answer with the same bytes.
struct EchoModel {
    classes: usize,
    delay: Duration,
    rows: AtomicUsize,
}

impl EchoModel {
    fn new(delay: Duration) -> Self {
        Self {
            classes: 3,
            delay,
            rows: AtomicUsize::new(0),
        }
    }
}

impl ServeModel for EchoModel {
    fn input_shape(&self) -> (usize, usize) {
        (1, 2) // 4 floats per image
    }

    fn classes(&self) -> usize {
        self.classes
    }

    fn run(&self, images: &Tensor) -> Tensor {
        let n = images.dims()[0];
        if !self.delay.is_zero() {
            std::thread::sleep(self.delay);
        }
        self.rows.fetch_add(n, Ordering::SeqCst);
        let mut out = Tensor::zeros(&[n, self.classes]);
        for i in 0..n {
            let tag = images.data()[i * self.input_len()];
            for j in 0..self.classes {
                out.data_mut()[i * self.classes + j] = tag + j as f32;
            }
        }
        out
    }
}

fn counter(name: &str) -> u64 {
    metrics::global().counter(name).get()
}

fn log_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("adq_access_{tag}_{}.jsonl", std::process::id()))
}

// ---- raw-socket protocol helpers (no Client involved) -------------------

fn write_raw_frame(stream: &mut TcpStream, payload: &[u8]) {
    stream
        .write_all(&u32::to_le_bytes(payload.len() as u32))
        .unwrap();
    stream.write_all(payload).unwrap();
    stream.flush().unwrap();
}

fn read_raw_frame(stream: &mut TcpStream) -> Vec<u8> {
    let mut len_buf = [0u8; 4];
    stream.read_exact(&mut len_buf).unwrap();
    let mut payload = vec![0u8; u32::from_le_bytes(len_buf) as usize];
    stream.read_exact(&mut payload).unwrap();
    payload
}

/// Builds an infer request payload with an explicit kind byte (so tests
/// can set or omit the trace flag) and an arbitrary float body.
fn infer_payload(kind_byte: u8, id: u64, input: &[f32]) -> Vec<u8> {
    let mut payload = Vec::with_capacity(13 + input.len() * 4);
    payload.push(kind_byte);
    payload.extend_from_slice(&id.to_le_bytes());
    payload.extend_from_slice(&u32::to_le_bytes(input.len() as u32));
    for v in input {
        payload.extend_from_slice(&v.to_le_bytes());
    }
    payload
}

const KIND_INFER: u8 = 1;
const FLAG_TRACED: u8 = 0x80;
const STATUS_OK: u8 = 0;
const STATUS_ERR: u8 = 1;
const STATUS_GOODBYE: u8 = 3;

/// An old-format client (kind byte without the trace flag) gets exactly
/// the pre-tracing response layout — no trailer — while a tracing client
/// on the same server receives strictly increasing echoed trace ids.
#[test]
fn traced_protocol_coexists_with_old_format_clients() {
    let _guard = test_lock();
    let model = Arc::new(EchoModel::new(Duration::ZERO));
    let mut server = Server::bind(
        "127.0.0.1:0",
        Arc::clone(&model) as Arc<dyn ServeModel>,
        ServeConfig {
            max_batch: 2,
            max_wait: Duration::from_millis(1),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();
    let input = vec![2.0f32; model.input_len()];

    // old format over a raw socket: the response is exactly
    // [status][id: 8][n: 4][n × f32] with no trace trailer
    let mut raw = TcpStream::connect(addr).unwrap();
    write_raw_frame(&mut raw, &infer_payload(KIND_INFER, 7, &input));
    let response = read_raw_frame(&mut raw);
    assert_eq!(response.len(), 13 + model.classes() * 4);
    assert_eq!(response[0], STATUS_OK);
    assert_eq!(u64::from_le_bytes(response[1..9].try_into().unwrap()), 7);
    drop(raw);

    // the library client without tracing is the same old format
    let mut client = Client::connect(addr).unwrap();
    let logits = client.infer(&input).unwrap().into_result().unwrap();
    assert_eq!(logits, vec![2.0, 3.0, 4.0]);

    // tracing client: every reply carries a fresh, increasing trace id
    let mut last = 0u64;
    for _ in 0..3 {
        let (reply, trace_id) = client.infer_traced(&input).unwrap();
        assert!(matches!(reply, Reply::Logits(_)));
        let id = trace_id.expect("traced request echoes a trace id");
        assert!(id > last, "trace ids must increase: {id} after {last}");
        last = id;
    }

    server.shutdown();
}

/// The observation-only contract: a logged and an unlogged server given
/// the same request byte sequence answer with byte-identical responses —
/// ok, traced, and error paths included.
#[test]
fn access_log_does_not_change_response_bytes() {
    let _guard = test_lock();
    let path = log_path("identity");
    let make_server = |log: Option<AccessLog>| {
        Server::bind_logged(
            "127.0.0.1:0",
            Arc::new(EchoModel::new(Duration::ZERO)) as Arc<dyn ServeModel>,
            ServeConfig {
                max_batch: 2,
                max_wait: Duration::from_millis(1),
                ..ServeConfig::default()
            },
            log,
        )
        .unwrap()
    };
    let mut logged = make_server(Some(AccessLog::create(&path, 4).unwrap()));
    let mut plain = make_server(None);

    // the same byte sequence, synchronously, on one connection each:
    // untraced ok, traced ok, traced bad-length error, untraced ok
    let good = vec![1.5f32; 4];
    let frames = [
        infer_payload(KIND_INFER, 1, &good),
        infer_payload(KIND_INFER | FLAG_TRACED, 2, &good),
        infer_payload(KIND_INFER | FLAG_TRACED, 3, &[9.0, 9.0]),
        infer_payload(KIND_INFER, 4, &good),
    ];
    let drive = |addr| -> Vec<Vec<u8>> {
        let mut stream = TcpStream::connect(addr).unwrap();
        frames
            .iter()
            .map(|frame| {
                write_raw_frame(&mut stream, frame);
                read_raw_frame(&mut stream)
            })
            .collect()
    };
    let logged_responses = drive(logged.local_addr());
    let plain_responses = drive(plain.local_addr());
    assert_eq!(
        logged_responses, plain_responses,
        "access log must not change a single response byte"
    );
    // the traced ok response really does carry the 8-byte trailer
    assert_eq!(logged_responses[1].len(), 13 + 3 * 4 + 8);

    Client::connect(logged.local_addr())
        .unwrap()
        .shutdown_server()
        .unwrap();
    logged.wait();
    Client::connect(plain.local_addr())
        .unwrap()
        .shutdown_server()
        .unwrap();
    plain.wait();

    // and the log saw all four requests: 3 ok + 1 error
    let view = lifecycle::read_records(&path).unwrap();
    assert_eq!(view.malformed, 0);
    assert_eq!(view.records.len(), 4);
    let ok = records_with(&view.records, lifecycle::OUTCOME_OK);
    let errors = records_with(&view.records, lifecycle::OUTCOME_ERROR);
    assert_eq!((ok.len(), errors.len()), (3, 1));
    let summary = view.summary.expect("closed log has a summary");
    assert_eq!(summary.records, 4);
    assert_eq!(summary.dropped, 0);
    std::fs::remove_file(&path).ok();
}

fn records_with<'a>(records: &'a [RequestRecord], outcome: &str) -> Vec<&'a RequestRecord> {
    records.iter().filter(|r| r.outcome == outcome).collect()
}

/// Overload against a full queue: every shed and every answered request
/// produces exactly one record, reconciling three ways — client-observed
/// outcomes, global counters, and the log's own summary.
#[test]
fn shed_and_ok_outcomes_reconcile_with_counters() {
    let _guard = test_lock();
    let path = log_path("shed");
    let model = Arc::new(EchoModel::new(Duration::from_millis(25)));
    let mut server = Server::bind_logged(
        "127.0.0.1:0",
        Arc::clone(&model) as Arc<dyn ServeModel>,
        ServeConfig {
            max_batch: 1,
            max_wait: Duration::from_millis(1),
            replicas: 1,
            conn_workers: 2,
            queue_cap: 1,
        },
        Some(AccessLog::create(&path, 4).unwrap()),
    )
    .unwrap();
    let shed_before = counter("serve.shed_total");
    let requests_before = counter("serve.requests");

    let load = load_generate_traced(server.local_addr(), 6, 3, model.input_len()).unwrap();
    assert_eq!(load.stats.errors, 0);
    assert!(
        load.stats.shed > 0,
        "6 closed-loop clients over queue_cap=1 with a 25ms model must shed"
    );
    assert_eq!(
        load.trace_ids.len() as u64,
        load.stats.requests,
        "every ok reply must carry a trace id"
    );

    server.shutdown();
    let view = lifecycle::read_records(&path).unwrap();
    assert_eq!(view.malformed, 0);

    // one record per request, split exactly as the clients observed
    let ok = records_with(&view.records, lifecycle::OUTCOME_OK);
    let shed = records_with(&view.records, lifecycle::OUTCOME_SHED);
    assert_eq!(ok.len() as u64, load.stats.requests);
    assert_eq!(shed.len() as u64, load.stats.shed);
    assert_eq!(view.records.len() as u64, 6 * 3);

    // counters moved by the same amounts
    assert_eq!(counter("serve.shed_total") - shed_before, load.stats.shed);
    assert_eq!(counter("serve.requests") - requests_before, 6 * 3);

    // the echoed trace ids join 1:1 against the ok records
    let mut logged_ids: Vec<u64> = ok.iter().map(|r| r.trace_id).collect();
    let mut echoed = load.trace_ids.clone();
    logged_ids.sort_unstable();
    echoed.sort_unstable();
    assert_eq!(logged_ids, echoed, "trace ids must join log ↔ client");

    // ok records have a full waterfall; shed records never ran
    for record in &ok {
        assert_eq!(record.replica, Some(0));
        assert!(record.batch_size.is_some());
        assert!(record.exec_ns > 0, "ok record without an exec stage");
        assert!(record.total_ns >= record.exec_ns);
    }
    for record in &shed {
        assert_eq!(record.replica, None);
        assert_eq!(record.exec_ns, 0);
    }

    let summary = view.summary.expect("closed log has a summary");
    assert_eq!(summary.records, view.records.len() as u64);
    assert_eq!(summary.dropped, 0);
    assert_eq!(summary.write_errors, 0);
    assert_eq!(summary.ok, ok.len() as u64);
    assert_eq!(summary.shed, shed.len() as u64);
    assert!(!summary.exemplars.is_empty(), "exemplars retained");
    std::fs::remove_file(&path).ok();
}

/// A non-finite input is refused with a typed error — counted in
/// `serve.errors` and logged with outcome `error` — instead of being
/// encoded into an ordinary prediction, and the connection stays usable.
#[test]
fn non_finite_inputs_are_refused_counted_and_logged() {
    let _guard = test_lock();
    let path = log_path("nonfinite");
    let model = Arc::new(EchoModel::new(Duration::ZERO));
    let mut server = Server::bind_logged(
        "127.0.0.1:0",
        Arc::clone(&model) as Arc<dyn ServeModel>,
        ServeConfig::default(),
        Some(AccessLog::create(&path, 4).unwrap()),
    )
    .unwrap();
    let errors_before = counter("serve.errors");
    let mut client = Client::connect(server.local_addr()).unwrap();
    for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
        // the echo model answers from element 0, so a bad element 1
        // would otherwise come back as an ordinary answer
        match client.infer(&[1.0, bad, 1.0, 1.0]).unwrap() {
            Reply::Refused(msg) => assert_eq!(msg, "non-finite input"),
            other => panic!("{bad} input answered with {other:?}"),
        }
    }
    let logits = client.infer(&[1.0; 4]).unwrap().into_result().unwrap();
    assert_eq!(logits, vec![1.0, 2.0, 3.0]);
    assert_eq!(counter("serve.errors") - errors_before, 3);
    assert_eq!(
        model.rows.load(Ordering::SeqCst),
        1,
        "refused inputs never reach the model"
    );

    server.shutdown();
    let view = lifecycle::read_records(&path).unwrap();
    assert_eq!(view.malformed, 0);
    let errors = records_with(&view.records, lifecycle::OUTCOME_ERROR);
    assert_eq!(errors.len(), 3);
    assert!(errors.iter().all(|r| r.replica.is_none() && r.exec_ns == 0));
    assert_eq!(records_with(&view.records, lifecycle::OUTCOME_OK).len(), 1);
    std::fs::remove_file(&path).ok();
}

/// A request arriving after the queue closed gets the typed
/// "shutting down" refusal plus a `goodbye-refused` record, while the
/// in-flight request admitted before the close is still answered and
/// logged `ok` — and the connection still ends with a goodbye frame.
#[test]
fn shutdown_refusals_produce_goodbye_refused_records() {
    let _guard = test_lock();
    let path = log_path("goodbye");
    let model = Arc::new(EchoModel::new(Duration::from_millis(120)));
    let mut server = Server::bind_logged(
        "127.0.0.1:0",
        Arc::clone(&model) as Arc<dyn ServeModel>,
        ServeConfig {
            max_batch: 1,
            max_wait: Duration::from_millis(1),
            replicas: 1,
            conn_workers: 1,
            queue_cap: 4,
        },
        Some(AccessLog::create(&path, 4).unwrap()),
    )
    .unwrap();
    let addr = server.local_addr();
    let input = vec![3.0f32; model.input_len()];

    // pipeline on a raw socket: request 1 occupies the executor for
    // 120ms, a second connection requests shutdown, then request 2 lands
    // on the closed queue
    let mut raw = TcpStream::connect(addr).unwrap();
    write_raw_frame(
        &mut raw,
        &infer_payload(KIND_INFER | FLAG_TRACED, 1, &input),
    );
    std::thread::sleep(Duration::from_millis(40));
    Client::connect(addr).unwrap().shutdown_server().unwrap();
    std::thread::sleep(Duration::from_millis(20));
    write_raw_frame(
        &mut raw,
        &infer_payload(KIND_INFER | FLAG_TRACED, 2, &input),
    );

    // both requests resolve (in either order), then the goodbye
    let mut by_id = std::collections::HashMap::new();
    for _ in 0..2 {
        let response = read_raw_frame(&mut raw);
        let id = u64::from_le_bytes(response[1..9].try_into().unwrap());
        by_id.insert(id, response);
    }
    assert_eq!(by_id[&1][0], STATUS_OK, "admitted request must be answered");
    assert_eq!(by_id[&2][0], STATUS_ERR, "post-close request is refused");
    let goodbye = read_raw_frame(&mut raw);
    assert_eq!(goodbye[0], STATUS_GOODBYE);
    server.wait();

    let view = lifecycle::read_records(&path).unwrap();
    assert_eq!(view.malformed, 0);
    assert_eq!(view.records.len(), 2);
    let ok = records_with(&view.records, lifecycle::OUTCOME_OK);
    let refused = records_with(&view.records, lifecycle::OUTCOME_GOODBYE_REFUSED);
    assert_eq!((ok.len(), refused.len()), (1, 1));
    // the refusal is a complete record: identity, outcome, zero exec
    assert_eq!(refused[0].conn_id, ok[0].conn_id, "same connection");
    assert_eq!(refused[0].exec_ns, 0);
    assert!(refused[0].trace_id > 0);
    let summary = view.summary.expect("closed log has a summary");
    assert_eq!(summary.records, 2);
    assert_eq!(summary.goodbye_refused, 1);
    assert_eq!(summary.ok, 1);
    std::fs::remove_file(&path).ok();
}
