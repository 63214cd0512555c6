//! Overload and shutdown behavior of the serving layer, driven with a
//! deliberately slow model stub so the bounded queue actually fills.
//!
//! The guarantees under test:
//!
//! * the request queue never grows past `queue_cap` — overload degrades
//!   into typed shed frames, not unbounded memory;
//! * `serve.shed_total` / `serve.queue_rejected` count every shed;
//! * **zero lost responses**: every request a client sends gets exactly
//!   one typed answer (logits, shed, or error) — even requests admitted
//!   right before a shutdown;
//! * a concurrent shutdown at c ≥ 4 drains admitted work and ends every
//!   connection with a goodbye frame, never an unexplained EOF;
//! * a model that panics costs its batch a typed error, not the replica:
//!   later requests are answered and shutdown still completes.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Barrier, Mutex, MutexGuard};
use std::time::Duration;

use adq_infer::load_generate;
use adq_infer::serve::{Client, LoadStats, Reply, ServeConfig, ServeModel, Server};
use adq_telemetry::lifecycle::{self, AccessLog};
use adq_telemetry::metrics;
use adq_tensor::Tensor;

/// A model that sleeps per batch and tracks the largest batch it ever
/// saw. Slow enough that a burst of clients outruns the executor and
/// fills the admission queue.
struct SlowModel {
    classes: usize,
    delay: Duration,
    batches: AtomicUsize,
    rows: AtomicUsize,
    max_batch_seen: AtomicUsize,
}

impl SlowModel {
    fn new(delay: Duration) -> Self {
        Self {
            classes: 3,
            delay,
            batches: AtomicUsize::new(0),
            rows: AtomicUsize::new(0),
            max_batch_seen: AtomicUsize::new(0),
        }
    }
}

impl ServeModel for SlowModel {
    fn input_shape(&self) -> (usize, usize) {
        (1, 2) // 4 floats per image
    }

    fn classes(&self) -> usize {
        self.classes
    }

    fn run(&self, images: &Tensor) -> Tensor {
        let n = images.dims()[0];
        std::thread::sleep(self.delay);
        self.batches.fetch_add(1, Ordering::SeqCst);
        self.rows.fetch_add(n, Ordering::SeqCst);
        self.max_batch_seen.fetch_max(n, Ordering::SeqCst);
        // logits echo the first input value so clients can check identity
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

/// A model that panics on any batch holding an image whose first value
/// is [`PanicModel::POISON`], and otherwise echoes that value like
/// [`SlowModel`].
struct PanicModel;

impl PanicModel {
    const POISON: f32 = 13.0;
}

impl ServeModel for PanicModel {
    fn input_shape(&self) -> (usize, usize) {
        (1, 2)
    }

    fn classes(&self) -> usize {
        3
    }

    fn run(&self, images: &Tensor) -> Tensor {
        let n = images.dims()[0];
        let tags: Vec<f32> = (0..n)
            .map(|i| images.data()[i * self.input_len()])
            .collect();
        assert!(!tags.contains(&Self::POISON), "poisoned batch");
        let logits = tags
            .iter()
            .flat_map(|&tag| (0..3).map(move |j| tag + j as f32))
            .collect();
        Tensor::from_vec(logits, &[n, 3]).unwrap()
    }
}

/// Serializes the tests: they assert deltas of process-global counters
/// (`serve.shed_total`, `serve.queue_rejected`, ...) that a concurrently
/// running test would move too.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn counter(name: &str) -> u64 {
    metrics::global().counter(name).get()
}

/// A burst far larger than the queue can hold: every request must come
/// back as either logits or a typed shed frame — none lost, none hung —
/// while the queue stays within its bound and the shed counters advance.
#[test]
fn reject_policy_bounds_queue_and_sheds_with_typed_frames() {
    let _serial = serial();
    let model = Arc::new(SlowModel::new(Duration::from_millis(30)));
    let mut server = Server::bind(
        "127.0.0.1:0",
        Arc::clone(&model) as Arc<dyn ServeModel>,
        ServeConfig {
            max_batch: 2,
            max_wait: Duration::from_millis(1),
            replicas: 1,
            conn_workers: 2,
            queue_cap: 3,
        },
    )
    .unwrap();
    let addr = server.local_addr();
    let input_len = model.input_len();

    let shed_before = counter("serve.shed_total");
    let rejected_before = counter("serve.queue_rejected");

    const CLIENTS: usize = 12;
    let barrier = Arc::new(Barrier::new(CLIENTS));
    let mut handles = Vec::new();
    for worker in 0..CLIENTS {
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            let input = vec![worker as f32; input_len];
            barrier.wait();
            let mut answered = 0usize;
            let mut shed = 0usize;
            // two rounds so late arrivals also contend with a full queue
            for _ in 0..2 {
                match client.infer(&input).unwrap() {
                    Reply::Logits(logits) => {
                        // identity check: the echo model tags logits with
                        // the first input value
                        assert_eq!(logits[0], worker as f32, "got another client's response");
                        answered += 1;
                    }
                    Reply::Shed(reason) => {
                        assert!(!reason.is_empty(), "shed frame carries a reason");
                        shed += 1;
                    }
                    Reply::Refused(msg) => panic!("unexpected refusal: {msg}"),
                }
            }
            (answered, shed)
        }));
    }
    let mut answered = 0usize;
    let mut shed = 0usize;
    for handle in handles {
        let (a, s) = handle.join().unwrap();
        answered += a;
        shed += s;
    }

    // zero lost responses: every request resolved to a typed reply
    assert_eq!(answered + shed, CLIENTS * 2);
    assert!(answered > 0, "the server answered nothing");
    assert!(
        shed > 0,
        "12 clients against queue_cap=3 with a 30ms/batch model must shed"
    );
    // the executor never saw more work queued than the bound allows
    assert!(
        model.max_batch_seen.load(Ordering::SeqCst) <= 2,
        "batches exceeded max_batch"
    );
    assert_eq!(
        model.rows.load(Ordering::SeqCst),
        answered,
        "model executed a different number of rows than clients got answers"
    );
    // counters moved by exactly the observed sheds, and rejects == sheds
    // under the Reject policy
    assert_eq!(counter("serve.shed_total") - shed_before, shed as u64);
    assert_eq!(
        counter("serve.queue_rejected") - rejected_before,
        shed as u64
    );
    // bounded depth is also visible on the gauge the dashboard reads
    assert!(metrics::global().gauge("serve.queue_depth").get() <= 3.0);

    server.shutdown();
}

/// Shutdown racing c ≥ 4 active clients: requests admitted before the
/// queue closed are still answered, later ones get a typed "shutting
/// down" refusal, and every connection ends with a goodbye frame — the
/// client-visible close is always explained.
#[test]
fn concurrent_shutdown_drains_and_says_goodbye() {
    let _serial = serial();
    let model = Arc::new(SlowModel::new(Duration::from_millis(10)));
    let mut server = Server::bind(
        "127.0.0.1:0",
        Arc::clone(&model) as Arc<dyn ServeModel>,
        ServeConfig {
            max_batch: 4,
            max_wait: Duration::from_millis(1),
            replicas: 2,
            conn_workers: 2,
            queue_cap: 64,
        },
    )
    .unwrap();
    let addr = server.local_addr();
    let input_len = model.input_len();

    const CLIENTS: usize = 5;
    let mut handles = Vec::new();
    for worker in 0..CLIENTS {
        handles.push(std::thread::spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            let input = vec![worker as f32; input_len];
            let mut answered = 0usize;
            loop {
                match client.infer(&input) {
                    Ok(Reply::Logits(logits)) => {
                        assert_eq!(logits[0], worker as f32);
                        answered += 1;
                    }
                    // admission refusals during drain are typed, not EOFs
                    Ok(Reply::Refused(msg)) => {
                        assert!(msg.contains("shutting down"), "unexpected refusal: {msg}");
                        break;
                    }
                    Ok(Reply::Shed(reason)) => panic!("unexpected shed: {reason}"),
                    // after the drain the server says goodbye and closes;
                    // the client surfaces that as ConnectionAborted
                    Err(e) if e.kind() == std::io::ErrorKind::ConnectionAborted => {
                        return (answered, true);
                    }
                    Err(e) => panic!("connection died without a goodbye: {e}"),
                }
            }
            // refused mid-drain: the goodbye frame must still arrive
            client.expect_goodbye().unwrap();
            (answered, true)
        }));
    }

    // let the clients get a few responses in before pulling the plug
    std::thread::sleep(Duration::from_millis(60));
    server.shutdown();

    let mut answered_total = 0usize;
    for handle in handles {
        let (answered, said_goodbye) = handle.join().unwrap();
        assert!(said_goodbye, "a connection closed without a goodbye frame");
        answered_total += answered;
    }
    // every answered request corresponds to a row the model computed —
    // nothing admitted was dropped, nothing was double-answered
    assert_eq!(model.rows.load(Ordering::SeqCst), answered_total);
    assert!(answered_total > 0, "shutdown raced ahead of all requests");
}

/// `load_generate` against an overloaded server reports sheds in
/// [`LoadStats::shed`] and still completes every request with a typed
/// outcome (no errors).
#[test]
fn load_generate_counts_sheds_separately_from_errors() {
    let _serial = serial();
    let model = Arc::new(SlowModel::new(Duration::from_millis(20)));
    let mut server = Server::bind(
        "127.0.0.1:0",
        Arc::clone(&model) as Arc<dyn ServeModel>,
        ServeConfig {
            max_batch: 2,
            max_wait: Duration::from_millis(1),
            replicas: 1,
            conn_workers: 2,
            queue_cap: 2,
        },
    )
    .unwrap();
    let stats: LoadStats = load_generate(server.local_addr(), 8, 6, model.input_len()).unwrap();
    assert_eq!(stats.errors, 0, "sheds must not be misreported as errors");
    assert!(
        stats.shed > 0,
        "8 closed-loop clients over queue_cap=2 shed"
    );
    assert_eq!(
        stats.requests + stats.shed,
        8 * 6,
        "every request resolved to exactly one outcome"
    );
    server.shutdown();
}

/// A panic inside the model answers its batch with typed errors, logged
/// with outcome `error`, and leaves the replica serving. Shutdown is
/// joined with a timeout: a replica that died with its batch would leave
/// that batch's requests unanswered and shutdown waiting on them forever.
#[test]
fn a_panicking_replica_answers_errors_and_still_shuts_down() {
    let _serial = serial();
    let path = std::env::temp_dir().join(format!("adq_panic_{}.jsonl", std::process::id()));
    let mut server = Server::bind_logged(
        "127.0.0.1:0",
        Arc::new(PanicModel) as Arc<dyn ServeModel>,
        ServeConfig {
            max_batch: 1,
            replicas: 1,
            ..ServeConfig::default()
        },
        Some(AccessLog::create(&path, 4).unwrap()),
    )
    .unwrap();
    let addr = server.local_addr();
    let panics_before = counter("serve.replica_panics");

    let (done, finished) = mpsc::channel();
    let client_thread = std::thread::spawn(move || {
        let mut client = Client::connect(addr).unwrap();
        let poisoned = client.infer(&[PanicModel::POISON; 4]).unwrap();
        let healthy = client.infer(&[1.0; 4]).unwrap();
        client.shutdown_server().unwrap();
        server.wait();
        done.send((poisoned, healthy)).unwrap();
    });
    let (poisoned, healthy) = finished
        .recv_timeout(Duration::from_secs(30))
        .expect("the server answered both requests and shut down");
    client_thread.join().unwrap();

    assert_eq!(poisoned, Reply::Refused("replica panicked".to_string()));
    assert_eq!(
        healthy,
        Reply::Logits(vec![1.0, 2.0, 3.0]),
        "the replica survived its panic"
    );
    assert!(counter("serve.replica_panics") > panics_before);
    let view = lifecycle::read_records(&path).unwrap();
    let outcomes: Vec<_> = view.records.iter().map(|r| r.outcome.as_str()).collect();
    assert_eq!(outcomes, [lifecycle::OUTCOME_ERROR, lifecycle::OUTCOME_OK]);
    assert_eq!(view.records[0].replica, Some(0));
    let _ = std::fs::remove_file(&path);
}
