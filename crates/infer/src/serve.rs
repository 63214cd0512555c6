//! Scaled-out TCP serving front-end for bit-packed integer inference.
//!
//! Three fixed-size thread pools replace PR-8's thread-per-connection /
//! single-batcher design:
//!
//! - an **accept thread** owns the listener and hands accepted sockets to
//!   a shared injector queue;
//! - a pool of [`ServeConfig::conn_workers`] **connection workers**
//!   multiplexes all sockets with non-blocking reads behind a small
//!   `poll(2)` readiness loop (no external deps — the raw syscall via an
//!   `extern "C"` declaration on Unix, a short-sleep scan elsewhere).
//!   Workers decode frames incrementally, answer control frames inline,
//!   and push inference work onto the request queue;
//! - [`ServeConfig::replicas`] **replica executors** pop coalesced
//!   batches off the queue and run them through a *shared*
//!   [`ServeModel`] (an `Arc` clone per replica — packed weights are
//!   shared, while each replica thread gets its own thread-keyed scratch
//!   arena and staging buffers), writing responses straight back to each
//!   request's connection. Batches therefore execute concurrently across
//!   replicas.
//!
//! The request queue is **bounded** ([`ServeConfig::queue_cap`]). When it
//! is full, admission control refuses the newcomer with a 503-style shed
//! frame and leaves queued work untouched, so the server's memory is
//! bounded and overload degrades into explicit, typed shed responses
//! instead of unbounded queue growth.
//!
//! ## Wire protocol
//!
//! Every frame is `u32` little-endian payload length, then the payload.
//! Request payload: `[kind: u8][id: u64 LE][n: u32 LE][n × f32 LE]`
//! with kinds `1` = infer (`n` = flattened input length), `2` = ping,
//! `3` = shutdown (honoured from loopback peers only; anyone else gets
//! status `1`). Response payload: `[status: u8][id: u64 LE]
//! [n: u32 LE][body]`; status `0` carries `n × f32 LE` logits, status `1`
//! carries a UTF-8 error message, status `2` is a shed/overload refusal
//! (UTF-8 reason), and status `3` is a **goodbye** frame the server sends
//! on every connection right before closing it during shutdown — a client
//! never sees an unexplained EOF mid-request.
//!
//! The high bit of the kind byte (`FLAG_TRACED`) is a version-tolerant
//! tracing opt-in: every reply to a request that sets it carries an
//! 8-byte LE **trace id** trailer after the body, whatever the kind and
//! status. An infer reply's trailer is the server-assigned trace id,
//! which lets the client join its latency against the server's
//! access-log record for the same request; replies that get no record
//! (ping, shutdown, unknown kinds, malformed frames) carry trace id 0,
//! which no request is assigned. Clients that never set the bit get
//! byte-identical responses to the pre-tracing protocol. A pre-tracing
//! server answers a flagged kind with a typed `unknown request kind`
//! error and no trailer, so a tracing client takes the message's last 8
//! bytes for one: it sees a refusal cut short by 8 bytes, with a
//! meaningless trace id.
//!
//! Server and [`Client`] share one codec (the "wire codec" section
//! below): `encode_frame` builds every frame as one buffer, `FrameReader`
//! is the only decoder and checks the 16 MiB frame cap, and
//! `parse_request`/`parse_response` map malformed payloads to `WireError`.
//!
//! ## Observability
//!
//! `serve.queue_depth` / `serve.inflight` / `serve.replicas` /
//! `serve.conn_workers` / `serve.queue_cap` gauges; `serve.batch_size`,
//! `serve.latency_ns` (enqueue → response written) and
//! `serve.batch_run_ns` histograms plus a per-replica
//! `serve.replica{i}.batch_run_ns`; `serve.requests` / `serve.errors` /
//! `serve.shed_total` / `serve.replica_panics` counters — all through the
//! global [`adq_telemetry::metrics`] registry, so a `MetricsEndpoint` in
//! the same process exposes them to Prometheus and `adq-watch --scrape`.
//!
//! Every request additionally gets monotonic stage stamps (frame-read →
//! admit → dequeue → batch-formed → replica-exec → response-written)
//! feeding the `serve.stage.{queue_wait,batch_wait,exec,write}_ns`
//! histograms, so a `serve.latency_ns` tail can be attributed to queue
//! wait vs. batch formation vs. execution vs. the socket write. With
//! [`Server::bind_logged`] the same stamps become one
//! [`RequestRecord`] per request
//! (trace id, conn id, replica, batch size, stage deltas, outcome:
//! `ok`/`shed`/`error`/`goodbye-refused`) in a JSONL access log
//! ([`adq_telemetry::lifecycle::AccessLog`]) for `adq-report --serving`
//! and `adq-watch --access-log`; `serve.access_log.{records,dropped,
//! write_errors}` count the log's own health. Logging is observation-only
//! by contract — access log on vs. off yields byte-identical responses
//! (`tests/access_log.rs` enforces it).

use std::collections::VecDeque;
use std::fmt;
use std::io::{self, Read, Write};
use std::net::{IpAddr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use adq_telemetry::lifecycle::{
    exact_quantile_ns, AccessLog, AccessLogHandle, RequestRecord, OUTCOME_ERROR,
    OUTCOME_GOODBYE_REFUSED, OUTCOME_OK, OUTCOME_SHED,
};
use adq_telemetry::metrics;
use adq_telemetry::span;
use adq_tensor::Tensor;

use crate::compile::CompiledNet;

/// Request kind: run inference on one flattened image.
const KIND_INFER: u8 = 1;
/// Request kind: liveness check, echoes an empty OK.
const KIND_PING: u8 = 2;
/// Request kind: stop the server after draining the queue.
const KIND_SHUTDOWN: u8 = 3;

/// High bit of the kind byte: the client opts into tracing, and the
/// response carries a trace id as an 8-byte LE trailer after the body
/// (the server-assigned id, or [`UNLOGGED_TRACE_ID`]). Old servers
/// reject flagged kinds with a typed error; old clients never set the
/// bit and see the unchanged protocol.
const FLAG_TRACED: u8 = 0x80;

/// Mask selecting the request kind under [`FLAG_TRACED`].
const KIND_MASK: u8 = 0x7F;

/// The trace-id trailer of a reply to a flagged request that gets no
/// access-log record. Assigned ids start at 1.
const UNLOGGED_TRACE_ID: u64 = 0;

/// Response status: success, payload carries logits.
const STATUS_OK: u8 = 0;
/// Response status: failure, payload carries a UTF-8 message.
const STATUS_ERR: u8 = 1;
/// Response status: request shed by admission control (503-style).
const STATUS_SHED: u8 = 2;
/// Response status: server is closing this connection (shutdown).
const STATUS_GOODBYE: u8 = 3;

/// Upper bound on accepted frame payloads (guards the length prefix).
const MAX_FRAME: usize = 16 << 20;

/// Readiness-poll timeout: bounds new-connection pickup and shutdown
/// observation latency without burning CPU when idle.
const POLL_TIMEOUT_MS: i32 = 2;

/// How long a blocked response write may retry before the connection is
/// declared dead (a client that stops reading must not wedge a worker).
const WRITE_STALL_LIMIT: Duration = Duration::from_secs(2);

// ---- readiness ----------------------------------------------------------

/// Minimal `poll(2)` wrapper. Std already links libc on every Unix
/// target, so declaring the symbol adds no dependency.
#[cfg(unix)]
mod readiness {
    use std::os::unix::io::RawFd;

    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    const POLLIN: i16 = 0x001;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: u64, timeout: i32) -> i32;
    }

    /// Indices of `fds` with pending events (readable, hung up, or
    /// errored — all of which a subsequent `read` surfaces) within
    /// `timeout_ms`. An empty `fds` just sleeps out the timeout.
    pub fn ready(fds: &[RawFd], timeout_ms: i32) -> Vec<usize> {
        if fds.is_empty() {
            std::thread::sleep(std::time::Duration::from_millis(timeout_ms.max(0) as u64));
            return Vec::new();
        }
        let mut pollfds: Vec<PollFd> = fds
            .iter()
            .map(|&fd| PollFd {
                fd,
                events: POLLIN,
                revents: 0,
            })
            .collect();
        let rc = unsafe { poll(pollfds.as_mut_ptr(), pollfds.len() as u64, timeout_ms) };
        if rc <= 0 {
            return Vec::new();
        }
        pollfds
            .iter()
            .enumerate()
            .filter(|(_, p)| p.revents != 0)
            .map(|(i, _)| i)
            .collect()
    }
}

/// Portable fallback: report every socket as possibly-readable after a
/// short sleep; the non-blocking reads then sort out who actually was.
#[cfg(not(unix))]
mod readiness {
    pub type RawFd = i32;

    pub fn ready(fds: &[RawFd], timeout_ms: i32) -> Vec<usize> {
        std::thread::sleep(std::time::Duration::from_millis(timeout_ms.max(1) as u64));
        (0..fds.len()).collect()
    }
}

// ---- model abstraction --------------------------------------------------

/// What the serving layer needs from a model: shape metadata and a
/// batched forward pass. [`CompiledNet`], a compiled VGG or ResNet, is
/// the production implementation; tests substitute slow or synthetic
/// stubs to exercise overload behavior without real kernels.
pub trait ServeModel: Send + Sync {
    /// Expected input shape as `(channels, height/width)`.
    fn input_shape(&self) -> (usize, usize);
    /// Number of output classes (logits per image).
    fn classes(&self) -> usize;
    /// Batched forward pass: `[N, C, H, W]` images to `[N, classes]`
    /// logits.
    fn run(&self, images: &Tensor) -> Tensor;
    /// Flattened input length of one image.
    fn input_len(&self) -> usize {
        let (c, hw) = self.input_shape();
        c * hw * hw
    }
}

impl ServeModel for CompiledNet {
    fn input_shape(&self) -> (usize, usize) {
        CompiledNet::input_shape(self)
    }

    fn classes(&self) -> usize {
        CompiledNet::classes(self)
    }

    fn run(&self, images: &Tensor) -> Tensor {
        CompiledNet::run(self, images)
    }
}

// ---- configuration ------------------------------------------------------

/// Batching, pooling and admission knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Most requests coalesced into one model invocation.
    pub max_batch: usize,
    /// Longest the oldest queued request waits for company. Zero runs
    /// whatever is queued as soon as a replica is free.
    pub max_wait: Duration,
    /// Fixed number of connection workers multiplexing all sockets.
    pub conn_workers: usize,
    /// Model replicas executing batches in parallel. Replicas share the
    /// packed weights (`Arc` clones); each gets its own executor thread,
    /// thread-keyed scratch, and `serve.replica{i}.batch_run_ns`
    /// histogram.
    pub replicas: usize,
    /// Bound on queued (admitted, not yet executing) requests; a request
    /// that finds the queue full is refused with a shed frame.
    pub queue_cap: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        // Concurrent closed-loop clients re-enqueue within microseconds of
        // each other (their previous responses complete together), so a
        // short gather window coalesces full batches without taxing the
        // lightly-loaded case a long deadline would. A zero window cuts a
        // lone request's round trip about fivefold (serve-c1 p50 0.78 →
        // 0.15–0.17 ms, one closed-loop client, 2-vCPU Xeon VM). What
        // blocks it is the benchmark's load client, which keeps one
        // latency per answer: the faster answers raised serve-c1's peak
        // RSS from 7.1 to 11.8–12.3 MB, over its 15% bound. Bounding the
        // client's memory comes first (ROADMAP item 2).
        Self {
            max_batch: 8,
            max_wait: Duration::from_micros(500),
            conn_workers: 2,
            replicas: 1,
            queue_cap: 256,
        }
    }
}

// ---- shared state -------------------------------------------------------

/// Write half of a connection, shared between the worker that reads the
/// socket and the executors that answer its requests. `inflight` counts
/// admitted-but-unanswered requests; shutdown only closes a connection
/// once it reaches zero, so no admitted request ever loses its response.
#[derive(Clone)]
struct ConnWriter {
    stream: Arc<Mutex<TcpStream>>,
    inflight: Arc<AtomicUsize>,
    dead: Arc<AtomicBool>,
}

impl ConnWriter {
    fn new(stream: TcpStream) -> Self {
        Self {
            stream: Arc::new(Mutex::new(stream)),
            inflight: Arc::new(AtomicUsize::new(0)),
            dead: Arc::new(AtomicBool::new(false)),
        }
    }

    /// Writes one response frame, retrying `WouldBlock` with short sleeps
    /// up to [`WRITE_STALL_LIMIT`]; a connection that stays unwritable is
    /// marked dead and silently dropped from then on. `trace` appends the
    /// trace-id trailer for clients that set [`FLAG_TRACED`].
    fn send(&self, status: u8, id: u64, body: Body<'_>, trace: Option<u64>) {
        if self.dead.load(Ordering::Relaxed) {
            return;
        }
        let frame = encode_frame(status, id, body, trace);
        let mut stream = self.stream.lock().expect("conn writer lock");
        let mut written = 0usize;
        let started = Instant::now();
        while written < frame.len() {
            match stream.write(&frame[written..]) {
                Ok(0) => {
                    self.dead.store(true, Ordering::Relaxed);
                    return;
                }
                Ok(n) => written += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if started.elapsed() > WRITE_STALL_LIMIT {
                        self.dead.store(true, Ordering::Relaxed);
                        return;
                    }
                    std::thread::sleep(Duration::from_micros(100));
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.dead.store(true, Ordering::Relaxed);
                    return;
                }
            }
        }
        let _ = stream.flush();
    }

    /// Sends the shutdown goodbye, the last frame a connection gets.
    fn goodbye(&self) {
        self.send(STATUS_GOODBYE, 0, Body::Text("server shutting down"), None);
    }
}

/// Saturating `Duration` → nanoseconds for metric/record fields.
fn ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// One admitted inference request, with its lifecycle stamps so far.
struct Pending {
    input: Vec<f32>,
    /// Frame fully read off the socket (lifecycle origin).
    received: Instant,
    /// Handed to admission control (queue-wait origin).
    enqueued: Instant,
    id: u64,
    /// Server-assigned trace id (unique per server).
    trace_id: u64,
    /// Whether the client opted into the trace-id response trailer.
    traced: bool,
    /// Accept-order id of the connection the request arrived on.
    conn_id: u64,
    writer: ConnWriter,
}

#[derive(Default)]
struct Queue {
    items: VecDeque<Pending>,
    /// Set once; executors drain what is queued, then exit.
    closed: bool,
}

/// Why an inference request is answered without running.
enum Refusal {
    /// Wrong length or a non-finite value; never offered to the queue.
    Invalid(&'static str),
    /// Bounced off a full queue.
    QueueFull,
    /// Offered after the queue closed for shutdown.
    Closed,
}

/// The access-log fields a request's path decides: where it ran, its
/// stage times, the queue depth seen. Stages a refusal skipped stay zero.
#[derive(Default)]
struct Stages {
    replica: Option<u64>,
    batch_size: Option<u64>,
    queue_wait_ns: u64,
    batch_wait_ns: u64,
    exec_ns: u64,
    write_ns: u64,
    queue_depth: u64,
}

struct Shared {
    queue: Mutex<Queue>,
    wake: Condvar,
    shutdown: AtomicBool,
    /// Executors still running; conn workers may only say goodbye and
    /// close once this reaches zero (all admitted work answered).
    executors_live: AtomicUsize,
    config: ServeConfig,
    addr: SocketAddr,
    input_len: usize,
    /// Source of per-server trace ids (first id is 1). Per-server — not
    /// process-global — so a server's id sequence is deterministic given
    /// its request sequence (the byte-identity contract test relies on
    /// this).
    trace_counter: AtomicU64,
    /// Producer half of the access log, when one is attached.
    log: Option<AccessLogHandle>,
    /// Server start, the zero point for record `ts_ns` ordering stamps.
    started: Instant,
    requests: Arc<metrics::Counter>,
    errors: Arc<metrics::Counter>,
    shed_total: Arc<metrics::Counter>,
}

impl Shared {
    fn next_trace_id(&self) -> u64 {
        self.trace_counter.fetch_add(1, Ordering::Relaxed) + 1
    }

    fn queue_cap(&self) -> u64 {
        self.config.queue_cap.max(1) as u64
    }

    /// Logs `pending`'s access-log record, when a log is attached.
    /// `written` is the response-written stamp, so `total_ns` spans
    /// frame-read → response-written for every outcome.
    fn log(&self, pending: &Pending, outcome: &str, written: Instant, stages: Stages) {
        let Some(log) = &self.log else { return };
        log.record(RequestRecord {
            trace_id: pending.trace_id,
            conn_id: pending.conn_id,
            replica: stages.replica,
            batch_size: stages.batch_size,
            outcome: outcome.to_string(),
            admit_ns: ns(pending.enqueued.saturating_duration_since(pending.received)),
            queue_wait_ns: stages.queue_wait_ns,
            batch_wait_ns: stages.batch_wait_ns,
            exec_ns: stages.exec_ns,
            write_ns: stages.write_ns,
            total_ns: ns(written.saturating_duration_since(pending.received)),
            queue_depth: stages.queue_depth,
            queue_cap: self.queue_cap(),
            ts_ns: ns(self.started.elapsed()),
        });
    }

    /// The one exit for an inference request that will not run: counts
    /// it, answers it with a typed refusal, logs its record and releases
    /// its inflight slot.
    fn refuse(&self, pending: Pending, refusal: Refusal) {
        let cap = self.queue_cap();
        let (status, reason, outcome, queue_depth) = match refusal {
            Refusal::Invalid(reason) => (STATUS_ERR, reason, OUTCOME_ERROR, 0),
            Refusal::Closed => (STATUS_ERR, "shutting down", OUTCOME_GOODBYE_REFUSED, 0),
            Refusal::QueueFull => (STATUS_SHED, "queue full, try later", OUTCOME_SHED, cap),
        };
        // the one shed is a full queue's rejection
        if status == STATUS_SHED {
            self.shed_total.inc();
        } else {
            self.errors.inc();
        }
        let trace = pending.traced.then_some(pending.trace_id);
        pending
            .writer
            .send(status, pending.id, Body::Text(reason), trace);
        let stages = Stages {
            queue_depth,
            ..Stages::default()
        };
        self.log(&pending, outcome, Instant::now(), stages);
        pending.writer.inflight.fetch_sub(1, Ordering::SeqCst);
    }

    fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let mut q = self.queue.lock().expect("serve queue lock");
        q.closed = true;
        drop(q);
        self.wake.notify_all();
    }

    /// Bounded-queue admission control: admits `pending` unless the
    /// queue is closed or full, and otherwise hands it back with the
    /// refusal it gets.
    fn offer(&self, pending: Pending) -> Option<(Pending, Refusal)> {
        let mut q = self.queue.lock().expect("serve queue lock");
        if q.closed {
            return Some((pending, Refusal::Closed));
        }
        if q.items.len() >= self.config.queue_cap.max(1) {
            return Some((pending, Refusal::QueueFull));
        }
        q.items.push_back(pending);
        metrics::global()
            .gauge("serve.queue_depth")
            .set(q.items.len() as f64);
        drop(q);
        self.wake.notify_all();
        None
    }
}

// ---- server -------------------------------------------------------------

/// A running inference server. Dropping without [`Server::shutdown`]
/// leaks the service threads; tests and binaries should shut down
/// explicitly.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_handle: Option<JoinHandle<()>>,
    worker_handles: Vec<JoinHandle<()>>,
    executor_handles: Vec<JoinHandle<()>>,
    /// Owned so the summary line is written after every producer thread
    /// has been joined (no record can race the close).
    access_log: Option<AccessLog>,
}

impl Server {
    /// Binds `addr` (use port 0 for an OS-assigned port) and starts the
    /// accept loop, the connection-worker pool, and one executor thread
    /// per model replica.
    ///
    /// # Errors
    ///
    /// Returns any socket-level error from binding.
    pub fn bind(
        addr: impl ToSocketAddrs,
        model: Arc<dyn ServeModel>,
        config: ServeConfig,
    ) -> io::Result<Server> {
        Self::bind_logged(addr, model, config, None)
    }

    /// [`Server::bind`] with an optional JSONL access log attached: one
    /// [`RequestRecord`] per request flows through the log's writer
    /// thread, and shutdown closes the log (summary line + flush) after
    /// the service threads have joined. Logging is observation-only —
    /// responses are byte-identical with and without it.
    ///
    /// # Errors
    ///
    /// Returns any socket-level error from binding.
    pub fn bind_logged(
        addr: impl ToSocketAddrs,
        model: Arc<dyn ServeModel>,
        config: ServeConfig,
        access_log: Option<AccessLog>,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let conn_workers = config.conn_workers.max(1);
        let replicas = config.replicas.max(1);
        // register the serving metrics eagerly so a scrape sees the full
        // dashboard (zeros included) before the first overload
        let m = metrics::global();
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue::default()),
            wake: Condvar::new(),
            shutdown: AtomicBool::new(false),
            executors_live: AtomicUsize::new(replicas),
            config,
            addr: local,
            input_len: model.input_len(),
            trace_counter: AtomicU64::new(0),
            log: access_log.as_ref().map(AccessLog::handle),
            started: Instant::now(),
            requests: m.counter("serve.requests"),
            errors: m.counter("serve.errors"),
            shed_total: m.counter("serve.shed_total"),
        });
        m.counter("serve.replica_panics");
        m.counter("serve.access_log.records");
        m.counter("serve.access_log.dropped");
        m.counter("serve.access_log.write_errors");
        m.histogram("serve.stage.queue_wait_ns");
        m.histogram("serve.stage.batch_wait_ns");
        m.histogram("serve.stage.exec_ns");
        m.histogram("serve.stage.write_ns");
        m.gauge("serve.queue_depth").set(0.0);
        m.gauge("serve.inflight").set(0.0);
        m.gauge("serve.replicas").set(replicas as f64);
        m.gauge("serve.conn_workers").set(conn_workers as f64);
        m.gauge("serve.queue_cap")
            .set(config.queue_cap.max(1) as f64);

        let injector: Arc<Mutex<VecDeque<Conn>>> = Arc::new(Mutex::new(VecDeque::new()));

        let accept_shared = Arc::clone(&shared);
        let accept_injector = Arc::clone(&injector);
        let accept_handle = std::thread::Builder::new()
            .name("adq-serve-accept".into())
            .spawn(move || accept_loop(listener, accept_injector, accept_shared))
            .expect("spawn accept thread");

        let mut worker_handles = Vec::with_capacity(conn_workers);
        for i in 0..conn_workers {
            let worker_shared = Arc::clone(&shared);
            let worker_injector = Arc::clone(&injector);
            worker_handles.push(
                std::thread::Builder::new()
                    .name(format!("adq-serve-conn{i}"))
                    .spawn(move || conn_worker_loop(worker_shared, worker_injector))
                    .expect("spawn connection worker"),
            );
        }

        let exec_inflight = Arc::new(AtomicUsize::new(0));
        let mut executor_handles = Vec::with_capacity(replicas);
        for i in 0..replicas {
            let exec_shared = Arc::clone(&shared);
            let exec_model = Arc::clone(&model);
            let exec_count = Arc::clone(&exec_inflight);
            executor_handles.push(
                std::thread::Builder::new()
                    .name(format!("adq-serve-exec{i}"))
                    .spawn(move || executor_loop(exec_model, exec_shared, exec_count, i))
                    .expect("spawn replica executor"),
            );
        }

        Ok(Server {
            addr: local,
            shared,
            accept_handle: Some(accept_handle),
            worker_handles,
            executor_handles,
            access_log,
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Whether a shutdown has been requested (locally or over the wire).
    pub fn shutting_down(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// Stops accepting, drains admitted requests, sends a goodbye frame
    /// on every open connection, and joins all service threads.
    pub fn shutdown(&mut self) {
        self.shared.request_shutdown();
        // unblock the accept loop with a wake-up connection
        let _ = TcpStream::connect(self.addr);
        self.join_all();
    }

    /// Parks the caller until the service threads exit (a remote
    /// shutdown frame, or a prior [`Server::shutdown`]).
    pub fn wait(&mut self) {
        self.join_all();
    }

    fn join_all(&mut self) {
        if let Some(handle) = self.accept_handle.take() {
            let _ = handle.join();
        }
        for handle in self.executor_handles.drain(..) {
            let _ = handle.join();
        }
        for handle in self.worker_handles.drain(..) {
            let _ = handle.join();
        }
        // every producer thread is gone; drain + summarise the log
        if let Some(log) = self.access_log.take() {
            log.close();
        }
    }
}

fn accept_loop(listener: TcpListener, injector: Arc<Mutex<VecDeque<Conn>>>, shared: Arc<Shared>) {
    let mut next_conn_id = 0u64;
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        stream.set_nodelay(true).ok();
        if stream.set_nonblocking(true).is_err() {
            continue;
        }
        let Ok(write_half) = stream.try_clone() else {
            continue;
        };
        next_conn_id += 1;
        injector
            .lock()
            .expect("conn injector lock")
            .push_back(Conn::new(stream, ConnWriter::new(write_half), next_conn_id));
    }
}

// ---- connection workers -------------------------------------------------

/// One multiplexed connection, owned by exactly one worker.
struct Conn {
    stream: TcpStream,
    reader: FrameReader,
    writer: ConnWriter,
    /// Accept-order id, carried into access-log records.
    conn_id: u64,
    alive: bool,
}

impl Conn {
    fn new(stream: TcpStream, writer: ConnWriter, conn_id: u64) -> Self {
        Self {
            stream,
            reader: FrameReader::default(),
            writer,
            conn_id,
            alive: true,
        }
    }
}

/// A connection worker: adopts sockets from the injector, polls the ones
/// it owns for readability, decodes frames, answers control frames
/// inline, and routes inference frames through admission control.
fn conn_worker_loop(shared: Arc<Shared>, injector: Arc<Mutex<VecDeque<Conn>>>) {
    let mut conns: Vec<Conn> = Vec::new();
    loop {
        // adopt newly accepted connections (work-stealing: whichever
        // worker gets there first takes the front one)
        if let Some(conn) = injector.lock().expect("conn injector lock").pop_front() {
            conns.push(conn);
        }

        if shared.shutdown.load(Ordering::SeqCst) {
            // drain phase: keep answering frames (queued work is still
            // completing) until every executor has exited and all of this
            // worker's connections have no response outstanding — then
            // each gets a typed goodbye instead of a bare EOF.
            if shared.executors_live.load(Ordering::SeqCst) == 0 {
                // an idle conn gets its goodbye; dropping it closes the
                // socket after the goodbye frame
                conns.retain(|conn| {
                    let busy = conn.writer.inflight.load(Ordering::SeqCst) > 0;
                    if !busy {
                        conn.writer.goodbye();
                    }
                    busy
                });
                if conns.is_empty() {
                    // one worker may still hold injected conns nobody
                    // adopted; they get goodbyes from whoever adopts them
                    let mut inj = injector.lock().expect("conn injector lock");
                    while let Some(conn) = inj.pop_front() {
                        conn.writer.goodbye();
                    }
                    return;
                }
            }
        }

        #[cfg(unix)]
        let fds: Vec<std::os::unix::io::RawFd> = {
            use std::os::unix::io::AsRawFd;
            conns.iter().map(|c| c.stream.as_raw_fd()).collect()
        };
        #[cfg(not(unix))]
        let fds: Vec<readiness::RawFd> = (0..conns.len() as i32).collect();

        for idx in readiness::ready(&fds, POLL_TIMEOUT_MS) {
            let conn = &mut conns[idx];
            // drain the socket into the frame buffer
            let mut scratch = [0u8; 16 * 1024];
            loop {
                match conn.stream.read(&mut scratch) {
                    Ok(0) => {
                        conn.alive = false;
                        break;
                    }
                    Ok(n) => conn.reader.push(&scratch[..n]),
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        conn.alive = false;
                        break;
                    }
                }
            }
            // process every complete frame
            loop {
                let frame = match conn.reader.next_frame() {
                    Ok(Some(frame)) => frame,
                    Ok(None) => break,
                    Err(e) => {
                        // an oversized length prefix: the stream has lost
                        // its framing, so say why and close it
                        shared.errors.inc();
                        conn.writer
                            .send(STATUS_ERR, 0, Body::Text(&e.to_string()), None);
                        conn.alive = false;
                        break;
                    }
                };
                handle_frame(&frame, conn, &shared);
            }
        }
        conns.retain(|c| c.alive && !c.writer.dead.load(Ordering::Relaxed));
    }
}

/// Whether a peer at `ip` may stop the server: loopback only, over IPv4,
/// IPv6 or IPv4-mapped IPv6.
fn may_stop(ip: IpAddr) -> bool {
    ip.to_canonical().is_loopback()
}

/// Handles one decoded request frame on a worker thread.
fn handle_frame(frame: &[u8], conn: &mut Conn, shared: &Shared) {
    // frame-read stamp: the request is fully off the socket
    let received = Instant::now();
    let Ok((kind, traced, id, input)) = parse_request(frame) else {
        // unparseable bytes carry no id and get no lifecycle record; a
        // readable kind byte still says whether to append the trailer
        shared.errors.inc();
        let traced = frame.first().is_some_and(|head| head & FLAG_TRACED != 0);
        let trace = traced.then_some(UNLOGGED_TRACE_ID);
        conn.writer
            .send(STATUS_ERR, 0, Body::Text("malformed frame"), trace);
        return;
    };
    // what a reply without an access-log record appends
    let unlogged = traced.then_some(UNLOGGED_TRACE_ID);
    match kind {
        KIND_PING => conn.writer.send(STATUS_OK, id, Body::Floats(&[]), unlogged),
        KIND_SHUTDOWN => {
            if !conn
                .stream
                .peer_addr()
                .is_ok_and(|peer| may_stop(peer.ip()))
            {
                shared.errors.inc();
                let body = Body::Text("shutdown is only accepted from loopback");
                conn.writer.send(STATUS_ERR, id, body, unlogged);
                return;
            }
            conn.writer.send(STATUS_OK, id, Body::Floats(&[]), unlogged);
            shared.request_shutdown();
            // wake the accept loop so it can observe the flag
            let _ = TcpStream::connect(shared.addr);
        }
        KIND_INFER => {
            shared.requests.inc();
            // a NaN or infinity would otherwise encode to an ordinary code
            // and come back as an ordinary prediction
            let invalid = if input.len() != shared.input_len {
                Some("bad input length")
            } else if input.iter().any(|v| !v.is_finite()) {
                Some("non-finite input")
            } else {
                None
            };
            let mut pending = Pending {
                input,
                received,
                // an invalid request never reaches admission: no admit stage
                enqueued: received,
                id,
                trace_id: shared.next_trace_id(),
                traced,
                conn_id: conn.conn_id,
                writer: conn.writer.clone(),
            };
            pending.writer.inflight.fetch_add(1, Ordering::SeqCst);
            if let Some(reason) = invalid {
                shared.refuse(pending, Refusal::Invalid(reason));
                return;
            }
            pending.enqueued = Instant::now();
            if let Some((refused, why)) = shared.offer(pending) {
                shared.refuse(refused, why);
            }
        }
        _ => {
            shared.errors.inc();
            let body = Body::Text("unknown request kind");
            conn.writer.send(STATUS_ERR, id, body, unlogged);
        }
    }
}

// ---- replica executors --------------------------------------------------

#[cfg(target_os = "linux")]
extern "C" {
    fn prctl(option: i32, ...) -> i32;
}

#[cfg(target_os = "linux")]
const PR_SET_TIMERSLACK: i32 = 29;

/// Sets the calling thread's timer slack to 1 ns. Linux lets a timed
/// wait overshoot by up to the thread's slack, 50 µs by default, which a
/// gather window of a few hundred µs would otherwise add to every batch.
#[cfg(target_os = "linux")]
fn tighten_timer_slack() {
    // SAFETY: PR_SET_TIMERSLACK reads one unsigned long and changes only
    // the calling thread's slack; on failure the default stays.
    unsafe { prctl(PR_SET_TIMERSLACK, 1 as std::ffi::c_ulong) };
}

#[cfg(not(target_os = "linux"))]
fn tighten_timer_slack() {}

/// One replica's executor: coalesces up to `max_batch` admitted requests
/// (or whatever arrived when the oldest request's deadline expires), runs
/// a single batched inference on the shared model, and writes each
/// response straight to its connection.
fn executor_loop(
    model: Arc<dyn ServeModel>,
    shared: Arc<Shared>,
    exec_inflight: Arc<AtomicUsize>,
    replica: usize,
) {
    tighten_timer_slack();
    let config = shared.config;
    let max_batch = config.max_batch.max(1);
    let queue_depth = metrics::global().gauge("serve.queue_depth");
    let inflight = metrics::global().gauge("serve.inflight");
    let batch_sizes =
        metrics::global().histogram_with_bounds("serve.batch_size", &[1, 2, 4, 8, 16, 32, 64, 128]);
    let latency = metrics::global().histogram("serve.latency_ns");
    let batch_run = metrics::global().histogram("serve.batch_run_ns");
    let replica_run = metrics::global().histogram(&format!("serve.replica{replica}.batch_run_ns"));
    let stage_queue_wait = metrics::global().histogram("serve.stage.queue_wait_ns");
    let stage_batch_wait = metrics::global().histogram("serve.stage.batch_wait_ns");
    let stage_exec = metrics::global().histogram("serve.stage.exec_ns");
    let stage_write = metrics::global().histogram("serve.stage.write_ns");
    let replica_panics = metrics::global().counter("serve.replica_panics");

    loop {
        let (batch, claim, depth_after): (Vec<Pending>, Instant, u64) = {
            let mut q = shared.queue.lock().expect("serve queue lock");
            // wait for the first request (or close)
            while q.items.is_empty() && !q.closed {
                let (guard, _) = shared
                    .wake
                    .wait_timeout(q, Duration::from_millis(50))
                    .expect("serve queue lock");
                q = guard;
            }
            if q.items.is_empty() && q.closed {
                break;
            }
            // dequeue stamp: this replica claimed the queue front and the
            // batch-formation window (the gather below) begins
            let claim = Instant::now();
            // give the oldest request's deadline a chance to gather company
            let deadline = q.items.front().expect("non-empty").enqueued + config.max_wait;
            while q.items.len() < max_batch && !q.closed {
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                let (guard, _) = shared
                    .wake
                    .wait_timeout(q, deadline - now)
                    .expect("serve queue lock");
                q = guard;
                // another replica may have drained the queue while we
                // gathered; go back to the outer wait instead of spinning
                if q.items.is_empty() {
                    break;
                }
            }
            let take = q.items.len().min(max_batch);
            let batch: Vec<Pending> = q.items.drain(..take).collect();
            queue_depth.set(q.items.len() as f64);
            (batch, claim, q.items.len() as u64)
        };
        if batch.is_empty() {
            continue;
        }

        let _span = span::span("serve.batch");
        // batch-formed stamp: gathering is over, execution starts
        let started = Instant::now();
        inflight.set(
            exec_inflight.fetch_add(batch.len(), Ordering::SeqCst) as f64 + batch.len() as f64,
        );
        batch_sizes.record(batch.len() as u64);

        let (c, hw) = model.input_shape();
        let input_len = model.input_len();
        let mut images = Tensor::zeros(&[batch.len(), c, hw, hw]);
        for (i, pending) in batch.iter().enumerate() {
            images.data_mut()[i * input_len..(i + 1) * input_len].copy_from_slice(&pending.input);
        }
        // A panicking model must not take the replica down with it: the
        // batch's requests would never be answered and shutdown, which
        // waits for them, would never finish.
        let logits = panic::catch_unwind(AssertUnwindSafe(|| model.run(&images))).ok();
        if logits.is_none() {
            replica_panics.inc();
        }
        let classes = model.classes();
        let run_ns = ns(started.elapsed());
        batch_run.record(run_ns);
        replica_run.record(run_ns);

        // replica-exec done: tensor assembly + integer GEMMs + requant
        let done = Instant::now();
        let exec_ns = ns(done.saturating_duration_since(started));
        let taken = batch.len();
        for (i, pending) in batch.into_iter().enumerate() {
            // a request that arrived mid-gather was never waiting on the
            // queue: clamp its dequeue stamp into [enqueued, started]
            let dequeue = claim.clamp(pending.enqueued, started);
            let queue_wait_ns = ns(dequeue.saturating_duration_since(pending.enqueued));
            let batch_wait_ns = ns(started.saturating_duration_since(dequeue));
            let write_from = Instant::now();
            let (status, body, outcome) = match &logits {
                Some(logits) => {
                    let row = &logits.data()[i * classes..(i + 1) * classes];
                    (STATUS_OK, Body::Floats(row), OUTCOME_OK)
                }
                None => {
                    shared.errors.inc();
                    (STATUS_ERR, Body::Text("replica panicked"), OUTCOME_ERROR)
                }
            };
            // a disconnected client just drops its response
            let trace = pending.traced.then_some(pending.trace_id);
            pending.writer.send(status, pending.id, body, trace);
            let written = Instant::now();
            let write_ns = ns(written.saturating_duration_since(write_from));
            stage_queue_wait.record(queue_wait_ns);
            stage_batch_wait.record(batch_wait_ns);
            stage_exec.record(exec_ns);
            stage_write.record(write_ns);
            latency.record(ns(written.saturating_duration_since(pending.enqueued)));
            let stages = Stages {
                replica: Some(replica as u64),
                batch_size: Some(taken as u64),
                queue_wait_ns,
                batch_wait_ns,
                exec_ns,
                write_ns,
                queue_depth: depth_after,
            };
            shared.log(&pending, outcome, written, stages);
            pending.writer.inflight.fetch_sub(1, Ordering::SeqCst);
        }
        inflight.set(exec_inflight.fetch_sub(taken, Ordering::SeqCst) as f64 - taken as f64);
    }
    // last executor out wakes its peers so they observe the close too
    shared.executors_live.fetch_sub(1, Ordering::SeqCst);
    shared.wake.notify_all();
}

// ---- wire codec ---------------------------------------------------------

/// Payload header: kind or status byte, `u64` id, `u32` count.
const HEADER_LEN: usize = 13;

/// A malformed frame or payload.
#[derive(Debug, Clone, PartialEq, Eq)]
enum WireError {
    /// A length prefix over [`MAX_FRAME`]: the stream lost its framing.
    Oversized(usize),
    /// A payload shorter than its header.
    Short(usize),
    /// A float body whose byte length is not four times its count.
    CountMismatch { count: usize, bytes: usize },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Oversized(len) => {
                write!(f, "frame of {len} bytes exceeds the {MAX_FRAME} byte cap")
            }
            WireError::Short(len) => write!(f, "payload of {len} bytes has no whole header"),
            WireError::CountMismatch { count, bytes } => {
                write!(f, "{count} floats announced but {bytes} body bytes sent")
            }
        }
    }
}

impl From<WireError> for io::Error {
    fn from(err: WireError) -> Self {
        io::Error::new(io::ErrorKind::InvalidData, err.to_string())
    }
}

/// What follows a payload's `u32` count: that many `f32`s (a request's
/// pixels, an OK response's logits), or a UTF-8 message under a zero
/// count (every other status).
enum Body<'a> {
    Floats(&'a [f32]),
    Text(&'a str),
}

/// Builds one whole frame, `[len: u32][head: u8][id: u64][count: u32]
/// [body]` (all LE) plus the 8-byte trace-id trailer when `trace` is set;
/// `head` is a kind byte or a status. One buffer is one `write`, so a
/// closed peer's reset cannot land between a prefix and its payload.
fn encode_frame(head: u8, id: u64, body: Body<'_>, trace: Option<u64>) -> Vec<u8> {
    let (count, body_len) = match body {
        Body::Floats(values) => (values.len(), 4 * values.len()),
        Body::Text(message) => (0, message.len()),
    };
    let payload_len = HEADER_LEN + body_len + if trace.is_some() { 8 } else { 0 };
    let mut frame = Vec::with_capacity(4 + payload_len);
    frame.extend_from_slice(&(payload_len as u32).to_le_bytes());
    frame.push(head);
    frame.extend_from_slice(&id.to_le_bytes());
    frame.extend_from_slice(&(count as u32).to_le_bytes());
    match body {
        Body::Floats(values) => {
            for v in values {
                frame.extend_from_slice(&v.to_le_bytes());
            }
        }
        Body::Text(message) => frame.extend_from_slice(message.as_bytes()),
    }
    if let Some(trace_id) = trace {
        frame.extend_from_slice(&trace_id.to_le_bytes());
    }
    frame
}

/// The only length-prefixed frame decoder: the server feeds it from
/// non-blocking sockets, the [`Client`] from a blocking one.
#[derive(Default)]
struct FrameReader {
    buf: Vec<u8>,
}

impl FrameReader {
    fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Pops the next complete frame's payload, if one is buffered.
    fn next_frame(&mut self) -> Result<Option<Vec<u8>>, WireError> {
        if self.buf.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(self.buf[..4].try_into().expect("4 bytes")) as usize;
        if len > MAX_FRAME {
            return Err(WireError::Oversized(len));
        }
        if self.buf.len() < 4 + len {
            return Ok(None);
        }
        let frame = self.buf[4..4 + len].to_vec();
        self.buf.drain(..4 + len);
        Ok(Some(frame))
    }

    /// Blocks on `source` until a whole frame is buffered; `None` on EOF
    /// at a frame boundary.
    fn read_from(&mut self, source: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
        let mut scratch = [0u8; 16 * 1024];
        loop {
            if let Some(frame) = self.next_frame()? {
                return Ok(Some(frame));
            }
            match source.read(&mut scratch) {
                Ok(0) if self.buf.is_empty() => return Ok(None),
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "connection closed mid-frame",
                    ))
                }
                Ok(n) => self.push(&scratch[..n]),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// Splits a payload into `(head, id, count, body)`.
fn split_payload(payload: &[u8]) -> Result<(u8, u64, usize, &[u8]), WireError> {
    if payload.len() < HEADER_LEN {
        return Err(WireError::Short(payload.len()));
    }
    let id = u64::from_le_bytes(payload[1..9].try_into().expect("8 bytes"));
    let count = u32::from_le_bytes(payload[9..13].try_into().expect("4 bytes")) as usize;
    Ok((payload[0], id, count, &payload[HEADER_LEN..]))
}

/// Reads a body of `count` LE `f32`s.
fn decode_floats(count: usize, body: &[u8]) -> Result<Vec<f32>, WireError> {
    let bytes = body.len();
    if count.checked_mul(4) != Some(bytes) {
        return Err(WireError::CountMismatch { count, bytes });
    }
    Ok(body
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes(c.try_into().expect("chunk of 4")))
        .collect())
}

/// Parses a request payload into `(kind, traced, id, floats)`; `traced`
/// is the [`FLAG_TRACED`] bit of the kind byte.
fn parse_request(payload: &[u8]) -> Result<(u8, bool, u64, Vec<f32>), WireError> {
    let (head, id, count, body) = split_payload(payload)?;
    let floats = decode_floats(count, body)?;
    Ok((head & KIND_MASK, head & FLAG_TRACED != 0, id, floats))
}

/// A decoded response: `(status, id, reply, trace id)`.
type Response = (u8, u64, Reply, Option<u64>);

/// Parses a response payload. Only a response to a request that set
/// [`FLAG_TRACED`] carries the trace-id trailer, so `traced` says whether
/// to strip one. Statuses other than OK and shed read as refusals.
fn parse_response(payload: &[u8], traced: bool) -> Result<Response, WireError> {
    let (status, id, count, mut body) = split_payload(payload)?;
    let mut trace_id = None;
    if traced && body.len() >= 8 {
        let (rest, trailer) = body.split_at(body.len() - 8);
        trace_id = Some(u64::from_le_bytes(trailer.try_into().expect("8 bytes")));
        body = rest;
    }
    let text = || String::from_utf8_lossy(body).into_owned();
    let reply = match status {
        STATUS_OK => Reply::Logits(decode_floats(count, body)?),
        STATUS_SHED => Reply::Shed(text()),
        _ => Reply::Refused(text()),
    };
    Ok((status, id, reply, trace_id))
}

// ---- client -------------------------------------------------------------

/// A server's answer to one inference request.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// Success: the logits.
    Logits(Vec<f32>),
    /// The server refused the request (protocol error, shutdown, ...).
    Refused(String),
    /// Admission control shed the request under overload — retry later.
    Shed(String),
}

impl Reply {
    /// Collapses to the pre-shedding API: logits or an error string
    /// (shed replies read as errors prefixed with `shed: `).
    pub fn into_result(self) -> Result<Vec<f32>, String> {
        match self {
            Reply::Logits(logits) => Ok(logits),
            Reply::Refused(msg) => Err(msg),
            Reply::Shed(msg) => Err(format!("shed: {msg}")),
        }
    }
}

/// A blocking client for the serving protocol.
pub struct Client {
    stream: TcpStream,
    reader: FrameReader,
    next_id: u64,
}

impl Client {
    /// Connects to a server.
    ///
    /// # Errors
    ///
    /// Returns socket-level connect errors.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(Client {
            stream,
            reader: FrameReader::default(),
            next_id: 0,
        })
    }

    /// Reads and parses the next response; `None` on a clean EOF.
    fn recv(&mut self, traced: bool) -> io::Result<Option<Response>> {
        let payload = self.reader.read_from(&mut self.stream)?;
        Ok(payload.map(|p| parse_response(&p, traced)).transpose()?)
    }

    /// One request/response round trip. With `traced` the request sets
    /// [`FLAG_TRACED`] and the response's 8-byte trace-id trailer is
    /// stripped and returned; without it the wire bytes are identical to
    /// the pre-tracing protocol.
    fn request(
        &mut self,
        kind: u8,
        input: &[f32],
        traced: bool,
    ) -> io::Result<(Reply, Option<u64>)> {
        self.next_id += 1;
        let id = self.next_id;
        let head = if traced { kind | FLAG_TRACED } else { kind };
        let written = self
            .stream
            .write_all(&encode_frame(head, id, Body::Floats(input), None));
        // Read even when the write failed: a server that said goodbye and
        // closed resets the write, and its goodbye, already in the
        // receive buffer, is what explains the close.
        let response = self.recv(traced);
        if matches!(response, Ok(Some((STATUS_GOODBYE, ..)))) {
            return Err(io::Error::new(
                io::ErrorKind::ConnectionAborted,
                "server sent goodbye (shutting down)",
            ));
        }
        written?;
        let (_, got_id, reply, trace_id) = response?.ok_or_else(|| {
            io::Error::new(io::ErrorKind::UnexpectedEof, "server closed mid-request")
        })?;
        if got_id != id {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("response id {got_id} does not match request id {id}"),
            ));
        }
        Ok((reply, trace_id))
    }

    /// A control request (ping, shutdown) answered by an empty OK.
    fn control(&mut self, kind: u8) -> io::Result<()> {
        match self.request(kind, &[], false)?.0 {
            Reply::Logits(_) => Ok(()),
            Reply::Refused(msg) | Reply::Shed(msg) => Err(io::Error::other(msg)),
        }
    }

    /// Runs inference on one flattened image.
    ///
    /// # Errors
    ///
    /// Returns socket-level I/O errors; a shutdown-time goodbye frame
    /// surfaces as [`io::ErrorKind::ConnectionAborted`].
    pub fn infer(&mut self, input: &[f32]) -> io::Result<Reply> {
        Ok(self.request(KIND_INFER, input, false)?.0)
    }

    /// Runs inference with tracing: the request sets `FLAG_TRACED` and
    /// the reply comes back with the server-assigned trace id (when the
    /// server echoed one), joinable against the server's access log.
    ///
    /// # Errors
    ///
    /// Returns socket-level I/O errors; a shutdown-time goodbye frame
    /// surfaces as [`io::ErrorKind::ConnectionAborted`].
    pub fn infer_traced(&mut self, input: &[f32]) -> io::Result<(Reply, Option<u64>)> {
        self.request(KIND_INFER, input, true)
    }

    /// Liveness check.
    ///
    /// # Errors
    ///
    /// Returns socket-level I/O errors or a server-side refusal.
    pub fn ping(&mut self) -> io::Result<()> {
        self.control(KIND_PING)
    }

    /// Asks the server to drain and stop.
    ///
    /// # Errors
    ///
    /// Returns socket-level I/O errors.
    pub fn shutdown_server(&mut self) -> io::Result<()> {
        self.control(KIND_SHUTDOWN)
    }

    /// Reads one more frame and confirms it is the server's typed
    /// goodbye — what a connection receives right before the shutdown
    /// close, instead of a bare EOF.
    ///
    /// # Errors
    ///
    /// Returns socket-level I/O errors, or `InvalidData` if the next
    /// frame (when present) is not a goodbye.
    pub fn expect_goodbye(&mut self) -> io::Result<()> {
        match self.recv(false)? {
            Some((STATUS_GOODBYE, ..)) => Ok(()),
            Some((status, ..)) => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected goodbye frame, got status {status}"),
            )),
            None => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed without a goodbye frame",
            )),
        }
    }
}

// ---- load generator -----------------------------------------------------

/// Result of one closed-loop load run. All latency statistics are
/// per-request over the **merged** stream of every client's completed
/// requests — one population, so `median_ns == p50_ns` by construction.
#[derive(Debug, Clone)]
pub struct LoadStats {
    /// Concurrency level (number of closed-loop clients).
    pub concurrency: usize,
    /// Requests completed successfully.
    pub requests: u64,
    /// Requests that returned an error.
    pub errors: u64,
    /// Requests shed by admission control.
    pub shed: u64,
    /// Wall-clock of the whole run.
    pub elapsed: Duration,
    /// Exact per-request latency quantiles, in nanoseconds.
    pub p50_ns: u64,
    /// 90th percentile latency in nanoseconds.
    pub p90_ns: u64,
    /// 99th percentile latency in nanoseconds.
    pub p99_ns: u64,
    /// Mean latency in nanoseconds.
    pub mean_ns: u64,
}

impl LoadStats {
    /// Completed requests per second.
    pub fn throughput_rps(&self) -> f64 {
        if self.elapsed.is_zero() {
            0.0
        } else {
            self.requests as f64 / self.elapsed.as_secs_f64()
        }
    }

    /// Mean wall-clock nanoseconds per completed request, from the
    /// server's point of view (`elapsed / requests` — the throughput
    /// metric expressed lower-is-better for `bench_check`).
    pub fn ns_per_request(&self) -> u64 {
        if self.requests == 0 {
            u64::MAX
        } else {
            (self.elapsed.as_nanos() / u128::from(self.requests)) as u64
        }
    }

    /// Per-request median latency over the merged stream — identical to
    /// [`LoadStats::p50_ns`]; kept as a named accessor so snapshot
    /// writers can't accidentally mix populations again.
    pub fn median_ns(&self) -> u64 {
        self.p50_ns
    }
}

/// Builds a [`LoadStats`] from a merged per-request latency stream.
/// Callers sort nothing; quantiles and the mean are all computed here,
/// over the same population.
pub fn stats_from_latencies(
    concurrency: usize,
    mut latencies: Vec<u64>,
    errors: u64,
    shed: u64,
    elapsed: Duration,
) -> LoadStats {
    let sum: u128 = latencies.iter().map(|&v| u128::from(v)).sum();
    let mean = (sum / latencies.len().max(1) as u128) as u64;
    LoadStats {
        concurrency,
        requests: latencies.len() as u64,
        errors,
        shed,
        elapsed,
        p50_ns: exact_quantile_ns(&mut latencies, 0.50),
        p90_ns: exact_quantile_ns(&mut latencies, 0.90),
        p99_ns: exact_quantile_ns(&mut latencies, 0.99),
        mean_ns: mean,
    }
}

/// A traced load run: the merged latency statistics plus the server's
/// trace ids for every successfully answered request, for joining
/// client-side latencies against the server's access-log records.
#[derive(Debug, Clone)]
pub struct TracedLoad {
    /// The merged closed-loop statistics (as [`load_generate`]).
    pub stats: LoadStats,
    /// Server-assigned trace ids of the OK responses, in no particular
    /// order (one per counted request when the server echoes ids).
    pub trace_ids: Vec<u64>,
}

/// Runs `concurrency` closed-loop clients, each issuing
/// `requests_per_client` inference requests back-to-back, and merges the
/// exact latency distribution.
///
/// # Errors
///
/// Returns the first socket-level failure any client hits.
pub fn load_generate(
    addr: SocketAddr,
    concurrency: usize,
    requests_per_client: usize,
    input_len: usize,
) -> io::Result<LoadStats> {
    Ok(run_load(addr, concurrency, requests_per_client, input_len, false)?.stats)
}

/// [`load_generate`] with `FLAG_TRACED` set on every request,
/// additionally collecting the server-assigned trace ids so callers can
/// join against the server's access log for per-stage attribution.
///
/// # Errors
///
/// Returns the first socket-level failure any client hits.
pub fn load_generate_traced(
    addr: SocketAddr,
    concurrency: usize,
    requests_per_client: usize,
    input_len: usize,
) -> io::Result<TracedLoad> {
    run_load(addr, concurrency, requests_per_client, input_len, true)
}

fn run_load(
    addr: SocketAddr,
    concurrency: usize,
    requests_per_client: usize,
    input_len: usize,
    traced: bool,
) -> io::Result<TracedLoad> {
    let started = Instant::now();
    let mut handles = Vec::new();
    for worker in 0..concurrency {
        handles.push(std::thread::spawn(
            move || -> io::Result<(Vec<u64>, Vec<u64>, u64, u64)> {
                let mut client = Client::connect(addr)?;
                // deterministic per-worker input stream (cheap LCG)
                let mut state = 0x9E3779B97F4A7C15u64 ^ (worker as u64) << 32;
                let mut latencies = Vec::with_capacity(requests_per_client);
                let mut trace_ids = Vec::new();
                let mut errors = 0u64;
                let mut shed = 0u64;
                let mut input = vec![0f32; input_len];
                for _ in 0..requests_per_client {
                    for slot in input.iter_mut() {
                        state = state
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        *slot = ((state >> 40) as f32 / (1u64 << 24) as f32) * 2.0 - 1.0;
                    }
                    let sent = Instant::now();
                    let (reply, trace_id) = client.request(KIND_INFER, &input, traced)?;
                    match reply {
                        Reply::Logits(_) => {
                            latencies
                                .push(u64::try_from(sent.elapsed().as_nanos()).unwrap_or(u64::MAX));
                            if let Some(id) = trace_id {
                                trace_ids.push(id);
                            }
                        }
                        Reply::Refused(_) => errors += 1,
                        Reply::Shed(_) => shed += 1,
                    }
                }
                Ok((latencies, trace_ids, errors, shed))
            },
        ));
    }
    let mut latencies = Vec::new();
    let mut trace_ids = Vec::new();
    let mut errors = 0u64;
    let mut shed = 0u64;
    for handle in handles {
        let (worker_latencies, worker_traces, worker_errors, worker_shed) = handle
            .join()
            .map_err(|_| io::Error::other("load worker panicked"))??;
        latencies.extend(worker_latencies);
        trace_ids.extend(worker_traces);
        errors += worker_errors;
        shed += worker_shed;
    }
    let elapsed = started.elapsed();
    Ok(TracedLoad {
        stats: stats_from_latencies(concurrency, latencies, errors, shed, elapsed),
        trace_ids,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{CompileOptions, CompiledNet};
    use adq_nn::{QuantModel, ResNet, Vgg};
    use adq_quant::BitWidth;
    use adq_tensor::init;
    use proptest::prelude::*;

    fn compiled_tiny() -> Arc<CompiledNet> {
        let mut model = Vgg::tiny(3, 8, 4, 99);
        for (i, bits) in [8u32, 4, 8, 8].into_iter().enumerate() {
            model.set_bits_of(i, Some(BitWidth::new(bits).unwrap()));
        }
        let mut r = init::rng(100);
        let calibration = init::normal(&[4, 3, 8, 8], 0.0, 1.0, &mut r);
        Arc::new(CompiledNet::compile(&model, &calibration, CompileOptions::default()).unwrap())
    }

    /// A mixed-precision `ResNet::tiny` with a 2-bit junction; its first
    /// block has an identity skip, its second a projection.
    fn compiled_tiny_resnet() -> Arc<CompiledNet> {
        let mut model = ResNet::tiny(3, 8, 4, 101);
        for (i, bits) in [16u32, 4, 8, 2, 8, 4, 8, 16].into_iter().enumerate() {
            model.set_bits_of(i, Some(BitWidth::new(bits).unwrap()));
        }
        let calibration = init::normal(&[4, 3, 8, 8], 0.0, 1.0, &mut init::rng(102));
        Arc::new(CompiledNet::compile(&model, &calibration, CompileOptions::default()).unwrap())
    }

    /// Serializes the tests that start a server: each one resets the
    /// process-global `serve.*` gauges, so one test's assertions on them
    /// must not run while another server starts.
    static SERVER_TESTS: Mutex<()> = Mutex::new(());

    fn server_test_lock() -> std::sync::MutexGuard<'static, ()> {
        SERVER_TESTS
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    #[test]
    fn only_loopback_peers_may_stop_the_server() {
        for (ip, allowed) in [
            ("127.0.0.1", true),
            ("::1", true),
            ("::ffff:127.0.0.1", true),
            ("10.0.0.5", false),
            ("2001:db8::1", false),
        ] {
            assert_eq!(may_stop(ip.parse().unwrap()), allowed, "{ip}");
        }
    }

    #[test]
    fn parse_rejects_malformed_payloads() {
        assert!(parse_request(&[]).is_err());
        assert!(parse_request(&[1; 5]).is_err());
        // n claims 2 floats but body has 1
        let mut p = vec![KIND_INFER];
        p.extend_from_slice(&1u64.to_le_bytes());
        p.extend_from_slice(&2u32.to_le_bytes());
        p.extend_from_slice(&1.0f32.to_le_bytes());
        assert!(parse_request(&p).is_err());
    }

    #[test]
    fn frame_reader_reassembles_split_frames() {
        let mut reader = FrameReader::default();
        let payload = b"hello frame";
        let mut wire = u32::to_le_bytes(payload.len() as u32).to_vec();
        wire.extend_from_slice(payload);
        // feed byte by byte: no frame until the last byte lands
        for &b in &wire[..wire.len() - 1] {
            reader.push(&[b]);
            assert!(reader.next_frame().unwrap().is_none());
        }
        reader.push(&wire[wire.len() - 1..]);
        assert_eq!(reader.next_frame().unwrap().unwrap(), payload);
        assert!(reader.next_frame().unwrap().is_none());

        // two frames in one push both come out
        reader.push(&wire);
        reader.push(&wire);
        assert_eq!(reader.next_frame().unwrap().unwrap(), payload);
        assert_eq!(reader.next_frame().unwrap().unwrap(), payload);

        // an oversized length prefix is an error, not an allocation
        let mut oversized = FrameReader::default();
        oversized.push(&u32::to_le_bytes(u32::MAX));
        assert!(oversized.next_frame().is_err());
    }

    /// Pops frames until the buffer holds no whole one; the error, if
    /// decoding stopped on one.
    fn drain(reader: &mut FrameReader) -> (Vec<Vec<u8>>, Option<WireError>) {
        let mut frames = Vec::new();
        loop {
            match reader.next_frame() {
                Ok(Some(frame)) => frames.push(frame),
                Ok(None) => return (frames, None),
                Err(e) => return (frames, Some(e)),
            }
        }
    }

    /// The error a float payload must get, worked out from its bytes.
    fn float_payload_error(payload: &[u8]) -> Option<WireError> {
        if payload.len() < HEADER_LEN {
            return Some(WireError::Short(payload.len()));
        }
        let count = u32::from_le_bytes(payload[9..13].try_into().unwrap()) as usize;
        let bytes = payload.len() - HEADER_LEN;
        (bytes != 4 * count).then_some(WireError::CountMismatch { count, bytes })
    }

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    fn ascii(bytes: Vec<u8>) -> String {
        String::from_utf8(bytes).expect("ASCII")
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn arbitrary_bytes_decode_to_frames_or_typed_errors(
            small_prefix in any::<bool>(),
            small in 0u32..48,
            large in any::<u32>(),
            tail in proptest::collection::vec(any::<u8>(), 0..96),
            traced in any::<bool>(),
        ) {
            let prefix = if small_prefix { small } else { large };
            let len = prefix as usize;
            let mut reader = FrameReader::default();
            reader.push(&prefix.to_le_bytes());
            reader.push(&tail);
            let (frames, err) = drain(&mut reader);
            if len > MAX_FRAME {
                prop_assert!(frames.is_empty());
                prop_assert_eq!(err, Some(WireError::Oversized(len)));
            } else if tail.len() >= len {
                prop_assert_eq!(&frames[0], &tail[..len]);
                // whatever follows is framed the same way
                let oversized = |e: &_| matches!(e, &WireError::Oversized(l) if l > MAX_FRAME);
                prop_assert!(err.iter().all(oversized), "{:?}", err);
            } else {
                prop_assert!(frames.is_empty() && err.is_none());
            }

            // the same bytes as a payload: parsed, or refused with the
            // error their shape calls for
            prop_assert_eq!(parse_request(&tail).err(), float_payload_error(&tail));
            let response = parse_response(&tail, traced);
            let want = match tail.first() {
                Some(&STATUS_OK) => {
                    let strip = if traced && tail.len() >= HEADER_LEN + 8 { 8 } else { 0 };
                    float_payload_error(&tail[..tail.len() - strip])
                }
                _ if tail.len() < HEADER_LEN => Some(WireError::Short(tail.len())),
                _ => None,
            };
            prop_assert_eq!(response.err(), want);
        }

        #[test]
        fn every_split_point_of_a_valid_stream_decodes_the_same(
            kind in any::<u8>(),
            ids in (any::<u64>(), any::<u64>()),
            input in proptest::collection::vec(any::<u32>(), 0..16),
            status in 0u8..4,
            message in proptest::collection::vec(0u8..128, 0..24),
            trace in (any::<bool>(), any::<u64>()),
        ) {
            let input: Vec<f32> = input.into_iter().map(f32::from_bits).collect();
            let message = ascii(message);
            let trace = trace.0.then_some(trace.1);
            let request = encode_frame(kind, ids.0, Body::Floats(&input), None);
            let response = encode_frame(status, ids.1, Body::Text(&message), trace);
            let wire = [request.clone(), response.clone()].concat();
            let want = vec![request[4..].to_vec(), response[4..].to_vec()];
            for split in 0..=wire.len() {
                let mut reader = FrameReader::default();
                reader.push(&wire[..split]);
                let (mut frames, err) = drain(&mut reader);
                prop_assert!(err.is_none());
                reader.push(&wire[split..]);
                let (rest, err) = drain(&mut reader);
                prop_assert!(err.is_none());
                frames.extend(rest);
                prop_assert_eq!(&frames, &want, "split at {}", split);
                prop_assert!(reader.buf.is_empty());
            }
        }

        #[test]
        fn requests_round_trip_with_the_trace_bit_on_every_kind(
            id in any::<u64>(),
            input in proptest::collection::vec(any::<u32>(), 0..16),
        ) {
            let input: Vec<f32> = input.into_iter().map(f32::from_bits).collect();
            for head in 0..=u8::MAX {
                let mut reader = FrameReader::default();
                reader.push(&encode_frame(head, id, Body::Floats(&input), None));
                let payload = reader.next_frame().unwrap().expect("one whole frame");
                let (kind, traced, got_id, got) = parse_request(&payload).unwrap();
                prop_assert_eq!(kind, head & KIND_MASK);
                prop_assert_eq!(traced, head & FLAG_TRACED != 0);
                prop_assert_eq!(got_id, id);
                prop_assert_eq!(bits(&got), bits(&input));
            }
        }

        #[test]
        fn responses_round_trip_with_and_without_the_trailer(
            id in any::<u64>(),
            logits in proptest::collection::vec(any::<u32>(), 0..16),
            message in proptest::collection::vec(0u8..128, 0..24),
            trace in (any::<bool>(), any::<u64>()),
        ) {
            let logits: Vec<f32> = logits.into_iter().map(f32::from_bits).collect();
            let message = ascii(message);
            let trace = trace.0.then_some(trace.1);
            for status in 0..=u8::MAX {
                let body = if status == STATUS_OK {
                    Body::Floats(&logits)
                } else {
                    Body::Text(&message)
                };
                let mut reader = FrameReader::default();
                reader.push(&encode_frame(status, id, body, trace));
                let payload = reader.next_frame().unwrap().expect("one whole frame");
                let response = parse_response(&payload, trace.is_some()).unwrap();
                let (got_status, got_id, reply, trace_id) = response;
                prop_assert_eq!((got_status, got_id, trace_id), (status, id, trace));
                match reply {
                    Reply::Logits(got) => {
                        prop_assert_eq!(status, STATUS_OK);
                        prop_assert_eq!(bits(&got), bits(&logits));
                    }
                    Reply::Shed(got) => {
                        prop_assert_eq!(status, STATUS_SHED);
                        prop_assert_eq!(&got, &message);
                    }
                    Reply::Refused(got) => prop_assert_eq!(&got, &message),
                }
            }
        }
    }

    #[test]
    fn a_length_prefix_at_the_cap_is_read_and_one_over_it_is_refused() {
        let mut at_cap = FrameReader::default();
        at_cap.push(&(MAX_FRAME as u32).to_le_bytes());
        assert_eq!(at_cap.next_frame(), Ok(None), "waits for the payload");
        at_cap.push(&vec![7u8; MAX_FRAME]);
        let frame = at_cap
            .next_frame()
            .unwrap()
            .expect("a frame of MAX_FRAME bytes");
        assert_eq!(frame.len(), MAX_FRAME);

        let mut over = FrameReader::default();
        over.push(&(MAX_FRAME as u32 + 1).to_le_bytes());
        let err = over.next_frame().unwrap_err();
        assert_eq!(err, WireError::Oversized(MAX_FRAME + 1));
        // the server sends this text back before it closes the stream
        assert_eq!(
            err.to_string(),
            format!(
                "frame of {} bytes exceeds the {MAX_FRAME} byte cap",
                MAX_FRAME + 1
            )
        );
    }

    #[test]
    fn merged_stream_median_equals_p50() {
        let stats = stats_from_latencies(
            4,
            vec![900, 100, 500, 300, 700],
            0,
            0,
            Duration::from_millis(10),
        );
        assert_eq!(stats.median_ns(), stats.p50_ns);
        assert_eq!(stats.p50_ns, 500);
        assert_eq!(stats.p99_ns, 900);
        assert_eq!(stats.mean_ns, 500);
        assert_eq!(stats.requests, 5);
    }

    #[test]
    fn serve_roundtrip_batches_and_shuts_down() {
        let _serial = server_test_lock();
        let model = compiled_tiny();
        let input_len = model.input_len();
        let classes = ServeModel::classes(model.as_ref());
        let mut server = Server::bind(
            "127.0.0.1:0",
            Arc::<CompiledNet>::clone(&model) as Arc<dyn ServeModel>,
            ServeConfig {
                max_batch: 4,
                max_wait: Duration::from_millis(5),
                ..ServeConfig::default()
            },
        )
        .unwrap();
        let addr = server.local_addr();

        // responses must match a direct batched model run exactly
        let mut r = init::rng(7);
        let images = init::normal(&[3, 3, 8, 8], 0.0, 1.0, &mut r);
        let direct = CompiledNet::run(&model, &images);
        let mut client = Client::connect(addr).unwrap();
        client.ping().unwrap();
        for i in 0..3 {
            let row = &images.data()[i * input_len..(i + 1) * input_len];
            let logits = client.infer(row).unwrap().into_result().unwrap();
            assert_eq!(logits.len(), classes);
            assert_eq!(logits, &direct.data()[i * classes..(i + 1) * classes]);
        }

        // wrong input length is a protocol-level error, not a hang
        let err = client
            .infer(&[1.0, 2.0])
            .unwrap()
            .into_result()
            .unwrap_err();
        assert!(err.contains("length"), "unexpected error: {err}");

        // concurrent clients coalesce into batches
        let stats = load_generate(addr, 4, 10, input_len).unwrap();
        assert_eq!(stats.requests, 40);
        assert_eq!(stats.errors, 0);
        assert_eq!(stats.shed, 0);
        assert!(stats.p99_ns >= stats.p50_ns);
        let sizes = metrics::global()
            .histogram_with_bounds("serve.batch_size", &[1, 2, 4, 8, 16, 32, 64, 128]);
        assert!(sizes.count() > 0, "no executor recorded batches");

        // remote shutdown drains, says goodbye, and stops every thread
        client.shutdown_server().unwrap();
        client.expect_goodbye().unwrap();
        server.wait();
        assert!(server.shutting_down());
    }

    #[test]
    fn replicated_server_answers_correctly_under_concurrency() {
        let _serial = server_test_lock();
        // a VGG, and a ResNet whose junctions run on the code chain
        for model in [compiled_tiny(), compiled_tiny_resnet()] {
            let input_len = model.input_len();
            let classes = ServeModel::classes(model.as_ref());
            let mut server = Server::bind(
                "127.0.0.1:0",
                Arc::<CompiledNet>::clone(&model) as Arc<dyn ServeModel>,
                ServeConfig {
                    replicas: 2,
                    conn_workers: 2,
                    max_batch: 2,
                    max_wait: Duration::from_micros(200),
                    ..ServeConfig::default()
                },
            )
            .unwrap();
            let addr = server.local_addr();

            // every response must equal the model's own single-image run —
            // replicas share frozen weights/ranges, so batch composition and
            // replica assignment must not change results
            let mut r = init::rng(11);
            let images = init::normal(&[4, 3, 8, 8], 0.0, 1.0, &mut r);
            let direct = CompiledNet::run(&model, &images);
            let mut workers = Vec::new();
            for w in 0..4usize {
                let row = images.data()[w * input_len..(w + 1) * input_len].to_vec();
                let want = direct.data()[w * classes..(w + 1) * classes].to_vec();
                workers.push(std::thread::spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    for _ in 0..8 {
                        let got = client.infer(&row).unwrap().into_result().unwrap();
                        assert_eq!(got, want, "replica answered with wrong logits");
                    }
                }));
            }
            for w in workers {
                w.join().unwrap();
            }
            // both replica histograms exist; at least one ran batches
            let r0 = metrics::global().histogram("serve.replica0.batch_run_ns");
            let r1 = metrics::global().histogram("serve.replica1.batch_run_ns");
            assert!(r0.count() + r1.count() > 0, "no replica recorded a batch");
            assert_eq!(metrics::global().gauge("serve.replicas").get(), 2.0);

            server.shutdown();
            assert!(server.shutting_down());
        }
    }

    #[test]
    fn an_oversized_frame_gets_a_typed_error_then_eof() {
        let _serial = server_test_lock();
        let mut server = Server::bind(
            "127.0.0.1:0",
            compiled_tiny() as Arc<dyn ServeModel>,
            ServeConfig::default(),
        )
        .unwrap();
        let addr = server.local_addr();
        let errors = metrics::global().counter("serve.errors");
        let errors_before = errors.get();

        let mut raw = TcpStream::connect(addr).unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        raw.write_all(&u32::to_le_bytes(MAX_FRAME as u32 + 1))
            .unwrap();
        let mut reader = FrameReader::default();
        let reply = reader
            .read_from(&mut raw)
            .unwrap()
            .expect("one response frame");
        assert_eq!(reply[0], STATUS_ERR);
        assert_eq!(u64::from_le_bytes(reply[1..9].try_into().unwrap()), 0);
        let message = String::from_utf8_lossy(&reply[13..]);
        assert!(
            message.contains(&MAX_FRAME.to_string()),
            "the error must name the cap: {message}"
        );
        assert!(reader.read_from(&mut raw).unwrap().is_none(), "then EOF");
        assert_eq!(errors.get() - errors_before, 1);

        // the server itself is unharmed
        Client::connect(addr).unwrap().ping().unwrap();
        server.shutdown();
    }

    /// Every reply to a flagged request carries the trace-id trailer:
    /// ping, unknown kind, malformed frame, a refused infer and shutdown,
    /// sent as raw frames. The same ping unflagged gets none.
    #[test]
    fn every_reply_to_a_flagged_request_carries_the_trailer() {
        let _serial = server_test_lock();
        let mut server = Server::bind(
            "127.0.0.1:0",
            compiled_tiny() as Arc<dyn ServeModel>,
            ServeConfig::default(),
        )
        .unwrap();
        let mut raw = TcpStream::connect(server.local_addr()).unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut reader = FrameReader::default();
        let mut ask = |frame: &[u8]| {
            raw.write_all(frame).unwrap();
            reader.read_from(&mut raw).unwrap().expect("a reply")
        };
        let flagged = |kind: u8, id: u64, input: &[f32]| {
            encode_frame(kind | FLAG_TRACED, id, Body::Floats(input), None)
        };
        let traced = |payload: Vec<u8>| parse_response(&payload, true).unwrap();

        let unlogged = Some(UNLOGGED_TRACE_ID);
        let (status, id, reply, trace) = traced(ask(&flagged(KIND_PING, 1, &[])));
        assert_eq!((status, id, trace), (STATUS_OK, 1, unlogged));
        assert_eq!(reply, Reply::Logits(Vec::new()));
        let (status, id, reply, trace) = traced(ask(&flagged(0x55, 2, &[])));
        assert_eq!((status, id, trace), (STATUS_ERR, 2, unlogged));
        assert_eq!(reply, Reply::Refused("unknown request kind".into()));
        // a kind byte with nothing after it
        let (status, _, reply, trace) = traced(ask(&[1, 0, 0, 0, KIND_INFER | FLAG_TRACED]));
        assert_eq!((status, trace), (STATUS_ERR, unlogged));
        assert_eq!(reply, Reply::Refused("malformed frame".into()));
        // an infer request has an access-log record, so a real id
        let (status, id, reply, trace) = traced(ask(&flagged(KIND_INFER, 3, &[1.0])));
        let refused = Reply::Refused("bad input length".into());
        assert_eq!((status, id, reply), (STATUS_ERR, 3, refused));
        assert!(trace.is_some_and(|t| t != UNLOGGED_TRACE_ID), "{trace:?}");
        // untraced wire bytes are unchanged: no trailer at all
        let plain = ask(&encode_frame(KIND_PING, 4, Body::Floats(&[]), None));
        assert_eq!(plain.len(), HEADER_LEN);
        let (status, id, reply, trace) = traced(ask(&flagged(KIND_SHUTDOWN, 5, &[])));
        assert_eq!((status, id, trace), (STATUS_OK, 5, unlogged));
        assert_eq!(reply, Reply::Logits(Vec::new()));
        server.wait();
    }

    /// The documented limit: a pre-tracing server answers a flagged kind
    /// with an untrailed `unknown request kind`, and a tracing client
    /// takes the message's last 8 bytes for the trailer.
    #[test]
    fn a_pre_tracing_refusal_loses_its_last_8_bytes_to_a_tracing_client() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let request = FrameReader::default()
                .read_from(&mut stream)
                .unwrap()
                .expect("one request");
            let id = u64::from_le_bytes(request[1..9].try_into().unwrap());
            let refusal = encode_frame(STATUS_ERR, id, Body::Text("unknown request kind"), None);
            stream.write_all(&refusal).unwrap();
        });
        let mut client = Client::connect(addr).unwrap();
        let (reply, trace) = client.infer_traced(&[1.0; 4]).unwrap();
        server.join().unwrap();
        assert_eq!(reply, Reply::Refused("unknown requ".into()));
        let tail: [u8; 8] = b"est kind".to_owned();
        assert_eq!(trace, Some(u64::from_le_bytes(tail)));
    }

    /// A server that said goodbye and closed before the request went out:
    /// the client reports the goodbye, not the reset its write drew.
    #[test]
    fn a_goodbye_already_received_aborts_the_next_request() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let goodbye = encode_frame(STATUS_GOODBYE, 0, Body::Text("bye"), None);
            stream.write_all(&goodbye).unwrap();
            // dropping the stream closes it
        });
        let mut client = Client::connect(addr).unwrap();
        server.join().unwrap();
        std::thread::sleep(Duration::from_millis(50));
        let err = client.infer(&[1.0; 4]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionAborted, "{err}");
    }

    /// A connection stalled mid-frame must not hold up the others on its
    /// worker, and its frame is answered once the rest arrives.
    #[test]
    fn a_stalled_peer_does_not_starve_its_worker() {
        let _serial = server_test_lock();
        let model = compiled_tiny();
        let input_len = model.input_len();
        let classes = ServeModel::classes(model.as_ref());
        let mut server = Server::bind(
            "127.0.0.1:0",
            model as Arc<dyn ServeModel>,
            ServeConfig {
                conn_workers: 1,
                ..ServeConfig::default()
            },
        )
        .unwrap();
        let addr = server.local_addr();

        let mut stalled = TcpStream::connect(addr).unwrap();
        stalled
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let frame = encode_frame(KIND_INFER, 7, Body::Floats(&vec![0.5; input_len]), None);
        let half = 4 + (frame.len() - 4) / 2;
        // the half frame is sent before the second connection exists, and
        // the one worker adopts connections in accept order, so it has
        // polled the stalled one by the time it reads the ping
        stalled.write_all(&frame[..half]).unwrap();

        let mut other = Client::connect(addr).unwrap();
        // a starved worker shows as a read timeout, not a hung test
        other
            .stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let asked = Instant::now();
        other.ping().unwrap();
        let waited = asked.elapsed();
        assert!(waited < Duration::from_secs(1), "ping waited {waited:?}");

        stalled.write_all(&frame[half..]).unwrap();
        let payload = FrameReader::default()
            .read_from(&mut stalled)
            .unwrap()
            .expect("an answer to the completed frame");
        let response = parse_response(&payload, false).unwrap();
        let (status, id, reply, _) = response;
        assert_eq!((status, id), (STATUS_OK, 7));
        assert!(matches!(reply, Reply::Logits(l) if l.len() == classes));
        server.shutdown();
    }

    #[test]
    fn local_shutdown_joins_threads() {
        let _serial = server_test_lock();
        let model = compiled_tiny();
        let mut server = Server::bind(
            "127.0.0.1:0",
            model as Arc<dyn ServeModel>,
            ServeConfig::default(),
        )
        .unwrap();
        server.shutdown();
        assert!(server.shutting_down());
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn executor_threads_wait_with_a_one_nanosecond_timer_slack() {
        const PR_GET_TIMERSLACK: i32 = 30;
        let slack = std::thread::spawn(|| {
            tighten_timer_slack();
            // SAFETY: PR_GET_TIMERSLACK takes no argument and returns the
            // calling thread's slack in ns.
            unsafe { prctl(PR_GET_TIMERSLACK) }
        });
        assert_eq!(slack.join().unwrap(), 1);
    }
}
