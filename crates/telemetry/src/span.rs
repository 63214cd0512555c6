//! Hierarchical tracing spans with lock-cheap per-thread buffering.
//!
//! A [`SpanGuard`] measures one region of work: it captures a monotonic
//! start time on construction and, on drop, pushes a finished
//! [`SpanRecord`] — id, parent id, thread id, start/end nanoseconds, and
//! structured attributes — into a buffer owned by the recording thread.
//! Parent/child structure is tracked through a thread-local "current
//! span" cell, so nested guards on one thread link up automatically;
//! work fanned out to rayon workers passes the parent id explicitly via
//! [`child_span_with`] (worker threads have no ambient current span).
//!
//! Buffers register themselves in a process-wide list on first use, so
//! [`drain`] (or [`drain_into`], which forwards each record to a
//! [`TelemetrySink`] as a [`TelemetryEvent::SpanClosed`] event) can
//! collect spans from every thread that ever recorded, including scoped
//! rayon workers that have since exited. The hot path touches only the
//! recording thread's own mutex — uncontended except while a drain is
//! in progress — plus one relaxed atomic load for the level check.
//!
//! Tracing is off unless the `ADQ_TRACE` environment variable (read
//! once, at the first level check) or [`set_level`] enables it:
//!
//! * `0` — disabled; every instrumentation site costs one relaxed load.
//! * `1` — controller phases, epochs, batches, and GEMMs
//!   large enough to clear the blocked-kernel threshold.
//! * `2` — verbose: additionally GEMM macro-tiles, `im2col`, and
//!   fake-quantize passes. Expect large trace files.
//!
//! Spans are observation-only by contract: enabling any level must not
//! change a run's numeric results, only its wall time.

use std::cell::{Cell, OnceCell};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::alloc::{self, ThreadCounters};
use crate::event::TelemetryEvent;
use crate::sink::TelemetrySink;

/// Maximum finished spans buffered per recording thread; beyond this,
/// spans are counted in [`dropped_count`] instead of stored, so a run
/// with tracing accidentally left at level 2 degrades instead of
/// exhausting memory.
const MAX_SPANS_PER_THREAD: usize = 1 << 18;

/// Trace level sentinel meaning "not yet read from the environment".
const LEVEL_UNSET: u8 = u8::MAX;

/// Highest meaningful trace level.
pub const LEVEL_VERBOSE: u8 = 2;

static LEVEL: AtomicU8 = AtomicU8::new(LEVEL_UNSET);
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD_ID: AtomicU64 = AtomicU64::new(1);
static DROPPED: AtomicU64 = AtomicU64::new(0);

type SharedBuffer = Arc<Mutex<Vec<SpanRecord>>>;

/// Every thread's span buffer, registered on that thread's first span.
static REGISTRY: Mutex<Vec<SharedBuffer>> = Mutex::new(Vec::new());

thread_local! {
    /// This thread's buffer (shared with [`REGISTRY`]).
    static BUFFER: OnceCell<SharedBuffer> = const { OnceCell::new() };
    /// Id of the innermost open span on this thread (0 = none).
    static CURRENT: Cell<u64> = const { Cell::new(0) };
    /// This thread's small dense id (0 = unassigned).
    static THREAD_ID: Cell<u64> = const { Cell::new(0) };
}

/// The process-wide monotonic epoch all span timestamps are relative to.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process's tracing epoch.
fn now_ns() -> u64 {
    u64::try_from(epoch().elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The active trace level: `ADQ_TRACE` parsed once on first call
/// (invalid or absent = 0), unless overridden by [`set_level`].
pub fn level() -> u8 {
    let cached = LEVEL.load(Ordering::Relaxed);
    if cached != LEVEL_UNSET {
        return cached;
    }
    let parsed = std::env::var("ADQ_TRACE")
        .ok()
        .and_then(|raw| raw.trim().parse::<u8>().ok())
        .unwrap_or(0)
        .min(LEVEL_VERBOSE);
    // A racing first call parses the same environment, so last-write-wins
    // stores are idempotent.
    LEVEL.store(parsed, Ordering::Relaxed);
    parsed
}

/// Overrides the trace level (tests and binaries; wins over `ADQ_TRACE`).
pub fn set_level(level: u8) {
    LEVEL.store(level.min(LEVEL_VERBOSE), Ordering::Relaxed);
}

/// Whether phase-level tracing (level ≥ 1) is active.
#[inline]
pub fn enabled() -> bool {
    level() >= 1
}

/// Whether verbose tile/kernel tracing (level ≥ 2) is active.
#[inline]
pub fn verbose() -> bool {
    level() >= LEVEL_VERBOSE
}

/// This thread's dense id, assigned on first use (1-based; the order
/// threads first record in, not OS thread ids).
pub fn thread_id() -> u64 {
    THREAD_ID.with(|cell| {
        let id = cell.get();
        if id != 0 {
            return id;
        }
        let id = NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed);
        cell.set(id);
        id
    })
}

/// Id of the innermost open span on this thread (0 = none). Capture this
/// before fanning work out to other threads and hand it to
/// [`child_span_with`] so cross-thread children nest correctly.
pub fn current_span_id() -> u64 {
    CURRENT.with(Cell::get)
}

/// Spans dropped so far because a thread buffer hit its cap.
pub fn dropped_count() -> u64 {
    DROPPED.load(Ordering::Relaxed)
}

/// Returns and resets the dropped-span counter (call when exporting).
pub fn take_dropped() -> u64 {
    DROPPED.swap(0, Ordering::Relaxed)
}

/// A structured attribute value attached to a span.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// Unsigned integers (sizes, indices, bit-widths).
    U64(u64),
    /// Signed integers.
    I64(i64),
    /// Floating-point measurements.
    F64(f64),
    /// Short labels.
    Str(String),
}

impl AttrValue {
    /// The JSON form used in [`TelemetryEvent::SpanClosed`] args.
    fn to_json(&self) -> serde_json::Value {
        match self {
            AttrValue::U64(v) => serde_json::Value::U64(*v),
            AttrValue::I64(v) => serde_json::Value::I64(*v),
            AttrValue::F64(v) => serde_json::Value::F64(*v),
            AttrValue::Str(s) => serde_json::Value::Str(s.clone()),
        }
    }
}

impl From<usize> for AttrValue {
    fn from(v: usize) -> Self {
        AttrValue::U64(v as u64)
    }
}

impl From<u64> for AttrValue {
    fn from(v: u64) -> Self {
        AttrValue::U64(v)
    }
}

impl From<u32> for AttrValue {
    fn from(v: u32) -> Self {
        AttrValue::U64(u64::from(v))
    }
}

impl From<i64> for AttrValue {
    fn from(v: i64) -> Self {
        AttrValue::I64(v)
    }
}

impl From<f64> for AttrValue {
    fn from(v: f64) -> Self {
        AttrValue::F64(v)
    }
}

impl From<&str> for AttrValue {
    fn from(v: &str) -> Self {
        AttrValue::Str(v.to_string())
    }
}

impl From<String> for AttrValue {
    fn from(v: String) -> Self {
        AttrValue::Str(v)
    }
}

/// One finished span, as buffered per thread and drained to sinks.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Unique id within the process (1-based).
    pub id: u64,
    /// Id of the enclosing span (0 = root).
    pub parent: u64,
    /// Dense id of the recording thread (see [`thread_id`]).
    pub thread: u64,
    /// Static span name, dot-separated by subsystem (`adq.iteration`,
    /// `nn.batch`, `tensor.matmul`, ...).
    pub name: &'static str,
    /// Monotonic start, nanoseconds since the process tracing epoch.
    pub start_ns: u64,
    /// Monotonic end, nanoseconds since the process tracing epoch.
    pub end_ns: u64,
    /// Structured attributes (layer index, bit-width, GEMM m/n/k, ...).
    pub attrs: Vec<(&'static str, AttrValue)>,
}

impl SpanRecord {
    /// Wall time covered by the span.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The event form written to telemetry sinks.
    pub fn to_event(&self) -> TelemetryEvent {
        let args = self
            .attrs
            .iter()
            .map(|(key, value)| ((*key).to_string(), value.to_json()))
            .collect();
        TelemetryEvent::SpanClosed {
            id: self.id,
            parent: self.parent,
            thread: self.thread,
            name: self.name.to_string(),
            start_ns: self.start_ns,
            end_ns: self.end_ns,
            args: serde_json::Value::Map(args),
        }
    }
}

/// Opens a span named `name` under this thread's current span.
///
/// Returns a disabled no-op guard when tracing is off, so call sites can
/// stay unconditional; gate only when building attributes would allocate.
pub fn span(name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard::disabled();
    }
    SpanGuard::open(name, current_span_id(), Vec::new())
}

/// Opens a span with attributes under this thread's current span.
///
/// Check [`enabled`]/[`verbose`] before building `attrs` so disabled
/// tracing costs no allocation.
pub fn span_with(name: &'static str, attrs: Vec<(&'static str, AttrValue)>) -> SpanGuard {
    if !enabled() {
        return SpanGuard::disabled();
    }
    SpanGuard::open(name, current_span_id(), attrs)
}

/// Opens a span under an explicit parent id, for work fanned out to
/// threads where the parent is not the ambient current span (rayon
/// workers). The new span still becomes the worker thread's current
/// span, so deeper nesting on that thread links up normally.
pub fn child_span_with(
    parent: u64,
    name: &'static str,
    attrs: Vec<(&'static str, AttrValue)>,
) -> SpanGuard {
    if !enabled() {
        return SpanGuard::disabled();
    }
    SpanGuard::open(name, parent, attrs)
}

/// An RAII guard measuring one span; records on drop.
///
/// Guards must drop in reverse open order on a thread (natural lexical
/// nesting); they are not `Send`.
#[must_use = "the span closes when the guard drops; binding to `_` closes it immediately"]
pub struct SpanGuard {
    data: Option<SpanData>,
    /// `!Send`: the guard manipulates thread-local parent state.
    _not_send: std::marker::PhantomData<*const ()>,
}

struct SpanData {
    id: u64,
    parent: u64,
    /// Current-span id to restore on drop.
    prev: u64,
    thread: u64,
    name: &'static str,
    start_ns: u64,
    attrs: Vec<(&'static str, AttrValue)>,
    /// Thread resource counters at open, when resource tracking is on;
    /// the drop handler attaches the deltas as attributes.
    res_base: Option<ThreadCounters>,
}

impl SpanGuard {
    /// A no-op guard (tracing disabled).
    pub fn disabled() -> Self {
        SpanGuard {
            data: None,
            _not_send: std::marker::PhantomData,
        }
    }

    fn open(name: &'static str, parent: u64, attrs: Vec<(&'static str, AttrValue)>) -> Self {
        let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
        let prev = CURRENT.with(|cell| cell.replace(id));
        let res_base = alloc::tracking().then(alloc::thread_counters);
        SpanGuard {
            data: Some(SpanData {
                id,
                parent,
                prev,
                thread: thread_id(),
                name,
                start_ns: now_ns(),
                attrs,
                res_base,
            }),
            _not_send: std::marker::PhantomData,
        }
    }

    /// This span's id (0 when disabled); pass to [`child_span_with`] for
    /// cross-thread children.
    pub fn id(&self) -> u64 {
        self.data.as_ref().map_or(0, |d| d.id)
    }

    /// Whether this guard is recording.
    pub fn is_recording(&self) -> bool {
        self.data.is_some()
    }

    /// Attaches an attribute after opening (for values known at the end
    /// of the region, like counts). No-op when disabled.
    pub fn attr(&mut self, key: &'static str, value: impl Into<AttrValue>) {
        if let Some(data) = self.data.as_mut() {
            data.attrs.push((key, value.into()));
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(mut data) = self.data.take() else {
            return;
        };
        let end_ns = now_ns();
        CURRENT.with(|cell| cell.set(data.prev));
        if let Some(base) = data.res_base.take() {
            // Deltas cover same-thread work inside the span, children
            // included; cross-thread children carry their own spans.
            let delta = alloc::thread_counters().delta_since(&base);
            data.attrs.push(("flops", AttrValue::U64(delta.flops)));
            data.attrs
                .push(("bytes_moved", AttrValue::U64(delta.bytes_moved)));
            if alloc::allocator_active() {
                data.attrs
                    .push(("alloc_bytes", AttrValue::U64(delta.alloc_bytes)));
                data.attrs
                    .push(("freed_bytes", AttrValue::U64(delta.freed_bytes)));
                data.attrs.push(("allocs", AttrValue::U64(delta.allocs)));
                // The process high-water mark as of span close; the phase
                // whose close first reports a value is where it was set.
                data.attrs
                    .push(("heap_peak_bytes", AttrValue::U64(alloc::heap_peak_bytes())));
            }
        }
        let record = SpanRecord {
            id: data.id,
            parent: data.parent,
            thread: data.thread,
            name: data.name,
            start_ns: data.start_ns,
            end_ns,
            attrs: data.attrs,
        };
        BUFFER.with(|cell| {
            let buffer = cell.get_or_init(|| {
                let shared: SharedBuffer = Arc::new(Mutex::new(Vec::new()));
                REGISTRY
                    .lock()
                    .expect("span registry poisoned")
                    .push(Arc::clone(&shared));
                shared
            });
            let mut spans = buffer.lock().expect("span buffer poisoned");
            if spans.len() < MAX_SPANS_PER_THREAD {
                spans.push(record);
            } else {
                DROPPED.fetch_add(1, Ordering::Relaxed);
            }
        });
    }
}

/// Removes and returns every buffered span from every thread, ordered by
/// `(start_ns, id)` so output is chronological regardless of which
/// thread recorded what.
pub fn drain() -> Vec<SpanRecord> {
    let buffers: Vec<SharedBuffer> = REGISTRY
        .lock()
        .expect("span registry poisoned")
        .iter()
        .map(Arc::clone)
        .collect();
    let mut records = Vec::new();
    for buffer in buffers {
        records.append(&mut buffer.lock().expect("span buffer poisoned"));
    }
    records.sort_by_key(|r| (r.start_ns, r.id));
    records
}

/// Drains every buffered span into `sink` as
/// [`TelemetryEvent::SpanClosed`] events; returns how many were written.
pub fn drain_into(sink: &dyn TelemetrySink) -> usize {
    let records = drain();
    for record in &records {
        sink.record(&record.to_event());
    }
    records.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::MemorySink;

    /// Tracer state is process-global; tests serialize and drain behind
    /// the crate-wide lock (shared with the alloc tests, whose tracking
    /// toggles would otherwise inject resource attrs into spans here).
    fn tracer_lock() -> std::sync::MutexGuard<'static, ()> {
        crate::global_test_lock()
    }

    #[test]
    fn disabled_tracing_records_nothing() {
        let _guard = tracer_lock();
        set_level(0);
        drain();
        {
            let outer = span("outer");
            assert_eq!(outer.id(), 0);
            assert!(!outer.is_recording());
            let _inner = span_with("inner", vec![("k", AttrValue::U64(1))]);
        }
        assert!(drain().is_empty());
    }

    #[test]
    fn nested_spans_link_to_their_parent() {
        let _guard = tracer_lock();
        set_level(1);
        drain();
        let (outer_id, inner_id);
        {
            let outer = span("outer");
            outer_id = outer.id();
            assert_eq!(current_span_id(), outer_id);
            {
                let inner = span("inner");
                inner_id = inner.id();
                assert_eq!(current_span_id(), inner_id);
            }
            assert_eq!(current_span_id(), outer_id);
        }
        assert_eq!(current_span_id(), 0);
        set_level(0);
        let records = drain();
        assert_eq!(records.len(), 2);
        let inner = records.iter().find(|r| r.name == "inner").expect("inner");
        let outer = records.iter().find(|r| r.name == "outer").expect("outer");
        assert_eq!(inner.id, inner_id);
        assert_eq!(inner.parent, outer_id);
        assert_eq!(outer.parent, 0);
        assert!(outer.start_ns <= inner.start_ns);
        assert!(inner.end_ns <= outer.end_ns);
    }

    #[test]
    fn attributes_and_late_attrs_are_kept() {
        let _guard = tracer_lock();
        set_level(1);
        drain();
        {
            let mut s = span_with("work", vec![("m", AttrValue::U64(8)), ("tag", "x".into())]);
            s.attr("items", 3usize);
        }
        set_level(0);
        let records = drain();
        assert_eq!(records.len(), 1);
        assert_eq!(
            records[0].attrs,
            vec![
                ("m", AttrValue::U64(8)),
                ("tag", AttrValue::Str("x".into())),
                ("items", AttrValue::U64(3)),
            ]
        );
    }

    #[test]
    fn explicit_parent_crosses_threads() {
        let _guard = tracer_lock();
        set_level(1);
        drain();
        let parent_id;
        {
            let parent = span("fanout");
            parent_id = parent.id();
            std::thread::scope(|scope| {
                for i in 0..2u64 {
                    scope.spawn(move || {
                        let _child =
                            child_span_with(parent_id, "worker", vec![("i", AttrValue::U64(i))]);
                    });
                }
            });
        }
        set_level(0);
        let records = drain();
        assert_eq!(records.len(), 3);
        let workers: Vec<_> = records.iter().filter(|r| r.name == "worker").collect();
        assert_eq!(workers.len(), 2);
        assert!(workers.iter().all(|w| w.parent == parent_id));
        let main_thread = records
            .iter()
            .find(|r| r.name == "fanout")
            .expect("parent")
            .thread;
        // Scoped worker threads get their own dense thread ids.
        assert!(workers.iter().all(|w| w.thread != main_thread));
    }

    #[test]
    fn drain_into_writes_span_closed_events() {
        let _guard = tracer_lock();
        set_level(1);
        drain();
        {
            let _s = span_with("emit", vec![("layer", AttrValue::U64(4))]);
        }
        set_level(0);
        let sink = MemorySink::new();
        let written = drain_into(&sink);
        assert_eq!(written, 1);
        let events = sink.events();
        match &events[0] {
            TelemetryEvent::SpanClosed {
                name, args, thread, ..
            } => {
                assert_eq!(name, "emit");
                assert!(*thread >= 1);
                assert_eq!(args.get("layer").and_then(|v| v.as_u64()), Some(4));
            }
            other => panic!("unexpected event {other:?}"),
        }
        // A second drain finds nothing.
        assert_eq!(drain_into(&sink), 0);
    }

    #[test]
    fn resource_deltas_attach_as_attrs_when_tracked() {
        let _guard = tracer_lock();
        set_level(1);
        alloc::set_tracking(true);
        drain();
        {
            let _outer = span("tracked.outer");
            alloc::add_flops(100);
            {
                let _inner = span("tracked.inner");
                alloc::add_flops(23);
                alloc::add_bytes_moved(456);
            }
        }
        alloc::set_tracking(false);
        set_level(0);
        let records = drain();
        let attr = |name: &str, key: &str| {
            records
                .iter()
                .find(|r| r.name == name)
                .and_then(|r| r.attrs.iter().find(|(k, _)| *k == key))
                .map(|(_, v)| v.clone())
        };
        // The inner span sees only its own work; the outer span's delta
        // includes the same-thread child.
        assert_eq!(attr("tracked.inner", "flops"), Some(AttrValue::U64(23)));
        assert_eq!(
            attr("tracked.inner", "bytes_moved"),
            Some(AttrValue::U64(456))
        );
        assert_eq!(attr("tracked.outer", "flops"), Some(AttrValue::U64(123)));
    }

    #[test]
    fn untracked_spans_carry_no_resource_attrs() {
        let _guard = tracer_lock();
        set_level(1);
        alloc::set_tracking(false);
        drain();
        {
            let _s = span("untracked");
        }
        set_level(0);
        let records = drain();
        let rec = records
            .iter()
            .find(|r| r.name == "untracked")
            .expect("span");
        assert!(rec.attrs.iter().all(|(k, _)| *k != "flops"));
        assert!(rec.attrs.iter().all(|(k, _)| *k != "alloc_bytes"));
    }

    #[test]
    fn span_records_roundtrip_as_events() {
        let record = SpanRecord {
            id: 9,
            parent: 4,
            thread: 2,
            name: "tensor.matmul",
            start_ns: 100,
            end_ns: 350,
            attrs: vec![
                ("m", AttrValue::U64(64)),
                ("loss", AttrValue::F64(0.5)),
                ("variant", AttrValue::Str("a_bt".into())),
            ],
        };
        assert_eq!(record.duration_ns(), 250);
        let event = record.to_event();
        let line = serde_json::to_string(&event).expect("serialise");
        let back: TelemetryEvent = serde_json::from_str(&line).expect("parse");
        assert_eq!(back, event);
    }
}
