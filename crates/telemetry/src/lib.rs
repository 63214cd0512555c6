//! Telemetry for the AD-quantization pipeline: structured run events,
//! pluggable sinks, and a metrics registry with hot-path timers.
//!
//! Three pieces, usable independently:
//!
//! * [`TelemetryEvent`] — a typed event per Algorithm-1 lifecycle step
//!   (run start, epochs, density measurements, saturation, bit-width
//!   re-assignment, pruning, layer removal, iteration and run completion,
//!   energy estimates), serializable as externally tagged JSON.
//! * [`TelemetrySink`] — where events go: [`JsonlSink`] (buffered file,
//!   one JSON object per line), [`MemorySink`] (tests), and the default
//!   no-op [`NullSink`].
//! * [`MetricsRegistry`] — thread-safe counters, gauges, and fixed-bucket
//!   histograms; [`ScopedTimer`] records wall-time into a histogram on
//!   drop and instruments `im2col`, `matmul`, quantizer forward, and AD
//!   metering via the process-wide [`metrics::global`] registry.
//! * [`span`] — hierarchical tracing spans ([`SpanGuard`] with
//!   parent/child ids, thread ids, monotonic timestamps, structured
//!   attributes) buffered per thread and drained into any sink as
//!   [`TelemetryEvent::SpanClosed`] events; gated by the `ADQ_TRACE`
//!   environment variable (0 = off, 1 = phases, 2 = verbose tiles).
//! * [`trace`] — exporters turning a span stream into Chrome Trace
//!   Event JSON (`chrome://tracing`/Perfetto) and collapsed-stack text
//!   for flamegraphs.
//! * [`alloc`] — resource counters: a counting [`CountingAllocator`]
//!   (`GlobalAlloc` shim binaries opt into) plus FLOP/bytes-moved
//!   counters the kernels feed; spans attach the per-phase deltas as
//!   attributes when `ADQ_RESOURCES` tracking is on.
//! * [`endpoint`] — [`MetricsEndpoint`], a std-only TCP server exposing
//!   the registry (and resource totals) in Prometheus text exposition
//!   format for live scraping.
//! * [`health`] — [`HealthMonitor`]/[`RunHealth`], typed anomaly
//!   detection (non-finite loss, accuracy collapse, stalled run, queue
//!   saturation) over the event stream, used by `adq-watch`.
//! * [`lifecycle`] — serving request-lifecycle records: one
//!   [`RequestRecord`] per request with per-stage nanosecond deltas,
//!   the JSONL [`AccessLog`] with its off-hot-path writer thread, and
//!   [`TailExemplars`] retaining the K slowest requests for tail
//!   attribution (`adq-report --serving`).
//!
//! Telemetry is observation-only by contract: attaching any sink —
//! enabling tracing at any level, resource tracking, or the live
//! endpoint — must not change a run's numeric results.

pub mod alloc;
pub mod endpoint;
pub mod event;
pub mod health;
pub mod lifecycle;
pub mod metrics;
pub mod sink;
pub mod span;
pub mod trace;

pub use alloc::CountingAllocator;
pub use endpoint::MetricsEndpoint;
pub use event::TelemetryEvent;
pub use health::{HealthMonitor, RunHealth};
pub use lifecycle::{AccessLog, AccessLogHandle, LogSummary, RequestRecord, TailExemplars};
pub use metrics::{Counter, Gauge, Histogram, MetricsRegistry, ScopedTimer};
pub use sink::{JsonlSink, MemorySink, NullSink, TelemetrySink};
pub use span::{AttrValue, SpanGuard, SpanRecord};
pub use trace::TraceSpan;

/// Serialises unit tests that mutate process-global telemetry state
/// (trace level, resource tracking) across this crate's test modules.
#[cfg(test)]
pub(crate) fn global_test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}
