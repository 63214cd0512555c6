//! Pluggable destinations for the telemetry event stream.
//!
//! Sinks take `&self` so one sink can be shared across the pipeline behind
//! an `Arc`; implementations use interior mutability where they buffer.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::event::TelemetryEvent;
use crate::metrics::Counter;

/// A destination for telemetry events.
pub trait TelemetrySink: Send + Sync {
    /// Accepts one event. Implementations must not panic on I/O problems;
    /// telemetry is observation-only and must never alter a run's outcome.
    fn record(&self, event: &TelemetryEvent);

    /// Forces buffered output down to its destination.
    fn flush(&self) {}
}

impl<S: TelemetrySink + ?Sized> TelemetrySink for std::sync::Arc<S> {
    fn record(&self, event: &TelemetryEvent) {
        (**self).record(event);
    }

    fn flush(&self) {
        (**self).flush();
    }
}

/// Discards every event (the default sink; near-zero overhead).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl TelemetrySink for NullSink {
    #[inline]
    fn record(&self, _event: &TelemetryEvent) {}
}

/// Collects events in memory, for tests and programmatic inspection.
#[derive(Debug, Default)]
pub struct MemorySink {
    events: Mutex<Vec<TelemetryEvent>>,
}

impl MemorySink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// A copy of every event recorded so far, in arrival order.
    pub fn events(&self) -> Vec<TelemetryEvent> {
        self.events.lock().expect("memory sink poisoned").clone()
    }

    /// Drains and returns the recorded events.
    pub fn take(&self) -> Vec<TelemetryEvent> {
        std::mem::take(&mut *self.events.lock().expect("memory sink poisoned"))
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.events.lock().expect("memory sink poisoned").len()
    }

    /// Whether no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl TelemetrySink for MemorySink {
    fn record(&self, event: &TelemetryEvent) {
        self.events
            .lock()
            .expect("memory sink poisoned")
            .push(event.clone());
    }
}

/// Appends one JSON object per line to a file (buffered).
///
/// Writes go through a [`BufWriter`] so hot instrumented runs (span
/// drains can emit thousands of lines per iteration) don't pay one
/// syscall per event; the buffer is flushed every
/// [`FLUSH_EVERY_EVENTS`](JsonlSink::FLUSH_EVERY_EVENTS) events or
/// [`FLUSH_INTERVAL`](JsonlSink::FLUSH_INTERVAL) of wall time, whichever
/// comes first, so live tailers (`adq-watch`) see fresh lines mid-run,
/// and once more on drop.
///
/// Write and flush failures after creation cannot abort the run
/// (telemetry is observation-only), but they are surfaced rather than
/// silently swallowed: each failure increments the process-wide
/// `telemetry.sink.write_errors` counter and this sink's
/// [`write_errors`](JsonlSink::write_errors) tally, and the first one
/// prints a warning to stderr.
#[derive(Debug)]
pub struct JsonlSink {
    writer: Mutex<BufferedState>,
    /// Failures on this sink (the global counter aggregates all sinks).
    errors: AtomicU64,
    /// `telemetry.sink.write_errors` in the global registry, resolved once.
    error_counter: Arc<Counter>,
}

/// The buffered writer plus the periodic-flush bookkeeping it owns.
#[derive(Debug)]
struct BufferedState {
    writer: BufWriter<File>,
    /// Events written since the last flush.
    pending: usize,
    /// When the last flush happened.
    last_flush: std::time::Instant,
}

impl JsonlSink {
    /// Events buffered before a flush is forced.
    pub const FLUSH_EVERY_EVENTS: usize = 64;

    /// Maximum wall time an event sits in the buffer before the next
    /// record flushes it through.
    pub const FLUSH_INTERVAL: std::time::Duration = std::time::Duration::from_millis(250);

    /// Creates (truncating) the JSONL file at `path`.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the file cannot be created.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let file = File::create(path)?;
        Ok(JsonlSink {
            writer: Mutex::new(BufferedState {
                writer: BufWriter::new(file),
                pending: 0,
                last_flush: std::time::Instant::now(),
            }),
            errors: AtomicU64::new(0),
            error_counter: crate::metrics::global().counter("telemetry.sink.write_errors"),
        })
    }

    /// Write/flush failures seen by this sink since creation.
    pub fn write_errors(&self) -> u64 {
        self.errors.load(Ordering::Relaxed)
    }

    fn count_error(&self, context: &str, err: &std::io::Error) {
        let seen = self.errors.fetch_add(1, Ordering::Relaxed);
        self.error_counter.inc();
        if seen == 0 {
            eprintln!("warning: telemetry jsonl {context} failed: {err}");
        }
    }

    /// Flushes `state` and resets its periodic-flush bookkeeping.
    fn flush_state(&self, state: &mut BufferedState) {
        if let Err(err) = state.writer.flush() {
            self.count_error("flush", &err);
        }
        state.pending = 0;
        state.last_flush = std::time::Instant::now();
    }
}

impl TelemetrySink for JsonlSink {
    fn record(&self, event: &TelemetryEvent) {
        let Ok(line) = serde_json::to_string(event) else {
            return;
        };
        let mut state = self.writer.lock().expect("jsonl sink poisoned");
        // Telemetry must never fail the run; count and drop the line on
        // I/O errors.
        if let Err(err) = writeln!(state.writer, "{line}") {
            self.count_error("write", &err);
        }
        state.pending += 1;
        if state.pending >= Self::FLUSH_EVERY_EVENTS
            || state.last_flush.elapsed() >= Self::FLUSH_INTERVAL
        {
            self.flush_state(&mut state);
        }
    }

    fn flush(&self) {
        let mut state = self.writer.lock().expect("jsonl sink poisoned");
        self.flush_state(&mut state);
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_event() -> TelemetryEvent {
        TelemetryEvent::EpochCompleted {
            iteration: 0,
            epoch: 1,
            loss: 0.5,
            accuracy: 0.75,
        }
    }

    #[test]
    fn memory_sink_preserves_order() {
        let sink = MemorySink::new();
        sink.record(&sample_event());
        sink.record(&TelemetryEvent::LayerRemoved {
            iteration: 0,
            layer: 2,
        });
        let events = sink.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind(), "EpochCompleted");
        assert_eq!(events[1].kind(), "LayerRemoved");
        assert_eq!(sink.take().len(), 2);
        assert!(sink.is_empty());
    }

    #[test]
    fn jsonl_sink_writes_parseable_lines() {
        let path =
            std::env::temp_dir().join(format!("adq-telemetry-test-{}.jsonl", std::process::id()));
        {
            let sink = JsonlSink::create(&path).expect("create file");
            sink.record(&sample_event());
            sink.record(&TelemetryEvent::RunCompleted {
                iterations: 1,
                training_complexity: 1.0,
                final_accuracy: 0.8,
            });
        }
        let text = std::fs::read_to_string(&path).expect("read back");
        let lines: Vec<_> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let first: TelemetryEvent = serde_json::from_str(lines[0]).expect("parse line");
        assert_eq!(first, sample_event());
        std::fs::remove_file(&path).ok();
    }

    /// Writing through a sink whose file cannot accept data (Linux
    /// `/dev/full` fails every write with `ENOSPC`) must not panic, must
    /// tally the failures, and must bump the global
    /// `telemetry.sink.write_errors` counter.
    #[test]
    #[cfg(target_os = "linux")]
    fn jsonl_sink_counts_write_errors() {
        let Ok(sink) = JsonlSink::create("/dev/full") else {
            // Environments without /dev/full can't exercise this path.
            return;
        };
        let global = crate::metrics::global().counter("telemetry.sink.write_errors");
        let before = global.get();
        // Overflow the BufWriter's internal buffer so the write path
        // itself fails, not just the final flush.
        for _ in 0..2048 {
            sink.record(&sample_event());
        }
        sink.flush();
        assert!(sink.write_errors() >= 1);
        assert!(global.get() > before);
    }

    #[test]
    fn jsonl_sink_reports_no_errors_on_healthy_target() {
        let path = std::env::temp_dir().join(format!(
            "adq-telemetry-ok-{}-{:?}.jsonl",
            std::process::id(),
            std::thread::current().id()
        ));
        let sink = JsonlSink::create(&path).expect("create file");
        sink.record(&sample_event());
        sink.flush();
        assert_eq!(sink.write_errors(), 0);
        drop(sink);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn jsonl_sink_flushes_periodically_for_live_tailers() {
        let path = std::env::temp_dir().join(format!(
            "adq-telemetry-periodic-{}-{:?}.jsonl",
            std::process::id(),
            std::thread::current().id()
        ));
        let sink = JsonlSink::create(&path).expect("create file");
        // Count threshold: the batch is on disk without an explicit flush
        // while the sink is still alive.
        for _ in 0..JsonlSink::FLUSH_EVERY_EVENTS {
            sink.record(&sample_event());
        }
        let text = std::fs::read_to_string(&path).expect("read while live");
        assert_eq!(text.lines().count(), JsonlSink::FLUSH_EVERY_EVENTS);
        // Time threshold: one stale buffered event flushes through with
        // the next record once the interval has passed.
        sink.record(&sample_event());
        std::thread::sleep(JsonlSink::FLUSH_INTERVAL + std::time::Duration::from_millis(50));
        sink.record(&sample_event());
        let text = std::fs::read_to_string(&path).expect("read while live");
        assert_eq!(text.lines().count(), JsonlSink::FLUSH_EVERY_EVENTS + 2);
        drop(sink);
        std::fs::remove_file(&path).ok();
    }
}
