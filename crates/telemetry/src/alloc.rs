//! Resource counters and a counting [`GlobalAlloc`] shim.
//!
//! The paper's argument is a resource ledger — energy, memory, and
//! compute per layer (Tables I/IV–VI) — so observability needs more than
//! wall time. This module supplies the raw counters the span layer
//! attributes to Algorithm-1 phases:
//!
//! * **Heap traffic** via [`CountingAllocator`], a [`GlobalAlloc`]
//!   wrapper around [`System`] that binaries opt into with
//!   `#[global_allocator]` (the bench crate does). When tracking is off
//!   it costs one relaxed atomic load per allocation; when on it adds
//!   bytes allocated/freed and allocation counts to the calling thread's
//!   counters, and maintains a process-wide current/high-water heap size.
//! * **Compute traffic** via [`add_flops`] / [`add_bytes_moved`], called
//!   once per kernel invocation (GEMM, `im2col`, fake-quantize, AD
//!   metering) with the call's whole cost — never per element.
//!
//! Counters are monotonic; attribution happens by *differencing*: a
//! [`SpanGuard`](crate::span::SpanGuard) snapshots the thread's counters
//! when it opens and attaches the deltas as span attributes when it
//! closes. Parent spans therefore include same-thread child work
//! automatically, and cross-thread work is carried by the worker's own
//! spans (`tensor.gemm.tile`).
//!
//! Everything is gated on [`tracking`] (set from the `ADQ_RESOURCES`
//! environment variable by [`init_from_env`], or directly via
//! [`set_tracking`]) and is observation-only by contract: enabling
//! tracking must not change a run's numeric results.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static TRACKING: AtomicBool = AtomicBool::new(false);
/// Set the first time the counting allocator counts anything, so report
/// layers can distinguish "no allocations" from "shim not installed".
static ALLOCATOR_ACTIVE: AtomicBool = AtomicBool::new(false);

static GLOBAL_ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static GLOBAL_FREED_BYTES: AtomicU64 = AtomicU64::new(0);
static GLOBAL_ALLOCS: AtomicU64 = AtomicU64::new(0);
static GLOBAL_FLOPS: AtomicU64 = AtomicU64::new(0);
static GLOBAL_BYTES_MOVED: AtomicU64 = AtomicU64::new(0);
/// Live (net) heap bytes under tracking; saturating so frees of blocks
/// allocated before tracking was enabled cannot wrap it.
static HEAP_CURRENT: AtomicU64 = AtomicU64::new(0);
static HEAP_PEAK: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // Const-initialised `Cell`s with no destructor: safe to touch from
    // inside the allocator (no lazy allocation, no TLS-dtor recursion).
    static T_ALLOC_BYTES: Cell<u64> = const { Cell::new(0) };
    static T_FREED_BYTES: Cell<u64> = const { Cell::new(0) };
    static T_ALLOCS: Cell<u64> = const { Cell::new(0) };
    static T_FLOPS: Cell<u64> = const { Cell::new(0) };
    static T_BYTES_MOVED: Cell<u64> = const { Cell::new(0) };
}

/// Whether resource tracking (allocation + FLOP/bytes-moved counting) is
/// active. One relaxed load; the hot-path gate for every counter.
#[inline]
pub fn tracking() -> bool {
    TRACKING.load(Ordering::Relaxed)
}

/// Turns resource tracking on or off (wins over `ADQ_RESOURCES`).
pub fn set_tracking(on: bool) {
    TRACKING.store(on, Ordering::Relaxed);
}

/// Enables tracking from the `ADQ_RESOURCES` environment variable:
/// unset → `default_on`, `0`/`off`/`false` → off, anything else → on.
/// Bench binaries call this with `default_on = true` so resource columns
/// appear without extra flags; `ADQ_RESOURCES=0` opts out.
pub fn init_from_env(default_on: bool) {
    let on = match std::env::var("ADQ_RESOURCES") {
        Ok(raw) => !matches!(raw.trim(), "0" | "off" | "false"),
        Err(_) => default_on,
    };
    set_tracking(on);
}

/// Whether the counting allocator has attributed at least one
/// allocation — i.e. the shim is installed *and* tracking was on while
/// something allocated. Memory attrs are only attached to spans when
/// this holds, so a build without the shim never reports zeros as fact.
#[inline]
pub fn allocator_active() -> bool {
    ALLOCATOR_ACTIVE.load(Ordering::Relaxed)
}

/// Adds `n` floating-point operations to this thread's and the global
/// FLOP counters. Call once per kernel call with the whole cost.
#[inline]
pub fn add_flops(n: u64) {
    if !tracking() {
        return;
    }
    let _ = T_FLOPS.try_with(|c| c.set(c.get().wrapping_add(n)));
    GLOBAL_FLOPS.fetch_add(n, Ordering::Relaxed);
}

/// Adds `n` bytes of memory traffic (reads + writes a kernel performs on
/// its operands) to this thread's and the global bytes-moved counters.
#[inline]
pub fn add_bytes_moved(n: u64) {
    if !tracking() {
        return;
    }
    let _ = T_BYTES_MOVED.try_with(|c| c.set(c.get().wrapping_add(n)));
    GLOBAL_BYTES_MOVED.fetch_add(n, Ordering::Relaxed);
}

/// A snapshot of one thread's monotonic resource counters. Subtract two
/// snapshots ([`ThreadCounters::delta_since`]) to attribute the interval
/// between them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ThreadCounters {
    /// Heap bytes allocated on this thread (cumulative).
    pub alloc_bytes: u64,
    /// Heap bytes freed on this thread (cumulative).
    pub freed_bytes: u64,
    /// Allocation count on this thread (cumulative).
    pub allocs: u64,
    /// Floating-point operations reported on this thread (cumulative).
    pub flops: u64,
    /// Kernel memory traffic reported on this thread (cumulative).
    pub bytes_moved: u64,
}

impl ThreadCounters {
    /// The change since an earlier snapshot `base` on the same thread.
    pub fn delta_since(&self, base: &ThreadCounters) -> ThreadCounters {
        ThreadCounters {
            alloc_bytes: self.alloc_bytes.wrapping_sub(base.alloc_bytes),
            freed_bytes: self.freed_bytes.wrapping_sub(base.freed_bytes),
            allocs: self.allocs.wrapping_sub(base.allocs),
            flops: self.flops.wrapping_sub(base.flops),
            bytes_moved: self.bytes_moved.wrapping_sub(base.bytes_moved),
        }
    }
}

/// Reads the calling thread's resource counters.
pub fn thread_counters() -> ThreadCounters {
    ThreadCounters {
        alloc_bytes: T_ALLOC_BYTES.with(Cell::get),
        freed_bytes: T_FREED_BYTES.with(Cell::get),
        allocs: T_ALLOCS.with(Cell::get),
        flops: T_FLOPS.with(Cell::get),
        bytes_moved: T_BYTES_MOVED.with(Cell::get),
    }
}

/// Process-wide resource totals, for live metrics export.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GlobalTotals {
    /// Heap bytes allocated across all threads (cumulative).
    pub alloc_bytes: u64,
    /// Heap bytes freed across all threads (cumulative).
    pub freed_bytes: u64,
    /// Allocations across all threads (cumulative).
    pub allocs: u64,
    /// Floating-point operations across all threads (cumulative).
    pub flops: u64,
    /// Kernel memory traffic across all threads (cumulative).
    pub bytes_moved: u64,
    /// Live heap bytes right now (tracked allocations only).
    pub heap_current_bytes: u64,
    /// High-water mark of [`Self::heap_current_bytes`].
    pub heap_peak_bytes: u64,
}

/// Reads the process-wide totals.
pub fn global_totals() -> GlobalTotals {
    GlobalTotals {
        alloc_bytes: GLOBAL_ALLOC_BYTES.load(Ordering::Relaxed),
        freed_bytes: GLOBAL_FREED_BYTES.load(Ordering::Relaxed),
        allocs: GLOBAL_ALLOCS.load(Ordering::Relaxed),
        flops: GLOBAL_FLOPS.load(Ordering::Relaxed),
        bytes_moved: GLOBAL_BYTES_MOVED.load(Ordering::Relaxed),
        heap_current_bytes: HEAP_CURRENT.load(Ordering::Relaxed),
        heap_peak_bytes: HEAP_PEAK.load(Ordering::Relaxed),
    }
}

/// The process-wide heap high-water mark (0 until the shim counts).
pub fn heap_peak_bytes() -> u64 {
    HEAP_PEAK.load(Ordering::Relaxed)
}

/// A counting allocator that forwards to [`System`] and, when
/// [`tracking`] is on, attributes heap traffic to the calling thread.
///
/// Install in a binary (or a crate only binaries link) with:
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: adq_telemetry::alloc::CountingAllocator =
///     adq_telemetry::alloc::CountingAllocator;
/// ```
///
/// The counting paths allocate nothing themselves (const-initialised
/// thread-local cells, relaxed atomics), so the shim cannot recurse.
pub struct CountingAllocator;

impl CountingAllocator {
    #[inline]
    fn on_alloc(size: usize) {
        if !tracking() {
            return;
        }
        ALLOCATOR_ACTIVE.store(true, Ordering::Relaxed);
        let size = size as u64;
        // `try_with` skips counting during TLS teardown instead of
        // panicking inside the allocator.
        let _ = T_ALLOC_BYTES.try_with(|c| c.set(c.get().wrapping_add(size)));
        let _ = T_ALLOCS.try_with(|c| c.set(c.get().wrapping_add(1)));
        GLOBAL_ALLOC_BYTES.fetch_add(size, Ordering::Relaxed);
        GLOBAL_ALLOCS.fetch_add(1, Ordering::Relaxed);
        let current = HEAP_CURRENT
            .fetch_add(size, Ordering::Relaxed)
            .wrapping_add(size);
        HEAP_PEAK.fetch_max(current, Ordering::Relaxed);
    }

    #[inline]
    fn on_free(size: usize) {
        if !tracking() {
            return;
        }
        let size = size as u64;
        let _ = T_FREED_BYTES.try_with(|c| c.set(c.get().wrapping_add(size)));
        GLOBAL_FREED_BYTES.fetch_add(size, Ordering::Relaxed);
        // Saturate: blocks allocated before tracking was switched on may
        // be freed after, and must not wrap the live-heap gauge.
        let _ = HEAP_CURRENT.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |cur| {
            Some(cur.saturating_sub(size))
        });
    }
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            Self::on_alloc(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        Self::on_free(layout.size());
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            Self::on_alloc(layout.size());
        }
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new_ptr = System.realloc(ptr, layout, new_size);
        if !new_ptr.is_null() {
            // A grow-or-shrink counts as free(old) + alloc(new), keeping
            // the live-heap gauge exact.
            Self::on_free(layout.size());
            Self::on_alloc(new_size);
        }
        new_ptr
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tracking state is process-global; tests serialize behind the
    /// crate-wide lock (the span tests toggle the same state).
    fn tracking_lock() -> std::sync::MutexGuard<'static, ()> {
        crate::global_test_lock()
    }

    #[test]
    fn counters_are_inert_when_tracking_is_off() {
        let _guard = tracking_lock();
        set_tracking(false);
        let before = thread_counters();
        add_flops(1_000);
        add_bytes_moved(4_096);
        CountingAllocator::on_alloc(128);
        CountingAllocator::on_free(128);
        assert_eq!(thread_counters(), before);
    }

    #[test]
    fn flop_and_byte_counters_accumulate_per_thread() {
        let _guard = tracking_lock();
        set_tracking(true);
        let base = thread_counters();
        add_flops(250);
        add_bytes_moved(1_024);
        add_flops(750);
        let delta = thread_counters().delta_since(&base);
        set_tracking(false);
        assert_eq!(delta.flops, 1_000);
        assert_eq!(delta.bytes_moved, 1_024);
        assert_eq!(delta.alloc_bytes, 0);
    }

    #[test]
    fn allocator_hooks_update_thread_and_heap_counters() {
        let _guard = tracking_lock();
        set_tracking(true);
        let base = thread_counters();
        let heap_base = global_totals().heap_current_bytes;
        CountingAllocator::on_alloc(4_096);
        CountingAllocator::on_alloc(512);
        CountingAllocator::on_free(512);
        let delta = thread_counters().delta_since(&base);
        let totals = global_totals();
        set_tracking(false);
        assert_eq!(delta.alloc_bytes, 4_608);
        assert_eq!(delta.freed_bytes, 512);
        assert_eq!(delta.allocs, 2);
        assert!(allocator_active());
        assert_eq!(totals.heap_current_bytes, heap_base + 4_096);
        assert!(totals.heap_peak_bytes >= heap_base + 4_608);
        // Restore the live-heap gauge for other tests in this process.
        CountingAllocator::on_free(0);
        let _ = super::HEAP_CURRENT.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |c| {
            Some(c.saturating_sub(4_096))
        });
    }

    #[test]
    fn untracked_frees_saturate_instead_of_wrapping() {
        let _guard = tracking_lock();
        set_tracking(true);
        // Free more than was ever tracked: gauge must floor at zero.
        CountingAllocator::on_free(u64::MAX as usize >> 1);
        let totals = global_totals();
        set_tracking(false);
        assert!(totals.heap_current_bytes < (1 << 40), "gauge wrapped");
    }

    #[test]
    fn counting_paths_do_not_allocate_reentrantly() {
        // Smoke: running the hooks from many threads at once must not
        // deadlock or panic (they only touch cells and atomics).
        let _guard = tracking_lock();
        set_tracking(true);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..1_000 {
                        CountingAllocator::on_alloc(64);
                        add_flops(8);
                        CountingAllocator::on_free(64);
                    }
                });
            }
        });
        set_tracking(false);
    }
}
