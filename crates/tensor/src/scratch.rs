//! A reusable workspace arena for hot-path buffers.
//!
//! The conv/quant training loop allocates the same large buffers on every
//! batch — padded conv inputs, GEMM pack panels, matmul outputs, and the
//! column matrices of naive-plan convs and of the input gradient. A
//! [`Scratch`] lets a layer keep those allocations alive across batches:
//! [`Scratch::take`] hands out a buffer (recycled when one is pooled,
//! freshly allocated otherwise) and [`Scratch::give`] returns it to the
//! pool once the caller is done.
//!
//! Retained memory is bounded: each arena caps the bytes it keeps pooled
//! ([`Scratch::DEFAULT_RETAINED_LIMIT`] unless configured via
//! [`Scratch::with_retained_limit`]) and evicts the largest unused buffers
//! first when a give-back would exceed it — a long run's pool converges to
//! the working set instead of accumulating every transient high-water
//! buffer it ever saw.
//!
//! For call sites without a natural owner for an arena (the plain
//! [`crate::matmul`] entry points, pool workers), a process-wide
//! **thread-keyed pool** hands each OS thread its own arena via
//! [`with_thread_scratch`] — no locking on the hot path, and buffers never
//! migrate between threads.
//!
//! Reuse is observable through the process-wide telemetry counters
//! `tensor.scratch.reuse_hits` (a pooled buffer satisfied a request),
//! `tensor.scratch.allocs` (a fresh allocation was needed) and
//! `tensor.scratch.evictions` (the retained-byte cap dropped a buffer),
//! plus the gauge `tensor.scratch.pool.live` (thread-keyed arenas alive).

use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use adq_telemetry::Counter;

use crate::Tensor;

fn reuse_hits() -> &'static Arc<Counter> {
    static HITS: OnceLock<Arc<Counter>> = OnceLock::new();
    HITS.get_or_init(|| adq_telemetry::metrics::global().counter("tensor.scratch.reuse_hits"))
}

fn allocs() -> &'static Arc<Counter> {
    static ALLOCS: OnceLock<Arc<Counter>> = OnceLock::new();
    ALLOCS.get_or_init(|| adq_telemetry::metrics::global().counter("tensor.scratch.allocs"))
}

fn evictions() -> &'static Arc<Counter> {
    static EVICTIONS: OnceLock<Arc<Counter>> = OnceLock::new();
    EVICTIONS.get_or_init(|| adq_telemetry::metrics::global().counter("tensor.scratch.evictions"))
}

/// A pool of `f32` buffers reused across hot-path calls.
///
/// Buffers are matched by capacity: [`Scratch::take`] prefers the smallest
/// pooled buffer whose capacity already covers the request, falling back to
/// growing the largest one. Total pooled capacity is capped at the arena's
/// retained limit; [`Scratch::give`] evicts the largest unused buffers
/// first until a give-back fits.
///
/// Cloning a `Scratch` yields an *empty* pool — pooled memory is an
/// optimization, not state, so clones of a layer start cold rather than
/// duplicating multi-megabyte buffers. The clone keeps the donor's
/// retained limit.
///
/// # Example
///
/// ```
/// use adq_tensor::Scratch;
///
/// let mut scratch = Scratch::new();
/// let buf = scratch.take(1024); // fresh allocation, contents unspecified
/// scratch.give(buf);
/// let again = scratch.take(512); // recycled from the pool
/// assert_eq!(again.len(), 512);
/// ```
#[derive(Debug)]
pub struct Scratch {
    pool: Vec<Vec<f32>>,
    /// Sum of pooled capacities, in bytes (kept in sync by take/give).
    retained: usize,
    /// Cap on `retained`.
    limit: usize,
    /// Lifetime count of takes the pool could not serve (fresh
    /// allocations), per arena — the deterministic signal the
    /// take-ordering regression tests assert on.
    fresh_allocs: u64,
}

impl Default for Scratch {
    fn default() -> Self {
        Self::new()
    }
}

impl Clone for Scratch {
    fn clone(&self) -> Self {
        Scratch::with_retained_limit(self.limit)
    }
}

impl Scratch {
    /// Default cap on pooled bytes per arena: 256 MiB, comfortably above
    /// the largest single pack or lowering buffer the full-size VGG-19
    /// smoke shapes need, so eviction only fires on genuinely accumulating
    /// pools.
    pub const DEFAULT_RETAINED_LIMIT: usize = 256 << 20;

    /// An empty pool with the default retained-byte limit.
    pub fn new() -> Self {
        Self::with_retained_limit(Self::DEFAULT_RETAINED_LIMIT)
    }

    /// An empty pool that retains at most `limit` bytes across give-backs.
    pub fn with_retained_limit(limit: usize) -> Self {
        Self {
            pool: Vec::new(),
            retained: 0,
            limit,
            fresh_allocs: 0,
        }
    }

    /// Number of buffers currently pooled.
    pub fn pooled(&self) -> usize {
        self.pool.len()
    }

    /// Bytes of capacity currently held by pooled (unused) buffers.
    pub fn retained_bytes(&self) -> usize {
        self.retained
    }

    /// The cap on [`Scratch::retained_bytes`].
    pub fn retained_limit(&self) -> usize {
        self.limit
    }

    /// Lifetime number of [`Scratch::take`] calls this arena served with
    /// a fresh allocation instead of a pooled buffer. On a warm arena a
    /// well-ordered kernel performs exactly one fresh allocation per
    /// call — the output that escapes to the caller — so this counter is
    /// the deterministic regression signal for take-ordering bugs that
    /// timing-based checks can only see as noise.
    pub fn fresh_allocs(&self) -> u64 {
        self.fresh_allocs
    }

    /// Takes a buffer of exactly `len` elements with **unspecified
    /// contents** — stale data from a previous use may be present. Use
    /// [`Scratch::take_zeroed`] when the caller relies on zero
    /// initialisation.
    pub fn take(&mut self, len: usize) -> Vec<f32> {
        match self.best_fit(len) {
            Some(idx) => {
                reuse_hits().inc();
                let mut buf = self.pool.swap_remove(idx);
                self.retained -= capacity_bytes(buf.capacity());
                buf.resize(len, 0.0);
                buf
            }
            None => {
                allocs().inc();
                self.fresh_allocs += 1;
                vec![0.0; len]
            }
        }
    }

    /// Takes a buffer of `len` elements, every element zero. Only a
    /// pooled buffer is actually scrubbed — a fresh allocation is
    /// already zeroed by the allocator, and re-clearing it would cost a
    /// second pass over the output of every cold call.
    pub fn take_zeroed(&mut self, len: usize) -> Vec<f32> {
        match self.best_fit(len) {
            Some(idx) => {
                reuse_hits().inc();
                let mut buf = self.pool.swap_remove(idx);
                self.retained -= capacity_bytes(buf.capacity());
                buf.resize(len, 0.0);
                buf.fill(0.0);
                buf
            }
            None => {
                allocs().inc();
                self.fresh_allocs += 1;
                vec![0.0; len]
            }
        }
    }

    /// Returns a buffer to the pool for reuse. Zero-capacity buffers are
    /// dropped — recycling them would record spurious reuse hits. If the
    /// give-back would push retained capacity past the arena's limit, the
    /// largest unused buffers are evicted first (each eviction counted in
    /// `tensor.scratch.evictions`); a buffer larger than the whole limit
    /// is dropped outright.
    pub fn give(&mut self, buf: Vec<f32>) {
        if buf.capacity() == 0 {
            return;
        }
        let incoming = capacity_bytes(buf.capacity());
        if incoming > self.limit {
            evictions().inc();
            return;
        }
        self.retained += incoming;
        self.pool.push(buf);
        while self.retained > self.limit {
            let largest = self
                .pool
                .iter()
                .enumerate()
                .max_by_key(|(_, b)| b.capacity())
                .map(|(idx, _)| idx)
                .expect("retained > 0 implies a pooled buffer");
            let dropped = self.pool.swap_remove(largest);
            self.retained -= capacity_bytes(dropped.capacity());
            evictions().inc();
        }
    }

    /// Index of the smallest pooled buffer with capacity ≥ `len`, or the
    /// largest pooled buffer when none is big enough (growing the largest
    /// wastes the least already-committed memory), or `None` when empty.
    fn best_fit(&self, len: usize) -> Option<usize> {
        if self.pool.is_empty() {
            return None;
        }
        let mut covering: Option<(usize, usize)> = None; // (capacity, idx)
        let mut largest = (0usize, 0usize);
        for (idx, buf) in self.pool.iter().enumerate() {
            let cap = buf.capacity();
            if cap >= len && covering.is_none_or(|(best, _)| cap < best) {
                covering = Some((cap, idx));
            }
            if cap >= largest.0 {
                largest = (cap, idx);
            }
        }
        Some(covering.map_or(largest.1, |(_, idx)| idx))
    }
}

/// A buffer capacity in bytes — what the allocator actually holds, which
/// a shrunken `len` undercounts.
fn capacity_bytes(capacity: usize) -> usize {
    capacity * std::mem::size_of::<f32>()
}

/// Thread-keyed arenas currently alive (mirrors the
/// `tensor.scratch.pool.live` gauge).
static LIVE_ARENAS: AtomicUsize = AtomicUsize::new(0);

fn publish_live_arenas(count: usize) {
    adq_telemetry::metrics::global()
        .gauge("tensor.scratch.pool.live")
        .set(count as f64);
}

/// A thread's slot in the process-wide pool: tracks the live-arena gauge
/// as threads first touch scratch and exit. Rayon's pool workers persist,
/// so their arenas (and buffers) are reused across parallel calls.
struct ThreadArena {
    scratch: Scratch,
}

impl ThreadArena {
    fn new() -> Self {
        let count = LIVE_ARENAS.fetch_add(1, Ordering::Relaxed) + 1;
        publish_live_arenas(count);
        Self {
            scratch: Scratch::new(),
        }
    }
}

impl Drop for ThreadArena {
    fn drop(&mut self) {
        let count = LIVE_ARENAS.fetch_sub(1, Ordering::Relaxed) - 1;
        publish_live_arenas(count);
    }
}

thread_local! {
    static THREAD_SCRATCH: RefCell<ThreadArena> = RefCell::new(ThreadArena::new());
}

/// Runs `f` with the calling thread's arena from the process-wide
/// thread-keyed pool.
///
/// Each OS thread owns exactly one arena, created lazily on first use and
/// freed when the thread exits — buffers never cross threads and no lock
/// is taken. The number of live arenas is published to the
/// `tensor.scratch.pool.live` gauge.
///
/// # Panics
///
/// Panics if called reentrantly from within `f` (the arena is singly
/// borrowed).
pub fn with_thread_scratch<R>(f: impl FnOnce(&mut Scratch) -> R) -> R {
    THREAD_SCRATCH.with(|cell| f(&mut cell.borrow_mut().scratch))
}

/// A tensor of `dims` in a buffer from the calling thread's arena, with
/// **unspecified contents** (see [`Scratch::take`]).
///
/// Tensors that pass between layers — a layer's output, its input
/// gradient — come from here, and the model gives each back
/// ([`recycle`]) once the layer that received it is done. One arena per
/// thread serves every layer, so a buffer freed by one layer is reused by
/// the next one's output, as a heap allocator would reuse it, and a warm
/// training step allocates nothing.
pub fn take_tensor(dims: &[usize]) -> Tensor {
    let len = crate::shape::element_count(dims);
    Tensor::from_vec(with_thread_scratch(|s| s.take(len)), dims).expect("sized to fit")
}

/// [`take_tensor`] with every element zero (see [`Scratch::take_zeroed`]).
pub fn take_tensor_zeroed(dims: &[usize]) -> Tensor {
    let len = crate::shape::element_count(dims);
    Tensor::from_vec(with_thread_scratch(|s| s.take_zeroed(len)), dims).expect("sized to fit")
}

/// Gives `t`'s buffer to the calling thread's arena, for a later
/// [`take_tensor`] to reuse.
pub fn recycle(t: Tensor) {
    with_thread_scratch(|s| s.give(t.into_vec()));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_give_take_reuses_capacity() {
        let mut scratch = Scratch::new();
        let buf = scratch.take(100);
        let ptr = buf.as_ptr();
        scratch.give(buf);
        let again = scratch.take(80);
        assert_eq!(again.len(), 80);
        assert_eq!(again.as_ptr(), ptr, "expected the pooled buffer back");
        assert_eq!(scratch.pooled(), 0);
        assert_eq!(scratch.retained_bytes(), 0);
    }

    #[test]
    fn take_zeroed_clears_stale_contents() {
        let mut scratch = Scratch::new();
        let mut buf = scratch.take(16);
        buf.fill(7.0);
        scratch.give(buf);
        let clean = scratch.take_zeroed(16);
        assert!(clean.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn best_fit_prefers_smallest_covering_buffer() {
        let mut scratch = Scratch::new();
        scratch.give(Vec::with_capacity(1000));
        scratch.give(Vec::with_capacity(10));
        let buf = scratch.take(8);
        assert!(buf.capacity() < 1000, "small request took the big buffer");
        assert_eq!(scratch.pooled(), 1);
    }

    #[test]
    fn grows_largest_when_nothing_covers() {
        let mut scratch = Scratch::new();
        scratch.give(Vec::with_capacity(4));
        scratch.give(Vec::with_capacity(16));
        let buf = scratch.take(64);
        assert_eq!(buf.len(), 64);
        // the 16-capacity buffer was grown; the 4-capacity one remains
        assert_eq!(scratch.pooled(), 1);
        assert!(scratch.pool[0].capacity() < 16);
    }

    #[test]
    fn clone_starts_cold() {
        let mut scratch = Scratch::with_retained_limit(12345);
        scratch.give(vec![0.0; 32]);
        let clone = scratch.clone();
        assert_eq!(clone.pooled(), 0);
        assert_eq!(clone.retained_limit(), 12345);
    }

    #[test]
    fn empty_buffers_are_not_pooled() {
        let mut scratch = Scratch::new();
        scratch.give(Vec::new());
        assert_eq!(scratch.pooled(), 0);
    }

    #[test]
    fn give_back_pool_is_bounded() {
        // regression: the pool used to grow without bound across a long
        // run — every distinct high-water buffer stayed pooled forever
        let limit = 1024 * std::mem::size_of::<f32>();
        let mut scratch = Scratch::with_retained_limit(limit);
        let before = evictions().get();
        let mut peak = 0usize;
        for round in 0..100 {
            // distinct sizes so best-fit keeps missing and give keeps adding
            scratch.give(vec![0.0; 64 + round]);
            peak = peak.max(scratch.retained_bytes());
        }
        assert!(
            peak <= limit,
            "retained bytes peaked at {peak}, limit {limit}"
        );
        assert!(
            evictions().get() > before,
            "bounding the pool must surface evictions"
        );
        // the pool still serves requests after evicting
        let buf = scratch.take(64);
        assert_eq!(buf.len(), 64);
    }

    #[test]
    fn evicts_largest_unused_first() {
        let elem = std::mem::size_of::<f32>();
        let mut scratch = Scratch::with_retained_limit(300 * elem);
        scratch.give(vec![0.0; 200]);
        scratch.give(vec![0.0; 50]);
        // 250 elements retained; adding 80 exceeds 300 -> the 200-element
        // buffer (largest) goes first, leaving 50 + 80
        scratch.give(vec![0.0; 80]);
        assert_eq!(scratch.pooled(), 2);
        assert!(scratch.retained_bytes() <= 300 * elem);
        assert!(scratch.pool.iter().all(|b| b.capacity() < 200));
    }

    #[test]
    fn oversized_give_back_is_dropped() {
        let mut scratch = Scratch::with_retained_limit(16);
        let before = evictions().get();
        scratch.give(vec![0.0; 1000]);
        assert_eq!(scratch.pooled(), 0);
        assert_eq!(scratch.retained_bytes(), 0);
        assert!(evictions().get() > before);
    }

    #[test]
    fn thread_scratch_reuses_within_a_thread() {
        let ptr = with_thread_scratch(|s| {
            let buf = s.take(333);
            let ptr = buf.as_ptr();
            s.give(buf);
            ptr
        });
        let again = with_thread_scratch(|s| {
            let buf = s.take(333);
            let p = buf.as_ptr();
            s.give(buf);
            p
        });
        assert_eq!(ptr, again, "same thread must get its pooled buffer back");
    }

    #[test]
    fn thread_scratch_is_per_thread() {
        let main_ptr = with_thread_scratch(|s| {
            let buf = s.take(512);
            let p = buf.as_ptr();
            s.give(buf);
            p
        });
        let other_ptr = std::thread::spawn(move || {
            with_thread_scratch(|s| {
                let buf = s.take(512);
                let p = buf.as_ptr() as usize;
                s.give(buf);
                p
            })
        })
        .join()
        .expect("worker thread") as *const f32;
        assert_ne!(main_ptr, other_ptr, "arenas must not cross threads");
    }
}
