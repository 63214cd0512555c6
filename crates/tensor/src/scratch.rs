//! The calling thread's buffer arena: the one home of every pooled `f32`
//! buffer in the training hot path.
//!
//! Algorithm 1 reshapes the network as it trains (bit-widths, pruned
//! channels, removed layers), so the buffers a step needs change size
//! between iterations. Each OS thread owns one arena, created on first
//! use and freed when the thread exits. Every layer, product and pool
//! worker on that thread takes its buffers from it and gives them back:
//! the tensors that pass between layers ([`take_tensor`], [`recycle`]),
//! padded conv inputs, weight copies, pack panels, gathered strips,
//! product outputs and column matrices. A buffer freed by one layer is
//! reused by the next, as a heap allocator would reuse it, so a warm
//! training step allocates almost nothing. Buffers never migrate between
//! threads and no lock is taken.
//!
//! The arena is a `RefCell`, and the worker pool runs bands on the
//! calling thread too, so no borrow of it may be held across parallel
//! work or across another call that takes from it. The only way in is a
//! short borrow inside [`take`], [`take_zeroed`] and [`give`] (exported
//! as `take_vec` and `recycle_vec`).
//!
//! Retained memory is bounded: an arena keeps at most
//! [`Scratch::RETAINED_LIMIT`] bytes pooled and evicts the largest unused
//! buffers first when a give-back would exceed it, so a long run's pool
//! converges to the working set instead of accumulating every transient
//! high-water buffer it ever saw.
//!
//! Reuse is observable through the process-wide telemetry counters
//! `tensor.scratch.reuse_hits` (a pooled buffer satisfied a request),
//! `tensor.scratch.allocs` (a fresh allocation was needed) and
//! `tensor.scratch.evictions` (the retained-byte cap dropped a buffer),
//! plus the gauge `tensor.scratch.pool.live` (thread arenas alive).

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
/// growing the largest one. A covering buffer more than
/// [`Scratch::MAX_OVERSIZE`] times the request is left in the pool and a
/// fresh buffer is allocated instead: a small output that escapes (a
/// model's logits, which the caller drops) would otherwise carry off a
/// large buffer every step, and the large buffer's own user would
/// allocate a fresh one. Total pooled capacity is capped;
/// [`Scratch::give`] evicts the largest unused buffers first until a
/// give-back fits.
#[derive(Debug)]
pub(crate) struct Scratch {
    pool: Vec<Vec<f32>>,
    /// Sum of pooled capacities, in bytes (kept in sync by take/give).
    retained: usize,
    /// Cap on `retained`.
    limit: usize,
    /// Lifetime count of takes the pool could not serve (fresh
    /// allocations) — the deterministic signal the take-ordering
    /// regression tests assert on.
    fresh_allocs: u64,
}

impl Scratch {
    /// Cap on pooled bytes per arena: 256 MiB, comfortably above the
    /// largest single pack or lowering buffer the full-size VGG-19 smoke
    /// shapes need, so eviction only fires on genuinely accumulating
    /// pools.
    const RETAINED_LIMIT: usize = 256 << 20;

    /// How many times larger than a request a pooled buffer may be and
    /// still serve it.
    const MAX_OVERSIZE: usize = 8;

    /// An empty pool with the default retained-byte limit.
    fn new() -> Self {
        Self::with_limit(Self::RETAINED_LIMIT)
    }

    fn with_limit(limit: usize) -> Self {
        Self {
            pool: Vec::new(),
            retained: 0,
            limit,
            fresh_allocs: 0,
        }
    }

    /// Takes a buffer of exactly `len` elements with **unspecified
    /// contents** — stale data from a previous use may be present.
    fn take(&mut self, len: usize) -> Vec<f32> {
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
    fn take_zeroed(&mut self, len: usize) -> Vec<f32> {
        let fresh_before = self.fresh_allocs;
        let mut buf = self.take(len);
        if self.fresh_allocs == fresh_before {
            buf.fill(0.0);
        }
        buf
    }

    /// Returns a buffer to the pool for reuse. Zero-capacity buffers are
    /// dropped — recycling them would record spurious reuse hits. If the
    /// give-back would push retained capacity past the arena's limit, the
    /// largest unused buffers are evicted first (each eviction counted in
    /// `tensor.scratch.evictions`); a buffer larger than the whole limit
    /// is dropped outright.
    fn give(&mut self, buf: Vec<f32>) {
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
    /// wastes the least already-committed memory), or `None` when the
    /// pool is empty or its smallest covering buffer is more than
    /// [`Scratch::MAX_OVERSIZE`] times `len`.
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
        match covering {
            Some((cap, _)) if cap > len.saturating_mul(Self::MAX_OVERSIZE) => None,
            Some((_, idx)) => Some(idx),
            None => Some(largest.1),
        }
    }
}

/// A buffer capacity in bytes — what the allocator actually holds, which
/// a shrunken `len` undercounts.
fn capacity_bytes(capacity: usize) -> usize {
    capacity * std::mem::size_of::<f32>()
}

/// Thread arenas currently alive (mirrors the `tensor.scratch.pool.live`
/// gauge).
static LIVE_ARENAS: AtomicUsize = AtomicUsize::new(0);

fn publish_live_arenas(count: usize) {
    adq_telemetry::metrics::global()
        .gauge("tensor.scratch.pool.live")
        .set(count as f64);
}

/// A thread's arena: tracks the live-arena gauge as threads first touch
/// it and exit. The pool's workers persist, so their arenas (and
/// buffers) are reused across parallel calls.
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

/// Runs `f` on the calling thread's arena. Private: every borrow ends
/// inside one of the free functions below, before control returns to
/// code that might take again or fan out.
fn with_arena<R>(f: impl FnOnce(&mut Scratch) -> R) -> R {
    THREAD_SCRATCH.with(|cell| f(&mut cell.borrow_mut().scratch))
}

/// A buffer of `len` elements from the calling thread's arena, with
/// **unspecified contents**, for a caller that keeps no shape with it
/// (batch-norm's cached `x̂`); `recycle_vec` gives it back. Tensors come
/// from [`take_tensor`].
pub fn take(len: usize) -> Vec<f32> {
    with_arena(|s| s.take(len))
}

/// A buffer of `len` zeros from the calling thread's arena.
pub(crate) fn take_zeroed(len: usize) -> Vec<f32> {
    with_arena(|s| s.take_zeroed(len))
}

/// Gives `buf` to the calling thread's arena for a later take to reuse.
pub fn give(buf: Vec<f32>) {
    with_arena(|s| s.give(buf));
}

/// The calling thread's lifetime count of takes its arena served with a
/// fresh allocation. On a warm arena a well-ordered product makes exactly
/// one per call: the output that escapes to the caller.
#[cfg(test)]
pub(crate) fn fresh_allocs() -> u64 {
    with_arena(|s| s.fresh_allocs)
}

/// A tensor of `dims` in a buffer from the calling thread's arena, with
/// **unspecified contents**.
///
/// Tensors that pass between layers — a layer's output, its input
/// gradient, a cached activation — come from here, and their owner gives
/// each back ([`recycle`]) once it is done with it.
pub fn take_tensor(dims: &[usize]) -> Tensor {
    let len = crate::shape::element_count(dims);
    Tensor::from_vec(take(len), dims).expect("sized to fit")
}

/// [`take_tensor`] with every element zero.
pub fn take_tensor_zeroed(dims: &[usize]) -> Tensor {
    let len = crate::shape::element_count(dims);
    Tensor::from_vec(take_zeroed(len), dims).expect("sized to fit")
}

/// Gives `t`'s buffer to the calling thread's arena, for a later
/// [`take_tensor`] to reuse.
pub fn recycle(t: Tensor) {
    give(t.into_vec());
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
        assert!(scratch.pool.is_empty());
        assert_eq!(scratch.retained, 0);
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
        assert_eq!(scratch.pool.len(), 1);
    }

    #[test]
    fn a_much_larger_buffer_stays_pooled_for_its_own_size() {
        let mut scratch = Scratch::new();
        scratch.give(vec![0.0; 800]);
        // 800 > 8 × 99: a fresh buffer
        let tiny = scratch.take(99);
        assert_eq!((tiny.capacity(), scratch.fresh_allocs), (99, 1));
        // 800 = 8 × 100: the pooled one
        let small = scratch.take(100);
        assert_eq!((small.capacity(), scratch.fresh_allocs), (800, 1));
    }

    #[test]
    fn grows_largest_when_nothing_covers() {
        let mut scratch = Scratch::new();
        scratch.give(Vec::with_capacity(4));
        scratch.give(Vec::with_capacity(16));
        let buf = scratch.take(64);
        assert_eq!(buf.len(), 64);
        // the 16-capacity buffer was grown; the 4-capacity one remains
        assert_eq!(scratch.pool.len(), 1);
        assert!(scratch.pool[0].capacity() < 16);
    }

    #[test]
    fn empty_buffers_are_not_pooled() {
        let mut scratch = Scratch::new();
        scratch.give(Vec::new());
        assert!(scratch.pool.is_empty());
    }

    #[test]
    fn give_back_pool_is_bounded() {
        // regression: the pool used to grow without bound across a long
        // run — every distinct high-water buffer stayed pooled forever
        let limit = 1024 * std::mem::size_of::<f32>();
        let mut scratch = Scratch::with_limit(limit);
        let before = evictions().get();
        let mut peak = 0usize;
        for round in 0..100 {
            // distinct sizes so best-fit keeps missing and give keeps adding
            scratch.give(vec![0.0; 64 + round]);
            peak = peak.max(scratch.retained);
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
        let mut scratch = Scratch::with_limit(300 * elem);
        scratch.give(vec![0.0; 200]);
        scratch.give(vec![0.0; 50]);
        // 250 elements retained; adding 80 exceeds 300 -> the 200-element
        // buffer (largest) goes first, leaving 50 + 80
        scratch.give(vec![0.0; 80]);
        assert_eq!(scratch.pool.len(), 2);
        assert!(scratch.retained <= 300 * elem);
        assert!(scratch.pool.iter().all(|b| b.capacity() < 200));
    }

    #[test]
    fn oversized_give_back_is_dropped() {
        let mut scratch = Scratch::with_limit(16);
        let before = evictions().get();
        scratch.give(vec![0.0; 1000]);
        assert!(scratch.pool.is_empty());
        assert_eq!(scratch.retained, 0);
        assert!(evictions().get() > before);
    }

    #[test]
    fn thread_arena_reuses_within_a_thread() {
        let buf = take(333);
        let ptr = buf.as_ptr();
        give(buf);
        let again = take(333);
        assert_eq!(ptr, again.as_ptr(), "same thread must get its buffer back");
        give(again);
    }

    #[test]
    fn thread_arenas_are_per_thread() {
        let buf = take(512);
        let main_ptr = buf.as_ptr() as usize;
        give(buf);
        let other_ptr = std::thread::spawn(move || {
            let buf = take(512);
            let p = buf.as_ptr() as usize;
            give(buf);
            p
        })
        .join()
        .expect("worker thread");
        assert_ne!(main_ptr, other_ptr, "arenas must not cross threads");
    }
}
