//! Parallel-dispatch policy shared by every data-parallel kernel in the
//! workspace: when to fan work out, and how to chunk it so results are
//! bit-identical at any worker count.
//!
//! Two rules keep parallel outputs equal to serial ones:
//!
//! 1. Work is split into **fixed-size chunks** ([`ELEMENTWISE_CHUNK`])
//!    whose boundaries depend only on the slice length, never on the
//!    worker count — workers pick up whole chunks, so the per-element
//!    arithmetic is unchanged.
//! 2. Only **per-element-independent** transforms and **order-invariant
//!    integer reductions** go through this module. Floating-point
//!    reductions (`Tensor::sum` and friends) stay serial: regrouping
//!    their additions would change results.
//!
//! Thresholds follow the same flop discipline as the GEMM `par_dispatch`
//! gate: elementwise transforms cost ~1 flop per element, so the floor is
//! expressed in elements. Both thresholds are constants: re-tuning one
//! means editing it here against a before/after measurement.

use rayon::prelude::*;

/// Minimum estimated flops (m·n·k) before the GEMM fallback kernels fan
/// rows out to workers.
pub const GEMM_PAR_FLOPS: usize = 32_768;

/// Minimum slice length before an elementwise kernel fans chunks out to
/// workers (1 flop per element under the flop discipline).
pub const ELEMENTWISE_PAR_MIN: usize = 1 << 16;

/// Fixed chunk length for parallel elementwise kernels. Chunk boundaries
/// are a pure function of the slice length, so the split — and therefore
/// every per-element result — is identical at any worker count.
pub const ELEMENTWISE_CHUNK: usize = 1 << 13;

/// The worker count parallel kernels currently fan out to.
pub fn current_num_threads() -> usize {
    rayon::current_num_threads()
}

/// Whether an elementwise pass over `len` elements should parallelise.
fn elementwise_dispatch(len: usize) -> bool {
    len >= ELEMENTWISE_PAR_MIN && current_num_threads() >= 2
}

/// Applies `f` to `data` in fixed-size chunks, in parallel above the
/// elementwise threshold. `f` must be per-element independent: results
/// are bit-identical to `f(data)` on the whole slice.
pub fn for_each_chunk(data: &mut [f32], f: impl Fn(&mut [f32]) + Sync) {
    if !elementwise_dispatch(data.len()) {
        f(data);
        return;
    }
    let chunks: Vec<&mut [f32]> = data.chunks_mut(ELEMENTWISE_CHUNK).collect();
    chunks.into_par_iter().for_each(f);
}

/// Applies `f` to aligned fixed-size chunks of `dst` and `src`, in
/// parallel above the elementwise threshold.
///
/// # Panics
///
/// Panics if the slice lengths differ.
pub fn for_each_chunk2(dst: &mut [f32], src: &[f32], f: impl Fn(&mut [f32], &[f32]) + Sync) {
    assert_eq!(dst.len(), src.len(), "chunked zip needs equal lengths");
    if !elementwise_dispatch(dst.len()) {
        f(dst, src);
        return;
    }
    let pairs: Vec<(&mut [f32], &[f32])> = dst
        .chunks_mut(ELEMENTWISE_CHUNK)
        .zip(src.chunks(ELEMENTWISE_CHUNK))
        .collect();
    pairs.into_par_iter().for_each(|(d, s)| f(d, s));
}

/// One aligned `(weight, grad, m, v)` chunk of the Adam update layout.
type AdamChunk<'a> = (&'a mut [f32], &'a [f32], &'a mut [f32], &'a mut [f32]);

/// Applies `f` to aligned fixed-size chunks of one read-only and three
/// mutable slices — the Adam update's `(grad, weight, m, v)` layout.
///
/// # Panics
///
/// Panics if any slice length differs from `w`'s.
pub fn for_each_chunk4(
    w: &mut [f32],
    g: &[f32],
    m: &mut [f32],
    v: &mut [f32],
    f: impl Fn(&mut [f32], &[f32], &mut [f32], &mut [f32]) + Sync,
) {
    assert!(
        g.len() == w.len() && m.len() == w.len() && v.len() == w.len(),
        "chunked quad needs equal lengths"
    );
    if !elementwise_dispatch(w.len()) {
        f(w, g, m, v);
        return;
    }
    let quads: Vec<AdamChunk<'_>> = w
        .chunks_mut(ELEMENTWISE_CHUNK)
        .zip(g.chunks(ELEMENTWISE_CHUNK))
        .zip(m.chunks_mut(ELEMENTWISE_CHUNK))
        .zip(v.chunks_mut(ELEMENTWISE_CHUNK))
        .map(|(((w, g), m), v)| (w, g, m, v))
        .collect();
    quads.into_par_iter().for_each(|(w, g, m, v)| f(w, g, m, v));
}

/// Elements of `data` different from exactly zero — the Activation
/// Density counting primitive. Partial counts are integers, so the
/// parallel combine is exact and order-invariant.
///
/// Reports one read pass (`4·len` bytes, no flops) to the resource
/// counters: AD metering is pure memory traffic in the roofline picture.
pub fn count_nonzero_slice(data: &[f32]) -> usize {
    if adq_telemetry::alloc::tracking() {
        adq_telemetry::alloc::add_bytes_moved(4 * data.len() as u64);
    }
    if !elementwise_dispatch(data.len()) {
        return crate::simd::count_nonzero(data);
    }
    let mut partials = vec![0usize; data.len().div_ceil(ELEMENTWISE_CHUNK)];
    let items: Vec<(&mut usize, &[f32])> = partials
        .iter_mut()
        .zip(data.chunks(ELEMENTWISE_CHUNK))
        .collect();
    items
        .into_par_iter()
        .for_each(|(p, chunk)| *p = crate::simd::count_nonzero(chunk));
    partials.iter().sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunked_apply_matches_serial_bitwise() {
        let n = (1 << 17) + 19; // above threshold, uneven tail
        let src: Vec<f32> = (0..n).map(|i| (i as f32).sin() * 3.0).collect();
        let mut par = src.clone();
        for_each_chunk(&mut par, |chunk| {
            for x in chunk {
                *x = x.mul_add(1.5, -0.25);
            }
        });
        let serial: Vec<f32> = src.iter().map(|x| x.mul_add(1.5, -0.25)).collect();
        assert_eq!(par, serial);
    }

    #[test]
    fn chunked_zip_matches_serial_bitwise() {
        let n = (1 << 17) + 7;
        let a: Vec<f32> = (0..n).map(|i| (i as f32) * 0.001).collect();
        let b: Vec<f32> = (0..n).map(|i| ((i * 7) as f32).cos()).collect();
        let mut par = a.clone();
        for_each_chunk2(&mut par, &b, |d, s| {
            for (x, &y) in d.iter_mut().zip(s) {
                *x += 0.5 * y;
            }
        });
        let serial: Vec<f32> = a.iter().zip(&b).map(|(&x, &y)| x + 0.5 * y).collect();
        assert_eq!(par, serial);
    }

    #[test]
    fn count_nonzero_parallel_is_exact() {
        let n = (1 << 17) + 3;
        let data: Vec<f32> = (0..n)
            .map(|i| if i % 3 == 0 { 0.0 } else { i as f32 })
            .collect();
        let expected = data.iter().filter(|&&x| x != 0.0).count();
        assert_eq!(count_nonzero_slice(&data), expected);
    }

    #[test]
    fn small_slices_stay_serial_and_correct() {
        let mut data = vec![1.0f32; 100];
        for_each_chunk(&mut data, |c| c.iter_mut().for_each(|x| *x += 1.0));
        assert!(data.iter().all(|&x| x == 2.0));
        assert_eq!(count_nonzero_slice(&data), 100);
    }
}
