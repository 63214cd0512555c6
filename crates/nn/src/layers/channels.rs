//! Per-channel reductions over NCHW buffers, several channels at a time.
//!
//! One channel's sum is a serial f32 chain, so a loop that finishes one
//! channel before starting the next waits on the add latency at every
//! element. These reductions keep up to [`LANES`] channels in flight: the
//! chains are independent, so they overlap, while each channel still adds
//! its elements in exactly the serial order — image-major, then pixel —
//! with multiplies and adds kept separate. The sums are therefore the
//! same bits as the one-channel-at-a-time loop, for any channel count.

/// Channels whose sum chains run side by side.
const LANES: usize = 8;

/// Per-channel sums of `[n, c, hw]` buffers, starting from `init`:
/// `sum[ci] = Σ a` and, when `dot` is given, `dot[ci] = Σ a·b`, every
/// channel summed image-major, then pixel.
///
/// # Panics
///
/// Panics if a buffer is not `n·c·hw` long or an output is not `c` long.
pub(crate) fn channel_sums(
    a: &[f32],
    dot: Option<(&[f32], &mut [f32])>,
    [n, c, hw]: [usize; 3],
    init: f32,
    sum: &mut [f32],
) {
    assert_eq!(a.len(), n * c * hw, "buffer is not [n, c, hw]");
    assert_eq!(sum.len(), c, "one sum per channel");
    let mut c0 = 0;
    match dot {
        Some((b, out)) => {
            assert_eq!(b.len(), a.len(), "operands differ in length");
            assert_eq!(out.len(), c, "one dot product per channel");
            while c0 < c {
                let k = group_width(c - c0);
                let range = c0..c0 + k;
                let (s, d) = (&mut sum[range.clone()], &mut out[range]);
                match k {
                    8 => group8::<true>(a, b, [n, c, hw], c0, init, s, d),
                    4 => group::<4, true>(a, b, [n, c, hw], c0, init, s, d),
                    2 => group::<2, true>(a, b, [n, c, hw], c0, init, s, d),
                    _ => group::<1, true>(a, b, [n, c, hw], c0, init, s, d),
                }
                c0 += k;
            }
        }
        None => {
            while c0 < c {
                let k = group_width(c - c0);
                let s = &mut sum[c0..c0 + k];
                match k {
                    8 => group8::<false>(a, a, [n, c, hw], c0, init, s, &mut []),
                    4 => group::<4, false>(a, a, [n, c, hw], c0, init, s, &mut []),
                    2 => group::<2, false>(a, a, [n, c, hw], c0, init, s, &mut []),
                    _ => group::<1, false>(a, a, [n, c, hw], c0, init, s, &mut []),
                }
                c0 += k;
            }
        }
    }
}

/// The widest group (8, 4, 2 or 1 channels) that fits in `left`.
fn group_width(left: usize) -> usize {
    [LANES, 4, 2, 1]
        .into_iter()
        .find(|&k| k <= left)
        .expect("left > 0")
}

/// [`group`] for 8 channels, in AVX lanes where the CPU has them.
fn group8<const DOT: bool>(
    a: &[f32],
    b: &[f32],
    dims: [usize; 3],
    c0: usize,
    init: f32,
    sum: &mut [f32],
    dot: &mut [f32],
) {
    #[cfg(target_arch = "x86_64")]
    if avx_available() {
        // SAFETY: AVX was detected at runtime.
        unsafe { group8_avx::<DOT>(a, b, dims, c0, init, sum, dot) };
        return;
    }
    group::<8, DOT>(a, b, dims, c0, init, sum, dot);
}

/// Runtime AVX detection, resolved once per process.
#[cfg(target_arch = "x86_64")]
fn avx_available() -> bool {
    static AVX: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *AVX.get_or_init(|| is_x86_feature_detected!("avx"))
}

/// [`group`] for 8 channels with one AVX lane per channel: each block of
/// 8 pixels is loaded from the 8 planes and transposed, so lane `k`
/// receives channel `k`'s pixels one vector add at a time, in pixel
/// order. Separate multiply and add, as in [`group`]; a row's last
/// `hw % 8` pixels run through the same lanes spilled to scalars.
///
/// # Safety
///
/// The caller must ensure the CPU supports AVX.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn group8_avx<const DOT: bool>(
    a: &[f32],
    b: &[f32],
    [n, c, hw]: [usize; 3],
    c0: usize,
    init: f32,
    sum: &mut [f32],
    dot: &mut [f32],
) {
    use std::arch::x86_64::{
        _mm256_add_ps, _mm256_loadu_ps, _mm256_mul_ps, _mm256_set1_ps, _mm256_storeu_ps,
    };
    let mut s = _mm256_set1_ps(init);
    let mut d = _mm256_set1_ps(init);
    let blocks = hw / 8 * 8;
    for ni in 0..n {
        let base = (ni * c + c0) * hw;
        let (pa, pb) = (&a[base..][..8 * hw], &b[base..][..8 * hw]);
        for j in (0..blocks).step_by(8) {
            let load = |p: &[f32]| {
                transpose8(std::array::from_fn(|k| {
                    let row = &p[k * hw + j..];
                    // SAFETY: `j + 8 <= hw` and `p` holds 8 planes of
                    // `hw`, so the 8 lanes lie inside `row`.
                    unsafe { _mm256_loadu_ps(row.as_ptr()) }
                }))
            };
            let xa = load(pa);
            if DOT {
                let xb = load(pb);
                for (va, vb) in xa.into_iter().zip(xb) {
                    s = _mm256_add_ps(s, va);
                    d = _mm256_add_ps(d, _mm256_mul_ps(va, vb));
                }
            } else {
                for va in xa {
                    s = _mm256_add_ps(s, va);
                }
            }
        }
        if blocks < hw {
            let (mut ls, mut ld) = ([0.0f32; 8], [0.0f32; 8]);
            _mm256_storeu_ps(ls.as_mut_ptr(), s);
            _mm256_storeu_ps(ld.as_mut_ptr(), d);
            for p in blocks..hw {
                for k in 0..8 {
                    let v = pa[k * hw + p];
                    ls[k] += v;
                    if DOT {
                        ld[k] += v * pb[k * hw + p];
                    }
                }
            }
            s = _mm256_loadu_ps(ls.as_ptr());
            d = _mm256_loadu_ps(ld.as_ptr());
        }
    }
    _mm256_storeu_ps(sum[..8].as_mut_ptr(), s);
    if DOT {
        _mm256_storeu_ps(dot[..8].as_mut_ptr(), d);
    }
}

/// Transposes 8 rows of 8 lanes: lane `j` of output `i` is lane `i` of
/// input `j`. Pure data movement, so no value changes.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
fn transpose8(r: [std::arch::x86_64::__m256; 8]) -> [std::arch::x86_64::__m256; 8] {
    use std::arch::x86_64::{
        _mm256_permute2f128_ps, _mm256_shuffle_ps, _mm256_unpackhi_ps, _mm256_unpacklo_ps,
    };
    let t = [
        _mm256_unpacklo_ps(r[0], r[1]),
        _mm256_unpackhi_ps(r[0], r[1]),
        _mm256_unpacklo_ps(r[2], r[3]),
        _mm256_unpackhi_ps(r[2], r[3]),
        _mm256_unpacklo_ps(r[4], r[5]),
        _mm256_unpackhi_ps(r[4], r[5]),
        _mm256_unpacklo_ps(r[6], r[7]),
        _mm256_unpackhi_ps(r[6], r[7]),
    ];
    let u = [
        _mm256_shuffle_ps::<0x44>(t[0], t[2]),
        _mm256_shuffle_ps::<0xEE>(t[0], t[2]),
        _mm256_shuffle_ps::<0x44>(t[1], t[3]),
        _mm256_shuffle_ps::<0xEE>(t[1], t[3]),
        _mm256_shuffle_ps::<0x44>(t[4], t[6]),
        _mm256_shuffle_ps::<0xEE>(t[4], t[6]),
        _mm256_shuffle_ps::<0x44>(t[5], t[7]),
        _mm256_shuffle_ps::<0xEE>(t[5], t[7]),
    ];
    [
        _mm256_permute2f128_ps::<0x20>(u[0], u[4]),
        _mm256_permute2f128_ps::<0x20>(u[1], u[5]),
        _mm256_permute2f128_ps::<0x20>(u[2], u[6]),
        _mm256_permute2f128_ps::<0x20>(u[3], u[7]),
        _mm256_permute2f128_ps::<0x31>(u[0], u[4]),
        _mm256_permute2f128_ps::<0x31>(u[1], u[5]),
        _mm256_permute2f128_ps::<0x31>(u[2], u[6]),
        _mm256_permute2f128_ps::<0x31>(u[3], u[7]),
    ]
}

/// Channels `c0..c0 + K`: `sum[k] = Σ a`, and with `DOT` also
/// `dot[k] = Σ a·b`.
fn group<const K: usize, const DOT: bool>(
    a: &[f32],
    b: &[f32],
    [n, c, hw]: [usize; 3],
    c0: usize,
    init: f32,
    sum: &mut [f32],
    dot: &mut [f32],
) {
    let mut s = [init; K];
    let mut d = [init; K];
    for ni in 0..n {
        let base = (ni * c + c0) * hw;
        let pa: [&[f32]; K] = std::array::from_fn(|k| &a[base + k * hw..][..hw]);
        let pb: [&[f32]; K] = std::array::from_fn(|k| &b[base + k * hw..][..hw]);
        for p in 0..hw {
            for k in 0..K {
                let v = pa[k][p];
                s[k] += v;
                if DOT {
                    d[k] += v * pb[k][p];
                }
            }
        }
    }
    sum.copy_from_slice(&s);
    if DOT {
        dot.copy_from_slice(&d);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The one-channel-at-a-time loop the grouped sums must reproduce.
    fn serial(a: &[f32], b: &[f32], [n, c, hw]: [usize; 3], init: f32) -> (Vec<f32>, Vec<f32>) {
        let mut sums = vec![init; c];
        let mut dots = vec![init; c];
        for ci in 0..c {
            for ni in 0..n {
                let plane = (ni * c + ci) * hw;
                for i in plane..plane + hw {
                    sums[ci] += a[i];
                    dots[ci] += a[i] * b[i];
                }
            }
        }
        (sums, dots)
    }

    #[test]
    fn grouped_sums_are_the_serial_bits_at_every_width() {
        let mut state = 7u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 40) as f32 / (1u64 << 24) as f32 - 0.5) * 1e3
        };
        for (c, hw) in (1..=19).flat_map(|c| [(c, 5), (c, 16), (c, 19)]) {
            let dims = [3, c, hw];
            let a: Vec<f32> = (0..3 * c * hw).map(|_| next()).collect();
            let b: Vec<f32> = (0..3 * c * hw).map(|_| next()).collect();
            for init in [0.0, -0.0] {
                let (want_s, want_d) = serial(&a, &b, dims, init);
                let (mut s, mut d) = (vec![1.0; c], vec![1.0; c]);
                channel_sums(&a, Some((&b, &mut d)), dims, init, &mut s);
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&s), bits(&want_s), "sums, c = {c}");
                assert_eq!(bits(&d), bits(&want_d), "dots, c = {c}");
                let mut only = vec![1.0; c];
                channel_sums(&a, None, dims, init, &mut only);
                assert_eq!(bits(&only), bits(&want_s), "sum alone, c = {c}");
                if c >= 8 {
                    // the portable 8-channel body, whichever one dispatch picks
                    let (mut s8, mut d8) = ([0.0; 8], [0.0; 8]);
                    group::<8, true>(&a, &b, dims, 0, init, &mut s8, &mut d8);
                    assert_eq!(bits(&s8), bits(&want_s[..8]), "portable sums");
                    assert_eq!(bits(&d8), bits(&want_d[..8]), "portable dots");
                }
            }
        }
    }
}
