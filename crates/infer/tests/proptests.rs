//! Property-based bit-exactness tests for the integer GEMM: the
//! dispatched register tile (AVX-512 VNNI when the CPU has it, the
//! portable body otherwise) must agree with the scalar references and the
//! plain wide-integer dot product at every length — the requantization
//! algebra in `compile.rs` is only correct if the raw code dot products
//! are exact.

use adq_infer::qgemm::{
    dot_nib_reference, dot_u16_reference, dot_u8_reference, qgemm, Container, PackedMatrix,
};
use adq_quant::{BitWidth, QuantRange, Quantizer};
use proptest::prelude::*;

/// Exact dot product in plain u64/i64 arithmetic — the ground truth all
/// kernel paths must reproduce bit-for-bit.
fn wide_dot(a: &[u64], w: &[u64]) -> i64 {
    a.iter().zip(w).map(|(&x, &y)| (x * y) as i64).sum()
}

/// Packs nibble codes (values 0..=15) low-nibble-first, the layout the
/// nibble reference reads; an odd tail leaves the final high nibble zero.
fn pack_nibbles(codes: &[u64]) -> Vec<u8> {
    let mut out = vec![0u8; codes.len().div_ceil(2)];
    for (i, &c) in codes.iter().enumerate() {
        out[i / 2] |= (c as u8) << ((i & 1) * 4);
    }
    out
}

fn codes_pair(
    max: u64,
    len: impl Strategy<Value = usize>,
) -> impl Strategy<Value = (Vec<u64>, Vec<u64>)> {
    len.prop_flat_map(move |n| {
        (
            proptest::collection::vec(0..=max, n),
            proptest::collection::vec(0..=max, n),
        )
    })
}

fn to_u16(codes: &[u64]) -> Vec<u16> {
    codes.iter().map(|&c| c as u16).collect()
}

/// The tile's `[m, o]` accumulators for `m` activation rows `a` against
/// `o` weight rows `w`, each `k` codes.
fn tile_accs(
    a: &[u64],
    w: &[u64],
    (m, o, k): (usize, usize, usize),
    container: Container,
) -> Vec<i64> {
    let acts = PackedMatrix::from_codes(&to_u16(a), m, k, container);
    let weights = PackedMatrix::from_codes(&to_u16(w), o, k, container);
    let mut got = vec![0i64; m * o];
    qgemm(&acts, &weights, |mi, oi, acc| got[mi * o + oi] = acc);
    got
}

/// One activation row against one weight row, through the tile.
fn tile_dot(a: &[u64], w: &[u64], container: Container) -> i64 {
    tile_accs(a, w, (1, 1, a.len()), container)[0]
}

proptest! {
    // Lengths up to 128 sweep every residue of the 4-code group the tile
    // steps by, and of the 16/32-byte strides of older kernels, several
    // times over.
    #[test]
    fn u8_tile_is_bit_exact((a, w) in codes_pair(255, 0usize..=128)) {
        let a8: Vec<u8> = a.iter().map(|&c| c as u8).collect();
        let w8: Vec<u8> = w.iter().map(|&c| c as u8).collect();
        let want = wide_dot(&a, &w);
        prop_assert_eq!(dot_u8_reference(&a8, &w8), want);
        prop_assert_eq!(tile_dot(&a, &w, Container::U8), want);
    }

    #[test]
    fn u8_tile_matches_four_plain_dots(
        (a, w0) in codes_pair(255, 0usize..=128),
        seed in 0u64..1000,
    ) {
        let a8: Vec<u8> = a.iter().map(|&c| c as u8).collect();
        // derive three more weight rows of the same length from the seed
        let mut rows = w0.clone();
        let mut state = seed;
        for _ in 0..3 * a.len() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            rows.push((state >> 33) % 256);
        }
        let len = a.len();
        let got = tile_accs(&a, &rows, (1, 4, len), Container::U8);
        for j in 0..4 {
            let row8: Vec<u8> = rows[j * len..(j + 1) * len].iter().map(|&c| c as u8).collect();
            prop_assert_eq!(got[j], dot_u8_reference(&a8, &row8), "row {}", j);
        }
    }

    #[test]
    fn u16_tile_is_bit_exact((a, w) in codes_pair(65_535, 0usize..=64)) {
        let a16 = to_u16(&a);
        let w16 = to_u16(&w);
        let want = wide_dot(&a, &w);
        prop_assert_eq!(dot_u16_reference(&a16, &w16), want);
        prop_assert_eq!(tile_dot(&a, &w, Container::U16), want);
    }

    #[test]
    fn nibble_tile_is_bit_exact((a, w) in codes_pair(15, 0usize..=160)) {
        let ap = pack_nibbles(&a);
        let wp = pack_nibbles(&w);
        let want = wide_dot(&a, &w);
        prop_assert_eq!(dot_nib_reference(&ap, &wp), want);
        prop_assert_eq!(tile_dot(&a, &w, Container::Nib), want);
    }

    // End-to-end through packing and dispatch: for every storage
    // container, a full qgemm over packed code matrices must emit the
    // exact wide-integer accumulator for every (row, row) pair.
    #[test]
    fn qgemm_emits_exact_accumulators(
        container_pick in 0usize..3,
        m in 1usize..6,
        o in 1usize..6,
        k in 0usize..40,
        seed in 0u64..1000,
    ) {
        let (container, max) = [
            (Container::Nib, 15u64),
            (Container::U8, 255),
            (Container::U16, 65_535),
        ][container_pick];
        let mut state = seed;
        let mut draw = |n: usize| -> Vec<u64> {
            (0..n)
                .map(|_| {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    (state >> 33) % (max + 1)
                })
                .collect()
        };
        let act_codes = draw(m * k);
        let w_codes = draw(o * k);
        let to_u16 = |v: &[u64]| v.iter().map(|&c| c as u16).collect::<Vec<u16>>();
        let acts = PackedMatrix::from_codes(&to_u16(&act_codes), m, k, container);
        let weights = PackedMatrix::from_codes(&to_u16(&w_codes), o, k, container);
        let mut checked = 0usize;
        qgemm(&acts, &weights, |mi, oi, acc| {
            let want = wide_dot(&act_codes[mi * k..(mi + 1) * k], &w_codes[oi * k..(oi + 1) * k]);
            assert_eq!(acc, want, "m={mi} o={oi} k={k} {container:?}");
            checked += 1;
        });
        prop_assert_eq!(checked, m * o);
    }

    // The mixed-precision deployment's `conv2`: 16-bit activations force a
    // U16 container while the weights' own codes fit a byte, so
    // `pack_rows` tiles one weight plane against two activation planes.
    #[test]
    fn qgemm_emits_exact_accumulators_for_byte_weights_in_u16(
        bits_pick in 0usize..3,
        m in 1usize..12,
        o in 1usize..20,
        k in 0usize..40,
        seed in 0u64..1000,
    ) {
        let weight_bits = [2u32, 4, 8][bits_pick];
        let mut state = seed;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let act_codes: Vec<u64> = (0..m * k).map(|_| next() % 65_536).collect();
        let values: Vec<f32> = (0..o * k).map(|_| (next() % 2001) as f32 / 1000.0 - 1.0).collect();
        let quantizer = Quantizer::new(
            BitWidth::new(weight_bits).unwrap(),
            QuantRange::new(-1.0, 1.0).unwrap(),
        );
        let w_codes: Vec<u64> = values.iter().map(|&v| quantizer.quantize(v)).collect();
        let acts = PackedMatrix::from_codes(&to_u16(&act_codes), m, k, Container::U16);
        let weights = PackedMatrix::pack_rows(&values, o, k, &quantizer, Container::U16);
        let mut checked = 0usize;
        qgemm(&acts, &weights, |mi, oi, acc| {
            let want = wide_dot(&act_codes[mi * k..(mi + 1) * k], &w_codes[oi * k..(oi + 1) * k]);
            assert_eq!(acc, want, "m={mi} o={oi} k={k} w{weight_bits}");
            checked += 1;
        });
        prop_assert_eq!(checked, m * o);
    }
}

/// Deterministic sweep across the i32-chunk boundary the tile splits
/// on — proptest lengths stay small, so cover the boundary here.
#[test]
fn u8_tile_agrees_past_the_chunk_boundary() {
    const CHUNK: usize = 16_384;
    for len in [CHUNK - 1, CHUNK, CHUNK + 1, CHUNK + 33] {
        let a: Vec<u64> = (0..len).map(|i| (i * 37 % 251) as u64).collect();
        let w: Vec<u64> = (0..len).map(|i| (i * 101 % 256) as u64).collect();
        let want = wide_dot(&a, &w);
        assert_eq!(tile_dot(&a, &w, Container::U8), want, "len {len}");
        let four: Vec<u64> = (0..4).flat_map(|_| w.iter().copied()).collect();
        assert_eq!(
            tile_accs(&a, &four, (1, 4, len), Container::U8),
            [want; 4],
            "len {len}"
        );
    }
}
