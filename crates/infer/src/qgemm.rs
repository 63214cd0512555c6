//! Integer GEMM over byte planes — the datapath the quantized engine
//! actually executes, as opposed to the `adq-pim` crate's cycle-accounting
//! simulation.
//!
//! For an activation matrix of integer codes `A = [M, K]` and a weight
//! matrix of integer codes `W = [O, K]` (both row-major), the GEMM
//! computes the integer products
//!
//! ```text
//! acc[m, o] = Σ_k A[m, k] · W[o, k]
//! ```
//!
//! which is the only term of the affine-quantized dot product that needs
//! wide arithmetic (see [`crate::compile`] for the requantization chain
//! that turns `acc` back into real values). Codes are unsigned
//! (`0 ..= 2^k − 1`, the convention of [`adq_quant::Quantizer`]).
//!
//! A [`Container`] is the precision a layer is legalized to (int4, int8
//! or int16) and what [`PackedMatrix::packed_bytes`] reports. In memory
//! every code of up to 16 bits is `lo + 256·hi`, stored as **byte
//! planes** — one plane of bytes when the codes fit a byte, two (`lo`,
//! then `hi`) otherwise — so one kernel serves all three containers:
//!
//! * **activations** are read where they lie: group `g` of row `m` (4
//!   codes) is the 4 bytes at `starts[m] + groups[g]` of each plane, one
//!   plane for [`Container::Nib`] and [`Container::U8`], two for
//!   [`Container::U16`]. [`PackedMatrix::from_codes`] writes a dense
//!   matrix (`starts[m] = m·k4`, `groups[g] = 4g`). A conv layer in
//!   [`crate::compile`] hands over its channel-last input as it is, with
//!   one start per output pixel and one offset per group of its `(kh,
//!   kw, c)`-ordered taps — an implicit GEMM, with no im2col copy. A row
//!   is `runs` runs of codes (one for a dense matrix, one per kernel row
//!   for a conv), each padded to whole groups of 4; a padding lane reads
//!   whatever lies next in the plane. Each row keeps its code sum
//!   `Σ_k A[m, k]`;
//! * **weights** ([`PackedMatrix::pack_rows`]) are stored once, before
//!   the first request, as 1 or 2 planes (from the weights' own max code)
//!   of `byte − 128` as `i8`, in blocks of 16 outputs × 4 `k` — the
//!   order `_mm512_dpbusd_epi32` reads. Padded `k` and output lanes hold
//!   0, so whatever an activation's padding lanes read adds nothing.
//!
//! The kernel is a register tile of 8 activation rows (one at a time at
//! the matrix edge) × 16 outputs; each step loads one group offset and
//! broadcasts every row's 4 bytes at it. For each pair of activation plane `p`
//! and weight plane `q` it accumulates `D_pq = Σ_k a_p·(w_q − 128)` in
//! `i32` lanes (64 u8×i8 products per `dpbusd`), and the pairs combine in
//! `i64` as
//!
//! ```text
//! acc = Σ_pq 256^(p+q)·(D_pq + 128·S_p) = Σ_pq 256^(p+q)·D_pq + 128·Σ_q 256^q·Σ_k A[m, k]
//! ```
//!
//! where `S_p = Σ_k a_p`, so the bias correction needs only the row's code
//! sum. The AVX-512 VNNI body runs when the CPU has `avx512f` and
//! `avx512vnni`; a portable body over the same layout runs otherwise and
//! is the reference the unit tests below hold the VNNI body to. Integer
//! sums are exact and `I32_CHUNK` rules out `i32` overflow, so both
//! bodies emit bit-identical accumulators — checked against the scalar
//! `dot_*_reference` oracles by the unit tests here and the proptests in
//! `crates/infer/tests/proptests.rs`.

use std::borrow::Cow;

use adq_quant::Quantizer;

/// Per-chunk cap on the `k` a tile accumulates in `i32` before widening
/// into the `i64` totals.
///
/// A plane product `a_p·(w_q − 128)` has magnitude at most
/// `255·128 = 32 640`, and one `i32` lane sums one product per `k`, so a
/// lane is exact for `k4 ≤ 65 792` (`65 792·32 640 < 2³¹`). Chunks of
/// 16 384 stay four times inside that.
const I32_CHUNK: usize = 16_384;

/// Activation rows per register tile.
const MR: usize = 8;

/// Outputs per register tile: one 512-bit register of `i32` lanes.
const NR: usize = 16;

/// Storage container a layer's codes are legalized to, chosen from the
/// widest code either operand can produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Container {
    /// 4-bit codes. 2-bit codes ride here.
    Nib,
    /// 8-bit codes.
    U8,
    /// 16-bit codes.
    U16,
}

impl Container {
    /// The narrowest container that holds codes up to `max_code`.
    pub fn for_max_code(max_code: u64) -> Container {
        if max_code <= 0xF {
            Container::Nib
        } else if max_code <= 0xFF {
            Container::U8
        } else {
            Container::U16
        }
    }

    /// The wider of two containers (operands must share one).
    pub fn join(self, other: Container) -> Container {
        use Container::*;
        match (self, other) {
            (U16, _) | (_, U16) => U16,
            (U8, _) | (_, U8) => U8,
            _ => Nib,
        }
    }

    /// Bytes one row of `k` codes occupies at this container's precision.
    pub fn row_bytes(self, k: usize) -> usize {
        match self {
            Container::Nib => k.div_ceil(2),
            Container::U8 => k,
            Container::U16 => 2 * k,
        }
    }

    /// The largest code the container holds.
    pub(crate) fn max_code(self) -> u64 {
        match self {
            Container::Nib => 0xF,
            Container::U8 => 0xFF,
            Container::U16 => 0xFFFF,
        }
    }

    /// Byte planes an activation row in this container is stored as.
    pub(crate) fn planes(self) -> usize {
        planes_for(self.max_code())
    }
}

/// Byte planes codes up to `max_code` need.
fn planes_for(max_code: u64) -> usize {
    if max_code <= 0xFF {
        1
    } else {
        2
    }
}

/// The padded length of a row of `k` codes in `runs` runs: each run is
/// padded to whole `dpbusd` groups of 4 codes.
fn padded(k: usize, runs: usize) -> usize {
    runs * (k / runs).next_multiple_of(4)
}

/// The lane of the padded row that holds logical code `kk`, in a row of
/// runs of `run` codes.
fn lane(kk: usize, run: usize) -> usize {
    kk / run * run.next_multiple_of(4) + kk % run
}

/// How a [`PackedMatrix`]'s byte planes are laid out.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Layout {
    /// The activation operand, read where it lies: group `g` of row `m`
    /// (lanes `4g .. 4g + 4` of the padded row) is the 4 bytes at
    /// `starts[m] + groups[g]` of each plane.
    Rows { starts: Vec<u32>, groups: Vec<u32> },
    /// The weight operand: blocks of [`NR`] rows, each `k4/4` steps of
    /// `NR × 4` bytes (row-minor), every code byte stored as `byte − 128`
    /// and every padding lane as 0.
    Tiles,
}

/// A matrix of integer codes in byte planes plus its per-row code sums —
/// one operand of the integer GEMM. Weights are packed once at compile
/// time ([`PackedMatrix::pack_rows`]); activations per batch
/// ([`PackedMatrix::from_codes`], or a conv layer's channel-last input
/// read in place).
///
/// A row's `k` codes are `runs` runs of `k / runs` codes, each padded to
/// whole groups of 4. A dense matrix is one run. A convolution orders its
/// taps `(kh, kw, c)` and takes one run per kernel row: the `kw·c` codes
/// that lie side by side in a channel-last plane.
#[derive(Debug, Clone, PartialEq)]
pub struct PackedMatrix {
    rows: usize,
    k: usize,
    runs: usize,
    container: Container,
    layout: Layout,
    /// 1 or 2; plane `p` holds byte `p` of every code.
    planes: usize,
    /// The planes, one after another.
    bytes: Vec<u8>,
    /// `Σ_k codes[row, k]` per row — the cheap side sums the affine
    /// requantization correction needs.
    row_sums: Vec<u64>,
}

impl PackedMatrix {
    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Logical row length (codes per row, before padding).
    pub fn k(&self) -> usize {
        self.k
    }

    /// The container the codes are legalized to.
    pub fn container(&self) -> Container {
        self.container
    }

    /// Per-row code sums (`Σ c` per row).
    pub fn row_sums(&self) -> &[u64] {
        &self.row_sums
    }

    /// Size in bytes of the codes at the container's precision.
    pub fn packed_bytes(&self) -> usize {
        self.container.row_bytes(self.k) * self.rows
    }

    /// Row length padded to whole `dpbusd` groups of 4 codes per run.
    fn k4(&self) -> usize {
        padded(self.k, self.runs)
    }

    /// Byte plane `p`.
    fn plane(&self, p: usize) -> &[u8] {
        let len = self.bytes.len() / self.planes;
        &self.bytes[p * len..(p + 1) * len]
    }

    /// Quantizes a row-major `[rows, k]` weight matrix under `quantizer`
    /// and packs it as the GEMM's weight operand: as many byte planes as
    /// the quantizer's codes need, tiled for the kernel once, here.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != rows * k` or the quantizer's codes
    /// overflow the container.
    pub fn pack_rows(
        values: &[f32],
        rows: usize,
        k: usize,
        quantizer: &Quantizer,
        container: Container,
    ) -> PackedMatrix {
        Self::pack_runs(values, rows, k, 1, quantizer, container)
    }

    /// [`PackedMatrix::pack_rows`] for rows of `runs` runs, each padded
    /// on its own: a convolution's weights, one run per kernel row.
    ///
    /// # Panics
    ///
    /// As [`PackedMatrix::pack_rows`], and if `k` is not `runs` whole
    /// runs.
    pub(crate) fn pack_runs(
        values: &[f32],
        rows: usize,
        k: usize,
        runs: usize,
        quantizer: &Quantizer,
        container: Container,
    ) -> PackedMatrix {
        assert_eq!(values.len(), rows * k, "values must be [rows, k]");
        let max_code = quantizer.bits().max_code();
        assert!(
            max_code <= container.max_code(),
            "{}-bit codes (max {max_code}) overflow {container:?}",
            quantizer.bits().get()
        );
        let enc = quantizer.encoder();
        let code = |r: usize, kk: usize| enc.encode(values[r * k + kk]) as u16;
        let row_sums = sum_rows(rows, k, code);
        Self::tiled(
            rows,
            k,
            runs,
            container,
            planes_for(max_code),
            row_sums,
            code,
        )
    }

    /// Packs already-quantized codes (row-major `[rows, k]`, one code per
    /// `u16`) as the GEMM's activation operand, for callers that hold
    /// codes as a dense matrix.
    ///
    /// # Panics
    ///
    /// Panics if `codes.len() != rows * k`; debug-asserts every code fits
    /// the container.
    pub fn from_codes(codes: &[u16], rows: usize, k: usize, container: Container) -> PackedMatrix {
        assert_eq!(codes.len(), rows * k, "codes must be [rows, k]");
        debug_assert!(
            codes.iter().all(|&c| u64::from(c) <= container.max_code()),
            "codes overflow {container:?}"
        );
        let (planes, k4) = (container.planes(), k.next_multiple_of(4));
        let mut bytes = vec![0u8; planes * rows * k4];
        for (p, plane) in bytes.chunks_exact_mut((rows * k4).max(1)).enumerate() {
            for (dst, src) in plane.chunks_exact_mut(k4).zip(codes.chunks_exact(k)) {
                for (d, &c) in dst.iter_mut().zip(src) {
                    *d = (c >> (8 * p)) as u8;
                }
            }
        }
        let row_sums = sum_rows(rows, k, |r, kk| codes[r * k + kk]);
        let starts = (0..rows).map(|r| (r * k4) as u32).collect();
        let groups = (0..k4 / 4).map(|g| 4 * g as u32).collect();
        Self::in_place(
            [rows, k, 1],
            container,
            planes,
            bytes,
            starts,
            groups,
            row_sums,
        )
    }

    /// Wraps activation planes a caller wrote in its own layout — `planes`
    /// planes of equal length, one after another — to be read in place:
    /// group `g` of row `m` is the 4 bytes at `starts[m] + groups[g]` of
    /// each plane. `[rows, k, runs]` is the operand's shape and `row_sums`
    /// its rows' code sums. `planes` may be 1 in a two-plane container
    /// when the codes fit a byte.
    ///
    /// # Panics
    ///
    /// Panics if the shapes disagree or a group of a row reads past its
    /// plane.
    pub(crate) fn in_place(
        [rows, k, runs]: [usize; 3],
        container: Container,
        planes: usize,
        bytes: Vec<u8>,
        starts: Vec<u32>,
        groups: Vec<u32>,
        row_sums: Vec<u64>,
    ) -> Self {
        assert!(
            runs > 0 && k.is_multiple_of(runs),
            "a row must split into whole runs"
        );
        assert!(
            (1..=container.planes()).contains(&planes) && bytes.len().is_multiple_of(planes),
            "planes must be 1 or {:?}'s count, of equal length",
            container
        );
        assert_eq!(groups.len() * 4, padded(k, runs), "one offset per group");
        assert_eq!(starts.len(), rows, "one start per row");
        assert_eq!(row_sums.len(), rows, "one code sum per row");
        let taps = Taps::new(&bytes[..bytes.len() / planes], &groups);
        assert!(
            starts.iter().all(|&s| taps.holds(s)),
            "every group must lie in its plane"
        );
        PackedMatrix {
            rows,
            k,
            runs,
            container,
            layout: Layout::Rows { starts, groups },
            planes,
            bytes,
            row_sums,
        }
    }

    /// The weight-operand tiling of `code(row, k)` in `planes` planes.
    fn tiled(
        rows: usize,
        k: usize,
        runs: usize,
        container: Container,
        planes: usize,
        row_sums: Vec<u64>,
        code: impl Fn(usize, usize) -> u16,
    ) -> PackedMatrix {
        assert!(
            runs > 0 && k.is_multiple_of(runs),
            "a row must split into whole runs"
        );
        let (k4, run) = (padded(k, runs), k / runs);
        let plane_len = rows.div_ceil(NR) * NR * k4;
        let mut bytes = vec![0u8; planes * plane_len];
        for r in 0..rows {
            for kk in 0..k {
                let c = code(r, kk);
                let l = lane(kk, run);
                let at = r / NR * NR * k4 + l / 4 * 4 * NR + r % NR * 4 + l % 4;
                for p in 0..planes {
                    // `byte ^ 0x80` read as `i8` is `byte − 128`
                    bytes[p * plane_len + at] = (c >> (8 * p)) as u8 ^ 0x80;
                }
            }
        }
        PackedMatrix {
            rows,
            k,
            runs,
            container,
            layout: Layout::Tiles,
            planes,
            bytes,
            row_sums,
        }
    }

    /// Code `kk` of activation row `r`, read where it lies.
    ///
    /// # Panics
    ///
    /// Panics if the matrix holds weights.
    pub(crate) fn code(&self, r: usize, kk: usize) -> u16 {
        let Layout::Rows { starts, groups } = &self.layout else {
            panic!("weights are not read by row");
        };
        let l = lane(kk, self.k / self.runs);
        let at = starts[r] as usize + groups[l / 4] as usize + l % 4;
        (0..self.planes)
            .map(|p| u16::from(self.plane(p)[at]) << (8 * p))
            .sum()
    }

    /// This matrix as a weight operand: itself if [`PackedMatrix::pack_rows`]
    /// tiled it, a tiled copy if it holds activation rows.
    fn as_weights(&self) -> Cow<'_, PackedMatrix> {
        if self.layout == Layout::Tiles {
            return Cow::Borrowed(self);
        }
        Cow::Owned(Self::tiled(
            self.rows,
            self.k,
            self.runs,
            self.container,
            self.planes,
            self.row_sums.clone(),
            |r, kk| self.code(r, kk),
        ))
    }
}

/// The code sum of each of `rows` rows of `k` codes.
fn sum_rows(rows: usize, k: usize, code: impl Fn(usize, usize) -> u16) -> Vec<u64> {
    (0..rows)
        .map(|r| (0..k).map(|kk| u64::from(code(r, kk))).sum())
        .collect()
}

/// Runs the integer GEMM: for every activation row `m` and weight row
/// `o`, computes `acc = Σ_k A[m, k]·W[o, k]` and calls
/// `emit(m, o, acc)`.
///
/// `acts` is an activation operand ([`PackedMatrix::from_codes`]).
/// `weights` is best packed by [`PackedMatrix::pack_rows`], which tiles
/// it once; a matrix from [`PackedMatrix::from_codes`] is tiled on every
/// call. Both operands must share a container and a `k`; the caller (see
/// [`crate::compile`]) chooses the container as the join of the two
/// quantizers' widths.
///
/// # Panics
///
/// Panics if containers or `k` mismatch, or `acts` was packed by
/// [`PackedMatrix::pack_rows`].
pub fn qgemm(acts: &PackedMatrix, weights: &PackedMatrix, mut emit: impl FnMut(usize, usize, i64)) {
    qgemm_rows(acts, weights, |m, accs| {
        for (o, &acc) in accs.iter().enumerate() {
            emit(m, o, acc);
        }
    });
}

/// The row form of [`qgemm`]: for every activation row `m`, fills one
/// accumulator per weight row (`accs[o] = Σ_k A[m, k]·W[o, k]`) and calls
/// `emit_row(m, accs)`, so a caller can requantize a whole output row with
/// its row-invariant terms computed once.
///
/// # Panics
///
/// As [`qgemm`].
pub(crate) fn qgemm_rows(
    acts: &PackedMatrix,
    weights: &PackedMatrix,
    emit_row: impl FnMut(usize, &[i64]),
) {
    qgemm_rows_with(Body::detect(), acts, weights, emit_row);
}

/// [`qgemm_rows`] on a chosen kernel body.
pub(crate) fn qgemm_rows_with(
    body: Body,
    acts: &PackedMatrix,
    weights: &PackedMatrix,
    mut emit_row: impl FnMut(usize, &[i64]),
) {
    let o = weights.rows;
    qgemm_tiles_with(body, acts, weights, |m0, accs, ld| {
        for (i, row) in accs.chunks_exact(ld).enumerate() {
            emit_row(m0 + i, &row[..o]);
        }
    });
}

/// [`qgemm_rows`] a register tile of rows at a time, on a chosen kernel
/// body: `emit_tile(m0, accs, ld)` gets rows `m0 .. m0 + accs.len() / ld`,
/// row `i`'s accumulators at `accs[i·ld..i·ld + o]`, so a caller can
/// requantize a whole tile with its invariant terms loaded once.
pub(crate) fn qgemm_tiles_with(
    body: Body,
    acts: &PackedMatrix,
    weights: &PackedMatrix,
    mut emit_tile: impl FnMut(usize, &[i64], usize),
) {
    assert_eq!(acts.k, weights.k, "operand k mismatch");
    assert_eq!(acts.runs, weights.runs, "operand runs mismatch");
    assert_eq!(
        acts.container, weights.container,
        "operand container mismatch"
    );
    let Layout::Rows { starts, groups } = &acts.layout else {
        panic!("activations must be packed by from_codes, not pack_rows");
    };
    let taps = Taps::new(acts.plane(0), groups);
    let weights = weights.as_weights();
    let (m, o) = (acts.rows, weights.rows);
    let ld = o.div_ceil(NR) * NR;
    // Σ_q 256^q over the weight planes, the scale of the `128·Σ_k A`
    // correction
    let plane_scale: i64 = if weights.planes == 2 { 257 } else { 1 };
    let mut accs = vec![0i64; MR * ld];
    for m0 in (0..m).step_by(MR) {
        let height = MR.min(m - m0);
        let tile = &mut accs[..height * ld];
        tile.fill(0);
        if height == MR {
            accumulate::<MR>(body, acts, &starts[m0..], taps, &weights, tile, ld);
        } else {
            // edge rows run one at a time rather than as padded tiles
            for (i, row) in tile.chunks_exact_mut(ld).enumerate() {
                accumulate::<1>(body, acts, &starts[m0 + i..], taps, &weights, row, ld);
            }
        }
        for (row, &sum) in tile.chunks_exact_mut(ld).zip(&acts.row_sums[m0..]) {
            let correction = 128 * plane_scale * sum as i64;
            for acc in &mut row[..o] {
                *acc += correction;
            }
        }
        emit_tile(m0, tile, ld);
    }
}

/// Adds `Σ_pq 256^(p+q)·D_pq` for the `R` activation rows that start at
/// `starts[..R]` against every weight row into `out`, one `ld`-wide row
/// per activation row: every plane pair, block of [`NR`] outputs and
/// [`I32_CHUNK`] of `k`.
fn accumulate<const R: usize>(
    body: Body,
    acts: &PackedMatrix,
    starts: &[u32],
    taps: Taps<'_>,
    weights: &PackedMatrix,
    out: &mut [i64],
    ld: usize,
) {
    let k4 = acts.k4();
    let rows: [u32; R] = std::array::from_fn(|i| starts[i]);
    let chunk = I32_CHUNK / 4;
    for p in 0..acts.planes {
        let taps = taps.on(acts.plane(p));
        for q in 0..weights.planes {
            let shift = 8 * (p + q) as u32;
            let blocks = weights.plane(q).chunks_exact(NR * k4.max(1));
            for (b, w_block) in blocks.enumerate() {
                for g0 in (0..taps.groups.len()).step_by(chunk) {
                    let g1 = (g0 + chunk).min(taps.groups.len());
                    body.tile(
                        rows,
                        taps.slice(g0, g1),
                        &w_block[4 * NR * g0..4 * NR * g1],
                        shift,
                        &mut out[b * NR..],
                        ld,
                    );
                }
            }
        }
    }
}

/// One byte plane of an activation operand with its group offsets, and
/// the bytes past a row's start that the furthest of them reads: a tile
/// checks each row against it once.
#[derive(Debug, Clone, Copy)]
struct Taps<'a> {
    plane: &'a [u8],
    groups: &'a [u32],
    /// `max(groups) + 4`, or 0 without groups.
    reach: usize,
}

impl<'a> Taps<'a> {
    fn new(plane: &'a [u8], groups: &'a [u32]) -> Self {
        let reach = groups.iter().max().map_or(0, |&g| g as usize + 4);
        Self {
            plane,
            groups,
            reach,
        }
    }

    /// Whether every group of the row at `start` lies in the plane.
    fn holds(&self, start: u32) -> bool {
        start as usize + self.reach <= self.plane.len()
    }

    /// The same groups over another plane of equal length.
    fn on(self, plane: &'a [u8]) -> Self {
        Self { plane, ..self }
    }

    /// Groups `g0..g1`, still bounded by the whole reach.
    fn slice(self, g0: usize, g1: usize) -> Self {
        Self {
            groups: &self.groups[g0..g1],
            ..self
        }
    }
}

/// A register-tile body. Both compute, for `R` activation rows read in
/// place — `s` groups of 4 bytes, group `g` of the row at `start` being
/// the bytes at `start + groups[g]` of the [`Taps`]' plane — and one block of `s`
/// steps of `NR × 4` weight bytes, the `i32` tile `D[i][j] = Σ a[i]·(w[j]
/// − 128)` and add `D << shift` into the `i64` rows `out[i·ld..i·ld + NR]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Body {
    Portable,
    /// Only constructed once `avx512f` and `avx512vnni` were detected.
    #[cfg(target_arch = "x86_64")]
    Vnni,
}

impl Body {
    /// The fastest body this CPU runs, resolved once per process.
    pub(crate) fn detect() -> Body {
        #[cfg(target_arch = "x86_64")]
        if vnni_available() {
            return Body::Vnni;
        }
        Body::Portable
    }

    /// Every body this CPU can run, the portable one first.
    #[cfg(test)]
    pub(crate) fn all() -> Vec<Body> {
        let mut out = vec![Body::Portable];
        if Body::detect() != Body::Portable {
            out.push(Body::detect());
        } else {
            eprintln!("VNNI body skipped: no avx512f + avx512vnni on this CPU");
        }
        out
    }

    #[inline]
    fn tile<const R: usize>(
        self,
        rows: [u32; R],
        taps: Taps<'_>,
        w: &[u8],
        shift: u32,
        out: &mut [i64],
        ld: usize,
    ) {
        assert!(
            w.len() == 4 * NR * taps.groups.len()
                && rows.iter().all(|&r| taps.holds(r))
                && out.len() >= (R - 1) * ld + NR,
            "tile operands out of shape"
        );
        match self {
            Body::Portable => tile_portable(rows, taps, w, shift, out, ld),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `Vnni` exists only where the features were detected;
            // the shapes were checked above, and every group of a row ends
            // within `reach` of its start.
            Body::Vnni => unsafe { tile_vnni(rows, taps, w, shift, out, ld) },
        }
    }
}

/// Runtime AVX-512F + VNNI detection, resolved once per process.
#[cfg(target_arch = "x86_64")]
fn vnni_available() -> bool {
    static VNNI: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *VNNI.get_or_init(|| {
        is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512vnni")
    })
}

/// The portable tile: the reads and sums of [`tile_vnni`] in scalar
/// code.
fn tile_portable<const R: usize>(
    rows: [u32; R],
    taps: Taps<'_>,
    w: &[u8],
    shift: u32,
    out: &mut [i64],
    ld: usize,
) {
    for (i, &start) in rows.iter().enumerate() {
        let row = &taps.plane[start as usize..];
        let mut lanes = [0i32; NR];
        for (&g, step) in taps.groups.iter().zip(w.chunks_exact(4 * NR)) {
            let a4 = &row[g as usize..g as usize + 4];
            for (lane, w4) in lanes.iter_mut().zip(step.chunks_exact(4)) {
                for (&a, &b) in a4.iter().zip(w4) {
                    *lane += i32::from(a) * i32::from(b as i8);
                }
            }
        }
        for (acc, &lane) in out[i * ld..i * ld + NR].iter_mut().zip(&lanes) {
            *acc += i64::from(lane) << shift;
        }
    }
}

/// The AVX-512 VNNI tile: per group of 4 `k`, one 64-byte weight load
/// feeds `R` `vpdpbusd`s, each against one activation row's 4 bytes at
/// the group's offset, broadcast to all 16 lanes. The `i32` lanes widen
/// into the `i64` accumulators once, at the end.
///
/// # Safety
///
/// The CPU must support AVX-512F and AVX-512 VNNI. `w` must hold `4·NR`
/// bytes per group, every `start + g + 4` must lie within the plane, and
/// `out` must hold at least `(R − 1)·ld + NR` accumulators.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vnni")]
unsafe fn tile_vnni<const R: usize>(
    rows: [u32; R],
    taps: Taps<'_>,
    w: &[u8],
    shift: u32,
    out: &mut [i64],
    ld: usize,
) {
    use std::arch::x86_64::{
        _mm512_add_epi64, _mm512_castsi512_si256, _mm512_cvtepi32_epi64, _mm512_dpbusd_epi32,
        _mm512_extracti64x4_epi64, _mm512_loadu_si512, _mm512_set1_epi32, _mm512_setzero_si512,
        _mm512_sll_epi64, _mm512_storeu_si512, _mm_cvtsi32_si128,
    };
    let a = rows.map(|start| taps.plane.as_ptr().add(start as usize));
    let mut acc = [_mm512_setzero_si512(); R];
    for (s, &g) in taps.groups.iter().enumerate() {
        let wv = _mm512_loadu_si512(w.as_ptr().add(s * 4 * NR).cast());
        for (slot, &row) in acc.iter_mut().zip(&a) {
            let av = _mm512_set1_epi32(row.add(g as usize).cast::<i32>().read_unaligned());
            *slot = _mm512_dpbusd_epi32(*slot, av, wv);
        }
    }
    let count = _mm_cvtsi32_si128(shift as i32);
    for (i, &lanes) in acc.iter().enumerate() {
        let dst = out.as_mut_ptr().add(i * ld);
        let halves = [
            _mm512_castsi512_si256(lanes),
            _mm512_extracti64x4_epi64::<1>(lanes),
        ];
        for (h, half) in halves.into_iter().enumerate() {
            let wide = _mm512_sll_epi64(_mm512_cvtepi32_epi64(half), count);
            let at = dst.add(8 * h);
            let sum = _mm512_add_epi64(_mm512_loadu_si512(at.cast()), wide);
            _mm512_storeu_si512(at.cast(), sum);
        }
    }
}

/// Scalar u8 reference: `i32` partials over bounded chunks, `i64` total.
pub fn dot_u8_reference(a: &[u8], w: &[u8]) -> i64 {
    let mut total = 0i64;
    for (ac, wc) in a.chunks(I32_CHUNK).zip(w.chunks(I32_CHUNK)) {
        let mut acc = 0i32;
        for (&x, &y) in ac.iter().zip(wc) {
            acc += i32::from(x) * i32::from(y);
        }
        total += i64::from(acc);
    }
    total
}

/// Scalar u16 reference: products up to `2³²` accumulate exactly in `u64`.
pub fn dot_u16_reference(a: &[u16], w: &[u16]) -> i64 {
    let mut acc = 0u64;
    for (&x, &y) in a.iter().zip(w) {
        acc += u64::from(x) * u64::from(y);
    }
    acc as i64
}

/// Scalar reference over nibble-packed rows (low nibble = even `k`; a
/// trailing half-byte pad is zero in both operands). Products are at most
/// `15² = 225`, so an `i32` accumulator is exact for any realistic row
/// (overflow would need > 4.7M taps; layer fan-ins are thousands).
pub fn dot_nib_reference(a: &[u8], w: &[u8]) -> i64 {
    debug_assert!(
        a.len() < (1 << 22),
        "nibble rows capped well below i32 overflow"
    );
    let mut acc = 0i32;
    for (&ab, &wb) in a.iter().zip(w) {
        acc += i32::from(ab & 0xF) * i32::from(wb & 0xF) + i32::from(ab >> 4) * i32::from(wb >> 4);
    }
    i64::from(acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use adq_quant::{BitWidth, QuantRange};

    fn lcg_codes(len: usize, max: u64, seed: u64) -> Vec<u16> {
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 33) % (max + 1)) as u16
            })
            .collect()
    }

    /// `[m, o]` accumulators in plain `i64` over unpacked codes.
    fn wide_gemm(a: &[u16], w: &[u16], m: usize, o: usize, k: usize) -> Vec<i64> {
        let dot = |mi: usize, oi: usize| {
            (0..k)
                .map(|kk| i64::from(a[mi * k + kk]) * i64::from(w[oi * k + kk]))
                .sum()
        };
        (0..m * o).map(|i| dot(i / o, i % o)).collect()
    }

    fn run(body: Body, acts: &PackedMatrix, weights: &PackedMatrix) -> Vec<i64> {
        let o = weights.rows();
        let mut got = vec![i64::MIN; acts.rows() * o];
        qgemm_rows_with(body, acts, weights, |mi, accs| {
            got[mi * o..(mi + 1) * o].copy_from_slice(accs);
        });
        got
    }

    /// Weights tiled from raw codes at `planes` planes, as `pack_rows`
    /// tiles a quantizer's codes.
    fn weights(
        codes: &[u16],
        o: usize,
        k: usize,
        container: Container,
        planes: usize,
    ) -> PackedMatrix {
        let sums = sum_rows(o, k, |r, kk| codes[r * k + kk]);
        PackedMatrix::tiled(o, k, 1, container, planes, sums, |r, kk| codes[r * k + kk])
    }

    #[test]
    fn both_bodies_match_the_wide_reference_at_every_plane_pair_and_edge() {
        // (container, activation max, weight max, weight planes), as
        // (activation planes, weight planes): (1,1) Nib and U8; (1,2) byte
        // codes tiled in two planes; (2,1) 16-bit activations against
        // byte-sized weights, the mixed model's conv2; (2,2) both 16-bit
        let cases = [
            (Container::Nib, 15, 15, 1),
            (Container::U8, 255, 255, 1),
            (Container::U8, 255, 255, 2),
            (Container::U16, 65_535, 255, 1),
            (Container::U16, 65_535, 65_535, 2),
        ];
        for body in Body::all() {
            for (container, a_max, w_max, planes) in cases {
                for k in [1usize, 2, 3, 4, 5, 6, 7, 8, 27, 130] {
                    for o in [1usize, 10, 16, 17, 64] {
                        for m in [1usize, 7, 9, 21] {
                            let a = lcg_codes(m * k, a_max, (k * 31 + m) as u64);
                            let w = lcg_codes(o * k, w_max, (k * 17 + o) as u64);
                            let acts = PackedMatrix::from_codes(&a, m, k, container);
                            let wts = weights(&w, o, k, container, planes);
                            assert_eq!(
                                run(body, &acts, &wts),
                                wide_gemm(&a, &w, m, o, k),
                                "{body:?} {container:?} planes {planes} m={m} o={o} k={k}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn extreme_codes_past_the_chunk_do_not_overflow() {
        // every sign of the biased weight byte, at full magnitude, over
        // a k that is not a multiple of 4 and straddles one chunk
        let (m, o, k) = (9, 17, I32_CHUNK + 5);
        for body in Body::all() {
            for (container, max) in [(Container::U8, 255u16), (Container::U16, 65_535)] {
                let planes = container.planes();
                for (a_code, w_code) in [(max, max), (max, 0), (0, max), (0, 0)] {
                    let a = vec![a_code; m * k];
                    let w = vec![w_code; o * k];
                    let acts = PackedMatrix::from_codes(&a, m, k, container);
                    let wts = weights(&w, o, k, container, planes);
                    let want = k as i64 * i64::from(a_code) * i64::from(w_code);
                    assert_eq!(
                        run(body, &acts, &wts),
                        vec![want; m * o],
                        "{body:?} {container:?} a={a_code} w={w_code}"
                    );
                }
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn vnni_tile_matches_the_portable_tile() {
        if !vnni_available() {
            eprintln!("skipped: no avx512f + avx512vnni on this CPU");
            return;
        }
        let ld = 3 * NR;
        for steps in [0usize, 1, 2, 7, 64] {
            // rows 4·steps + 5 bytes apart, groups read at scattered,
            // overlapping and unaligned offsets
            let stride = 4 * steps + 5;
            let plane: Vec<u8> = lcg_codes(MR * stride, 255, 5)
                .into_iter()
                .map(|c| c as u8)
                .collect();
            let groups: Vec<u32> = lcg_codes(steps, (stride - 4) as u64, 7)
                .into_iter()
                .map(u32::from)
                .collect();
            let taps = Taps::new(&plane, &groups);
            let w: Vec<u8> = lcg_codes(4 * NR * steps, 255, 3)
                .into_iter()
                .map(|c| c as u8)
                .collect();
            let rows: [u32; MR] = std::array::from_fn(|i| (i * stride) as u32);
            for shift in [0, 8, 16] {
                let start: Vec<i64> = lcg_codes(MR * ld, 1 << 15, 9)
                    .into_iter()
                    .map(|c| i64::from(c) - (1 << 14))
                    .collect();
                let mut want = start.clone();
                let mut got = start.clone();
                Body::Portable.tile(rows, taps, &w, shift, &mut want, ld);
                Body::Vnni.tile(rows, taps, &w, shift, &mut got, ld);
                assert_eq!(got, want, "steps {steps} shift {shift}");
                // the one-row tile the matrix edge runs
                let (mut want, mut got) = (start.clone(), start);
                Body::Portable.tile([rows[3]], taps, &w, shift, &mut want, ld);
                Body::Vnni.tile([rows[3]], taps, &w, shift, &mut got, ld);
                assert_eq!(got, want, "one row, steps {steps} shift {shift}");
            }
        }
    }

    #[test]
    fn runs_read_in_place_ignore_what_their_padding_lanes_hold() {
        // rows of `runs` runs, each run somewhere in a plane of noise: the
        // padding lanes of a run read the noise after it, which the zero
        // weight lanes must cancel
        for body in Body::all() {
            for (container, max) in [(Container::Nib, 15), (Container::U16, 65_535)] {
                for (runs, len) in [(1usize, 5usize), (3, 1), (3, 9), (2, 8), (4, 6)] {
                    let (m, o, k) = (11, 18, runs * len);
                    let a = lcg_codes(m * k, max, (runs * 7 + len) as u64);
                    let w = lcg_codes(o * k, max, 3);
                    let planes = container.planes();
                    // run j of row r starts at byte (r·runs + j)·gap
                    let gap = len + 7;
                    let plane_len = m * runs * gap + 3;
                    let mut bytes: Vec<u8> = lcg_codes(planes * plane_len, 255, 8)
                        .into_iter()
                        .map(|c| c as u8)
                        .collect();
                    for (r, row) in a.chunks_exact(k).enumerate() {
                        for (kk, &c) in row.iter().enumerate() {
                            let at = (r * runs + kk / len) * gap + kk % len;
                            for p in 0..planes {
                                bytes[p * plane_len + at] = (c >> (8 * p)) as u8;
                            }
                        }
                    }
                    let starts = (0..m).map(|r| (r * runs * gap) as u32).collect();
                    let groups = (0..padded(k, runs) / 4)
                        .map(|g| {
                            let l = 4 * g;
                            let run4 = len.next_multiple_of(4);
                            (l / run4 * gap + l % run4) as u32
                        })
                        .collect();
                    let acts = PackedMatrix::in_place(
                        [m, k, runs],
                        container,
                        planes,
                        bytes,
                        starts,
                        groups,
                        sum_rows(m, k, |r, kk| a[r * k + kk]),
                    );
                    let code = |r: usize, kk: usize| w[r * k + kk];
                    let sums = sum_rows(o, k, code);
                    let wts = PackedMatrix::tiled(o, k, runs, container, planes, sums, code);
                    assert_eq!(
                        run(body, &acts, &wts),
                        wide_gemm(&a, &w, m, o, k),
                        "{body:?} {container:?} runs {runs} of {len}"
                    );
                }
            }
        }
    }

    #[test]
    fn rows_and_tiles_agree_with_the_container_oracles() {
        // the dot_*_reference oracles over the container storage formats
        // agree with the plane GEMM on one row against one filter
        for k in [0usize, 1, 31, 64, 129] {
            let (a, w) = (lcg_codes(k, 255, 1), lcg_codes(k, 255, 2));
            let bytes = |c: &[u16]| c.iter().map(|&x| x as u8).collect::<Vec<u8>>();
            let got = run(
                Body::detect(),
                &PackedMatrix::from_codes(&a, 1, k, Container::U8),
                &PackedMatrix::from_codes(&w, 1, k, Container::U8),
            );
            assert_eq!(got, [dot_u8_reference(&bytes(&a), &bytes(&w))], "u8 k={k}");

            let (a, w) = (lcg_codes(k, 65_535, 3), lcg_codes(k, 65_535, 4));
            let got = run(
                Body::detect(),
                &PackedMatrix::from_codes(&a, 1, k, Container::U16),
                &PackedMatrix::from_codes(&w, 1, k, Container::U16),
            );
            assert_eq!(got, [dot_u16_reference(&a, &w)], "u16 k={k}");

            let (a, w) = (lcg_codes(k, 15, 5), lcg_codes(k, 15, 6));
            let nibbles = |c: &[u16]| {
                let mut out = vec![0u8; c.len().div_ceil(2)];
                for (i, &x) in c.iter().enumerate() {
                    out[i / 2] |= (x as u8) << ((i & 1) * 4);
                }
                out
            };
            let got = run(
                Body::detect(),
                &PackedMatrix::from_codes(&a, 1, k, Container::Nib),
                &PackedMatrix::from_codes(&w, 1, k, Container::Nib),
            );
            assert_eq!(
                got,
                [dot_nib_reference(&nibbles(&a), &nibbles(&w))],
                "nib k={k}"
            );
        }
    }

    fn q(bits: u32, lo: f32, hi: f32) -> Quantizer {
        Quantizer::new(
            BitWidth::new(bits).unwrap(),
            QuantRange::new(lo, hi).unwrap(),
        )
    }

    #[test]
    fn pack_rows_tiles_what_from_codes_tiles_per_call() {
        for (bits, container) in [
            (4u32, Container::Nib),
            (8, Container::U8),
            (4, Container::U16),
            (16, Container::U16),
        ] {
            let quant = q(bits, -1.0, 1.0);
            let values: Vec<f32> = (0..60).map(|i| (i as f32) * 0.07 - 2.0).collect();
            let via_floats = PackedMatrix::pack_rows(&values, 5, 12, &quant, container);
            let codes: Vec<u16> = values.iter().map(|&v| quant.quantize(v) as u16).collect();
            let via_codes = PackedMatrix::from_codes(&codes, 5, 12, container);
            assert_eq!(via_codes.row_sums(), via_floats.row_sums(), "{container:?}");
            assert_eq!(
                via_floats.planes,
                planes_for(quant.bits().max_code()),
                "{container:?}: weight planes follow the weights' own codes"
            );
            let lhs = run(Body::detect(), &via_codes, &via_floats);
            let rhs = run(Body::detect(), &via_codes, &via_codes);
            assert_eq!(lhs, rhs, "{container:?}");
            assert_eq!(lhs, wide_gemm(&codes, &codes, 5, 5, 12), "{container:?}");
        }
    }

    #[test]
    fn pack_rows_matches_per_element_quantize() {
        let quant = q(8, -1.0, 1.0);
        let values: Vec<f32> = (0..24).map(|i| (i as f32) / 10.0 - 1.2).collect();
        let packed = PackedMatrix::pack_rows(&values, 4, 6, &quant, Container::U8);
        let codes: Vec<u16> = values.iter().map(|&v| quant.quantize(v) as u16).collect();
        assert_eq!(packed, weights(&codes, 4, 6, Container::U8, 1));
        for row in 0..4 {
            let want: u64 = codes[row * 6..(row + 1) * 6]
                .iter()
                .map(|&c| u64::from(c))
                .sum();
            assert_eq!(packed.row_sums()[row], want, "row {row}");
        }
    }

    #[test]
    #[should_panic(expected = "container mismatch")]
    fn qgemm_rejects_container_mismatch() {
        let a = PackedMatrix::from_codes(&[1; 4], 1, 4, Container::U8);
        let w = PackedMatrix::from_codes(&[1; 4], 1, 4, Container::Nib);
        qgemm(&a, &w, |_, _, _| {});
    }

    #[test]
    #[should_panic(expected = "activations must be packed by from_codes")]
    fn qgemm_rejects_tiled_activations() {
        let quant = q(8, 0.0, 1.0);
        let w = PackedMatrix::pack_rows(&[0.5; 4], 1, 4, &quant, Container::U8);
        qgemm(&w, &w, |_, _, _| {});
    }

    #[test]
    fn container_join_prefers_wider() {
        assert_eq!(Container::Nib.join(Container::U16), Container::U16);
        assert_eq!(Container::Nib.join(Container::U8), Container::U8);
        assert_eq!(Container::Nib.join(Container::Nib), Container::Nib);
        assert_eq!(Container::for_max_code(3), Container::Nib);
        assert_eq!(Container::for_max_code(255), Container::U8);
        assert_eq!(Container::for_max_code(65_535), Container::U16);
    }
}
