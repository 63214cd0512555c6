use serde::{Deserialize, Serialize};

use crate::error::QuantError;

/// Independent running bounds [`scan_lanes`] keeps: one
/// 512-bit vector of `f32`, so the scan vectorizes without a serial
/// dependency between elements.
const SCAN_LANES: usize = 16;

/// A closed quantization range `[min, max]` over which codes are spread.
///
/// Degenerate ranges (`min == max`) are permitted — every input then maps to
/// the single code 0 and dequantizes back to `min` — because they legitimately
/// occur for all-zero activation tensors.
///
/// # Example
///
/// ```
/// use adq_quant::QuantRange;
///
/// # fn main() -> Result<(), adq_quant::QuantError> {
/// let r = QuantRange::new(-1.0, 1.0)?;
/// assert_eq!(r.width(), 2.0);
/// assert_eq!(r.clamp(3.0), 1.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QuantRange {
    min: f32,
    max: f32,
}

impl QuantRange {
    /// Creates a range.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::InvalidRange`] if `min > max` or either bound is
    /// not finite.
    pub fn new(min: f32, max: f32) -> Result<Self, QuantError> {
        if min > max || !min.is_finite() || !max.is_finite() {
            return Err(QuantError::InvalidRange { min, max });
        }
        Ok(Self { min, max })
    }

    /// Range covering the values of `data`.
    ///
    /// One 16-lane pass (two when the data holds NaN or ±inf); the
    /// result equals folding `f32::min`/`f32::max` over `data` from ±inf,
    /// which keeps the running bound on a tie: a zero bound takes the
    /// sign of the first zero in `data`.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::EmptyObserver`] for empty input and
    /// [`QuantError::InvalidRange`] if the data contains non-finite values;
    /// both bounds of the error are the first non-finite value.
    pub fn from_data(data: &[f32]) -> Result<Self, QuantError> {
        match Self::of_finite(data) {
            (Some(range), 0) => Ok(range),
            (None, 0) => Err(QuantError::EmptyObserver),
            // f32::min/max would silently skip NaN; reject it instead
            _ => {
                let x = *data.iter().find(|x| !x.is_finite()).expect("counted");
                Err(QuantError::InvalidRange { min: x, max: x })
            }
        }
    }

    /// The range of the finite values of `data` (`None` when there are
    /// none) and the number of NaN and ±inf values it skipped.
    ///
    /// Data that is all finite, the common case, takes one plain pass of
    /// [`scan_lanes`]; only data holding NaN or ±inf pays for a second,
    /// skipping and counting pass. The bounds equal folding over the
    /// finite values in order, keeping the running bound on a tie: a
    /// zero bound is the first zero in `data`.
    pub(crate) fn of_finite(data: &[f32]) -> (Option<Self>, usize) {
        let (mut lo, mut hi, magnitudes) = scan_lanes::<false>(data);
        let mut skipped = 0;
        if magnitudes.into_iter().max() >= Some(f32::INFINITY.to_bits()) {
            let counts;
            (lo, hi, counts) = scan_lanes::<true>(data);
            skipped = counts.into_iter().map(|count| count as usize).sum();
        }
        if skipped == data.len() {
            return (None, skipped);
        }
        // the lanes compare ±0 equal; the serial fold keeps its bound on
        // a tie, so a zero bound is the first zero in data
        let first_zero = || *data.iter().find(|&&x| x == 0.0).expect("a zero bound");
        let lo = if lo == 0.0 { first_zero() } else { lo };
        let hi = if hi == 0.0 { first_zero() } else { hi };
        let range = Self::new(lo, hi).expect("finite min <= max by construction");
        (Some(range), skipped)
    }

    /// Lower bound.
    pub fn min(&self) -> f32 {
        self.min
    }

    /// Upper bound.
    pub fn max(&self) -> f32 {
        self.max
    }

    /// `max − min`.
    pub fn width(&self) -> f32 {
        self.max - self.min
    }

    /// Whether the range covers a single point.
    pub fn is_degenerate(&self) -> bool {
        self.min == self.max
    }

    /// Clamps `x` into the range.
    pub fn clamp(&self, x: f32) -> f32 {
        x.clamp(self.min, self.max)
    }

    /// Smallest range containing both `self` and `other`.
    ///
    /// A `±0` tie keeps `self`'s bound, as [`QuantRange::from_data`]
    /// keeps the first zero, so the union of two batches' ranges has the
    /// bits of their concatenation's range. (`f32::min`/`max` leave the
    /// tie to code generation.)
    pub fn union(&self, other: &QuantRange) -> QuantRange {
        QuantRange {
            min: if other.min < self.min {
                other.min
            } else {
                self.min
            },
            max: if other.max > self.max {
                other.max
            } else {
                self.max
            },
        }
    }
}

/// One branch-free pass over `data` in 16 independent lanes, so it
/// vectorizes without a serial dependency between elements: the minimum
/// and maximum (`±0` compare equal, so a zero bound's sign is
/// arbitrary), and a per-lane tally.
///
/// With `SKIP`, a NaN or ±inf value enters the bounds as `+inf` and
/// `-inf`, so it moves neither, and the tally counts such values.
/// Without, the bounds fold every value — NaN moves neither, ±inf moves
/// one — and the tally keeps the largest magnitude bit pattern, which is
/// at least `0x7f80_0000` exactly when some value is NaN or ±inf. A lane
/// counts at most `len / 16` values, which fits `u32` for any slice that
/// fits in memory.
fn scan_lanes<const SKIP: bool>(data: &[f32]) -> (f32, f32, [u32; SCAN_LANES]) {
    let mut lo = [f32::INFINITY; SCAN_LANES];
    let mut hi = [f32::NEG_INFINITY; SCAN_LANES];
    let mut tally = [0u32; SCAN_LANES];
    let mut scan = |lane: usize, x: f32| {
        let magnitude = x.abs().to_bits();
        let finite = magnitude < f32::INFINITY.to_bits();
        let low = if SKIP && !finite { f32::INFINITY } else { x };
        let high = if SKIP && !finite {
            f32::NEG_INFINITY
        } else {
            x
        };
        lo[lane] = if low < lo[lane] { low } else { lo[lane] };
        hi[lane] = if high > hi[lane] { high } else { hi[lane] };
        tally[lane] = if SKIP {
            tally[lane] + u32::from(!finite)
        } else {
            tally[lane].max(magnitude)
        };
    };
    let chunks = data.chunks_exact(SCAN_LANES);
    let tail = chunks.remainder();
    for chunk in chunks {
        let chunk: &[f32; SCAN_LANES] = chunk.try_into().expect("a whole chunk");
        for (lane, &x) in chunk.iter().enumerate() {
            scan(lane, x);
        }
    }
    for (lane, &x) in tail.iter().enumerate() {
        scan(lane, x);
    }
    let lo = lo
        .into_iter()
        .fold(f32::INFINITY, |a, b| if b < a { b } else { a });
    let hi = hi
        .into_iter()
        .fold(f32::NEG_INFINITY, |a, b| if b > a { b } else { a });
    (lo, hi, tally)
}

impl Default for QuantRange {
    /// The degenerate range `[0, 0]`.
    fn default() -> Self {
        Self { min: 0.0, max: 0.0 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_inverted() {
        assert!(QuantRange::new(1.0, 0.0).is_err());
    }

    #[test]
    fn rejects_nan_and_inf() {
        assert!(QuantRange::new(f32::NAN, 1.0).is_err());
        assert!(QuantRange::new(0.0, f32::INFINITY).is_err());
    }

    #[test]
    fn degenerate_allowed() {
        let r = QuantRange::new(2.0, 2.0).unwrap();
        assert!(r.is_degenerate());
        assert_eq!(r.width(), 0.0);
    }

    #[test]
    fn from_data_covers_extremes() {
        let r = QuantRange::from_data(&[0.5, -2.0, 3.0, 1.0]).unwrap();
        assert_eq!((r.min(), r.max()), (-2.0, 3.0));
    }

    #[test]
    fn from_data_empty_is_error() {
        assert_eq!(QuantRange::from_data(&[]), Err(QuantError::EmptyObserver));
    }

    #[test]
    fn from_data_nan_is_error() {
        assert!(QuantRange::from_data(&[1.0, f32::NAN]).is_err());
    }

    #[test]
    fn clamp_saturates() {
        let r = QuantRange::new(-1.0, 1.0).unwrap();
        assert_eq!(r.clamp(-5.0), -1.0);
        assert_eq!(r.clamp(0.25), 0.25);
        assert_eq!(r.clamp(9.0), 1.0);
    }

    #[test]
    fn union_covers_both() {
        let a = QuantRange::new(0.0, 1.0).unwrap();
        let b = QuantRange::new(-2.0, 0.5).unwrap();
        let u = a.union(&b);
        assert_eq!((u.min(), u.max()), (-2.0, 1.0));
    }
}
