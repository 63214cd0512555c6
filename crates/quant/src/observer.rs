use serde::{Deserialize, Serialize};

use crate::error::QuantError;
use crate::range::QuantRange;

/// Calibrates a [`QuantRange`] from streams of tensor data.
///
/// The paper quantizes both weights and activations with eqn 1, which needs
/// `[x_min, x_max]` per tensor. Weight ranges are observed once per step;
/// activation ranges are observed across batches. Two strategies are
/// provided; the choice is one of the ablations called out in DESIGN.md §6.
pub trait RangeObserver {
    /// Feeds one batch of values into the observer.
    ///
    /// Non-finite elements (NaN, ±∞ — e.g. from a diverging training step)
    /// are skipped individually and counted in the process-wide
    /// `quant.observer.nonfinite_dropped` metric; the remaining finite
    /// elements still calibrate the range. A batch with no finite elements
    /// leaves the observer unchanged.
    fn observe(&mut self, data: &[f32]);

    /// The calibrated range.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::EmptyObserver`] if no data has been observed.
    fn range(&self) -> Result<QuantRange, QuantError>;

    /// Discards all observed state.
    fn reset(&mut self);
}

/// Tracks the running minimum and maximum of everything observed.
///
/// # Example
///
/// ```
/// use adq_quant::{MinMaxObserver, RangeObserver};
///
/// # fn main() -> Result<(), adq_quant::QuantError> {
/// let mut obs = MinMaxObserver::new();
/// obs.observe(&[1.0, -3.0]);
/// obs.observe(&[2.0]);
/// let r = obs.range()?;
/// assert_eq!((r.min(), r.max()), (-3.0, 2.0));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MinMaxObserver {
    current: Option<QuantRange>,
}

impl MinMaxObserver {
    /// Creates an observer that has seen no data.
    pub fn new() -> Self {
        Self::default()
    }
}

impl RangeObserver for MinMaxObserver {
    fn observe(&mut self, data: &[f32]) {
        if let Some(batch) = finite_batch_range(data) {
            self.current = Some(match self.current {
                Some(prev) => prev.union(&batch),
                None => batch,
            });
        }
    }

    fn range(&self) -> Result<QuantRange, QuantError> {
        self.current.ok_or(QuantError::EmptyObserver)
    }

    fn reset(&mut self) {
        self.current = None;
    }
}

/// Exponential-moving-average range: `r ← (1−α)·r + α·batch_range`.
///
/// Smoother than [`MinMaxObserver`] under outliers; used by the
/// `ablation_observer` bench to quantify the effect of range tracking on
/// quantization error.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MovingAverageObserver {
    momentum: f32,
    min: f32,
    max: f32,
    seen: bool,
}

impl MovingAverageObserver {
    /// Creates an observer with smoothing factor `momentum` (α ∈ (0, 1]).
    ///
    /// # Panics
    ///
    /// Panics if `momentum` is outside `(0, 1]` or NaN.
    pub fn new(momentum: f32) -> Self {
        assert!(
            momentum > 0.0 && momentum <= 1.0,
            "momentum must be in (0, 1], got {momentum}"
        );
        Self {
            momentum,
            min: 0.0,
            max: 0.0,
            seen: false,
        }
    }
}

impl Default for MovingAverageObserver {
    /// Momentum 0.1, a common QAT default.
    fn default() -> Self {
        Self::new(0.1)
    }
}

impl RangeObserver for MovingAverageObserver {
    fn observe(&mut self, data: &[f32]) {
        let Some(batch) = finite_batch_range(data) else {
            return;
        };
        if self.seen {
            self.min += self.momentum * (batch.min() - self.min);
            self.max += self.momentum * (batch.max() - self.max);
        } else {
            self.min = batch.min();
            self.max = batch.max();
            self.seen = true;
        }
    }

    fn range(&self) -> Result<QuantRange, QuantError> {
        if !self.seen {
            return Err(QuantError::EmptyObserver);
        }
        // EMA can momentarily invert on adversarial streams; normalise,
        // keeping both bounds on a ±0 tie
        if self.max < self.min {
            QuantRange::new(self.max, self.min)
        } else {
            QuantRange::new(self.min, self.max)
        }
    }

    fn reset(&mut self) {
        self.seen = false;
        self.min = 0.0;
        self.max = 0.0;
    }
}

/// Range of the finite elements of `data`, or `None` when there are none.
///
/// Historically a single NaN/inf element silently discarded the *entire*
/// batch (`QuantRange::from_data` rejects non-finite data wholesale),
/// starving the observer of calibration data exactly when training is least
/// stable. Dropped elements are counted in the process-wide
/// `quant.observer.nonfinite_dropped` counter so divergence is visible in
/// metrics snapshots.
fn finite_batch_range(data: &[f32]) -> Option<QuantRange> {
    let (range, dropped) = QuantRange::of_finite(data);
    if dropped > 0 {
        adq_telemetry::metrics::global()
            .counter("quant.observer.nonfinite_dropped")
            .add(dropped as u64);
    }
    range
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minmax_empty_errors() {
        assert_eq!(
            MinMaxObserver::new().range(),
            Err(QuantError::EmptyObserver)
        );
    }

    #[test]
    fn minmax_accumulates_across_batches() {
        let mut o = MinMaxObserver::new();
        o.observe(&[0.0, 1.0]);
        o.observe(&[-2.0, 0.5]);
        let r = o.range().unwrap();
        assert_eq!((r.min(), r.max()), (-2.0, 1.0));
    }

    #[test]
    fn minmax_order_invariant() {
        let batches: [&[f32]; 3] = [&[1.0, 2.0], &[-1.0], &[0.0, 5.0]];
        let mut fwd = MinMaxObserver::new();
        for b in batches {
            fwd.observe(b);
        }
        let mut rev = MinMaxObserver::new();
        for b in batches.iter().rev() {
            rev.observe(b);
        }
        assert_eq!(fwd.range().unwrap(), rev.range().unwrap());
    }

    #[test]
    fn minmax_ignores_empty_batch() {
        let mut o = MinMaxObserver::new();
        o.observe(&[]);
        assert!(o.range().is_err());
        o.observe(&[1.0]);
        o.observe(&[]);
        assert!(o.range().is_ok());
    }

    #[test]
    fn minmax_reset_clears() {
        let mut o = MinMaxObserver::new();
        o.observe(&[1.0]);
        o.reset();
        assert!(o.range().is_err());
    }

    #[test]
    fn ema_first_batch_taken_verbatim() {
        let mut o = MovingAverageObserver::new(0.5);
        o.observe(&[-1.0, 2.0]);
        let r = o.range().unwrap();
        assert_eq!((r.min(), r.max()), (-1.0, 2.0));
    }

    #[test]
    fn ema_moves_toward_new_batches() {
        let mut o = MovingAverageObserver::new(0.5);
        o.observe(&[0.0, 0.0]);
        o.observe(&[4.0, 4.0]);
        let r = o.range().unwrap();
        // min: 0 + 0.5*(4-0) = 2; max likewise
        assert_eq!((r.min(), r.max()), (2.0, 2.0));
    }

    #[test]
    fn ema_smoother_than_minmax_under_outlier() {
        let mut ema = MovingAverageObserver::new(0.1);
        let mut mm = MinMaxObserver::new();
        for _ in 0..10 {
            ema.observe(&[0.0, 1.0]);
            mm.observe(&[0.0, 1.0]);
        }
        ema.observe(&[100.0]);
        mm.observe(&[100.0]);
        assert!(ema.range().unwrap().max() < mm.range().unwrap().max());
    }

    #[test]
    #[should_panic]
    fn ema_zero_momentum_panics() {
        MovingAverageObserver::new(0.0);
    }

    #[test]
    fn minmax_keeps_finite_elements_of_polluted_batch() {
        // regression: a single NaN used to discard the whole batch
        let mut o = MinMaxObserver::new();
        o.observe(&[1.0, f32::NAN, -2.0, f32::INFINITY, f32::NEG_INFINITY]);
        let r = o.range().unwrap();
        assert_eq!((r.min(), r.max()), (-2.0, 1.0));
    }

    #[test]
    fn minmax_all_nonfinite_batch_is_a_noop() {
        let mut o = MinMaxObserver::new();
        o.observe(&[f32::NAN, f32::INFINITY]);
        assert!(o.range().is_err());
        o.observe(&[0.5, 1.5]);
        o.observe(&[f32::NAN]);
        let r = o.range().unwrap();
        assert_eq!((r.min(), r.max()), (0.5, 1.5));
    }

    #[test]
    fn ema_keeps_finite_elements_of_polluted_batch() {
        let mut o = MovingAverageObserver::new(0.5);
        o.observe(&[0.0, 2.0]);
        o.observe(&[f32::NAN, 4.0, 6.0]);
        let r = o.range().unwrap();
        // min: 0 + 0.5*(4-0) = 2; max: 2 + 0.5*(6-2) = 4
        assert_eq!((r.min(), r.max()), (2.0, 4.0));
    }

    #[test]
    fn ema_all_nonfinite_batch_is_a_noop() {
        let mut o = MovingAverageObserver::new(0.5);
        o.observe(&[-1.0, 1.0]);
        o.observe(&[f32::INFINITY, f32::NAN]);
        let r = o.range().unwrap();
        assert_eq!((r.min(), r.max()), (-1.0, 1.0));
    }

    #[test]
    fn nonfinite_drops_are_counted() {
        let counter = adq_telemetry::metrics::global().counter("quant.observer.nonfinite_dropped");
        let before = counter.get();
        let mut o = MinMaxObserver::new();
        o.observe(&[1.0, f32::NAN, f32::INFINITY]);
        let mut e = MovingAverageObserver::default();
        e.observe(&[f32::NEG_INFINITY]);
        // other tests also feed non-finite data concurrently, so the counter
        // moved by at least this test's 3 dropped elements
        assert!(counter.get() >= before + 3);
    }
}
