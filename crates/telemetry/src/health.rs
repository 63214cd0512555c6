//! Typed run-health anomaly detection for live monitoring.
//!
//! [`HealthMonitor`] consumes the observations a telemetry tailer (or
//! the controller itself) extracts from the event stream — epoch
//! loss/accuracy, AD measurements, event arrival times — and raises
//! typed [`RunHealth`] anomalies:
//!
//! * [`RunHealth::NonFiniteLoss`] — training loss went NaN/±Inf (the
//!   vendored JSON writer serialises non-finite floats as `null`, so
//!   tailers map a `null` loss back to NaN before observing it).
//! * [`RunHealth::AccuracyCollapse`] — evaluation accuracy fell below a
//!   fraction of the best accuracy seen after a warm-up period, the
//!   failure mode of an over-aggressive bit-width drop (the paper's
//!   accuracy-vs-energy trade-off going off a cliff).
//! * [`RunHealth::Stalled`] — no new events arrived within the watchdog
//!   window, typically a hung worker pool or a filled disk.
//! * [`RunHealth::QueueSaturated`] — the serving admission queue is
//!   pinned at its `--queue-cap` bound while shed counters rise: the
//!   server is in sustained overload, not a transient burst.
//!
//! Detection is edge-triggered: each anomaly is raised when it starts,
//! not on every subsequent observation, so a dashboard can log events
//! without deduplicating. The monitor is pure state-machine logic (no
//! I/O, no clocks of its own) and is therefore fully unit-testable:
//! callers pass monotonic timestamps into the stall check.

/// Default fraction of the best-seen accuracy below which an epoch's
/// accuracy counts as a collapse.
pub const DEFAULT_COLLAPSE_FRACTION: f64 = 0.5;

/// Epochs to observe before accuracy-collapse detection arms; early
/// training is legitimately noisy.
pub const DEFAULT_WARMUP_EPOCHS: usize = 3;

/// Default stall-watchdog window in seconds.
pub const DEFAULT_STALL_SECS: u64 = 120;

/// A typed run-health anomaly.
#[derive(Debug, Clone, PartialEq)]
pub enum RunHealth {
    /// Training loss became NaN or ±Inf.
    NonFiniteLoss {
        /// Iteration the bad loss was observed in.
        iteration: usize,
        /// Epoch within the iteration.
        epoch: usize,
    },
    /// Accuracy fell below `collapse_fraction ×` the best seen so far.
    AccuracyCollapse {
        /// Iteration the collapse was observed in.
        iteration: usize,
        /// Epoch within the iteration.
        epoch: usize,
        /// The collapsed accuracy.
        accuracy: f64,
        /// The best accuracy observed before the collapse.
        best: f64,
    },
    /// No events arrived within the watchdog window.
    Stalled {
        /// Seconds since the last observed event.
        idle_secs: u64,
    },
    /// The serving admission queue is pinned at capacity while requests
    /// are being shed: sustained overload.
    QueueSaturated {
        /// Observed queue depth.
        depth: u64,
        /// The queue bound (`--queue-cap`).
        cap: u64,
        /// Cumulative shed count at the observation.
        shed: u64,
    },
}

impl RunHealth {
    /// A short stable label (`non_finite_loss`, ...) for logs and tests.
    pub fn kind(&self) -> &'static str {
        match self {
            RunHealth::NonFiniteLoss { .. } => "non_finite_loss",
            RunHealth::AccuracyCollapse { .. } => "accuracy_collapse",
            RunHealth::Stalled { .. } => "stalled",
            RunHealth::QueueSaturated { .. } => "queue_saturated",
        }
    }

    /// One-line human description for dashboards.
    pub fn describe(&self) -> String {
        match self {
            RunHealth::NonFiniteLoss { iteration, epoch } => {
                format!("non-finite loss at iteration {iteration} epoch {epoch}")
            }
            RunHealth::AccuracyCollapse {
                iteration,
                epoch,
                accuracy,
                best,
            } => format!(
                "accuracy collapsed to {accuracy:.4} (best {best:.4}) at iteration {iteration} epoch {epoch}"
            ),
            RunHealth::Stalled { idle_secs } => {
                format!("no telemetry events for {idle_secs}s (stalled run?)")
            }
            RunHealth::QueueSaturated { depth, cap, shed } => {
                format!("serve queue saturated at {depth}/{cap} with {shed} shed (overload)")
            }
        }
    }
}

/// Edge-triggered anomaly detector over a run's observation stream.
#[derive(Debug)]
pub struct HealthMonitor {
    collapse_fraction: f64,
    warmup_epochs: usize,
    stall_secs: u64,
    epochs_seen: usize,
    best_accuracy: f64,
    loss_bad: bool,
    collapsed: bool,
    stalled: bool,
    saturated: bool,
    last_shed: u64,
}

impl Default for HealthMonitor {
    fn default() -> Self {
        Self::new(
            DEFAULT_COLLAPSE_FRACTION,
            DEFAULT_WARMUP_EPOCHS,
            DEFAULT_STALL_SECS,
        )
    }
}

impl HealthMonitor {
    /// A monitor with explicit thresholds.
    pub fn new(collapse_fraction: f64, warmup_epochs: usize, stall_secs: u64) -> Self {
        HealthMonitor {
            collapse_fraction,
            warmup_epochs,
            stall_secs,
            epochs_seen: 0,
            best_accuracy: 0.0,
            loss_bad: false,
            collapsed: false,
            stalled: false,
            saturated: false,
            last_shed: 0,
        }
    }

    /// The stall-watchdog window, in seconds.
    pub fn stall_secs(&self) -> u64 {
        self.stall_secs
    }

    /// Forgets all observed history (best accuracy, warmup progress,
    /// raised-anomaly edges) while keeping the thresholds. Call at a run
    /// boundary: a telemetry stream can carry several back-to-back runs
    /// (baseline then quantized), and the next run starting from scratch
    /// accuracy is not a collapse of the previous one.
    pub fn reset_run(&mut self) {
        self.epochs_seen = 0;
        self.best_accuracy = 0.0;
        self.loss_bad = false;
        self.collapsed = false;
        self.stalled = false;
        self.saturated = false;
        self.last_shed = 0;
    }

    /// Observes one completed epoch; returns any newly raised anomalies.
    pub fn observe_epoch(
        &mut self,
        iteration: usize,
        epoch: usize,
        loss: f64,
        accuracy: f64,
    ) -> Vec<RunHealth> {
        let mut raised = Vec::new();
        self.epochs_seen += 1;
        if !loss.is_finite() {
            if !self.loss_bad {
                self.loss_bad = true;
                raised.push(RunHealth::NonFiniteLoss { iteration, epoch });
            }
        } else {
            // Recovered (checkpoint rollback, bit-width revert): re-arm.
            self.loss_bad = false;
        }
        if accuracy.is_finite() {
            let armed = self.epochs_seen > self.warmup_epochs && self.best_accuracy > 0.0;
            if armed && accuracy < self.collapse_fraction * self.best_accuracy {
                if !self.collapsed {
                    self.collapsed = true;
                    raised.push(RunHealth::AccuracyCollapse {
                        iteration,
                        epoch,
                        accuracy,
                        best: self.best_accuracy,
                    });
                }
            } else {
                self.collapsed = false;
            }
            self.best_accuracy = self.best_accuracy.max(accuracy);
        }
        raised
    }

    /// Checks the stall watchdog given seconds since the last event;
    /// returns the anomaly on the idle→stalled edge only. Call
    /// [`reset_stall`](Self::reset_stall) when events resume.
    pub fn check_stall(&mut self, idle_secs: u64) -> Option<RunHealth> {
        if idle_secs < self.stall_secs || self.stalled {
            return None;
        }
        self.stalled = true;
        Some(RunHealth::Stalled { idle_secs })
    }

    /// Re-arms the stall watchdog after events resume.
    pub fn reset_stall(&mut self) {
        self.stalled = false;
    }

    /// Observes one serving-queue sample (depth, bound, cumulative shed
    /// count); raises [`RunHealth::QueueSaturated`] on the edge where the
    /// queue is pinned at capacity *and* the shed counter has risen since
    /// the previous sample — a full queue that is still keeping up (no new
    /// sheds) is load, not overload. The detector re-arms once depth
    /// drops below the bound.
    pub fn observe_queue(&mut self, depth: u64, cap: u64, shed_total: u64) -> Option<RunHealth> {
        let shedding = shed_total > self.last_shed;
        self.last_shed = shed_total;
        if cap == 0 || depth < cap {
            self.saturated = false;
            return None;
        }
        if !shedding || self.saturated {
            return None;
        }
        self.saturated = true;
        Some(RunHealth::QueueSaturated {
            depth,
            cap,
            shed: shed_total,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nan_loss_raises_once_and_rearms_on_recovery() {
        let mut m = HealthMonitor::default();
        assert!(m.observe_epoch(1, 1, 2.5, 0.1).is_empty());
        let raised = m.observe_epoch(1, 2, f64::NAN, 0.1);
        assert_eq!(raised.len(), 1);
        assert_eq!(raised[0].kind(), "non_finite_loss");
        assert_eq!(
            raised[0],
            RunHealth::NonFiniteLoss {
                iteration: 1,
                epoch: 2
            }
        );
        // Still bad: no duplicate event.
        assert!(m.observe_epoch(1, 3, f64::INFINITY, 0.1).is_empty());
        // Recovery re-arms the detector.
        assert!(m.observe_epoch(2, 1, 1.0, 0.1).is_empty());
        assert_eq!(m.observe_epoch(2, 2, f64::NAN, 0.1).len(), 1);
    }

    #[test]
    fn accuracy_collapse_fires_after_warmup_against_best() {
        let mut m = HealthMonitor::new(0.5, 2, 120);
        assert!(m.observe_epoch(1, 1, 1.0, 0.60).is_empty());
        assert!(m.observe_epoch(1, 2, 0.9, 0.70).is_empty());
        // Past warm-up, 0.30 < 0.5 × 0.70 → collapse.
        let raised = m.observe_epoch(2, 1, 0.8, 0.30);
        assert_eq!(raised.len(), 1);
        match &raised[0] {
            RunHealth::AccuracyCollapse { accuracy, best, .. } => {
                assert!((accuracy - 0.30).abs() < 1e-12);
                assert!((best - 0.70).abs() < 1e-12);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Still collapsed: edge-triggered, no duplicate.
        assert!(m.observe_epoch(2, 2, 0.8, 0.31).is_empty());
        // Recovery then a fresh collapse raises again.
        assert!(m.observe_epoch(3, 1, 0.7, 0.65).is_empty());
        assert_eq!(m.observe_epoch(3, 2, 0.7, 0.20).len(), 1);
    }

    #[test]
    fn collapse_is_quiet_during_warmup_and_before_any_signal() {
        let mut m = HealthMonitor::new(0.5, 3, 120);
        // Noisy early epochs never trigger inside warm-up.
        assert!(m.observe_epoch(1, 1, 1.0, 0.50).is_empty());
        assert!(m.observe_epoch(1, 2, 1.0, 0.05).is_empty());
        assert!(m.observe_epoch(1, 3, 1.0, 0.02).is_empty());
        // Zero best accuracy keeps the detector disarmed.
        let mut z = HealthMonitor::new(0.5, 0, 120);
        assert!(z.observe_epoch(1, 1, 1.0, 0.0).is_empty());
        assert!(z.observe_epoch(1, 2, 1.0, 0.0).is_empty());
    }

    #[test]
    fn stall_watchdog_is_edge_triggered_and_resettable() {
        let mut m = HealthMonitor::new(0.5, 3, 60);
        assert!(m.check_stall(59).is_none());
        let raised = m.check_stall(61).expect("stall");
        assert_eq!(raised.kind(), "stalled");
        assert!(m.check_stall(120).is_none(), "no duplicate while stalled");
        m.reset_stall();
        assert!(m.check_stall(10).is_none());
        assert!(m.check_stall(61).is_some());
    }

    #[test]
    fn queue_saturation_needs_pinned_depth_and_rising_sheds() {
        let mut m = HealthMonitor::default();
        // Full queue but nothing shed yet: keeping up, not overload.
        assert!(m.observe_queue(256, 256, 0).is_none());
        // Depth pinned at cap while the shed counter rises → raise once.
        let raised = m.observe_queue(256, 256, 5).expect("saturation");
        assert_eq!(raised.kind(), "queue_saturated");
        assert_eq!(
            raised,
            RunHealth::QueueSaturated {
                depth: 256,
                cap: 256,
                shed: 5
            }
        );
        // Still saturated: edge-triggered, no duplicate.
        assert!(m.observe_queue(256, 256, 9).is_none());
        // Drain below the bound re-arms the detector.
        assert!(m.observe_queue(100, 256, 9).is_none());
        assert!(m.observe_queue(256, 256, 12).is_some());
    }

    #[test]
    fn queue_saturation_ignores_sheds_while_below_capacity() {
        let mut m = HealthMonitor::default();
        // Sheds observed while depth is below the bound (the queue has
        // drained since the burst that shed) never raise.
        assert!(m.observe_queue(10, 256, 3).is_none());
        assert!(m.observe_queue(12, 256, 7).is_none());
        // A zero capacity (no bound configured) is always quiet.
        assert!(m.observe_queue(50, 0, 99).is_none());
        // Saturation with *stale* shed counts stays quiet: the counter
        // must rise in the same sample the queue is pinned.
        assert!(m.observe_queue(256, 256, 7).is_none());
    }

    #[test]
    fn descriptions_are_single_lines() {
        let events = [
            RunHealth::NonFiniteLoss {
                iteration: 2,
                epoch: 1,
            },
            RunHealth::AccuracyCollapse {
                iteration: 3,
                epoch: 2,
                accuracy: 0.1,
                best: 0.7,
            },
            RunHealth::Stalled { idle_secs: 180 },
            RunHealth::QueueSaturated {
                depth: 256,
                cap: 256,
                shed: 41,
            },
        ];
        for event in &events {
            let line = event.describe();
            assert!(!line.is_empty() && !line.contains('\n'), "{line:?}");
        }
    }
}
