//! NMP utilization accounting (Fig. 15): how much of a training
//! iteration the pool actually spends executing.
//!
//! The pool's per-operation [`crate::nmp::PoolExec`] reports feed a tracker
//! that accumulates busy time against a wall-clock window supplied by the
//! caller (who knows the non-NMP phase durations — DNN, transfers,
//! exposed casting). The workspace test `utilization_bottom_up.rs`
//! rebuilds Fig. 15 this way and checks it against the analytic system
//! model.

use crate::pool::PoolExec;

/// Accumulates NMP busy time over a measurement window.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct UtilizationTracker {
    busy_ns: f64,
    window_ns: f64,
}

impl UtilizationTracker {
    /// Fresh tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a pool operation: its duration counts as busy time *and*
    /// as elapsed window (the op is on the critical path).
    pub fn record_pool_op(&mut self, exec: &PoolExec) {
        self.busy_ns += exec.nanoseconds;
        self.window_ns += exec.nanoseconds;
    }

    /// Records time in which the pool idles (DNN phases, link transfers,
    /// exposed casting).
    pub fn record_idle(&mut self, ns: f64) {
        self.window_ns += ns;
    }

    /// Total busy nanoseconds.
    pub fn busy_ns(&self) -> f64 {
        self.busy_ns
    }

    /// Busy fraction in `[0, 1]`; 0 for an empty window.
    pub fn utilization(&self) -> f64 {
        if self.window_ns <= 0.0 {
            return 0.0;
        }
        (self.busy_ns / self.window_ns).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(ns: f64) -> PoolExec {
        PoolExec {
            nanoseconds: ns,
            cycles: 0,
            dram_bytes: 0,
            channels_used: 1,
        }
    }

    #[test]
    fn empty_tracker_is_zero() {
        let t = UtilizationTracker::new();
        assert_eq!(t.utilization(), 0.0);
    }

    #[test]
    fn pure_pool_work_is_fully_utilized() {
        let mut t = UtilizationTracker::new();
        t.record_pool_op(&op(100.0));
        t.record_pool_op(&op(50.0));
        assert!((t.utilization() - 1.0).abs() < 1e-12);
        assert_eq!(t.busy_ns(), 150.0);
    }

    #[test]
    fn idle_time_dilutes_utilization() {
        let mut t = UtilizationTracker::new();
        t.record_pool_op(&op(30.0));
        t.record_idle(70.0);
        assert!((t.utilization() - 0.3).abs() < 1e-12);
    }
}
