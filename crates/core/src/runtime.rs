//! The software runtime of Section IV-B: hide the casting stage inside
//! other work.
//!
//! "An important observation from Algorithm 2 is that all the data
//! structures required to generate the T.Casted index array is already
//! available at the very beginning of forward propagation." The paper
//! therefore ships the index arrays to the (otherwise idle) GPU, casts
//! them there while the CPU runs embedding gather-reduce, and has the
//! casted arrays ready by the time backpropagation needs them (Fig. 9b).
//!
//! The host-side runtime needs no casting thread of its own: the DLRM
//! trainer casts the next batch as a task beside work that runs anyway —
//! its dense phases — on the lane it already owns, and casts in-step only
//! a step with no successor. [`PipelineStats`] is how much casting ran and
//! how much of it the training thread waited for.

use std::time::Duration;

/// Aggregate casting statistics: how much casting ran, and how much of
/// it the training thread did not hide.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PipelineStats {
    /// Batches cast.
    pub jobs_completed: u64,
    /// Total time spent casting them, by the cast's own clock (would-be
    /// GPU kernel time).
    pub casting_time: Duration,
    /// Total time the training thread spent on casting it did not hide —
    /// waiting for a cast running beside it, or running one itself: the
    /// *exposed* casting latency. Zero means casting was fully hidden,
    /// the Fig. 9b ideal.
    pub exposed_wait: Duration,
}

impl PipelineStats {
    /// Fraction of casting time that was hidden under other work
    /// (1.0 = fully hidden). Returns 1.0 when no casting has run.
    pub fn hidden_fraction(&self) -> f64 {
        if self.casting_time.is_zero() {
            return 1.0;
        }
        let exposed = self.exposed_wait.as_secs_f64();
        let total = self.casting_time.as_secs_f64();
        (1.0 - (exposed / total).min(1.0)).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hidden_fraction_bounds() {
        let s = PipelineStats::default();
        assert_eq!(s.hidden_fraction(), 1.0);
        let s = PipelineStats {
            jobs_completed: 1,
            casting_time: Duration::from_millis(10),
            exposed_wait: Duration::from_millis(10),
        };
        assert!(s.hidden_fraction() < 1e-9);
        let s = PipelineStats {
            jobs_completed: 1,
            casting_time: Duration::from_millis(10),
            exposed_wait: Duration::from_millis(5),
        };
        assert!((s.hidden_fraction() - 0.5).abs() < 1e-9);
    }
}
