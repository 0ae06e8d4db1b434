//! Ablation studies of three design choices around the paper's Section IV
//! (the casting runtime, the optimizer, the operator boundary).
//!
//! Three knobs are modelled here on top of the standard design points:
//!
//! 1. **Casting exposure** — what Tensor Casting is worth *without* the
//!    Section IV-B runtime (casting executed synchronously on the
//!    backward path instead of overlapped with forward propagation);
//! 2. **Optimizer state traffic** — how stateful optimizers
//!    (Adagrad/RMSprop, 8 B of accumulator traffic per element) inflate
//!    the scatter phase on every design point;
//! 3. **Fused backward** — the `tcast_core::blocked_casted_backward`
//!    extension that folds the scatter into the casted gather-reduce,
//!    eliminating the materialized `U x D` coalesced tensor.

use crate::calibration::Calibration;
use crate::design::{DesignPoint, Evaluation};
use crate::phase::PhaseKind;
use crate::traffic;
use crate::workload::SystemWorkload;

/// Result of the casting-exposure ablation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CastingExposure {
    /// Iteration time with casting overlapped (the paper's runtime), ns.
    pub hidden_ns: f64,
    /// Iteration time with casting fully exposed on the backward path, ns.
    pub exposed_ns: f64,
}

impl CastingExposure {
    /// Speedup attributable purely to the runtime co-design.
    pub fn runtime_speedup(&self) -> f64 {
        self.exposed_ns / self.hidden_ns
    }
}

/// Evaluates a casting design point with the overlap runtime enabled
/// (normal) and disabled (casting serialized before the backward pass).
pub fn casting_exposure(
    design: DesignPoint,
    wl: &SystemWorkload,
    cal: &Calibration,
) -> CastingExposure {
    assert!(
        design.uses_casting(),
        "exposure ablation only applies to Tensor Casting design points"
    );
    let eval = design.evaluate(wl, cal);
    CastingExposure {
        hidden_ns: eval.total_ns,
        // Without the runtime, the hidden portion lands on the critical
        // path again.
        exposed_ns: eval.total_ns + eval.casting_hidden_ns,
    }
}

/// Additional scatter time (ns) a stateful optimizer adds to one
/// iteration of `design`, with `state_bytes_per_elem` of optimizer-state
/// traffic per updated element (8 for Adagrad/RMSprop/momentum).
pub fn optimizer_state_overhead_ns(
    design: DesignPoint,
    wl: &SystemWorkload,
    cal: &Calibration,
    state_bytes_per_elem: u64,
) -> f64 {
    let s = wl.table_shape();
    let t = wl.tables() as f64;
    let extra_bytes = (traffic::scatter(&s, state_bytes_per_elem).total()
        - traffic::scatter(&s, 0).total()) as f64
        * t;
    // The scatter runs on the CPU for CPU-centric designs and on the pool
    // for NMP designs.
    match design {
        DesignPoint::CpuOnly | DesignPoint::BaselineCpuGpu | DesignPoint::OursCpu => {
            extra_bytes / (cal.cpu_mem_gbps * cal.cpu_gather_eff)
        }
        DesignPoint::BaselineNmp | DesignPoint::OursNmp => {
            extra_bytes / (cal.pool_peak_gbps() * cal.pool_rmw_eff)
        }
    }
}

/// Evaluation of the fused-backward extension on the memory-centric
/// system: the separate scatter phase disappears and its traffic shrinks
/// to the table-row read-modify-write only (the coalesced gradients stay
/// in registers).
pub fn fused_backward_evaluation(wl: &SystemWorkload, cal: &Calibration) -> Evaluation {
    let mut eval = DesignPoint::OursNmp.evaluate(wl, cal);
    let s = wl.table_shape();
    let t = wl.tables() as f64;
    // Savings: the casted gather-reduce no longer writes U rows, and the
    // scatter no longer reads them back.
    let saved_bytes = 2.0 * (s.unique * s.dim * 4) as f64 * t;
    let saved_ns = saved_bytes / (cal.pool_peak_gbps() * cal.pool_rmw_eff);
    for p in &mut eval.phases {
        if p.kind == PhaseKind::BwdScatter {
            p.ns = (p.ns - saved_ns).max(0.0);
        }
    }
    let serial: f64 = eval.phases.iter().map(|p| p.ns).sum();
    eval.total_ns = serial - eval.casting_hidden_ns;
    eval.nmp_busy_ns = (eval.nmp_busy_ns - saved_ns).max(0.0);
    eval
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::RM1;

    fn wl() -> SystemWorkload {
        SystemWorkload::build(RM1, 2048, 64, 42)
    }

    #[test]
    fn hidden_casting_always_helps() {
        let cal = Calibration::default();
        for dp in [DesignPoint::OursCpu, DesignPoint::OursNmp] {
            let e = casting_exposure(dp, &wl(), &cal);
            assert!(e.exposed_ns >= e.hidden_ns, "{dp}");
            assert!(e.runtime_speedup() >= 1.0);
        }
    }

    #[test]
    fn runtime_matters_more_where_casting_is_large_relative_to_backward() {
        // On the NMP system the backward is tiny, so exposing the casting
        // hurts relatively more than on the CPU system.
        let cal = Calibration::default();
        let cpu = casting_exposure(DesignPoint::OursCpu, &wl(), &cal);
        let nmp = casting_exposure(DesignPoint::OursNmp, &wl(), &cal);
        assert!(nmp.runtime_speedup() > cpu.runtime_speedup());
    }

    #[test]
    #[should_panic(expected = "only applies to Tensor Casting")]
    fn exposure_rejects_baselines() {
        casting_exposure(DesignPoint::BaselineCpuGpu, &wl(), &Calibration::default());
    }

    #[test]
    fn stateful_optimizer_costs_more_on_cpu_than_pool() {
        let cal = Calibration::default();
        let cpu = optimizer_state_overhead_ns(DesignPoint::BaselineCpuGpu, &wl(), &cal, 8);
        let pool = optimizer_state_overhead_ns(DesignPoint::OursNmp, &wl(), &cal, 8);
        assert!(cpu > pool, "pool bandwidth should absorb state traffic");
        assert!(cpu > 0.0);
        // SGD adds nothing.
        assert_eq!(
            optimizer_state_overhead_ns(DesignPoint::OursNmp, &wl(), &cal, 0),
            0.0
        );
    }

    #[test]
    fn fused_backward_is_faster_still() {
        let cal = Calibration::default();
        let normal = DesignPoint::OursNmp.evaluate(&wl(), &cal);
        let fused = fused_backward_evaluation(&wl(), &cal);
        assert!(fused.total_ns < normal.total_ns);
        assert!(fused.phase_ns(PhaseKind::BwdScatter) < normal.phase_ns(PhaseKind::BwdScatter));
        // Still does useful scatter work (the RMW itself remains).
        assert!(fused.phase_ns(PhaseKind::BwdScatter) > 0.0);
    }
}
