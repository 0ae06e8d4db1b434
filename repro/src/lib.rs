//! `tcast-repro`'s library: the paper's hardware model (`dram`, `nmp`,
//! `system`). It drives the live crates through their public API, and
//! nothing live depends on it. The `repro` binary prints its reports.
//!
//! The `nmp` and `system` leaf modules live in their directories but are
//! declared here, at the crate root, where they sat when `nmp` and `system`
//! were crates of their own; that keeps their unit tests' paths stable.
//! Use them through `nmp::` and `system::`, which re-export them.

pub mod dram;
pub mod nmp;
pub mod system;

#[path = "nmp/core.rs"]
mod core;
#[path = "nmp/isa.rs"]
mod isa;
#[path = "nmp/link.rs"]
mod link;
#[path = "nmp/pool.rs"]
mod pool;
#[path = "nmp/utilization.rs"]
mod utilization;

#[path = "system/ablation.rs"]
pub mod ablation;
#[path = "system/calibration.rs"]
mod calibration;
#[path = "system/design.rs"]
mod design;
#[path = "system/energy.rs"]
mod energy;
#[path = "system/histogram.rs"]
mod histogram;
#[path = "system/metrics.rs"]
mod metrics;
#[path = "system/phase.rs"]
mod phase;
#[path = "system/report.rs"]
pub mod report;
#[path = "system/sweeps.rs"]
pub mod sweeps;
#[path = "system/timeline.rs"]
mod timeline;
#[path = "system/traffic.rs"]
pub mod traffic;
#[path = "system/workload.rs"]
mod workload;

// The grid helpers every report shares.
#[cfg(test)]
mod tests {
    use crate::sweeps::{grid_label, speedup, workload_grid};
    use crate::system::*;

    #[test]
    fn workload_grid_covers_models_and_batches() {
        let grid = workload_grid(&[1024, 2048], 64);
        assert_eq!(grid.len(), 8);
        assert_eq!(grid_label(&grid[0]), "RM1 b1024");
    }

    #[test]
    fn speedup_of_design_against_itself_is_one() {
        let cal = Calibration::default();
        let wl = SystemWorkload::build(RM1, 1024, 64, 1);
        let s = speedup(
            &wl,
            DesignPoint::BaselineCpuGpu,
            DesignPoint::BaselineCpuGpu,
            &cal,
        );
        assert!((s - 1.0).abs() < 1e-12);
    }
}
