//! System-level performance and energy model for recommendation training
//! — the machinery behind the paper's evaluation figures.
//!
//! The paper's own evaluation combines real-system wall-clock runs with a
//! Ramulator-backed emulation of the NMP pool (Section V). This crate is
//! the analogous model, built entirely on this repository's substrates:
//!
//! * per-primitive byte counts come from the **analytic traffic model**
//!   ([`traffic`], validated against Fig. 6);
//! * device bandwidths/efficiencies come from **measured DRAM-simulator
//!   runs** (`tcast-dram`) and documented constants ([`Calibration`]);
//! * the **coalescing locality** (the unique-index fraction `U/n`) is
//!   measured by sampling the dataset popularity models of
//!   `tcast-datasets` ([`CoalesceStats`], [`LookupHistogram`]: Fig. 5);
//! * each of the paper's four **design points** ([`DesignPoint`]) lowers
//!   a workload into a device-tagged phase schedule ([`build_timeline`]) with
//!   the casting stage overlapped per the Section IV-B runtime;
//! * per-iteration energy applies the device power model of Section VI-C.
//!
//! # Example: the headline comparison
//!
//! ```
//! use tcast_system::{Calibration, DesignPoint, SystemWorkload, RmModel};
//!
//! let cal = Calibration::default();
//! let wl = SystemWorkload::build(RmModel::rm1(), 2048, 64, 7);
//! let base = DesignPoint::BaselineCpuGpu.evaluate(&wl, &cal);
//! let ours = DesignPoint::OursNmp.evaluate(&wl, &cal);
//! let speedup = base.total_ns / ours.total_ns;
//! assert!(speedup > 2.0, "Ours(NMP) must be well ahead, got {speedup:.1}x");
//! ```

pub mod ablation;
mod calibration;
mod design;
mod energy;
mod histogram;
mod metrics;
mod phase;
pub mod report;
pub mod sweeps;
mod timeline;
pub mod traffic;
mod workload;

pub use calibration::Calibration;
pub use design::{DesignPoint, Evaluation};
pub use energy::{energy_joules, EnergyBreakdown};
pub use histogram::{CoalesceStats, LookupHistogram};
pub use metrics::{geometric_mean, render_table, Series};
pub use phase::{Device, PhaseCost, PhaseKind};
pub use timeline::{build_timeline, render_timeline, TimelineEvent};
pub use workload::{RmModel, SystemWorkload};

// The grid helpers every report shares.
#[cfg(test)]
mod tests {
    use super::sweeps::{grid_label, speedup, workload_grid};
    use super::*;

    #[test]
    fn workload_grid_covers_models_and_batches() {
        let grid = workload_grid(&[1024, 2048], 64);
        assert_eq!(grid.len(), 8);
        assert_eq!(grid_label(&grid[0]), "RM1 b1024");
    }

    #[test]
    fn speedup_of_design_against_itself_is_one() {
        let cal = Calibration::default();
        let wl = SystemWorkload::build(RmModel::rm1(), 1024, 64, 1);
        let s = speedup(
            &wl,
            DesignPoint::BaselineCpuGpu,
            DesignPoint::BaselineCpuGpu,
            &cal,
        );
        assert!((s - 1.0).abs() < 1e-12);
    }
}
