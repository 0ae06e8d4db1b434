//! System-level performance and energy model for recommendation training
//! — the machinery behind the paper's evaluation figures.
//!
//! The paper's own evaluation combines real-system wall-clock runs with a
//! Ramulator-backed emulation of the NMP pool (Section V). This module is
//! the analogous model, built entirely on this repository's substrates:
//!
//! * the four **model architectures** ([`TABLE_II`]) are the live
//!   trainer's `DlrmConfig::rm{1..4}_scaled`;
//! * per-primitive byte counts come from the **analytic traffic model**
//!   ([`traffic`], validated against Fig. 6);
//! * device bandwidths/efficiencies come from **measured DRAM-simulator
//!   runs** (`dram`) and documented constants ([`Calibration`]);
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
//! use tcast_repro::system::{Calibration, DesignPoint, SystemWorkload, RM1};
//!
//! let cal = Calibration::default();
//! let wl = SystemWorkload::build(RM1, 2048, 64, 7);
//! let base = DesignPoint::BaselineCpuGpu.evaluate(&wl, &cal);
//! let ours = DesignPoint::OursNmp.evaluate(&wl, &cal);
//! let speedup = base.total_ns / ours.total_ns;
//! assert!(speedup > 2.0, "Ours(NMP) must be well ahead, got {speedup:.1}x");
//! ```

// The leaf modules are declared at the crate root (see `lib.rs`); this
// module is their public face.
pub use crate::calibration::Calibration;
pub use crate::design::{DesignPoint, Evaluation};
pub use crate::energy::{energy_joules, EnergyBreakdown};
pub use crate::histogram::{CoalesceStats, LookupHistogram};
pub use crate::metrics::{geometric_mean, render_table, Series};
pub use crate::phase::{Device, PhaseCost, PhaseKind};
pub use crate::timeline::{build_timeline, render_timeline, TimelineEvent};
pub use crate::workload::{PaperModel, SystemWorkload, RM1, RM2, RM3, RM4, TABLE_II};
pub use crate::{ablation, report, sweeps, traffic};
