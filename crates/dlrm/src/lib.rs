//! End-to-end DLRM training on this repository's real kernels — the
//! functional counterpart of the paper's PyTorch/DLRM testbed.
//!
//! A [`Dlrm`] model is the Fig. 1 topology: bottom MLP over dense
//! features, per-table embedding gather-reduce, feature interaction, top
//! MLP, binary cross-entropy on the click label. The [`Trainer`] runs
//! real forward/backward steps with either embedding-backward
//! implementation:
//!
//! * [`BackwardMode::Baseline`] — gradient expand → coalesce
//!   (Algorithm 1) → scatter, today's framework path;
//! * [`BackwardMode::Casted`] — Tensor Casting: the next batch's casted
//!   index arrays are computed on the trainer's lane *during this step's
//!   dense phases* (Section IV-B) and backward runs the fused casted
//!   gather-reduce (Algorithm 3) → scatter.
//!
//! The two modes produce *identical* training trajectories (asserted in
//! tests and in `tests/equivalence.rs` at the workspace root), while the
//! trainer's per-phase wall-clock instrumentation shows the casted path's
//! latency advantage on real hardware — the repository's analogue of the
//! paper's "prototyped on a real CPU-GPU system" measurements.
//!
//! # Example
//!
//! ```
//! use tcast_dlrm::{BackwardMode, DlrmConfig, Trainer};
//! use tcast_datasets::SyntheticCtr;
//!
//! # fn main() -> Result<(), tcast_embedding::EmbeddingError> {
//! let config = DlrmConfig::tiny();
//! let mut data = SyntheticCtr::new(config.table_workloads(), config.dense_features, 1);
//! let mut trainer = Trainer::new(config, BackwardMode::Casted, 42)?;
//! let report = trainer.step(&data.next_batch(64))?;
//! assert!(report.loss.is_finite());
//! # Ok(())
//! # }
//! ```

pub mod checkpoint;
mod config;
mod driver;
pub mod metrics;
mod model;
mod trainer;

pub use config::{DlrmConfig, TableConfig};
pub use driver::{DriverError, RunSummary, TrainLoop};
pub use metrics::{evaluate_ctr, CtrMetrics};
pub use model::{Dlrm, InferenceScratch};
pub use trainer::{
    BackwardMode, EmbeddingOptimizer, Execution, InFlightStep, PhaseTimings, StepReport, Trainer,
    CAST_AHEAD_FAULT_SITE, DENSE_GEMM_FAULT_SITE, GATHER_AHEAD_FAULT_SITE,
};
