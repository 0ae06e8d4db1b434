//! A cycle-level DDR4 DRAM simulator — the reproduction's substitute for
//! Ramulator (Section V of the paper: "these prior work utilize a
//! cycle-level DRAM simulator to measure the effective memory throughput
//! of the memory system when fed in with the appropriate DRAM commands").
//!
//! The model is command-accurate at the granularity the paper's
//! methodology needs:
//!
//! * full DDR4 geometry (channels → ranks → bank groups → banks → rows ×
//!   columns) with 64 B column bursts (BL8 on a 64-bit bus);
//! * the timing constraints that matter for gather/scatter streams:
//!   tRCD/tRP/tRAS/tRC (row cycle), tCCD_S/L (burst spacing, bank-group
//!   aware), tRRD_S/L + tFAW (activation throttling), tWR/tWTR/tRTP
//!   (write turnarounds), CL/CWL (latencies), tREFI/tRFC (refresh);
//! * FR-FCFS scheduling with open- or closed-page row policies;
//! * per-request latency and per-channel bandwidth/row-hit statistics.
//!
//! [`MemorySystem::run_trace`] measures the *effective bandwidth* of an
//! address stream — the quantity Table I reports (">600 GB/s of the
//! 819.2 GB/s peak") and the calibration input for the system-level cost
//! model in `system`.
//!
//! # Example
//!
//! ```
//! use tcast_repro::dram::{DramConfig, MemorySystem, Request, streams};
//!
//! let config = DramConfig::ddr4_3200(); // one channel: 25.6 GB/s peak
//! let mut mem = MemorySystem::new(config.clone());
//! let trace = streams::sequential_reads(4096);
//! let stats = mem.run_trace(trace);
//! let eff = stats.effective_bandwidth_gbps(&config);
//! assert!(eff > 0.8 * config.peak_bandwidth_gbps()); // streaming ~ peak
//! ```

mod address;
mod bank;
mod channel;
mod config;
pub mod power;
mod request;
mod stats;
pub mod streams;
mod system;
mod timing;
pub mod verify;

pub use address::{AddressMapping, DecodedAddr};
pub use channel::{Command, CommandKind};
pub use config::{DramConfig, RowPolicy};
pub use request::{AccessType, Request};
pub use stats::MemoryStats;
pub use system::MemorySystem;
pub use timing::TimingParams;
