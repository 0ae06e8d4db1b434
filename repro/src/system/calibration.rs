//! Calibration constants: the single source of truth for device
//! parameters (the paper's Section V methodology).
//!
//! Bandwidths and link speeds are the paper's stated system parameters
//! (Fig. 3, Table I, Section V); efficiency factors are *measured* on the
//! `dram` cycle-level simulator (see
//! [`Calibration::from_dram_sim`]); compute rates and sort throughputs
//! are documented engineering estimates for the paper's hardware (Xeon
//! server CPU, V100 GPU with the paper's "heavily tuned" kernels —
//! Section V reports their tuned sort/accumulate is 5-12x faster than
//! stock PyTorch, which these numbers reflect).

use crate::dram::{streams, AddressMapping, DramConfig, MemorySystem};

/// Device parameters consumed by the cost model.
#[derive(Debug, Clone, PartialEq)]
pub struct Calibration {
    /// CPU memory peak bandwidth, GB/s (the paper's Fig. 3: 80 GB/s).
    pub cpu_mem_gbps: f64,
    /// CPU efficiency on streaming access (expand, sequential copies).
    pub cpu_stream_eff: f64,
    /// CPU efficiency on row-granular gather/scatter/accumulate
    /// (limited by per-core miss-level parallelism, not DRAM).
    pub cpu_gather_eff: f64,
    /// CPU dense-GEMM throughput, GFLOP/s (multi-socket AVX-512 fp32).
    pub cpu_gflops: f64,
    /// CPU sort-by-key throughput, Melem/s (the paper's tuned parallel
    /// radix sort, 5-6x stock PyTorch).
    pub cpu_sort_melems: f64,
    /// GPU HBM peak bandwidth, GB/s (V100: 900).
    pub gpu_mem_gbps: f64,
    /// GPU efficiency on streaming access.
    pub gpu_stream_eff: f64,
    /// GPU dense-GEMM throughput, GFLOP/s (V100 fp32 at ~75% of its
    /// 15.7 TFLOPS peak for large GEMMs).
    pub gpu_gflops: f64,
    /// GPU sort-by-key throughput, Melem/s (CUB radix sort-by-key on
    /// V100 for 32-bit keys).
    pub gpu_sort_melems: f64,
    /// CPU <-> GPU PCIe gen3 bandwidth, GB/s.
    pub pcie_gbps: f64,
    /// GPU <-> pool link bandwidth, GB/s (Section V: 25, swept to 150).
    pub pool_link_gbps: f64,
    /// NMP pool channels (Table I: 32 ranks).
    pub pool_channels: usize,
    /// Per-channel pool bandwidth, GB/s (Table I: 25.6).
    pub pool_channel_gbps: f64,
    /// Pool efficiency on 64 B-granular gathers (measured on the `dram` simulator).
    pub pool_gather_eff: f64,
    /// Pool efficiency on read-modify-write scatters (measured).
    pub pool_rmw_eff: f64,
    /// Pool efficiency on streaming writes (gradient-table staging and
    /// output drains). Lower than a CPU's streaming efficiency because
    /// the pool's column-first mapping keeps consecutive blocks in one
    /// bank group (tCCD_L-paced) — the price of gather-optimized layout,
    /// measured on the DRAM simulator.
    pub pool_stream_eff: f64,
    /// CPU active power, W (socket under load).
    pub cpu_active_w: f64,
    /// CPU idle power, W.
    pub cpu_idle_w: f64,
    /// GPU active power, W (V100 board).
    pub gpu_active_w: f64,
    /// GPU idle power, W.
    pub gpu_idle_w: f64,
    /// Pool active power, W (32 ranks x (4.5 W LRDIMM + 1.5 W NMP),
    /// Micron power-calculator methodology of Section VI-C).
    pub pool_active_w: f64,
    /// Pool idle power, W.
    pub pool_idle_w: f64,
}

impl Default for Calibration {
    fn default() -> Self {
        Self {
            cpu_mem_gbps: 80.0,
            cpu_stream_eff: 0.85,
            cpu_gather_eff: 0.55,
            cpu_gflops: 1_000.0,
            cpu_sort_melems: 150.0,
            gpu_mem_gbps: 900.0,
            gpu_stream_eff: 0.85,
            gpu_gflops: 12_000.0,
            gpu_sort_melems: 4_000.0,
            pcie_gbps: 16.0,
            pool_link_gbps: 25.0,
            pool_channels: 32,
            pool_channel_gbps: 25.6,
            pool_gather_eff: 0.88,
            pool_rmw_eff: 0.82,
            pool_stream_eff: 0.62,
            cpu_active_w: 150.0,
            cpu_idle_w: 60.0,
            gpu_active_w: 300.0,
            gpu_idle_w: 50.0,
            pool_active_w: 192.0,
            pool_idle_w: 45.0,
        }
    }
}

impl Calibration {
    /// Aggregate pool peak bandwidth, GB/s (819.2 for Table I).
    pub fn pool_peak_gbps(&self) -> f64 {
        self.pool_channels as f64 * self.pool_channel_gbps
    }

    /// Effective pool gather bandwidth, GB/s (the Table I ">600 GB/s").
    pub fn pool_gather_gbps(&self) -> f64 {
        self.pool_peak_gbps() * self.pool_gather_eff
    }

    /// Returns a copy with a different pool link bandwidth (the Section
    /// VI-D communication sweep).
    pub fn with_pool_link_gbps(mut self, gbps: f64) -> Self {
        self.pool_link_gbps = gbps;
        self
    }

    /// Re-measures the pool efficiency factors on the cycle-level DRAM
    /// simulator instead of trusting the defaults: runs a 64 B-granular
    /// random gather, an RMW update stream, and a streaming write over
    /// one pool channel (dual-rank DDR4-3200, column-first mapping) and
    /// installs the measured fractions.
    ///
    /// `sample` controls the trace length (8192 is plenty; tests use
    /// less).
    pub fn from_dram_sim(mut self, sample: usize) -> Self {
        let mut cfg = DramConfig::ddr4_3200().with_mapping(AddressMapping::ColumnFirst);
        cfg.ranks_per_channel = 2;
        let peak = cfg.peak_bandwidth_gbps();
        let rows: Vec<u32> = (0..sample as u32)
            .map(|i| i.wrapping_mul(2_654_435_761) % 200_000)
            .collect();

        let gather = MemorySystem::new(cfg.clone())
            .run_trace(streams::gather_reads(&rows, 64, 0))
            .effective_bandwidth_gbps(&cfg);
        let rmw = MemorySystem::new(cfg.clone())
            .run_trace(streams::update_rmw(&rows[..sample / 2], 64, 0))
            .effective_bandwidth_gbps(&cfg);
        let stream = MemorySystem::new(cfg.clone())
            .run_trace(streams::sequential_writes(sample as u64))
            .effective_bandwidth_gbps(&cfg);

        self.pool_gather_eff = gather / peak;
        self.pool_rmw_eff = rmw / peak;
        self.pool_stream_eff = stream / peak;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_i_aggregate() {
        let c = Calibration::default();
        assert!((c.pool_peak_gbps() - 819.2).abs() < 0.1);
        // The ">600 GB/s" datapoint.
        assert!(c.pool_gather_gbps() > 600.0);
    }

    #[test]
    fn defaults_are_physical() {
        let c = Calibration::default();
        for eff in [
            c.cpu_stream_eff,
            c.cpu_gather_eff,
            c.gpu_stream_eff,
            c.pool_gather_eff,
            c.pool_rmw_eff,
            c.pool_stream_eff,
        ] {
            assert!(eff > 0.0 && eff <= 1.0);
        }
        assert!(c.cpu_idle_w < c.cpu_active_w);
        assert!(c.gpu_idle_w < c.gpu_active_w);
        assert!(c.pool_idle_w < c.pool_active_w);
    }

    #[test]
    fn measured_calibration_is_close_to_documented_defaults() {
        let measured = Calibration::default().from_dram_sim(2048);
        let default = Calibration::default();
        assert!(
            (measured.pool_gather_eff - default.pool_gather_eff).abs() < 0.1,
            "measured gather eff {} drifted from documented {}",
            measured.pool_gather_eff,
            default.pool_gather_eff
        );
        assert!(
            (measured.pool_rmw_eff - default.pool_rmw_eff).abs() < 0.12,
            "measured rmw eff {} vs {}",
            measured.pool_rmw_eff,
            default.pool_rmw_eff
        );
        assert!(
            (measured.pool_stream_eff - default.pool_stream_eff).abs() < 0.12,
            "measured stream eff {} vs {}",
            measured.pool_stream_eff,
            default.pool_stream_eff
        );
    }

    #[test]
    fn link_sweep_builder() {
        let c = Calibration::default().with_pool_link_gbps(150.0);
        assert_eq!(c.pool_link_gbps, 150.0);
    }
}
