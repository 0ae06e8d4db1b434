//! DRAM power/energy model following the Micron system-power-calculator
//! methodology the paper uses for its Section VI-C energy numbers.
//!
//! Energy is decomposed the standard way:
//!
//! * **background** power burned every cycle (clocking, DLL, leakage);
//! * **activate/precharge** energy per ACT-PRE pair (row cycling);
//! * **read/write burst** energy per 64 B column access;
//! * **refresh** energy per REF command;
//! * **termination** (ODT) folded into the burst energies.
//!
//! Defaults approximate an 8 Gb DDR4-3200 x8 device scaled to a 64-bit
//! rank; absolute numbers track datasheet IDD values loosely, but the
//! model's purpose is *relative* energy between access patterns (row
//! hits vs misses, streaming vs gather), which is what the evaluation
//! compares.

use crate::dram::config::DramConfig;
use crate::dram::stats::MemoryStats;

/// Per-event energy parameters for one rank, in nanojoules.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerParams {
    /// Background power per rank, watts (burned for the whole busy
    /// window).
    pub background_w: f64,
    /// Energy per ACT/PRE pair, nJ.
    pub act_pre_nj: f64,
    /// Energy per 64 B read burst, nJ (array + I/O + termination).
    pub read_nj: f64,
    /// Energy per 64 B write burst, nJ.
    pub write_nj: f64,
    /// Energy per all-bank refresh, nJ.
    pub refresh_nj: f64,
}

impl Default for PowerParams {
    fn default() -> Self {
        Self {
            background_w: 0.75,
            act_pre_nj: 15.0,
            read_nj: 5.5,
            write_nj: 6.0,
            refresh_nj: 900.0,
        }
    }
}

/// Energy of one simulated window, by component, in millijoules.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DramEnergy {
    /// Background energy (time-proportional).
    pub background_mj: f64,
    /// Row activate/precharge energy.
    pub act_pre_mj: f64,
    /// Read burst energy.
    pub read_mj: f64,
    /// Write burst energy.
    pub write_mj: f64,
    /// Refresh energy.
    pub refresh_mj: f64,
}

impl DramEnergy {
    /// Total energy, mJ.
    pub fn total_mj(&self) -> f64 {
        self.background_mj + self.act_pre_mj + self.read_mj + self.write_mj + self.refresh_mj
    }

    /// Energy per moved byte, nJ/B (a bandwidth-independent efficiency
    /// metric). Zero when no data moved.
    pub fn nj_per_byte(&self, stats: &MemoryStats) -> f64 {
        let bytes = stats.bytes();
        if bytes == 0 {
            return 0.0;
        }
        self.total_mj() * 1e6 / bytes as f64
    }
}

/// Computes the energy of a simulated window from its statistics.
pub fn dram_energy(stats: &MemoryStats, config: &DramConfig, p: &PowerParams) -> DramEnergy {
    let seconds = stats.last_data_cycle as f64 * config.timing.tck_ps as f64 * 1e-12;
    let ranks = (config.channels * config.ranks_per_channel) as f64;
    DramEnergy {
        background_mj: p.background_w * ranks * seconds * 1e3,
        // Every ACT is eventually paired with a precharge (explicit PRE,
        // auto-precharge, or refresh-forced closure).
        act_pre_mj: stats.activates as f64 * p.act_pre_nj * 1e-6,
        read_mj: stats.reads as f64 * p.read_nj * 1e-6,
        write_mj: stats.writes as f64 * p.write_nj * 1e-6,
        refresh_mj: stats.refreshes as f64 * p.refresh_nj * 1e-6,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dram::streams;
    use crate::dram::system::MemorySystem;
    use crate::dram::AddressMapping;

    fn run(cfg: DramConfig, trace: Vec<crate::dram::Request>) -> (MemoryStats, DramEnergy) {
        let mut mem = MemorySystem::new(cfg.clone());
        let stats = mem.run_trace(trace);
        let energy = dram_energy(&stats, &cfg, &PowerParams::default());
        (stats, energy)
    }

    #[test]
    fn energy_components_are_positive_for_real_traffic() {
        let cfg = DramConfig::ddr4_3200();
        let (stats, e) = run(cfg, streams::sequential_reads(4096));
        assert!(e.background_mj > 0.0);
        assert!(e.act_pre_mj > 0.0);
        assert!(e.read_mj > 0.0);
        assert_eq!(e.write_mj, 0.0);
        assert!(e.total_mj() > 0.0);
        assert!(e.nj_per_byte(&stats) > 0.0);
    }

    #[test]
    fn random_access_costs_more_energy_per_byte_than_streaming() {
        // Row cycling dominates: random single-burst rows pay one ACT/PRE
        // per 64 B, streaming amortizes one per row.
        let cfg = DramConfig::ddr4_3200();
        let (seq_stats, seq_e) = run(cfg.clone(), streams::sequential_reads(4096));
        let (rnd_stats, rnd_e) = run(
            cfg.clone(),
            streams::random_reads(4096, cfg.total_blocks(), 7),
        );
        let seq = seq_e.nj_per_byte(&seq_stats);
        let rnd = rnd_e.nj_per_byte(&rnd_stats);
        assert!(
            rnd > 1.3 * seq,
            "random ({rnd:.2} nJ/B) should cost well over streaming ({seq:.2} nJ/B)"
        );
    }

    #[test]
    fn gather_of_full_vectors_sits_between_streaming_and_random() {
        let cfg = DramConfig::ddr4_3200().with_mapping(AddressMapping::ColumnFirst);
        let rows: Vec<u32> = (0..2048u32)
            .map(|i| i.wrapping_mul(2654435761) % 50_000)
            .collect();
        let (g_stats, g_e) = run(cfg.clone(), streams::gather_reads(&rows, 256, 0));
        let (s_stats, s_e) = run(cfg.clone(), streams::sequential_reads(8192));
        let (r_stats, r_e) = run(
            cfg.clone(),
            streams::random_reads(8192, cfg.total_blocks(), 3),
        );
        let g = g_e.nj_per_byte(&g_stats);
        let s = s_e.nj_per_byte(&s_stats);
        let r = r_e.nj_per_byte(&r_stats);
        assert!(s < g && g < r, "expected {s:.2} < {g:.2} < {r:.2}");
    }

    #[test]
    fn energy_scales_linearly_with_traffic_volume() {
        let cfg = DramConfig::ddr4_3200();
        let (_, small) = run(cfg.clone(), streams::sequential_reads(2048));
        let (_, large) = run(cfg, streams::sequential_reads(8192));
        let ratio = large.total_mj() / small.total_mj();
        assert!((3.0..=5.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn zero_traffic_zero_energy() {
        let cfg = DramConfig::ddr4_3200();
        let e = dram_energy(&MemoryStats::default(), &cfg, &PowerParams::default());
        assert_eq!(e.total_mj(), 0.0);
        assert_eq!(e.nj_per_byte(&MemoryStats::default()), 0.0);
    }
}
