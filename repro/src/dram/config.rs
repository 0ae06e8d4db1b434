//! Memory-system configuration: geometry, mapping, scheduling policy.

use crate::dram::address::AddressMapping;
use crate::dram::timing::TimingParams;

/// Row-buffer management policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RowPolicy {
    /// Leave rows open after access (bet on spatial locality).
    #[default]
    Open,
    /// Auto-precharge after every column access (bet against reuse —
    /// what gather/scatter-dominated NMP designs prefer).
    Closed,
}

/// Full configuration of a simulated memory system.
#[derive(Debug, Clone, PartialEq)]
pub struct DramConfig {
    /// Independent channels (each with its own command/data bus).
    pub channels: usize,
    /// Ranks per channel (share the channel buses).
    pub ranks_per_channel: usize,
    /// Bank groups per rank (DDR4: 4).
    pub bankgroups: usize,
    /// Banks per bank group (DDR4: 4).
    pub banks_per_group: usize,
    /// Rows per bank.
    pub rows: u64,
    /// 64 B column bursts per row (columns x device width / 64 B).
    pub columns: u64,
    /// Timing parameter set.
    pub timing: TimingParams,
    /// Physical-to-DRAM address mapping.
    pub mapping: AddressMapping,
    /// Row-buffer policy.
    pub row_policy: RowPolicy,
    /// Per-channel scheduler queue depth.
    pub queue_depth: usize,
}

impl DramConfig {
    /// Single-channel DDR4-3200 (25.6 GB/s peak): one *rank* of the
    /// paper's disaggregated pool, the unit each NMP core owns.
    pub fn ddr4_3200() -> Self {
        Self {
            channels: 1,
            ranks_per_channel: 1,
            bankgroups: 4,
            banks_per_group: 4,
            rows: 65_536,
            columns: 128,
            timing: TimingParams::ddr4_3200(),
            mapping: AddressMapping::RowBankColumn,
            row_policy: RowPolicy::Open,
            queue_depth: 32,
        }
    }

    /// Host-CPU memory system: 4 channels of DDR4-2400 with 2 ranks each
    /// (~76.8 GB/s peak — the "80 GB/s DDR4" CPU of the paper's Fig. 3).
    pub fn cpu_ddr4() -> Self {
        Self {
            channels: 4,
            ranks_per_channel: 2,
            bankgroups: 4,
            banks_per_group: 4,
            rows: 65_536,
            columns: 128,
            timing: TimingParams::ddr4_2400(),
            mapping: AddressMapping::RowBankColumn,
            row_policy: RowPolicy::Open,
            queue_depth: 32,
        }
    }

    /// Returns a copy with a different channel count.
    pub fn with_channels(mut self, channels: usize) -> Self {
        self.channels = channels;
        self
    }

    /// Returns a copy with a different row policy.
    pub fn with_row_policy(mut self, policy: RowPolicy) -> Self {
        self.row_policy = policy;
        self
    }

    /// Returns a copy with a different address mapping.
    pub fn with_mapping(mut self, mapping: AddressMapping) -> Self {
        self.mapping = mapping;
        self
    }

    /// Banks per rank.
    pub fn banks_per_rank(&self) -> usize {
        self.bankgroups * self.banks_per_group
    }

    /// Total 64 B blocks addressable across the whole system.
    pub fn total_blocks(&self) -> u64 {
        self.channels as u64
            * self.ranks_per_channel as u64
            * self.banks_per_rank() as u64
            * self.rows
            * self.columns
    }

    /// Aggregate peak bandwidth in GB/s (all channels).
    pub fn peak_bandwidth_gbps(&self) -> f64 {
        let bytes_per_cycle = self.timing.peak_bytes_per_cycle() * self.channels as u64;
        bytes_per_cycle as f64 / (self.timing.tck_ps as f64 * 1e-12) / 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ddr4_3200_peak_is_25_6() {
        let c = DramConfig::ddr4_3200();
        assert!((c.peak_bandwidth_gbps() - 25.6).abs() < 0.1);
    }

    #[test]
    fn cpu_config_peak_near_80() {
        let c = DramConfig::cpu_ddr4();
        let peak = c.peak_bandwidth_gbps();
        assert!((70.0..=85.0).contains(&peak), "peak {peak}");
    }

    #[test]
    fn channel_scaling_is_linear() {
        let one = DramConfig::ddr4_3200();
        let four = one.clone().with_channels(4);
        assert!((four.peak_bandwidth_gbps() - 4.0 * one.peak_bandwidth_gbps()).abs() < 1e-9);
    }

    #[test]
    fn capacity_accounting() {
        let c = DramConfig::ddr4_3200();
        // 1 ch x 1 rank x 16 banks x 65536 rows x 128 blocks x 64 B = 8 GiB.
        assert_eq!(c.total_blocks() * 64, 8 * (1 << 30));
    }

    #[test]
    fn builder_methods() {
        let c = DramConfig::ddr4_3200()
            .with_row_policy(RowPolicy::Closed)
            .with_mapping(AddressMapping::BankInterleaved);
        assert_eq!(c.row_policy, RowPolicy::Closed);
        assert_eq!(c.mapping, AddressMapping::BankInterleaved);
    }
}
