//! Aggregated memory-system statistics.

use crate::dram::config::DramConfig;

/// Counters accumulated while servicing a trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoryStats {
    /// Completed 64 B reads.
    pub reads: u64,
    /// Completed 64 B writes.
    pub writes: u64,
    /// Issued ACT commands.
    pub activates: u64,
    /// Issued explicit PRE commands (row conflicts).
    pub precharges: u64,
    /// Issued all-bank refreshes.
    pub refreshes: u64,
    /// Column accesses that found their row open.
    pub row_hits: u64,
    /// Column accesses that needed only an ACT.
    pub row_misses: u64,
    /// Column accesses that needed PRE + ACT.
    pub row_conflicts: u64,
    /// Sum over reads of (data-available cycle - arrival cycle).
    pub total_read_latency: u64,
    /// Cycle at which the last data burst finished.
    pub last_data_cycle: u64,
}

impl MemoryStats {
    /// Total data moved, in bytes (64 B per access).
    pub fn bytes(&self) -> u64 {
        (self.reads + self.writes) * 64
    }

    /// Effective bandwidth over the busy interval, in GB/s.
    pub fn effective_bandwidth_gbps(&self, config: &DramConfig) -> f64 {
        if self.last_data_cycle == 0 {
            return 0.0;
        }
        let seconds = self.last_data_cycle as f64 * config.timing.tck_ps as f64 * 1e-12;
        self.bytes() as f64 / seconds / 1e9
    }

    /// Fraction of column accesses that were row-buffer hits.
    pub fn row_hit_rate(&self) -> f64 {
        let total = self.row_hits + self.row_misses + self.row_conflicts;
        if total == 0 {
            return 0.0;
        }
        self.row_hits as f64 / total as f64
    }

    /// Merges another channel's counters into this one.
    pub fn merge(&mut self, other: &MemoryStats) {
        self.reads += other.reads;
        self.writes += other.writes;
        self.activates += other.activates;
        self.precharges += other.precharges;
        self.refreshes += other.refreshes;
        self.row_hits += other.row_hits;
        self.row_misses += other.row_misses;
        self.row_conflicts += other.row_conflicts;
        self.total_read_latency += other.total_read_latency;
        self.last_data_cycle = self.last_data_cycle.max(other.last_data_cycle);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_counts_both_directions() {
        let s = MemoryStats {
            reads: 10,
            writes: 5,
            ..Default::default()
        };
        assert_eq!(s.bytes(), 15 * 64);
    }

    #[test]
    fn bandwidth_formula() {
        let cfg = DramConfig::ddr4_3200();
        let s = MemoryStats {
            reads: 1000,
            last_data_cycle: 4000, // 4 cycles per 64 B = exactly peak
            ..Default::default()
        };
        let eff = s.effective_bandwidth_gbps(&cfg);
        assert!((eff - cfg.peak_bandwidth_gbps()).abs() < 0.1, "eff {eff}");
    }

    #[test]
    fn empty_stats_are_zero_not_nan() {
        let cfg = DramConfig::ddr4_3200();
        let s = MemoryStats::default();
        assert_eq!(s.effective_bandwidth_gbps(&cfg), 0.0);
        assert_eq!(s.row_hit_rate(), 0.0);
    }

    #[test]
    fn merge_adds_counters_and_maxes_cycle() {
        let mut a = MemoryStats {
            reads: 1,
            last_data_cycle: 100,
            ..Default::default()
        };
        let b = MemoryStats {
            reads: 2,
            writes: 3,
            last_data_cycle: 50,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.reads, 3);
        assert_eq!(a.writes, 3);
        assert_eq!(a.last_data_cycle, 100);
    }

    #[test]
    fn hit_rate() {
        let s = MemoryStats {
            row_hits: 3,
            row_misses: 1,
            ..Default::default()
        };
        assert!((s.row_hit_rate() - 0.75).abs() < 1e-12);
    }
}
