//! Host ↔ pool interconnect model.

/// A simple bandwidth + latency link model.
///
/// The paper's memory-centric system connects the GPU to the
/// disaggregated pool over a modest 25 GB/s link and shows performance is
/// insensitive to it (Section VI-D: 99% of the 150 GB/s configuration's
/// performance) — a claim the `repro sweep_link` report regenerates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkModel {
    bandwidth_gbps: f64,
    latency_ns: f64,
}

impl LinkModel {
    /// Creates a link with the given bandwidth (GB/s) and fixed per
    /// transfer latency (ns).
    ///
    /// # Panics
    ///
    /// Panics if `bandwidth_gbps <= 0`.
    pub fn new(bandwidth_gbps: f64, latency_ns: f64) -> Self {
        assert!(bandwidth_gbps > 0.0, "bandwidth must be positive");
        Self {
            bandwidth_gbps,
            latency_ns,
        }
    }

    /// PCIe gen3 x16-class host link (16 GB/s), used CPU <-> GPU.
    pub fn pcie_gen3() -> Self {
        Self::new(16.0, 1_500.0)
    }

    /// The paper's default GPU <-> pool link (25 GB/s).
    pub fn pool_default() -> Self {
        Self::new(25.0, 1_500.0)
    }

    /// NVLINK-class link (150 GB/s) for the sensitivity sweep.
    pub fn nvlink() -> Self {
        Self::new(150.0, 1_000.0)
    }

    /// Link bandwidth in GB/s.
    pub fn bandwidth_gbps(&self) -> f64 {
        self.bandwidth_gbps
    }

    /// Time to move `bytes` across the link, in nanoseconds.
    pub fn transfer_ns(&self, bytes: u64) -> f64 {
        self.latency_ns + bytes as f64 / self.bandwidth_gbps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_scales_with_bytes() {
        let l = LinkModel::new(10.0, 0.0);
        // 10 GB/s = 10 bytes/ns.
        assert!((l.transfer_ns(100) - 10.0).abs() < 1e-9);
        assert!((l.transfer_ns(1000) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn latency_floor_applies_to_small_transfers() {
        let l = LinkModel::new(1000.0, 2000.0);
        assert!(l.transfer_ns(64) >= 2000.0);
    }

    #[test]
    fn presets_ordered_by_bandwidth() {
        assert!(
            LinkModel::pcie_gen3().bandwidth_gbps() < LinkModel::pool_default().bandwidth_gbps()
        );
        assert!(LinkModel::pool_default().bandwidth_gbps() < LinkModel::nvlink().bandwidth_gbps());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_bandwidth_rejected() {
        LinkModel::new(0.0, 0.0);
    }
}
