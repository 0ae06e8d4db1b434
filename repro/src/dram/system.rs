//! The top-level memory system: channels + routing + the trace runner.

use crate::dram::channel::{Channel, Command};
use crate::dram::config::DramConfig;
use crate::dram::request::Request;
use crate::dram::stats::MemoryStats;

/// A multi-channel memory system driven cycle by cycle.
#[derive(Debug)]
pub struct MemorySystem {
    config: DramConfig,
    channels: Vec<Channel>,
    now: u64,
}

impl MemorySystem {
    /// Creates a memory system from a configuration.
    pub fn new(config: DramConfig) -> Self {
        let channels = (0..config.channels)
            .map(|_| Channel::new(&config))
            .collect();
        Self {
            config,
            channels,
            now: 0,
        }
    }

    /// The configuration this system was built with.
    pub fn config(&self) -> &DramConfig {
        &self.config
    }

    /// Current cycle.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Enables/disables command tracing on all channels.
    pub fn set_trace_enabled(&mut self, enabled: bool) {
        for ch in &mut self.channels {
            ch.set_trace_enabled(enabled);
        }
    }

    /// Drains and returns the per-channel command traces.
    pub fn take_traces(&mut self) -> Vec<Vec<Command>> {
        self.channels.iter_mut().map(|c| c.take_trace()).collect()
    }

    /// Attempts to enqueue a request; returns `false` when the target
    /// channel's queue is full (caller should tick and retry).
    pub fn enqueue(&mut self, req: Request) -> bool {
        let at = self.config.mapping.decode(req.block, &self.config);
        self.channels[at.channel].enqueue(req, at, self.now)
    }

    /// Advances the whole system by one memory cycle.
    pub fn tick(&mut self) {
        for ch in &mut self.channels {
            ch.tick(self.now);
        }
        self.now += 1;
    }

    /// Whether every channel queue is empty.
    pub fn is_idle(&self) -> bool {
        self.channels.iter().all(Channel::is_idle)
    }

    /// Runs until all queued requests have issued their data bursts.
    pub fn drain(&mut self) {
        while !self.is_idle() {
            self.tick();
        }
    }

    /// Feeds an entire trace through the system in closed-loop fashion
    /// (next request enters as soon as its channel has queue space) and
    /// returns the merged statistics.
    ///
    /// This measures *best-case effective bandwidth* for the access
    /// pattern — the quantity the paper's methodology extracts from
    /// Ramulator.
    pub fn run_trace(&mut self, trace: impl IntoIterator<Item = Request>) -> MemoryStats {
        let mut it = trace.into_iter();
        let mut pending: Option<Request> = it.next();
        while let Some(req) = pending {
            if self.enqueue(req) {
                pending = it.next();
            } else {
                self.tick();
            }
        }
        self.drain();
        self.stats()
    }

    /// Merged statistics across channels.
    pub fn stats(&self) -> MemoryStats {
        let mut total = MemoryStats::default();
        for ch in &self.channels {
            total.merge(&ch.stats);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dram::address::AddressMapping;
    use crate::dram::config::RowPolicy;
    use crate::dram::streams;

    #[test]
    fn sequential_reads_approach_peak_bandwidth() {
        let cfg = DramConfig::ddr4_3200();
        let mut mem = MemorySystem::new(cfg.clone());
        let stats = mem.run_trace(streams::sequential_reads(8192));
        let eff = stats.effective_bandwidth_gbps(&cfg);
        let peak = cfg.peak_bandwidth_gbps();
        assert!(
            eff > 0.85 * peak,
            "sequential stream reached only {eff:.1} of {peak:.1} GB/s"
        );
        assert!(stats.row_hit_rate() > 0.9);
    }

    #[test]
    fn random_reads_lose_significant_bandwidth() {
        let cfg = DramConfig::ddr4_3200();
        let mut mem = MemorySystem::new(cfg.clone());
        let blocks = cfg.total_blocks();
        let stats = mem.run_trace(streams::random_reads(8192, blocks, 7));
        let eff = stats.effective_bandwidth_gbps(&cfg);
        let peak = cfg.peak_bandwidth_gbps();
        assert!(
            eff < 0.7 * peak,
            "random stream should be well below peak, got {eff:.1}/{peak:.1}"
        );
        assert!(eff > 0.15 * peak, "but not absurdly low: {eff:.1}");
    }

    #[test]
    fn multi_channel_scales_bandwidth() {
        let one = DramConfig::ddr4_3200();
        let four = DramConfig::ddr4_3200().with_channels(4);
        let e1 = MemorySystem::new(one.clone())
            .run_trace(streams::sequential_reads(8192))
            .effective_bandwidth_gbps(&one);
        let e4 = MemorySystem::new(four.clone())
            .run_trace(streams::sequential_reads(8192))
            .effective_bandwidth_gbps(&four);
        assert!(
            e4 > 3.0 * e1,
            "4-channel ({e4:.1}) should be ~4x 1-channel ({e1:.1})"
        );
    }

    #[test]
    fn closed_page_beats_open_page_on_random_single_access() {
        // Random single-burst-per-row traffic: open policy pays a PRE on
        // every conflict; closed policy precharges for free.
        let blocks = DramConfig::ddr4_3200().total_blocks();
        let open = DramConfig::ddr4_3200().with_mapping(AddressMapping::BankInterleaved);
        let closed = open.clone().with_row_policy(RowPolicy::Closed);
        let eo = MemorySystem::new(open.clone())
            .run_trace(streams::random_reads(4096, blocks, 3))
            .effective_bandwidth_gbps(&open);
        let ec = MemorySystem::new(closed.clone())
            .run_trace(streams::random_reads(4096, blocks, 3))
            .effective_bandwidth_gbps(&closed);
        assert!(
            ec >= eo * 0.98,
            "closed-page ({ec:.1}) should not lose to open-page ({eo:.1}) on random traffic"
        );
    }

    #[test]
    fn writes_are_serviced() {
        let cfg = DramConfig::ddr4_3200();
        let mut mem = MemorySystem::new(cfg);
        let reqs: Vec<Request> = (0..256).map(Request::write).collect();
        let stats = mem.run_trace(reqs);
        assert_eq!(stats.writes, 256);
        assert_eq!(stats.reads, 0);
    }

    #[test]
    fn mixed_read_write_stream_completes() {
        let cfg = DramConfig::ddr4_3200();
        let mut mem = MemorySystem::new(cfg);
        let reqs: Vec<Request> = (0..512)
            .map(|i| {
                if i % 3 == 0 {
                    Request::write(i * 17)
                } else {
                    Request::read(i * 17)
                }
            })
            .collect();
        let stats = mem.run_trace(reqs);
        assert_eq!(stats.reads + stats.writes, 512);
        assert!(stats.last_data_cycle > 0);
    }

    #[test]
    fn drain_on_empty_system_is_noop() {
        let mut mem = MemorySystem::new(DramConfig::ddr4_3200());
        mem.drain();
        assert_eq!(mem.now(), 0);
    }
}
