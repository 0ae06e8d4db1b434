//! One memory channel: request queue, FR-FCFS scheduler, command issue.
//!
//! The scheduler implements first-ready, first-come-first-served:
//! each cycle it issues (at most) one command on the channel's command
//! bus, preferring the oldest request whose column access can fire *now*
//! (a row hit), then the oldest request that needs an ACT, then the
//! oldest that needs a PRE of a conflicting row.

use std::collections::VecDeque;

use crate::dram::address::DecodedAddr;
use crate::dram::bank::RankState;
use crate::dram::config::{DramConfig, RowPolicy};
use crate::dram::request::{AccessType, Request};
use crate::dram::stats::MemoryStats;
use crate::dram::timing::TimingParams;

/// DRAM command classes (recorded in the optional trace).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CommandKind {
    /// Row activation.
    Activate,
    /// Row precharge.
    Precharge,
    /// Column read (64 B burst).
    Read,
    /// Column write (64 B burst).
    Write,
    /// All-bank refresh.
    Refresh,
}

/// One issued DRAM command, as recorded by the command trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Command {
    /// Issue cycle.
    pub cycle: u64,
    /// Command class.
    pub kind: CommandKind,
    /// Target rank.
    pub rank: usize,
    /// Target bank group.
    pub bankgroup: usize,
    /// Target bank within the group.
    pub bank: usize,
    /// Target row (0 for refresh).
    pub row: u64,
}

#[derive(Debug, Clone)]
struct Pending {
    req: Request,
    at: DecodedAddr,
    arrival: u64,
    needed_act: bool,
    needed_pre: bool,
}

/// One channel's scheduler and timing state.
#[derive(Debug)]
pub(crate) struct Channel {
    timing: TimingParams,
    row_policy: RowPolicy,
    queue_depth: usize,
    banks_per_group: usize,
    ranks: Vec<RankState>,
    queue: VecDeque<Pending>,
    /// Earliest cycle the shared data bus is free.
    next_data_free: u64,
    pub stats: MemoryStats,
    trace: Option<Vec<Command>>,
}

impl Channel {
    pub fn new(config: &DramConfig) -> Self {
        Self {
            timing: config.timing,
            row_policy: config.row_policy,
            queue_depth: config.queue_depth,
            banks_per_group: config.banks_per_group,
            ranks: (0..config.ranks_per_channel)
                .map(|_| {
                    RankState::new(
                        config.bankgroups,
                        config.banks_per_group,
                        config.timing.trefi,
                    )
                })
                .collect(),
            queue: VecDeque::new(),
            next_data_free: 0,
            stats: MemoryStats::default(),
            trace: None,
        }
    }

    pub fn set_trace_enabled(&mut self, enabled: bool) {
        self.trace = if enabled { Some(Vec::new()) } else { None };
    }

    pub fn take_trace(&mut self) -> Vec<Command> {
        match self.trace.take() {
            Some(t) => {
                self.trace = Some(Vec::new());
                t
            }
            None => Vec::new(),
        }
    }

    pub fn has_space(&self) -> bool {
        self.queue.len() < self.queue_depth
    }

    pub fn is_idle(&self) -> bool {
        self.queue.is_empty()
    }

    pub fn enqueue(&mut self, req: Request, at: DecodedAddr, now: u64) -> bool {
        if !self.has_space() {
            return false;
        }
        self.queue.push_back(Pending {
            req,
            at,
            arrival: now,
            needed_act: false,
            needed_pre: false,
        });
        true
    }

    fn record(&mut self, cmd: Command) {
        if let Some(t) = self.trace.as_mut() {
            t.push(cmd);
        }
    }

    /// Advances one cycle: issues at most one command.
    pub fn tick(&mut self, now: u64) {
        if self.refresh_if_due(now) {
            return;
        }
        if self.try_issue_column(now) {
            return;
        }
        if self.try_issue_activate(now) {
            return;
        }
        self.try_issue_precharge(now);
    }

    /// All-bank refresh per rank when tREFI elapses.
    fn refresh_if_due(&mut self, now: u64) -> bool {
        let t = self.timing;
        for (r, rank) in self.ranks.iter_mut().enumerate() {
            if now >= rank.next_refresh {
                for bank in &mut rank.banks {
                    bank.open_row = None;
                    bank.next_act = bank.next_act.max(now + t.trfc);
                }
                rank.next_refresh += t.trefi;
                self.stats.refreshes += 1;
                self.record(Command {
                    cycle: now,
                    kind: CommandKind::Refresh,
                    rank: r,
                    bankgroup: 0,
                    bank: 0,
                    row: 0,
                });
                return true;
            }
        }
        false
    }

    fn bank_index(&self, at: &DecodedAddr) -> usize {
        at.bankgroup * self.banks_per_group + at.bank
    }

    /// Oldest request whose row is open and whose column command is
    /// timing-clean fires now.
    fn try_issue_column(&mut self, now: u64) -> bool {
        let t = self.timing;
        let burst = t.burst_cycles();
        let mut chosen: Option<usize> = None;
        for (qi, p) in self.queue.iter().enumerate() {
            let rank = &self.ranks[p.at.rank];
            let bank = &rank.banks[self.bank_index(&p.at)];
            if bank.open_row != Some(p.at.row) || now < bank.next_col {
                continue;
            }
            let (next_any, next_group) = match p.req.access {
                AccessType::Read => (rank.next_rd_any, rank.next_rd_group[p.at.bankgroup]),
                AccessType::Write => (rank.next_wr_any, rank.next_wr_group[p.at.bankgroup]),
            };
            if now < next_any || now < next_group {
                continue;
            }
            let burst_start = now
                + match p.req.access {
                    AccessType::Read => t.cl,
                    AccessType::Write => t.cwl,
                };
            if burst_start < self.next_data_free {
                continue;
            }
            chosen = Some(qi);
            break;
        }
        let Some(qi) = chosen else { return false };
        let p = self.queue.remove(qi).expect("index in range");
        let bi = self.bank_index(&p.at);
        let g = p.at.bankgroup;
        let rank = &mut self.ranks[p.at.rank];

        let (kind, burst_start, completion) = match p.req.access {
            AccessType::Read => {
                rank.next_rd_any = rank.next_rd_any.max(now + t.tccd_s);
                rank.next_rd_group[g] = rank.next_rd_group[g].max(now + t.tccd_l);
                // Read-to-write bus turnaround.
                let rtw = now + t.cl + burst + 2 - t.cwl.min(t.cl + burst + 1);
                rank.next_wr_any = rank.next_wr_any.max(rtw);
                rank.banks[bi].next_pre = rank.banks[bi].next_pre.max(now + t.trtp);
                (CommandKind::Read, now + t.cl, now + t.cl + burst)
            }
            AccessType::Write => {
                rank.next_wr_any = rank.next_wr_any.max(now + t.tccd_s);
                rank.next_wr_group[g] = rank.next_wr_group[g].max(now + t.tccd_l);
                // Write-to-read turnaround (group-aware).
                let base = now + t.cwl + burst;
                rank.next_rd_any = rank.next_rd_any.max(base + t.twtr_s);
                rank.next_rd_group[g] = rank.next_rd_group[g].max(base + t.twtr_l);
                rank.banks[bi].next_pre = rank.banks[bi].next_pre.max(base + t.twr);
                (CommandKind::Write, now + t.cwl, now + t.cwl + burst)
            }
        };
        self.next_data_free = burst_start + burst;

        if self.row_policy == RowPolicy::Closed {
            // Auto-precharge: the bank closes itself after the access.
            let bank = &mut self.ranks[p.at.rank].banks[bi];
            bank.open_row = None;
            let pre_at = match p.req.access {
                AccessType::Read => now + t.trtp,
                AccessType::Write => now + t.cwl + burst + t.twr,
            };
            bank.next_act = bank.next_act.max(pre_at + t.trp);
        }

        // Stats: hit classification + latency.
        match (p.needed_act, p.needed_pre) {
            (false, _) => self.stats.row_hits += 1,
            (true, false) => self.stats.row_misses += 1,
            (true, true) => self.stats.row_conflicts += 1,
        }
        match p.req.access {
            AccessType::Read => {
                self.stats.reads += 1;
                self.stats.total_read_latency += completion - p.arrival;
            }
            AccessType::Write => self.stats.writes += 1,
        }
        self.stats.last_data_cycle = self.stats.last_data_cycle.max(completion);
        self.record(Command {
            cycle: now,
            kind,
            rank: p.at.rank,
            bankgroup: g,
            bank: p.at.bank,
            row: p.at.row,
        });
        true
    }

    /// Oldest request whose bank is closed and whose ACT is timing-clean.
    fn try_issue_activate(&mut self, now: u64) -> bool {
        let t = self.timing;
        let mut chosen: Option<usize> = None;
        // A bank already being activated for an earlier queued request
        // must not be re-activated for a younger one.
        let mut blocked_banks = std::collections::HashSet::new();
        for (qi, p) in self.queue.iter().enumerate() {
            let key = (p.at.rank, p.at.bankgroup, p.at.bank);
            let rank = &self.ranks[p.at.rank];
            let bank = &rank.banks[self.bank_index(&p.at)];
            if bank.open_row.is_some() {
                continue;
            }
            if blocked_banks.contains(&key) {
                continue;
            }
            blocked_banks.insert(key);
            let ready = now >= bank.next_act
                && now >= rank.next_act_any
                && now >= rank.next_act_group[p.at.bankgroup]
                && now >= rank.faw_ready_at(t.tfaw);
            if ready {
                chosen = Some(qi);
                break;
            }
        }
        let Some(qi) = chosen else { return false };
        let (at_rank, g, bank_in_group, row) = {
            let p = &mut self.queue[qi];
            p.needed_act = true;
            (p.at.rank, p.at.bankgroup, p.at.bank, p.at.row)
        };
        let bi = g * self.banks_per_group + bank_in_group;
        let rank = &mut self.ranks[at_rank];
        let bank = &mut rank.banks[bi];
        bank.open_row = Some(row);
        bank.next_col = now + t.trcd;
        bank.next_pre = bank.next_pre.max(now + t.tras);
        bank.next_act = now + t.trc;
        rank.next_act_any = rank.next_act_any.max(now + t.trrd_s);
        rank.next_act_group[g] = rank.next_act_group[g].max(now + t.trrd_l);
        rank.record_act(now);
        self.stats.activates += 1;
        self.record(Command {
            cycle: now,
            kind: CommandKind::Activate,
            rank: at_rank,
            bankgroup: g,
            bank: bank_in_group,
            row,
        });
        true
    }

    /// Oldest request whose bank holds a *different* row: precharge it.
    fn try_issue_precharge(&mut self, now: u64) -> bool {
        let t = self.timing;
        let mut chosen: Option<usize> = None;
        let mut seen_banks = std::collections::HashSet::new();
        for (qi, p) in self.queue.iter().enumerate() {
            let key = (p.at.rank, p.at.bankgroup, p.at.bank);
            let rank = &self.ranks[p.at.rank];
            let bank = &rank.banks[self.bank_index(&p.at)];
            let conflicting = matches!(bank.open_row, Some(r) if r != p.at.row);
            if !conflicting {
                // An older request may still want this open row; do not let
                // a younger conflicting request close it.
                seen_banks.insert(key);
                continue;
            }
            if seen_banks.contains(&key) {
                continue;
            }
            seen_banks.insert(key);
            if now >= bank.next_pre {
                chosen = Some(qi);
                break;
            }
        }
        let Some(qi) = chosen else { return false };
        let (at_rank, g, bank_in_group) = {
            let p = &mut self.queue[qi];
            p.needed_pre = true;
            (p.at.rank, p.at.bankgroup, p.at.bank)
        };
        let bi = g * self.banks_per_group + bank_in_group;
        let bank = &mut self.ranks[at_rank].banks[bi];
        bank.open_row = None;
        bank.next_act = bank.next_act.max(now + t.trp);
        self.stats.precharges += 1;
        self.record(Command {
            cycle: now,
            kind: CommandKind::Precharge,
            rank: at_rank,
            bankgroup: g,
            bank: bank_in_group,
            row: 0,
        });
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dram::address::AddressMapping;

    fn mini_config() -> DramConfig {
        DramConfig::ddr4_3200()
    }

    fn decode(cfg: &DramConfig, block: u64) -> DecodedAddr {
        cfg.mapping.decode(block, cfg)
    }

    #[test]
    fn single_read_completes_with_act_plus_cas_latency() {
        let cfg = mini_config();
        let mut ch = Channel::new(&cfg);
        let at = decode(&cfg, 0);
        assert!(ch.enqueue(Request::read(0), at, 0));
        let mut now = 0;
        while ch.stats.reads == 0 && now < 10_000 {
            ch.tick(now);
            now += 1;
        }
        assert_eq!(ch.stats.reads, 1);
        assert_eq!(ch.stats.activates, 1);
        assert_eq!(ch.stats.row_misses, 1);
        let t = cfg.timing;
        // ACT@0, RD@tRCD, data done at tRCD + CL + burst.
        assert_eq!(
            ch.stats.total_read_latency,
            t.trcd + t.cl + t.burst_cycles()
        );
    }

    #[test]
    fn same_row_requests_hit() {
        let cfg = mini_config();
        let mut ch = Channel::new(&cfg);
        // Consecutive columns of one bank: one channel x group sweep apart.
        assert_eq!(cfg.mapping, AddressMapping::RowBankColumn);
        let stride = (cfg.channels * cfg.bankgroups) as u64;
        let a = decode(&cfg, 0);
        let b = decode(&cfg, stride);
        assert_eq!((a.bank, a.bankgroup, a.row), (b.bank, b.bankgroup, b.row));
        ch.enqueue(Request::read(0), a, 0);
        ch.enqueue(Request::read(stride), b, 0);
        let mut now = 0;
        while ch.stats.reads < 2 && now < 10_000 {
            ch.tick(now);
            now += 1;
        }
        assert_eq!(ch.stats.row_hits, 1);
        assert_eq!(ch.stats.row_misses, 1);
    }

    #[test]
    fn row_conflict_triggers_precharge() {
        let cfg = mini_config();
        let mut ch = Channel::new(&cfg);
        // Same bank, different rows: one full row-walk apart under
        // RowBankColumn (channels x groups x columns x ranks x banks).
        let blocks_per_row_same_bank = cfg.channels as u64
            * cfg.bankgroups as u64
            * cfg.columns
            * cfg.ranks_per_channel as u64
            * cfg.banks_per_group as u64;
        let a = decode(&cfg, 0);
        let b = decode(&cfg, blocks_per_row_same_bank);
        assert_eq!((a.bank, a.bankgroup), (b.bank, b.bankgroup));
        assert_ne!(a.row, b.row);
        ch.enqueue(Request::read(0), a, 0);
        ch.enqueue(Request::read(blocks_per_row_same_bank), b, 0);
        let mut now = 0;
        while ch.stats.reads < 2 && now < 50_000 {
            ch.tick(now);
            now += 1;
        }
        assert_eq!(ch.stats.reads, 2);
        assert_eq!(ch.stats.precharges, 1);
        assert_eq!(ch.stats.row_conflicts, 1);
    }

    #[test]
    fn queue_depth_enforced() {
        let cfg = mini_config();
        let mut ch = Channel::new(&cfg);
        for i in 0..cfg.queue_depth as u64 {
            assert!(ch.enqueue(Request::read(i), decode(&cfg, i), 0));
        }
        assert!(!ch.enqueue(Request::read(999), decode(&cfg, 999), 0));
    }

    #[test]
    fn refresh_fires_at_trefi() {
        let cfg = mini_config();
        let mut ch = Channel::new(&cfg);
        let trefi = cfg.timing.trefi;
        for now in 0..=trefi {
            ch.tick(now);
        }
        assert_eq!(ch.stats.refreshes, 1);
    }

    #[test]
    fn trace_records_commands_in_cycle_order() {
        let cfg = mini_config();
        let mut ch = Channel::new(&cfg);
        ch.set_trace_enabled(true);
        for i in 0..8u64 {
            ch.enqueue(Request::read(i * 1000), decode(&cfg, i * 1000), 0);
        }
        for now in 0..20_000 {
            ch.tick(now);
        }
        let trace = ch.take_trace();
        assert!(!trace.is_empty());
        assert!(trace.windows(2).all(|w| w[0].cycle < w[1].cycle));
    }
}
