//! Command-trace verification: checks that a recorded command stream
//! obeys the DDR4 timing protocol.
//!
//! The scheduler in [`crate::dram::MemorySystem`] *should* never emit an
//! illegal command sequence; this module is the independent referee that
//! proves it, command by command, from the trace alone. The workspace
//! property tests feed it traces from randomized request streams.

use crate::dram::channel::{Command, CommandKind};
use crate::dram::timing::TimingParams;
use std::collections::VecDeque;

/// A protocol violation found in a command trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Index of the offending command within the trace.
    pub at: usize,
    /// Human-readable rule description.
    pub rule: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "command #{}: {}", self.at, self.rule)
    }
}

#[derive(Debug, Clone, Default)]
struct BankCheck {
    open_row: Option<u64>,
    last_act: Option<u64>,
    last_pre: Option<u64>,
    last_rd: Option<u64>,
    last_wr: Option<u64>,
}

/// Checks a single channel's command trace against `t`, returning every
/// violation found (empty = protocol-clean).
///
/// Rules enforced:
/// * one command per cycle (strictly increasing cycles per channel);
/// * ACT only to a closed bank; RD/WR only to the open row; PRE only to
///   an open bank (under the open-row policy the simulator records);
/// * tRC / tRP / tRCD / tRAS / tRTP per bank;
/// * tRRD_S/tRRD_L between ACTs within a rank;
/// * at most 4 ACTs per rank inside any tFAW window;
/// * tCCD_S/tCCD_L between column commands within a rank;
/// * refresh closes every bank for tRFC.
///
/// The checker assumes the *open*-page policy (the trace recorder's
/// default); traces from closed-page runs should skip row-state rules via
/// [`verify_trace_timing_only`].
pub fn verify_trace(trace: &[Command], t: &TimingParams) -> Vec<Violation> {
    verify(trace, t, true)
}

/// Like [`verify_trace`] but checks only global timing rules (tRRD, tFAW,
/// tCCD, command-bus occupancy), not per-bank row state — usable for any
/// row policy.
pub fn verify_trace_timing_only(trace: &[Command], t: &TimingParams) -> Vec<Violation> {
    verify(trace, t, false)
}

fn verify(trace: &[Command], t: &TimingParams, check_rows: bool) -> Vec<Violation> {
    let mut violations = Vec::new();
    let mut banks: std::collections::HashMap<(usize, usize, usize), BankCheck> =
        std::collections::HashMap::new();
    // Per rank: ACT history for tFAW/tRRD, column history for tCCD.
    let mut rank_acts: std::collections::HashMap<usize, VecDeque<(u64, usize)>> =
        std::collections::HashMap::new();
    let mut rank_cols: std::collections::HashMap<usize, (u64, usize)> =
        std::collections::HashMap::new();
    let mut rank_refresh_until: std::collections::HashMap<usize, u64> =
        std::collections::HashMap::new();
    let mut last_cycle: Option<u64> = None;

    for (i, cmd) in trace.iter().enumerate() {
        let mut fail = |rule: String| {
            violations.push(Violation { at: i, rule });
        };
        // Command bus: one command per cycle.
        if let Some(prev) = last_cycle {
            if cmd.cycle <= prev {
                fail(format!(
                    "command bus conflict: cycle {} not after {}",
                    cmd.cycle, prev
                ));
            }
        }
        last_cycle = Some(cmd.cycle);

        let key = (cmd.rank, cmd.bankgroup, cmd.bank);
        match cmd.kind {
            CommandKind::Activate => {
                let acts = rank_acts.entry(cmd.rank).or_default();
                // tFAW: at most 4 ACTs in any window.
                if acts.len() >= 4 {
                    let oldest = acts[acts.len() - 4].0;
                    if cmd.cycle < oldest + t.tfaw {
                        fail(format!(
                            "tFAW violated: 5th ACT at {} within {} of ACT at {oldest}",
                            cmd.cycle, t.tfaw
                        ));
                    }
                }
                // tRRD vs the previous ACT in this rank.
                if let Some(&(prev_cycle, prev_group)) = acts.back() {
                    let min = if prev_group == cmd.bankgroup {
                        t.trrd_l
                    } else {
                        t.trrd_s
                    };
                    if cmd.cycle < prev_cycle + min {
                        fail(format!(
                            "tRRD violated: ACT at {} within {min} of ACT at {prev_cycle}",
                            cmd.cycle
                        ));
                    }
                }
                acts.push_back((cmd.cycle, cmd.bankgroup));
                if acts.len() > 8 {
                    acts.pop_front();
                }

                if let Some(&until) = rank_refresh_until.get(&cmd.rank) {
                    if cmd.cycle < until {
                        fail(format!(
                            "ACT at {} during refresh blackout (until {until})",
                            cmd.cycle
                        ));
                    }
                }

                let bank = banks.entry(key).or_default();
                if check_rows && bank.open_row.is_some() {
                    fail("ACT to an already-open bank".to_string());
                }
                if let Some(last_act) = bank.last_act {
                    if cmd.cycle < last_act + t.trc {
                        fail(format!(
                            "tRC violated: ACT at {} within {} of ACT at {last_act}",
                            cmd.cycle, t.trc
                        ));
                    }
                }
                if let Some(last_pre) = bank.last_pre {
                    if cmd.cycle < last_pre + t.trp {
                        fail(format!(
                            "tRP violated: ACT at {} within {} of PRE at {last_pre}",
                            cmd.cycle, t.trp
                        ));
                    }
                }
                bank.open_row = Some(cmd.row);
                bank.last_act = Some(cmd.cycle);
            }
            CommandKind::Read | CommandKind::Write => {
                let bank = banks.entry(key).or_default();
                if check_rows {
                    match bank.open_row {
                        None => fail("column command to a closed bank".to_string()),
                        Some(row) if cmd.kind == CommandKind::Read && row != cmd.row => {
                            fail(format!("READ to row {} while row {row} is open", cmd.row));
                        }
                        _ => {}
                    }
                }
                if let Some(last_act) = bank.last_act {
                    if cmd.cycle < last_act + t.trcd {
                        fail(format!(
                            "tRCD violated: column at {} within {} of ACT at {last_act}",
                            cmd.cycle, t.trcd
                        ));
                    }
                }
                // tCCD vs the previous column command in this rank.
                if let Some(&(prev_cycle, prev_group)) = rank_cols.get(&cmd.rank) {
                    let min = if prev_group == cmd.bankgroup {
                        t.tccd_l
                    } else {
                        t.tccd_s
                    };
                    if cmd.cycle < prev_cycle + min {
                        fail(format!(
                            "tCCD violated: column at {} within {min} of column at {prev_cycle}",
                            cmd.cycle
                        ));
                    }
                }
                rank_cols.insert(cmd.rank, (cmd.cycle, cmd.bankgroup));
                match cmd.kind {
                    CommandKind::Read => banks.entry(key).or_default().last_rd = Some(cmd.cycle),
                    CommandKind::Write => banks.entry(key).or_default().last_wr = Some(cmd.cycle),
                    _ => unreachable!(),
                }
            }
            CommandKind::Precharge => {
                let bank = banks.entry(key).or_default();
                if check_rows && bank.open_row.is_none() {
                    fail("PRE to a closed bank".to_string());
                }
                if let Some(last_act) = bank.last_act {
                    if cmd.cycle < last_act + t.tras {
                        fail(format!(
                            "tRAS violated: PRE at {} within {} of ACT at {last_act}",
                            cmd.cycle, t.tras
                        ));
                    }
                }
                if let Some(last_rd) = bank.last_rd {
                    if cmd.cycle < last_rd + t.trtp {
                        fail(format!(
                            "tRTP violated: PRE at {} within {} of READ at {last_rd}",
                            cmd.cycle, t.trtp
                        ));
                    }
                }
                if let Some(last_wr) = bank.last_wr {
                    let min = last_wr + t.cwl + t.burst_cycles() + t.twr;
                    if cmd.cycle < min {
                        fail(format!(
                            "write recovery violated: PRE at {} before {min}",
                            cmd.cycle
                        ));
                    }
                }
                bank.open_row = None;
                bank.last_pre = Some(cmd.cycle);
            }
            CommandKind::Refresh => {
                // Close every bank in the rank; blackout for tRFC.
                for ((r, _, _), bank) in banks.iter_mut() {
                    if *r == cmd.rank {
                        bank.open_row = None;
                    }
                }
                rank_refresh_until.insert(cmd.rank, cmd.cycle + t.trfc);
            }
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> TimingParams {
        TimingParams::ddr4_3200()
    }

    fn act(cycle: u64, bankgroup: usize, bank: usize, row: u64) -> Command {
        Command {
            cycle,
            kind: CommandKind::Activate,
            rank: 0,
            bankgroup,
            bank,
            row,
        }
    }

    fn rd(cycle: u64, bankgroup: usize, bank: usize, row: u64) -> Command {
        Command {
            cycle,
            kind: CommandKind::Read,
            rank: 0,
            bankgroup,
            bank,
            row,
        }
    }

    #[test]
    fn legal_act_then_read_is_clean() {
        let p = t();
        let trace = vec![act(0, 0, 0, 5), rd(p.trcd, 0, 0, 5)];
        assert!(verify_trace(&trace, &p).is_empty());
    }

    #[test]
    fn early_read_violates_trcd() {
        let p = t();
        let trace = vec![act(0, 0, 0, 5), rd(p.trcd - 1, 0, 0, 5)];
        let v = verify_trace(&trace, &p);
        assert!(v.iter().any(|v| v.rule.contains("tRCD")), "{v:?}");
    }

    #[test]
    fn read_to_closed_bank_flagged() {
        let p = t();
        let trace = vec![rd(10, 0, 0, 5)];
        let v = verify_trace(&trace, &p);
        assert!(v.iter().any(|v| v.rule.contains("closed bank")));
        // Timing-only mode skips row-state checks.
        assert!(verify_trace_timing_only(&trace, &p).is_empty());
    }

    #[test]
    fn five_acts_in_faw_window_flagged() {
        let p = t();
        // 5 ACTs to distinct banks, spaced by tRRD_S but within tFAW.
        let trace: Vec<Command> = (0..5)
            .map(|i| act(i * p.trrd_s, (i % 4) as usize, (i / 4) as usize, 1))
            .collect();
        // tFAW=34 > 4*tRRD_S=16, so the 5th ACT at cycle 16 violates.
        let v = verify_trace(&trace, &p);
        assert!(v.iter().any(|v| v.rule.contains("tFAW")), "{v:?}");
    }

    #[test]
    fn trrd_l_within_group_flagged() {
        let p = t();
        let trace = vec![act(0, 0, 0, 1), act(p.trrd_s, 0, 1, 1)];
        // Same bank group: needs tRRD_L (8) not tRRD_S (4).
        let v = verify_trace(&trace, &p);
        assert!(v.iter().any(|v| v.rule.contains("tRRD")), "{v:?}");
    }

    #[test]
    fn tccd_l_within_group_flagged() {
        let p = t();
        let trace = vec![
            act(0, 0, 0, 1),
            act(p.trrd_l, 1, 0, 1),
            rd(100, 0, 0, 1),
            rd(100 + p.tccd_s, 1, 0, 1), // different group: OK at tCCD_S
            rd(100 + p.tccd_s + p.tccd_s, 1, 0, 1), // same group: needs tCCD_L
        ];
        let v = verify_trace(&trace, &p);
        assert!(v.iter().any(|v| v.rule.contains("tCCD")), "{v:?}");
    }

    #[test]
    fn command_bus_double_booking_flagged() {
        let p = t();
        let trace = vec![act(5, 0, 0, 1), act(5, 1, 0, 1)];
        let v = verify_trace(&trace, &p);
        assert!(v.iter().any(|v| v.rule.contains("command bus")));
    }

    #[test]
    fn premature_precharge_flagged() {
        let p = t();
        let trace = vec![
            act(0, 0, 0, 1),
            Command {
                cycle: p.tras - 1,
                kind: CommandKind::Precharge,
                rank: 0,
                bankgroup: 0,
                bank: 0,
                row: 0,
            },
        ];
        let v = verify_trace(&trace, &p);
        assert!(v.iter().any(|v| v.rule.contains("tRAS")), "{v:?}");
    }

    #[test]
    fn empty_trace_is_clean() {
        assert!(verify_trace(&[], &t()).is_empty());
    }
}
