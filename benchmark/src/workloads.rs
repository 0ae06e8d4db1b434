//! What the four workloads share: the round structure, the run options,
//! seed derivation and the result a run hands to the reporter.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Value;
use crate::spec::{MetricSpec, END_TO_END, PER_LAYER};
use crate::trace::Tracer;
use tcast_tensor::SplitMix64;

/// Seconds of measured section the round sizes below were frozen for
/// (`run_seconds` in `/BENCHMARK.json`). `--seconds` scales the work per
/// round linearly from here; the number of rounds never changes.
pub const RUN_SECONDS: u64 = 14;
/// Identical-work rounds in the measured section of an untraced run.
pub const ROUNDS: usize = 24;
/// Traced rounds in a traced run (each paired with an untraced one, so
/// the tracing overhead is measured inside the same run).
pub const TRACED_ROUNDS: usize = 8;
/// Complete set-ups per untraced run; `setup_s` is their minimum.
pub const SETUPS: usize = 3;
/// SGD step size of every trainer the benchmark builds. The trainer's
/// default (0.05) makes the RM1 shape's first steps overshoot (pooling 80
/// sums large embeddings) and, at small batches or unlucky seeds, diverge
/// to NaN; a failed step is a failed operation, so the workloads train at
/// a rate that converges on every seed. Step time does not depend on it.
pub const LEARNING_RATE: f32 = 0.01;
/// The latency limit a served query should meet. Misses at the reference
/// rate are reported, not counted as failed operations: they follow the
/// host's stalls, not the program.
pub const SLA_NS: u64 = 20_000_000;

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunOptions {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Smoke mode: tiny shapes, 4 rounds, one set-up. Bounds mean nothing.
    pub quick: bool,
}

impl RunOptions {
    pub fn rounds(&self) -> usize {
        match (self.quick, self.trace) {
            (true, _) => 4,
            (false, true) => TRACED_ROUNDS,
            (false, false) => ROUNDS,
        }
    }

    pub fn setups(&self) -> usize {
        if self.quick || self.trace {
            1
        } else {
            SETUPS
        }
    }

    /// Work per round: `nominal` units at `RUN_SECONDS`, scaled by
    /// `--seconds`, never below `floor` (10 steps or 300 queries: a
    /// round's median needs that many samples). Quick mode runs a fifth
    /// of the floor.
    pub fn units(&self, nominal: usize, floor: usize) -> usize {
        if self.quick {
            return (floor / 5).max(2);
        }
        let scaled = (nominal as f64 * self.seconds / RUN_SECONDS as f64).round() as usize;
        scaled.max(floor)
    }

    pub fn warmup_s(&self) -> f64 {
        if self.quick {
            0.1
        } else {
            1.0
        }
    }
}

/// Independent seed streams (model init, data, arrivals, ...) from the one
/// `--seed`.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    SplitMix64::new(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
}

#[derive(Debug, Clone)]
pub struct Check {
    pub name: &'static str,
    pub pass: bool,
    pub detail: String,
}

impl Check {
    pub fn new(name: &'static str, pass: bool, detail: impl Into<String>) -> Self {
        Self {
            name,
            pass,
            detail: detail.into(),
        }
    }

    /// Passes iff no operation of the measured section returned an error.
    pub fn operations_ok(errors: u64) -> Self {
        Self::new(
            "operations_ok",
            errors == 0,
            format!("{errors} operations returned an error"),
        )
    }

    /// A check that does not apply to this run (and says why).
    pub fn skipped(name: &'static str, why: impl Into<String>) -> Self {
        Self::new(name, true, format!("skipped: {}", why.into()))
    }
}

/// Metric values by name; a name missing from the table is a bug in this
/// program and panics at the end of the run that made it.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    /// Values in table order. Metrics the workload does not exercise read 0.
    ///
    /// # Panics
    ///
    /// Panics if a value was set under a name the table does not list.
    pub fn in_order(&self, table: &'static [MetricSpec]) -> Vec<(&'static MetricSpec, f64)> {
        for name in self.0.keys() {
            assert!(
                table.iter().any(|m| m.name == *name),
                "metric {name} is not in the table"
            );
        }
        table
            .iter()
            .map(|m| (m, self.0.get(m.name).copied().unwrap_or(0.0)))
            .collect()
    }
}

#[derive(Debug)]
pub struct RunResult {
    pub workload: &'static str,
    pub options: RunOptions,
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<Check>,
    pub metrics: Vec<(&'static MetricSpec, f64)>,
    /// Per-round series and other detail for the run file.
    pub detail: Value,
    pub tracer: Option<Tracer>,
}

impl RunResult {
    /// Whether the program's outputs were right: every check passed. An
    /// operation that returned an error is counted in `failed` and also
    /// clears `correct`, through the `operations_ok` check. A served query
    /// that was answered after the latency limit is neither: a 25 ms host
    /// stall produces a couple of dozen of them in a phase, so they are
    /// reported (`serve.limit_miss_share`) and not counted.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.pass)
    }

    pub fn table(options: &RunOptions) -> &'static [MetricSpec] {
        if options.trace {
            &PER_LAYER
        } else {
            &END_TO_END
        }
    }
}

/// `VmHWM` of this process in MB (0 where `/proc` is not available).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Resets the kernel's high-water mark so `--workload all` reports each
/// workload's own peak rather than the largest so far. Best effort: where
/// the kernel refuses, later workloads of one process read the process's
/// peak (a run of a single workload, which is what the driver makes, is
/// exact either way).
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Calls `f` once to size its buffers, then until about `budget_s` has
/// passed (at least `min_reps` and at most 10 000 calls), and returns the
/// seconds each timed call took — the isolated layer sections take their
/// best or their median from it.
pub fn time_reps(budget_s: f64, min_reps: usize, mut f: impl FnMut()) -> Vec<f64> {
    f(); // sizes scratch buffers
    let mut samples = Vec::new();
    let start = Instant::now();
    while samples.len() < min_reps || start.elapsed().as_secs_f64() < budget_s {
        let t0 = Instant::now();
        f();
        samples.push(t0.elapsed().as_secs_f64());
        if samples.len() >= 10_000 {
            break;
        }
    }
    samples
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn work_per_round_scales_with_seconds_and_respects_the_floor() {
        let opts = |seconds, quick| RunOptions {
            seed: 1,
            seconds,
            trace: false,
            quick,
        };
        assert_eq!(opts(RUN_SECONDS as f64, false).units(12, 10), 12);
        assert_eq!(opts(2.0 * RUN_SECONDS as f64, false).units(12, 10), 24);
        assert_eq!(opts(1.0, false).units(12, 10), 10);
        assert_eq!(opts(RUN_SECONDS as f64, true).units(500, 300), 60);
        assert_eq!(opts(1.0, false).rounds(), ROUNDS);
    }

    #[test]
    fn seed_streams_differ_and_repeat() {
        assert_eq!(derive_seed(1, 2), derive_seed(1, 2));
        assert_ne!(derive_seed(1, 2), derive_seed(1, 3));
        assert_ne!(derive_seed(1, 2), derive_seed(2, 2));
    }

    #[test]
    fn unknown_metric_names_are_caught() {
        let mut m = Metrics::default();
        m.set("latency_ms", 1.0);
        let listed = m.in_order(&END_TO_END);
        assert_eq!(listed.len(), END_TO_END.len());
        assert_eq!(listed[1].1, 1.0);
        assert_eq!(listed[0].1, 0.0);
        let mut bad = Metrics::default();
        bad.set("no_such_metric", 1.0);
        assert!(std::panic::catch_unwind(|| bad.in_order(&END_TO_END)).is_err());
    }
}
