//! Dependency-free micro-benchmark harness.
//!
//! The workspace builds fully offline, so criterion cannot be a
//! dependency; this module provides the small slice of it the `benches/`
//! files need: named groups, per-case median timing with automatic
//! iteration-count calibration, optional bytes-per-iteration annotation,
//! and machine-readable output through [`crate::json`] when
//! `TCAST_BENCH_JSON` is set.
//!
//! Every bench target is built with `harness = false` and drives a
//! [`BenchGroup`] from `fn main()`:
//!
//! ```no_run
//! use tcast_bench::harness::BenchGroup;
//!
//! let mut group = BenchGroup::new("example");
//! group.throughput_bytes(1_000);
//! group.bench("noop", || std::hint::black_box(1 + 1));
//! group.finish();
//! ```

use std::time::{Duration, Instant};

/// One finished measurement.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Group this case belongs to.
    pub group: String,
    /// Case name.
    pub name: String,
    /// Median wall-clock nanoseconds per iteration.
    pub median_ns: f64,
    /// Iterations per timed sample.
    pub iters_per_sample: u64,
}

/// A named group of benchmark cases, printed as aligned rows and
/// optionally appended to the `TCAST_BENCH_JSON` sink.
#[derive(Debug)]
pub struct BenchGroup {
    name: String,
    /// Bytes moved per iteration, when annotated.
    bytes: Option<u64>,
    results: Vec<BenchResult>,
    sample_time: Duration,
    samples: usize,
}

impl BenchGroup {
    /// Creates a group. `FAST=1` shrinks per-case measurement time by an
    /// order of magnitude (smoke runs, CI).
    pub fn new(name: &str) -> Self {
        let fast = crate::fast_mode();
        println!("== bench group: {name} ==");
        Self {
            name: name.to_string(),
            bytes: None,
            results: Vec::new(),
            sample_time: if fast {
                Duration::from_millis(5)
            } else {
                Duration::from_millis(40)
            },
            samples: if fast { 3 } else { 5 },
        }
    }

    /// Annotates subsequent cases with bytes moved per iteration.
    pub fn throughput_bytes(&mut self, bytes: u64) {
        self.bytes = Some(bytes);
    }

    /// Measures `f`, printing the median time per iteration (and
    /// throughput, when annotated).
    pub fn bench<R>(&mut self, name: &str, mut f: impl FnMut() -> R) {
        // Calibrate: grow the iteration count until one sample fills the
        // sample-time budget.
        let mut iters: u64 = 1;
        loop {
            let t0 = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(f());
            }
            let elapsed = t0.elapsed();
            if elapsed >= self.sample_time || iters >= 1 << 24 {
                break;
            }
            let grow = if elapsed.is_zero() {
                16
            } else {
                ((self.sample_time.as_secs_f64() / elapsed.as_secs_f64()).ceil() as u64)
                    .clamp(2, 16)
            };
            iters = iters.saturating_mul(grow);
        }
        // Measure.
        let mut per_iter: Vec<f64> = (0..self.samples)
            .map(|_| {
                let t0 = Instant::now();
                for _ in 0..iters {
                    std::hint::black_box(f());
                }
                t0.elapsed().as_secs_f64() * 1e9 / iters as f64
            })
            .collect();
        per_iter.sort_by(f64::total_cmp);
        let median_ns = per_iter[per_iter.len() / 2];

        let rate = self.bytes.map_or_else(String::new, |n| {
            format!(
                "  {:>10.2} GiB/s",
                n as f64 / median_ns * 1e9 / (1u64 << 30) as f64
            )
        });
        println!("  {name:<40} {:>12.0} ns/iter{rate}", median_ns);
        self.results.push(BenchResult {
            group: self.name.clone(),
            name: name.to_string(),
            median_ns,
            iters_per_sample: iters,
        });
    }

    /// Prints the footer and, when `TCAST_BENCH_JSON` names a sink file,
    /// appends one JSON row per case.
    pub fn finish(self) -> Vec<BenchResult> {
        if let Some(path) = crate::json::sink_from_env() {
            for r in &self.results {
                let mut row = crate::json::JsonRow::new();
                row.str_field("kind", "bench");
                row.str_field("group", &r.group);
                row.str_field("name", &r.name);
                row.f64_field("median_ns", r.median_ns);
                row.u64_field("iters_per_sample", r.iters_per_sample);
                if let Err(e) = crate::json::append_row(&path, &row) {
                    eprintln!("[bench] could not append to {}: {e}", path.display());
                }
            }
        }
        println!();
        self.results
    }
}
