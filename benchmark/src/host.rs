//! The host-speed probe. On the shared reference host identical work runs
//! 1.2-1.5x slower for minutes at a time (a neighbour takes clock, vector
//! ports or cache), longer than any run the driver's time cap allows, so
//! no estimator over one run's wall times can recover the quiet-host value.
//! Instead three small frozen kernels are timed between the rounds and every
//! gated timing is reported in *quiet-host time*: wall time divided by the
//! geometric mean of the kernels' slowdowns against their quiet readings.
//!
//! The kernels live here, never in `crates/`, so no later change to the
//! library can speed them up and cancel its own gain:
//!
//! * `clock`: a dependent chain of integer operations (core clock);
//! * `gemm`: a plain i-k-j f32 matmul, either cache-resident or with a
//!   5 MB operand streamed from L3, whichever the workload's GEMMs do;
//! * `gather`: sums of 256-byte rows at random offsets of a 32 MB table.

use std::time::Instant;

use tcast_tensor::SplitMix64;

/// Which matmul the probe times.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Gemm {
    /// 64x256x256: every operand stays in L2, as the GEMMs of a served
    /// batch (10-160 rows) do.
    Cached,
    /// 16x2560x512: the 5 MB right operand is streamed from L3, as a
    /// training batch's activations and `train_dense`'s weights are.
    Streamed,
}

impl Gemm {
    fn shape(self) -> (usize, usize, usize) {
        match self {
            Gemm::Cached => (64, 256, 256),
            Gemm::Streamed => (16, 2560, 512),
        }
    }

    /// The kernel's fastest reading on the reference host, ms.
    fn quiet_ms(self) -> f64 {
        match self {
            Gemm::Cached => 0.34,
            Gemm::Streamed => 3.44,
        }
    }
}

/// Fastest readings of the other two kernels on the reference host, ms.
/// On another machine the factor is off by a constant, which cancels in
/// every comparison of two runs.
const CLOCK_QUIET_MS: f64 = 0.48;
const GATHER_QUIET_MS: f64 = 0.43;

const CLOCK_ITERATIONS: u64 = 400_000;
const ROW: usize = 64;
const GATHER_TABLE_ROWS: usize = (32 << 20) / (ROW * 4);
const GATHER_ROWS: usize = 4096;
/// Each kernel's reading is the fastest of this many calls.
const REPS: usize = 3;

pub struct HostProbe {
    gemm: Gemm,
    a: Vec<f32>,
    b: Vec<f32>,
    c: Vec<f32>,
    table: Vec<f32>,
    rows: Vec<u32>,
}

impl HostProbe {
    pub fn new(gemm: Gemm) -> Self {
        let (m, k, n) = gemm.shape();
        let fill = |len: usize| (0..len).map(|i| (i % 97) as f32 * 0.01).collect::<Vec<_>>();
        let mut rng = SplitMix64::new(7);
        let mut probe = Self {
            gemm,
            a: fill(m * k),
            b: fill(k * n),
            c: vec![0.0; m * n],
            table: fill(GATHER_TABLE_ROWS * ROW),
            rows: (0..GATHER_ROWS * REPS)
                .map(|_| rng.next_below(GATHER_TABLE_ROWS as u64) as u32)
                .collect(),
        };
        probe.factor(); // touches every page
        probe
    }

    /// How much slower than quiet the host runs right now (1.0 = quiet):
    /// the geometric mean of the three kernels' slowdowns.
    pub fn factor(&mut self) -> f64 {
        let mut best = [f64::INFINITY; 3];
        for rep in 0..REPS {
            let timed = [self.clock(), self.matmul(), self.gather(rep)];
            for (b, t) in best.iter_mut().zip(timed) {
                *b = b.min(t);
            }
        }
        slowdown(best, self.gemm)
    }

    fn clock(&self) -> f64 {
        let t0 = Instant::now();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for i in 0..CLOCK_ITERATIONS {
            x = x.rotate_left(13) ^ x.wrapping_mul(0xBF58_476D_1CE4_E5B9).wrapping_add(i);
        }
        std::hint::black_box(x);
        t0.elapsed().as_secs_f64() * 1e3
    }

    fn matmul(&mut self) -> f64 {
        let (m, k, n) = self.gemm.shape();
        let t0 = Instant::now();
        for i in 0..m {
            let out = &mut self.c[i * n..(i + 1) * n];
            out.fill(0.0);
            for kk in 0..k {
                let a = self.a[i * k + kk];
                let b = &self.b[kk * n..(kk + 1) * n];
                for (o, b) in out.iter_mut().zip(b) {
                    *o += a * b;
                }
            }
        }
        std::hint::black_box(&self.c);
        t0.elapsed().as_secs_f64() * 1e3
    }

    fn gather(&self, rep: usize) -> f64 {
        let t0 = Instant::now();
        let mut acc = [0.0f32; ROW];
        for &r in &self.rows[rep * GATHER_ROWS..(rep + 1) * GATHER_ROWS] {
            let row = &self.table[r as usize * ROW..(r as usize + 1) * ROW];
            for (a, v) in acc.iter_mut().zip(row) {
                *a += v;
            }
        }
        std::hint::black_box(acc);
        t0.elapsed().as_secs_f64() * 1e3
    }
}

/// Geometric mean of the kernels' readings (`[clock, gemm, gather]`, ms)
/// over their quiet readings.
fn slowdown(ms: [f64; 3], gemm: Gemm) -> f64 {
    let quiet = [CLOCK_QUIET_MS, gemm.quiet_ms(), GATHER_QUIET_MS];
    ms.iter()
        .zip(quiet)
        .map(|(t, q)| t / q)
        .product::<f64>()
        .cbrt()
}

/// The host factor over a section bracketed by two probe readings.
pub fn between(before: f64, after: f64) -> f64 {
    (before * after).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{median, min_of, quiet_time};

    #[test]
    fn quiet_readings_give_factor_one_and_slowdowns_average_geometrically() {
        let quiet = [CLOCK_QUIET_MS, Gemm::Cached.quiet_ms(), GATHER_QUIET_MS];
        assert!((slowdown(quiet, Gemm::Cached) - 1.0).abs() < 1e-12);
        let slow = [quiet[0] * 1.2, quiet[1] * 1.5, quiet[2]];
        assert!((slowdown(slow, Gemm::Cached) - 1.8f64.cbrt()).abs() < 1e-12);
        assert!((between(1.0, 1.44) - 1.2).abs() < 1e-12);
    }

    #[test]
    fn the_probe_reads_a_plausible_factor() {
        for gemm in [Gemm::Cached, Gemm::Streamed] {
            let f = HostProbe::new(gemm).factor();
            assert!(f.is_finite() && f > 0.05 && f < 50.0, "{gemm:?}: {f}");
        }
    }

    /// Identical steps on two plateaus, as measured on the 2-vCPU host: a
    /// neighbour slows every step 1.4x during `slow` rounds. Returns each
    /// round's median step time and the host factor a probe would read.
    fn two_plateau_rounds(slow: std::ops::Range<usize>) -> (Vec<f64>, Vec<f64>) {
        (0..24)
            .map(|r| {
                let factor = if slow.contains(&r) { 1.4 } else { 1.0 };
                // +-0.5% deterministic jitter the probe does not see.
                let steps: Vec<f64> = (0..20)
                    .map(|s| 75.0 * factor * (1.0 + 0.0025 * (((r * 7 + s * 3) % 5) as f64 - 2.0)))
                    .collect();
                (median(&steps), factor)
            })
            .unzip()
    }

    /// The best round finds the fast plateau only if the run visits it;
    /// quiet-host time reads the same in a run that is slow from start to
    /// finish, as 14 s runs on the reference host often are.
    #[test]
    fn quiet_host_time_survives_a_run_that_never_leaves_the_slow_plateau() {
        let fast = 75.0;
        let (partly, partly_host) = two_plateau_rounds(4..20);
        let (wholly, wholly_host) = two_plateau_rounds(0..24);
        assert!((min_of(&partly) / fast - 1.0).abs() < 0.01);
        assert!(min_of(&wholly) / fast > 1.39, "no round is fast");
        assert!(
            median(&partly) / fast > 1.39,
            "the whole-run median is slow"
        );
        for (times, host) in [(&partly, &partly_host), (&wholly, &wholly_host)] {
            let quiet = quiet_time(times, host);
            assert!((quiet / fast - 1.0).abs() < 0.01, "quiet-host time {quiet}");
        }
    }
}
