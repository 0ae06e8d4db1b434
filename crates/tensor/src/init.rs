//! Weight initialization and the deterministic RNG used across the
//! reproduction.
//!
//! Every stochastic component in this repository is seeded so that paired
//! experiments (e.g. baseline expand-coalesce vs. casted gather-reduce
//! training) start from bit-identical parameters, which is what lets the
//! equivalence tests compare full training trajectories.

use crate::matrix::Matrix;

/// A tiny, fast, deterministic 64-bit PRNG (SplitMix64).
///
/// Used for weight initialization where we want reproducibility without
/// pulling `rand`'s trait machinery into hot paths. The sequence is fully
/// determined by the seed.
///
/// ```
/// use tcast_tensor::SplitMix64;
///
/// let mut a = SplitMix64::new(7);
/// let mut b = SplitMix64::new(7);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// The current internal state. `SplitMix64::new(state)` reconstructs
    /// a generator that continues the sequence from exactly this point —
    /// the hook checkpoint/resume uses to capture stream positions.
    pub fn state(&self) -> u64 {
        self.state
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform `f32` in `[0, 1)`.
    pub fn next_f32(&mut self) -> f32 {
        // 24 mantissa bits of uniformity is plenty for initialization.
        (self.next_u64() >> 40) as f32 / (1u64 << 24) as f32
    }

    /// Uniform `f32` in `[lo, hi)`.
    pub fn next_range(&mut self, lo: f32, hi: f32) -> f32 {
        lo + (hi - lo) * self.next_f32()
    }

    /// Uniform `u64` in `[0, bound)` via rejection-free multiply-shift.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // 128-bit multiply-high trick: unbiased enough for workload gen.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }
}

/// Xavier/Glorot uniform initialization for a `fan_in x fan_out` weight
/// matrix: `U(-sqrt(6/(fan_in+fan_out)), +sqrt(6/(fan_in+fan_out)))`.
///
/// ```
/// use tcast_tensor::xavier_uniform;
///
/// let w = xavier_uniform(64, 32, 1);
/// assert_eq!(w.shape(), (64, 32));
/// let bound = (6.0f32 / (64.0 + 32.0)).sqrt();
/// assert!(w.as_slice().iter().all(|v| v.abs() <= bound));
/// ```
pub fn xavier_uniform(fan_in: usize, fan_out: usize, seed: u64) -> Matrix {
    let bound = (6.0 / (fan_in + fan_out) as f32).sqrt();
    let mut rng = SplitMix64::new(seed);
    let mut m = Matrix::zeros(fan_in, fan_out);
    for v in m.as_mut_slice() {
        *v = rng.next_range(-bound, bound);
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic() {
        let a: Vec<u64> = {
            let mut r = SplitMix64::new(123);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = SplitMix64::new(123);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn next_f32_in_unit_interval() {
        let mut r = SplitMix64::new(9);
        for _ in 0..1000 {
            let v = r.next_f32();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn next_below_respects_bound() {
        let mut r = SplitMix64::new(5);
        for _ in 0..1000 {
            assert!(r.next_below(17) < 17);
        }
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn next_below_zero_panics() {
        SplitMix64::new(0).next_below(0);
    }

    #[test]
    fn xavier_respects_bound_and_seed() {
        let w1 = xavier_uniform(10, 20, 7);
        let w2 = xavier_uniform(10, 20, 7);
        assert_eq!(w1, w2);
        let bound = (6.0f32 / 30.0).sqrt();
        assert!(w1.as_slice().iter().all(|v| v.abs() <= bound));
        // Should not be degenerate.
        assert!(w1.as_slice().iter().any(|&v| v != 0.0));
    }
}
