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
        self.state = self.state.wrapping_add(GAMMA);
        mix(self.state)
    }

    /// Uniform `f32` in `[0, 1)`.
    pub fn next_f32(&mut self) -> f32 {
        unit(self.next_u64())
    }

    /// Uniform `f32` in `[lo, hi)`.
    pub fn next_range(&mut self, lo: f32, hi: f32) -> f32 {
        lo + (hi - lo) * self.next_f32()
    }

    /// Writes draws `first .. first + out.len()` of this generator's
    /// [`next_range(lo, hi)`](Self::next_range) stream into `out`, bit for
    /// bit: what `out.len()` calls of `next_range` write after `first`
    /// calls, on a clone. The generator itself does not move. Every
    /// initializer draws through it — [`xavier_uniform`] and
    /// `tcast-embedding`'s seeded tables, which each used to run that
    /// per-element `next_range` loop.
    ///
    /// The generator is counter-keyed: draw `i` after state `s` is
    /// `mix(s + (i + 1) * GAMMA)`, so no draw waits for the one before
    /// it and any slice of the stream is a pure function of the state,
    /// `first` and the length — disjoint slices can be filled on
    /// different threads. Where the host has AVX-512F and AVX-512DQ
    /// (detected at run time) it draws sixteen at a time; each lane runs
    /// the scalar draw's own integer steps and the same correctly rounded
    /// `f32` conversion, division, multiply and add, so both builds give
    /// the same bits.
    pub fn fill_range(&self, first: u64, out: &mut [f32], lo: f32, hi: f32) {
        let state = self.state.wrapping_add(GAMMA.wrapping_mul(first));
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512dq")
        {
            // SAFETY: both target features were detected on this host.
            return unsafe { fill_range_zmm(state, out, lo, hi) };
        }
        fill_range_portable(state, out, lo, hi);
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
    let mut m = Matrix::zeros(fan_in, fan_out);
    SplitMix64::new(seed).fill_range(0, m.as_mut_slice(), -bound, bound);
    m
}

/// The state increment of one draw (the golden-ratio "gamma").
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// The multipliers of SplitMix64's output function.
const MIX_1: u64 = 0xBF58_476D_1CE4_E5B9;
const MIX_2: u64 = 0x94D0_49BB_1331_11EB;

/// SplitMix64's output function of a state.
#[inline(always)]
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(MIX_1);
    z = (z ^ (z >> 27)).wrapping_mul(MIX_2);
    z ^ (z >> 31)
}

/// An output's top 24 bits as a uniform `f32` in `[0, 1)`: `k / 2^24`,
/// exact. 24 mantissa bits of uniformity is plenty for initialization.
#[inline(always)]
fn unit(z: u64) -> f32 {
    (z >> 40) as f32 / (1u64 << 24) as f32
}

/// [`SplitMix64::fill_range`] on any host: one independent draw per
/// element from the generator at `state`.
fn fill_range_portable(state: u64, out: &mut [f32], lo: f32, hi: f32) {
    let mut s = state;
    for v in out {
        s = s.wrapping_add(GAMMA);
        *v = lo + (hi - lo) * unit(mix(s));
    }
}

/// [`SplitMix64::fill_range`] sixteen draws at a time on `zmm` registers,
/// lane `l` of a block of sixteen holding draw `l` of it: the 64-bit
/// states in two vectors of eight (`vpmullq` is AVX-512DQ), each lane's
/// top 24 bits narrowed to one vector of sixteen `i32`, whose `f32`
/// conversion is exact as the scalar `u64` one is. The last `len % 16`
/// draws run the portable loop. Callers check both features first.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq")]
fn fill_range_zmm(state: u64, out: &mut [f32], lo: f32, hi: f32) {
    use std::arch::x86_64::*;

    // Draw `l` of the first block advances the state `l + 1` times.
    let first: [u64; 16] =
        std::array::from_fn(|l| state.wrapping_add(GAMMA.wrapping_mul(l as u64 + 1)));
    // SAFETY: each load reads eight of `first`'s sixteen `u64`s, unaligned.
    let (mut s0, mut s1) = unsafe {
        (
            _mm512_loadu_si512(first.as_ptr().cast()),
            _mm512_loadu_si512(first.as_ptr().add(8).cast()),
        )
    };
    let stride = _mm512_set1_epi64(GAMMA.wrapping_mul(16) as i64);
    let (lo_v, span) = (_mm512_set1_ps(lo), _mm512_set1_ps(hi - lo));
    let scale = _mm512_set1_ps((1u64 << 24) as f32);
    let done = (out.len() / 16 * 16) as u64;
    let mut blocks = out.chunks_exact_mut(16);
    for block in &mut blocks {
        let k0 = _mm512_cvtepi64_epi32(top24(s0));
        let k1 = _mm512_cvtepi64_epi32(top24(s1));
        let k = _mm512_inserti64x4::<1>(_mm512_castsi256_si512(k0), k1);
        let u = _mm512_div_ps(_mm512_cvtepi32_ps(k), scale);
        let v = _mm512_add_ps(lo_v, _mm512_mul_ps(span, u));
        // SAFETY: `block` is sixteen writable floats; the store is
        // unaligned.
        unsafe { _mm512_storeu_ps(block.as_mut_ptr(), v) };
        s0 = _mm512_add_epi64(s0, stride);
        s1 = _mm512_add_epi64(s1, stride);
    }
    let tail = blocks.into_remainder();
    fill_range_portable(state.wrapping_add(GAMMA.wrapping_mul(done)), tail, lo, hi);
}

/// `mix(s) >> 40` for eight states.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq")]
#[inline]
fn top24(s: std::arch::x86_64::__m512i) -> std::arch::x86_64::__m512i {
    use std::arch::x86_64::*;
    let m1 = _mm512_set1_epi64(MIX_1 as i64);
    let m2 = _mm512_set1_epi64(MIX_2 as i64);
    let z = _mm512_mullo_epi64(_mm512_xor_si512(s, _mm512_srli_epi64::<30>(s)), m1);
    let z = _mm512_mullo_epi64(_mm512_xor_si512(z, _mm512_srli_epi64::<27>(z)), m2);
    let z = _mm512_xor_si512(z, _mm512_srli_epi64::<31>(z));
    _mm512_srli_epi64::<40>(z)
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

    /// The `next_range` loop `fill_range` replaces, as bits.
    fn drawn(seed: u64, len: usize, lo: f32, hi: f32) -> Vec<u32> {
        let mut rng = SplitMix64::new(seed);
        (0..len).map(|_| rng.next_range(lo, hi).to_bits()).collect()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn fill_range_is_the_next_range_stream() {
        // Seeds whose states wrap past `u64::MAX` inside the fill, slices
        // from the start and from inside the stream, and lengths around
        // the sixteen-draw block.
        for seed in [0, 7, 0u64.wrapping_sub(GAMMA.wrapping_mul(5))] {
            let rng = SplitMix64::new(seed);
            for first in [0, 1, 3, 16, 17] {
                for len in [0, 1, 7, 15, 16, 17, 31, 32, 33, 1000] {
                    for (lo, hi) in [(-0.125, 0.125), (0.0, 1.0), (-3.5, 2.25)] {
                        let mut out = vec![f32::NAN; len];
                        rng.fill_range(first as u64, &mut out, lo, hi);
                        let want = &drawn(seed, first + len, lo, hi)[first..];
                        assert!(bits(&out) == want, "{seed} {first} {len}");
                    }
                }
            }
            assert_eq!(rng, SplitMix64::new(seed), "the generator moved");
        }
    }

    #[test]
    fn zmm_fill_matches_portable_fill() {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512dq")
        {
            let mut rng = SplitMix64::new(0x5EED);
            for len in (0..=70).chain([4093, 65_536 + 9]) {
                let seed = rng.next_u64();
                let (lo, hi) = (-rng.next_f32(), rng.next_f32());
                let mut portable = vec![f32::NAN; len];
                let mut zmm = vec![f32::NAN; len];
                fill_range_portable(seed, &mut portable, lo, hi);
                // SAFETY: both target features were detected above.
                unsafe { fill_range_zmm(seed, &mut zmm, lo, hi) };
                assert!(bits(&portable) == bits(&zmm), "len {len}");
            }
        }
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
