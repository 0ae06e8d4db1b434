//! Popularity distributions over embedding-table rows.
//!
//! The gradient-coalescing behaviour the paper analyzes (Fig. 5) is
//! entirely a function of *how often distinct lookups collide*, i.e. the
//! popularity distribution of table rows. Two models cover the datasets:
//! uniform (the paper's "Random") and truncated Zipf (everything real).

use std::sync::Arc;
use tcast_tensor::SplitMix64;

/// A popularity model over `rows` table entries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Popularity {
    /// Every row equally likely — the paper's "Random" dataset.
    Uniform {
        /// Table cardinality.
        rows: usize,
    },
    /// Truncated Zipf: row of popularity-rank `k` (1-based) has weight
    /// `1 / k^exponent`. Larger exponents mean stronger skew (more
    /// coalescing).
    Zipf {
        /// Table cardinality.
        rows: usize,
        /// Zipf exponent `s > 0`.
        exponent: f64,
    },
}

impl Popularity {
    /// Truncated Zipf at `exponent`, degrading to [`Popularity::Uniform`]
    /// when `exponent <= 0` — the "0 means no skew" convention every
    /// config knob in the workspace uses (embedding-table lookup skew,
    /// serving hot-query skew).
    pub fn zipf_or_uniform(rows: usize, exponent: f64) -> Popularity {
        if exponent <= 0.0 {
            Popularity::Uniform { rows }
        } else {
            Popularity::Zipf { rows, exponent }
        }
    }

    /// Table cardinality.
    pub fn rows(&self) -> usize {
        match *self {
            Popularity::Uniform { rows } | Popularity::Zipf { rows, .. } => rows,
        }
    }

    /// Returns a copy with a different cardinality (used to scale presets
    /// down for fast tests without changing the skew).
    pub fn with_rows(&self, rows: usize) -> Popularity {
        match *self {
            Popularity::Uniform { .. } => Popularity::Uniform { rows },
            Popularity::Zipf { exponent, .. } => Popularity::Zipf { rows, exponent },
        }
    }

    /// The probability of the rank-`k` most popular row (0-based rank).
    ///
    /// This is the "probability function that quantifies an embedding
    /// table entry's likelihood of lookup" plotted in Fig. 5a.
    ///
    /// # Panics
    ///
    /// Panics if `rank >= rows` or the table is empty.
    pub fn rank_probability(&self, rank: usize) -> f64 {
        assert!(rank < self.rows(), "rank {rank} out of range");
        match *self {
            Popularity::Uniform { rows } => 1.0 / rows as f64,
            Popularity::Zipf { rows, exponent } => {
                let h: f64 = harmonic(rows, exponent);
                ((rank + 1) as f64).powf(-exponent) / h
            }
        }
    }

    /// Builds a sampler for this distribution.
    ///
    /// # Panics
    ///
    /// Panics if the table is empty, or if a Zipf exponent gives
    /// non-finite weights: a NaN exponent, or one so negative that
    /// `rows^-exponent` overflows.
    pub fn sampler(&self) -> CdfSampler {
        CdfSampler::new(self)
    }
}

/// Generalized harmonic number `H(n, s) = sum_{k=1..n} k^-s`.
fn harmonic(n: usize, s: f64) -> f64 {
    (1..=n).map(|k| (k as f64).powf(-s)).sum()
}

/// Bits of the uniform variate a draw compares:
/// [`SplitMix64::next_f32`] returns `k / 2^24` for an integer `k < 2^24`.
const UNIT_BITS: u32 = 24;
/// Low bits of `k` one guide bucket spans: `2^16` buckets of `2^8`.
const BUCKET_BITS: u32 = 8;
/// Zipf draws [`CdfSampler::sample_into`] reads the guide for at once.
const BLOCK: usize = 32;

/// Exact inverse-CDF sampler, deterministic given the RNG.
///
/// A Zipf draw returns the first row `i` with `cdf_i >= u`, where `cdf`
/// is the normalized running sum of the weights in `f64` and
/// `u = rng.next_f32()`. Because `u` is always `k / 2^24` for an integer
/// `k < 2^24`, and scaling by `2^24` is exact, `cdf_i < u` holds exactly
/// when `T_i <= k` for the integer threshold `T_i = floor(cdf_i * 2^24) + 1`.
/// The sampler keeps only those `u32` thresholds (the `f64` CDF is never
/// stored) and a guide table: `guide[b]` counts the
/// thresholds `<= b * 2^8`, so a draw binary-searches only the
/// thresholds of its bucket `k >> 8`: `rows / 2^16` of them on average
/// (6 at 400k rows), none or one in the head, at most 118 in the far
/// tail of a 400k-row Zipf(1.05). Every draw is therefore the row the
/// full `f64` binary search would return, at a cost that barely grows
/// with `rows`.
///
/// Construction is O(rows) (two `powf` per row); the arrays sit behind
/// `Arc`s, so a clone shares them in O(1).
///
/// Sampled ids are *popularity ranks* (0 = most popular). Real tables
/// store hot rows at arbitrary ids; since row placement does not affect
/// any statistic we model (collision rates, traffic, timing are
/// placement-independent under the paper's interleaving), rank ids are
/// used directly.
#[derive(Debug, Clone)]
pub struct CdfSampler {
    /// `T_i` per row, nondecreasing; empty for a uniform distribution.
    thresholds: Arc<[u32]>,
    /// `2^16 + 1` bucket starts into `thresholds`; empty when uniform.
    guide: Arc<[u32]>,
    uniform_rows: Option<usize>,
}

impl CdfSampler {
    /// Builds the sampler for a distribution.
    ///
    /// # Panics
    ///
    /// Panics if the distribution has zero rows, or if a Zipf exponent
    /// gives non-finite weights (see [`Popularity::sampler`]).
    pub fn new(pop: &Popularity) -> Self {
        let rows = pop.rows();
        assert!(rows > 0, "popularity model must have at least one row");
        match *pop {
            Popularity::Uniform { rows } => Self {
                thresholds: Arc::from(Vec::new()),
                guide: Arc::from(Vec::new()),
                uniform_rows: Some(rows),
            },
            Popularity::Zipf { rows, exponent } => {
                // Two passes over the weights, the second recomputing the
                // first's running sums bit for bit, rather than one that
                // stores an 8-byte-a-row CDF only to free it.
                let weight = |k: usize| (k as f64).powf(-exponent);
                let total = (1..=rows).fold(0.0f64, |acc, k| acc + weight(k));
                assert!(
                    total.is_finite(),
                    "zipf exponent {exponent} gives non-finite weights"
                );
                let scale = f64::from(1u32 << UNIT_BITS);
                let mut acc = 0.0f64;
                let thresholds: Arc<[u32]> = (1..=rows)
                    .map(|k| {
                        acc += weight(k);
                        ((acc / total) * scale).floor() as u32 + 1
                    })
                    .collect();
                let buckets = 1usize << (UNIT_BITS - BUCKET_BITS);
                let mut guide = Vec::with_capacity(buckets + 1);
                let mut below = 0;
                for b in 0..=buckets {
                    let edge = (b << BUCKET_BITS) as u32;
                    while below < rows && thresholds[below] <= edge {
                        below += 1;
                    }
                    guide.push(below as u32);
                }
                Self {
                    thresholds,
                    guide: guide.into(),
                    uniform_rows: None,
                }
            }
        }
    }

    /// Number of rows this sampler draws from.
    pub fn rows(&self) -> usize {
        self.uniform_rows.unwrap_or(self.thresholds.len())
    }

    /// Draws one row id.
    pub fn sample(&self, rng: &mut SplitMix64) -> u32 {
        if let Some(rows) = self.uniform_rows {
            return rng.next_below(rows as u64) as u32;
        }
        self.zipf_row(unit_k(rng))
    }

    /// Draws `count` row ids.
    pub fn sample_many(&self, count: usize, rng: &mut SplitMix64) -> Vec<u32> {
        let mut out = Vec::with_capacity(count);
        self.sample_into(count, rng, &mut out);
        out
    }

    /// Appends `count` draws to `out`: what `count` calls of
    /// [`CdfSampler::sample`] draw, in order. A Zipf sampler takes `k` and
    /// its guide bucket for a block of draws before searching any of
    /// them, so the block's independent guide loads overlap instead of
    /// each waiting behind the previous search.
    pub(crate) fn sample_into(&self, count: usize, rng: &mut SplitMix64, out: &mut Vec<u32>) {
        if self.uniform_rows.is_some() {
            out.extend((0..count).map(|_| self.sample(rng)));
            return;
        }
        let mut block = [(0u32, 0u32, 0u32); BLOCK];
        let mut left = count;
        while left > 0 {
            let n = left.min(BLOCK);
            for slot in &mut block[..n] {
                let k = unit_k(rng);
                let b = (k >> BUCKET_BITS) as usize;
                *slot = (k, self.guide[b], self.guide[b + 1]);
            }
            out.extend(block[..n].iter().map(|&(k, lo, hi)| self.search(k, lo, hi)));
            left -= n;
        }
    }

    /// The first row whose threshold exceeds `k` (the last row if none):
    /// the row `u = k / 2^24` draws.
    fn zipf_row(&self, k: u32) -> u32 {
        let b = (k >> BUCKET_BITS) as usize;
        self.search(k, self.guide[b], self.guide[b + 1])
    }

    /// [`CdfSampler::zipf_row`] given `k`'s guide bucket `lo..hi`.
    fn search(&self, k: u32, lo: u32, hi: u32) -> u32 {
        let (lo, hi) = (lo as usize, hi as usize);
        let row = lo + self.thresholds[lo..hi].partition_point(|&t| t <= k);
        row.min(self.thresholds.len() - 1) as u32
    }

    /// Whether `self` and `other` draw through the same shared arrays.
    #[cfg(test)]
    pub(crate) fn shares_tables_with(&self, other: &CdfSampler) -> bool {
        Arc::ptr_eq(&self.thresholds, &other.thresholds)
    }
}

/// The `k` of `rng.next_f32() == k / 2^24`: exact, since scaling by
/// `2^24` is.
fn unit_k(rng: &mut SplitMix64) -> u32 {
    (rng.next_f32() * (1u32 << UNIT_BITS) as f32) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_or_uniform_honors_the_zero_convention() {
        assert_eq!(
            Popularity::zipf_or_uniform(10, 0.0),
            Popularity::Uniform { rows: 10 }
        );
        assert_eq!(
            Popularity::zipf_or_uniform(10, -1.0),
            Popularity::Uniform { rows: 10 }
        );
        assert_eq!(
            Popularity::zipf_or_uniform(10, 1.05),
            Popularity::Zipf {
                rows: 10,
                exponent: 1.05
            }
        );
    }

    #[test]
    fn uniform_rank_probability_is_flat() {
        let p = Popularity::Uniform { rows: 100 };
        assert!((p.rank_probability(0) - 0.01).abs() < 1e-12);
        assert_eq!(p.rank_probability(0), p.rank_probability(99));
    }

    #[test]
    fn zipf_probabilities_decrease_and_sum_to_one() {
        let p = Popularity::Zipf {
            rows: 1000,
            exponent: 1.1,
        };
        let mut sum = 0.0;
        let mut prev = f64::INFINITY;
        for k in 0..1000 {
            let q = p.rank_probability(k);
            assert!(q <= prev);
            prev = q;
            sum += q;
        }
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn with_rows_preserves_family() {
        let z = Popularity::Zipf {
            rows: 10,
            exponent: 0.8,
        };
        assert_eq!(
            z.with_rows(99),
            Popularity::Zipf {
                rows: 99,
                exponent: 0.8
            }
        );
        let u = Popularity::Uniform { rows: 10 };
        assert_eq!(u.with_rows(99), Popularity::Uniform { rows: 99 });
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rank_probability_bounds_checked() {
        Popularity::Uniform { rows: 5 }.rank_probability(5);
    }

    #[test]
    fn uniform_sampler_covers_range() {
        let s = Popularity::Uniform { rows: 16 }.sampler();
        let mut rng = SplitMix64::new(1);
        let draws = s.sample_many(4000, &mut rng);
        assert!(draws.iter().all(|&d| d < 16));
        let mut seen = [false; 16];
        for d in draws {
            seen[d as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "4000 draws must hit all 16 rows");
    }

    #[test]
    fn zipf_sampler_matches_analytic_head_probability() {
        let pop = Popularity::Zipf {
            rows: 1000,
            exponent: 1.0,
        };
        let s = pop.sampler();
        let mut rng = SplitMix64::new(2);
        let n = 200_000;
        let draws = s.sample_many(n, &mut rng);
        let head = draws.iter().filter(|&&d| d == 0).count() as f64 / n as f64;
        let expect = pop.rank_probability(0);
        assert!(
            (head - expect).abs() < 0.01,
            "empirical {head} vs analytic {expect}"
        );
    }

    #[test]
    fn zipf_skew_increases_collisions() {
        let mut rng = SplitMix64::new(3);
        let mut unique = |e: f64| {
            let s = Popularity::Zipf {
                rows: 10_000,
                exponent: e,
            }
            .sampler();
            let mut d = s.sample_many(5000, &mut rng);
            d.sort_unstable();
            d.dedup();
            d.len()
        };
        let weak = unique(0.5);
        let strong = unique(1.5);
        assert!(
            strong < weak,
            "stronger skew must produce fewer unique ids ({strong} !< {weak})"
        );
    }

    #[test]
    fn sampler_is_deterministic_per_seed() {
        let s = Popularity::Zipf {
            rows: 100,
            exponent: 1.0,
        }
        .sampler();
        let a = s.sample_many(50, &mut SplitMix64::new(7));
        let b = s.sample_many(50, &mut SplitMix64::new(7));
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "at least one row")]
    fn empty_distribution_panics() {
        Popularity::Uniform { rows: 0 }.sampler();
    }

    /// The `f64` CDF the thresholds are cut from, stored as the binary
    /// search they replace stored it.
    fn oracle_cdf(rows: usize, exponent: f64) -> Vec<f64> {
        let mut cdf = Vec::with_capacity(rows);
        let mut acc = 0.0f64;
        for k in 1..=rows {
            acc += (k as f64).powf(-exponent);
            cdf.push(acc);
        }
        cdf.iter().map(|c| c / acc).collect()
    }

    /// The draw the thresholds replace: the first row with `cdf >= u`.
    fn oracle_row(cdf: &[f64], u: f64) -> u32 {
        cdf.partition_point(|&c| c < u).min(cdf.len() - 1) as u32
    }

    #[test]
    fn zipf_draws_equal_the_f64_binary_search_for_every_k() {
        // Both draws are nondecreasing in `k`, and the sampler's only
        // steps are at `k = T_i`: agreeing on both sides of every step and
        // at both ends means agreeing on all 2^24 values of `k`.
        let unit = f64::from(1u32 << UNIT_BITS);
        let top = (1u32 << UNIT_BITS) - 1;
        for rows in [1, 2, 17, 10_000, 400_000] {
            for exponent in [0.3, 1.05, 3.0, 8.0, f64::INFINITY] {
                let s = Popularity::Zipf { rows, exponent }.sampler();
                let cdf = oracle_cdf(rows, exponent);
                let check = |k: u32| {
                    let want = oracle_row(&cdf, f64::from(k) / unit);
                    assert_eq!(s.zipf_row(k), want, "{rows} rows ^{exponent}, k {k}");
                };
                check(0);
                check(top);
                for &t in s.thresholds.iter() {
                    for k in [t - 1, t] {
                        if k <= top {
                            check(k);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn zipf_draws_equal_the_f64_binary_search_at_5m_rows() {
        let rows = 5_000_000;
        let s = Popularity::Zipf {
            rows,
            exponent: 1.05,
        }
        .sampler();
        let cdf = oracle_cdf(rows, 1.05);
        let (mut rng, mut oracle_rng) = (SplitMix64::new(12), SplitMix64::new(12));
        // A count no whole number of blocks, then single draws.
        for got in s.sample_many(100_003, &mut rng) {
            assert_eq!(got, oracle_row(&cdf, f64::from(oracle_rng.next_f32())));
        }
        for _ in 0..1_000 {
            let want = oracle_row(&cdf, f64::from(oracle_rng.next_f32()));
            assert_eq!(s.sample(&mut rng), want);
        }
    }

    #[test]
    fn a_clone_shares_its_arrays() {
        let s = Popularity::Zipf {
            rows: 1000,
            exponent: 1.05,
        }
        .sampler();
        let c = s.clone();
        assert!(Arc::ptr_eq(&s.thresholds, &c.thresholds));
        assert!(Arc::ptr_eq(&s.guide, &c.guide));
        let rebuilt = Popularity::Zipf {
            rows: 1000,
            exponent: 1.05,
        }
        .sampler();
        assert!(!s.shares_tables_with(&rebuilt));
    }

    #[test]
    #[should_panic(expected = "non-finite weights")]
    fn nan_exponent_panics() {
        Popularity::Zipf {
            rows: 10,
            exponent: f64::NAN,
        }
        .sampler();
    }

    #[test]
    #[should_panic(expected = "non-finite weights")]
    fn overflowing_weights_panic() {
        Popularity::Zipf {
            rows: 10,
            exponent: -1000.0,
        }
        .sampler();
    }

    #[test]
    fn single_row_always_sampled() {
        let s = Popularity::Zipf {
            rows: 1,
            exponent: 2.0,
        }
        .sampler();
        let mut rng = SplitMix64::new(4);
        assert!(s.sample_many(100, &mut rng).iter().all(|&d| d == 0));
    }
}
