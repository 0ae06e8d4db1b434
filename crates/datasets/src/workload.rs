//! Per-table workload specification and index-array generation.

use crate::popularity::{CdfSampler, Popularity};
use tcast_embedding::IndexArray;
use tcast_tensor::SplitMix64;

/// The workload of one embedding table: its popularity model and the
/// pooling factor (lookups per sample).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TableWorkload {
    popularity: Popularity,
    pooling: usize,
}

impl TableWorkload {
    /// Creates a workload spec.
    ///
    /// # Panics
    ///
    /// Panics if `pooling == 0` (every sample must gather at least once).
    pub fn new(popularity: Popularity, pooling: usize) -> Self {
        assert!(pooling > 0, "pooling factor must be positive");
        Self {
            popularity,
            pooling,
        }
    }

    /// The table's popularity model.
    pub fn popularity(&self) -> Popularity {
        self.popularity
    }

    /// Lookups per sample.
    pub fn pooling(&self) -> usize {
        self.pooling
    }

    /// Table cardinality.
    pub fn rows(&self) -> usize {
        self.popularity.rows()
    }

    /// Returns a copy with a scaled-down/up cardinality (same skew).
    pub fn with_rows(&self, rows: usize) -> TableWorkload {
        TableWorkload {
            popularity: self.popularity.with_rows(rows),
            pooling: self.pooling,
        }
    }

    /// Returns a copy with a different pooling factor.
    ///
    /// # Panics
    ///
    /// Panics if `pooling == 0`.
    pub fn with_pooling(&self, pooling: usize) -> TableWorkload {
        TableWorkload::new(self.popularity, pooling)
    }

    /// Builds a seeded generator for this workload.
    pub fn generator(&self, seed: u64) -> WorkloadGenerator {
        WorkloadGenerator::new(*self, seed)
    }
}

/// A seeded stream of mini-batch index arrays for one table.
///
/// Successive calls to [`WorkloadGenerator::next_batch`] advance the RNG,
/// modelling a training stream; two generators with equal seeds produce
/// identical streams (which is what lets the baseline and casted training
/// runs see the same data).
#[derive(Debug, Clone)]
pub struct WorkloadGenerator {
    spec: TableWorkload,
    sampler: CdfSampler,
    rng: SplitMix64,
}

impl WorkloadGenerator {
    /// Creates a generator with the given seed.
    pub fn new(spec: TableWorkload, seed: u64) -> Self {
        Self::with_sampler(spec, spec.popularity().sampler(), seed)
    }

    /// A generator drawing through an already built `sampler` for
    /// `spec`'s popularity, so tables with one popularity share one set
    /// of sampler arrays.
    pub(crate) fn with_sampler(spec: TableWorkload, sampler: CdfSampler, seed: u64) -> Self {
        debug_assert_eq!(sampler.rows(), spec.rows());
        Self {
            spec,
            sampler,
            rng: SplitMix64::new(seed),
        }
    }

    /// The popularity sampler this generator draws through.
    #[cfg(test)]
    pub(crate) fn sampler(&self) -> &CdfSampler {
        &self.sampler
    }

    /// The underlying workload spec.
    pub fn spec(&self) -> TableWorkload {
        self.spec
    }

    /// Restarts the generator's RNG at `seed`, keeping the precomputed
    /// popularity sampler. `g.reseed(s)` followed by a batch draws
    /// exactly what `spec.generator(s)` would draw. Building a generator
    /// builds its sampler (two `powf` per row for Zipf tables) and
    /// allocates, so a producer that needs a fresh stream per batch or
    /// per query, such as [`crate::SyntheticCtr`], reseeds one cached
    /// generator instead.
    pub fn reseed(&mut self, seed: u64) {
        self.rng = SplitMix64::new(seed);
    }

    /// Generates the next mini-batch's index array
    /// (`batch * pooling` lookups, `batch` outputs).
    pub fn next_batch(&mut self, batch: usize) -> IndexArray {
        let mut out =
            IndexArray::from_pairs(Vec::new(), Vec::new(), 0).expect("empty index array is valid");
        self.next_batch_into(batch, &mut out);
        out
    }

    /// [`WorkloadGenerator::next_batch`] into a recycled [`IndexArray`],
    /// reusing its pair buffers — the per-table refill behind a
    /// `BatchSource` free-list's zero-allocation steady state. Draws the
    /// same RNG sequence as `next_batch`, so mixing the two forms keeps
    /// the stream bit-identical.
    pub fn next_batch_into(&mut self, batch: usize, out: &mut IndexArray) {
        let pooling = self.spec.pooling();
        let sampler = &self.sampler;
        let rng = &mut self.rng;
        out.refill(batch, |src, dst| {
            src.reserve(batch * pooling);
            dst.reserve(batch * pooling);
            sampler.sample_into(batch * pooling, rng, src);
            for b in 0..batch {
                dst.extend(std::iter::repeat_n(b as u32, pooling));
            }
        })
        .expect("generated pairs are in range");
    }

    /// Generates a *multi-hot* mini-batch: each sample draws a uniform
    /// pooling count in `[1, 2 * pooling)` (mean ~= the spec's pooling
    /// factor), modelling variable-length categorical features such as
    /// Criteo's multi-valued fields and Taobao behaviour histories.
    pub fn next_batch_multihot(&mut self, batch: usize) -> IndexArray {
        let pooling = self.spec.pooling();
        let mut src = Vec::with_capacity(batch * pooling);
        let mut dst = Vec::with_capacity(batch * pooling);
        for b in 0..batch {
            let count = 1 + self.rng.next_below(2 * pooling as u64 - 1) as usize;
            for _ in 0..count {
                src.push(self.sampler.sample(&mut self.rng));
                dst.push(b as u32);
            }
        }
        IndexArray::from_pairs(src, dst, batch).expect("generated pairs are in range")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> TableWorkload {
        TableWorkload::new(
            Popularity::Zipf {
                rows: 5000,
                exponent: 1.0,
            },
            4,
        )
    }

    #[test]
    #[should_panic(expected = "pooling factor must be positive")]
    fn zero_pooling_rejected() {
        TableWorkload::new(Popularity::Uniform { rows: 10 }, 0);
    }

    #[test]
    fn next_batch_shape() {
        let mut gen = spec().generator(1);
        let idx = gen.next_batch(64);
        assert_eq!(idx.num_outputs(), 64);
        assert_eq!(idx.len(), 64 * 4);
        assert!(idx.max_src().unwrap() < 5000);
        // dst slots are 0..64, each appearing `pooling` times.
        for b in 0..64u32 {
            assert_eq!(idx.dst().iter().filter(|&&d| d == b).count(), 4);
        }
    }

    #[test]
    fn generators_with_same_seed_agree() {
        let mut a = spec().generator(9);
        let mut b = spec().generator(9);
        assert_eq!(a.next_batch(32), b.next_batch(32));
        assert_eq!(a.next_batch(32), b.next_batch(32));
    }

    #[test]
    fn next_batch_into_matches_allocating_form() {
        let mut a = spec().generator(17);
        let mut b = spec().generator(17);
        let mut recycled = IndexArray::from_pairs(Vec::new(), Vec::new(), 0).unwrap();
        for _ in 0..3 {
            b.next_batch_into(32, &mut recycled);
            assert_eq!(a.next_batch(32), recycled);
        }
    }

    #[test]
    fn reseeding_matches_a_fresh_generator() {
        // The per-batch refill path reseeds one cached generator instead
        // of rebuilding the CDF sampler; the streams must be identical.
        let mut cached = spec().generator(0);
        for seed in [9u64, 3, 7, 3] {
            let mut fresh = spec().generator(seed);
            cached.reseed(seed);
            assert_eq!(cached.next_batch(32), fresh.next_batch(32), "seed {seed}");
        }
    }

    #[test]
    fn successive_batches_differ() {
        let mut gen = spec().generator(3);
        assert_ne!(gen.next_batch(32), gen.next_batch(32));
    }

    #[test]
    fn multihot_batches_have_variable_pooling_with_right_mean() {
        let mut gen = spec().generator(5);
        let idx = gen.next_batch_multihot(512);
        assert_eq!(idx.num_outputs(), 512);
        // Every sample has at least one lookup.
        for b in 0..512u32 {
            assert!(idx.dst().contains(&b), "sample {b} empty");
        }
        // Counts vary (not all equal to the nominal pooling factor).
        let counts: Vec<usize> = (0..512u32)
            .map(|b| idx.dst().iter().filter(|&&d| d == b).count())
            .collect();
        assert!(counts.iter().any(|&c| c != counts[0]));
        // Mean lands near the spec's pooling factor (4): E = (1 + 7)/2 = 4.
        let mean = counts.iter().sum::<usize>() as f64 / counts.len() as f64;
        assert!((mean - 4.0).abs() < 0.5, "mean pooling {mean}");
        assert!(idx.max_src().unwrap() < 5000);
    }

    #[test]
    fn multihot_is_seeded() {
        let a = spec().generator(9).next_batch_multihot(64);
        let b = spec().generator(9).next_batch_multihot(64);
        assert_eq!(a, b);
    }

    #[test]
    fn with_rows_and_pooling_rescale() {
        let s = spec().with_rows(100).with_pooling(2);
        assert_eq!(s.rows(), 100);
        assert_eq!(s.pooling(), 2);
        let idx = s.generator(0).next_batch(8);
        assert_eq!(idx.len(), 16);
        assert!(idx.max_src().unwrap() < 100);
    }
}
