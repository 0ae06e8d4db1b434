//! Synthetic CTR training data with a *planted* model.
//!
//! End-to-end training tests need data whose loss actually decreases, so
//! the generator plants a ground-truth logistic model: each table row
//! carries a hidden affinity score, each dense feature a hidden weight,
//! and the click label is drawn from the sigmoid of their sum. A DLRM
//! model trained on this stream can (and in tests, must) beat the
//! all-zeros predictor.

use crate::popularity::{CdfSampler, Popularity};
use crate::workload::{TableWorkload, WorkloadGenerator};
use std::sync::Arc;
use tcast_embedding::IndexArray;
use tcast_tensor::{Matrix, SplitMix64};

/// One mini-batch of synthetic CTR data.
#[derive(Debug, Clone, PartialEq)]
pub struct CtrBatch {
    /// Dense (continuous) features, `batch x dense_dim`.
    pub dense: Matrix,
    /// Per-table index arrays, each with `batch` outputs.
    ///
    /// Shared behind an `Arc` so consumers that hold the arrays beyond
    /// the step — a training loop keeps the next batch queued while its
    /// lane casts and gathers it — bump a refcount instead of
    /// deep-cloning each table's arrays per step.
    pub indices: Arc<[IndexArray]>,
    /// Click labels in {0.0, 1.0}, `batch x 1`.
    pub labels: Matrix,
}

impl Default for CtrBatch {
    /// An empty shell ready to be filled by a `*_into` producer — the
    /// seed buffer a `BatchSource` free-list starts from.
    fn default() -> Self {
        Self {
            dense: Matrix::default(),
            indices: Arc::from(Vec::new()),
            labels: Matrix::default(),
        }
    }
}

impl CtrBatch {
    /// The mini-batch size.
    pub fn batch_size(&self) -> usize {
        self.labels.rows()
    }
}

/// Seeded generator of synthetic CTR batches over a set of tables.
#[derive(Debug, Clone)]
pub struct SyntheticCtr {
    tables: Vec<TableWorkload>,
    dense_dim: usize,
    dense_weights: Vec<f32>,
    row_affinity_seeds: Vec<u64>,
    rng: SplitMix64,
    /// Per-batch table seeds, drawn before the generators run; buffered
    /// here so the steady-state refill path performs no allocation.
    table_seed_scratch: Vec<u64>,
    /// One cached generator per table, reseeded each batch: a fresh
    /// generator would rebuild its sampler (two `powf` per row for Zipf
    /// tables) and allocate, breaking the free-list's allocation-free
    /// steady state. Reseeding draws the identical stream. Tables with
    /// equal popularity share one sampler's arrays.
    generators: Vec<WorkloadGenerator>,
    /// Per-sample planted logits and per-sample affinity accumulators,
    /// buffered so the refill path stays allocation-free.
    logit_scratch: Vec<f32>,
    affinity_scratch: Vec<f32>,
    count_scratch: Vec<u32>,
}

impl SyntheticCtr {
    /// Creates a generator for `tables` with `dense_dim` continuous
    /// features, fully determined by `seed`.
    pub fn new(tables: Vec<TableWorkload>, dense_dim: usize, seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed);
        let dense_weights = (0..dense_dim).map(|_| rng.next_range(-1.0, 1.0)).collect();
        let row_affinity_seeds = (0..tables.len()).map(|_| rng.next_u64()).collect();
        let mut samplers: Vec<(Popularity, CdfSampler)> = Vec::new();
        let generators = tables
            .iter()
            .map(|t| {
                let pop = t.popularity();
                let sampler = match samplers.iter().find(|(p, _)| *p == pop) {
                    Some((_, s)) => s.clone(),
                    None => {
                        let s = pop.sampler();
                        samplers.push((pop, s.clone()));
                        s
                    }
                };
                WorkloadGenerator::with_sampler(*t, sampler, 0)
            })
            .collect();
        Self {
            tables,
            dense_dim,
            dense_weights,
            row_affinity_seeds,
            rng,
            table_seed_scratch: Vec::new(),
            generators,
            logit_scratch: Vec::new(),
            affinity_scratch: Vec::new(),
            count_scratch: Vec::new(),
        }
    }

    /// Number of embedding tables.
    pub fn num_tables(&self) -> usize {
        self.tables.len()
    }

    /// Dense feature dimensionality.
    pub fn dense_dim(&self) -> usize {
        self.dense_dim
    }

    /// The stream position: everything a batch draws — dense features,
    /// per-table generator seeds, labels — comes from the one `rng`
    /// (generators are reseeded from it each batch; weights and affinity
    /// seeds are fixed at construction), so its state alone pins the
    /// position.
    pub fn rng_state(&self) -> u64 {
        self.rng.state()
    }

    /// Rewinds/advances the stream to a position captured by
    /// [`SyntheticCtr::rng_state`] on a generator built with the same
    /// tables, `dense_dim` and seed.
    pub fn set_rng_state(&mut self, state: u64) {
        self.rng = SplitMix64::new(state);
    }

    /// Generates the next mini-batch.
    pub fn next_batch(&mut self, batch: usize) -> CtrBatch {
        let mut out = CtrBatch::default();
        self.next_batch_into(batch, &mut out);
        out
    }

    /// [`SyntheticCtr::next_batch`] into a recycled [`CtrBatch`]: dense
    /// and label matrices are `zero_into`-recycled, and each table's
    /// index array is refilled in place whenever the batch's `indices`
    /// `Arc` is no longer shared (the steady state once the casting
    /// pipeline has dropped its submission share). Draws the same RNG
    /// sequence as `next_batch`, so recycled and fresh batches come from
    /// one bit-identical stream.
    pub fn next_batch_into(&mut self, batch: usize, out: &mut CtrBatch) {
        // Dense features ~ U(-1, 1).
        out.dense.zero_into(batch, self.dense_dim);
        for v in out.dense.as_mut_slice() {
            *v = self.rng.next_range(-1.0, 1.0);
        }
        // Sparse lookups per table: refill the recycled arrays if this
        // batch holds the only reference, else allocate a fresh set.
        self.table_seed_scratch.clear();
        for _ in 0..self.tables.len() {
            self.table_seed_scratch.push(self.rng.next_u64());
        }
        let recyclable = match Arc::get_mut(&mut out.indices) {
            Some(arrays) if arrays.len() == self.tables.len() => {
                for ((g, &s), index) in self
                    .generators
                    .iter_mut()
                    .zip(self.table_seed_scratch.iter())
                    .zip(arrays.iter_mut())
                {
                    g.reseed(s);
                    g.next_batch_into(batch, index);
                }
                true
            }
            _ => false,
        };
        if !recyclable {
            let indices: Vec<IndexArray> = self
                .generators
                .iter_mut()
                .zip(self.table_seed_scratch.iter())
                .map(|(g, &s)| {
                    g.reseed(s);
                    g.next_batch(batch)
                })
                .collect();
            out.indices = indices.into();
        }
        // Planted logit: dense part + mean affinity of looked-up rows.
        // Accumulated in one pass over each table's pairs (rather than
        // rescanning the whole index array per sample, which made
        // generation O(batch^2 x pooling) and too slow to ever hide
        // behind training at benchmark batch sizes). Per sample, the
        // additions happen in exactly the old order — dense dot first,
        // then each table's pairs in index order, tables in order — and
        // the label RNG draws once per sample in sample order, so the
        // stream is bit-identical to the quadratic form.
        out.labels.zero_into(batch, 1);
        self.logit_scratch.clear();
        for b in 0..batch {
            self.logit_scratch.push(
                out.dense
                    .row(b)
                    .iter()
                    .zip(self.dense_weights.iter())
                    .map(|(x, w)| x * w)
                    .sum(),
            );
        }
        for (t, index) in out.indices.iter().enumerate() {
            self.affinity_scratch.clear();
            self.affinity_scratch.resize(batch, 0.0);
            self.count_scratch.clear();
            self.count_scratch.resize(batch, 0);
            let table_seed = self.row_affinity_seeds[t];
            for (src, dst) in index.iter() {
                self.affinity_scratch[dst as usize] += affinity_of(table_seed, src);
                self.count_scratch[dst as usize] += 1;
            }
            for b in 0..batch {
                if self.count_scratch[b] > 0 {
                    self.logit_scratch[b] +=
                        self.affinity_scratch[b] / self.count_scratch[b] as f32;
                }
            }
        }
        for b in 0..batch {
            let p = 1.0 / (1.0 + (-2.0 * self.logit_scratch[b]).exp());
            out.labels.row_mut(b)[0] = if self.rng.next_f32() < p { 1.0 } else { 0.0 };
        }
    }
}

/// The planted model's hidden per-row affinity: a deterministic hash of
/// `(table seed, row)` mapped into `[-0.5, 0.5]`. Free-standing so the
/// refill path can call it while holding its scratch borrows.
fn affinity_of(table_seed: u64, row: u32) -> f32 {
    let mut h = SplitMix64::new(table_seed ^ (row as u64).wrapping_mul(0x9E3779B97F4A7C15));
    h.next_range(-0.5, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gen() -> SyntheticCtr {
        let tables = vec![
            TableWorkload::new(
                Popularity::Zipf {
                    rows: 500,
                    exponent: 1.0,
                },
                3,
            ),
            TableWorkload::new(Popularity::Uniform { rows: 200 }, 2),
        ];
        SyntheticCtr::new(tables, 8, 42)
    }

    /// How many distinct sets of sampler arrays `g`'s tables draw from.
    fn distinct_samplers(g: &SyntheticCtr) -> usize {
        let gens = &g.generators;
        (0..gens.len())
            .filter(|&i| {
                !gens[..i]
                    .iter()
                    .any(|e| e.sampler().shares_tables_with(gens[i].sampler()))
            })
            .count()
    }

    #[test]
    fn tables_with_one_popularity_share_one_sampler() {
        let rm1 = TableWorkload::new(
            Popularity::Zipf {
                rows: 1000,
                exponent: 1.05,
            },
            8,
        );
        assert_eq!(
            distinct_samplers(&SyntheticCtr::new(vec![rm1; 10], 4, 1)),
            1
        );
        let shared = TableWorkload::new(
            Popularity::Zipf {
                rows: 300,
                exponent: 0.5,
            },
            2,
        );
        let mixed = vec![
            TableWorkload::new(Popularity::Uniform { rows: 50 }, 1),
            rm1,
            shared,
            TableWorkload::new(Popularity::Uniform { rows: 50 }, 4),
            shared.with_pooling(3),
            rm1.with_rows(999),
        ];
        // Uniform(50), Zipf(1000, 1.05), Zipf(300, 0.5), Zipf(999, 1.05).
        assert_eq!(distinct_samplers(&SyntheticCtr::new(mixed, 4, 1)), 4);
    }

    #[test]
    fn batch_shapes_are_consistent() {
        let mut g = gen();
        let b = g.next_batch(32);
        assert_eq!(b.dense.shape(), (32, 8));
        assert_eq!(b.labels.shape(), (32, 1));
        assert_eq!(b.indices.len(), 2);
        assert_eq!(b.indices[0].num_outputs(), 32);
        assert_eq!(b.indices[0].len(), 96); // pooling 3
        assert_eq!(b.indices[1].len(), 64); // pooling 2
    }

    #[test]
    fn labels_are_binary_and_mixed() {
        let mut g = gen();
        let b = g.next_batch(512);
        let ones = b.labels.as_slice().iter().filter(|&&v| v == 1.0).count();
        assert!(b.labels.as_slice().iter().all(|&v| v == 0.0 || v == 1.0));
        // Planted model is roughly balanced; allow wide slack.
        assert!(ones > 64 && ones < 448, "ones = {ones}");
    }

    #[test]
    fn recycled_refill_matches_fresh_stream_bit_identically() {
        let mut fresh = gen();
        let mut recycling = gen();
        let mut buf = CtrBatch::default();
        for step in 0..4 {
            let expected = fresh.next_batch(32);
            // `buf.indices` is uniquely held, so from the second step on
            // this takes the in-place refill path.
            recycling.next_batch_into(32, &mut buf);
            assert_eq!(buf, expected, "stream diverged at step {step}");
        }
    }

    #[test]
    fn shared_indices_fall_back_to_fresh_allocation() {
        let mut a = gen();
        let mut b = gen();
        let mut buf = a.next_batch(16);
        let hold = Arc::clone(&buf.indices); // simulate the pipeline's share
        let _ = b.next_batch(16);
        b.next_batch_into(16, &mut buf);
        assert_eq!(buf, a.next_batch(16));
        drop(hold);
    }

    #[test]
    fn single_pass_logits_match_the_per_sample_scan() {
        // The planted logit used to be computed by rescanning every
        // table's pairs once per sample (O(batch^2 x pooling)); the
        // single-pass accumulator must reproduce that formula bit for
        // bit — per sample: dense dot, then each table's matching pairs
        // in index order.
        let mut g = gen();
        let b = g.next_batch(48);
        for s in 0..48 {
            let mut logit: f32 = b
                .dense
                .row(s)
                .iter()
                .zip(g.dense_weights.iter())
                .map(|(x, w)| x * w)
                .sum();
            for (t, index) in b.indices.iter().enumerate() {
                let mut acc = 0.0;
                let mut cnt = 0;
                for (src, dst) in index.iter() {
                    if dst as usize == s {
                        acc += affinity_of(g.row_affinity_seeds[t], src);
                        cnt += 1;
                    }
                }
                if cnt > 0 {
                    logit += acc / cnt as f32;
                }
            }
            assert_eq!(g.logit_scratch[s], logit, "sample {s} diverged");
        }
    }

    #[test]
    fn generator_is_deterministic() {
        let mut a = gen();
        let mut b = gen();
        let ba = a.next_batch(16);
        let bb = b.next_batch(16);
        assert_eq!(ba, bb);
    }

    #[test]
    fn labels_correlate_with_planted_model() {
        // Samples whose planted logit is positive must click more often
        // than those with negative logit: the signal is learnable.
        let mut g = gen();
        let mut pos_clicks = 0u32;
        let mut pos_total = 0u32;
        let mut neg_clicks = 0u32;
        let mut neg_total = 0u32;
        for _ in 0..4 {
            let batch = g.next_batch(256);
            for b in 0..256 {
                let logit: f32 = batch
                    .dense
                    .row(b)
                    .iter()
                    .zip(g.dense_weights.iter())
                    .map(|(x, w)| x * w)
                    .sum();
                let clicked = batch.labels.row(b)[0] == 1.0;
                if logit > 0.25 {
                    pos_total += 1;
                    pos_clicks += clicked as u32;
                } else if logit < -0.25 {
                    neg_total += 1;
                    neg_clicks += clicked as u32;
                }
            }
        }
        let pos_rate = pos_clicks as f64 / pos_total.max(1) as f64;
        let neg_rate = neg_clicks as f64 / neg_total.max(1) as f64;
        assert!(
            pos_rate > neg_rate + 0.1,
            "click rates must separate: {pos_rate} vs {neg_rate}"
        );
    }
}
