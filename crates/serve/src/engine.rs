//! The batched inference engine: fuse many queries into one model batch,
//! score it, and demux per-query results.
//!
//! The engine is built around three invariants:
//!
//! * **Zero steady-state allocation.** Every intermediate — the fused
//!   dense matrix, per-table pooled embeddings, MLP scratch, logits, the
//!   demux offsets — lives in engine-owned buffers recycled across
//!   batches (`zero_into`-style). After the first batch sizes them,
//!   scoring allocates nothing — cache misses included once every cache
//!   is full: a miss then casts into the evicted entry's buffers. Only
//!   the misses that fill a cache allocate, one memoized array each.
//! * **Fusion is bit-transparent.** A query's scores are bit-identical
//!   whether it is scored alone or fused with any other queries: the
//!   embedding pooling accumulates per output row in the casted
//!   (ascending-`src`) order, which does not depend on batch
//!   composition, and every dense kernel is row-independent. Serving
//!   batches is therefore purely a scheduling decision, never a
//!   numerical one — property-tested in `tests/serving.rs`.
//! * **The model is shared, frozen, `&`.** Scoring reads the [`Dlrm`]
//!   through `&self` only, so the online loop can interleave trainer
//!   update steps with serving without the engine holding any model
//!   state hostage — and the update trajectory is bit-identical to
//!   offline training by construction.
//!
//! The hot-query fast path: per-table [`CastingCache`]s memoize the
//! casting transform of repeated index arrays (hot queries), so a
//! repeated query pays only the deduplicated
//! [`casted_embedding_forward_into`] accumulate — each *unique*
//! embedding row fetched once per query — instead of the
//! sort-transform plus the full per-lookup gather.

use std::sync::Arc;

use crate::queue::QueuedQuery;
use crate::request::Query;
use tcast_core::{casted_embedding_forward_into, CastingCache};
use tcast_dlrm::{Dlrm, Execution, InferenceScratch};
use tcast_embedding::EmbeddingError;
use tcast_tensor::{Exec, Matrix};

/// Default per-table casting-cache capacity (entries, i.e. distinct hot
/// queries memoized per table).
pub const DEFAULT_CACHE_CAPACITY: usize = 1024;

/// The zero-alloc batched scoring engine.
pub struct ServeEngine {
    execution: Execution,
    /// One casting cache per embedding table.
    caches: Vec<CastingCache>,
    scratch: InferenceScratch,
    /// Fused dense features, `total_samples x dense_features`.
    dense: Matrix,
    /// Fused logits, `total_samples x 1`.
    logits: Matrix,
    /// Per-query sample offsets into the fused batch; one extra trailing
    /// entry holds the total, so query `i`'s scores are rows
    /// `offsets[i]..offsets[i+1]`.
    offsets: Vec<usize>,
    queries_scored: u64,
    batches_scored: u64,
}

impl std::fmt::Debug for ServeEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeEngine")
            .field("execution", &self.execution)
            .field("tables", &self.caches.len())
            .field("queries_scored", &self.queries_scored)
            .field("batches_scored", &self.batches_scored)
            .finish()
    }
}

/// A scored fused batch: borrow of the engine's logits plus the demux
/// offsets. Valid until the next `score` call.
#[derive(Debug)]
pub struct ScoredBatch<'a> {
    logits: &'a Matrix,
    offsets: &'a [usize],
}

impl ScoredBatch<'_> {
    /// Queries in the batch.
    pub fn num_queries(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total candidate samples scored.
    pub fn num_samples(&self) -> usize {
        *self.offsets.last().expect("offsets non-empty")
    }

    /// Query `i`'s per-candidate scores (logits), demuxed from the fused
    /// batch.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn scores(&self, i: usize) -> &[f32] {
        let (lo, hi) = (self.offsets[i], self.offsets[i + 1]);
        &self.logits.as_slice()[lo..hi]
    }

    /// All fused logits in admission order (row per sample).
    pub fn fused_logits(&self) -> &Matrix {
        self.logits
    }
}

impl ServeEngine {
    /// An engine for `model`'s shape, with per-table casting caches of
    /// `cache_capacity` entries. Under [`Execution::Pooled`] the dense
    /// stack's large GEMMs split over the lent pool and the calling thread;
    /// the embedding pooling always runs on the calling thread.
    ///
    /// # Panics
    ///
    /// Panics if `cache_capacity == 0`.
    pub fn new(model: &Dlrm, cache_capacity: usize, execution: Execution) -> Self {
        Self {
            execution,
            caches: (0..model.num_tables())
                .map(|_| CastingCache::new(cache_capacity))
                .collect(),
            scratch: InferenceScratch::default(),
            dense: Matrix::default(),
            logits: Matrix::default(),
            offsets: Vec::new(),
            queries_scored: 0,
            batches_scored: 0,
        }
    }

    /// An engine with the [`DEFAULT_CACHE_CAPACITY`].
    pub fn with_defaults(model: &Dlrm) -> Self {
        Self::new(model, DEFAULT_CACHE_CAPACITY, Execution::Serial)
    }

    /// Queries scored so far.
    pub fn queries_scored(&self) -> u64 {
        self.queries_scored
    }

    /// Fused batches scored so far.
    pub fn batches_scored(&self) -> u64 {
        self.batches_scored
    }

    /// Aggregate hit rate of the per-table casting caches.
    pub fn cache_hit_rate(&self) -> f64 {
        let (hits, total) = self.caches.iter().fold((0u64, 0u64), |(h, t), c| {
            (h + c.hits(), t + c.hits() + c.misses())
        });
        if total == 0 {
            return 0.0;
        }
        hits as f64 / total as f64
    }

    /// Aggregate evictions across the per-table casting caches.
    pub fn cache_evictions(&self) -> u64 {
        self.caches.iter().map(CastingCache::evictions).sum()
    }

    /// Scores a fused batch of queries against `model`, in order.
    /// Returns the demuxable view; the underlying buffers are recycled
    /// on the next call. The query stream is iterated once per fusion
    /// pass (hence `Clone`), so the steady-state call allocates nothing.
    ///
    /// Each bag pools in ascending-row order (the casted forward, on a
    /// cache hit or not), where [`Dlrm::predict`] pools in lookup order:
    /// a query's scores are bit for bit `predict` over its bags with their
    /// lookups stably sorted by row.
    ///
    /// # Errors
    ///
    /// Returns an error when a query disagrees with the model's shape
    /// (table count, dense width, index range), has no candidates or a
    /// non-finite dense feature, or the batch is empty.
    pub fn score<'q, I>(
        &mut self,
        model: &Dlrm,
        queries: I,
    ) -> Result<ScoredBatch<'_>, EmbeddingError>
    where
        I: IntoIterator<Item = &'q Arc<Query>> + Clone,
    {
        // Pass 1: validate and lay out the fused batch.
        self.offsets.clear();
        self.offsets.push(0);
        let mut total = 0usize;
        for q in queries.clone() {
            if q.indices.len() != model.num_tables() {
                return Err(EmbeddingError::LengthMismatch {
                    expected: model.num_tables(),
                    found: q.indices.len(),
                });
            }
            if q.dense.cols() != model.config().dense_features {
                return Err(EmbeddingError::DimMismatch {
                    expected: model.config().dense_features,
                    found: q.dense.cols(),
                });
            }
            // `Query`'s fields are public, so these cross a trust
            // boundary: a NaN survives the ReLU as a plausible score, and
            // an empty candidate set scores nothing.
            if q.candidates() == 0 {
                return Err(EmbeddingError::InvalidIndex(format!(
                    "query {} has no candidates",
                    q.id
                )));
            }
            if !q.dense.as_slice().iter().all(|v| v.is_finite()) {
                return Err(EmbeddingError::InvalidIndex(format!(
                    "query {} has a non-finite dense feature",
                    q.id
                )));
            }
            for idx in q.indices.iter() {
                if idx.num_outputs() != q.candidates() {
                    return Err(EmbeddingError::LengthMismatch {
                        expected: q.candidates(),
                        found: idx.num_outputs(),
                    });
                }
            }
            total += q.candidates();
            self.offsets.push(total);
        }
        let num_queries = self.offsets.len() - 1;
        if num_queries == 0 {
            return Err(EmbeddingError::InvalidIndex(
                "cannot score an empty batch".to_string(),
            ));
        }

        let dim = model.config().embedding_dim;

        // Pass 2: fuse dense features.
        self.dense.zero_into(total, model.config().dense_features);
        for (qi, q) in queries.clone().into_iter().enumerate() {
            let lo = self.offsets[qi];
            for r in 0..q.candidates() {
                self.dense.row_mut(lo + r).copy_from_slice(q.dense.row(r));
            }
        }

        // Pass 3: pooled embeddings, per query per table, through the
        // casting-cache fast path. Accumulation order per output row is
        // the casted order — independent of batch composition, which is
        // what makes fusion bit-transparent.
        let pooled = self.scratch.pooled_mut();
        pooled.resize_with(model.num_tables(), Matrix::default);
        for (t, (cache, out)) in self.caches.iter_mut().zip(pooled.iter_mut()).enumerate() {
            out.zero_into(total, dim);
            for (qi, q) in queries.clone().into_iter().enumerate() {
                let casted = cache.get_or_cast(&q.indices[t]);
                casted_embedding_forward_into(model.table(t), casted, out, self.offsets[qi])?;
            }
        }

        // Pass 4: the fused dense stack.
        let exec = match &self.execution {
            Execution::Serial => Exec::Serial,
            Execution::Pooled(pool) => Exec::pooled(pool),
        };
        model
            .dense_infer_into(&self.dense, &mut self.scratch, &mut self.logits, exec)
            .map_err(EmbeddingError::from)?;

        self.queries_scored += num_queries as u64;
        self.batches_scored += 1;
        Ok(ScoredBatch {
            logits: &self.logits,
            offsets: &self.offsets,
        })
    }

    /// [`ServeEngine::score`] over queue entries (the serve loop's form).
    ///
    /// # Errors
    ///
    /// Returns an error when a query disagrees with the model's shape.
    pub fn score_queued(
        &mut self,
        model: &Dlrm,
        queued: &[QueuedQuery],
    ) -> Result<ScoredBatch<'_>, EmbeddingError> {
        self.score(model, queued.iter().map(|q| &q.query))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{CandidateCount, QueryModel};
    use tcast_dlrm::DlrmConfig;

    fn model() -> Dlrm {
        Dlrm::new(DlrmConfig::tiny(), 11).unwrap()
    }

    fn workload(seed: u64) -> QueryModel {
        let cfg = DlrmConfig::tiny();
        QueryModel::new(
            &cfg.table_workloads(),
            cfg.dense_features,
            16,
            CandidateCount::Uniform { min: 1, max: 6 },
            1.0,
            seed,
        )
    }

    #[test]
    fn fused_scores_demux_to_per_query_scores() {
        let m = model();
        let mut wl = workload(5);
        let mut engine = ServeEngine::with_defaults(&m);
        let queries: Vec<_> = (0..6).map(|_| wl.draw()).collect();
        let mut solo_scores: Vec<Vec<f32>> = Vec::new();
        {
            let mut solo_engine = ServeEngine::with_defaults(&m);
            for q in &queries {
                let sb = solo_engine.score(&m, std::iter::once(q)).unwrap();
                solo_scores.push(sb.scores(0).to_vec());
            }
        }
        let fused = engine.score(&m, queries.iter()).unwrap();
        assert_eq!(fused.num_queries(), 6);
        for (i, solo) in solo_scores.iter().enumerate() {
            assert_eq!(
                fused.scores(i),
                solo.as_slice(),
                "query {i} scores must be bit-identical fused vs solo"
            );
        }
    }

    #[test]
    fn repeated_queries_hit_the_casting_cache() {
        let m = model();
        let mut wl = workload(7);
        let mut engine = ServeEngine::with_defaults(&m);
        let q = wl.draw();
        let first = engine.score(&m, std::iter::once(&q)).unwrap();
        let first_scores = first.scores(0).to_vec();
        assert_eq!(engine.cache_hit_rate(), 0.0);
        let again = engine.score(&m, std::iter::once(&q)).unwrap();
        assert_eq!(again.scores(0), first_scores.as_slice());
        // Second scoring: every per-table cast was a hit.
        assert!(engine.cache_hit_rate() >= 0.5 - 1e-12);
        assert_eq!(engine.queries_scored(), 2);
        assert_eq!(engine.batches_scored(), 2);
    }

    #[test]
    fn cache_state_never_changes_scores() {
        // The fast path must be a pure memo: a cold engine and a warm
        // engine produce bit-identical scores.
        let m = model();
        let mut wl = workload(9);
        let queries: Vec<_> = (0..12).map(|_| wl.draw()).collect();
        let mut warm = ServeEngine::new(&m, 2, Execution::Serial); // tiny cache: constant churn
        let mut cold_scores = Vec::new();
        for q in &queries {
            let mut cold = ServeEngine::with_defaults(&m);
            cold_scores.push(
                cold.score(&m, std::iter::once(q))
                    .unwrap()
                    .scores(0)
                    .to_vec(),
            );
        }
        for (q, expect) in queries.iter().zip(cold_scores.iter()) {
            let sb = warm.score(&m, std::iter::once(q)).unwrap();
            assert_eq!(sb.scores(0), expect.as_slice());
        }
        assert!(warm.cache_evictions() > 0, "tiny cache must have churned");
    }

    #[test]
    fn rejects_mismatched_queries() {
        let m = model();
        let mut wl = workload(1);
        let q = wl.draw();
        let mut engine = ServeEngine::with_defaults(&m);
        // Wrong table count.
        let bad = Arc::new(Query {
            id: 999,
            dense: q.dense.clone(),
            indices: q.indices[..1].to_vec().into(),
        });
        assert!(engine.score(&m, std::iter::once(&bad)).is_err());
        // Empty batch.
        assert!(engine.score(&m, std::iter::empty()).is_err());
    }

    #[test]
    fn pooled_execution_scores_bit_identically() {
        let m = model();
        let mut wl = workload(13);
        let queries: Vec<_> = (0..5).map(|_| wl.draw()).collect();
        let mut serial = ServeEngine::with_defaults(&m);
        let pool = Arc::new(tcast_pool::Pool::new(4));
        let mut pooled = ServeEngine::new(&m, DEFAULT_CACHE_CAPACITY, Execution::Pooled(pool));
        let a = serial.score(&m, queries.iter()).unwrap();
        let a_logits = a.fused_logits().as_slice().to_vec();
        let b = pooled.score(&m, queries.iter()).unwrap();
        assert_eq!(b.fused_logits().as_slice(), a_logits.as_slice());
    }
}
