//! The batched inference engine: fuse many queries into one model batch,
//! score it, and demux per-query results.
//!
//! The engine is built around three invariants:
//!
//! * **Zero steady-state allocation.** Every intermediate — the fused
//!   dense matrix, per-table pooled embeddings, MLP scratch, logits, the
//!   demux offsets — lives in engine-owned buffers recycled across
//!   batches (`zero_into`-style). After the first batch sizes them,
//!   scoring allocates nothing, whether or not the engine has seen the
//!   queries before: it keeps no per-query state.
//! * **Serving is the training forward.** Each query's bags pool through
//!   the training forward's own gather-reduce loop
//!   ([`accumulate_rows`], lookup order), straight into that query's rows
//!   of the fused batch, and every dense kernel is row-independent. So a
//!   query's scores are bit for bit [`Dlrm::predict`] on it, whether it
//!   is scored alone or fused with any other queries: a bag's order does
//!   not depend on the batch around it. Serving batches is therefore
//!   purely a scheduling decision, never a numerical one —
//!   property-tested in `tests/serving.rs`.
//! * **The model is shared, frozen, `&`.** Scoring reads the [`Dlrm`]
//!   through `&self` only, so the online loop can interleave trainer
//!   update steps with serving without the engine holding any model
//!   state hostage — and the update trajectory is bit-identical to
//!   offline training by construction.

use std::sync::Arc;

use crate::queue::QueuedQuery;
use crate::request::Query;
use tcast_dlrm::{Dlrm, Execution, InferenceScratch};
use tcast_embedding::{accumulate_rows, EmbeddingError};
use tcast_tensor::{Exec, Matrix};

/// The zero-alloc batched scoring engine.
pub struct ServeEngine {
    execution: Execution,
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
    /// An engine that scores fused batches. Under [`Execution::Pooled`]
    /// the dense stack's large GEMMs split over the lent pool and the
    /// calling thread; the embedding pooling always runs on the calling
    /// thread.
    ///
    /// Neither `model` nor `cache_capacity` is read: the engine sizes its
    /// buffers on the first batch it scores and keeps no casting cache.
    /// Both stay only because callers written against the cached engine
    /// (the repo benchmark among them) pass them.
    pub fn new(model: &Dlrm, cache_capacity: usize, execution: Execution) -> Self {
        let _ = (model, cache_capacity);
        Self {
            execution,
            scratch: InferenceScratch::default(),
            dense: Matrix::default(),
            logits: Matrix::default(),
            offsets: Vec::new(),
            queries_scored: 0,
            batches_scored: 0,
        }
    }

    /// A serial engine.
    pub fn with_defaults(model: &Dlrm) -> Self {
        Self::new(model, 0, Execution::Serial)
    }

    /// Queries scored so far.
    pub fn queries_scored(&self) -> u64 {
        self.queries_scored
    }

    /// Fused batches scored so far.
    pub fn batches_scored(&self) -> u64 {
        self.batches_scored
    }

    /// Retired: always 0, as the engine keeps no casting cache. It stays
    /// only because the repo benchmark reads it.
    pub fn cache_hit_rate(&self) -> f64 {
        0.0
    }

    /// Retired: always 0, as the engine keeps no casting cache. It stays
    /// only because the repo benchmark reads it.
    pub fn cache_evictions(&self) -> u64 {
        0
    }

    /// Scores a fused batch of queries against `model`, in order.
    /// Returns the demuxable view; the underlying buffers are recycled
    /// on the next call. The query stream is iterated once per fusion
    /// pass (hence `Clone`), so the steady-state call allocates nothing.
    ///
    /// Each bag pools in lookup order, as [`Dlrm::predict`] pools it: a
    /// query's scores are bit for bit `predict` over the same query.
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

        // Pass 3: pooled embeddings, per table per query, through the
        // training forward's loop into the query's rows of the fused
        // batch. Each bag pools in lookup order, whatever the batch
        // around it, which is what makes fusion bit-transparent.
        let pooled = self.scratch.pooled_mut();
        pooled.resize_with(model.num_tables(), Matrix::default);
        for (t, out) in pooled.iter_mut().enumerate() {
            let table = model.table(t);
            out.zero_into(total, dim);
            for (qi, q) in queries.clone().into_iter().enumerate() {
                let index = &q.indices[t];
                index.validate_against_rows(table.rows())?;
                accumulate_rows(
                    table.as_slice(),
                    index.src(),
                    index.dst(),
                    out,
                    self.offsets[qi],
                );
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
        let mut pooled = ServeEngine::new(&m, 0, Execution::Pooled(pool));
        let a = serial.score(&m, queries.iter()).unwrap();
        let a_logits = a.fused_logits().as_slice().to_vec();
        let b = pooled.score(&m, queries.iter()).unwrap();
        assert_eq!(b.fused_logits().as_slice(), a_logits.as_slice());
    }
}
