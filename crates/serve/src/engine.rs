//! The batched inference engine: fuse many queries into one model batch,
//! score it, and demux per-query results.
//!
//! The engine is built around four invariants:
//!
//! * **Zero steady-state allocation.** Every intermediate — the fused
//!   dense matrix, per-table pooled embeddings, MLP scratch, logits, the
//!   demux offsets — lives in engine-owned buffers recycled across
//!   batches (`zero_into`-style). After the first batch sizes them, a
//!   batch that opens no pool scope allocates nothing, whether or not the
//!   engine has seen the queries before: it keeps no per-query state.
//!   That is every batch under the split floor on an engine without a
//!   lane. A batch that splits allocates only its pool scopes: the
//!   scope's state and one boxed task a group the lane takes.
//! * **Serving is the training forward.** Each query's bags pool through
//!   the training forward's own gather-reduce loop
//!   ([`accumulate_rows`], lookup order), straight into that query's rows
//!   of the fused batch, and every dense kernel is row-independent. So a
//!   query's scores are bit for bit [`Dlrm::predict`] on it, whether it
//!   is scored alone or fused with any other queries: a bag's order does
//!   not depend on the batch around it. Serving batches is therefore
//!   purely a scheduling decision, never a numerical one —
//!   property-tested in `tests/serving.rs`.
//! * **Splitting is scheduling.** A batch of at least 1,024 lookups
//!   (the engine's split floor) runs on two pairs of hands or more:
//!   the calling thread and the engine's lane (its own one-worker pool
//!   under [`Execution::Serial`], the lent pool under
//!   [`Execution::Pooled`]). The tables are cut into contiguous groups,
//!   one a participant, each pooled whole by one thread in lookup order,
//!   and the dense stack's large GEMMs split as a training step's do,
//!   every output in its serial order. So a split batch scores the serial
//!   bits. A smaller batch pools its tables on the calling thread; its
//!   GEMMs still split over the lane, if the engine has one, when they
//!   pass the tensor crate's own split floor.
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
use tcast_pool::Pool;
use tcast_tensor::{Exec, Matrix};

/// The smallest fused batch, in lookups summed over every query and
/// table, whose tables [`ServeEngine::score`] pools over the lane; the
/// first such batch also starts an [`Execution::Serial`] engine's own
/// lane. Below it the tables pool on the calling thread, so a small batch
/// of an engine without a lane opens no pool scope and allocates nothing
/// (`tests/zero_alloc.rs` holds it to that). That is what the floor is
/// for; the repo benchmark cannot size it, as both its serve workloads
/// (RM1 at 10 candidates: 8,000 lookups a query) split every batch.
///
/// The value is read off the timing probe `split_floor_probe` below: one
/// RM1-shaped query at a time, with the lane's worker still polling, on a
/// 2-vCPU AVX-512 Xeon. Over three runs of the probe (each ratio the
/// median of 8 rounds), split/inline time read 1.0-1.15 at 80-800 lookups
/// (once 0.87, at 800), 0.94-1.08 at 1,000, 0.8-0.92 at 1,600-2,000 and
/// 0.68-0.86 at 4,000-8,000: splitting starts to pay between 1,000 and
/// 1,600 lookups. The probe does not time a parked worker (batches over
/// 3 ms apart); no measurement backs the floor there.
const SPLIT_MIN_LOOKUPS: usize = 1024;

/// The zero-alloc batched scoring engine.
pub struct ServeEngine {
    /// The pool a split batch shares its work with: the lent one, or the
    /// engine's own one-worker lane, started by the first batch that
    /// splits.
    lane: Option<Arc<Pool>>,
    /// The smallest batch, in lookups, that pools its tables over the
    /// lane: [`SPLIT_MIN_LOOKUPS`], or `usize::MAX` for an inline engine.
    split_min_lookups: usize,
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
            .field(
                "lane_threads",
                &self.lane.as_ref().map(|lane| lane.threads()),
            )
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
    /// An engine that scores fused batches. `execution` says who owns the
    /// lane, as it does for a [`tcast_dlrm::Trainer`]:
    /// [`Execution::Serial`] leaves the engine to start a one-worker lane
    /// of its own at the first batch of at least 1,024 lookups,
    /// [`Execution::Pooled`] lends the given pool. Such a batch pools one
    /// group of tables on the calling thread and the others on the lane's
    /// workers. Once the engine has a lane, every batch's dense stack
    /// splits its GEMMs over it above the tensor crate's floor. The scores
    /// are the serial bits either way.
    ///
    /// Neither `model` nor `cache_capacity` is read: the engine sizes its
    /// buffers on the first batch it scores and keeps no casting cache.
    /// Both stay only because callers written against the cached engine
    /// (the repo benchmark among them) pass them.
    pub fn new(model: &Dlrm, cache_capacity: usize, execution: Execution) -> Self {
        let _ = (model, cache_capacity);
        Self {
            lane: match execution {
                Execution::Serial => None,
                Execution::Pooled(pool) => Some(pool),
            },
            split_min_lookups: SPLIT_MIN_LOOKUPS,
            scratch: InferenceScratch::default(),
            dense: Matrix::default(),
            logits: Matrix::default(),
            offsets: Vec::new(),
            queries_scored: 0,
            batches_scored: 0,
        }
    }

    /// An engine on a lane of its own ([`Execution::Serial`]): until the
    /// first batch of at least 1,024 lookups starts the one-worker lane,
    /// every batch runs on the calling thread alone.
    pub fn with_defaults(model: &Dlrm) -> Self {
        Self::new(model, 0, Execution::Serial)
    }

    /// An engine that scores every batch on the calling thread and never
    /// starts a lane: [`crate::serve_concurrent`]'s engines, whose threads
    /// already share the host's cores with the trainer and each other.
    pub(crate) fn inline(model: &Dlrm) -> Self {
        Self {
            split_min_lookups: usize::MAX,
            ..Self::with_defaults(model)
        }
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
    /// pass and once per table group (hence `Clone`, and `Sync`: a group
    /// may run on the lane's worker), so the steady-state call that
    /// opens no pool scope allocates nothing.
    ///
    /// Each bag pools in lookup order, as [`Dlrm::predict`] pools it: a
    /// query's scores are bit for bit `predict` over the same query,
    /// whichever thread pooled its table.
    ///
    /// # Errors
    ///
    /// Returns an error when a query disagrees with the model's shape
    /// (table count, dense width, index range), has no candidates or a
    /// non-finite dense feature, or the batch is empty. Every query is
    /// checked before anything is pooled, so an error scores nothing.
    ///
    /// # Panics
    ///
    /// Resumes the panic of a lane task, after every task of the batch
    /// has finished; the engine's next batch is scored afresh.
    pub fn score<'q, I>(
        &mut self,
        model: &Dlrm,
        queries: I,
    ) -> Result<ScoredBatch<'_>, EmbeddingError>
    where
        I: IntoIterator<Item = &'q Arc<Query>> + Clone + Sync,
    {
        // Pass 1: validate and lay out the fused batch. After it, pooling
        // cannot fail, so no task of the split pass below has an error to
        // report.
        self.offsets.clear();
        self.offsets.push(0);
        let (mut total, mut lookups) = (0usize, 0usize);
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
            for (t, idx) in q.indices.iter().enumerate() {
                if idx.num_outputs() != q.candidates() {
                    return Err(EmbeddingError::LengthMismatch {
                        expected: q.candidates(),
                        found: idx.num_outputs(),
                    });
                }
                idx.validate_against_rows(model.table(t).rows())?;
                lookups += idx.len();
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
        // around it, which is what makes fusion bit-transparent. At the
        // floor the tables are cut into one contiguous group a
        // participant of the lane's scope, the calling thread taking the
        // first: a table is one task's, so its bags pool as they would
        // inline.
        let split = lookups >= self.split_min_lookups;
        if split {
            self.lane.get_or_insert_with(|| Arc::new(Pool::new(1)));
        }
        let exec = self.lane.as_deref().map_or(Exec::Serial, Exec::pooled);
        let pooled = self.scratch.pooled_mut();
        pooled.resize_with(model.num_tables(), Matrix::default);
        let offsets = &self.offsets;
        let pool_tables = |first: usize, group: &mut [Matrix]| {
            for (t, out) in (first..).zip(group) {
                let table = model.table(t);
                out.zero_into(total, dim);
                for (q, &lo) in queries.clone().into_iter().zip(offsets) {
                    let index = &q.indices[t];
                    accumulate_rows(table.as_slice(), index.src(), index.dst(), out, lo);
                }
            }
        };
        let tables = pooled.len();
        let groups = if split { exec.threads().min(tables) } else { 1 };
        match exec.pool() {
            Some(lane) if groups > 1 => lane.scope(|scope| {
                let (mine, mut rest) = pooled.split_at_mut(tables / groups);
                let mut first = mine.len();
                for g in 1..groups {
                    let len = (g + 1) * tables / groups - first;
                    let (group, tail) = std::mem::take(&mut rest).split_at_mut(len);
                    rest = tail;
                    let pool_tables = &pool_tables;
                    scope.spawn(move || pool_tables(first, group));
                    first += len;
                }
                pool_tables(0, mine);
            }),
            _ => pool_tables(0, pooled),
        }

        // Pass 4: the fused dense stack. Whenever the engine has a lane,
        // its large GEMMs split over it by the same floor as a training
        // step's, whatever the batch's lookup count.
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
    fn only_a_batch_at_the_floor_starts_the_lane() {
        // Two tables of pooling 40 at four candidates: 320 lookups a
        // query, so three queries stay under the floor and four reach it.
        let mut cfg = DlrmConfig::tiny();
        for table in &mut cfg.tables {
            table.pooling = 40;
        }
        let m = Dlrm::new(cfg.clone(), 11).unwrap();
        let wl = QueryModel::new(
            &cfg.table_workloads(),
            cfg.dense_features,
            8,
            CandidateCount::Fixed(4),
            1.0,
            5,
        );
        let queries: Vec<_> = (0..8).map(|i| Arc::clone(wl.query(i))).collect();
        let under = SPLIT_MIN_LOOKUPS.div_ceil(320) - 1;
        let mut engine = ServeEngine::with_defaults(&m);
        for n in [under, under + 1, queries.len(), under] {
            let scored = engine.score(&m, &queries[..n]).unwrap();
            for (i, q) in queries[..n].iter().enumerate() {
                let want = m.predict(&q.dense, &q.indices).unwrap();
                assert_eq!(scored.scores(i), want.as_slice(), "{n} queries");
            }
            let started = n > under || engine.batches_scored() > 1;
            let lane = engine.lane.as_ref().map(|lane| lane.threads());
            assert_eq!(lane, started.then_some(1), "{n} queries");
        }
        // An inline engine starts none, whatever the batch.
        let mut inline = ServeEngine::inline(&m);
        let scored = inline.score(&m, &queries).unwrap();
        for (i, q) in queries.iter().enumerate() {
            let want = m.predict(&q.dense, &q.indices).unwrap();
            assert_eq!(scored.scores(i), want.as_slice());
        }
        assert!(inline.lane.is_none());
    }

    #[test]
    fn a_lent_pool_splits_the_dense_stack_under_the_floor() {
        // One query of 16 candidates over two tables of pooling 3 and 2:
        // 80 lookups, far under the floor, so the tables pool inline. The
        // bottom MLP's 16x512x512 product reaches the GEMMs' own floor,
        // so it splits over the lent pool: poisoning the pool's next task
        // panics the batch.
        let cfg = DlrmConfig {
            bottom_mlp: vec![512, 512, 16],
            ..DlrmConfig::tiny()
        };
        let m = Dlrm::new(cfg.clone(), 11).unwrap();
        let wl = QueryModel::new(
            &cfg.table_workloads(),
            cfg.dense_features,
            2,
            CandidateCount::Fixed(16),
            1.0,
            5,
        );
        let q = Arc::clone(wl.query(0));
        let lookups: usize = q.indices.iter().map(|idx| idx.len()).sum();
        assert!(lookups < SPLIT_MIN_LOOKUPS);
        let want = m.predict(&q.dense, &q.indices).unwrap();
        let lent = Arc::new(Pool::new(1));
        let mut engine = ServeEngine::new(&m, 0, Execution::Pooled(Arc::clone(&lent)));
        let scored = engine.score(&m, std::iter::once(&q)).unwrap();
        assert_eq!(scored.scores(0), want.as_slice());
        lent.poison_next_task();
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = engine.score(&m, std::iter::once(&q));
        }));
        assert!(panicked.is_err(), "the dense stack did not split");
        let scored = engine.score(&m, std::iter::once(&q)).unwrap();
        assert_eq!(scored.scores(0), want.as_slice());
    }

    /// The timing probe behind [`SPLIT_MIN_LOOKUPS`]: on RM1-shaped
    /// batches of one query, the split schedule (floor 0, own lane)
    /// against the inline one, back to back so that the lane's worker
    /// stays polling, in 8 rounds of alternating blocks. Prints each
    /// batch's split/inline time ratio, its median and quartiles over the
    /// rounds (under 1: the split batch is faster). Run it with
    /// `cargo test --release -p tcast-serve split_floor_probe -- --ignored --nocapture`.
    #[test]
    #[ignore = "timing probe; run in release with --nocapture"]
    fn split_floor_probe() {
        use std::time::Instant;
        const ROUNDS: usize = 8;
        const CALLS: usize = 100;
        let quartiles = |v: &mut [f64]| {
            v.sort_by(f64::total_cmp);
            [v[v.len() / 4], v[v.len() / 2], v[v.len() * 3 / 4]]
        };
        for pooling in [8, 20, 80] {
            let mut cfg = DlrmConfig::rm1_scaled(10_000);
            for table in &mut cfg.tables {
                table.pooling = pooling;
            }
            let m = Dlrm::new(cfg.clone(), 1).unwrap();
            for candidates in [1, 2, 5, 10] {
                let wl = QueryModel::new(
                    &cfg.table_workloads(),
                    cfg.dense_features,
                    64,
                    CandidateCount::Fixed(candidates),
                    1.1,
                    3,
                );
                let queries: Vec<_> = (0..64).map(|i| Arc::clone(wl.query(i))).collect();
                let lookups = cfg.tables.len() * pooling * candidates;
                let mut split = ServeEngine::with_defaults(&m);
                split.split_min_lookups = 0;
                let mut inline = ServeEngine::inline(&m);
                // Start the lane and spread its worker and this thread
                // over both cores before anything is timed.
                split.score(&m, &queries[..1]).unwrap();
                let lane = Arc::clone(split.lane.as_ref().unwrap());
                let spin = |ms| {
                    let t0 = Instant::now();
                    while t0.elapsed().as_millis() < ms {
                        std::hint::spin_loop();
                    }
                };
                for _ in 0..100 {
                    lane.scope(|s| {
                        s.spawn(|| spin(2));
                        spin(2);
                    });
                }
                let mut ratios = Vec::new();
                for _ in 0..ROUNDS {
                    let mut medians = [0.0; 2];
                    for (engine, median) in [&mut split, &mut inline].into_iter().zip(&mut medians)
                    {
                        let mut ns: Vec<f64> = (0..=CALLS)
                            .map(|i| {
                                let q = std::iter::once(&queries[i % queries.len()]);
                                let t0 = Instant::now();
                                std::hint::black_box(engine.score(&m, q).unwrap().num_samples());
                                t0.elapsed().as_nanos() as f64
                            })
                            .skip(1)
                            .collect();
                        *median = quartiles(&mut ns)[1];
                    }
                    ratios.push(medians[0] / medians[1]);
                }
                let [q1, median, q3] = quartiles(&mut ratios);
                println!(
                    "PROBE serve split/inline ratio {lookups} lookups (pooling {pooling}, \
                     {candidates} candidates): {median:.2} (quartiles {q1:.2}-{q3:.2} over \
                     {ROUNDS} rounds)"
                );
            }
        }
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
