//! The batched inference engine: fuse many queries into one model batch,
//! score it, and demux per-query results.
//!
//! The engine is built around five invariants:
//!
//! * **Zero steady-state allocation.** Every intermediate — each band's
//!   dense features, per-table pooled embeddings, MLP scratch and logits,
//!   the fused logits, the demux offsets, each query's distinct query and
//!   the distinct rows' offsets and logits — lives in engine-owned buffers
//!   recycled across batches (`zero_into`-style). After the first batch
//!   sizes them, a batch that opens no pool scope allocates nothing,
//!   whether or not the engine has seen the queries before: it keeps no
//!   per-query state. That is every batch under the split floor on an
//!   engine without a lane. A batch that splits opens one pool scope and
//!   allocates only that: the scope's state and one boxed task a band the
//!   lane takes.
//! * **Serving is the training forward.** Each query's bags pool through
//!   the training forward's own gather-reduce loop
//!   ([`accumulate_rows`], lookup order), straight into that query's rows
//!   of the batch, and every dense kernel is row-independent. So a
//!   query's scores are bit for bit [`Dlrm::predict`] on it, whether it
//!   is scored alone or fused with any other queries: a bag's order does
//!   not depend on the batch around it. Serving batches is therefore
//!   purely a scheduling decision, never a numerical one —
//!   property-tested in `tests/serving.rs`.
//! * **A repeated query is scored once.** A batch that holds the same
//!   query twice scores it at its first occurrence, and every later
//!   occurrence takes a copy of those rows. That is exact, not an
//!   approximation: by the invariant above a query's rows do not depend
//!   on the batch around them, so scoring it again would write the same
//!   bits. Identity is the `Arc` (the same allocation, as
//!   [`Arc::ptr_eq`] sees it), never [`Query::id`]: the id is a label,
//!   and two allocations under one id may carry different bags or
//!   features. A catalog draw, a queue entry and the serve loop's batch
//!   all clone the catalog's `Arc`, so a popular query repeats by
//!   pointer. The engine matches pointers within one batch only and
//!   keeps nothing across batches.
//! * **Splitting is scheduling.** A batch of at least 1,024 lookups
//!   (the engine's split floor), or one whose dense stack the tensor
//!   crate would split on an engine that has a lane, runs on two pairs of
//!   hands or more: the calling thread and the engine's lane (its own
//!   one-worker pool under [`Execution::Serial`], the lent pool under
//!   [`Execution::Pooled`]). The batch's sample rows are cut into
//!   contiguous bands, one a participant, and each participant scores its
//!   band as an inline engine scores a batch: it fuses the band's dense
//!   features, checks and pools its rows of every table, each bag whole
//!   and in lookup order, and runs the whole dense stack over them on its
//!   own thread. A cut falls between two queries, or inside one whose
//!   index arrays all list their lookups in sample order (as
//!   [`IndexArray::from_samples`] and [`QueryModel`] build them), else at
//!   that query's end. So a split batch scores the serial bits.
//! * **The model is shared, frozen, `&`.** Scoring reads the [`Dlrm`]
//!   through `&self` only, so the online loop can interleave trainer
//!   update steps with serving without the engine holding any model
//!   state hostage — and the update trajectory is bit-identical to
//!   offline training by construction.
//!
//! [`IndexArray::from_samples`]: tcast_embedding::IndexArray::from_samples
//! [`QueryModel`]: crate::QueryModel

use std::ops::Range;
use std::sync::Arc;

use crate::queue::QueuedQuery;
use crate::request::Query;
use tcast_dlrm::{Dlrm, Execution, InferenceScratch};
use tcast_embedding::{accumulate_rows, EmbeddingError};
use tcast_pool::Pool;
use tcast_tensor::{Exec, Matrix};

/// The smallest fused batch, in lookups summed over every query and
/// table, that [`ServeEngine::score`] cuts into bands over the lane; the
/// first such batch also starts an [`Execution::Serial`] engine's own
/// lane. Below it a batch is scored on the calling thread (unless the
/// engine has a lane and its dense stack reaches the tensor crate's split
/// floor), so a small batch of an engine without a lane opens no pool
/// scope and allocates nothing (`tests/zero_alloc.rs` holds it to that).
/// That is what the floor is for; the repo benchmark cannot size it, as
/// both its serve workloads (RM1 at 10 candidates: 8,000 lookups a query)
/// split every batch.
///
/// The value is read off the timing probe `split_floor_probe` below: one
/// RM1-shaped query at a time on a 2-vCPU AVX-512 Xeon, each ratio the
/// median of 8 rounds. With the lane's worker still polling (calls back
/// to back), three runs against the table groups this engine split by
/// before read split/inline time 1.0-1.15 at 80-800 lookups (once 0.87,
/// at 800), 0.94-1.08 at 1,000, 0.8-0.92 at 1,600-2,000 and 0.68-0.86 at
/// 4,000-8,000: splitting starts to pay between 1,000 and 1,600 lookups.
/// Two runs of the bands read 0.65-1.12 at 400-800 lookups (1.04-1.41 at
/// 160, two one-row bands), 0.68-0.84 at 1,000, 0.64-1.08 at 1,600-2,000
/// and 0.75-0.91 at 4,000-8,000.
///
/// With the worker parked — calls 5 ms apart, past the pool's 3 ms poll,
/// as when an open-loop rate leaves the engine idle between batches — a
/// split batch is slower than an inline one: the same two runs read
/// 1.13-1.38 at every size from 1,000 to 8,000 lookups (0.90-1.07 at
/// 400-800, 1.39-1.41 at 160 and 400 over two candidates). Waking the
/// worker costs about as much as the band it takes. The floor does not
/// look at how long the engine has been idle. The serve loop meets a
/// parked worker only after something else took the wall clock, such as
/// an online update step longer than the poll: its arrivals are
/// simulated, so otherwise it scores batch after batch.
const SPLIT_MIN_LOOKUPS: usize = 1024;

/// The zero-alloc batched scoring engine.
pub struct ServeEngine {
    /// The pool a split batch shares its bands with: the lent one, or the
    /// engine's own one-worker lane, started by the first batch that
    /// splits.
    lane: Option<Arc<Pool>>,
    /// The smallest batch, in lookups, that splits over the lane:
    /// [`SPLIT_MIN_LOOKUPS`], or `usize::MAX` for an inline engine.
    split_min_lookups: usize,
    /// One scratch a band; band 0 is the calling thread's, and the only
    /// one a batch that does not split uses.
    bands: Vec<Band>,
    /// The bands' bounds in sample rows of the fused batch: band `b` is
    /// rows `cuts[b]..cuts[b + 1]`.
    cuts: Vec<usize>,
    /// Fused logits in admission order, `total_samples x 1`.
    logits: Matrix,
    /// Per-query sample offsets into the fused batch; one extra trailing
    /// entry holds the total, so query `i`'s scores are rows
    /// `offsets[i]..offsets[i+1]`.
    offsets: Vec<usize>,
    /// Each query's distinct query: query `i` takes the rows of distinct
    /// query `slots[i]`. Slots are numbered in order of first occurrence.
    slots: Vec<usize>,
    /// [`ServeEngine::offsets`] over the distinct queries only: the rows
    /// the bands score.
    distinct_offsets: Vec<usize>,
    /// The distinct queries' logits, `distinct rows x 1`.
    distinct_logits: Matrix,
    /// Sample rows pooled and run through the dense stack so far: a
    /// query repeated within a batch counts once.
    rows_scored: u64,
    queries_scored: u64,
    batches_scored: u64,
}

/// What one participant scores a band of sample rows with: the buffers an
/// inline engine scores a whole batch with.
#[derive(Default)]
struct Band {
    scratch: InferenceScratch,
    /// The band's dense features, `band rows x dense_features`.
    dense: Matrix,
    /// The band's logits, `band rows x 1`.
    logits: Matrix,
    /// What stopped the band, if anything did: a row past its table.
    error: Option<EmbeddingError>,
}

impl std::fmt::Debug for ServeEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeEngine")
            .field(
                "lane_threads",
                &self.lane.as_ref().map(|lane| lane.threads()),
            )
            .field("queries_scored", &self.queries_scored)
            .field("rows_scored", &self.rows_scored)
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
    /// [`Execution::Pooled`] lends the given pool. Such a batch, and once
    /// the engine has a lane every batch whose dense stack reaches the
    /// tensor crate's split floor, is cut into bands of sample rows: the
    /// calling thread scores the first and the lane's workers the others,
    /// each band pooled and run through the whole dense stack by one
    /// thread. The scores are the serial bits either way.
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
            bands: Vec::new(),
            cuts: Vec::new(),
            logits: Matrix::default(),
            offsets: Vec::new(),
            slots: Vec::new(),
            distinct_offsets: Vec::new(),
            distinct_logits: Matrix::default(),
            rows_scored: 0,
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
    /// on the next call. The query stream is iterated by the checking pass
    /// and by every band (hence `Clone`, and `Sync`: a band may run on the
    /// lane's worker), so the steady-state call that opens no pool scope
    /// allocates nothing.
    ///
    /// Each bag pools in lookup order, as [`Dlrm::predict`] pools it: a
    /// query's scores are bit for bit `predict` over the same query,
    /// whichever thread scored its rows.
    ///
    /// A query that is the same `Arc` as an earlier query of the batch
    /// ([`Arc::ptr_eq`]) is scored once: the split decision, the bands and
    /// the checks run over the batch's distinct queries, and each later
    /// occurrence takes a copy of its first occurrence's rows. The view is
    /// in admission order all the same, every occurrence with its own
    /// rows. Equal [`Query::id`]s are not the same query.
    ///
    /// # Errors
    ///
    /// Returns an error when a query disagrees with the model's shape
    /// (table count, dense width, index range), has no candidates or a
    /// non-finite dense feature, or the batch is empty; an error scores
    /// nothing. Every check that reads no index array runs over the whole
    /// batch first (a repeat is the query it repeats, so it passes what
    /// its first occurrence passed), and each band checks each bag's rows
    /// just before it pools them. So a query's row past its table is
    /// reported only when no query of the batch, even a later one, fails
    /// a first-pass check; among several rows past their tables, the
    /// error names the first of the lowest (query, table).
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
        // Pass 1: match each query to an earlier one that is the same
        // `Arc`, check every distinct query for everything that reads no
        // index array, and lay out the fused batch and its distinct rows.
        // A repeat passes every check its first occurrence passed.
        self.offsets.clear();
        self.offsets.push(0);
        self.slots.clear();
        self.distinct_offsets.clear();
        self.distinct_offsets.push(0);
        let (mut total, mut distinct_total, mut lookups) = (0usize, 0usize, 0usize);
        for q in queries.clone() {
            total += q.candidates();
            self.offsets.push(total);
            let seen = distinct(queries.clone(), &self.slots).position(|d| Arc::ptr_eq(d, q));
            if let Some(slot) = seen {
                self.slots.push(slot);
                continue;
            }
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
                lookups += idx.len();
            }
            self.slots.push(self.distinct_offsets.len() - 1);
            distinct_total += q.candidates();
            self.distinct_offsets.push(distinct_total);
        }
        let num_queries = self.offsets.len() - 1;
        if num_queries == 0 {
            return Err(EmbeddingError::InvalidIndex(
                "cannot score an empty batch".to_string(),
            ));
        }

        // Pass 2: cut the distinct rows into bands, one a participant of
        // the lane's scope.
        let split = lookups >= self.split_min_lookups
            || (self.lane.is_some() && model.dense_splits_at(distinct_total));
        if split {
            self.lane.get_or_insert_with(|| Arc::new(Pool::new(1)));
        }
        let participants = match &self.lane {
            Some(lane) if split => Exec::pooled(lane).threads().min(distinct_total),
            _ => 1,
        };
        let slots = &self.slots;
        cut_bands(
            distinct(queries.clone(), slots),
            &self.distinct_offsets,
            participants,
            &mut self.cuts,
        );
        let num_bands = self.cuts.len() - 1;
        if self.bands.len() < num_bands {
            self.bands.resize_with(num_bands, Band::default);
        }

        // Pass 3: every band scored as an inline engine scores a batch,
        // its logits copied into its rows of the distinct logits. The
        // calling thread takes band 0.
        self.distinct_logits.zero_into(distinct_total, 1);
        let offsets = &self.distinct_offsets;
        let run = |band: &mut Band, rows: Range<usize>, logits: &mut [f32]| {
            let queries = || distinct(queries.clone(), slots);
            band.error = score_band(model, queries, offsets, rows, band, logits).err();
        };
        let mut logits = self.distinct_logits.as_mut_slice();
        let mut bands = self
            .bands
            .iter_mut()
            .zip(self.cuts.windows(2))
            .map(|(band, cut)| {
                let (mine, rest) = std::mem::take(&mut logits).split_at_mut(cut[1] - cut[0]);
                logits = rest;
                (band, cut[0]..cut[1], mine)
            });
        match self.lane.as_deref() {
            Some(lane) if num_bands > 1 => lane.scope(|scope| {
                let (first, first_rows, first_logits) = bands.next().expect("a band");
                let run = &run;
                for (band, rows, logits) in bands {
                    scope.spawn(move || run(band, rows, logits));
                }
                run(first, first_rows, first_logits);
            }),
            _ => bands.for_each(|(band, rows, logits)| run(band, rows, logits)),
        }
        if let Some(error) = self.bands[..num_bands]
            .iter_mut()
            .find_map(|b| b.error.take())
        {
            // A band stops at the first bad row it meets, so the error to
            // report is found again, in (query, table) order. A repeat
            // comes after its first occurrence, which fails first.
            for q in distinct(queries, slots) {
                for (t, idx) in q.indices.iter().enumerate() {
                    idx.validate_against_rows(model.table(t).rows())?;
                }
            }
            return Err(error);
        }

        // Demux: every query copies its distinct query's rows into its own
        // rows of the fused logits, in admission order.
        self.logits.zero_into(total, 1);
        let fused = self.logits.as_mut_slice();
        let scored = self.distinct_logits.as_slice();
        for (rows, &slot) in self.offsets.windows(2).zip(&self.slots) {
            let from = self.distinct_offsets[slot]..self.distinct_offsets[slot + 1];
            fused[rows[0]..rows[1]].copy_from_slice(&scored[from]);
        }

        self.rows_scored += distinct_total as u64;
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

/// The distinct queries of a batch, in order of first occurrence, where
/// `slots` maps each query (a prefix of the batch, when it is shorter) to
/// its distinct query. Slots are numbered in order of first occurrence,
/// so a query occurs first exactly when its slot is the next new one.
fn distinct<'q, 's, I>(
    queries: I,
    slots: &'s [usize],
) -> impl Iterator<Item = &'q Arc<Query>> + use<'q, 's, I>
where
    I: IntoIterator<Item = &'q Arc<Query>>,
{
    let mut next = 0;
    queries
        .into_iter()
        .zip(slots)
        .filter_map(move |(q, &slot)| {
            let first = slot == next;
            next += usize::from(first);
            first.then_some(q)
        })
}

/// Cuts a batch laid out by `offsets` into at most `participants` bands
/// of sample rows, as even as the cut rule lets them be, and writes their
/// bounds to `cuts` (`0`, every cut, the total). A cut falls between two
/// queries, or inside a query only when each of its index arrays lists
/// its lookups in sample order (non-decreasing `dst`), so that a band can
/// take its rows' lookups as one run of each array; otherwise it moves to
/// that query's end. Only a query a cut falls inside is checked.
fn cut_bands<'q, I>(queries: I, offsets: &[usize], participants: usize, cuts: &mut Vec<usize>)
where
    I: IntoIterator<Item = &'q Arc<Query>>,
{
    let total = *offsets.last().expect("offsets non-empty");
    cuts.clear();
    cuts.push(0);
    let mut band = 1;
    for (q, rows) in queries.into_iter().zip(offsets.windows(2)) {
        let mut in_order = None;
        while band < participants && band * total / participants < rows[1] {
            let target = band * total / participants;
            band += 1;
            let cut = if target == rows[0]
                || *in_order.get_or_insert_with(|| q.indices.iter().all(|i| i.dst().is_sorted()))
            {
                target
            } else {
                rows[1]
            };
            if cut > *cuts.last().expect("cuts non-empty") && cut < total {
                cuts.push(cut);
            }
        }
    }
    cuts.push(total);
}

/// Scores sample rows `rows` of the batch `queries()` laid out by
/// `offsets` into `band`, as an inline engine scores a whole batch, and
/// copies the band's logits into `logits`: fuses the rows' dense
/// features, checks and pools each query's bags of every table in lookup
/// order, and runs the dense stack on the calling thread.
///
/// # Errors
///
/// Returns [`EmbeddingError::SrcOutOfBounds`], naming the bag's largest
/// row, at the first bag met with a row past its table, before anything
/// of it is pooled.
fn score_band<'q, F, I>(
    model: &Dlrm,
    queries: F,
    offsets: &[usize],
    rows: Range<usize>,
    band: &mut Band,
    logits: &mut [f32],
) -> Result<(), EmbeddingError>
where
    F: Fn() -> I,
    I: Iterator<Item = &'q Arc<Query>>,
{
    // The band's queries, each with its window of the band: the query's
    // first row in the band, and the range of its own rows the band holds.
    let first = offsets.partition_point(|&o| o <= rows.start) - 1;
    let band_queries = || {
        queries()
            .zip(offsets.windows(2))
            .skip(first)
            .take_while(|(_, q_rows)| q_rows[0] < rows.end)
            .map(|(q, q_rows)| {
                let mine = rows.start.max(q_rows[0])..rows.end.min(q_rows[1]);
                (
                    q,
                    mine.start - rows.start,
                    mine.start - q_rows[0]..mine.end - q_rows[0],
                )
            })
    };
    let config = model.config();
    band.dense.zero_into(rows.len(), config.dense_features);
    for (q, at, mine) in band_queries() {
        for (r, sample) in mine.enumerate() {
            band.dense
                .row_mut(at + r)
                .copy_from_slice(q.dense.row(sample));
        }
    }
    let pooled = band.scratch.pooled_mut();
    pooled.resize_with(model.num_tables(), Matrix::default);
    for (t, out) in pooled.iter_mut().enumerate() {
        let table = model.table(t);
        out.zero_into(rows.len(), config.embedding_dim);
        for (q, at, mine) in band_queries() {
            let index = &q.indices[t];
            let (mut src, mut dst) = (index.src(), index.dst());
            if mine.len() < q.candidates() {
                // A query cut between two bands lists its lookups in sample
                // order: the band's are one run of them.
                let lookups = dst.partition_point(|&d| (d as usize) < mine.start)
                    ..dst.partition_point(|&d| (d as usize) < mine.end);
                (src, dst) = (&src[lookups.clone()], &dst[lookups]);
            }
            let max = src.iter().copied().max();
            if let Some(bad) = max.filter(|&max| max as usize >= table.rows()) {
                let rows = table.rows();
                return Err(EmbeddingError::SrcOutOfBounds { src: bad, rows });
            }
            accumulate_rows(table.as_slice(), src, dst, out, at, mine.start);
        }
    }
    model
        .dense_infer_into(
            &band.dense,
            &mut band.scratch,
            &mut band.logits,
            Exec::Serial,
        )
        .map_err(EmbeddingError::from)?;
    logits.copy_from_slice(band.logits.as_slice());
    Ok(())
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
        // One query repeated eight times: 2,560 lookups in the batch, but
        // the engine scores 320 of them, so it starts no lane.
        let repeated = vec![Arc::clone(&queries[0]); 8];
        let mut engine = ServeEngine::with_defaults(&m);
        let scored = engine.score(&m, &repeated).unwrap();
        let want = m.predict(&queries[0].dense, &queries[0].indices).unwrap();
        for i in 0..repeated.len() {
            assert_eq!(scored.scores(i), want.as_slice(), "occurrence {i}");
        }
        assert!(engine.lane.is_none(), "a repeated query started the lane");
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
    fn a_repeated_query_is_scored_once() {
        let m = model();
        let wl = workload(7);
        let (a, b) = (Arc::clone(wl.query(0)), Arc::clone(wl.query(1)));
        let want_a = m.predict(&a.dense, &a.indices).unwrap();
        let want_b = m.predict(&b.dense, &b.indices).unwrap();
        let mut engine = ServeEngine::with_defaults(&m);
        let thrice = [Arc::clone(&a), Arc::clone(&a), Arc::clone(&a)];
        let scored = engine.score(&m, &thrice).unwrap();
        assert_eq!(scored.num_samples(), 3 * a.candidates());
        for i in 0..3 {
            assert_eq!(scored.scores(i), want_a.as_slice(), "occurrence {i}");
        }
        assert_eq!(engine.rows_scored, a.candidates() as u64);
        assert_eq!(engine.queries_scored(), 3);
        // Interleaved with another query: each distinct query's rows once,
        // every position in admission order.
        let mixed = [&a, &b, &a, &b, &b].map(Arc::clone);
        let scored = engine.score(&m, &mixed).unwrap();
        for (i, q) in mixed.iter().enumerate() {
            let want = if Arc::ptr_eq(q, &a) { &want_a } else { &want_b };
            assert_eq!(scored.scores(i), want.as_slice(), "position {i}");
        }
        assert_eq!(
            engine.rows_scored,
            (2 * a.candidates() + b.candidates()) as u64
        );
        assert_eq!(engine.queries_scored(), 8);
    }

    #[test]
    fn a_lent_pool_splits_the_dense_stack_under_the_floor() {
        // One query of 16 candidates over two tables of pooling 3 and 2:
        // 80 lookups, far under the floor. The bottom MLP's 16x512x512
        // product reaches the GEMMs' own floor, so the batch splits into
        // two bands over the lent pool, cut inside the query: poisoning
        // the pool's next task panics the batch.
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
    /// against the inline one, in 8 rounds of alternating blocks. Calls
    /// run back to back, so that the lane's worker stays polling, and then
    /// 5 ms apart, past the pool's 3 ms poll, so that it has parked
    /// (`parked`). Prints each batch's split/inline time ratio, its median
    /// and quartiles over the rounds (under 1: the split batch is faster).
    /// Run it with
    /// `cargo test --release -p tcast-serve split_floor_probe -- --ignored --nocapture`.
    #[test]
    #[ignore = "timing probe; run in release with --nocapture"]
    fn split_floor_probe() {
        use std::time::{Duration, Instant};
        const ROUNDS: usize = 8;
        let quartiles = |v: &mut [f64]| {
            v.sort_by(f64::total_cmp);
            [v[v.len() / 4], v[v.len() / 2], v[v.len() * 3 / 4]]
        };
        for (gap, calls, label) in [
            (None, 100, ""),
            (Some(Duration::from_millis(5)), 12, " parked"),
        ] {
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
                        for (engine, median) in
                            [&mut split, &mut inline].into_iter().zip(&mut medians)
                        {
                            let mut ns: Vec<f64> = (0..=calls)
                                .map(|i| {
                                    let q = std::iter::once(&queries[i % queries.len()]);
                                    if let Some(gap) = gap {
                                        std::thread::sleep(gap);
                                    }
                                    let t0 = Instant::now();
                                    std::hint::black_box(
                                        engine.score(&m, q).unwrap().num_samples(),
                                    );
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
                         {ROUNDS} rounds){label}"
                    );
                }
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
