//! The instrumented training loop: baseline vs. Tensor-Casting backward,
//! with per-phase wall-clock timings (the repository's Fig. 4/12
//! real-system measurement harness).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::config::DlrmConfig;
use crate::metrics::{evaluate_ctr, CtrMetrics};
use crate::model::{Dlrm, InferenceScratch};
use tcast_core::{
    blocked_casted_backward, CastedIndexArray, CastingPipeline, FaultPlan, JobTicket, PipelineStats,
};
use tcast_datasets::CtrBatch;
use tcast_embedding::{
    gather_reduce_into, gradient_coalesce_into, gradient_expand_into,
    optim::{RowOptimizer, UpdateRule},
    scatter_apply_coalesced, BlockScratch, CoalescedScratch, EmbeddingError, EmbeddingTable,
    IndexArray,
};
use tcast_pool::{Exec, Pool};
use tcast_tensor::{bce_with_logits, bce_with_logits_backward_into, Matrix};

/// Which embedding-backward implementation the trainer runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackwardMode {
    /// Gradient expand → coalesce (Algorithm 1) → scatter.
    Baseline,
    /// Tensor Casting: pipeline-precomputed casted arrays + casted
    /// gather-reduce (Algorithms 2-3) → scatter, fused a block of coalesced
    /// rows at a time (`tcast_core::blocked_casted_backward`).
    Casted,
}

/// Wall-clock time of each training phase, one mini-batch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTimings {
    /// Embedding gather-reduce (forward), as far as the step waited for
    /// it: the in-step gather, or ~0 when the step adopted a gather run
    /// ahead for it; plus whatever this step's own completion spent,
    /// after its last scatter returned, finishing the *next* step's
    /// gather-ahead (see [`Trainer::complete_step`]).
    pub fwd_gather: Duration,
    /// Bottom MLP + interaction + top MLP (forward).
    pub fwd_dnn: Duration,
    /// Top/bottom MLP + interaction backward.
    pub bwd_dnn: Duration,
    /// Baseline: expand + coalesce. Casted: exposed wait for the casted
    /// arrays + the casted gather-reduce — the accumulate half of every
    /// block of the blocked casted backward, summed.
    pub bwd_embedding: Duration,
    /// Scatter / optimizer update of the tables (casted: the update half
    /// of every block, summed).
    pub bwd_scatter: Duration,
}

impl std::ops::AddAssign for PhaseTimings {
    /// Phase-wise accumulation, so multi-step totals are summed in one
    /// place (`total += report.timings`) — a new phase field extends
    /// every accumulator at once.
    fn add_assign(&mut self, rhs: PhaseTimings) {
        self.fwd_gather += rhs.fwd_gather;
        self.fwd_dnn += rhs.fwd_dnn;
        self.bwd_dnn += rhs.bwd_dnn;
        self.bwd_embedding += rhs.bwd_embedding;
        self.bwd_scatter += rhs.bwd_scatter;
    }
}

impl PhaseTimings {
    /// Total measured time.
    pub fn total(&self) -> Duration {
        self.fwd_gather + self.fwd_dnn + self.bwd_dnn + self.bwd_embedding + self.bwd_scatter
    }

    /// Fraction of time in embedding backpropagation (the paper's 62-92%
    /// characterization).
    pub fn embedding_backward_fraction(&self) -> f64 {
        let total = self.total().as_secs_f64();
        if total == 0.0 {
            return 0.0;
        }
        (self.bwd_embedding + self.bwd_scatter).as_secs_f64() / total
    }
}

/// Result of one training step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepReport {
    /// Mini-batch BCE loss.
    pub loss: f32,
    /// Per-phase wall-clock timings.
    pub timings: PhaseTimings,
    /// How long this step blocked waiting for its casted index arrays
    /// (a subset of `timings.bwd_embedding`). Always zero in baseline
    /// mode; zero in casted mode means this step's casting latency was
    /// fully hidden — the per-step Fig. 9b metric the cross-batch driver
    /// collapses by looking ahead.
    pub exposed_cast_wait: Duration,
    /// Tables whose forward gather this step adopted from the previous
    /// completion's gather-ahead instead of running it in-step: the table
    /// count when [`Trainer::complete_step`] was handed this step as the
    /// previous one's successor, 0 otherwise.
    pub gathered_ahead: usize,
}

/// Which optimizer updates the embedding tables.
///
/// Section II-B's point is that *all* of these need coalesced gradients;
/// the trainer keeps one optimizer instance per table so stateful
/// accumulators never alias across tables.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EmbeddingOptimizer {
    /// Plain SGD (the default).
    Sgd,
    /// SGD with heavy-ball momentum.
    Momentum {
        /// Momentum coefficient.
        mu: f32,
    },
    /// Adagrad (the paper's Eq. 2).
    Adagrad {
        /// Stabilizer epsilon.
        eps: f32,
    },
    /// RMSprop (the paper's Eq. 1).
    RmsProp {
        /// Accumulator decay.
        gamma: f32,
        /// Stabilizer epsilon.
        eps: f32,
    },
    /// Adam with per-row bias-correction step counts.
    Adam {
        /// First-moment decay.
        beta1: f32,
        /// Second-moment decay.
        beta2: f32,
        /// Stabilizer epsilon.
        eps: f32,
    },
}

impl EmbeddingOptimizer {
    /// The update rule this configuration names, at learning rate `lr`.
    pub(crate) fn build(&self, lr: f32) -> UpdateRule {
        match *self {
            EmbeddingOptimizer::Sgd => UpdateRule::Sgd { lr },
            EmbeddingOptimizer::Momentum { mu } => UpdateRule::Momentum { lr, mu },
            EmbeddingOptimizer::Adagrad { eps } => UpdateRule::Adagrad { lr, eps },
            EmbeddingOptimizer::RmsProp { gamma, eps } => UpdateRule::RmsProp { lr, gamma, eps },
            EmbeddingOptimizer::Adam { beta1, beta2, eps } => UpdateRule::Adam {
                lr,
                beta1,
                beta2,
                eps,
            },
        }
    }
}

/// How the trainer's kernels execute.
///
/// Serial and pooled execution are **bit-identical** (every pooled kernel
/// preserves the serial per-output accumulation order), so this only
/// selects a schedule — determinism tests can run serial while
/// throughput runs pooled, and trajectories still match exactly.
#[derive(Clone, Default)]
pub enum Execution {
    /// No caller-supplied pool: the embedding kernels run unsplit on the
    /// training thread. The trainer still owns background threads of its
    /// own — the casting worker (casted mode) and a one-worker *lane*,
    /// started when first needed, which gathers ahead for a step completed
    /// with a successor and takes half of every dense GEMM large enough to
    /// split (`dW` beside `dX`, forward row bands), the training thread
    /// taking the other half.
    #[default]
    Serial,
    /// Hot kernels split across the given persistent pool, which also
    /// runs the gather-ahead tasks.
    Pooled(Arc<Pool>),
}

impl Execution {
    /// The borrowed [`Exec`] the kernels take: serial, or pooled over all
    /// of the pool's workers.
    pub fn as_exec(&self) -> Exec<'_> {
        match self {
            Execution::Serial => Exec::Serial,
            Execution::Pooled(pool) => Exec::pooled(pool),
        }
    }
}

impl std::fmt::Debug for Execution {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Execution::Serial => write!(f, "Serial"),
            Execution::Pooled(pool) => write!(f, "Pooled({} threads)", pool.threads()),
        }
    }
}

/// Reusable per-step buffers: after the first step (which sizes them to
/// the batch's high-water mark) a steady-state training step performs no
/// heap allocation in the embedding/MLP hot path — every intermediate is
/// `zero_into`-recycled.
#[derive(Debug, Default)]
struct StepScratch {
    /// The dense stack's buffers: this step's pooled embeddings
    /// ([`InferenceScratch::pooled_mut`]), every activation its forward
    /// leaves and its backward borrows, and the dense gradients.
    dense: InferenceScratch,
    /// The spare `pooled` set a completion's gather-ahead fills for the
    /// next step, which adopts it by swapping it with `dense`'s.
    pooled_ahead: Vec<Matrix>,
    logits: Matrix,
    dlogits: Matrix,
    dpooled: Vec<Matrix>,
    /// Baseline mode's per-table coalesced gradients: what its scatter
    /// consumes.
    coalesced: Vec<CoalescedScratch>,
    /// Baseline mode's per-table `n x D` expand intermediates — still
    /// materialized every step (that cost is the paper's subject), but
    /// recycled instead of re-allocated.
    expanded: Vec<Matrix>,
    /// Casted mode's coalesced-gradient blocks: all that is ever
    /// materialized of the coalesced gradient, shared by every table.
    blocks: BlockScratch,
}

/// A training step whose casting has been submitted but whose
/// forward/backward has not yet run: the handle returned by
/// [`Trainer::begin_step`] and consumed by [`Trainer::complete_step`].
///
/// Holds the batch alive (an `Arc` share, no copy) together with the
/// casting-pipeline ticket, so a driver can keep several of these in
/// flight — each one's casting job runs on the pipeline worker while
/// earlier steps train.
#[derive(Debug)]
pub struct InFlightStep {
    batch: Arc<CtrBatch>,
    ticket: Option<JobTicket>,
}

impl InFlightStep {
    /// The batch this step will train on.
    pub fn batch(&self) -> &Arc<CtrBatch> {
        &self.batch
    }

    /// Whether a casting job is in flight for this step (casted mode).
    pub fn has_casting_job(&self) -> bool {
        self.ticket.is_some()
    }
}

/// An instrumented DLRM trainer.
pub struct Trainer {
    model: Dlrm,
    mode: BackwardMode,
    lr: f32,
    pipeline: Option<CastingPipeline>,
    /// The optimizer configuration the per-table instances were built
    /// from — kept so [`Trainer::set_learning_rate`] can rebuild them
    /// with the user's hyperparameters intact.
    optimizer: EmbeddingOptimizer,
    /// One optimizer per table: one slab of state keyed by table row.
    table_optimizers: Vec<RowOptimizer>,
    steps: u64,
    execution: Execution,
    scratch: StepScratch,
    /// What `scratch.pooled_ahead` holds: the forward gather of this batch
    /// (the share keeps its address from being reused) against the tables
    /// as they stood at this step count. Every step that runs takes it (a
    /// 0-row batch is refused first: nothing moved), and every other door
    /// to the table bits drops it.
    ahead: Option<(Arc<CtrBatch>, u64)>,
    /// The one-worker pool a trainer under [`Execution::Serial`] shares
    /// its step with ([`Execution::Pooled`] uses its own pool for both
    /// jobs): gather-ahead tasks run on it beside the scatter, and the
    /// dense phases split their large GEMMs between it and the training
    /// thread. Started by the first step that needs it — a completion with
    /// a successor, or a batch at which [`Dlrm::dense_splits_at`] holds —
    /// so a small model trained step by step never has one.
    lane: Option<Pool>,
    fault: Option<FaultPlan>,
    /// Tests only: the table whose embedding backward fails.
    #[cfg(test)]
    failing_backward: Option<usize>,
}

/// The [`FaultPlan`] site every gather-ahead task passes once.
pub const GATHER_AHEAD_FAULT_SITE: &str = "trainer.gather_ahead";

/// The [`FaultPlan`] site a step passes once before its dense backward,
/// when that backward will split a GEMM: an armed occurrence makes the
/// first band task of the phase panic.
pub const DENSE_GEMM_FAULT_SITE: &str = "trainer.dense_gemm";

impl std::fmt::Debug for Trainer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Trainer")
            .field("mode", &self.mode)
            .field("lr", &self.lr)
            .field("steps", &self.steps)
            .field("optimizer", &self.optimizer.build(self.lr).name())
            .finish()
    }
}

/// One step's per-table backward: `update(t, table)` for every table in
/// order, each followed by `after(t, table)` with the table shared for as
/// long as the slice was borrowed — which is what lets a scoped task keep
/// reading table `t` while `update` writes table `t + 1`. Returns when the
/// last update returned.
///
/// On an error the tables before the failing one stay updated, as in any
/// failed step.
fn update_tables<'env>(
    tables: &'env mut [EmbeddingTable],
    mut update: impl FnMut(usize, &mut EmbeddingTable) -> Result<(), EmbeddingError>,
    mut after: impl FnMut(usize, &'env EmbeddingTable),
) -> Result<Instant, EmbeddingError> {
    for (t, table) in tables.iter_mut().enumerate() {
        update(t, table)?;
        after(t, table);
    }
    Ok(Instant::now())
}

/// The [`Exec`] one dense phase runs under. With a caller's pool: that
/// pool. Without one the phase is still a two-thread computation: when a
/// GEMM of it `splits`, the lane (started here if need be) takes half of
/// every such GEMM and the training thread, helping in the scope, the
/// other half.
fn dense_exec<'a>(exec: Exec<'a>, splits: bool, lane: &'a mut Option<Pool>) -> Exec<'a> {
    match exec {
        Exec::Serial if splits => Exec::Pooled {
            pool: lane.get_or_insert_with(|| Pool::new(1)),
            threads: 2,
        },
        exec => exec,
    }
}

impl Trainer {
    /// Builds a trainer over a fresh model.
    ///
    /// # Errors
    ///
    /// Returns an error if the configuration is invalid.
    pub fn new(config: DlrmConfig, mode: BackwardMode, seed: u64) -> Result<Self, EmbeddingError> {
        Self::with_optimizer(config, mode, EmbeddingOptimizer::Sgd, seed)
    }

    /// Builds a trainer with an explicit embedding optimizer (serial
    /// execution).
    ///
    /// # Errors
    ///
    /// Returns an error if the configuration is invalid.
    pub fn with_optimizer(
        config: DlrmConfig,
        mode: BackwardMode,
        optimizer: EmbeddingOptimizer,
        seed: u64,
    ) -> Result<Self, EmbeddingError> {
        Self::with_execution(config, mode, optimizer, Execution::Serial, seed)
    }

    /// Builds a trainer with an explicit embedding optimizer and
    /// execution mode. [`Execution::Pooled`] runs the hot kernels
    /// (gather-reduce, MLP GEMMs, casted gather-reduce, and the
    /// band-parallel optimizer scatter) on the given persistent pool;
    /// [`Execution::Serial`] still splits its large MLP GEMMs with the
    /// trainer's own lane. Trajectories are bit-identical either way.
    ///
    /// # Errors
    ///
    /// Returns an error if the configuration is invalid.
    pub fn with_execution(
        config: DlrmConfig,
        mode: BackwardMode,
        optimizer: EmbeddingOptimizer,
        execution: Execution,
        seed: u64,
    ) -> Result<Self, EmbeddingError> {
        let lr = 0.05;
        let model = Dlrm::new(config, seed)?;
        let pipeline = match mode {
            BackwardMode::Casted => Some(CastingPipeline::new()),
            BackwardMode::Baseline => None,
        };
        let table_optimizers = vec![RowOptimizer::new(optimizer.build(lr)); model.num_tables()];
        Ok(Self {
            model,
            mode,
            lr,
            pipeline,
            optimizer,
            table_optimizers,
            steps: 0,
            execution,
            scratch: StepScratch::default(),
            ahead: None,
            lane: None,
            fault: None,
            #[cfg(test)]
            failing_backward: None,
        })
    }

    /// Arms deterministic fault injection: every gather-ahead task hits
    /// [`GATHER_AHEAD_FAULT_SITE`] on `plan` once before gathering, every
    /// step whose dense backward splits a GEMM hits
    /// [`DENSE_GEMM_FAULT_SITE`] once before it, and an armed occurrence
    /// panics the task (the first band of that backward) — the handle for
    /// proving that a crash on the lane resurfaces on the training thread
    /// (`tests/pipelined_training.rs`).
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault = Some(plan);
    }

    /// Sets the (shared) learning rate. Defaults to 0.05.
    ///
    /// Rebuilds the per-table optimizer instances from the stored
    /// [`EmbeddingOptimizer`] configuration, so every user-supplied
    /// hyperparameter (epsilons, decays, betas) survives the rebuild.
    ///
    /// # Panics
    ///
    /// Panics if called after training started: stateful embedding
    /// optimizers bake the rate into their per-row state.
    pub fn set_learning_rate(&mut self, lr: f32) {
        assert_eq!(self.steps, 0, "set the learning rate before training");
        self.lr = lr;
        self.table_optimizers = vec![self.fresh_table_optimizer(); self.model.num_tables()];
    }

    /// The backward mode in use.
    pub fn mode(&self) -> BackwardMode {
        self.mode
    }

    /// Snapshot of the casting pipeline's timing statistics (`None` in
    /// baseline mode, which has no pipeline). The exposed-wait /
    /// hidden-fraction numbers here are the paper's Fig. 9b metric for
    /// this trainer's whole run so far.
    pub fn pipeline_stats(&self) -> Option<PipelineStats> {
        self.pipeline.as_ref().map(CastingPipeline::stats)
    }

    /// Immutable model access.
    pub fn model(&self) -> &Dlrm {
        &self.model
    }

    /// Mutable model access for checkpoint restore (crate-internal: the
    /// staged [`crate::checkpoint::TrainCheckpoint`] is the public door).
    pub(crate) fn model_mut(&mut self) -> &mut Dlrm {
        self.drop_gather_ahead();
        &mut self.model
    }

    /// Forgets a gather run ahead for a step not yet completed; that step
    /// then gathers in-step. For every path that can change table bits
    /// between two completions.
    pub(crate) fn drop_gather_ahead(&mut self) {
        self.ahead = None;
    }

    /// Steps taken so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// The shared learning rate in effect.
    pub fn learning_rate(&self) -> f32 {
        self.lr
    }

    /// The optimizer configuration the per-table instances were built
    /// from.
    pub fn optimizer_config(&self) -> EmbeddingOptimizer {
        self.optimizer
    }

    /// The per-table optimizer instances — the checkpoint save path reads
    /// each one's state blob through [`RowOptimizer::save_state`].
    pub fn table_optimizers(&self) -> &[RowOptimizer] {
        &self.table_optimizers
    }

    /// A fresh optimizer for one table — the shape the checkpoint restore
    /// path decodes saved state into (same hyperparameters, empty slabs).
    pub(crate) fn fresh_table_optimizer(&self) -> RowOptimizer {
        RowOptimizer::new(self.optimizer.build(self.lr))
    }

    /// Installs checkpoint-restored per-table optimizers and the saved
    /// step counter (the final, infallible stage of
    /// [`crate::checkpoint::TrainCheckpoint::restore_into`]).
    pub(crate) fn install_restored(&mut self, optimizers: Vec<RowOptimizer>, steps: u64) {
        self.table_optimizers = optimizers;
        self.steps = steps;
        self.drop_gather_ahead();
    }

    /// Runs one training step and reports loss + phase timings.
    ///
    /// In casted mode the index arrays are submitted to the casting
    /// pipeline *before* forward propagation begins, exactly as the
    /// Section IV-B runtime ships them to the GPU; the backward phase
    /// then blocks only on whatever casting latency was not hidden.
    ///
    /// This is exactly the depth-0 composition of
    /// [`Trainer::begin_step`] + [`Trainer::complete_step`]: casting can
    /// only overlap this batch's own forward pass. The
    /// [`crate::TrainLoop`] driver widens the overlap window across
    /// batches while producing a bit-identical trajectory.
    ///
    /// # Errors
    ///
    /// Returns an error on shape/index inconsistencies in the batch, or if
    /// it has no rows; a failed step does not count.
    pub fn step(&mut self, batch: &CtrBatch) -> Result<StepReport, EmbeddingError> {
        let ticket = self.submit_casting(&batch.indices);
        self.run_step(batch, ticket, None)
    }

    /// Begins a training step: submits the batch's index arrays to the
    /// casting pipeline (casted mode) and returns a handle holding the
    /// batch share + ticket. No model state is read or written — casting
    /// depends only on the indices, which is what makes beginning future
    /// steps ahead of completing the current one trajectory-preserving.
    ///
    /// If the pipeline's bounded in-flight cap is reached, this call
    /// blocks until the casting worker drains a job (backpressure), so a
    /// runaway lookahead cannot grow the casting queue without bound.
    ///
    /// The returned step must be completed by **this** trainer, in the
    /// order it was begun relative to other in-flight steps.
    pub fn begin_step(&mut self, batch: Arc<CtrBatch>) -> InFlightStep {
        let ticket = self.submit_casting(&batch.indices);
        InFlightStep { batch, ticket }
    }

    /// Completes a step begun with [`Trainer::begin_step`]: runs
    /// forward, backward and the optimizer scatter, blocking only on
    /// whatever casting latency was not hidden (reported per step in
    /// [`StepReport::exposed_cast_wait`]).
    ///
    /// `next` is the step begun right after this one, if there is one.
    /// Its forward gather of table `i` reads only its own indices and
    /// table `i` as this step's scatter leaves it, and tables are
    /// disjoint — so as each table's scatter returns, that table's gather
    /// for `next` starts on a background thread while this thread scatters
    /// the following table, reading exactly the bits the in-step gather
    /// would read later. Completing `next` then adopts the result
    /// ([`StepReport::gathered_ahead`]) if it is still current: same batch
    /// share, same step count, tables untouched in between. A gather-ahead
    /// that fails (a bad id in `next`) is discarded and `next` reports the
    /// error from its own in-step gather. Any `next` trains bit-identically
    /// to `None`.
    ///
    /// # Errors
    ///
    /// Returns an error on shape/index inconsistencies in the batch.
    ///
    /// # Panics
    ///
    /// Resumes a panic of a gather-ahead task on this thread.
    pub fn complete_step(
        &mut self,
        step: InFlightStep,
        next: Option<&InFlightStep>,
    ) -> Result<StepReport, EmbeddingError> {
        let InFlightStep { batch, ticket } = step;
        self.run_step(&batch, ticket, next.map(InFlightStep::batch))
    }

    fn submit_casting(&mut self, indices: &Arc<[IndexArray]>) -> Option<JobTicket> {
        // The batch's index arrays are Arc-shared, so this is a refcount
        // bump, not a per-table deep clone.
        self.pipeline
            .as_mut()
            .map(|p| p.submit(Arc::clone(indices)))
    }

    /// The forward/backward/scatter body shared by [`Trainer::step`] and
    /// [`Trainer::complete_step`].
    fn run_step(
        &mut self,
        batch: &CtrBatch,
        mut ticket: Option<JobTicket>,
        next: Option<&Arc<CtrBatch>>,
    ) -> Result<StepReport, EmbeddingError> {
        let mut casted = None;
        let report = self.run_step_phases(batch, &mut ticket, &mut casted, next);
        if let Some(pipeline) = self.pipeline.as_mut() {
            // A step that failed before its casted backward (bad id, wrong
            // table count, label mismatch) still owns its casting job:
            // drain it, or the result sits in the pipeline forever and
            // every later collect counts as out of order.
            if let Some(orphan) = ticket {
                casted = Some(pipeline.collect(orphan));
            }
            // Either way the arrays go back for a later job to be cast
            // into.
            if let Some(casted) = casted {
                pipeline.recycle(casted);
            }
        }
        report
    }

    /// [`Trainer::run_step`]'s phases; takes `ticket` when the casted
    /// backward collects it, leaving the collected arrays in `casted`.
    fn run_step_phases(
        &mut self,
        batch: &CtrBatch,
        ticket: &mut Option<JobTicket>,
        casted: &mut Option<Vec<CastedIndexArray>>,
        next: Option<&Arc<CtrBatch>>,
    ) -> Result<StepReport, EmbeddingError> {
        if batch.dense.rows() == 0 {
            // Nothing to average a loss or a gradient over; refused before
            // any model or optimizer state is read or written.
            return Err(EmbeddingError::InvalidIndex(
                "empty batch: a training step needs at least one sample".into(),
            ));
        }
        let exec = self.execution.as_exec();

        // FWD (Gather): adopt the gather the previous completion ran ahead
        // for this very batch against the tables as they are now, or
        // gather in-step. Taken either way, so a held gather never
        // outlives the next table write.
        let t0 = Instant::now();
        let pooled = self.scratch.dense.pooled_mut();
        let gathered_ahead = match self.ahead.take() {
            Some((held, steps))
                if std::ptr::eq(Arc::as_ptr(&held), batch) && steps == self.steps =>
            {
                std::mem::swap(pooled, &mut self.scratch.pooled_ahead);
                pooled.len()
            }
            _ => {
                self.model
                    .embedding_forward_into(&batch.indices, pooled, exec)?;
                0
            }
        };
        let mut fwd_gather = t0.elapsed();

        // FWD (DNN) + loss.
        let t0 = Instant::now();
        let splits = self.model.dense_splits_at(batch.dense.rows());
        let fwd_exec = dense_exec(exec, splits, &mut self.lane);
        self.model.dense_infer_into(
            &batch.dense,
            &mut self.scratch.dense,
            &mut self.scratch.logits,
            fwd_exec,
        )?;
        let loss = bce_with_logits(&self.scratch.logits, &batch.labels)?;
        bce_with_logits_backward_into(
            &self.scratch.logits,
            &batch.labels,
            &mut self.scratch.dlogits,
        )?;
        let fwd_dnn = t0.elapsed();

        // BWD (DNN).
        let t0 = Instant::now();
        let bwd_exec = dense_exec(exec, splits, &mut self.lane);
        if let (true, Some(plan), Some(pool)) = (splits, &self.fault, bwd_exec.pool()) {
            if plan.should_fail(DENSE_GEMM_FAULT_SITE) {
                pool.poison_next_task();
            }
        }
        self.model.dense_backward_into(
            &batch.dense,
            &mut self.scratch.dense,
            &self.scratch.dlogits,
            &mut self.scratch.dpooled,
            bwd_exec,
        )?;
        self.model.apply_dense_update(self.lr);
        let bwd_dnn = t0.elapsed();

        // BWD (embedding + scatter), table by table. Baseline: expand →
        // coalesce → scatter; casted: the blocked casted backward, which
        // alternates gather-reduce and scatter a block of coalesced rows at
        // a time. Either way each table's call reports how its time divided
        // between the two phases, and table `t` is final for this step the
        // moment its call returns.
        let t0 = Instant::now();
        let mut exposed_cast_wait = Duration::ZERO;
        *casted = self.pipeline.as_mut().map(|pipeline| {
            let (casted, exposed) = pipeline.collect_timed(ticket.take().expect("ticket issued"));
            exposed_cast_wait = exposed;
            casted
        });
        let casted = casted.as_deref();
        let mut bwd_embedding = t0.elapsed();
        let mut bwd_scatter = Duration::ZERO;

        #[cfg(test)]
        let failing_backward = self.failing_backward;
        let Self {
            model,
            table_optimizers,
            scratch,
            lane,
            fault,
            ..
        } = self;
        let StepScratch {
            dpooled,
            coalesced,
            expanded,
            blocks,
            pooled_ahead,
            ..
        } = scratch;
        let tables = model.tables_mut();
        if casted.is_none() {
            expanded.resize_with(tables.len(), Matrix::default);
            coalesced.resize_with(tables.len(), CoalescedScratch::default);
        }
        let update = |t: usize, table: &mut EmbeddingTable| match casted {
            None => {
                // The baseline deliberately pays Algorithm 1's full cost —
                // materialized n x D expand, sort, accumulate, and a whole
                // coalesced gradient handed to the scatter — each step, but
                // through recycled scratch: steady-state baseline training
                // does not re-allocate its intermediates.
                let t0 = Instant::now();
                let idx = &batch.indices[t];
                gradient_expand_into(&dpooled[t], idx, &mut expanded[t])?;
                gradient_coalesce_into(&expanded[t], idx, &mut coalesced[t], exec)?;
                // Coalesced rows are unique, so under Execution::Pooled the
                // scatter runs concurrently over disjoint table slices +
                // optimizer state, bit-identical to the serial scatter.
                let t1 = Instant::now();
                scatter_apply_coalesced(table, &mut table_optimizers[t], &coalesced[t], exec)?;
                bwd_embedding += t1 - t0;
                bwd_scatter += t1.elapsed();
                Ok(())
            }
            Some(casted) => {
                let halves = blocked_casted_backward(
                    table,
                    &mut table_optimizers[t],
                    &dpooled[t],
                    &casted[t],
                    blocks,
                    exec,
                )?;
                bwd_embedding += halves.gather_reduce;
                bwd_scatter += halves.scatter;
                Ok(())
            }
        };
        // Tests only: the backward of table `failing_backward` fails before
        // it writes anything, as a rejected scatter does.
        #[cfg(test)]
        let update = {
            let mut update = update;
            move |t: usize, table: &mut EmbeddingTable| match failing_backward {
                Some(failing) if failing == t => Err(EmbeddingError::InvalidIndex(format!(
                    "injected failure in the backward of table {t}"
                ))),
                _ => update(t, table),
            }
        };
        // A successor with the wrong table count gets no gather-ahead: its
        // own step reports that.
        let next = next.filter(|next| next.indices.len() == tables.len());
        let held = match next {
            None => {
                update_tables(tables, update, |_, _| {})?;
                None
            }
            Some(next) => {
                // Gather-ahead: the moment table `t`'s update returns, its
                // rows are final for this step, so `next`'s gather of it
                // may run — on the lane, beside the update of table `t+1`.
                let lane: &Pool = match exec.pool() {
                    Some(pool) => pool,
                    None => lane.get_or_insert_with(|| Pool::new(1)),
                };
                pooled_ahead.resize_with(tables.len(), Matrix::default);
                let mut outs = pooled_ahead.iter_mut();
                let failed = AtomicBool::new(false);
                let (fault, failed) = (fault.as_ref(), &failed);
                let scattered = lane.scope(|scope| {
                    update_tables(tables, update, |t, table| {
                        let (idx, out) = (&next.indices[t], outs.next().expect("one per table"));
                        scope.spawn(move || {
                            if let Some(plan) = fault {
                                assert!(
                                    !plan.should_fail(GATHER_AHEAD_FAULT_SITE),
                                    "injected fault at {GATHER_AHEAD_FAULT_SITE}"
                                );
                            }
                            if gather_reduce_into(table, idx, out, Exec::Serial).is_err() {
                                failed.store(true, Ordering::Relaxed);
                            }
                        });
                    })
                })?;
                // The scope closed with every task done (this thread ran
                // the ones the lane had not reached): what that took past
                // the last scatter is gather time this step waited for.
                fwd_gather += scattered.elapsed();
                // A gather that tripped over `next` is not held: `next`
                // reports the error from its own step. (`Relaxed`: the
                // scope's join ordered the tasks' stores before this load.)
                (!failed.load(Ordering::Relaxed)).then(|| Arc::clone(next))
            }
        };

        self.steps += 1;
        self.ahead = held.map(|next| (next, self.steps));
        Ok(StepReport {
            loss,
            timings: PhaseTimings {
                fwd_gather,
                fwd_dnn,
                bwd_dnn,
                bwd_embedding,
                bwd_scatter,
            },
            exposed_cast_wait,
            gathered_ahead,
        })
    }

    /// Evaluates mean BCE loss on a batch without training.
    ///
    /// # Errors
    ///
    /// Returns an error on shape/index inconsistencies.
    pub fn evaluate(&self, batch: &CtrBatch) -> Result<f32, EmbeddingError> {
        let logits = self.model.predict(&batch.dense, &batch.indices)?;
        Ok(bce_with_logits(&logits, &batch.labels)?)
    }

    /// Evaluates CTR quality metrics (accuracy/AUC/log-loss) on a batch
    /// without training.
    ///
    /// # Errors
    ///
    /// Returns an error on shape/index inconsistencies.
    pub fn evaluate_metrics(&self, batch: &CtrBatch) -> Result<CtrMetrics, EmbeddingError> {
        let logits = self.model.predict(&batch.dense, &batch.indices)?;
        Ok(evaluate_ctr(&logits, &batch.labels))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcast_datasets::SyntheticCtr;

    fn data(seed: u64) -> SyntheticCtr {
        let cfg = DlrmConfig::tiny();
        SyntheticCtr::new(cfg.table_workloads(), cfg.dense_features, seed)
    }

    #[test]
    fn one_step_produces_finite_loss_and_timings() {
        let mut t = Trainer::new(DlrmConfig::tiny(), BackwardMode::Baseline, 1).unwrap();
        let r = t.step(&data(2).next_batch(32)).unwrap();
        assert!(r.loss.is_finite() && r.loss > 0.0);
        assert!(r.timings.total() > Duration::ZERO);
        assert_eq!(t.steps(), 1);
    }

    #[test]
    fn both_modes_produce_identical_trajectories() {
        // THE paper validation: Tensor Casting "does not change the
        // algorithmic nature of SGD training".
        let mut baseline = Trainer::new(DlrmConfig::tiny(), BackwardMode::Baseline, 5).unwrap();
        let mut casted = Trainer::new(DlrmConfig::tiny(), BackwardMode::Casted, 5).unwrap();
        let mut stream_a = data(9);
        let mut stream_b = data(9);
        for step in 0..5 {
            let ra = baseline.step(&stream_a.next_batch(24)).unwrap();
            let rb = casted.step(&stream_b.next_batch(24)).unwrap();
            assert_eq!(ra.loss, rb.loss, "loss diverged at step {step}");
        }
        for i in 0..baseline.model().num_tables() {
            let diff = baseline
                .model()
                .table(i)
                .max_abs_diff(casted.model().table(i))
                .unwrap();
            assert_eq!(diff, 0.0, "table {i} diverged");
        }
    }

    #[test]
    fn training_reduces_loss_on_planted_data() {
        let mut t = Trainer::new(DlrmConfig::tiny(), BackwardMode::Casted, 11).unwrap();
        t.set_learning_rate(0.1);
        // Held-out batch from the SAME planted model as the training
        // stream (a different seed would be a different ground truth).
        let mut stream = data(13);
        let eval_batch = stream.next_batch(512);
        let before = t.evaluate(&eval_batch).unwrap();
        for _ in 0..60 {
            t.step(&stream.next_batch(64)).unwrap();
        }
        let after = t.evaluate(&eval_batch).unwrap();
        assert!(
            after < before - 0.02,
            "loss must improve: {before} -> {after}"
        );
    }

    #[test]
    fn pooled_execution_is_bit_identical_to_serial() {
        // The whole point of Execution: pooled kernels preserve the
        // serial accumulation order, so trajectories match EXACTLY.
        let pool = Arc::new(tcast_pool::Pool::new(4));
        for mode in [BackwardMode::Baseline, BackwardMode::Casted] {
            let mut serial = Trainer::new(DlrmConfig::tiny(), mode, 17).unwrap();
            let mut pooled = Trainer::with_execution(
                DlrmConfig::tiny(),
                mode,
                EmbeddingOptimizer::Sgd,
                Execution::Pooled(Arc::clone(&pool)),
                17,
            )
            .unwrap();
            let mut sa = data(21);
            let mut sb = data(21);
            for step in 0..4 {
                let ra = serial.step(&sa.next_batch(48)).unwrap();
                let rb = pooled.step(&sb.next_batch(48)).unwrap();
                assert_eq!(ra.loss, rb.loss, "{mode:?} loss diverged at step {step}");
            }
            for i in 0..serial.model().num_tables() {
                assert_eq!(
                    serial
                        .model()
                        .table(i)
                        .max_abs_diff(pooled.model().table(i))
                        .unwrap(),
                    0.0,
                    "{mode:?} table {i} diverged"
                );
            }
        }
    }

    #[test]
    fn a_step_failing_mid_backward_joins_its_gather_ahead_and_adopts_nothing() {
        // Table 0's update succeeds and spawns its gather-ahead, table 1's
        // fails. With a successor or without, the failed step must leave
        // the same bits behind, and the successor must gather in-step.
        for mode in [BackwardMode::Baseline, BackwardMode::Casted] {
            let run = |lookahead: bool| {
                let mut t = Trainer::new(DlrmConfig::tiny(), mode, 1).unwrap();
                let mut stream = data(2);
                let first = t.begin_step(Arc::new(stream.next_batch(16)));
                let second = t.begin_step(Arc::new(stream.next_batch(16)));
                t.failing_backward = Some(1);
                let err = t
                    .complete_step(first, lookahead.then_some(&second))
                    .unwrap_err();
                assert!(matches!(err, EmbeddingError::InvalidIndex(_)), "{err}");
                assert_eq!(t.lane.is_some(), lookahead, "{mode:?}");
                assert!(
                    t.ahead.is_none(),
                    "{mode:?}: a failed step left a gather held"
                );
                assert_eq!(t.steps(), 0);
                t.failing_backward = None;
                let report = t.complete_step(second, None).unwrap();
                assert_eq!(report.gathered_ahead, 0, "{mode:?}");
                (report.loss.to_bits(), t)
            };
            let (plain_loss, plain) = run(false);
            let (ahead_loss, ahead) = run(true);
            assert_eq!(ahead_loss, plain_loss, "{mode:?}");
            for i in 0..plain.model().num_tables() {
                assert_eq!(
                    plain.model().table(i).as_slice(),
                    ahead.model().table(i).as_slice(),
                    "{mode:?} table {i}"
                );
            }
        }
    }

    #[test]
    fn dense_phases_take_the_lane_only_when_it_pays_and_the_core_is_free() {
        // Nothing to split: serial, and no lane is started for it.
        let mut lane = None;
        assert!(matches!(
            dense_exec(Exec::Serial, false, &mut lane),
            Exec::Serial
        ));
        assert!(lane.is_none());
        // A caller's pool is passed through as it is.
        let pool = Pool::new(3);
        let pooled = dense_exec(Exec::pooled(&pool), true, &mut lane);
        assert_eq!(pooled.threads(), 3);
        assert!(lane.is_none());
        // A split takes the lane.
        assert!(matches!(
            dense_exec(Exec::Serial, true, &mut lane),
            Exec::Pooled { threads: 2, .. }
        ));
        assert!(lane.is_some());
    }

    #[test]
    fn phase_timings_accessors() {
        let timings = PhaseTimings {
            fwd_gather: Duration::from_millis(10),
            fwd_dnn: Duration::from_millis(5),
            bwd_dnn: Duration::from_millis(5),
            bwd_embedding: Duration::from_millis(50),
            bwd_scatter: Duration::from_millis(30),
        };
        assert_eq!(timings.total(), Duration::from_millis(100));
        assert!((timings.embedding_backward_fraction() - 0.8).abs() < 1e-9);
    }

    #[test]
    fn set_learning_rate_preserves_optimizer_hyperparameters() {
        // Regression: set_learning_rate used to reverse-engineer the
        // optimizer kind from its name and rebuild with hard-coded
        // hyperparameters, silently replacing e.g. a user's eps. An eps
        // this large visibly changes the trajectory, so rebuilding with
        // the default 1e-8 would diverge from the untouched trainer.
        let opt = EmbeddingOptimizer::Adagrad { eps: 0.5 };
        let mk =
            || Trainer::with_optimizer(DlrmConfig::tiny(), BackwardMode::Baseline, opt, 7).unwrap();
        let mut untouched = mk();
        let mut rebuilt = mk();
        rebuilt.set_learning_rate(0.05); // the default rate: a pure rebuild
        let mut sa = data(51);
        let mut sb = data(51);
        for step in 0..3 {
            let ra = untouched.step(&sa.next_batch(16)).unwrap();
            let rb = rebuilt.step(&sb.next_batch(16)).unwrap();
            assert_eq!(ra.loss, rb.loss, "eps was lost in rebuild at step {step}");
        }
        for i in 0..untouched.model().num_tables() {
            assert_eq!(
                untouched
                    .model()
                    .table(i)
                    .max_abs_diff(rebuilt.model().table(i))
                    .unwrap(),
                0.0
            );
        }
    }

    #[test]
    fn every_optimizer_matches_across_modes_and_schedules() {
        // Momentum and Adam join the enum in this PR; all five must keep
        // baseline == casted AND serial == pooled (the pooled scatter
        // splits stateful optimizer state — a divergence would show here).
        let pool = Arc::new(tcast_pool::Pool::new(4));
        let optimizers = [
            EmbeddingOptimizer::Momentum { mu: 0.9 },
            EmbeddingOptimizer::Adam {
                beta1: 0.9,
                beta2: 0.999,
                eps: 1e-8,
            },
        ];
        for opt in optimizers {
            let mut serial_base =
                Trainer::with_optimizer(DlrmConfig::tiny(), BackwardMode::Baseline, opt, 23)
                    .unwrap();
            let mut pooled_cast = Trainer::with_execution(
                DlrmConfig::tiny(),
                BackwardMode::Casted,
                opt,
                Execution::Pooled(Arc::clone(&pool)),
                23,
            )
            .unwrap();
            let mut sa = data(29);
            let mut sb = data(29);
            for step in 0..4 {
                let ra = serial_base.step(&sa.next_batch(32)).unwrap();
                let rb = pooled_cast.step(&sb.next_batch(32)).unwrap();
                assert_eq!(ra.loss, rb.loss, "{opt:?} loss diverged at step {step}");
            }
            for i in 0..serial_base.model().num_tables() {
                assert_eq!(
                    serial_base
                        .model()
                        .table(i)
                        .max_abs_diff(pooled_cast.model().table(i))
                        .unwrap(),
                    0.0,
                    "{opt:?} table {i} diverged"
                );
            }
        }
    }

    #[test]
    fn adagrad_trajectories_also_match_across_modes() {
        // Stateful optimizers are WHY coalescing matters (Section II-B);
        // the casted path must preserve their trajectories too.
        let mk = |mode| {
            Trainer::with_optimizer(
                DlrmConfig::tiny(),
                mode,
                EmbeddingOptimizer::Adagrad { eps: 1e-8 },
                21,
            )
            .unwrap()
        };
        let mut base = mk(BackwardMode::Baseline);
        let mut cast = mk(BackwardMode::Casted);
        let mut sa = data(33);
        let mut sb = data(33);
        for _ in 0..4 {
            let ra = base.step(&sa.next_batch(16)).unwrap();
            let rb = cast.step(&sb.next_batch(16)).unwrap();
            assert_eq!(ra.loss, rb.loss);
        }
        for i in 0..base.model().num_tables() {
            assert_eq!(
                base.model()
                    .table(i)
                    .max_abs_diff(cast.model().table(i))
                    .unwrap(),
                0.0
            );
        }
    }

    #[test]
    fn metrics_improve_with_training() {
        let mut t = Trainer::new(DlrmConfig::tiny(), BackwardMode::Casted, 2).unwrap();
        t.set_learning_rate(0.1);
        let mut stream = data(44);
        let eval = stream.next_batch(512);
        let before = t.evaluate_metrics(&eval).unwrap();
        for _ in 0..60 {
            t.step(&stream.next_batch(64)).unwrap();
        }
        let after = t.evaluate_metrics(&eval).unwrap();
        assert!(after.log_loss < before.log_loss);
        assert!(after.auc.unwrap() > before.auc.unwrap());
        assert!(after.auc.unwrap() > 0.55, "AUC {:?}", after.auc);
    }

    #[test]
    #[should_panic(expected = "before training")]
    fn learning_rate_locked_after_first_step() {
        let mut t = Trainer::new(DlrmConfig::tiny(), BackwardMode::Baseline, 1).unwrap();
        t.step(&data(2).next_batch(8)).unwrap();
        t.set_learning_rate(0.2);
    }

    #[test]
    fn evaluate_does_not_train() {
        let t = Trainer::new(DlrmConfig::tiny(), BackwardMode::Baseline, 3).unwrap();
        let batch = data(4).next_batch(16);
        let a = t.evaluate(&batch).unwrap();
        let b = t.evaluate(&batch).unwrap();
        assert_eq!(a, b);
    }
}
