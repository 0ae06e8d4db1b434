//! The instrumented training loop: baseline vs. Tensor-Casting backward,
//! with per-phase wall-clock timings (the repository's Fig. 4/12
//! real-system measurement harness).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::config::DlrmConfig;
use crate::metrics::{evaluate_ctr, CtrMetrics};
use crate::model::{bottom_backward_into, bottom_forward_into, Dlrm, InferenceScratch};
use tcast_core::{
    blocked_casted_backward, tensor_casting_into, CastedIndexArray, FaultPlan, PipelineStats,
};
use tcast_datasets::CtrBatch;
use tcast_embedding::{
    gather_reduce_into, gradient_coalesce_into, gradient_expand_into,
    optim::{RowOptimizer, UpdateRule},
    scatter_apply_coalesced, BlockScratch, CoalescedGradients, EmbeddingError, EmbeddingTable,
    IndexArray, RadixScratch,
};
use tcast_pool::{Exec, Pool};
use tcast_tensor::{bce_with_logits, bce_with_logits_backward_into, Matrix, Mlp, ShapeError};

/// Which embedding-backward implementation the trainer runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackwardMode {
    /// Gradient expand → coalesce (Algorithm 1) → scatter.
    Baseline,
    /// Tensor Casting: casted arrays cast ahead of the backward + casted
    /// gather-reduce (Algorithms 2-3) → scatter, fused a block of coalesced
    /// rows at a time (`tcast_core::blocked_casted_backward`).
    Casted,
}

/// Wall-clock time of each training phase, one mini-batch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTimings {
    /// Embedding gather-reduce (forward), as far as the step waited for
    /// it: the in-step gather, or ~0 when the step adopted a gather run
    /// ahead for it; plus the part of the step's join on the lane, after
    /// its last scatter returned, that came after the bottom-MLP chain
    /// ended — the gathers ahead for the successor (see
    /// [`Trainer::complete_step`]).
    pub fwd_gather: Duration,
    /// Bottom MLP + interaction + top MLP (forward) and the loss; without
    /// the bottom MLP when the step adopted the bottom forward a
    /// completion ran ahead for it.
    pub fwd_dnn: Duration,
    /// Top MLP + interaction backward and the top MLP's update; plus the
    /// bottom-MLP chain (its backward, its update and the successor's
    /// bottom forward): whole when it ran on the training thread, and when
    /// it ran on the lane beside the embedding backward, the part of the
    /// step's join after its last scatter up to the chain's end.
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
    /// The casting time this step's training thread did not hide (a
    /// subset of `timings.bwd_embedding`): its wait, once its dense phases
    /// ended, for the cast that ran beside them on the lane (the whole
    /// cast, if it ran it then itself), or the whole cast of a step with
    /// no lane. Always zero in baseline mode; zero in casted mode means
    /// this step's casting was fully hidden — the per-step Fig. 9b metric
    /// the cross-batch driver collapses by casting each batch a step
    /// ahead.
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

/// Who owns the trainer's lane: the one pool a step shares its work with.
///
/// There is one step path. The embedding kernels always run unsplit on the
/// training thread; the lane casts beside the dense phases, takes its
/// share of every dense GEMM large enough to split (blocks of the weight
/// it claims while the training thread, helping in the scope, claims the
/// rest, where the weight outgrows the batch; one band of the batch
/// otherwise), runs the bottom-MLP chain (this step's
/// backward and update, the successor's forward) beside the embedding
/// backward, and gathers the successor ahead. The two variants differ
/// only in the lane's width, so trajectories are bit-identical either way.
#[derive(Clone, Default)]
pub enum Execution {
    /// The trainer's own one-worker lane, started by the first step that
    /// needs it (see [`Trainer::complete_step`]).
    #[default]
    Serial,
    /// The given persistent pool, lent as the lane: every split GEMM runs
    /// one task per worker plus one for the training thread.
    Pooled(Arc<Pool>),
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
    coalesced: Vec<CoalescedGradients>,
    /// Baseline mode's argsort buffers (Algorithm 1 Step A), shared by
    /// every table.
    radix: RadixScratch,
    /// Baseline mode's per-table `n x D` expand intermediates — still
    /// materialized every step (that cost is the paper's subject), but
    /// recycled instead of re-allocated.
    expanded: Vec<Matrix>,
    /// Casted mode's coalesced-gradient blocks: all that is ever
    /// materialized of the coalesced gradient, shared by every table.
    blocks: BlockScratch,
}

/// Casted mode's index-array casts, every buffer recycled: once both
/// sets have seen a batch this large, casting allocates nothing.
#[derive(Debug, Default)]
struct Casts {
    /// This step's casted arrays, one per table.
    now: Vec<CastedIndexArray>,
    /// The successor's, cast beside this step's dense phases; the
    /// successor adopts them ([`Ahead::cast`]) by swapping them with `now`.
    ahead: Vec<CastedIndexArray>,
    /// The radix sort's buffers, shared by every cast.
    radix: RadixScratch,
    stats: PipelineStats,
}

impl Casts {
    /// Counts one run of casting: `batches` batches in `time`, of which
    /// the training thread did not hide `exposed`.
    fn record(&mut self, batches: u64, time: Duration, exposed: Duration) {
        self.stats.jobs_completed += batches;
        self.stats.casting_time += time;
        self.stats.exposed_wait += exposed;
    }
}

/// Casts each of `indices` into `out`, reusing its arrays and `radix`.
fn cast_into(indices: &[IndexArray], out: &mut Vec<CastedIndexArray>, radix: &mut RadixScratch) {
    out.resize_with(indices.len(), CastedIndexArray::default);
    for (index, out) in indices.iter().zip(out) {
        tensor_casting_into(index, out, radix);
    }
}

/// An instrumented DLRM trainer.
pub struct Trainer {
    model: Dlrm,
    mode: BackwardMode,
    lr: f32,
    /// Casted mode's casts (`None` in baseline mode).
    casts: Option<Casts>,
    /// The optimizer configuration the per-table instances were built
    /// from — kept so [`Trainer::set_learning_rate`] can rebuild them
    /// with the user's hyperparameters intact.
    optimizer: EmbeddingOptimizer,
    /// One optimizer per table: one slab of state keyed by table row.
    table_optimizers: Vec<RowOptimizer>,
    steps: u64,
    scratch: StepScratch,
    /// What the last completion ran ahead for the step queued behind it.
    /// Every step that runs takes it (a 0-row batch is refused first:
    /// nothing moved), and every other door to the table or MLP bits drops
    /// it.
    ahead: Option<Ahead>,
    /// The pool the trainer shares its step with: the one
    /// [`Execution::Pooled`] lent, or under [`Execution::Serial`] a
    /// one-worker pool of its own. Beside the dense phases it runs the
    /// step's casts and its share of those phases' large GEMMs, which it
    /// splits with the training thread; beside the embedding backward, the
    /// bottom-MLP chain and the gather-aheads, each spawned once its
    /// table's scatter returned. The gathers do not queue behind the chain:
    /// waiting inside the chain's GEMM scopes a worker helps newest-first,
    /// so it runs them there. A serial trainer's lane is started by the
    /// first step that needs it — a completion with a successor, or a batch
    /// at which [`Dlrm::dense_splits_at`] holds — so a small model trained
    /// step by step never has one and runs the cast and the chain on the
    /// training thread.
    lane: Option<Arc<Pool>>,
    fault: Option<FaultPlan>,
    /// Tests only: the table whose embedding backward fails.
    #[cfg(test)]
    failing_backward: Option<usize>,
    /// Tests only: the lane's bottom-MLP chain panics when it starts.
    #[cfg(test)]
    failing_chain: bool,
}

/// The work a completion ran ahead for its successor, keyed by that batch
/// (the share keeps its address from being reused). The one record of it:
/// the successor's step adopts from it, and dropping it drops it all.
#[derive(Debug)]
struct Ahead {
    batch: Arc<CtrBatch>,
    /// The step count the tables and the bottom MLP stood at when the
    /// gather and the bottom output were run.
    at: u64,
    /// `casts.ahead` holds the batch's casted arrays.
    cast: bool,
    /// `scratch.pooled_ahead` holds the batch's forward gather.
    gathered: bool,
    /// `scratch.dense` holds the batch's bottom-MLP output and the
    /// activations its forward left.
    bottom: bool,
}

/// The [`FaultPlan`] site every gather-ahead task passes once.
pub const GATHER_AHEAD_FAULT_SITE: &str = "trainer.gather_ahead";

/// The [`FaultPlan`] site every cast passes once, before it casts: the
/// lane's task beside a step's dense phases, or the cast a step with no
/// lane runs itself.
pub const CAST_AHEAD_FAULT_SITE: &str = "trainer.cast_ahead";

/// The [`FaultPlan`] site a step passes once before its dense backward,
/// when that backward will split a GEMM: an armed occurrence makes the
/// first GEMM task of the phase panic. Such a step runs its bottom-MLP
/// chain on the training thread right after the head's backward, where it
/// would otherwise go to the lane, so the panic leaves what a
/// dense-backward error does: no parameter changed, and the step does not
/// count.
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

/// A step's dense phases: the forward and the loss, then the head's
/// backward (top MLP and interaction), which leaves `dpooled` and the
/// bottom output's gradient in `scratch` and the head's gradients in its
/// layers (the bottom MLP's backward and every update are the caller's).
/// With `bottom_held` the forward starts from the bottom output a
/// completion ran ahead into `scratch.dense`. Returns the loss, how long
/// each phase took, and whether the step's dense-GEMM fault fired: the
/// task it poisons must then be this step's own, before any update.
fn dense_phases(
    model: &mut Dlrm,
    batch: &CtrBatch,
    scratch: &mut StepScratch,
    exec: Exec<'_>,
    fault: Option<&FaultPlan>,
    bottom_held: bool,
) -> Result<(f32, Duration, Duration, bool), EmbeddingError> {
    let t0 = Instant::now();
    let (dense, logits) = (&mut scratch.dense, &mut scratch.logits);
    if bottom_held {
        model.dense_head_infer_into(dense, logits, exec)?;
    } else {
        model.dense_infer_into(&batch.dense, dense, logits, exec)?;
    }
    let loss = bce_with_logits(&scratch.logits, &batch.labels)?;
    bce_with_logits_backward_into(&scratch.logits, &batch.labels, &mut scratch.dlogits)?;
    let fwd_dnn = t0.elapsed();
    let t0 = Instant::now();
    let fired = match (fault, exec.pool()) {
        (Some(plan), Some(pool)) if model.dense_splits_at(batch.dense.rows()) => {
            let fired = plan.should_fail(DENSE_GEMM_FAULT_SITE);
            if fired {
                pool.poison_next_task();
            }
            fired
        }
        _ => false,
    };
    let (dense, dpooled) = (&mut scratch.dense, &mut scratch.dpooled);
    model.dense_head_backward_into(dense, &scratch.dlogits, dpooled, exec)?;
    Ok((loss, fwd_dnn, t0.elapsed(), fired))
}

/// The bottom MLP's share of a step, run on the lane beside the embedding
/// backward or on the training thread before it: its backward (from the
/// gradient the head left in `scratch`), its update, and `next`'s bottom
/// forward over the updated weights into `scratch`, where `next`'s step
/// finds it. On the lane the update runs inside the backward, each block
/// of a layer's weight updated once its backward has read it; on the
/// training thread, where a step whose [`DENSE_GEMM_FAULT_SITE`] fired runs
/// the chain, it waits for the whole backward, so a panicking GEMM task
/// leaves every parameter as it was. Returns whether that forward ran and
/// succeeded (a successor whose dense features do not fit gets none: its
/// own step reports the error).
fn bottom_chain(
    bottom: &mut Mlp,
    batch: &CtrBatch,
    next: Option<&CtrBatch>,
    scratch: &mut InferenceScratch,
    lr: f32,
    on_lane: bool,
    exec: Exec<'_>,
) -> Result<bool, ShapeError> {
    bottom_backward_into(bottom, &batch.dense, scratch, on_lane.then_some(lr), exec)?;
    bottom.apply_update(lr); // nothing left to apply after an in-band update
    Ok(next.is_some_and(|next| bottom_forward_into(bottom, &next.dense, scratch, exec).is_ok()))
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

    /// Builds a trainer with an explicit embedding optimizer, on a lane of
    /// its own ([`Execution::Serial`]).
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

    /// Builds a trainer with an explicit embedding optimizer and lane
    /// owner: [`Execution::Pooled`] lends the given persistent pool as the
    /// lane, [`Execution::Serial`] leaves the trainer to start a one-worker
    /// lane of its own. The step is the same either way, and so is its
    /// trajectory, bit for bit.
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
        let casts = (mode == BackwardMode::Casted).then(Casts::default);
        let table_optimizers = vec![RowOptimizer::new(optimizer.build(lr)); model.num_tables()];
        Ok(Self {
            model,
            mode,
            lr,
            casts,
            optimizer,
            table_optimizers,
            steps: 0,
            scratch: StepScratch::default(),
            ahead: None,
            lane: match execution {
                Execution::Serial => None,
                Execution::Pooled(pool) => Some(pool),
            },
            fault: None,
            #[cfg(test)]
            failing_backward: None,
            #[cfg(test)]
            failing_chain: false,
        })
    }

    /// Arms deterministic fault injection: every cast-ahead task hits
    /// [`CAST_AHEAD_FAULT_SITE`] on `plan` once before casting, every
    /// gather-ahead task hits [`GATHER_AHEAD_FAULT_SITE`] once before
    /// gathering, every step whose dense backward splits a GEMM hits
    /// [`DENSE_GEMM_FAULT_SITE`] once before it, and an armed occurrence
    /// panics the task (the first GEMM task of that backward) — the handle for
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

    /// Snapshot of the trainer's casting statistics (`None` in baseline
    /// mode, which casts nothing). The exposed-wait / hidden-fraction
    /// numbers here are the paper's Fig. 9b metric for this trainer's
    /// whole run so far.
    pub fn pipeline_stats(&self) -> Option<PipelineStats> {
        self.casts.as_ref().map(|casts| casts.stats)
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

    /// Forgets the gather, the bottom-MLP forward and the cast run ahead
    /// for a step not yet completed; that step then runs them in-step. For
    /// every path that can change table or MLP bits between two
    /// completions.
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
    /// each one's state through its read-only view
    /// ([`RowOptimizer::planes`], [`RowOptimizer::step_counts`]).
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

    /// Runs one training step and reports loss + phase timings: exactly
    /// [`Trainer::complete_step`] with no successor. The [`crate::TrainLoop`]
    /// driver hands each step its successor instead, and produces a
    /// bit-identical trajectory.
    ///
    /// # Errors
    ///
    /// Returns an error on shape/index inconsistencies in the batch, or if
    /// it has no rows; a failed step does not count.
    pub fn step(&mut self, batch: &CtrBatch) -> Result<StepReport, EmbeddingError> {
        self.complete_step(batch, None)
    }

    /// Runs one training step on `batch` — forward, backward and the
    /// optimizer scatter, blocking only on whatever casting latency was not
    /// hidden ([`StepReport::exposed_cast_wait`]) — and runs ahead what
    /// `next`, the batch to be trained right after it, will need: its
    /// cast, its gathers and its bottom forward.
    ///
    /// Casting depends only on index arrays, so in casted mode the first
    /// task of a lane scope that spans this step's dense phases casts
    /// `batch` (unless the completion before it did) and `next`. `next`
    /// adopts those casted arrays, and its own step then does not cast.
    ///
    /// The embedding backward needs only the gradient of the pooled
    /// embeddings, which the interaction backward leaves; the bottom MLP's
    /// backward, its update and `next`'s bottom forward (its dense
    /// features over the updated weights) read nothing the embedding
    /// backward writes. So this thread runs the top MLP's and the
    /// interaction's backward, updates the top MLP and goes on to the
    /// embedding backward, while that bottom-MLP chain is the first task of
    /// the lane scope that spans it. The chain's GEMMs split as the dense
    /// phases' do; this thread takes its share of them once it reaches the
    /// scope's join.
    ///
    /// A step has no lane when it splits no GEMM and has no successor: it
    /// casts and runs the chain itself, before any update. So does a step
    /// whose [`DENSE_GEMM_FAULT_SITE`] fires, for its chain.
    ///
    /// `next`'s forward gather of table `i` reads only its own indices and
    /// table `i` as this step's scatter leaves it, and tables are
    /// disjoint — so as each table's scatter returns, that table's gather
    /// for `next` is spawned into the same lane scope while this thread
    /// scatters the following table, reading exactly the bits the in-step
    /// gather would read later. It does not wait for the chain: the lane's
    /// worker, waiting inside one of the chain's GEMM scopes, helps
    /// newest-first and runs the gather there, between the chain's GEMMs.
    /// Completing `next` then adopts the cast, the gather
    /// ([`StepReport::gathered_ahead`]) and the bottom output if they are
    /// still current: same batch share, same step count, tables and MLPs
    /// untouched in between. A gather-ahead that fails (a bad id in
    /// `next`), or a bottom forward that does (dense features of the wrong
    /// width), is discarded and `next` reports the error from its own
    /// step. Any `next` trains bit-identically to `None`.
    ///
    /// # Errors
    ///
    /// Returns an error on shape/index inconsistencies in the batch, or if
    /// it has no rows; a failed step does not count, and of what it ran
    /// ahead for `next` only the cast is held.
    ///
    /// # Panics
    ///
    /// Resumes a panic of a lane task (the cast, a GEMM task, the
    /// bottom-MLP chain, a gather-ahead) on this thread; the step then
    /// does not count, and of what it ran ahead for `next` only the cast
    /// is held.
    pub fn complete_step(
        &mut self,
        batch: &CtrBatch,
        next: Option<&Arc<CtrBatch>>,
    ) -> Result<StepReport, EmbeddingError> {
        if batch.dense.rows() == 0 {
            // Nothing to average a loss or a gradient over; refused before
            // any model or optimizer state is read or written.
            return Err(EmbeddingError::InvalidIndex(
                "empty batch: a training step needs at least one sample".into(),
            ));
        }
        #[cfg(test)]
        let failing_backward = self.failing_backward;
        #[cfg(test)]
        let failing_chain = self.failing_chain;
        let Self {
            model,
            lr,
            table_optimizers,
            steps,
            scratch,
            ahead,
            casts,
            lane,
            fault,
            ..
        } = self;
        let lr = *lr;
        let fault = fault.as_ref();
        let splits = model.dense_splits_at(batch.dense.rows());
        // A step has a lane when a GEMM of it splits or it has a successor;
        // its dense phases and bottom-MLP chain then split their GEMMs with
        // it. Without one, its lane work runs on this thread.
        let lane = (splits || next.is_some())
            .then(|| &**lane.get_or_insert_with(|| Arc::new(Pool::new(1))));
        let dense = lane.map_or(Exec::Serial, Exec::pooled);

        // Adopt what the previous completion ran ahead for this very batch:
        // its cast, and — against the tables and MLPs as they are now — its
        // gather and its bottom-MLP forward. Taken either way, so nothing
        // held outlives the next table or MLP write.
        let held = ahead
            .take()
            .filter(|held| std::ptr::eq(Arc::as_ptr(&held.batch), batch));
        let (cast_held, gather_held, bottom_held) = held.map_or((false, false, false), |held| {
            let current = held.at == *steps;
            (held.cast, held.gathered && current, held.bottom && current)
        });
        if let Some(casts) = casts.as_mut().filter(|_| cast_held) {
            std::mem::swap(&mut casts.now, &mut casts.ahead);
        }

        // FWD (Gather): the adopted gather, or in-step.
        let t0 = Instant::now();
        let pooled = scratch.dense.pooled_mut();
        let gathered_ahead = if gather_held {
            std::mem::swap(pooled, &mut scratch.pooled_ahead);
            pooled.len()
        } else {
            model.embedding_forward_into(&batch.indices, pooled)?;
            0
        };
        let mut fwd_gather = t0.elapsed();

        // A successor with the wrong table count gets no gather-ahead and
        // no bottom forward ahead: its own step reports that.
        let ahead_of = next
            .map(Arc::as_ref)
            .filter(|next| next.indices.len() == model.num_tables());

        // FWD (DNN) + loss, then the head's BWD (DNN). In casted mode the
        // casts this step and its successor still need run beside them, as
        // the first task of a lane scope whose join is the wait for them;
        // a step with no lane casts first.
        let run_dense = |model: &mut Dlrm, scratch: &mut StepScratch| {
            dense_phases(model, batch, scratch, dense, fault, bottom_held)
        };
        let mut exposed_cast_wait = Duration::ZERO;
        let to_cast = casts.as_mut().filter(|_| !cast_held || next.is_some());
        let phases = match to_cast {
            None => run_dense(model, scratch),
            Some(casts) => {
                let Casts {
                    now,
                    ahead: cast_ahead,
                    radix,
                    ..
                } = casts;
                let mut cast = move || {
                    if let Some(plan) = fault {
                        assert!(
                            !plan.should_fail(CAST_AHEAD_FAULT_SITE),
                            "injected fault at {CAST_AHEAD_FAULT_SITE}"
                        );
                    }
                    let start = Instant::now();
                    if !cast_held {
                        cast_into(&batch.indices, now, radix);
                    }
                    if let Some(next) = next {
                        cast_into(&next.indices, cast_ahead, radix);
                    }
                    (start, Instant::now())
                };
                let (phases, start, end, closed) = match lane {
                    Some(lane) => {
                        let mut span = None;
                        let (phases, closed) = lane.scope(|scope| {
                            let span = &mut span;
                            scope.spawn(move || *span = Some(cast()));
                            (run_dense(model, scratch), Instant::now())
                        });
                        let (start, end) = span.expect("the scope joined its cast");
                        (phases, start, end, closed)
                    }
                    None => {
                        let (start, end) = cast();
                        (run_dense(model, scratch), start, end, start)
                    }
                };
                // Not hidden: what the join waited, or the whole cast this
                // thread ran. Helping newest-first in the dense phases' own
                // scopes, this thread reaches the lane's cast only at the
                // join, and runs it whole if the lane never started it.
                exposed_cast_wait = end.saturating_duration_since(closed);
                let batches = u64::from(!cast_held) + u64::from(next.is_some());
                casts.record(batches, end - start, exposed_cast_wait);
                phases
            }
        };
        // What this step runs ahead for its successor, recorded as it
        // lands: the cast now (a function of the indices alone, so it is
        // held even if this step fails), the gathers and the bottom output
        // once the step succeeded.
        *ahead = next.map(|next| Ahead {
            batch: Arc::clone(next),
            at: *steps,
            cast: casts.is_some(),
            gathered: false,
            bottom: false,
        });
        let (loss, fwd_dnn, mut bwd_dnn, fired) = phases?;

        // The bottom-MLP chain runs on the lane beside the embedding
        // backward — on this thread, before any update, on a step with no
        // lane or whose dense-GEMM fault fired. Then the top MLP's update.
        let chain_on_lane = lane.is_some() && !fired;
        let t0 = Instant::now();
        let bottom_here = if chain_on_lane {
            false
        } else {
            let bottom = model.bottom_mut();
            bottom_chain(
                bottom,
                batch,
                ahead_of,
                &mut scratch.dense,
                lr,
                false,
                dense,
            )?
        };
        model.top_mut().apply_update(lr);
        bwd_dnn += t0.elapsed();
        let casted = casts.as_ref().map(|casts| casts.now.as_slice());

        // BWD (embedding + scatter), table by table. Baseline: expand →
        // coalesce → scatter; casted: the blocked casted backward, which
        // alternates gather-reduce and scatter a block of coalesced rows at
        // a time. Either way each table's call reports how its time divided
        // between the two phases, and table `t` is final for this step the
        // moment its call returns.
        let mut bwd_embedding = exposed_cast_wait;
        let mut bwd_scatter = Duration::ZERO;
        let StepScratch {
            dense: dense_scratch,
            dpooled,
            coalesced,
            radix,
            expanded,
            blocks,
            pooled_ahead,
            ..
        } = scratch;
        let (bottom, tables) = model.bottom_and_tables_mut();
        if casted.is_none() {
            expanded.resize_with(tables.len(), Matrix::default);
            coalesced.resize_with(tables.len(), CoalescedGradients::default);
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
                let (optimizer, grads) = (&mut table_optimizers[t], &mut coalesced[t]);
                gradient_coalesce_into(&expanded[t], idx, grads, radix)?;
                let t1 = Instant::now();
                scatter_apply_coalesced(table, optimizer, grads)?;
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
        // On the lane: first the bottom-MLP chain, unless this thread ran
        // it; then gather-ahead. The moment table `t`'s update returns, its
        // rows are final for this step, so `next`'s gather of it may run —
        // on the lane, beside the update of table `t+1`.
        let failed = AtomicBool::new(false);
        let mut chained = None;
        let scattered = match lane {
            None => update_tables(tables, update, |_, _| {}),
            Some(lane) => {
                pooled_ahead.resize_with(tables.len(), Matrix::default);
                let mut outs = pooled_ahead.iter_mut();
                let failed = &failed;
                lane.scope(|scope| {
                    if chain_on_lane {
                        let chained = &mut chained;
                        scope.spawn(move || {
                            #[cfg(test)]
                            assert!(!failing_chain, "injected panic in the bottom-MLP chain");
                            let chain = bottom_chain(
                                bottom,
                                batch,
                                ahead_of,
                                dense_scratch,
                                lr,
                                true,
                                dense,
                            );
                            *chained = Some(chain.map(|ahead| (ahead, Instant::now())));
                        });
                    }
                    update_tables(tables, update, |t, table| {
                        let Some(next) = ahead_of else { return };
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
                })
            }
        };
        // The scope closed with every task done (this thread ran the ones
        // the lane had not reached). What that took past the last scatter
        // is time this step waited for: the chain up to its end
        // (`bwd_dnn`), the gathers ahead after it (`fwd_gather`). The
        // chain's error comes first, as when this thread runs it.
        let closed = Instant::now();
        let chained = chained.transpose()?;
        let scattered = scattered?;
        let (bottom_ahead, chain_end) = match chained {
            Some((ahead, end)) => (ahead, end.max(scattered)),
            None => (bottom_here, scattered),
        };
        bwd_dnn += chain_end - scattered;
        fwd_gather += closed.saturating_duration_since(chain_end);
        // A gather that tripped over `next` is not held: `next` reports
        // the error from its own step. (`Relaxed`: the scope's join
        // ordered the tasks' stores before this load.)
        let gathered = ahead_of.is_some() && !failed.load(Ordering::Relaxed);

        *steps += 1;
        *ahead = ahead.take().map(|held| Ahead {
            at: *steps,
            gathered,
            bottom: bottom_ahead,
            ..held
        });
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
                let first = stream.next_batch(16);
                let second = Arc::new(stream.next_batch(16));
                t.failing_backward = Some(1);
                let err = t
                    .complete_step(&first, lookahead.then_some(&second))
                    .unwrap_err();
                assert!(matches!(err, EmbeddingError::InvalidIndex(_)), "{err}");
                assert_eq!(t.lane.is_some(), lookahead, "{mode:?}");
                assert!(
                    !holds_model_work(&t),
                    "{mode:?}: a failed step left a gather held"
                );
                assert_eq!(t.steps(), 0);
                t.failing_backward = None;
                let report = t.complete_step(&second, None).unwrap();
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

    /// Whether `t` holds a gather or a bottom output run ahead: what reads
    /// the tables or the bottom MLP, unlike a cast.
    fn holds_model_work(t: &Trainer) -> bool {
        t.ahead
            .as_ref()
            .is_some_and(|held| held.gathered || held.bottom)
    }

    /// `tiny` with a bottom MLP whose middle layer reaches the split floor
    /// at batch 16: a plain step there has a lane.
    fn wide_config() -> DlrmConfig {
        DlrmConfig {
            bottom_mlp: vec![512, 512, 16],
            ..DlrmConfig::tiny()
        }
    }

    #[test]
    fn a_panic_in_the_bottom_chain_resurfaces_and_leaves_nothing_held() {
        // The chain runs on the lane beside the embedding backward — of a
        // completion with a successor, and of a plain step on a model whose
        // dense GEMMs split — so its panic comes after the tables and the
        // top MLP were written; the step still does not count, nothing it
        // ran ahead is held, and the trainer goes on to train the
        // following steps as the plain loop would from the state the panic
        // left.
        use crate::checkpoint::{read_train_checkpoint, save_train_checkpoint};
        use std::panic::{catch_unwind, AssertUnwindSafe};
        for (config, lookahead) in [(DlrmConfig::tiny(), true), (wide_config(), false)] {
            for mode in [BackwardMode::Baseline, BackwardMode::Casted] {
                let context = format!("{mode:?} lookahead {lookahead}");
                let mut t = Trainer::new(config.clone(), mode, 1).unwrap();
                assert_eq!(t.model().dense_splits_at(16), !lookahead, "{context}");
                let mut stream =
                    SyntheticCtr::new(config.table_workloads(), config.dense_features, 2);
                let batches: Vec<Arc<CtrBatch>> =
                    (0..4).map(|_| Arc::new(stream.next_batch(16))).collect();
                t.failing_chain = true;
                let next = lookahead.then_some(&batches[1]);
                let panic = catch_unwind(AssertUnwindSafe(|| t.complete_step(&batches[0], next)))
                    .expect_err("the chain's panic must reach the training thread");
                t.failing_chain = false;
                let message = panic
                    .downcast_ref::<&str>()
                    .copied()
                    .unwrap_or("<not a str>");
                assert!(message.contains("bottom-MLP chain"), "{context}: {message}");
                assert_eq!(t.steps(), 0, "{context}");
                assert!(
                    !holds_model_work(&t),
                    "{context}: a panicked step left work held"
                );

                // The plain loop from the state the panic left behind.
                let mut bytes = Vec::new();
                save_train_checkpoint(&mut bytes, &t, None, None).unwrap();
                let mut plain = Trainer::new(config.clone(), mode, 9).unwrap();
                read_train_checkpoint(&mut bytes.as_slice())
                    .unwrap()
                    .restore_into(&mut plain)
                    .unwrap();
                let want: Vec<u32> = batches[1..]
                    .iter()
                    .map(|b| plain.step(b).unwrap().loss.to_bits())
                    .collect();

                let mut got = Vec::new();
                for (i, batch) in batches.iter().enumerate().skip(1) {
                    let next = batches.get(i + 1).filter(|_| lookahead);
                    let report = t.complete_step(batch, next).unwrap();
                    let adopted = lookahead && i > 1;
                    let tables = if adopted { t.model().num_tables() } else { 0 };
                    assert_eq!(report.gathered_ahead, tables, "{context} step {i}");
                    got.push(report.loss.to_bits());
                }
                assert_eq!(got, want, "{context}");
                assert_eq!(t.steps(), 3, "{context}");
                for i in 0..t.model().num_tables() {
                    assert_eq!(
                        t.model().table(i).as_slice(),
                        plain.model().table(i).as_slice(),
                        "{context} table {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn the_bottom_forward_is_held_only_for_a_successor_it_fits() {
        // Another row count fits: the successor's bottom output is held
        // beside its gather. Dense features of the wrong width do not: the
        // gather is held alone, and that step reports the shape error.
        let mut stream = data(3);
        let good = stream.next_batch(16);
        let other_rows = Arc::new(stream.next_batch(5));
        let mut wide_dense = stream.next_batch(16);
        wide_dense.dense = Matrix::zeros(16, DlrmConfig::tiny().dense_features + 1);
        let wide_dense = Arc::new(wide_dense);
        for mode in [BackwardMode::Baseline, BackwardMode::Casted] {
            for (next, bottom) in [(&other_rows, true), (&wide_dense, false)] {
                let mut t = Trainer::new(DlrmConfig::tiny(), mode, 1).unwrap();
                t.complete_step(&good, Some(next)).unwrap();
                let held = t.ahead.as_ref().expect("the gather is held");
                assert!(held.gathered, "{mode:?}");
                assert_eq!(held.bottom, bottom, "{mode:?}");
                let served = t.evaluate(next);
                let got = t.complete_step(next, None);
                assert_eq!(got.is_ok(), bottom, "{mode:?}");
                if let (Ok(got), Ok(served)) = (got, served) {
                    assert_eq!(got.loss.to_bits(), served.to_bits(), "{mode:?}");
                    assert_eq!(got.gathered_ahead, 2, "{mode:?}");
                }
            }
        }
    }

    #[test]
    fn dense_phases_take_the_lane_only_when_it_pays_and_the_core_is_free() {
        // A split starts a serial trainer's lane, whose `Exec` runs two
        // tasks a split GEMM: one for its worker, one for the training
        // thread.
        let mut t = Trainer::new(wide_config(), BackwardMode::Casted, 1).unwrap();
        assert!(t.model().dense_splits_at(16));
        t.step(&data(2).next_batch(16)).unwrap();
        let lane = t.lane.as_deref().expect("a split starts the lane");
        assert!(matches!(
            Exec::pooled(lane),
            Exec::Pooled { threads: 2, .. }
        ));
        // A lent pool is the lane from the start, one task a worker and
        // one for the training thread.
        let pool = Arc::new(Pool::new(3));
        let execution = Execution::Pooled(Arc::clone(&pool));
        let opt = EmbeddingOptimizer::Sgd;
        let t = Trainer::with_execution(wide_config(), BackwardMode::Casted, opt, execution, 1);
        let lane = t.unwrap().lane.expect("the lent pool is the lane");
        assert!(Arc::ptr_eq(&lane, &pool));
        assert_eq!(Exec::pooled(&lane).threads(), 4);
        // A small model trained step by step never starts a lane.
        let mut t = Trainer::new(DlrmConfig::tiny(), BackwardMode::Casted, 1).unwrap();
        assert!(!t.model().dense_splits_at(16));
        t.step(&data(2).next_batch(16)).unwrap();
        assert!(t.lane.is_none());
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
        // Momentum and Adam, the two rules with the most state: both must
        // keep baseline == casted AND serial == pooled (a lent pool only
        // widens the lane the dense phases split over).
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
