//! The cross-batch pipelined training driver: depth-D casting lookahead
//! over a streaming [`BatchSource`].
//!
//! [`Trainer::step`] submits batch N's indices at the top of step N, so
//! casting can only overlap batch N's *own* forward pass — at small
//! batches the exposed wait dominates and the pipeline's hidden fraction
//! sits far from the Fig. 9b ideal. The paper's runtime (Section IV-B)
//! instead keeps the casting unit busy with *future* mini-batches.
//! [`TrainLoop`] is that runtime's host-side embodiment: it begins up to
//! `depth` steps ahead of the one it is completing, so batch N+1..N+D's
//! casting jobs run on the pipeline worker while batch N trains.
//!
//! Correctness is structural, not probabilistic: [`Trainer::begin_step`]
//! touches no model state (casting is a pure function of the index
//! arrays, which exist before forward starts), and completions run
//! strictly in submission order — so **any depth produces bit-identical
//! weights and losses to the serial `step` loop** (property-tested in
//! `tests/pipelined_training.rs` across both backward modes and all five
//! optimizers).
//!
//! The lookahead depth itself can be *closed-loop*: a
//! [`DepthController`] under [`DepthPolicy::Adaptive`] reads each
//! completed step's [`StepReport::exposed_cast_wait`] and hill-climbs
//! the depth between configured bounds — additive increase while
//! casting latency stays exposed, multiplicative decrease once it has
//! been hidden for long enough (the AIMD shape DeepRecSys uses for
//! SLA-driven batch sizing, applied to the paper's Fig. 9b metric).
//! Because depth only decides *when* casting jobs are submitted, the
//! adaptation is observation-only: any depth trajectory trains
//! bit-identically.
//!
//! Holding the next batch also lets the loop overlap its **forward
//! gather**: every completion is handed the step queued behind it, and
//! [`Trainer::complete_step`] gathers that step's table `i` on a
//! background thread as soon as its own scatter of table `i` has returned
//! — the same bits the next step's in-step gather would read, a scatter
//! phase earlier. Nothing selects this: it happens whenever a successor is
//! queued (depth >= 1), and [`StepReport::gathered_ahead`] says so.

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::checkpoint::{read_train_checkpoint, CheckpointError, CheckpointStore};
use crate::trainer::{InFlightStep, PhaseTimings, StepReport, Trainer};
use tcast_core::PipelineStats;
use tcast_datasets::{BatchSource, CtrBatch};
use tcast_embedding::EmbeddingError;

/// Errors from a [`TrainLoop`] run: a training-step failure or — when a
/// checkpoint cadence is configured — a checkpoint I/O failure.
#[derive(Debug)]
pub enum DriverError {
    /// A training step failed (shape/index inconsistencies).
    Train(EmbeddingError),
    /// Writing a periodic checkpoint failed; training stopped cleanly
    /// at the failed boundary (the trainer and model remain valid).
    Checkpoint(CheckpointError),
}

impl std::fmt::Display for DriverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DriverError::Train(e) => write!(f, "training step failed: {e}"),
            DriverError::Checkpoint(e) => write!(f, "checkpoint failed: {e}"),
        }
    }
}

impl std::error::Error for DriverError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DriverError::Train(e) => Some(e),
            DriverError::Checkpoint(e) => Some(e),
        }
    }
}

impl From<EmbeddingError> for DriverError {
    fn from(e: EmbeddingError) -> Self {
        DriverError::Train(e)
    }
}

impl From<CheckpointError> for DriverError {
    fn from(e: CheckpointError) -> Self {
        DriverError::Checkpoint(e)
    }
}

/// Aggregate result of a [`TrainLoop::run`] stream.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunSummary {
    /// Steps completed.
    pub steps: usize,
    /// Per-step mini-batch losses, in order.
    pub losses: Vec<f32>,
    /// Summed per-phase wall-clock timings.
    pub timings: PhaseTimings,
    /// Total time the completed steps blocked waiting for casted arrays
    /// — the run's exposed casting latency (always zero in baseline
    /// mode). Lookahead exists to drive this to zero.
    pub exposed_cast_wait: Duration,
    /// Casting time spent by the pipeline worker during this run.
    pub casting_time: Duration,
    /// Total time [`TrainLoop::run`] blocked in the source's
    /// `next_batch` — the run's exposed batch-*generation* latency.
    /// With an inline source this is the full generation cost; wrapping
    /// the source in a `PrefetchSource` moves generation onto a
    /// producer thread and collapses this to the residual the producer
    /// could not stay ahead of.
    pub batch_wait: Duration,
    /// Lookahead depth in effect as each step completed — the
    /// [`DepthController`] trajectory (constant under
    /// [`DepthPolicy::Fixed`]).
    pub depths: Vec<usize>,
}

impl RunSummary {
    /// Fraction of this run's casting time hidden under training work
    /// (1.0 = fully hidden, the Fig. 9b ideal; also 1.0 when no casting
    /// ran, e.g. baseline mode). Delegates to
    /// [`PipelineStats::hidden_fraction`] so the metric has one
    /// definition.
    pub fn hidden_fraction(&self) -> f64 {
        PipelineStats {
            casting_time: self.casting_time,
            exposed_wait: self.exposed_cast_wait,
            ..Default::default()
        }
        .hidden_fraction()
    }

    /// Mean lookahead depth over the run (0.0 for an empty run).
    pub fn mean_depth(&self) -> f64 {
        if self.depths.is_empty() {
            return 0.0;
        }
        self.depths.iter().sum::<usize>() as f64 / self.depths.len() as f64
    }

    /// Depth in effect when the last step completed.
    pub fn final_depth(&self) -> usize {
        self.depths.last().copied().unwrap_or(0)
    }
}

/// How a [`TrainLoop`] chooses its lookahead depth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DepthPolicy {
    /// A constant depth — exactly the PR-3 driver behaviour
    /// ([`TrainLoop::new`] is `with_policy(.., Fixed(depth))`).
    Fixed(usize),
    /// Closed-loop AIMD between bounds, driven by measured exposed
    /// casting waits.
    Adaptive(AdaptiveDepth),
}

impl DepthPolicy {
    /// The largest depth this policy can ever select (sizes the
    /// in-flight queue).
    fn max_depth(&self) -> usize {
        match *self {
            DepthPolicy::Fixed(depth) => depth,
            DepthPolicy::Adaptive(a) => a.max,
        }
    }
}

/// Knobs of the adaptive depth controller.
///
/// The controller aggregates [`StepReport::exposed_cast_wait`] over
/// `window`-step observation windows. A window whose mean exposed wait
/// exceeds `target_exposed_ns` is a *congestion* signal — casting is
/// not hidden, so the lookahead additively deepens by one. After
/// `decrease_after` consecutive hidden windows the depth halves
/// (multiplicative decrease) to shed the batches a deeper-than-needed
/// queue keeps alive; if the shallower depth re-exposes casting within
/// its first window, the controller climbs back and pins a floor just
/// above the depth that failed. Each failed trial therefore ratchets
/// the floor upward — successive halvings probe the knee from *below*
/// until the floor reaches the shallowest depth that hides casting,
/// rather than oscillating around it (or locking in a
/// deeper-than-necessary depth, as pinning the pre-trial depth would).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdaptiveDepth {
    /// Smallest depth the controller may select (and the initial one —
    /// adaptation is observation-driven, so runs start shallow and
    /// climb only when measurements say to).
    pub min: usize,
    /// Largest depth the controller may select. Keep at or below the
    /// casting pipeline's in-flight cap; a deeper queue would only
    /// block in `begin_step`.
    pub max: usize,
    /// Steps per observation window.
    pub window: usize,
    /// Mean per-step exposed casting wait (nanoseconds) below which a
    /// window counts as hidden.
    pub target_exposed_ns: u64,
    /// Consecutive hidden windows before the controller tries a
    /// shallower depth.
    pub decrease_after: usize,
    /// Consecutive hidden windows spent *pinned at the floor* before
    /// the floor decays by one, re-enabling a decrease trial. A failed
    /// trial used to pin the floor forever, so a transient congestion
    /// burst (a cache-cold phase, a noisy neighbour) locked the
    /// controller at an unnecessarily deep lookahead for the rest of
    /// the run; sustained hidden windows are evidence the knee has
    /// moved back down, and decaying the floor lets the controller
    /// re-probe it. `0` disables decay (the pre-decay behaviour).
    pub floor_decay_after: usize,
}

impl AdaptiveDepth {
    /// An adaptive policy between `min` and `max` with the default
    /// cadence: 4-step windows, a 1 us per-step hidden threshold, a
    /// decrease trial after 4 consecutive hidden windows, and floor
    /// decay after 16 consecutive hidden windows at the floor.
    pub fn new(min: usize, max: usize) -> Self {
        Self {
            min,
            max,
            window: 4,
            target_exposed_ns: 1_000,
            decrease_after: 4,
            floor_decay_after: 16,
        }
    }
}

/// The closed-loop lookahead controller (see [`AdaptiveDepth`] for the
/// decision rule). Deterministic by construction: decisions are a pure
/// function of the observed wait sequence — no clocks, no randomness —
/// so identical measurements reproduce the identical depth trajectory
/// (property-tested in `tests/pipelined_training.rs`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DepthController {
    policy: DepthPolicy,
    depth: usize,
    window_wait: Duration,
    window_steps: usize,
    hidden_streak: usize,
    /// Depth below which a past decrease trial re-exposed casting; the
    /// controller does not descend below it until it decays.
    floor: usize,
    /// Consecutive hidden windows spent pinned at the floor — drives
    /// [`AdaptiveDepth::floor_decay_after`].
    floor_streak: usize,
    /// The previous decision was a decrease trial (so a congested next
    /// window pins the floor).
    trialing: bool,
}

/// A plain-data snapshot of a [`DepthController`]'s mutable state, the
/// `DCTL` checkpoint section. The policy itself is *not* part of the
/// snapshot: resuming supplies the policy (it is configuration, not
/// state) and [`DepthController::restore`] re-validates it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DepthControllerState {
    /// Depth in effect.
    pub depth: usize,
    /// Exposed wait accumulated in the current observation window.
    pub window_wait_ns: u64,
    /// Steps observed in the current window.
    pub window_steps: usize,
    /// Consecutive hidden windows.
    pub hidden_streak: usize,
    /// The pinned decrease floor.
    pub floor: usize,
    /// Consecutive hidden windows spent pinned at the floor.
    pub floor_streak: usize,
    /// Whether the last decision was a decrease trial.
    pub trialing: bool,
}

impl DepthController {
    /// Builds a controller; the initial depth is the fixed depth or the
    /// adaptive minimum.
    ///
    /// # Panics
    ///
    /// Panics on a degenerate adaptive policy (`min > max` or a zero
    /// window).
    pub fn new(policy: DepthPolicy) -> Self {
        let depth = match policy {
            DepthPolicy::Fixed(depth) => depth,
            DepthPolicy::Adaptive(a) => {
                assert!(a.min <= a.max, "adaptive depth bounds inverted");
                assert!(a.window > 0, "adaptive window must be positive");
                a.min
            }
        };
        Self {
            policy,
            depth,
            window_wait: Duration::ZERO,
            window_steps: 0,
            hidden_streak: 0,
            floor: match policy {
                DepthPolicy::Fixed(d) => d,
                DepthPolicy::Adaptive(a) => a.min,
            },
            floor_streak: 0,
            trialing: false,
        }
    }

    /// The policy this controller runs.
    pub fn policy(&self) -> DepthPolicy {
        self.policy
    }

    /// The depth currently in effect.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Snapshots the controller's mutable state for checkpointing.
    pub fn state(&self) -> DepthControllerState {
        DepthControllerState {
            depth: self.depth,
            window_wait_ns: self.window_wait.as_nanos() as u64,
            window_steps: self.window_steps,
            hidden_streak: self.hidden_streak,
            floor: self.floor,
            floor_streak: self.floor_streak,
            trialing: self.trialing,
        }
    }

    /// Rebuilds a controller mid-trajectory from a checkpoint snapshot:
    /// the resumed controller makes exactly the depth decisions the
    /// saved one would have made.
    ///
    /// # Panics
    ///
    /// Panics on a degenerate adaptive policy (as
    /// [`DepthController::new`] does).
    pub fn restore(policy: DepthPolicy, state: DepthControllerState) -> Self {
        let mut c = Self::new(policy);
        c.depth = state.depth;
        c.window_wait = Duration::from_nanos(state.window_wait_ns);
        c.window_steps = state.window_steps;
        c.hidden_streak = state.hidden_streak;
        c.floor = state.floor;
        c.floor_streak = state.floor_streak;
        c.trialing = state.trialing;
        c
    }

    /// Feeds one completed step's exposed casting wait; returns the
    /// depth to use from now on (unchanged until a window boundary).
    pub fn observe(&mut self, exposed_cast_wait: Duration) -> usize {
        let DepthPolicy::Adaptive(a) = self.policy else {
            return self.depth;
        };
        self.window_wait += exposed_cast_wait;
        self.window_steps += 1;
        if self.window_steps < a.window {
            return self.depth;
        }
        let mean_ns = self.window_wait.as_nanos() as u64 / a.window as u64;
        self.window_wait = Duration::ZERO;
        self.window_steps = 0;
        if mean_ns > a.target_exposed_ns {
            // Congestion: casting is exposed at this depth. If we just
            // came down a depth, the shallower depth is proven too shallow —
            // pin the floor where we climb back to.
            if self.trialing {
                self.floor = (self.depth + 1).min(a.max);
            }
            self.depth = (self.depth + 1).min(a.max);
            self.hidden_streak = 0;
            self.floor_streak = 0;
        } else {
            self.hidden_streak += 1;
            // Floor decay: sustained hidden windows while pinned at the
            // floor are evidence the knee has moved — lower the floor
            // one step so the decrease logic below can re-probe it. A
            // re-exposed trial pins it straight back.
            if self.depth == self.floor && self.floor > a.min {
                self.floor_streak += 1;
                if a.floor_decay_after > 0 && self.floor_streak >= a.floor_decay_after {
                    self.floor -= 1;
                    self.floor_streak = 0;
                }
            } else {
                self.floor_streak = 0;
            }
            if self.hidden_streak >= a.decrease_after && self.depth > self.floor {
                self.depth = (self.depth / 2).max(self.floor).max(a.min);
                self.hidden_streak = 0;
                self.trialing = true;
                return self.depth;
            }
        }
        self.trialing = false;
        self.depth
    }
}

/// The cross-batch pipelined training driver.
///
/// `depth` is the lookahead: how many *future* batches may have casting
/// jobs in flight while a step completes. Depth 0 is exactly the serial
/// `step` loop (begin, then immediately complete); depth 1 is classic
/// double-buffering; deeper queues give the casting worker more slack at
/// the cost of holding more batches alive. The casting pipeline's own
/// bounded in-flight cap backstops the queue: a `depth` beyond the cap
/// blocks in [`Trainer::begin_step`] instead of growing it.
///
/// The depth is either pinned ([`TrainLoop::new`] /
/// [`DepthPolicy::Fixed`]) or driven at run time by the
/// [`DepthController`] ([`TrainLoop::with_policy`] with
/// [`DepthPolicy::Adaptive`]), which adapts it to the measured exposed
/// casting wait.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use tcast_dlrm::{BackwardMode, DlrmConfig, Trainer, TrainLoop};
/// use tcast_datasets::{BatchSource, SyntheticCtr, SyntheticSource};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let config = DlrmConfig::tiny();
/// let mut source =
///     SyntheticSource::new(SyntheticCtr::new(config.table_workloads(), config.dense_features, 1), 32);
/// let trainer = Trainer::new(config, BackwardMode::Casted, 42)?;
/// let mut driver = TrainLoop::new(trainer, 2);
/// let summary = driver.run(&mut source, 8)?;
/// assert_eq!(summary.steps, 8);
/// assert!(summary.hidden_fraction() >= 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct TrainLoop {
    trainer: Trainer,
    controller: DepthController,
    queue: VecDeque<InFlightStep>,
    checkpoint: Option<CheckpointCadence>,
}

/// Periodic-checkpoint configuration of a [`TrainLoop`].
#[derive(Debug)]
struct CheckpointCadence {
    every: u64,
    store: CheckpointStore,
    last: Option<PathBuf>,
    /// Step count at the last commit — guards against re-committing the
    /// same boundary (e.g. when a run ends exactly on one).
    last_step: u64,
}

impl TrainLoop {
    /// Wraps a trainer into a driver with the given casting lookahead
    /// depth (0 = serial) — a [`DepthPolicy::Fixed`] driver.
    pub fn new(trainer: Trainer, depth: usize) -> Self {
        Self::with_policy(trainer, DepthPolicy::Fixed(depth))
    }

    /// Wraps a trainer into a driver whose lookahead depth follows
    /// `policy`. Under [`DepthPolicy::Adaptive`] every completed step's
    /// [`StepReport::exposed_cast_wait`] feeds the [`DepthController`],
    /// which retunes the depth at window boundaries — observation-only,
    /// so the trajectory stays bit-identical to any fixed depth.
    pub fn with_policy(trainer: Trainer, policy: DepthPolicy) -> Self {
        Self {
            queue: VecDeque::with_capacity(policy.max_depth() + 1),
            trainer,
            controller: DepthController::new(policy),
            checkpoint: None,
        }
    }

    /// Enables crash-safe checkpointing: every `every` completed steps,
    /// [`TrainLoop::run`] drains the in-flight queue and commits full
    /// training state (model, optimizer slabs, step counter, batch
    /// source position, depth controller) to `store`.
    ///
    /// Draining at the boundary is trajectory-neutral — completions
    /// happen in the same order with the same inputs, just earlier — so
    /// a run with checkpointing enabled trains bit-identically to one
    /// without, and a run resumed from any of the checkpoints continues
    /// bit-identically to the uninterrupted run
    /// (`tests/checkpoint_resume.rs`).
    ///
    /// # Panics
    ///
    /// Panics if `every` is zero.
    #[must_use]
    pub fn checkpoint_every(mut self, every: u64, store: CheckpointStore) -> Self {
        assert!(every > 0, "checkpoint cadence must be positive");
        let last_step = self.trainer.steps() + self.queue.len() as u64;
        self.checkpoint = Some(CheckpointCadence {
            every,
            store,
            last: None,
            last_step,
        });
        self
    }

    /// The most recent checkpoint committed by [`TrainLoop::run`].
    pub fn last_checkpoint(&self) -> Option<&Path> {
        self.checkpoint.as_ref().and_then(|c| c.last.as_deref())
    }

    /// Resumes a killed run: loads the checkpoint at `path`, restores
    /// full training state into `trainer` (which must be freshly built
    /// with the architecture, optimizer and learning rate of the saved
    /// run), rewinds `source` to the saved stream position, and rebuilds
    /// the depth controller mid-trajectory under `policy`.
    ///
    /// The returned loop continues the killed run **bit-identically**:
    /// weights, per-step losses and depth decisions match an
    /// uninterrupted run step for step.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError`] on unreadable/corrupt checkpoints or
    /// trainer mismatches.
    ///
    /// # Panics
    ///
    /// Panics if the checkpoint's source state does not match the kind
    /// of `source` (see [`BatchSource::restore`]).
    pub fn resume(
        path: impl AsRef<Path>,
        mut trainer: Trainer,
        policy: DepthPolicy,
        source: &mut dyn BatchSource,
    ) -> Result<Self, CheckpointError> {
        let mut file = std::fs::File::open(path)?;
        let ckpt = read_train_checkpoint(&mut file)?;
        ckpt.restore_into(&mut trainer)?;
        if let Some(state) = ckpt.source_state() {
            source.restore(&state);
        }
        let controller = match ckpt.controller_state() {
            Some(state) => DepthController::restore(policy, state),
            None => DepthController::new(policy),
        };
        Ok(Self {
            queue: VecDeque::with_capacity(policy.max_depth() + 1),
            trainer,
            controller,
            checkpoint: None,
        })
    }

    /// The lookahead depth currently in effect.
    pub fn depth(&self) -> usize {
        self.controller.depth()
    }

    /// The depth controller (its policy and current depth).
    pub fn controller(&self) -> &DepthController {
        &self.controller
    }

    /// Steps begun but not yet completed.
    pub fn in_flight(&self) -> usize {
        self.queue.len()
    }

    /// Immutable access to the wrapped trainer.
    pub fn trainer(&self) -> &Trainer {
        &self.trainer
    }

    /// Mutable access to the wrapped trainer, for out-of-band weight
    /// surgery between runs (e.g. hot-swapping in a checkpoint-restored
    /// model mid-traffic before republishing a snapshot).
    ///
    /// # Panics
    ///
    /// Panics if steps are still in flight: mutating the trainer under
    /// queued casting jobs would corrupt the pipeline's bookkeeping.
    pub fn trainer_mut(&mut self) -> &mut Trainer {
        assert!(
            self.queue.is_empty(),
            "{} steps still in flight: call finish() first",
            self.queue.len()
        );
        self.trainer.drop_gather_ahead();
        &mut self.trainer
    }

    /// Feeds one batch into the pipeline: begins its casting job and —
    /// once more than `depth` steps are in flight — completes the oldest
    /// one, returning its report together with its batch (so the caller
    /// can recycle the buffers into a [`BatchSource`] free-list).
    ///
    /// Completions come back in push order, `depth` pushes behind. An
    /// adaptive policy may lower the depth mid-stream, leaving more
    /// than `depth + 1` steps in flight; each push still completes at
    /// most one step, so the queue drains by one per push — use
    /// [`TrainLoop::complete_excess`] (as [`TrainLoop::run`] does) to
    /// drain immediately.
    ///
    /// # Errors
    ///
    /// Returns an error on shape/index inconsistencies in the completed
    /// step's batch.
    pub fn push(
        &mut self,
        batch: Arc<CtrBatch>,
    ) -> Result<Option<(StepReport, Arc<CtrBatch>)>, EmbeddingError> {
        let step = self.trainer.begin_step(batch);
        self.queue.push_back(step);
        if self.queue.len() > self.controller.depth() {
            return self.complete_front().map(Some);
        }
        Ok(None)
    }

    /// Completes in-flight steps until no more than the current depth
    /// remain — the drain a mid-stream depth *decrease* calls for.
    /// Returns the completed reports and batches in order (usually
    /// empty).
    ///
    /// # Errors
    ///
    /// Returns an error on shape/index inconsistencies; steps after the
    /// failing one remain in flight.
    pub fn complete_excess(&mut self) -> Result<Vec<(StepReport, Arc<CtrBatch>)>, EmbeddingError> {
        let mut out = Vec::new();
        while self.queue.len() > self.controller.depth() {
            out.push(self.complete_front()?);
        }
        Ok(out)
    }

    /// Completes every in-flight step, returning their reports and
    /// batches in order. Call at the end of a stream (or before
    /// [`TrainLoop::into_trainer`]) to drain the lookahead queue.
    ///
    /// # Errors
    ///
    /// Returns an error on shape/index inconsistencies; steps after the
    /// failing one remain in flight.
    pub fn finish(&mut self) -> Result<Vec<(StepReport, Arc<CtrBatch>)>, EmbeddingError> {
        let mut out = Vec::with_capacity(self.queue.len());
        while !self.queue.is_empty() {
            out.push(self.complete_front()?);
        }
        Ok(out)
    }

    fn complete_front(&mut self) -> Result<(StepReport, Arc<CtrBatch>), EmbeddingError> {
        let step = self.queue.pop_front().expect("queue non-empty");
        let batch = Arc::clone(step.batch());
        // The step queued behind this one (none at depth 0 or at the end of
        // a drain) has its forward gather run behind this one's scatter.
        let report = self.trainer.complete_step(step, self.queue.front())?;
        // Close the control loop: every completed step's measured
        // exposed wait feeds the controller (a no-op under Fixed).
        self.controller.observe(report.exposed_cast_wait);
        Ok((report, batch))
    }

    /// Streams up to `steps` batches from `source` through the pipelined
    /// loop, recycling every completed batch back into the source's
    /// free-list, and reports the run's losses, timings and casting
    /// overlap. Stops early if the source ends (finite trace replay).
    ///
    /// With [`TrainLoop::checkpoint_every`] configured, full training
    /// state is committed at every cadence boundary (the in-flight queue
    /// is drained first — trajectory-neutral, see `checkpoint_every`).
    ///
    /// # Errors
    ///
    /// Returns [`DriverError::Train`] on shape/index inconsistencies in
    /// any batch and [`DriverError::Checkpoint`] if a periodic
    /// checkpoint cannot be committed.
    pub fn run(
        &mut self,
        source: &mut dyn BatchSource,
        steps: usize,
    ) -> Result<RunSummary, DriverError> {
        let stats_before = self.pipeline_stats_or_default();
        let mut summary = RunSummary::default();
        for _ in 0..steps {
            let t0 = Instant::now();
            let next = source.next_batch();
            summary.batch_wait += t0.elapsed();
            let Some(batch) = next else {
                break;
            };
            if let Some((report, done)) = self.push(batch)? {
                self.record(&mut summary, &report);
                source.recycle(done);
            }
            // An adaptive depth decrease leaves excess steps in flight;
            // complete them now so the queue tracks the new depth.
            for (report, done) in self.complete_excess()? {
                self.record(&mut summary, &report);
                source.recycle(done);
            }
            if self.checkpoint_due() {
                for (report, done) in self.finish()? {
                    self.record(&mut summary, &report);
                    source.recycle(done);
                }
                self.commit_checkpoint(source)?;
            }
        }
        for (report, done) in self.finish()? {
            self.record(&mut summary, &report);
            source.recycle(done);
        }
        if self.checkpoint_due() {
            self.commit_checkpoint(source)?;
        }
        let stats_after = self.pipeline_stats_or_default();
        summary.casting_time = stats_after.casting_time - stats_before.casting_time;
        Ok(summary)
    }

    /// Whether the trainer has crossed a checkpoint-cadence boundary
    /// since the last commit. Compared against the *pushed* step count
    /// (completed + in flight), so the decision is the same whatever the
    /// lookahead depth happens to be when the boundary is crossed.
    fn checkpoint_due(&self) -> bool {
        self.checkpoint.as_ref().is_some_and(|c| {
            let pushed = self.trainer.steps() + self.queue.len() as u64;
            pushed > 0 && pushed.is_multiple_of(c.every) && pushed != c.last_step
        })
    }

    /// Drains nothing itself (callers drain first): captures source +
    /// controller state and commits one checkpoint.
    fn commit_checkpoint(&mut self, source: &mut dyn BatchSource) -> Result<(), CheckpointError> {
        debug_assert!(self.queue.is_empty(), "drain before checkpointing");
        let source_state = source.state();
        let controller_state = self.controller.state();
        if let Some(c) = self.checkpoint.as_mut() {
            let path = c.store.save(
                &self.trainer,
                source_state.as_ref(),
                Some(&controller_state),
            )?;
            c.last = Some(path);
            c.last_step = self.trainer.steps();
        }
        Ok(())
    }

    fn record(&self, summary: &mut RunSummary, report: &StepReport) {
        summary.steps += 1;
        summary.losses.push(report.loss);
        summary.timings += report.timings;
        summary.exposed_cast_wait += report.exposed_cast_wait;
        summary.depths.push(self.controller.depth());
    }

    fn pipeline_stats_or_default(&self) -> PipelineStats {
        self.trainer.pipeline_stats().unwrap_or_default()
    }

    /// Unwraps the trainer.
    ///
    /// # Panics
    ///
    /// Panics if steps are still in flight — [`TrainLoop::finish`] them
    /// first, so no begun batch is silently dropped untrained.
    pub fn into_trainer(self) -> Trainer {
        assert!(
            self.queue.is_empty(),
            "{} steps still in flight: call finish() first",
            self.queue.len()
        );
        self.trainer
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DlrmConfig;
    use crate::trainer::BackwardMode;
    use tcast_datasets::{SyntheticCtr, SyntheticSource};

    fn source(seed: u64, batch: usize) -> SyntheticSource {
        let cfg = DlrmConfig::tiny();
        SyntheticSource::new(
            SyntheticCtr::new(cfg.table_workloads(), cfg.dense_features, seed),
            batch,
        )
    }

    #[test]
    fn depth_zero_run_matches_the_plain_step_loop() {
        let mut serial = Trainer::new(DlrmConfig::tiny(), BackwardMode::Casted, 3).unwrap();
        let mut stream = SyntheticCtr::new(
            DlrmConfig::tiny().table_workloads(),
            DlrmConfig::tiny().dense_features,
            8,
        );
        let serial_losses: Vec<f32> = (0..5)
            .map(|_| serial.step(&stream.next_batch(16)).unwrap().loss)
            .collect();

        let trainer = Trainer::new(DlrmConfig::tiny(), BackwardMode::Casted, 3).unwrap();
        let mut driver = TrainLoop::new(trainer, 0);
        let summary = driver.run(&mut source(8, 16), 5).unwrap();
        assert_eq!(summary.losses, serial_losses);
        let pipelined = driver.into_trainer();
        for i in 0..serial.model().num_tables() {
            assert_eq!(
                serial
                    .model()
                    .table(i)
                    .max_abs_diff(pipelined.model().table(i))
                    .unwrap(),
                0.0
            );
        }
    }

    #[test]
    fn push_defers_completion_by_depth() {
        let trainer = Trainer::new(DlrmConfig::tiny(), BackwardMode::Casted, 1).unwrap();
        let mut driver = TrainLoop::new(trainer, 2);
        let mut src = source(5, 8);
        assert!(driver.push(src.next_batch().unwrap()).unwrap().is_none());
        assert!(driver.push(src.next_batch().unwrap()).unwrap().is_none());
        assert_eq!(driver.in_flight(), 2);
        // The third push completes the FIRST batch.
        let first = src_batches(&mut source(5, 8), 1).pop().unwrap();
        let (report, done) = driver.push(src.next_batch().unwrap()).unwrap().unwrap();
        assert!(report.loss.is_finite());
        assert_eq!(*done, *first, "completions must come back in push order");
        assert_eq!(driver.in_flight(), 2);
        let rest = driver.finish().unwrap();
        assert_eq!(rest.len(), 2);
        assert_eq!(driver.in_flight(), 0);
        assert_eq!(driver.trainer().steps(), 3);
    }

    fn src_batches(src: &mut SyntheticSource, n: usize) -> Vec<Arc<CtrBatch>> {
        (0..n).map(|_| src.next_batch().unwrap()).collect()
    }

    #[test]
    fn run_recycles_batches_into_the_free_list() {
        let trainer = Trainer::new(DlrmConfig::tiny(), BackwardMode::Casted, 2).unwrap();
        let mut driver = TrainLoop::new(trainer, 2);
        let mut src = source(9, 16);
        let summary = driver.run(&mut src, 6).unwrap();
        assert_eq!(summary.steps, 6);
        assert_eq!(summary.losses.len(), 6);
        // Every batch came back: the free-list holds depth+1 or fewer
        // buffers (some may still be Arc-shared, but none are lost).
        assert!(src.free_list_len() >= 1);
        assert!(summary.timings.total() > Duration::ZERO);
    }

    #[test]
    fn baseline_mode_reports_full_hiding() {
        let trainer = Trainer::new(DlrmConfig::tiny(), BackwardMode::Baseline, 2).unwrap();
        let mut driver = TrainLoop::new(trainer, 3);
        let summary = driver.run(&mut source(13, 16), 4).unwrap();
        assert_eq!(summary.steps, 4);
        assert_eq!(summary.exposed_cast_wait, Duration::ZERO);
        assert_eq!(summary.hidden_fraction(), 1.0);
    }

    #[test]
    fn fixed_policy_reports_a_constant_depth_trajectory() {
        let trainer = Trainer::new(DlrmConfig::tiny(), BackwardMode::Casted, 7).unwrap();
        let mut driver = TrainLoop::with_policy(trainer, DepthPolicy::Fixed(2));
        let summary = driver.run(&mut source(3, 8), 5).unwrap();
        assert_eq!(summary.depths, vec![2; 5]);
        assert_eq!(summary.mean_depth(), 2.0);
        assert_eq!(summary.final_depth(), 2);
    }

    #[test]
    fn controller_climbs_on_exposed_waits_and_respects_bounds() {
        let mut c = DepthController::new(DepthPolicy::Adaptive(AdaptiveDepth {
            min: 1,
            max: 3,
            window: 2,
            target_exposed_ns: 1_000,
            decrease_after: 2,
            floor_decay_after: 0,
        }));
        assert_eq!(c.depth(), 1);
        let exposed = Duration::from_micros(50);
        // Every window congested: +1 per window, clamped at max.
        for _ in 0..10 {
            c.observe(exposed);
        }
        assert_eq!(c.depth(), 3, "additive increase must stop at max");
        // Fully hidden: after `decrease_after` windows the depth halves,
        // never below min.
        for _ in 0..40 {
            c.observe(Duration::ZERO);
        }
        assert_eq!(c.depth(), 1, "multiplicative decrease must stop at min");
    }

    #[test]
    fn controller_pins_a_floor_after_a_failed_decrease_trial() {
        let a = AdaptiveDepth {
            min: 0,
            max: 8,
            window: 1,
            target_exposed_ns: 1_000,
            decrease_after: 2,
            floor_decay_after: 0,
        };
        let mut c = DepthController::new(DepthPolicy::Adaptive(a));
        let exposed = Duration::from_micros(100);
        // Simulate a knee at depth 2: exposed below 2, hidden at >= 2.
        let mut trace = Vec::new();
        for _ in 0..40 {
            let wait = if c.depth() >= 2 {
                Duration::ZERO
            } else {
                exposed
            };
            trace.push(c.observe(wait));
        }
        // The tail must sit at the knee: a decrease trial to 1 exposes
        // casting, the controller climbs back and pins floor = 2.
        assert!(
            trace[20..].iter().all(|&d| d == 2),
            "controller failed to converge on the knee: {trace:?}"
        );
    }

    #[test]
    fn floor_decays_after_sustained_hidden_windows() {
        // Same knee-at-2 workload as the pinning test, but the workload
        // then shifts: casting becomes hidden at *every* depth. With
        // floor decay enabled the controller must shed the stale floor
        // and walk back down to min instead of idling pinned at 2.
        let a = AdaptiveDepth {
            min: 0,
            max: 8,
            window: 1,
            target_exposed_ns: 1_000,
            decrease_after: 2,
            floor_decay_after: 4,
        };
        let mut c = DepthController::new(DepthPolicy::Adaptive(a));
        let exposed = Duration::from_micros(100);
        // Phase 1: knee at depth 2 — converge and pin the floor there.
        for _ in 0..40 {
            let wait = if c.depth() >= 2 {
                Duration::ZERO
            } else {
                exposed
            };
            c.observe(wait);
        }
        assert_eq!(c.depth(), 2, "must converge on the knee first");
        // Phase 2: casting now always hidden. Each floor decay needs
        // `floor_decay_after` hidden windows plus a successful trial.
        let mut trace = Vec::new();
        for _ in 0..40 {
            trace.push(c.observe(Duration::ZERO));
        }
        assert_eq!(
            *trace.last().unwrap(),
            0,
            "floor never decayed to min: {trace:?}"
        );

        // With decay disabled the floor is sticky forever.
        let mut pinned = DepthController::new(DepthPolicy::Adaptive(AdaptiveDepth {
            floor_decay_after: 0,
            ..a
        }));
        for _ in 0..40 {
            let wait = if pinned.depth() >= 2 {
                Duration::ZERO
            } else {
                exposed
            };
            pinned.observe(wait);
        }
        for _ in 0..80 {
            pinned.observe(Duration::ZERO);
        }
        assert_eq!(pinned.depth(), 2, "disabled decay must keep the floor");
    }

    #[test]
    fn controller_state_roundtrips_mid_trajectory() {
        // Snapshot the controller mid-run, rebuild from the snapshot,
        // and feed both the same tail: decisions must match bit for bit.
        let a = AdaptiveDepth {
            min: 0,
            max: 6,
            window: 2,
            target_exposed_ns: 1_000,
            decrease_after: 2,
            floor_decay_after: 3,
        };
        let mut c = DepthController::new(DepthPolicy::Adaptive(a));
        let waits = [900_u64, 5_000, 0, 2_000, 0, 0, 3_000, 0, 0, 0, 0];
        for &w in &waits[..7] {
            c.observe(Duration::from_nanos(w));
        }
        let snap = c.state();
        let mut r = DepthController::restore(DepthPolicy::Adaptive(a), snap);
        assert_eq!(r.depth(), c.depth());
        for &w in &waits[7..] {
            assert_eq!(
                c.observe(Duration::from_nanos(w)),
                r.observe(Duration::from_nanos(w)),
                "restored controller diverged"
            );
        }
        assert_eq!(c.state(), r.state());
    }

    #[test]
    fn run_with_checkpointing_is_trajectory_neutral() {
        // A cadenced run must train bit-identically to an uncadenced
        // one: the drain at each boundary only reorders *when* steps
        // complete, never what they compute.
        let dir = std::env::temp_dir().join(format!("tckp-neutral-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mk = || Trainer::new(DlrmConfig::tiny(), BackwardMode::Casted, 3).unwrap();
        let mut plain = TrainLoop::new(mk(), 2);
        let plain_summary = plain.run(&mut source(9, 16), 9).unwrap();

        let store = CheckpointStore::new(&dir, 2).unwrap();
        let mut cadenced = TrainLoop::new(mk(), 2).checkpoint_every(3, store);
        let cadenced_summary = cadenced.run(&mut source(9, 16), 9).unwrap();

        assert_eq!(
            plain_summary
                .losses
                .iter()
                .map(|l| l.to_bits())
                .collect::<Vec<_>>(),
            cadenced_summary
                .losses
                .iter()
                .map(|l| l.to_bits())
                .collect::<Vec<_>>(),
            "checkpoint drains changed the trajectory"
        );
        let last = cadenced
            .last_checkpoint()
            .expect("a checkpoint was committed");
        assert!(
            last.ends_with("ckpt-000000000009.tckp"),
            "unexpected {last:?}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn adaptive_depth_decrease_drains_the_queue_mid_run() {
        // A policy that *starts* deep and collapses once hidden: the
        // drain path (complete_excess) must keep in_flight <= depth and
        // the run bit-identical to serial.
        let a = AdaptiveDepth {
            min: 0,
            max: 4,
            window: 1,
            target_exposed_ns: u64::MAX, // every window counts as hidden
            decrease_after: 1,
            floor_decay_after: 0,
        };
        let mk = || Trainer::new(DlrmConfig::tiny(), BackwardMode::Casted, 3).unwrap();
        let mut adaptive = TrainLoop::with_policy(mk(), DepthPolicy::Adaptive(a));
        let summary = adaptive.run(&mut source(8, 16), 8).unwrap();
        assert_eq!(summary.steps, 8);
        assert_eq!(adaptive.in_flight(), 0);
        let mut serial = TrainLoop::new(mk(), 0);
        let serial_summary = serial.run(&mut source(8, 16), 8).unwrap();
        assert_eq!(summary.losses, serial_summary.losses);
        // With every window hidden the depth can only fall; it must end
        // at min and never exceed max.
        assert!(summary.depths.iter().all(|&d| d <= 4));
        assert_eq!(summary.final_depth(), 0);
    }

    #[test]
    #[should_panic(expected = "bounds inverted")]
    fn inverted_adaptive_bounds_rejected() {
        DepthController::new(DepthPolicy::Adaptive(AdaptiveDepth::new(5, 2)));
    }

    #[test]
    fn run_measures_generation_wait() {
        let trainer = Trainer::new(DlrmConfig::tiny(), BackwardMode::Casted, 2).unwrap();
        let mut driver = TrainLoop::new(trainer, 1);
        let summary = driver.run(&mut source(4, 32), 4).unwrap();
        // Inline generation always costs *something* measurable.
        assert!(summary.batch_wait > Duration::ZERO);
    }

    #[test]
    #[should_panic(expected = "still in flight")]
    fn into_trainer_refuses_to_drop_begun_steps() {
        let trainer = Trainer::new(DlrmConfig::tiny(), BackwardMode::Casted, 1).unwrap();
        let mut driver = TrainLoop::new(trainer, 2);
        let mut src = source(5, 8);
        driver.push(src.next_batch().unwrap()).unwrap();
        let _ = driver.into_trainer();
    }

    #[test]
    fn finite_source_ends_the_run_early() {
        // A trace-replay style finite stream: run() asks for more steps
        // than the source has and must stop cleanly.
        struct Finite {
            inner: SyntheticSource,
            left: usize,
        }
        impl BatchSource for Finite {
            fn next_batch(&mut self) -> Option<Arc<CtrBatch>> {
                if self.left == 0 {
                    return None;
                }
                self.left -= 1;
                self.inner.next_batch()
            }
            fn recycle(&mut self, batch: Arc<CtrBatch>) {
                self.inner.recycle(batch);
            }
        }
        let trainer = Trainer::new(DlrmConfig::tiny(), BackwardMode::Casted, 4).unwrap();
        let mut driver = TrainLoop::new(trainer, 2);
        let mut src = Finite {
            inner: source(21, 8),
            left: 3,
        };
        let summary = driver.run(&mut src, 10).unwrap();
        assert_eq!(summary.steps, 3);
        assert_eq!(driver.in_flight(), 0);
    }
}
