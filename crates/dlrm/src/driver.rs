//! The cross-batch pipelined training driver: a lookahead queue of depth
//! D over a streaming [`BatchSource`].
//!
//! [`Trainer::step`] knows no batch but its own, so it casts batch N's
//! indices in-step, exposed on the critical path. The paper's runtime
//! (Section IV-B) instead casts a mini-batch before it trains, hidden
//! under work that runs anyway. [`TrainLoop`] is that runtime's host-side
//! embodiment: it begins up to `depth` steps ahead of the one it is
//! completing, and at depth >= 1 each completion is handed the step
//! queued behind it, whose cast runs on the trainer's lane beside the
//! completion's dense phases. Only the next batch is cast ahead; a deeper
//! queue only holds batches.
//!
//! Correctness is structural, not probabilistic: [`Trainer::begin_step`]
//! touches no model state, casting is a pure function of the index
//! arrays, and completions run strictly in submission order — so **any
//! depth produces bit-identical weights and losses to the serial `step`
//! loop** (property-tested in `tests/pipelined_training.rs` across both
//! backward modes and all five optimizers).
//!
//! The depth is one number for the life of the loop: [`TrainLoop::new`]
//! takes it, every checkpoint the loop commits records it (the `DCTL`
//! section), and [`TrainLoop::resume`] continues at the recorded depth.
//!
//! Holding the next batch also lets the loop overlap its **forward
//! gather**: [`Trainer::complete_step`] gathers the queued step's table
//! `i` on the lane as soon as its own scatter of table `i` has returned
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
    /// Total casting time the completed steps did not hide — the run's
    /// exposed casting latency (always zero in baseline mode; the whole
    /// casting time at depth 0). Lookahead exists to drive this to zero.
    pub exposed_cast_wait: Duration,
    /// Time spent casting during this run, by the cast's own clock,
    /// whichever thread ran it.
    pub casting_time: Duration,
    /// Total time [`TrainLoop::run`] blocked in the source's
    /// `next_batch` — the run's exposed batch-*generation* latency.
    /// With an inline source this is the full generation cost; wrapping
    /// the source in a `PrefetchSource` moves generation onto a
    /// producer thread and collapses this to the residual the producer
    /// could not stay ahead of.
    pub batch_wait: Duration,
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

    fn record(&mut self, report: &StepReport) {
        self.steps += 1;
        self.losses.push(report.loss);
        self.timings += report.timings;
        self.exposed_cast_wait += report.exposed_cast_wait;
    }
}

/// The cross-batch pipelined training driver.
///
/// `depth` is the lookahead: how many *future* batches are queued while
/// a step completes. Depth 0 is exactly the serial `step` loop (begin,
/// then immediately complete, casting in-step); at depth >= 1 every
/// completion casts and gathers one batch ahead, the one queued behind
/// it. A deeper queue only holds more batches alive; nothing caps it.
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
    depth: usize,
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
    /// depth (0 = serial).
    pub fn new(trainer: Trainer, depth: usize) -> Self {
        Self {
            queue: VecDeque::with_capacity(depth + 1),
            trainer,
            depth,
            checkpoint: None,
        }
    }

    /// Enables crash-safe checkpointing: every `every` completed steps,
    /// [`TrainLoop::run`] drains the in-flight queue and commits full
    /// training state (model, optimizer slabs, step counter, batch
    /// source position, lookahead depth) to `store`.
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
    /// run), rewinds `source` to the saved stream position, and continues
    /// at the lookahead depth the checkpoint recorded.
    ///
    /// The returned loop continues the killed run **bit-identically**:
    /// weights and per-step losses match an uninterrupted run step for
    /// step.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError`] on unreadable/corrupt checkpoints or
    /// trainer mismatches, and [`CheckpointError::Format`] when the
    /// checkpoint records no depth (one written without a `DCTL` section,
    /// not by a [`TrainLoop`]) — in every case before `source` is
    /// rewound.
    ///
    /// # Panics
    ///
    /// Panics if the checkpoint's source state does not match the kind
    /// of `source` (see [`BatchSource::restore`]).
    pub fn resume(
        path: impl AsRef<Path>,
        mut trainer: Trainer,
        source: &mut dyn BatchSource,
    ) -> Result<Self, CheckpointError> {
        let mut file = std::fs::File::open(path)?;
        let ckpt = read_train_checkpoint(&mut file)?;
        let depth = ckpt.depth().ok_or_else(|| {
            CheckpointError::Format("missing DCTL section (no lookahead depth to resume at)".into())
        })?;
        ckpt.restore_into(&mut trainer)?;
        if let Some(state) = ckpt.source_state() {
            source.restore(&state);
        }
        Ok(Self::new(trainer, depth))
    }

    /// The lookahead depth.
    pub fn depth(&self) -> usize {
        self.depth
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
    /// Panics if steps are still in flight: the queued steps would
    /// complete against weights they were not queued behind.
    pub fn trainer_mut(&mut self) -> &mut Trainer {
        assert!(
            self.queue.is_empty(),
            "{} steps still in flight: call finish() first",
            self.queue.len()
        );
        self.trainer.drop_gather_ahead();
        &mut self.trainer
    }

    /// Feeds one batch into the loop: begins its step and — once more
    /// than `depth` steps are in flight — completes the oldest
    /// one, returning its report together with its batch (so the caller
    /// can recycle the buffers into a [`BatchSource`] free-list).
    ///
    /// Completions come back in push order, `depth` pushes behind.
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
        if self.queue.len() > self.depth {
            return self.complete_front().map(Some);
        }
        Ok(None)
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
                summary.record(&report);
                source.recycle(done);
            }
            if self.checkpoint_due() {
                for (report, done) in self.finish()? {
                    summary.record(&report);
                    source.recycle(done);
                }
                self.commit_checkpoint(source)?;
            }
        }
        for (report, done) in self.finish()? {
            summary.record(&report);
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

    /// Drains nothing itself (callers drain first): captures the source
    /// position and the depth and commits one checkpoint.
    fn commit_checkpoint(&mut self, source: &mut dyn BatchSource) -> Result<(), CheckpointError> {
        debug_assert!(self.queue.is_empty(), "drain before checkpointing");
        let source_state = source.state();
        if let Some(c) = self.checkpoint.as_mut() {
            let path = c
                .store
                .save(&self.trainer, source_state.as_ref(), Some(self.depth))?;
            c.last = Some(path);
            c.last_step = self.trainer.steps();
        }
        Ok(())
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
