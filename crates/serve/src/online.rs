//! The serving loop — and the online-training mode that interleaves it
//! with casted update steps.
//!
//! # The clock
//!
//! The loop runs a *hybrid* discrete-event simulation: query arrivals
//! live on a simulated nanosecond clock (so a seeded workload produces
//! the same arrival schedule on any machine), while service and
//! training-step durations are measured wall-clock from actually running
//! the engine/trainer and advance the simulated clock by the measured
//! amount. Latencies, QPS and SLA accounting therefore reflect real
//! compute on this host, while the arrival pattern stays reproducible.
//!
//! # Online training
//!
//! [`OnlineConfig`] interleaves trainer update steps from a
//! [`BatchSource`] between fused serving batches: after every
//! `update_every` batches the loop runs one casted [`Trainer::step`].
//! Serving reads the model through `&` only (the engine owns all its
//! scratch), so **the update trajectory is bit-identical to the offline
//! trainer fed the same batch stream** — the serving subsystem changes
//! *when* the model advances, never *how* (property-tested in
//! `tests/serving.rs`). What serving adds is *staleness*: queries are
//! scored by a model some number of update steps old, tracked per batch
//! in [`OnlineReport`].
//!
//! The update slot pays two costs, both accounted on the simulated
//! clock: *generating* the training batch ([`OnlineReport::gen_ns`])
//! and the step itself ([`OnlineReport::train_ns`]). Passing a
//! `tcast_datasets::PrefetchSource` as the batch source moves
//! generation onto a background producer thread that overlaps serving
//! *and* update slots, collapsing `gen_ns` to the residual the
//! producer could not stay ahead of — with an update trajectory still
//! bit-identical (prefetching reorders nothing).

use std::collections::VecDeque;
use std::fs::File;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use crate::engine::ServeEngine;
use crate::queue::{AdmissionQueue, BatchPolicy, Decision, QueuedQuery};
use crate::request::{ArrivalProcess, Query, QueryModel};
use crate::stats::{FreshnessLedger, LatencyHistogram, ServeReport};
use tcast_datasets::BatchSource;
use tcast_dlrm::checkpoint::{read_train_checkpoint, CheckpointError};
use tcast_dlrm::Trainer;
use tcast_embedding::EmbeddingError;
use tcast_tensor::SplitMix64;

/// A serving run's shape: how much traffic, how it arrives, how it is
/// batched, and the SLA it is accounted against.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Total queries to serve.
    pub queries: usize,
    /// Arrival model.
    pub arrivals: ArrivalProcess,
    /// Batching policy.
    pub policy: BatchPolicy,
    /// Tail-latency target for violation accounting (and the adaptive
    /// policy's setpoint).
    pub sla_ns: u64,
    /// Arrival-schedule seed.
    pub seed: u64,
    /// Graceful degradation under overload: before every scheduling
    /// decision, shed the queries whose deadline is already provably
    /// unmeetable (waited `sla_ns` or longer — service time would only
    /// push them further past the SLA). Shed queries complete their
    /// closed-loop clients without being scored and are counted in
    /// [`ServeReport::shed`] instead of the latency histogram.
    pub shed_unmeetable: bool,
}

/// A mid-run checkpoint hot-restore (see [`OnlineConfig::restore`]).
#[derive(Debug, Clone)]
pub struct HotRestore {
    /// The checkpoint file to restore (a `.tckp` written by
    /// `tcast_dlrm::checkpoint`).
    pub path: PathBuf,
    /// Restore once the trainer has taken this many online update steps
    /// (0 restores before the first update).
    pub at_update: u64,
}

/// Online-training knobs.
#[derive(Debug, Clone)]
pub struct OnlineConfig {
    /// Run one trainer update step after every this many fused serving
    /// batches.
    pub update_every: usize,
    /// Optionally hot-restore a checkpoint into the trainer mid-traffic
    /// — the recovery drill: serving continues, the model snaps back to
    /// the checkpointed state, and the restore's wall-clock cost lands
    /// on the simulated clock and in [`ServeReport::restore_ns`].
    pub restore: Option<HotRestore>,
}

/// What can go wrong in a serving run.
#[derive(Debug)]
pub enum ServeError {
    /// Scoring or an online update step failed (shape/index mismatch,
    /// exhausted batch source).
    Score(EmbeddingError),
    /// A mid-run checkpoint hot-restore failed (I/O, corruption, or a
    /// checkpoint that does not match the serving trainer).
    Restore(CheckpointError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Score(e) => write!(f, "serving failed: {e}"),
            ServeError::Restore(e) => write!(f, "hot-restore failed: {e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Score(e) => Some(e),
            ServeError::Restore(e) => Some(e),
        }
    }
}

impl From<EmbeddingError> for ServeError {
    fn from(e: EmbeddingError) -> Self {
        ServeError::Score(e)
    }
}

impl From<CheckpointError> for ServeError {
    fn from(e: CheckpointError) -> Self {
        ServeError::Restore(e)
    }
}

/// What online training did during a serving run.
#[derive(Debug, Clone, Default)]
pub struct OnlineReport {
    /// Update steps taken.
    pub updates: u64,
    /// Per-step training losses, in order.
    pub losses: Vec<f32>,
    /// Wall time spent inside update steps (also on the simulated clock).
    pub train_ns: u64,
    /// Wall time the update slot spent blocked in the batch source's
    /// `next_batch` — the *generation* cost paid inside the serving
    /// loop (also on the simulated clock). With an inline source this
    /// is the full cost of generating each training batch; wrapping the
    /// source in a `PrefetchSource` moves generation onto a background
    /// producer that overlaps both serving and update slots, collapsing
    /// this to ~0 (the repo benchmark reports it as
    /// `serve.gen_ms_per_update`).
    pub gen_ns: u64,
    /// Per-batch model staleness, in *update steps behind*: how many
    /// serving batches were scored at each staleness level is what the
    /// histogram of this vector shows; entry `i` is the staleness of
    /// fused batch `i` (0 = scored by a just-updated model).
    pub staleness_batches: Vec<u64>,
    /// Per-batch freshness on the schema shared with the concurrent
    /// runtime: model version (1 + mutations so far — update steps and
    /// hot-restores both advance it), staleness in versions (always 0
    /// here: interleaved serving always scores the newest model), and
    /// wall-clock model age.
    pub freshness: FreshnessLedger,
}

impl OnlineReport {
    /// Largest number of batches served between two updates.
    pub fn max_staleness(&self) -> u64 {
        self.staleness_batches.iter().copied().max().unwrap_or(0)
    }

    /// Mean staleness over served batches.
    pub fn mean_staleness(&self) -> f64 {
        if self.staleness_batches.is_empty() {
            return 0.0;
        }
        self.staleness_batches.iter().sum::<u64>() as f64 / self.staleness_batches.len() as f64
    }
}

/// Drives a [`ServeEngine`] over a seeded workload: admission, batching,
/// scoring, accounting — the inference-only loop.
///
/// # Errors
///
/// Returns an error if a query disagrees with the model's shape.
pub fn serve(
    engine: &mut ServeEngine,
    model: &tcast_dlrm::Dlrm,
    workload: &mut QueryModel,
    config: &ServeConfig,
) -> Result<ServeReport, EmbeddingError> {
    let mut loop_ = ServeLoop::new(engine, workload, config);
    while !loop_.done() {
        loop_.tick(model)?;
    }
    Ok(loop_.into_report())
}

/// [`serve`] with online training: after every
/// `online.update_every` fused batches, one casted [`Trainer::step`] on
/// the next batch from `source`. The served model is always
/// `trainer.model()` — scoring between updates sees a frozen snapshot.
///
/// # Errors
///
/// Returns an error if a query disagrees with the model's shape, a
/// training batch is inconsistent, or the batch source ends.
pub fn serve_online(
    engine: &mut ServeEngine,
    trainer: &mut Trainer,
    source: &mut dyn BatchSource,
    workload: &mut QueryModel,
    config: &ServeConfig,
    online: OnlineConfig,
) -> Result<(ServeReport, OnlineReport), ServeError> {
    assert!(online.update_every > 0, "update_every must be positive");
    let mut loop_ = ServeLoop::new(engine, workload, config);
    let mut report = OnlineReport::default();
    let mut batches_since_update = 0u64;
    // Freshness bookkeeping on the snapshot schema: the initial model is
    // version 1, every mutation (update step or hot-restore) publishes
    // the next version, and interleaved serving always scores the head —
    // staleness in versions is identically 0.
    let mut model_version = 1u64;
    let mut model_published = Instant::now();
    let mut restore = online.restore;
    if let Some(hr) = restore.take_if(|hr| hr.at_update == 0) {
        hot_restore(&mut loop_, trainer, &hr)?;
        model_version += 1;
        model_published = Instant::now();
    }
    while !loop_.done() {
        let fired = loop_.tick(trainer.model())?;
        if fired {
            report.staleness_batches.push(batches_since_update);
            report.freshness.record(
                model_version,
                0,
                model_published.elapsed().as_nanos() as u64,
            );
            batches_since_update += 1;
            if batches_since_update >= online.update_every as u64 {
                let t0 = Instant::now();
                let batch = source.next_batch().ok_or_else(|| {
                    EmbeddingError::InvalidIndex("training batch source ended".to_string())
                })?;
                let gen = t0.elapsed().as_nanos() as u64;
                loop_.advance_clock(gen);
                report.gen_ns += gen;
                let t0 = Instant::now();
                let step = trainer.step(&batch)?;
                let spent = t0.elapsed().as_nanos() as u64;
                loop_.advance_clock(spent);
                report.train_ns += spent;
                report.losses.push(step.loss);
                report.updates += 1;
                batches_since_update = 0;
                model_version += 1;
                model_published = Instant::now();
                source.recycle(batch);
                if let Some(hr) = restore.take_if(|hr| report.updates >= hr.at_update) {
                    hot_restore(&mut loop_, trainer, &hr)?;
                    model_version += 1;
                    model_published = Instant::now();
                }
            }
        }
    }
    Ok((loop_.into_report(), report))
}

/// Loads `hr.path` into the live trainer while traffic is in flight,
/// charging the restore's wall-clock cost to the simulated clock.
fn hot_restore(
    loop_: &mut ServeLoop<'_>,
    trainer: &mut Trainer,
    hr: &HotRestore,
) -> Result<(), CheckpointError> {
    let t0 = Instant::now();
    let ckpt = read_train_checkpoint(&mut File::open(&hr.path)?)?;
    ckpt.restore_into(trainer)?;
    let spent = t0.elapsed().as_nanos() as u64;
    loop_.advance_clock(spent);
    loop_.restores += 1;
    loop_.restore_ns += spent;
    Ok(())
}

/// The loop's mutable state, one `tick` per scheduling decision.
struct ServeLoop<'a> {
    engine: &'a mut ServeEngine,
    workload: &'a mut QueryModel,
    queue: AdmissionQueue,
    rng: SplitMix64,
    arrivals: ArrivalProcess,
    /// Arrival times are non-decreasing in generation order, so a FIFO
    /// holds the schedule (closed-loop completions only ever append
    /// later times).
    pending: VecDeque<(u64, Arc<Query>)>,
    /// Reused buffer the fired batch drains into.
    fired: Vec<QueuedQuery>,
    clock_ns: u64,
    issued: usize,
    completed: usize,
    total: usize,
    sla_ns: u64,
    shed_unmeetable: bool,
    /// Reused buffer shed queries drain into.
    shed_buf: Vec<QueuedQuery>,
    latency: LatencyHistogram,
    service: LatencyHistogram,
    sla_violations: u64,
    samples: u64,
    batches: u64,
    started_ns: u64,
    restores: u64,
    restore_ns: u64,
}

impl<'a> ServeLoop<'a> {
    fn new(
        engine: &'a mut ServeEngine,
        workload: &'a mut QueryModel,
        config: &ServeConfig,
    ) -> Self {
        assert!(config.queries > 0, "must serve at least one query");
        let mut this = Self {
            engine,
            workload,
            queue: AdmissionQueue::new(config.policy.clone()),
            rng: SplitMix64::new(config.seed),
            arrivals: config.arrivals,
            pending: VecDeque::new(),
            fired: Vec::new(),
            clock_ns: 0,
            issued: 0,
            completed: 0,
            total: config.queries,
            sla_ns: config.sla_ns,
            shed_unmeetable: config.shed_unmeetable,
            shed_buf: Vec::new(),
            latency: LatencyHistogram::new(),
            service: LatencyHistogram::new(),
            sla_violations: 0,
            samples: 0,
            batches: 0,
            started_ns: 0,
            restores: 0,
            restore_ns: 0,
        };
        match this.arrivals {
            ArrivalProcess::Poisson { .. } => this.schedule_open_arrival(0),
            ArrivalProcess::ClosedLoop { clients, .. } => {
                for _ in 0..clients.max(1).min(this.total) {
                    let q = this.workload.draw();
                    this.pending.push_back((0, q));
                    this.issued += 1;
                }
            }
        }
        this
    }

    fn done(&self) -> bool {
        self.completed >= self.total
    }

    fn advance_clock(&mut self, by_ns: u64) {
        self.clock_ns += by_ns;
    }

    fn schedule_open_arrival(&mut self, after_ns: u64) {
        if self.issued >= self.total {
            return;
        }
        let gap = self.arrivals.next_gap_ns(&mut self.rng);
        let q = self.workload.draw();
        self.pending.push_back((after_ns + gap, q));
        self.issued += 1;
    }

    /// One scheduling step: admit due arrivals, then either fire a batch
    /// (returns `true`) or advance the clock to the next event.
    fn tick(&mut self, model: &tcast_dlrm::Dlrm) -> Result<bool, EmbeddingError> {
        // Admit everything that has arrived by now.
        while let Some(&(t, _)) = self.pending.front() {
            if t > self.clock_ns {
                break;
            }
            let (t, q) = self.pending.pop_front().expect("front exists");
            self.queue.push(q, t);
            // Open-loop arrivals replenish themselves; closed-loop
            // arrivals replenish on completion.
            if matches!(self.arrivals, ArrivalProcess::Poisson { .. }) {
                self.schedule_open_arrival(t);
            }
        }
        // Graceful degradation: drop the queries that already cannot
        // meet the SLA before deciding, so a fired batch spends its
        // service time only on queries still inside their budget.
        if self.shed_unmeetable {
            self.shed_expired();
            if self.done() {
                // Shedding finished the run: nothing left to schedule
                // (and, closed-loop, nothing left to arrive).
                return Ok(false);
            }
        }
        // "More arrivals" means: can a query still arrive *before* the
        // next batch fires? Open-loop traffic keeps coming regardless;
        // closed-loop arrivals are completion-driven, so once `pending`
        // drains, nothing new can arrive until the queue fires — a
        // policy that kept waiting for a fuller batch would deadlock
        // (e.g. Fixed { batch: 8 } with only 2 clients in flight).
        let more = match self.arrivals {
            ArrivalProcess::Poisson { .. } => self.issued < self.total || !self.pending.is_empty(),
            ArrivalProcess::ClosedLoop { .. } => !self.pending.is_empty(),
        };
        match self.queue.decide(self.clock_ns, more) {
            Decision::Fire(n) => {
                self.fire(model, n)?;
                Ok(true)
            }
            Decision::WaitUntil(t) => {
                let next_event = self.pending.front().map(|&(at, _)| at.min(t)).unwrap_or(t);
                self.clock_ns = next_event.max(self.clock_ns + 1);
                Ok(false)
            }
            Decision::Wait => {
                let at = self
                    .pending
                    .front()
                    .map(|&(at, _)| at)
                    .expect("idle queue with no future arrivals cannot happen mid-run");
                self.clock_ns = at.max(self.clock_ns);
                Ok(false)
            }
        }
    }

    /// Sheds every queued query whose deadline is provably unmeetable at
    /// the current clock. A shed query *completes* — it counts toward
    /// the run total and (closed loop) frees its client to issue the
    /// next query — but is never scored: no latency sample, no SLA
    /// violation, no engine work.
    fn shed_expired(&mut self) {
        let mut shed = std::mem::take(&mut self.shed_buf);
        self.queue
            .shed_expired_into(self.clock_ns, self.sla_ns, &mut shed);
        let n = shed.len();
        if n > 0 {
            self.completed += n;
            if let ArrivalProcess::ClosedLoop { think_ns, .. } = self.arrivals {
                for _ in 0..n {
                    if self.issued >= self.total {
                        break;
                    }
                    let q = self.workload.draw();
                    self.pending.push_back((self.clock_ns + think_ns, q));
                    self.issued += 1;
                }
            }
        }
        shed.clear();
        self.shed_buf = shed;
    }

    fn fire(&mut self, model: &tcast_dlrm::Dlrm, n: usize) -> Result<(), EmbeddingError> {
        // Reused fired-batch buffer: no per-batch allocation once it
        // reaches the largest batch the policy fires.
        let mut batch = std::mem::take(&mut self.fired);
        self.queue.take_into(n, &mut batch);
        if self.completed == 0 {
            self.started_ns = self.clock_ns;
        }
        let t0 = Instant::now();
        let scored = self.engine.score_queued(model, &batch)?;
        self.samples += scored.num_samples() as u64;
        self.batches += 1;
        let service_ns = t0.elapsed().as_nanos() as u64;
        self.service.record(service_ns);
        self.clock_ns += service_ns;
        let oldest = batch.first().expect("non-empty batch").arrival_ns;
        self.queue.observe_batch(self.clock_ns - oldest);
        for item in &batch {
            let latency = self.clock_ns - item.arrival_ns;
            self.latency.record(latency);
            // Exclusive deadline: meet iff latency < sla_ns, matching
            // the shed and adaptive-batcher boundary.
            if latency >= self.sla_ns {
                self.sla_violations += 1;
            }
        }
        self.completed += n;
        // Closed loop: each completion triggers its client's next query.
        if let ArrivalProcess::ClosedLoop { think_ns, .. } = self.arrivals {
            for _ in 0..n {
                if self.issued >= self.total {
                    break;
                }
                let q = self.workload.draw();
                self.pending.push_back((self.clock_ns + think_ns, q));
                self.issued += 1;
            }
        }
        batch.clear(); // drop the query shares now, keep the capacity
        self.fired = batch;
        Ok(())
    }

    fn into_report(self) -> ServeReport {
        ServeReport {
            queries: self.completed as u64,
            batches: self.batches,
            samples: self.samples,
            latency: self.latency,
            service: self.service,
            span_ns: self.clock_ns.saturating_sub(self.started_ns).max(1),
            sla_ns: self.sla_ns,
            sla_violations: self.sla_violations,
            max_queue_depth: self.queue.max_depth(),
            cache_hit_rate: self.engine.cache_hit_rate(),
            shed: self.queue.shed_count(),
            restores: self.restores,
            restore_ns: self.restore_ns,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ServeEngine;
    use crate::queue::AdaptiveBatcher;
    use crate::request::CandidateCount;
    use tcast_datasets::{SyntheticCtr, SyntheticSource};
    use tcast_dlrm::{BackwardMode, Dlrm, DlrmConfig};

    fn model() -> Dlrm {
        Dlrm::new(DlrmConfig::tiny(), 3).unwrap()
    }

    fn workload(seed: u64) -> QueryModel {
        let cfg = DlrmConfig::tiny();
        QueryModel::new(
            &cfg.table_workloads(),
            cfg.dense_features,
            12,
            CandidateCount::Fixed(3),
            1.0,
            seed,
        )
    }

    fn config(policy: BatchPolicy, queries: usize) -> ServeConfig {
        ServeConfig {
            queries,
            arrivals: ArrivalProcess::Poisson { mean_qps: 50_000.0 },
            policy,
            sla_ns: 50_000_000,
            seed: 21,
            shed_unmeetable: false,
        }
    }

    #[test]
    fn serves_every_query_exactly_once() {
        let m = model();
        let mut engine = ServeEngine::with_defaults(&m);
        let report = serve(
            &mut engine,
            &m,
            &mut workload(5),
            &config(BatchPolicy::Fixed { batch: 4 }, 25),
        )
        .unwrap();
        assert_eq!(report.queries, 25);
        assert_eq!(report.samples, 75); // 3 candidates each
        assert_eq!(report.latency.count(), 25);
        // Fixed-4 over 25 queries: six 4-batches + a drain of 1.
        assert_eq!(report.batches, 7);
        assert!(report.qps() > 0.0);
        assert!(report.max_queue_depth >= 4);
    }

    #[test]
    fn closed_loop_serves_to_completion() {
        let m = model();
        let mut engine = ServeEngine::with_defaults(&m);
        let cfg = ServeConfig {
            queries: 30,
            arrivals: ArrivalProcess::ClosedLoop {
                clients: 8,
                think_ns: 1_000,
            },
            policy: BatchPolicy::Deadline {
                max_batch: 8,
                max_wait_ns: 100_000,
            },
            sla_ns: 50_000_000,
            seed: 9,
            shed_unmeetable: false,
        };
        let report = serve(&mut engine, &m, &mut workload(7), &cfg).unwrap();
        assert_eq!(report.queries, 30);
        // Closed loop with 8 clients can never queue more than 8.
        assert!(report.max_queue_depth <= 8);
    }

    #[test]
    fn closed_loop_with_fewer_clients_than_the_batch_drains() {
        // Regression: Fixed { batch: 8 } with only 2 closed-loop clients
        // used to deadlock (then panic): both clients queued, no new
        // arrival possible until a fire, yet the policy kept waiting for
        // a batch that could never fill. The queue must drain what the
        // in-flight clients can supply.
        let m = model();
        let mut engine = ServeEngine::with_defaults(&m);
        let cfg = ServeConfig {
            queries: 30,
            arrivals: ArrivalProcess::ClosedLoop {
                clients: 2,
                think_ns: 1_000,
            },
            policy: BatchPolicy::Fixed { batch: 8 },
            sla_ns: 50_000_000,
            seed: 3,
            shed_unmeetable: false,
        };
        let report = serve(&mut engine, &m, &mut workload(19), &cfg).unwrap();
        assert_eq!(report.queries, 30);
        // Two clients can never fill an 8-batch.
        assert!(report.mean_batch() <= 2.0 + 1e-9);
    }

    #[test]
    fn adaptive_policy_serves_and_adapts() {
        let m = model();
        let mut engine = ServeEngine::with_defaults(&m);
        let policy = BatchPolicy::Adaptive(AdaptiveBatcher::new(10_000_000, 16, 1_000_000));
        let report = serve(&mut engine, &m, &mut workload(3), &config(policy, 60)).unwrap();
        assert_eq!(report.queries, 60);
        assert!(report.mean_batch() >= 1.0);
    }

    #[test]
    fn hot_catalog_hits_the_cache() {
        let m = model();
        let mut engine = ServeEngine::with_defaults(&m);
        let report = serve(
            &mut engine,
            &m,
            &mut workload(11), // catalog of 12 distinct queries
            &config(BatchPolicy::Fixed { batch: 4 }, 100),
        )
        .unwrap();
        // 100 draws from a 12-entry catalog: most casts are repeats.
        assert!(
            report.cache_hit_rate > 0.5,
            "hit rate {}",
            report.cache_hit_rate
        );
    }

    #[test]
    fn online_mode_trains_while_serving() {
        let cfg = DlrmConfig::tiny();
        let mut trainer = Trainer::new(cfg.clone(), BackwardMode::Casted, 17).unwrap();
        let mut source = SyntheticSource::new(
            SyntheticCtr::new(cfg.table_workloads(), cfg.dense_features, 2),
            16,
        );
        let mut engine = ServeEngine::with_defaults(trainer.model());
        let (report, online) = serve_online(
            &mut engine,
            &mut trainer,
            &mut source,
            &mut workload(13),
            &config(BatchPolicy::Fixed { batch: 4 }, 40),
            OnlineConfig {
                update_every: 2,
                restore: None,
            },
        )
        .unwrap();
        assert_eq!(report.queries, 40);
        assert_eq!(online.updates, 5); // 10 batches / update_every 2
        assert_eq!(online.losses.len(), 5);
        assert_eq!(trainer.steps(), 5);
        assert_eq!(online.staleness_batches.len(), 10);
        assert!(online.max_staleness() <= 1, "update_every 2 -> 0/1 stale");
        assert!(online.train_ns > 0);
        assert!(online.gen_ns > 0, "inline generation must be measurable");
        // Freshness: one record per fused batch, interleaved serving is
        // never behind the head, versions climb with the updates.
        assert_eq!(online.freshness.batches(), 10);
        assert_eq!(online.freshness.max_staleness_versions(), 0);
        assert_eq!(online.freshness.versions.first(), Some(&1));
        assert_eq!(online.freshness.versions.last(), Some(&5));
        assert!(online.freshness.versions.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn prefetched_batch_source_preserves_the_update_trajectory() {
        // The whole point of wiring PrefetchSource into serve_online:
        // generation moves off the update slot, the trajectory does not
        // move at all.
        use tcast_datasets::PrefetchSource;
        let cfg = DlrmConfig::tiny();
        let run = |prefetch: bool| {
            let mut trainer = Trainer::new(cfg.clone(), BackwardMode::Casted, 17).unwrap();
            let inner = SyntheticSource::new(
                SyntheticCtr::new(cfg.table_workloads(), cfg.dense_features, 2),
                16,
            );
            let mut engine = ServeEngine::with_defaults(trainer.model());
            let serve_cfg = config(BatchPolicy::Fixed { batch: 4 }, 40);
            let online_cfg = OnlineConfig {
                update_every: 2,
                restore: None,
            };
            let mut inline;
            let mut prefetched;
            let source: &mut dyn BatchSource = if prefetch {
                prefetched = PrefetchSource::new(inner, 2);
                &mut prefetched
            } else {
                inline = inner;
                &mut inline
            };
            let (_, online) = serve_online(
                &mut engine,
                &mut trainer,
                source,
                &mut workload(13),
                &serve_cfg,
                online_cfg,
            )
            .unwrap();
            (online.losses, table_bits(&trainer))
        };
        let (inline_losses, inline_tables) = run(false);
        let (prefetched_losses, prefetched_tables) = run(true);
        assert_eq!(prefetched_losses, inline_losses);
        assert_eq!(prefetched_tables, inline_tables);
    }

    #[test]
    fn overload_sheds_unmeetable_queries() {
        let m = model();
        let mut engine = ServeEngine::with_defaults(&m);
        let cfg = ServeConfig {
            queries: 40,
            arrivals: ArrivalProcess::ClosedLoop {
                clients: 8,
                think_ns: 0,
            },
            policy: BatchPolicy::Fixed { batch: 4 },
            // A 1 ns SLA: any query that waits at all is provably
            // unmeetable, so every tick sheds what queued behind the
            // previous batch's service time.
            sla_ns: 1,
            seed: 11,
            shed_unmeetable: true,
        };
        let report = serve(&mut engine, &m, &mut workload(3), &cfg).unwrap();
        assert_eq!(report.queries, 40, "shed queries still complete the run");
        assert!(report.shed > 0, "an unmeetable SLA must shed");
        assert_eq!(
            report.latency.count() + report.shed,
            40,
            "every query is either scored or shed, never both"
        );
        assert!(report.shed_rate() > 0.0);
    }

    #[test]
    fn hot_restore_snaps_the_trainer_back_mid_traffic() {
        use tcast_dlrm::checkpoint::save_train_checkpoint;
        let cfg = DlrmConfig::tiny();
        // An offline run takes 3 steps and checkpoints.
        let mut offline = Trainer::new(cfg.clone(), BackwardMode::Casted, 17).unwrap();
        let mut src = SyntheticSource::new(
            SyntheticCtr::new(cfg.table_workloads(), cfg.dense_features, 2),
            16,
        );
        for _ in 0..3 {
            let b = src.next_batch().unwrap();
            offline.step(&b).unwrap();
            src.recycle(b);
        }
        let path =
            std::env::temp_dir().join(format!("tckp-hot-restore-{}.tckp", std::process::id()));
        let mut f = std::fs::File::create(&path).unwrap();
        save_train_checkpoint(&mut f, &offline, None, None).unwrap();
        drop(f);
        // Serve with a fresh same-shape trainer; snap to the checkpoint
        // after the second online update, mid-traffic.
        let mut trainer = Trainer::new(cfg.clone(), BackwardMode::Casted, 17).unwrap();
        let mut source = SyntheticSource::new(
            SyntheticCtr::new(cfg.table_workloads(), cfg.dense_features, 5),
            16,
        );
        let mut engine = ServeEngine::with_defaults(trainer.model());
        let (report, online) = serve_online(
            &mut engine,
            &mut trainer,
            &mut source,
            &mut workload(13),
            &config(BatchPolicy::Fixed { batch: 4 }, 40),
            OnlineConfig {
                update_every: 2,
                restore: Some(HotRestore {
                    path: path.clone(),
                    at_update: 2,
                }),
            },
        )
        .unwrap();
        assert_eq!(report.restores, 1);
        assert!(report.restore_ns > 0, "restore cost lands on the clock");
        assert_eq!(online.updates, 5);
        // 2 online updates, then the restore snaps the step counter to
        // the checkpoint's 3, then 3 more online updates.
        assert_eq!(trainer.steps(), 6);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn hot_restore_of_a_corrupt_checkpoint_is_a_typed_error() {
        let cfg = DlrmConfig::tiny();
        let path =
            std::env::temp_dir().join(format!("tckp-hot-corrupt-{}.tckp", std::process::id()));
        std::fs::write(&path, b"not a checkpoint").unwrap();
        let mut trainer = Trainer::new(cfg.clone(), BackwardMode::Casted, 17).unwrap();
        let mut source = SyntheticSource::new(
            SyntheticCtr::new(cfg.table_workloads(), cfg.dense_features, 5),
            16,
        );
        let mut engine = ServeEngine::with_defaults(trainer.model());
        let err = serve_online(
            &mut engine,
            &mut trainer,
            &mut source,
            &mut workload(13),
            &config(BatchPolicy::Fixed { batch: 4 }, 40),
            OnlineConfig {
                update_every: 2,
                restore: Some(HotRestore {
                    path: path.clone(),
                    at_update: 0,
                }),
            },
        )
        .unwrap_err();
        assert!(
            matches!(err, ServeError::Restore(_)),
            "expected a restore error, got {err}"
        );
        assert_eq!(
            trainer.steps(),
            0,
            "failed restore must not touch the trainer"
        );
        std::fs::remove_file(&path).unwrap();
    }

    fn table_bits(trainer: &Trainer) -> Vec<Vec<u32>> {
        (0..trainer.model().num_tables())
            .map(|i| {
                trainer
                    .model()
                    .table(i)
                    .as_slice()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect()
            })
            .collect()
    }
}
