//! True concurrent train-and-serve over epoch-versioned model snapshots.
//!
//! [`crate::serve_online`] is the *interleaved oracle*: one thread time-slices
//! between update steps and fused batches, so serving always scores the
//! newest model and staleness-in-versions is identically zero. A
//! production recommender instead trains and serves *simultaneously*
//! (the DeepRecSys regime), which this module runs for real:
//!
//! * the **trainer task** drives a [`TrainLoop`] (casting lookahead,
//!   prefetch and checkpoint cadence all intact) and publishes an
//!   immutable [`ModelSnapshot`] into a [`SnapshotStore`] every
//!   `snapshot_every` steps — a slab copy into a recycled buffer, no
//!   stop-the-world;
//! * N **serve engines** run on the same [`Pool`] with *no shared
//!   mutable model state*: each is one snapshot lane of the one serve
//!   loop (`batch` closed-loop clients at zero think time), resolving one consistent snapshot per fused batch and
//!   refreshing only when its held version falls more than
//!   `staleness_bound` versions behind the store head;
//! * the staleness ledger becomes a **freshness SLA**: every batch
//!   records the version it scored against, how far behind the head
//!   that was, and the snapshot's wall-clock age — p99 model age sits
//!   next to p99 latency in the report.
//!
//! Because `TrainLoop::run` drains its lookahead queue before
//! returning, publishing every K steps is trajectory-neutral — the
//! concurrent trainer walks the *same* weight sequence as the offline
//! trainer, and a batch served at version V scores **bit-identically**
//! to the offline model after V's step count (property-tested in
//! `tests/concurrent_serving.rs`). Concurrency changes *which* version
//! a batch sees, never *what* a version contains.
//!
//! Scenario support rides on the same publication point: a **hot swap**
//! publishes a checkpoint-restored model mid-traffic
//! ([`ConcurrentConfig::swap`]), and a **rollback** re-publishes a
//! retained version's exact bytes under a new version
//! ([`ConcurrentConfig::rollback`]) — engines never pause for either;
//! they pick the change up at their next refresh.
//!
//! [`ModelSnapshot`]: tcast_snapshot::ModelSnapshot

use std::fs::File;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use crate::engine::{ServeEngine, DEFAULT_CACHE_CAPACITY};
use crate::online::ServeConfig;
use crate::queue::BatchPolicy;
use crate::request::{ArrivalProcess, Query, QueryModel};
use crate::serve_loop::{scoring_only, Lane, SnapshotSlot, Source};
use crate::stats::{FreshnessLedger, ServeReport};
use tcast_datasets::BatchSource;
use tcast_dlrm::checkpoint::{read_train_checkpoint, CheckpointError};
use tcast_dlrm::{DriverError, Execution, TrainLoop};
use tcast_embedding::EmbeddingError;
use tcast_pool::Pool;
use tcast_snapshot::{SnapshotError, SnapshotStore};

/// Publish a checkpoint-restored model mid-traffic (the model-push
/// drill: serving continues on the old snapshot until engines refresh).
#[derive(Debug, Clone)]
pub struct HotSwap {
    /// The checkpoint file to restore (a `.tckp` written by
    /// `tcast_dlrm::checkpoint`).
    pub path: PathBuf,
    /// Run the swap after the first publish whose version is >= this.
    pub at_version: u64,
}

/// Roll the store back to a retained version mid-traffic (the bad-push
/// drill: the re-publication is a *new* monotonic version carrying the
/// old version's exact bytes).
#[derive(Debug, Clone)]
pub struct RollbackDrill {
    /// Run the rollback after the first publish whose version is >= this.
    pub at_version: u64,
    /// The retained version whose bytes to re-publish.
    pub to_version: u64,
}

/// Shape of a concurrent train-and-serve run.
#[derive(Debug, Clone)]
pub struct ConcurrentConfig {
    /// Queries each engine serves (engine count = number of workloads
    /// passed to [`serve_concurrent`]).
    pub queries_per_engine: usize,
    /// Fused-batch size each engine scores per snapshot resolution.
    pub batch: usize,
    /// Total trainer steps.
    pub train_steps: usize,
    /// Publish a snapshot after every this many trainer steps (K).
    pub snapshot_every: usize,
    /// An engine keeps its held snapshot until it falls more than this
    /// many versions behind the store head (0 = refresh whenever any
    /// newer version exists).
    pub staleness_bound: u64,
    /// Tail-latency target for per-query SLA accounting.
    pub sla_ns: u64,
    /// Kernel execution for engines (the trainer keeps whatever its
    /// `TrainLoop` was built with).
    pub execution: Execution,
    /// Record every served batch (queries, scores, snapshot identity)
    /// for offline replay — the bit-identity proptest's evidence. Off in
    /// steady state: recording allocates per batch.
    pub record_batches: bool,
    /// Optional mid-traffic hot swap.
    pub swap: Option<HotSwap>,
    /// Optional mid-traffic rollback.
    pub rollback: Option<RollbackDrill>,
}

impl ConcurrentConfig {
    /// A small, drill-free configuration serving `queries_per_engine`
    /// queries in fused batches of `batch` while the trainer takes
    /// `train_steps` steps, publishing every `snapshot_every`.
    pub fn new(
        queries_per_engine: usize,
        batch: usize,
        train_steps: usize,
        snapshot_every: usize,
    ) -> Self {
        Self {
            queries_per_engine,
            batch,
            train_steps,
            snapshot_every,
            staleness_bound: 0,
            sla_ns: 50_000_000,
            execution: Execution::Serial,
            record_batches: false,
            swap: None,
            rollback: None,
        }
    }
}

/// One served batch's replayable evidence (only collected when
/// [`ConcurrentConfig::record_batches`] is set): which snapshot scored
/// which queries to which bits.
#[derive(Debug, Clone)]
pub struct ServedBatchRecord {
    /// Which engine served it.
    pub engine: usize,
    /// Snapshot version the batch was scored against.
    pub version: u64,
    /// Trainer steps baked into that snapshot.
    pub steps: u64,
    /// The batch's queries, in fused order.
    pub queries: Vec<Arc<Query>>,
    /// The fused logits, flattened in fused order.
    pub scores: Vec<f32>,
}

/// What the trainer side of a concurrent run did.
#[derive(Debug, Clone, Default)]
pub struct TrainReport {
    /// Trainer steps completed.
    pub steps: u64,
    /// Per-step losses, in order.
    pub losses: Vec<f32>,
    /// Wall time inside `TrainLoop::run`.
    pub train_ns: u64,
    /// Snapshot publications (including swap/rollback re-publications).
    pub publishes: u64,
    /// Wall time inside `SnapshotStore::publish`/`rollback_to`.
    pub publish_ns: u64,
    /// Every version this run published, in order.
    pub versions_published: Vec<u64>,
    /// Hot swaps performed.
    pub swaps: u64,
    /// Rollbacks performed.
    pub rollbacks: u64,
}

impl TrainReport {
    /// Trainer steps per second of training wall time.
    pub fn steps_per_sec(&self) -> f64 {
        if self.train_ns == 0 {
            return 0.0;
        }
        self.steps as f64 / (self.train_ns as f64 / 1e9)
    }
}

/// Aggregate result of a concurrent run: the serving fleet, the
/// freshness SLA, and the trainer side.
#[derive(Debug, Clone, Default)]
pub struct ConcurrentReport {
    /// All engines merged ([`ServeReport::merge`]).
    pub fleet: ServeReport,
    /// Each engine's own report, in engine order.
    pub per_engine: Vec<ServeReport>,
    /// Fleet-wide freshness: per-batch snapshot version, staleness in
    /// versions, and wall-clock model age (p99 is the SLA headline).
    pub freshness: FreshnessLedger,
    /// The trainer side.
    pub train: TrainReport,
    /// Served-batch evidence (empty unless `record_batches`).
    pub recorded: Vec<ServedBatchRecord>,
    /// Wall-clock span of the whole run (trainer and engines together).
    pub wall_ns: u64,
}

/// What can go wrong in a concurrent run.
#[derive(Debug)]
pub enum ConcurrentError {
    /// The trainer task failed.
    Train(DriverError),
    /// An engine's scoring failed.
    Score(EmbeddingError),
    /// The hot-swap drill could not restore its checkpoint.
    Swap(CheckpointError),
    /// The rollback drill named a version the store no longer retains.
    Rollback(SnapshotError),
}

impl std::fmt::Display for ConcurrentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConcurrentError::Train(e) => write!(f, "concurrent trainer failed: {e}"),
            ConcurrentError::Score(e) => write!(f, "concurrent serving failed: {e}"),
            ConcurrentError::Swap(e) => write!(f, "hot swap failed: {e}"),
            ConcurrentError::Rollback(e) => write!(f, "rollback failed: {e}"),
        }
    }
}

impl std::error::Error for ConcurrentError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ConcurrentError::Train(e) => Some(e),
            ConcurrentError::Score(e) => Some(e),
            ConcurrentError::Swap(e) => Some(e),
            ConcurrentError::Rollback(e) => Some(e),
        }
    }
}

impl From<DriverError> for ConcurrentError {
    fn from(e: DriverError) -> Self {
        ConcurrentError::Train(e)
    }
}

impl From<EmbeddingError> for ConcurrentError {
    fn from(e: EmbeddingError) -> Self {
        ConcurrentError::Score(e)
    }
}

/// Runs the trainer and one serve engine per workload concurrently on
/// `pool`, trading model state only through `store` (see module docs).
///
/// The engine count is `workloads.len()`; each engine draws its own
/// query stream from its own workload, so per-engine traffic is seeded
/// and reproducible even though cross-engine interleaving is not. All
/// tasks run under one `Pool::scope`, whose help-first waiting makes a
/// single-worker pool valid (tasks serialize; every invariant still
/// holds — only the overlap disappears).
///
/// # Errors
///
/// The first failure wins: a trainer error, a scoring error, or a
/// failed swap/rollback drill. Other tasks still run to completion
/// (the scope joins everything) before the error returns.
///
/// # Panics
///
/// Panics if `workloads` is empty or the config's `batch` or
/// `snapshot_every` is zero. An engine with `queries_per_engine: 0`
/// serves nothing and reports empty.
pub fn serve_concurrent(
    driver: &mut TrainLoop,
    source: &mut (dyn BatchSource + Send),
    store: &SnapshotStore,
    workloads: &mut [QueryModel],
    pool: &Pool,
    config: &ConcurrentConfig,
) -> Result<ConcurrentReport, ConcurrentError> {
    assert!(!workloads.is_empty(), "need at least one engine workload");
    assert!(config.batch > 0, "batch must be positive");
    assert!(config.snapshot_every > 0, "snapshot_every must be positive");
    // Engine-paced serving: `batch` closed-loop clients at zero think time
    // under Fixed { batch } — each fire scores the engine's next `batch`
    // draws, and a query's latency is its batch's service time.
    let serving = ServeConfig {
        queries: config.queries_per_engine,
        arrivals: ArrivalProcess::ClosedLoop {
            clients: config.batch,
            think_ns: 0,
        },
        policy: BatchPolicy::Fixed {
            batch: config.batch,
        },
        sla_ns: config.sla_ns,
        seed: 0,
        shed_unmeetable: false,
    };
    let mut train = None;
    let mut engines: Vec<Option<EngineResult>> = workloads.iter().map(|_| None).collect();

    let t0 = Instant::now();
    pool.scope(|scope| {
        let train = &mut train;
        scope.spawn(move || *train = Some(run_trainer(driver, source, store, config)));
        for (i, (workload, slot)) in workloads.iter_mut().zip(&mut engines).enumerate() {
            let serving = &serving;
            scope.spawn(move || {
                let exec = config.execution.clone();
                let mut engine =
                    ServeEngine::new(store.latest().model(), DEFAULT_CACHE_CAPACITY, exec);
                let mut recorded = Vec::new();
                let record = config.record_batches.then_some((i, &mut recorded));
                let snapshots = SnapshotSlot::new(store, config.staleness_bound, record);
                let source = Source::Snapshots(snapshots);
                let mut lane = Lane::serving(&mut engine, workload, source, serving);
                let started = Instant::now();
                *slot = Some(match lane.run() {
                    Ok(_) => {
                        let span_ns = (started.elapsed().as_nanos() as u64).max(1);
                        let (report, freshness) = lane.into_report(span_ns);
                        Ok((report, freshness, recorded))
                    }
                    Err(e) => Err(ConcurrentError::Score(scoring_only(e))),
                });
            });
        }
    });
    let mut report = ConcurrentReport {
        train: train.expect("trainer task always reports")?,
        wall_ns: t0.elapsed().as_nanos() as u64,
        ..Default::default()
    };
    for engine in engines {
        let (serve, freshness, recorded) = engine.expect("engine task always reports")?;
        report.fleet.merge(&serve);
        report.freshness.merge(&freshness);
        report.per_engine.push(serve);
        report.recorded.extend(recorded);
    }
    Ok(report)
}

/// What one engine task hands back: its report, its freshness ledger and
/// its recorded batches.
type EngineResult = Result<(ServeReport, FreshnessLedger, Vec<ServedBatchRecord>), ConcurrentError>;

/// The trainer side: run K steps, publish, repeat — firing the swap and
/// rollback drills at their configured versions.
fn run_trainer(
    driver: &mut TrainLoop,
    source: &mut (dyn BatchSource + Send),
    store: &SnapshotStore,
    config: &ConcurrentConfig,
) -> Result<TrainReport, ConcurrentError> {
    let mut report = TrainReport::default();
    let mut swap = config.swap.clone();
    let mut rollback = config.rollback.clone();
    let mut remaining = config.train_steps;
    while remaining > 0 {
        let chunk = remaining.min(config.snapshot_every);
        let t0 = Instant::now();
        let summary = driver.run(source, chunk)?;
        report.train_ns += t0.elapsed().as_nanos() as u64;
        report.steps += summary.steps as u64;
        report.losses.extend(summary.losses);
        remaining -= chunk;

        let t0 = Instant::now();
        let version = store.publish(driver.trainer().model(), driver.trainer().steps());
        report.publish_ns += t0.elapsed().as_nanos() as u64;
        report.publishes += 1;
        report.versions_published.push(version);

        // Drills fire between runs, where the lookahead queue is drained
        // (`trainer_mut` requires it) and a publish just happened.
        if let Some(hs) = swap.take_if(|hs| version >= hs.at_version) {
            let t0 = Instant::now();
            let ckpt = read_train_checkpoint(
                &mut File::open(&hs.path).map_err(|e| ConcurrentError::Swap(e.into()))?,
            )
            .map_err(ConcurrentError::Swap)?;
            ckpt.restore_into(driver.trainer_mut())
                .map_err(ConcurrentError::Swap)?;
            let swapped = store.publish(driver.trainer().model(), driver.trainer().steps());
            report.publish_ns += t0.elapsed().as_nanos() as u64;
            report.publishes += 1;
            report.versions_published.push(swapped);
            report.swaps += 1;
        }
        if let Some(rb) = rollback.take_if(|rb| store.version() >= rb.at_version) {
            let t0 = Instant::now();
            let rolled = store
                .rollback_to(rb.to_version)
                .map_err(ConcurrentError::Rollback)?;
            report.publish_ns += t0.elapsed().as_nanos() as u64;
            report.publishes += 1;
            report.versions_published.push(rolled);
            report.rollbacks += 1;
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::CandidateCount;
    use tcast_datasets::{SyntheticCtr, SyntheticSource};
    use tcast_dlrm::{BackwardMode, DlrmConfig, Trainer};

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

    fn driver_and_source() -> (TrainLoop, SyntheticSource) {
        let cfg = DlrmConfig::tiny();
        let trainer = Trainer::new(cfg.clone(), BackwardMode::Casted, 17).unwrap();
        let source = SyntheticSource::new(
            SyntheticCtr::new(cfg.table_workloads(), cfg.dense_features, 2),
            16,
        );
        (TrainLoop::new(trainer, 2), source)
    }

    #[test]
    fn trains_and_serves_concurrently_with_freshness_accounting() {
        let (mut driver, mut source) = driver_and_source();
        let store = SnapshotStore::new(driver.trainer().model(), 0, 2);
        let mut workloads = [workload(5), workload(9)];
        let pool = Pool::new(2);
        let config = ConcurrentConfig::new(24, 4, 8, 2);
        let report = serve_concurrent(
            &mut driver,
            &mut source,
            &store,
            &mut workloads,
            &pool,
            &config,
        )
        .unwrap();
        assert_eq!(report.train.steps, 8);
        assert_eq!(report.train.publishes, 4);
        assert_eq!(report.train.versions_published, vec![2, 3, 4, 5]);
        assert_eq!(report.train.losses.len(), 8);
        assert_eq!(driver.trainer().steps(), 8);
        assert_eq!(report.per_engine.len(), 2);
        assert_eq!(report.fleet.queries, 48);
        assert_eq!(report.fleet.batches, 12);
        assert_eq!(report.freshness.batches(), 12);
        // Every served version must be one the store actually published.
        for &v in &report.freshness.versions {
            assert!((1..=5).contains(&v), "unpublished version {v} served");
        }
        assert!(report.freshness.p99_model_age_ns() > 0);
        assert!(report.wall_ns > 0);
        assert!(report.train.steps_per_sec() > 0.0);
    }

    #[test]
    fn recorded_batches_carry_snapshot_identity() {
        let (mut driver, mut source) = driver_and_source();
        let store = SnapshotStore::new(driver.trainer().model(), 0, 2);
        let mut workloads = [workload(5)];
        let pool = Pool::new(1);
        let mut config = ConcurrentConfig::new(12, 4, 4, 2);
        config.record_batches = true;
        let report = serve_concurrent(
            &mut driver,
            &mut source,
            &store,
            &mut workloads,
            &pool,
            &config,
        )
        .unwrap();
        assert_eq!(report.recorded.len(), 3);
        for rec in &report.recorded {
            assert_eq!(rec.engine, 0);
            assert_eq!(rec.queries.len(), 4);
            let samples: usize = rec.queries.iter().map(|q| q.candidates()).sum();
            assert_eq!(rec.scores.len(), samples);
            // steps must be consistent with the version's publish cadence
            // (version 1 = 0 steps, then K per version).
            assert_eq!(rec.steps, (rec.version - 1) * 2);
        }
    }

    #[test]
    fn an_engine_with_nothing_to_serve_reports_empty() {
        let (mut driver, mut source) = driver_and_source();
        let store = SnapshotStore::new(driver.trainer().model(), 0, 2);
        let mut workloads = [workload(5)];
        let pool = Pool::new(1);
        let config = ConcurrentConfig::new(0, 4, 4, 2);
        let report = serve_concurrent(
            &mut driver,
            &mut source,
            &store,
            &mut workloads,
            &pool,
            &config,
        )
        .unwrap();
        assert_eq!(report.train.steps, 4, "the trainer still trains");
        assert_eq!(report.per_engine.len(), 1);
        assert_eq!(report.fleet.queries, 0);
        assert_eq!(report.fleet.batches, 0);
        assert_eq!(report.freshness.batches(), 0);
    }

    #[test]
    fn rollback_drill_republishes_and_counts() {
        let (mut driver, mut source) = driver_and_source();
        let store = SnapshotStore::new(driver.trainer().model(), 0, 3);
        let mut workloads = [workload(5)];
        let pool = Pool::new(1);
        let mut config = ConcurrentConfig::new(8, 4, 6, 2);
        config.rollback = Some(RollbackDrill {
            at_version: 3,
            to_version: 2,
        });
        let report = serve_concurrent(
            &mut driver,
            &mut source,
            &store,
            &mut workloads,
            &pool,
            &config,
        )
        .unwrap();
        assert_eq!(report.train.rollbacks, 1);
        assert_eq!(report.train.publishes, 4); // 3 publishes + 1 rollback
        let head = store.latest();
        assert_eq!(head.version(), 5, "rollback + final publish");
    }
}
