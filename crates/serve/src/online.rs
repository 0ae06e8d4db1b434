//! The single-model entry points of the one serve loop: [`serve`] runs
//! one frozen lane and [`serve_online`] one trainer lane — arrivals on a
//! simulated nanosecond clock, service and update-step durations measured
//! from really running the engine and the trainer (the loop module
//! documents the clock).
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

use std::path::PathBuf;

use crate::engine::ServeEngine;
use crate::queue::BatchPolicy;
use crate::request::{ArrivalProcess, QueryModel};
use crate::serve_loop::{scoring_only, Lane, Source, TrainerSlot};
use crate::stats::{FreshnessLedger, ServeReport};
use tcast_datasets::BatchSource;
use tcast_dlrm::checkpoint::CheckpointError;
use tcast_dlrm::Trainer;
use tcast_embedding::EmbeddingError;

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
/// scoring, accounting — the inference-only loop: one frozen lane.
/// `span_ns` runs from the first fire to the end of the
/// run; `queries: 0` returns the empty report.
///
/// # Errors
///
/// Returns an error if a query disagrees with the model's shape.
///
/// # Panics
///
/// Panics if the lane's clock would pass `u64::MAX` ns: a
/// [`ArrivalProcess::ClosedLoop`] `think_ns`, or a
/// [`ArrivalProcess::Poisson`] gap, too large to add to it.
pub fn serve(
    engine: &mut ServeEngine,
    model: &tcast_dlrm::Dlrm,
    workload: &mut QueryModel,
    config: &ServeConfig,
) -> Result<ServeReport, EmbeddingError> {
    let mut lane = Lane::serving(engine, workload, Source::Frozen(model), config);
    let end = lane.run().map_err(scoring_only)?;
    let span_ns = span_from_first_fire(&lane, end);
    Ok(lane.into_report(span_ns).0)
}

/// [`serve`] with online training: after every
/// `online.update_every` fused batches, one casted [`Trainer::step`] on
/// the next batch from `source`. The served model is always
/// `trainer.model()` — scoring between updates sees a frozen snapshot.
/// With `queries: 0` nothing is served and no update step is taken.
///
/// # Errors
///
/// Returns an error if a query disagrees with the model's shape, a
/// training batch is inconsistent, or the batch source ends.
///
/// # Panics
///
/// As [`serve`], if the lane's clock would pass `u64::MAX` ns.
pub fn serve_online(
    engine: &mut ServeEngine,
    trainer: &mut Trainer,
    source: &mut dyn BatchSource,
    workload: &mut QueryModel,
    config: &ServeConfig,
    online: OnlineConfig,
) -> Result<(ServeReport, OnlineReport), ServeError> {
    let mut report = OnlineReport::default();
    let slot = TrainerSlot::new(trainer, source, online, &mut report);
    let mut lane = Lane::serving(engine, workload, Source::Trainer(slot), config);
    let end = lane.run()?;
    let span_ns = span_from_first_fire(&lane, end);
    let (serve, freshness) = lane.into_report(span_ns);
    report.freshness = freshness;
    Ok((serve, report))
}

fn span_from_first_fire(lane: &Lane<'_>, end_ns: u64) -> u64 {
    (end_ns - lane.started_ns.unwrap_or(end_ns)).max(1)
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
    fn an_empty_run_is_the_empty_report_not_a_panic() {
        let m = model();
        let mut engine = ServeEngine::with_defaults(&m);
        let empty = config(BatchPolicy::Fixed { batch: 4 }, 0);
        let report = serve(&mut engine, &m, &mut workload(5), &empty).unwrap();
        assert_eq!((report.queries, report.batches, report.samples), (0, 0, 0));
        assert_eq!(report.latency.count(), 0);
        assert_eq!(engine.batches_scored(), 0);

        let cfg = DlrmConfig::tiny();
        let mut trainer = Trainer::new(cfg.clone(), BackwardMode::Casted, 17).unwrap();
        let mut source = SyntheticSource::new(
            SyntheticCtr::new(cfg.table_workloads(), cfg.dense_features, 2),
            16,
        );
        let closed = ServeConfig {
            arrivals: ArrivalProcess::ClosedLoop {
                clients: 4,
                think_ns: 0,
            },
            ..empty
        };
        let (report, online) = serve_online(
            &mut engine,
            &mut trainer,
            &mut source,
            &mut workload(5),
            &closed,
            OnlineConfig {
                update_every: 1,
                restore: None,
            },
        )
        .unwrap();
        assert_eq!((report.queries, report.batches), (0, 0));
        assert_eq!(online.updates, 0, "nothing served, no update step");
        assert_eq!(trainer.steps(), 0);
        assert!(online.staleness_batches.is_empty());
        assert_eq!(online.freshness.batches(), 0);
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

    /// A think time that carries the clock past `u64::MAX` panics at the
    /// first completion: a wrapped clock would make the client's next
    /// query due at once.
    #[test]
    #[should_panic(expected = "serve clock overflowed u64")]
    fn a_closed_loop_think_time_past_the_clock_panics() {
        let m = model();
        let mut engine = ServeEngine::with_defaults(&m);
        let cfg = ServeConfig {
            arrivals: ArrivalProcess::ClosedLoop {
                clients: 1,
                think_ns: u64::MAX,
            },
            ..config(BatchPolicy::Fixed { batch: 1 }, 2)
        };
        let _ = serve(&mut engine, &m, &mut workload(7), &cfg);
    }

    /// A rate so low that its gaps saturate to `u64::MAX` ns puts the
    /// first arrival at the end of the clock; the second cannot be issued
    /// past it.
    #[test]
    #[should_panic(expected = "serve clock overflowed u64")]
    fn a_poisson_gap_past_the_clock_panics() {
        let m = model();
        let mut engine = ServeEngine::with_defaults(&m);
        let cfg = ServeConfig {
            arrivals: ArrivalProcess::Poisson { mean_qps: 1e-30 },
            ..config(BatchPolicy::Fixed { batch: 1 }, 2)
        };
        let _ = serve(&mut engine, &m, &mut workload(7), &cfg);
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
