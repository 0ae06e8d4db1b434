//! The serving subsystem's cross-crate invariants:
//!
//! 1. **Fusion is bit-transparent** — a fused batch of queries scores
//!    bit-identically to scoring each query alone, across batch sizes
//!    and both `Execution` modes (the serving analogue of the paper's
//!    functional-equivalence validation).
//! 2. **Checkpoint -> serve round-trips** — a model restored from a
//!    checkpoint serves bit-identical scores to the original.
//! 3. **Online training is offline training** — interleaving serving
//!    with casted update steps leaves the update trajectory bit-identical
//!    to the offline `Trainer` fed the same batch stream.
//! 4. **Decision-function bounds** — the adaptive batcher's target
//!    never escapes `[1, max_batch]` for arbitrary latency sequences
//!    (proptest), and `FreshnessLedger::merge` equals the single-ledger
//!    oracle over concatenated observations (proptest).
//! 5. **The engine is a trust boundary** — a query with a non-finite
//!    dense feature or no candidates is a typed error naming the query,
//!    never a plausible score.

use proptest::prelude::*;
use std::sync::Arc;
use tensor_casting::datasets::{SyntheticCtr, SyntheticSource};
use tensor_casting::dlrm::{
    checkpoint::{load_checkpoint, save_checkpoint},
    BackwardMode, Dlrm, DlrmConfig, Execution, Trainer,
};
use tensor_casting::embedding::{EmbeddingError, IndexArray};
use tensor_casting::serve::{
    serve_online, AdaptiveBatcher, ArrivalProcess, BatchPolicy, CandidateCount, FreshnessLedger,
    OnlineConfig, Query, QueryModel, ServeConfig, ServeEngine,
};
use tensor_casting::tensor::Matrix;

fn workload(seed: u64, catalog: usize, max_candidates: usize) -> QueryModel {
    let cfg = DlrmConfig::tiny();
    QueryModel::new(
        &cfg.table_workloads(),
        cfg.dense_features,
        catalog,
        CandidateCount::Uniform {
            min: 1,
            max: max_candidates,
        },
        1.0,
        seed,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Invariant 1, the acceptance-criteria property: for any fused batch
    /// size and either execution schedule, per-query demuxed scores are
    /// bit-identical to scoring that query alone on a cold engine.
    #[test]
    fn fused_batches_score_bit_identically_to_per_query(
        seed in 1u64..1000,
        num_queries in 1usize..12,
        pooled_exec in any::<bool>(),
    ) {
        let model = Dlrm::new(DlrmConfig::tiny(), 7).unwrap();
        let execution = if pooled_exec {
            Execution::Pooled(Arc::new(tensor_casting::tensor::Pool::new(3)))
        } else {
            Execution::Serial
        };
        let mut wl = workload(seed, 8, 5);
        let queries: Vec<Arc<Query>> = (0..num_queries).map(|_| wl.draw()).collect();

        let mut fused_engine = ServeEngine::new(&model, 64, execution.clone());
        let fused = fused_engine.score(&model, &queries).unwrap();
        prop_assert_eq!(fused.num_queries(), num_queries);
        let fused_scores: Vec<Vec<f32>> =
            (0..num_queries).map(|i| fused.scores(i).to_vec()).collect();

        for (i, q) in queries.iter().enumerate() {
            // A cold, separate engine: no shared cache state, batch of 1.
            let mut solo_engine = ServeEngine::new(&model, 64, execution.clone());
            let solo = solo_engine.score(&model, std::iter::once(q)).unwrap();
            prop_assert_eq!(
                solo.scores(0),
                fused_scores[i].as_slice(),
                "query {} diverged (fused batch of {})",
                i,
                num_queries
            );
        }
    }

    /// Serial and pooled execution serve bit-identical fused logits.
    #[test]
    fn execution_modes_serve_bit_identically(seed in 1u64..500, n in 1usize..10) {
        let model = Dlrm::new(DlrmConfig::tiny(), 9).unwrap();
        let mut wl = workload(seed, 6, 4);
        let queries: Vec<Arc<Query>> = (0..n).map(|_| wl.draw()).collect();
        let mut serial = ServeEngine::new(&model, 64, Execution::Serial);
        let pool = Arc::new(tensor_casting::tensor::Pool::new(4));
        let mut pooled = ServeEngine::new(&model, 64, Execution::Pooled(pool));
        let a = serial.score(&model, &queries).unwrap().fused_logits().as_slice().to_vec();
        let b = pooled.score(&model, &queries).unwrap();
        prop_assert_eq!(b.fused_logits().as_slice(), a.as_slice());
    }
}

/// Invariant 2: train, checkpoint, restore into a fresh model — the
/// serve engine's scores over the restored model are bit-identical to
/// the original's.
#[test]
fn checkpoint_restore_serves_bit_identical_scores() {
    let cfg = DlrmConfig::tiny();
    let mut trainer = Trainer::new(cfg.clone(), BackwardMode::Casted, 31).unwrap();
    let mut data = SyntheticCtr::new(cfg.table_workloads(), cfg.dense_features, 5);
    for _ in 0..5 {
        trainer.step(&data.next_batch(32)).unwrap();
    }

    let mut buf = Vec::new();
    save_checkpoint(&mut buf, trainer.model()).unwrap();
    // A fresh model from a different seed: every parameter differs until
    // the checkpoint overwrites it.
    let mut restored = Dlrm::new(cfg, 999_999).unwrap();
    load_checkpoint(&mut buf.as_slice(), &mut restored).unwrap();

    let mut wl = workload(77, 10, 6);
    let queries: Vec<Arc<Query>> = (0..20).map(|_| wl.draw()).collect();
    let mut engine_orig = ServeEngine::with_defaults(trainer.model());
    let mut engine_restored = ServeEngine::with_defaults(&restored);
    for chunk in queries.chunks(7) {
        let a = engine_orig
            .score(trainer.model(), chunk)
            .unwrap()
            .fused_logits()
            .as_slice()
            .to_vec();
        let b = engine_restored.score(&restored, chunk).unwrap();
        assert_eq!(
            b.fused_logits().as_slice(),
            a.as_slice(),
            "restored model must serve bit-identical scores"
        );
    }
}

/// Invariant 3: the online loop's update trajectory — losses and final
/// weights — is bit-identical to an offline trainer consuming the same
/// synthetic batch stream, for both execution schedules.
#[test]
fn online_updates_are_bit_identical_to_offline_training() {
    let cfg = DlrmConfig::tiny();
    let mk_source = || {
        SyntheticSource::new(
            SyntheticCtr::new(cfg.table_workloads(), cfg.dense_features, 13),
            24,
        )
    };
    for execution in [
        Execution::Serial,
        Execution::Pooled(Arc::new(tensor_casting::tensor::Pool::new(3))),
    ] {
        // Online: serve 60 queries, one update step every 2 fused batches.
        let mut online_trainer = Trainer::with_execution(
            cfg.clone(),
            BackwardMode::Casted,
            tensor_casting::dlrm::EmbeddingOptimizer::Sgd,
            execution.clone(),
            55,
        )
        .unwrap();
        let mut source = mk_source();
        let mut engine = ServeEngine::new(online_trainer.model(), 64, execution.clone());
        let (report, online) = serve_online(
            &mut engine,
            &mut online_trainer,
            &mut source,
            &mut workload(3, 8, 4),
            &ServeConfig {
                queries: 60,
                arrivals: ArrivalProcess::Poisson { mean_qps: 20_000.0 },
                policy: BatchPolicy::Fixed { batch: 5 },
                sla_ns: 100_000_000,
                seed: 4,
                shed_unmeetable: false,
            },
            OnlineConfig {
                update_every: 2,
                restore: None,
            },
        )
        .unwrap();
        assert_eq!(report.queries, 60);
        assert!(online.updates > 0);

        // Offline: the same number of steps over the same stream.
        let mut offline_trainer = Trainer::with_execution(
            cfg.clone(),
            BackwardMode::Casted,
            tensor_casting::dlrm::EmbeddingOptimizer::Sgd,
            execution.clone(),
            55,
        )
        .unwrap();
        let mut offline_source = mk_source();
        let mut offline_losses = Vec::new();
        for _ in 0..online.updates {
            let batch = tensor_casting::datasets::BatchSource::next_batch(&mut offline_source)
                .expect("endless");
            offline_losses.push(offline_trainer.step(&batch).unwrap().loss);
        }
        assert_eq!(
            online.losses, offline_losses,
            "online losses diverged from offline"
        );
        for i in 0..offline_trainer.model().num_tables() {
            assert_eq!(
                offline_trainer
                    .model()
                    .table(i)
                    .max_abs_diff(online_trainer.model().table(i))
                    .unwrap(),
                0.0,
                "table {i} diverged between online and offline training"
            );
        }
    }
}

/// The staleness ledger is internally consistent: every served batch has
/// a staleness entry, and with `update_every = k` staleness never
/// reaches k.
#[test]
fn staleness_accounting_is_consistent() {
    let cfg = DlrmConfig::tiny();
    let mut trainer = Trainer::new(cfg.clone(), BackwardMode::Casted, 2).unwrap();
    let mut source = SyntheticSource::new(
        SyntheticCtr::new(cfg.table_workloads(), cfg.dense_features, 8),
        16,
    );
    let mut engine = ServeEngine::with_defaults(trainer.model());
    let (report, online) = serve_online(
        &mut engine,
        &mut trainer,
        &mut source,
        &mut workload(6, 6, 3),
        &ServeConfig {
            queries: 45,
            arrivals: ArrivalProcess::ClosedLoop {
                clients: 6,
                think_ns: 500,
            },
            policy: BatchPolicy::Fixed { batch: 3 },
            sla_ns: 100_000_000,
            seed: 12,
            shed_unmeetable: false,
        },
        OnlineConfig {
            update_every: 3,
            restore: None,
        },
    )
    .unwrap();
    assert_eq!(online.staleness_batches.len() as u64, report.batches);
    assert!(online.max_staleness() < 3);
    assert_eq!(online.updates as usize, online.losses.len());
    assert_eq!(trainer.steps(), online.updates);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Invariant 4: the adaptive batcher's target is an enforced
    /// invariant — any latency sequence keeps `target()` in
    /// `[1, max_batch]`.
    #[test]
    fn adaptive_batcher_target_stays_in_bounds(
        sla_us in 1u64..10_000,
        max_batch in 1usize..64,
        latencies in collection::vec(0u64..100_000_000, 1..200),
    ) {
        let sla_ns = sla_us * 1_000;
        let mut b = AdaptiveBatcher::new(sla_ns, max_batch, sla_ns / 4 + 1);
        for lat in latencies {
            b.observe(lat);
            prop_assert!(
                (1..=max_batch).contains(&b.target()),
                "target {} escaped [1, {}]", b.target(), max_batch
            );
        }
    }

    /// Invariant 4: merged freshness ledgers report the same p99 model
    /// age (and staleness stats) as one ledger fed the concatenation —
    /// mirroring the `LatencyHistogram::merge` oracle.
    #[test]
    fn freshness_merge_equals_single_ledger_oracle(
        left in collection::vec((1u64..50, 0u64..8, 1u64..100_000_000), 0..60),
        right in collection::vec((1u64..50, 0u64..8, 1u64..100_000_000), 0..60),
    ) {
        let mut a = FreshnessLedger::default();
        let mut b = FreshnessLedger::default();
        let mut oracle = FreshnessLedger::default();
        for &(v, s, age) in &left {
            a.record(v, s, age);
            oracle.record(v, s, age);
        }
        for &(v, s, age) in &right {
            b.record(v, s, age);
            oracle.record(v, s, age);
        }
        a.merge(&b);
        prop_assert_eq!(a.batches(), oracle.batches());
        prop_assert_eq!(a.p99_model_age_ns(), oracle.p99_model_age_ns());
        prop_assert_eq!(a.max_staleness_versions(), oracle.max_staleness_versions());
        prop_assert!(
            (a.mean_staleness_versions() - oracle.mean_staleness_versions()).abs() < 1e-9
        );
        prop_assert_eq!(a.versions.len(), oracle.versions.len());
    }
}

/// Expects scoring `batch` to fail with a typed error naming query `id`.
fn assert_rejects(batch: &[Arc<Query>], id: u64, what: &str) {
    let model = Dlrm::new(DlrmConfig::tiny(), 1).unwrap();
    let mut engine = ServeEngine::with_defaults(&model);
    match engine.score(&model, batch) {
        Err(EmbeddingError::InvalidIndex(msg)) => {
            assert!(msg.contains(&format!("query {id} ")), "{msg}");
            assert!(msg.contains(what), "{msg}");
        }
        Err(e) => panic!("expected a rejection naming query {id}, got {e}"),
        Ok(scored) => panic!(
            "query {id} must be rejected, scored {:?}",
            scored.fused_logits().as_slice()
        ),
    }
    assert_eq!(engine.batches_scored(), 0, "nothing is scored");
}

/// Invariant 5: a non-finite dense feature is rejected, not scored.
/// Before the check a NaN survived the bottom MLP's ReLU and the batch
/// scored finite logits.
#[test]
fn a_non_finite_dense_feature_is_a_typed_error() {
    let mut wl = workload(1, 8, 3);
    let good = wl.draw();
    for bad_value in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
        let mut dense = good.dense.clone();
        dense.as_mut_slice()[0] = bad_value;
        let bad = Arc::new(Query {
            id: 4242,
            dense,
            indices: Arc::clone(&good.indices),
        });
        assert_rejects(&[Arc::clone(&bad)], 4242, "non-finite dense feature");
        assert_rejects(&[Arc::clone(&good), bad], 4242, "non-finite dense feature");
    }
}

/// Invariant 5: a query with zero candidates is rejected, alone or mixed
/// into a batch. Before the check it was accepted: a mixed batch scored
/// only the other queries, and alone it was a 0-sample "batch".
#[test]
fn a_zero_candidate_query_is_a_typed_error() {
    let cfg = DlrmConfig::tiny();
    let mut wl = workload(2, 8, 3);
    let good = wl.draw();
    let empty = Arc::new(Query {
        id: 77,
        dense: Matrix::zeros(0, cfg.dense_features),
        indices: (0..cfg.tables.len())
            .map(|_| IndexArray::from_pairs(Vec::new(), Vec::new(), 0).unwrap())
            .collect::<Vec<_>>()
            .into(),
    });
    assert_rejects(&[Arc::clone(&empty)], 77, "no candidates");
    assert_rejects(&[good, empty], 77, "no candidates");
}
