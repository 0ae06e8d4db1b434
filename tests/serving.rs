//! The serving subsystem's cross-crate invariants:
//!
//! 1. **Fusion is bit-transparent** — a fused batch of queries scores
//!    bit-identically to scoring each query alone, across batch sizes,
//!    both `Execution` modes and both sides of the engine's split floor
//!    (a batch scored on the calling thread alone, or cut into bands of
//!    sample rows over the engine's lane, between queries or inside one),
//!    and to `Dlrm::predict` on each query (the serving analogue of the
//!    paper's functional-equivalence validation). A query repeated in a
//!    batch (the same `Arc`) is scored once and every occurrence reads
//!    `predict`'s bits; two `Arc`s under one id are two queries.
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
//!    never a plausible score; a row past its table is a typed error on
//!    the first call and on a repeated one, and in a split batch, where
//!    the error names the lowest (query, table) whichever band met it and
//!    nothing is scored, however often a bad query repeats. A lane task's
//!    panic leaves the engine scoring its next batch as `Dlrm::predict`
//!    does.
//! 6. **An empty bag pools to a zero row** — in training (baseline ==
//!    casted) and in serving (engine == `Dlrm::predict`).

use proptest::prelude::*;
use std::sync::Arc;
use tensor_casting::datasets::{SyntheticCtr, SyntheticSource};
use tensor_casting::dlrm::{
    checkpoint::{read_train_checkpoint, save_train_checkpoint},
    BackwardMode, Dlrm, DlrmConfig, Execution, TableConfig, Trainer,
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
            // A separate engine, batch of 1.
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

    /// Invariant 1 against the model: catalogs of multi-lookup bags over
    /// four to six tables, cut into fused batches at random points and
    /// scored by one engine, score every query bit for bit as it scores
    /// alone and as `Dlrm::predict` scores it. Both engines run on a lane
    /// of their own (`Serial`) and on a lent three-worker pool, which cuts
    /// four bands of sample rows: poolings up to 79 put batches on both
    /// sides of the engine's split floor (1,024 lookups), so some are
    /// scored on the calling thread alone and some in bands on the lane.
    /// Ragged embedding widths run the SIMD tail. The stream opens with
    /// one query twice and the first group holds both, so some group
    /// repeats an `Arc` in every case; the skewed draws repeat others.
    #[test]
    fn fused_in_any_grouping_is_alone_is_predict(
        seed in 1u64..1000,
        dim in 1usize..40,
        poolings in collection::vec(1usize..80, 4..7),
        max_group in 1usize..9,
    ) {
        let cfg = config_with_poolings(dim, &poolings);
        let model = Dlrm::new(cfg.clone(), seed).unwrap();
        let mut wl = QueryModel::new(
            &cfg.table_workloads(),
            cfg.dense_features,
            12,
            CandidateCount::Uniform { min: 1, max: 6 },
            1.0,
            seed,
        );
        let mut queries: Vec<Arc<Query>> = (0..24).map(|_| wl.draw()).collect();
        queries[1] = Arc::clone(&queries[0]);
        let lent = Arc::new(tensor_casting::tensor::Pool::new(3));
        for execution in [Execution::Serial, Execution::Pooled(lent)] {
            let mut rng = tensor_casting::tensor::SplitMix64::new(seed);
            let mut fused_engine = ServeEngine::new(&model, 0, execution.clone());
            let mut alone_engine = ServeEngine::new(&model, 0, execution.clone());
            let mut rest = queries.as_slice();
            let mut repeating_groups = 0;
            while !rest.is_empty() {
                let mut n = 1 + rng.next_below(max_group as u64) as usize;
                if rest.len() == queries.len() {
                    n = n.max(2);
                }
                let (group, tail) = rest.split_at(n.min(rest.len()));
                rest = tail;
                let repeats = group
                    .iter()
                    .enumerate()
                    .any(|(i, q)| group[..i].iter().any(|p| Arc::ptr_eq(p, q)));
                repeating_groups += usize::from(repeats);
                let fused = fused_engine.score(&model, group).unwrap();
                for (i, q) in group.iter().enumerate() {
                    let want = bits(model.predict(&q.dense, &q.indices).unwrap().as_slice());
                    prop_assert_eq!(
                        bits(fused.scores(i)),
                        want.clone(),
                        "query {} fused, {:?}",
                        q.id,
                        execution
                    );
                    let alone = alone_engine.score(&model, std::iter::once(q)).unwrap();
                    prop_assert_eq!(
                        bits(alone.scores(0)),
                        want,
                        "query {} alone, {:?}",
                        q.id,
                        execution
                    );
                }
            }
            prop_assert!(repeating_groups > 0, "no group repeated a query");
        }
    }
}

/// The query with every index array's lookups in reverse order: its
/// `dst` runs from the last sample down, which is not sample order, so no
/// band cut may fall inside it.
fn reversed(q: &Query, id: u64) -> Arc<Query> {
    let indices: Vec<IndexArray> = q
        .indices
        .iter()
        .map(|index| {
            let (src, dst) = index
                .src()
                .iter()
                .rev()
                .zip(index.dst().iter().rev())
                .unzip();
            IndexArray::from_pairs(src, dst, index.num_outputs()).unwrap()
        })
        .collect();
    Arc::new(Query {
        id,
        dense: q.dense.clone(),
        indices: indices.into(),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Invariant 1 where a band cut falls inside a query: every query
    /// here has 8-16 candidates over four tables of pooling 40-79, so
    /// scored alone it reaches the split floor and is cut into two bands
    /// (`Serial`) or four (a lent three-worker pool) mid-query. A batch of
    /// three whose middle query lists its lookups out of sample order
    /// moves the cut that falls inside it to its end. Each query scores
    /// bit for bit as `Dlrm::predict` scores it, fused and alone.
    #[test]
    fn a_cut_inside_a_query_is_alone_is_predict(
        seed in 1u64..1000,
        dim in 1usize..40,
        poolings in collection::vec(40usize..80, 4..5),
    ) {
        let cfg = config_with_poolings(dim, &poolings);
        let model = Dlrm::new(cfg.clone(), seed).unwrap();
        let mut wl = QueryModel::new(
            &cfg.table_workloads(),
            cfg.dense_features,
            6,
            CandidateCount::Uniform { min: 8, max: 16 },
            1.0,
            seed,
        );
        let queries: Vec<Arc<Query>> = (0..6).map(|_| wl.draw()).collect();
        let unordered = reversed(&queries[1], 1_000 + queries[1].id);
        let batches = [
            vec![Arc::clone(&queries[0])],
            vec![Arc::clone(&queries[1])],
            vec![Arc::clone(&unordered)],
            vec![Arc::clone(&queries[2]), unordered, Arc::clone(&queries[3])],
            queries[4..].to_vec(),
        ];
        let lent = Arc::new(tensor_casting::tensor::Pool::new(3));
        for execution in [Execution::Serial, Execution::Pooled(lent)] {
            let mut fused_engine = ServeEngine::new(&model, 0, execution.clone());
            let mut alone_engine = ServeEngine::new(&model, 0, execution.clone());
            for batch in &batches {
                let fused = fused_engine.score(&model, batch).unwrap();
                for (i, q) in batch.iter().enumerate() {
                    let want = bits(model.predict(&q.dense, &q.indices).unwrap().as_slice());
                    prop_assert_eq!(
                        bits(fused.scores(i)),
                        want.clone(),
                        "query {} fused, {:?}",
                        q.id,
                        execution
                    );
                    let alone = alone_engine.score(&model, std::iter::once(q)).unwrap();
                    prop_assert_eq!(
                        bits(alone.scores(0)),
                        want,
                        "query {} alone, {:?}",
                        q.id,
                        execution
                    );
                }
            }
        }
    }
}

/// `tiny`'s dense stack over one table a pooling (40-139 rows, Zipf and
/// uniform in turn), at embedding width `dim`.
fn config_with_poolings(dim: usize, poolings: &[usize]) -> DlrmConfig {
    let mut cfg = DlrmConfig::tiny();
    cfg.embedding_dim = dim;
    cfg.bottom_mlp = vec![32, dim];
    cfg.tables = poolings
        .iter()
        .enumerate()
        .map(|(t, &pooling)| TableConfig {
            rows: 40 + 33 * t % 100,
            pooling,
            zipf_exponent: if t % 2 == 0 { 1.0 } else { 0.0 },
        })
        .collect();
    cfg
}

/// Eight queries of six candidates over four tables of pooling 40: 7,680
/// lookups, a batch far above the engine's split floor.
fn split_batch(seed: u64) -> (Dlrm, Vec<Arc<Query>>) {
    let cfg = config_with_poolings(16, &[40; 4]);
    let model = Dlrm::new(cfg.clone(), seed).unwrap();
    let mut wl = QueryModel::new(
        &cfg.table_workloads(),
        cfg.dense_features,
        8,
        CandidateCount::Fixed(6),
        0.0,
        seed,
    );
    let queries = (0..8).map(|_| wl.draw()).collect();
    (model, queries)
}

/// Invariant 1 for repeats: the batch `[a, b, a, a, c, b]`, under the
/// split floor (`tiny`, pooling 3 and 2) and over it (three distinct
/// queries of 960 lookups: 2,880), on a lane of the engine's own and on a lent
/// three-worker pool, scores every position as `Dlrm::predict` scores its
/// query, and lays the fused logits out in admission order.
#[test]
fn a_repeated_query_scores_predict_at_every_position() {
    let catalog = workload(21, 8, 5);
    let under: Vec<_> = (0..3).map(|i| Arc::clone(catalog.query(i))).collect();
    let (split_model, split_queries) = split_batch(21);
    for (model, queries, over_the_floor) in [
        (Dlrm::new(DlrmConfig::tiny(), 21).unwrap(), under, false),
        (split_model, split_queries, true),
    ] {
        let mut distinct: Vec<&Arc<Query>> = Vec::new();
        for q in &queries {
            if !distinct.iter().any(|d| Arc::ptr_eq(d, q)) {
                distinct.push(q);
            }
        }
        let [a, b, c] = [0, 1, 2].map(|i| distinct[i]);
        let batch = [a, b, a, a, c, b].map(Arc::clone);
        let lookups: usize = [a, b, c]
            .iter()
            .flat_map(|q| q.indices.iter().map(|idx| idx.len()))
            .sum();
        assert_eq!(lookups >= 1_024, over_the_floor, "{lookups} lookups");
        let lent = Arc::new(tensor_casting::tensor::Pool::new(3));
        for execution in [Execution::Serial, Execution::Pooled(lent)] {
            let mut engine = ServeEngine::new(&model, 0, execution.clone());
            let scored = engine.score(&model, &batch).unwrap();
            let mut fused = Vec::new();
            for (i, q) in batch.iter().enumerate() {
                let want = bits(model.predict(&q.dense, &q.indices).unwrap().as_slice());
                assert_eq!(
                    bits(scored.scores(i)),
                    want,
                    "position {i}, {lookups} lookups, {execution:?}"
                );
                fused.extend(want);
            }
            assert_eq!(bits(scored.fused_logits().as_slice()), fused);
            assert_eq!(scored.num_samples(), fused.len());
            assert_eq!(engine.queries_scored(), batch.len() as u64);
        }
    }
}

/// Two `Arc`s with one id but different bags are two queries: a batch of
/// both scores each as `Dlrm::predict` scores it, so the engine's
/// identity is the pointer, never `Query::id`.
#[test]
fn two_queries_under_one_id_are_both_scored() {
    let model = Dlrm::new(DlrmConfig::tiny(), 3).unwrap();
    let mut wl = workload(23, 8, 4);
    let a = wl.draw();
    let other = wl.draw();
    let mut samples: Vec<Vec<u32>> = vec![Vec::new(); a.candidates()];
    for (src, dst) in other.indices[0].iter() {
        samples[dst as usize % a.candidates()].push(src);
    }
    for (s, sample) in samples.iter_mut().enumerate() {
        sample.push(s as u32);
    }
    let mut indices = a.indices.to_vec();
    indices[0] = IndexArray::from_samples(&samples).unwrap();
    let twin = Arc::new(Query {
        id: a.id,
        dense: a.dense.clone(),
        indices: indices.into(),
    });
    let want_a = bits(model.predict(&a.dense, &a.indices).unwrap().as_slice());
    let want_twin = bits(
        model
            .predict(&twin.dense, &twin.indices)
            .unwrap()
            .as_slice(),
    );
    assert_ne!(want_a, want_twin, "the twin's bags must score differently");
    let mut engine = ServeEngine::with_defaults(&model);
    let batch = [&a, &twin, &a, &twin].map(Arc::clone);
    let scored = engine.score(&model, &batch).unwrap();
    for (i, want) in [&want_a, &want_twin, &want_a, &want_twin]
        .iter()
        .enumerate()
    {
        assert_eq!(&bits(scored.scores(i)), *want, "position {i}");
    }
}

/// Invariant 2: train, checkpoint, restore into a fresh trainer — the
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
    save_train_checkpoint(&mut buf, &trainer, None, None).unwrap();
    // A fresh trainer from a different seed: every parameter differs
    // until the checkpoint overwrites it.
    let mut fresh = Trainer::new(cfg, BackwardMode::Casted, 999_999).unwrap();
    read_train_checkpoint(&mut buf.as_slice())
        .unwrap()
        .restore_into(&mut fresh)
        .unwrap();
    let restored = fresh.model();

    let mut wl = workload(77, 10, 6);
    let queries: Vec<Arc<Query>> = (0..20).map(|_| wl.draw()).collect();
    let mut engine_orig = ServeEngine::with_defaults(trainer.model());
    let mut engine_restored = ServeEngine::with_defaults(restored);
    for chunk in queries.chunks(7) {
        let a = engine_orig
            .score(trainer.model(), chunk)
            .unwrap()
            .fused_logits()
            .as_slice()
            .to_vec();
        let b = engine_restored.score(restored, chunk).unwrap();
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
        assert_rejects(
            &[Arc::clone(&good), Arc::clone(&bad), Arc::clone(&bad)],
            4242,
            "non-finite dense feature",
        );
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
    assert_rejects(
        &[Arc::clone(&good), Arc::clone(&empty), Arc::clone(&empty)],
        77,
        "no candidates",
    );
    assert_rejects(&[good, empty], 77, "no candidates");
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Invariant 5: a row past its table is refused on the first call and
/// again on a repeated one (the engine keeps nothing from the first), and
/// the engine then scores a good batch as a fresh one does.
#[test]
fn a_row_past_its_table_is_refused_on_the_miss_and_on_the_hit() {
    let model = Dlrm::new(DlrmConfig::tiny(), 1).unwrap();
    let mut wl = workload(3, 8, 3);
    let good: Vec<_> = (0..4).map(|_| wl.draw()).collect();
    let rows = model.table(1).rows();
    let mut indices = good[0].indices.to_vec();
    let past_the_table = vec![vec![rows as u32]; good[0].candidates()];
    indices[1] = IndexArray::from_samples(&past_the_table).unwrap();
    let bad = Arc::new(Query {
        id: 4243,
        dense: good[0].dense.clone(),
        indices: indices.into(),
    });
    let mut engine = ServeEngine::with_defaults(&model);
    for call in ["first", "repeated"] {
        match engine.score(&model, std::iter::once(&bad)) {
            Err(EmbeddingError::SrcOutOfBounds { src, rows: r }) => {
                assert_eq!((src as usize, r), (rows, rows), "{call}");
            }
            Err(e) => panic!("{call}: expected SrcOutOfBounds, got {e}"),
            Ok(_) => panic!("{call}: a row past its table was scored"),
        }
    }
    let mut fresh = ServeEngine::with_defaults(&model);
    let want = bits(
        fresh
            .score(&model, &good)
            .unwrap()
            .fused_logits()
            .as_slice(),
    );
    let got = engine.score(&model, &good).unwrap();
    assert_eq!(bits(got.fused_logits().as_slice()), want);
}

/// Invariant 5 on a split batch: a row past its table, in the last table
/// of the last query (the last band's), is refused and nothing is scored,
/// on a lane of the engine's own and on a lent pool; the engine then
/// scores a good batch as a fresh one does.
#[test]
fn a_row_past_its_table_in_a_split_batch_is_refused() {
    let (model, good) = split_batch(5);
    let t = model.num_tables() - 1;
    let rows = model.table(t).rows();
    let last = &good[good.len() - 1];
    let mut indices = last.indices.to_vec();
    let mut samples = vec![vec![0u32; 40]; last.candidates()];
    samples[last.candidates() - 1][39] = rows as u32;
    indices[t] = IndexArray::from_samples(&samples).unwrap();
    let mut bad = good.clone();
    bad[good.len() - 1] = Arc::new(Query {
        id: 4244,
        dense: last.dense.clone(),
        indices: indices.into(),
    });
    let want = bits(
        ServeEngine::with_defaults(&model)
            .score(&model, &good)
            .unwrap()
            .fused_logits()
            .as_slice(),
    );
    let lent = Arc::new(tensor_casting::tensor::Pool::new(3));
    for execution in [Execution::Serial, Execution::Pooled(lent)] {
        let mut engine = ServeEngine::new(&model, 0, execution.clone());
        match engine.score(&model, &bad) {
            Err(EmbeddingError::SrcOutOfBounds { src, rows: r }) => {
                assert_eq!((src as usize, r), (rows, rows), "{execution:?}");
            }
            Err(e) => panic!("{execution:?}: expected SrcOutOfBounds, got {e}"),
            Ok(_) => panic!("{execution:?}: a row past its table was scored"),
        }
        assert_eq!(
            engine.batches_scored(),
            0,
            "{execution:?}: nothing is scored"
        );
        let got = engine.score(&model, &good).unwrap();
        assert_eq!(bits(got.fused_logits().as_slice()), want, "{execution:?}");
    }
}

/// Invariant 5 across bands: rows past their tables in different bands
/// of a split batch — table 0 of query 5, and in another band table 3 of
/// query 2 (which holds two) and table 0 of query 3 — make `score` name
/// the first bad row of the lowest (query, table), query 2's table 3,
/// although its band pools table 0 of query 3 first and the other band
/// may finish first; the same holds when the bad queries repeat. Nothing
/// is scored, and the engine's next good batch is a fresh engine's, bit
/// for bit.
#[test]
fn rows_past_their_tables_in_two_bands_name_the_lowest_query_and_table() {
    let (model, good) = split_batch(7);
    let bad_row = |q: usize, t: usize, lookups: &[(usize, usize, u32)]| {
        let query = &good[q];
        let mut samples = vec![vec![0u32; 40]; query.candidates()];
        for &(sample, lookup, excess) in lookups {
            samples[sample][lookup] = model.table(t).rows() as u32 + excess;
        }
        let mut indices = query.indices.to_vec();
        indices[t] = IndexArray::from_samples(&samples).unwrap();
        Arc::new(Query {
            id: query.id,
            dense: query.dense.clone(),
            indices: indices.into(),
        })
    };
    let mut bad = good.clone();
    bad[5] = bad_row(5, 0, &[(0, 0, 0)]);
    bad[2] = bad_row(2, 3, &[(1, 5, 3), (4, 0, 9)]);
    bad[3] = bad_row(3, 0, &[(2, 2, 1)]);
    // The same bad queries, each but query 5 repeated, query 2 first
    // among them: a repeat is scored once, and the error is still query
    // 2's table 3.
    let repeated = [0, 2, 3, 2, 3, 5, 1, 2].map(|q| Arc::clone(&bad[q]));
    let rows = model.table(3).rows();
    let want = bits(
        ServeEngine::with_defaults(&model)
            .score(&model, &good)
            .unwrap()
            .fused_logits()
            .as_slice(),
    );
    // 48 rows: two bands of four queries on the engine's own lane, four
    // of two on the lent pool; queries 2 and 3 share a band, query 5
    // falls in another.
    let lent = Arc::new(tensor_casting::tensor::Pool::new(3));
    for execution in [Execution::Serial, Execution::Pooled(lent)] {
        let mut engine = ServeEngine::new(&model, 0, execution.clone());
        for batch in [&bad[..], &repeated[..]] {
            match engine.score(&model, batch) {
                Err(EmbeddingError::SrcOutOfBounds { src, rows: r }) => {
                    assert_eq!((src as usize, r), (rows + 3, rows), "{execution:?}");
                }
                Err(e) => panic!("{execution:?}: expected SrcOutOfBounds, got {e}"),
                Ok(_) => panic!("{execution:?}: a row past its table was scored"),
            }
        }
        assert_eq!(
            engine.batches_scored(),
            0,
            "{execution:?}: nothing is scored"
        );
        let got = engine.score(&model, &good).unwrap();
        assert_eq!(bits(got.fused_logits().as_slice()), want, "{execution:?}");
    }
}

/// A lane task that panics (an injected fault in the first band spawned
/// on a lent pool) panics out of `score` once every task of the batch has
/// finished, and the engine's next batch scores each query bit for bit as
/// `Dlrm::predict` does.
#[test]
fn a_poisoned_lane_task_panics_out_of_score_and_the_next_batch_is_predict() {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    let (model, queries) = split_batch(9);
    let pool = Arc::new(tensor_casting::tensor::Pool::new(1));
    let mut engine = ServeEngine::new(&model, 0, Execution::Pooled(Arc::clone(&pool)));
    pool.poison_next_task();
    let panic = catch_unwind(AssertUnwindSafe(|| {
        engine.score(&model, &queries).map(|_| ())
    }))
    .expect_err("a poisoned lane task must panic out of score");
    let message = panic
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| panic.downcast_ref::<String>().cloned())
        .unwrap_or_default();
    assert!(message.contains("poisoned pool task"), "{message}");
    assert_eq!(engine.batches_scored(), 0);
    let scored = engine.score(&model, &queries).unwrap();
    for (i, q) in queries.iter().enumerate() {
        let want = bits(model.predict(&q.dense, &q.indices).unwrap().as_slice());
        assert_eq!(bits(scored.scores(i)), want, "query {}", q.id);
    }
}

/// Invariant 1 on a trained model: a served score is bit for bit
/// `Dlrm::predict` on the bags as given (pooling 3 and 2), fused with
/// other queries and alone. The bags hold lookups out of row order, and
/// `predict` over row-sorted bags differs in the last bit, so a pooling
/// order other than lookup order would fail here.
#[test]
fn served_scores_are_predict_on_the_bags_as_given() {
    let cfg = DlrmConfig::tiny(); // pooling 3 and 2
    let mut trainer = Trainer::new(cfg.clone(), BackwardMode::Casted, 9).unwrap();
    let mut gen = SyntheticCtr::new(cfg.table_workloads(), cfg.dense_features, 67);
    for _ in 0..3 {
        trainer.step(&gen.next_batch(32)).unwrap();
    }
    let model = trainer.model();
    let queries: Vec<Arc<Query>> = (0..3)
        .map(|id| {
            let batch = gen.next_batch(16 + 8 * id as usize);
            Arc::new(Query {
                id,
                dense: batch.dense.clone(),
                indices: Arc::clone(&batch.indices),
            })
        })
        .collect();
    let q = &queries[0];
    let sorted: Vec<IndexArray> = q
        .indices
        .iter()
        .map(|index| {
            let mut pairs: Vec<(u32, u32)> = index.iter().collect();
            pairs.sort_by_key(|&(src, dst)| (dst, src));
            let (src, dst) = pairs.into_iter().unzip();
            IndexArray::from_pairs(src, dst, index.num_outputs()).unwrap()
        })
        .collect();
    assert_ne!(
        bits(model.predict(&q.dense, &sorted).unwrap().as_slice()),
        bits(model.predict(&q.dense, &q.indices).unwrap().as_slice()),
        "row order and lookup order must pool to different bits"
    );

    let mut engine = ServeEngine::new(model, 64, Execution::Serial);
    let fused: Vec<Vec<u32>> = {
        let scored = engine.score(model, &queries).unwrap();
        (0..queries.len()).map(|i| bits(scored.scores(i))).collect()
    };
    for (q, fused) in queries.iter().zip(&fused) {
        let want = bits(model.predict(&q.dense, &q.indices).unwrap().as_slice());
        assert_eq!(fused, &want, "query {} fused", q.id);
        let alone = engine.score(model, std::iter::once(q)).unwrap();
        assert_eq!(bits(alone.scores(0)), want, "query {} alone", q.id);
    }
}

/// Invariant 6: a sample with no lookups in a table (only
/// `IndexArray::from_pairs` builds one) pools to a zero row, as
/// `IndexArray`'s doc says. The baseline and the casted trainer train on
/// it bit for bit alike, and a served query with the same bags scores as
/// `Dlrm::predict` does.
#[test]
fn an_empty_bag_pools_to_a_zero_row_in_training_and_serving() {
    let cfg = DlrmConfig::tiny(); // pooling 3 and 2
    let mut batch = SyntheticCtr::new(cfg.table_workloads(), cfg.dense_features, 61).next_batch(8);
    // The last sample keeps no lookup in table 1.
    let last = 7;
    let (src, dst) = batch.indices[1].iter().filter(|&(_, d)| d != last).unzip();
    let mut indices = batch.indices.to_vec();
    indices[1] = IndexArray::from_pairs(src, dst, 8).unwrap();
    batch.indices = indices.into();

    let mut baseline = Trainer::new(cfg.clone(), BackwardMode::Baseline, 5).unwrap();
    let mut casted = Trainer::new(cfg.clone(), BackwardMode::Casted, 5).unwrap();
    let mut pooled = Vec::new();
    let model = casted.model();
    model
        .embedding_forward_into(&batch.indices, &mut pooled)
        .unwrap();
    assert!(pooled[1].row(last as usize).iter().all(|&v| v == 0.0));
    for step in 0..3 {
        let (a, b) = (baseline.step(&batch), casted.step(&batch));
        let (a, b) = (a.unwrap().loss.to_bits(), b.unwrap().loss.to_bits());
        assert_eq!(a, b, "loss diverged at step {step}");
    }
    for t in 0..cfg.tables.len() {
        let (a, b) = (baseline.model().table(t), casted.model().table(t));
        assert_eq!(bits(a.as_slice()), bits(b.as_slice()), "table {t}");
    }

    let model = casted.model();
    let query = Arc::new(Query {
        id: 1,
        dense: batch.dense.clone(),
        indices: Arc::clone(&batch.indices),
    });
    let mut engine = ServeEngine::new(model, 64, Execution::Serial);
    let scored = engine.score(model, std::iter::once(&query)).unwrap();
    let want = model.predict(&batch.dense, &batch.indices).unwrap();
    assert_eq!(bits(scored.scores(0)), bits(want.as_slice()));
}
