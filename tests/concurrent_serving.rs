//! The concurrent train-and-serve invariants (PR: tcast-snapshot):
//!
//! 1. **Versions are strictly monotonic** — every publication (normal,
//!    hot-swap or rollback) returns a strictly larger version, for any
//!    interleaving of operations.
//! 2. **Rollback is byte-exact** — rolling back to a retained version
//!    re-publishes that version's exact weight bytes under a new
//!    version.
//! 3. **No torn snapshots** — under a hammering writer, a reader's
//!    resolved snapshot is always internally consistent.
//! 4. **Concurrent serving is snapshot-consistent** — a batch served at
//!    version V scores bit-identically to a stop-the-world oracle: the
//!    offline trainer advanced to V's step count, scoring the same
//!    queries. Holds across publish cadences K ∈ {1, 4, 16}.

use proptest::prelude::*;
use std::collections::HashMap;
use tensor_casting::datasets::{BatchSource, SyntheticCtr, SyntheticSource};
use tensor_casting::dlrm::{BackwardMode, Dlrm, DlrmConfig, TrainLoop, Trainer};
use tensor_casting::serve::{
    serve_concurrent, CandidateCount, ConcurrentConfig, QueryModel, ServeEngine, SnapshotStore,
};
use tensor_casting::tensor::Pool;

/// Every trainable weight of the model, as bits.
fn dlrm_bits(m: &Dlrm) -> Vec<u32> {
    let mut bits = Vec::new();
    for layer in m.bottom().layers().iter().chain(m.top().layers()) {
        bits.extend(layer.weight().as_slice().iter().map(|v| v.to_bits()));
        bits.extend(layer.bias().iter().map(|v| v.to_bits()));
    }
    for t in 0..m.num_tables() {
        bits.extend(m.table(t).as_slice().iter().map(|v| v.to_bits()));
    }
    bits
}

fn workload(seed: u64) -> QueryModel {
    let cfg = DlrmConfig::tiny();
    QueryModel::new(
        &cfg.table_workloads(),
        cfg.dense_features,
        10,
        CandidateCount::Uniform { min: 1, max: 4 },
        1.0,
        seed,
    )
}

fn training_source() -> SyntheticSource {
    let cfg = DlrmConfig::tiny();
    SyntheticSource::new(
        SyntheticCtr::new(cfg.table_workloads(), cfg.dense_features, 2),
        16,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Invariants 1 + 2: for any interleaving of publishes and rollbacks,
    /// returned versions strictly increase and a rollback's new head
    /// carries the target version's exact bytes.
    #[test]
    fn versions_monotonic_and_rollbacks_byte_exact(
        ops in proptest::collection::vec(0u8..4, 1..16),
    ) {
        let store = SnapshotStore::new(&Dlrm::new(DlrmConfig::tiny(), 1).unwrap(), 0, 3);
        let mut bits_of: HashMap<u64, Vec<u32>> = HashMap::new();
        bits_of.insert(1, dlrm_bits(store.latest().model()));
        let mut last_version = store.version();
        let mut steps = 0u64;
        for (i, &op) in ops.iter().enumerate() {
            let v = if op == 0 && !store.retained_versions().is_empty() {
                // Roll back to a pseudo-randomly chosen retained version.
                let retained = store.retained_versions();
                let target = retained[i % retained.len()];
                let v = store.rollback_to(target).unwrap();
                let head = store.latest();
                prop_assert_eq!(head.version(), v);
                prop_assert_eq!(
                    dlrm_bits(head.model()),
                    bits_of[&target].clone(),
                    "rollback to {} lost bytes", target
                );
                v
            } else {
                steps += 1;
                let m = Dlrm::new(DlrmConfig::tiny(), 100 + i as u64).unwrap();
                let v = store.publish(&m, steps);
                prop_assert_eq!(dlrm_bits(store.latest().model()), dlrm_bits(&m));
                v
            };
            prop_assert!(v > last_version, "version {} after {}", v, last_version);
            prop_assert_eq!(store.version(), v);
            bits_of.insert(v, dlrm_bits(store.latest().model()));
            last_version = v;
        }
    }

    /// Invariant 4, the acceptance-criteria property: every batch a
    /// concurrent run served at version V is bit-identical to the offline
    /// trainer advanced to V's step count scoring the same queries, across
    /// publish cadences K ∈ {1, 4, 16}.
    #[test]
    fn concurrent_scores_bit_identical_to_offline_trainer_at_version(
        k_idx in 0usize..3,
        workload_seed in 1u64..500,
    ) {
        let k = [1usize, 4, 16][k_idx];
        let cfg = DlrmConfig::tiny();
        // Concurrent run: trainer + 2 engines, recording every batch.
        let trainer = Trainer::new(cfg.clone(), BackwardMode::Casted, 17).unwrap();
        let mut driver = TrainLoop::new(trainer, 2);
        let mut source = training_source();
        let store = SnapshotStore::new(driver.trainer().model(), 0, 2);
        let mut workloads = [workload(workload_seed), workload(workload_seed + 7)];
        let pool = Pool::new(2);
        let mut config = ConcurrentConfig::new(16, 4, 2 * k, k);
        config.record_batches = true;
        let report = serve_concurrent(
            &mut driver, &mut source, &store, &mut workloads, &pool, &config,
        ).unwrap();
        prop_assert!(!report.recorded.is_empty());

        // Stop-the-world oracle: replay the same batch stream offline,
        // capturing the model bytes at each publish cadence, then rescore
        // every recorded batch at its snapshot's step count.
        let mut oracle = Trainer::new(cfg.clone(), BackwardMode::Casted, 17).unwrap();
        let mut oracle_source = training_source();
        let mut records = report.recorded;
        records.sort_by_key(|r| r.steps);
        for rec in &records {
            while oracle.steps() < rec.steps {
                let batch = oracle_source.next_batch().unwrap();
                oracle.step(&batch).unwrap();
                oracle_source.recycle(batch);
            }
            prop_assert_eq!(oracle.steps(), rec.steps, "version {} cadence", rec.version);
            let mut engine = ServeEngine::with_defaults(oracle.model());
            let scored = engine.score(oracle.model(), rec.queries.iter()).unwrap();
            let oracle_bits: Vec<u32> =
                scored.fused_logits().as_slice().iter().map(|v| v.to_bits()).collect();
            let served_bits: Vec<u32> = rec.scores.iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(
                served_bits, oracle_bits,
                "engine {} at version {} (steps {})", rec.engine, rec.version, rec.steps
            );
        }
    }
}

/// Invariant 3: a writer republishing as fast as it can never lets a
/// reader observe a half-copied model — every resolved snapshot's slabs
/// are uniform in the constant that version was filled with.
#[test]
fn hammering_writer_never_tears_a_reader_snapshot() {
    let cfg = DlrmConfig::tiny();
    let template = Dlrm::new(cfg.clone(), 1).unwrap();
    let store = SnapshotStore::new(&template, 0, 1);
    std::thread::scope(|s| {
        let store = &store;
        s.spawn(move || {
            let mut m = Dlrm::new(cfg, 1).unwrap();
            for step in 1..400u64 {
                let c = step as f32;
                for t in 0..m.num_tables() {
                    m.table_mut(t).as_mut_slice().fill(c);
                }
                store.publish(&m, step);
            }
        });
        for _ in 0..3 {
            s.spawn(move || {
                let mut last = 0;
                for _ in 0..300 {
                    let snap = store.latest();
                    assert!(snap.version() >= last, "versions went backwards");
                    last = snap.version();
                    if snap.version() == 1 {
                        continue; // the seeded template, not constant-filled
                    }
                    for t in 0..snap.model().num_tables() {
                        let slab = snap.model().table(t).as_slice();
                        assert!(
                            slab.iter().all(|&v| v == slab[0]),
                            "torn slab at version {}",
                            snap.version()
                        );
                    }
                }
            });
        }
    });
    assert!(store.version() > 1);
}

/// The freshness SLA is live: a concurrent run reports per-batch
/// versions that the store actually published, staleness within the
/// configured bound + the publication burst, and a positive p99 model
/// age on both the fleet and per-engine views.
#[test]
fn freshness_ledger_reflects_published_versions() {
    let trainer = Trainer::new(DlrmConfig::tiny(), BackwardMode::Casted, 17).unwrap();
    let mut driver = TrainLoop::new(trainer, 2);
    let mut source = training_source();
    let store = SnapshotStore::new(driver.trainer().model(), 0, 2);
    let mut workloads = [workload(3), workload(11), workload(19)];
    let pool = Pool::new(2);
    let config = ConcurrentConfig::new(20, 5, 12, 4);
    let report = serve_concurrent(
        &mut driver,
        &mut source,
        &store,
        &mut workloads,
        &pool,
        &config,
    )
    .unwrap();
    assert_eq!(report.train.versions_published, vec![2, 3, 4]);
    assert_eq!(report.per_engine.len(), 3);
    assert_eq!(report.fleet.queries, 60);
    assert_eq!(report.freshness.batches(), 12);
    let head = store.version();
    for &v in &report.freshness.versions {
        assert!(v >= 1 && v <= head, "version {v} was never published");
    }
    assert!(report.freshness.p99_model_age_ns() > 0);
    // The fleet ledger is the merge of what each engine would report:
    // batch counts add up.
    assert_eq!(
        report.fleet.batches,
        report.per_engine.iter().map(|r| r.batches).sum::<u64>()
    );
}

/// Each engine is `batch` closed-loop clients at zero think time: its
/// recorded batches are consecutive `batch`-sized chunks of its own fresh
/// draw sequence (a short last chunk), every query's latency is its
/// batch's service time, and the queue never holds more than `batch`.
#[test]
fn concurrent_engines_keep_their_query_stream() {
    for (queries, batch) in [(10usize, 4usize), (12, 4)] {
        let trainer = Trainer::new(DlrmConfig::tiny(), BackwardMode::Casted, 17).unwrap();
        let mut driver = TrainLoop::new(trainer, 2);
        let mut source = training_source();
        let store = SnapshotStore::new(driver.trainer().model(), 0, 2);
        let seeds = [3u64, 11];
        let mut workloads = seeds.map(workload);
        let pool = Pool::new(2);
        let mut config = ConcurrentConfig::new(queries, batch, 4, 2);
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
        for (i, &seed) in seeds.iter().enumerate() {
            let mut fresh = workload(seed);
            let drawn: Vec<u64> = (0..queries).map(|_| fresh.draw().id).collect();
            let expected: Vec<Vec<u64>> = drawn.chunks(batch).map(<[u64]>::to_vec).collect();
            let served: Vec<Vec<u64>> = report
                .recorded
                .iter()
                .filter(|r| r.engine == i)
                .map(|r| r.queries.iter().map(|q| q.id).collect())
                .collect();
            assert_eq!(
                served, expected,
                "engine {i}: {queries} queries, batch {batch}"
            );
            let r = &report.per_engine[i];
            assert!(r.max_queue_depth <= batch);
            assert_eq!(r.latency.count(), queries as u64);
            assert_eq!(r.latency.min_ns(), r.service.min_ns());
            assert_eq!(r.latency.max_ns(), r.service.max_ns());
            if queries % batch == 0 {
                // Equal batches: the latency distribution is the service
                // distribution with every value repeated `batch` times.
                for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
                    assert_eq!(r.latency.quantile_ns(q), r.service.quantile_ns(q), "q={q}");
                }
            }
        }
    }
}
