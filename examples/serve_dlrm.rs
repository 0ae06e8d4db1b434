//! Serve a trained DLRM under the three batching policies, switch to
//! online mode (casted training interleaved with serving), then go
//! fully concurrent: the trainer publishes epoch-versioned snapshots
//! while serve engines score them on separate pool workers — including
//! a mid-traffic hot swap and a rollback drill.
//!
//! Trains a scaled-down RM1 for a few steps, then drives the
//! `tcast-serve` loop over a seeded hot-query workload and prints each
//! policy's throughput/tail-latency trade-off, the casting-cache hit
//! rate, the model-staleness ledger, and — in concurrent mode — the
//! snapshot version timeline plus the freshness SLA (p99 model age).
//!
//! ```sh
//! cargo run --release --example serve_dlrm
//! ```
//!
//! The multi-tenant fleet model is a `repro` report:
//! `cargo run --release -p tcast-repro -- fleet`.

use tensor_casting::datasets::{PrefetchSource, SyntheticCtr, SyntheticSource};
use tensor_casting::dlrm::{
    checkpoint::save_train_checkpoint, BackwardMode, DlrmConfig, TrainLoop, Trainer,
};
use tensor_casting::serve::{
    serve, serve_concurrent, serve_online, AdaptiveBatcher, ArrivalProcess, BatchPolicy,
    CandidateCount, ConcurrentConfig, HotSwap, OnlineConfig, QueryModel, RollbackDrill,
    ServeConfig, ServeEngine, ServeReport, SnapshotStore,
};
use tensor_casting::tensor::Pool;

const QUERIES: usize = 400;
const SLA_NS: u64 = 5_000_000; // 5 ms

fn workload(seed: u64) -> QueryModel {
    let config = DlrmConfig::rm1_scaled(20_000);
    QueryModel::new(
        &config.table_workloads(),
        config.dense_features,
        96, // distinct queries in the catalog
        CandidateCount::Uniform { min: 2, max: 8 },
        1.1, // hot-query skew
        seed,
    )
}

fn print_report(label: &str, r: &ServeReport) {
    println!(
        "  {label:<22} {:>8.0} qps  p50 {:>6.2} ms  p95 {:>6.2} ms  p99 {:>6.2} ms  \
         sla-viol {:>5.1}%  mean batch {:>4.1}  cache hit {:>4.0}%",
        r.qps(),
        r.latency.p50_ns() as f64 / 1e6,
        r.latency.p95_ns() as f64 / 1e6,
        r.latency.p99_ns() as f64 / 1e6,
        100.0 * r.sla_violation_rate(),
        r.mean_batch(),
        100.0 * r.cache_hit_rate,
    );
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Train a model (casted backward), as production would.
    let config = DlrmConfig::rm1_scaled(20_000);
    let mut data = SyntheticCtr::new(config.table_workloads(), config.dense_features, 7);
    let mut trainer = Trainer::new(config.clone(), BackwardMode::Casted, 99)?;
    trainer.set_learning_rate(0.02);
    for _ in 0..10 {
        trainer.step(&data.next_batch(256))?;
    }
    println!(
        "trained {} steps; serving {} queries (SLA {} ms, Poisson arrivals)\n",
        trainer.steps(),
        QUERIES,
        SLA_NS / 1_000_000
    );

    // 2. Inference-only serving under each batching policy.
    let policies: Vec<(&str, BatchPolicy)> = vec![
        ("fixed (B=8)", BatchPolicy::Fixed { batch: 8 }),
        (
            "deadline (B<=16, 1ms)",
            BatchPolicy::Deadline {
                max_batch: 16,
                max_wait_ns: 1_000_000,
            },
        ),
        (
            "adaptive (SLA-driven)",
            BatchPolicy::Adaptive(AdaptiveBatcher::new(SLA_NS, 32, SLA_NS / 4)),
        ),
    ];
    for (label, policy) in policies {
        let mut engine = ServeEngine::with_defaults(trainer.model());
        let report = serve(
            &mut engine,
            trainer.model(),
            &mut workload(3),
            &ServeConfig {
                queries: QUERIES,
                arrivals: ArrivalProcess::Poisson { mean_qps: 4_000.0 },
                policy,
                sla_ns: SLA_NS,
                seed: 11,
                shed_unmeetable: false,
            },
        )?;
        print_report(label, &report);
    }

    // 3. Online mode: keep training every 4 fused batches while serving.
    // The batch source is prefetched: a producer thread generates the
    // next training batch while queries are being served, so the update
    // slot finds its batch waiting instead of paying generation inline.
    println!("\nonline mode (1 casted update step per 4 fused batches, prefetched batches):");
    let mut source = PrefetchSource::new(
        SyntheticSource::new(
            SyntheticCtr::new(config.table_workloads(), config.dense_features, 13),
            256,
        ),
        2,
    );
    let mut engine = ServeEngine::with_defaults(trainer.model());
    let steps_before = trainer.steps();
    let (report, online) = serve_online(
        &mut engine,
        &mut trainer,
        &mut source,
        &mut workload(5),
        &ServeConfig {
            queries: QUERIES,
            arrivals: ArrivalProcess::ClosedLoop {
                clients: 16,
                think_ns: 50_000,
            },
            policy: BatchPolicy::Fixed { batch: 8 },
            sla_ns: SLA_NS,
            seed: 17,
            shed_unmeetable: false,
        },
        OnlineConfig {
            update_every: 4,
            restore: None,
        },
    )?;
    print_report("online + fixed (B=8)", &report);
    println!(
        "  {} update steps during serving (model {} -> {} steps), \
         staleness mean {:.2} / max {} batches, first loss {:.4} -> last {:.4}",
        online.updates,
        steps_before,
        trainer.steps(),
        online.mean_staleness(),
        online.max_staleness(),
        online.losses.first().copied().unwrap_or(f32::NAN),
        online.losses.last().copied().unwrap_or(f32::NAN),
    );
    println!(
        "  update-slot batch generation: {:.1} us/update (prefetched; the producer thread \
         generated {} batches while queries were served), training {:.1} us/update",
        online.gen_ns as f64 / online.updates.max(1) as f64 / 1e3,
        source.stats().produced,
        online.train_ns as f64 / online.updates.max(1) as f64 / 1e3,
    );
    println!(
        "  (the update trajectory is bit-identical to offline training on the same \
         stream — serving reads the model through & only; see tests/serving.rs)"
    );

    // 4. Concurrent mode: trainer and engines run simultaneously on one
    // pool, trading model state only through the snapshot store. Mid-run
    // drills: hot-swap a checkpoint-restored model in, then roll the
    // store back to a pre-swap version — serving never pauses for either.
    println!("\nconcurrent mode (trainer publishes every 4 steps; 2 engines, staleness bound 1):");
    let ckpt_path =
        std::env::temp_dir().join(format!("serve-dlrm-swap-{}.tckp", std::process::id()));
    save_train_checkpoint(
        &mut std::fs::File::create(&ckpt_path)?,
        &trainer,
        None,
        None,
    )?;
    let mut driver = TrainLoop::new(trainer, 2);
    let store = SnapshotStore::new(driver.trainer().model(), driver.trainer().steps(), 4);
    let mut source = SyntheticSource::new(
        SyntheticCtr::new(config.table_workloads(), config.dense_features, 23),
        256,
    );
    let mut workloads = [workload(29), workload(31)];
    let pool = Pool::with_default_parallelism();
    let concurrent = serve_concurrent(
        &mut driver,
        &mut source,
        &store,
        &mut workloads,
        &pool,
        &ConcurrentConfig {
            queries_per_engine: 200,
            batch: 8,
            train_steps: 16,
            snapshot_every: 4,
            staleness_bound: 1,
            sla_ns: SLA_NS,
            execution: tensor_casting::dlrm::Execution::Serial,
            record_batches: false,
            swap: Some(HotSwap {
                path: ckpt_path.clone(),
                at_version: 3,
            }),
            rollback: Some(RollbackDrill {
                at_version: 5,
                to_version: 2,
            }),
        },
    )?;
    std::fs::remove_file(&ckpt_path)?;
    print_report("concurrent (2 engines)", &concurrent.fleet);
    for (i, r) in concurrent.per_engine.iter().enumerate() {
        print_report(&format!("  engine {i}"), r);
    }
    println!(
        "  version timeline: {:?} ({} hot swap, {} rollback — serving never paused)",
        concurrent.train.versions_published, concurrent.train.swaps, concurrent.train.rollbacks,
    );
    println!(
        "  freshness: model age p50 {:.2} ms / p99 {:.2} ms, staleness mean {:.2} / max {} \
         versions over {} batches",
        concurrent.freshness.model_age.p50_ns() as f64 / 1e6,
        concurrent.freshness.p99_model_age_ns() as f64 / 1e6,
        concurrent.freshness.mean_staleness_versions(),
        concurrent.freshness.max_staleness_versions(),
        concurrent.freshness.batches(),
    );
    println!(
        "  trainer under load: {} steps at {:.0} steps/s, {} publishes ({:.1} us each)",
        concurrent.train.steps,
        concurrent.train.steps_per_sec(),
        concurrent.train.publishes,
        concurrent.train.publish_ns as f64 / concurrent.train.publishes.max(1) as f64 / 1e3,
    );
    println!(
        "  (a batch served at version V is bit-identical to the offline trainer at V's \
         step count — see tests/concurrent_serving.rs)"
    );
    Ok(())
}
