//! Stress tests for the casting pipeline and the pooled kernels under
//! sustained, randomized multi-iteration load — failure-injection style
//! coverage for the concurrency machinery. Includes the drop/shutdown
//! ordering contract: dropping a `TrainLoop` or a `PrefetchSource`
//! mid-stream must join its worker threads without deadlock or panic,
//! whichever side of the hand-off is slow at that moment.

use std::sync::Arc;
use std::time::{Duration, Instant};
use tensor_casting::core::{tensor_casting, CastingPipeline};
use tensor_casting::datasets::{
    BatchSource, CtrBatch, PrefetchSource, SyntheticCtr, SyntheticSource,
};
use tensor_casting::dlrm::{BackwardMode, DlrmConfig, TrainLoop, Trainer};
use tensor_casting::embedding::IndexArray;
use tensor_casting::tensor::{Exec, Linear, Matrix, Pool, SplitMix64};

fn random_index(rng: &mut SplitMix64, batch: usize, pooling_max: usize, rows: u64) -> IndexArray {
    let samples: Vec<Vec<u32>> = (0..batch)
        .map(|_| {
            let pooling = 1 + rng.next_below(pooling_max as u64) as usize;
            (0..pooling).map(|_| rng.next_below(rows) as u32).collect()
        })
        .collect();
    IndexArray::from_samples(&samples).unwrap()
}

#[test]
fn pipeline_sustains_many_out_of_order_iterations() {
    let mut rng = SplitMix64::new(1);
    let mut pipeline = CastingPipeline::new();
    // Submit 20 jobs up front, collect in a scrambled order.
    let jobs: Vec<(IndexArray, _)> = (0..20)
        .map(|_| {
            let idx = random_index(&mut rng, 32, 6, 500);
            let ticket = pipeline.submit(vec![idx.clone()]);
            (idx, ticket)
        })
        .collect();
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    // Deterministic scramble.
    for i in 0..order.len() {
        let j = rng.next_below(order.len() as u64) as usize;
        order.swap(i, j);
    }
    for &i in &order {
        let casted = pipeline.collect(jobs[i].1);
        assert_eq!(casted[0], tensor_casting(&jobs[i].0), "job {i}");
    }
    assert_eq!(pipeline.stats().jobs_completed, 20);
}

#[test]
fn parallel_matmul_stress() {
    // All three products of a layer (forward `x W`, backward `x^T dy`
    // beside `dy W^T`) under random shapes and band counts, against the
    // serial ones bit for bit. The first shape sits under the split floor
    // (a pooled `Exec` must run it inline), the rest just above it.
    let pool = Pool::new(4);
    let mut rng = SplitMix64::new(3);
    let mut random = |rows: usize, cols: usize| {
        let mut m = Matrix::zeros(rows, cols);
        for v in m.as_mut_slice() {
            *v = rng.next_range(-1.0, 1.0);
        }
        m
    };
    for trial in 0..5 {
        let m = 8 + trial * 11;
        let (k, n) = match trial {
            0 => (53, 60),
            _ => (
                1 + trial * 131,
                (4usize << 20).div_ceil(m * (1 + trial * 131)) + trial,
            ),
        };
        let mut layer = Linear::from_parameters(random(k, n), vec![0.0; n]).unwrap();
        assert_eq!(layer.splits_at(m), trial > 0, "{m}x{k}x{n}");
        let (x, dy) = (random(m, k), random(m, n));
        let (mut y, mut dx) = (Matrix::default(), Matrix::default());
        layer.forward_into(&x, &mut y, None, Exec::Serial).unwrap();
        layer.backward_into(&x, &dy, &mut dx, Exec::Serial).unwrap();
        let dw = layer.grad_weight().unwrap().clone();
        for threads in [2, 3, 8] {
            let exec = Exec::Pooled {
                pool: &pool,
                threads,
            };
            let (mut y_pooled, mut dx_pooled) = (Matrix::default(), Matrix::default());
            layer.forward_into(&x, &mut y_pooled, None, exec).unwrap();
            layer.backward_into(&x, &dy, &mut dx_pooled, exec).unwrap();
            let context = format!("{m}x{k}x{n} / {threads}");
            assert_eq!(y.as_slice(), y_pooled.as_slice(), "{context}");
            assert_eq!(dx.as_slice(), dx_pooled.as_slice(), "{context}");
            assert_eq!(
                dw.as_slice(),
                layer.grad_weight().unwrap().as_slice(),
                "{context}"
            );
        }
    }
}

fn stress_source(seed: u64, batch: usize) -> SyntheticSource {
    let cfg = DlrmConfig::tiny();
    SyntheticSource::new(
        SyntheticCtr::new(cfg.table_workloads(), cfg.dense_features, seed),
        batch,
    )
}

/// A wrapped source whose generation is artificially slow — the
/// producer is mid-`next_batch` for most of its life.
struct SlowSource {
    inner: SyntheticSource,
    delay: Duration,
}

impl BatchSource for SlowSource {
    fn next_batch(&mut self) -> Option<Arc<CtrBatch>> {
        std::thread::sleep(self.delay);
        self.inner.next_batch()
    }
    fn recycle(&mut self, batch: Arc<CtrBatch>) {
        self.inner.recycle(batch);
    }
}

#[test]
fn dropping_a_prefetch_source_with_a_slow_producer_joins_promptly() {
    // Drop while the producer is almost certainly inside its (slow)
    // generation: shutdown must let it finish that batch, find the queue
    // hung up and exit — no deadlock, no panic, and no unbounded wait.
    let mut source = PrefetchSource::new(
        SlowSource {
            inner: stress_source(5, 8),
            delay: Duration::from_millis(20),
        },
        2,
    );
    let first = source.next_batch().expect("endless");
    source.recycle(first);
    let t0 = Instant::now();
    drop(source); // producer is mid-generation for ~20ms
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "drop took {:?} — producer failed to observe shutdown",
        t0.elapsed()
    );
}

#[test]
fn prefetch_counters_hold_on_every_read() {
    // The counters read at every checkout rather than at a quiescent
    // point, while the producer races the reads: the ready count and its
    // high-water mark never exceed the capacity, `delivered` counts every
    // checkout exactly, and the producer is never more than the capacity
    // ahead of it.
    let mut source = PrefetchSource::new(stress_source(13, 4), 2);
    for step in 1..=2_000u64 {
        let batch = source.next_batch().expect("endless");
        source.recycle(batch);
        let ready = source.ready_len();
        let stats = source.stats();
        assert!(ready <= 2, "step {step}: {ready} ready");
        assert!(
            stats.max_ready <= 2,
            "step {step}: high-water {}",
            stats.max_ready
        );
        assert_eq!(stats.delivered, step);
        assert!(
            (step..=step + 2).contains(&stats.produced),
            "step {step}: produced {}",
            stats.produced
        );
    }
}

#[test]
fn dropping_a_prefetch_source_with_a_slow_consumer_wakes_the_parked_producer() {
    // The opposite ordering: the consumer never drains, so the producer
    // fills the bounded queue and parks in its send. Drop must hang up
    // the queue, which wakes it, and join.
    let source = PrefetchSource::new(stress_source(7, 8), 1);
    let deadline = Instant::now() + Duration::from_secs(5);
    while source.ready_len() < 1 {
        assert!(Instant::now() < deadline, "producer never filled the queue");
        std::thread::yield_now();
    }
    let t0 = Instant::now();
    drop(source); // producer is parked on the full queue
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "drop took {:?} — parked producer was never woken",
        t0.elapsed()
    );
}

#[test]
fn dropping_a_train_loop_with_steps_in_flight_joins_the_casting_worker() {
    // Begin several casting jobs and drop the driver without completing
    // them: the trainer's pipeline worker must be joined cleanly even
    // with uncollected results in its channel (slow-consumer shape —
    // the worker outruns the trainer).
    let trainer = Trainer::new(DlrmConfig::tiny(), BackwardMode::Casted, 3).unwrap();
    let mut driver = TrainLoop::new(trainer, 4);
    let mut source = stress_source(11, 64);
    for _ in 0..4 {
        let fired = driver.push(source.next_batch().unwrap()).unwrap();
        assert!(fired.is_none(), "depth 4 must defer the first completions");
    }
    assert_eq!(driver.in_flight(), 4);
    drop(driver); // 4 casting jobs submitted, none collected
}

#[test]
fn dropping_a_train_loop_over_a_prefetched_source_mid_stream_is_clean() {
    // Both shutdown orders compose: the TrainLoop (casting worker +
    // in-flight steps) and the PrefetchSource (producer thread) are
    // dropped mid-stream, in both drop orders, across several rounds.
    for round in 0..4u64 {
        let trainer = Trainer::new(DlrmConfig::tiny(), BackwardMode::Casted, round).unwrap();
        let mut driver = TrainLoop::new(trainer, 3);
        let mut source = PrefetchSource::new(stress_source(round + 20, 16), 2);
        for _ in 0..3 {
            driver.push(source.next_batch().expect("endless")).unwrap();
        }
        if round % 2 == 0 {
            drop(driver); // steps in flight first, then the producer
            drop(source);
        } else {
            drop(source); // producer first, then the in-flight steps
            drop(driver);
        }
    }
}

/// Fault-armed shutdown stress: the producer dies at a *different*
/// generation each round, and whichever state the hand-off is in —
/// queue full, queue empty, consumer mid-wait — both drop orders of
/// (driver, dead source) join promptly. The occurrence sweep walks the
/// fault across the interesting interleavings deterministically
/// (`tests/fault_injection.rs` holds the single-shot containment
/// proofs; this is the sustained version).
#[test]
fn faulted_producer_shutdown_stress_across_occurrences() {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use tensor_casting::core::FaultPlan;

    struct DyingSource {
        inner: SyntheticSource,
        plan: FaultPlan,
    }
    impl BatchSource for DyingSource {
        fn next_batch(&mut self) -> Option<Arc<CtrBatch>> {
            assert!(
                !self.plan.should_fail("prefetch.generate"),
                "injected producer fault"
            );
            self.inner.next_batch()
        }
        fn recycle(&mut self, batch: Arc<CtrBatch>) {
            self.inner.recycle(batch);
        }
    }

    for occurrence in 0..4u64 {
        for driver_first in [false, true] {
            let plan = FaultPlan::new();
            plan.arm("prefetch.generate", occurrence);
            let mut source = PrefetchSource::new(
                DyingSource {
                    inner: stress_source(occurrence + 50, 16),
                    plan,
                },
                2,
            );
            let trainer =
                Trainer::new(DlrmConfig::tiny(), BackwardMode::Casted, occurrence).unwrap();
            let mut driver = TrainLoop::new(trainer, 2);
            // Consume until the dead producer surfaces (or the round's
            // budget runs out with the fault still queued — also fine:
            // the drop below must cope with either state).
            let _ = catch_unwind(AssertUnwindSafe(|| {
                for _ in 0..6 {
                    driver.push(source.next_batch().expect("endless")).unwrap();
                }
            }));
            let t0 = Instant::now();
            if driver_first {
                drop(driver);
                drop(source);
            } else {
                drop(source);
                drop(driver);
            }
            assert!(
                t0.elapsed() < Duration::from_secs(10),
                "occurrence {occurrence}, driver_first {driver_first}: \
                 shutdown took {:?}",
                t0.elapsed()
            );
        }
    }
}

#[test]
fn interleaved_pipelines_do_not_cross_talk() {
    // Two independent pipelines with interleaved submissions: results
    // must come from the right pipeline's jobs.
    let mut rng = SplitMix64::new(4);
    let mut p1 = CastingPipeline::new();
    let mut p2 = CastingPipeline::new();
    let idx1 = random_index(&mut rng, 16, 4, 100);
    let idx2 = random_index(&mut rng, 16, 4, 100);
    let t1 = p1.submit(vec![idx1.clone()]);
    let t2 = p2.submit(vec![idx2.clone()]);
    assert_eq!(p2.collect(t2)[0], tensor_casting(&idx2));
    assert_eq!(p1.collect(t1)[0], tensor_casting(&idx1));
}
