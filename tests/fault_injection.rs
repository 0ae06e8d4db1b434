//! Deterministic fault injection across the fault-tolerance surface:
//! every injected failure must surface as a clean typed error or a
//! contained panic in bounded time — never a hang, deadlock, or silent
//! corruption.
//!
//! Covered faults, each armed by occurrence on a [`FaultPlan`] so the
//! exact failure reproduces on every run:
//!
//! 1. **Checkpoint I/O** — every write-path site (`open`, `write`,
//!    `fsync`, `rename`) fails as [`CheckpointError::Io`], leaves no
//!    torn or temporary file, keeps previously committed checkpoints
//!    intact, and the next save succeeds.
//! 2. **Torn writes** — a checkpoint truncated at *every* byte
//!    boundary parses to a clean [`CheckpointError::Format`] (or, at
//!    the handful of exact section boundaries, to a valid strict
//!    prefix), and a failed restore leaves the receiving trainer
//!    byte-identical.
//! 3. **Prefetch producer panics** — a batch source dying on its
//!    producer thread fails the consumer with a "producer died" panic
//!    instead of deadlocking, and both drop orders of
//!    (`TrainLoop`, dead `PrefetchSource`) join promptly.
//! 4. **Cast-ahead panics** — a cast-ahead task dying on the trainer's
//!    lane resurfaces on the training thread as a panic naming its
//!    site, at the same occurrence on every run.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tensor_casting::core::FaultPlan;
use tensor_casting::datasets::{
    BatchSource, CtrBatch, PrefetchSource, SyntheticCtr, SyntheticSource,
};
use tensor_casting::dlrm::{
    checkpoint::{read_train_checkpoint, CheckpointError, CheckpointStore},
    BackwardMode, DlrmConfig, EmbeddingOptimizer, TrainLoop, Trainer, CAST_AHEAD_FAULT_SITE,
};

struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!(
            "tckp-fault-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        Self(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn source(seed: u64, batch: usize) -> SyntheticSource {
    let cfg = DlrmConfig::tiny();
    SyntheticSource::new(
        SyntheticCtr::new(cfg.table_workloads(), cfg.dense_features, seed),
        batch,
    )
}

fn trained_trainer(steps: usize) -> Trainer {
    let cfg = DlrmConfig::tiny();
    let mut data = SyntheticCtr::new(cfg.table_workloads(), cfg.dense_features, 3);
    let mut t =
        Trainer::with_optimizer(cfg, BackwardMode::Casted, EmbeddingOptimizer::Sgd, 7).unwrap();
    for _ in 0..steps {
        t.step(&data.next_batch(16)).unwrap();
    }
    t
}

fn table_bits(t: &Trainer) -> Vec<Vec<u32>> {
    (0..t.model().num_tables())
        .map(|i| {
            t.model()
                .table(i)
                .as_slice()
                .iter()
                .map(|v| v.to_bits())
                .collect()
        })
        .collect()
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .unwrap_or_else(|| "<non-string panic>".into())
}

// ----------------------------------------------- 1. checkpoint I/O faults

#[test]
fn every_checkpoint_write_site_fails_typed_and_leaves_the_store_clean() {
    for site in [
        "checkpoint.open",
        "checkpoint.write",
        "checkpoint.fsync",
        "checkpoint.rename",
    ] {
        let dir = TempDir::new(&site.replace('.', "-"));
        let mut trainer = trained_trainer(1);
        let mut store = CheckpointStore::new(&dir.0, 3).unwrap();

        // A healthy commit first: the fault must not disturb it.
        let committed = store.save(&trainer, None, None).unwrap();
        trainer.step(&source(9, 16).next_batch().unwrap()).unwrap();

        let plan = FaultPlan::new();
        plan.arm(site, 0);
        store.set_fault_plan(plan.clone());
        let err = store.save(&trainer, None, None).unwrap_err();
        assert!(matches!(err, CheckpointError::Io(_)), "{site}: got {err}");
        assert!(
            err.to_string().contains(site),
            "{site}: error must name the failing site, got {err}"
        );
        assert_eq!(plan.fired(), vec![(site.to_string(), 0)]);

        // The committed set is exactly the pre-fault checkpoint, and no
        // temporary file survives the failure.
        assert_eq!(store.list().unwrap(), vec![committed.clone()]);
        let entries: Vec<_> = std::fs::read_dir(&dir.0)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(entries.len(), 1, "{site}: stray files {entries:?}");
        let loaded = read_train_checkpoint(&mut std::fs::File::open(&committed).unwrap()).unwrap();
        assert_eq!(
            loaded.steps(),
            Some(1),
            "{site}: committed checkpoint corrupted"
        );

        // The armed occurrence is spent: the retry succeeds.
        let second = store.save(&trainer, None, None).unwrap();
        assert_ne!(second, committed);
        let loaded = read_train_checkpoint(&mut std::fs::File::open(&second).unwrap()).unwrap();
        assert_eq!(
            loaded.steps(),
            Some(2),
            "{site}: retry produced a bad checkpoint"
        );
    }
}

/// A checkpoint fault inside [`TrainLoop::run`] surfaces as the
/// driver's typed checkpoint error, not a panic — and the trainer it
/// wraps is still intact and usable.
#[test]
fn checkpoint_fault_mid_run_is_a_typed_driver_error() {
    let dir = TempDir::new("mid-run");
    let mut store = CheckpointStore::new(&dir.0, 2).unwrap();
    let plan = FaultPlan::new();
    plan.arm("checkpoint.fsync", 0);
    store.set_fault_plan(plan);
    let trainer = Trainer::with_optimizer(
        DlrmConfig::tiny(),
        BackwardMode::Casted,
        EmbeddingOptimizer::Sgd,
        7,
    )
    .unwrap();
    let mut driver = TrainLoop::new(trainer, 2).checkpoint_every(2, store);
    let err = driver.run(&mut source(5, 16), 4).unwrap_err();
    assert!(
        err.to_string().contains("checkpoint.fsync"),
        "unexpected error: {err}"
    );
    // The failure struck at the first cadence boundary; the wrapped
    // trainer still holds the steps completed before the commit attempt.
    assert_eq!(driver.trainer().steps(), 2);
    assert!(driver.last_checkpoint().is_none());
}

// ----------------------------------------------------- 2. torn writes

#[test]
fn truncation_at_every_byte_boundary_is_clean() {
    let dir = TempDir::new("torn-sweep");
    let store = CheckpointStore::new(&dir.0, 1).unwrap();
    let trainer = Trainer::with_optimizer(
        DlrmConfig::tiny(),
        BackwardMode::Casted,
        EmbeddingOptimizer::Sgd,
        7,
    )
    .unwrap();
    let mut driver = TrainLoop::new(trainer, 2).checkpoint_every(3, store);
    driver.run(&mut source(11, 16), 3).unwrap();
    let ckpt = driver.last_checkpoint().expect("committed").to_path_buf();
    let bytes = std::fs::read(&ckpt).unwrap();

    // The intact file carries the full state.
    let full = read_train_checkpoint(&mut bytes.as_slice()).unwrap();
    assert_eq!(full.steps(), Some(3));
    assert!(full.source_state().is_some());
    assert_eq!(full.depth(), Some(2));

    // Every strict prefix either fails with a clean Format error or —
    // only at an exact section boundary — parses as a valid shorter
    // checkpoint (a framed format cannot distinguish that case; the
    // store's atomic rename is what keeps torn files from ever landing
    // under a committed name).
    let mut boundary_cuts = Vec::new();
    for cut in 0..bytes.len() {
        match read_train_checkpoint(&mut &bytes[..cut]) {
            Err(CheckpointError::Format(_)) => {}
            Err(other) => panic!("cut {cut}: non-Format error {other}"),
            Ok(prefix) => {
                assert!(
                    prefix.steps().is_none() || prefix.steps() == Some(3),
                    "cut {cut}: prefix parsed to foreign state"
                );
                boundary_cuts.push(cut);
            }
        }
    }
    assert!(
        boundary_cuts.len() <= 4,
        "more clean-prefix cuts than section boundaries: {boundary_cuts:?}"
    );
}

/// A failed restore — here an optimizer mismatch discovered after a
/// fully valid parse — leaves the receiving trainer byte-identical:
/// weights, optimizer slabs, and step counter untouched.
#[test]
fn failed_restore_leaves_the_receiving_trainer_untouched() {
    let adam = trained_adam();
    let mut buf = Vec::new();
    tensor_casting::dlrm::checkpoint::save_train_checkpoint(&mut buf, &adam, None, None).unwrap();

    let mut target = trained_trainer(2); // SGD: wrong optimizer for the file
    let before_tables = table_bits(&target);
    let before_steps = target.steps();
    let ckpt = read_train_checkpoint(&mut buf.as_slice()).unwrap();
    let err = ckpt.restore_into(&mut target).unwrap_err();
    assert!(
        matches!(err, CheckpointError::Shape(_)),
        "optimizer mismatch must be a Shape error, got {err}"
    );
    assert_eq!(table_bits(&target), before_tables, "weights were touched");
    assert_eq!(target.steps(), before_steps, "step counter was touched");
    // And the untouched trainer still trains.
    target.step(&source(13, 16).next_batch().unwrap()).unwrap();
}

fn trained_adam() -> Trainer {
    let cfg = DlrmConfig::tiny();
    let mut data = SyntheticCtr::new(cfg.table_workloads(), cfg.dense_features, 3);
    let mut t = Trainer::with_optimizer(
        cfg,
        BackwardMode::Casted,
        EmbeddingOptimizer::Adam {
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
        },
        7,
    )
    .unwrap();
    for _ in 0..2 {
        t.step(&data.next_batch(16)).unwrap();
    }
    t
}

/// Mid-payload bit corruption is caught by the section CRC before any
/// state is staged.
#[test]
fn corrupted_payload_fails_the_checksum() {
    let trainer = trained_trainer(2);
    let mut buf = Vec::new();
    tensor_casting::dlrm::checkpoint::save_train_checkpoint(&mut buf, &trainer, None, None)
        .unwrap();
    let mid = buf.len() / 2;
    buf[mid] ^= 0x40;
    let err = read_train_checkpoint(&mut buf.as_slice()).unwrap_err();
    assert!(
        err.to_string().contains("checksum"),
        "unexpected error: {err}"
    );
}

// ------------------------------------- 3. prefetch producer panics

/// A wrapped source that panics when its armed [`FaultPlan`]
/// occurrence fires — the injection point for producer-thread death.
struct FaultySource {
    inner: SyntheticSource,
    plan: FaultPlan,
}

impl BatchSource for FaultySource {
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

#[test]
fn producer_death_fails_the_consumer_in_bounded_time() {
    let plan = FaultPlan::new();
    plan.arm("prefetch.generate", 2); // third generation dies
    let mut pf = PrefetchSource::new(
        FaultySource {
            inner: source(21, 8),
            plan,
        },
        2,
    );
    let t0 = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        for _ in 0..10 {
            let batch = pf.next_batch().expect("endless stream");
            pf.recycle(batch);
        }
    }));
    let payload = outcome.expect_err("consumer must observe the producer death");
    assert!(
        panic_message(payload.as_ref()).contains("producer died"),
        "unexpected panic: {}",
        panic_message(payload.as_ref())
    );
    assert!(
        t0.elapsed() < Duration::from_secs(30),
        "consumer took {:?} to observe the death",
        t0.elapsed()
    );
    let t0 = Instant::now();
    drop(pf);
    assert!(
        t0.elapsed() < Duration::from_secs(10),
        "dropping the dead source took {:?}",
        t0.elapsed()
    );
}

/// Both drop orders of (driver with in-flight steps, prefetch source
/// whose producer has already died) join promptly — the panic is
/// contained to the source, and shutdown never deadlocks on the dead
/// thread.
#[test]
fn dead_producer_and_train_loop_drop_cleanly_in_both_orders() {
    for producer_first in [false, true] {
        let plan = FaultPlan::new();
        plan.arm("prefetch.generate", 1); // second generation dies
        let mut pf = PrefetchSource::new(
            FaultySource {
                inner: source(33, 16),
                plan,
            },
            2,
        );
        let trainer = Trainer::new(DlrmConfig::tiny(), BackwardMode::Casted, 1).unwrap();
        let mut driver = TrainLoop::new(trainer, 3);
        // Feed until the dead producer surfaces (bounded by the loop).
        let _ = catch_unwind(AssertUnwindSafe(|| {
            for _ in 0..6 {
                let batch = pf.next_batch().expect("endless stream");
                driver.push(batch).unwrap();
            }
        }));
        let t0 = Instant::now();
        if producer_first {
            drop(pf);
            drop(driver);
        } else {
            drop(driver);
            drop(pf);
        }
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "shutdown (producer_first: {producer_first}) took {:?}",
            t0.elapsed()
        );
    }
}

// ------------------------------------------------ 4. cast-ahead panics

/// Fault plans are reproducible: the same plan spec kills the same cast on
/// every run, whichever thread runs it, so the assertions above are
/// stable, not racy. At depth 1 every completion casts the batch queued
/// behind it: occurrence 2 is the third completion's cast.
#[test]
fn fault_plans_reproduce_the_same_failure_every_run() {
    for _ in 0..3 {
        let plan = FaultPlan::new();
        plan.arm(CAST_AHEAD_FAULT_SITE, 2);
        let mut trainer = Trainer::new(DlrmConfig::tiny(), BackwardMode::Casted, 1).unwrap();
        trainer.set_fault_plan(plan.clone());
        let mut driver = TrainLoop::new(trainer, 1);
        let mut src = source(55, 16);
        assert!(driver.push(src.next_batch().unwrap()).unwrap().is_none());
        // Completions 0 and 1 always survive; completion 2 always dies.
        for _ in 0..2 {
            assert!(driver.push(src.next_batch().unwrap()).unwrap().is_some());
        }
        let outcome = catch_unwind(AssertUnwindSafe(|| driver.push(src.next_batch().unwrap())));
        let payload = outcome.expect_err("the third cast must die on every run");
        assert!(
            panic_message(payload.as_ref()).contains(CAST_AHEAD_FAULT_SITE),
            "unexpected panic: {}",
            panic_message(payload.as_ref())
        );
        assert_eq!(plan.fired(), vec![(CAST_AHEAD_FAULT_SITE.to_string(), 2)]);
        assert_eq!(driver.trainer().steps(), 2);
    }
}

// The resume path itself is exercised against corrupt inputs in
// `tests/checkpoint_resume.rs`; here we close the loop on the driver
// API: resuming from a torn file is a typed error, not a panic.
#[test]
fn resume_from_a_torn_file_is_a_typed_error() {
    let dir = TempDir::new("torn-resume");
    std::fs::create_dir_all(&dir.0).unwrap();
    let path = dir.0.join("ckpt-000000000003.tckp");

    let trainer = trained_trainer(3);
    let mut buf = Vec::new();
    tensor_casting::dlrm::checkpoint::save_train_checkpoint(&mut buf, &trainer, None, None)
        .unwrap();
    buf.truncate(buf.len() - 7);
    std::fs::write(&path, &buf).unwrap();

    let mut src = source(2, 16);
    let fresh = Trainer::with_optimizer(
        DlrmConfig::tiny(),
        BackwardMode::Casted,
        EmbeddingOptimizer::Sgd,
        7,
    )
    .unwrap();
    let err = TrainLoop::resume(&path, fresh, &mut src).unwrap_err();
    assert!(matches!(err, CheckpointError::Format(_)), "got {err}");
}
