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
//!    intact, and the next save succeeds; a failed directory sync after
//!    the rename (`dirsync`) is an error too, and prunes nothing.
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
//! 5. **Hostile checkpoints** — a valid checkpoint with a few payload
//!    bytes or one header field mutated, and its section CRC recomputed,
//!    either restores (and the next step runs) or is refused with a typed
//!    error that leaves the receiving trainer byte-identical.

use proptest::prelude::*;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};
use tensor_casting::core::FaultPlan;
use tensor_casting::datasets::{
    BatchSource, CtrBatch, PrefetchSource, SourceState, SyntheticCtr, SyntheticSource,
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

/// The directory sync comes after the rename, so its failure cannot leave
/// only the pre-fault file as the sweep above expects: the new file is
/// there but may not be durable, and the save must prune nothing.
#[cfg(unix)]
#[test]
fn a_failed_directory_sync_is_an_error_and_prunes_nothing() {
    let dir = TempDir::new("dirsync");
    let mut trainer = trained_trainer(1);
    let mut store = CheckpointStore::new(&dir.0, 2).unwrap();
    let mut older = Vec::new();
    for _ in 0..2 {
        older.push(store.save(&trainer, None, None).unwrap());
        trainer.step(&source(9, 16).next_batch().unwrap()).unwrap();
    }

    let plan = FaultPlan::new();
    plan.arm("checkpoint.dirsync", 0);
    store.set_fault_plan(plan.clone());
    let err = store.save(&trainer, None, None).unwrap_err();
    assert!(matches!(err, CheckpointError::Io(_)), "got {err}");
    assert!(err.to_string().contains("checkpoint.dirsync"), "got {err}");
    assert_eq!(plan.fired(), vec![("checkpoint.dirsync".to_string(), 0)]);

    // Retention is 2, yet both older checkpoints are still listed beside
    // the renamed one, and the renamed one loads.
    let listed = store.list().unwrap();
    assert_eq!(listed.len(), 3, "{listed:?}");
    assert_eq!(listed[..2], older[..]);
    let loaded = read_train_checkpoint(&mut std::fs::File::open(&listed[2]).unwrap()).unwrap();
    assert_eq!(loaded.steps(), Some(3));
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
    adam_trainer(3, 2)
}

/// A casted `tiny` Adam trainer, `steps` steps into stream `data_seed`.
fn adam_trainer(data_seed: u64, steps: usize) -> Trainer {
    let cfg = DlrmConfig::tiny();
    let mut data = SyntheticCtr::new(cfg.table_workloads(), cfg.dense_features, data_seed);
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
    for _ in 0..steps {
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

// ------------------------------------------------ 5. hostile checkpoints

/// Every bit a restore may write: the step count, the MLPs, the tables
/// and the optimizer state.
fn fingerprint(t: &Trainer) -> Vec<u32> {
    let model = t.model();
    let bits = |vals: &[f32]| vals.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    let mut out = vec![t.steps() as u32, (t.steps() >> 32) as u32];
    for layer in model.bottom().layers().iter().chain(model.top().layers()) {
        out.extend(bits(layer.weight().as_slice()));
        out.extend(bits(layer.bias()));
    }
    out.extend(table_bits(t).concat());
    for opt in t.table_optimizers() {
        for (width, values, touched) in opt.planes() {
            out.push(width as u32);
            out.extend(bits(values));
            out.extend(touched.iter().map(|&t| u32::from(t)));
        }
        if let Some(steps) = opt.step_counts() {
            out.push(steps.len() as u32);
            out.extend_from_slice(steps);
        }
    }
    out
}

/// CRC-32 (IEEE), a bit at a time.
fn crc32(bytes: &[u8]) -> u32 {
    !bytes.iter().fold(!0u32, |mut crc, &b| {
        crc ^= u32::from(b);
        for _ in 0..8 {
            crc = if crc & 1 != 0 {
                0xEDB8_8320 ^ (crc >> 1)
            } else {
                crc >> 1
            };
        }
        crc
    })
}

fn le(file: &[u8], at: usize, width: usize) -> u64 {
    let mut bytes = [0u8; 8];
    bytes[..width].copy_from_slice(&file[at..at + width]);
    u64::from_le_bytes(bytes)
}

/// Each section's header offset and payload range, as far as the
/// section lengths frame the file.
fn sections(file: &[u8]) -> Vec<(usize, Range<usize>)> {
    let mut out = Vec::new();
    let mut pos = 8;
    while pos + 16 <= file.len() {
        let len = le(file, pos + 4, 8);
        let Some(end) = (pos as u64 + 16)
            .checked_add(len)
            .filter(|&e| e <= file.len() as u64)
        else {
            break;
        };
        out.push((pos, pos + 16..end as usize));
        pos = end as usize;
    }
    out
}

/// Rewrites the CRC of every section the lengths still frame.
fn fix_crcs(file: &mut [u8]) {
    for (at, payload) in sections(file) {
        let crc = crc32(&file[payload]);
        file[at + 12..at + 16].copy_from_slice(&crc.to_le_bytes());
    }
}

/// The header fields of a saved Adam checkpoint, as (offset, width): the
/// section lengths; in `MODL`, each MLP's depth, each layer's dims, the
/// table count and each table's rows and dim; in `OPTM`, the name
/// length, the state count, each state's length, each plane's width and
/// rows, and each step-count length.
fn header_fields(file: &[u8]) -> Vec<(usize, usize)> {
    let mut fields = Vec::new();
    let secs = sections(file);
    for (at, _) in &secs {
        fields.push((at + 4, 8));
    }
    let mut field = |pos: &mut usize, width: usize| {
        fields.push((*pos, width));
        *pos += width;
        le(file, *pos - width, width) as usize
    };
    let mut pos = secs[0].1.start;
    for _ in 0..2 {
        for _ in 0..field(&mut pos, 4) {
            let (i, o) = (field(&mut pos, 4), field(&mut pos, 4));
            pos += 4 * (i * o + o);
        }
    }
    for _ in 0..field(&mut pos, 4) {
        let (rows, dim) = (field(&mut pos, 4), field(&mut pos, 4));
        pos += 4 * rows * dim;
    }
    let mut pos = secs[1].1.start;
    pos += field(&mut pos, 4);
    for _ in 0..field(&mut pos, 4) {
        field(&mut pos, 8);
        for _ in 0..2 {
            let (width, rows) = (field(&mut pos, 8), field(&mut pos, 8));
            pos += 4 * rows * width + rows;
        }
        pos += 4 * field(&mut pos, 8);
    }
    fields
}

/// A valid Adam checkpoint with every section, from a trainer the fuzz
/// targets never saw.
fn fuzz_base() -> &'static [u8] {
    static BASE: OnceLock<Vec<u8>> = OnceLock::new();
    BASE.get_or_init(|| {
        let mut buf = Vec::new();
        let src = SourceState::Synthetic {
            rng_state: 0x5eed,
            batches: 3,
        };
        tensor_casting::dlrm::checkpoint::save_train_checkpoint(
            &mut buf,
            &adam_trainer(21, 3),
            Some(&src),
            Some(2),
        )
        .unwrap();
        buf
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// Structure-aware fuzz: 1-8 payload bytes of one section, or one
    /// header field, mutated under a valid CRC. A restore either succeeds
    /// and the next step runs, or fails typed with the trainer untouched.
    #[test]
    fn mutated_checkpoints_restore_or_fail_typed(
        header in any::<bool>(),
        pick in any::<u64>(),
        at in any::<u64>(),
        count in 1usize..9,
        noise in any::<u64>(),
        how in 0u32..6,
    ) {
        let mut file = fuzz_base().to_vec();
        if header {
            let fields = header_fields(&file);
            let (at, width) = fields[pick as usize % fields.len()];
            let ones = u64::MAX >> (64 - 8 * width);
            let old = le(&file, at, width);
            let new = match how {
                0 => 0,
                1 => old.wrapping_add(1),
                2 => old.wrapping_sub(1),
                3 => old.wrapping_mul(2),
                4 => ones,
                _ => noise,
            } & ones;
            file[at..at + width].copy_from_slice(&new.to_le_bytes()[..width]);
        } else {
            let secs = sections(&file);
            let payload = secs[pick as usize % secs.len()].1.clone();
            let n = count.min(payload.len());
            let at = payload.start + at as usize % (payload.len() - n + 1);
            file[at..at + n].copy_from_slice(&noise.to_le_bytes()[..n]);
        }
        fix_crcs(&mut file);

        let mut target = adam_trainer(3, 2);
        let before = fingerprint(&target);
        let restored = read_train_checkpoint(&mut file.as_slice())
            .and_then(|ckpt| ckpt.restore_into(&mut target));
        match restored {
            Ok(()) => {
                // Whatever it restored, the next step runs (a non-finite
                // loss is an answer, not a panic).
                let _ = target.step(&source(13, 16).next_batch().unwrap());
            }
            Err(err) => {
                prop_assert!(
                    matches!(err, CheckpointError::Format(_) | CheckpointError::Shape(_)),
                    "untyped failure: {err}"
                );
                prop_assert!(!err.to_string().contains("checksum"), "CRC not fixed: {err}");
                prop_assert!(fingerprint(&target) == before, "{err}: the trainer was touched");
            }
        }
    }
}
