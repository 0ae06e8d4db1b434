//! The exact-resume invariant — the fault-tolerance subsystem's
//! headline property: a training run killed after **any** step and
//! resumed from its crash-safe checkpoint continues **bit-identically**
//! (per-step losses and final weights, at the saved lookahead depth) to
//! the uninterrupted run.
//!
//! The matrix covers every embedding optimizer, both backward modes,
//! lookahead depths {0, 2, 4}, and both inline and prefetched batch
//! sources; a sampled property test fills in the gaps (random kill
//! points, seeds, and cadences). Checkpoints carry *full* training
//! state — model weights, optimizer slabs, step counter, batch-source
//! position, and lookahead depth — so nothing is replayed
//! and nothing drifts.

use proptest::prelude::*;
use tensor_casting::datasets::{
    BatchSource, PrefetchSource, SyntheticCtr, SyntheticSource, TraceReplaySource,
};
use tensor_casting::dlrm::{
    checkpoint::{read_train_checkpoint, save_train_checkpoint, CheckpointError, CheckpointStore},
    BackwardMode, DlrmConfig, EmbeddingOptimizer, TrainLoop, Trainer,
};

const OPTIMIZERS: [EmbeddingOptimizer; 5] = [
    EmbeddingOptimizer::Sgd,
    EmbeddingOptimizer::Momentum { mu: 0.9 },
    EmbeddingOptimizer::Adagrad { eps: 1e-8 },
    EmbeddingOptimizer::RmsProp {
        gamma: 0.9,
        eps: 1e-8,
    },
    EmbeddingOptimizer::Adam {
        beta1: 0.9,
        beta2: 0.999,
        eps: 1e-8,
    },
];

fn source(data_seed: u64, batch: usize) -> SyntheticSource {
    let cfg = DlrmConfig::tiny();
    SyntheticSource::new(
        SyntheticCtr::new(cfg.table_workloads(), cfg.dense_features, data_seed),
        batch,
    )
}

fn trainer(mode: BackwardMode, opt: EmbeddingOptimizer, model_seed: u64) -> Trainer {
    Trainer::with_optimizer(DlrmConfig::tiny(), mode, opt, model_seed).unwrap()
}

/// A per-test scratch directory, removed on drop even when the test
/// fails partway.
struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!(
            "tckp-resume-{tag}-{}-{:?}",
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

fn loss_bits(losses: &[f32]) -> Vec<u32> {
    losses.iter().map(|l| l.to_bits()).collect()
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

/// Runs the kill-at-`k` / resume / compare cycle for one cell of the
/// matrix and asserts bit-identity against the uninterrupted run.
#[allow(clippy::too_many_arguments)]
fn assert_exact_resume(
    mode: BackwardMode,
    opt: EmbeddingOptimizer,
    depth: usize,
    steps: usize,
    kill_at: usize,
    data_seed: u64,
    model_seed: u64,
    prefetched: bool,
    dir: &TempDir,
) {
    let context = format!("{mode:?} {opt:?} depth {depth} kill {kill_at} prefetched {prefetched}");
    let batch = 16;

    // Uninterrupted reference trajectory.
    let mut reference = TrainLoop::new(trainer(mode, opt, model_seed), depth);
    let mut ref_src = source(data_seed, batch);
    let want = reference.run(&mut ref_src, steps).unwrap();

    // The killed run: checkpoint exactly at the kill point, stop there.
    let store = CheckpointStore::new(&dir.0, 2).unwrap();
    let mut first = TrainLoop::new(trainer(mode, opt, model_seed), depth)
        .checkpoint_every(kill_at as u64, store);
    let first_summary = if prefetched {
        let mut src = PrefetchSource::new(source(data_seed, batch), 2);
        first.run(&mut src, kill_at).unwrap()
    } else {
        let mut src = source(data_seed, batch);
        first.run(&mut src, kill_at).unwrap()
    };
    let ckpt = first
        .last_checkpoint()
        .unwrap_or_else(|| panic!("{context}: no checkpoint committed"))
        .to_path_buf();
    drop(first);

    // Resume into a freshly built trainer and finish the run.
    let (resumed_losses, resumed_trainer) = if prefetched {
        // A prefetched resume restores the *inner* source before the
        // producer thread takes ownership (see `BatchSource::restore`
        // on `PrefetchSource`), then rebuilds the loop by hand.
        let ckpt_data = read_train_checkpoint(&mut std::fs::File::open(&ckpt).unwrap()).unwrap();
        let mut inner = source(data_seed, batch);
        let state = ckpt_data.source_state().expect("source state saved");
        inner.restore(&state).unwrap();
        let mut t = trainer(mode, opt, model_seed);
        ckpt_data.restore_into(&mut t).unwrap();
        assert_eq!(ckpt_data.depth(), Some(depth), "{context}: depth not saved");
        let mut resumed = TrainLoop::new(t, depth);
        let mut src = PrefetchSource::new(inner, 2);
        let summary = resumed.run(&mut src, steps - kill_at).unwrap();
        (summary.losses, resumed.into_trainer())
    } else {
        let mut src = source(data_seed, batch);
        let mut resumed =
            TrainLoop::resume(&ckpt, trainer(mode, opt, model_seed), &mut src).unwrap();
        assert_eq!(
            resumed.depth(),
            depth,
            "{context}: resumed at another depth"
        );
        let summary = resumed.run(&mut src, steps - kill_at).unwrap();
        (summary.losses, resumed.into_trainer())
    };

    let mut joined = loss_bits(&first_summary.losses);
    joined.extend(loss_bits(&resumed_losses));
    assert_eq!(
        joined,
        loss_bits(&want.losses),
        "{context}: losses diverged after resume"
    );
    assert_eq!(
        table_bits(&resumed_trainer),
        table_bits(reference.trainer()),
        "{context}: weights diverged after resume"
    );
}

/// THE acceptance matrix: every optimizer x both backward modes x
/// depths {0, 2, 4}, inline sources, kill at the midpoint.
#[test]
fn resume_is_bit_identical_for_every_optimizer_mode_and_depth() {
    let dir = TempDir::new("matrix");
    for opt in OPTIMIZERS {
        for mode in [BackwardMode::Baseline, BackwardMode::Casted] {
            for depth in [0usize, 2, 4] {
                assert_exact_resume(mode, opt, depth, 6, 3, 42, 7, false, &dir);
            }
        }
    }
}

/// The prefetched half of the matrix: a producer-thread source on both
/// sides of the kill (save from a prefetched run, resume into a
/// prefetched run) changes nothing. Sampled over the optimizer axis;
/// the depth axis repeats the acceptance set.
#[test]
fn resume_is_bit_identical_with_prefetched_sources() {
    let dir = TempDir::new("prefetched");
    for opt in [
        EmbeddingOptimizer::Sgd,
        EmbeddingOptimizer::Adam {
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
        },
    ] {
        for mode in [BackwardMode::Baseline, BackwardMode::Casted] {
            for depth in [0usize, 2, 4] {
                assert_exact_resume(mode, opt, depth, 6, 3, 23, 11, true, &dir);
            }
        }
    }
}

/// A prefetched *save* resumes through the plain [`TrainLoop::resume`]
/// path with an inline source: the checkpointed stream position is the
/// consumer-side position, independent of how far ahead the producer
/// ran.
#[test]
fn prefetched_save_resumes_through_an_inline_source() {
    let dir = TempDir::new("pf-to-inline");
    let (mode, opt) = (
        BackwardMode::Casted,
        EmbeddingOptimizer::Adagrad { eps: 1e-8 },
    );
    let (steps, kill_at, batch) = (6usize, 3usize, 16);

    let mut reference = TrainLoop::new(trainer(mode, opt, 5), 2);
    let want = reference.run(&mut source(9, batch), steps).unwrap();

    let store = CheckpointStore::new(&dir.0, 1).unwrap();
    let mut first =
        TrainLoop::new(trainer(mode, opt, 5), 2).checkpoint_every(kill_at as u64, store);
    let mut pf = PrefetchSource::new(source(9, batch), 3);
    let first_summary = first.run(&mut pf, kill_at).unwrap();
    let ckpt = first.last_checkpoint().expect("committed").to_path_buf();
    drop(first);
    drop(pf); // the producer may have generated far past the kill point

    let mut inline = source(9, batch);
    let mut resumed = TrainLoop::resume(&ckpt, trainer(mode, opt, 5), &mut inline).unwrap();
    let summary = resumed.run(&mut inline, steps - kill_at).unwrap();

    let mut joined = loss_bits(&first_summary.losses);
    joined.extend(loss_bits(&summary.losses));
    assert_eq!(joined, loss_bits(&want.losses));
    assert_eq!(
        table_bits(resumed.trainer()),
        table_bits(reference.trainer())
    );
}

/// Kill after ANY step: cadence 1 commits a checkpoint at every step
/// boundary; resuming from each one reproduces the reference tail
/// exactly. This is the exhaustive form of the headline invariant.
#[test]
fn resume_from_every_checkpoint_boundary_reproduces_the_tail() {
    let dir = TempDir::new("every-step");
    let (mode, opt) = (
        BackwardMode::Casted,
        EmbeddingOptimizer::Adam {
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
        },
    );
    let (steps, batch) = (6usize, 16);

    let mut reference = TrainLoop::new(trainer(mode, opt, 3), 2);
    let want = reference.run(&mut source(17, batch), steps).unwrap();
    let want_bits = loss_bits(&want.losses);
    let want_tables = table_bits(reference.trainer());

    // One full run, checkpointing after every completed step.
    let store = CheckpointStore::new(&dir.0, steps).unwrap();
    let mut checkpointed = TrainLoop::new(trainer(mode, opt, 3), 2).checkpoint_every(1, store);
    let ckpt_summary = checkpointed.run(&mut source(17, batch), steps).unwrap();
    assert_eq!(
        loss_bits(&ckpt_summary.losses),
        want_bits,
        "checkpointing itself perturbed the trajectory"
    );
    let store = CheckpointStore::new(&dir.0, steps).unwrap();
    let checkpoints = store.list().unwrap();
    assert_eq!(checkpoints.len(), steps, "one checkpoint per step");

    for (i, ckpt) in checkpoints.iter().enumerate() {
        let killed_at = i + 1;
        let mut src = source(17, batch);
        let mut resumed = TrainLoop::resume(ckpt, trainer(mode, opt, 3), &mut src).unwrap();
        assert_eq!(resumed.trainer().steps(), killed_at as u64);
        let summary = resumed.run(&mut src, steps - killed_at).unwrap();
        assert_eq!(
            loss_bits(&summary.losses),
            want_bits[killed_at..],
            "tail diverged resuming from step {killed_at}"
        );
        assert_eq!(
            table_bits(resumed.trainer()),
            want_tables,
            "weights diverged resuming from step {killed_at}"
        );
    }
}

/// A checkpoint that records no lookahead depth (written by
/// `save_train_checkpoint` with no depth, not by a `TrainLoop`) has no
/// depth to resume at: `resume` refuses it with a `Format` error naming
/// `DCTL`, and the source keeps its position.
#[test]
fn resume_refuses_a_checkpoint_without_a_depth() {
    let dir = TempDir::new("no-depth");
    std::fs::create_dir_all(&dir.0).unwrap();
    let path = dir.0.join("ckpt-000000000000.tckp");
    let mk = || trainer(BackwardMode::Casted, EmbeddingOptimizer::Sgd, 37);
    let mut advanced = source(41, 16);
    for _ in 0..3 {
        advanced.next_batch();
    }
    let mut bytes = Vec::new();
    save_train_checkpoint(&mut bytes, &mk(), advanced.state().as_ref(), None).unwrap();
    std::fs::write(&path, &bytes).unwrap();

    let mut src = source(41, 16);
    let before = src.state();
    assert_ne!(before, advanced.state());
    let err = TrainLoop::resume(&path, mk(), &mut src).unwrap_err();
    assert!(
        matches!(&err, CheckpointError::Format(m) if m.contains("DCTL")),
        "got {err}"
    );
    assert_eq!(src.state(), before, "the source was rewound");
}

/// A checkpoint saved 20 steps into a trace is a valid file, but a
/// 10-step trace has no position 20: `resume` refuses it with a `Format`
/// error instead of panicking, and the short trace still starts at its
/// first batch.
#[test]
fn resume_refuses_a_trace_cursor_past_the_trace() {
    let dir = TempDir::new("short-trace");
    let trace = |steps: usize| {
        let cfg = DlrmConfig::tiny();
        let per_table = (cfg.table_workloads().iter().enumerate())
            .map(|(t, workload)| {
                let mut lookups = workload.generator(t as u64);
                (0..steps).map(|_| lookups.next_batch(16)).collect()
            })
            .collect();
        TraceReplaySource::new(per_table, cfg.dense_features, 3).unwrap()
    };
    let mk = || trainer(BackwardMode::Casted, EmbeddingOptimizer::Sgd, 43);
    let store = CheckpointStore::new(&dir.0, 1).unwrap();
    let mut first = TrainLoop::new(mk(), 2).checkpoint_every(20, store);
    first.run(&mut trace(100), 20).unwrap();
    let path = first.last_checkpoint().expect("a checkpoint at step 20");

    let mut short = trace(10);
    let err = TrainLoop::resume(path, mk(), &mut short).unwrap_err();
    assert!(
        matches!(&err, CheckpointError::Format(m) if m.contains("beyond trace of 10 steps")),
        "got {err}"
    );
    let got = short.next_batch().expect("the short trace was not moved");
    assert_eq!(*got, *trace(10).next_batch().unwrap());
}

/// Retention prunes old checkpoints but the newest survivors all
/// resume correctly.
#[test]
fn retention_keeps_the_newest_checkpoints_resumable() {
    let dir = TempDir::new("retention");
    let (steps, batch) = (8usize, 16);
    let mk = || trainer(BackwardMode::Casted, EmbeddingOptimizer::Sgd, 19);

    let mut reference = TrainLoop::new(mk(), 2);
    let want = reference.run(&mut source(31, batch), steps).unwrap();

    let store = CheckpointStore::new(&dir.0, 2).unwrap();
    let mut run = TrainLoop::new(mk(), 2).checkpoint_every(2, store);
    run.run(&mut source(31, batch), steps).unwrap();
    let store = CheckpointStore::new(&dir.0, 2).unwrap();
    let kept = store.list().unwrap();
    assert_eq!(kept.len(), 2, "retention bound violated: {kept:?}");
    assert_eq!(
        store.latest().unwrap().as_deref(),
        kept.last().map(|p| p.as_path())
    );

    for ckpt in &kept {
        let loaded = read_train_checkpoint(&mut std::fs::File::open(ckpt).unwrap()).unwrap();
        let killed_at = loaded.steps().expect("trainer section") as usize;
        assert!(killed_at == 6 || killed_at == 8, "kept {killed_at}");
        let mut src = source(31, batch);
        let mut resumed = TrainLoop::resume(ckpt, mk(), &mut src).unwrap();
        let summary = resumed.run(&mut src, steps - killed_at).unwrap();
        assert_eq!(
            loss_bits(&summary.losses),
            loss_bits(&want.losses)[killed_at..],
            "tail diverged from retained checkpoint at step {killed_at}"
        );
        assert_eq!(
            table_bits(resumed.trainer()),
            table_bits(reference.trainer())
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Sampled closure of the matrix: random optimizer, mode, depth,
    /// kill point and seeds — kill/resume is always bit-identical.
    #[test]
    fn any_kill_point_resumes_bit_identically(
        opt_i in 0usize..OPTIMIZERS.len(),
        mode_i in 0usize..2,
        depth in 0usize..=4,
        kill_at in 1usize..6,
        prefetched in any::<bool>(),
        data_seed in any::<u64>(),
        model_seed in any::<u64>(),
    ) {
        let dir = TempDir::new("prop");
        assert_exact_resume(
            [BackwardMode::Baseline, BackwardMode::Casted][mode_i],
            OPTIMIZERS[opt_i],
            depth,
            6,
            kill_at,
            data_seed,
            model_seed,
            prefetched,
            &dir,
        );
    }
}
