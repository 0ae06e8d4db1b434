//! The cross-batch pipelining invariant: a [`TrainLoop`] at ANY lookahead
//! depth produces **bit-identical** weights and per-step losses to the
//! plain serial `Trainer::step` loop — for both backward modes and every
//! optimizer. Lookahead only moves *when* casting runs (a pure function
//! of the index arrays), never what the model computes.
//!
//! This file also carries the *prefetch* half of the invariant — a
//! `PrefetchSource`-wrapped stream (generation on a producer thread,
//! arbitrary producer/consumer interleaving, cross-thread buffer
//! recycling) trains bit-identically to the unwrapped source.

use proptest::prelude::*;
use std::sync::Arc;
use tensor_casting::core::FaultPlan;
use tensor_casting::datasets::{
    BatchSource, CtrBatch, PrefetchSource, SyntheticCtr, SyntheticSource, TraceReplaySource,
};
use tensor_casting::dlrm::{
    BackwardMode, DlrmConfig, DriverError, EmbeddingOptimizer, Execution, StepReport, TableConfig,
    TrainLoop, Trainer, CAST_AHEAD_FAULT_SITE, DENSE_GEMM_FAULT_SITE, GATHER_AHEAD_FAULT_SITE,
};
use tensor_casting::embedding::{EmbeddingError, IndexArray};
use tensor_casting::tensor::Matrix;

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

fn stream(seed: u64) -> SyntheticCtr {
    let cfg = DlrmConfig::tiny();
    SyntheticCtr::new(cfg.table_workloads(), cfg.dense_features, seed)
}

/// Serial reference: the plain `step` loop over the same stream.
fn serial_losses(
    mode: BackwardMode,
    opt: EmbeddingOptimizer,
    data_seed: u64,
    model_seed: u64,
    steps: usize,
    batch: usize,
) -> (Vec<f32>, Trainer) {
    let mut t = Trainer::with_optimizer(DlrmConfig::tiny(), mode, opt, model_seed).unwrap();
    let mut data = stream(data_seed);
    let losses = (0..steps)
        .map(|_| t.step(&data.next_batch(batch)).unwrap().loss)
        .collect();
    (losses, t)
}

/// Pipelined run at `depth` over an identical stream (with recycling).
fn pipelined_losses(
    mode: BackwardMode,
    opt: EmbeddingOptimizer,
    data_seed: u64,
    model_seed: u64,
    steps: usize,
    batch: usize,
    depth: usize,
) -> (Vec<f32>, Trainer) {
    let trainer = Trainer::with_optimizer(DlrmConfig::tiny(), mode, opt, model_seed).unwrap();
    let mut driver = TrainLoop::new(trainer, depth);
    let mut source = SyntheticSource::new(stream(data_seed), batch);
    let summary = driver.run(&mut source, steps).unwrap();
    assert_eq!(summary.steps, steps);
    (summary.losses, driver.into_trainer())
}

fn assert_tables_identical(a: &Trainer, b: &Trainer, context: &str) {
    for i in 0..a.model().num_tables() {
        assert_eq!(
            a.model().table(i).max_abs_diff(b.model().table(i)).unwrap(),
            0.0,
            "{context}: table {i} diverged"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// THE driver property: depths 1-4 are bit-identical to the serial
    /// loop across random modes, optimizers, depths and data.
    #[test]
    fn any_depth_is_bit_identical_to_the_serial_loop(
        depth in 1usize..=4,
        mode_i in 0usize..2,
        opt_i in 0usize..OPTIMIZERS.len(),
        data_seed in any::<u64>(),
        model_seed in any::<u64>(),
    ) {
        let mode = [BackwardMode::Baseline, BackwardMode::Casted][mode_i];
        let opt = OPTIMIZERS[opt_i];
        let (steps, batch) = (6, 16);
        let (want, serial) = serial_losses(mode, opt, data_seed, model_seed, steps, batch);
        let (got, pipelined) =
            pipelined_losses(mode, opt, data_seed, model_seed, steps, batch, depth);
        prop_assert_eq!(
            &got, &want,
            "losses diverged: {:?} {:?} depth {}", mode, opt, depth
        );
        assert_tables_identical(
            &serial,
            &pipelined,
            &format!("{mode:?} {opt:?} depth {depth}"),
        );
    }
}

/// Exhaustive (non-sampled) sweep: every optimizer, both modes, depth 3.
#[test]
fn every_optimizer_and_mode_matches_at_depth_three() {
    for mode in [BackwardMode::Baseline, BackwardMode::Casted] {
        for opt in OPTIMIZERS {
            let (want, serial) = serial_losses(mode, opt, 101, 55, 5, 24);
            let (got, pipelined) = pipelined_losses(mode, opt, 101, 55, 5, 24, 3);
            assert_eq!(got, want, "losses diverged: {mode:?} {opt:?}");
            assert_tables_identical(&serial, &pipelined, &format!("{mode:?} {opt:?}"));
        }
    }
}

/// Every batch is cast exactly once at any depth (jobs == steps), and the
/// per-step exposed waits sum to the trainer's own account. At depth 0
/// every step of this small model has no lane and casts on the training
/// thread, so none of the casting is hidden.
#[test]
fn run_summary_accounts_for_every_casting_job() {
    for depth in [0, 1, 3] {
        let trainer = Trainer::new(DlrmConfig::tiny(), BackwardMode::Casted, 9).unwrap();
        let mut driver = TrainLoop::new(trainer, depth);
        let mut source = SyntheticSource::new(stream(77), 32);
        let summary = driver.run(&mut source, 8).unwrap();
        assert_eq!(summary.steps, 8);
        let stats = driver.trainer().pipeline_stats().unwrap();
        assert_eq!(stats.jobs_completed, 8, "depth {depth}");
        assert_eq!(summary.casting_time, stats.casting_time, "depth {depth}");
        assert_eq!(
            summary.exposed_cast_wait, stats.exposed_wait,
            "depth {depth}"
        );
        if depth == 0 {
            assert_eq!(stats.exposed_wait, stats.casting_time);
        }
        let hf = summary.hidden_fraction();
        assert!(
            (0.0..=1.0).contains(&hf),
            "depth {depth}: hidden fraction {hf}"
        );
    }
}

/// A `TrainLoop` over a `PrefetchSource`-wrapped stream at `depth`,
/// same seeds as the unwrapped runs.
fn prefetched_losses(
    mode: BackwardMode,
    opt: EmbeddingOptimizer,
    data_seed: u64,
    model_seed: u64,
    steps: usize,
    batch: usize,
    depth: usize,
) -> (Vec<f32>, Trainer) {
    let trainer = Trainer::with_optimizer(DlrmConfig::tiny(), mode, opt, model_seed).unwrap();
    let mut driver = TrainLoop::new(trainer, depth);
    let mut source = PrefetchSource::new(SyntheticSource::new(stream(data_seed), batch), 2);
    let summary = driver.run(&mut source, steps).unwrap();
    assert_eq!(summary.steps, steps);
    (summary.losses, driver.into_trainer())
}

/// Every table's recorded lookups over `steps` batches of `DlrmConfig::tiny`.
fn trace_tables(data_seed: u64, steps: usize, batch: usize) -> Vec<Vec<IndexArray>> {
    let cfg = DlrmConfig::tiny();
    cfg.table_workloads()
        .iter()
        .enumerate()
        .map(|(i, w)| {
            let mut g = w.generator(data_seed + i as u64);
            (0..steps).map(|_| g.next_batch(batch)).collect()
        })
        .collect()
}

fn trace_source(data_seed: u64, steps: usize, batch: usize) -> TraceReplaySource {
    let per_table = trace_tables(data_seed, steps, batch);
    TraceReplaySource::new(per_table, DlrmConfig::tiny().dense_features, data_seed).unwrap()
}

/// A replayed trace comes from outside the program, and nothing checks its
/// rows against the tables before training. One that names a row past its
/// table must reach the gather as a typed error: through a `TrainLoop` at
/// depth 1, whose steps gather their successor's rows ahead, in both
/// modes, the run stops with `SrcOutOfBounds` at the step whose batch holds
/// the row (the step before it gathered that batch ahead), without a
/// panic and without counting it, and the steps before it left the
/// tables the clean trace leaves.
#[test]
fn a_replayed_row_past_its_table_is_a_typed_error() {
    let (steps, batch, bad_step) = (4, 16, 2);
    let rows = DlrmConfig::tiny().tables[1].rows;
    for mode in [BackwardMode::Baseline, BackwardMode::Casted] {
        let mk = || Trainer::new(DlrmConfig::tiny(), mode, 33).unwrap();
        let mut clean = TrainLoop::new(mk(), 1);
        clean
            .run(&mut trace_source(91, steps, batch), bad_step)
            .unwrap();

        let mut per_table = trace_tables(91, steps, batch);
        let hostile = &mut per_table[1][bad_step];
        let mut src = hostile.src().to_vec();
        let at = src.len() / 2;
        src[at] = rows as u32;
        *hostile =
            IndexArray::from_pairs(src, hostile.dst().to_vec(), hostile.num_outputs()).unwrap();
        let dense = DlrmConfig::tiny().dense_features;
        let mut source = TraceReplaySource::new(per_table, dense, 91).unwrap();
        let mut driver = TrainLoop::new(mk(), 1);
        match driver.run(&mut source, steps) {
            Err(DriverError::Train(EmbeddingError::SrcOutOfBounds { src, rows: r })) => {
                assert_eq!((src as usize, r), (rows, rows), "{mode:?}");
            }
            Err(other) => panic!("{mode:?}: expected SrcOutOfBounds, got {other}"),
            Ok(summary) => panic!("{mode:?}: trained {} steps", summary.steps),
        }
        assert_eq!(driver.trainer().steps(), bad_step as u64, "{mode:?}");
        assert_tables_identical(clean.trainer(), driver.trainer(), &format!("{mode:?}"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The prefetch half of the invariant, sampled: a background
    /// producer thread generating ahead (arbitrary interleaving,
    /// cross-thread recycling) changes nothing — bit-identical weights
    /// and losses to the unwrapped source at any depth, either mode,
    /// every optimizer.
    #[test]
    fn prefetched_synthetic_stream_trains_bit_identically(
        depth in 0usize..=4,
        mode_i in 0usize..2,
        opt_i in 0usize..OPTIMIZERS.len(),
        data_seed in any::<u64>(),
        model_seed in any::<u64>(),
    ) {
        let mode = [BackwardMode::Baseline, BackwardMode::Casted][mode_i];
        let opt = OPTIMIZERS[opt_i];
        let (steps, batch) = (6, 16);
        let (want, unwrapped) =
            pipelined_losses(mode, opt, data_seed, model_seed, steps, batch, depth);
        let (got, prefetched) =
            prefetched_losses(mode, opt, data_seed, model_seed, steps, batch, depth);
        prop_assert_eq!(
            &got, &want,
            "prefetched losses diverged: {:?} {:?} depth {}", mode, opt, depth
        );
        assert_tables_identical(
            &unwrapped,
            &prefetched,
            &format!("prefetched {mode:?} {opt:?} depth {depth}"),
        );
    }
}

/// Exhaustive sweep of the prefetch invariant over BOTH source kinds:
/// every optimizer, both modes, depths {0, 1, 2, 4} — synthetic and
/// trace-replay streams wrapped in a `PrefetchSource` match the
/// unwrapped source exactly.
#[test]
fn prefetched_sources_match_unwrapped_at_every_depth_mode_and_optimizer() {
    let (steps, batch) = (5, 16);
    for depth in [0usize, 1, 2, 4] {
        for mode in [BackwardMode::Baseline, BackwardMode::Casted] {
            for opt in OPTIMIZERS {
                let context = format!("{mode:?} {opt:?} depth {depth}");
                // Synthetic: prefetched vs unwrapped.
                let (want, unwrapped) = pipelined_losses(mode, opt, 71, 33, steps, batch, depth);
                let (got, prefetched) = prefetched_losses(mode, opt, 71, 33, steps, batch, depth);
                assert_eq!(got, want, "synthetic losses diverged: {context}");
                assert_tables_identical(&unwrapped, &prefetched, &context);

                // Trace replay: prefetched vs unwrapped over the same
                // recorded lookups.
                let mk = || Trainer::with_optimizer(DlrmConfig::tiny(), mode, opt, 33).unwrap();
                let mut plain_driver = TrainLoop::new(mk(), depth);
                let plain = plain_driver
                    .run(&mut trace_source(91, steps, batch), steps)
                    .unwrap();
                let mut pf_driver = TrainLoop::new(mk(), depth);
                let pf = pf_driver
                    .run(
                        &mut PrefetchSource::new(trace_source(91, steps, batch), 2),
                        steps,
                    )
                    .unwrap();
                assert_eq!(pf.steps, steps, "trace ended early: {context}");
                assert_eq!(pf.losses, plain.losses, "trace losses diverged: {context}");
                assert_tables_identical(
                    &plain_driver.into_trainer(),
                    &pf_driver.into_trainer(),
                    &format!("trace {context}"),
                );
            }
        }
    }
}

/// The prefetch invariant holds under pooled execution too: a pooled
/// trainer fed a prefetched stream at depth 3 matches the serial inline
/// depth-0 run bit for bit.
#[test]
fn pooled_prefetched_run_matches_serial_inline() {
    use tensor_casting::dlrm::Execution;
    let pool = Arc::new(tensor_casting::tensor::Pool::new(4));
    let mk = |execution: Execution| {
        Trainer::with_execution(
            DlrmConfig::tiny(),
            BackwardMode::Casted,
            EmbeddingOptimizer::Adagrad { eps: 1e-8 },
            execution,
            29,
        )
        .unwrap()
    };
    let mut serial = TrainLoop::new(mk(Execution::Serial), 0);
    let want = serial
        .run(&mut SyntheticSource::new(stream(83), 16), 8)
        .unwrap();
    let mut pooled = TrainLoop::new(mk(Execution::Pooled(pool)), 3);
    let got = pooled
        .run(
            &mut PrefetchSource::new(SyntheticSource::new(stream(83), 16), 2),
            8,
        )
        .unwrap();
    assert_eq!(got.losses, want.losses);
    assert_tables_identical(
        &serial.into_trainer(),
        &pooled.into_trainer(),
        "pooled prefetched vs serial inline",
    );
}

/// Recycled-buffer prefetch must not perturb training: run the same
/// stream with a recycling source and with an allocate-every-batch
/// source, and require identical trajectories.
#[test]
fn buffer_recycling_does_not_change_the_trajectory() {
    struct NeverRecycle(SyntheticSource);
    impl BatchSource for NeverRecycle {
        fn next_batch(&mut self) -> Option<Arc<tensor_casting::datasets::CtrBatch>> {
            self.0.next_batch()
        }
        fn recycle(&mut self, _batch: Arc<tensor_casting::datasets::CtrBatch>) {}
    }

    let mk = || Trainer::new(DlrmConfig::tiny(), BackwardMode::Casted, 5).unwrap();
    let mut recycling = TrainLoop::new(mk(), 2);
    let s1 = recycling
        .run(&mut SyntheticSource::new(stream(41), 16), 6)
        .unwrap();
    let mut hoarding = TrainLoop::new(mk(), 2);
    let s2 = hoarding
        .run(&mut NeverRecycle(SyntheticSource::new(stream(41), 16)), 6)
        .unwrap();
    assert_eq!(s1.losses, s2.losses);
    assert_tables_identical(
        &recycling.into_trainer(),
        &hoarding.into_trainer(),
        "recycling vs hoarding",
    );
}

// ------------------------------------------------------------ gather-ahead
//
// A completion that has a successor runs the successor's forward gather
// behind its own scatter, table by table (`Trainer::complete_step`). The
// suites below hold that schedule to the plain `Trainer::step` loop bit for
// bit, and — through `StepReport::gathered_ahead` — to actually running.

/// Tables so small that every step rewrites every row of every table:
/// each bag of step t+1 reads rows step t's scatter wrote, so a gather
/// that ran early, late or on a stale table cannot produce the same bits.
fn hazard_config() -> DlrmConfig {
    DlrmConfig {
        tables: [(7, 3), (5, 2), (9, 4)]
            .into_iter()
            .map(|(rows, pooling)| TableConfig {
                rows,
                pooling,
                zipf_exponent: 0.0,
            })
            .collect(),
        ..DlrmConfig::tiny()
    }
}

fn hazard_stream(seed: u64) -> SyntheticCtr {
    let cfg = hazard_config();
    SyntheticCtr::new(cfg.table_workloads(), cfg.dense_features, seed)
}

fn hazard_batches(seed: u64, steps: usize, batch: usize) -> Vec<Arc<CtrBatch>> {
    let mut data = hazard_stream(seed);
    (0..steps)
        .map(|_| Arc::new(data.next_batch(batch)))
        .collect()
}

/// Everything a trajectory leaves behind, as bits: per-step losses and
/// every table. Optimizer state is read through its only door — how the
/// slabs behind it were grown or banded is not part of it: one
/// more plain `step` on a probe batch, whose loss joins `losses`, pushes
/// every row's accumulators into the table bits (the hazard tables are
/// small enough that the probe touches every row).
#[derive(Debug, PartialEq)]
struct Trajectory {
    losses: Vec<u32>,
    tables: Vec<Vec<u32>>,
}

fn trajectory(losses: &[f32], mut trainer: Trainer) -> Trajectory {
    let probe = hazard_batches(1234, 1, 64).remove(0);
    let probe_loss = trainer.step(&probe).unwrap().loss;
    Trajectory {
        losses: losses
            .iter()
            .chain([&probe_loss])
            .map(|l| l.to_bits())
            .collect(),
        tables: (0..trainer.model().num_tables())
            .map(|t| {
                let table = trainer.model().table(t);
                table.as_slice().iter().map(|v| v.to_bits()).collect()
            })
            .collect(),
    }
}

/// Checks every completion's `gathered_ahead` against what the queue says
/// it must be: all tables when the previous completion left this step
/// queued behind it, none otherwise.
struct AheadCheck {
    tables: usize,
    expect_adoption: bool,
    adopted: usize,
    losses: Vec<f32>,
}

impl AheadCheck {
    fn new(tables: usize) -> Self {
        Self {
            tables,
            expect_adoption: false,
            adopted: 0,
            losses: Vec::new(),
        }
    }

    /// One completion; `left_in_flight` is the queue length right after it.
    fn completed(&mut self, report: &StepReport, left_in_flight: usize, context: &str) {
        let want = if self.expect_adoption { self.tables } else { 0 };
        assert_eq!(
            report.gathered_ahead,
            want,
            "{context}: step {} adopted {} tables",
            self.losses.len(),
            report.gathered_ahead
        );
        self.adopted += usize::from(report.gathered_ahead > 0);
        self.expect_adoption = left_in_flight > 0;
        self.losses.push(report.loss);
    }

    /// The completions of one `finish` call.
    fn drained(&mut self, done: &[(StepReport, Arc<CtrBatch>)], lp: &TrainLoop, context: &str) {
        for (i, (report, _)) in done.iter().enumerate() {
            self.completed(report, lp.in_flight() + done.len() - 1 - i, context);
        }
    }
}

/// Pushes `batches` through `lp` the way `TrainLoop::run` does, draining
/// the queue once mid-stream (as a checkpoint boundary would), and checks
/// every completion's `gathered_ahead`.
fn drive_checked(lp: &mut TrainLoop, batches: &[Arc<CtrBatch>], context: &str) -> AheadCheck {
    let mut check = AheadCheck::new(lp.trainer().model().num_tables());
    for (i, batch) in batches.iter().enumerate() {
        if let Some((report, _)) = lp.push(Arc::clone(batch)).unwrap() {
            check.completed(&report, lp.in_flight(), context);
        }
        if i == batches.len() / 2 {
            let done = lp.finish().unwrap();
            check.drained(&done, lp, context);
        }
    }
    let done = lp.finish().unwrap();
    check.drained(&done, lp, context);
    assert_eq!(check.losses.len(), batches.len(), "{context}");
    check
}

/// THE gather-ahead property, exhaustively: `TrainLoop` at depths
/// {0, 1, 2, 4}, over serial and pooled
/// execution, both backward modes, all five optimizers, on the hazard
/// stream — losses, tables and optimizer state end bit-equal to the
/// serial `Trainer::step` loop, and every
/// step that was queued behind its predecessor adopted its gather.
#[test]
fn gather_ahead_matrix_is_bit_identical_to_the_step_loop() {
    let (steps, batch) = (9, 16);
    let batches = hazard_batches(5, steps, batch);
    let pools = [2, 3].map(|n| Arc::new(tensor_casting::tensor::Pool::new(n)));
    let executions = [
        Execution::Serial,
        Execution::Pooled(Arc::clone(&pools[0])),
        Execution::Pooled(Arc::clone(&pools[1])),
    ];
    for mode in [BackwardMode::Baseline, BackwardMode::Casted] {
        for opt in OPTIMIZERS {
            let mut reference = Trainer::with_optimizer(hazard_config(), mode, opt, 77).unwrap();
            let losses: Vec<f32> = batches
                .iter()
                .map(|b| reference.step(b).unwrap().loss)
                .collect();
            let want = trajectory(&losses, reference);
            for execution in &executions {
                for depth in [0, 1, 2, 4] {
                    let context = format!("{mode:?} {opt:?} {execution:?} depth {depth}");
                    let trainer =
                        Trainer::with_execution(hazard_config(), mode, opt, execution.clone(), 77)
                            .unwrap();
                    let mut lp = TrainLoop::new(trainer, depth);
                    let check = drive_checked(&mut lp, &batches, &context);
                    // At depth >= 1, every step but the first of the stream
                    // and the first after the mid-stream drain.
                    let adopted = if depth == 0 { 0 } else { steps - 2 };
                    assert_eq!(check.adopted, adopted, "{context}");
                    let got = trajectory(&check.losses, lp.into_trainer());
                    assert!(got == want, "{context}: diverged from the step loop");
                }
            }
        }
    }
}

/// The benchmark's batch ring hands the loop the same `Arc` every 16th
/// step; the limit case is a one-batch ring. The gather held for "this
/// batch" is keyed by the step count too, so each step adopts the gather
/// made after its predecessor's scatter and never an older one.
#[test]
fn one_batch_ring_stays_bit_identical() {
    let batch = hazard_batches(11, 1, 16).remove(0);
    let steps = 8;
    for mode in [BackwardMode::Baseline, BackwardMode::Casted] {
        let opt = EmbeddingOptimizer::Adagrad { eps: 1e-8 };
        let mut reference = Trainer::with_optimizer(hazard_config(), mode, opt, 3).unwrap();
        let losses: Vec<f32> = (0..steps)
            .map(|_| reference.step(&batch).unwrap().loss)
            .collect();
        let want = trajectory(&losses, reference);
        for depth in [1, 2] {
            let context = format!("{mode:?} depth {depth}");
            let trainer = Trainer::with_optimizer(hazard_config(), mode, opt, 3).unwrap();
            let mut lp = TrainLoop::new(trainer, depth);
            let ring = vec![Arc::clone(&batch); steps];
            let check = drive_checked(&mut lp, &ring, &context);
            assert_eq!(check.adopted, steps - 2, "{context}");
            let got = trajectory(&check.losses, lp.into_trainer());
            assert!(got == want, "{context}: diverged from the step loop");
        }
    }
}

/// `good` with one of its parts made hostile.
fn hostile_batches(good: &CtrBatch) -> Vec<(&'static str, CtrBatch)> {
    let cfg = hazard_config();
    let with_indices = |indices: Vec<IndexArray>| CtrBatch {
        indices: indices.into(),
        ..good.clone()
    };
    let mut out_of_range = good.indices.to_vec();
    let past_the_table = cfg.tables[1].rows as u32;
    out_of_range[1] =
        IndexArray::from_samples(&vec![vec![0, past_the_table]; good.batch_size()]).unwrap();
    let mut ragged = good.indices.to_vec();
    ragged[2] = IndexArray::from_samples(&vec![vec![1]; good.batch_size() / 2]).unwrap();
    let wide_dense = CtrBatch {
        dense: Matrix::zeros(good.batch_size(), cfg.dense_features + 1),
        ..good.clone()
    };
    vec![
        ("out-of-range id", with_indices(out_of_range)),
        // Its gathers succeed; the bottom forward a completion runs ahead
        // for it does not, and must not be adopted.
        ("wrong dense width", wide_dense),
        (
            "wrong table count",
            with_indices(good.indices[..2].to_vec()),
        ),
        ("ragged index array", with_indices(ragged)),
        // Regression: the mean over zero samples trained on `0/0 = NaN`
        // and counted as a step.
        ("empty batch", hazard_stream(0).next_batch(0)),
    ]
}

/// A hostile batch queued behind a good step: the good step completes
/// with the bits it would have had with no lookahead, the gather-ahead
/// that tripped over the bad batch is dropped without a trace, and the bad
/// step fails with the very error the plain `step` loop reports — after
/// which valid steps continue bit-identically, to the end state of a run
/// that never saw the bad batch. The same serial and pooled, at depths 1
/// and 2.
#[test]
fn hostile_successor_fails_in_its_own_step_with_the_same_error() {
    let good = hazard_batches(21, 5, 16);
    let pool = Arc::new(tensor_casting::tensor::Pool::new(2));
    let schedules = [Execution::Serial, Execution::Pooled(pool)]
        .into_iter()
        .flat_map(|execution| [1, 2].map(|depth| (execution.clone(), depth)));
    for (kind, bad) in hostile_batches(&good[2]) {
        let mut stream: Vec<Arc<CtrBatch>> = good.clone();
        stream[2] = Arc::new(bad);
        for mode in [BackwardMode::Baseline, BackwardMode::Casted] {
            let opt = EmbeddingOptimizer::Momentum { mu: 0.9 };
            let mut reference = Trainer::with_optimizer(hazard_config(), mode, opt, 9).unwrap();
            let want: Vec<Result<u32, EmbeddingError>> = stream
                .iter()
                .map(|b| reference.step(b).map(|r| r.loss.to_bits()))
                .collect();
            assert!(want[2].is_err(), "{kind}: the reference must reject it");
            assert_eq!(want.iter().filter(|r| r.is_err()).count(), 1, "{kind}");
            let end = trajectory(&[], reference);
            let mut unharmed = Trainer::with_optimizer(hazard_config(), mode, opt, 9).unwrap();
            for batch in good.iter().take(2).chain(&good[3..]) {
                unharmed.step(batch).unwrap();
            }
            assert!(
                trajectory(&[], unharmed) == end,
                "{kind} {mode:?}: the rejected step left a trace"
            );

            for (execution, depth) in schedules.clone() {
                let context = format!("{kind} {mode:?} {execution:?} depth {depth}");
                let trainer =
                    Trainer::with_execution(hazard_config(), mode, opt, execution, 9).unwrap();
                let mut lp = TrainLoop::new(trainer, depth);
                let mut got = Vec::new();
                for batch in &stream {
                    match lp.push(Arc::clone(batch)) {
                        Ok(Some((report, _))) => got.push(Ok(report.loss.to_bits())),
                        Ok(None) => {}
                        Err(e) => got.push(Err(e)),
                    }
                }
                while lp.in_flight() > 0 {
                    match lp.finish() {
                        Ok(done) => got.extend(done.iter().map(|(r, _)| Ok(r.loss.to_bits()))),
                        Err(e) => got.push(Err(e)),
                    }
                }
                assert_eq!(got, want, "{context}");
                let trainer = lp.into_trainer();
                assert_eq!(
                    trainer.steps(),
                    4,
                    "{context}: a failed step does not count"
                );
                if let Some(stats) = trainer.pipeline_stats() {
                    assert_eq!(stats.jobs_completed, 5, "{context}: ticket not drained");
                }
                assert!(
                    trajectory(&[], trainer) == end,
                    "{context}: tables or optimizer state diverged"
                );
            }
        }
    }
}

/// An empty batch is refused before anything is read or written: not even
/// the gather a completion ran ahead for the step queued behind it is lost.
#[test]
fn an_empty_batch_leaves_a_held_gather_ahead_alone() {
    let batches = hazard_batches(23, 2, 16);
    let empty = hazard_stream(0).next_batch(0);
    for mode in [BackwardMode::Baseline, BackwardMode::Casted] {
        let mut trainer = Trainer::new(hazard_config(), mode, 9).unwrap();
        trainer
            .complete_step(&batches[0], Some(&batches[1]))
            .unwrap();
        let err = trainer.step(&empty).unwrap_err();
        assert!(matches!(err, EmbeddingError::InvalidIndex(_)), "{err}");
        assert_eq!(trainer.steps(), 1, "{mode:?}");
        let report = trainer.step(&batches[1]).unwrap();
        assert_eq!(report.gathered_ahead, 3, "{mode:?}");
        assert!(report.loss.is_finite());
    }
}

/// A panic on the gather-ahead lane resurfaces on the training thread, out
/// of the completion that spawned the task, and the loop still drains.
#[test]
fn lane_panic_resurfaces_on_the_training_thread() {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    let pool = Arc::new(tensor_casting::tensor::Pool::new(2));
    for execution in [Execution::Serial, Execution::Pooled(pool)] {
        let batches = hazard_batches(31, 4, 16);
        let mut trainer = Trainer::with_execution(
            hazard_config(),
            BackwardMode::Casted,
            EmbeddingOptimizer::Sgd,
            execution.clone(),
            1,
        )
        .unwrap();
        let plan = FaultPlan::new();
        plan.arm(GATHER_AHEAD_FAULT_SITE, 4); // step 1's gather-ahead, table 1
        trainer.set_fault_plan(plan.clone());
        let mut lp = TrainLoop::new(trainer, 1);
        assert!(lp.push(Arc::clone(&batches[0])).unwrap().is_none());
        let (first, _) = lp.push(Arc::clone(&batches[1])).unwrap().unwrap();
        assert_eq!(first.gathered_ahead, 0);
        let panic = catch_unwind(AssertUnwindSafe(|| lp.push(Arc::clone(&batches[2]))))
            .expect_err("the lane's panic must reach the training thread");
        let message = panic
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "<non-string panic>".into());
        assert!(
            message.contains(GATHER_AHEAD_FAULT_SITE),
            "{execution:?}: unexpected panic: {message}"
        );
        assert_eq!(plan.fired(), vec![(GATHER_AHEAD_FAULT_SITE.to_string(), 4)]);
        // Nothing was adopted from the scope that panicked, the lane is
        // still alive, and the queue drains instead of hanging.
        let rest = lp.finish().unwrap();
        assert_eq!(rest.len(), 1, "{execution:?}");
        assert_eq!(rest[0].0.gathered_ahead, 0, "{execution:?}");
        assert!(rest[0].0.loss.is_finite());
    }
}

/// A panic in the cast task resurfaces on the training thread, out of the
/// step whose dense phases it ran beside — from the trainer's own lane as
/// from a caller's pool, for a completion with a successor and for a plain
/// step on a model whose dense GEMMs split — naming its site. That step
/// counts for nothing and changes no parameter (every update waits for the
/// scope's join), so taken again it and its successors train bit for bit
/// as a run that never saw the fault.
#[test]
fn cast_ahead_panic_resurfaces_and_the_next_step_trains_bit_identically() {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    let batches = hazard_batches(71, 3, 16);
    let pool = Arc::new(tensor_casting::tensor::Pool::new(2));
    for (config, lookahead) in [(hazard_config(), true), (wide_config(), false)] {
        for execution in [Execution::Serial, Execution::Pooled(Arc::clone(&pool))] {
            let context = format!("{execution:?} lookahead {lookahead}");
            let mk = || {
                let optimizer = EmbeddingOptimizer::Sgd;
                let mode = BackwardMode::Casted;
                Trainer::with_execution(config.clone(), mode, optimizer, execution.clone(), 5)
                    .unwrap()
            };
            let mut clean = mk();
            assert_eq!(clean.model().dense_splits_at(16), !lookahead, "{context}");
            let want: Vec<u32> = batches
                .iter()
                .map(|b| clean.step(b).unwrap().loss.to_bits())
                .collect();

            let mut trainer = mk();
            let plan = FaultPlan::new();
            plan.arm(CAST_AHEAD_FAULT_SITE, 0);
            trainer.set_fault_plan(plan.clone());
            let next = lookahead.then_some(&batches[1]);
            let panic = catch_unwind(AssertUnwindSafe(|| {
                trainer.complete_step(&batches[0], next)
            }))
            .expect_err("the cast's panic must reach the training thread");
            let message = panic
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_else(|| "<non-string panic>".into());
            assert!(
                message.contains(CAST_AHEAD_FAULT_SITE),
                "{context}: unexpected panic: {message}"
            );
            assert_eq!(plan.fired(), vec![(CAST_AHEAD_FAULT_SITE.to_string(), 0)]);
            assert_eq!(trainer.steps(), 0, "{context}");
            for (batch, want) in batches.iter().zip(&want) {
                let got = trainer.step(batch).unwrap().loss.to_bits();
                assert_eq!(got, *want, "{context}");
            }
            assert!(
                trajectory(&[], trainer) == trajectory(&[], clean),
                "{context}"
            );
        }
    }
}

/// The held gather dies with the table bits it read, and the held bottom
/// output with the MLP bits it read: restoring a checkpoint between two
/// completions — one that even carries the step count they were keyed
/// on — makes the next step gather and run its bottom forward in-step
/// from the restored model. The held cast goes with them: that step casts
/// in-step too. The same with a bottom MLP whose GEMMs split.
#[test]
fn checkpoint_restore_between_completions_drops_the_held_gather() {
    use tensor_casting::dlrm::checkpoint::{read_train_checkpoint, save_train_checkpoint};
    let batches = hazard_batches(41, 2, 16);
    for config in [hazard_config(), wide_config()] {
        let mk = |seed| {
            Trainer::with_optimizer(
                config.clone(),
                BackwardMode::Casted,
                EmbeddingOptimizer::Sgd,
                seed,
            )
            .unwrap()
        };
        // One step of a differently seeded model: other table and MLP
        // bits, steps == 1.
        let mut donor = mk(99);
        donor.step(&batches[1]).unwrap();
        let mut bytes = Vec::new();
        save_train_checkpoint(&mut bytes, &donor, None, None).unwrap();
        let ckpt = read_train_checkpoint(&mut bytes.as_slice()).unwrap();

        let mut reference = mk(1);
        ckpt.restore_into(&mut reference).unwrap();
        let want = reference.step(&batches[1]).unwrap();

        let mut trainer = mk(1);
        trainer
            .complete_step(&batches[0], Some(&batches[1]))
            .unwrap();
        assert_eq!(trainer.steps(), 1);
        let casts = |t: &Trainer| t.pipeline_stats().unwrap().jobs_completed;
        assert_eq!(
            casts(&trainer),
            2,
            "the completion casts itself and its successor"
        );
        let bottom = |t: &Trainer| t.model().bottom().layers()[0].weight().as_slice().to_vec();
        let held_against = bottom(&trainer);
        ckpt.restore_into(&mut trainer).unwrap();
        assert_ne!(
            bottom(&trainer),
            held_against,
            "the restore moved the bottom MLP"
        );
        let got = trainer.step(&batches[1]).unwrap();
        assert_eq!(got.gathered_ahead, 0, "a stale gather was adopted");
        assert_eq!(casts(&trainer), 3, "the held cast outlived the restore");
        if !trainer.model().dense_splits_at(16) {
            // No lane (nothing splits, no successor): the step cast itself,
            // exposed. With a lane the cast may hide under the dense phases.
            assert!(got.exposed_cast_wait > std::time::Duration::ZERO);
        }
        assert_eq!(got.loss.to_bits(), want.loss.to_bits());
        assert!(trajectory(&[], trainer) == trajectory(&[], reference));
    }
}

// ---------------------------------------------------------------------
// Two-core dense phases: a trainer without a pool still hands its lane
// half of every GEMM large enough to split. The hazard model with a
// bottom MLP whose middle layer reaches the split floor at batch 16.

fn wide_config() -> DlrmConfig {
    DlrmConfig {
        bottom_mlp: vec![512, 512, 16],
        ..hazard_config()
    }
}

/// The per-step loss bits and the checkpoint bytes three schedules leave
/// behind — `Trainer::step` (dense phases split with the lane), a depth-2
/// `TrainLoop` (the lane also gathers ahead) and a lent three-worker pool
/// (four bands a GEMM, the training thread's included) — are the same, in
/// both backward modes.
#[test]
fn split_dense_phases_train_bit_identically_through_every_schedule() {
    use tensor_casting::dlrm::checkpoint::save_train_checkpoint;
    let batches = hazard_batches(51, 4, 16);
    let checkpoint = |trainer: &Trainer| {
        let mut bytes = Vec::new();
        save_train_checkpoint(&mut bytes, trainer, None, None).unwrap();
        bytes
    };
    for mode in [BackwardMode::Baseline, BackwardMode::Casted] {
        // SGD: the schedules differ only in the dense phases; every
        // embedding kernel runs on the training thread under each one.
        let mk = |execution| {
            let optimizer = EmbeddingOptimizer::Sgd;
            Trainer::with_execution(wide_config(), mode, optimizer, execution, 7).unwrap()
        };
        let mut plain = mk(Execution::Serial);
        assert!(plain.model().dense_splits_at(16));
        let want: Vec<u32> = batches
            .iter()
            .map(|b| plain.step(b).unwrap().loss.to_bits())
            .collect();
        let want_bytes = checkpoint(&plain);

        let pool = Arc::new(tensor_casting::tensor::Pool::new(3));
        for execution in [Execution::Serial, Execution::Pooled(pool)] {
            let context = format!("{mode:?} {execution:?}");
            let mut lp = TrainLoop::new(mk(execution), 2);
            let check = drive_checked(&mut lp, &batches, &context);
            assert!(check.adopted > 0, "{context}: nothing gathered ahead");
            let got: Vec<u32> = check.losses.iter().map(|l| l.to_bits()).collect();
            assert_eq!(got, want, "{context}");
            assert!(checkpoint(lp.trainer()) == want_bytes, "{context}");
        }
    }
}

/// A panic in a GEMM band of the dense backward resurfaces on the training
/// thread out of the step that spawned it — from the trainer's own lane as
/// from a caller's pool — and the trainer then takes the same steps as one
/// that never saw it.
#[test]
fn dense_gemm_panic_resurfaces_and_the_next_step_runs() {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    let batches = hazard_batches(61, 3, 16);
    let pool = Arc::new(tensor_casting::tensor::Pool::new(2));
    for execution in [Execution::Serial, Execution::Pooled(pool)] {
        let mk = || {
            let optimizer = EmbeddingOptimizer::Sgd;
            Trainer::with_execution(
                wide_config(),
                BackwardMode::Casted,
                optimizer,
                execution.clone(),
                3,
            )
            .unwrap()
        };
        let mut clean = mk();
        let want: Vec<u32> = batches
            .iter()
            .map(|b| clean.step(b).unwrap().loss.to_bits())
            .collect();

        let mut trainer = mk();
        let plan = FaultPlan::new();
        plan.arm(DENSE_GEMM_FAULT_SITE, 1);
        trainer.set_fault_plan(plan.clone());
        assert_eq!(trainer.step(&batches[0]).unwrap().loss.to_bits(), want[0]);
        let panic = catch_unwind(AssertUnwindSafe(|| trainer.step(&batches[1])))
            .expect_err("the band's panic must reach the training thread");
        let message = panic
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or("<not a str>");
        assert!(
            message.contains("poisoned pool task"),
            "{execution:?}: {message}"
        );
        assert_eq!(plan.fired(), vec![(DENSE_GEMM_FAULT_SITE.to_string(), 1)]);
        // The step that panicked changed no parameter (the dense update
        // comes after the backward) and counted for nothing: taken again,
        // it and its successor match the clean run bit for bit.
        assert_eq!(trainer.steps(), 1, "{execution:?}");
        for (batch, want) in batches[1..].iter().zip(&want[1..]) {
            let got = trainer.step(batch).unwrap().loss.to_bits();
            assert_eq!(got, *want, "{execution:?}");
        }
        assert!(
            trajectory(&[], trainer) == trajectory(&[], clean),
            "{execution:?}"
        );
    }
}

/// The same fault on the successor path, where the bottom MLP's backward
/// would otherwise run on the lane beside the embedding backward: the
/// wide model's head does not split, so the poisoned band is the bottom
/// MLP's. The step whose fault fires keeps its whole dense backward on the
/// training thread, so its panic still comes before any update: it counts
/// for nothing, holds nothing for its successor, and taken again it and
/// its successor match the clean run bit for bit.
#[test]
fn dense_gemm_panic_on_the_successor_path_changes_nothing() {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    let batches = hazard_batches(63, 3, 16);
    let pool = Arc::new(tensor_casting::tensor::Pool::new(2));
    for mode in [BackwardMode::Baseline, BackwardMode::Casted] {
        for execution in [Execution::Serial, Execution::Pooled(Arc::clone(&pool))] {
            let context = format!("{mode:?} {execution:?}");
            let mk = || {
                let optimizer = EmbeddingOptimizer::Sgd;
                Trainer::with_execution(wide_config(), mode, optimizer, execution.clone(), 3)
                    .unwrap()
            };
            let mut clean = mk();
            assert!(
                !clean.model().top().splits_at(16),
                "the head must not split"
            );
            let want: Vec<u32> = batches
                .iter()
                .map(|b| clean.step(b).unwrap().loss.to_bits())
                .collect();

            let mut trainer = mk();
            let plan = FaultPlan::new();
            plan.arm(DENSE_GEMM_FAULT_SITE, 1);
            trainer.set_fault_plan(plan.clone());
            let [first, second, third] = [0, 1, 2].map(|i| &batches[i]);
            let got = trainer.complete_step(first, Some(second)).unwrap();
            assert_eq!(got.loss.to_bits(), want[0], "{context}");
            let panic = catch_unwind(AssertUnwindSafe(|| {
                trainer.complete_step(second, Some(third))
            }))
            .expect_err("the band's panic must reach the training thread");
            let message = panic
                .downcast_ref::<&str>()
                .copied()
                .unwrap_or("<not a str>");
            assert!(
                message.contains("poisoned pool task"),
                "{context}: {message}"
            );
            assert_eq!(plan.fired(), vec![(DENSE_GEMM_FAULT_SITE.to_string(), 1)]);
            assert_eq!(trainer.steps(), 1, "{context}");
            let got = trainer.complete_step(second, Some(third)).unwrap();
            assert_eq!(
                got.gathered_ahead, 0,
                "{context}: the panicked step held work"
            );
            assert_eq!(got.loss.to_bits(), want[1], "{context}");
            let got = trainer.step(third).unwrap();
            assert_eq!(got.gathered_ahead, 3, "{context}");
            assert_eq!(got.loss.to_bits(), want[2], "{context}");
            assert!(
                trajectory(&[], trainer) == trajectory(&[], clean),
                "{context}"
            );
        }
    }
}

/// A successor with another row count than its predecessor still has its
/// gather and its bottom forward run ahead, at its own rows, and adopts
/// both: every queued step adopts, and the losses and tables match the
/// plain step loop — on a bottom MLP that splits at some of these row
/// counts and not at others, too.
#[test]
fn successors_of_other_row_counts_adopt_and_train_bit_identically() {
    let rows = [16, 7, 16, 32, 1, 12, 16];
    let mut data = hazard_stream(67);
    let batches: Vec<Arc<CtrBatch>> = rows.iter().map(|&n| Arc::new(data.next_batch(n))).collect();
    for config in [hazard_config(), wide_config()] {
        for mode in [BackwardMode::Baseline, BackwardMode::Casted] {
            let opt = EmbeddingOptimizer::Adagrad { eps: 1e-8 };
            let mut reference = Trainer::with_optimizer(config.clone(), mode, opt, 13).unwrap();
            let losses: Vec<f32> = batches
                .iter()
                .map(|b| reference.step(b).unwrap().loss)
                .collect();
            let want = trajectory(&losses, reference);
            for depth in [1, 2] {
                let context = format!("{:?} {mode:?} depth {depth}", config.bottom_mlp);
                let trainer = Trainer::with_optimizer(config.clone(), mode, opt, 13).unwrap();
                let mut lp = TrainLoop::new(trainer, depth);
                let check = drive_checked(&mut lp, &batches, &context);
                assert_eq!(check.adopted, rows.len() - 2, "{context}");
                let got = trajectory(&check.losses, lp.into_trainer());
                assert!(got == want, "{context}: diverged from the step loop");
            }
        }
    }
}

/// Eight `Trainer::step` losses and the FNV-1a checksum of the training
/// checkpoint after them, as the commit before the dense stack became one
/// path produced them (SGD) and as the commit before a shard became a
/// fence did at one shard (Adagrad losses): `DlrmConfig::tiny()` at batch
/// 24 and the wide hazard model (one layer on the split floor) at batch
/// 16, both backward modes, serially and on a two-thread pool. The
/// Adagrad checksums are the ones the commit before every scatter grew
/// its state through one band wrote on that pool (its serial scatter grew
/// the slabs past the last row). Every other test here compares
/// schedules within one build; these constants compare builds. The same
/// under every `TCAST_KERNEL` tier.
#[test]
fn step_losses_and_checkpoint_bytes_match_the_pinned_build() {
    use tensor_casting::dlrm::checkpoint::save_train_checkpoint;
    type Pinned = ([u32; 8], u64);
    const TINY_LOSSES: [u32; 8] = [
        0x3f3eaa49, 0x3f2d12d7, 0x3f31ad57, 0x3f375ae9, 0x3f30f3ed, 0x3f3559c1, 0x3f2facc8,
        0x3f2fc81f,
    ];
    const WIDE_LOSSES: [u32; 8] = [
        0x3f2e63ee, 0x3f31e0db, 0x3f2e9cd6, 0x3f31b2fa, 0x3f2e6964, 0x3f35ae49, 0x3f2ffe13,
        0x3f32228d,
    ];
    const TINY: [Pinned; 2] = [
        (TINY_LOSSES, 0x2ee43725514ee0e3),
        (TINY_LOSSES, 0xc719a8e78e37c818),
    ];
    const WIDE: [Pinned; 2] = [
        (WIDE_LOSSES, 0xc05681e40be60dcb),
        (WIDE_LOSSES, 0x36312257824610a0),
    ];
    const TINY_ADAGRAD_LOSSES: [u32; 8] = [
        0x3f3eaa49, 0x3f2c3f1d, 0x3f316295, 0x3f35dc58, 0x3f33d9cd, 0x3f32e0bb, 0x3f2b2b69,
        0x3f2f2313,
    ];
    const WIDE_ADAGRAD_LOSSES: [u32; 8] = [
        0x3f2e63ee, 0x3f3978e0, 0x3f3626b5, 0x3f360343, 0x3f2efae3, 0x3f332f8f, 0x3f30d1f5,
        0x3f2cb8c0,
    ];
    const TINY_ADAGRAD: [Pinned; 2] = [
        (TINY_ADAGRAD_LOSSES, 0xe51eb3a2f5c16de2),
        (TINY_ADAGRAD_LOSSES, 0xae01ca634266f801),
    ];
    const WIDE_ADAGRAD: [Pinned; 2] = [
        (WIDE_ADAGRAD_LOSSES, 0xd56ab712e6465e8d),
        (WIDE_ADAGRAD_LOSSES, 0xd79eb38eb2b9eec6),
    ];
    let adagrad = EmbeddingOptimizer::Adagrad { eps: 1e-8 };
    let mut tiny_stream = stream(77);
    let tiny: Vec<Arc<CtrBatch>> = (0..8)
        .map(|_| Arc::new(tiny_stream.next_batch(24)))
        .collect();
    let wide = hazard_batches(78, 8, 16);
    let pool = Arc::new(tensor_casting::tensor::Pool::new(2));
    for (config, batches, opt, pinned) in [
        (DlrmConfig::tiny(), &tiny, EmbeddingOptimizer::Sgd, TINY),
        (wide_config(), &wide, EmbeddingOptimizer::Sgd, WIDE),
        (DlrmConfig::tiny(), &tiny, adagrad, TINY_ADAGRAD),
        (wide_config(), &wide, adagrad, WIDE_ADAGRAD),
    ] {
        for (mode, pinned) in [BackwardMode::Baseline, BackwardMode::Casted]
            .into_iter()
            .zip(pinned)
        {
            let schedules = [
                ("serial", Execution::Serial),
                ("pooled", Execution::Pooled(Arc::clone(&pool))),
            ];
            for (schedule, execution) in schedules {
                let context = format!("{mode:?} {opt:?} {schedule}");
                let mut trainer =
                    Trainer::with_execution(config.clone(), mode, opt, execution, 13).unwrap();
                let losses: Vec<u32> = batches
                    .iter()
                    .map(|b| trainer.step(b).unwrap().loss.to_bits())
                    .collect();
                let mut bytes = Vec::new();
                save_train_checkpoint(&mut bytes, &trainer, None, None).unwrap();
                let checksum = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
                    (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
                });
                assert_eq!(
                    (&losses[..], checksum),
                    (&pinned.0[..], pinned.1),
                    "{context}"
                );
            }
        }
    }
}
