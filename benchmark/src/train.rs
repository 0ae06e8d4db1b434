//! The two training workloads: `train_embed` (the paper's regime — the
//! embedding layers are most of the step) and `train_dense` (the MLP
//! GEMMs are the step). Same loop, different shape.
//!
//! Every step goes through `TrainLoop::push` at depth 2 with
//! `Execution::Serial`, fed from a ring of batches generated before the
//! clock starts: the only second thread is the casting worker, so the
//! process never has more runnable threads than this host has cores.

use std::sync::Arc;
use std::time::Instant;

use crate::alloc::allocations;
use crate::host::{between, Gemm, HostProbe};
use crate::json::Value;
use crate::layers;
use crate::stats::{
    max_of, mean, median, min_of, percentile, quiet_rate, quiet_time, top_percentile,
};
use crate::trace::{Tracer, NO_PARENT};
use crate::workloads::{
    derive_seed, peak_rss_mb, Check, Metrics, RunOptions, RunResult, LEARNING_RATE,
};
use tcast_core::PipelineStats;
use tcast_datasets::{BatchSource, CtrBatch, SyntheticCtr, SyntheticSource};
use tcast_dlrm::{
    BackwardMode, DlrmConfig, EmbeddingOptimizer, Execution, StepReport, TrainLoop, Trainer,
};
use tcast_embedding::IndexArray;
use tcast_pool::Pool;
use tcast_tensor::KernelDispatch;

/// Casting lookahead of the loop under test.
const DEPTH: usize = 2;
/// Pre-generated batches the rounds cycle through.
const RING: usize = 16;
/// Losses compared against the recorded reference.
const REFERENCE_STEPS: usize = 32;
/// Baseline-mode rounds interleaved into a traced run.
const BASELINE_ROUNDS: usize = 4;
/// Steps of the pooled comparison (after 3 that size its buffers).
const POOLED_STEPS: usize = 8;

pub struct TrainSpec {
    pub name: &'static str,
    config: fn(quick: bool) -> DlrmConfig,
    batch: usize,
    /// Steps per round at `RUN_SECONDS`, frozen at the seed commit so a
    /// round takes about 0.55 s on the reference host.
    steps_per_round: usize,
    /// Bit patterns of the first `REFERENCE_STEPS` losses at `--seed 1`
    /// on a bit-identical kernel tier (scalar or avx2).
    reference: [u32; REFERENCE_STEPS],
}

/// RM1 shape at 400k rows per table: 10 tables x 400k x 64 f32 = 1.0 GB,
/// four times this host's shared L3, so the gathers always miss it.
pub const TRAIN_EMBED: TrainSpec = TrainSpec {
    name: "train_embed",
    config: |quick| DlrmConfig::rm1_scaled(if quick { 20_000 } else { 400_000 }),
    batch: 512,
    steps_per_round: 10,
    reference: [
        0x401e16a3, 0x40414024, 0x3fcb8802, 0x3f9a69e6, 0x3f82c3fa, 0x3f65aa3c, 0x3f81975c,
        0x3f6a8e33, 0x3f67a4c9, 0x3f73f24c, 0x3f660adf, 0x3f61355a, 0x3f60a218, 0x3f65f084,
        0x3f6070d0, 0x3f525d39, 0x3f585f93, 0x3f4929b9, 0x3f550bb0, 0x3f483018, 0x3f4f72a9,
        0x3f435895, 0x3f4e9758, 0x3f513210, 0x3f4b4e1a, 0x3f50e3a3, 0x3f4c06c3, 0x3f46e146,
        0x3f49ff58, 0x3f507d37, 0x3f4741dd, 0x3f431f00,
    ],
};

/// RM3 shape: the 2560-512-64 bottom stack makes the GEMMs ~95% of the
/// step; the tables (pooling 20) are there so the shape stays a DLRM.
pub const TRAIN_DENSE: TrainSpec = TrainSpec {
    name: "train_dense",
    config: |quick| DlrmConfig::rm3_scaled(if quick { 10_000 } else { 200_000 }),
    batch: 64,
    steps_per_round: 12,
    reference: [
        0x3f35bdb3, 0x3f3a8f94, 0x3f30d50e, 0x3f3cd72d, 0x3f308600, 0x3f2f7d26, 0x3f38b73a,
        0x3f3355aa, 0x3f31b2c1, 0x3f30a76c, 0x3f321159, 0x3f2ffe72, 0x3f39ffa1, 0x3f3700c8,
        0x3f302c01, 0x3f305776, 0x3f344c7a, 0x3f37a7b9, 0x3f2f4b7b, 0x3f3bb647, 0x3f2deb39,
        0x3f2e836b, 0x3f37e6c7, 0x3f32218e, 0x3f301fef, 0x3f2e52a6, 0x3f30e697, 0x3f2ec317,
        0x3f37bbcc, 0x3f351f6f, 0x3f2e6b07, 0x3f2faa90,
    ],
};

/// One trainer under a `TrainLoop`, its ring and its loss history.
struct Instance {
    lp: TrainLoop,
    ring: Vec<Arc<CtrBatch>>,
    pushed: u64,
    completed: u64,
    losses: Vec<f32>,
    /// Steps that returned an error or a non-finite loss.
    failed: u64,
    /// Of those, the steps that returned an error.
    errors: u64,
    ring_build_s: f64,
}

impl Instance {
    /// A complete set-up: model and trainer, optimizer state, the batch
    /// ring (shared when `ring` is given), the loop, and the pushes up to
    /// the first completed step, which sizes every scratch buffer.
    fn build(
        spec: &TrainSpec,
        opts: &RunOptions,
        mode: BackwardMode,
        execution: Execution,
        ring: Option<Vec<Arc<CtrBatch>>>,
    ) -> Result<Self, String> {
        let cfg = (spec.config)(opts.quick);
        let mut trainer = Trainer::with_execution(
            cfg.clone(),
            mode,
            EmbeddingOptimizer::Sgd,
            execution,
            derive_seed(opts.seed, 1),
        )
        .map_err(|e| e.to_string())?;
        trainer.set_learning_rate(LEARNING_RATE);
        let t0 = Instant::now();
        let ring = ring.unwrap_or_else(|| {
            let mut source = new_source(spec, opts, &cfg);
            (0..RING)
                .map(|_| source.next_batch().expect("synthetic sources never end"))
                .collect()
        });
        let ring_build_s = t0.elapsed().as_secs_f64();
        let mut inst = Self {
            lp: TrainLoop::new(trainer, DEPTH),
            ring,
            pushed: 0,
            completed: 0,
            losses: Vec::with_capacity(1 << 12),
            failed: 0,
            errors: 0,
            ring_build_s,
        };
        while inst.completed == 0 {
            let batch = inst.next_batch();
            inst.push(batch);
            if inst.failed > 0 {
                return Err("the first training step failed".to_string());
            }
        }
        Ok(inst)
    }

    /// The ring's next batch (an `Arc` share, as a source would hand out).
    fn next_batch(&mut self) -> Arc<CtrBatch> {
        let batch = Arc::clone(&self.ring[self.pushed as usize % self.ring.len()]);
        self.pushed += 1;
        batch
    }

    /// Pushes one batch; returns the push's wall time and the step it
    /// completed (none while the lookahead fills).
    fn push(&mut self, batch: Arc<CtrBatch>) -> (u64, Option<StepReport>) {
        let t0 = Instant::now();
        let result = self.lp.push(batch);
        let ns = t0.elapsed().as_nanos() as u64;
        let report = match result {
            Ok(Some((report, _batch))) => Some(report),
            Ok(None) => None,
            Err(_) => {
                self.failed += 1;
                self.errors += 1;
                None
            }
        };
        if let Some(r) = &report {
            self.record(r);
        }
        (ns, report)
    }

    fn record(&mut self, report: &StepReport) {
        self.completed += 1;
        self.losses.push(report.loss);
        if !report.loss.is_finite() {
            self.failed += 1;
        }
    }

    fn drain(&mut self) {
        match self.lp.finish() {
            Ok(done) => {
                for (report, _) in &done {
                    self.record(report);
                }
            }
            Err(_) => {
                self.failed += 1;
                self.errors += 1;
            }
        }
    }
}

fn batch_size(spec: &TrainSpec, opts: &RunOptions) -> usize {
    if opts.quick {
        spec.batch / 4
    } else {
        spec.batch
    }
}

fn new_source(spec: &TrainSpec, opts: &RunOptions, cfg: &DlrmConfig) -> SyntheticSource {
    SyntheticSource::new(
        SyntheticCtr::new(
            cfg.table_workloads(),
            cfg.dense_features,
            derive_seed(opts.seed, 2),
        ),
        batch_size(spec, opts),
    )
}

/// One round: `steps` pushes of identical work.
struct Round {
    wall_s: f64,
    push_ms: Vec<f64>,
    reports: Vec<StepReport>,
    allocs: u64,
}

fn run_round(
    inst: &mut Instance,
    steps: usize,
    mut tracer: Option<(&mut Tracer, Instant)>,
) -> Round {
    let mut round = Round {
        wall_s: 0.0,
        push_ms: Vec::with_capacity(steps),
        reports: Vec::with_capacity(steps),
        allocs: 0,
    };
    let start = Instant::now();
    for _ in 0..steps {
        let a0 = allocations();
        let step_start = Instant::now();
        let batch = inst.next_batch();
        let next_ns = step_start.elapsed().as_nanos() as u64;
        let (ns, report) = inst.push(batch);
        round.allocs += allocations() - a0;
        round.push_ms.push(ns as f64 / 1e6);
        if let (Some((tracer, epoch)), Some(report)) = (tracer.as_mut(), &report) {
            let t0 = step_start.duration_since(*epoch).as_nanos() as u64;
            trace_step(tracer, t0, next_ns, ns, inst, report);
        }
        if let Some(report) = report {
            round.reports.push(report);
        }
    }
    round.wall_s = start.elapsed().as_secs_f64();
    round
}

/// Spans of one step of the loop, starting `t0` ns after the epoch.
/// `ring.next` belongs to the step just begun; `loop.push` and the five
/// phases under it belong to the step the push completed (`DEPTH` steps
/// earlier), which is where its time went. The phases are laid out back
/// to back in execution order, ending where the push ended: what is left
/// at the front of the push is `begin_step` and the loop's bookkeeping.
fn trace_step(
    tracer: &mut Tracer,
    t0: u64,
    next_ns: u64,
    push_ns: u64,
    inst: &Instance,
    report: &StepReport,
) {
    tracer.record("ring.next", t0, t0 + next_ns, NO_PARENT, inst.pushed - 1);
    let t0 = t0 + next_ns;
    let end = t0 + push_ns;
    let step = inst.completed - 1;
    let push = tracer.record("loop.push", t0, end, NO_PARENT, step);
    let t = report.timings;
    let phases = [
        ("embedding.fwd_gather", t.fwd_gather),
        ("tensor.fwd_dnn", t.fwd_dnn),
        ("tensor.bwd_dnn", t.bwd_dnn),
        ("core.bwd_embedding", t.bwd_embedding),
        ("embedding.bwd_scatter", t.bwd_scatter),
    ];
    let mut cursor = end.saturating_sub(t.total().as_nanos() as u64).max(t0);
    for (name, d) in phases {
        let next = cursor + d.as_nanos() as u64;
        tracer.record(name, cursor, next, push, step);
        cursor = next;
    }
}

fn rate(round: &Round, batch: usize) -> f64 {
    (round.push_ms.len() * batch) as f64 / round.wall_s
}

fn loss_checks(spec: &TrainSpec, opts: &RunOptions, losses: &[f32]) -> Vec<Check> {
    let mut checks = Vec::new();
    let finite = losses.iter().all(|l| l.is_finite());
    checks.push(Check::new(
        "losses_finite",
        finite,
        format!("{} losses", losses.len()),
    ));
    let window = (losses.len() / 2).min(RING);
    let avg = |l: &[f32]| mean(&l.iter().map(|&x| f64::from(x)).collect::<Vec<_>>());
    let (head, tail) = (
        avg(&losses[..window]),
        avg(&losses[losses.len() - window..]),
    );
    checks.push(Check::new(
        "losses_decreasing",
        window > 0 && tail < head,
        format!("mean of first {window} = {head:.6}, of last {window} = {tail:.6}"),
    ));
    let tier = tcast_tensor::simd::dispatch();
    checks.push(
        if opts.seed != 1
            || opts.quick
            || tier == KernelDispatch::Fma
            || losses.len() < REFERENCE_STEPS
        {
            Check::skipped(
                "loss_reference",
                "the reference is recorded for --seed 1, full shapes, scalar/avx2 tiers",
            )
        } else {
            let got: Vec<u32> = losses[..REFERENCE_STEPS]
                .iter()
                .map(|l| l.to_bits())
                .collect();
            let first_diff = got.iter().zip(spec.reference).position(|(a, b)| *a != b);
            Check::new(
                "loss_reference",
                first_diff.is_none(),
                match first_diff {
                    None => format!("first {REFERENCE_STEPS} loss bit patterns match"),
                    Some(i) => format!(
                        "step {i}: got {:#010x}, recorded {:#010x}; all: {got:#010x?}",
                        got[i], spec.reference[i]
                    ),
                },
            )
        },
    );
    checks
}

/// Runs one training workload.
///
/// # Errors
///
/// Returns a message when a set-up cannot be built.
pub fn run(spec: &'static TrainSpec, opts: &RunOptions) -> Result<RunResult, String> {
    let batch = batch_size(spec, opts);
    let steps = opts.units(spec.steps_per_round, 10);
    let rounds = opts.rounds();

    // Set-ups, one at a time: the previous one is dropped before the next
    // is built, so the peak is one instance. Like every gated timing they
    // are divided by the host factor read on either side (`host.rs`).
    let mut probe = HostProbe::new(Gemm::Streamed);
    let mut host = probe.factor();
    let mut setup_s = Vec::new();
    let mut setup_host = Vec::new();
    let mut inst = None;
    for _ in 0..opts.setups() {
        drop(inst.take());
        let t0 = Instant::now();
        inst = Some(Instance::build(
            spec,
            opts,
            BackwardMode::Casted,
            Execution::Serial,
            None,
        )?);
        setup_s.push(t0.elapsed().as_secs_f64());
        let after = probe.factor();
        setup_host.push(between(host, after));
        host = after;
    }
    let mut inst = inst.expect("at least one set-up");

    // Warm-up, outside the rounds: one pass over the ring and at least
    // the warm-up time.
    let warm = Instant::now();
    while inst.pushed < (RING + DEPTH + 1) as u64 || warm.elapsed().as_secs_f64() < opts.warmup_s()
    {
        let batch = inst.next_batch();
        inst.push(batch);
    }

    let mut metrics = Metrics::default();
    let mut checks = Vec::new();
    let mut tracer = opts.trace.then(|| Tracer::new(rounds * steps * 8));
    let epoch = Instant::now();
    let failed_before = inst.failed;
    let stats_before = inst.lp.trainer().pipeline_stats().unwrap_or_default();

    // The measured section. Untraced: `rounds` rounds. Traced: `rounds`
    // traced rounds, each followed by an untraced one (their best-round
    // rates give the tracing overhead), with baseline-mode rounds on a
    // second trainer interleaved.
    let mut plain: Vec<Round> = Vec::new();
    let mut traced: Vec<Round> = Vec::new();
    let mut baseline_rounds: Vec<Round> = Vec::new();
    let mut baseline = match opts.trace {
        true => Some(Instance::build(
            spec,
            opts,
            BackwardMode::Baseline,
            Execution::Serial,
            Some(inst.ring.clone()),
        )?),
        false => None,
    };
    // The host factor of each plain round, from the readings around it.
    let mut round_host = Vec::with_capacity(rounds);
    let measured = Instant::now();
    let mut host = probe.factor();
    for r in 0..rounds {
        if let Some(tracer) = tracer.as_mut() {
            traced.push(run_round(&mut inst, steps, Some((tracer, epoch))));
            host = probe.factor();
        }
        plain.push(run_round(&mut inst, steps, None));
        let after = probe.factor();
        round_host.push(between(host, after));
        host = after;
        if let Some(b) = baseline.as_mut() {
            if (r + 1) % (rounds / BASELINE_ROUNDS.min(rounds)) == 0 {
                baseline_rounds.push(run_round(b, steps, None));
            }
        }
    }
    let measured_s = measured.elapsed().as_secs_f64();
    let stats_after = inst.lp.trainer().pipeline_stats().unwrap_or_default();
    inst.drain();

    let casted: Vec<&Round> = plain.iter().chain(traced.iter()).collect();
    let attempted: u64 = casted.iter().map(|r| r.push_ms.len() as u64).sum();
    let failed = inst.failed - failed_before;
    checks.push(Check::operations_ok(inst.errors));
    checks.extend(loss_checks(spec, opts, &inst.losses));

    let rates: Vec<f64> = plain.iter().map(|r| rate(r, batch)).collect();
    let step_rounds: Vec<Vec<f64>> = plain.iter().map(|r| r.push_ms.clone()).collect();
    let mut detail = vec![
        ("batch", Value::Num(batch as f64)),
        ("steps_per_round", Value::Num(steps as f64)),
        ("rounds", Value::Num(plain.len() as f64)),
        ("measured_s", Value::Num(measured_s)),
        ("round_samples_per_s", Value::nums(&rates)),
        (
            "round_step_ms_median",
            Value::nums(&step_rounds.iter().map(|r| median(r)).collect::<Vec<_>>()),
        ),
        ("round_host_factor", Value::nums(&round_host)),
        ("step_ms", Value::nums(&step_rounds.concat())),
        ("setup_s", Value::nums(&setup_s)),
        ("setup_host_factor", Value::nums(&setup_host)),
        (
            "first_losses",
            Value::nums(
                &inst.losses[..inst.losses.len().min(REFERENCE_STEPS)]
                    .iter()
                    .map(|&l| f64::from(l))
                    .collect::<Vec<_>>(),
            ),
        ),
    ];

    if !opts.trace {
        let step_medians: Vec<f64> = step_rounds.iter().map(|r| median(r)).collect();
        metrics.set("throughput_per_s", quiet_rate(&rates, &round_host));
        metrics.set("latency_ms", quiet_time(&step_medians, &round_host));
        metrics.set("setup_s", quiet_time(&setup_s, &setup_host));
        metrics.set("peak_rss_mb", peak_rss_mb());
    } else {
        let section = Section {
            plain: &plain,
            traced: &traced,
            baseline: baseline
                .take()
                .expect("traced run builds a baseline trainer"),
            baseline_rounds: &baseline_rounds,
            casting: (stats_before, stats_after),
            round_host: &round_host,
        };
        let tracer = tracer.as_ref().expect("traced run");
        layer_metrics(
            spec,
            opts,
            &mut inst,
            section,
            tracer,
            &mut metrics,
            &mut checks,
        )?;
        detail.push((
            "traced_round_samples_per_s",
            Value::nums(&traced.iter().map(|r| rate(r, batch)).collect::<Vec<_>>()),
        ));
        detail.push((
            "baseline_round_samples_per_s",
            Value::nums(
                &baseline_rounds
                    .iter()
                    .map(|r| rate(r, batch))
                    .collect::<Vec<_>>(),
            ),
        ));
    }

    Ok(RunResult {
        workload: spec.name,
        options: *opts,
        attempted,
        failed,
        checks,
        metrics: metrics.in_order(RunResult::table(opts)),
        detail: Value::obj(detail),
        tracer,
    })
}

/// What the measured section of a traced run produced.
struct Section<'a> {
    plain: &'a [Round],
    traced: &'a [Round],
    baseline: Instance,
    baseline_rounds: &'a [Round],
    /// The casting pipeline's statistics before and after the rounds.
    casting: (PipelineStats, PipelineStats),
    /// The host factor of each plain round.
    round_host: &'a [f64],
}

/// The per-layer metrics of a traced run: phase times and counts from the
/// rounds' step reports, the baseline and pooled comparisons, and the
/// isolated sections.
fn layer_metrics(
    spec: &TrainSpec,
    opts: &RunOptions,
    inst: &mut Instance,
    section: Section<'_>,
    tracer: &Tracer,
    metrics: &mut Metrics,
    checks: &mut Vec<Check>,
) -> Result<(), String> {
    let batch = batch_size(spec, opts);
    let steps = section.plain[0].push_ms.len();
    let Section {
        plain,
        traced,
        baseline_rounds,
        casting: (stats_before, stats_after),
        ..
    } = section;
    let casted: Vec<&Round> = plain.iter().chain(traced.iter()).collect();
    let rates: Vec<f64> = plain.iter().map(|r| rate(r, batch)).collect();
    let reports: Vec<StepReport> = casted
        .iter()
        .flat_map(|r| r.reports.iter().copied())
        .collect();
    layers::step_phase_metrics(metrics, &reports);
    // One definition of the hidden fraction: the pipeline's own, over the
    // casting done during the rounds.
    let during = PipelineStats {
        casting_time: stats_after.casting_time - stats_before.casting_time,
        exposed_wait: stats_after.exposed_wait - stats_before.exposed_wait,
        ..Default::default()
    };
    metrics.set("core.cast_hidden_frac", during.hidden_fraction());

    let lookups: Vec<f64> = inst
        .ring
        .iter()
        .map(|b| count(b, IndexArray::len))
        .collect();
    let unique: Vec<f64> = inst
        .ring
        .iter()
        .map(|b| count(b, IndexArray::unique_src_count))
        .collect();
    metrics.set("embedding.lookups_per_step", mean(&lookups));
    metrics.set("embedding.unique_rows_per_step", mean(&unique));

    // The pooled distribution over every casted round of this run.
    let steps_ms: Vec<f64> = casted
        .iter()
        .flat_map(|r| r.push_ms.iter().copied())
        .collect();
    metrics.set("dlrm.step_ms_p50", percentile(&steps_ms, 50.0));
    metrics.set("dlrm.step_ms_p90", percentile(&steps_ms, 90.0));
    if let Some(top) = top_percentile(steps_ms.len()) {
        metrics.set("dlrm.step_ms_top", percentile(&steps_ms, top));
        metrics.set("dlrm.step_top_percentile", top);
    }
    metrics.set("dlrm.step_samples", steps_ms.len() as f64);
    let phase_total: f64 = reports
        .iter()
        .map(|r| r.timings.total().as_secs_f64() * 1e3)
        .sum();
    // Every push of a round completes one step (the lookahead is
    // already full), so the two sums cover the same steps.
    metrics.set(
        "dlrm.phase_sum_over_step",
        phase_total / steps_ms.iter().sum::<f64>(),
    );
    let own = tracer.self_time_ns();
    let pushes = tracer
        .spans()
        .iter()
        .filter(|s| s.name == "loop.push")
        .count();
    metrics.set(
        "dlrm.push_self_ms",
        own.get("loop.push").copied().unwrap_or(0) as f64 / 1e6 / pushes.max(1) as f64,
    );
    metrics.set(
        "dlrm.allocs_per_step",
        plain.iter().map(|r| r.allocs).sum::<u64>() as f64
            / plain.iter().map(|r| r.push_ms.len()).sum::<usize>() as f64,
    );
    metrics.set(
        "dlrm.final_loss",
        f64::from(*inst.losses.last().expect("steps ran")),
    );

    let walls: Vec<f64> = casted.iter().map(|r| r.wall_s).collect();
    metrics.set("bench.round_spread", max_of(&walls) / min_of(&walls));
    metrics.set("bench.host_factor", median(section.round_host));
    let traced_rates: Vec<f64> = traced.iter().map(|r| rate(r, batch)).collect();
    metrics.set(
        "bench.trace_overhead_frac",
        1.0 - max_of(&traced_rates) / max_of(&rates),
    );

    // The paper's headline ratio, per layer: casted over baseline.
    let mut b = section.baseline;
    b.drain();
    let base_rates: Vec<f64> = baseline_rounds.iter().map(|r| rate(r, batch)).collect();
    metrics.set(
        "dlrm.casted_over_baseline",
        max_of(&rates) / max_of(&base_rates),
    );
    let base_bwd = median(
        &baseline_rounds
            .iter()
            .flat_map(|r| r.reports.iter())
            .map(|r| r.timings.bwd_embedding.as_secs_f64() * 1e3)
            .collect::<Vec<_>>(),
    );
    let casted_bwd = median(
        &reports
            .iter()
            .map(|r| r.timings.bwd_embedding.as_secs_f64() * 1e3)
            .collect::<Vec<_>>(),
    );
    metrics.set(
        "dlrm.bwd_embedding_casted_over_baseline",
        base_bwd / casted_bwd,
    );
    // Both trainers started from the same weights and saw the ring in
    // the same order: the paper's "does not change the algorithmic
    // nature of SGD" is a bit-equality here.
    let shared = b.losses.len().min(inst.losses.len());
    let same = b.losses[..shared]
        .iter()
        .zip(&inst.losses[..shared])
        .all(|(x, y)| x.to_bits() == y.to_bits());
    checks.push(Check::new(
        "baseline_losses_bit_equal",
        same,
        format!("first {shared} losses of the baseline and casted trainers"),
    ));
    failed_guard(checks, "baseline_steps_ok", b.failed);
    drop(b);

    // `pool`: the same steps under Execution::Pooled. No end-to-end
    // run is pooled (with 2 cores it would oversubscribe the casting
    // worker); this records what the pool would buy.
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut pooled = Instance::build(
        spec,
        opts,
        BackwardMode::Casted,
        Execution::Pooled(Arc::new(Pool::new(threads))),
        Some(inst.ring.clone()),
    )?;
    let pooled_round = run_round(&mut pooled, POOLED_STEPS.min(steps), None);
    pooled.drain();
    failed_guard(checks, "pooled_steps_ok", pooled.failed);
    drop(pooled);
    metrics.set(
        "pool.pooled_over_serial",
        rate(&pooled_round, batch) / max_of(&rates),
    );
    metrics.set("pool.threads", threads as f64);

    // Isolated sections on this workload's own shapes.
    let budget = if opts.quick { 0.02 } else { 0.15 };
    let cfg = (spec.config)(opts.quick);
    let model_rows = batch;
    metrics.set("datasets.ring_build_s", inst.ring_build_s);
    layers::datasets_section(metrics, &mut new_source(spec, opts, &cfg), budget);
    layers::tensor_sections(metrics, inst.lp.trainer().model(), model_rows, budget);
    let indices = [Arc::clone(&inst.ring[0].indices)];
    layers::embedding_sections(metrics, inst.lp.trainer().model(), &indices, budget);
    if let Err(e) = layers::checkpoint_section(metrics, inst.lp.trainer_mut()) {
        checks.push(Check::new("checkpoint_round_trip", false, e));
    }

    metrics.set("bench.spans", tracer.spans().len() as f64);
    metrics.set("bench.spans_dropped", tracer.dropped() as f64);
    Ok(())
}

fn count(batch: &CtrBatch, f: fn(&IndexArray) -> usize) -> f64 {
    batch.indices.iter().map(f).sum::<usize>() as f64
}

fn failed_guard(checks: &mut Vec<Check>, name: &'static str, failed: u64) {
    checks.push(Check::new(
        name,
        failed == 0,
        format!("{failed} failed steps"),
    ));
}
