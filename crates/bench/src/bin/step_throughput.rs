//! End-to-end training-step throughput: serial vs pooled execution of
//! the casted (and baseline) DLRM training step, with per-phase timings —
//! plus a **pipeline-depth axis**: the cross-batch `TrainLoop` driver at
//! depths 0..4, recording how much casting latency each lookahead depth
//! leaves exposed (the Fig. 9b hidden-fraction metric).
//!
//! This is the repository's perf-trajectory anchor: it appends
//! machine-readable rows to `BENCH_step.json` (override with
//! `--json PATH` or the `TCAST_BENCH_JSON` environment variable) so
//! every future optimization PR can be compared against recorded data.
//! Every row carries `pipeline_depth`, `hidden_fraction` and
//! `exposed_wait_ns`.
//!
//! ```text
//! step_throughput [--batch N] [--dim D] [--steps S] [--threads T] [--json PATH]
//! ```
//!
//! Defaults: batch 4096, dim 64, 20 measured steps (2 warm-up), threads =
//! `available_parallelism`, sink `BENCH_step.json`. `FAST=1` shrinks the
//! run for smoke tests (batch 512, 4 steps, depths {0, 2}).
//!
//! The pooled/serial speedup is hardware-dependent: on a multi-core host
//! the pooled casted step must reach >= 1.5x serial at >= 4 workers; on a
//! single-core container both schedules collapse to the same wall clock
//! (the row records `cores` so readers can tell which regime produced
//! it). The exposed-wait collapse is *not* hardware-dependent: on
//! full-size runs depth >= 2 must strictly reduce the total exposed wait
//! vs depth 0, on any core count.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use std::sync::Arc;
use tcast_bench::{banner, fast_mode, json};
use tcast_datasets::{BatchSource, CtrBatch, PrefetchSource, SyntheticCtr, SyntheticSource};
use tcast_dlrm::{
    AdaptiveDepth, BackwardMode, DepthPolicy, DlrmConfig, EmbeddingOptimizer, Execution,
    PhaseTimings, ShardSpec, TableConfig, TrainLoop, Trainer,
};
use tcast_pool::Pool;

#[derive(Clone)]
struct Args {
    batch: usize,
    dim: usize,
    steps: usize,
    threads: usize,
    json: PathBuf,
}

fn parse_args() -> Args {
    let fast = fast_mode();
    let mut args = Args {
        batch: if fast { 512 } else { 4096 },
        dim: 64,
        steps: if fast { 4 } else { 20 },
        threads: tcast_pool::default_parallelism(),
        json: json::sink_from_env().unwrap_or_else(|| PathBuf::from("BENCH_step.json")),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .unwrap_or_else(|| panic!("{name} requires a value"))
        };
        match flag.as_str() {
            "--batch" => args.batch = value("--batch").parse().expect("--batch: integer"),
            "--dim" => args.dim = value("--dim").parse().expect("--dim: integer"),
            "--steps" => args.steps = value("--steps").parse().expect("--steps: integer"),
            "--threads" => args.threads = value("--threads").parse().expect("--threads: integer"),
            "--json" => args.json = PathBuf::from(value("--json")),
            other => panic!("unknown flag {other}"),
        }
    }
    args
}

/// A table-heavy config at the paper's default embedding dimension: four
/// Zipf tables, pooling 10 — the regime where embedding backward
/// dominates (Fig. 4's 62-92%).
fn bench_config(dim: usize) -> DlrmConfig {
    DlrmConfig {
        dense_features: 13,
        embedding_dim: dim,
        tables: vec![
            TableConfig {
                rows: 100_000,
                pooling: 10,
                zipf_exponent: 1.05,
            };
            4
        ],
        bottom_mlp: vec![64, dim],
        top_mlp: vec![64, 32, 1],
        interaction: tcast_tensor::InteractionKind::Dot,
    }
}

struct Measurement {
    steps_per_s: f64,
    phases: PhaseTimings,
    /// Casting latency left exposed across the measured steps (zero in
    /// baseline mode, which casts nothing).
    exposed_wait: Duration,
    /// Fraction of the measured steps' casting time hidden under
    /// training work (1.0 = fully hidden / nothing to hide).
    hidden_fraction: f64,
    /// Time the driver blocked in the source's `next_batch` — exposed
    /// batch-generation latency. Zero for the fixed-batch
    /// measurements (no source at all); sub-microsecond hand-off cost
    /// for the ring rows (an `Arc` clone, no generation); the real
    /// generation wait only on the live-source prefetch axis.
    gen_wait: Duration,
    /// Mean lookahead depth across the run (equals the pinned depth
    /// under a fixed policy; the controller trajectory's mean under the
    /// adaptive one).
    mean_depth: f64,
}

fn measure(mode: BackwardMode, execution: Execution, args: &Args) -> Measurement {
    measure_sharded(mode, execution, 1, args)
}

/// [`measure`] over a row-range sharded trainer: same batch, same
/// trajectory (sharded == unsharded, bit for bit), different placement —
/// per-shard optimizer slabs, per-shard casting jobs, shard-concurrent
/// scatter.
fn measure_sharded(
    mode: BackwardMode,
    execution: Execution,
    shards: usize,
    args: &Args,
) -> Measurement {
    let config = bench_config(args.dim);
    let mut data = SyntheticCtr::new(config.table_workloads(), config.dense_features, 42);
    let mut trainer = Trainer::with_sharding(
        config,
        mode,
        EmbeddingOptimizer::Sgd,
        execution,
        ShardSpec::new(shards),
        7,
    )
    .unwrap();
    // One fixed batch: measures compute, not the generator.
    let batch = data.next_batch(args.batch);
    for _ in 0..2 {
        trainer.step(&batch).unwrap(); // warm-up: size scratch, warm pool
    }
    let stats_before = trainer.pipeline_stats().unwrap_or_default();
    let mut phases = PhaseTimings::default();
    let mut exposed_wait = Duration::ZERO;
    let t0 = Instant::now();
    for _ in 0..args.steps {
        let report = trainer.step(&batch).unwrap();
        phases += report.timings;
        exposed_wait += report.exposed_cast_wait;
    }
    let wall = t0.elapsed();
    let stats_after = trainer.pipeline_stats().unwrap_or_default();
    let casting = stats_after.casting_time - stats_before.casting_time;
    Measurement {
        steps_per_s: args.steps as f64 / wall.as_secs_f64(),
        phases,
        exposed_wait,
        hidden_fraction: hidden_fraction(exposed_wait, casting),
        gen_wait: Duration::ZERO,
        mean_depth: 0.0,
    }
}

/// One definition of the Fig. 9b metric: delegate to
/// [`tcast_core::PipelineStats::hidden_fraction`].
fn hidden_fraction(exposed: Duration, casting: Duration) -> f64 {
    tcast_core::PipelineStats {
        casting_time: casting,
        exposed_wait: exposed,
        ..Default::default()
    }
    .hidden_fraction()
}

/// A pre-generated ring of batches served by refcount bump: the depth
/// sweep measures the *driver's* overlap behaviour, not the generator.
struct RingSource {
    ring: Vec<Arc<CtrBatch>>,
    cursor: usize,
}

impl RingSource {
    fn new(data: &mut SyntheticCtr, batch: usize, len: usize) -> Self {
        Self {
            ring: (0..len).map(|_| Arc::new(data.next_batch(batch))).collect(),
            cursor: 0,
        }
    }
}

impl BatchSource for RingSource {
    fn next_batch(&mut self) -> Option<Arc<CtrBatch>> {
        let b = Arc::clone(&self.ring[self.cursor % self.ring.len()]);
        self.cursor += 1;
        Some(b)
    }

    fn recycle(&mut self, _batch: Arc<CtrBatch>) {}
}

/// The embedding dimension of the lookahead sweep's casting-bound
/// configuration (see [`sweep_config`]).
const SWEEP_DIM: usize = 8;

/// The lookahead sweep's configuration: the same four Zipf tables (so
/// the index arrays — casting's only input — keep their full
/// `batch x pooling` volume) but a minimal dense stack. Casting cost is
/// unchanged while the forward/backward window it must hide under
/// shrinks to the gather itself — the casting-latency-bound regime of
/// the paper's Fig. 9b, where depth-0 submission genuinely exposes
/// casting latency and cross-batch lookahead collapses it.
fn sweep_config() -> DlrmConfig {
    DlrmConfig {
        dense_features: 13,
        embedding_dim: SWEEP_DIM,
        tables: bench_config(SWEEP_DIM).tables,
        bottom_mlp: vec![SWEEP_DIM],
        top_mlp: vec![8, 1],
        interaction: tcast_tensor::InteractionKind::Dot,
    }
}

/// One `TrainLoop` run of the casted trainer under the given depth
/// policy, over a fixed batch ring of the casting-bound
/// [`sweep_config`] — generation excluded, so the sweep isolates the
/// *driver's* overlap behaviour.
fn measure_depth(execution: Execution, policy: DepthPolicy, args: &Args) -> Measurement {
    let config = sweep_config();
    let mut data = SyntheticCtr::new(config.table_workloads(), config.dense_features, 42);
    let trainer = Trainer::with_execution(
        config,
        BackwardMode::Casted,
        EmbeddingOptimizer::Sgd,
        execution,
        7,
    )
    .unwrap();
    let ring = match policy {
        DepthPolicy::Fixed(depth) => (depth + 2).max(3),
        DepthPolicy::Adaptive(a) => (a.max + 2).max(3),
    };
    let mut source = RingSource::new(&mut data, args.batch, ring);
    let mut driver = TrainLoop::with_policy(trainer, policy);
    // Warm-up: size the scratch — and, under the adaptive policy, give
    // the controller enough windows to climb from its minimum to the
    // knee, so the measured steps reflect the converged depth rather
    // than the cold start (the controller's state, including its
    // convergence floor, carries across runs).
    let warm = match policy {
        DepthPolicy::Fixed(_) => 2,
        DepthPolicy::Adaptive(a) => a.window * 8,
    };
    driver.run(&mut source, warm).unwrap();
    let t0 = Instant::now();
    let summary = driver.run(&mut source, args.steps).unwrap();
    let wall = t0.elapsed();
    assert_eq!(summary.steps, args.steps);
    Measurement {
        steps_per_s: args.steps as f64 / wall.as_secs_f64(),
        phases: summary.timings,
        exposed_wait: summary.exposed_cast_wait,
        hidden_fraction: summary.hidden_fraction(),
        gen_wait: summary.batch_wait,
        mean_depth: summary.mean_depth(),
    }
}

/// The prefetch axis: the same casting-bound `TrainLoop` run, but over
/// a *live* `SyntheticSource` so every step pays real batch generation
/// — inline on the training thread, or moved onto a `PrefetchSource`
/// producer. The row's `gen_wait_ns` is the per-step time the driver
/// blocked in `next_batch`: the full generation cost inline, only the
/// residual the producer could not stay ahead of when prefetched.
fn measure_gen(prefetch: bool, depth: usize, args: &Args) -> Measurement {
    let config = sweep_config();
    let data = SyntheticCtr::new(config.table_workloads(), config.dense_features, 42);
    let trainer = Trainer::with_execution(
        config,
        BackwardMode::Casted,
        EmbeddingOptimizer::Sgd,
        Execution::Serial,
        7,
    )
    .unwrap();
    let mut driver = TrainLoop::new(trainer, depth);
    let inner = SyntheticSource::new(data, args.batch);
    let run = |driver: &mut TrainLoop, source: &mut dyn BatchSource, args: &Args| {
        driver.run(source, 2).unwrap(); // warm-up: size scratch + buffers
        let t0 = Instant::now();
        let summary = driver.run(source, args.steps).unwrap();
        (summary, t0.elapsed())
    };
    let (summary, wall) = if prefetch {
        let mut source = PrefetchSource::new(inner, (depth + 1).max(2));
        run(&mut driver, &mut source, args)
    } else {
        let mut source = inner;
        run(&mut driver, &mut source, args)
    };
    assert_eq!(summary.steps, args.steps);
    Measurement {
        steps_per_s: args.steps as f64 / wall.as_secs_f64(),
        phases: summary.timings,
        exposed_wait: summary.exposed_cast_wait,
        hidden_fraction: summary.hidden_fraction(),
        gen_wait: summary.batch_wait,
        mean_depth: summary.mean_depth(),
    }
}

fn phase_ns(d: Duration, steps: usize) -> f64 {
    d.as_secs_f64() * 1e9 / steps as f64
}

/// Row context beyond the measurement itself: the lookahead-depth
/// policy axis and the batch-generation axis.
struct RowAxes<'a> {
    /// "fixed" or "adaptive".
    depth_policy: &'a str,
    /// Nominal depth of the row: the pinned depth under "fixed", the
    /// controller's max bound under "adaptive" (`mean_depth` records
    /// what the controller actually chose).
    depth: usize,
    /// How batches reached the driver: "none" (single fixed batch),
    /// "ring" (pre-generated ring, generation excluded), "off" (live
    /// inline generation) or "on" (live generation on a `PrefetchSource`
    /// producer thread).
    prefetch: &'a str,
    /// Requested embedding shard count (1 = the unsharded layout).
    shards: usize,
}

fn emit(args: &Args, mode: &str, sched: &str, threads: usize, axes: &RowAxes, m: &Measurement) {
    println!(
        "  {mode:<8} {sched:<14} depth {} ({:<8} mean {:>4.1}) prefetch {:<4}  {:>8.2} steps/s  \
         (bwd_emb {:>9.0} ns, exposed {:>9.0} ns, hidden {:>5.1}%, gen wait {:>9.0} ns)",
        axes.depth,
        axes.depth_policy,
        m.mean_depth,
        axes.prefetch,
        m.steps_per_s,
        phase_ns(m.phases.bwd_embedding, args.steps),
        phase_ns(m.exposed_wait, args.steps),
        100.0 * m.hidden_fraction,
        phase_ns(m.gen_wait, args.steps),
    );
    let mut row = json::JsonRow::new();
    row.str_field("kind", "step_throughput")
        .str_field("mode", mode)
        .str_field("schedule", sched)
        .str_field("depth_policy", axes.depth_policy)
        .str_field("prefetch", axes.prefetch)
        .u64_field("threads", threads as u64)
        .u64_field("cores", tcast_pool::default_parallelism() as u64)
        .u64_field("batch", args.batch as u64)
        .u64_field("dim", args.dim as u64)
        .u64_field("steps", args.steps as u64)
        .u64_field("pipeline_depth", axes.depth as u64)
        .u64_field("shards", axes.shards as u64)
        .f64_field("mean_depth", m.mean_depth)
        .f64_field("steps_per_s", m.steps_per_s)
        .f64_field("fwd_gather_ns", phase_ns(m.phases.fwd_gather, args.steps))
        .f64_field("fwd_dnn_ns", phase_ns(m.phases.fwd_dnn, args.steps))
        .f64_field("bwd_dnn_ns", phase_ns(m.phases.bwd_dnn, args.steps))
        .f64_field(
            "bwd_embedding_ns",
            phase_ns(m.phases.bwd_embedding, args.steps),
        )
        .f64_field("bwd_scatter_ns", phase_ns(m.phases.bwd_scatter, args.steps))
        .f64_field("exposed_wait_ns", phase_ns(m.exposed_wait, args.steps))
        .f64_field("gen_wait_ns", phase_ns(m.gen_wait, args.steps))
        .f64_field("hidden_fraction", m.hidden_fraction);
    if let Err(e) = json::append_row(&args.json, &row) {
        eprintln!(
            "[step_throughput] cannot write {}: {e}",
            args.json.display()
        );
    }
}

fn main() {
    let args = parse_args();
    banner(
        "step_throughput",
        "end-to-end DLRM training-step throughput, serial vs pooled",
    );
    println!(
        "batch {}, dim {}, {} measured steps, pool threads {}, host cores {}, sink {}",
        args.batch,
        args.dim,
        args.steps,
        args.threads,
        tcast_pool::default_parallelism(),
        args.json.display()
    );

    let pool = Arc::new(Pool::new(args.threads));
    let fixed0 = |prefetch: &'static str| RowAxes {
        depth_policy: "fixed",
        depth: 0,
        prefetch,
        shards: 1,
    };

    let serial_casted = measure(BackwardMode::Casted, Execution::Serial, &args);
    emit(
        &args,
        "casted",
        "serial",
        1,
        &fixed0("none"),
        &serial_casted,
    );
    let pooled_casted = measure(
        BackwardMode::Casted,
        Execution::Pooled(Arc::clone(&pool)),
        &args,
    );
    emit(
        &args,
        "casted",
        "pooled",
        args.threads,
        &fixed0("none"),
        &pooled_casted,
    );

    let serial_baseline = measure(BackwardMode::Baseline, Execution::Serial, &args);
    emit(
        &args,
        "baseline",
        "serial",
        1,
        &fixed0("none"),
        &serial_baseline,
    );
    let pooled_baseline = measure(
        BackwardMode::Baseline,
        Execution::Pooled(Arc::clone(&pool)),
        &args,
    );
    emit(
        &args,
        "baseline",
        "pooled",
        args.threads,
        &fixed0("none"),
        &pooled_baseline,
    );

    // --- Shard axis: per-shard optimizer slabs, shard-routed casting ---
    // jobs, shard-concurrent scatter. The trajectory is bit-identical at
    // every shard count (tests/sharded_equivalence.rs), so these rows
    // measure placement cost alone: 1 shard is the unsharded layout,
    // 4 shards runs the backward embedding phases shard-concurrent under
    // the pool. The "STEP sharded" lines are CI's grep anchors.
    println!("\nsharded data plane (pooled execution), shards {{1, 4}}:");
    let mut sharded_rows = Vec::new();
    for mode in [BackwardMode::Casted, BackwardMode::Baseline] {
        for shards in [1usize, 4] {
            let m = measure_sharded(mode, Execution::Pooled(Arc::clone(&pool)), shards, &args);
            let mode_name = match mode {
                BackwardMode::Casted => "casted",
                BackwardMode::Baseline => "baseline",
            };
            let axes = RowAxes {
                depth_policy: "fixed",
                depth: 0,
                prefetch: "none",
                shards,
            };
            emit(&args, mode_name, "pooled", args.threads, &axes, &m);
            println!(
                "STEP sharded {mode_name} shards={shards} fwd_gather {:.0} ns  \
                 bwd_scatter {:.0} ns  {:.2} steps/s",
                phase_ns(m.phases.fwd_gather, args.steps),
                phase_ns(m.phases.bwd_scatter, args.steps),
                m.steps_per_s,
            );
            sharded_rows.push((mode, shards, m));
        }
    }

    // --- Pipeline-depth axis: the cross-batch TrainLoop driver. --------
    // Depth 0 is the serial composition (casting overlaps only its own
    // step's forward pass); depth D keeps D future batches' casting jobs
    // in flight. The trajectory is bit-identical at every depth, so the
    // only thing that moves is how much casting latency stays exposed.
    // The sweep pins its own batch size: the exposed-wait effect lives
    // in the small-batch regime (the forward window per step is short,
    // so depth-0 submission leaves real casting latency exposed), while
    // the throughput rows above measure the full-size batch. Extra steps
    // stabilize the exposed-wait totals the gate below compares.
    let sweep_args = Args {
        dim: SWEEP_DIM,
        batch: args.batch.min(512),
        steps: args.steps * 5,
        ..args.clone()
    };
    println!(
        "\npipelined driver (casted, serial execution), lookahead sweep \
         (casting-bound: dim {SWEEP_DIM}, batch {}, {} steps):",
        sweep_args.batch, sweep_args.steps
    );
    let depths: &[usize] = if fast_mode() { &[0, 2] } else { &[0, 1, 2, 4] };
    let mut by_depth = Vec::new();
    for &depth in depths {
        let m = measure_depth(Execution::Serial, DepthPolicy::Fixed(depth), &sweep_args);
        let axes = RowAxes {
            depth_policy: "fixed",
            depth,
            prefetch: "ring",
            shards: 1,
        };
        emit(&sweep_args, "casted", "pipelined", 1, &axes, &m);
        by_depth.push((depth, m));
    }
    let exposed_ns = |m: &Measurement| phase_ns(m.exposed_wait, sweep_args.steps);
    let depth0 = &by_depth[0].1;
    let deepest = &by_depth[by_depth.len() - 1].1;
    println!(
        "hidden fraction: depth {} {:.1}% -> depth {} {:.1}% \
         (exposed wait {:.0} ns -> {:.0} ns per step)",
        by_depth[0].0,
        100.0 * depth0.hidden_fraction,
        by_depth[by_depth.len() - 1].0,
        100.0 * deepest.hidden_fraction,
        exposed_ns(depth0),
        exposed_ns(deepest),
    );

    // --- Depth-policy axis: the adaptive controller vs the sweep. -----
    // Same casting-bound ring, but the depth is chosen at run time by
    // the AIMD controller from measured exposed waits. Full-size runs
    // gate its hidden fraction against the best fixed depth's: the
    // controller must find the knee, not just move.
    // Knobs scaled to the sweep: casting runs ~100-400 us/step here, so
    // "hidden" means under 20 us/step exposed (1 us would be noise
    // level on a busy host and trigger spurious decrease trials), and
    // the long decrease_after keeps the converged depth from shedding
    // more than once per measured run.
    let adaptive_policy = DepthPolicy::Adaptive(AdaptiveDepth {
        min: 0,
        max: 8,
        window: 8,
        target_exposed_ns: 20_000,
        decrease_after: 8,
        floor_decay_after: 16,
    });
    let adaptive = measure_depth(Execution::Serial, adaptive_policy, &sweep_args);
    let axes = RowAxes {
        depth_policy: "adaptive",
        depth: 8,
        prefetch: "ring",
        shards: 1,
    };
    emit(&sweep_args, "casted", "pipelined", 1, &axes, &adaptive);
    let best_fixed = by_depth
        .iter()
        .map(|(_, m)| m.hidden_fraction)
        .fold(0.0f64, f64::max);
    println!(
        "adaptive depth: mean {:.1}, hidden {:.1}% (best fixed depth: {:.1}%)",
        adaptive.mean_depth,
        100.0 * adaptive.hidden_fraction,
        100.0 * best_fixed,
    );

    // --- Prefetch axis: live generation, inline vs producer thread. ---
    // The same casting-bound config over a real SyntheticSource, so
    // every step pays batch generation: inline it lands in the step
    // slot (the driver blocks in next_batch); with a PrefetchSource a
    // producer thread generates ahead behind a bounded queue, and the
    // driver only pays the residual the producer couldn't stay ahead of.
    println!("\nbatch generation (casted, depth 2, live synthetic source):");
    let gen_off = measure_gen(false, 2, &sweep_args);
    let axes_off = RowAxes {
        depth_policy: "fixed",
        depth: 2,
        prefetch: "off",
        shards: 1,
    };
    emit(&sweep_args, "casted", "pipelined", 1, &axes_off, &gen_off);
    let gen_on = measure_gen(true, 2, &sweep_args);
    let axes_on = RowAxes {
        depth_policy: "fixed",
        depth: 2,
        prefetch: "on",
        shards: 1,
    };
    // threads stays 1: the field counts pool workers (the serial/pooled
    // convention); the producer thread is what the `prefetch` field
    // records.
    emit(&sweep_args, "casted", "pipelined", 1, &axes_on, &gen_on);
    let gen_ns = |m: &Measurement| phase_ns(m.gen_wait, sweep_args.steps);
    println!(
        "generation wait: prefetch off {:.0} ns/step -> prefetch on {:.0} ns/step",
        gen_ns(&gen_off),
        gen_ns(&gen_on),
    );

    let speedup = pooled_casted.steps_per_s / serial_casted.steps_per_s;
    let casted_vs_baseline = serial_casted.steps_per_s / serial_baseline.steps_per_s;
    println!(
        "\npooled/serial (casted): {speedup:.2}x at {} threads on {} core(s); \
         casted/baseline (serial): {casted_vs_baseline:.2}x",
        args.threads,
        tcast_pool::default_parallelism()
    );
    // The scatter phase is band-parallel since the splittable-optimizer
    // refactor; report its serial/pooled ratio so multi-core CI runners
    // track it alongside the end-to-end speedup (>1 means the pooled
    // scatter is faster).
    let scatter_ratio = |serial: &Measurement, pooled: &Measurement| {
        phase_ns(serial.phases.bwd_scatter, args.steps)
            / phase_ns(pooled.phases.bwd_scatter, args.steps).max(1.0)
    };
    println!(
        "bwd_scatter serial/pooled: casted {:.2}x, baseline {:.2}x",
        scatter_ratio(&serial_casted, &pooled_casted),
        scatter_ratio(&serial_baseline, &pooled_baseline),
    );
    // The 1.5x gate only applies to full-size measurement runs: FAST
    // smoke batches are too small for the pool to amortize dispatch, so
    // CI smoke jobs report the ratios without failing on them.
    if !fast_mode() && tcast_pool::default_parallelism() >= 4 && args.threads >= 4 && speedup < 1.5
    {
        eprintln!(
            "[step_throughput] WARNING: pooled speedup {speedup:.2}x < 1.5x target on a \
             >=4-core host"
        );
        std::process::exit(1);
    }
    // Cross-batch lookahead must strictly collapse the exposed casting
    // wait: some depth >= 2 has to beat depth 0 outright. (On a 1-core
    // host the scheduler decides when the casting worker runs, so an
    // individual depth's exposure is noisy — but deeper lookahead keeps
    // widening the worker's window, and the best deep run shows it.)
    // Gate full-size runs only — FAST smoke runs are too short to be
    // stable — and only when depth 0 actually exposes something: on a
    // host fast enough to hide casting with no lookahead (under 1 us per
    // step exposed) there is nothing left to collapse, which is success,
    // not failure.
    let best_deep_exposed = by_depth
        .iter()
        .filter(|(d, _)| *d >= 2)
        .map(|(_, m)| m.exposed_wait)
        .min()
        .expect("depth sweep includes >= 2");
    let already_hidden = depth0.exposed_wait <= Duration::from_micros(sweep_args.steps as u64);
    if !fast_mode() && !already_hidden && best_deep_exposed >= depth0.exposed_wait {
        eprintln!(
            "[step_throughput] WARNING: depth >= 2 lookahead did not reduce exposed casting \
             wait ({best_deep_exposed:?} vs {:?} at depth 0)",
            depth0.exposed_wait
        );
        std::process::exit(1);
    }
    // The adaptive controller must land within 5 points of the best
    // fixed depth's hidden fraction (full-size runs only; FAST runs are
    // too short for the controller to converge, and skip the gate like
    // every other). Guarded like the depth gate: when depth 0 already
    // hides everything there is no knee to find. The 5pt margin needs
    // >= 2 cores — on one core the fixed sweep's own hidden fractions
    // swing by ~10pt run to run (the scheduler decides when the casting
    // worker gets the CPU), so there the gate is the stable property:
    // the controller must still beat no lookahead at all.
    let adaptive_floor = if tcast_pool::default_parallelism() >= 2 {
        best_fixed - 0.05
    } else {
        depth0.hidden_fraction
    };
    if !fast_mode() && !already_hidden && adaptive.hidden_fraction < adaptive_floor {
        eprintln!(
            "[step_throughput] WARNING: adaptive depth converged to {:.1}% hidden \
             (mean depth {:.1}), below the gate floor {:.1}% (best fixed {:.1}%, \
             depth 0 {:.1}%)",
            100.0 * adaptive.hidden_fraction,
            adaptive.mean_depth,
            100.0 * adaptive_floor,
            100.0 * best_fixed,
            100.0 * depth0.hidden_fraction,
        );
        std::process::exit(1);
    }
    // Sharding is placement, not a performance feature in itself — but
    // it must not cripple the step either. Loose gate, full-size
    // multi-core runs only (FAST batches are too small to amortize the
    // per-shard dispatch; on one core shard concurrency cannot help):
    // the 4-shard pooled step must hold >= 0.6x of the 1-shard rate in
    // the same mode.
    if !fast_mode() && tcast_pool::default_parallelism() >= 2 {
        for mode in [BackwardMode::Casted, BackwardMode::Baseline] {
            let rate = |want_shards: usize| {
                sharded_rows
                    .iter()
                    .find(|(m, s, _)| *m == mode && *s == want_shards)
                    .map(|(_, _, meas)| meas.steps_per_s)
                    .expect("sharded rows cover {1, 4}")
            };
            let ratio = rate(4) / rate(1);
            if ratio < 0.6 {
                eprintln!(
                    "[step_throughput] WARNING: 4-shard {mode:?} step fell to {ratio:.2}x \
                     of the 1-shard rate"
                );
                std::process::exit(1);
            }
        }
    }
    // Prefetching must strictly reduce the exposed generation wait once
    // inline generation costs something worth hiding. Multi-core
    // full-size runs only: on one core producer and trainer share the
    // CPU, so generation cannot actually overlap compute — the 2-4-core
    // CI runners are where the delta accumulates (like the pooled
    // speedup target).
    let inline_gen = gen_off.gen_wait;
    let gen_noise_floor = Duration::from_micros(50 * sweep_args.steps as u64);
    if !fast_mode()
        && tcast_pool::default_parallelism() >= 2
        && inline_gen > gen_noise_floor
        && gen_on.gen_wait >= inline_gen
    {
        eprintln!(
            "[step_throughput] WARNING: prefetch did not reduce the generation wait \
             ({:?} prefetched vs {inline_gen:?} inline)",
            gen_on.gen_wait
        );
        std::process::exit(1);
    }
}
