//! The two serving workloads. `serve_hot`: a frozen model, a skewed query
//! stream and a casting cache big enough for its head (hit rate ~0.9) —
//! inference on the cached-cast fast path. `serve_online_cold`: the same
//! model under a trainer that takes an update step every 8 fused batches,
//! a flat query stream and a small cache (hit rate ~0.13) — casting on
//! the query path, writes beside reads, update slots that stall serving.
//!
//! A round is a closed-loop phase (32 clients, zero think time: capacity)
//! followed by an open-loop phase at the workload's fixed reference rate
//! (latency). Both go through `tcast_serve::serve()` / `serve_online()`,
//! single-threaded, on that loop's hybrid clock: arrivals are simulated,
//! so the generator is never late and a query is timed from the instant
//! it was due; service and update time is measured wall time.

use std::sync::Arc;
use std::time::Instant;

use crate::host::{between, Gemm, HostProbe};
use crate::json::Value;
use crate::layers;
use crate::serve_driver::{drive, PhaseRecord, Target};
use crate::stats::{
    max_of, mean, median, min_of, percentile, quiet_rate, quiet_time, top_percentile,
};
use crate::trace::Tracer;
use crate::workloads::{
    derive_seed, peak_rss_mb, Check, Metrics, RunOptions, RunResult, LEARNING_RATE, SLA_NS,
};
use tcast_datasets::{SyntheticCtr, SyntheticSource};
use tcast_dlrm::{BackwardMode, Dlrm, DlrmConfig, Execution, Trainer};
use tcast_embedding::IndexArray;
use tcast_serve::{
    serve, serve_online, ArrivalProcess, BatchPolicy, CandidateCount, OnlineConfig, OnlineReport,
    Query, QueryModel, ServeConfig, ServeEngine, ServeReport,
};

/// Closed-loop clients of the capacity phase.
const CLIENTS: usize = 32;
const POLICY: BatchPolicy = BatchPolicy::Deadline {
    max_batch: 16,
    max_wait_ns: 1_000_000,
};
/// Served queries checked bit for bit against the reference scorer.
const SCORE_SAMPLES: usize = 16;
/// Online update losses checked against an offline trainer.
const UPDATE_SAMPLES: usize = 8;
/// Rate multipliers of the traced run's rate sweep.
const RATE_STEPS: [f64; 4] = [0.5, 1.0, 2.0, 3.0];

struct OnlineSpec {
    update_every: usize,
    train_batch: usize,
}

pub struct ServeSpec {
    pub name: &'static str,
    rows_per_table: usize,
    catalog: usize,
    candidates: usize,
    query_skew: f64,
    cache_per_table: usize,
    online: Option<OnlineSpec>,
    /// Queries per round in the closed-loop phase, at `RUN_SECONDS`.
    closed_per_round: usize,
    /// Queries per round in the reference-rate phase, at `RUN_SECONDS`.
    open_per_round: usize,
    /// The fixed open-loop rate. Tuned once at the seed commit so the
    /// server is busy about 0.35 of the phase (service plus update
    /// slots), then frozen: a rate derived from a capacity measured in
    /// the same run would carry that measurement's noise into the gate.
    reference_qps: f64,
}

pub const SERVE_HOT: ServeSpec = ServeSpec {
    name: "serve_hot",
    rows_per_table: 10_000,
    catalog: 512,
    candidates: 10,
    query_skew: 1.1,
    cache_per_table: 256,
    online: None,
    closed_per_round: 580,
    open_per_round: 580,
    reference_qps: 750.0,
};

pub const SERVE_ONLINE_COLD: ServeSpec = ServeSpec {
    name: "serve_online_cold",
    rows_per_table: 10_000,
    catalog: 512,
    candidates: 10,
    query_skew: 0.0,
    cache_per_table: 64,
    online: Some(OnlineSpec {
        update_every: 8,
        train_batch: 32,
    }),
    closed_per_round: 340,
    open_per_round: 340,
    reference_qps: 300.0,
};

/// A trainer and the source of the batches its update steps train on.
struct OnlineModel {
    trainer: Trainer,
    source: SyntheticSource,
}

enum Model {
    Frozen(Box<Dlrm>),
    Online(Box<OnlineModel>),
}

/// One complete serving set-up.
struct Instance {
    model: Model,
    workload: QueryModel,
    engine: ServeEngine,
    update_every: usize,
    catalog_build_s: f64,
    /// Losses of every online update so far, in order.
    update_losses: Vec<f32>,
}

struct Phase {
    report: ServeReport,
    online: Option<OnlineReport>,
}

fn config(spec: &ServeSpec, quick: bool) -> DlrmConfig {
    DlrmConfig::rm1_scaled(if quick { 2_000 } else { spec.rows_per_table })
}

fn catalog_size(spec: &ServeSpec, quick: bool) -> usize {
    if quick {
        spec.catalog / 8
    } else {
        spec.catalog
    }
}

fn train_source(spec: &ServeSpec, opts: &RunOptions, cfg: &DlrmConfig) -> Option<SyntheticSource> {
    spec.online.as_ref().map(|o| {
        SyntheticSource::new(
            SyntheticCtr::new(
                cfg.table_workloads(),
                cfg.dense_features,
                derive_seed(opts.seed, 2),
            ),
            o.train_batch,
        )
    })
}

impl Instance {
    /// Model (under a trainer when online), query catalog, engine,
    /// training source, and the first fused batch, which sizes the
    /// engine's buffers.
    fn build(spec: &ServeSpec, opts: &RunOptions) -> Result<Self, String> {
        let cfg = config(spec, opts.quick);
        let model_seed = derive_seed(opts.seed, 1);
        let model = match train_source(spec, opts, &cfg) {
            Some(source) => Model::Online(Box::new(OnlineModel {
                trainer: new_trainer(&cfg, model_seed)?,
                source,
            })),
            None => Model::Frozen(Box::new(
                Dlrm::new(cfg.clone(), model_seed).map_err(|e| e.to_string())?,
            )),
        };
        let t0 = Instant::now();
        let workload = QueryModel::new(
            &cfg.table_workloads(),
            cfg.dense_features,
            catalog_size(spec, opts.quick),
            CandidateCount::Fixed(spec.candidates),
            spec.query_skew,
            derive_seed(opts.seed, 3),
        );
        let catalog_build_s = t0.elapsed().as_secs_f64();
        let cache = if opts.quick {
            spec.cache_per_table / 8
        } else {
            spec.cache_per_table
        };
        let mut inst = Self {
            engine: ServeEngine::new(model_ref(&model), cache, Execution::Serial),
            model,
            workload,
            update_every: spec.online.as_ref().map_or(0, |o| o.update_every),
            catalog_build_s,
            update_losses: Vec::new(),
        };
        let first: Vec<Arc<Query>> = (0..16)
            .map(|i| Arc::clone(inst.workload.query(i)))
            .collect();
        inst.engine
            .score(model_ref(&inst.model), first.iter())
            .map_err(|e| e.to_string())?;
        Ok(inst)
    }

    fn model(&self) -> &Dlrm {
        model_ref(&self.model)
    }

    /// One phase through the library's own loop.
    fn phase(
        &mut self,
        arrivals: ArrivalProcess,
        queries: usize,
        seed: u64,
        shed: bool,
    ) -> Result<Phase, String> {
        let cfg = phase_config(arrivals, queries, seed, shed);
        match &mut self.model {
            Model::Frozen(model) => serve(&mut self.engine, model, &mut self.workload, &cfg)
                .map(|report| Phase {
                    report,
                    online: None,
                })
                .map_err(|e| e.to_string()),
            Model::Online(online) => serve_online(
                &mut self.engine,
                &mut online.trainer,
                &mut online.source,
                &mut self.workload,
                &cfg,
                OnlineConfig {
                    update_every: self.update_every,
                    restore: None,
                },
            )
            .map(|(report, online)| {
                self.update_losses.extend_from_slice(&online.losses);
                Phase {
                    report,
                    online: Some(online),
                }
            })
            .map_err(|e| e.to_string()),
        }
    }

    /// One phase through the benchmark's own loop (traced run).
    fn driven(
        &mut self,
        arrivals: ArrivalProcess,
        queries: usize,
        seed: u64,
        tracer: &mut Tracer,
        clock_base_ns: u64,
        first_id: u64,
    ) -> Result<PhaseRecord, String> {
        let cfg = phase_config(arrivals, queries, seed, false);
        let target = match &mut self.model {
            Model::Frozen(model) => Target::Frozen(model),
            Model::Online(online) => Target::Online {
                trainer: &mut online.trainer,
                source: &mut online.source,
                update_every: self.update_every,
            },
        };
        let rec = drive(
            &mut self.engine,
            target,
            &mut self.workload,
            &cfg,
            Some(tracer),
            clock_base_ns,
            first_id,
        )?;
        self.update_losses
            .extend(rec.updates.iter().map(|u| u.loss));
        Ok(rec)
    }

    /// Cache hits and lookups so far (one lookup per query per table).
    fn cache_counts(&self) -> (f64, f64) {
        let lookups = (self.engine.queries_scored() * self.model().num_tables() as u64) as f64;
        (self.engine.cache_hit_rate() * lookups, lookups)
    }
}

fn new_trainer(cfg: &DlrmConfig, seed: u64) -> Result<Trainer, String> {
    let mut trainer =
        Trainer::new(cfg.clone(), BackwardMode::Casted, seed).map_err(|e| e.to_string())?;
    trainer.set_learning_rate(LEARNING_RATE);
    Ok(trainer)
}

fn model_ref(model: &Model) -> &Dlrm {
    match model {
        Model::Frozen(m) => m,
        Model::Online(online) => online.trainer.model(),
    }
}

fn phase_config(arrivals: ArrivalProcess, queries: usize, seed: u64, shed: bool) -> ServeConfig {
    ServeConfig {
        queries,
        arrivals,
        policy: POLICY,
        sla_ns: SLA_NS,
        seed,
        shed_unmeetable: shed,
    }
}

const CLOSED: ArrivalProcess = ArrivalProcess::ClosedLoop {
    clients: CLIENTS,
    think_ns: 0,
};

fn hit_rate(before: (f64, f64), after: (f64, f64)) -> f64 {
    if after.1 > before.1 {
        (after.0 - before.0) / (after.1 - before.1)
    } else {
        0.0
    }
}

/// Share of a phase's span the server spent scoring or updating: the
/// load the reference rate puts on it (tuned to ~0.35 at the seed commit).
fn busy_fraction(p: &Phase) -> f64 {
    let service = p.report.service.mean_ns() * p.report.batches as f64;
    let update = p.online.as_ref().map_or(0, |o| o.train_ns + o.gen_ns) as f64;
    (service + update) / p.report.span_ns as f64
}

/// Counts of one run's measured phases.
#[derive(Default)]
struct Tally {
    attempted: u64,
    /// Queries that got no answer: those of a phase that returned an error
    /// and those the queue shed (none: no measured phase sheds). The same
    /// seed gives the same count on any host.
    failed: u64,
    /// Of the failed queries, those of phases that returned an error.
    errors: u64,
    /// Answered queries of the reference-rate phases that took longer than
    /// the limit. A stall of the host makes them, so they are reported
    /// (`serve.limit_miss_share`, the run file) and not counted as failed.
    limit_misses: u64,
}

impl Tally {
    fn add(&mut self, queries: usize, phase: &Result<Phase, String>, reference: bool) {
        self.attempted += queries as u64;
        match phase {
            Err(_) => {
                self.errors += queries as u64;
                self.failed += queries as u64;
            }
            Ok(p) => {
                self.failed += p.report.shed;
                if reference {
                    self.limit_misses += p.report.sla_violations;
                }
            }
        }
    }
}

/// Runs one serving workload.
///
/// # Errors
///
/// Returns a message when a set-up cannot be built.
pub fn run(spec: &'static ServeSpec, opts: &RunOptions) -> Result<RunResult, String> {
    let closed_n = opts.units(spec.closed_per_round, 300);
    let open_n = opts.units(spec.open_per_round, 300);
    let rounds = opts.rounds();
    let reference = ArrivalProcess::Poisson {
        mean_qps: spec.reference_qps,
    };
    let mut phase_seed = {
        let mut n = 0u64;
        let seed = opts.seed;
        move || {
            n += 1;
            derive_seed(seed, 100 + n)
        }
    };

    // Like every gated timing, a set-up is divided by the host factor
    // read on either side of it (`host.rs`).
    let mut probe = HostProbe::new(Gemm::Cached);
    let mut host = probe.factor();
    let mut setup_s = Vec::new();
    let mut setup_host = Vec::new();
    let mut inst = None;
    for _ in 0..opts.setups() {
        drop(inst.take());
        let t0 = Instant::now();
        inst = Some(Instance::build(spec, opts)?);
        setup_s.push(t0.elapsed().as_secs_f64());
        let after = probe.factor();
        setup_host.push(between(host, after));
        host = after;
    }
    let mut inst = inst.expect("at least one set-up");

    // Warm-up, outside the rounds: closed-loop phases until the cache's
    // hit rate moves by less than 0.01 between phases and the warm-up
    // time has passed.
    let warm = Instant::now();
    let mut last_rate = f64::NAN;
    for _ in 0..64 {
        let before = inst.cache_counts();
        inst.phase(CLOSED, closed_n, phase_seed(), false)?;
        let rate = hit_rate(before, inst.cache_counts());
        let settled = (rate - last_rate).abs() < 0.01;
        last_rate = rate;
        if settled && warm.elapsed().as_secs_f64() >= opts.warmup_s() {
            break;
        }
    }

    let mut metrics = Metrics::default();
    let mut checks = Vec::new();
    let mut tally = Tally::default();
    let mut tracer = opts
        .trace
        .then(|| Tracer::new(rounds * (closed_n + open_n) * 5 + rounds * open_n));
    let mut closed_qps = Vec::new();
    let mut open_mean_ms = Vec::new();
    let mut open_busy = Vec::new();
    let mut open_phases: Vec<Phase> = Vec::new();
    let mut driven_closed: Vec<PhaseRecord> = Vec::new();
    let mut driven_open: Vec<PhaseRecord> = Vec::new();
    let (mut clock_base, mut next_id) = (0u64, 0u64);
    let cache_before = inst.cache_counts();
    let evictions_before = inst.engine.cache_evictions();

    // The host factor of each phase that went through the library's
    // loop, from the readings around it.
    let mut closed_host = Vec::new();
    let mut open_host = Vec::new();
    let measured = Instant::now();
    let mut host = probe.factor();
    for _ in 0..rounds {
        let closed = inst.phase(CLOSED, closed_n, phase_seed(), false);
        let after = probe.factor();
        tally.add(closed_n, &closed, false);
        if let Ok(p) = &closed {
            closed_qps.push(p.report.qps());
            closed_host.push(between(host, after));
        }
        host = after;
        if let Some(tracer) = tracer.as_mut() {
            let rec = inst.driven(CLOSED, closed_n, phase_seed(), tracer, clock_base, next_id)?;
            clock_base += rec.span_ns + 1_000_000;
            next_id += closed_n as u64;
            driven_closed.push(rec);
        }
        if tracer.is_some() {
            host = probe.factor();
        }
        let open = inst.phase(reference, open_n, phase_seed(), false);
        let after = probe.factor();
        tally.add(open_n, &open, true);
        if let Ok(p) = open {
            open_host.push(between(host, after));
            open_mean_ms.push(p.report.latency.mean_ns() / 1e6);
            open_busy.push(busy_fraction(&p));
            open_phases.push(p);
        }
        if let Some(tracer) = tracer.as_mut() {
            let rec = inst.driven(reference, open_n, phase_seed(), tracer, clock_base, next_id)?;
            clock_base += rec.span_ns + 1_000_000;
            next_id += open_n as u64;
            driven_open.push(rec);
            host = probe.factor();
        } else {
            host = after;
        }
    }
    let measured_s = measured.elapsed().as_secs_f64();
    let cache_hit_rate = hit_rate(cache_before, inst.cache_counts());
    if closed_qps.is_empty() || open_mean_ms.is_empty() {
        return Err("every measured phase failed".to_string());
    }

    checks.push(Check::operations_ok(tally.errors));
    checks.push(score_check(&mut inst, opts));
    checks.push(update_check(spec, opts, &inst));

    let mut detail = vec![
        ("closed_per_round", Value::Num(closed_n as f64)),
        ("open_per_round", Value::Num(open_n as f64)),
        ("reference_qps", Value::Num(spec.reference_qps)),
        ("rounds", Value::Num(rounds as f64)),
        ("measured_s", Value::Num(measured_s)),
        ("round_closed_qps", Value::nums(&closed_qps)),
        ("round_closed_host_factor", Value::nums(&closed_host)),
        ("round_reference_mean_ms", Value::nums(&open_mean_ms)),
        ("round_reference_host_factor", Value::nums(&open_host)),
        ("reference_busy_fraction", Value::Num(median(&open_busy))),
        ("cache_hit_rate", Value::Num(cache_hit_rate)),
        (
            "reference_limit_misses",
            Value::Num(tally.limit_misses as f64),
        ),
        ("setup_s", Value::nums(&setup_s)),
        ("setup_host_factor", Value::nums(&setup_host)),
    ];

    if !opts.trace {
        metrics.set("throughput_per_s", quiet_rate(&closed_qps, &closed_host));
        metrics.set("latency_ms", quiet_time(&open_mean_ms, &open_host));
        metrics.set("setup_s", quiet_time(&setup_s, &setup_host));
        metrics.set("peak_rss_mb", peak_rss_mb());
    } else {
        metrics.set("core.cache_hit_rate", cache_hit_rate);
        metrics.set(
            "serve.limit_miss_share",
            tally.limit_misses as f64 / (rounds * open_n) as f64,
        );
        metrics.set(
            "bench.host_factor",
            median(&[closed_host.as_slice(), open_host.as_slice()].concat()),
        );
        metrics.set(
            "core.cache_evictions",
            (inst.engine.cache_evictions() - evictions_before) as f64,
        );
        let section = Section {
            closed_qps: &closed_qps,
            open_mean_ms: &open_mean_ms,
            open_phases: &open_phases,
            driven_closed: &driven_closed,
            driven_open: &driven_open,
            open_n,
            phase_seed: &mut phase_seed,
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
            "driver_round_closed_qps",
            Value::nums(
                &driven_closed
                    .iter()
                    .map(PhaseRecord::qps)
                    .collect::<Vec<_>>(),
            ),
        ));
    }

    Ok(RunResult {
        workload: spec.name,
        options: *opts,
        attempted: tally.attempted,
        failed: tally.failed,
        checks,
        metrics: metrics.in_order(RunResult::table(opts)),
        detail: Value::obj(detail),
        tracer,
    })
}

/// What the measured section of a traced run produced.
struct Section<'a> {
    closed_qps: &'a [f64],
    open_mean_ms: &'a [f64],
    /// The reference-rate phases that went through the library's loop.
    open_phases: &'a [Phase],
    /// The phases that went through the benchmark's own loop.
    driven_closed: &'a [PhaseRecord],
    driven_open: &'a [PhaseRecord],
    open_n: usize,
    /// The run's stream of phase seeds (the rate sweep draws more).
    phase_seed: &'a mut dyn FnMut() -> u64,
}

/// The per-layer metrics of a traced run: exact per-query numbers from
/// the benchmark's own loop, update costs, the rate sweep and the
/// isolated sections.
fn layer_metrics(
    spec: &ServeSpec,
    opts: &RunOptions,
    inst: &mut Instance,
    section: Section<'_>,
    tracer: &Tracer,
    metrics: &mut Metrics,
    checks: &mut Vec<Check>,
) -> Result<(), String> {
    let Section {
        closed_qps,
        open_mean_ms,
        open_phases,
        driven_closed,
        driven_open,
        open_n,
        phase_seed,
    } = section;
    metrics.set("serve.catalog_build_s", inst.catalog_build_s);

    // Exact per-query numbers from the benchmark's own loop at the
    // reference rate, pooled over its rounds.
    let ms = |ns: &[u64]| ns.iter().map(|&v| v as f64 / 1e6).collect::<Vec<f64>>();
    let latency: Vec<f64> = driven_open.iter().flat_map(|r| ms(&r.latency_ns)).collect();
    metrics.set("serve.latency_p50_ms", percentile(&latency, 50.0));
    metrics.set("serve.latency_p90_ms", percentile(&latency, 90.0));
    metrics.set("serve.latency_p99_ms", percentile(&latency, 99.0));
    if let Some(top) = top_percentile(latency.len()) {
        metrics.set("serve.latency_top_ms", percentile(&latency, top));
        metrics.set("serve.latency_top_percentile", top);
    }
    metrics.set("serve.latency_samples", latency.len() as f64);
    let waits: Vec<f64> = driven_open
        .iter()
        .flat_map(|r| ms(&r.queue_wait_ns))
        .collect();
    let services: Vec<f64> = driven_open.iter().flat_map(|r| ms(&r.service_ns)).collect();
    let sizes: Vec<f64> = driven_open
        .iter()
        .flat_map(|r| r.batch_sizes.iter().map(|&n| n as f64))
        .collect();
    metrics.set("serve.queue_wait_ms_mean", mean(&waits));
    metrics.set("serve.service_ms_mean", mean(&services));
    metrics.set("serve.batch_mean", mean(&sizes));
    let driver_best = min_of(
        &driven_open
            .iter()
            .map(|r| r.mean_latency_ns() / 1e6)
            .collect::<Vec<_>>(),
    );
    metrics.set(
        "serve.driver_over_serve_mean",
        driver_best / min_of(open_mean_ms),
    );
    let driven_qps: Vec<f64> = driven_closed.iter().map(PhaseRecord::qps).collect();
    metrics.set(
        "bench.trace_overhead_frac",
        1.0 - max_of(&driven_qps) / max_of(closed_qps),
    );
    metrics.set(
        "bench.round_spread",
        max_of(closed_qps) / min_of(closed_qps),
    );
    let batches: usize = driven_open
        .iter()
        .chain(driven_closed)
        .map(|r| r.batch_sizes.len())
        .sum();
    let allocs: u64 = driven_open
        .iter()
        .chain(driven_closed)
        .map(|r| r.service_allocs)
        .sum();
    metrics.set(
        "serve.allocs_per_batch",
        allocs as f64 / batches.max(1) as f64,
    );

    // Online updates: cost per update from the library's reports,
    // phase times from the steps the benchmark's loop took itself.
    let online: Vec<&OnlineReport> = open_phases
        .iter()
        .filter_map(|p| p.online.as_ref())
        .collect();
    let updates: u64 = online.iter().map(|o| o.updates).sum();
    if updates > 0 {
        metrics.set("serve.updates", updates as f64);
        metrics.set(
            "serve.train_ms_per_update",
            online.iter().map(|o| o.train_ns).sum::<u64>() as f64 / 1e6 / updates as f64,
        );
        metrics.set(
            "serve.gen_ms_per_update",
            online.iter().map(|o| o.gen_ns).sum::<u64>() as f64 / 1e6 / updates as f64,
        );
        let mut age = tcast_serve::LatencyHistogram::new();
        for o in &online {
            age.merge(&o.freshness.model_age);
        }
        metrics.set("serve.model_age_p99_ms", age.p99_ns() as f64 / 1e6);
    }
    let steps: Vec<_> = driven_open
        .iter()
        .chain(driven_closed)
        .flat_map(|r| r.updates.iter().copied())
        .collect();
    if !steps.is_empty() {
        layers::step_phase_metrics(metrics, &steps);
    }
    let failed_updates: u64 = driven_open
        .iter()
        .chain(driven_closed)
        .map(|r| r.failed_updates)
        .sum();
    checks.push(Check::new(
        "driver_updates_ok",
        failed_updates == 0,
        format!("{failed_updates} failed update steps in the benchmark's own loop"),
    ));

    // Above the reference rate: latency and misses at 2x, and the
    // highest swept rate that still meets the limit without shedding.
    let mut max_ok = 0.0f64;
    for step in RATE_STEPS {
        let qps = spec.reference_qps * step;
        let p = inst.phase(
            ArrivalProcess::Poisson { mean_qps: qps },
            open_n,
            phase_seed(),
            true,
        )?;
        let missed = p.report.shed + p.report.sla_violations;
        if step == 2.0 {
            metrics.set("serve.latency_ms_high", p.report.latency.mean_ns() / 1e6);
            metrics.set("serve.miss_share_high", missed as f64 / open_n as f64);
        }
        if p.report.shed == 0 && p.report.latency.p99_ns() <= SLA_NS {
            max_ok = max_ok.max(qps);
        }
    }
    metrics.set("serve.max_ok_rate_qps", max_ok);

    // Isolated sections on this workload's own shapes: the fused
    // batch the reference-rate phase served on average.
    let budget = if opts.quick { 0.02 } else { 0.1 };
    let queries = mean(&sizes).round().max(1.0) as usize;
    let fused: Vec<Arc<[IndexArray]>> = (0..queries)
        .map(|i| Arc::clone(&inst.workload.query(i).indices))
        .collect();
    layers::tensor_sections(metrics, inst.model(), queries * spec.candidates, budget);
    layers::embedding_sections(metrics, inst.model(), &fused, budget);
    layers::snapshot_section(metrics, inst.model());
    if let Model::Online(online) = &mut inst.model {
        layers::datasets_section(metrics, &mut online.source, budget);
        if let Err(e) = layers::checkpoint_section(metrics, &mut online.trainer) {
            checks.push(Check::new("checkpoint_round_trip", false, e));
        }
    }
    metrics.set("bench.spans", tracer.spans().len() as f64);
    metrics.set("bench.spans_dropped", tracer.dropped() as f64);
    Ok(())
}

/// Sampled catalog queries served fused, through the warm engine, must
/// score bit-equal to each query served alone by a cold engine (the
/// serving invariant: batching and caching are scheduling, not
/// arithmetic) and agree with `Dlrm::predict` to rounding. Not bit-equal
/// to `predict`: it pools a sample's rows in index order, the engine in
/// casted (ascending row) order, and f32 addition does not reassociate.
fn score_check(inst: &mut Instance, opts: &RunOptions) -> Check {
    const NAME: &str = "served_scores_match_reference";
    let mut rng = tcast_tensor::SplitMix64::new(derive_seed(opts.seed, 4));
    let catalog = inst.workload.catalog_size() as u64;
    let sampled: Vec<Arc<Query>> = (0..SCORE_SAMPLES)
        .map(|_| Arc::clone(inst.workload.query(rng.next_below(catalog) as usize)))
        .collect();
    let model = model_ref(&inst.model);
    let served = match inst.engine.score(model, sampled.iter()) {
        Ok(s) => s,
        Err(e) => return Check::new(NAME, false, e.to_string()),
    };
    let mut worst = 0.0f64;
    for (i, q) in sampled.iter().enumerate() {
        let mut cold = ServeEngine::new(model, 1, Execution::Serial);
        let alone = match cold.score(model, std::iter::once(q)) {
            Ok(s) => s.scores(0).to_vec(),
            Err(e) => return Check::new(NAME, false, e.to_string()),
        };
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        if bits(served.scores(i)) != bits(&alone) {
            return Check::new(
                NAME,
                false,
                format!(
                    "query {} fused {:?}, alone {alone:?}",
                    q.id,
                    served.scores(i)
                ),
            );
        }
        let expect = match model.predict(&q.dense, &q.indices) {
            Ok(m) => m,
            Err(e) => return Check::new(NAME, false, e.to_string()),
        };
        for (a, b) in alone.iter().zip(expect.as_slice()) {
            worst = worst.max(f64::from((a - b).abs()) / f64::from(b.abs()).max(1.0));
        }
        if alone.len() != expect.as_slice().len() || worst.is_nan() || worst > 1e-4 {
            return Check::new(
                NAME,
                false,
                format!(
                    "query {} scored {alone:?}, predict gave {:?}",
                    q.id,
                    expect.as_slice()
                ),
            );
        }
    }
    Check::new(
        NAME,
        true,
        format!(
            "{SCORE_SAMPLES} sampled queries: fused = alone bit for bit, within {worst:.1e} of Dlrm::predict"
        ),
    )
}

/// The first online updates must be the steps an offline trainer takes on
/// the same batch stream: serving changes when the model advances, never
/// how.
fn update_check(spec: &ServeSpec, opts: &RunOptions, inst: &Instance) -> Check {
    const NAME: &str = "online_updates_bit_equal";
    let cfg = config(spec, opts.quick);
    let Some(mut source) = train_source(spec, opts, &cfg) else {
        return Check::skipped(NAME, "this workload serves a frozen model");
    };
    if inst.update_losses.len() < UPDATE_SAMPLES {
        return Check::new(
            NAME,
            false,
            format!("only {} updates ran", inst.update_losses.len()),
        );
    }
    let mut offline = match new_trainer(&cfg, derive_seed(opts.seed, 1)) {
        Ok(t) => t,
        Err(e) => return Check::new(NAME, false, e),
    };
    for (i, online_loss) in inst.update_losses[..UPDATE_SAMPLES].iter().enumerate() {
        use tcast_datasets::BatchSource;
        let batch = source.next_batch().expect("synthetic sources never end");
        let loss = match offline.step(&batch) {
            Ok(r) => r.loss,
            Err(e) => return Check::new(NAME, false, e.to_string()),
        };
        if loss.to_bits() != online_loss.to_bits() {
            return Check::new(
                NAME,
                false,
                format!("update {i}: online {online_loss}, offline {loss}"),
            );
        }
    }
    Check::new(
        NAME,
        true,
        format!("first {UPDATE_SAMPLES} online update losses equal an offline trainer's"),
    )
}
