//! The benchmark's own serving loop, used by the traced run only.
//!
//! `tcast_serve::serve()` reports a histogram; the per-query spans the
//! layer metrics need (when was a query admitted, how long did it queue,
//! which batch scored it) exist only inside its private loop. This module
//! drives the same public pieces — `QueryModel::draw`, `AdmissionQueue`,
//! `ServeEngine::score_queued`, `Trainer::step` — on the same hybrid
//! clock (arrivals simulated, service measured) with the same decisions,
//! and keeps every span. `serve.driver_over_serve_mean` checks that the
//! two loops describe the same thing.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

use crate::alloc::allocations;
use crate::trace::{Tracer, NO_PARENT};
use tcast_datasets::BatchSource;
use tcast_dlrm::{Dlrm, StepReport, Trainer};
use tcast_serve::{
    AdmissionQueue, ArrivalProcess, Decision, Query, QueryModel, QueuedQuery, ServeConfig,
    ServeEngine,
};
use tcast_tensor::SplitMix64;

/// The model a phase serves: frozen, or a trainer that takes one update
/// step after every `update_every` fused batches.
pub enum Target<'a> {
    Frozen(&'a Dlrm),
    Online {
        trainer: &'a mut Trainer,
        source: &'a mut dyn BatchSource,
        update_every: usize,
    },
}

impl Target<'_> {
    fn model(&self) -> &Dlrm {
        match self {
            Target::Frozen(m) => m,
            Target::Online { trainer, .. } => trainer.model(),
        }
    }
}

/// Exact per-query and per-batch records of one phase.
#[derive(Debug, Default)]
pub struct PhaseRecord {
    /// Arrival to completion, per query, in completion order.
    pub latency_ns: Vec<u64>,
    /// Arrival to the batch firing, per query.
    pub queue_wait_ns: Vec<u64>,
    /// `score_queued` wall time, per fused batch.
    pub service_ns: Vec<u64>,
    /// Queries per fused batch.
    pub batch_sizes: Vec<usize>,
    /// The step report of every online update, in order.
    pub updates: Vec<StepReport>,
    /// First scored arrival to the last completion, on the loop's clock.
    pub span_ns: u64,
    pub sla_violations: u64,
    pub failed_updates: u64,
    /// Allocations the calling thread made inside `score_queued`.
    pub service_allocs: u64,
}

impl PhaseRecord {
    pub fn qps(&self) -> f64 {
        self.latency_ns.len() as f64 / (self.span_ns.max(1) as f64 / 1e9)
    }

    pub fn mean_latency_ns(&self) -> f64 {
        self.latency_ns.iter().sum::<u64>() as f64 / self.latency_ns.len().max(1) as f64
    }
}

/// `ArrivalProcess::next_gap_ns` is crate-private; this is its Poisson
/// arm, draw for draw.
fn poisson_gap_ns(mean_qps: f64, rng: &mut SplitMix64) -> u64 {
    let u = f64::from(rng.next_f32()).min(1.0 - 1e-9);
    ((-(1.0 - u).ln()) / mean_qps * 1e9) as u64
}

struct Waiting {
    id: u64,
    arrival_ns: u64,
    admitted_ns: u64,
}

/// Serves `config.queries` queries and records every one. Spans go to
/// `tracer` with their times offset by `clock_base_ns`, so successive
/// phases do not overlap in the span file; query ids start at `first_id`.
///
/// # Errors
///
/// Returns a message when scoring fails (a query that disagrees with the
/// model's shape) — the phase's queries then count as failed.
pub fn drive(
    engine: &mut ServeEngine,
    mut target: Target<'_>,
    workload: &mut QueryModel,
    config: &ServeConfig,
    mut tracer: Option<&mut Tracer>,
    clock_base_ns: u64,
    first_id: u64,
) -> Result<PhaseRecord, String> {
    let total = config.queries;
    let mut rec = PhaseRecord::default();
    rec.latency_ns.reserve(total);
    rec.queue_wait_ns.reserve(total);
    rec.service_ns.reserve(total);
    rec.batch_sizes.reserve(total);
    rec.updates.reserve(total);
    let mut queue = AdmissionQueue::new(config.policy.clone());
    let mut rng = SplitMix64::new(config.seed);
    let mut pending: VecDeque<(u64, Arc<Query>, u64)> = VecDeque::with_capacity(64);
    // The admission queue is FIFO; this mirrors it with the ids and
    // admission times its entries cannot carry.
    let mut waiting: VecDeque<Waiting> = VecDeque::with_capacity(64);
    let mut fired: Vec<QueuedQuery> = Vec::with_capacity(64);
    let (mut clock, mut issued, mut completed) = (0u64, 0usize, 0usize);
    let mut started_ns = 0u64;
    let mut batches_since_update = 0usize;
    let mut next_id = first_id;

    let open_rate = match config.arrivals {
        ArrivalProcess::Poisson { mean_qps } => Some(mean_qps),
        ArrivalProcess::ClosedLoop { .. } => None,
    };
    let mut issue =
        |at: u64, pending: &mut VecDeque<(u64, Arc<Query>, u64)>, issued: &mut usize| {
            pending.push_back((at, workload.draw(), next_id));
            next_id += 1;
            *issued += 1;
        };
    match config.arrivals {
        ArrivalProcess::Poisson { mean_qps } => {
            let gap = poisson_gap_ns(mean_qps, &mut rng);
            issue(gap, &mut pending, &mut issued);
        }
        ArrivalProcess::ClosedLoop { clients, .. } => {
            for _ in 0..clients.max(1).min(total) {
                issue(0, &mut pending, &mut issued);
            }
        }
    }

    while completed < total {
        // Admit everything that has arrived by now.
        while pending.front().is_some_and(|&(t, _, _)| t <= clock) {
            let (t, q, id) = pending.pop_front().expect("front exists");
            queue.push(q, t);
            waiting.push_back(Waiting {
                id,
                arrival_ns: t,
                admitted_ns: clock,
            });
            if let Some(qps) = open_rate {
                if issued < total {
                    let gap = poisson_gap_ns(qps, &mut rng);
                    issue(t + gap, &mut pending, &mut issued);
                }
            }
        }
        let more = match open_rate {
            Some(_) => issued < total || !pending.is_empty(),
            None => !pending.is_empty(),
        };
        match queue.decide(clock, more) {
            Decision::Fire(n) => {
                queue.take_into(n, &mut fired);
                if completed == 0 {
                    started_ns = clock;
                }
                let fire_ns = clock;
                let a0 = allocations();
                let t0 = Instant::now();
                engine
                    .score_queued(target.model(), &fired)
                    .map_err(|e| e.to_string())?;
                let service_ns = t0.elapsed().as_nanos() as u64;
                rec.service_allocs += allocations() - a0;
                clock += service_ns;
                rec.service_ns.push(service_ns);
                rec.batch_sizes.push(n);
                queue.observe_batch(clock - fired[0].arrival_ns);
                for _ in 0..n {
                    let w = waiting.pop_front().expect("mirror of the admission queue");
                    let latency = clock - w.arrival_ns;
                    rec.latency_ns.push(latency);
                    rec.queue_wait_ns.push(fire_ns - w.arrival_ns);
                    if latency >= config.sla_ns {
                        rec.sla_violations += 1;
                    }
                    if let Some(t) = tracer.as_deref_mut() {
                        let at = |ns: u64| clock_base_ns + ns;
                        let root = t.record("query", at(w.arrival_ns), at(clock), NO_PARENT, w.id);
                        t.record("admission", at(w.arrival_ns), at(w.admitted_ns), root, w.id);
                        t.record("queued", at(w.admitted_ns), at(fire_ns), root, w.id);
                        let batch = t.record("batch", at(fire_ns), at(clock), root, w.id);
                        t.record("service", at(fire_ns), at(clock), batch, w.id);
                    }
                }
                completed += n;
                if let ArrivalProcess::ClosedLoop { think_ns, .. } = config.arrivals {
                    for _ in 0..n {
                        if issued >= total {
                            break;
                        }
                        issue(clock + think_ns, &mut pending, &mut issued);
                    }
                }
                fired.clear();

                if let Target::Online {
                    trainer,
                    source,
                    update_every,
                } = &mut target
                {
                    batches_since_update += 1;
                    if batches_since_update >= *update_every {
                        batches_since_update = 0;
                        let update_id = rec.updates.len() as u64;
                        let t0 = Instant::now();
                        let batch = source.next_batch().expect("synthetic sources never end");
                        let gen_ns = t0.elapsed().as_nanos() as u64;
                        let t0 = Instant::now();
                        let step = trainer.step(&batch);
                        let train_ns = t0.elapsed().as_nanos() as u64;
                        source.recycle(batch);
                        if let Some(t) = tracer.as_deref_mut() {
                            let at = clock_base_ns + clock;
                            t.record("source.next_batch", at, at + gen_ns, NO_PARENT, update_id);
                            t.record(
                                "trainer.step",
                                at + gen_ns,
                                at + gen_ns + train_ns,
                                NO_PARENT,
                                update_id,
                            );
                        }
                        clock += gen_ns + train_ns;
                        match step {
                            Ok(report) => rec.updates.push(report),
                            Err(_) => rec.failed_updates += 1,
                        }
                    }
                }
            }
            Decision::WaitUntil(t) => {
                let next = pending.front().map_or(t, |&(at, _, _)| at.min(t));
                clock = next.max(clock + 1);
            }
            Decision::Wait => {
                let at = pending
                    .front()
                    .map(|&(at, _, _)| at)
                    .expect("an idle queue mid-run has a future arrival");
                clock = at.max(clock);
            }
        }
    }
    rec.span_ns = clock.saturating_sub(started_ns).max(1);
    Ok(rec)
}
