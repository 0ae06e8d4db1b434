//! The one serve loop. [`crate::serve`], [`crate::serve_online`],
//! [`crate::run_fleet`] and every [`crate::serve_concurrent`] engine only
//! build lanes, [`run`] them, and shape the result.
//!
//! A **lane** is one [`AdmissionQueue`] with its arrivals (Poisson gaps,
//! a [`RateCurve`] by thinning, or closed-loop clients), its model
//! [`Source`] (a frozen `&Dlrm`, an interleaved [`Trainer`], or a
//! [`SnapshotStore`]) and its accounting: shed, fire, latency / SLA /
//! freshness, and the one [`ServeReport`]. The **scheduler** fires one
//! batch at a time: the fireable lane with the least [`WfqScheduler`]
//! virtual time, trivially the only one when there is one lane.
//!
//! # The clock
//!
//! Arrivals live on a simulated nanosecond clock, so a seeded workload
//! has the same arrival schedule on any machine. A fired batch advances
//! that clock by its service time, which the [`Clock`] defines:
//!
//! * **measured** — the wall time of really scoring it; update steps,
//!   batch generation and hot restores land on the clock the same way,
//!   and model age is wall age. Latency, QPS and SLA accounting reflect
//!   real compute on this host while the arrival pattern stays
//!   reproducible. `serve`, `serve_online` and the concurrent engines.
//! * **modeled** — the [`PoolCostModel`] price of the batch, which is
//!   still really scored (its wall time kept in `measured_ns`). The run is
//!   a pure function of the lanes' specs, model age is simulated, and the
//!   fleet replays bit-identically.
//!
//! Under `Fixed` batching the clock never changes which queries fuse:
//! batch composition depends only on the draw order.

use std::collections::VecDeque;
use std::fs::File;
use std::sync::Arc;
use std::time::Instant;

use crate::concurrent::ServedBatchRecord;
use crate::engine::ServeEngine;
use crate::fleet::{PoolCostModel, PopularityShift, WfqScheduler};
use crate::online::{HotRestore, OnlineConfig, OnlineReport, ServeConfig, ServeError};
use crate::queue::{AdmissionQueue, BatchPolicy, Decision, QueuedQuery};
use crate::request::{ArrivalProcess, QueryModel, RateCurve};
use crate::stats::{FreshnessLedger, ServeReport};
use tcast_datasets::BatchSource;
use tcast_dlrm::checkpoint::{read_train_checkpoint, CheckpointError};
use tcast_dlrm::{Dlrm, Trainer};
use tcast_embedding::EmbeddingError;
use tcast_snapshot::{ModelSnapshot, PublishCadence, SnapshotStore};
use tcast_tensor::SplitMix64;

/// What a fired batch advances the clock by (see the module docs).
#[derive(Debug, Clone, Copy)]
pub(crate) enum Clock {
    Measured,
    Modeled(PoolCostModel),
}

/// How a lane's queries arrive.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Arrivals {
    /// Poisson gaps, or closed-loop clients.
    Process(ArrivalProcess),
    /// An inhomogeneous Poisson process, sampled by thinning.
    Curve(RateCurve),
}

/// A lane's arrival schedule. A query is drawn from the workload only at
/// admission, so the draw order is the admission order for every arrival
/// model, and a popularity shift applies to every query admitted after it.
pub(crate) struct Traffic {
    arrivals: Arrivals,
    closed_loop: bool,
    rng: SplitMix64,
    /// Issued, not yet admitted arrival times, non-decreasing: the next
    /// open-loop arrival, or each thinking closed-loop client's request.
    pending: VecDeque<u64>,
    issued: usize,
    total: usize,
}

impl Traffic {
    pub(crate) fn new(arrivals: Arrivals, total: usize, seed: u64) -> Self {
        let mut this = Self {
            arrivals,
            closed_loop: false,
            rng: SplitMix64::new(seed),
            pending: VecDeque::new(),
            issued: 0,
            total,
        };
        match arrivals {
            Arrivals::Process(ArrivalProcess::ClosedLoop { clients, .. }) => {
                this.closed_loop = true;
                this.issued = clients.max(1).min(total);
                this.pending.resize(this.issued, 0);
            }
            _ => this.issue(0),
        }
        this
    }

    /// Issues the next query after `after_ns` (one gap later open-loop,
    /// one think time later closed-loop); nothing once all are issued.
    fn issue(&mut self, after_ns: u64) {
        if self.issued < self.total {
            self.pending.push_back(match self.arrivals {
                Arrivals::Process(ArrivalProcess::ClosedLoop { think_ns, .. }) => {
                    after_ns + think_ns
                }
                Arrivals::Process(process) => after_ns + process.next_gap_ns(&mut self.rng),
                Arrivals::Curve(curve) => curve.next_arrival_after(after_ns, &mut self.rng),
            });
            self.issued += 1;
        }
    }

    /// Pops the next arrival due by `now_ns`. An open-loop arrival issues
    /// its successor; a closed-loop client waits for its completion.
    fn pop_due(&mut self, now_ns: u64) -> Option<u64> {
        let at = self.pending.front().copied().filter(|&at| at <= now_ns)?;
        self.pending.pop_front();
        if !self.closed_loop {
            self.issue(at);
        }
        Some(at)
    }

    /// `n` queries completed (scored or shed) at `now_ns`.
    fn complete(&mut self, n: usize, now_ns: u64) {
        if self.closed_loop {
            (0..n).for_each(|_| self.issue(now_ns));
        }
    }
}

/// Where a lane's model comes from.
pub(crate) enum Source<'a> {
    /// A model nothing mutates: no freshness to record.
    Frozen(&'a Dlrm),
    Trainer(TrainerSlot<'a>),
    Snapshots(SnapshotSlot<'a>),
}

/// The interleaved trainer (measured clock only): after every
/// `update_every` fired batches, one [`Trainer::step`] on the next batch
/// from the source. Serving reads the model through `&` only, so the
/// update trajectory is the offline trainer's.
pub(crate) struct TrainerSlot<'a> {
    trainer: &'a mut Trainer,
    batches: &'a mut dyn BatchSource,
    update_every: u64,
    restore: Option<HotRestore>,
    online: &'a mut OnlineReport,
    since_update: u64,
    /// When the model last changed (an update step or a hot restore).
    published: Instant,
}

impl<'a> TrainerSlot<'a> {
    pub(crate) fn new(
        trainer: &'a mut Trainer,
        batches: &'a mut dyn BatchSource,
        config: OnlineConfig,
        online: &'a mut OnlineReport,
    ) -> Self {
        assert!(config.update_every > 0, "update_every must be positive");
        Self {
            trainer,
            batches,
            update_every: config.update_every as u64,
            restore: config.restore,
            online,
            since_update: 0,
            published: Instant::now(),
        }
    }

    /// The update slot after every fired batch; generation and step wall
    /// times land on the clock.
    fn after_batch(
        &mut self,
        now_ns: &mut u64,
        report: &mut ServeReport,
    ) -> Result<(), ServeError> {
        self.online.staleness_batches.push(self.since_update);
        self.since_update += 1;
        if self.since_update < self.update_every {
            return Ok(());
        }
        let t0 = Instant::now();
        let batch = self.batches.next_batch().ok_or_else(|| {
            EmbeddingError::InvalidIndex("training batch source ended".to_string())
        })?;
        let gen_ns = elapsed_ns(t0);
        let t0 = Instant::now();
        let step = self.trainer.step(&batch)?;
        let train_ns = elapsed_ns(t0);
        self.batches.recycle(batch);
        *now_ns += gen_ns + train_ns;
        self.online.gen_ns += gen_ns;
        self.online.train_ns += train_ns;
        self.online.losses.push(step.loss);
        self.online.updates += 1;
        self.since_update = 0;
        self.published = Instant::now();
        self.restore_due(now_ns, report)
    }

    /// Loads the hot restore into the live trainer once it has taken
    /// `at_update` steps, charging the wall time to the clock.
    fn restore_due(
        &mut self,
        now_ns: &mut u64,
        report: &mut ServeReport,
    ) -> Result<(), ServeError> {
        let updates = self.online.updates;
        let Some(hr) = self.restore.take_if(|hr| updates >= hr.at_update) else {
            return Ok(());
        };
        let t0 = Instant::now();
        let mut file = File::open(&hr.path).map_err(CheckpointError::from)?;
        read_train_checkpoint(&mut file)?.restore_into(self.trainer)?;
        let spent = elapsed_ns(t0);
        *now_ns += spent;
        report.restores += 1;
        report.restore_ns += spent;
        self.published = Instant::now();
        Ok(())
    }
}

/// Serving from a [`SnapshotStore`]: one consistent snapshot per fused
/// batch, refreshed once the held one falls more than `staleness_bound`
/// versions behind the head.
pub(crate) struct SnapshotSlot<'a> {
    store: &'a SnapshotStore,
    held: Arc<ModelSnapshot>,
    staleness_bound: u64,
    /// Republishes the head on this cadence of the lane clock.
    cadence: Option<PublishCadence>,
    next_publish_ns: u64,
    last_publish_ns: u64,
    publishes: u64,
    /// Every served batch, as engine `.0`, for offline replay.
    record: Option<(usize, &'a mut Vec<ServedBatchRecord>)>,
}

impl<'a> SnapshotSlot<'a> {
    pub(crate) fn new(
        store: &'a SnapshotStore,
        staleness_bound: u64,
        cadence: Option<PublishCadence>,
        record: Option<(usize, &'a mut Vec<ServedBatchRecord>)>,
    ) -> Self {
        Self {
            store,
            held: store.latest(),
            staleness_bound,
            cadence,
            next_publish_ns: cadence.map_or(u64::MAX, |c| c.next_fire_after(0)),
            last_publish_ns: 0,
            publishes: 0,
            record,
        }
    }

    /// Applies due cadence republishes at their scheduled times, so model
    /// age is exact even when the clock jumps a whole batch at once.
    fn apply_publishes(&mut self, now_ns: u64) {
        while let Some(cadence) = self.cadence.filter(|_| self.next_publish_ns <= now_ns) {
            self.store.republish_head();
            self.publishes += 1;
            self.last_publish_ns = self.next_publish_ns;
            self.next_publish_ns = cadence.next_fire_after(self.next_publish_ns);
        }
    }

    fn resolve(&mut self) -> &Dlrm {
        if self.store.version().saturating_sub(self.held.version()) > self.staleness_bound {
            self.held = self.store.latest();
        }
        self.held.model()
    }
}

/// One admission queue, its arrivals, its model source, its accounting.
pub(crate) struct Lane<'a> {
    pub(crate) engine: &'a mut ServeEngine,
    workload: &'a mut QueryModel,
    source: Source<'a>,
    traffic: Traffic,
    queue: AdmissionQueue,
    shed_unmeetable: bool,
    /// Rotates the workload's popularity once the clock reaches it.
    pub(crate) shift: Option<PopularityShift>,
    /// The counters and histograms, accumulated in place.
    report: ServeReport,
    freshness: FreshnessLedger,
    /// The clock at the first fire.
    pub(crate) started_ns: Option<u64>,
    /// Wall time inside `score_queued` (the service time only on the
    /// measured clock).
    pub(crate) measured_ns: u64,
    /// Reused buffers the fired batch and the shed queries drain into:
    /// no per-batch allocation once they reach their largest size.
    batch: Vec<QueuedQuery>,
    shed_buf: Vec<QueuedQuery>,
}

impl<'a> Lane<'a> {
    pub(crate) fn new(
        engine: &'a mut ServeEngine,
        workload: &'a mut QueryModel,
        source: Source<'a>,
        traffic: Traffic,
        policy: BatchPolicy,
        sla_ns: u64,
        shed_unmeetable: bool,
    ) -> Self {
        Self {
            engine,
            workload,
            source,
            traffic,
            queue: AdmissionQueue::new(policy),
            shed_unmeetable,
            shift: None,
            report: ServeReport {
                sla_ns,
                ..ServeReport::default()
            },
            freshness: FreshnessLedger::default(),
            started_ns: None,
            measured_ns: 0,
            batch: Vec::new(),
            shed_buf: Vec::new(),
        }
    }

    /// A lane shaped by a [`ServeConfig`].
    pub(crate) fn serving(
        engine: &'a mut ServeEngine,
        workload: &'a mut QueryModel,
        source: Source<'a>,
        config: &ServeConfig,
    ) -> Self {
        let traffic = Traffic::new(
            Arrivals::Process(config.arrivals),
            config.queries,
            config.seed,
        );
        let (policy, sla_ns, shed) = (config.policy.clone(), config.sla_ns, config.shed_unmeetable);
        Self::new(engine, workload, source, traffic, policy, sla_ns, shed)
    }

    /// Every query served or shed: a lane with nothing to serve is done
    /// before it starts.
    fn done(&self) -> bool {
        self.report.queries >= self.traffic.total as u64
    }

    /// Runs this lane alone; returns the final clock.
    pub(crate) fn run_alone(&mut self, clock: Clock) -> Result<u64, ServeError> {
        let mut sched = WfqScheduler::new(&[1]);
        run(std::slice::from_mut(self), &mut sched, clock)
    }

    /// Cadence republishes of a snapshot lane so far.
    pub(crate) fn publishes(&self) -> u64 {
        match &self.source {
            Source::Snapshots(s) => s.publishes,
            _ => 0,
        }
    }

    /// Delivers what is due by `now_ns` — cadence publishes, the
    /// popularity shift, arrivals — and reports whether the queue went
    /// from idle to backlogged.
    fn deliver(&mut self, now_ns: u64) -> bool {
        if let Source::Snapshots(s) = &mut self.source {
            s.apply_publishes(now_ns);
        }
        if let Some(shift) = self.shift.take_if(|s| s.at_ns <= now_ns) {
            self.workload.shift_popularity(shift.rotation);
        }
        let was_idle = self.queue.is_empty();
        while let Some(at) = self.traffic.pop_due(now_ns) {
            self.queue.push(self.workload.draw(), at);
        }
        was_idle && !self.queue.is_empty()
    }

    /// Graceful degradation: sheds the queries that already cannot meet
    /// the SLA. A shed query completes (freeing its closed-loop client)
    /// but is never scored.
    fn shed_expired(&mut self, now_ns: u64) {
        if self.shed_unmeetable {
            let sla_ns = self.report.sla_ns;
            self.queue
                .shed_expired_into(now_ns, sla_ns, &mut self.shed_buf);
            let n = self.shed_buf.len();
            self.shed_buf.clear();
            self.report.queries += n as u64;
            self.traffic.complete(n, now_ns);
        }
    }

    /// Fires the oldest `n` queries: scores them, advances the clock by
    /// the service time, accounts them, runs the source's update slot.
    /// Returns the service time, which the scheduler charges.
    fn fire(&mut self, n: usize, now_ns: &mut u64, clock: Clock) -> Result<u64, ServeError> {
        self.queue.take_into(n, &mut self.batch);
        self.started_ns.get_or_insert(*now_ns);
        let model = match &mut self.source {
            Source::Frozen(model) => *model,
            Source::Trainer(t) => t.trainer.model(),
            Source::Snapshots(s) => s.resolve(),
        };
        let t0 = Instant::now();
        let scored = self.engine.score_queued(model, &self.batch)?;
        let wall_ns = elapsed_ns(t0);
        let samples = scored.num_samples() as u64;
        if let Source::Snapshots(SnapshotSlot {
            held,
            record: Some((engine, records)),
            ..
        }) = &mut self.source
        {
            records.push(ServedBatchRecord {
                engine: *engine,
                version: held.version(),
                steps: held.steps(),
                queries: self.batch.iter().map(|q| Arc::clone(&q.query)).collect(),
                scores: scored.fused_logits().as_slice().to_vec(),
            });
        }
        let service_ns = match clock {
            Clock::Measured => wall_ns,
            Clock::Modeled(cost) => cost.service_ns(samples),
        };
        *now_ns += service_ns;
        self.measured_ns += wall_ns;
        let r = &mut self.report;
        r.batches += 1;
        r.samples += samples;
        r.queries += n as u64;
        r.service.record(service_ns);
        self.queue.observe_batch(*now_ns - self.batch[0].arrival_ns);
        for item in self.batch.drain(..) {
            let latency = *now_ns - item.arrival_ns;
            r.latency.record(latency);
            // Exclusive deadline: meet iff latency < sla_ns, the shed and
            // adaptive-batcher boundary.
            if latency >= r.sla_ns {
                r.sla_violations += 1;
            }
        }
        self.traffic.complete(n, *now_ns);
        match &mut self.source {
            Source::Frozen(_) => {}
            Source::Trainer(t) => {
                // Version 1 + mutations (update steps and hot restores);
                // interleaved serving always scores the head: 0 behind.
                let version = 1 + t.online.updates + self.report.restores;
                self.freshness.record(version, 0, elapsed_ns(t.published));
                t.after_batch(now_ns, &mut self.report)?;
            }
            Source::Snapshots(s) => {
                let age = match clock {
                    Clock::Measured => s.held.age_ns(),
                    Clock::Modeled(_) => now_ns.saturating_sub(s.last_publish_ns),
                };
                let behind = s.store.version().saturating_sub(s.held.version());
                self.freshness.record(s.held.version(), behind, age);
            }
        }
        Ok(service_ns)
    }

    /// The lane's [`ServeReport`], finished with the entry point's own
    /// `span_ns`.
    pub(crate) fn into_report(mut self, span_ns: u64) -> (ServeReport, FreshnessLedger) {
        let r = &mut self.report;
        r.span_ns = span_ns;
        r.max_queue_depth = self.queue.max_depth();
        r.cache_hit_rate = self.engine.cache_hit_rate();
        r.shed = self.queue.shed_count();
        (self.report, self.freshness)
    }
}

/// Runs `lanes` on one clock until every lane has served or shed its
/// queries; returns the final clock. Each step delivers what is due,
/// sheds, asks every queue for a decision, and fires *one* batch: the
/// fireable lane with the least virtual time in `sched`.
pub(crate) fn run(
    lanes: &mut [Lane<'_>],
    sched: &mut WfqScheduler,
    clock: Clock,
) -> Result<u64, ServeError> {
    let mut now_ns = 0u64;
    for lane in lanes.iter_mut().filter(|lane| !lane.done()) {
        if let Source::Trainer(t) = &mut lane.source {
            t.restore_due(&mut now_ns, &mut lane.report)?;
        }
    }
    let mut fire: Vec<(usize, usize)> = Vec::new();
    while !lanes.iter().all(Lane::done) {
        for i in 0..lanes.len() {
            if lanes[i].deliver(now_ns) {
                // Idle-to-backlogged: catch up to the backlogged minimum
                // so idle time never banks WFQ credit.
                let floor = (0..lanes.len())
                    .filter(|&j| j != i && !lanes[j].queue.is_empty())
                    .map(|j| sched.vtime(j))
                    .min();
                if let Some(floor) = floor {
                    sched.raise_to(i, floor);
                }
            }
            lanes[i].shed_expired(now_ns);
        }
        fire.clear();
        let mut next_event = u64::MAX;
        for (i, lane) in lanes.iter().enumerate() {
            // "More arrivals": can a query still arrive before the next
            // fire? Closed-loop arrivals are completion-driven: once no
            // client is thinking, a policy waiting for a fuller batch
            // would deadlock (Fixed { batch: 8 } with 2 clients).
            let next_arrival = lane.traffic.pending.front().copied();
            match lane.queue.decide(now_ns, next_arrival.is_some()) {
                Decision::Fire(n) => fire.push((i, n)),
                Decision::WaitUntil(t) => next_event = next_event.min(t),
                Decision::Wait => {}
            }
            next_event = next_event.min(next_arrival.unwrap_or(u64::MAX));
        }
        let Some(i) = sched.pick(fire.iter().map(|&(i, _)| i)) else {
            if next_event == u64::MAX {
                break; // nothing queued and nothing due: all done
            }
            now_ns = next_event.max(now_ns + 1);
            continue;
        };
        let &(_, n) = fire
            .iter()
            .find(|&&(j, _)| j == i)
            .expect("picked lane fires");
        let service_ns = lanes[i].fire(n, &mut now_ns, clock)?;
        sched.charge(i, service_ns);
    }
    Ok(now_ns)
}

/// A lane without a trainer can only fail to score.
pub(crate) fn scoring_only(e: ServeError) -> EmbeddingError {
    match e {
        ServeError::Score(e) => e,
        ServeError::Restore(e) => unreachable!("only a trainer lane restores: {e}"),
    }
}

fn elapsed_ns(since: Instant) -> u64 {
    since.elapsed().as_nanos() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::CandidateCount;
    use tcast_dlrm::DlrmConfig;

    fn workload() -> QueryModel {
        let cfg = DlrmConfig::tiny();
        let tables = cfg.table_workloads();
        QueryModel::new(
            &tables,
            cfg.dense_features,
            16,
            CandidateCount::Fixed(2),
            1.1,
            8,
        )
    }

    /// `serve`'s lane (Poisson, measured) and a one-tenant fleet's lane
    /// (constant curve, modeled) fuse the same queries batch for batch,
    /// in the workload's draw order.
    #[test]
    fn serve_and_a_fleet_of_one_fuse_the_same_batches() {
        let model = Dlrm::new(DlrmConfig::tiny(), 61).unwrap();
        let store = SnapshotStore::new(&model, 0, 2);
        let fused = |arrivals: Arrivals, clock: Clock| {
            let mut engine = ServeEngine::with_defaults(&model);
            let mut wl = workload();
            let mut recorded = Vec::new();
            let slot = SnapshotSlot::new(&store, 0, None, Some((0, &mut recorded)));
            let traffic = Traffic::new(arrivals, 37, 8);
            let policy = BatchPolicy::Fixed { batch: 4 };
            let source = Source::Snapshots(slot);
            let mut lane = Lane::new(
                &mut engine,
                &mut wl,
                source,
                traffic,
                policy,
                50_000_000,
                false,
            );
            lane.run_alone(clock).unwrap();
            drop(lane);
            recorded
                .iter()
                .map(|r| r.queries.iter().map(|q| q.id).collect::<Vec<u64>>())
                .collect::<Vec<_>>()
        };
        let served = fused(
            Arrivals::Process(ArrivalProcess::Poisson { mean_qps: 20_000.0 }),
            Clock::Measured,
        );
        let fleet = fused(
            Arrivals::Curve(RateCurve::Constant { qps: 20_000.0 }),
            Clock::Modeled(PoolCostModel::default()),
        );
        assert_eq!(served.len(), 10, "nine 4-batches and a drain of 1");
        assert_eq!(served, fleet);
        let mut fresh = workload();
        let drawn: Vec<u64> = (0..37).map(|_| fresh.draw().id).collect();
        assert_eq!(served.concat(), drawn);
    }
}
