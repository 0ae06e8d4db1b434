//! The one serve loop. [`crate::serve`], [`crate::serve_online`] and
//! every [`crate::serve_concurrent`] engine only build a [`Lane`],
//! [`Lane::run`] it, and shape the result.
//!
//! A **lane** is one [`AdmissionQueue`] with its arrivals (Poisson gaps or
//! closed-loop clients), its model [`Source`] (a frozen `&Dlrm`, an
//! interleaved [`Trainer`], or a [`SnapshotStore`]) and its accounting:
//! shed, fire, latency / SLA / freshness, and the one [`ServeReport`].
//!
//! # The clock
//!
//! Arrivals live on a simulated nanosecond clock, so a seeded workload
//! has the same arrival schedule on any machine. A fired batch advances
//! that clock by the wall time of really scoring it; update steps, batch
//! generation and hot restores land on the clock the same way, and model
//! age is wall age. Latency, QPS and SLA accounting reflect real compute
//! on this host while the arrival pattern stays reproducible. Under
//! `Fixed` batching the clock never changes which queries fuse: batch
//! composition depends only on the draw order. Every advance is checked:
//! a think time or arrival gap that would carry the `u64` clock past its
//! end panics ([`advance`]) rather than wrapping round to make the next
//! query due at once.

use std::collections::VecDeque;
use std::fs::File;
use std::sync::Arc;
use std::time::Instant;

use crate::concurrent::ServedBatchRecord;
use crate::engine::ServeEngine;
use crate::online::{HotRestore, OnlineConfig, OnlineReport, ServeConfig, ServeError};
use crate::queue::{AdmissionQueue, Decision, QueuedQuery};
use crate::request::{ArrivalProcess, QueryModel};
use crate::stats::{FreshnessLedger, ServeReport};
use tcast_datasets::BatchSource;
use tcast_dlrm::checkpoint::{read_train_checkpoint, CheckpointError};
use tcast_dlrm::{Dlrm, Trainer};
use tcast_embedding::EmbeddingError;
use tcast_snapshot::{ModelSnapshot, SnapshotStore};
use tcast_tensor::SplitMix64;

/// A lane's arrival schedule. A query is drawn from the workload only at
/// admission, so the draw order is the admission order for either
/// arrival process.
struct Traffic {
    arrivals: ArrivalProcess,
    rng: SplitMix64,
    /// Issued, not yet admitted arrival times, non-decreasing: the next
    /// open-loop arrival, or each thinking closed-loop client's request.
    pending: VecDeque<u64>,
    issued: usize,
    total: usize,
}

impl Traffic {
    fn new(arrivals: ArrivalProcess, total: usize, seed: u64) -> Self {
        let mut this = Self {
            arrivals,
            rng: SplitMix64::new(seed),
            pending: VecDeque::new(),
            issued: 0,
            total,
        };
        match arrivals {
            ArrivalProcess::ClosedLoop { clients, .. } => {
                this.issued = clients.max(1).min(total);
                this.pending.resize(this.issued, 0);
            }
            ArrivalProcess::Poisson { .. } => this.issue(0),
        }
        this
    }

    /// Issues the next query after `after_ns` (one gap later open-loop,
    /// one think time later closed-loop); nothing once all are issued.
    fn issue(&mut self, after_ns: u64) {
        if self.issued < self.total {
            self.pending.push_back(match self.arrivals {
                ArrivalProcess::ClosedLoop { think_ns, .. } => advance(after_ns, think_ns),
                process => advance(after_ns, process.next_gap_ns(&mut self.rng)),
            });
            self.issued += 1;
        }
    }

    /// Pops the next arrival due by `now_ns`. An open-loop arrival issues
    /// its successor; a closed-loop client waits for its completion.
    fn pop_due(&mut self, now_ns: u64) -> Option<u64> {
        let at = self.pending.front().copied().filter(|&at| at <= now_ns)?;
        self.pending.pop_front();
        if let ArrivalProcess::Poisson { .. } = self.arrivals {
            self.issue(at);
        }
        Some(at)
    }

    /// `n` queries completed (scored or shed) at `now_ns`.
    fn complete(&mut self, n: usize, now_ns: u64) {
        if let ArrivalProcess::ClosedLoop { .. } = self.arrivals {
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

/// The interleaved trainer: after every
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
        *now_ns = advance(advance(*now_ns, gen_ns), train_ns);
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
        *now_ns = advance(*now_ns, spent);
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
    /// Every served batch, as engine `.0`, for offline replay.
    record: Option<(usize, &'a mut Vec<ServedBatchRecord>)>,
}

impl<'a> SnapshotSlot<'a> {
    pub(crate) fn new(
        store: &'a SnapshotStore,
        staleness_bound: u64,
        record: Option<(usize, &'a mut Vec<ServedBatchRecord>)>,
    ) -> Self {
        Self {
            store,
            held: store.latest(),
            staleness_bound,
            record,
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
    engine: &'a mut ServeEngine,
    workload: &'a mut QueryModel,
    source: Source<'a>,
    traffic: Traffic,
    queue: AdmissionQueue,
    shed_unmeetable: bool,
    /// The counters and histograms, accumulated in place.
    report: ServeReport,
    freshness: FreshnessLedger,
    /// The clock at the first fire.
    pub(crate) started_ns: Option<u64>,
    /// Reused buffers the fired batch and the shed queries drain into:
    /// no per-batch allocation once they reach their largest size.
    batch: Vec<QueuedQuery>,
    shed_buf: Vec<QueuedQuery>,
}

impl<'a> Lane<'a> {
    /// A lane shaped by a [`ServeConfig`].
    pub(crate) fn serving(
        engine: &'a mut ServeEngine,
        workload: &'a mut QueryModel,
        source: Source<'a>,
        config: &ServeConfig,
    ) -> Self {
        Self {
            engine,
            workload,
            source,
            traffic: Traffic::new(config.arrivals, config.queries, config.seed),
            queue: AdmissionQueue::new(config.policy.clone()),
            shed_unmeetable: config.shed_unmeetable,
            report: ServeReport {
                sla_ns: config.sla_ns,
                ..ServeReport::default()
            },
            freshness: FreshnessLedger::default(),
            started_ns: None,
            batch: Vec::new(),
            shed_buf: Vec::new(),
        }
    }

    /// Every query served or shed: a lane with nothing to serve is done
    /// before it starts.
    fn done(&self) -> bool {
        self.report.queries >= self.traffic.total as u64
    }

    /// Runs the lane until every query is served or shed; returns the
    /// final clock. Each step admits what has arrived, sheds, and asks
    /// the queue for a decision: fire a batch, or sleep until the next
    /// arrival or batching deadline.
    pub(crate) fn run(&mut self) -> Result<u64, ServeError> {
        let mut now_ns = 0u64;
        if self.done() {
            return Ok(now_ns);
        }
        if let Source::Trainer(t) = &mut self.source {
            t.restore_due(&mut now_ns, &mut self.report)?;
        }
        while !self.done() {
            while let Some(at) = self.traffic.pop_due(now_ns) {
                self.queue.push(self.workload.draw(), at);
            }
            self.shed_expired(now_ns);
            // "More arrivals": can a query still arrive before the next
            // fire? Closed-loop arrivals are completion-driven: once no
            // client is thinking, a policy waiting for a fuller batch
            // would deadlock (Fixed { batch: 8 } with 2 clients).
            let next_arrival = self.traffic.pending.front().copied();
            let wake_ns = match self.queue.decide(now_ns, next_arrival.is_some()) {
                Decision::Fire(n) => {
                    self.fire(n, &mut now_ns)?;
                    continue;
                }
                Decision::WaitUntil(t) => next_arrival.map_or(t, |at| at.min(t)),
                Decision::Wait => match next_arrival {
                    Some(at) => at,
                    None => break, // nothing queued and nothing due: all done
                },
            };
            now_ns = wake_ns.max(advance(now_ns, 1));
        }
        Ok(now_ns)
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
    /// the wall time of scoring, accounts them, runs the source's update
    /// slot.
    fn fire(&mut self, n: usize, now_ns: &mut u64) -> Result<(), ServeError> {
        self.queue.take_into(n, &mut self.batch);
        self.started_ns.get_or_insert(*now_ns);
        let model = match &mut self.source {
            Source::Frozen(model) => *model,
            Source::Trainer(t) => t.trainer.model(),
            Source::Snapshots(s) => s.resolve(),
        };
        let t0 = Instant::now();
        let scored = self.engine.score_queued(model, &self.batch)?;
        let service_ns = elapsed_ns(t0);
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
        *now_ns = advance(*now_ns, service_ns);
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
                let behind = s.store.version().saturating_sub(s.held.version());
                self.freshness
                    .record(s.held.version(), behind, s.held.age_ns());
            }
        }
        Ok(())
    }

    /// The lane's [`ServeReport`], finished with the entry point's own
    /// `span_ns`.
    pub(crate) fn into_report(mut self, span_ns: u64) -> (ServeReport, FreshnessLedger) {
        let r = &mut self.report;
        r.span_ns = span_ns;
        r.max_queue_depth = self.queue.max_depth();
        r.shed = self.queue.shed_count();
        (self.report, self.freshness)
    }
}

/// A lane without a trainer can only fail to score.
pub(crate) fn scoring_only(e: ServeError) -> EmbeddingError {
    match e {
        ServeError::Score(e) => e,
        ServeError::Restore(e) => unreachable!("only a trainer lane restores: {e}"),
    }
}

/// `now_ns + by_ns` on a lane's clock.
///
/// # Panics
///
/// Panics if the sum overflows `u64`.
fn advance(now_ns: u64, by_ns: u64) -> u64 {
    match now_ns.checked_add(by_ns) {
        Some(t) => t,
        None => panic!("serve clock overflowed u64: {now_ns} ns + {by_ns} ns"),
    }
}

fn elapsed_ns(since: Instant) -> u64 {
    since.elapsed().as_nanos() as u64
}
