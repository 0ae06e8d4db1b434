//! A scheduling model of a multi-tenant serving fleet: N tenants — each
//! with its own model, snapshot store, admission queue, batching policy
//! and SLA — sharing one execution pool under weighted-fair scheduling.
//!
//! DeepRecSys's subject is scheduling *across* engines at datacenter
//! scale: the hard serving problem is not one model's batch size but
//! what happens to tenant B's p99 when tenant A's traffic spikes 50x.
//! DeepRecSys measured that on a real cluster; this module *models* it,
//! beside the paper's other model. It drives the live serving crates only
//! through their public API — [`AdmissionQueue`], [`ServeEngine`],
//! [`QueryModel`] and [`SnapshotStore`] — on a loop of its own:
//!
//! * each [`Tenant`] owns a [`SnapshotStore`] (its frozen model, with an
//!   optional staggered [`PublishCadence`] standing in for a live
//!   trainer), a [`QueryModel`], an [`AdmissionQueue`] under any
//!   [`BatchPolicy`], an SLA, and per-tenant unmeetable-deadline
//!   shedding;
//! * arrivals come from [`RateCurve`]s (diurnal days, flash crowds), so
//!   tenants see genuinely heterogeneous load;
//! * pool time is shared by [`WfqScheduler`], a *pure* virtual-time
//!   weighted-fair scheduler in the `AdaptiveBatcher` decision-function
//!   style: each fired batch charges its tenant `cost / weight` virtual
//!   time and the next batch goes to the backlogged tenant with the
//!   smallest virtual time — so over any backlogged interval, tenants'
//!   pool-time shares converge to their weight ratio, and a flash crowd
//!   can only eat its own share;
//! * results roll up through the live `merge` machinery: per-tenant
//!   [`ServeReport`]s and [`FreshnessLedger`]s fold bucket-exactly into
//!   the fleet view.
//!
//! # The modeled clock
//!
//! Every batch is really scored through the tenant's [`ServeEngine`], but
//! the clock advances by [`PoolCostModel`], never by wall time, so the
//! same fleet replays bit-identically: cross-tenant isolation is a
//! CI-gateable property of the model instead of a load-test anecdote.
//! Model age is simulated too: the time since the tenant's last cadence
//! publish.

use std::sync::Arc;

use tcast_dlrm::{Dlrm, DlrmConfig, Execution};
use tcast_embedding::EmbeddingError;
use tcast_serve::{
    AdaptiveBatcher, AdmissionQueue, BatchPolicy, CandidateCount, Decision, FreshnessLedger,
    QueryModel, QueuedQuery, ServeEngine, ServeReport,
};
use tcast_snapshot::{ModelSnapshot, SnapshotStore};
use tcast_tensor::SplitMix64;

/// Fixed-point scale for virtual time (`cost * SCALE / weight` stays
/// exact for any nanosecond cost and weight that fit in u64).
const WFQ_SCALE: u128 = 1 << 20;

/// The pure virtual-time weighted-fair scheduler.
///
/// Classic WFQ bookkeeping: tenant `i` accumulates virtual time
/// `cost / weight[i]` per nanosecond of pool time it is charged, and
/// the pool always serves the backlogged tenant with the least virtual
/// time (ties break to the lowest index). A tenant going idle stops
/// accumulating; on re-arrival the caller raises it to the backlogged
/// minimum ([`WfqScheduler::raise_to`]) so idle periods never bank
/// credit — the standard start-time catch-up that keeps a bursty tenant
/// from starving everyone after a quiet hour.
///
/// No clocks, no queues, no I/O: like the batching policies, this is a
/// decision function the fleet loop drives, unit-testable in isolation.
#[derive(Debug, Clone)]
pub struct WfqScheduler {
    weights: Vec<u64>,
    vtime: Vec<u128>,
    charged: Vec<u64>,
}

impl WfqScheduler {
    /// A scheduler over `weights.len()` tenants.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or any weight is zero.
    pub fn new(weights: &[u64]) -> Self {
        assert!(!weights.is_empty(), "scheduler needs at least one tenant");
        assert!(
            weights.iter().all(|&w| w > 0),
            "weights must be positive (a zero weight can never be served)"
        );
        Self {
            weights: weights.to_vec(),
            vtime: vec![0; weights.len()],
            charged: vec![0; weights.len()],
        }
    }

    /// Tenant `i`'s virtual time.
    pub fn vtime(&self, i: usize) -> u128 {
        self.vtime[i]
    }

    /// Catch-up on an idle-to-backlogged transition: raise tenant `i`'s
    /// virtual time to `floor` (the minimum over currently backlogged
    /// tenants) if it fell behind while idle. Never lowers.
    pub fn raise_to(&mut self, i: usize, floor: u128) {
        if self.vtime[i] < floor {
            self.vtime[i] = floor;
        }
    }

    /// Charges tenant `i` for `cost_ns` of pool time.
    pub fn charge(&mut self, i: usize, cost_ns: u64) {
        self.charged[i] += cost_ns;
        self.vtime[i] += u128::from(cost_ns) * WFQ_SCALE / u128::from(self.weights[i]);
    }

    /// The tenant to serve next among `ready`: least virtual time, ties
    /// to the lowest index. `None` iff `ready` is empty.
    pub fn pick(&self, ready: impl IntoIterator<Item = usize>) -> Option<usize> {
        ready.into_iter().min_by_key(|&i| (self.vtime[i], i))
    }

    /// Pool time charged to tenant `i` so far.
    pub fn charged_ns(&self, i: usize) -> u64 {
        self.charged[i]
    }

    /// Pool time charged across all tenants.
    pub fn total_charged_ns(&self) -> u64 {
        self.charged.iter().sum()
    }
}

/// The deterministic pool-time cost of a fused batch: an affine model
/// `batch_overhead_ns + ns_per_sample * samples`, echoing the measured
/// shape of the scoring engine (fixed dispatch cost plus per-candidate
/// MLP work). Driving the simulated clock with this — instead of the
/// measured wall time — is what makes the whole fleet run a pure
/// function of its inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolCostModel {
    /// Per-batch fixed cost (dispatch, fusion layout).
    pub batch_overhead_ns: u64,
    /// Marginal cost per candidate sample scored.
    pub ns_per_sample: u64,
}

impl Default for PoolCostModel {
    /// Loosely calibrated to the lean serving MLP on one core: ~20 us
    /// of per-batch overhead plus ~5 us per candidate.
    fn default() -> Self {
        Self {
            batch_overhead_ns: 20_000,
            ns_per_sample: 5_000,
        }
    }
}

impl PoolCostModel {
    /// Simulated service time of a fused batch scoring `samples`
    /// candidates.
    pub fn service_ns(&self, samples: u64) -> u64 {
        self.batch_overhead_ns + self.ns_per_sample * samples
    }
}

/// A time-varying arrival-rate curve — the scenario workloads a
/// stationary Poisson process cannot express. Arrivals are an
/// inhomogeneous Poisson process with rate `rate_at(t)`, sampled by
/// Lewis–Shedler thinning: draw candidate gaps at the curve's peak rate,
/// accept each candidate with probability `rate_at(t) / peak`. Fully
/// deterministic given the caller's RNG, so fleet runs replay exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RateCurve {
    /// Stationary Poisson at `qps`.
    Constant {
        /// Mean queries per second.
        qps: f64,
    },
    /// A sinusoidal day: `base_qps * (1 + amplitude * sin(2πt/period))`.
    /// `amplitude` must sit in `[0, 0.95]` so the rate stays bounded
    /// away from zero (thinning needs a positive floor to terminate).
    Diurnal {
        /// Mean rate over a full period.
        base_qps: f64,
        /// Peak-to-mean swing, in `[0, 0.95]`.
        amplitude: f64,
        /// One simulated "day" in nanoseconds.
        period_ns: u64,
    },
    /// Quiet traffic at `base_qps` with a rectangular spike to
    /// `spike_qps` during `[start_ns, start_ns + duration_ns)` — the
    /// flash crowd that stresses cross-tenant isolation.
    FlashCrowd {
        /// Rate outside the spike window.
        base_qps: f64,
        /// Rate inside the spike window.
        spike_qps: f64,
        /// Spike onset on the simulated clock.
        start_ns: u64,
        /// Spike length.
        duration_ns: u64,
    },
}

impl RateCurve {
    /// Instantaneous rate (queries per second) at clock `now_ns`.
    pub fn rate_at(&self, now_ns: u64) -> f64 {
        match *self {
            RateCurve::Constant { qps } => qps,
            RateCurve::Diurnal {
                base_qps,
                amplitude,
                period_ns,
            } => {
                let phase = (now_ns % period_ns) as f64 / period_ns as f64;
                base_qps * (1.0 + amplitude * (2.0 * std::f64::consts::PI * phase).sin())
            }
            RateCurve::FlashCrowd {
                base_qps,
                spike_qps,
                start_ns,
                duration_ns,
            } => {
                if now_ns >= start_ns && now_ns - start_ns < duration_ns {
                    spike_qps
                } else {
                    base_qps
                }
            }
        }
    }

    /// The curve's supremum rate (the thinning envelope).
    pub fn peak_qps(&self) -> f64 {
        match *self {
            RateCurve::Constant { qps } => qps,
            RateCurve::Diurnal {
                base_qps,
                amplitude,
                ..
            } => base_qps * (1.0 + amplitude),
            RateCurve::FlashCrowd {
                base_qps,
                spike_qps,
                ..
            } => base_qps.max(spike_qps),
        }
    }

    fn validate(&self) {
        match *self {
            RateCurve::Constant { qps } => assert!(qps > 0.0, "qps must be positive"),
            RateCurve::Diurnal {
                base_qps,
                amplitude,
                period_ns,
            } => {
                assert!(base_qps > 0.0, "base_qps must be positive");
                assert!(
                    (0.0..=0.95).contains(&amplitude),
                    "amplitude must be in [0, 0.95]"
                );
                assert!(period_ns > 0, "period must be positive");
            }
            RateCurve::FlashCrowd {
                base_qps,
                spike_qps,
                ..
            } => {
                assert!(base_qps > 0.0, "base_qps must be positive");
                assert!(spike_qps > 0.0, "spike_qps must be positive");
            }
        }
    }

    /// The next arrival strictly after `now_ns`, via thinning.
    ///
    /// # Panics
    ///
    /// Panics if the curve's parameters are invalid (non-positive rates,
    /// diurnal amplitude outside `[0, 0.95]`).
    pub fn next_arrival_after(&self, now_ns: u64, rng: &mut SplitMix64) -> u64 {
        self.validate();
        let peak = self.peak_qps();
        let mut t = now_ns;
        loop {
            let u = f64::from(rng.next_f32()).min(1.0 - 1e-9);
            // Exponential gap at the envelope rate; at least 1 ns so the
            // clock always advances.
            let gap = (((-(1.0 - u).ln()) / peak * 1e9) as u64).max(1);
            t = t.saturating_add(gap);
            if f64::from(rng.next_f32()) < self.rate_at(t) / peak {
                return t;
            }
        }
    }
}

/// A staggered periodic publish schedule on the simulated clock: fires at
/// `phase_ns`, `phase_ns + every_ns`, `phase_ns + 2*every_ns`, ... Pure
/// arithmetic (no clocks, no state), in the decision-function style of
/// the serve plane's batchers — a fleet of tenants with the same
/// `every_ns` but distinct phases publishes round-robin instead of in a
/// thundering herd.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PublishCadence {
    every_ns: u64,
    phase_ns: u64,
}

impl PublishCadence {
    /// A cadence firing every `every_ns`, offset by `phase_ns` (reduced
    /// modulo `every_ns`).
    ///
    /// # Panics
    ///
    /// Panics if `every_ns == 0`.
    pub fn new(every_ns: u64, phase_ns: u64) -> Self {
        assert!(every_ns > 0, "cadence period must be positive");
        Self {
            every_ns,
            phase_ns: phase_ns % every_ns,
        }
    }

    /// The stagger offset, in `[0, every_ns)`: the earliest fire time.
    pub fn phase_ns(&self) -> u64 {
        self.phase_ns
    }

    /// The smallest fire time strictly greater than `now_ns`.
    pub fn next_fire_after(&self, now_ns: u64) -> u64 {
        if now_ns < self.phase_ns {
            return self.phase_ns;
        }
        let k = (now_ns - self.phase_ns) / self.every_ns + 1;
        self.phase_ns + k * self.every_ns
    }
}

/// A mid-run popularity-distribution shift (see
/// [`QueryModel::shift_popularity`]): at `at_ns` on the simulated
/// clock, the hot head of the tenant's catalog rotates by `rotation` —
/// yesterday's trending queries go cold and others take their place.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PopularityShift {
    /// When the shift lands, on the simulated clock.
    pub at_ns: u64,
    /// Catalog rotation applied to the popularity ranks.
    pub rotation: usize,
}

/// Everything that defines one tenant's behavior in the fleet.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Display name (report rows, bench output).
    pub name: String,
    /// Weighted-fair share of pool time (relative to other tenants).
    pub weight: u64,
    /// Total queries this tenant's workload issues.
    pub queries: usize,
    /// Arrival-rate curve (constant, diurnal, flash crowd).
    pub arrivals: RateCurve,
    /// Batching policy for this tenant's admission queue.
    pub policy: BatchPolicy,
    /// Tail-latency SLA (exclusive deadline: meet iff latency < sla).
    pub sla_ns: u64,
    /// Shed queries whose deadline is provably unmeetable.
    pub shed_unmeetable: bool,
    /// Arrival-schedule seed. Deliberately per-spec (not per-index) so
    /// a tenant replays the identical arrival schedule whether it runs
    /// solo or inside a fleet — the isolation baseline comparison.
    pub seed: u64,
    /// Staggered snapshot republish cadence (a stand-in for this
    /// tenant's live trainer); `None` serves version 1 throughout.
    pub publish: Option<PublishCadence>,
    /// Optional mid-run popularity shift.
    pub popularity_shift: Option<PopularityShift>,
}

/// One tenant: its spec, its private snapshot store (own model), and
/// its private query workload.
#[derive(Debug)]
pub struct Tenant {
    /// The tenant's behavioral spec.
    pub spec: TenantSpec,
    /// The tenant's own model, behind its own epoch-versioned store.
    pub store: SnapshotStore,
    /// The tenant's query catalog and popularity state.
    pub workload: QueryModel,
}

impl Tenant {
    /// A tenant serving `model` (captured as the store's version 1)
    /// under `spec`, drawing queries from `workload`.
    pub fn new(spec: TenantSpec, model: &Dlrm, workload: QueryModel) -> Self {
        Self {
            spec,
            store: SnapshotStore::new(model, 0, 2),
            workload,
        }
    }
}

/// Fleet-wide knobs.
#[derive(Debug, Clone, Default)]
pub struct FleetConfig {
    /// The simulated-clock cost of a fused batch.
    pub cost: PoolCostModel,
}

/// One tenant's slice of the fleet outcome.
#[derive(Debug, Clone)]
pub struct TenantReport {
    /// The tenant's name.
    pub name: String,
    /// Its weighted-fair weight.
    pub weight: u64,
    /// The standard serving report (latency, violations, shed), with
    /// `span_ns` set to the fleet-wide clock span so per-tenant QPS values
    /// are comparable.
    pub serve: ServeReport,
    /// Freshness against the tenant's own store; model age is on the
    /// simulated clock.
    pub freshness: FreshnessLedger,
    /// Simulated pool time charged to this tenant.
    pub pool_ns: u64,
    /// This tenant's fraction of all charged pool time.
    pub pool_share: f64,
    /// Cadence republishes performed on the tenant's store.
    pub publishes: u64,
}

/// The fleet outcome: per-tenant reports plus the merged rollups.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Per-tenant outcomes, in tenant order.
    pub tenants: Vec<TenantReport>,
    /// All tenants' serve reports folded through [`ServeReport::merge`].
    pub fleet: ServeReport,
    /// All tenants' ledgers folded through [`FreshnessLedger::merge`].
    pub freshness: FreshnessLedger,
    /// Final simulated clock.
    pub span_ns: u64,
}

impl FleetReport {
    /// A tenant's report by name.
    pub fn tenant(&self, name: &str) -> Option<&TenantReport> {
        self.tenants.iter().find(|t| t.name == name)
    }
}

/// One tenant on the modeled clock: its open-loop curve arrivals, its
/// snapshot cadence and popularity shift, its queue, engine and
/// accounting.
struct Lane<'a> {
    spec: &'a TenantSpec,
    store: &'a SnapshotStore,
    workload: &'a mut QueryModel,
    engine: ServeEngine,
    queue: AdmissionQueue,
    rng: SplitMix64,
    /// The issued, not yet admitted arrival (`None` once all are).
    next_arrival: Option<u64>,
    issued: usize,
    /// The snapshot batches score against: the head as of the last fire.
    held: Arc<ModelSnapshot>,
    next_publish_ns: u64,
    last_publish_ns: u64,
    publishes: u64,
    shift: Option<PopularityShift>,
    report: ServeReport,
    freshness: FreshnessLedger,
    /// Reused buffers the fired batch and the shed queries drain into.
    batch: Vec<QueuedQuery>,
    shed_buf: Vec<QueuedQuery>,
}

impl<'a> Lane<'a> {
    fn new(tenant: &'a mut Tenant) -> Self {
        let Tenant {
            spec,
            store,
            workload,
        } = tenant;
        let held = store.latest();
        let engine = ServeEngine::new(held.model(), 0, Execution::Serial);
        let mut lane = Self {
            spec,
            store,
            workload,
            engine,
            queue: AdmissionQueue::new(spec.policy.clone()),
            rng: SplitMix64::new(spec.seed),
            next_arrival: None,
            issued: 0,
            held,
            next_publish_ns: spec.publish.map_or(u64::MAX, |c| c.next_fire_after(0)),
            last_publish_ns: 0,
            publishes: 0,
            shift: spec.popularity_shift,
            report: ServeReport {
                sla_ns: spec.sla_ns,
                ..ServeReport::default()
            },
            freshness: FreshnessLedger::default(),
            batch: Vec::new(),
            shed_buf: Vec::new(),
        };
        lane.issue(0);
        lane
    }

    /// Every query served or shed.
    fn done(&self) -> bool {
        self.report.queries >= self.spec.queries as u64
    }

    /// Issues the next arrival after `after_ns`; nothing once all are.
    fn issue(&mut self, after_ns: u64) {
        if self.issued < self.spec.queries {
            let at = self
                .spec
                .arrivals
                .next_arrival_after(after_ns, &mut self.rng);
            self.next_arrival = Some(at);
            self.issued += 1;
        }
    }

    /// Delivers what is due by `now_ns` — cadence publishes at their
    /// scheduled times (so model age is exact even when the clock jumps
    /// a whole batch), the popularity shift, arrivals — and reports
    /// whether the queue went from idle to backlogged.
    fn deliver(&mut self, now_ns: u64) -> bool {
        while let Some(cadence) = self.spec.publish.filter(|_| self.next_publish_ns <= now_ns) {
            self.store.republish_head();
            self.publishes += 1;
            self.last_publish_ns = self.next_publish_ns;
            self.next_publish_ns = cadence.next_fire_after(self.next_publish_ns);
        }
        if let Some(shift) = self.shift.take_if(|s| s.at_ns <= now_ns) {
            self.workload.shift_popularity(shift.rotation);
        }
        let was_idle = self.queue.is_empty();
        while let Some(at) = self.next_arrival.take_if(|&mut at| at <= now_ns) {
            self.queue.push(self.workload.draw(), at);
            self.issue(at);
        }
        was_idle && !self.queue.is_empty()
    }

    /// Sheds the queries that already cannot meet the SLA.
    fn shed_expired(&mut self, now_ns: u64) {
        if self.spec.shed_unmeetable {
            self.queue
                .shed_expired_into(now_ns, self.spec.sla_ns, &mut self.shed_buf);
            self.report.queries += self.shed_buf.len() as u64;
            self.shed_buf.clear();
        }
    }

    /// Fires the oldest `n` queries against the current head snapshot,
    /// advances the clock by their modeled cost and accounts them.
    /// Returns the cost, which the scheduler charges.
    fn fire(
        &mut self,
        n: usize,
        now_ns: &mut u64,
        cost: PoolCostModel,
    ) -> Result<u64, EmbeddingError> {
        self.queue.take_into(n, &mut self.batch);
        if self.store.version() > self.held.version() {
            self.held = self.store.latest();
        }
        let samples = self
            .engine
            .score_queued(self.held.model(), &self.batch)?
            .num_samples() as u64;
        let service_ns = cost.service_ns(samples);
        *now_ns += service_ns;
        let r = &mut self.report;
        r.batches += 1;
        r.samples += samples;
        r.queries += n as u64;
        r.service.record(service_ns);
        self.queue.observe_batch(*now_ns - self.batch[0].arrival_ns);
        for item in self.batch.drain(..) {
            let latency = *now_ns - item.arrival_ns;
            r.latency.record(latency);
            if latency >= r.sla_ns {
                r.sla_violations += 1;
            }
        }
        let behind = self.store.version() - self.held.version();
        let age = *now_ns - self.last_publish_ns;
        self.freshness.record(self.held.version(), behind, age);
        Ok(service_ns)
    }
}

/// Runs the fleet to completion (every tenant's `queries` served or
/// shed) and reports per-tenant and merged outcomes.
///
/// Each step delivers what is due to every tenant, sheds, asks every
/// queue for a decision, and serves *one* batch: the fireable tenant with
/// the least WFQ virtual time, charged the [`PoolCostModel`] cost the
/// clock advances by. Schedules, latencies and shares are
/// bit-reproducible for fixed specs.
///
/// # Errors
///
/// Propagates engine scoring errors (query/model shape disagreements).
///
/// # Panics
///
/// Panics if `tenants` is empty, a weight is zero, or the cost model is
/// degenerate (`service_ns(1) == 0` could stall the clock).
pub fn run_fleet(
    tenants: &mut [Tenant],
    config: &FleetConfig,
) -> Result<FleetReport, EmbeddingError> {
    assert!(!tenants.is_empty(), "fleet needs at least one tenant");
    assert!(
        config.cost.service_ns(1) > 0,
        "cost model must give batches positive service time"
    );
    let weights: Vec<u64> = tenants.iter().map(|t| t.spec.weight).collect();
    let mut sched = WfqScheduler::new(&weights);
    let mut lanes: Vec<Lane> = tenants.iter_mut().map(Lane::new).collect();

    let mut now_ns = 0u64;
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
            match lane.queue.decide(now_ns, lane.next_arrival.is_some()) {
                Decision::Fire(n) => fire.push((i, n)),
                Decision::WaitUntil(t) => next_event = next_event.min(t),
                Decision::Wait => {}
            }
            next_event = next_event.min(lane.next_arrival.unwrap_or(u64::MAX));
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
        let service_ns = lanes[i].fire(n, &mut now_ns, config.cost)?;
        sched.charge(i, service_ns);
    }

    let span_ns = now_ns;
    let total_pool_ns = sched.total_charged_ns().max(1) as f64;
    let mut fleet = ServeReport::default();
    let mut freshness = FreshnessLedger::default();
    let tenants = lanes
        .into_iter()
        .enumerate()
        .map(|(i, mut lane)| {
            let r = &mut lane.report;
            r.span_ns = span_ns;
            r.max_queue_depth = lane.queue.max_depth();
            r.shed = lane.queue.shed_count();
            fleet.merge(r);
            freshness.merge(&lane.freshness);
            let pool_ns = sched.charged_ns(i);
            TenantReport {
                name: lane.spec.name.clone(),
                weight: lane.spec.weight,
                serve: lane.report,
                freshness: lane.freshness,
                pool_ns,
                pool_share: pool_ns as f64 / total_pool_ns,
                publishes: lane.publishes,
            }
        })
        .collect();
    Ok(FleetReport {
        tenants,
        fleet,
        freshness,
        span_ns,
    })
}

/// The `repro fleet` report: two tenants — a steady one and one hit by a
/// flash crowd mid-run — each with its own scaled-RM1 model, snapshot
/// store, queue and SLA, sharing one pool under the weighted-fair
/// scheduler. Batches really score while the clock advances by the cost
/// model, so every printed figure replays bit-identically.
pub fn run() {
    let config = DlrmConfig::rm1_scaled(20_000);
    let steady = TenantSpec {
        name: "steady".to_string(),
        weight: 2,
        queries: 200,
        arrivals: RateCurve::Diurnal {
            base_qps: 3_000.0,
            amplitude: 0.5,
            period_ns: 40_000_000,
        },
        policy: BatchPolicy::Deadline {
            max_batch: 8,
            max_wait_ns: 500_000,
        },
        sla_ns: 6_000_000,
        shed_unmeetable: true,
        seed: 41,
        publish: Some(PublishCadence::new(10_000_000, 2_000_000)),
        popularity_shift: None,
    };
    let bursty = TenantSpec {
        name: "bursty".to_string(),
        weight: 1,
        queries: 400,
        arrivals: RateCurve::FlashCrowd {
            base_qps: 1_000.0,
            spike_qps: 60_000.0,
            start_ns: 5_000_000,
            duration_ns: 10_000_000,
        },
        policy: BatchPolicy::Adaptive(AdaptiveBatcher::new(4_000_000, 16, 400_000)),
        sla_ns: 4_000_000,
        shed_unmeetable: true,
        seed: 43,
        publish: Some(PublishCadence::new(10_000_000, 7_000_000)),
        popularity_shift: Some(PopularityShift {
            at_ns: 10_000_000,
            rotation: 48,
        }),
    };
    let mut tenants: Vec<Tenant> = [steady, bursty]
        .into_iter()
        .map(|spec| {
            let model = Dlrm::new(config.clone(), 100 + spec.weight).expect("valid tenant model");
            let workload = QueryModel::new(
                &config.table_workloads(),
                config.dense_features,
                96,
                CandidateCount::Uniform { min: 2, max: 8 },
                1.1,
                spec.seed,
            );
            Tenant::new(spec, &model, workload)
        })
        .collect();
    let cost = PoolCostModel {
        batch_overhead_ns: 50_000,
        ns_per_sample: 25_000,
    };
    let fleet =
        run_fleet(&mut tenants, &FleetConfig { cost }).expect("tenant queries match their models");
    println!("fleet mode (2 tenants, weighted-fair pool sharing, per-tenant SLAs):");
    for t in &fleet.tenants {
        println!(
            "  tenant {:<7} w{}  {:>8.0} qps  p99 {:>6.2} ms  sla-viol {:>5.1}%  \
             shed {:>5.1}%  pool share {:>5.1}%  {} snapshot publishes",
            t.name,
            t.weight,
            t.serve.qps(),
            t.serve.latency.p99_ns() as f64 / 1e6,
            100.0 * t.serve.sla_violation_rate(),
            100.0 * t.serve.shed_rate(),
            100.0 * t.pool_share,
            t.publishes,
        );
    }
    println!(
        "  fleet rollup: {} queries in {:.1} simulated ms, model age p99 {:.2} ms \
         ({} shed fleet-wide)",
        fleet.fleet.queries,
        fleet.span_ns as f64 / 1e6,
        fleet.freshness.p99_model_age_ns() as f64 / 1e6,
        fleet.fleet.shed,
    );
    println!(
        "  (pool-time shares, tails and shed counts replay bit-identically for these \
         specs — see repro/tests/fleet.rs)"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wfq_shares_track_weights_under_saturation() {
        // Two always-backlogged tenants at 3:1, every batch costing the
        // same: shares must converge to 3:1 exactly.
        let mut s = WfqScheduler::new(&[3, 1]);
        for _ in 0..400 {
            let i = s.pick([0, 1]).unwrap();
            s.charge(i, 1_000);
        }
        let (a, b) = (s.charged_ns(0), s.charged_ns(1));
        assert_eq!(a + b, 400_000);
        let share = a as f64 / (a + b) as f64;
        assert!((share - 0.75).abs() < 0.01, "weight-3 share {share}");
    }

    #[test]
    fn wfq_heterogeneous_costs_still_split_by_weight() {
        // Tenant 0's batches cost 5x tenant 1's; time shares (not batch
        // counts) must still follow the 1:1 weights.
        let mut s = WfqScheduler::new(&[1, 1]);
        for _ in 0..1000 {
            let i = s.pick([0, 1]).unwrap();
            s.charge(i, if i == 0 { 5_000 } else { 1_000 });
        }
        let (a, b) = (s.charged_ns(0) as f64, s.charged_ns(1) as f64);
        let share = a / (a + b);
        assert!((share - 0.5).abs() < 0.01, "time share {share}");
    }

    #[test]
    fn wfq_idle_tenant_does_not_bank_credit() {
        let mut s = WfqScheduler::new(&[1, 1]);
        // Tenant 0 runs alone for a long stretch.
        for _ in 0..100 {
            s.charge(0, 1_000);
        }
        // Tenant 1 wakes; without catch-up it would monopolize the pool
        // for 100 rounds. With catch-up it alternates immediately.
        s.raise_to(1, s.vtime(0));
        let mut consecutive_ones = 0;
        let mut max_consecutive = 0;
        for _ in 0..50 {
            let i = s.pick([0, 1]).unwrap();
            s.charge(i, 1_000);
            if i == 1 {
                consecutive_ones += 1;
                max_consecutive = max_consecutive.max(consecutive_ones);
            } else {
                consecutive_ones = 0;
            }
        }
        assert!(
            max_consecutive <= 1,
            "caught-up tenant must alternate, ran {max_consecutive} in a row"
        );
    }

    #[test]
    fn wfq_ties_break_deterministically_to_the_lowest_index() {
        let s = WfqScheduler::new(&[2, 2, 2]);
        assert_eq!(s.pick([2, 1, 0]), Some(0));
        assert_eq!(s.pick([2, 1]), Some(1));
        assert_eq!(s.pick(std::iter::empty()), None);
    }

    #[test]
    #[should_panic(expected = "weights must be positive")]
    fn wfq_zero_weight_rejected() {
        WfqScheduler::new(&[1, 0]);
    }

    #[test]
    fn cost_model_is_affine() {
        let c = PoolCostModel {
            batch_overhead_ns: 100,
            ns_per_sample: 7,
        };
        assert_eq!(c.service_ns(0), 100);
        assert_eq!(c.service_ns(10), 170);
    }

    #[test]
    fn constant_rate_curve_matches_poisson_mean() {
        let c = RateCurve::Constant { qps: 10_000.0 };
        let mut rng = SplitMix64::new(9);
        let (mut t, n) = (0u64, 4000);
        for _ in 0..n {
            t = c.next_arrival_after(t, &mut rng);
        }
        let mean = t as f64 / n as f64;
        assert!(
            (mean - 100_000.0).abs() < 10_000.0,
            "mean gap {mean} ns, expected ~100000"
        );
    }

    #[test]
    fn flash_crowd_concentrates_arrivals_in_the_window() {
        let c = RateCurve::FlashCrowd {
            base_qps: 1_000.0,
            spike_qps: 100_000.0,
            start_ns: 10_000_000,
            duration_ns: 10_000_000,
        };
        assert_eq!(c.rate_at(9_999_999), 1_000.0);
        assert_eq!(c.rate_at(10_000_000), 100_000.0);
        assert_eq!(c.rate_at(19_999_999), 100_000.0);
        assert_eq!(c.rate_at(20_000_000), 1_000.0);
        let mut rng = SplitMix64::new(5);
        let (mut t, mut inside, mut total) = (0u64, 0usize, 0usize);
        while t < 30_000_000 {
            t = c.next_arrival_after(t, &mut rng);
            total += 1;
            if (10_000_000..20_000_000).contains(&t) {
                inside += 1;
            }
        }
        // Expected ~1000 arrivals in the 10 ms spike vs ~20 outside.
        assert!(total > 500, "total arrivals {total}");
        assert!(
            inside as f64 > 0.9 * total as f64,
            "spike holds {inside}/{total} arrivals"
        );
    }

    #[test]
    fn diurnal_curve_oscillates_and_thinning_tracks_it() {
        let c = RateCurve::Diurnal {
            base_qps: 10_000.0,
            amplitude: 0.9,
            period_ns: 1_000_000_000,
        };
        // Peak at a quarter period, trough at three quarters.
        assert!((c.rate_at(250_000_000) - 19_000.0).abs() < 1.0);
        assert!((c.rate_at(750_000_000) - 1_000.0).abs() < 1.0);
        assert!((c.peak_qps() - 19_000.0).abs() < 1e-9);
        let mut rng = SplitMix64::new(7);
        let (mut t, mut first_half, mut second_half) = (0u64, 0usize, 0usize);
        while t < 1_000_000_000 {
            t = c.next_arrival_after(t, &mut rng);
            if t < 500_000_000 {
                first_half += 1;
            } else if t < 1_000_000_000 {
                second_half += 1;
            }
        }
        // sin is positive over the first half-period and negative over
        // the second, so the busy half must dominate.
        assert!(
            first_half > 2 * second_half,
            "busy half {first_half} vs quiet half {second_half}"
        );
    }

    #[test]
    fn rate_curves_are_deterministic_for_a_fixed_seed() {
        let c = RateCurve::FlashCrowd {
            base_qps: 2_000.0,
            spike_qps: 50_000.0,
            start_ns: 1_000_000,
            duration_ns: 2_000_000,
        };
        let run = || {
            let mut rng = SplitMix64::new(42);
            let mut t = 0u64;
            (0..200)
                .map(|_| {
                    t = c.next_arrival_after(t, &mut rng);
                    t
                })
                .collect::<Vec<u64>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "amplitude must be in")]
    fn diurnal_amplitude_above_bound_rejected() {
        let c = RateCurve::Diurnal {
            base_qps: 100.0,
            amplitude: 1.5,
            period_ns: 1_000,
        };
        c.next_arrival_after(0, &mut SplitMix64::new(1));
    }

    #[test]
    fn publish_cadence_fires_on_a_staggered_grid() {
        let c = PublishCadence::new(100, 30);
        assert_eq!(c.phase_ns(), 30);
        assert_eq!(c.next_fire_after(0), 30);
        assert_eq!(c.next_fire_after(29), 30);
        assert_eq!(c.next_fire_after(30), 130, "strictly after");
        assert_eq!(c.next_fire_after(129), 130);
        assert_eq!(c.next_fire_after(1_000), 1_030);
        // Phase reduces modulo the period; zero phase fires at 0 then
        // every period.
        assert_eq!(PublishCadence::new(100, 230).phase_ns(), 30);
        let z = PublishCadence::new(100, 0);
        assert_eq!(z.phase_ns(), 0);
        assert_eq!(z.next_fire_after(0), 100);
        // Two tenants, same period, different phases: their fire times
        // interleave and never collide.
        let a = PublishCadence::new(100, 0);
        let b = PublishCadence::new(100, 50);
        let (mut ta, mut tb) = (a.phase_ns(), b.phase_ns());
        for _ in 0..20 {
            assert_ne!(ta, tb);
            ta = a.next_fire_after(ta);
            tb = b.next_fire_after(tb);
        }
    }

    #[test]
    #[should_panic(expected = "period must be positive")]
    fn zero_cadence_period_rejected() {
        PublishCadence::new(0, 5);
    }

    fn tiny_tenant(name: &str, weight: u64, queries: usize, seed: u64) -> Tenant {
        let config = DlrmConfig::tiny();
        let model = Dlrm::new(config.clone(), seed).unwrap();
        let workload = QueryModel::new(
            &config.table_workloads(),
            config.dense_features,
            16,
            CandidateCount::Fixed(2),
            1.1,
            seed,
        );
        Tenant::new(
            TenantSpec {
                name: name.to_string(),
                weight,
                queries,
                arrivals: RateCurve::Constant { qps: 20_000.0 },
                policy: BatchPolicy::Adaptive(AdaptiveBatcher::new(2_000_000, 8, 200_000)),
                sla_ns: 2_000_000,
                shed_unmeetable: true,
                seed,
                publish: Some(PublishCadence::new(5_000_000, seed % 5_000_000)),
                popularity_shift: None,
            },
            &model,
            workload,
        )
    }

    #[test]
    fn fleet_completes_every_tenant_and_rolls_up() {
        let mut tenants = vec![tiny_tenant("a", 2, 40, 11), tiny_tenant("b", 1, 30, 22)];
        let report = run_fleet(&mut tenants, &FleetConfig::default()).unwrap();
        assert_eq!(report.tenants.len(), 2);
        let a = report.tenant("a").unwrap();
        let b = report.tenant("b").unwrap();
        assert_eq!(a.serve.queries, 40, "scored + shed covers every query");
        assert_eq!(b.serve.queries, 30);
        assert_eq!(a.serve.latency.count() + a.serve.shed, 40);
        assert_eq!(b.serve.latency.count() + b.serve.shed, 30);
        assert_eq!(report.fleet.queries, 70, "rollup sums tenants");
        assert_eq!(report.fleet.sla_ns, a.serve.sla_ns, "rollup adopts an SLA");
        assert_eq!(
            report.freshness.batches(),
            a.freshness.batches() + b.freshness.batches()
        );
        assert!(a.pool_ns > 0 && b.pool_ns > 0);
        assert!((a.pool_share + b.pool_share - 1.0).abs() < 1e-9);
        assert!(report.span_ns > 0);
        // Cadence republishes happened and versions advanced.
        assert!(a.publishes > 0);
        assert!(a.freshness.versions.iter().any(|&v| v > 1));
    }

    #[test]
    fn single_tenant_fleet_owns_the_whole_pool() {
        let mut tenants = vec![tiny_tenant("solo", 1, 25, 7)];
        let report = run_fleet(&mut tenants, &FleetConfig::default()).unwrap();
        let t = &report.tenants[0];
        assert_eq!(t.serve.queries, 25);
        assert!((t.pool_share - 1.0).abs() < 1e-9);
        // Pool time is the busy fraction of the span: positive, and
        // never more than the simulated clock that contains it.
        assert!(t.pool_ns > 0 && t.pool_ns <= report.span_ns);
    }

    #[test]
    #[should_panic(expected = "at least one tenant")]
    fn empty_fleet_rejected() {
        run_fleet(&mut [], &FleetConfig::default()).unwrap();
    }
}
