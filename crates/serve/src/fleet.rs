//! The multi-tenant serving fleet: N tenants — each with its own model,
//! snapshot store, admission queue, batching policy and SLA — sharing
//! one execution pool under weighted-fair scheduling.
//!
//! DeepRecSys's subject is scheduling *across* engines at datacenter
//! scale: the hard serving problem is not one model's batch size but
//! what happens to tenant B's p99 when tenant A's traffic spikes 50x.
//! This module is that layer — N lanes of the one serve loop that
//! [`crate::serve`] runs one lane of:
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
//! * results roll up through the existing `merge` machinery:
//!   per-tenant [`ServeReport`]s and [`FreshnessLedger`]s fold
//!   bucket-exactly into the fleet view.
//!
//! # Determinism
//!
//! The fleet runs the loop on its *modeled* clock: every batch is really
//! scored through the tenant's [`ServeEngine`], but the clock advances by
//! [`PoolCostModel`], never by wall time, so the same fleet replays
//! bit-identically — cross-tenant isolation is a CI-gateable property
//! instead of a load-test anecdote.
//!
//! [`PublishCadence`]: tcast_snapshot::PublishCadence
//! [`AdmissionQueue`]: crate::AdmissionQueue

use std::time::Instant;

use crate::engine::ServeEngine;
use crate::queue::BatchPolicy;
use crate::request::{QueryModel, RateCurve};
use crate::serve_loop::{run, scoring_only, Arrivals, Clock, Lane, SnapshotSlot, Source, Traffic};
use crate::stats::{FreshnessLedger, ServeReport};
use tcast_dlrm::{Dlrm, Execution};
use tcast_embedding::EmbeddingError;
use tcast_snapshot::{PublishCadence, SnapshotStore};

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

/// A mid-run popularity-distribution shift (see
/// [`QueryModel::shift_popularity`]): at `at_ns` on the simulated
/// clock, the hot head of the tenant's catalog rotates by `rotation` —
/// the cache-churn event that forces the engine's warm `CastingCache`
/// to evict its way to the new head.
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
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// The simulated-clock cost of a fused batch.
    pub cost: PoolCostModel,
    /// Per-table casting-cache capacity of every tenant engine.
    pub cache_capacity: usize,
    /// The shared execution substrate: every tenant engine scores on
    /// this (clone one `Execution::Pooled(pool)` to share one pool).
    pub execution: Execution,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            cost: PoolCostModel::default(),
            cache_capacity: crate::engine::DEFAULT_CACHE_CAPACITY,
            execution: Execution::Serial,
        }
    }
}

/// One tenant's slice of the fleet outcome.
#[derive(Debug, Clone)]
pub struct TenantReport {
    /// The tenant's name.
    pub name: String,
    /// Its weighted-fair weight.
    pub weight: u64,
    /// The standard serving report (latency, violations, shed, cache
    /// hit rate), with `span_ns` set to the fleet-wide clock span so
    /// per-tenant QPS values are comparable.
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
    /// Casting-cache evictions in the tenant's engine (popularity
    /// shifts show up here).
    pub cache_evictions: u64,
    /// Wall time actually spent scoring this tenant's batches (not part
    /// of the simulation; reported for calibration).
    pub measured_ns: u64,
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
    /// Real wall time of the whole run.
    pub wall_ns: u64,
}

impl FleetReport {
    /// A tenant's report by name.
    pub fn tenant(&self, name: &str) -> Option<&TenantReport> {
        self.tenants.iter().find(|t| t.name == name)
    }
}

/// Runs the fleet to completion (every tenant's `queries` served or
/// shed) and reports per-tenant and merged outcomes.
///
/// Each tenant is one snapshot lane of the one serve loop on the
/// modeled clock: each step serves *one* batch, the fireable tenant with
/// the least WFQ virtual time, and charges it the [`PoolCostModel`] cost
/// the clock advances by. Schedules, latencies and shares are
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
    let wall_start = Instant::now();
    let exec = &config.execution;
    let mut engines: Vec<ServeEngine> = tenants
        .iter()
        .map(|t| {
            ServeEngine::new(
                t.store.latest().model(),
                config.cache_capacity,
                exec.clone(),
            )
        })
        .collect();
    let (specs, mut lanes): (Vec<&TenantSpec>, Vec<Lane>) = tenants
        .iter_mut()
        .zip(&mut engines)
        .map(
            |(
                Tenant {
                    spec,
                    store,
                    workload,
                },
                engine,
            )| {
                let source = Source::Snapshots(SnapshotSlot::new(store, 0, spec.publish, None));
                let traffic = Traffic::new(Arrivals::Curve(spec.arrivals), spec.queries, spec.seed);
                let (policy, sla_ns, shed) =
                    (spec.policy.clone(), spec.sla_ns, spec.shed_unmeetable);
                let mut lane = Lane::new(engine, workload, source, traffic, policy, sla_ns, shed);
                lane.shift = spec.popularity_shift;
                (&*spec, lane)
            },
        )
        .unzip();
    let weights: Vec<u64> = specs.iter().map(|spec| spec.weight).collect();
    let mut sched = WfqScheduler::new(&weights);
    let span_ns = run(&mut lanes, &mut sched, Clock::Modeled(config.cost)).map_err(scoring_only)?;

    let total_pool_ns = sched.total_charged_ns().max(1) as f64;
    let mut fleet = ServeReport::default();
    let mut freshness = FreshnessLedger::default();
    let tenants = specs
        .into_iter()
        .zip(lanes)
        .enumerate()
        .map(|(i, (spec, lane))| {
            let (publishes, measured_ns) = (lane.publishes(), lane.measured_ns);
            let cache_evictions = lane.engine.cache_evictions();
            let (serve, ledger) = lane.into_report(span_ns);
            fleet.merge(&serve);
            freshness.merge(&ledger);
            let pool_ns = sched.charged_ns(i);
            TenantReport {
                name: spec.name.clone(),
                weight: spec.weight,
                serve,
                freshness: ledger,
                pool_ns,
                pool_share: pool_ns as f64 / total_pool_ns,
                publishes,
                cache_evictions,
                measured_ns,
            }
        })
        .collect();
    Ok(FleetReport {
        tenants,
        fleet,
        freshness,
        span_ns,
        wall_ns: wall_start.elapsed().as_nanos() as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::AdaptiveBatcher;
    use crate::request::CandidateCount;
    use tcast_dlrm::DlrmConfig;

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

    fn run_tiny_fleet() -> FleetReport {
        let mut tenants = vec![tiny_tenant("a", 2, 40, 11), tiny_tenant("b", 1, 30, 22)];
        run_fleet(&mut tenants, &FleetConfig::default()).unwrap()
    }

    #[test]
    fn fleet_completes_every_tenant_and_rolls_up() {
        let report = run_tiny_fleet();
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
    fn fleet_runs_are_bit_deterministic() {
        let (r1, r2) = (run_tiny_fleet(), run_tiny_fleet());
        assert_eq!(r1.span_ns, r2.span_ns);
        for (a, b) in r1.tenants.iter().zip(r2.tenants.iter()) {
            assert_eq!(a.pool_ns, b.pool_ns);
            assert_eq!(a.serve.batches, b.serve.batches);
            assert_eq!(a.serve.sla_violations, b.serve.sla_violations);
            assert_eq!(a.serve.shed, b.serve.shed);
            assert_eq!(a.serve.latency.count(), b.serve.latency.count());
            assert_eq!(a.serve.latency.max_ns(), b.serve.latency.max_ns());
            assert_eq!(a.serve.latency.p99_ns(), b.serve.latency.p99_ns());
            assert_eq!(a.publishes, b.publishes);
            assert_eq!(a.freshness.versions, b.freshness.versions);
        }
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
