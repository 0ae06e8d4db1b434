//! Invariants of the multi-tenant fleet model:
//!
//! 1. **Determinism** — a fleet run is a pure function of its specs:
//!    replaying the same tenants yields bit-identical reports (pool
//!    shares, latencies, shed counts, snapshot versions).
//! 2. **Weighted fairness** — under saturation, tenants' pool-time
//!    shares converge to their weight ratio.
//! 3. **Isolation** — a flash crowd on tenant A cannot destroy a quiet
//!    tenant B's tail: B's p99 and shed rate stay near its solo run.
//! 4. **Model meets live loop** — the live `serve` and a one-tenant fleet
//!    fuse the same batches from the same catalog, seed and `Fixed`
//!    policy; and the fleet replays the digest pinned before the serve
//!    loops were unified.

use tcast_dlrm::{Dlrm, DlrmConfig};
use tcast_repro::fleet::{
    run_fleet, FleetConfig, FleetReport, PoolCostModel, PopularityShift, PublishCadence, RateCurve,
    Tenant, TenantSpec,
};
use tcast_serve::{
    serve, AdaptiveBatcher, ArrivalProcess, BatchPolicy, CandidateCount, QueryModel, ServeConfig,
    ServeEngine,
};

fn workload(seed: u64, catalog: usize) -> QueryModel {
    let cfg = DlrmConfig::tiny();
    QueryModel::new(
        &cfg.table_workloads(),
        cfg.dense_features,
        catalog,
        CandidateCount::Fixed(2),
        1.1,
        seed,
    )
}

fn tenant(spec: TenantSpec, model_seed: u64, catalog: usize) -> Tenant {
    let model = Dlrm::new(DlrmConfig::tiny(), model_seed).unwrap();
    let workload = workload(spec.seed, catalog);
    Tenant::new(spec, &model, workload)
}

/// A quiet tenant: modest constant load, deadline batching, shedding on.
fn quiet_spec(sla_ns: u64) -> TenantSpec {
    TenantSpec {
        name: "quiet".to_string(),
        weight: 1,
        queries: 120,
        arrivals: RateCurve::Constant { qps: 3_000.0 },
        policy: BatchPolicy::Deadline {
            max_batch: 8,
            max_wait_ns: 500_000,
        },
        sla_ns,
        shed_unmeetable: true,
        seed: 404,
        publish: Some(PublishCadence::new(8_000_000, 1_000_000)),
        popularity_shift: None,
    }
}

/// A flash-crowd tenant: 40x spike mid-run, adaptive batching.
fn flashy_spec() -> TenantSpec {
    TenantSpec {
        name: "flashy".to_string(),
        weight: 1,
        queries: 400,
        arrivals: RateCurve::FlashCrowd {
            base_qps: 1_000.0,
            spike_qps: 40_000.0,
            start_ns: 5_000_000,
            duration_ns: 10_000_000,
        },
        policy: BatchPolicy::Adaptive(AdaptiveBatcher::new(4_000_000, 16, 400_000)),
        sla_ns: 4_000_000,
        shed_unmeetable: true,
        seed: 505,
        publish: Some(PublishCadence::new(8_000_000, 5_000_000)),
        popularity_shift: None,
    }
}

fn fleet_config() -> FleetConfig {
    FleetConfig {
        cost: PoolCostModel {
            batch_overhead_ns: 50_000,
            ns_per_sample: 25_000,
        },
        ..FleetConfig::default()
    }
}

fn digest(r: &FleetReport) -> Vec<(u64, u64, u64, u64, u64, Vec<u64>)> {
    r.tenants
        .iter()
        .map(|t| {
            (
                t.pool_ns,
                t.serve.batches,
                t.serve.shed,
                t.serve.sla_violations,
                t.serve.latency.p99_ns(),
                t.freshness.versions.clone(),
            )
        })
        .collect()
}

#[test]
fn fleet_replays_bit_identically() {
    let run = || {
        let mut tenants = vec![
            tenant(quiet_spec(6_000_000), 31, 24),
            tenant(flashy_spec(), 32, 24),
        ];
        run_fleet(&mut tenants, &fleet_config()).unwrap()
    };
    let (a, b) = (run(), run());
    assert_eq!(a.span_ns, b.span_ns);
    assert_eq!(digest(&a), digest(&b));
    assert_eq!(a.fleet.sla_violations, b.fleet.sla_violations);
    assert_eq!(a.freshness.versions, b.freshness.versions);
}

/// FNV-1a over little-endian words: a stable digest of a version list.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// `span_ns`, then per tenant `pool_ns`, batches, shed, violations, p99,
/// the FNV of `freshness.versions` and cache evictions.
fn pinned_digest(r: &FleetReport) -> (u64, Vec<[u64; 7]>) {
    let tenants = r
        .tenants
        .iter()
        .map(|t| {
            [
                t.pool_ns,
                t.serve.batches,
                t.serve.shed,
                t.serve.sla_violations,
                t.serve.latency.p99_ns(),
                fnv(t.freshness.versions.iter().copied()),
                t.cache_evictions,
            ]
        })
        .collect();
    (r.span_ns, tenants)
}

/// The fleet's clock is modeled, so unifying the serve loops had to
/// reproduce it exactly: these digests were computed at the commit
/// before the one loop (55160f2), from its own `run_fleet`.
#[test]
fn fleet_replays_the_digest_pinned_before_the_one_loop() {
    const QUIET_VERSIONS: u64 = 0x9c30_ea23_6cca_3264;
    let mut duo = vec![
        tenant(quiet_spec(6_000_000), 31, 24),
        tenant(flashy_spec(), 32, 24),
    ];
    let duo = run_fleet(&mut duo, &fleet_config()).unwrap();
    assert_eq!(
        pinned_digest(&duo),
        (
            46_075_232,
            vec![
                [8_700_000, 54, 0, 0, 1_098_617, QUIET_VERSIONS, 0],
                [12_150_000, 71, 228, 76, 4_442_321, 0x5c8c_d430_a025_f624, 0],
            ]
        )
    );
    let mut solo = vec![tenant(quiet_spec(6_000_000), 31, 24)];
    let solo = run_fleet(&mut solo, &fleet_config()).unwrap();
    assert_eq!(
        pinned_digest(&solo),
        (
            46_075_232,
            vec![[8_700_000, 54, 0, 0, 850_000, QUIET_VERSIONS, 0]]
        )
    );
}

/// A live-vs-model cross-check: the live `serve` (Poisson arrivals,
/// measured clock) and a one-tenant fleet (a constant rate curve, the
/// modeled clock; no shedding, cadence or shift) over the same catalog,
/// seed and `Fixed` policy fuse the same batches — under `Fixed` the
/// composition depends only on the draw order.
#[test]
fn serve_is_a_fleet_of_one() {
    let (queries, seed, policy) = (37, 8, BatchPolicy::Fixed { batch: 4 });
    let model = Dlrm::new(DlrmConfig::tiny(), 61).unwrap();
    let mut engine = ServeEngine::with_defaults(&model);
    let served = serve(
        &mut engine,
        &model,
        &mut workload(seed, 16),
        &ServeConfig {
            queries,
            arrivals: ArrivalProcess::Poisson { mean_qps: 20_000.0 },
            policy: policy.clone(),
            sla_ns: 50_000_000,
            seed,
            shed_unmeetable: false,
        },
    )
    .unwrap();
    let spec = TenantSpec {
        name: "solo".to_string(),
        weight: 1,
        queries,
        arrivals: RateCurve::Constant { qps: 20_000.0 },
        policy,
        sla_ns: 50_000_000,
        shed_unmeetable: false,
        seed,
        publish: None,
        popularity_shift: None,
    };
    let mut fleet = vec![Tenant::new(spec, &model, workload(seed, 16))];
    let fleet = run_fleet(&mut fleet, &FleetConfig::default()).unwrap();
    let tenant = &fleet.tenants[0].serve;
    assert_eq!(served.queries, 37);
    assert_eq!(served.batches, 10, "nine 4-batches and a drain of 1");
    assert_eq!(tenant.queries, served.queries);
    assert_eq!(tenant.batches, served.batches);
    assert_eq!(tenant.samples, served.samples);
    assert_eq!(
        tenant.cache_hit_rate.to_bits(),
        served.cache_hit_rate.to_bits()
    );
}

#[test]
fn saturated_tenants_split_pool_time_by_weight() {
    // Both tenants flood the pool from t=0 (arrival rate far above
    // capacity, shedding off so the backlog persists); with weights 3:1
    // the pool-time shares must land close to 75/25.
    let spec = |name: &str, weight: u64, seed: u64| TenantSpec {
        name: name.to_string(),
        weight,
        queries: 300,
        arrivals: RateCurve::Constant { qps: 200_000.0 },
        policy: BatchPolicy::Fixed { batch: 4 },
        sla_ns: 50_000_000,
        shed_unmeetable: false,
        seed,
        publish: None,
        popularity_shift: None,
    };
    let mut tenants = vec![
        tenant(spec("heavy", 3, 1), 41, 16),
        tenant(spec("light", 1, 2), 42, 16),
    ];
    let report = run_fleet(&mut tenants, &fleet_config()).unwrap();
    let heavy = report.tenant("heavy").unwrap();
    let light = report.tenant("light").unwrap();
    // Identical workload shapes mean identical total pool demand; the
    // 3:1 weights govern *when* each is served. Over the saturated
    // window shares track 3:1; the tail (after the heavy tenant
    // finishes) lets the light one catch up, so allow slack.
    assert!(heavy.pool_ns > 0 && light.pool_ns > 0);
    // While both were backlogged the heavy tenant must have run ahead:
    // its last batch completes well before the light tenant's.
    assert!(
        heavy.serve.latency.p99_ns() < light.serve.latency.p99_ns(),
        "weight-3 tenant p99 {} must beat weight-1 p99 {}",
        heavy.serve.latency.p99_ns(),
        light.serve.latency.p99_ns()
    );
    // And its queries drain sooner: mean latency strictly lower.
    assert!(heavy.serve.latency.mean_ns() < light.serve.latency.mean_ns());
}

#[test]
fn flash_crowd_cannot_wreck_a_quiet_tenants_tail() {
    // Quiet tenant solo baseline...
    let mut solo = vec![tenant(quiet_spec(6_000_000), 31, 24)];
    let solo_report = run_fleet(&mut solo, &fleet_config()).unwrap();
    let solo_quiet = solo_report.tenant("quiet").unwrap();
    // ...then the same tenant (same spec, same seeds) next to a flash
    // crowd 40x its rate.
    let mut duo = vec![
        tenant(quiet_spec(6_000_000), 31, 24),
        tenant(flashy_spec(), 32, 24),
    ];
    let duo_report = run_fleet(&mut duo, &fleet_config()).unwrap();
    let duo_quiet = duo_report.tenant("quiet").unwrap();
    let flashy = duo_report.tenant("flashy").unwrap();
    assert_eq!(duo_quiet.serve.queries, solo_quiet.serve.queries);
    // The flash crowd really overloaded its own lane...
    assert!(
        flashy.serve.shed > 0 || flashy.serve.sla_violations > 0,
        "the flash crowd must actually stress the pool"
    );
    // ...but the quiet tenant's tail stays within 2x + one batch of its
    // solo baseline (WFQ bounds the extra wait to roughly one in-flight
    // batch per scheduling round).
    let bound = 2 * solo_quiet.serve.latency.p99_ns() + 1_000_000;
    assert!(
        duo_quiet.serve.latency.p99_ns() <= bound,
        "quiet p99 {} exceeded isolation bound {} (solo p99 {})",
        duo_quiet.serve.latency.p99_ns(),
        bound,
        solo_quiet.serve.latency.p99_ns()
    );
    // Shed rate must not blow up either: within 5 points of solo.
    assert!(
        duo_quiet.serve.shed_rate() <= solo_quiet.serve.shed_rate() + 0.05,
        "quiet shed rate {:.3} vs solo {:.3}",
        duo_quiet.serve.shed_rate(),
        solo_quiet.serve.shed_rate()
    );
}

#[test]
fn popularity_shift_churns_the_casting_cache() {
    // A tenant with a cache sized to the hot head: after the popularity
    // rotation, the warm head goes cold and the engine must evict its
    // way to the new one — visible as evictions and a hit-rate dent.
    let spec = |shift: Option<PopularityShift>| TenantSpec {
        name: "shifty".to_string(),
        weight: 1,
        queries: 600,
        arrivals: RateCurve::Constant { qps: 20_000.0 },
        policy: BatchPolicy::Fixed { batch: 4 },
        sla_ns: 50_000_000,
        shed_unmeetable: false,
        seed: 99,
        publish: None,
        popularity_shift: shift,
    };
    let run = |shift: Option<PopularityShift>| {
        let model = Dlrm::new(DlrmConfig::tiny(), 77).unwrap();
        let workload = workload(7, 64);
        let mut tenants = vec![Tenant::new(spec(shift), &model, workload)];
        let config = FleetConfig {
            // Cache far smaller than the catalog: only the hot head fits.
            cache_capacity: 8,
            ..fleet_config()
        };
        run_fleet(&mut tenants, &config).unwrap()
    };
    let steady = run(None);
    let shifted = run(Some(PopularityShift {
        at_ns: 10_000_000,
        rotation: 32,
    }));
    let steady_t = &steady.tenants[0];
    let shifted_t = &shifted.tenants[0];
    assert!(
        shifted_t.cache_evictions > steady_t.cache_evictions,
        "the shift must evict: steady {} vs shifted {}",
        steady_t.cache_evictions,
        shifted_t.cache_evictions
    );
    assert!(
        shifted_t.serve.cache_hit_rate < steady_t.serve.cache_hit_rate,
        "the shift must dent the hit rate: steady {:.3} vs shifted {:.3}",
        steady_t.serve.cache_hit_rate,
        shifted_t.serve.cache_hit_rate
    );
}
