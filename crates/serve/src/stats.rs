//! Serving telemetry: latency distribution, throughput, queue shape and
//! SLA accounting.
//!
//! Tail latency is the serving-side figure of merit (DeepRecSys' whole
//! scheduling problem is "meet the p99 SLA"), so the histogram exists to
//! answer percentile queries cheaply: values land in logarithmic buckets
//! (4 sub-buckets per power of two, <= 19% relative width) with no
//! allocation on the record path, and percentiles read back the bucket
//! upper bound — an overestimate by at most one bucket width, which is
//! the conservative direction for SLA reporting.

/// Sub-buckets per power of two (resolution/space trade-off).
const SUBS: usize = 4;
/// Bucket count: 64 octaves x SUBS covers the whole u64 range.
const BUCKETS: usize = 64 * SUBS;

/// A log-bucketed histogram of nanosecond values.
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    buckets: Box<[u64; BUCKETS]>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: Box::new([0; BUCKETS]),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn bucket_of(value_ns: u64) -> usize {
        let v = value_ns.max(1);
        let octave = 63 - v.leading_zeros() as usize;
        if octave < 2 {
            // Values 1..4 get exact buckets.
            return v as usize - 1;
        }
        // Top two bits below the leading bit select the sub-bucket.
        let sub = ((v >> (octave - 2)) & 0b11) as usize;
        octave * SUBS + sub
    }

    /// Inclusive upper bound of a bucket (the value a percentile reports).
    fn bucket_upper(bucket: usize) -> u64 {
        if bucket < 2 * SUBS {
            // Octaves 0-1 use the exact buckets 0..3; 3..8 are unused.
            return (bucket as u64 + 1).min(3);
        }
        let octave = bucket / SUBS;
        let sub = (bucket % SUBS) as u64;
        // The bucket holds [2^o + sub*2^(o-2), 2^o + (sub+1)*2^(o-2)).
        (1u64 << octave) + (sub + 1) * (1u64 << (octave - 2)) - 1
    }

    /// Records one value.
    pub fn record(&mut self, value_ns: u64) {
        self.buckets[Self::bucket_of(value_ns)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value_ns);
        self.min = self.min.min(value_ns);
        self.max = self.max.max(value_ns);
    }

    /// Recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of recorded values (0 when empty).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.sum as f64 / self.count as f64
    }

    /// Smallest recorded value (0 when empty).
    pub fn min_ns(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value.
    pub fn max_ns(&self) -> u64 {
        self.max
    }

    /// The `q`-quantile (`0.0..=1.0`) as a bucket upper bound, exact for
    /// the extremes: `q = 1.0` reports the true max. Returns 0 when
    /// empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "quantile {q} out of range");
        if self.count == 0 {
            return 0;
        }
        if q >= 1.0 {
            return self.max;
        }
        // Rank of the q-quantile among `count` sorted samples (1-based,
        // ceil): the smallest rank whose cumulative share is >= q.
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Self::bucket_upper(b).min(self.max);
            }
        }
        self.max
    }

    /// Median (bucket-resolution).
    pub fn p50_ns(&self) -> u64 {
        self.quantile_ns(0.50)
    }

    /// 95th percentile (bucket-resolution).
    pub fn p95_ns(&self) -> u64 {
        self.quantile_ns(0.95)
    }

    /// 99th percentile (bucket-resolution).
    pub fn p99_ns(&self) -> u64 {
        self.quantile_ns(0.99)
    }

    /// Folds `other` into `self`. Because buckets are positional, the
    /// merged histogram is exactly the histogram that would have been
    /// produced by recording both value streams into one instance — so
    /// fleet-level percentiles from merged per-engine histograms equal
    /// the single-histogram answer (unit-tested below).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (dst, src) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *dst += src;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Aggregate result of one serving run.
#[derive(Debug, Clone, Default)]
pub struct ServeReport {
    /// Queries completed — scored plus shed.
    pub queries: u64,
    /// Fused batches executed.
    pub batches: u64,
    /// Samples (candidate items) scored.
    pub samples: u64,
    /// End-to-end per-query latency (arrival to batch completion).
    pub latency: LatencyHistogram,
    /// Per-batch engine service time.
    pub service: LatencyHistogram,
    /// Simulated clock span of the run.
    pub span_ns: u64,
    /// The SLA the run was accounted against.
    pub sla_ns: u64,
    /// Queries whose end-to-end latency exceeded the SLA (exact count).
    pub sla_violations: u64,
    /// Deepest the admission queue got.
    pub max_queue_depth: usize,
    /// Casting-cache hit rate across the engine's per-table caches.
    pub cache_hit_rate: f64,
    /// Queries shed at admission because their deadline had already
    /// become provably unmeetable (0 unless shedding is enabled). Shed
    /// queries count in `queries` but record no latency sample and no
    /// SLA violation — shedding exists to spend the compute on queries
    /// that can still meet the SLA.
    pub shed: u64,
    /// Checkpoint hot-restores performed mid-run (online mode).
    pub restores: u64,
    /// Wall time spent inside hot-restores (also on the simulated
    /// clock).
    pub restore_ns: u64,
}

impl ServeReport {
    /// Served queries per second of simulated time.
    pub fn qps(&self) -> f64 {
        if self.span_ns == 0 {
            return 0.0;
        }
        self.queries as f64 / (self.span_ns as f64 / 1e9)
    }

    /// Mean queries per fused batch.
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            return 0.0;
        }
        self.queries as f64 / self.batches as f64
    }

    /// Fraction of queries that violated the SLA.
    pub fn sla_violation_rate(&self) -> f64 {
        if self.queries == 0 {
            return 0.0;
        }
        self.sla_violations as f64 / self.queries as f64
    }

    /// Fraction of queries shed instead of scored.
    pub fn shed_rate(&self) -> f64 {
        if self.queries == 0 {
            return 0.0;
        }
        self.shed as f64 / self.queries as f64
    }

    /// Folds `other` into `self`, producing the fleet-level report for
    /// engines that ran concurrently: counters add, histograms merge
    /// (bucket-exact — see [`LatencyHistogram::merge`]), `span_ns` and
    /// `max_queue_depth` take the max (concurrent engines share the
    /// clock), and `cache_hit_rate` is re-weighted by scored queries.
    /// `sla_ns` keeps `self`'s value unless `self` is still the empty
    /// accumulator (`sla_ns == 0`), in which case it adopts `other`'s —
    /// folding tenant reports into a `Default` rollup must not silently
    /// zero the SLA. (Violations were counted per-source against each
    /// source's own SLA, so they stay exact even when tenants' SLAs
    /// differ; a heterogeneous rollup's `sla_ns` is only the first
    /// tenant's and is not used for re-counting.)
    pub fn merge(&mut self, other: &ServeReport) {
        if self.sla_ns == 0 {
            self.sla_ns = other.sla_ns;
        }
        let self_scored = self.queries - self.shed;
        let other_scored = other.queries - other.shed;
        let scored = self_scored + other_scored;
        self.cache_hit_rate = if scored == 0 {
            0.0
        } else {
            (self.cache_hit_rate * self_scored as f64 + other.cache_hit_rate * other_scored as f64)
                / scored as f64
        };
        self.queries += other.queries;
        self.batches += other.batches;
        self.samples += other.samples;
        self.latency.merge(&other.latency);
        self.service.merge(&other.service);
        self.span_ns = self.span_ns.max(other.span_ns);
        self.sla_violations += other.sla_violations;
        self.max_queue_depth = self.max_queue_depth.max(other.max_queue_depth);
        self.shed += other.shed;
        self.restores += other.restores;
        self.restore_ns += other.restore_ns;
    }
}

/// Per-batch model-freshness accounting — the staleness ledger grown
/// into a freshness SLA. Each served batch records the snapshot version
/// it was scored against, how many versions behind the store's head that
/// was, and the snapshot's wall-clock age; p99 model age is the
/// freshness figure of merit, symmetric with p99 latency.
///
/// Both serving modes fill the same ledger — the interleaved oracle
/// (`serve_online`, where "version" is the update count and staleness in
/// versions is always 0) and the concurrent runtime — so freshness is
/// comparable across modes on one schema.
#[derive(Debug, Clone, Default)]
pub struct FreshnessLedger {
    /// Snapshot version each batch was scored against, in batch order.
    pub versions: Vec<u64>,
    /// Versions behind the store head at score time, in batch order.
    pub staleness_versions: Vec<u64>,
    /// Wall-clock model age (ns) at score time.
    pub model_age: LatencyHistogram,
}

impl FreshnessLedger {
    /// Records one served batch.
    pub fn record(&mut self, version: u64, versions_behind: u64, model_age_ns: u64) {
        self.versions.push(version);
        self.staleness_versions.push(versions_behind);
        self.model_age.record(model_age_ns);
    }

    /// Folds `other` into `self` (fleet aggregation). Batch order across
    /// engines is interleaving-dependent, so the per-batch vectors
    /// concatenate; the age histogram merges bucket-exactly.
    pub fn merge(&mut self, other: &FreshnessLedger) {
        self.versions.extend_from_slice(&other.versions);
        self.staleness_versions
            .extend_from_slice(&other.staleness_versions);
        self.model_age.merge(&other.model_age);
    }

    /// Batches recorded.
    pub fn batches(&self) -> u64 {
        self.model_age.count()
    }

    /// p99 wall-clock model age (ns) — the freshness SLA headline.
    pub fn p99_model_age_ns(&self) -> u64 {
        self.model_age.p99_ns()
    }

    /// Worst staleness in versions any batch was served at (0 when
    /// empty).
    pub fn max_staleness_versions(&self) -> u64 {
        self.staleness_versions.iter().copied().max().unwrap_or(0)
    }

    /// Mean staleness in versions (0 when empty).
    pub fn mean_staleness_versions(&self) -> f64 {
        if self.staleness_versions.is_empty() {
            return 0.0;
        }
        self.staleness_versions.iter().sum::<u64>() as f64 / self.staleness_versions.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_ordered_and_bounded() {
        let mut h = LatencyHistogram::new();
        for v in 1..=1000u64 {
            h.record(v * 97);
        }
        assert_eq!(h.count(), 1000);
        let (p50, p95, p99) = (h.p50_ns(), h.p95_ns(), h.p99_ns());
        assert!(p50 <= p95 && p95 <= p99);
        assert!(p99 <= h.max_ns());
        assert!(h.min_ns() == 97);
        // Bucket overestimate is bounded by one sub-bucket (< 25%).
        assert!((p50 as f64) >= 0.5 * 1000.0 * 97.0 / 2.0);
        assert!((p50 as f64) < 1.25 * 500.0 * 97.0 + 97.0);
    }

    #[test]
    fn exact_extremes() {
        let mut h = LatencyHistogram::new();
        for v in [5, 10, 20, 40, 80u64] {
            h.record(v);
        }
        assert_eq!(h.quantile_ns(1.0), 80);
        assert_eq!(h.max_ns(), 80);
        assert_eq!(h.min_ns(), 5);
        assert!((h.mean_ns() - 31.0).abs() < 1e-9);
    }

    #[test]
    fn empty_histogram_is_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.p99_ns(), 0);
        assert_eq!(h.mean_ns(), 0.0);
        assert_eq!(h.min_ns(), 0);
    }

    #[test]
    fn single_value_reports_itself_everywhere() {
        let mut h = LatencyHistogram::new();
        h.record(12_345);
        for q in [0.0, 0.5, 0.99, 1.0] {
            let v = h.quantile_ns(q);
            // Within one bucket of the value, never below the min.
            assert!(v >= 12_345 || q < 1.0, "q={q} -> {v}");
            assert!(v <= 12_345 + 12_345 / 4 + 1, "q={q} -> {v}");
        }
    }

    #[test]
    fn small_values_get_exact_buckets() {
        let mut h = LatencyHistogram::new();
        for v in [1u64, 2, 3] {
            h.record(v);
        }
        assert_eq!(h.quantile_ns(0.34), 2);
        assert_eq!(h.p50_ns(), 2);
    }

    #[test]
    fn bucket_upper_bounds_are_monotonic() {
        let mut last = 0;
        for b in 0..BUCKETS - SUBS {
            let u = LatencyHistogram::bucket_upper(b);
            assert!(u >= last, "bucket {b}: {u} < {last}");
            last = u;
        }
    }

    #[test]
    fn every_value_lands_at_or_below_its_bucket_upper() {
        for shift in 0..40 {
            for off in [0u64, 1, 3, 7] {
                let v = (1u64 << shift) + off;
                let b = LatencyHistogram::bucket_of(v);
                assert!(
                    LatencyHistogram::bucket_upper(b) >= v,
                    "value {v} above its bucket bound"
                );
            }
        }
    }

    #[test]
    fn merged_histogram_equals_single_histogram_over_both_streams() {
        // Two disjoint streams recorded separately then merged must
        // report the same percentiles as one histogram fed everything.
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut oracle = LatencyHistogram::new();
        for v in 1..=700u64 {
            a.record(v * 131);
            oracle.record(v * 131);
        }
        for v in 1..=300u64 {
            b.record(v * 17 + 5);
            oracle.record(v * 17 + 5);
        }
        a.merge(&b);
        assert_eq!(a.count(), oracle.count());
        assert_eq!(a.min_ns(), oracle.min_ns());
        assert_eq!(a.max_ns(), oracle.max_ns());
        assert!((a.mean_ns() - oracle.mean_ns()).abs() < 1e-9);
        for q in [0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0] {
            assert_eq!(a.quantile_ns(q), oracle.quantile_ns(q), "q={q}");
        }
    }

    #[test]
    fn merging_an_empty_histogram_is_identity() {
        let mut a = LatencyHistogram::new();
        a.record(42);
        a.record(4200);
        let before = (a.count(), a.min_ns(), a.max_ns(), a.p99_ns());
        a.merge(&LatencyHistogram::new());
        assert_eq!((a.count(), a.min_ns(), a.max_ns(), a.p99_ns()), before);
        let mut empty = LatencyHistogram::new();
        empty.merge(&a);
        assert_eq!(empty.min_ns(), a.min_ns());
        assert_eq!(empty.max_ns(), a.max_ns());
    }

    #[test]
    fn report_merge_aggregates_counters_and_reweights_cache_hits() {
        let mut a = ServeReport {
            queries: 100,
            batches: 20,
            samples: 800,
            span_ns: 5_000,
            sla_ns: 1_000_000,
            sla_violations: 2,
            max_queue_depth: 7,
            cache_hit_rate: 0.5,
            shed: 20, // 80 scored
            ..Default::default()
        };
        a.latency.record(100);
        a.service.record(60);
        let mut b = ServeReport {
            queries: 40,
            batches: 10,
            samples: 320,
            span_ns: 9_000,
            sla_ns: 1_000_000,
            sla_violations: 1,
            max_queue_depth: 3,
            cache_hit_rate: 0.8,
            shed: 0, // 40 scored
            restores: 1,
            restore_ns: 77,
            ..Default::default()
        };
        b.latency.record(900);
        b.service.record(400);
        a.merge(&b);
        // Every counter the report has grown since PR 4 must survive the
        // fold — a missed field silently corrupts fleet rollups.
        assert_eq!(a.queries, 140);
        assert_eq!(a.batches, 30);
        assert_eq!(a.samples, 1120);
        assert_eq!(a.span_ns, 9_000);
        assert_eq!(a.sla_ns, 1_000_000);
        assert_eq!(a.sla_violations, 3);
        assert_eq!(a.max_queue_depth, 7);
        assert_eq!(a.shed, 20);
        assert_eq!(a.restores, 1);
        assert_eq!(a.restore_ns, 77);
        assert_eq!(a.latency.count(), 2);
        assert_eq!(a.latency.max_ns(), 900);
        assert_eq!(a.service.count(), 2);
        assert_eq!(a.service.max_ns(), 400);
        // (0.5 * 80 + 0.8 * 40) / 120 = 0.6
        assert!((a.cache_hit_rate - 0.6).abs() < 1e-9);
    }

    #[test]
    fn report_merge_into_default_rollup_adopts_the_sla() {
        // The fleet rollup pattern: fold tenant reports into a Default
        // accumulator. The first fold must pick up the SLA instead of
        // pinning it at 0.
        let t0 = ServeReport {
            queries: 10,
            sla_ns: 20_000_000,
            sla_violations: 1,
            ..Default::default()
        };
        let t1 = ServeReport {
            queries: 5,
            sla_ns: 40_000_000,
            sla_violations: 2,
            ..Default::default()
        };
        let mut fleet = ServeReport::default();
        fleet.merge(&t0);
        fleet.merge(&t1);
        assert_eq!(fleet.sla_ns, 20_000_000, "first tenant's SLA adopted");
        assert_eq!(fleet.queries, 15);
        assert_eq!(fleet.sla_violations, 3, "violations stay per-source exact");
    }

    #[test]
    fn freshness_ledger_records_and_merges() {
        let mut a = FreshnessLedger::default();
        a.record(1, 0, 1_000);
        a.record(2, 1, 2_000);
        let mut b = FreshnessLedger::default();
        b.record(2, 0, 500);
        b.record(3, 4, 8_000);
        a.merge(&b);
        assert_eq!(a.batches(), 4);
        assert_eq!(a.versions, vec![1, 2, 2, 3]);
        assert_eq!(a.max_staleness_versions(), 4);
        assert!((a.mean_staleness_versions() - 1.25).abs() < 1e-9);
        assert!(a.p99_model_age_ns() >= 8_000);
        assert_eq!(FreshnessLedger::default().max_staleness_versions(), 0);
        assert_eq!(FreshnessLedger::default().mean_staleness_versions(), 0.0);
    }

    #[test]
    fn report_rates() {
        let mut r = ServeReport {
            queries: 100,
            batches: 25,
            span_ns: 1_000_000_000,
            sla_violations: 3,
            shed: 8,
            ..Default::default()
        };
        r.sla_ns = 1_000_000;
        assert!((r.qps() - 100.0).abs() < 1e-9);
        assert!((r.mean_batch() - 4.0).abs() < 1e-9);
        assert!((r.sla_violation_rate() - 0.03).abs() < 1e-9);
        assert!((r.shed_rate() - 0.08).abs() < 1e-9);
        assert_eq!(ServeReport::default().qps(), 0.0);
        assert_eq!(ServeReport::default().shed_rate(), 0.0);
    }
}
