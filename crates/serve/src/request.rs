//! The query workload model: what a recommendation inference request
//! looks like and when it arrives.
//!
//! A query asks the model to score one user against a *candidate set* of
//! items (the output of an upstream retrieval stage): `C` candidates
//! means `C` samples — a `C x dense_features` matrix of continuous
//! features plus one index array per embedding table with `C` outputs.
//! Serving-side batching fuses many queries' candidate sets into one
//! model batch (see `engine`).
//!
//! Two properties of real serving traffic drive the subsystem's design,
//! and both are modelled here:
//!
//! * **Queries repeat.** A popular query (trending item page, home feed
//!   of a hot segment) arrives thousands of times; the model draws
//!   queries from a finite seeded *catalog* through a configurable
//!   popularity skew, so repeated index arrays are the common case and
//!   a hot query's embedding rows stay in the host's caches.
//! * **Arrivals are bursty or feedback-coupled.** [`ArrivalProcess`]
//!   models both open-loop Poisson traffic (DeepRecSys' arrival model)
//!   and closed-loop clients that issue their next query only after the
//!   previous one completes.
//!
//! Sparse features are drawn from the existing `tcast-datasets`
//! popularity models ([`TableWorkload`]), so the same Zipf skew that
//! shapes training gradients shapes inference lookups.

use std::sync::Arc;

use tcast_datasets::{Popularity, TableWorkload, WorkloadGenerator};
use tcast_embedding::IndexArray;
use tcast_tensor::{Matrix, SplitMix64};

/// One inference request: score `candidates()` items for one user.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// Catalog identity (hot queries share an id across arrivals). A
    /// label for reports and errors only: the serve engine scores a query
    /// repeated within a batch once by matching the `Arc` it arrives in
    /// ([`Arc::ptr_eq`]), never by `id`, so two queries built under one
    /// id are two queries.
    pub id: u64,
    /// Continuous features, `candidates x dense_features`.
    pub dense: Matrix,
    /// Per-table sparse lookups, each with `candidates` outputs. Shared
    /// behind an `Arc`: a repeated query re-sends the *same* arrays
    /// instead of a copy.
    pub indices: Arc<[IndexArray]>,
}

impl Query {
    /// Number of candidate items this query scores.
    pub fn candidates(&self) -> usize {
        self.dense.rows()
    }
}

/// How many candidates a query carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CandidateCount {
    /// Every query scores exactly this many items.
    Fixed(usize),
    /// Uniform in `[min, max]` (inclusive), per catalog entry.
    Uniform {
        /// Smallest candidate set.
        min: usize,
        /// Largest candidate set.
        max: usize,
    },
}

impl CandidateCount {
    fn draw(&self, rng: &mut SplitMix64) -> usize {
        match *self {
            CandidateCount::Fixed(n) => {
                assert!(n > 0, "candidate count must be positive");
                n
            }
            CandidateCount::Uniform { min, max } => {
                assert!(
                    0 < min && min <= max,
                    "candidate range must satisfy 0 < min <= max"
                );
                min + rng.next_below((max - min + 1) as u64) as usize
            }
        }
    }
}

/// Seeded generator of serving traffic over a fixed query catalog.
///
/// Construction materializes `catalog_size` distinct queries (each an
/// `Arc`); [`QueryModel::draw`] then samples the catalog through a
/// truncated-Zipf popularity (exponent 0 = uniform), so a draw is a
/// refcount bump and hot queries dominate exactly as table rows do in
/// the datasets' lookup models.
#[derive(Debug)]
pub struct QueryModel {
    catalog: Vec<Arc<Query>>,
    popularity: tcast_datasets::CdfSampler,
    rng: SplitMix64,
}

impl QueryModel {
    /// Builds a catalog of `catalog_size` queries over `tables` with
    /// `dense_features` continuous features, fully determined by `seed`.
    /// `query_skew` is the Zipf exponent of the query popularity
    /// (`0.0` = every query equally likely). Each table's popularity
    /// sampler is built once and its generator reseeded per query, which
    /// draws what a fresh `generator` per query would.
    ///
    /// # Panics
    ///
    /// Panics if `catalog_size == 0`, the candidate spec is invalid, or
    /// `query_skew` is NaN (see [`Popularity::sampler`]).
    pub fn new(
        tables: &[TableWorkload],
        dense_features: usize,
        catalog_size: usize,
        candidates: CandidateCount,
        query_skew: f64,
        seed: u64,
    ) -> Self {
        assert!(catalog_size > 0, "catalog must hold at least one query");
        let mut rng = SplitMix64::new(seed);
        let mut generators: Vec<WorkloadGenerator> =
            tables.iter().map(|t| t.generator(0)).collect();
        let catalog = (0..catalog_size as u64)
            .map(|id| {
                let c = candidates.draw(&mut rng);
                let mut dense = Matrix::zeros(c, dense_features);
                for v in dense.as_mut_slice() {
                    *v = rng.next_range(-1.0, 1.0);
                }
                let indices: Vec<IndexArray> = generators
                    .iter_mut()
                    .map(|g| {
                        g.reseed(rng.next_u64());
                        g.next_batch(c)
                    })
                    .collect();
                Arc::new(Query {
                    id,
                    dense,
                    indices: indices.into(),
                })
            })
            .collect();
        let popularity = Popularity::zipf_or_uniform(catalog_size, query_skew).sampler();
        Self {
            catalog,
            popularity,
            rng,
        }
    }

    /// Number of distinct queries in the catalog.
    pub fn catalog_size(&self) -> usize {
        self.catalog.len()
    }

    /// A catalog entry by id (testing / replay).
    pub fn query(&self, id: usize) -> &Arc<Query> {
        &self.catalog[id]
    }

    /// Draws the next query (a refcount bump on a catalog entry).
    pub fn draw(&mut self) -> Arc<Query> {
        let rank = self.popularity.sample(&mut self.rng) as usize;
        Arc::clone(&self.catalog[rank])
    }
}

/// When queries arrive, on the serving loop's nanosecond clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Open-loop Poisson arrivals at the given mean rate: inter-arrival
    /// gaps are exponentially distributed, independent of service — the
    /// regime where an overloaded server's queue grows without bound.
    Poisson {
        /// Mean queries per second.
        mean_qps: f64,
    },
    /// Closed-loop: `clients` concurrent callers, each issuing its next
    /// query `think_ns` after its previous one completes — load adapts
    /// to service capacity (arrivals stall while the server is busy).
    ClosedLoop {
        /// Concurrent callers.
        clients: usize,
        /// Per-client pause between completion and the next request.
        think_ns: u64,
    },
}

impl ArrivalProcess {
    /// Draws the next open-loop inter-arrival gap in nanoseconds
    /// (closed-loop arrivals are completion-driven; see the serve loop).
    pub(crate) fn next_gap_ns(&self, rng: &mut SplitMix64) -> u64 {
        match *self {
            ArrivalProcess::Poisson { mean_qps } => {
                assert!(mean_qps > 0.0, "mean_qps must be positive");
                // Exponential via inverse CDF; clamp u away from 1.0.
                let u = f64::from(rng.next_f32()).min(1.0 - 1e-9);
                ((-(1.0 - u).ln()) / mean_qps * 1e9) as u64
            }
            ArrivalProcess::ClosedLoop { .. } => {
                unreachable!("closed-loop arrivals are completion-driven")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcast_datasets::Popularity;

    fn tables() -> Vec<TableWorkload> {
        vec![
            TableWorkload::new(
                Popularity::Zipf {
                    rows: 100,
                    exponent: 1.0,
                },
                3,
            ),
            TableWorkload::new(Popularity::Uniform { rows: 50 }, 2),
        ]
    }

    #[test]
    fn catalog_queries_have_consistent_shapes() {
        let model = QueryModel::new(&tables(), 6, 10, CandidateCount::Fixed(4), 0.9, 1);
        assert_eq!(model.catalog_size(), 10);
        for id in 0..10 {
            let q = model.query(id);
            assert_eq!(q.candidates(), 4);
            assert_eq!(q.dense.shape(), (4, 6));
            assert_eq!(q.indices.len(), 2);
            assert_eq!(q.indices[0].num_outputs(), 4);
            assert_eq!(q.indices[0].len(), 12); // pooling 3
            assert_eq!(q.indices[1].len(), 8); // pooling 2
        }
    }

    #[test]
    fn variable_candidate_counts_stay_in_range() {
        let model = QueryModel::new(
            &tables(),
            4,
            32,
            CandidateCount::Uniform { min: 2, max: 9 },
            0.0,
            7,
        );
        let counts: Vec<usize> = (0..32).map(|i| model.query(i).candidates()).collect();
        assert!(counts.iter().all(|&c| (2..=9).contains(&c)));
        assert!(counts.iter().any(|&c| c != counts[0]), "counts must vary");
    }

    #[test]
    fn draws_are_seeded_and_share_catalog_entries() {
        let mk = || QueryModel::new(&tables(), 4, 8, CandidateCount::Fixed(2), 1.1, 42);
        let (mut a, mut b) = (mk(), mk());
        for _ in 0..20 {
            let qa = a.draw();
            let qb = b.draw();
            assert_eq!(qa.id, qb.id);
            assert_eq!(*qa, *qb);
        }
        // A re-drawn hot query is the same allocation, not a copy.
        let first = a.draw();
        let again = (0..50).map(|_| a.draw()).find(|q| q.id == first.id);
        if let Some(again) = again {
            assert!(Arc::ptr_eq(&first, &again));
        }
    }

    #[test]
    fn skewed_popularity_concentrates_draws() {
        let mut model = QueryModel::new(&tables(), 4, 100, CandidateCount::Fixed(2), 1.2, 3);
        let mut head = 0usize;
        for _ in 0..500 {
            if model.draw().id < 10 {
                head += 1;
            }
        }
        // Top-10% of a Zipf(1.2) catalog draws far more than 10% of
        // traffic (analytically ~60%; wide slack for RNG noise).
        assert!(head > 150, "head draws = {head}");
    }

    #[test]
    fn poisson_gaps_have_the_right_mean() {
        let p = ArrivalProcess::Poisson { mean_qps: 10_000.0 };
        let mut rng = SplitMix64::new(9);
        let n = 4000;
        let total: u64 = (0..n).map(|_| p.next_gap_ns(&mut rng)).sum();
        let mean = total as f64 / n as f64;
        // Expected 100_000 ns; 3-sigma of the sample mean is ~5%.
        assert!(
            (mean - 100_000.0).abs() < 10_000.0,
            "mean gap {mean} ns, expected ~100000"
        );
    }

    #[test]
    #[should_panic(expected = "catalog must hold")]
    fn empty_catalog_rejected() {
        QueryModel::new(&tables(), 4, 0, CandidateCount::Fixed(1), 0.0, 1);
    }

    #[test]
    fn catalog_and_draw_stream_are_pinned() {
        // FNV-1a over the bits of every catalog query and the ids of the
        // first 1,000 draws, recorded from the exact `f64` binary-search
        // sampler the stream was first drawn with. A mismatch means a
        // draw changed: fix the sampler, do not re-pin the constant.
        fn fnv(h: &mut u64, x: u32) {
            for b in x.to_le_bytes() {
                *h ^= u64::from(b);
                *h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        let mut tables = tables();
        tables.push(TableWorkload::new(
            Popularity::Zipf {
                rows: 10_000,
                exponent: 1.05,
            },
            4,
        ));
        let candidates = CandidateCount::Uniform { min: 4, max: 16 };
        let mut model = QueryModel::new(&tables, 5, 64, candidates, 1.1, 9);
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for id in 0..model.catalog_size() {
            let q = model.query(id);
            fnv(&mut h, q.id as u32);
            for v in q.dense.as_slice() {
                fnv(&mut h, v.to_bits());
            }
            for index in q.indices.iter() {
                fnv(&mut h, index.num_outputs() as u32);
                for (src, dst) in index.iter() {
                    fnv(&mut h, src);
                    fnv(&mut h, dst);
                }
            }
        }
        for _ in 0..1_000 {
            fnv(&mut h, model.draw().id as u32);
        }
        assert_eq!(h, 0x4460_7ead_5817_5c91);
    }
}
