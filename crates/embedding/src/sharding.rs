//! Row-range sharding of embedding tables across memory nodes.
//!
//! The paper's motivation (Sections I-II) is that embedding tables reach
//! tens of GB to TBs, forcing them off-accelerator into pooled/host
//! memory — Facebook's Zion and Baidu's AIBox shard them across a memory
//! pool. This module models that placement: [`ShardMap`] is the pure
//! placement plan (contiguous row ranges, O(1) row → shard routing) and
//! [`RouteScratch`] makes the per-batch routing allocation-free so the
//! plan can sit on the training hot path. Tables stay single slabs; what
//! the plan places is the optimizer state
//! ([`crate::optim::ShardedOptimizer`]), the casting jobs (routed per
//! shard) and the scatter's tasks ([`crate::scatter_apply_sharded`]).
//!
//! # Bit-identity
//!
//! Sharding is placement, never arithmetic: routing keeps each shard's
//! lookups in original pair order (f32 accumulation order is the
//! invariant, since float addition is not associative), and the scatter
//! applies the exact per-row update sequence of the unsharded path.
//! `sharded == unsharded` is the workspace-wide invariant 8,
//! property-tested in `tests/sharded_equivalence.rs`.

use crate::error::EmbeddingError;
use crate::index::IndexArray;

/// How many row-range shards a table (or a whole model) should be split
/// into. `ShardSpec::default()` is one shard — today's unsharded layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    shards: usize,
}

impl ShardSpec {
    /// A spec asking for `shards` row-range shards per table. Tables with
    /// fewer rows than shards get one shard per row (see [`ShardMap`]).
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    pub fn new(shards: usize) -> Self {
        assert!(shards > 0, "need at least one shard");
        Self { shards }
    }

    /// The requested shard count.
    pub fn shards(&self) -> usize {
        self.shards
    }
}

impl Default for ShardSpec {
    fn default() -> Self {
        Self { shards: 1 }
    }
}

/// The placement plan for one table: `rows` split into near-equal
/// contiguous row ranges.
///
/// Every shard spans exactly `ceil(rows / requested)` rows except the
/// last (which takes the remainder), so `row → (shard, local)` is a
/// division, not a search — routing stays O(1) per lookup however many
/// shards exist. The actual shard count is `ceil(rows / span)`, which can
/// be lower than requested when the table has fewer rows than shards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMap {
    rows: usize,
    /// Rows per shard (all shards but the last).
    span: usize,
    /// Exclusive upper row bound of each shard (ascending).
    bounds: Vec<usize>,
}

impl ShardMap {
    /// Plans `rows` over `num_shards` near-equal contiguous ranges. A
    /// zero-row table still gets one (empty) shard so downstream
    /// per-shard state is never zero-length.
    ///
    /// # Panics
    ///
    /// Panics if `num_shards == 0`.
    pub fn new(rows: usize, num_shards: usize) -> Self {
        assert!(num_shards > 0, "need at least one shard");
        let span = rows.div_ceil(num_shards).max(1);
        let mut bounds = Vec::with_capacity(rows.div_ceil(span).max(1));
        let mut lo = 0usize;
        while lo < rows {
            let hi = (lo + span).min(rows);
            bounds.push(hi);
            lo = hi;
        }
        if bounds.is_empty() {
            bounds.push(0);
        }
        Self { rows, span, bounds }
    }

    /// Number of shards actually planned (`<=` the requested count).
    pub fn num_shards(&self) -> usize {
        self.bounds.len()
    }

    /// Total rows covered.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// First global row of shard `s`.
    ///
    /// # Panics
    ///
    /// Panics when `s` is out of range.
    pub fn shard_base(&self, s: usize) -> usize {
        assert!(s < self.bounds.len(), "shard {s} out of range");
        s * self.span
    }

    /// One-past-the-last global row of shard `s`.
    ///
    /// # Panics
    ///
    /// Panics when `s` is out of range.
    pub fn shard_end(&self, s: usize) -> usize {
        self.bounds[s]
    }

    /// Rows owned by shard `s`.
    ///
    /// # Panics
    ///
    /// Panics when `s` is out of range.
    pub fn shard_rows(&self, s: usize) -> usize {
        self.shard_end(s) - self.shard_base(s)
    }

    /// Which shard holds global row `row`, plus the local row id.
    ///
    /// # Errors
    ///
    /// Returns [`EmbeddingError::SrcOutOfBounds`] for rows past the end.
    pub fn locate(&self, row: u32) -> Result<(usize, u32), EmbeddingError> {
        let r = row as usize;
        if r >= self.rows {
            return Err(EmbeddingError::SrcOutOfBounds {
                src: row,
                rows: self.rows,
            });
        }
        Ok((r / self.span, (r % self.span) as u32))
    }

    /// Splits a global index array into per-shard local index arrays,
    /// reusing `scratch`'s buffers: on the warm path this allocates
    /// nothing. Each routed array keeps the pairs in their original
    /// relative order, maps `src` to the shard-local row id, and keeps
    /// the **original** `dst` and `num_outputs` so per-shard partial
    /// outputs stay batch-aligned. Read the result via
    /// [`RouteScratch::routed`].
    ///
    /// # Errors
    ///
    /// Returns [`EmbeddingError::SrcOutOfBounds`] on out-of-range rows;
    /// `scratch` is left empty (but keeps its allocations).
    pub fn route_into(
        &self,
        index: &IndexArray,
        scratch: &mut RouteScratch,
    ) -> Result<(), EmbeddingError> {
        let n = self.num_shards();
        scratch.ensure(n);
        scratch.active = 0;
        for s in 0..n {
            scratch.src[s].clear();
            scratch.dst[s].clear();
        }
        for (src, dst) in index.iter() {
            let (s, local) = self.locate(src)?;
            scratch.src[s].push(local);
            scratch.dst[s].push(dst);
        }
        // Swap the staged pairs into the recycled IndexArrays through
        // `refill`, which re-validates the invariants; the arrays' old
        // buffers land back in the staging slots for the next call.
        let RouteScratch {
            src, dst, routed, ..
        } = scratch;
        for s in 0..n {
            let (stage_src, stage_dst) = (&mut src[s], &mut dst[s]);
            routed[s].refill(index.num_outputs(), |a, b| {
                std::mem::swap(a, stage_src);
                std::mem::swap(b, stage_dst);
            })?;
        }
        scratch.active = n;
        Ok(())
    }

    /// Allocating convenience form of [`ShardMap::route_into`] (builds a
    /// fresh scratch per call — tests and cold paths only).
    ///
    /// # Errors
    ///
    /// Returns [`EmbeddingError::SrcOutOfBounds`] on out-of-range rows.
    pub fn route(&self, index: &IndexArray) -> Result<Vec<IndexArray>, EmbeddingError> {
        let mut scratch = RouteScratch::default();
        self.route_into(index, &mut scratch)?;
        scratch.routed.truncate(scratch.active);
        Ok(scratch.routed)
    }
}

/// Reusable buffers for [`ShardMap::route_into`]: per-shard staging pair
/// vectors plus the routed [`IndexArray`]s themselves. One scratch per
/// (table, consumer) makes routing allocation-free after warm-up; the
/// same scratch may be reused across maps with different shard counts.
#[derive(Debug, Default)]
pub struct RouteScratch {
    src: Vec<Vec<u32>>,
    dst: Vec<Vec<u32>>,
    routed: Vec<IndexArray>,
    /// Shards filled by the most recent successful `route_into`.
    active: usize,
}

impl RouteScratch {
    /// An empty scratch (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    fn ensure(&mut self, n: usize) {
        while self.src.len() < n {
            self.src.push(Vec::new());
            self.dst.push(Vec::new());
            self.routed
                .push(IndexArray::from_pairs(Vec::new(), Vec::new(), 0).expect("empty is valid"));
        }
    }

    /// The per-shard index arrays produced by the last successful
    /// [`ShardMap::route_into`] (empty before any routing).
    pub fn routed(&self) -> &[IndexArray] {
        &self.routed[..self.active]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcast_tensor::SplitMix64;

    fn index() -> IndexArray {
        let mut rng = SplitMix64::new(5);
        let samples: Vec<Vec<u32>> = (0..16)
            .map(|_| (0..4).map(|_| rng.next_below(100) as u32).collect())
            .collect();
        IndexArray::from_samples(&samples).unwrap()
    }

    #[test]
    fn locate_routes_rows_correctly() {
        let map = ShardMap::new(100, 3);
        // 100 rows over 3 shards: 34/34/32.
        assert_eq!(map.locate(0).unwrap(), (0, 0));
        assert_eq!(map.locate(33).unwrap(), (0, 33));
        assert_eq!(map.locate(34).unwrap(), (1, 0));
        assert_eq!(map.locate(99).unwrap(), (2, 31));
        assert!(map.locate(100).is_err());
    }

    #[test]
    fn locate_boundary_and_out_of_range_cases() {
        let map = ShardMap::new(100, 3); // spans 34/34/32
        for s in 0..map.num_shards() {
            // First and last row of every shard, including the global
            // last row, land exactly on the shard's edges.
            let base = map.shard_base(s) as u32;
            let last = map.shard_end(s) as u32 - 1;
            assert_eq!(map.locate(base).unwrap(), (s, 0));
            assert_eq!(map.locate(last).unwrap(), (s, last - base));
        }
        // One past the end and far past the end return the typed error.
        for bad in [100u32, 101, u32::MAX] {
            assert_eq!(
                map.locate(bad),
                Err(EmbeddingError::SrcOutOfBounds {
                    src: bad,
                    rows: 100
                })
            );
        }
    }

    #[test]
    fn route_rejects_out_of_range_rows_with_typed_error() {
        let map = ShardMap::new(10, 2);
        let idx = IndexArray::from_samples(&[vec![3, 10]]).unwrap();
        let mut scratch = RouteScratch::default();
        assert_eq!(
            map.route_into(&idx, &mut scratch),
            Err(EmbeddingError::SrcOutOfBounds { src: 10, rows: 10 })
        );
        assert!(scratch.routed().is_empty());
        assert_eq!(
            map.route(&idx).unwrap_err(),
            EmbeddingError::SrcOutOfBounds { src: 10, rows: 10 }
        );
    }

    #[test]
    fn route_into_reuses_scratch_and_matches_route() {
        let map = ShardMap::new(100, 3);
        let mut scratch = RouteScratch::default();
        for seed in 0..4 {
            let mut rng = SplitMix64::new(seed);
            let samples: Vec<Vec<u32>> = (0..8)
                .map(|_| (0..3).map(|_| rng.next_below(100) as u32).collect())
                .collect();
            let idx = IndexArray::from_samples(&samples).unwrap();
            map.route_into(&idx, &mut scratch).unwrap();
            assert_eq!(scratch.routed(), map.route(&idx).unwrap().as_slice());
        }
    }

    #[test]
    fn route_scratch_survives_maps_with_different_shard_counts() {
        let idx = index();
        let mut scratch = RouteScratch::default();
        for shards in [7, 2, 3, 1] {
            let map = ShardMap::new(100, shards);
            map.route_into(&idx, &mut scratch).unwrap();
            assert_eq!(scratch.routed().len(), map.num_shards());
            assert_eq!(scratch.routed(), map.route(&idx).unwrap().as_slice());
        }
    }

    #[test]
    fn more_shards_than_rows() {
        let map = ShardMap::new(3, 10);
        assert_eq!(map.num_shards(), 3); // one row each
        assert_eq!((map.shard_base(2), map.shard_end(2)), (2, 3));
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_panics() {
        ShardMap::new(100, 0);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shard_spec_panics() {
        ShardSpec::new(0);
    }

    #[test]
    fn default_spec_is_one_shard() {
        assert_eq!(ShardSpec::default().shards(), 1);
        assert_eq!(ShardSpec::new(4).shards(), 4);
    }

    #[test]
    fn zero_row_map_has_one_empty_shard() {
        let map = ShardMap::new(0, 4);
        assert_eq!(map.num_shards(), 1);
        assert_eq!(map.shard_rows(0), 0);
        assert!(map.locate(0).is_err());
    }

    #[test]
    fn route_preserves_lookup_counts() {
        let idx = index();
        let routed = ShardMap::new(100, 3).route(&idx).unwrap();
        let total: usize = routed.iter().map(IndexArray::len).sum();
        assert_eq!(total, idx.len());
        for r in &routed {
            assert_eq!(r.num_outputs(), idx.num_outputs());
        }
    }
}
