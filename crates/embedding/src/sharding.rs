//! Row-range sharding of embedding tables across memory nodes.
//!
//! The paper's motivation (Sections I-II) is that embedding tables reach
//! tens of GB to TBs, forcing them off-accelerator into pooled/host
//! memory — Facebook's Zion and Baidu's AIBox shard them across a memory
//! pool. This module models that placement: a [`ShardMap`] is a set of
//! fixed fences over a table's rows. Nothing else about a sharded table
//! differs from an unsharded one — one slab of parameters, one slab of
//! optimizer state ([`crate::optim::RowOptimizer`]), one casted index
//! array a step, all keyed by the table's own row ids. What the fences
//! decide is which row ranges the tasks of a pooled scatter own
//! ([`crate::scatter_apply_sharded`]): the shards' instead of equal-count
//! bands of the batch's rows.
//!
//! # Bit-identity
//!
//! Sharding is placement, never arithmetic: every row's lookups are
//! accumulated in their original pair order (f32 addition is not
//! associative) and every row is updated once, by the one task whose
//! range holds it. `sharded == unsharded` is the workspace-wide invariant
//! 8, property-tested in `tests/sharded_equivalence.rs`.

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
/// last (which takes the remainder). The actual shard count is
/// `ceil(rows / span)`, which can be lower than requested when the table
/// has fewer rows than shards.
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
    /// zero-row table still gets one (empty) shard.
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

    /// First row of shard `s`.
    ///
    /// # Panics
    ///
    /// Panics when `s` is out of range.
    pub fn shard_base(&self, s: usize) -> usize {
        assert!(s < self.bounds.len(), "shard {s} out of range");
        s * self.span
    }

    /// One-past-the-last row of shard `s`.
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_bounds_tile_the_rows() {
        for (rows, requested) in [(100usize, 3usize), (100, 1), (97, 4), (7, 7), (64, 5)] {
            let map = ShardMap::new(rows, requested);
            assert!(map.num_shards() <= requested);
            assert_eq!(map.rows(), rows);
            // Contiguous, non-empty, first at 0 and last at `rows`.
            let mut next = 0;
            for s in 0..map.num_shards() {
                assert_eq!(map.shard_base(s), next, "{rows}/{requested} shard {s}");
                assert!(map.shard_rows(s) > 0);
                next = map.shard_end(s);
            }
            assert_eq!(next, rows);
        }
        // 100 rows over 3 shards: 34/34/32.
        let map = ShardMap::new(100, 3);
        let spans: Vec<_> = (0..3).map(|s| map.shard_rows(s)).collect();
        assert_eq!(spans, [34, 34, 32]);
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
    }
}
