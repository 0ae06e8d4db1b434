//! Lookup histograms and coalescing statistics — the measurements behind
//! Fig. 5 of the paper.
//!
//! Fig. 5a plots, per dataset, the probability of each table entry being
//! looked up (sorted descending); Fig. 5b measures the size of the
//! gradient tensor before expansion, after expansion, and after
//! coalescing, as a function of batch size. [`LookupHistogram`] computes
//! the former from sampled lookups; [`CoalesceStats`] the latter.

use std::collections::HashMap;
use tcast_datasets::TableWorkload;
use tcast_embedding::IndexArray;

/// A histogram of lookups per distinct table row.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LookupHistogram {
    counts: HashMap<u32, u64>,
    total: u64,
}

impl LookupHistogram {
    /// Empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a histogram from a stream of looked-up row ids.
    pub fn from_lookups(ids: &[u32]) -> Self {
        let mut h = Self::new();
        h.record_all(ids);
        h
    }

    /// Records one lookup.
    pub fn record(&mut self, id: u32) {
        *self.counts.entry(id).or_insert(0) += 1;
        self.total += 1;
    }

    /// Records many lookups.
    pub fn record_all(&mut self, ids: &[u32]) {
        for &id in ids {
            self.record(id);
        }
    }

    /// Total lookups recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of distinct rows ever looked up.
    pub fn distinct(&self) -> usize {
        self.counts.len()
    }

    /// Empirical probabilities sorted descending — the Fig. 5a curve.
    pub fn sorted_probabilities(&self) -> Vec<f64> {
        let mut counts: Vec<u64> = self.counts.values().copied().collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let total = self.total.max(1) as f64;
        counts.into_iter().map(|c| c as f64 / total).collect()
    }

    /// Fraction of all lookups captured by the `k` hottest rows
    /// (the head-concentration scalar quoted alongside Fig. 5a).
    pub fn head_mass(&self, k: usize) -> f64 {
        self.sorted_probabilities().iter().take(k).sum()
    }
}

/// The three gradient-tensor sizes of Fig. 5b for one mini-batch, in rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoalesceStats {
    /// Rows backpropagated from the DNN (= batch size `B`).
    pub backpropagated: usize,
    /// Rows after gradient expansion (= total lookups `n`).
    pub expanded: usize,
    /// Rows after coalescing (= unique lookups `U`).
    pub coalesced: usize,
}

impl CoalesceStats {
    /// Measures the stats of one index array.
    pub fn of_index(index: &IndexArray) -> Self {
        Self {
            backpropagated: index.num_outputs(),
            expanded: index.len(),
            coalesced: index.unique_src_count(),
        }
    }

    /// Generates a mini-batch from `workload` (seeded) and measures it —
    /// the Fig. 5b experiment for one (dataset, batch-size) cell.
    pub fn measure(workload: &TableWorkload, batch: usize, seed: u64) -> Self {
        let index = workload.generator(seed).next_batch(batch);
        Self::of_index(&index)
    }

    /// Expanded size relative to the backpropagated gradient
    /// (= pooling factor; "precisely 10x" in the paper's setup).
    pub fn expansion_ratio(&self) -> f64 {
        self.expanded as f64 / self.backpropagated.max(1) as f64
    }

    /// Coalesced size relative to the backpropagated gradient
    /// (the middle bars of Fig. 5b).
    pub fn coalesced_ratio(&self) -> f64 {
        self.coalesced as f64 / self.backpropagated.max(1) as f64
    }

    /// Fraction of expanded rows eliminated by coalescing
    /// (`1 - U/n`); higher = more locality.
    pub fn coalesce_savings(&self) -> f64 {
        1.0 - self.coalesced as f64 / self.expanded.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcast_datasets::{DatasetPreset, Popularity};

    #[test]
    fn histogram_counts_and_total() {
        let h = LookupHistogram::from_lookups(&[1, 1, 2, 3, 3, 3]);
        assert_eq!(h.total(), 6);
        assert_eq!(h.distinct(), 3);
        let probs = h.sorted_probabilities();
        assert_eq!(probs.len(), 3);
        assert!((probs[0] - 0.5).abs() < 1e-12); // id 3
        assert!((probs[1] - 2.0 / 6.0).abs() < 1e-12); // id 1
    }

    #[test]
    fn sorted_probabilities_sum_to_one() {
        let h = LookupHistogram::from_lookups(&[5, 9, 9, 1, 5, 5, 5]);
        let sum: f64 = h.sorted_probabilities().iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn head_mass_monotone_in_k() {
        let h = LookupHistogram::from_lookups(&[0, 0, 0, 1, 1, 2]);
        assert!(h.head_mass(1) < h.head_mass(2));
        assert!((h.head_mass(3) - 1.0).abs() < 1e-12);
        assert!((h.head_mass(100) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_histogram_is_sane() {
        let h = LookupHistogram::new();
        assert_eq!(h.total(), 0);
        assert!(h.sorted_probabilities().is_empty());
        assert_eq!(h.head_mass(10), 0.0);
    }

    #[test]
    fn coalesce_stats_of_paper_example() {
        let idx = IndexArray::from_samples(&[vec![1, 2, 4], vec![0, 2]]).unwrap();
        let s = CoalesceStats::of_index(&idx);
        assert_eq!(s.backpropagated, 2);
        assert_eq!(s.expanded, 5);
        assert_eq!(s.coalesced, 4);
        assert!((s.expansion_ratio() - 2.5).abs() < 1e-12);
        assert!((s.coalesced_ratio() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn expansion_ratio_equals_pooling_factor() {
        // "the expanded gradient size is precisely 10x larger than the
        // initial backpropagated gradients" for pooling 10.
        let w = TableWorkload::new(Popularity::Uniform { rows: 1000 }, 10);
        let s = CoalesceStats::measure(&w, 256, 1);
        assert!((s.expansion_ratio() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn coalescing_improves_with_batch_size() {
        // Fig. 5b: "the effectiveness of expanded gradient's getting
        // shrunk through coalescing is gradually increased as batch size
        // gets larger."
        let w = DatasetPreset::CriteoKaggle
            .table_workload(10)
            .with_rows(50_000);
        let small = CoalesceStats::measure(&w, 256, 2);
        let large = CoalesceStats::measure(&w, 4096, 2);
        assert!(
            large.coalesce_savings() > small.coalesce_savings(),
            "large-batch savings {} should exceed small-batch {}",
            large.coalesce_savings(),
            small.coalesce_savings()
        );
    }

    #[test]
    fn skewed_datasets_coalesce_better_than_random() {
        let random = DatasetPreset::Random.table_workload(10).with_rows(50_000);
        let criteo = DatasetPreset::CriteoKaggle
            .table_workload(10)
            .with_rows(50_000);
        let r = CoalesceStats::measure(&random, 2048, 3);
        let c = CoalesceStats::measure(&criteo, 2048, 3);
        assert!(c.coalesced < r.coalesced);
        assert!(c.coalesce_savings() > r.coalesce_savings());
    }
}
