//! The `(src, dst)` index array that drives embedding gather-reduce
//! (Fig. 2a of the paper).
//!
//! Each pair says "gather table row `src` and reduce it into output slot
//! `dst`". For a mini-batch of `B` samples, `dst` ranges over `0..B` and the
//! number of pairs equals the total lookups in the batch (batch size ×
//! pooling factor for fixed-length pooling).

use crate::error::EmbeddingError;
use crate::radix::{radix_sort_pairs, RadixScratch};

/// A validated array of `(src, dst)` lookup pairs plus the number of output
/// (pooled) slots.
///
/// Invariants enforced at construction:
/// * `src` and `dst` have equal length;
/// * every `dst` is `< num_outputs`;
/// * every output slot in `0..num_outputs` receives at least one lookup
///   when built via [`IndexArray::from_samples`] (general constructors
///   allow empty slots, which reduce to zero vectors).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexArray {
    src: Vec<u32>,
    dst: Vec<u32>,
    num_outputs: usize,
}

impl IndexArray {
    /// Builds an index array from per-sample lookup lists: sample `i`'s
    /// rows all get `dst = i`.
    ///
    /// # Errors
    ///
    /// Returns [`EmbeddingError::InvalidIndex`] if any sample has no
    /// lookups (the paper's models always pool at least one row per
    /// sample).
    pub fn from_samples(samples: &[Vec<u32>]) -> Result<Self, EmbeddingError> {
        let total: usize = samples.iter().map(Vec::len).sum();
        let mut src = Vec::with_capacity(total);
        let mut dst = Vec::with_capacity(total);
        for (i, lookups) in samples.iter().enumerate() {
            if lookups.is_empty() {
                return Err(EmbeddingError::InvalidIndex(format!(
                    "sample {i} has no lookups"
                )));
            }
            for &row in lookups {
                src.push(row);
                dst.push(i as u32);
            }
        }
        Ok(Self {
            src,
            dst,
            num_outputs: samples.len(),
        })
    }

    /// Builds an index array from raw parallel `src`/`dst` vectors.
    ///
    /// # Errors
    ///
    /// Returns [`EmbeddingError::LengthMismatch`] if the vectors differ in
    /// length, or [`EmbeddingError::DstOutOfBounds`] if any `dst` is
    /// `>= num_outputs`.
    pub fn from_pairs(
        src: Vec<u32>,
        dst: Vec<u32>,
        num_outputs: usize,
    ) -> Result<Self, EmbeddingError> {
        if src.len() != dst.len() {
            return Err(EmbeddingError::LengthMismatch {
                expected: src.len(),
                found: dst.len(),
            });
        }
        if let Some(&bad) = dst.iter().find(|&&d| d as usize >= num_outputs) {
            return Err(EmbeddingError::DstOutOfBounds {
                dst: bad,
                outputs: num_outputs,
            });
        }
        Ok(Self {
            src,
            dst,
            num_outputs,
        })
    }

    /// Number of `(src, dst)` pairs (total lookups).
    pub fn len(&self) -> usize {
        self.src.len()
    }

    /// Whether the array holds no pairs.
    pub fn is_empty(&self) -> bool {
        self.src.is_empty()
    }

    /// Number of output (pooled) slots, i.e. the mini-batch size.
    pub fn num_outputs(&self) -> usize {
        self.num_outputs
    }

    /// The `src` (table-row) ids.
    pub fn src(&self) -> &[u32] {
        &self.src
    }

    /// The `dst` (output-slot) ids.
    pub fn dst(&self) -> &[u32] {
        &self.dst
    }

    /// Iterator over `(src, dst)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.src.iter().copied().zip(self.dst.iter().copied())
    }

    /// Largest `src` id, or `None` when empty. Useful for validating
    /// against a table's row count once, ahead of a kernel.
    pub fn max_src(&self) -> Option<u32> {
        self.src.iter().copied().max()
    }

    /// Number of *distinct* `src` ids.
    ///
    /// This is `U` in the paper's traffic model: the size of the coalesced
    /// gradient tensor (Fig. 5b) and the number of rows ultimately
    /// scattered.
    pub fn unique_src_count(&self) -> usize {
        let mut scratch = RadixScratch::default();
        radix_sort_pairs(&self.src, 0..self.src.len() as u32, &mut scratch)
            .chunk_by(|a, b| a >> 32 == b >> 32)
            .count()
    }

    /// Validates every `src` against a table row count: a branch-free
    /// `max` over the ids, which vectorizes; only once it shows a bad row
    /// does a second pass look for the first one.
    ///
    /// # Errors
    ///
    /// Returns [`EmbeddingError::SrcOutOfBounds`] on the first offending id.
    pub fn validate_against_rows(&self, rows: usize) -> Result<(), EmbeddingError> {
        if self.max_src().is_some_and(|max| max as usize >= rows) {
            let bad = self.src.iter().find(|&&s| s as usize >= rows);
            let &bad = bad.expect("the max is out of range");
            return Err(EmbeddingError::SrcOutOfBounds { src: bad, rows });
        }
        Ok(())
    }

    /// Rewrites this array in place: clears the pair vectors (keeping
    /// their allocations), hands them to `fill` to push the new pairs,
    /// then re-validates the construction invariants. This is the buffer
    /// recycling primitive behind zero-allocation batch prefetch — a
    /// `BatchSource` free-list refills a returned batch's index arrays
    /// instead of allocating fresh ones.
    ///
    /// # Errors
    ///
    /// Returns [`EmbeddingError::LengthMismatch`] if `fill` leaves the
    /// vectors with different lengths, or
    /// [`EmbeddingError::DstOutOfBounds`] if any pushed `dst` is
    /// `>= num_outputs`. On error the array is left empty (never with
    /// invariant-violating contents).
    pub fn refill(
        &mut self,
        num_outputs: usize,
        fill: impl FnOnce(&mut Vec<u32>, &mut Vec<u32>),
    ) -> Result<(), EmbeddingError> {
        self.src.clear();
        self.dst.clear();
        self.num_outputs = num_outputs;
        fill(&mut self.src, &mut self.dst);
        let validity = if self.src.len() != self.dst.len() {
            Err(EmbeddingError::LengthMismatch {
                expected: self.src.len(),
                found: self.dst.len(),
            })
        } else if let Some(&bad) = self.dst.iter().find(|&&d| d as usize >= num_outputs) {
            Err(EmbeddingError::DstOutOfBounds {
                dst: bad,
                outputs: num_outputs,
            })
        } else {
            Ok(())
        };
        if validity.is_err() {
            self.src.clear();
            self.dst.clear();
            self.num_outputs = 0;
        }
        validity
    }

    /// The comparison-sort oracle of the radix sort: the pairs sorted by
    /// `src` (stable), as sorted `(src, dst)` vectors. Packing the position
    /// under the key makes every key distinct, so an unstable sort of them
    /// is the stable sort by `src`.
    #[cfg(test)]
    pub(crate) fn sorted_by_src(&self) -> (Vec<u32>, Vec<u32>) {
        let mut keys: Vec<u64> = self
            .src
            .iter()
            .enumerate()
            .map(|(pos, &s)| ((s as u64) << 32) | pos as u64)
            .collect();
        keys.sort_unstable();
        keys.iter()
            .map(|&key| ((key >> 32) as u32, self.dst[key as u32 as usize]))
            .unzip()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_samples_lays_out_paper_example() {
        // Fig. 2a: batch 0 gathers {1,2,4}, batch 1 gathers {0,2}.
        let idx = IndexArray::from_samples(&[vec![1, 2, 4], vec![0, 2]]).unwrap();
        assert_eq!(idx.src(), &[1, 2, 4, 0, 2]);
        assert_eq!(idx.dst(), &[0, 0, 0, 1, 1]);
        assert_eq!(idx.num_outputs(), 2);
        assert_eq!(idx.len(), 5);
    }

    #[test]
    fn from_samples_rejects_empty_sample() {
        assert!(IndexArray::from_samples(&[vec![1], vec![]]).is_err());
    }

    #[test]
    fn from_pairs_validates() {
        assert!(IndexArray::from_pairs(vec![1, 2], vec![0], 1).is_err());
        assert!(IndexArray::from_pairs(vec![1, 2], vec![0, 5], 2).is_err());
        assert!(IndexArray::from_pairs(vec![1, 2], vec![0, 1], 2).is_ok());
    }

    #[test]
    fn unique_src_count_matches_paper_example() {
        let idx = IndexArray::from_samples(&[vec![1, 2, 4], vec![0, 2]]).unwrap();
        // {0,1,2,4} -> 4 unique.
        assert_eq!(idx.unique_src_count(), 4);
    }

    #[test]
    fn unique_src_count_edge_cases() {
        let empty = IndexArray::from_pairs(vec![], vec![], 0).unwrap();
        assert_eq!(empty.unique_src_count(), 0);
        let all_same = IndexArray::from_pairs(vec![7; 5], vec![0; 5], 1).unwrap();
        assert_eq!(all_same.unique_src_count(), 1);
    }

    #[test]
    fn sorted_by_src_matches_paper_example() {
        // [1,2,4,0,2] -> [0,1,2,2,4]; dst follows: [1,0,0,1,0].
        let idx = IndexArray::from_samples(&[vec![1, 2, 4], vec![0, 2]]).unwrap();
        let (s, d) = idx.sorted_by_src();
        assert_eq!(s, vec![0, 1, 2, 2, 4]);
        assert_eq!(d, vec![1, 0, 0, 1, 0]);
    }

    #[test]
    fn sorted_by_src_is_stable_on_ties() {
        // Three lookups of row 5 from dst 0, 1, 2 must stay in order.
        let idx = IndexArray::from_pairs(vec![5, 5, 5], vec![0, 1, 2], 3).unwrap();
        let (_, d) = idx.sorted_by_src();
        assert_eq!(d, vec![0, 1, 2]);
    }

    #[test]
    fn validate_against_rows() {
        let idx = IndexArray::from_samples(&[vec![9]]).unwrap();
        assert!(idx.validate_against_rows(10).is_ok());
        assert!(matches!(
            idx.validate_against_rows(9),
            Err(EmbeddingError::SrcOutOfBounds { src: 9, rows: 9 })
        ));
    }

    #[test]
    fn validate_against_rows_names_the_first_bad_row() {
        // The max finds that a row is bad; the error names the first one.
        let idx = IndexArray::from_samples(&[vec![3, 12], vec![11]]).unwrap();
        assert!(matches!(
            idx.validate_against_rows(10),
            Err(EmbeddingError::SrcOutOfBounds { src: 12, rows: 10 })
        ));
        let idx = IndexArray::from_samples(&[vec![15, 20]]).unwrap();
        assert!(matches!(
            idx.validate_against_rows(10),
            Err(EmbeddingError::SrcOutOfBounds { src: 15, rows: 10 })
        ));
        let empty = IndexArray::from_pairs(vec![], vec![], 0).unwrap();
        assert!(empty.validate_against_rows(0).is_ok());
    }

    #[test]
    fn max_src() {
        let idx = IndexArray::from_samples(&[vec![3, 1], vec![7]]).unwrap();
        assert_eq!(idx.max_src(), Some(7));
        let empty = IndexArray::from_pairs(vec![], vec![], 0).unwrap();
        assert_eq!(empty.max_src(), None);
    }

    #[test]
    fn refill_reuses_buffers_and_revalidates() {
        let mut idx = IndexArray::from_samples(&[vec![1, 2, 4], vec![0, 2]]).unwrap();
        idx.refill(3, |src, dst| {
            src.extend_from_slice(&[9, 8, 7]);
            dst.extend_from_slice(&[0, 1, 2]);
        })
        .unwrap();
        assert_eq!(
            idx,
            IndexArray::from_pairs(vec![9, 8, 7], vec![0, 1, 2], 3).unwrap()
        );
        // Invariant violations are rejected and leave the array empty.
        assert!(matches!(
            idx.refill(2, |src, dst| {
                src.push(1);
                dst.push(5);
            }),
            Err(EmbeddingError::DstOutOfBounds { dst: 5, outputs: 2 })
        ));
        assert!(idx.is_empty());
        assert!(matches!(
            idx.refill(1, |src, _| src.push(0)),
            Err(EmbeddingError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn iter_yields_pairs() {
        let idx = IndexArray::from_samples(&[vec![4], vec![2]]).unwrap();
        let pairs: Vec<(u32, u32)> = idx.iter().collect();
        assert_eq!(pairs, vec![(4, 0), (2, 1)]);
    }
}
