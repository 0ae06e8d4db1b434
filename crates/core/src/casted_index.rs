//! The casted index array — the output of Algorithm 2.

use tcast_embedding::{CastedLookups, EmbeddingError};

/// The "T.Casted" `(src, dst)` index array of Fig. 7, plus the metadata the
/// scatter step needs.
///
/// For each of the `n` original lookups (in ascending-`src`, stable order):
///
/// * `gather_src[i]` — which row of the `B x D` *gradient table* to gather
///   (the `dst` of the sorted original pair);
/// * `reduce_dst[i]` — which *coalesced output row* to reduce it into
///   (the cumulative-sum array of Fig. 8);
/// * `unique_rows[j]` — which *embedding-table row* coalesced output `j`
///   belongs to (ascending), consumed by the subsequent scatter.
///
/// Invariants (enforced at construction): `gather_src.len() ==
/// reduce_dst.len()`; `reduce_dst` is non-decreasing starting at 0 with
/// unit steps; `unique_rows` is strictly increasing with length
/// `max(reduce_dst)+1`; every `gather_src < num_gradient_rows`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CastedIndexArray {
    gather_src: Vec<u32>,
    reduce_dst: Vec<u32>,
    unique_rows: Vec<u32>,
    num_gradient_rows: usize,
}

impl CastedIndexArray {
    /// Creates a casted index array from parts, validating every invariant.
    ///
    /// # Errors
    ///
    /// Returns [`EmbeddingError::InvalidIndex`] if any invariant fails.
    pub fn new(
        gather_src: Vec<u32>,
        reduce_dst: Vec<u32>,
        unique_rows: Vec<u32>,
        num_gradient_rows: usize,
    ) -> Result<Self, EmbeddingError> {
        if gather_src.len() != reduce_dst.len() {
            return Err(EmbeddingError::InvalidIndex(format!(
                "gather_src ({}) and reduce_dst ({}) length mismatch",
                gather_src.len(),
                reduce_dst.len()
            )));
        }
        if let Some(&bad) = gather_src
            .iter()
            .find(|&&s| s as usize >= num_gradient_rows)
        {
            return Err(EmbeddingError::InvalidIndex(format!(
                "gather_src {bad} exceeds gradient table rows {num_gradient_rows}"
            )));
        }
        if !reduce_dst.is_empty() {
            if reduce_dst[0] != 0 {
                return Err(EmbeddingError::InvalidIndex(
                    "reduce_dst must start at 0".to_string(),
                ));
            }
            if reduce_dst
                .windows(2)
                .any(|w| w[1] != w[0] && w[1] != w[0] + 1)
            {
                return Err(EmbeddingError::InvalidIndex(
                    "reduce_dst must be non-decreasing with unit steps".to_string(),
                ));
            }
            let expected_unique = *reduce_dst.last().expect("non-empty") as usize + 1;
            if unique_rows.len() != expected_unique {
                return Err(EmbeddingError::InvalidIndex(format!(
                    "unique_rows has {} entries, reduce_dst implies {expected_unique}",
                    unique_rows.len()
                )));
            }
        } else if !unique_rows.is_empty() {
            return Err(EmbeddingError::InvalidIndex(
                "unique_rows must be empty when there are no lookups".to_string(),
            ));
        }
        if unique_rows.windows(2).any(|w| w[0] >= w[1]) {
            return Err(EmbeddingError::InvalidIndex(
                "unique_rows must be strictly increasing".to_string(),
            ));
        }
        Ok(Self {
            gather_src,
            reduce_dst,
            unique_rows,
            num_gradient_rows,
        })
    }

    /// Per-lookup gradient-table row to gather (the casted `src`).
    pub fn gather_src(&self) -> &[u32] {
        &self.gather_src
    }

    /// Per-lookup coalesced output slot (the casted `dst`).
    pub fn reduce_dst(&self) -> &[u32] {
        &self.reduce_dst
    }

    /// Embedding-table row ids of the coalesced outputs, ascending.
    pub fn unique_rows(&self) -> &[u32] {
        &self.unique_rows
    }

    /// Rows in the gradient table this casted array gathers from (the
    /// mini-batch size `B`).
    pub fn num_gradient_rows(&self) -> usize {
        self.num_gradient_rows
    }

    /// Number of lookups `n`.
    pub fn len(&self) -> usize {
        self.gather_src.len()
    }

    /// Whether there are no lookups.
    pub fn is_empty(&self) -> bool {
        self.gather_src.is_empty()
    }

    /// Number of coalesced output rows `U`.
    pub fn num_unique(&self) -> usize {
        self.unique_rows.len()
    }
}

impl CastedLookups for CastedIndexArray {
    fn gather_src(&self) -> &[u32] {
        &self.gather_src
    }

    fn reduce_dst(&self) -> &[u32] {
        &self.reduce_dst
    }

    fn unique_rows(&self) -> &[u32] {
        &self.unique_rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_fig8_arrays_accepted() {
        let c = CastedIndexArray::new(
            vec![1, 0, 0, 1, 0],
            vec![0, 1, 2, 2, 3],
            vec![0, 1, 2, 4],
            2,
        )
        .unwrap();
        assert_eq!(c.len(), 5);
        assert_eq!(c.num_unique(), 4);
        assert_eq!(c.num_gradient_rows(), 2);
    }

    #[test]
    fn rejects_length_mismatch() {
        assert!(CastedIndexArray::new(vec![0], vec![0, 0], vec![0], 1).is_err());
    }

    #[test]
    fn rejects_out_of_range_gather_src() {
        assert!(CastedIndexArray::new(vec![2], vec![0], vec![5], 2).is_err());
    }

    #[test]
    fn rejects_nonzero_start() {
        assert!(CastedIndexArray::new(vec![0], vec![1], vec![5], 1).is_err());
    }

    #[test]
    fn rejects_jumps_in_reduce_dst() {
        assert!(CastedIndexArray::new(vec![0, 0], vec![0, 2], vec![1, 2, 3], 1).is_err());
    }

    #[test]
    fn rejects_decreasing_reduce_dst() {
        assert!(CastedIndexArray::new(vec![0, 0], vec![0, 0], vec![1, 2], 1).is_err());
    }

    #[test]
    fn rejects_unsorted_unique_rows() {
        assert!(CastedIndexArray::new(vec![0, 0], vec![0, 1], vec![4, 2], 1).is_err());
    }

    #[test]
    fn empty_is_valid() {
        let c = CastedIndexArray::new(vec![], vec![], vec![], 0).unwrap();
        assert!(c.is_empty());
        assert_eq!(c.num_unique(), 0);
    }

    #[test]
    fn empty_with_unique_rows_rejected() {
        assert!(CastedIndexArray::new(vec![], vec![], vec![1], 0).is_err());
    }
}
