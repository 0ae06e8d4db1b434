//! Algorithm 2: the Tensor Casting index transformation.
//!
//! Walking Fig. 8's example, with original pairs
//! `[(1,0), (2,0), (4,0), (0,1), (2,1)]`:
//!
//! 1. **Sort-by-key** on `src` (stable): `[(0,1), (1,0), (2,0), (2,1), (4,0)]`.
//! 2. The sorted `dst` column — `[1, 0, 0, 1, 0]` — *is* the casted `src`:
//!    it says which gradient-table row each lookup's gradient lives in.
//! 3. **Scan** for non-consecutive ids: `[1, 1, 1, 0, 1]`.
//! 4. **Cumulative sum** minus one: `[0, 1, 2, 2, 3]` — the casted `dst`,
//!    i.e. which coalesced output row each gathered gradient reduces into.

use crate::casted_index::CastedIndexArray;
use tcast_embedding::IndexArray;

/// Runs Algorithm 2 (sort-by-key → scan → cumulative sum) on an index
/// array, producing the casted index array used by
/// [`crate::casted_gather_reduce`].
///
/// The sort is the packed-key stable sort shared with the baseline
/// coalescer so that both paths order tied lookups identically (this is
/// what makes the equivalence *bitwise*, not just approximate).
///
/// ```
/// use tcast_core::tensor_casting;
/// use tcast_embedding::IndexArray;
///
/// let index = IndexArray::from_samples(&[vec![1, 2, 4], vec![0, 2]]).unwrap();
/// let casted = tensor_casting(&index);
/// assert_eq!(casted.gather_src(), &[1, 0, 0, 1, 0]);
/// assert_eq!(casted.reduce_dst(), &[0, 1, 2, 2, 3]);
/// assert_eq!(casted.unique_rows(), &[0, 1, 2, 4]);
/// ```
pub fn tensor_casting(index: &IndexArray) -> CastedIndexArray {
    // Step 1: SortByKey(src, dst), stable.
    let (sorted_src, sorted_dst) = index.sorted_by_src();
    build_casted(&sorted_src, sorted_dst, index.num_outputs())
}

/// Steps 2-3 of Algorithm 2 over pre-sorted pairs, fused into one pass:
/// each new `src` run starts a fresh output row (the adjacent-difference
/// scan and its cumulative sum collapse into the `current` counter).
fn build_casted(sorted_src: &[u32], sorted_dst: Vec<u32>, num_outputs: usize) -> CastedIndexArray {
    let n = sorted_src.len();
    let mut reduce_dst = Vec::with_capacity(n);
    let mut unique_rows = Vec::new();
    let mut current: i64 = -1;
    let mut prev: Option<u32> = None;
    for &s in sorted_src {
        if prev != Some(s) {
            current += 1;
            unique_rows.push(s);
        }
        reduce_dst.push(current as u32);
        prev = Some(s);
    }
    CastedIndexArray::new(sorted_dst, reduce_dst, unique_rows, num_outputs)
        .expect("casting output satisfies invariants by construction")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig8_index() -> IndexArray {
        IndexArray::from_samples(&[vec![1, 2, 4], vec![0, 2]]).unwrap()
    }

    #[test]
    fn fig8_walkthrough() {
        let c = tensor_casting(&fig8_index());
        assert_eq!(c.gather_src(), &[1, 0, 0, 1, 0]);
        assert_eq!(c.reduce_dst(), &[0, 1, 2, 2, 3]);
        assert_eq!(c.unique_rows(), &[0, 1, 2, 4]);
        assert_eq!(c.num_gradient_rows(), 2);
    }

    #[test]
    fn all_unique_srcs_yield_identity_reduce() {
        let idx = IndexArray::from_pairs(vec![30, 10, 20], vec![0, 1, 2], 3).unwrap();
        let c = tensor_casting(&idx);
        // Sorted srcs: 10,20,30 -> three distinct outputs 0,1,2.
        assert_eq!(c.reduce_dst(), &[0, 1, 2]);
        assert_eq!(c.unique_rows(), &[10, 20, 30]);
        assert_eq!(c.gather_src(), &[1, 2, 0]);
    }

    #[test]
    fn all_same_src_yields_single_output() {
        let idx = IndexArray::from_pairs(vec![7; 4], vec![0, 1, 2, 3], 4).unwrap();
        let c = tensor_casting(&idx);
        assert_eq!(c.reduce_dst(), &[0, 0, 0, 0]);
        assert_eq!(c.unique_rows(), &[7]);
        // Stable: gradient-table rows in original order.
        assert_eq!(c.gather_src(), &[0, 1, 2, 3]);
    }

    #[test]
    fn empty_index() {
        let idx = IndexArray::from_pairs(vec![], vec![], 0).unwrap();
        let c = tensor_casting(&idx);
        assert!(c.is_empty());
        assert_eq!(c.num_unique(), 0);
    }

    #[test]
    fn unique_count_matches_index_array() {
        let idx = IndexArray::from_samples(&[vec![3, 3, 9], vec![9, 1, 3]]).unwrap();
        let c = tensor_casting(&idx);
        assert_eq!(c.num_unique(), idx.unique_src_count());
    }
}
