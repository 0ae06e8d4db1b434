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
//!
//! The whole transform is linear in the number of lookups. Step 1 is the
//! stable LSD radix sort of `(src, dst)` pairs
//! ([`tcast_embedding::radix_sort_pairs`]) — one or two 11-bit-or-narrower
//! digit passes for tables up to 4M rows, three beyond — and steps 2-4,
//! with the casted array's invariant checks, are one final pass over the
//! sorted pairs. [`tensor_casting_into`] runs it into a recycled array and
//! recycled sort buffers, so a warm cast allocates nothing.

use crate::casted_index::CastedIndexArray;
use tcast_embedding::{radix_sort_pairs, IndexArray, RadixScratch};

/// Runs Algorithm 2 (sort-by-key → scan → cumulative sum) on an index
/// array, producing the casted index array used by
/// [`crate::casted_gather_reduce`]. Allocating form of
/// [`tensor_casting_into`].
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
    let mut casted = CastedIndexArray::default();
    tensor_casting_into(index, &mut casted, &mut RadixScratch::default());
    casted
}

/// [`tensor_casting`] into a caller-owned array, rewriting it in place,
/// with the sort's buffers in `scratch`: once both have seen an index
/// array this large, casting allocates nothing.
///
/// The sort is the one the baseline coalescer runs
/// ([`tcast_embedding::gradient_coalesce_into`]), so both paths order tied
/// lookups identically — what makes the equivalence *bitwise*, not just
/// approximate.
///
/// ```
/// use tcast_core::{tensor_casting, tensor_casting_into, CastedIndexArray};
/// use tcast_embedding::{IndexArray, RadixScratch};
///
/// let (mut casted, mut scratch) = (CastedIndexArray::default(), RadixScratch::default());
/// for samples in [vec![vec![9, 3], vec![3]], vec![vec![1, 2, 4], vec![0, 2]]] {
///     let index = IndexArray::from_samples(&samples).unwrap();
///     tensor_casting_into(&index, &mut casted, &mut scratch);
///     assert_eq!(casted, tensor_casting(&index));
/// }
/// ```
pub fn tensor_casting_into(
    index: &IndexArray,
    out: &mut CastedIndexArray,
    scratch: &mut RadixScratch,
) {
    // Step 1: SortByKey(src, dst), stable.
    let sorted = radix_sort_pairs(index.src(), index.dst().iter().copied(), scratch);
    // Steps 2-4, fused.
    out.fill_from_sorted(sorted, index.num_outputs());
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

    #[test]
    fn casting_into_a_recycled_array_keeps_its_buffers() {
        let (mut out, mut scratch) = (CastedIndexArray::default(), RadixScratch::default());
        let big = IndexArray::from_pairs((0..64).rev().collect(), vec![0; 64], 1).unwrap();
        tensor_casting_into(&big, &mut out, &mut scratch);
        let ptr = out.gather_src().as_ptr();
        tensor_casting_into(&fig8_index(), &mut out, &mut scratch);
        assert_eq!(out, tensor_casting(&fig8_index()));
        assert_eq!(out.gather_src().as_ptr(), ptr);
    }

    #[test]
    fn the_final_pass_makes_the_constructors_checks() {
        let mut out = CastedIndexArray::default();
        let fill = |out: &mut CastedIndexArray, pairs: &[(u32, u32)], rows| {
            let packed: Vec<u64> = pairs
                .iter()
                .map(|&(s, d)| (s as u64) << 32 | d as u64)
                .collect();
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                out.fill_from_sorted(&packed, rows)
            }))
            .is_ok()
        };
        assert!(fill(&mut out, &[(0, 1), (1, 0), (2, 0), (2, 1), (4, 0)], 2));
        let valid = out.clone();
        assert_eq!(
            CastedIndexArray::new(
                valid.gather_src().to_vec(),
                valid.reduce_dst().to_vec(),
                valid.unique_rows().to_vec(),
                2
            )
            .unwrap(),
            valid
        );
        assert!(!fill(&mut out, &[(0, 2)], 2), "dst past the gradient table");
        assert!(!fill(&mut out, &[(3, 0), (1, 0)], 1), "unsorted src");
    }
}
