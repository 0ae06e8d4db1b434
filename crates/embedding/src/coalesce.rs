//! Gradient coalescing (Fig. 2b step 2): the paper's Algorithm 1,
//! faithfully implemented as the two-step argsort + accumulate procedure
//! used by today's ML frameworks, and [`CoalescedGradients`], the one type
//! for its output.
//!
//! Gradients whose lookups shared a `src` row must be *accumulated into a
//! single value* before the optimizer update (Section II-B explains why:
//! RMSprop/Adagrad-style optimizers consume one accumulated gradient `G_i`
//! per parameter per iteration). [`gradient_coalesce_into`] is the one
//! implementation; [`gradient_expand_coalesce`] is the allocating Fig. 2b
//! oracle the casted path is held to.

use crate::error::EmbeddingError;
use crate::expand::gradient_expand;
use crate::index::IndexArray;
use crate::radix::{radix_sort_pairs, RadixScratch};
use tcast_tensor::simd::{prefetch, PREFETCH_WINDOW};
use tcast_tensor::Matrix;

/// Ascending unique table rows and one accumulated gradient row each: the
/// sparse `(indices, values)` gradient PyTorch/TensorFlow produce for
/// `EmbeddingBag`-style layers.
///
/// Either backward path fills one for the scatter:
/// [`gradient_coalesce_into`] (baseline) and `tcast-core`'s
/// `casted_gather_reduce_into` (casted). Both reuse its buffers, so one
/// held per table across training steps keeps the backward
/// allocation-free in steady state.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CoalescedGradients {
    rows: Vec<u32>,
    grads: Matrix,
}

impl CoalescedGradients {
    /// Creates coalesced gradients from parts.
    ///
    /// # Errors
    ///
    /// Returns [`EmbeddingError::LengthMismatch`] if `rows.len()` differs
    /// from `grads.rows()`, or [`EmbeddingError::InvalidIndex`] if `rows`
    /// is not strictly increasing (which would mean it was not coalesced).
    pub fn new(rows: Vec<u32>, grads: Matrix) -> Result<Self, EmbeddingError> {
        if rows.len() != grads.rows() {
            return Err(EmbeddingError::LengthMismatch {
                expected: rows.len(),
                found: grads.rows(),
            });
        }
        if rows.windows(2).any(|w| w[0] >= w[1]) {
            return Err(EmbeddingError::InvalidIndex(
                "coalesced rows must be strictly increasing".to_string(),
            ));
        }
        Ok(Self { rows, grads })
    }

    /// Resets to `rows` — strictly ascending, or a scatter rejects them —
    /// with a zero gradient row of width `dim` each, and returns the
    /// gradients to accumulate into. Every buffer keeps its capacity.
    pub fn reset(&mut self, rows: &[u32], dim: usize) -> &mut Matrix {
        self.rows.clear();
        self.rows.extend_from_slice(rows);
        self.grads.zero_into(rows.len(), dim);
        &mut self.grads
    }

    /// The unique table-row ids, ascending.
    pub fn rows(&self) -> &[u32] {
        &self.rows
    }

    /// The accumulated gradient matrix (`rows.len() x dim`).
    pub fn grads(&self) -> &Matrix {
        &self.grads
    }

    /// Number of unique rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether no gradients are present.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Maximum absolute difference against another coalesced set; errors if
    /// the row sets differ. Used by the equivalence tests between this
    /// baseline path and the casted path.
    ///
    /// # Errors
    ///
    /// Returns [`EmbeddingError::InvalidIndex`] if the row-id sets differ.
    pub fn max_abs_diff(&self, other: &CoalescedGradients) -> Result<f32, EmbeddingError> {
        if self.rows != other.rows {
            return Err(EmbeddingError::InvalidIndex(
                "coalesced row sets differ".to_string(),
            ));
        }
        Ok(self.grads.max_abs_diff(&other.grads)?)
    }
}

/// Algorithm 1 (gradient coalescing): given the *expanded* gradients (one
/// row per lookup, in pair order) and the index array, sort the lookups by
/// `src` and accumulate rows sharing a `src` into `out`, reusing every
/// buffer whose capacity suffices.
///
/// Step A is the `ArgSort(src)` of the paper: the stable radix sort of
/// `(src, position)` pairs ([`radix_sort_pairs`]) — the same sort the
/// casting stage runs, in linear time and through `scratch`'s recycled
/// buffers, which end up holding the sorted pairs. Step B is the
/// sequential accumulation over the sorted order.
///
/// # Errors
///
/// Returns [`EmbeddingError::LengthMismatch`] if `expanded.rows()` differs
/// from `index.len()`.
pub fn gradient_coalesce_into(
    expanded: &Matrix,
    index: &IndexArray,
    out: &mut CoalescedGradients,
    scratch: &mut RadixScratch,
) -> Result<(), EmbeddingError> {
    if expanded.rows() != index.len() {
        return Err(EmbeddingError::LengthMismatch {
            expected: index.len(),
            found: expanded.rows(),
        });
    }
    let dim = expanded.cols();
    let CoalescedGradients { rows, grads } = out;

    // Step A: argsort the src array, as packed `(src, position)` keys.
    let keys = radix_sort_pairs(index.src(), 0..index.len() as u32, scratch);

    // The unique rows are read off the sorted keys (unique_src_count()
    // would sort again into fresh buffers).
    rows.clear();
    for &key in keys.iter() {
        let src = (key >> 32) as u32;
        if rows.last() != Some(&src) {
            rows.push(src);
        }
    }
    grads.zero_into(rows.len(), dim);

    // Step B: one output row per distinct `src`: the first gradient of a
    // run is copied, the rest accumulate in pair order.
    let kernel = tcast_tensor::simd::dispatch();
    let sums = grads.as_mut_slice();
    let mut out_i = usize::MAX; // "i <- -1" in the paper's pseudocode
    let mut prev: Option<u32> = None;
    for (i, &key) in keys.iter().enumerate() {
        let curr = (key >> 32) as u32;
        let pos = (key & 0xFFFF_FFFF) as usize;
        if let Some(&ahead) = keys.get(i + PREFETCH_WINDOW) {
            prefetch(expanded.row((ahead & 0xFFFF_FFFF) as usize));
        }
        if prev != Some(curr) {
            out_i = out_i.wrapping_add(1);
            sums[out_i * dim..(out_i + 1) * dim].copy_from_slice(expanded.row(pos));
        } else {
            let acc = &mut sums[out_i * dim..(out_i + 1) * dim];
            tcast_tensor::simd::add_assign(kernel, acc, expanded.row(pos));
        }
        prev = Some(curr);
    }
    Ok(())
}

/// Baseline two-step backward path: expand then coalesce, returning the
/// coalesced gradients (what Fig. 2b computes before the scatter). The
/// allocating oracle of the baseline backward.
///
/// # Errors
///
/// Propagates errors from [`gradient_expand`] and
/// [`gradient_coalesce_into`].
pub fn gradient_expand_coalesce(
    grads: &Matrix,
    index: &IndexArray,
) -> Result<CoalescedGradients, EmbeddingError> {
    let expanded = gradient_expand(grads, index)?;
    let (mut out, mut scratch) = (CoalescedGradients::default(), RadixScratch::default());
    gradient_coalesce_into(&expanded, index, &mut out, &mut scratch)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig2_index() -> IndexArray {
        IndexArray::from_samples(&[vec![1, 2, 4], vec![0, 2]]).unwrap()
    }

    #[test]
    fn coalesce_matches_fig2b() {
        // G[0] = [1], G[1] = [2]. Coalesced:
        //   row 0 <- G[1], row 1 <- G[0], row 2 <- G[0]+G[1], row 4 <- G[0].
        let index = fig2_index();
        let grads = Matrix::from_rows(&[&[1.0], &[2.0]]).unwrap();
        let c = gradient_expand_coalesce(&grads, &index).unwrap();
        assert_eq!(c.rows(), &[0, 1, 2, 4]);
        assert_eq!(c.grads().row(0), &[2.0]);
        assert_eq!(c.grads().row(1), &[1.0]);
        assert_eq!(c.grads().row(2), &[3.0]);
        assert_eq!(c.grads().row(3), &[1.0]);
    }

    #[test]
    fn coalesce_into_reuses_dirty_scratch_bit_identically() {
        let index = fig2_index();
        let grads = Matrix::from_rows(&[&[1.0, 0.5], &[2.0, -0.25]]).unwrap();
        let expanded = gradient_expand(&grads, &index).unwrap();
        let fresh = gradient_expand_coalesce(&grads, &index).unwrap();
        let mut out = CoalescedGradients::default();
        let mut scratch = RadixScratch::default();
        // Two passes through the SAME buffers: the second starts dirty.
        for _ in 0..2 {
            gradient_coalesce_into(&expanded, &index, &mut out, &mut scratch).unwrap();
            assert_eq!(out, fresh);
        }
    }

    #[test]
    fn coalesce_into_argsort_matches_stable_order_on_ties() {
        // Heavy duplication: every lookup hits one of two rows, so the
        // accumulation order (and its float rounding) is only right if
        // the radix sort reproduces the stable order exactly.
        let n = 64;
        let src: Vec<u32> = (0..n).map(|i| (i % 2) as u32).collect();
        let dst: Vec<u32> = (0..n as u32).collect();
        let index = IndexArray::from_pairs(src, dst, n).unwrap();
        let mut grads = Matrix::zeros(n, 3);
        for (i, v) in grads.as_mut_slice().iter_mut().enumerate() {
            *v = (i as f32).sin() * 1e3; // magnitudes that expose reorder
        }
        let expanded = gradient_expand(&grads, &index).unwrap();
        let sorted = gradient_expand_coalesce(&grads, &index).unwrap();
        // Row r's gradient is the sum of lookups r, r + 2, r + 4, ... in
        // that order.
        for r in 0..2 {
            let mut want = expanded.row(r).to_vec();
            for i in (r + 2..n).step_by(2) {
                for (w, &g) in want.iter_mut().zip(expanded.row(i)) {
                    *w += g;
                }
            }
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(sorted.grads().row(r)), bits(&want), "row {r}");
        }
    }

    #[test]
    fn coalesce_validates_row_count() {
        let index = fig2_index();
        let wrong = Matrix::zeros(4, 1);
        let (mut out, mut scratch) = (CoalescedGradients::default(), RadixScratch::default());
        assert!(gradient_coalesce_into(&wrong, &index, &mut out, &mut scratch).is_err());
    }

    #[test]
    fn all_duplicate_srcs_collapse_to_one_row() {
        let index = IndexArray::from_pairs(vec![3; 6], (0..6).collect(), 6).unwrap();
        let grads = Matrix::from_vec(6, 1, vec![1.0; 6]).unwrap();
        let c = gradient_expand_coalesce(&grads, &index).unwrap();
        assert_eq!(c.len(), 1);
        assert_eq!(c.rows(), &[3]);
        assert_eq!(c.grads().row(0), &[6.0]);
    }

    #[test]
    fn all_unique_srcs_pass_through() {
        let index = IndexArray::from_pairs(vec![5, 1, 9], vec![0, 1, 2], 3).unwrap();
        let grads = Matrix::from_rows(&[&[0.1], &[0.2], &[0.3]]).unwrap();
        let c = gradient_expand_coalesce(&grads, &index).unwrap();
        assert_eq!(c.rows(), &[1, 5, 9]);
        // Sorted by row id, carrying the right gradient.
        assert_eq!(c.grads().row(0), &[0.2]);
        assert_eq!(c.grads().row(1), &[0.1]);
        assert_eq!(c.grads().row(2), &[0.3]);
    }

    #[test]
    fn coalesced_gradients_constructor_validates() {
        assert!(CoalescedGradients::new(vec![0, 1], Matrix::zeros(3, 1)).is_err());
        assert!(CoalescedGradients::new(vec![1, 0], Matrix::zeros(2, 1)).is_err());
        assert!(CoalescedGradients::new(vec![0, 0], Matrix::zeros(2, 1)).is_err());
        assert!(CoalescedGradients::new(vec![0, 1], Matrix::zeros(2, 1)).is_ok());
    }

    #[test]
    fn coalesce_sum_preserves_total_gradient_mass() {
        // Coalescing only regroups rows: the column sums are invariant.
        let index = fig2_index();
        let grads = Matrix::from_rows(&[&[1.5, -0.5], &[2.5, 0.25]]).unwrap();
        let expanded = gradient_expand(&grads, &index).unwrap();
        let c = gradient_expand_coalesce(&grads, &index).unwrap();
        let before = expanded.sum_rows();
        let after = c.grads().sum_rows();
        for (b, a) in before.iter().zip(after.iter()) {
            assert!((b - a).abs() < 1e-5);
        }
    }

    #[test]
    fn max_abs_diff_requires_same_rows() {
        let a = CoalescedGradients::new(vec![0, 2], Matrix::zeros(2, 1)).unwrap();
        let b = CoalescedGradients::new(vec![0, 3], Matrix::zeros(2, 1)).unwrap();
        assert!(a.max_abs_diff(&b).is_err());
        assert_eq!(a.max_abs_diff(&a).unwrap(), 0.0);
    }
}
