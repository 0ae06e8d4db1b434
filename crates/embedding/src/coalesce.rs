//! Gradient coalescing (Fig. 2b step 2): the paper's Algorithm 1,
//! faithfully implemented as the two-step argsort + accumulate procedure
//! used by today's ML frameworks.
//!
//! Gradients whose lookups shared a `src` row must be *accumulated into a
//! single value* before the optimizer update (Section II-B explains why:
//! RMSprop/Adagrad-style optimizers consume one accumulated gradient `G_i`
//! per parameter per iteration).

use crate::error::EmbeddingError;
use crate::expand::gradient_expand;
use crate::index::IndexArray;
use crate::radix::{radix_sort_pairs, RadixScratch};
use tcast_pool::Exec;
use tcast_tensor::simd::{prefetch, PREFETCH_WINDOW};
use tcast_tensor::Matrix;

/// The output of gradient coalescing: one gradient row per *unique* `src`
/// id, paired with that id, sorted by id ascending.
///
/// This is the sparse `(indices, values)` gradient PyTorch/TensorFlow
/// produce for `EmbeddingBag`-style layers.
#[derive(Debug, Clone, PartialEq)]
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
/// `src` and accumulate rows sharing a `src`.
///
/// Step A is the `ArgSort(src)` of the paper (a stable sort-by-key of the
/// lookups' positions); Step B is the sequential accumulation over the
/// sorted order. Allocating form of [`gradient_coalesce_into`].
///
/// # Errors
///
/// Returns [`EmbeddingError::LengthMismatch`] if `expanded.rows()` differs
/// from `index.len()`.
pub fn gradient_coalesce(
    expanded: &Matrix,
    index: &IndexArray,
) -> Result<CoalescedGradients, EmbeddingError> {
    let mut scratch = CoalescedScratch::default();
    gradient_coalesce_into(expanded, index, &mut scratch, Exec::Serial)?;
    CoalescedGradients::new(scratch.rows, scratch.grads)
}

/// Reusable coalesced `(rows, grads)` output buffers — what either
/// backward path hands to the scatter: [`gradient_coalesce_into`]
/// (baseline) and `tcast-core`'s `casted_gather_reduce_into` (casted) both
/// fill one. Holding one per table across training steps is what makes the
/// backward allocation-free in steady state: every buffer retains its
/// capacity.
#[derive(Debug, Clone, Default)]
pub struct CoalescedScratch {
    /// Touched (unique, ascending) table rows — matches
    /// [`CoalescedGradients::rows`].
    pub rows: Vec<u32>,
    /// One accumulated gradient row per entry of `rows` — matches
    /// [`CoalescedGradients::grads`].
    pub grads: Matrix,
    /// Algorithm 1 Step A's argsort: the radix sort's buffers, which end
    /// up holding the `(src, position)` pairs in sorted order. Unused by
    /// the casted path, whose sort ran in the casting stage.
    sort: RadixScratch,
}

/// [`gradient_coalesce`] into caller-owned scratch, reusing every buffer
/// whose capacity suffices, serially or on a pool ([`Exec`]).
///
/// The argsort (Step A) runs on the calling thread as the stable radix
/// sort of `(src, position)` pairs ([`radix_sort_pairs`]) — the same sort
/// the casting stage runs, in linear time and through the scratch's
/// recycled buffers. Step B then splits at unique-`src` run boundaries:
/// each pool task owns a contiguous band of output rows and runs the
/// serial accumulation over that band's runs, so pooled == serial bit for
/// bit (serial is the one-band case of the same function).
/// This is the tuned, parallel coalesce the paper's Section V methodology
/// gives its baseline.
///
/// # Errors
///
/// Returns [`EmbeddingError::LengthMismatch`] if `expanded.rows()` differs
/// from `index.len()`.
pub fn gradient_coalesce_into(
    expanded: &Matrix,
    index: &IndexArray,
    scratch: &mut CoalescedScratch,
    exec: Exec<'_>,
) -> Result<(), EmbeddingError> {
    if expanded.rows() != index.len() {
        return Err(EmbeddingError::LengthMismatch {
            expected: index.len(),
            found: expanded.rows(),
        });
    }
    let dim = expanded.cols();
    let CoalescedScratch { rows, grads, sort } = scratch;

    // Step A: argsort the src array, as packed `(src, position)` keys.
    let keys = radix_sort_pairs(index.src(), 0..index.len() as u32, sort);

    // The unique rows are read off the sorted keys (unique_src_count()
    // would sort again into fresh buffers).
    rows.clear();
    for &key in keys.iter() {
        let src = (key >> 32) as u32;
        if rows.last() != Some(&src) {
            rows.push(src);
        }
    }
    let unique = rows.len();
    grads.zero_into(unique, dim);

    // Step B: accumulate coalescable gradients, one band of output rows
    // per task.
    let kernel = tcast_tensor::simd::dispatch();
    let bands = exec.threads().min(unique);
    match exec.pool() {
        Some(pool) if bands > 1 && dim > 0 => {
            let rows = &*rows;
            let per = unique.div_ceil(bands);
            // Where output row `u`'s run starts in the sorted keys.
            let run_start = |u: usize| match rows.get(u) {
                Some(&src) => keys.partition_point(|&key| (key >> 32) < src as u64),
                None => keys.len(),
            };
            pool.scope(|scope| {
                for (b, band) in grads.as_mut_slice().chunks_mut(per * dim).enumerate() {
                    let runs = &keys[run_start(b * per)..run_start((b + 1) * per)];
                    scope.spawn(move || accumulate_runs(kernel, expanded, runs, dim, band));
                }
            });
        }
        _ => accumulate_runs(kernel, expanded, keys, dim, grads.as_mut_slice()),
    }
    Ok(())
}

/// Algorithm 1 Step B over `keys` — sorted packed `(src, position)` keys
/// beginning at a run boundary — into `band`, one output row per distinct
/// `src`: the first gradient of a run is copied, the rest accumulate in
/// pair order.
fn accumulate_runs(
    kernel: tcast_tensor::KernelDispatch,
    expanded: &Matrix,
    keys: &[u64],
    dim: usize,
    band: &mut [f32],
) {
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
            band[out_i * dim..(out_i + 1) * dim].copy_from_slice(expanded.row(pos));
        } else {
            let acc = &mut band[out_i * dim..(out_i + 1) * dim];
            tcast_tensor::simd::add_assign(kernel, acc, expanded.row(pos));
        }
        prev = Some(curr);
    }
}

/// Baseline two-step backward path: expand then coalesce, returning the
/// coalesced gradients (what Fig. 2b computes before the scatter).
///
/// # Errors
///
/// Propagates errors from [`gradient_expand`] and [`gradient_coalesce`].
pub fn gradient_expand_coalesce(
    grads: &Matrix,
    index: &IndexArray,
) -> Result<CoalescedGradients, EmbeddingError> {
    let expanded = gradient_expand(grads, index)?;
    gradient_coalesce(&expanded, index)
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
        let fresh = gradient_coalesce(&expanded, &index).unwrap();
        let mut scratch = CoalescedScratch::default();
        // Two passes through the SAME scratch: the second starts dirty.
        for _ in 0..2 {
            gradient_coalesce_into(&expanded, &index, &mut scratch, Exec::Serial).unwrap();
            assert_eq!(scratch.rows.as_slice(), fresh.rows());
            assert_eq!(scratch.grads.as_slice(), fresh.grads().as_slice());
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
        let fresh = gradient_coalesce(&expanded, &index).unwrap();
        let mut scratch = CoalescedScratch::default();
        gradient_coalesce_into(&expanded, &index, &mut scratch, Exec::Serial).unwrap();
        assert_eq!(scratch.grads.as_slice(), fresh.grads().as_slice());
    }

    #[test]
    fn coalesce_validates_row_count() {
        let index = fig2_index();
        let wrong = Matrix::zeros(4, 1);
        assert!(gradient_coalesce(&wrong, &index).is_err());
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
        let c = gradient_coalesce(&expanded, &index).unwrap();
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
