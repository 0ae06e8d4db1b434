//! Functional-equivalence checking between the baseline and casted
//! backward paths (the validation step of Section V).

use crate::casting::tensor_casting;
use crate::gather_reduce::casted_gather_reduce;
use tcast_embedding::{gradient_expand_coalesce, EmbeddingError, IndexArray};
use tcast_tensor::Matrix;

/// Runs *both* backward paths — baseline expand-coalesce (Algorithm 1) and
/// casted gather-reduce (Algorithms 2+3) — on the same inputs and returns
/// the maximum absolute difference between the coalesced gradients.
///
/// A correct implementation returns exactly `0.0`: both paths accumulate
/// the same values in the same order.
///
/// # Errors
///
/// Returns an error if the two paths disagree on the *set* of touched
/// rows (a hard fault, not a tolerance issue) or on any shape.
///
/// ```
/// use tcast_core::verify_equivalence;
/// use tcast_embedding::IndexArray;
/// use tcast_tensor::Matrix;
///
/// # fn main() -> Result<(), tcast_embedding::EmbeddingError> {
/// let index = IndexArray::from_samples(&[vec![1, 2, 4], vec![0, 2]])?;
/// let grads = Matrix::from_rows(&[&[1.0], &[2.0]]).unwrap();
/// assert_eq!(verify_equivalence(&grads, &index)?, 0.0);
/// # Ok(())
/// # }
/// ```
pub fn verify_equivalence(grads: &Matrix, index: &IndexArray) -> Result<f32, EmbeddingError> {
    let baseline = gradient_expand_coalesce(grads, index)?;
    let casted = casted_gather_reduce(grads, &tensor_casting(index))?;
    baseline.max_abs_diff(&casted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn zero_difference_on_paper_example() {
        let index = IndexArray::from_samples(&[vec![1, 2, 4], vec![0, 2]]).unwrap();
        let grads = Matrix::from_rows(&[&[0.5, 1.5], &[2.5, -0.5]]).unwrap();
        assert_eq!(verify_equivalence(&grads, &index).unwrap(), 0.0);
    }

    proptest! {
        /// THE paper invariant, property-tested: for any index array and
        /// any gradient values, baseline expand-coalesce and casted
        /// gather-reduce produce identical coalesced gradients.
        #[test]
        fn casted_equals_baseline(
            samples in proptest::collection::vec(
                proptest::collection::vec(0u32..64, 1..8),
                1..32,
            ),
            dim in 1usize..12,
            scale in 0.01f32..10.0,
        ) {
            let index = IndexArray::from_samples(&samples).unwrap();
            let batch = samples.len();
            let mut grads = Matrix::zeros(batch, dim);
            for (i, v) in grads.as_mut_slice().iter_mut().enumerate() {
                // Deterministic but varied values, including negatives.
                *v = scale * (((i * 2654435761) % 1000) as f32 / 500.0 - 1.0);
            }
            let diff = verify_equivalence(&grads, &index).unwrap();
            prop_assert_eq!(diff, 0.0);
        }

        /// Coalescing is a linear operator: equivalence must also hold
        /// after scaling the gradients (checks no path normalizes).
        #[test]
        fn equivalence_is_scale_invariant(
            samples in proptest::collection::vec(
                proptest::collection::vec(0u32..32, 1..5),
                1..16,
            ),
        ) {
            let index = IndexArray::from_samples(&samples).unwrap();
            let grads = Matrix::filled(samples.len(), 4, 1.0);
            let scaled = grads.map(|v| v * -3.5);
            prop_assert_eq!(verify_equivalence(&grads, &index).unwrap(), 0.0);
            prop_assert_eq!(verify_equivalence(&scaled, &index).unwrap(), 0.0);
        }
    }
}
