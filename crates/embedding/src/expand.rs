//! Gradient expand (Fig. 2b, step 1): the dual of tensor reduce.
//!
//! During forward propagation, output slot `dst` was the sum of every
//! gathered row mapped to it; by the chain rule each of those lookups
//! receives the *same* upstream gradient. Expansion therefore replicates
//! gradient row `dst[i]` into expanded row `i`, producing one gradient row
//! per `(src, dst)` pair.

use crate::error::EmbeddingError;
use crate::index::IndexArray;
use tcast_tensor::Matrix;

/// Expands the backpropagated gradients (`num_outputs x dim`) into one row
/// per lookup (`index.len() x dim`), in pair order.
///
/// # Errors
///
/// Returns [`EmbeddingError::LengthMismatch`] if `grads.rows()` does not
/// equal `index.num_outputs()`.
///
/// ```
/// use tcast_embedding::{IndexArray, gradient_expand};
/// use tcast_tensor::Matrix;
///
/// # fn main() -> Result<(), tcast_embedding::EmbeddingError> {
/// // Fig. 2b: G[0] expands to 3 copies, G[1] to 2 copies.
/// let index = IndexArray::from_samples(&[vec![1, 2, 4], vec![0, 2]])?;
/// let grads = Matrix::from_rows(&[&[1.0], &[2.0]]).unwrap();
/// let expanded = gradient_expand(&grads, &index)?;
/// assert_eq!(expanded.as_slice(), &[1.0, 1.0, 1.0, 2.0, 2.0]);
/// # Ok(())
/// # }
/// ```
pub fn gradient_expand(grads: &Matrix, index: &IndexArray) -> Result<Matrix, EmbeddingError> {
    let mut out = Matrix::default();
    gradient_expand_into(grads, index, &mut out)?;
    Ok(out)
}

/// [`gradient_expand`] into a caller-owned scratch matrix, reusing its
/// allocation whenever the capacity suffices — the baseline backward's
/// `n x D` intermediate still gets *materialized* every step (that cost
/// is the paper's subject), but a steady-state training step no longer
/// re-allocates it.
///
/// Every output row is overwritten, so stale scratch contents never leak.
///
/// # Errors
///
/// Returns [`EmbeddingError::LengthMismatch`] if `grads.rows()` does not
/// equal `index.num_outputs()`.
pub fn gradient_expand_into(
    grads: &Matrix,
    index: &IndexArray,
    out: &mut Matrix,
) -> Result<(), EmbeddingError> {
    if grads.rows() != index.num_outputs() {
        return Err(EmbeddingError::LengthMismatch {
            expected: index.num_outputs(),
            found: grads.rows(),
        });
    }
    let dim = grads.cols();
    out.zero_into(index.len(), dim);
    for (i, (_, dst)) in index.iter().enumerate() {
        out.row_mut(i).copy_from_slice(grads.row(dst as usize));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expand_replicates_per_lookup() {
        let index = IndexArray::from_samples(&[vec![1, 2, 4], vec![0, 2]]).unwrap();
        let grads = Matrix::from_rows(&[&[1.0, -1.0], &[2.0, -2.0]]).unwrap();
        let e = gradient_expand(&grads, &index).unwrap();
        assert_eq!(e.shape(), (5, 2));
        assert_eq!(e.row(0), &[1.0, -1.0]);
        assert_eq!(e.row(1), &[1.0, -1.0]);
        assert_eq!(e.row(2), &[1.0, -1.0]);
        assert_eq!(e.row(3), &[2.0, -2.0]);
        assert_eq!(e.row(4), &[2.0, -2.0]);
    }

    #[test]
    fn expand_size_is_pooling_factor_times_batch() {
        // The paper's Fig. 5b setup: 10 gathers/table means the expanded
        // tensor is exactly 10x the backpropagated one.
        let samples: Vec<Vec<u32>> = (0..8).map(|i| vec![i; 10]).collect();
        let index = IndexArray::from_samples(&samples).unwrap();
        let grads = Matrix::zeros(8, 4);
        let e = gradient_expand(&grads, &index).unwrap();
        assert_eq!(e.rows(), 80);
    }

    #[test]
    fn expand_into_reuses_scratch_and_matches() {
        let index = IndexArray::from_samples(&[vec![1, 2, 4], vec![0, 2]]).unwrap();
        let grads = Matrix::from_rows(&[&[1.0, -1.0], &[2.0, -2.0]]).unwrap();
        // Dirty, over-sized scratch: the refill must fully overwrite.
        let mut scratch = Matrix::filled(9, 3, f32::NAN);
        gradient_expand_into(&grads, &index, &mut scratch).unwrap();
        assert_eq!(scratch, gradient_expand(&grads, &index).unwrap());
    }

    #[test]
    fn expand_validates_gradient_rows() {
        let index = IndexArray::from_samples(&[vec![0], vec![1]]).unwrap();
        let wrong = Matrix::zeros(3, 4);
        assert!(matches!(
            gradient_expand(&wrong, &index),
            Err(EmbeddingError::LengthMismatch {
                expected: 2,
                found: 3
            })
        ));
    }

    #[test]
    fn expand_is_dual_of_reduce() {
        // <expand(g), x> == <g, reduce(x)> for all x: adjointness of the
        // linear maps, checked on a small instance. `reduce` sums the
        // per-lookup rows of `x` into their output rows.
        let index = IndexArray::from_samples(&[vec![0, 1], vec![2]]).unwrap();
        let g = Matrix::from_rows(&[&[0.5, 1.5], &[-2.0, 0.25]]).unwrap();
        let x = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]).unwrap();
        let mut reduced = Matrix::zeros(index.num_outputs(), x.cols());
        for (i, (_, dst)) in index.iter().enumerate() {
            for (acc, &v) in reduced.row_mut(dst as usize).iter_mut().zip(x.row(i)) {
                *acc += v;
            }
        }
        let lhs = gradient_expand(&g, &index)
            .unwrap()
            .hadamard(&x)
            .unwrap()
            .sum();
        let rhs = g.hadamard(&reduced).unwrap().sum();
        assert!((lhs - rhs).abs() < 1e-5);
    }
}
