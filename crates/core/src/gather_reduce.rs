//! Algorithm 3: the T.Casted gradient gather-reduce kernel.
//!
//! With the casted index array in hand, the whole baseline backward
//! pipeline (expand → sort → accumulate) collapses into the single fused
//! loop of the paper's Algorithm 3:
//!
//! ```text
//! for i in 0..n {
//!     coal_grad[dst[i]] += grad[src[i]]
//! }
//! ```
//!
//! No `n x D` expanded intermediate is materialized and no sort runs on
//! the backward critical path — the two properties that cut memory
//! intensity by ~2x (Section IV-A) and unify backward with the forward
//! gather-reduce primitive (Section IV-C).

use crate::casted_index::CastedIndexArray;
use crate::casting::tensor_casting;
use tcast_embedding::{
    accumulate_rows, CoalescedGradients, CoalescedScratch, EmbeddingError, IndexArray,
};
use tcast_pool::Exec;
use tcast_tensor::Matrix;

/// The fused casted gather-reduce (Algorithm 3's `GatherReduce`): gathers
/// row `gather_src[i]` of the `B x D` gradient table and reduces it into
/// coalesced row `reduce_dst[i]`. Allocating form of
/// [`casted_gather_reduce_into`].
///
/// Returns the same [`CoalescedGradients`] the baseline
/// `gradient_expand_coalesce` produces.
///
/// # Errors
///
/// Returns [`EmbeddingError::LengthMismatch`] if `grads.rows()` differs
/// from `casted.num_gradient_rows()`.
pub fn casted_gather_reduce(
    grads: &Matrix,
    casted: &CastedIndexArray,
) -> Result<CoalescedGradients, EmbeddingError> {
    let mut out = CoalescedScratch::default();
    casted_gather_reduce_into(grads, casted, &mut out, Exec::Serial)?;
    CoalescedGradients::new(out.rows, out.grads)
}

/// [`casted_gather_reduce`] writing into reusable buffers, serially or on
/// a pool ([`Exec`]).
///
/// This *is* the forward primitive: [`accumulate_rows`] — the kernel
/// behind `gather_reduce_into` — run over the gradient table instead of
/// the embedding table (Section IV-C's "same datapath"). Pooled execution
/// bands the coalesced rows, the same structure the NMP cores exploit per
/// rank; per output row the accumulation order is the serial one, so
/// results are bit-identical for any `Exec`.
///
/// # Errors
///
/// Returns [`EmbeddingError::LengthMismatch`] if `grads.rows()` differs
/// from `casted.num_gradient_rows()`.
pub fn casted_gather_reduce_into(
    grads: &Matrix,
    casted: &CastedIndexArray,
    out: &mut CoalescedScratch,
    exec: Exec<'_>,
) -> Result<(), EmbeddingError> {
    if grads.rows() != casted.num_gradient_rows() {
        return Err(EmbeddingError::LengthMismatch {
            expected: casted.num_gradient_rows(),
            found: grads.rows(),
        });
    }
    out.rows.clear();
    out.rows.extend_from_slice(casted.unique_rows());
    out.grads.zero_into(casted.num_unique(), grads.cols());
    accumulate_rows(
        grads.as_slice(),
        casted.gather_src(),
        casted.reduce_dst(),
        &mut out.grads,
        exec,
    );
    Ok(())
}

/// Convenience composition (Algorithm 3 top-level,
/// `T.CASTED_GRAD_GATHER_REDUCE`): run the casting stage then the fused
/// kernel.
///
/// In the real runtime the casting stage is precomputed during forward
/// propagation ([`crate::CastingPipeline`]); this synchronous form exists
/// for tests and for modeling the *exposed*-casting ablation.
///
/// # Errors
///
/// Returns [`EmbeddingError::LengthMismatch`] if `grads.rows()` differs
/// from `index.num_outputs()`.
pub fn casted_backward(
    grads: &Matrix,
    index: &IndexArray,
) -> Result<CoalescedGradients, EmbeddingError> {
    let casted = tensor_casting(index);
    casted_gather_reduce(grads, &casted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcast_embedding::gradient_expand_coalesce;
    use tcast_tensor::SplitMix64;

    fn fig_index() -> IndexArray {
        IndexArray::from_samples(&[vec![1, 2, 4], vec![0, 2]]).unwrap()
    }

    #[test]
    fn fig7_example() {
        let grads = Matrix::from_rows(&[&[1.0, 10.0], &[2.0, 20.0]]).unwrap();
        let c = casted_backward(&grads, &fig_index()).unwrap();
        assert_eq!(c.rows(), &[0, 1, 2, 4]);
        assert_eq!(c.grads().row(0), &[2.0, 20.0]); // G[1] -> E[0]
        assert_eq!(c.grads().row(1), &[1.0, 10.0]); // G[0] -> E[1]
        assert_eq!(c.grads().row(2), &[3.0, 30.0]); // G[0]+G[1] -> E[2]
        assert_eq!(c.grads().row(3), &[1.0, 10.0]); // G[0] -> E[4]
    }

    #[test]
    fn equals_baseline_exactly_on_example() {
        let grads = Matrix::from_rows(&[&[0.25, -1.5], &[3.5, 0.125]]).unwrap();
        let baseline = gradient_expand_coalesce(&grads, &fig_index()).unwrap();
        let casted = casted_backward(&grads, &fig_index()).unwrap();
        assert_eq!(baseline.rows(), casted.rows());
        // Bitwise identical: same accumulation order.
        assert_eq!(baseline.grads().as_slice(), casted.grads().as_slice());
    }

    #[test]
    fn equals_baseline_on_random_workloads() {
        let mut rng = SplitMix64::new(99);
        for trial in 0..20 {
            let batch = 1 + (rng.next_below(64) as usize);
            let pooling = 1 + (rng.next_below(8) as usize);
            let table_rows = 1 + rng.next_below(100);
            let dim = 1 + (rng.next_below(16) as usize);
            let samples: Vec<Vec<u32>> = (0..batch)
                .map(|_| {
                    (0..pooling)
                        .map(|_| rng.next_below(table_rows) as u32)
                        .collect()
                })
                .collect();
            let index = IndexArray::from_samples(&samples).unwrap();
            let mut grads = Matrix::zeros(batch, dim);
            for v in grads.as_mut_slice() {
                *v = rng.next_range(-2.0, 2.0);
            }
            let baseline = gradient_expand_coalesce(&grads, &index).unwrap();
            let casted = casted_backward(&grads, &index).unwrap();
            assert_eq!(baseline.rows(), casted.rows(), "trial {trial}");
            assert_eq!(
                baseline.grads().as_slice(),
                casted.grads().as_slice(),
                "trial {trial}: gradients differ"
            );
        }
    }

    #[test]
    fn rejects_wrong_gradient_rows() {
        let casted = tensor_casting(&fig_index());
        let wrong = Matrix::zeros(3, 2);
        assert!(casted_gather_reduce(&wrong, &casted).is_err());
    }

    #[test]
    fn empty_workload() {
        let index = IndexArray::from_pairs(vec![], vec![], 0).unwrap();
        let casted = tensor_casting(&index);
        let grads = Matrix::zeros(0, 4);
        let c = casted_gather_reduce(&grads, &casted).unwrap();
        assert!(c.is_empty());
    }
}
