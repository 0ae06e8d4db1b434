//! The fused embedding backward: casted gather-reduce and optimizer
//! scatter as one row-blocked pass over a table.
//!
//! The paper keeps the casted gather-reduce and the scatter as two
//! operators (Fig. 9b shows them back-to-back) because framework
//! optimizer APIs consume an explicit coalesced-gradient tensor. But once
//! both run on the same engine, nothing forces the whole `U x D` coalesced
//! gradient to be materialized between them: it can be produced a block of
//! rows at a time and consumed while the block is still in cache, which
//! saves one `U x D` write plus one `U x D` read of memory traffic. This
//! is that further-fused variant — a natural *extension* of the paper's
//! design (modelled by `tcast_repro::system::ablation` in the `repro/`
//! package) and what the trainer's casted mode runs.

use crate::casted_index::CastedIndexArray;
use tcast_embedding::{
    optim::RowOptimizer, scatter_apply_casted, BlockScratch, CastedBackwardTimings, EmbeddingError,
    EmbeddingTable,
};
use tcast_pool::Exec;
use tcast_tensor::Matrix;

/// Coalesced-gradient bytes one block holds. The block is written by the
/// gather-reduce and read back by the scatter, so it has to outlive one
/// pass through the table rows it updates in a 1-2 MB L2; 64 KB measured
/// the same on the repo benchmark, and a few hundred rows is already
/// enough to amortize a block's two binary searches and clock reads.
const BLOCK_BYTES: usize = 256 * 1024;

/// Runs one table's whole casted backward: for each block of coalesced
/// rows, gather-and-reduce its gradient rows out of the `B x D` `upstream`
/// gradient table (Algorithm 3's loop), then immediately apply the
/// optimizer update to those embedding-table rows.
///
/// `casted` is the table's casted index array as the trainer casts it
/// ahead of the backward. Serially or on a pool, the table and the optimizer state
/// end **bit-identical** to [`crate::casted_gather_reduce_into`] followed
/// by `tcast_embedding::scatter_apply_coalesced` — the same two loops run,
/// only the coalesced gradient between them is a block, not the whole
/// array.
///
/// Every check runs before the first table write, so on an error the table
/// and the optimizer state are exactly as they were.
///
/// # Errors
///
/// [`EmbeddingError::LengthMismatch`] if `upstream.rows()` differs from
/// `casted.num_gradient_rows()`; otherwise the scatter's errors
/// ([`EmbeddingError::DimMismatch`] on a gradient width other than the
/// table's, [`EmbeddingError::SrcOutOfBounds`] on a unique row outside the
/// table).
pub fn blocked_casted_backward(
    table: &mut EmbeddingTable,
    optimizer: &mut RowOptimizer,
    upstream: &Matrix,
    casted: &CastedIndexArray,
    scratch: &mut BlockScratch,
    exec: Exec<'_>,
) -> Result<CastedBackwardTimings, EmbeddingError> {
    if casted.num_gradient_rows() != upstream.rows() {
        return Err(EmbeddingError::LengthMismatch {
            expected: casted.num_gradient_rows(),
            found: upstream.rows(),
        });
    }
    let row_bytes = std::mem::size_of::<f32>() * table.dim();
    let block_rows = (BLOCK_BYTES / row_bytes.max(1)).max(1);
    scatter_apply_casted(
        table, optimizer, upstream, casted, block_rows, scratch, exec,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::casting::tensor_casting;
    use crate::gather_reduce::casted_gather_reduce;
    use tcast_embedding::{optim::UpdateRule, scatter_apply, IndexArray};
    use tcast_tensor::SplitMix64;

    fn workload(seed: u64) -> (EmbeddingTable, IndexArray, Matrix) {
        let mut rng = SplitMix64::new(seed);
        let table = EmbeddingTable::seeded(300, 8, seed);
        let samples: Vec<Vec<u32>> = (0..48)
            .map(|_| (0..5).map(|_| rng.next_below(300) as u32).collect())
            .collect();
        let index = IndexArray::from_samples(&samples).unwrap();
        let mut grads = Matrix::zeros(48, 8);
        for v in grads.as_mut_slice() {
            *v = rng.next_range(-1.0, 1.0);
        }
        (table, index, grads)
    }

    const ADAGRAD: UpdateRule = UpdateRule::Adagrad { lr: 0.1, eps: 1e-8 };

    fn fused(
        table: &mut EmbeddingTable,
        optimizer: &mut RowOptimizer,
        grads: &Matrix,
        casted: &CastedIndexArray,
    ) -> Result<CastedBackwardTimings, EmbeddingError> {
        blocked_casted_backward(
            table,
            optimizer,
            grads,
            casted,
            &mut BlockScratch::default(),
            Exec::Serial,
        )
    }

    fn state(optimizer: &RowOptimizer) -> Vec<u8> {
        let mut bytes = Vec::new();
        optimizer.save_state(&mut bytes);
        bytes
    }

    #[test]
    fn fused_equals_two_step_with_sgd() {
        let (table, index, grads) = workload(1);
        let casted = tensor_casting(&index);

        let mut two_step_table = table.clone();
        let coalesced = casted_gather_reduce(&grads, &casted).unwrap();
        scatter_apply(
            &mut two_step_table,
            &coalesced,
            &mut RowOptimizer::new(UpdateRule::Sgd { lr: 0.1 }),
        )
        .unwrap();

        let mut fused_table = table.clone();
        let mut opt = RowOptimizer::new(UpdateRule::Sgd { lr: 0.1 });
        fused(&mut fused_table, &mut opt, &grads, &casted).unwrap();

        assert_eq!(fused_table.max_abs_diff(&two_step_table).unwrap(), 0.0);
    }

    #[test]
    fn fused_equals_two_step_with_adagrad() {
        let (table, index, grads) = workload(2);
        let casted = tensor_casting(&index);

        // Two steps each, so the second runs on the first one's state.
        let mut two_step_table = table.clone();
        let mut two_step_opt = RowOptimizer::new(ADAGRAD);
        let coalesced = casted_gather_reduce(&grads, &casted).unwrap();
        for _ in 0..2 {
            scatter_apply(&mut two_step_table, &coalesced, &mut two_step_opt).unwrap();
        }

        let mut fused_table = table.clone();
        let mut opt = RowOptimizer::new(ADAGRAD);
        for _ in 0..2 {
            fused(&mut fused_table, &mut opt, &grads, &casted).unwrap();
        }

        assert_eq!(fused_table.max_abs_diff(&two_step_table).unwrap(), 0.0);
    }

    #[test]
    fn fused_validates_shapes() {
        let (mut table, index, grads) = workload(3);
        let casted = tensor_casting(&index);
        let mut opt = RowOptimizer::new(UpdateRule::Sgd { lr: 0.1 });
        let wrong_rows = Matrix::zeros(grads.rows() + 1, 8);
        assert!(matches!(
            fused(&mut table, &mut opt, &wrong_rows, &casted),
            Err(EmbeddingError::LengthMismatch {
                expected: 48,
                found: 49
            })
        ));
        let wrong_dim = Matrix::zeros(grads.rows(), 4);
        assert!(matches!(
            fused(&mut table, &mut opt, &wrong_dim, &casted),
            Err(EmbeddingError::DimMismatch {
                expected: 8,
                found: 4
            })
        ));
    }

    #[test]
    fn fused_rejects_rows_beyond_table() {
        let index = IndexArray::from_samples(&[vec![5]]).unwrap();
        let casted = tensor_casting(&index);
        let mut small_table = EmbeddingTable::zeros(5, 4);
        let grads = Matrix::zeros(1, 4);
        let mut opt = RowOptimizer::new(UpdateRule::Sgd { lr: 0.1 });
        assert!(matches!(
            fused(&mut small_table, &mut opt, &grads, &casted),
            Err(EmbeddingError::SrcOutOfBounds { src: 5, rows: 5 })
        ));
    }

    #[test]
    fn fused_on_empty_workload_is_noop() {
        let index = IndexArray::from_pairs(vec![], vec![], 0).unwrap();
        let casted = tensor_casting(&index);
        let mut table = EmbeddingTable::seeded(10, 4, 9);
        let before = table.clone();
        let grads = Matrix::zeros(0, 4);
        let mut opt = RowOptimizer::new(UpdateRule::Sgd { lr: 0.5 });
        fused(&mut table, &mut opt, &grads, &casted).unwrap();
        assert_eq!(table.max_abs_diff(&before).unwrap(), 0.0);
    }

    /// The blocked loop interleaves accumulating and writing, so a fault
    /// found half-way would leave a half-updated table: every fault must
    /// be found before the first write. Each bad input sits at the *end*
    /// of the array, in the last band, behind rows that would already have
    /// been applied; the table and the (stateful) optimizer must come back
    /// bit for bit, on every `Exec`.
    #[test]
    fn a_rejected_backward_leaves_table_and_optimizer_state_untouched() {
        let pool = tcast_pool::Pool::new(3);
        let (table, index, grads) = workload(4);
        let good = tensor_casting(&index);
        // A unique row past the table.
        let mut beyond = good.unique_rows().to_vec();
        *beyond.last_mut().unwrap() = 300;
        let out_of_range = CastedIndexArray::new(
            good.gather_src().to_vec(),
            good.reduce_dst().to_vec(),
            beyond,
            good.num_gradient_rows(),
        )
        .unwrap();
        // An array cast for a different batch size.
        let other_batch = CastedIndexArray::new(
            good.gather_src().to_vec(),
            good.reduce_dst().to_vec(),
            good.unique_rows().to_vec(),
            good.num_gradient_rows() + 1,
        )
        .unwrap();
        let narrow = Matrix::zeros(grads.rows(), 4);

        type Check = fn(&EmbeddingError) -> bool;
        let cases: [(&str, &CastedIndexArray, &Matrix, Check); 3] = [
            ("unique row out of range", &out_of_range, &grads, |e| {
                matches!(
                    e,
                    EmbeddingError::SrcOutOfBounds {
                        src: 300,
                        rows: 300
                    }
                )
            }),
            ("upstream of another batch", &other_batch, &grads, |e| {
                matches!(
                    e,
                    EmbeddingError::LengthMismatch {
                        expected: 49,
                        found: 48
                    }
                )
            }),
            ("gradient of the wrong width", &good, &narrow, |e| {
                matches!(
                    e,
                    EmbeddingError::DimMismatch {
                        expected: 8,
                        found: 4
                    }
                )
            }),
        ];

        for exec in [Exec::Serial, Exec::pooled(&pool)] {
            let mut trained = table.clone();
            let mut opt = RowOptimizer::new(ADAGRAD);
            let mut scratch = BlockScratch::default();
            // One good step first: there is optimizer state to corrupt.
            blocked_casted_backward(&mut trained, &mut opt, &grads, &good, &mut scratch, exec)
                .unwrap();
            let table_before: Vec<u32> = trained.as_slice().iter().map(|v| v.to_bits()).collect();
            let state_before = state(&opt);
            for (what, casted, upstream, expected) in &cases {
                let err = blocked_casted_backward(
                    &mut trained,
                    &mut opt,
                    upstream,
                    casted,
                    &mut scratch,
                    exec,
                )
                .expect_err(what);
                assert!(expected(&err), "{what} under {exec:?}: {err:?}");
                let table_after: Vec<u32> =
                    trained.as_slice().iter().map(|v| v.to_bits()).collect();
                assert_eq!(table_after, table_before, "{what} under {exec:?}: table");
                assert_eq!(state(&opt), state_before, "{what} under {exec:?}: state");
            }
        }
    }
}
