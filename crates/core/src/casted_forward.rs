//! The casted *forward* gather-reduce: pooling embeddings through a
//! casted index array.
//!
//! Algorithm 2's output is usually consumed by the backward pass, but the
//! casted array equally describes the forward pooling `out[dst] +=
//! T[src]` — read it in the other direction: for lookup `i` (in
//! ascending-`src` order), add embedding row
//! `unique_rows[reduce_dst[i]]` into output `gather_src[i]`. Because
//! `reduce_dst` groups equal `src` lookups into contiguous runs, each
//! *unique* embedding row is fetched **once per batch** and accumulated
//! into every output that looks it up — a deduplicated gather. Under a
//! Zipf-skewed lookup distribution (every real recommendation workload,
//! Fig. 5) this reads `U << n` table rows where the plain
//! [`gather_reduce`] reads `n`.
//!
//! No production path runs it: it reads fewer rows, but it has to cast
//! first, and even on a memoized cast it measured slower than the plain
//! lookup-order gather that training and serving both run. It stays
//! because the repo benchmark times it as a layer.
//!
//! Numerically, each output row accumulates its lookups in
//! ascending-`src` (tie: original pair) order — a *fixed, deterministic*
//! order that is independent of how index arrays are batched together.
//! It differs from [`gather_reduce`]'s pair-order accumulation only by
//! float reassociation.
//!
//! [`gather_reduce`]: tcast_embedding::gather_reduce

use crate::casted_index::CastedIndexArray;
use tcast_embedding::{EmbeddingError, EmbeddingTable};
use tcast_tensor::simd::{prefetch, PREFETCH_WINDOW};
use tcast_tensor::Matrix;

/// Pools embeddings through a casted index array: output row
/// `row_offset + gather_src[i]` accumulates table row
/// `unique_rows[reduce_dst[i]]`, with each unique table row fetched once.
///
/// `out` must already have at least `row_offset +
/// casted.num_gradient_rows()` rows of width `table.dim()`; the touched
/// rows are *accumulated into*, not zeroed (callers zero the batch region
/// once, then pool many index arrays into disjoint row windows).
///
/// # Errors
///
/// Returns [`EmbeddingError::SrcOutOfBounds`] if a unique row exceeds the
/// table, [`EmbeddingError::DimMismatch`] if `out` is narrower than the
/// table, or [`EmbeddingError::LengthMismatch`] if `out` has fewer rows
/// than `row_offset` plus the casted array's output count.
pub fn casted_embedding_forward_into(
    table: &EmbeddingTable,
    casted: &CastedIndexArray,
    out: &mut Matrix,
    row_offset: usize,
) -> Result<(), EmbeddingError> {
    if out.cols() != table.dim() {
        return Err(EmbeddingError::DimMismatch {
            expected: table.dim(),
            found: out.cols(),
        });
    }
    let needed = row_offset + casted.num_gradient_rows();
    if out.rows() < needed {
        return Err(EmbeddingError::LengthMismatch {
            expected: needed,
            found: out.rows(),
        });
    }
    if let Some(&bad) = casted
        .unique_rows()
        .iter()
        .find(|&&r| r as usize >= table.rows())
    {
        return Err(EmbeddingError::SrcOutOfBounds {
            src: bad,
            rows: table.rows(),
        });
    }

    let gather_src = casted.gather_src();
    let reduce_dst = casted.reduce_dst();
    let n = gather_src.len();
    let kernel = tcast_tensor::simd::dispatch();
    let unique_rows = casted.unique_rows();
    let mut i = 0usize;
    for (u, &row) in unique_rows.iter().enumerate() {
        if let Some(&ahead) = unique_rows.get(u + PREFETCH_WINDOW) {
            prefetch(table.row(ahead as usize));
        }
        let trow = table.row(row as usize);
        // reduce_dst is non-decreasing: the outputs looking up `row` are
        // the contiguous run with reduce_dst == u.
        while i < n && reduce_dst[i] as usize == u {
            let acc = out.row_mut(row_offset + gather_src[i] as usize);
            tcast_tensor::simd::add_assign(kernel, acc, trow);
            i += 1;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::casting::tensor_casting;
    use tcast_embedding::{gather_reduce, IndexArray};
    use tcast_tensor::SplitMix64;

    /// A table whose entries are small integers: f32 sums of these are
    /// exact in any order, so reassociation cannot hide a wrong result.
    fn integer_table(rows: usize, dim: usize, seed: u64) -> EmbeddingTable {
        let mut rng = SplitMix64::new(seed);
        let data = (0..rows * dim)
            .map(|_| rng.next_below(64) as f32 - 32.0)
            .collect();
        EmbeddingTable::from_vec(rows, dim, data).unwrap()
    }

    fn random_index(rng: &mut SplitMix64, batch: usize, pooling: usize, rows: u64) -> IndexArray {
        let samples: Vec<Vec<u32>> = (0..batch)
            .map(|_| (0..pooling).map(|_| rng.next_below(rows) as u32).collect())
            .collect();
        IndexArray::from_samples(&samples).unwrap()
    }

    /// The `B x dim` pooled matrix of one index array, through its cast.
    fn pooled(table: &EmbeddingTable, index: &IndexArray) -> Matrix {
        let casted = tensor_casting(index);
        let mut out = Matrix::zeros(casted.num_gradient_rows(), table.dim());
        casted_embedding_forward_into(table, &casted, &mut out, 0).unwrap();
        out
    }

    #[test]
    fn matches_gather_reduce_exactly_on_integer_tables() {
        let mut rng = SplitMix64::new(7);
        for (batch, pooling, rows) in [(1, 1, 5), (4, 3, 10), (32, 8, 50), (17, 5, 9)] {
            let table = integer_table(rows as usize, 12, 3);
            let index = random_index(&mut rng, batch, pooling, rows);
            let plain = gather_reduce(&table, &index).unwrap();
            let casted = pooled(&table, &index);
            assert_eq!(
                plain.as_slice(),
                casted.as_slice(),
                "b={batch} p={pooling} r={rows}"
            );
        }
    }

    #[test]
    fn close_to_gather_reduce_on_float_tables() {
        let table = EmbeddingTable::seeded(100, 16, 5);
        let mut rng = SplitMix64::new(11);
        let index = random_index(&mut rng, 24, 10, 100);
        let plain = gather_reduce(&table, &index).unwrap();
        let casted = pooled(&table, &index);
        // Only reassociation separates the two paths.
        assert!(plain.max_abs_diff(&casted).unwrap() < 1e-4);
    }

    #[test]
    fn row_offset_writes_a_window_of_a_fused_batch() {
        let table = integer_table(20, 8, 9);
        let mut rng = SplitMix64::new(13);
        let a = random_index(&mut rng, 3, 4, 20);
        let b = random_index(&mut rng, 5, 4, 20);
        // Fused: query A at rows 0..3, query B at rows 3..8.
        let mut fused = Matrix::zeros(8, 8);
        casted_embedding_forward_into(&table, &tensor_casting(&a), &mut fused, 0).unwrap();
        casted_embedding_forward_into(&table, &tensor_casting(&b), &mut fused, 3).unwrap();
        let solo_a = pooled(&table, &a);
        let solo_b = pooled(&table, &b);
        for r in 0..3 {
            assert_eq!(fused.row(r), solo_a.row(r));
        }
        for r in 0..5 {
            assert_eq!(fused.row(3 + r), solo_b.row(r));
        }
    }

    #[test]
    fn accumulation_order_is_batch_composition_independent() {
        // The serving invariant at kernel level: an output row's value is
        // bit-identical whether its query is casted alone or fused with
        // other queries into one index array (same ascending-src order
        // per output either way).
        let table = EmbeddingTable::seeded(50, 8, 21);
        let mut rng = SplitMix64::new(17);
        let a = random_index(&mut rng, 4, 6, 50);
        let b = random_index(&mut rng, 3, 6, 50);
        // Fuse a and b into one index array with b's outputs offset by 4.
        let src: Vec<u32> = a.src().iter().chain(b.src().iter()).copied().collect();
        let dst: Vec<u32> = a
            .dst()
            .iter()
            .copied()
            .chain(b.dst().iter().map(|&d| d + 4))
            .collect();
        let fused_index = IndexArray::from_pairs(src, dst, 7).unwrap();
        let fused = pooled(&table, &fused_index);
        let solo_a = pooled(&table, &a);
        let solo_b = pooled(&table, &b);
        for r in 0..4 {
            assert_eq!(fused.row(r), solo_a.row(r), "query A row {r}");
        }
        for r in 0..3 {
            assert_eq!(fused.row(4 + r), solo_b.row(r), "query B row {r}");
        }
    }

    #[test]
    fn empty_index_is_a_noop() {
        let table = integer_table(5, 4, 1);
        let index = IndexArray::from_pairs(vec![], vec![], 3).unwrap();
        let out = pooled(&table, &index);
        assert_eq!(out.shape(), (3, 4));
        assert!(out.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn rejects_narrow_output() {
        let table = integer_table(5, 4, 1);
        let index = IndexArray::from_pairs(vec![1], vec![0], 1).unwrap();
        let mut out = Matrix::zeros(1, 3);
        assert!(matches!(
            casted_embedding_forward_into(&table, &tensor_casting(&index), &mut out, 0),
            Err(EmbeddingError::DimMismatch { .. })
        ));
    }

    #[test]
    fn rejects_short_output() {
        let table = integer_table(5, 4, 1);
        let index = IndexArray::from_pairs(vec![1, 2], vec![0, 1], 2).unwrap();
        let mut out = Matrix::zeros(2, 4);
        assert!(matches!(
            casted_embedding_forward_into(&table, &tensor_casting(&index), &mut out, 1),
            Err(EmbeddingError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn rejects_out_of_range_rows() {
        let table = integer_table(2, 4, 1);
        let index = IndexArray::from_pairs(vec![4], vec![0], 1).unwrap();
        let mut out = Matrix::zeros(1, 4);
        assert!(matches!(
            casted_embedding_forward_into(&table, &tensor_casting(&index), &mut out, 0),
            Err(EmbeddingError::SrcOutOfBounds { .. })
        ));
    }
}
