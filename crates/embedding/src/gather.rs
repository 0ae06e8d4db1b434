//! The forward-propagation primitive: the fused tensor gather-reduce
//! (Fig. 2a of the paper).

use crate::error::EmbeddingError;
use crate::index::IndexArray;
use crate::table::EmbeddingTable;
use tcast_pool::Exec;
use tcast_tensor::simd::{add_assign, prefetch, KernelDispatch, PREFETCH_WINDOW};
use tcast_tensor::Matrix;

/// Fused tensor gather-reduce: for every `(src, dst)` pair, accumulate
/// table row `src` into output row `dst`.
///
/// This is the paper's key forward primitive. As the Fig. 2 caption notes,
/// gather and reduce are implemented "as a fused kernel to save memory
/// bandwidth": each embedding row is read once and reduced in place into
/// the output, with no `n x dim` intermediate.
///
/// Returns a `num_outputs x dim` matrix of pooled embeddings.
///
/// # Errors
///
/// Returns [`EmbeddingError::SrcOutOfBounds`] if any `src` exceeds the
/// table.
///
/// ```
/// use tcast_embedding::{EmbeddingTable, IndexArray, gather_reduce};
///
/// # fn main() -> Result<(), tcast_embedding::EmbeddingError> {
/// let table = EmbeddingTable::from_vec(3, 2, vec![1.0, 1.0, 2.0, 2.0, 4.0, 4.0])?;
/// let index = IndexArray::from_samples(&[vec![0, 2], vec![1]])?;
/// let pooled = gather_reduce(&table, &index)?;
/// assert_eq!(pooled.row(0), &[5.0, 5.0]); // rows 0 + 2
/// assert_eq!(pooled.row(1), &[2.0, 2.0]); // row 1
/// # Ok(())
/// # }
/// ```
pub fn gather_reduce(table: &EmbeddingTable, index: &IndexArray) -> Result<Matrix, EmbeddingError> {
    let mut out = Matrix::default();
    gather_reduce_into(table, index, &mut out, Exec::Serial)?;
    Ok(out)
}

/// [`gather_reduce`] writing into `out` (reshaped in place, reusing its
/// allocation), on the calling thread: each output row accumulates its
/// lookups in index order.
///
/// `_exec` is ignored: it stays only so that callers written against the
/// pooled gather this once had keep building. No embedding kernel runs on
/// a pool.
///
/// # Errors
///
/// Returns [`EmbeddingError::SrcOutOfBounds`] if any `src` exceeds the
/// table.
pub fn gather_reduce_into(
    table: &EmbeddingTable,
    index: &IndexArray,
    out: &mut Matrix,
    _exec: Exec<'_>,
) -> Result<(), EmbeddingError> {
    index.validate_against_rows(table.rows())?;
    out.zero_into(index.num_outputs(), table.dim());
    accumulate_rows(table.as_slice(), index.src(), index.dst(), out, 0, 0);
    Ok(())
}

/// The tensor gather-reduce datapath over any row-major source:
/// `out[first_row + dst[i] - first_dst] += rows[src[i]]` for every lookup
/// `i`, in lookup order, where `rows` holds vectors of width `out.cols()`.
/// Forward propagation runs it over an embedding table
/// ([`gather_reduce_into`]); the casted backward runs it over the gradient
/// table (`tcast-core`'s `casted_gather_reduce_into`) — one kernel, which
/// is the paper's point. Both pass `first_row` and `first_dst` 0; the
/// serve engine pools each query of a fused batch into the query's own
/// window of a band's rows, and a query cut between two bands as two
/// runs of lookups, the second starting at output `first_dst`.
///
/// `out` must already be shaped and hold the values to accumulate onto
/// (zeros for a plain gather-reduce).
///
/// # Panics
///
/// Panics if `src` and `dst` differ in length, a `src` row lies outside
/// `rows`, a `dst` lies under `first_dst`, or `first_row + dst[i] -
/// first_dst` lies outside `out`.
pub fn accumulate_rows(
    rows: &[f32],
    src: &[u32],
    dst: &[u32],
    out: &mut Matrix,
    first_row: usize,
    first_dst: usize,
) {
    assert_eq!(src.len(), dst.len(), "one dst per src");
    let (kernel, dim) = (tcast_tensor::simd::dispatch(), out.cols());
    let window = &mut out.as_mut_slice()[first_row * dim..];
    accumulate_block(kernel, rows, dim, src, dst, first_dst, window);
}

/// The one accumulate loop: `block[dst[i] - base] += rows[src[i]]` for
/// every lookup — `block` holds output rows `base..` and every `dst` falls
/// inside it — with the rows [`PREFETCH_WINDOW`] lookups ahead prefetched
/// under the current add. The tier is chosen here, once a call; the
/// scalar loop is the oracle and the AVX2 one adds the same rows to each
/// lane in the same order.
pub(crate) fn accumulate_block(
    kernel: KernelDispatch,
    rows: &[f32],
    dim: usize,
    src: &[u32],
    dst: &[u32],
    base: usize,
    block: &mut [f32],
) {
    #[cfg(target_arch = "x86_64")]
    if kernel != KernelDispatch::Scalar && KernelDispatch::Avx2.supported() {
        // SAFETY: AVX2 support verified on the line above.
        unsafe { accumulate_block_avx2(rows, dim, src, dst, base, block) };
        return;
    }
    let _ = kernel;
    let row = |r: u32| &rows[r as usize * dim..(r as usize + 1) * dim];
    for (i, (&s, &d)) in src.iter().zip(dst.iter()).enumerate() {
        if let Some(&ahead) = src.get(i + PREFETCH_WINDOW) {
            prefetch(row(ahead));
        }
        add_assign(KernelDispatch::Scalar, out_row(block, dim, base, d), row(s));
    }
}

/// Output row `d` of a block that starts at output row `base`.
#[inline(always)]
fn out_row(block: &mut [f32], dim: usize, base: usize, d: u32) -> &mut [f32] {
    let local = d as usize - base;
    &mut block[local * dim..(local + 1) * dim]
}

/// [`accumulate_block`] on the AVX2 tier: the stream is walked a run of
/// equal `dst` at a time, and a run's output row is loaded and stored once
/// ([`crate::simd::x86::accumulate_run`]) instead of once per lookup.
///
/// # Safety
///
/// The CPU must support AVX2. `src` and `dst` must be equally long
/// (checked in debug builds); every row either side is a bounds-checked
/// `dim`-lane slice, so no load or store leaves its slice.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn accumulate_block_avx2(
    rows: &[f32],
    dim: usize,
    src: &[u32],
    dst: &[u32],
    base: usize,
    block: &mut [f32],
) {
    debug_assert_eq!(src.len(), dst.len());
    let mut i = 0;
    while i < dst.len() {
        let d = dst[i];
        let run = i..i + dst[i..].iter().take_while(|&&next| next == d).count();
        i = run.end;
        crate::simd::x86::accumulate_run(out_row(block, dim, base, d), rows, src, run);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig2_table() -> EmbeddingTable {
        // 6 rows, dim 2; row i = [i, 10i].
        let mut data = Vec::new();
        for i in 0..6 {
            data.push(i as f32);
            data.push(10.0 * i as f32);
        }
        EmbeddingTable::from_vec(6, 2, data).unwrap()
    }

    fn fig2_index() -> IndexArray {
        IndexArray::from_samples(&[vec![1, 2, 4], vec![0, 2]]).unwrap()
    }

    #[test]
    fn gather_reduce_matches_fig2a() {
        // Output 0 = E[1]+E[2]+E[4]; output 1 = E[0]+E[2].
        let pooled = gather_reduce(&fig2_table(), &fig2_index()).unwrap();
        assert_eq!(pooled.row(0), &[7.0, 70.0]);
        assert_eq!(pooled.row(1), &[2.0, 20.0]);
    }

    #[test]
    fn gather_reduce_rejects_out_of_bounds() {
        let idx = IndexArray::from_samples(&[vec![6]]).unwrap();
        assert!(matches!(
            gather_reduce(&fig2_table(), &idx),
            Err(EmbeddingError::SrcOutOfBounds { src: 6, rows: 6 })
        ));
    }

    #[test]
    fn duplicate_src_within_one_sample_counts_twice() {
        let table = fig2_table();
        let idx = IndexArray::from_samples(&[vec![3, 3]]).unwrap();
        let pooled = gather_reduce(&table, &idx).unwrap();
        assert_eq!(pooled.row(0), &[6.0, 60.0]);
    }

    #[test]
    fn empty_output_slot_reduces_to_zero() {
        let table = fig2_table();
        // Built via from_pairs to allow a slot with no lookups.
        let idx = IndexArray::from_pairs(vec![1], vec![0], 2).unwrap();
        let pooled = gather_reduce(&table, &idx).unwrap();
        assert_eq!(pooled.row(1), &[0.0, 0.0]);
    }
}
