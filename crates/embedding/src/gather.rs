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
/// allocation), serially or band-partitioned on a pool ([`Exec`]).
/// Bit-identical to the serial kernel either way: each output row
/// accumulates its lookups in index order.
///
/// # Errors
///
/// Returns [`EmbeddingError::SrcOutOfBounds`] if any `src` exceeds the
/// table.
pub fn gather_reduce_into(
    table: &EmbeddingTable,
    index: &IndexArray,
    out: &mut Matrix,
    exec: Exec<'_>,
) -> Result<(), EmbeddingError> {
    index.validate_against_rows(table.rows())?;
    out.zero_into(index.num_outputs(), table.dim());
    accumulate_rows(table.as_slice(), index.src(), index.dst(), out, exec);
    Ok(())
}

/// The tensor gather-reduce datapath over any row-major source:
/// `out[dst[i]] += rows[src[i]]` for every lookup `i`, in lookup order,
/// where `rows` holds vectors of width `out.cols()`. Forward propagation
/// runs it over an embedding table ([`gather_reduce_into`]); the casted
/// backward runs it over the gradient table (`tcast-core`'s
/// `casted_gather_reduce_into`) — one kernel, which is the paper's point.
///
/// Under a pooled [`Exec`] the output rows split into contiguous bands,
/// one task each; every band runs the serial kernel over the whole lookup
/// stream and keeps the pairs whose `dst` it owns, so no two tasks write
/// the same output row and each output row still accumulates in lookup
/// order. Serial is the one-band case of the same function, which makes
/// pooled == serial bit for bit by construction.
///
/// `out` must already be shaped and hold the values to accumulate onto
/// (zeros for a plain gather-reduce).
///
/// # Panics
///
/// Panics if `src` and `dst` differ in length or a `src` row lies outside
/// `rows`. Every `dst` must be an output row of `out` (both index-array
/// types guarantee it; checked in debug builds).
pub fn accumulate_rows(rows: &[f32], src: &[u32], dst: &[u32], out: &mut Matrix, exec: Exec<'_>) {
    assert_eq!(src.len(), dst.len(), "one dst per src");
    let (outputs, dim) = (out.rows(), out.cols());
    debug_assert!(dst.iter().all(|&d| (d as usize) < outputs));
    let kernel = tcast_tensor::simd::dispatch();
    let bands = exec.threads().min(outputs);
    match exec.pool() {
        Some(pool) if bands > 1 && dim > 0 => {
            let per = outputs.div_ceil(bands);
            pool.scope(|scope| {
                for (b, band) in out.as_mut_slice().chunks_mut(per * dim).enumerate() {
                    scope
                        .spawn(move || accumulate_band(kernel, rows, dim, src, dst, b * per, band));
                }
            });
        }
        _ => accumulate_band(kernel, rows, dim, src, dst, 0, out.as_mut_slice()),
    }
}

/// The one accumulate loop: `band[dst[i] - base] += rows[src[i]]` for the
/// lookups whose `dst` falls inside `band` (output rows `base..`), with
/// the rows [`PREFETCH_WINDOW`] lookups ahead prefetched under the current
/// add. The tier is chosen here, once per band; the scalar loop is the
/// oracle and the AVX2 one adds the same rows to each lane in the same
/// order.
pub(crate) fn accumulate_band(
    kernel: KernelDispatch,
    rows: &[f32],
    dim: usize,
    src: &[u32],
    dst: &[u32],
    base: usize,
    band: &mut [f32],
) {
    #[cfg(target_arch = "x86_64")]
    if kernel != KernelDispatch::Scalar && KernelDispatch::Avx2.supported() {
        // SAFETY: AVX2 support verified on the line above.
        unsafe { accumulate_band_avx2(rows, dim, src, dst, base, band) };
        return;
    }
    let _ = kernel;
    let row = |r: u32| &rows[r as usize * dim..(r as usize + 1) * dim];
    for (i, (&s, &d)) in src.iter().zip(dst.iter()).enumerate() {
        let Some(acc) = owned_row(band, dim, base, d) else {
            continue;
        };
        if let Some(&ahead) = src.get(i + PREFETCH_WINDOW) {
            prefetch(row(ahead));
        }
        add_assign(KernelDispatch::Scalar, acc, row(s));
    }
}

/// Output row `d` of a band that starts at output row `base`, or `None`
/// for a row another band owns (the pairs to skip).
#[inline(always)]
fn owned_row(band: &mut [f32], dim: usize, base: usize, d: u32) -> Option<&mut [f32]> {
    let local = (d as usize).checked_sub(base)?;
    band.get_mut(local * dim..(local + 1) * dim)
}

/// [`accumulate_band`] on the AVX2 tier: the stream is walked a run of
/// equal `dst` at a time, and a run's output row is loaded and stored once
/// ([`crate::simd::x86::accumulate_run`]) instead of once per lookup.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn accumulate_band_avx2(
    rows: &[f32],
    dim: usize,
    src: &[u32],
    dst: &[u32],
    base: usize,
    band: &mut [f32],
) {
    let mut i = 0;
    while i < dst.len() {
        let d = dst[i];
        let run = i..i + dst[i..].iter().take_while(|&&next| next == d).count();
        i = run.end;
        if let Some(acc) = owned_row(band, dim, base, d) {
            crate::simd::x86::accumulate_run(acc, rows, src, run);
        }
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
