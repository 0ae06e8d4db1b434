//! Multi-threaded GEMM: row-partitioned matrix multiply over the shared
//! persistent pool. The DLRM trainer's MLP phases use this to keep the
//! dense side from distorting the embedding-phase measurements on
//! multi-core hosts (the paper's CPU baseline is similarly multi-threaded
//! MKL).
//!
//! There is no pooled kernel: each row band runs the serial register-tiled
//! kernel of [`crate::simd`] with `m = band rows`, and no output's
//! operation order depends on `m`, so pooled == serial bit for bit. All
//! entry points dispatch onto the long-lived `tcast-pool` workers and
//! perform zero thread spawns per invocation.

use crate::error::ShapeError;
use crate::matrix::Matrix;
use crate::simd;
use tcast_pool::Pool;

/// `lhs * rhs` with the output rows partitioned across `threads` tasks on
/// the process-wide [`tcast_pool::global`] pool. Exact same result as
/// [`Matrix::matmul`] (the same register-tiled kernel on each disjoint
/// row band).
///
/// # Errors
///
/// Returns a [`ShapeError`] unless `lhs.cols() == rhs.rows()`.
pub fn matmul_parallel(lhs: &Matrix, rhs: &Matrix, threads: usize) -> Result<Matrix, ShapeError> {
    matmul_parallel_in(tcast_pool::global(), lhs, rhs, threads)
}

/// [`matmul_parallel`] on an explicit pool.
///
/// # Errors
///
/// Returns a [`ShapeError`] unless `lhs.cols() == rhs.rows()`.
pub fn matmul_parallel_in(
    pool: &Pool,
    lhs: &Matrix,
    rhs: &Matrix,
    threads: usize,
) -> Result<Matrix, ShapeError> {
    if lhs.cols() != rhs.rows() {
        return Err(ShapeError::new("matmul_parallel", lhs.shape(), rhs.shape()));
    }
    let mut out = Matrix::default();
    matmul_pooled_unchecked(pool, lhs, rhs, &mut out, threads);
    Ok(out)
}

/// Pooled `lhs * rhs` into `out` (reshaped in place, every element
/// overwritten); the caller has validated `lhs.cols() == rhs.rows()`.
pub(crate) fn matmul_pooled_unchecked(
    pool: &Pool,
    lhs: &Matrix,
    rhs: &Matrix,
    out: &mut Matrix,
    threads: usize,
) {
    let (k, n) = (lhs.cols(), rhs.cols());
    let kernel = simd::dispatch();
    let rhs = rhs.as_slice();
    for_each_row_band(pool, threads, lhs, out, n, |lhs_band, band, rows| {
        simd::gemm_nn(kernel, lhs_band, rhs, band, rows, k, n);
    });
}

/// Pooled `lhs * rhs^T` into `out` (reshaped in place, every element
/// overwritten); the caller has validated `lhs.cols() == rhs.cols()`.
pub(crate) fn matmul_bt_pooled_unchecked(
    pool: &Pool,
    lhs: &Matrix,
    rhs: &Matrix,
    out: &mut Matrix,
    threads: usize,
) {
    let (k, n) = (lhs.cols(), rhs.rows());
    let kernel = simd::dispatch();
    let rhs = rhs.as_slice();
    for_each_row_band(pool, threads, lhs, out, n, |lhs_band, band, rows| {
        simd::gemm_nt(kernel, lhs_band, rhs, band, rows, k, n);
    });
}

/// Shapes `out` to `lhs.rows() x n`, splits the rows of both into at most
/// `threads` matching contiguous bands and runs `kernel(lhs_band,
/// out_band, band_rows)` on each: inline for a single band, on the pool
/// otherwise. The serial
/// matmuls run the very same kernels with `m = all rows`, and no kernel's
/// per-element operation order depends on `m`, so serial and pooled
/// results are bit-identical by construction — on every kernel tier,
/// since the tier is resolved once and shared by all bands.
fn for_each_row_band(
    pool: &Pool,
    threads: usize,
    lhs: &Matrix,
    out: &mut Matrix,
    n: usize,
    kernel: impl Fn(&[f32], &mut [f32], usize) + Sync,
) {
    let (m, k) = (lhs.rows(), lhs.cols());
    out.reshape_for_overwrite(m, n);
    let threads = threads.max(1).min(m.max(1));
    let rows_per = m.div_ceil(threads);
    let lhs = lhs.as_slice();
    let out = out.as_mut_slice();
    if threads == 1 {
        kernel(lhs, out, m);
        return;
    }
    let kernel = &kernel;
    pool.scope(|scope| {
        let mut rest = out;
        for lo in (0..m).step_by(rows_per) {
            let rows = rows_per.min(m - lo);
            let (band, tail) = rest.split_at_mut(rows * n);
            rest = tail;
            let lhs_band = &lhs[lo * k..(lo + rows) * k];
            scope.spawn(move || kernel(lhs_band, band, rows));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::SplitMix64;

    fn random_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut rng = SplitMix64::new(seed);
        let mut m = Matrix::zeros(rows, cols);
        for v in m.as_mut_slice() {
            *v = rng.next_range(-1.0, 1.0);
        }
        m
    }

    #[test]
    fn matches_serial_matmul() {
        let a = random_matrix(37, 23, 1);
        let b = random_matrix(23, 41, 2);
        let serial = a.matmul(&b).unwrap();
        for threads in [1, 2, 4, 9] {
            let par = matmul_parallel(&a, &b, threads).unwrap();
            assert!(
                serial.max_abs_diff(&par).unwrap() < 1e-5,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn bit_identical_to_serial() {
        // Same accumulation order per output element => exact equality,
        // not tolerance equality.
        let a = random_matrix(29, 17, 5);
        let b = random_matrix(17, 31, 6);
        let serial = a.matmul(&b).unwrap();
        for threads in [2, 3, 8] {
            let par = matmul_parallel(&a, &b, threads).unwrap();
            assert_eq!(serial.as_slice(), par.as_slice(), "threads={threads}");
        }
    }

    #[test]
    fn explicit_pool_matches_global() {
        let pool = Pool::new(3);
        let a = random_matrix(12, 9, 7);
        let b = random_matrix(9, 14, 8);
        let via_pool = matmul_parallel_in(&pool, &a, &b, 3).unwrap();
        let via_global = matmul_parallel(&a, &b, 3).unwrap();
        assert_eq!(via_pool.as_slice(), via_global.as_slice());
    }

    #[test]
    fn more_threads_than_rows_is_fine() {
        let a = random_matrix(3, 8, 3);
        let b = random_matrix(8, 5, 4);
        let par = matmul_parallel(&a, &b, 64).unwrap();
        assert!(a.matmul(&b).unwrap().max_abs_diff(&par).unwrap() < 1e-6);
    }

    #[test]
    fn shape_mismatch_rejected() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(4, 2);
        assert!(matmul_parallel(&a, &b, 2).is_err());
    }

    #[test]
    fn empty_operands() {
        let a = Matrix::zeros(0, 4);
        let b = Matrix::zeros(4, 4);
        let out = matmul_parallel(&a, &b, 4).unwrap();
        assert_eq!(out.shape(), (0, 4));
    }

    #[test]
    fn identity_passthrough() {
        let a = random_matrix(16, 16, 7);
        let id = Matrix::identity(16);
        let par = matmul_parallel(&a, &id, 3).unwrap();
        assert!(a.max_abs_diff(&par).unwrap() < 1e-6);
    }
}
