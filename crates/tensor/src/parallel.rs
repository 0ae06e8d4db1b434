//! Multi-threaded GEMM: row-partitioned matrix multiply over a
//! caller-supplied persistent pool (the `Exec::Pooled` arm of the matmul
//! entry points in [`crate::linear`]). The DLRM trainer's MLP phases use
//! this to keep the dense side from distorting the embedding-phase
//! measurements on multi-core hosts (the paper's CPU baseline is similarly
//! multi-threaded MKL).
//!
//! There is no pooled kernel: each row band runs the serial register-tiled
//! kernel of [`crate::simd`] with `m = band rows`, and no output's
//! operation order depends on `m`, so pooled == serial bit for bit. The
//! bands run on the long-lived `tcast-pool` workers: zero thread spawns
//! per invocation.

use crate::matrix::Matrix;
use crate::simd;
use tcast_pool::Pool;

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
    fn pooled_products_are_bit_identical_to_serial() {
        // Same accumulation order per output element => exact equality,
        // not tolerance equality. Shapes: ragged, fewer rows than threads,
        // no rows at all.
        let pool = Pool::new(3);
        for (m, k, n) in [(37, 23, 41), (29, 17, 31), (3, 8, 5), (0, 4, 4)] {
            let a = random_matrix(m, k, 1);
            let b = random_matrix(k, n, 2);
            let bt = random_matrix(n, k, 3);
            let serial = a.matmul(&b).unwrap();
            let serial_bt = a.matmul_bt(&bt).unwrap();
            for threads in [1, 2, 3, 8, 64] {
                let mut out = Matrix::default();
                matmul_pooled_unchecked(&pool, &a, &b, &mut out, threads);
                assert_eq!(out.shape(), (m, n));
                assert_eq!(serial.as_slice(), out.as_slice(), "{m}x{k}x{n} / {threads}");
                matmul_bt_pooled_unchecked(&pool, &a, &bt, &mut out, threads);
                assert_eq!(
                    serial_bt.as_slice(),
                    out.as_slice(),
                    "{m}x{k}x{n} / {threads}"
                );
            }
        }
    }
}
