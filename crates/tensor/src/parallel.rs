//! The GEMMs of a [`crate::Linear`] layer under an [`Exec`]: inline on the
//! calling thread, or cut into row bands on the caller's persistent pool.
//! The DLRM trainer's dense phases come through here — with a pool of
//! many workers, or with the one-worker lane a serial trainer owns, where
//! the calling thread is the second pair of hands (`Pool::scope` helps
//! before it waits).
//!
//! **One floor decides.** A product of fewer than [`SPLIT_MIN_MACS`]
//! multiply-adds runs inline whatever the `Exec` says: it never touches
//! the pool, wakes no one and allocates nothing. Above the floor the
//! forward `x W` is cut into `threads` row bands, and the two backward
//! products `dW = x^T dy` and `dX = dy W^T` share **one** scope, each cut
//! into `threads` bands, so the queue balances the slower `NT` kernel
//! against the faster `TN` one instead of waiting for each in turn.
//!
//! There is no pooled kernel: a band runs the serial register-tiled
//! kernel of [`crate::simd`] on `m = band rows`, and no output's
//! operation order depends on `m`, so inline == banded bit for bit — on
//! every kernel tier, since the tier is resolved once and shared by all
//! bands. The bands run on the long-lived `tcast-pool` workers: zero
//! thread spawns per invocation.

use crate::matrix::Matrix;
use crate::simd;
use tcast_pool::{Exec, Pool, Scope};

/// Multiply-adds (`m * k * n`) below which a GEMM is not worth splitting:
/// queueing a band and meeting its worker costs a few microseconds even
/// when the worker is already polling, which is what a product of this
/// size takes on one core in a few hundred.
const SPLIT_MIN_MACS: usize = 4 << 20;

/// Whether an `m x k x n` product is at or above the floor, i.e. whether
/// [`matmul_unchecked`] and [`backward_unchecked`] would use the pool of a
/// multi-threaded `Exec` for it: the question a caller that creates its
/// pool lazily asks first.
pub(crate) fn splits(m: usize, k: usize, n: usize) -> bool {
    m.saturating_mul(k).saturating_mul(n) >= SPLIT_MIN_MACS
}

/// The pool and band count an `m x k x n` product splits over under
/// `exec`, or `None` when it runs inline.
fn split<'p>(exec: Exec<'p>, m: usize, k: usize, n: usize) -> Option<(&'p Pool, usize)> {
    match exec {
        Exec::Pooled { pool, threads } if threads > 1 && splits(m, k, n) => Some((pool, threads)),
        _ => None,
    }
}

/// Cuts the `rows x cols` row-major `out` into at most `bands` contiguous
/// row bands and spawns `kernel(first_row, band, band_rows)` for each.
fn spawn_row_bands<'env>(
    scope: &Scope<'_, 'env>,
    bands: usize,
    out: &'env mut [f32],
    rows: usize,
    cols: usize,
    kernel: &'env (impl Fn(usize, &mut [f32], usize) + Sync),
) {
    let bands = bands.clamp(1, rows.max(1));
    let rows_per = rows.div_ceil(bands).max(1);
    let mut rest = out;
    for lo in (0..rows).step_by(rows_per) {
        let band_rows = rows_per.min(rows - lo);
        let (band, tail) = rest.split_at_mut(band_rows * cols);
        rest = tail;
        scope.spawn(move || kernel(lo, band, band_rows));
    }
}

/// The forward product `lhs * rhs` into `out` (reshaped in place, every
/// element overwritten); the caller has validated `lhs.cols() ==
/// rhs.rows()`.
pub(crate) fn matmul_unchecked(exec: Exec<'_>, lhs: &Matrix, rhs: &Matrix, out: &mut Matrix) {
    let on = split(exec, lhs.rows(), lhs.cols(), rhs.cols());
    matmul_on(on, lhs, rhs, out);
}

/// [`matmul_unchecked`] once the floor has spoken: `on` is the pool and
/// the band count, or `None` for inline.
fn matmul_on(on: Option<(&Pool, usize)>, lhs: &Matrix, rhs: &Matrix, out: &mut Matrix) {
    let (m, k, n) = (lhs.rows(), lhs.cols(), rhs.cols());
    out.reshape_for_overwrite(m, n);
    let tier = simd::dispatch();
    let (lhs, rhs) = (lhs.as_slice(), rhs.as_slice());
    let nn = |lo: usize, band: &mut [f32], rows: usize| {
        simd::gemm_nn(tier, &lhs[lo * k..(lo + rows) * k], rhs, band, rows, k, n);
    };
    match on {
        Some((pool, threads)) if m > 1 => {
            pool.scope(|scope| spawn_row_bands(scope, threads, out.as_mut_slice(), m, n, &nn));
        }
        _ => nn(0, out.as_mut_slice(), m),
    }
}

/// Both backward products of a layer: `grad_w = x^T dy` (`TN`) and
/// `dx = dy weight^T` (`NT`), each reshaped in place with every element
/// overwritten. Above the floor all their bands — `threads` bands of
/// `dx`'s rows, `threads` bands of `grad_w`'s — are tasks of one scope.
/// The caller has validated `x.rows() == dy.rows()`, `x.cols() ==
/// weight.rows()` and `dy.cols() == weight.cols()`.
pub(crate) fn backward_unchecked(
    exec: Exec<'_>,
    x: &Matrix,
    dy: &Matrix,
    weight: &Matrix,
    grad_w: &mut Matrix,
    dx: &mut Matrix,
) {
    let on = split(exec, x.rows(), x.cols(), dy.cols());
    backward_on(on, x, dy, weight, grad_w, dx);
}

/// [`backward_unchecked`] once the floor has spoken.
fn backward_on(
    on: Option<(&Pool, usize)>,
    x: &Matrix,
    dy: &Matrix,
    weight: &Matrix,
    grad_w: &mut Matrix,
    dx: &mut Matrix,
) {
    let (batch, in_dim, out_dim) = (x.rows(), x.cols(), dy.cols());
    grad_w.reshape_for_overwrite(in_dim, out_dim);
    dx.reshape_for_overwrite(batch, in_dim);
    let tier = simd::dispatch();
    let (x, dy, w) = (x.as_slice(), dy.as_slice(), weight.as_slice());
    // grad_w[i][j] = sum_r x[r][i] * dy[r][j], `r` ascending: rows `lo..`
    // of it read columns `lo..` of `x` (of which an empty batch has none).
    let tn = |lo: usize, band: &mut [f32], rows: usize| {
        let x_band = &x[lo.min(x.len())..];
        simd::gemm_tn(tier, x_band, in_dim, dy, band, batch, rows, out_dim);
    };
    let nt = |lo: usize, band: &mut [f32], rows: usize| {
        let dy_band = &dy[lo * out_dim..(lo + rows) * out_dim];
        simd::gemm_nt(tier, dy_band, w, band, rows, out_dim, in_dim);
    };
    match on {
        Some((pool, threads)) => pool.scope(|scope| {
            spawn_row_bands(scope, threads, dx.as_mut_slice(), batch, in_dim, &nt);
            spawn_row_bands(scope, threads, grad_w.as_mut_slice(), in_dim, out_dim, &tn);
        }),
        None => {
            tn(0, grad_w.as_mut_slice(), in_dim);
            nt(0, dx.as_mut_slice(), batch);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::SplitMix64;

    /// Mostly ordinary values, with a NaN, a `-0.0` or a denormal about
    /// once per `reduction`-long sum: what a bit-identity claim has to
    /// survive without every output turning NaN.
    fn special_matrix(rows: usize, cols: usize, reduction: usize, rng: &mut SplitMix64) -> Matrix {
        let mut m = Matrix::zeros(rows, cols);
        for v in m.as_mut_slice() {
            *v = match rng.next_below(3 * reduction.max(4) as u64) {
                0 => f32::NAN,
                1 => -0.0,
                2 => 1.0e-40,
                _ => rng.next_range(-2.0, 2.0),
            };
        }
        m
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn pooled_products_are_bit_identical_to_serial() {
        // Same accumulation order per output element => exact equality,
        // not tolerance equality. The bands are cut whatever the floor
        // says (these shapes sit far under it): ragged against every tile
        // size, fewer rows than bands, one row, no rows at all, and each
        // product's reduction crossing the 8-lane chunk and the K-block
        // boundaries.
        let pool = Pool::new(3);
        let mut rng = SplitMix64::new(0xBA4D);
        let mut shapes = vec![(3, 8, 5), (1, 13, 1), (2, 13, 40), (0, 4, 4)];
        for r in [1, 7, 8, 9, 127, 128, 129, 257, 300] {
            shapes.extend([(37, r, 33), (37, 21, r), (r, 19, 23)]);
        }
        for (m, k, n) in shapes {
            let x = special_matrix(m, k, k.max(m), &mut rng);
            let w = special_matrix(k, n, k.max(n), &mut rng);
            let dy = special_matrix(m, n, n.max(m), &mut rng);
            let y = x.matmul(&w).unwrap();
            let grad_w = x.matmul_at(&dy).unwrap();
            let dx = dy.matmul_bt(&w).unwrap();
            for bands in [1, 2, 3, 8, 64] {
                let on = Some((&pool, bands));
                let (mut out, mut out_w) = (Matrix::default(), Matrix::default());
                matmul_on(on, &x, &w, &mut out);
                assert_eq!(out.shape(), (m, n));
                assert_eq!(bits(&y), bits(&out), "NN {m}x{k}x{n} / {bands}");
                backward_on(on, &x, &dy, &w, &mut out_w, &mut out);
                assert_eq!((out_w.shape(), out.shape()), ((k, n), (m, k)));
                assert_eq!(bits(&grad_w), bits(&out_w), "TN {m}x{k}x{n} / {bands}");
                assert_eq!(bits(&dx), bits(&out), "NT {m}x{k}x{n} / {bands}");
            }
        }
    }

    #[test]
    fn a_panicking_band_resurfaces_after_its_siblings_finished() {
        let pool = Pool::new(2);
        let mut out = vec![0.0f32; 6 * 4];
        let kernel = |lo: usize, band: &mut [f32], _rows: usize| {
            assert_ne!(lo, 2, "band at row 2");
            band.fill(1.0);
        };
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.scope(|scope| spawn_row_bands(scope, 3, &mut out, 6, 4, &kernel));
        }));
        assert!(result.is_err());
        let ones = out.iter().filter(|&&v| v == 1.0).count();
        assert_eq!(ones, 4 * 4, "the other two bands ran to completion");
    }

    #[test]
    fn the_floor_keeps_small_products_off_the_pool() {
        let pool = Pool::new(1);
        let lane = Exec::Pooled {
            pool: &pool,
            threads: 2,
        };
        assert!(split(lane, 64, 2560, 512).is_some());
        assert!(split(lane, 64, 512, 128).is_some()); // exactly the floor
        assert!(split(lane, 64, 119, 512).is_none());
        assert!(split(lane, 32, 8, 32).is_none());
        assert!(split(Exec::Serial, 64, 2560, 512).is_none());
        let one = Exec::Pooled {
            pool: &pool,
            threads: 1,
        };
        assert!(split(one, 64, 2560, 512).is_none());
        // Overflowing shapes saturate instead of wrapping under the floor.
        assert!(split(lane, usize::MAX, 2, 2).is_some());
    }
}
