//! The GEMMs of a [`crate::Linear`] layer under an [`Exec`]: inline on the
//! calling thread, or cut into bands on the caller's persistent pool.
//! The DLRM trainer's dense phases come through here — with a pool of
//! many workers, or with the one-worker lane a serial trainer owns, where
//! the calling thread is the second pair of hands (`Pool::scope` helps
//! before it waits).
//!
//! **One floor decides whether.** A product of fewer than
//! [`SPLIT_MIN_MACS`] multiply-adds runs inline whatever the `Exec` says:
//! it never touches the pool, wakes no one and allocates nothing. Above
//! the floor a product is cut into `threads` bands.
//!
//! **The traffic decides where.** Cut into `t` bands, an `m x k x n`
//! product `A B` read by bands of `A`'s rows reads `m k / t + k n` floats
//! a band, and by bands of `B`'s columns `m k + k n / t`: cutting `B` is
//! the smaller stream exactly when `n > m`. A layer's weight `W` is
//! `in_dim x out_dim` against a batch of `batch` rows, so:
//!
//! * the forward `y = x W` cuts `W`'s (and `y`'s) columns when `out_dim >
//!   batch`, and the batch otherwise;
//! * the backward cuts `W`'s rows when `in_dim > batch`: band `i` runs
//!   `dX[:, i] = dy W[i, :]^T` (`NT`), then `dW[i, :] = x[:, i]^T dy`
//!   (`TN`) and, where the caller asks for the update (nothing reads the
//!   old weights after their backward), `W[i, :] += (-lr) dW[i, :]` as
//!   **one** task, since it reads and writes only band `i` of `W` and of
//!   its gradient — `threads` tasks in one scope. Otherwise
//!   `dX` is cut into bands of the batch and `dW` into bands of its own
//!   rows, `2 threads` tasks of one scope, so the queue balances the
//!   slower `NT` kernel against the faster `TN` one, and the update
//!   follows the join. A layer whose `dX` nothing consumes (a first layer)
//!   runs the `dW` bands alone.
//!
//! A cut across `W` falls on a multiple of the kernels' 16-column panel
//! ([`simd::GEMM_NR`]), so only the last band has a ragged panel; a band
//! of columns writes through a [`StridedMut`] view of the output, which
//! holds its own columns of every row and nothing of its neighbours'.
//!
//! There is no pooled kernel: a band runs the serial register-tiled
//! kernel of [`crate::simd`] on fewer rows or on fewer columns, and no
//! output's operation order depends on how many rows its band holds or
//! on which columns, so inline == banded bit for bit — on every kernel
//! tier, since the tier is resolved once and shared by all bands. The
//! bands run on the long-lived `tcast-pool` workers: zero thread spawns
//! per invocation.

use crate::matrix::Matrix;
use crate::simd;
use crate::strided::StridedMut;
use std::ops::Range;
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

/// Whether a split product whose weight spans `dim` columns (the
/// forward's `out_dim`) or rows (the backward's `in_dim`) is cut across
/// the weight rather than across the `batch`: whether each band then
/// streams less (see the module docs).
fn cuts_weight(batch: usize, dim: usize) -> bool {
    dim > batch
}

/// At most `bands` contiguous ranges covering `0..len` in order, each but
/// the last a multiple of `unit` long.
fn bands_of(len: usize, bands: usize, unit: usize) -> impl Iterator<Item = Range<usize>> {
    let units = len.div_ceil(unit);
    let per = (units.div_ceil(bands.clamp(1, units.max(1))) * unit).max(1);
    (0..len).step_by(per).map(move |lo| lo..len.min(lo + per))
}

/// Cuts the `rows x cols` row-major `out` into at most `bands` contiguous
/// row bands and spawns `kernel(first_row, band)` for each.
fn spawn_row_bands<'env>(
    scope: &Scope<'_, 'env>,
    bands: usize,
    out: &'env mut [f32],
    rows: usize,
    cols: usize,
    kernel: &'env (impl Fn(usize, StridedMut<'env>) + Sync),
) {
    let mut rest = out;
    for band in bands_of(rows, bands, 1) {
        let (head, tail) = std::mem::take(&mut rest).split_at_mut(band.len() * cols);
        rest = tail;
        scope.spawn(move || kernel(band.start, StridedMut::new(head, band.len(), cols)));
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
    // Rows `r0..` and columns `c0..` of `out` read rows `r0..` of `lhs`
    // and columns `c0..` of `rhs` (of which a `rhs` with no rows has none).
    let nn = |r0: usize, c0: usize, band: StridedMut<'_>| {
        let rhs = &rhs[c0.min(rhs.len())..];
        simd::gemm_strided(tier, &lhs[r0 * k..], k, 1, rhs, n, band, k);
    };
    let nn_rows = |r0: usize, band: StridedMut<'_>| nn(r0, 0, band);
    match on {
        Some((pool, threads)) if cuts_weight(m, n) => pool.scope(|scope| {
            let mut rest = StridedMut::new(out.as_mut_slice(), m, n);
            for cols in bands_of(n, threads, simd::GEMM_NR) {
                let (band, tail) = rest.split_cols(cols.len());
                rest = tail;
                scope.spawn(move || nn(0, cols.start, band));
            }
        }),
        Some((pool, threads)) if m > 1 => pool.scope(|scope| {
            spawn_row_bands(scope, threads, out.as_mut_slice(), m, n, &nn_rows);
        }),
        _ => nn_rows(0, StridedMut::new(out.as_mut_slice(), m, n)),
    }
}

/// The backward products of a layer: `grad_w = x^T dy` (`TN`) and, unless
/// `dx` is `None`, `dx = dy weight^T` (`NT`), each reshaped in place with
/// every element overwritten; then, with `lr`, the SGD update `weight +=
/// (-lr) grad_w`. Above the floor all their bands are tasks of one scope,
/// cut as the module docs say, and under the weight cut each band updates
/// its own rows of `weight` once its `NT` has read them; otherwise the
/// update follows the products. The caller has validated `x.rows() ==
/// dy.rows()`, `x.cols() == weight.rows()` and `dy.cols() ==
/// weight.cols()`.
pub(crate) fn backward_unchecked(
    exec: Exec<'_>,
    x: &Matrix,
    dy: &Matrix,
    weight: &mut Matrix,
    grad_w: &mut Matrix,
    dx: Option<&mut Matrix>,
    lr: Option<f32>,
) {
    let on = split(exec, x.rows(), x.cols(), dy.cols());
    backward_on(on, x, dy, weight, grad_w, dx, lr);
}

/// `w += (-lr) g`, element by element: [`Matrix::add_scaled`]'s operation
/// at `alpha = -lr`, so an update cut into bands leaves its bits.
fn sgd(w: &mut [f32], g: &[f32], lr: f32) {
    let alpha = -lr;
    for (w, &g) in w.iter_mut().zip(g) {
        *w += alpha * g;
    }
}

/// [`backward_unchecked`] once the floor has spoken.
fn backward_on(
    on: Option<(&Pool, usize)>,
    x: &Matrix,
    dy: &Matrix,
    weight: &mut Matrix,
    grad_w: &mut Matrix,
    mut dx: Option<&mut Matrix>,
    lr: Option<f32>,
) {
    let (batch, in_dim, out_dim) = (x.rows(), x.cols(), dy.cols());
    grad_w.reshape_for_overwrite(in_dim, out_dim);
    if let Some(dx) = dx.as_deref_mut() {
        dx.reshape_for_overwrite(batch, in_dim);
    }
    let tier = simd::dispatch();
    let (x, dy, w) = (x.as_slice(), dy.as_slice(), weight.as_mut_slice());
    // grad_w[i][j] = sum_r x[r][i] * dy[r][j], `r` ascending: rows `lo..`
    // of it read columns `lo..` of `x` (of which an empty batch has none).
    let tn = |lo: usize, band: StridedMut<'_>| {
        let x_band = &x[lo.min(x.len())..];
        simd::gemm_strided(tier, x_band, 1, in_dim, dy, out_dim, band, batch);
    };
    // Rows `r0..` of `dx` read rows `r0..` of `dy`; its columns, the rows
    // of the weight in `w_rows`.
    let nt = |r0: usize, w_rows: &[f32], band: StridedMut<'_>| {
        let dy_band = &dy[r0 * out_dim..][..band.rows() * out_dim];
        let w_band = &w_rows[..band.cols() * out_dim];
        simd::gemm_nt_strided(tier, dy_band, w_band, band, out_dim);
    };
    match on {
        Some((pool, threads)) if cuts_weight(batch, in_dim) => pool.scope(|scope| {
            // Band `i` holds rows `i` of the weight and of its gradient and
            // columns `i` of `dx`, and nothing of its neighbours'.
            let mut dx_rest = dx.map(|dx| StridedMut::new(dx.as_mut_slice(), batch, in_dim));
            let (mut grad_rest, mut w_rest) = (grad_w.as_mut_slice(), w);
            for rows in bands_of(in_dim, threads, simd::GEMM_NR) {
                let len = rows.len() * out_dim;
                let (grad_band, tail) = std::mem::take(&mut grad_rest).split_at_mut(len);
                grad_rest = tail;
                let (w_band, tail) = std::mem::take(&mut w_rest).split_at_mut(len);
                w_rest = tail;
                let dx_band = dx_rest.take().map(|dx| {
                    let (band, tail) = dx.split_cols(rows.len());
                    dx_rest = Some(tail);
                    band
                });
                scope.spawn(move || {
                    if let Some(dx_band) = dx_band {
                        nt(0, w_band, dx_band);
                    }
                    tn(rows.start, StridedMut::new(grad_band, rows.len(), out_dim));
                    if let Some(lr) = lr {
                        sgd(w_band, grad_band, lr);
                    }
                });
            }
        }),
        Some((pool, threads)) => {
            let w_all = &*w;
            let nt_rows = |r0: usize, band: StridedMut<'_>| nt(r0, w_all, band);
            pool.scope(|scope| {
                // `dx`'s batch bands beside `grad_w`'s row bands.
                if let Some(dx) = dx {
                    spawn_row_bands(scope, threads, dx.as_mut_slice(), batch, in_dim, &nt_rows);
                }
                let mut grad_rest = grad_w.as_mut_slice();
                for rows in bands_of(in_dim, threads, simd::GEMM_NR) {
                    let (grad_band, tail) =
                        std::mem::take(&mut grad_rest).split_at_mut(rows.len() * out_dim);
                    grad_rest = tail;
                    scope.spawn(move || {
                        tn(rows.start, StridedMut::new(grad_band, rows.len(), out_dim));
                    });
                }
            });
            if let Some(lr) = lr {
                sgd(w, grad_w.as_slice(), lr);
            }
        }
        None => {
            tn(0, StridedMut::new(grad_w.as_mut_slice(), in_dim, out_dim));
            if let Some(dx) = dx {
                nt(0, w, StridedMut::new(dx.as_mut_slice(), batch, in_dim));
            }
            if let Some(lr) = lr {
                sgd(w, grad_w.as_slice(), lr);
            }
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
        // boundaries. Both cuts of each product: `n > m` cuts the
        // forward's columns, `k > m` the backward's weight rows (with `dx`
        // and without), each at multiples of the 16-column panel, ragged
        // around it and with more bands than panels or columns.
        let pool = Pool::new(3);
        let mut rng = SplitMix64::new(0xBA4D);
        let mut shapes = vec![(3, 8, 5), (1, 13, 1), (2, 13, 40), (0, 4, 4), (0, 40, 33)];
        shapes.extend([
            (3, 40, 33),
            (1, 13, 300),
            (9, 257, 47),
            (64, 300, 16),
            (5, 1, 0),
        ]);
        for r in [1, 7, 8, 9, 127, 128, 129, 257, 300] {
            shapes.extend([(37, r, 33), (37, 21, r), (r, 19, 23)]);
        }
        // Batches that are no multiple of the `zmm` `NT` kernel's 16-row
        // block, the weight cut (`k > m`) and the batch cut (`k <= m`),
        // the `NT` reduction (`n`) past one 8-step chunk.
        for m in [15, 17, 33, 47] {
            shapes.extend([(m, 160, 24), (m, 2 * m + 1, 9), (m, m, 17), (m, 8, 40)]);
        }
        for (m, k, n) in shapes {
            let x = special_matrix(m, k, k.max(m), &mut rng);
            let mut w = special_matrix(k, n, k.max(n), &mut rng);
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
                backward_on(on, &x, &dy, &mut w, &mut out_w, Some(&mut out), None);
                assert_eq!((out_w.shape(), out.shape()), ((k, n), (m, k)));
                assert_eq!(bits(&grad_w), bits(&out_w), "TN {m}x{k}x{n} / {bands}");
                assert_eq!(bits(&dx), bits(&out), "NT {m}x{k}x{n} / {bands}");
                // Without `dx` only the `TN` bands run, on the same bits.
                backward_on(on, &x, &dy, &mut w, &mut out_w, None, None);
                assert_eq!(
                    bits(&grad_w),
                    bits(&out_w),
                    "TN alone {m}x{k}x{n} / {bands}"
                );
                // With the update, `dx` still reads the old weights and the
                // new ones are `add_scaled`'s, band by band or after.
                let mut updated = w.clone();
                backward_on(
                    on,
                    &x,
                    &dy,
                    &mut updated,
                    &mut out_w,
                    Some(&mut out),
                    Some(0.25),
                );
                assert_eq!(bits(&dx), bits(&out), "NT, updating, {m}x{k}x{n} / {bands}");
                let mut want = w.clone();
                want.add_scaled(&grad_w, -0.25).unwrap();
                assert_eq!(bits(&want), bits(&updated), "SGD {m}x{k}x{n} / {bands}");
            }
        }
    }

    #[test]
    fn each_product_is_cut_across_its_larger_operand() {
        // x W streams `m k / t + k n` floats a band cut over the batch and
        // `m k + k n / t` cut over W's columns.
        assert!(cuts_weight(64, 512)); // RM3's 2560x512 forward at batch 64
        assert!(cuts_weight(64, 2560)); // .. and its backward
        assert!(!cuts_weight(512, 512)); // RM1's widest layer at batch 512
        assert!(!cuts_weight(64, 64));
        // Weight bands fall on the 16-column panel, cover every column
        // once, in order, and never outnumber the panels.
        for (len, bands) in [
            (512, 2),
            (2560, 2),
            (33, 3),
            (300, 64),
            (16, 8),
            (5, 64),
            (0, 2),
        ] {
            let cut: Vec<_> = bands_of(len, bands, simd::GEMM_NR).collect();
            assert!(cut.len() <= bands.min(len.div_ceil(simd::GEMM_NR)));
            assert!(cut
                .iter()
                .all(|b| b.start % simd::GEMM_NR == 0 && !b.is_empty()));
            let ends: Vec<_> = cut.iter().map(|b| b.end).collect();
            let starts: Vec<_> = cut.iter().skip(1).map(|b| b.start).collect();
            assert_eq!(&ends[..ends.len().saturating_sub(1)], &starts[..]);
            assert_eq!(cut.last().map_or(0, |b| b.end), len, "{len} / {bands}");
        }
        assert_eq!(
            bands_of(2560, 2, 16).collect::<Vec<_>>(),
            [0..1280, 1280..2560]
        );
        assert_eq!(
            bands_of(33, 3, 16).collect::<Vec<_>>(),
            [0..16, 16..32, 32..33]
        );
    }

    #[test]
    fn a_panicking_band_resurfaces_after_its_siblings_finished() {
        let pool = Pool::new(2);
        let mut out = vec![0.0f32; 6 * 4];
        let kernel = |lo: usize, mut band: StridedMut<'_>| {
            assert_ne!(lo, 2, "band at row 2");
            (0..band.rows()).for_each(|r| band.row(r).fill(1.0));
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
