//! The GEMMs of a [`crate::Linear`] layer under an [`Exec`]: inline on the
//! calling thread, or split over the caller's persistent pool. The DLRM
//! trainer's dense phases come through here — with a pool of many
//! workers, or with the one-worker lane a serial trainer owns, where the
//! calling thread is the second pair of hands (`Pool::scope` helps before
//! it waits).
//!
//! **One floor decides whether.** A product of fewer than
//! [`SPLIT_MIN_MACS`] multiply-adds runs inline whatever the `Exec` says:
//! it never touches the pool, wakes no one and allocates nothing. Above
//! the floor a product is split over `threads` tasks of one scope.
//!
//! **The traffic decides where.** Cut into `t` bands, an `m x k x n`
//! product `A B` read by bands of `A`'s rows reads `m k / t + k n` floats
//! a band, and by bands of `B`'s columns `m k + k n / t`: cutting `B` is
//! the smaller stream exactly when `n > m`. A layer's weight `W` is
//! `in_dim x out_dim` against a batch of `batch` rows, so:
//!
//! * the forward `y = x W` cuts `W`'s (and `y`'s) columns when `out_dim >
//!   batch`, and the batch otherwise;
//! * the backward cuts `W`'s rows when `in_dim > batch`: block `i` runs
//!   `dX[:, i] = dy W[i, :]^T` (`NT`), then `dW[i, :] = x[:, i]^T dy`
//!   (`TN`) and, where the caller asks for the update (nothing reads the
//!   old weights after their backward), `W[i, :] += (-lr) dW[i, :]`, all
//!   on one thread while its rows of `W` and of its gradient sit in L2,
//!   since it reads and writes only block `i` of them. Otherwise `dX` is
//!   cut into bands of the batch and `dW` into bands of its own rows, `2
//!   threads` tasks of one scope, so the queue balances the slower `NT`
//!   kernel against the faster `TN` one, and the update follows the join.
//!   A layer whose `dX` nothing consumes (a first layer) runs the `dW`
//!   bands alone.
//!
//! **Whoever is there claims the weight.** A cut across `W` is not one
//! fixed band a thread: it is handed out in blocks of [`FWD_BLOCK_COLS`]
//! columns (forward) or [`BWD_BLOCK_ROWS`] rows (backward) from a cursor
//! on the caller's stack, and each of the `threads` tasks claims the next
//! block until none is left. A participant that arrives late — the
//! trainer's lane worker still casting, or the training thread still in
//! its embedding backward while the lane runs the bottom MLP — claims
//! fewer blocks instead of leaving the other waiting on a whole band; one
//! that arrives after the last claim returns at once. The blocks fall on
//! multiples of the kernels' 16-column panel ([`simd::GEMM_NR`]), so only
//! the last has a ragged panel; a block of columns writes through a
//! [`StridedMut`] view of the output, which holds its own columns of every
//! row and nothing of its neighbours'. A backward participant packs `dy`
//! for the `NT` kernel once, at its first block, not once a block. The
//! batch cuts keep one fixed band a task.
//!
//! There is no pooled kernel: a block or a band runs the serial
//! register-tiled kernel of [`crate::simd`] on fewer rows or on fewer
//! columns, and no output's operation order depends on how many rows its
//! block holds, on which columns, or on which thread claimed it, so inline
//! == split bit for bit — on every kernel tier, since the tier is resolved
//! once and shared by every participant. The tasks run on the long-lived
//! `tcast-pool` workers: zero thread spawns per invocation.

use crate::matrix::Matrix;
use crate::simd;
use crate::strided::StridedMut;
use std::ops::Range;
use std::sync::{Mutex, PoisonError};
use tcast_pool::{Exec, Pool, Scope};

/// Multiply-adds (`m * k * n`) below which a GEMM is not worth splitting:
/// queueing a band and meeting its worker costs a few microseconds even
/// when the worker is already polling, which is what a product of this
/// size takes on one core in a few hundred.
const SPLIT_MIN_MACS: usize = 4 << 20;

/// Columns of `W` (and of `y`) a forward cut across the weight hands out
/// at a time: four 16-column panels, eight blocks of RM3's 512-column
/// layer.
const FWD_BLOCK_COLS: usize = 4 * simd::GEMM_NR;

/// Rows of `W` (and of `dW`, and columns of `dX`) a backward cut across
/// the weight hands out at a time: at RM3's 512 columns, 512 KB of `W` and
/// 512 KB of `dW`, which stay in L2 from the block's `NT` through its
/// update; ten blocks of the 2560-row layer.
const BWD_BLOCK_ROWS: usize = 16 * simd::GEMM_NR;

/// Whether an `m x k x n` product is at or above the floor, i.e. whether
/// [`matmul_unchecked`] and [`backward_unchecked`] would use the pool of a
/// multi-threaded `Exec` for it: the question a caller that creates its
/// pool lazily asks first.
pub(crate) fn splits(m: usize, k: usize, n: usize) -> bool {
    m.saturating_mul(k).saturating_mul(n) >= SPLIT_MIN_MACS
}

/// The pool and task count an `m x k x n` product splits over under
/// `exec`, or `None` when it runs inline.
fn split<'p>(exec: Exec<'p>, m: usize, k: usize, n: usize) -> Option<(&'p Pool, usize)> {
    match exec {
        Exec::Pooled { pool, threads } if threads > 1 && splits(m, k, n) => Some((pool, threads)),
        _ => None,
    }
}

/// Whether a split product whose weight spans `dim` columns (the
/// forward's `out_dim`) or rows (the backward's `in_dim`) is cut across
/// the weight rather than across the `batch`: whether each thread then
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

/// The not yet claimed rest of an output cut across the weight: `len`
/// units (columns or rows of `W`) from `at`, of which each claim splits
/// the next `block` (fewer at the end) off the front. Lives on the
/// caller's stack for the one scope its participants run in.
struct Claims<T> {
    rest: Mutex<(usize, usize, Option<T>)>,
    block: usize,
    blocks: usize,
    split: fn(T, usize) -> (T, T),
}

impl<T> Claims<T> {
    /// All `len` units of `output`, handed out `block` at a time, `split`
    /// cutting the first `n` units off what is left.
    fn new(output: T, len: usize, block: usize, split: fn(T, usize) -> (T, T)) -> Self {
        Self {
            rest: Mutex::new((0, len, Some(output))),
            block,
            blocks: len.div_ceil(block),
            split,
        }
    }

    /// The tasks worth spawning for `threads` participants: no more than
    /// there are blocks.
    fn participants(&self, threads: usize) -> usize {
        threads.min(self.blocks)
    }

    /// The next block and the units it holds, or `None` once every block
    /// is claimed.
    fn next(&self) -> Option<(Range<usize>, T)> {
        // Nothing panics while the lock is held, but a poisoned lock still
        // guards a consistent rest.
        let mut rest = self.rest.lock().unwrap_or_else(PoisonError::into_inner);
        let (at, left, output) = &mut *rest;
        let n = self.block.min(*left);
        if n == 0 {
            return None;
        }
        let (block, tail) = (self.split)(output.take()?, n);
        *output = Some(tail);
        let units = *at..*at + n;
        (*at, *left) = (units.end, *left - n);
        Some((units, block))
    }

    /// Runs `participant` as the tasks of one scope on `pool`, one per
    /// thread up to one per block; each claims blocks until none is left.
    fn run_on(&self, pool: &Pool, threads: usize, participant: &(impl Fn(&Self) + Sync))
    where
        T: Send,
    {
        let participants = self.participants(threads);
        pool.scope(|scope| {
            for _ in 0..participants {
                scope.spawn(move || participant(self));
            }
        });
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
/// the task count, or `None` for inline.
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
        Some((pool, threads)) if cuts_weight(m, n) => {
            let out = StridedMut::new(out.as_mut_slice(), m, n);
            let claims = Claims::new(out, n, FWD_BLOCK_COLS, StridedMut::split_cols);
            claims.run_on(pool, threads, &|claims| {
                while let Some((cols, block)) = claims.next() {
                    nn(0, cols.start, block);
                }
            });
        }
        Some((pool, threads)) if m > 1 => pool.scope(|scope| {
            spawn_row_bands(scope, threads, out.as_mut_slice(), m, n, &nn_rows);
        }),
        _ => nn_rows(0, StridedMut::new(out.as_mut_slice(), m, n)),
    }
}

/// The backward products of a layer: `grad_w = x^T dy` (`TN`) and, unless
/// `dx` is `None`, `dx = dy weight^T` (`NT`), each reshaped in place with
/// every element overwritten; then, with `lr`, the SGD update `weight +=
/// (-lr) grad_w`. Above the floor they are split over one scope, as the
/// module docs say: under the weight cut each claimed block updates its
/// own rows of `weight` once its `NT` has read them; otherwise the update
/// follows the products. The caller has validated `x.rows() ==
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
/// at `alpha = -lr`, so an update cut into blocks leaves its bits.
fn sgd(w: &mut [f32], g: &[f32], lr: f32) {
    let alpha = -lr;
    for (w, &g) in w.iter_mut().zip(g) {
        *w += alpha * g;
    }
}

/// Rows of a layer's weight and of its gradient (`cols` floats each) and,
/// where the caller wants `dx`, the same columns of it: what one block of
/// a backward cut across the weight reads and writes, and nothing of its
/// neighbours'.
struct WeightRows<'a> {
    w: &'a mut [f32],
    grad: &'a mut [f32],
    dx: Option<StridedMut<'a>>,
    cols: usize,
}

impl WeightRows<'_> {
    /// Cuts the rows into `..at` and `at..`.
    fn split_rows(self, at: usize) -> (Self, Self) {
        let cols = self.cols;
        let (w, w_rest) = self.w.split_at_mut(at * cols);
        let (grad, grad_rest) = self.grad.split_at_mut(at * cols);
        let (dx, dx_rest) = match self.dx.map(|dx| dx.split_cols(at)) {
            Some((dx, rest)) => (Some(dx), Some(rest)),
            None => (None, None),
        };
        let head = WeightRows { w, grad, dx, cols };
        let rest = WeightRows {
            w: w_rest,
            grad: grad_rest,
            dx: dx_rest,
            cols,
        };
        (head, rest)
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
        Some((pool, threads)) if cuts_weight(batch, in_dim) => {
            let has_dx = dx.is_some();
            let rows = WeightRows {
                w,
                grad: grad_w.as_mut_slice(),
                dx: dx.map(|dx| StridedMut::new(dx.as_mut_slice(), batch, in_dim)),
                cols: out_dim,
            };
            let claims = Claims::new(rows, in_dim, BWD_BLOCK_ROWS, WeightRows::split_rows);
            claims.run_on(pool, threads, &|claims| {
                // Nothing is packed for a participant that claims nothing.
                let Some(first) = claims.next() else { return };
                let mut blocks = std::iter::once(first).chain(std::iter::from_fn(|| claims.next()));
                // Each block: its `dx` columns (through `nt_of`, over the
                // participant's one packing of `dy`), its `dW` rows, and
                // the update of its rows of `W`.
                let mut run = |nt_of: &mut dyn FnMut(&[f32], StridedMut<'_>)| {
                    for (rows, WeightRows { w, grad, dx, .. }) in &mut blocks {
                        if let Some(dx) = dx {
                            nt_of(w, dx);
                        }
                        tn(rows.start, StridedMut::new(grad, rows.len(), out_dim));
                        if let Some(lr) = lr {
                            sgd(w, grad, lr);
                        }
                    }
                };
                if has_dx {
                    simd::with_nt_lhs(tier, dy, out_dim, run);
                } else {
                    run(&mut |_: &[f32], _: StridedMut<'_>| {});
                }
            });
        }
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
        // not tolerance equality. The products are split whatever the
        // floor says (these shapes sit far under it): ragged against every
        // tile size, fewer rows than bands, one row, no rows at all, and
        // each product's reduction crossing the 8-lane chunk and the
        // K-block boundaries. Both cuts of each product: `n > m` cuts the
        // forward's columns, `k > m` the backward's weight rows (with `dx`
        // and without, with the update and without), each claimed in
        // blocks on multiples of the 16-column panel, ragged around it and
        // with more participants than blocks.
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
        // Several claimed blocks of each weight cut, the last ragged, and
        // an `in_dim` and `n` that are no multiple of the panel: four
        // backward blocks of 777 rows (the last 9) and two forward blocks
        // of 70 columns (the last 6); five backward blocks of 1030 rows
        // beside a batch-cut forward (`n < m`); three forward blocks of
        // 131 columns and two backward blocks of 513 rows.
        shapes.extend([(9, 777, 70), (3, 1030, 2), (5, 513, 131), (17, 300, 200)]);
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
        // A cut across the weight is claimed in blocks on the panel, which
        // cover every row or column once, in order, the last ragged; no
        // more participants are spawned than there are blocks.
        assert_eq!(FWD_BLOCK_COLS % simd::GEMM_NR, 0);
        assert_eq!(BWD_BLOCK_ROWS % simd::GEMM_NR, 0);
        let claimed = |len: usize, block: usize| {
            let claims = Claims::new((), len, block, |(), _| ((), ()));
            let blocks = std::iter::from_fn(|| claims.next().map(|(units, ())| units));
            blocks.collect::<Vec<_>>()
        };
        assert_eq!(claimed(2560, BWD_BLOCK_ROWS).len(), 10); // RM3's backward
        assert_eq!(claimed(512, FWD_BLOCK_COLS).len(), 8); // .. and its forward
        assert_eq!(
            claimed(777, BWD_BLOCK_ROWS),
            [0..256, 256..512, 512..768, 768..777]
        );
        assert_eq!(claimed(70, FWD_BLOCK_COLS), [0..64, 64..70]);
        let claims = Claims::new((), 777, BWD_BLOCK_ROWS, |(), _| ((), ()));
        assert_eq!((claims.participants(2), claims.participants(64)), (2, 4));
    }

    /// `x`, `w` and `dy` of an `m x k x n` layer, and what `Exec::Serial`
    /// makes of them: `y = x w`, `dW = x^T dy`, `dX = dy w^T` and `w`
    /// after an SGD step at `lr`.
    fn layer_and_serial_bits(
        m: usize,
        k: usize,
        n: usize,
        lr: f32,
        seed: u64,
    ) -> ([Matrix; 3], [Vec<u32>; 4]) {
        let mut rng = SplitMix64::new(seed);
        let x = special_matrix(m, k, k.max(m), &mut rng);
        let w = special_matrix(k, n, k.max(n), &mut rng);
        let dy = special_matrix(m, n, n.max(m), &mut rng);
        let (mut y, mut grad_w, mut dx, mut updated) = (
            Matrix::default(),
            Matrix::default(),
            Matrix::default(),
            w.clone(),
        );
        matmul_on(None, &x, &w, &mut y);
        backward_on(
            None,
            &x,
            &dy,
            &mut updated,
            &mut grad_w,
            Some(&mut dx),
            Some(lr),
        );
        let serial = [bits(&y), bits(&grad_w), bits(&dx), bits(&updated)];
        ([x, w, dy], serial)
    }

    #[test]
    fn one_thread_claiming_every_block_computes_the_serial_bits() {
        // The pool's only worker is parked in an outer task until the
        // inner calls return, so the caller runs both participants of each
        // scope: the first claims every block, the second finds none left.
        // Eight forward blocks and ten backward blocks, as on RM3's wide
        // layer, the last of each ragged.
        use std::sync::atomic::{AtomicBool, Ordering};
        let (m, k, n) = (5, 2500, 500);
        let ([x, w, dy], serial) = layer_and_serial_bits(m, k, n, 0.5, 0xC1A1);
        let pool = Pool::new(1);
        let (parked, release) = (AtomicBool::new(false), AtomicBool::new(false));
        let (mut y, mut grad_w, mut dx, mut updated) = (
            Matrix::default(),
            Matrix::default(),
            Matrix::default(),
            w.clone(),
        );
        let mut grad_alone = Matrix::default();
        pool.scope(|outer| {
            outer.spawn(|| {
                parked.store(true, Ordering::Release);
                while !release.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
            });
            while !parked.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            let on = Some((&pool, 2));
            matmul_on(on, &x, &w, &mut y);
            let (dy, lr) = (&dy, Some(0.5));
            backward_on(on, &x, dy, &mut updated, &mut grad_w, Some(&mut dx), lr);
            backward_on(on, &x, dy, &mut w.clone(), &mut grad_alone, None, None);
            release.store(true, Ordering::Release);
        });
        assert_eq!(bits(&y), serial[0], "NN");
        assert_eq!(bits(&grad_w), serial[1], "TN");
        assert_eq!(bits(&grad_alone), serial[1], "TN without dx");
        assert_eq!(bits(&dx), serial[2], "NT");
        assert_eq!(bits(&updated), serial[3], "SGD");
    }

    #[test]
    fn a_poisoned_participant_leaves_every_block_to_the_other() {
        // The first participant of each scope panics before it claims
        // anything; the other computes every block (and, with `lr`,
        // updates every row), and only then does the scope resume the
        // panic on its caller.
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let (m, k, n) = (7, 1100, 300);
        let ([x, w, dy], serial) = layer_and_serial_bits(m, k, n, 0.25, 0xFA17);
        let pool = Pool::new(1);
        let on = Some((&pool, 2));
        let poisoned = |run: &mut dyn FnMut()| {
            pool.poison_next_task();
            let panic = catch_unwind(AssertUnwindSafe(run)).expect_err("the panic resurfaces");
            let message = panic.downcast_ref::<&str>().copied().unwrap_or_default();
            assert!(message.contains("poisoned pool task"), "{message}");
        };
        let mut y = Matrix::default();
        poisoned(&mut || matmul_on(on, &x, &w, &mut y));
        assert_eq!(bits(&y), serial[0], "NN");
        let (mut grad_w, mut dx, mut updated) = (Matrix::default(), Matrix::default(), w.clone());
        poisoned(&mut || {
            let dx = Some(&mut dx);
            backward_on(on, &x, &dy, &mut updated, &mut grad_w, dx, Some(0.25));
        });
        assert_eq!(bits(&grad_w), serial[1], "TN");
        assert_eq!(bits(&dx), serial[2], "NT");
        assert_eq!(bits(&updated), serial[3], "SGD");
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
