//! Gradient scatter (Fig. 2b step 3): writing the coalesced gradients back
//! into the embedding table through an optimizer.
//!
//! Scatter is the dual of gather — the paper stresses (Section IV-C) that
//! both run over "the same datapath, just in the opposite directions",
//! which is what lets one NMP core design serve the whole training loop.
//!
//! Three entry points: [`scatter_apply`], the serial reference every other
//! scatter in the workspace (these, the NMP pool's) is tested against, and
//! the two the trainer runs — any [`Exec`], bit-identical to the reference:
//! [`scatter_apply_coalesced`] applies a materialized coalesced gradient
//! (the baseline backward's), and [`scatter_apply_casted`] produces the
//! coalesced gradient from the casted lookup stream a block of rows at a
//! time as it applies it (the casted backward's). Both are the same
//! validation, the same cut into tasks — equal-count bands of the touched
//! rows — and the same per-row loop; they differ in where a task's gradient
//! rows come from.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::coalesce::{CoalescedGradients, CoalescedScratch};
use crate::error::EmbeddingError;
use crate::gather::accumulate_band;
use crate::optim::{RowOptimizer, RowUpdate};
use crate::table::EmbeddingTable;
use tcast_pool::Exec;
use tcast_tensor::simd::{prefetch, PREFETCH_WINDOW};
use tcast_tensor::Matrix;

/// Applies coalesced gradients to the table: for every `(row, grad)` pair,
/// `table[row] <- optimizer(table[row], grad)`, serially, one row at a
/// time. The reference scatter (see the module docs).
///
/// # Errors
///
/// Returns [`EmbeddingError::SrcOutOfBounds`] if a row id exceeds the
/// table, or [`EmbeddingError::DimMismatch`] if gradient width differs
/// from the table dimension.
pub fn scatter_apply(
    table: &mut EmbeddingTable,
    coalesced: &CoalescedGradients,
    optimizer: &mut RowOptimizer,
) -> Result<(), EmbeddingError> {
    if coalesced.grads().cols() != table.dim() {
        return Err(EmbeddingError::DimMismatch {
            expected: table.dim(),
            found: coalesced.grads().cols(),
        });
    }
    if let Some(&bad) = coalesced
        .rows()
        .iter()
        .find(|&&r| r as usize >= table.rows())
    {
        return Err(EmbeddingError::SrcOutOfBounds {
            src: bad,
            rows: table.rows(),
        });
    }
    optimizer.with_update(|update| {
        for (i, &row) in coalesced.rows().iter().enumerate() {
            update(row, table.row_mut(row as usize), coalesced.grads().row(i));
        }
    });
    Ok(())
}

/// The production scatter: applies one table's coalesced gradient — what
/// the backward pass left in its [`CoalescedScratch`], keyed by table row —
/// through the table's optimizer, serially or on a pool ([`Exec`]):
/// **bit-identical** to [`scatter_apply`] for every `Exec`.
///
/// Coalescing guarantees each table row appears exactly once (rows are
/// strictly ascending — enforced here), so any cut of the rows at a fence
/// of row ids touches **disjoint table rows and disjoint optimizer state**.
/// A serial scatter is one task. A pooled one cuts the rows into
/// `exec.threads()` equal-count bands, the last closed just past the last
/// touched row, so optimizer state never grows beyond the touched prefix.
/// Each task gets its `split_at_mut` slice of the table, its
/// [`crate::optim::RowOptimizerBand`] of the state and its piece of `rows`,
/// and runs the per-row loop the serial path runs — the scatter-side dual
/// of the banded gather-reduce, and the row-disjointness RecNMP/MP-Rec
/// exploit to spread sparse updates across parallel units. The serial path
/// allocates nothing.
///
/// # Errors
///
/// [`EmbeddingError::InvalidIndex`] if the rows are not strictly ascending
/// (i.e. not coalesced); [`EmbeddingError::LengthMismatch`] if `rows` and
/// `grads` disagree; [`EmbeddingError::DimMismatch`] on a gradient width other
/// than the table's (checked when there are rows);
/// [`EmbeddingError::SrcOutOfBounds`] if a row falls outside the table.
pub fn scatter_apply_coalesced(
    table: &mut EmbeddingTable,
    optimizer: &mut RowOptimizer,
    part: &CoalescedScratch,
    exec: Exec<'_>,
) -> Result<(), EmbeddingError> {
    let CoalescedScratch { rows, grads, .. } = part;
    let grads = Grads::Coalesced(grads);
    scatter_parts(table, optimizer, rows, grads, &mut [], exec)
}

/// One casted index array, as [`scatter_apply_casted`] reads it
/// (`tcast-core`'s `CastedIndexArray`, which this crate cannot name).
///
/// `gather_src` and `reduce_dst` have one entry per lookup; `reduce_dst`
/// is non-decreasing and indexes `unique_rows`.
pub trait CastedLookups {
    /// Per lookup, the upstream gradient row to gather.
    fn gather_src(&self) -> &[u32];
    /// Per lookup, the coalesced row (an index into
    /// [`CastedLookups::unique_rows`]) to reduce it into.
    fn reduce_dst(&self) -> &[u32];
    /// The table row each coalesced row updates, ascending.
    fn unique_rows(&self) -> &[u32];
}

/// Reusable block buffers of [`scatter_apply_casted`], one per concurrent
/// task; each keeps its capacity, so the warm serial path allocates
/// nothing.
#[derive(Debug, Default)]
pub struct BlockScratch {
    blocks: Vec<Vec<f32>>,
}

/// How one [`scatter_apply_casted`] call's wall-clock time divides between
/// accumulating the coalesced gradient blocks and applying them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CastedBackwardTimings {
    /// The casted gather-reduce half (Algorithm 3).
    pub gather_reduce: Duration,
    /// The optimizer-update half.
    pub scatter: Duration,
}

/// The casted backward and its scatter as one row-blocked pass: what
/// `casted_gather_reduce_into` followed by [`scatter_apply_coalesced`]
/// computes — **bit for bit**, table and optimizer state, for every
/// `block_rows` and `Exec` — without ever holding the whole coalesced
/// gradient.
///
/// Each task of the scatter (the same tasks [`scatter_apply_coalesced`]
/// cuts) walks its unique rows `block_rows` at a time. The lookups that
/// reduce into a block are one contiguous piece of the stream
/// (`reduce_dst` is non-decreasing), so the block's gradient is
/// accumulated by the gather-reduce loop into a `block_rows x dim` buffer
/// and at once applied by the scatter loop — both loops unchanged, the
/// buffer still in cache when the second reads it. That removes the
/// `U x D` write and read between the two operators (the paper's Section
/// IV-A traffic argument, taken one step further).
///
/// `casted` is the table's one casted index array, keyed by table row,
/// gathering from the `upstream` gradient table. Everything is validated
/// before the first table row is written: on any error the table and the
/// optimizer state are untouched.
///
/// # Errors
///
/// As [`scatter_apply_coalesced`], with `upstream`'s width as the
/// gradient width.
///
/// # Panics
///
/// Panics if `block_rows` is zero, if `gather_src` and `reduce_dst` differ
/// in length, or if a `gather_src` row lies outside `upstream`.
pub fn scatter_apply_casted(
    table: &mut EmbeddingTable,
    optimizer: &mut RowOptimizer,
    upstream: &Matrix,
    casted: &impl CastedLookups,
    block_rows: usize,
    scratch: &mut BlockScratch,
    exec: Exec<'_>,
) -> Result<CastedBackwardTimings, EmbeddingError> {
    assert!(block_rows > 0, "a block holds at least one row");
    let started = Instant::now();
    let clock = HalfClock::default();
    let (src, dst) = (casted.gather_src(), casted.reduce_dst());
    assert_eq!(src.len(), dst.len(), "one reduce_dst per gather_src");
    let grads = Grads::Casted {
        upstream,
        src,
        dst,
        block_rows,
        clock: &clock,
    };
    // No scatter runs more tasks than this. Only ever grown, so a warm
    // scratch allocates nothing.
    let tasks = exec.threads();
    if scratch.blocks.len() < tasks {
        scratch.blocks.resize_with(tasks, Vec::new);
    }
    let rows = casted.unique_rows();
    scatter_parts(table, optimizer, rows, grads, &mut scratch.blocks, exec)?;
    Ok(clock.split(started.elapsed()))
}

/// Where a scatter reads its gradients from.
#[derive(Clone, Copy)]
enum Grads<'a> {
    /// Materialized: one coalesced row per entry of `rows`.
    Coalesced(&'a Matrix),
    /// The casted lookup stream that sums `upstream` rows into them,
    /// accumulated `block_rows` coalesced rows at a time.
    Casted {
        upstream: &'a Matrix,
        src: &'a [u32],
        dst: &'a [u32],
        block_rows: usize,
        clock: &'a HalfClock,
    },
}

impl Grads<'_> {
    /// `(gradient rows, gradient width)` of a scatter of `rows` rows.
    fn shape(&self, rows: usize) -> (usize, usize) {
        match self {
            Grads::Coalesced(grads) => grads.shape(),
            Grads::Casted { upstream, .. } => (rows, upstream.cols()),
        }
    }
}

/// Time the tasks of one blocked backward spent in each half, summed over
/// tasks (a statistic: relaxed adds, read after the tasks have joined).
#[derive(Default)]
struct HalfClock {
    accumulate_ns: AtomicU64,
    update_ns: AtomicU64,
}

impl HalfClock {
    /// Divides `wall` in the ratio of the two sums: exact when one task
    /// ran, and still wall-clock time when several ran side by side.
    fn split(&self, wall: Duration) -> CastedBackwardTimings {
        let accumulate = self.accumulate_ns.load(Ordering::Relaxed) as f64;
        let update = self.update_ns.load(Ordering::Relaxed) as f64;
        let gather_reduce = if accumulate > 0.0 {
            wall.mul_f64(accumulate / (accumulate + update))
        } else {
            Duration::ZERO
        };
        CastedBackwardTimings {
            gather_reduce,
            scatter: wall - gather_reduce,
        }
    }
}

/// The scatter behind both entry points: validates, then cuts the work
/// into tasks over disjoint table rows and optimizer state and runs them
/// under `exec`. `rows` is the ascending row ids to update and `grads`
/// their gradients; `blocks` holds a buffer per task when the gradients
/// are [`Grads::Casted`].
fn scatter_parts(
    table: &mut EmbeddingTable,
    optimizer: &mut RowOptimizer,
    rows: &[u32],
    grads: Grads<'_>,
    blocks: &mut [Vec<f32>],
    exec: Exec<'_>,
) -> Result<(), EmbeddingError> {
    let table_rows = table.rows();
    let dim = table.dim();
    let (grad_rows, grad_dim) = grads.shape(rows.len());
    if rows.len() != grad_rows {
        return Err(EmbeddingError::LengthMismatch {
            expected: rows.len(),
            found: grad_rows,
        });
    }
    // Ascending order makes the last row the maximum, so it alone
    // bounds-checks the whole array.
    let Some(&last) = rows.last() else {
        return Ok(());
    };
    if grad_dim != dim {
        return Err(EmbeddingError::DimMismatch {
            expected: dim,
            found: grad_dim,
        });
    }
    if !rows.windows(2).all(|w| w[0] < w[1]) {
        return Err(EmbeddingError::InvalidIndex(
            "scatter requires coalesced rows (strictly ascending, unique)".into(),
        ));
    }
    if last as usize >= table_rows {
        return Err(EmbeddingError::SrcOutOfBounds {
            src: last,
            rows: table_rows,
        });
    }
    let mut blocks = blocks.iter_mut();
    let bands = exec.threads().min(rows.len());
    let Some(pool) = exec.pool().filter(|_| bands > 1) else {
        let slab = Slab {
            params: table.as_mut_slice(),
            first: 0,
        };
        optimizer.with_update(|update| run_task(update, slab, rows, 0, grads, blocks.next()));
        return Ok(());
    };
    // The fence of row ids the tasks are cut at: each equal-count band's
    // first row. Closed just past the last touched row, so dense optimizer
    // state is only grown to the touched prefix (a scatter touching low ids
    // on a huge table must not allocate table-sized state).
    let per = rows.len().div_ceil(bands);
    let mut fence = Vec::with_capacity(bands + 1);
    fence.push(0u32);
    fence.extend(rows.chunks(per).skip(1).map(|band| band[0]));
    fence.push(last.saturating_add(1));
    let mut table_rest = table.as_mut_slice();
    let mut lo = 0usize; // into `rows`
    let state_bands = optimizer.split_by_rows(&fence, dim);
    pool.scope(|scope| {
        for (mut state, pair) in state_bands.into_iter().zip(fence.windows(2)) {
            let (params, tail) =
                std::mem::take(&mut table_rest).split_at_mut((pair[1] - pair[0]) as usize * dim);
            table_rest = tail;
            let first = lo;
            lo += rows[lo..].partition_point(|&r| r < pair[1]);
            let band_rows = &rows[first..lo];
            if band_rows.is_empty() {
                continue;
            }
            let slab = Slab {
                params,
                first: pair[0],
            };
            let block = blocks.next();
            scope.spawn(move || {
                state.with_update(|update| run_task(update, slab, band_rows, first, grads, block));
            });
        }
    });
    Ok(())
}

/// The table rows one scatter task owns: `params` holds the rows from id
/// `first` on.
struct Slab<'t> {
    params: &'t mut [f32],
    first: u32,
}

/// One scatter task: updates `rows` — the scatter's row ids from index `lo`
/// on — in `slab` through `update`. Materialized gradients are applied in one
/// go; a casted stream is cut into blocks of coalesced rows, each
/// accumulated into `block` by the gather-reduce loop and applied from it
/// while it is still in cache.
fn run_task(
    update: &mut RowUpdate<'_>,
    mut slab: Slab<'_>,
    rows: &[u32],
    lo: usize,
    grads: Grads<'_>,
    block: Option<&mut Vec<f32>>,
) {
    match grads {
        Grads::Coalesced(grads) => {
            let dim = grads.cols();
            update_rows(update, &mut slab, rows, &grads.as_slice()[lo * dim..], dim);
        }
        Grads::Casted {
            upstream,
            src,
            dst,
            block_rows,
            clock,
        } => {
            let block = block.expect("a casted scatter brings a block buffer per task");
            let dim = upstream.cols();
            let kernel = tcast_tensor::simd::dispatch();
            let (mut accumulate, mut apply) = (Duration::ZERO, Duration::ZERO);
            // `dst` is non-decreasing: the lookups of coalesced rows
            // `first..first + n` are one contiguous piece of the stream.
            let mut from = dst.partition_point(|&d| (d as usize) < lo);
            for (b, block_ids) in rows.chunks(block_rows).enumerate() {
                let first = lo + b * block_rows;
                let to =
                    from + dst[from..].partition_point(|&d| (d as usize) < first + block_ids.len());
                let t0 = Instant::now();
                block.clear();
                block.resize(block_ids.len() * dim, 0.0);
                accumulate_band(
                    kernel,
                    upstream.as_slice(),
                    dim,
                    &src[from..to],
                    &dst[from..to],
                    first,
                    block,
                );
                let t1 = Instant::now();
                update_rows(update, &mut slab, block_ids, block, dim);
                accumulate += t1 - t0;
                apply += t1.elapsed();
                from = to;
            }
            let ns = |d: Duration| d.as_nanos() as u64;
            clock
                .accumulate_ns
                .fetch_add(ns(accumulate), Ordering::Relaxed);
            clock.update_ns.fetch_add(ns(apply), Ordering::Relaxed);
        }
    }
}

/// The one scatter loop: for each `k`, applies row `k` of `grads` (rows
/// of width `dim`) to table row `rows[k]` of `slab` through `update`, with
/// the table rows [`PREFETCH_WINDOW`] updates ahead prefetched under the
/// current one.
fn update_rows(
    update: &mut RowUpdate<'_>,
    slab: &mut Slab<'_>,
    rows: &[u32],
    grads: &[f32],
    dim: usize,
) {
    let at = |row: u32| (row - slab.first) as usize * dim;
    for (k, &row) in rows.iter().enumerate() {
        if let Some(&ahead) = rows.get(k + PREFETCH_WINDOW) {
            prefetch(&slab.params[at(ahead)..at(ahead) + dim]);
        }
        update(
            row,
            &mut slab.params[at(row)..at(row) + dim],
            &grads[k * dim..(k + 1) * dim],
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coalesce::gradient_expand_coalesce;
    use crate::index::IndexArray;
    use crate::optim::{RowOptimizer, UpdateRule};
    use tcast_pool::Pool;

    fn coalesced(rows: &[u32], grads: Matrix) -> CoalescedGradients {
        CoalescedGradients::new(rows.to_vec(), grads).unwrap()
    }

    fn part(rows: &[u32], grads: Matrix) -> CoalescedScratch {
        let mut part = CoalescedScratch::default();
        part.rows.extend_from_slice(rows);
        part.grads = grads;
        part
    }

    fn sgd(lr: f32) -> RowOptimizer {
        RowOptimizer::new(UpdateRule::Sgd { lr })
    }

    /// The production scatter through a fresh SGD (lr 1) optimizer.
    fn scatter(
        table: &mut EmbeddingTable,
        part: &CoalescedScratch,
        exec: Exec<'_>,
    ) -> Result<(), EmbeddingError> {
        scatter_apply_coalesced(table, &mut sgd(1.0), part, exec)
    }

    #[test]
    fn scatter_updates_only_touched_rows() {
        let mut table = EmbeddingTable::zeros(6, 2);
        let c = coalesced(
            &[1, 4],
            Matrix::from_rows(&[&[1.0, 1.0], &[2.0, 2.0]]).unwrap(),
        );
        scatter_apply(&mut table, &c, &mut sgd(1.0)).unwrap();
        assert_eq!(table.row(1), &[-1.0, -1.0]);
        assert_eq!(table.row(4), &[-2.0, -2.0]);
        for r in [0usize, 2, 3, 5] {
            assert_eq!(table.row(r), &[0.0, 0.0]);
        }
    }

    #[test]
    fn scatter_validates_bounds_and_dims() {
        let mut table = EmbeddingTable::zeros(3, 2);
        let too_wide = coalesced(&[0], Matrix::zeros(1, 3));
        assert!(scatter_apply(&mut table, &too_wide, &mut sgd(1.0)).is_err());
        let oob = coalesced(&[3], Matrix::zeros(1, 2));
        assert!(scatter_apply(&mut table, &oob, &mut sgd(1.0)).is_err());
    }

    #[test]
    fn full_backward_matches_manual_sgd() {
        // End-to-end Fig. 2b: expand + coalesce + scatter with SGD equals
        // subtracting lr * (sum of upstream grads whose lookups hit the row).
        let index = IndexArray::from_samples(&[vec![1, 2, 4], vec![0, 2]]).unwrap();
        let upstream = Matrix::from_rows(&[&[1.0], &[2.0]]).unwrap();
        let mut table = EmbeddingTable::zeros(6, 1);
        let c = gradient_expand_coalesce(&upstream, &index).unwrap();
        scatter_apply(&mut table, &c, &mut sgd(0.5)).unwrap();
        assert_eq!(table.row(0), &[-1.0]); // G[1]*0.5
        assert_eq!(table.row(1), &[-0.5]); // G[0]*0.5
        assert_eq!(table.row(2), &[-1.5]); // (G[0]+G[1])*0.5
        assert_eq!(table.row(3), &[0.0]);
        assert_eq!(table.row(4), &[-0.5]);
    }

    /// Row 2's two unit gradients applied one after the other (uncoalesced)
    /// and as their coalesced sum.
    fn duplicate_vs_coalesced(rule: UpdateRule) -> (EmbeddingTable, EmbeddingTable) {
        let one = coalesced(&[2], Matrix::from_rows(&[&[1.0]]).unwrap());
        let mut sequential = EmbeddingTable::zeros(3, 1);
        let mut opt = RowOptimizer::new(rule);
        scatter_apply(&mut sequential, &one, &mut opt).unwrap();
        scatter_apply(&mut sequential, &one, &mut opt).unwrap();
        let sum = coalesced(&[2], Matrix::from_rows(&[&[2.0]]).unwrap());
        let mut together = EmbeddingTable::zeros(3, 1);
        scatter_apply(&mut together, &sum, &mut RowOptimizer::new(rule)).unwrap();
        (sequential, together)
    }

    #[test]
    fn uncoalesced_scatter_diverges_for_stateful_optimizers() {
        // The Section II-B argument: applying duplicate gradients
        // sequentially through Adagrad is NOT the same as coalescing first,
        // because the accumulator update is nonlinear in G.
        let (seq, coal) = duplicate_vs_coalesced(UpdateRule::Adagrad { lr: 0.1, eps: 0.0 });
        let diff = seq.max_abs_diff(&coal).unwrap();
        assert!(
            diff > 1e-3,
            "sequential duplicate updates should differ from coalesced (diff={diff})"
        );
    }

    #[test]
    fn uncoalesced_scatter_is_fine_for_plain_sgd() {
        // For linear SGD the two are identical — which is why the paper
        // notes frameworks coalesce anyway, to support *all* optimizers.
        let (seq, coal) = duplicate_vs_coalesced(UpdateRule::Sgd { lr: 0.1 });
        assert!(seq.max_abs_diff(&coal).unwrap() < 1e-6);
    }

    // Bit-identity of `scatter_apply_coalesced` against `scatter_apply`,
    // for every optimizer x Exec, lives in `tests/scatter_parallel.rs`;
    // these cover what it rejects.

    #[test]
    fn empty_and_single_row_scatters() {
        let pool = Pool::new(2);
        let exec = Exec::pooled(&pool);
        let mut table = EmbeddingTable::seeded(10, 2, 3);
        let before = table.clone();
        scatter(&mut table, &part(&[], Matrix::zeros(0, 2)), exec).unwrap();
        scatter(&mut table, &CoalescedScratch::default(), exec).unwrap();
        assert_eq!(table.as_slice(), before.as_slice());
        let one = part(&[7], Matrix::from_rows(&[&[1.0, 1.0]]).unwrap());
        scatter(&mut table, &one, exec).unwrap();
        assert_eq!(table.row(7)[0], before.row(7)[0] - 1.0);
    }

    #[test]
    fn rejects_uncoalesced_rows() {
        let pool = Pool::new(2);
        let mut table = EmbeddingTable::zeros(10, 1);
        for rows in [[3u32, 3], [5, 2]] {
            for exec in [Exec::Serial, Exec::pooled(&pool)] {
                let part = part(&rows, Matrix::zeros(2, 1));
                let err = scatter(&mut table, &part, exec).unwrap_err();
                assert!(matches!(err, EmbeddingError::InvalidIndex(_)), "{err:?}");
            }
        }
    }

    #[test]
    fn validates_bounds_and_shapes() {
        let pool = Pool::new(2);
        let mut table = EmbeddingTable::zeros(4, 2);
        for exec in [Exec::Serial, Exec::pooled(&pool)] {
            let mut scatter = |rows: &[u32], grads: Matrix| {
                scatter(&mut table, &part(rows, grads), exec).unwrap_err()
            };
            // Row id beyond the table.
            let err = scatter(&[4], Matrix::zeros(1, 2));
            assert!(matches!(
                err,
                EmbeddingError::SrcOutOfBounds { src: 4, rows: 4 }
            ));
            // Gradient width mismatch.
            let err = scatter(&[0], Matrix::zeros(1, 3));
            assert!(matches!(err, EmbeddingError::DimMismatch { .. }));
            // Row count mismatch.
            let err = scatter(&[0], Matrix::zeros(2, 2));
            assert!(matches!(err, EmbeddingError::LengthMismatch { .. }));
        }
    }

    /// Rows that all lie in a short prefix of a large table: the casted
    /// scatter's state stops at the touched prefix, on every `Exec` (the
    /// pooled fence closes just past the last row).
    #[test]
    fn state_stays_bounded_by_the_touched_prefix() {
        struct Lookups(Vec<u32>);
        impl CastedLookups for Lookups {
            fn gather_src(&self) -> &[u32] {
                &self.0
            }
            fn reduce_dst(&self) -> &[u32] {
                &self.0
            }
            fn unique_rows(&self) -> &[u32] {
                &self.0
            }
        }
        let (rows, dim, touched) = (1usize << 20, 2usize, 40u32);
        let casted = Lookups((0..touched).collect());
        let upstream = Matrix::filled(touched as usize, dim, 0.5);
        let pool = Pool::new(3);
        for exec in [Exec::Serial, Exec::pooled(&pool)] {
            let mut table = EmbeddingTable::zeros(rows, dim);
            let mut opt = RowOptimizer::new(UpdateRule::Adam {
                lr: 0.1,
                beta1: 0.9,
                beta2: 0.999,
                eps: 1e-8,
            });
            let mut scratch = BlockScratch::default();
            for _ in 0..2 {
                scatter_apply_casted(
                    &mut table,
                    &mut opt,
                    &upstream,
                    &casted,
                    16,
                    &mut scratch,
                    exec,
                )
                .unwrap();
            }
            assert_eq!(opt.tracked_rows(), touched as usize, "{exec:?}");
            let mut state = Vec::new();
            opt.save_state(&mut state);
            // Two planes and the step counts, each at most doubled past
            // the last touched row.
            let per_row = 2 * (dim * 4 + 1) + 4;
            assert!(
                state.len() <= 2 * touched as usize * per_row + 64,
                "{exec:?}: {} state bytes for {touched} touched rows",
                state.len()
            );
        }
    }
}
