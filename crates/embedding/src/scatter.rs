//! Gradient scatter (Fig. 2b step 3): writing the coalesced gradients back
//! into the embedding table through an optimizer.
//!
//! Scatter is the dual of gather — the paper stresses (Section IV-C) that
//! both run over "the same datapath, just in the opposite directions",
//! which is what lets one NMP core design serve the whole training loop.
//!
//! Three entry points: [`scatter_apply`], the reference every other
//! scatter in the workspace (these, the NMP pool's) is tested against, and
//! the two the trainer runs, each bit-identical to the reference:
//! [`scatter_apply_coalesced`] applies a materialized coalesced gradient
//! (the baseline backward's), and [`scatter_apply_casted`] produces the
//! coalesced gradient from the casted lookup stream a block of rows at a
//! time as it applies it (the casted backward's). Both are the same
//! validation and the same per-row loop on the calling thread; they differ
//! in where the gradient rows come from.
//!
//! All three reach optimizer state the one way there is:
//! [`RowOptimizer::with_update`] over rows `[0, last + 1)`, grown before
//! the first update.

use std::time::{Duration, Instant};

use crate::coalesce::CoalescedGradients;
use crate::error::EmbeddingError;
use crate::gather::accumulate_block;
use crate::optim::{RowOptimizer, RowUpdate};
use crate::table::EmbeddingTable;
use tcast_tensor::simd::{prefetch, PREFETCH_WINDOW};
use tcast_tensor::Matrix;

/// Applies coalesced gradients to the table: for every `(row, grad)` pair,
/// `table[row] <- optimizer(table[row], grad)`, one row at a time. The
/// reference scatter (see the module docs).
///
/// # Errors
///
/// As [`scatter_apply_coalesced`].
pub fn scatter_apply(
    table: &mut EmbeddingTable,
    coalesced: &CoalescedGradients,
    optimizer: &mut RowOptimizer,
) -> Result<(), EmbeddingError> {
    let (rows, grads) = (coalesced.rows(), coalesced.grads());
    let Some(end) = validate(table, rows, grads.shape())? else {
        return Ok(());
    };
    optimizer.with_update(end, table.dim(), |update| {
        for (i, &row) in rows.iter().enumerate() {
            update(row, table.row_mut(row as usize), grads.row(i));
        }
    });
    Ok(())
}

/// The production scatter: applies one table's coalesced gradient — what
/// the backward pass left in its [`CoalescedGradients`], keyed by table
/// row — through the table's optimizer, **bit-identical** to
/// [`scatter_apply`], with the table rows a few updates ahead prefetched.
/// Allocates nothing.
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
    coalesced: &CoalescedGradients,
) -> Result<(), EmbeddingError> {
    let (rows, grads) = (coalesced.rows(), coalesced.grads());
    let Some(end) = validate(table, rows, grads.shape())? else {
        return Ok(());
    };
    let dim = table.dim();
    let params = table.as_mut_slice();
    optimizer.with_update(end, dim, |update| {
        update_rows(update, params, rows, grads.as_slice(), dim);
    });
    Ok(())
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

/// The reusable block buffer of [`scatter_apply_casted`]; it keeps its
/// capacity, so the warm path allocates nothing.
#[derive(Debug, Default)]
pub struct BlockScratch {
    block: Vec<f32>,
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
/// `block_rows` — without ever holding the whole coalesced gradient.
///
/// The unique rows are walked `block_rows` at a time. The lookups that
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
) -> Result<CastedBackwardTimings, EmbeddingError> {
    assert!(block_rows > 0, "a block holds at least one row");
    let started = Instant::now();
    let (src, dst, rows) = (
        casted.gather_src(),
        casted.reduce_dst(),
        casted.unique_rows(),
    );
    assert_eq!(src.len(), dst.len(), "one reduce_dst per gather_src");
    let dim = upstream.cols();
    let (mut accumulate, mut apply) = (Duration::ZERO, Duration::ZERO);
    if let Some(end) = validate(table, rows, (rows.len(), dim))? {
        let (params, block) = (table.as_mut_slice(), &mut scratch.block);
        let kernel = tcast_tensor::simd::dispatch();
        optimizer.with_update(end, dim, |update| {
            // `dst` is non-decreasing: the lookups of coalesced rows
            // `first..first + n` are one contiguous piece of the stream.
            let mut from = 0;
            for (b, block_ids) in rows.chunks(block_rows).enumerate() {
                let first = b * block_rows;
                let to =
                    from + dst[from..].partition_point(|&d| (d as usize) < first + block_ids.len());
                let t0 = Instant::now();
                block.clear();
                block.resize(block_ids.len() * dim, 0.0);
                let (src, dst) = (&src[from..to], &dst[from..to]);
                accumulate_block(kernel, upstream.as_slice(), dim, src, dst, first, block);
                let t1 = Instant::now();
                update_rows(update, params, block_ids, block, dim);
                accumulate += t1 - t0;
                apply += t1.elapsed();
                from = to;
            }
        });
    }
    // The call's wall time, divided in the ratio of the two halves' sums.
    let wall = started.elapsed();
    let (accumulate, apply) = (accumulate.as_nanos() as f64, apply.as_nanos() as f64);
    let gather_reduce = if accumulate > 0.0 {
        wall.mul_f64(accumulate / (accumulate + apply))
    } else {
        Duration::ZERO
    };
    Ok(CastedBackwardTimings {
        gather_reduce,
        scatter: wall - gather_reduce,
    })
}

/// Checks a scatter of `rows` (ascending row ids) with gradients of
/// `(rows, width)` `shape` into `table`; then, when there are rows,
/// returns the end of the rows it touches, `last + 1`. Nothing is written
/// before every check has passed.
fn validate(
    table: &EmbeddingTable,
    rows: &[u32],
    (grad_rows, grad_dim): (usize, usize),
) -> Result<Option<usize>, EmbeddingError> {
    if rows.len() != grad_rows {
        return Err(EmbeddingError::LengthMismatch {
            expected: rows.len(),
            found: grad_rows,
        });
    }
    // Ascending order makes the last row the maximum, so it alone
    // bounds-checks the whole array.
    let Some(&last) = rows.last() else {
        return Ok(None);
    };
    if grad_dim != table.dim() {
        return Err(EmbeddingError::DimMismatch {
            expected: table.dim(),
            found: grad_dim,
        });
    }
    if !rows.windows(2).all(|w| w[0] < w[1]) {
        return Err(EmbeddingError::InvalidIndex(
            "scatter requires coalesced rows (strictly ascending, unique)".into(),
        ));
    }
    if last as usize >= table.rows() {
        return Err(EmbeddingError::SrcOutOfBounds {
            src: last,
            rows: table.rows(),
        });
    }
    Ok(Some(last as usize + 1))
}

/// The one scatter loop: for each `k`, applies row `k` of `grads` (rows
/// of width `dim`) to table row `rows[k]` of `params` through `update`,
/// with the table rows [`PREFETCH_WINDOW`] updates ahead prefetched under
/// the current one.
fn update_rows(
    update: &mut RowUpdate<'_>,
    params: &mut [f32],
    rows: &[u32],
    grads: &[f32],
    dim: usize,
) {
    let at = |row: u32| row as usize * dim;
    for (k, &row) in rows.iter().enumerate() {
        if let Some(&ahead) = rows.get(k + PREFETCH_WINDOW) {
            prefetch(&params[at(ahead)..at(ahead) + dim]);
        }
        update(
            row,
            &mut params[at(row)..at(row) + dim],
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

    fn coalesced(rows: &[u32], grads: Matrix) -> CoalescedGradients {
        CoalescedGradients::new(rows.to_vec(), grads).unwrap()
    }

    /// `rows` and `grads` as given: unchecked, unlike
    /// `CoalescedGradients::new`, so the scatter's own checks are what
    /// runs.
    fn part(rows: &[u32], grads: Matrix) -> CoalescedGradients {
        let mut part = CoalescedGradients::default();
        let dim = grads.cols();
        *part.reset(rows, dim) = grads;
        part
    }

    fn sgd(lr: f32) -> RowOptimizer {
        RowOptimizer::new(UpdateRule::Sgd { lr })
    }

    /// The production scatter through a fresh SGD (lr 1) optimizer.
    fn scatter(
        table: &mut EmbeddingTable,
        part: &CoalescedGradients,
    ) -> Result<(), EmbeddingError> {
        scatter_apply_coalesced(table, &mut sgd(1.0), part)
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
    // for every optimizer, lives in `tests/scatter_parallel.rs`; these
    // cover what it rejects.

    #[test]
    fn empty_and_single_row_scatters() {
        let mut table = EmbeddingTable::seeded(10, 2, 3);
        let before = table.clone();
        scatter(&mut table, &part(&[], Matrix::zeros(0, 2))).unwrap();
        scatter(&mut table, &CoalescedGradients::default()).unwrap();
        assert_eq!(table.as_slice(), before.as_slice());
        let one = part(&[7], Matrix::from_rows(&[&[1.0, 1.0]]).unwrap());
        scatter(&mut table, &one).unwrap();
        assert_eq!(table.row(7)[0], before.row(7)[0] - 1.0);
    }

    #[test]
    fn rejects_uncoalesced_rows() {
        let mut table = EmbeddingTable::zeros(10, 1);
        for rows in [[3u32, 3], [5, 2]] {
            let part = part(&rows, Matrix::zeros(2, 1));
            let err = scatter(&mut table, &part).unwrap_err();
            assert!(matches!(err, EmbeddingError::InvalidIndex(_)), "{err:?}");
        }
    }

    #[test]
    fn validates_bounds_and_shapes() {
        let mut table = EmbeddingTable::zeros(4, 2);
        let mut scatter =
            |rows: &[u32], grads: Matrix| scatter(&mut table, &part(rows, grads)).unwrap_err();
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

    /// `rows` as a casted lookup stream: one lookup a row, gathering
    /// upstream row `k` into coalesced row `k`.
    struct OneLookupEach {
        rows: Vec<u32>,
        ids: Vec<u32>,
    }

    impl CastedLookups for OneLookupEach {
        fn gather_src(&self) -> &[u32] {
            &self.ids
        }
        fn reduce_dst(&self) -> &[u32] {
            &self.ids
        }
        fn unique_rows(&self) -> &[u32] {
            &self.rows
        }
    }

    const ADAGRAD: UpdateRule = UpdateRule::Adagrad { lr: 0.1, eps: 1e-8 };
    const ADAM: UpdateRule = UpdateRule::Adam {
        lr: 0.1,
        beta1: 0.9,
        beta2: 0.999,
        eps: 1e-8,
    };

    /// Rows of state the optimizer keeps: its first plane's row count.
    fn state_rows(opt: &RowOptimizer) -> u64 {
        opt.planes()
            .next()
            .map_or(0, |(_, _, touched)| touched.len() as u64)
    }

    /// One scatter of `rows`, each with gradient 0.5, through one entry
    /// point: the reference, or the coalesced or the casted scatter.
    fn scatter_every_way(
        table: &mut EmbeddingTable,
        opt: &mut RowOptimizer,
        rows: &[u32],
        entry: usize,
    ) {
        let grads = Matrix::filled(rows.len(), table.dim(), 0.5);
        match entry {
            0 => scatter_apply(table, &coalesced(rows, grads), opt).unwrap(),
            1 => scatter_apply_coalesced(table, opt, &coalesced(rows, grads)).unwrap(),
            _ => {
                let ids = (0..rows.len() as u32).collect();
                let casted = OneLookupEach {
                    rows: rows.to_vec(),
                    ids,
                };
                let mut scratch = BlockScratch::default();
                scatter_apply_casted(table, opt, &grads, &casted, 16, &mut scratch).unwrap();
            }
        }
    }

    /// Two scatters far up a 400k-row table, the second past the first's
    /// last row: the state ends one row past the highest row updated,
    /// whichever entry point ran them — never doubled.
    #[test]
    fn state_ends_just_past_the_highest_row_updated() {
        for rule in [ADAGRAD, ADAM] {
            for entry in 0..3 {
                let mut table = EmbeddingTable::zeros(400_000, 1);
                let mut opt = RowOptimizer::new(rule);
                for rows in [&[10, 399_500][..], &[399_800]] {
                    scatter_every_way(&mut table, &mut opt, rows, entry);
                }
                let what = format!("{} through entry {entry}", rule.name());
                assert_eq!(state_rows(&opt), 399_801, "{what}");
                assert_eq!(opt.tracked_rows(), 3, "{what}");
            }
        }
    }

    /// Rows that all lie in a short prefix of a large table: the state
    /// stops at the touched prefix.
    #[test]
    fn state_stays_bounded_by_the_touched_prefix() {
        let (rows, dim, touched) = (1usize << 20, 2usize, 40u32);
        let prefix: Vec<u32> = (0..touched).collect();
        let mut table = EmbeddingTable::zeros(rows, dim);
        let mut opt = RowOptimizer::new(ADAM);
        for _ in 0..2 {
            scatter_every_way(&mut table, &mut opt, &prefix, 2);
        }
        assert_eq!(opt.tracked_rows(), touched as usize);
        assert_eq!(state_rows(&opt), u64::from(touched));
    }
}
