//! Gradient scatter (Fig. 2b step 3): writing the coalesced gradients back
//! into the embedding table through an optimizer.
//!
//! Scatter is the dual of gather — the paper stresses (Section IV-C) that
//! both run over "the same datapath, just in the opposite directions",
//! which is what lets one NMP core design serve the whole training loop.
//!
//! Three entry points: [`scatter_apply`], the serial reference every other
//! scatter in the workspace (these, the NMP pool's) is tested against, and
//! the two the trainer runs — any [`Exec`], any shard count, bit-identical
//! to the reference: [`scatter_apply_sharded`] applies a materialized
//! coalesced gradient (the baseline backward's), and
//! [`scatter_apply_casted`] produces the coalesced gradient from the casted
//! lookup stream a block of rows at a time as it applies it (the casted
//! backward's). Both are the same validation, the same split into tasks and
//! the same per-row loop; they differ in where a task's gradient rows come
//! from.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::coalesce::{CoalescedGradients, CoalescedScratch};
use crate::error::EmbeddingError;
use crate::gather::accumulate_band;
use crate::optim::{RowUpdate, ShardedOptimizer, SparseOptimizer};
use crate::table::EmbeddingTable;
use tcast_pool::Exec;
use tcast_tensor::simd::{prefetch, PREFETCH_WINDOW};
use tcast_tensor::Matrix;

/// Applies coalesced gradients to the table: for every `(row, grad)` pair,
/// `table[row] <- optimizer(table[row], grad)`, serially through any
/// [`SparseOptimizer`]. The reference scatter (see the module docs).
///
/// # Errors
///
/// Returns [`EmbeddingError::SrcOutOfBounds`] if a row id exceeds the
/// table, or [`EmbeddingError::DimMismatch`] if gradient width differs
/// from the table dimension.
pub fn scatter_apply(
    table: &mut EmbeddingTable,
    coalesced: &CoalescedGradients,
    optimizer: &mut dyn SparseOptimizer,
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
    for (i, &row) in coalesced.rows().iter().enumerate() {
        optimizer.update_row(row, table.row_mut(row as usize), coalesced.grads().row(i));
    }
    Ok(())
}

/// The production scatter: applies coalesced gradients to a table whose
/// optimizer state is placed by a [`ShardedOptimizer`], serially or on a
/// pool ([`Exec`]) — **bit-identical** to [`scatter_apply`] through one
/// unsharded optimizer for every shard count, band count and `Exec`.
///
/// `parts` is what the backward pass left in its [`CoalescedScratch`]
/// buffers, in one of two shapes:
///
/// * **one** array keyed by *global* row id — the baseline path's
///   `gradient_coalesce_into` output, or either path on an unsharded
///   table (with one shard, global and shard-local ids coincide);
/// * **one array per shard**, keyed by *shard-local* row id — per-shard
///   `casted_gather_reduce_into` outputs (the casting pipeline routed the
///   indices per shard, so no global merge is ever materialized).
///
/// Coalescing guarantees each table row appears exactly once (rows are
/// strictly ascending — enforced here), so any partition of the rows
/// touches **disjoint table rows and disjoint optimizer state**. With one
/// shard, the rows split into equal-count bands, each updating its
/// `split_at_mut` table slice plus its [`crate::optim::RowOptimizerBand`] state band;
/// with more, each shard updates its slice of the table through its own
/// optimizer shard (a global-keyed array is cut at the shard fences with
/// `partition_point`, zero-copy). Every task runs the same per-row loop
/// the serial path runs — the scatter-side dual of the banded
/// gather-reduce, and the row-disjointness RecNMP/MP-Rec exploit to
/// spread sparse updates across parallel units. The serial path
/// allocates nothing.
///
/// # Errors
///
/// [`EmbeddingError::InvalidIndex`] if the optimizer's
/// [`crate::sharding::ShardMap`] does not cover exactly `table.rows()`,
/// if `parts` holds neither one array nor one per shard, or if an array's
/// rows are not strictly ascending (i.e. not coalesced);
/// [`EmbeddingError::LengthMismatch`] if an array's `rows` and `grads`
/// disagree; [`EmbeddingError::DimMismatch`] on a gradient width other
/// than the table's (checked for non-empty arrays);
/// [`EmbeddingError::SrcOutOfBounds`] (with the **global** row id) if a
/// row falls outside the table or its shard.
pub fn scatter_apply_sharded(
    table: &mut EmbeddingTable,
    optimizer: &mut ShardedOptimizer,
    parts: &[CoalescedScratch],
    exec: Exec<'_>,
) -> Result<(), EmbeddingError> {
    let part = |p: usize| {
        let CoalescedScratch { rows, grads, .. } = &parts[p];
        (rows.as_slice(), Grads::Coalesced(grads))
    };
    scatter_parts(table, optimizer, parts.len(), part, &mut [], exec)
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
/// `casted_gather_reduce_into` followed by [`scatter_apply_sharded`]
/// computes — **bit for bit**, table and optimizer state, for every
/// `block_rows`, shard count and `Exec` — without ever holding a part's
/// whole coalesced gradient.
///
/// Each task of the scatter (the same tasks [`scatter_apply_sharded`]
/// runs: equal-count row bands of an unsharded table, one task per shard
/// otherwise) walks its unique rows `block_rows` at a time. The lookups
/// that reduce into a block are one contiguous piece of the stream
/// (`reduce_dst` is non-decreasing), so the block's gradient is
/// accumulated by the gather-reduce loop into a `block_rows x dim` buffer
/// and at once applied by the scatter loop — both loops unchanged, the
/// buffer still in cache when the second reads it. That removes the
/// `U x D` write and read between the two operators (the paper's Section
/// IV-A traffic argument, taken one step further).
///
/// `parts` is one casted array keyed by global row id, or one per shard
/// keyed by shard-local id (see [`scatter_apply_sharded`]); every part
/// gathers from the same `upstream` gradient table. Everything is
/// validated before the first table row is written: on any error the
/// table and the optimizer state are untouched.
///
/// # Errors
///
/// As [`scatter_apply_sharded`], with `upstream`'s width as the gradient
/// width.
///
/// # Panics
///
/// Panics if `block_rows` is zero, if a part's `gather_src` and
/// `reduce_dst` differ in length, or if a `gather_src` row lies outside
/// `upstream`.
pub fn scatter_apply_casted<P: CastedLookups>(
    table: &mut EmbeddingTable,
    optimizer: &mut ShardedOptimizer,
    upstream: &Matrix,
    parts: &[P],
    block_rows: usize,
    scratch: &mut BlockScratch,
    exec: Exec<'_>,
) -> Result<CastedBackwardTimings, EmbeddingError> {
    assert!(block_rows > 0, "a block holds at least one row");
    let started = Instant::now();
    let clock = HalfClock::default();
    let part = |p: usize| {
        let part = &parts[p];
        let (src, dst) = (part.gather_src(), part.reduce_dst());
        assert_eq!(src.len(), dst.len(), "one reduce_dst per gather_src");
        let grads = Grads::Casted {
            upstream,
            src,
            dst,
            block_rows,
            clock: &clock,
        };
        (part.unique_rows(), grads)
    };
    // No scatter runs more tasks than this. Only ever grown: tables of
    // different shard counts share one scratch.
    let tasks = exec.threads().max(optimizer.num_shards());
    if scratch.blocks.len() < tasks {
        scratch.blocks.resize_with(tasks, Vec::new);
    }
    scatter_parts(
        table,
        optimizer,
        parts.len(),
        part,
        &mut scratch.blocks,
        exec,
    )?;
    Ok(clock.split(started.elapsed()))
}

/// Where a scatter reads one part's gradients from.
#[derive(Clone, Copy)]
enum Grads<'a> {
    /// Materialized: one coalesced row per entry of the part's `rows`.
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
    /// `(gradient rows, gradient width)` a part of `rows` rows must have.
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

/// The scatter behind both entry points: validates every part, then cuts
/// the work into tasks over disjoint table rows and optimizer state and
/// runs them under `exec`. `part(p)` is part `p`'s ascending row ids and
/// its gradients; `blocks` holds a buffer per task when the gradients are
/// [`Grads::Casted`].
fn scatter_parts<'a>(
    table: &mut EmbeddingTable,
    optimizer: &mut ShardedOptimizer,
    num_parts: usize,
    part: impl Fn(usize) -> (&'a [u32], Grads<'a>),
    blocks: &mut [Vec<f32>],
    exec: Exec<'_>,
) -> Result<(), EmbeddingError> {
    let table_rows = table.rows();
    let dim = table.dim();
    let (map, opts) = optimizer.parts_mut();
    if map.rows() != table_rows {
        return Err(EmbeddingError::InvalidIndex(format!(
            "shard map covers {} rows but the table has {table_rows}",
            map.rows()
        )));
    }
    let global = num_parts == 1;
    if !global && num_parts != opts.len() {
        return Err(EmbeddingError::InvalidIndex(format!(
            "scatter needs one global-keyed array or one per shard ({}), got {num_parts}",
            opts.len(),
        )));
    }
    for s in 0..num_parts {
        let (base, span) = if global {
            (0, table_rows)
        } else {
            (map.shard_base(s), map.shard_rows(s))
        };
        let (rows, grads) = part(s);
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
            continue;
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
        if last as usize >= span {
            return Err(EmbeddingError::SrcOutOfBounds {
                src: base as u32 + last,
                rows: table_rows,
            });
        }
    }
    let mut blocks = blocks.iter_mut();
    if let [opt] = opts {
        // One shard: equal-count row bands within the slab.
        let (rows, grads) = part(0);
        let n = rows.len();
        let bands = exec.threads().min(n);
        let Some(pool) = exec.pool().filter(|_| bands > 1) else {
            let slab = Slab {
                params: table.as_mut_slice(),
                first: 0,
                key_base: 0,
            };
            opt.with_update(|update| run_task(update, slab, rows, 0, grads, blocks.next()));
            return Ok(());
        };
        // The row-id fence is each band's first row id, closed just past
        // the last touched row so dense optimizer state is only grown to
        // the touched prefix (a scatter touching low ids on a huge table
        // must not allocate table-sized state). Strictly ascending rows
        // make the fence strictly ascending too.
        let per = n.div_ceil(bands);
        let mut fence = Vec::with_capacity(bands + 1);
        fence.push(0u32);
        fence.extend(rows.chunks(per).skip(1).map(|band| band[0]));
        fence.push(rows[n - 1].saturating_add(1));
        let mut table_rest = table.as_mut_slice();
        let state_bands = opt.split_by_rows(&fence, dim);
        pool.scope(|scope| {
            for (b, mut state) in state_bands.into_iter().enumerate() {
                let (params, tail) = std::mem::take(&mut table_rest)
                    .split_at_mut((fence[b + 1] - fence[b]) as usize * dim);
                table_rest = tail;
                let band_rows = &rows[b * per..((b + 1) * per).min(n)];
                let slab = Slab {
                    params,
                    first: fence[b],
                    key_base: 0,
                };
                let block = blocks.next();
                scope.spawn(move || {
                    state.with_update(|update| {
                        run_task(update, slab, band_rows, b * per, grads, block)
                    });
                });
            }
        });
        return Ok(());
    }

    // Several shards: one task per shard, each on its slice of the table
    // and its own optimizer shard, keyed by shard-local row id.
    let mut table_rest = table.as_mut_slice();
    let mut cursor = 0usize; // into the global-keyed array
    let tasks = opts.iter_mut().enumerate().filter_map(|(s, opt)| {
        let (base, end) = (map.shard_base(s), map.shard_end(s));
        let (params, tail) = std::mem::take(&mut table_rest).split_at_mut((end - base) * dim);
        table_rest = tail;
        let block = blocks.next();
        let ((rows, grads), lo, key_base) = if global {
            let (rows, grads) = part(0);
            let lo = cursor;
            cursor += rows[lo..].partition_point(|&r| (r as usize) < end);
            ((&rows[lo..cursor], grads), lo, base as u32)
        } else {
            (part(s), 0, 0)
        };
        let slab = Slab {
            params,
            first: key_base,
            key_base,
        };
        (!rows.is_empty()).then_some(move || {
            opt.with_update(|update| run_task(update, slab, rows, lo, grads, block));
        })
    });
    match exec.pool().filter(|_| exec.threads() > 1) {
        Some(pool) => pool.scope(|scope| tasks.for_each(|task| scope.spawn(task))),
        None => tasks.for_each(|task| task()),
    }
    Ok(())
}

/// The table rows one scatter task owns: `params` holds the rows from id
/// `first` on (in the id space of the part's row ids), and the optimizer
/// state is keyed by `row - key_base` (a shard's local id).
struct Slab<'t> {
    params: &'t mut [f32],
    first: u32,
    key_base: u32,
}

/// One scatter task: updates `rows` — a part's row ids from index `lo` on
/// — in `slab` through `update`. Materialized gradients are applied in one
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
            row - slab.key_base,
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
    use crate::sharding::ShardMap;
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

    fn sgd_shards(rows: usize, shards: usize) -> ShardedOptimizer {
        ShardedOptimizer::new(ShardMap::new(rows, shards), UpdateRule::Sgd { lr: 1.0 })
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

    // Bit-identity of `scatter_apply_sharded` against `scatter_apply`, for
    // every optimizer x Exec x shard count x part shape, lives in
    // `tests/scatter_parallel.rs`; these cover what it rejects.

    #[test]
    fn empty_and_single_row_scatters() {
        let pool = Pool::new(2);
        let exec = Exec::pooled(&pool);
        let mut table = EmbeddingTable::seeded(10, 2, 3);
        let before = table.clone();
        let mut opt = sgd_shards(10, 1);
        scatter_apply_sharded(
            &mut table,
            &mut opt,
            &[part(&[], Matrix::zeros(0, 2))],
            exec,
        )
        .unwrap();
        scatter_apply_sharded(&mut table, &mut opt, &[CoalescedScratch::default()], exec).unwrap();
        assert_eq!(table.as_slice(), before.as_slice());
        let one = part(&[7], Matrix::from_rows(&[&[1.0, 1.0]]).unwrap());
        scatter_apply_sharded(&mut table, &mut opt, &[one], exec).unwrap();
        assert_eq!(table.row(7)[0], before.row(7)[0] - 1.0);
    }

    #[test]
    fn rejects_uncoalesced_rows() {
        let pool = Pool::new(2);
        let mut table = EmbeddingTable::zeros(10, 1);
        for shards in [1, 2] {
            let mut opt = sgd_shards(10, shards);
            for rows in [[3u32, 3], [5, 2]] {
                for exec in [Exec::Serial, Exec::pooled(&pool)] {
                    let parts = [part(&rows, Matrix::zeros(2, 1))];
                    let err =
                        scatter_apply_sharded(&mut table, &mut opt, &parts, exec).unwrap_err();
                    assert!(matches!(err, EmbeddingError::InvalidIndex(_)), "{err:?}");
                }
            }
        }
    }

    #[test]
    fn validates_bounds_and_shapes() {
        let pool = Pool::new(2);
        let mut table = EmbeddingTable::zeros(4, 2);
        for shards in [1, 2] {
            let mut opt = sgd_shards(4, shards);
            for exec in [Exec::Serial, Exec::pooled(&pool)] {
                let mut scatter = |rows: &[u32], grads: Matrix| {
                    scatter_apply_sharded(&mut table, &mut opt, &[part(rows, grads)], exec)
                        .unwrap_err()
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
    }

    #[test]
    fn validates_map_and_part_count() {
        let mut table = EmbeddingTable::zeros(10, 2);
        let row0 = || part(&[0], Matrix::zeros(1, 2));
        // Map that does not cover the table.
        let err = scatter_apply_sharded(&mut table, &mut sgd_shards(8, 2), &[row0()], Exec::Serial)
            .unwrap_err();
        assert!(matches!(err, EmbeddingError::InvalidIndex(_)), "{err:?}");
        // Neither one array nor one per shard.
        let mut opt = sgd_shards(10, 3);
        for parts in [vec![], vec![row0(), row0()]] {
            let err =
                scatter_apply_sharded(&mut table, &mut opt, &parts, Exec::Serial).unwrap_err();
            assert!(matches!(err, EmbeddingError::InvalidIndex(_)), "{err:?}");
        }
        // Local row beyond its shard (shard 0 of 2 spans 5 rows): reported
        // with its global id.
        let mut opt = sgd_shards(10, 2);
        let parts = [row0(), part(&[5], Matrix::zeros(1, 2))];
        let err = scatter_apply_sharded(&mut table, &mut opt, &parts, Exec::Serial).unwrap_err();
        assert!(
            matches!(err, EmbeddingError::SrcOutOfBounds { src: 10, rows: 10 }),
            "{err:?}"
        );
    }
}
