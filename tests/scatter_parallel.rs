//! Property suite for the production scatter, `scatter_apply_sharded`:
//! for any coalesced workload, every optimizer, every `Exec`, every shard
//! count and both shapes of its input (one global-keyed array, or one
//! shard-local array per shard), tables **and optimizer state** must be
//! bit-identical to the serial reference `scatter_apply` through one
//! plain optimizer.
//!
//! This is the scatter-side mirror of the casted-backward equivalence
//! property: coalesced rows are unique, so any split of the `(rows,
//! grads)` arrays — contiguous row bands, or the shard map's fences —
//! gives each task a disjoint table slice and disjoint optimizer state,
//! and the per-row update math is exactly the serial optimizer's.

use proptest::prelude::*;
use std::sync::OnceLock;
use tensor_casting::embedding::{
    optim::{Adagrad, Adam, Momentum, RmsProp, Sgd, SparseOptimizer, SplittableOptimizer},
    scatter_apply, scatter_apply_sharded, CoalescedGradients, CoalescedScratch, EmbeddingError,
    EmbeddingTable, ShardMap, ShardedOptimizer,
};
use tensor_casting::tensor::{Exec, Matrix, Pool, SplitMix64};

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool::new(4))
}

const OPTIMIZERS: usize = 5;

fn optimizer(i: usize) -> Box<dyn SplittableOptimizer> {
    match i {
        0 => Box::new(Sgd::new(0.1)),
        1 => Box::new(Momentum::new(0.1, 0.9)),
        2 => Box::new(Adagrad::new(0.1, 1e-8)),
        3 => Box::new(RmsProp::new(0.1, 0.9, 1e-8)),
        _ => Box::new(Adam::new(0.01, 0.9, 0.999, 1e-8)),
    }
}

fn part(rows: &[u32], grads: Matrix) -> CoalescedScratch {
    let mut part = CoalescedScratch::default();
    part.rows.extend_from_slice(rows);
    part.grads = grads;
    part
}

/// Cuts a global ascending coalesced workload at the shard fences into
/// per-shard `(local rows, grads)` arrays, the shape the casted sharded
/// backward produces.
fn split_local(map: &ShardMap, rows: &[u32], grads: &Matrix) -> Vec<CoalescedScratch> {
    let mut lo = 0usize;
    (0..map.num_shards())
        .map(|s| {
            let base = map.shard_base(s) as u32;
            let hi = lo + rows[lo..].partition_point(|&r| (r as usize) < map.shard_end(s));
            let local: Vec<u32> = rows[lo..hi].iter().map(|&r| r - base).collect();
            let mut g = Matrix::zeros(hi - lo, grads.cols());
            for (k, i) in (lo..hi).enumerate() {
                g.row_mut(k).copy_from_slice(grads.row(i));
            }
            lo = hi;
            part(&local, g)
        })
        .collect()
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Reads an optimizer's whole per-row state out through its only door:
/// one unit-gradient update of every row of a zero table. The resulting
/// parameters are a function of each row's accumulators (velocity,
/// squared-gradient sums, Adam's moments and step count), so equal bits
/// here mean equal state — however the slabs behind it were grown, banded
/// or sharded.
fn probe_state(opt: &mut dyn SparseOptimizer, table_rows: usize, dim: usize) -> Vec<u32> {
    let mut probe = EmbeddingTable::zeros(table_rows, dim);
    let ones = vec![1.0f32; dim];
    for row in 0..table_rows {
        opt.update_row(row as u32, probe.row_mut(row), &ones);
    }
    bits(probe.as_slice())
}

/// Three scatters of `rows` (coalesced: unique, ascending) through every
/// optimizer, reference vs. the production entry under the whole
/// `Exec x shards x key-shape` matrix. Several scatters through the SAME
/// optimizer instances, so a state divergence in step k also corrupts
/// every table update after it.
fn check_scatter(table_rows: usize, dim: usize, rows: &[u32], seed: u64) -> Result<(), String> {
    let mut rng = SplitMix64::new(seed);
    let steps: Vec<Matrix> = (0..3)
        .map(|_| {
            let mut grads = Matrix::zeros(rows.len(), dim);
            for v in grads.as_mut_slice() {
                *v = rng.next_range(-1.0, 1.0);
            }
            grads
        })
        .collect();
    let execs = [1usize, 2, 3, 8]
        .map(|threads| Exec::Pooled {
            pool: pool(),
            threads,
        })
        .into_iter()
        .chain([Exec::Serial]);

    for i in 0..OPTIMIZERS {
        let mut reference = EmbeddingTable::seeded(table_rows, dim, 1);
        let mut reference_opt = optimizer(i);
        for grads in &steps {
            let coalesced = CoalescedGradients::new(rows.to_vec(), grads.clone()).unwrap();
            scatter_apply(&mut reference, &coalesced, reference_opt.as_mut()).unwrap();
        }
        let reference_state = probe_state(reference_opt.as_mut(), table_rows, dim);

        for exec in execs.clone() {
            for (shards, local) in [(1, false), (3, false), (3, true)] {
                let map = ShardMap::new(table_rows, shards);
                let mut table = EmbeddingTable::seeded(table_rows, dim, 1);
                let mut opt = ShardedOptimizer::new(map.clone(), || optimizer(i));
                for grads in &steps {
                    let parts = if local {
                        split_local(&map, rows, grads)
                    } else {
                        vec![part(rows, grads.clone())]
                    };
                    scatter_apply_sharded(&mut table, &mut opt, &parts, exec).unwrap();
                }
                let what = format!(
                    "{} over {} rows of {table_rows}x{dim}, {exec:?}, {shards} shards, {}",
                    opt.name(),
                    rows.len(),
                    if local { "shard-local" } else { "global-keyed" },
                );
                if bits(table.as_slice()) != bits(reference.as_slice()) {
                    return Err(format!("table diverged: {what}"));
                }
                if probe_state(&mut opt, table_rows, dim) != reference_state {
                    return Err(format!("optimizer state diverged: {what}"));
                }
            }
        }
    }
    Ok(())
}

#[test]
fn parallel_scatter_is_bit_identical_on_edge_workloads() {
    let table_rows = 97;
    let all: Vec<u32> = (0..table_rows as u32).collect();
    let workloads: [&[u32]; 6] = [
        &[],               // nothing to apply
        &[41],             // a single row: fewer rows than any band count
        &[3, 50, 96],      // 3 hot rows, one per shard, last row of the table
        &[0, 1, 2],        // every row in shard 0: the other shards sit idle
        &[32, 33, 65, 66], // the rows on either side of the 3-shard fences
        all.as_slice(),    // every row of the table
    ];
    for (i, rows) in workloads.iter().enumerate() {
        for dim in [1, 4] {
            check_scatter(table_rows, dim, rows, i as u64).unwrap();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random coalesced workloads, including the empty and single-row
    /// ones (raw_rows may collapse to 0 or 1 unique rows after dedup).
    #[test]
    fn parallel_scatter_is_bit_identical_to_serial(
        table_rows in 1u32..300,
        dim in 1usize..10,
        raw_rows in proptest::collection::vec(any::<u32>(), 0..48),
        seed in any::<u64>(),
    ) {
        let mut rows: Vec<u32> = raw_rows.iter().map(|r| r % table_rows).collect();
        rows.sort_unstable();
        rows.dedup();
        let checked = check_scatter(table_rows as usize, dim, &rows, seed);
        prop_assert!(checked.is_ok(), "{}", checked.unwrap_err());
    }

    /// Uncoalesced inputs (duplicates or disorder) are rejected, never
    /// silently mis-sharded.
    #[test]
    fn parallel_scatter_rejects_uncoalesced_rows(
        row in 0u32..50,
        swap in any::<bool>(),
        shards in 1usize..4,
    ) {
        let rows = if swap { vec![row + 1, row] } else { vec![row, row] };
        let mut table = EmbeddingTable::zeros(64, 2);
        let mut opt = ShardedOptimizer::new(ShardMap::new(64, shards), || optimizer(0));
        let err = scatter_apply_sharded(
            &mut table,
            &mut opt,
            &[part(&rows, Matrix::zeros(2, 2))],
            Exec::pooled(pool()),
        )
        .unwrap_err();
        prop_assert!(matches!(err, EmbeddingError::InvalidIndex(_)));
    }
}
