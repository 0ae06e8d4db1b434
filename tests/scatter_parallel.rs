//! Property suite for the production scatter, `scatter_apply_coalesced`:
//! for any coalesced workload, every optimizer and every `Exec` (serial,
//! or pooled at any band count), tables **and optimizer state** must be
//! bit-identical to the serial reference `scatter_apply` through the same
//! kind of optimizer.
//!
//! This is the scatter-side mirror of the casted-backward equivalence
//! property: coalesced rows are unique, so any split of the `(rows,
//! grads)` arrays into contiguous row bands gives each task a disjoint
//! table slice and disjoint optimizer state, and the per-row update math
//! is exactly the serial optimizer's.
//!
//! The second half holds the scatter the casted trainer runs,
//! `scatter_apply_casted` (the row-blocked casted backward), to the two
//! operators it fuses — `casted_gather_reduce_into` then
//! `scatter_apply_coalesced` — over the same matrix plus the block size.

use proptest::prelude::*;
use std::sync::OnceLock;
use tensor_casting::core::{casted_gather_reduce_into, tensor_casting};
use tensor_casting::embedding::{
    optim::{RowOptimizer, UpdateRule},
    scatter_apply, scatter_apply_casted, scatter_apply_coalesced, BlockScratch, CoalescedGradients,
    CoalescedScratch, EmbeddingError, EmbeddingTable, IndexArray,
};
use tensor_casting::tensor::{Exec, Matrix, Pool, SplitMix64};

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool::new(4))
}

const RULES: [UpdateRule; 5] = [
    UpdateRule::Sgd { lr: 0.1 },
    UpdateRule::Momentum { lr: 0.1, mu: 0.9 },
    UpdateRule::Adagrad { lr: 0.1, eps: 1e-8 },
    UpdateRule::RmsProp {
        lr: 0.1,
        gamma: 0.9,
        eps: 1e-8,
    },
    UpdateRule::Adam {
        lr: 0.01,
        beta1: 0.9,
        beta2: 0.999,
        eps: 1e-8,
    },
];

fn part(rows: &[u32], grads: Matrix) -> CoalescedScratch {
    let mut part = CoalescedScratch::default();
    part.rows.extend_from_slice(rows);
    part.grads = grads;
    part
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Reads an optimizer's whole per-row state out through its only door:
/// one unit-gradient update of every row of a zero table. The resulting
/// parameters are a function of each row's accumulators (velocity,
/// squared-gradient sums, Adam's moments and step count), so equal bits
/// here mean equal state — however the slab behind it was grown or banded.
fn probe_state(opt: &mut RowOptimizer, table_rows: usize, dim: usize) -> Vec<u32> {
    let mut probe = EmbeddingTable::zeros(table_rows, dim);
    let ones = vec![1.0f32; dim];
    opt.with_update(|update| {
        for row in 0..table_rows {
            update(row as u32, probe.row_mut(row), &ones);
        }
    });
    bits(probe.as_slice())
}

/// Three scatters of `rows` (coalesced: unique, ascending) through every
/// optimizer, reference vs. the production entry under every `Exec`:
/// serial, and pooled at 1, 2, 3 and 8 bands. Several scatters through the SAME
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

    for rule in RULES {
        let mut reference = EmbeddingTable::seeded(table_rows, dim, 1);
        let mut reference_opt = RowOptimizer::new(rule);
        for grads in &steps {
            let coalesced = CoalescedGradients::new(rows.to_vec(), grads.clone()).unwrap();
            scatter_apply(&mut reference, &coalesced, &mut reference_opt).unwrap();
        }
        let reference_state = probe_state(&mut reference_opt, table_rows, dim);

        for exec in execs.clone() {
            let mut table = EmbeddingTable::seeded(table_rows, dim, 1);
            let mut opt = RowOptimizer::new(rule);
            for grads in &steps {
                let part = part(rows, grads.clone());
                scatter_apply_coalesced(&mut table, &mut opt, &part, exec).unwrap();
            }
            let what = format!(
                "{} over {} rows of {table_rows}x{dim}, {exec:?}",
                rule.name(),
                rows.len(),
            );
            if bits(table.as_slice()) != bits(reference.as_slice()) {
                return Err(format!("table diverged: {what}"));
            }
            if probe_state(&mut opt, table_rows, dim) != reference_state {
                return Err(format!("optimizer state diverged: {what}"));
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
        &[3, 50, 96],      // 3 hot rows, one per band of 3, last row of the table
        &[0, 1, 2],        // the first rows only: state grows to a short prefix
        &[32, 33, 65, 66], // 4 rows: uneven bands at 3 and 8 threads
        all.as_slice(),    // every row of the table
    ];
    for (i, rows) in workloads.iter().enumerate() {
        for dim in [1, 4] {
            check_scatter(table_rows, dim, rows, i as u64).unwrap();
        }
    }
}

/// Two blocked casted backwards of `index` through every optimizer,
/// against the two operators run one after the other (serially, through
/// whole coalesced arrays), under block sizes {1, 3, 64, every row} x
/// `Exec::{Serial, Pooled 2, Pooled 3, Pooled 7}`. The
/// second step runs on the first one's optimizer state, and one block
/// scratch serves a whole sweep, so every call after the first starts
/// from dirty buffers.
fn check_blocked_backward(
    table_rows: usize,
    dim: usize,
    index: &IndexArray,
    seed: u64,
) -> Result<(), String> {
    let mut rng = SplitMix64::new(seed);
    let steps: Vec<Matrix> = (0..2)
        .map(|_| {
            let mut upstream = Matrix::zeros(index.num_outputs(), dim);
            for v in upstream.as_mut_slice() {
                *v = rng.next_range(-1.0, 1.0);
            }
            upstream
        })
        .collect();
    let execs = [2usize, 3, 7]
        .map(|threads| Exec::Pooled {
            pool: pool(),
            threads,
        })
        .into_iter()
        .chain([Exec::Serial]);

    // What the casting pipeline delivers: the table's one casted array.
    let casted = tensor_casting(index);
    let mut blocks = BlockScratch::default();
    for rule in RULES {
        let mut reference = EmbeddingTable::seeded(table_rows, dim, 1);
        let mut reference_opt = RowOptimizer::new(rule);
        let mut coalesced = CoalescedScratch::default();
        for upstream in &steps {
            casted_gather_reduce_into(upstream, &casted, &mut coalesced, Exec::Serial).unwrap();
            scatter_apply_coalesced(&mut reference, &mut reference_opt, &coalesced, Exec::Serial)
                .unwrap();
        }
        let reference_state = probe_state(&mut reference_opt, table_rows, dim);

        for exec in execs.clone() {
            for block_rows in [1, 3, 64, table_rows.max(1)] {
                let mut table = EmbeddingTable::seeded(table_rows, dim, 1);
                let mut opt = RowOptimizer::new(rule);
                for upstream in &steps {
                    scatter_apply_casted(
                        &mut table,
                        &mut opt,
                        upstream,
                        &casted,
                        block_rows,
                        &mut blocks,
                        exec,
                    )
                    .unwrap();
                }
                let what = format!(
                    "{} over {} lookups into {table_rows}x{dim}, blocks of {block_rows}, {exec:?}",
                    rule.name(),
                    index.len(),
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
fn blocked_casted_backward_is_bit_identical_on_edge_workloads() {
    let table_rows = 97;
    let pairs =
        |src: Vec<u32>, dst: Vec<u32>, outputs| IndexArray::from_pairs(src, dst, outputs).unwrap();
    let workloads = [
        // No lookups: nothing to update, with and without upstream rows.
        pairs(vec![], vec![], 0),
        pairs(vec![], vec![], 4),
        // One lookup: a single row in one band, nothing in the others.
        pairs(vec![41], vec![0], 1),
        // One hot row looked up by every sample: a single unique row whose
        // run is the whole stream.
        pairs(vec![96; 80], (0..80).collect(), 80),
        // Four rows in two samples: uneven bands at 3 and 7 threads.
        IndexArray::from_samples(&[vec![32, 33, 65, 66], vec![33, 65]]).unwrap(),
        // Every row of the table, twice over, in descending order: more
        // unique rows than any block size but the last.
        pairs(
            (0..2 * table_rows as u32).rev().map(|i| i / 2).collect(),
            (0..2 * table_rows as u32).map(|i| i % 8).collect(),
            8,
        ),
    ];
    for (i, index) in workloads.iter().enumerate() {
        for dim in [1, 4] {
            check_blocked_backward(table_rows, dim, index, i as u64).unwrap();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random lookup streams: up to 24 samples of 1-6 lookups, so bands
    /// range from single-row to a few blocks.
    #[test]
    fn blocked_casted_backward_is_bit_identical_to_the_two_operators(
        case in (1u32..200).prop_flat_map(|rows| (
            Just(rows),
            proptest::collection::vec(proptest::collection::vec(0..rows, 1..7), 1..25),
        )),
        dim in 1usize..10,
        seed in any::<u64>(),
    ) {
        let (table_rows, samples) = case;
        let index = IndexArray::from_samples(&samples).unwrap();
        let checked = check_blocked_backward(table_rows as usize, dim, &index, seed);
        prop_assert!(checked.is_ok(), "{}", checked.unwrap_err());
    }

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
    /// silently mis-banded.
    #[test]
    fn parallel_scatter_rejects_uncoalesced_rows(
        row in 0u32..50,
        swap in any::<bool>(),
        threads in 1usize..4,
    ) {
        let rows = if swap { vec![row + 1, row] } else { vec![row, row] };
        let mut table = EmbeddingTable::zeros(64, 2);
        let err = scatter_apply_coalesced(
            &mut table,
            &mut RowOptimizer::new(RULES[0]),
            &part(&rows, Matrix::zeros(2, 2)),
            Exec::Pooled { pool: pool(), threads },
        )
        .unwrap_err();
        prop_assert!(matches!(err, EmbeddingError::InvalidIndex(_)));
    }
}
