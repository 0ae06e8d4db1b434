//! Property suite for the production scatter, `scatter_apply_coalesced`:
//! for any coalesced workload and every optimizer, tables **and optimizer
//! state** must be bit-identical to the reference `scatter_apply` through
//! the same kind of optimizer — the scatter-side mirror of the
//! casted-backward equivalence property.
//!
//! The second half holds the scatter the casted trainer runs,
//! `scatter_apply_casted` (the row-blocked casted backward), to the two
//! operators it fuses — `casted_gather_reduce_into` then
//! `scatter_apply_coalesced` — over the same matrix plus the block size.

use proptest::prelude::*;
use tensor_casting::core::{casted_gather_reduce_into, tensor_casting};
use tensor_casting::embedding::{
    optim::{RowOptimizer, UpdateRule},
    scatter_apply, scatter_apply_casted, scatter_apply_coalesced, BlockScratch, CoalescedGradients,
    EmbeddingTable, IndexArray,
};
use tensor_casting::tensor::{Matrix, SplitMix64};

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

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// An optimizer's whole per-row state, bit for bit, as its checkpoint
/// saves it: each plane's width, value bits and touched flags, then the
/// step counts. Every path grows the slabs just past the last row it
/// updates, so equal trajectories mean equal state.
type StateBits = (Vec<(usize, Vec<u32>, Vec<bool>)>, Option<Vec<u32>>);

fn state_bits(opt: &RowOptimizer) -> StateBits {
    let planes = opt.planes().map(|(width, values, touched)| {
        (
            width,
            values.iter().map(|v| v.to_bits()).collect(),
            touched.to_vec(),
        )
    });
    (planes.collect(), opt.step_counts().map(<[u32]>::to_vec))
}

/// Three scatters of `rows` (coalesced: unique, ascending) through every
/// optimizer, reference vs. the production entry. Several scatters
/// through the SAME optimizer instances, so a state divergence in step k
/// also corrupts every table update after it.
fn check_scatter(table_rows: usize, dim: usize, rows: &[u32], seed: u64) -> Result<(), String> {
    let mut rng = SplitMix64::new(seed);
    let steps: Vec<CoalescedGradients> = (0..3)
        .map(|_| {
            let mut grads = Matrix::zeros(rows.len(), dim);
            for v in grads.as_mut_slice() {
                *v = rng.next_range(-1.0, 1.0);
            }
            CoalescedGradients::new(rows.to_vec(), grads).unwrap()
        })
        .collect();
    for rule in RULES {
        let mut reference = EmbeddingTable::seeded(table_rows, dim, 1);
        let mut reference_opt = RowOptimizer::new(rule);
        let mut table = reference.clone();
        let mut opt = RowOptimizer::new(rule);
        for step in &steps {
            scatter_apply(&mut reference, step, &mut reference_opt).unwrap();
            scatter_apply_coalesced(&mut table, &mut opt, step).unwrap();
        }
        let what = format!(
            "{} over {} rows of {table_rows}x{dim}",
            rule.name(),
            rows.len(),
        );
        if bits(table.as_slice()) != bits(reference.as_slice()) {
            return Err(format!("table diverged: {what}"));
        }
        if state_bits(&opt) != state_bits(&reference_opt) {
            return Err(format!("optimizer state diverged: {what}"));
        }
    }
    Ok(())
}

#[test]
fn production_scatter_is_bit_identical_on_edge_workloads() {
    let table_rows = 97;
    let all: Vec<u32> = (0..table_rows as u32).collect();
    let workloads: [&[u32]; 6] = [
        &[],               // nothing to apply
        &[41],             // a single row
        &[3, 50, 96],      // 3 hot rows, the last the table's last row
        &[0, 1, 2],        // the first rows only: state grows to a short prefix
        &[32, 33, 65, 66], // two pairs of neighbours
        all.as_slice(),    // every row of the table
    ];
    for (i, rows) in workloads.iter().enumerate() {
        for dim in [1, 4] {
            check_scatter(table_rows, dim, rows, i as u64).unwrap();
        }
    }
}

/// Two blocked casted backwards of `index` through every optimizer,
/// against the two operators run one after the other (through whole
/// coalesced arrays), under block sizes {1, 3, 64, every row}. The second
/// step runs on the first one's optimizer state, and one block scratch
/// serves a whole sweep, so every call after the first starts from dirty
/// buffers.
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
    // What the trainer casts ahead: the table's one casted array.
    let casted = tensor_casting(index);
    let mut blocks = BlockScratch::default();
    for rule in RULES {
        let mut reference = EmbeddingTable::seeded(table_rows, dim, 1);
        let mut reference_opt = RowOptimizer::new(rule);
        let mut coalesced = CoalescedGradients::default();
        for upstream in &steps {
            casted_gather_reduce_into(upstream, &casted, &mut coalesced).unwrap();
            scatter_apply_coalesced(&mut reference, &mut reference_opt, &coalesced).unwrap();
        }
        let reference_state = state_bits(&reference_opt);

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
                )
                .unwrap();
            }
            let what = format!(
                "{} over {} lookups into {table_rows}x{dim}, blocks of {block_rows}",
                rule.name(),
                index.len(),
            );
            if bits(table.as_slice()) != bits(reference.as_slice()) {
                return Err(format!("table diverged: {what}"));
            }
            if state_bits(&opt) != reference_state {
                return Err(format!("optimizer state diverged: {what}"));
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
        // One lookup: a single row in a single block.
        pairs(vec![41], vec![0], 1),
        // One hot row looked up by every sample: a single unique row whose
        // run is the whole stream.
        pairs(vec![96; 80], (0..80).collect(), 80),
        // Four rows in two samples: a ragged last block of 3.
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

    /// Random lookup streams: up to 24 samples of 1-6 lookups, so a
    /// backward ranges from a single row to a few blocks.
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
    fn production_scatter_is_bit_identical_to_the_reference(
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
}
