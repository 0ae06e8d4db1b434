//! Cross-crate functional-equivalence suite: the paper's central
//! correctness claim, checked across every layer of the stack — host
//! kernels, the pooled paths, and full DLRM training.

use proptest::prelude::*;
use std::sync::OnceLock;
use tensor_casting::core::{
    blocked_casted_backward, casted_gather_reduce, casted_gather_reduce_into, tensor_casting,
};
use tensor_casting::datasets::{DatasetPreset, SyntheticCtr, TableWorkload};
use tensor_casting::dlrm::{BackwardMode, DlrmConfig, Trainer};
use tensor_casting::embedding::{
    gather_reduce, gather_reduce_into, gradient_coalesce_into, gradient_expand,
    gradient_expand_coalesce,
    optim::{RowOptimizer, UpdateRule},
    scatter_apply, scatter_apply_casted, BlockScratch, CoalescedScratch, EmbeddingTable,
    IndexArray,
};
use tensor_casting::tensor::{Exec, Matrix, Pool, SplitMix64};

fn random_workload(seed: u64, batch: usize, pooling: usize, rows: u32) -> (IndexArray, Matrix) {
    let mut rng = SplitMix64::new(seed);
    let samples: Vec<Vec<u32>> = (0..batch)
        .map(|_| {
            (0..pooling)
                .map(|_| rng.next_below(rows as u64) as u32)
                .collect()
        })
        .collect();
    let index = IndexArray::from_samples(&samples).unwrap();
    let mut grads = Matrix::zeros(batch, 16);
    for v in grads.as_mut_slice() {
        *v = rng.next_range(-2.0, 2.0);
    }
    (index, grads)
}

#[test]
fn host_paths_agree_on_dataset_driven_workloads() {
    for preset in DatasetPreset::ALL {
        let workload = preset.table_workload(8).with_rows(10_000);
        let index = workload.generator(3).next_batch(256);
        let mut grads = Matrix::zeros(256, 32);
        for (i, v) in grads.as_mut_slice().iter_mut().enumerate() {
            *v = ((i * 31) % 17) as f32 - 8.0;
        }
        let baseline = gradient_expand_coalesce(&grads, &index).unwrap();
        let casted = casted_gather_reduce(&grads, &tensor_casting(&index)).unwrap();
        assert_eq!(baseline.rows(), casted.rows(), "{preset}");
        assert_eq!(
            baseline.grads().as_slice(),
            casted.grads().as_slice(),
            "{preset}: gradients must be bit-identical"
        );
    }
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// The invariant behind `Exec`: every sparse primitive that takes one —
/// forward gather-reduce, the baseline coalesce (Algorithm 1), the casted
/// gather-reduce (Algorithm 3) — returns the **same bits** serially and
/// on a pool, for any band count, into fresh or dirty buffers. Also pins
/// the three backward paths to each other on the same input: baseline ==
/// casted == fused-into-the-table, the last one for every block size.
fn check_serial_equals_pooled(index: &IndexArray, table_rows: usize, dim: usize, seed: u64) {
    static POOL: OnceLock<Pool> = OnceLock::new();
    let pool = POOL.get_or_init(|| Pool::new(4));
    let what = format!(
        "{} lookups -> {} outputs, {table_rows} rows x {dim}, seed {seed}",
        index.len(),
        index.num_outputs()
    );

    let table = EmbeddingTable::seeded(table_rows, dim, seed);
    let mut rng = SplitMix64::new(seed ^ 0x5EED);
    let mut grads = Matrix::zeros(index.num_outputs(), dim);
    for v in grads.as_mut_slice() {
        *v = rng.next_range(-1.0, 1.0);
    }
    let expanded = gradient_expand(&grads, index).unwrap();
    let casted = tensor_casting(index);

    // The serial references, through the allocating wrappers.
    let pooled_rows = gather_reduce(&table, index).unwrap();
    let baseline = gradient_expand_coalesce(&grads, index).unwrap();
    let via_casting = casted_gather_reduce(&grads, &casted).unwrap();
    assert_eq!(baseline.rows(), via_casting.rows(), "{what}");
    assert_eq!(
        bits(baseline.grads().as_slice()),
        bits(via_casting.grads().as_slice()),
        "baseline vs casted backward: {what}"
    );
    let mut plain = table.clone();
    scatter_apply(
        &mut plain,
        &baseline,
        &mut RowOptimizer::new(UpdateRule::Sgd { lr: 0.1 }),
    )
    .unwrap();
    let sgd = || RowOptimizer::new(UpdateRule::Sgd { lr: 0.1 });
    let mut blocks = BlockScratch::default();

    // One set of buffers for the whole sweep: every call after the first
    // starts from dirty scratch.
    let mut out = Matrix::default();
    let mut coalesced = CoalescedScratch::default();
    let mut casted_out = CoalescedScratch::default();
    let execs = [1usize, 2, 3, 8]
        .map(|threads| Exec::Pooled { pool, threads })
        .into_iter()
        .chain([Exec::Serial]);
    for exec in execs {
        let what = format!("{what}, {exec:?}");
        gather_reduce_into(&table, index, &mut out, exec).unwrap();
        assert_eq!(
            out.shape(),
            (index.num_outputs(), dim),
            "gather-reduce: {what}"
        );
        assert_eq!(
            bits(out.as_slice()),
            bits(pooled_rows.as_slice()),
            "gather-reduce: {what}"
        );

        gradient_coalesce_into(&expanded, index, &mut coalesced, exec).unwrap();
        assert_eq!(coalesced.rows, baseline.rows(), "coalesce: {what}");
        assert_eq!(
            bits(coalesced.grads.as_slice()),
            bits(baseline.grads().as_slice()),
            "coalesce: {what}"
        );

        casted_gather_reduce_into(&grads, &casted, &mut casted_out, exec).unwrap();
        assert_eq!(
            casted_out.rows,
            baseline.rows(),
            "casted gather-reduce: {what}"
        );
        assert_eq!(
            bits(casted_out.grads.as_slice()),
            bits(baseline.grads().as_slice()),
            "casted gather-reduce: {what}"
        );

        // The fused backward never holds more than a block of that
        // gradient: a row, a few, or (past every unique row) all of it.
        let mut fused = table.clone();
        blocked_casted_backward(&mut fused, &mut sgd(), &grads, &casted, &mut blocks, exec)
            .unwrap();
        assert_eq!(
            bits(fused.as_slice()),
            bits(plain.as_slice()),
            "fused backward: {what}"
        );
        for block_rows in [1, 3, 64, table_rows + 1] {
            let mut fused = table.clone();
            scatter_apply_casted(
                &mut fused,
                &mut sgd(),
                &grads,
                &casted,
                block_rows,
                &mut blocks,
                exec,
            )
            .unwrap();
            assert_eq!(
                bits(fused.as_slice()),
                bits(plain.as_slice()),
                "fused backward in blocks of {block_rows}: {what}"
            );
        }
    }
}

#[test]
fn serial_equals_pooled_on_edge_workloads() {
    let pairs =
        |src: Vec<u32>, dst: Vec<u32>, outputs| IndexArray::from_pairs(src, dst, outputs).unwrap();
    let workloads = [
        // Every lookup hits one of 3 rows (long unique runs, more bands
        // than coalesced rows), with `dst` out of order.
        pairs(
            (0..300).map(|i| i % 3).collect(),
            (0..300).map(|i| i % 10).collect(),
            10,
        ),
        // All-unique srcs, descending: one-lookup runs, nothing to coalesce.
        pairs(
            (0..64).rev().collect(),
            (0..64).map(|i| i / 4).collect(),
            16,
        ),
        // No lookups at all, with and without output slots.
        pairs(vec![], vec![], 0),
        pairs(vec![], vec![], 5),
        // A single output row, and fewer outputs than any band count > 2.
        IndexArray::from_samples(&[(0..40).map(|i| (i * 7) % 50).collect()]).unwrap(),
        IndexArray::from_samples(&[vec![3, 3, 9], vec![9, 1, 3]]).unwrap(),
        // A slot no lookup reduces into stays zero.
        pairs(vec![1, 4, 1], vec![0, 3, 3], 4),
    ];
    for (i, index) in workloads.iter().enumerate() {
        for dim in [1, 4, 37] {
            check_serial_equals_pooled(index, 64, dim, i as u64);
        }
    }
}

#[test]
fn serial_equals_pooled_under_randomized_load() {
    let mut rng = SplitMix64::new(2);
    for trial in 0..10 {
        let rows = 100 + rng.next_below(2000);
        let batch = 8 + rng.next_below(120) as usize;
        let dim = 1 + rng.next_below(48) as usize;
        let samples: Vec<Vec<u32>> = (0..batch)
            .map(|_| {
                let pooling = 1 + rng.next_below(7) as usize;
                (0..pooling).map(|_| rng.next_below(rows) as u32).collect()
            })
            .collect();
        let index = IndexArray::from_samples(&samples).unwrap();
        check_serial_equals_pooled(&index, rows as usize, dim, trial);
    }
}

#[test]
fn full_dlrm_training_trajectories_are_identical() {
    let config = DlrmConfig::tiny();
    let mut base = Trainer::new(config.clone(), BackwardMode::Baseline, 3).unwrap();
    let mut cast = Trainer::new(config.clone(), BackwardMode::Casted, 3).unwrap();
    let mut stream_a = SyntheticCtr::new(config.table_workloads(), config.dense_features, 8);
    let mut stream_b = SyntheticCtr::new(config.table_workloads(), config.dense_features, 8);
    for _ in 0..8 {
        let ra = base.step(&stream_a.next_batch(32)).unwrap();
        let rb = cast.step(&stream_b.next_batch(32)).unwrap();
        assert_eq!(ra.loss, rb.loss);
    }
    for i in 0..base.model().num_tables() {
        assert_eq!(
            base.model()
                .table(i)
                .max_abs_diff(cast.model().table(i))
                .unwrap(),
            0.0
        );
    }
}

#[test]
fn equivalence_holds_for_every_optimizer() {
    // Coalesced gradients are identical, so any optimizer sees identical
    // inputs — but verify the full scatter output for each anyway.
    let (index, _) = random_workload(77, 96, 4, 250);
    let grads = {
        let mut g = Matrix::zeros(96, 8);
        for (i, v) in g.as_mut_slice().iter_mut().enumerate() {
            *v = ((i % 13) as f32 - 6.0) * 0.1;
        }
        g
    };
    let rules = [
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
    for rule in rules {
        let mut t1 = EmbeddingTable::seeded(250, 8, 1);
        let mut t2 = t1.clone();
        let baseline = gradient_expand_coalesce(&grads, &index).unwrap();
        let casted = casted_gather_reduce(&grads, &tensor_casting(&index)).unwrap();
        scatter_apply(&mut t1, &baseline, &mut RowOptimizer::new(rule)).unwrap();
        scatter_apply(&mut t2, &casted, &mut RowOptimizer::new(rule)).unwrap();
        assert_eq!(t1.max_abs_diff(&t2).unwrap(), 0.0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The paper's validation, as a workspace-level property: for any
    /// sample structure and gradient values, the casted backward equals
    /// the baseline backward exactly.
    #[test]
    fn casted_backward_is_always_equivalent(
        samples in proptest::collection::vec(
            proptest::collection::vec(0u32..128, 1..10),
            1..48,
        ),
        dim in 1usize..24,
    ) {
        let index = IndexArray::from_samples(&samples).unwrap();
        let mut grads = Matrix::zeros(samples.len(), dim);
        for (i, v) in grads.as_mut_slice().iter_mut().enumerate() {
            *v = (((i * 2654435761) % 2048) as f32 / 1024.0) - 1.0;
        }
        let baseline = gradient_expand_coalesce(&grads, &index).unwrap();
        let casted = casted_gather_reduce(&grads, &tensor_casting(&index)).unwrap();
        prop_assert_eq!(baseline.rows(), casted.rows());
        prop_assert_eq!(baseline.grads().as_slice(), casted.grads().as_slice());
    }

    /// Casting preserves the workload's aggregate structure: the casted
    /// array has one entry per lookup, gathers only valid gradient rows,
    /// and enumerates exactly the unique src ids.
    #[test]
    fn casting_structural_invariants(
        samples in proptest::collection::vec(
            proptest::collection::vec(0u32..64, 1..6),
            1..32,
        ),
    ) {
        let index = IndexArray::from_samples(&samples).unwrap();
        let casted = tensor_casting(&index);
        prop_assert_eq!(casted.len(), index.len());
        prop_assert_eq!(casted.num_gradient_rows(), index.num_outputs());
        prop_assert_eq!(casted.num_unique(), index.unique_src_count());
        prop_assert!(casted
            .gather_src()
            .iter()
            .all(|&s| (s as usize) < index.num_outputs()));
        // unique_rows is exactly the sorted distinct src set.
        let mut expect: Vec<u32> = index.src().to_vec();
        expect.sort_unstable();
        expect.dedup();
        prop_assert_eq!(casted.unique_rows(), &expect[..]);
    }

    /// A TableWorkload generator never emits out-of-range lookups and
    /// always produces a full batch (datasets x embedding contract).
    #[test]
    fn workload_generator_contract(
        rows in 1usize..5000,
        pooling in 1usize..8,
        batch in 1usize..64,
        seed in 0u64..1000,
    ) {
        let w = TableWorkload::new(
            tensor_casting::datasets::Popularity::Zipf { rows, exponent: 1.0 },
            pooling,
        );
        let idx = w.generator(seed).next_batch(batch);
        prop_assert_eq!(idx.len(), batch * pooling);
        prop_assert_eq!(idx.num_outputs(), batch);
        prop_assert!(idx.validate_against_rows(rows).is_ok());
    }
}
