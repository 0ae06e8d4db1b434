//! The NMP pool's half of the functional-equivalence suite: a whole
//! training step run on the pool (casted backward + scatter from
//! pool-resident gradients) must leave the table where the host's baseline
//! backward + SGD scatter does. The host-side checks live in the root
//! `tests/equivalence.rs`.

use tcast_core::tensor_casting;
use tcast_embedding::{
    gradient_expand_coalesce,
    optim::{RowOptimizer, UpdateRule},
    scatter_apply, EmbeddingTable, IndexArray,
};
use tcast_repro::nmp::{NmpPool, PoolConfig};
use tcast_tensor::{Matrix, SplitMix64};

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
fn nmp_pool_matches_host_for_the_whole_training_step() {
    let (index, grads) = random_workload(31, 64, 5, 400);
    let table = EmbeddingTable::seeded(400, 24, 9);

    // Host reference: baseline backward + SGD scatter.
    let mut host_table = table.clone();
    let coalesced = gradient_expand_coalesce(&grads_widened(&grads, 24), &index).unwrap();
    scatter_apply(
        &mut host_table,
        &coalesced,
        &mut RowOptimizer::new(UpdateRule::Sgd { lr: 0.2 }),
    )
    .unwrap();

    // Pool: casted backward + scatter from pool-resident gradients.
    let mut pool = NmpPool::new(PoolConfig::small(4));
    let handle = pool.load_table(&table).unwrap();
    let casted = tensor_casting(&index);
    let (pool_coalesced, _) = pool
        .casted_gather_reduce(handle, &grads_widened(&grads, 24), &casted)
        .unwrap();
    pool.scatter_sgd(handle, &pool_coalesced, 0.2, true)
        .unwrap();

    let back = pool.read_table(handle).unwrap();
    assert!(back.max_abs_diff(&host_table).unwrap() < 1e-5);
}

fn grads_widened(grads: &Matrix, dim: usize) -> Matrix {
    let mut out = Matrix::zeros(grads.rows(), dim);
    for r in 0..grads.rows() {
        for c in 0..dim {
            out.row_mut(r)[c] = grads.row(r)[c % grads.cols()];
        }
    }
    out
}
