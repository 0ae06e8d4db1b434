//! Integration tests for the NMP substrate: the pool's functional results
//! against host kernels under many-table multi-batch training, and the
//! timing model's qualitative behaviour.

use tcast_core::tensor_casting;
use tcast_datasets::{DatasetPreset, TableWorkload};
use tcast_embedding::{
    gather_reduce, gradient_expand_coalesce,
    optim::{RowOptimizer, UpdateRule},
    scatter_apply, EmbeddingTable,
};
use tcast_nmp::{LinkModel, NmpPool, PoolConfig};
use tcast_tensor::{Matrix, SplitMix64};

fn grads(batch: usize, dim: usize, seed: u64) -> Matrix {
    let mut g = Matrix::zeros(batch, dim);
    let mut rng = SplitMix64::new(seed);
    for v in g.as_mut_slice() {
        *v = rng.next_range(-1.0, 1.0);
    }
    g
}

#[test]
fn multi_table_multi_iteration_training_on_pool_matches_host() {
    let dim = 32;
    let mut pool = NmpPool::new(PoolConfig::small(8));
    let mut host_tables: Vec<EmbeddingTable> = (0..3)
        .map(|i| EmbeddingTable::seeded(1000, dim, i))
        .collect();
    let handles: Vec<_> = host_tables
        .iter()
        .map(|t| pool.load_table(t).unwrap())
        .collect();
    let workload = TableWorkload::new(DatasetPreset::CriteoKaggle.popularity().with_rows(1000), 6);

    for iter in 0..3u64 {
        for (t, (&handle, host)) in handles.iter().zip(host_tables.iter_mut()).enumerate() {
            let index = workload.generator(iter * 10 + t as u64).next_batch(64);
            let g = grads(64, dim, iter * 100 + t as u64);

            // Forward on both, verify.
            let (pool_out, _) = pool.gather_reduce(handle, &index).unwrap();
            let host_out = gather_reduce(host, &index).unwrap();
            assert!(pool_out.max_abs_diff(&host_out).unwrap() < 1e-5);

            // Backward on both, verify table state stays in lockstep.
            let casted = tensor_casting(&index);
            let (coalesced, _) = pool.casted_gather_reduce(handle, &g, &casted).unwrap();
            pool.scatter_sgd(handle, &coalesced, 0.05, true).unwrap();
            let host_coalesced = gradient_expand_coalesce(&g, &index).unwrap();
            scatter_apply(
                host,
                &host_coalesced,
                &mut RowOptimizer::new(UpdateRule::Sgd { lr: 0.05 }),
            )
            .unwrap();
            let back = pool.read_table(handle).unwrap();
            assert!(
                back.max_abs_diff(host).unwrap() < 1e-4,
                "iter {iter} table {t} diverged"
            );
        }
    }
}

#[test]
fn pool_gather_time_scales_with_lookup_count() {
    let mut pool = NmpPool::new(PoolConfig::small(4));
    let table = EmbeddingTable::seeded(5000, 16, 1);
    let h = pool.load_table(&table).unwrap();
    let w = TableWorkload::new(DatasetPreset::Random.popularity().with_rows(5000), 4);
    let small = w.generator(1).next_batch(64);
    let big = w.generator(2).next_batch(512);
    let (_, e_small) = pool.gather_reduce(h, &small).unwrap();
    let (_, e_big) = pool.gather_reduce(h, &big).unwrap();
    assert!(
        e_big.nanoseconds > 4.0 * e_small.nanoseconds,
        "8x the lookups should take >4x the time: {} vs {}",
        e_big.nanoseconds,
        e_small.nanoseconds
    );
}

#[test]
fn pool_effective_bandwidth_is_a_sane_fraction_of_peak() {
    let config = PoolConfig::small(4);
    let per_channel_peak = config.channel.peak_bandwidth_gbps();
    let mut pool = NmpPool::new(config);
    let table = EmbeddingTable::seeded(50_000, 64, 2);
    let h = pool.load_table(&table).unwrap();
    let w = TableWorkload::new(DatasetPreset::Random.popularity().with_rows(50_000), 10);
    let index = w.generator(3).next_batch(1024);
    let (_, exec) = pool.gather_reduce(h, &index).unwrap();
    // dim 64 table slices across 4 channels; effective bw is per-op
    // aggregate over the participating channels.
    let peak = per_channel_peak * exec.channels_used as f64;
    let frac = exec.effective_bandwidth_gbps() / peak;
    assert!(
        (0.4..=1.0).contains(&frac),
        "gather efficiency {frac} of {peak} GB/s peak"
    );
}

#[test]
fn scatter_and_gather_use_the_same_datapath_cost() {
    // The paper's architectural argument: scatter is gather in reverse.
    // Equal row counts should cost the same order of time.
    let mut pool = NmpPool::new(PoolConfig::small(4));
    let table = EmbeddingTable::seeded(10_000, 16, 3);
    let h = pool.load_table(&table).unwrap();
    let w = TableWorkload::new(DatasetPreset::Random.popularity().with_rows(10_000), 1);
    let index = w.generator(5).next_batch(512);
    let (_, gather_exec) = pool.gather_reduce(h, &index).unwrap();
    let coalesced = gradient_expand_coalesce(&grads(512, 16, 9), &index).unwrap();
    let scatter_exec = pool.scatter_sgd(h, &coalesced, 0.1, false).unwrap();
    let ratio = scatter_exec.nanoseconds / gather_exec.nanoseconds;
    assert!(
        (0.3..=4.0).contains(&ratio),
        "scatter/gather time ratio {ratio} should be same order"
    );
}

#[test]
fn link_model_orders_transfers_correctly() {
    let pcie = LinkModel::pcie_gen3();
    let pool = LinkModel::pool_default();
    let nvlink = LinkModel::nvlink();
    let bytes = 64 * 1024 * 1024;
    assert!(pcie.transfer_ns(bytes) > pool.transfer_ns(bytes));
    assert!(pool.transfer_ns(bytes) > nvlink.transfer_ns(bytes));
}
