//! Drive the NMP disaggregated pool (Fig. 10/11) through a full
//! embedding-training step and report per-operation effective bandwidth
//! from the cycle-level DRAM model.
//!
//! ```sh
//! cargo run --release --manifest-path repro/Cargo.toml --example nmp_pool
//! ```

use tcast_core::tensor_casting;
use tcast_datasets::{DatasetPreset, TableWorkload};
use tcast_embedding::{gather_reduce, EmbeddingTable};
use tcast_nmp::{NmpPool, PoolConfig};
use tcast_tensor::{Matrix, SplitMix64};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // An 8-channel pool (a quarter of Table I) so the example runs in
    // seconds; bandwidths scale linearly with channels.
    let config = PoolConfig::small(8);
    println!(
        "pool: {} channels x {:.1} GB/s = {:.1} GB/s peak\n",
        config.channels,
        config.channel.peak_bandwidth_gbps(),
        config.peak_bandwidth_gbps()
    );
    let mut pool = NmpPool::new(config);

    // A Criteo-skewed table: 50k rows, dim 64 (4 x 64 B slices).
    let table = EmbeddingTable::seeded(50_000, 64, 3);
    let handle = pool.load_table(&table)?;
    let workload = TableWorkload::new(
        DatasetPreset::CriteoKaggle.popularity().with_rows(50_000),
        10,
    );
    let index = workload.generator(11).next_batch(512);
    println!(
        "workload: batch 512 x pooling 10 = {} lookups, {} unique rows",
        index.len(),
        index.unique_src_count()
    );

    // Forward gather-reduce on the pool; verify against the host kernel.
    let (pooled, exec) = pool.gather_reduce(handle, &index)?;
    assert!(pooled.max_abs_diff(&gather_reduce(&table, &index)?)? < 1e-5);
    println!(
        "gather-reduce : {:>9.1} us on {} channels, {:.1} GB/s effective",
        exec.nanoseconds / 1e3,
        exec.channels_used,
        exec.effective_bandwidth_gbps()
    );

    // Backward: casted gather-reduce over the gradient table, then the
    // scatter, both on the same NMP datapath (the paper's unification).
    let mut grads = Matrix::zeros(512, 64);
    let mut rng = SplitMix64::new(5);
    for v in grads.as_mut_slice() {
        *v = rng.next_range(-0.5, 0.5);
    }
    let casted = tensor_casting(&index);
    let (coalesced, exec) = pool.casted_gather_reduce(handle, &grads, &casted)?;
    println!(
        "casted gather : {:>9.1} us on {} channels, {:.1} GB/s effective",
        exec.nanoseconds / 1e3,
        exec.channels_used,
        exec.effective_bandwidth_gbps()
    );

    let exec = pool.scatter_sgd(handle, &coalesced, 0.05, true)?;
    println!(
        "scatter (SGD) : {:>9.1} us on {} channels, {:.1} GB/s effective",
        exec.nanoseconds / 1e3,
        exec.channels_used,
        exec.effective_bandwidth_gbps()
    );

    let busy = pool.busy_cycles();
    println!("\nper-channel busy cycles: {busy:?}");
    println!("every channel of the table's group participated in all three primitives —");
    println!("one gather-scatter datapath covers forward AND backward, the paper's key architectural point.");
    Ok(())
}
