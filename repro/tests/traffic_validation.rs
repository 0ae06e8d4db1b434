//! Validates the analytic traffic model (Fig. 6's formulas) against
//! *counted* behaviour: the DRAM request streams the NMP cores actually
//! generate, and the row counts the functional kernels actually touch.

use tcast_core::tensor_casting;
use tcast_datasets::{DatasetPreset, TableWorkload};
use tcast_dram::streams;
use tcast_embedding::{gradient_expand, gradient_expand_coalesce, EmbeddingTable, IndexArray};
use tcast_nmp::{NmpPool, PoolConfig};
use tcast_system::traffic;
use tcast_tensor::{Matrix, SplitMix64};

fn workload(batch: usize, pooling: usize, rows: usize) -> IndexArray {
    TableWorkload::new(
        DatasetPreset::CriteoKaggle.popularity().with_rows(rows),
        pooling,
    )
    .generator(3)
    .next_batch(batch)
}

#[test]
fn gather_stream_length_matches_analytic_reads() {
    // dim 64 = 256 B rows = 4 blocks each: the generated request stream
    // must carry exactly the analytic read bytes (excluding index bytes,
    // which stay in the core's instruction payload).
    let index = workload(128, 10, 10_000);
    let s = traffic::WorkloadShape::of(&index, 64);
    let reads = streams::gather_reads(index.src(), 256, 0);
    let stream_bytes = reads.len() as u64 * 64;
    let analytic = traffic::gather_reduce(&s).read_bytes - s.lookups * traffic::PAIR_BYTES;
    assert_eq!(stream_bytes, analytic);
}

#[test]
fn coalesce_output_rows_match_analytic_unique() {
    let index = workload(256, 10, 5_000);
    let grads = Matrix::filled(256, 16, 1.0);
    let coalesced = gradient_expand_coalesce(&grads, &index).unwrap();
    let s = traffic::WorkloadShape::of(&index, 16);
    assert_eq!(coalesced.len() as u64, s.unique);
    // Analytic coalesce write bytes = U rows.
    assert_eq!(
        traffic::coalesce_accumulate(&s).write_bytes,
        s.unique * 16 * 4
    );
}

#[test]
fn expand_materializes_exactly_n_rows() {
    let index = workload(64, 7, 2_000);
    let grads = Matrix::filled(64, 8, 0.5);
    let expanded = gradient_expand(&grads, &index).unwrap();
    let s = traffic::WorkloadShape::of(&index, 8);
    assert_eq!(expanded.rows() as u64, s.lookups);
    assert_eq!(traffic::gradient_expand(&s).write_bytes, s.lookups * 8 * 4);
}

#[test]
fn casted_index_sizes_match_analytic_model() {
    let index = workload(128, 6, 3_000);
    let casted = tensor_casting(&index);
    let s = traffic::WorkloadShape::of(&index, 32);
    // One (casted_src, casted_dst) pair per lookup:
    assert_eq!(casted.len() as u64, s.lookups);
    // U coalesced outputs:
    assert_eq!(casted.num_unique() as u64, s.unique);
    // Casted gather-reduce writes exactly U rows:
    assert_eq!(
        traffic::casted_gather_reduce(&s).write_bytes,
        s.unique * 32 * 4
    );
}

#[test]
fn nmp_pool_bytes_match_analytic_gather_traffic() {
    // The pool's measured DRAM bytes for a gather-reduce equal the
    // analytic model's row traffic (pool slices are padded to 64 B, so
    // compare at dim = multiple of 16 where padding is zero).
    let dim = 32;
    let mut pool = NmpPool::new(PoolConfig::small(4));
    let table = EmbeddingTable::seeded(2_000, dim, 1);
    let handle = pool.load_table(&table).unwrap();
    let mut rng = SplitMix64::new(5);
    let samples: Vec<Vec<u32>> = (0..64)
        .map(|_| (0..4).map(|_| rng.next_below(2_000) as u32).collect())
        .collect();
    let index = IndexArray::from_samples(&samples).unwrap();
    let (_, exec) = pool.gather_reduce(handle, &index).unwrap();
    let s = traffic::WorkloadShape::of(&index, dim);
    // Pool traffic: n row reads + B output-drain writes (no index bytes
    // in DRAM: they arrive through the instruction queue).
    let expected = s.lookups * s.row_bytes() + s.outputs * s.row_bytes();
    assert_eq!(exec.dram_bytes, expected);
}

#[test]
fn nmp_scatter_bytes_match_rmw_model() {
    let dim = 16;
    let mut pool = NmpPool::new(PoolConfig::small(2));
    let table = EmbeddingTable::seeded(1_000, dim, 2);
    let handle = pool.load_table(&table).unwrap();
    let index = workload(64, 4, 1_000);
    let grads = Matrix::filled(64, dim, 0.1);
    let coalesced = gradient_expand_coalesce(&grads, &index).unwrap();
    let exec = pool.scatter_sgd(handle, &coalesced, 0.1, false).unwrap();
    let s = traffic::WorkloadShape::of(&index, dim);
    // Queue-fed scatter: read U rows + write U rows.
    assert_eq!(exec.dram_bytes, 2 * s.unique * s.row_bytes());
}

#[test]
fn backward_traffic_reduction_holds_on_real_workloads() {
    // The ~2x memory-intensity claim, evaluated with *measured* unique
    // counts across dataset skews and batch sizes.
    for preset in [
        DatasetPreset::Random,
        DatasetPreset::CriteoKaggle,
        DatasetPreset::MovieLens20M,
    ] {
        for batch in [512usize, 4096] {
            let index = TableWorkload::new(preset.popularity().with_rows(50_000), 10)
                .generator(7)
                .next_batch(batch);
            let s = traffic::WorkloadShape::of(&index, 64);
            let baseline = traffic::expand_coalesce_total(&s).total() as f64;
            let casted = traffic::casted_gather_reduce(&s).total() as f64;
            let ratio = baseline / casted;
            assert!(
                (1.4..=2.3).contains(&ratio),
                "{preset} b{batch}: traffic reduction {ratio}"
            );
        }
    }
}
