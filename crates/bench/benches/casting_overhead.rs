//! Bench: the casting stage itself (Algorithm 2) against the sort it
//! shares with the baseline's in-path coalesce.

use std::hint::black_box;
use tcast_bench::harness::BenchGroup;
use tcast_core::tensor_casting;
use tcast_datasets::{Popularity, TableWorkload};

fn main() {
    let mut group = BenchGroup::new("casting");
    for (name, rows) in [("dense_ids", 20_000u32), ("sparse_ids", 5_000_000u32)] {
        let workload = TableWorkload::new(
            Popularity::Zipf {
                rows: rows as usize,
                exponent: 1.05,
            },
            10,
        );
        let index = workload.generator(5).next_batch(2048);
        group.throughput_elements(index.len() as u64);

        group.bench(&format!("comparison_sort/{name}"), || {
            tensor_casting(black_box(&index))
        });
        group.bench(&format!("sorted_by_src_only/{name}"), || {
            black_box(&index).sorted_by_src()
        });
    }
    group.finish();
}
