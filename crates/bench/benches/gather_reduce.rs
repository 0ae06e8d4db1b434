//! Bench: the forward gather-reduce primitive.
//!
//! Ablations: fused vs unfused (the Fig. 2a footnote — fusion saves the
//! `n x D` intermediate) and serial vs pool-parallel (the paper's tuned
//! multi-threaded baseline).

use std::hint::black_box;
use tcast_bench::harness::BenchGroup;
use tcast_datasets::{Popularity, TableWorkload};
use tcast_embedding::{gather, gather_reduce, gather_reduce_into, reduce_by_dst, EmbeddingTable};
use tcast_pool::{Exec, Pool};
use tcast_tensor::Matrix;

fn main() {
    let dim = 64;
    let table = EmbeddingTable::seeded(100_000, dim, 1);
    let workload = TableWorkload::new(
        Popularity::Zipf {
            rows: 100_000,
            exponent: 1.05,
        },
        10,
    );
    let pool = Pool::new(4);
    let mut pooled = Matrix::default();
    let mut group = BenchGroup::new("gather_reduce");
    for batch in [512usize, 2048] {
        let index = workload.generator(7).next_batch(batch);
        let bytes = (index.len() * dim * 4) as u64;
        group.throughput_bytes(bytes);

        group.bench(&format!("fused/{batch}"), || {
            gather_reduce(black_box(&table), black_box(&index)).unwrap()
        });
        group.bench(&format!("unfused/{batch}"), || {
            let g = gather(black_box(&table), black_box(&index)).unwrap();
            reduce_by_dst(&g, &index).unwrap()
        });
        group.bench(&format!("parallel4/{batch}"), || {
            let exec = Exec::pooled(&pool);
            gather_reduce_into(black_box(&table), black_box(&index), &mut pooled, exec).unwrap()
        });
    }
    group.finish();
}
