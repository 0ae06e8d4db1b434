//! Bench — THE paper comparison on real hardware: baseline gradient
//! expand-coalesce (Algorithm 1) vs the T.Casted gradient gather-reduce
//! (Algorithms 2+3), measured both with casting on the critical path and
//! with casted arrays precomputed (the runtime-hidden case that the
//! backward pass actually observes).

use std::hint::black_box;
use tcast_bench::harness::BenchGroup;
use tcast_core::{casted_gather_reduce, tensor_casting};
use tcast_datasets::{Popularity, TableWorkload};
use tcast_embedding::gradient_expand_coalesce;
use tcast_tensor::Matrix;

fn main() {
    let dim = 64;
    let workload = TableWorkload::new(
        Popularity::Zipf {
            rows: 100_000,
            exponent: 1.05,
        },
        10,
    );
    let mut group = BenchGroup::new("embedding_backward");
    for batch in [512usize, 2048] {
        let index = workload.generator(3).next_batch(batch);
        let mut grads = Matrix::zeros(batch, dim);
        for (i, v) in grads.as_mut_slice().iter_mut().enumerate() {
            *v = (i as f32 * 0.7).sin();
        }
        let bytes = (index.len() * dim * 4) as u64;
        group.throughput_bytes(bytes);

        group.bench(&format!("baseline_expand_coalesce/{batch}"), || {
            gradient_expand_coalesce(black_box(&grads), black_box(&index)).unwrap()
        });
        group.bench(&format!("casted_including_casting/{batch}"), || {
            let casted = tensor_casting(black_box(&index));
            casted_gather_reduce(black_box(&grads), &casted).unwrap()
        });
        let precomputed = tensor_casting(&index);
        group.bench(&format!("casted_precomputed/{batch}"), || {
            casted_gather_reduce(black_box(&grads), black_box(&precomputed)).unwrap()
        });
    }
    group.finish();
}
