//! Bench: the dense MLP substrate — one training step's forward and
//! backward — at DLRM-relevant layer shapes.

use std::hint::black_box;
use tcast_bench::harness::BenchGroup;
use tcast_tensor::{Activation, Exec, Matrix, Mlp, MlpInferenceScratch};

fn main() {
    let mut group = BenchGroup::new("mlp");
    // (name, input dim, widths) — RM1's bottom and top stacks.
    let shapes: [(&str, usize, &[usize]); 2] = [
        ("bottom_256_128_64", 13, &[256, 128, 64]),
        ("top_256_64_1", 119, &[256, 64, 1]),
    ];
    for (name, input, widths) in shapes {
        for batch in [256usize, 1024] {
            let mut mlp = Mlp::new(input, widths, Activation::Relu, 1).unwrap();
            let flops = mlp.forward_flops(batch);
            let mut x = Matrix::zeros(batch, input);
            for (i, v) in x.as_mut_slice().iter_mut().enumerate() {
                *v = (i as f32 * 0.1).sin();
            }
            group.throughput_elements(flops);
            let dy = Matrix::filled(batch, mlp.output_dim(), 1.0);
            let mut scratch = MlpInferenceScratch::default();
            let mut out = Matrix::default();
            let mut dx = Matrix::default();
            group.bench(&format!("{name}/fwd_bwd_into/{batch}"), || {
                mlp.forward_into(black_box(&x), &mut scratch, &mut out, Exec::Serial)
                    .unwrap();
                mlp.backward_into(&x, &mut scratch, black_box(&dy), &mut dx, Exec::Serial)
                    .unwrap();
            });
        }
    }
    group.finish();
}
