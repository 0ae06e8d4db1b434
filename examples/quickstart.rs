//! Quickstart: the Tensor Casting algorithm on the paper's running
//! example (Figs. 2, 7, 8), end to end in a few lines.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use tensor_casting::core::{casted_gather_reduce, tensor_casting, verify_equivalence};
use tensor_casting::embedding::{
    gather_reduce, gradient_expand_coalesce,
    optim::{RowOptimizer, UpdateRule},
    scatter_apply, EmbeddingTable, IndexArray,
};
use tensor_casting::tensor::Matrix;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Fig. 2a: a 6-row embedding table; batch of 2 samples, sample 0
    // gathers rows {1,2,4}, sample 1 gathers rows {0,2}.
    let mut table = EmbeddingTable::seeded(6, 4, 42);
    let index = IndexArray::from_samples(&[vec![1, 2, 4], vec![0, 2]])?;

    // Forward: fused tensor gather-reduce.
    let pooled = gather_reduce(&table, &index)?;
    println!("pooled embeddings ({}x{}):", pooled.rows(), pooled.cols());
    for r in 0..pooled.rows() {
        println!("  batch {r}: {:?}", pooled.row(r));
    }

    // Pretend the DNN backpropagated these gradients (Fig. 2b).
    let grads = Matrix::from_rows(&[&[1.0, 1.0, 1.0, 1.0], &[2.0, 2.0, 2.0, 2.0]])?;

    // Baseline backward: expand -> coalesce (Algorithm 1).
    let baseline = gradient_expand_coalesce(&grads, &index)?;

    // Tensor Casting backward: Algorithm 2 transforms the index array...
    let casted = tensor_casting(&index);
    println!("\nAlgorithm 2 (Fig. 8):");
    println!(
        "  casted src (gather from gradient table): {:?}",
        casted.gather_src()
    );
    println!(
        "  casted dst (reduce into coalesced rows): {:?}",
        casted.reduce_dst()
    );
    println!(
        "  touched table rows:                      {:?}",
        casted.unique_rows()
    );

    // ...and Algorithm 3 computes the same coalesced gradients in one
    // fused gather-reduce, with no expanded intermediate and no sort on
    // the backward critical path.
    let fused = casted_gather_reduce(&grads, &casted)?;
    assert_eq!(baseline.grads().as_slice(), fused.grads().as_slice());
    println!("\ncasted gather-reduce == expand-coalesce: bit-identical ✓");
    println!("max |diff| = {}", verify_equivalence(&grads, &index)?);

    // Scatter the coalesced gradients back into the table (SGD).
    scatter_apply(
        &mut table,
        &fused,
        &mut RowOptimizer::new(UpdateRule::Sgd { lr: 0.1 }),
    )?;
    println!(
        "\nrow E[2] after update (received G[0]+G[1]): {:?}",
        table.row(2)
    );
    Ok(())
}
