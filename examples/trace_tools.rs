//! Record a dataset-driven lookup trace to disk, replay it through both
//! backward paths, and checkpoint the resulting model — the
//! record/replay/resume workflow of a production training pipeline.
//!
//! ```sh
//! cargo run --release --example trace_tools
//! ```

use tensor_casting::core::{casted_gather_reduce, tensor_casting};
use tensor_casting::datasets::SyntheticCtr;
use tensor_casting::datasets::{trace, DatasetPreset};
use tensor_casting::dlrm::checkpoint;
use tensor_casting::dlrm::{BackwardMode, DlrmConfig, Trainer};
use tensor_casting::embedding::gradient_expand_coalesce;
use tensor_casting::tensor::Matrix;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Record: 5 iterations of Criteo-like lookups for one table.
    let workload = DatasetPreset::CriteoKaggle
        .table_workload(10)
        .with_rows(50_000);
    let mut buf = Vec::new();
    trace::record_trace(&mut buf, &workload, 512, 5, 42)?;
    println!(
        "recorded 5 batches x 512 samples x 10 lookups = {} bytes ({} per lookup)",
        buf.len(),
        buf.len() / (5 * 512 * 10)
    );

    // 2. Replay: both backward paths over the recorded trace must agree.
    let batches = trace::read_trace(&mut buf.as_slice())?;
    for (i, index) in batches.iter().enumerate() {
        let grads = Matrix::filled(index.num_outputs(), 64, 0.01);
        let baseline = gradient_expand_coalesce(&grads, index)?;
        let casted = casted_gather_reduce(&grads, &tensor_casting(index))?;
        assert_eq!(baseline.grads().as_slice(), casted.grads().as_slice());
        println!(
            "batch {i}: {} lookups -> {} coalesced rows, paths identical ✓",
            index.len(),
            baseline.len()
        );
    }

    // 3. Train briefly and checkpoint; restore into a fresh trainer.
    let config = DlrmConfig::tiny();
    let mut data = SyntheticCtr::new(config.table_workloads(), config.dense_features, 3);
    let mut trainer = Trainer::new(config.clone(), BackwardMode::Casted, 9)?;
    for _ in 0..5 {
        trainer.step(&data.next_batch(64))?;
    }
    let mut ckpt = Vec::new();
    checkpoint::save_train_checkpoint(&mut ckpt, &trainer, None, None)?;
    println!(
        "\ncheckpoint: {} bytes for {} parameters",
        ckpt.len(),
        trainer.model().parameter_count()
    );

    let mut restored = Trainer::new(config, BackwardMode::Casted, 777)?;
    checkpoint::read_train_checkpoint(&mut ckpt.as_slice())?.restore_into(&mut restored)?;
    let probe = data.next_batch(32);
    let a = trainer.model().predict(&probe.dense, &probe.indices)?;
    let b = restored.model().predict(&probe.dense, &probe.indices)?;
    assert_eq!(a.as_slice(), b.as_slice());
    println!("restored model predicts identically ✓");
    Ok(())
}
