//! Smoke tests: the full Table II architectures (at reduced cardinality)
//! train end to end through both backward paths, including a multi-hot
//! variable-pooling stream — the closest this repository comes to the
//! paper's real-system prototype runs.

use tensor_casting::core::{casted_gather_reduce, tensor_casting};
use tensor_casting::datasets::{CtrBatch, DatasetPreset, SyntheticCtr, SyntheticSource};
use tensor_casting::dlrm::{
    BackwardMode, Dlrm, DlrmConfig, EmbeddingOptimizer, TrainLoop, Trainer,
};
use tensor_casting::embedding::gradient_expand_coalesce;
use tensor_casting::tensor::Matrix;

/// The share of a baseline step's memory traffic that its embedding
/// backward moves, in `f32` words counted from the shapes: the paper's
/// Fig. 4 claim stated in bytes, which no host load can move. Per table of
/// `n` lookups into `u` distinct rows of width `d`, the backward writes the
/// `n x d` expand, reads it back to coalesce, writes the `u x d` coalesced
/// gradient, and the scatter reads it and rewrites `u` table rows. The rest
/// of the step: the forward gather reads `n` rows and writes the `b x d`
/// pooled output, and the dense stack reads every MLP weight forward and
/// for `dX`, writes its `dW` and updates it, and writes, reads back and
/// differentiates every activation.
fn embedding_backward_traffic_share(model: &Dlrm, batch: &CtrBatch) -> f64 {
    let config = model.config();
    let (b, d) = (batch.dense.rows(), config.embedding_dim);
    let (mut embedding_backward, mut rest) = (0, 0);
    for index in batch.indices.iter() {
        let (n, u) = (index.len(), index.unique_src_count());
        embedding_backward += 2 * n * d + 4 * u * d;
        rest += n * d + b * d;
    }
    let weights = model.parameter_count() - config.embedding_parameters();
    let activations: usize = config.bottom_mlp.iter().chain(&config.top_mlp).sum();
    rest += 4 * weights + 4 * b * activations;
    embedding_backward as f64 / (embedding_backward + rest) as f64
}

#[test]
fn rm1_architecture_trains_in_both_modes() {
    // RM1: 10 tables x 80 gathers — heavy pooling, small MLPs.
    let config = DlrmConfig::rm1_scaled(5_000);
    let mut base = Trainer::new(config.clone(), BackwardMode::Baseline, 3).unwrap();
    let mut cast = Trainer::new(config.clone(), BackwardMode::Casted, 3).unwrap();
    let mut sa = SyntheticCtr::new(config.table_workloads(), config.dense_features, 8);
    let mut sb = SyntheticCtr::new(config.table_workloads(), config.dense_features, 8);
    for _ in 0..2 {
        let batch = sa.next_batch(32);
        let ra = base.step(&batch).unwrap();
        let rb = cast.step(&sb.next_batch(32)).unwrap();
        assert_eq!(ra.loss, rb.loss);
        assert!(ra.loss.is_finite());
        // Pooling factor 80: the embedding backward dominates the step's
        // memory traffic, echoing the paper's Fig. 4 for RM1.
        let share = embedding_backward_traffic_share(base.model(), &batch);
        assert!(share > 0.2, "embedding backward traffic share {share}");
    }
    for i in 0..base.model().num_tables() {
        assert_eq!(
            base.model()
                .table(i)
                .max_abs_diff(cast.model().table(i))
                .unwrap(),
            0.0
        );
    }
}

/// Adagrad through the pipelined training loop on RM1's shape, both
/// backward modes: every table's optimizer state ends with no more rows
/// than the table it serves.
#[test]
fn adagrad_state_never_outgrows_its_table() {
    let config = DlrmConfig::rm1_scaled(4_000);
    let adagrad = EmbeddingOptimizer::Adagrad { eps: 1e-8 };
    for mode in [BackwardMode::Baseline, BackwardMode::Casted] {
        let trainer = Trainer::with_optimizer(config.clone(), mode, adagrad, 3).unwrap();
        let mut train = TrainLoop::new(trainer, 2);
        let data = SyntheticCtr::new(config.table_workloads(), config.dense_features, 9);
        train.run(&mut SyntheticSource::new(data, 64), 6).unwrap();
        let trainer = train.into_trainer();
        for (t, optimizer) in trainer.table_optimizers().iter().enumerate() {
            let (_, _, touched) = optimizer.planes().next().unwrap();
            let state_rows = touched.len();
            let table_rows = trainer.model().table(t).rows();
            assert!(
                state_rows <= table_rows,
                "{mode:?} table {t}: {state_rows} state rows for {table_rows} table rows"
            );
        }
    }
}

#[test]
fn rm3_architecture_trains() {
    // RM3: MLP-heavy stacks; exercises the wide bottom MLP.
    let config = DlrmConfig::rm3_scaled(2_000);
    let mut trainer = Trainer::new(config.clone(), BackwardMode::Casted, 5).unwrap();
    let mut data = SyntheticCtr::new(config.table_workloads(), config.dense_features, 11);
    let report = trainer.step(&data.next_batch(16)).unwrap();
    assert!(report.loss.is_finite());
    assert_eq!(trainer.steps(), 1);
}

#[test]
fn multihot_streams_preserve_equivalence() {
    // Variable pooling per sample: the casted path must handle ragged
    // index arrays identically to the baseline.
    let workload = DatasetPreset::CriteoKaggle
        .table_workload(8)
        .with_rows(10_000);
    let mut gen = workload.generator(21);
    for trial in 0..5 {
        let index = gen.next_batch_multihot(128);
        let mut grads = Matrix::zeros(128, 32);
        for (i, v) in grads.as_mut_slice().iter_mut().enumerate() {
            *v = ((i * 37 + trial) % 19) as f32 * 0.05 - 0.4;
        }
        let baseline = gradient_expand_coalesce(&grads, &index).unwrap();
        let casted = casted_gather_reduce(&grads, &tensor_casting(&index)).unwrap();
        assert_eq!(baseline.rows(), casted.rows(), "trial {trial}");
        assert_eq!(
            baseline.grads().as_slice(),
            casted.grads().as_slice(),
            "trial {trial}"
        );
    }
}
