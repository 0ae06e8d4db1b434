//! Short isolated sections of the traced run: each calls one layer's
//! public function on the workload's own shapes and reports a rate or a
//! time per batch. They run after the measured rounds, on the model the
//! rounds used.

use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::stats::{mean, median, min_of};
use crate::workloads::{time_reps, Metrics};
use tcast_core::{casted_embedding_forward_into, tensor_casting, CastedIndexArray};
use tcast_datasets::BatchSource;
use tcast_dlrm::checkpoint::{read_train_checkpoint, save_train_checkpoint};
use tcast_dlrm::{Dlrm, InferenceScratch, StepReport, Trainer};
use tcast_embedding::{gather_reduce_into, IndexArray};
use tcast_snapshot::SnapshotStore;
use tcast_tensor::{Exec, Matrix, SplitMix64};

fn random_matrix(rows: usize, cols: usize, rng: &mut SplitMix64) -> Matrix {
    let mut m = Matrix::zeros(rows, cols);
    for v in m.as_mut_slice() {
        *v = rng.next_range(-1.0, 1.0);
    }
    m
}

/// The five phases of a training step, each as the median over `reports`
/// of `StepReport.timings`, and the mean exposed casting wait (a mean, so
/// that a rare wait still shows).
pub fn step_phase_metrics(m: &mut Metrics, reports: &[StepReport]) {
    let ms = |f: fn(&StepReport) -> Duration| -> Vec<f64> {
        reports.iter().map(|r| f(r).as_secs_f64() * 1e3).collect()
    };
    m.set(
        "embedding.fwd_gather_ms",
        median(&ms(|r| r.timings.fwd_gather)),
    );
    m.set("tensor.fwd_dnn_ms", median(&ms(|r| r.timings.fwd_dnn)));
    m.set("tensor.bwd_dnn_ms", median(&ms(|r| r.timings.bwd_dnn)));
    m.set(
        "core.bwd_embedding_ms",
        median(&ms(|r| r.timings.bwd_embedding)),
    );
    m.set(
        "embedding.bwd_scatter_ms",
        median(&ms(|r| r.timings.bwd_scatter)),
    );
    m.set(
        "core.cast_exposed_wait_ms",
        mean(&ms(|r| r.exposed_cast_wait)),
    );
}

/// `tensor`: GEMM rate on the model's largest layer at `rows` rows, and
/// the dense half of inference on a `rows`-row batch.
pub fn tensor_sections(m: &mut Metrics, model: &Dlrm, rows: usize, budget_s: f64) {
    let mut rng = SplitMix64::new(0xD15C);
    let (k, n) = model
        .bottom()
        .layers()
        .iter()
        .chain(model.top().layers())
        .map(|l| (l.in_dim(), l.out_dim()))
        .max_by_key(|&(k, n)| k * n)
        .expect("a model has layers");
    let a = random_matrix(rows, k, &mut rng);
    let b = random_matrix(k, n, &mut rng);
    let mut out = Matrix::default();
    let secs = time_reps(budget_s, 5, || {
        a.matmul_into(std::hint::black_box(&b), &mut out)
            .expect("shapes agree by construction");
        std::hint::black_box(&out);
    });
    // FLOPs from the shapes: one multiply and one add per (m, k, n).
    let flops = 2.0 * rows as f64 * k as f64 * n as f64;
    m.set("tensor.gemm_gflops", flops / min_of(&secs) / 1e9);

    let cfg = model.config();
    let dense = random_matrix(rows, cfg.dense_features, &mut rng);
    let mut scratch = InferenceScratch::default();
    let pooled = scratch.pooled_mut();
    pooled.clear();
    for _ in 0..model.num_tables() {
        pooled.push(random_matrix(rows, cfg.embedding_dim, &mut rng));
    }
    let mut logits = Matrix::default();
    let secs = time_reps(budget_s, 5, || {
        model
            .dense_infer_into(&dense, &mut scratch, &mut logits, Exec::Serial)
            .expect("shapes agree by construction");
        std::hint::black_box(&logits);
    });
    m.set("tensor.infer_ms_per_batch", median(&secs) * 1e3);
}

/// `embedding` and `core`: gather-reduce bandwidth, casting time and the
/// casted forward over one batch's index arrays. `batch` is one training
/// batch (a single entry) or the queries of one fused serving batch (one
/// entry per query); every entry holds one index array per table.
pub fn embedding_sections(
    m: &mut Metrics,
    model: &Dlrm,
    batch: &[Arc<[IndexArray]>],
    budget_s: f64,
) {
    let dim = model.config().embedding_dim;
    let tables = model.num_tables();
    let mut outs: Vec<Matrix> = (0..tables).map(|_| Matrix::default()).collect();

    let secs = time_reps(budget_s, 5, || {
        for unit in batch {
            for (t, idx) in unit.iter().enumerate() {
                gather_reduce_into(model.table(t), idx, &mut outs[t], Exec::Serial)
                    .expect("workload indices are in range");
            }
        }
        std::hint::black_box(&outs);
    });
    // Bytes computed, not measured: every lookup reads one `dim`-wide f32 row.
    let lookups: usize = batch
        .iter()
        .flat_map(|u| u.iter())
        .map(IndexArray::len)
        .sum();
    m.set(
        "embedding.gather_gbps",
        (lookups * dim * 4) as f64 / min_of(&secs) / 1e9,
    );

    let secs = time_reps(budget_s, 5, || {
        for unit in batch {
            for idx in unit.iter() {
                std::hint::black_box(tensor_casting(std::hint::black_box(idx)));
            }
        }
    });
    m.set("core.cast_ms_per_batch", median(&secs) * 1e3);

    let casted: Vec<Vec<CastedIndexArray>> = batch
        .iter()
        .map(|u| u.iter().map(tensor_casting).collect())
        .collect();
    let secs = time_reps(budget_s, 5, || {
        for (unit, cast) in batch.iter().zip(&casted) {
            for (t, c) in cast.iter().enumerate() {
                outs[t].zero_into(unit[t].num_outputs(), dim);
                casted_embedding_forward_into(model.table(t), c, &mut outs[t], 0)
                    .expect("casted rows are in range");
            }
        }
        std::hint::black_box(&outs);
    });
    m.set("core.casted_forward_ms_per_batch", median(&secs) * 1e3);
}

/// `datasets`: one `next_batch` of the workload's own source, buffers
/// recycled as the training loops recycle them.
pub fn datasets_section(m: &mut Metrics, source: &mut dyn BatchSource, budget_s: f64) {
    let secs = time_reps(budget_s, 5, || {
        let batch = source.next_batch().expect("synthetic sources never end");
        source.recycle(batch);
    });
    m.set("datasets.gen_ms_per_batch", median(&secs) * 1e3);
}

/// `snapshot`: publishing the model and reading the head back.
pub fn snapshot_section(m: &mut Metrics, model: &Dlrm) {
    let store = SnapshotStore::new(model, 0, 1);
    let secs = time_reps(0.1, 5, || {
        std::hint::black_box(store.publish(model, 0));
    });
    m.set("snapshot.publish_ms", median(&secs) * 1e3);
    let reads = 10_000;
    let t0 = Instant::now();
    for _ in 0..reads {
        std::hint::black_box(store.latest());
    }
    m.set(
        "snapshot.latest_us",
        t0.elapsed().as_secs_f64() * 1e6 / reads as f64,
    );
}

/// `dlrm` checkpoints: the codec's cost, in memory (a disk's speed is the
/// host's, not this repo's). Restores into the trainer that saved, so the
/// trainer is left as it was.
pub fn checkpoint_section(m: &mut Metrics, trainer: &mut Trainer) -> Result<(), String> {
    // Sized up front: doubling a GB-sized Vec while it fills would
    // briefly hold the checkpoint twice.
    let mut bytes = Vec::with_capacity(trainer.model().parameter_count() * 4 + (1 << 20));
    let t0 = Instant::now();
    save_train_checkpoint(&mut bytes, trainer, None, None).map_err(|e| e.to_string())?;
    m.set("dlrm.checkpoint_save_ms", t0.elapsed().as_secs_f64() * 1e3);
    m.set("dlrm.checkpoint_mb", bytes.len() as f64 / 1e6);
    let t0 = Instant::now();
    let ckpt = read_train_checkpoint(&mut bytes.as_slice()).map_err(|e| e.to_string())?;
    ckpt.restore_into(trainer).map_err(|e| e.to_string())?;
    m.set(
        "dlrm.checkpoint_restore_ms",
        t0.elapsed().as_secs_f64() * 1e3,
    );
    Ok(())
}
