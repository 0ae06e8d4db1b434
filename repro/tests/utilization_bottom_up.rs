//! Rebuilds Fig. 15 *bottom-up*: the NMP busy times come from the
//! instruction-level pool (real DRAM-command scheduling), the non-NMP
//! phase durations from the calibrated analytic model, and the resulting
//! utilization must agree qualitatively with the top-down system model.

use tcast_core::tensor_casting;
use tcast_datasets::{DatasetPreset, TableWorkload};
use tcast_embedding::{gradient_expand_coalesce, EmbeddingTable};
use tcast_nmp::{NmpPool, PoolConfig, UtilizationTracker};
use tcast_system::{Calibration, DesignPoint, PhaseKind, RmModel, SystemWorkload};
use tcast_tensor::{Matrix, SplitMix64};

/// One scaled-down RM1-like iteration on a 4-channel pool: 2 tables
/// (dim 64 -> each spans all 4 channels), batch 256, pooling 10.
fn run_iteration(casted_mode: bool) -> (UtilizationTracker, f64) {
    let dim = 64;
    let batch = 256;
    let tables = 2;
    let mut pool = NmpPool::new(PoolConfig::small(4));
    let spec = TableWorkload::new(
        DatasetPreset::CriteoKaggle.popularity().with_rows(20_000),
        10,
    );
    let mut rng = SplitMix64::new(9);

    // Non-NMP phase durations from the analytic model, scaled to this
    // mini workload: use RM1's DNN/link shares at the same batch.
    let cal = Calibration {
        pool_channels: 4,
        ..Calibration::default()
    };
    let wl = SystemWorkload::build(RmModel::rm1(), batch, dim, 42);
    let eval = DesignPoint::OursNmp.evaluate(&wl, &cal);
    // Per-table scaling: the analytic model covers 10 tables; we run 2.
    let scale = tables as f64 / wl.model.tables as f64;
    let dnn_ns = (eval.phase_ns(PhaseKind::FwdDnn) + eval.phase_ns(PhaseKind::BwdDnn)) * scale;
    let exposed_casting_ns = (eval.casting_total_ns - eval.casting_hidden_ns) * scale;

    let mut tracker = UtilizationTracker::new();
    let mut handles = Vec::new();
    for t in 0..tables {
        let table = EmbeddingTable::seeded(20_000, dim, t as u64);
        handles.push(pool.load_table(&table).unwrap());
    }
    // Forward gathers (pool busy).
    let mut indices = Vec::new();
    for &h in &handles {
        let index = spec.generator(rng.next_u64()).next_batch(batch);
        let (_, exec) = pool.gather_reduce(h, &index).unwrap();
        tracker.record_pool_op(&exec);
        indices.push((h, index));
    }
    // DNN phases + exposed casting (pool idle).
    tracker.record_idle(dnn_ns);
    tracker.record_idle(exposed_casting_ns);

    // Backward.
    for (h, index) in &indices {
        let mut grads = Matrix::zeros(batch, dim);
        for v in grads.as_mut_slice() {
            *v = rng.next_range(-0.5, 0.5);
        }
        if casted_mode {
            let casted = tensor_casting(index);
            let (coalesced, exec) = pool.casted_gather_reduce(*h, &grads, &casted).unwrap();
            tracker.record_pool_op(&exec);
            let exec = pool.scatter_sgd(*h, &coalesced, 0.05, true).unwrap();
            tracker.record_pool_op(&exec);
        } else {
            // TensorDIMM baseline: expand-coalesce on the "CPU" (idle for
            // the pool, duration from the analytic model), scatter on the
            // pool.
            let cpu_ec_ns = (eval_baseline_expand_coalesce_ns(&cal, &wl)) * scale;
            tracker.record_idle(cpu_ec_ns);
            let coalesced = gradient_expand_coalesce(&grads, index).unwrap();
            let exec = pool.scatter_sgd(*h, &coalesced, 0.05, false).unwrap();
            tracker.record_pool_op(&exec);
        }
    }
    (tracker, eval.nmp_utilization())
}

fn eval_baseline_expand_coalesce_ns(cal: &Calibration, wl: &SystemWorkload) -> f64 {
    let eval = DesignPoint::BaselineNmp.evaluate(wl, cal);
    eval.phase_ns(PhaseKind::BwdExpand)
        + eval.phase_ns(PhaseKind::BwdCoalesceSort)
        + eval.phase_ns(PhaseKind::BwdCoalesceAccu)
}

#[test]
fn casting_multiplies_bottom_up_utilization() {
    let (casted, _) = run_iteration(true);
    let (baseline, _) = run_iteration(false);
    assert!(
        casted.utilization() > 4.0 * baseline.utilization(),
        "T.Casting {:.1}% vs TensorDIMM {:.1}%",
        100.0 * casted.utilization(),
        100.0 * baseline.utilization()
    );
    // TensorDIMM stays a point accelerator; with casting the pool runs
    // the majority-to-large share of the iteration.
    assert!(baseline.utilization() < 0.25);
    assert!(casted.utilization() > 0.30);
}

#[test]
fn bottom_up_and_top_down_utilization_agree() {
    let (tracker, analytic) = run_iteration(true);
    let bottom_up = tracker.utilization();
    assert!(
        (bottom_up - analytic).abs() < 0.35,
        "bottom-up {bottom_up:.2} vs analytic {analytic:.2}"
    );
}
