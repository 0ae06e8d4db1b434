//! Fig. 16: Tensor Casting sensitivity to training batch size
//! (8K/16K/32K mini-batches, the "several tens of thousands" regime of
//! MLPerf-style recommendation training).

use tcast_bench::banner;
use tcast_system::sweeps::{batch_sweep, LARGE_BATCHES};
use tcast_system::{render_table, Calibration, DesignPoint, RmModel};

pub fn run() {
    banner("Fig. 16", "Sensitivity to training batch size (b8K-32K)");
    let cal = Calibration::default();
    let mut rows = Vec::new();
    let mut max_speedup = 0.0f64;
    for model in RmModel::all() {
        let cpu = batch_sweep(&model, &LARGE_BATCHES, DesignPoint::OursCpu, &cal);
        let nmp = batch_sweep(&model, &LARGE_BATCHES, DesignPoint::OursNmp, &cal);
        for ((batch, cpu), (_, nmp)) in cpu.points.iter().zip(&nmp.points) {
            max_speedup = max_speedup.max(*nmp);
            rows.push(vec![
                format!("{} {batch}", model.name),
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
    println!("max Ours(NMP) speedup at large batch: {max_speedup:.1}x (paper: up to 15x; Ours(CPU) reaches 1.4-2.8x)");
}
