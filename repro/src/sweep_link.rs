//! Section VI-D (communication bandwidth): sweep the GPU <-> pool link
//! from the default 25 GB/s up to NVLINK-class 150 GB/s. The paper omits
//! the figure "for brevity" after reporting that 25 GB/s already reaches
//! 99% of the 150 GB/s configuration — this report regenerates the
//! underlying data.

use tcast_bench::banner;
use tcast_repro::system::{render_table, sweeps, Calibration, TABLE_II};

pub fn run() {
    banner(
        "Section VI-D",
        "Ours(NMP) sensitivity to GPU<->pool link bandwidth",
    );
    let mut rows = Vec::new();
    let cal = Calibration::default();
    for model in TABLE_II {
        let series = sweeps::link_sweep(model, &[25.0, 50.0, 100.0, 150.0], &cal);
        let mut row = vec![model.name.to_string()];
        for (_, v) in &series.points {
            row.push(format!("{:.1}%", 100.0 * v));
        }
        rows.push(row);
    }
    println!(
        "{}",
        render_table(
            &["model", "25 GB/s", "50 GB/s", "100 GB/s", "150 GB/s"],
            &rows,
        )
    );
    println!("paper check: the 25 GB/s default achieves ~99% of the 150 GB/s configuration's performance.");
}
