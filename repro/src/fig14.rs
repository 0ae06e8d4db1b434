//! Fig. 14: per-iteration energy consumption of every design point,
//! normalized to Baseline(CPU).

use tcast_bench::banner;
use tcast_system::sweeps::{grid_label, workload_grid, DEFAULT_BATCHES};
use tcast_system::{energy_joules, render_table, Calibration, DesignPoint};

pub fn run() {
    banner(
        "Fig. 14",
        "Energy consumption (normalized to Baseline(CPU))",
    );
    let cal = Calibration::default();
    let designs = [
        DesignPoint::BaselineCpuGpu,
        DesignPoint::BaselineNmp,
        DesignPoint::OursCpu,
        DesignPoint::OursNmp,
    ];
    let mut headers = vec!["config"];
    headers.extend(designs.iter().map(|d| d.name()));
    headers.push("Ours(NMP) J/iter");
    let mut rows = Vec::new();
    for wl in workload_grid(&DEFAULT_BATCHES, 64) {
        let base = energy_joules(&DesignPoint::BaselineCpuGpu.evaluate(&wl, &cal), &cal).total();
        let mut row = vec![grid_label(&wl)];
        let mut last_abs = 0.0;
        for dp in designs {
            let e = energy_joules(&dp.evaluate(&wl, &cal), &cal).total();
            row.push(format!("{:.3}", e / base));
            last_abs = e;
        }
        row.push(format!("{last_abs:.3} J"));
        rows.push(row);
    }
    println!("{}", render_table(&headers, &rows));
    println!("paper check: throughput gains translate directly into energy savings; even Ours(CPU) beats Baseline(NMP).");
}
