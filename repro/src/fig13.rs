//! Fig. 13: end-to-end training speedup of every design point over
//! Baseline(CPU), RM1-4 x batch 1024-8192.

use tcast_bench::banner;
use tcast_repro::system::sweeps::{grid_label, speedup, workload_grid, DEFAULT_BATCHES};
use tcast_repro::system::{geometric_mean, render_table, Calibration, DesignPoint};

pub fn run() {
    banner("Fig. 13", "End-to-end speedup over Baseline(CPU)");
    let cal = Calibration::default();
    let designs = [
        DesignPoint::BaselineCpuGpu,
        DesignPoint::BaselineNmp,
        DesignPoint::OursCpu,
        DesignPoint::OursNmp,
    ];
    let mut headers = vec!["config"];
    headers.extend(designs.iter().map(|d| d.name()));
    let mut rows = Vec::new();
    let mut ours_nmp = Vec::new();
    let mut ours_cpu = Vec::new();
    for wl in workload_grid(&DEFAULT_BATCHES, 64) {
        let mut row = vec![grid_label(&wl)];
        for dp in designs {
            let s = speedup(&wl, DesignPoint::BaselineCpuGpu, dp, &cal);
            row.push(format!("{s:.2}x"));
            if dp == DesignPoint::OursNmp {
                ours_nmp.push(s);
            }
            if dp == DesignPoint::OursCpu {
                ours_cpu.push(s);
            }
        }
        rows.push(row);
    }
    println!("{}", render_table(&headers, &rows));
    let avg = ours_nmp.iter().sum::<f64>() / ours_nmp.len() as f64;
    println!(
        "Ours(CPU): {:.2}x-{:.2}x | Ours(NMP): {:.2}x-{:.2}x, arithmetic mean {:.2}x, geomean {:.2}x",
        ours_cpu.iter().copied().fold(f64::INFINITY, f64::min),
        ours_cpu.iter().copied().fold(0.0, f64::max),
        ours_nmp.iter().copied().fold(f64::INFINITY, f64::min),
        ours_nmp.iter().copied().fold(0.0, f64::max),
        avg,
        geometric_mean(&ours_nmp),
    );
    println!(
        "paper check: Ours(CPU) 1.2-1.6x (default batches), Ours(NMP) 2.0-15x with average 6.9x."
    );
}
