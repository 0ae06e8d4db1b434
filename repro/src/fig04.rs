//! Fig. 4: end-to-end training time broken down into the key forward and
//! backward steps for CPU-only and CPU-GPU, RM1-4 x batch 1024/2048/4096,
//! with total latency normalized to each model's fastest configuration.

use tcast_bench::banner;
use tcast_repro::system::sweeps::grid_label;
use tcast_repro::system::{
    render_table, Calibration, DesignPoint, PhaseKind, SystemWorkload, TABLE_II,
};

pub fn run() {
    banner(
        "Fig. 4",
        "Training-time breakdown, CPU-only vs CPU-GPU (RM1-4, b1024-4096)",
    );
    let cal = Calibration::default();
    let kinds = [
        PhaseKind::FwdGather,
        PhaseKind::FwdDnn,
        PhaseKind::BwdDnn,
        PhaseKind::BwdExpand,
        PhaseKind::BwdCoalesceSort,
        PhaseKind::BwdCoalesceAccu,
        PhaseKind::BwdScatter,
    ];
    let mut headers = vec!["config", "system"];
    headers.extend(kinds.iter().map(|k| k.label()));
    headers.push("emb-bwd %");
    headers.push("latency (norm)");

    for model in TABLE_II {
        // Normalize to the model's fastest configuration (the paper uses
        // CPU-GPU b1024).
        let fastest = DesignPoint::BaselineCpuGpu
            .evaluate(&SystemWorkload::build(model, 1024, 64, 42), &cal)
            .total_ns;
        let mut rows = Vec::new();
        for batch in [1024usize, 2048, 4096] {
            let wl = SystemWorkload::build(model, batch, 64, 42);
            for dp in [DesignPoint::CpuOnly, DesignPoint::BaselineCpuGpu] {
                let e = dp.evaluate(&wl, &cal);
                let total = e.serial_sum_ns();
                let mut row = vec![grid_label(&wl), dp.name().to_string()];
                for k in kinds {
                    row.push(format!("{:.1}%", 100.0 * e.phase_ns(k) / total));
                }
                row.push(format!("{:.0}%", 100.0 * e.embedding_backward_fraction()));
                row.push(format!("{:.2}x", e.total_ns / fastest));
                rows.push(row);
            }
        }
        println!("{}", render_table(&headers, &rows));
    }
    println!("paper check: embedding backprop = 62-92% of CPU-centric time; MLPs <1% (RM1/2) and ~24% (RM3/4) under CPU-GPU.");
}
