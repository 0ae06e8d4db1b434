//! Fig. 12: latency breakdown of the four design points (normalized to
//! Baseline(CPU)) plus the speedup Tensor Casting brings to the gradient
//! expand-coalesce operator alone (the paper's right axis: 1.1-9.5x).

use tcast_bench::banner;
use tcast_system::sweeps::{grid_label, workload_grid, DEFAULT_BATCHES};
use tcast_system::{render_table, Calibration, DesignPoint, PhaseKind};

pub fn run() {
    banner(
        "Fig. 12",
        "Latency breakdown per design point (normalized to Baseline(CPU) accumulated latency)",
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
        PhaseKind::Casting,
        PhaseKind::BwdCastedGather,
    ];
    let mut headers = vec!["config", "design"];
    headers.extend(kinds.iter().map(|k| k.label()));
    headers.push("sum (norm)");
    headers.push("operator speedup");

    let designs = [
        DesignPoint::BaselineCpuGpu,
        DesignPoint::BaselineNmp,
        DesignPoint::OursCpu,
        DesignPoint::OursNmp,
    ];
    let mut rows = Vec::new();
    for wl in workload_grid(&DEFAULT_BATCHES, 64) {
        let base = DesignPoint::BaselineCpuGpu.evaluate(&wl, &cal);
        let norm = base.serial_sum_ns();
        for dp in designs {
            let e = dp.evaluate(&wl, &cal);
            let mut row = vec![grid_label(&wl), dp.name().to_string()];
            for k in kinds {
                let v = e.phase_ns(k) / norm;
                row.push(if v == 0.0 {
                    "-".into()
                } else {
                    format!("{:.3}", v)
                });
            }
            row.push(format!("{:.3}", e.serial_sum_ns() / norm));
            row.push(if dp.uses_casting() {
                format!(
                    "{:.2}x",
                    base.backward_operator_ns() / e.backward_operator_ns()
                )
            } else {
                "-".into()
            });
            rows.push(row);
        }
    }
    println!("{}", render_table(&headers, &rows));
    println!("paper check: expand-coalesce operator speedup 1.1-9.5x for Ours(CPU); a further 1.3-6.1x for Ours(NMP).");
}
