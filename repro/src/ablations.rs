//! Ablation studies of three design choices around the paper's Section
//! IV: the runtime overlap (hidden vs exposed casting, Section IV-B),
//! optimizer state traffic on the scatter, and the fused-backward
//! extension.

use tcast_bench::banner;
use tcast_repro::system::{
    ablation, render_table, Calibration, DesignPoint, SystemWorkload, TABLE_II,
};

pub fn run() {
    let cal = Calibration::default();

    banner(
        "Ablation 1",
        "Casting exposure: value of the Section IV-B overlap runtime",
    );
    let mut rows = Vec::new();
    for model in TABLE_II {
        let wl = SystemWorkload::build(model, 2048, 64, 42);
        for dp in [DesignPoint::OursCpu, DesignPoint::OursNmp] {
            let e = ablation::casting_exposure(dp, &wl, &cal);
            rows.push(vec![
                format!("{} {}", model.name, dp.name()),
                format!("{:.3} ms", e.exposed_ns / 1e6),
                format!("{:.3} ms", e.hidden_ns / 1e6),
                format!("{:.2}x", e.runtime_speedup()),
            ]);
        }
    }
    println!(
        "{}",
        render_table(
            &[
                "config",
                "casting exposed",
                "casting hidden",
                "runtime speedup"
            ],
            &rows,
        )
    );

    banner(
        "Ablation 2",
        "Optimizer state traffic added to the scatter (Adagrad/RMSprop: 8 B/elem)",
    );
    let mut rows = Vec::new();
    for model in TABLE_II {
        let wl = SystemWorkload::build(model, 2048, 64, 42);
        for dp in [DesignPoint::BaselineCpuGpu, DesignPoint::OursNmp] {
            let base = dp.evaluate(&wl, &cal);
            let extra = ablation::optimizer_state_overhead_ns(dp, &wl, &cal, 8);
            rows.push(vec![
                format!("{} {}", model.name, dp.name()),
                format!("{:.3} ms", extra / 1e6),
                format!("{:.2}%", 100.0 * extra / base.total_ns),
            ]);
        }
    }
    println!(
        "{}",
        render_table(&["config", "added scatter time", "of iteration"], &rows)
    );

    banner(
        "Ablation 3",
        "Fused backward extension: casted gather-reduce + scatter in one pass",
    );
    let mut rows = Vec::new();
    for model in TABLE_II {
        let wl = SystemWorkload::build(model, 2048, 64, 42);
        let normal = DesignPoint::OursNmp.evaluate(&wl, &cal);
        let fused = ablation::fused_backward_evaluation(&wl, &cal);
        rows.push(vec![
            model.name.to_string(),
            format!("{:.3} ms", normal.total_ns / 1e6),
            format!("{:.3} ms", fused.total_ns / 1e6),
            format!("{:.2}x", normal.total_ns / fused.total_ns),
        ]);
    }
    println!(
        "{}",
        render_table(
            &["model", "Ours(NMP)", "Ours(NMP)+fused", "extra speedup"],
            &rows,
        )
    );
}
