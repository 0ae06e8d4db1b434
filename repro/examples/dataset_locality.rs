//! Explore how dataset popularity skew drives gradient coalescing — the
//! Fig. 5 analysis as a runnable example. More skew (hotter heads) means
//! more duplicate lookups per batch, smaller coalesced gradients, and a
//! bigger win for Tensor Casting's fused backward.
//!
//! ```sh
//! cargo run --release --manifest-path repro/Cargo.toml --example dataset_locality
//! ```

use tcast_datasets::DatasetPreset;
use tcast_system::{
    render_table, Calibration, CoalesceStats, DesignPoint, RmModel, SystemWorkload,
};

fn main() {
    println!("coalescing behaviour by dataset (batch 2048, pooling 10, 200k-row tables):\n");
    let mut rows = Vec::new();
    for preset in DatasetPreset::ALL {
        let workload = preset.table_workload(10).with_rows(200_000);
        let s = CoalesceStats::measure(&workload, 2048, 1);
        rows.push(vec![
            preset.name().to_string(),
            s.expanded.to_string(),
            s.coalesced.to_string(),
            format!("{:.0}%", 100.0 * s.coalesce_savings()),
        ]);
    }
    println!(
        "{}",
        render_table(
            &["dataset", "expanded rows", "coalesced rows", "savings"],
            &rows
        )
    );

    println!("and its downstream effect on end-to-end speedup (RM1, batch 2048):\n");
    let cal = Calibration::default();
    let mut rows = Vec::new();
    for preset in DatasetPreset::ALL {
        let wl = SystemWorkload::build_with_dataset(RmModel::rm1(), 2048, 64, preset, 1);
        let base = DesignPoint::BaselineCpuGpu.evaluate(&wl, &cal);
        let ours_cpu = DesignPoint::OursCpu.evaluate(&wl, &cal);
        let ours_nmp = DesignPoint::OursNmp.evaluate(&wl, &cal);
        rows.push(vec![
            preset.name().to_string(),
            format!("{:.2}x", base.total_ns / ours_cpu.total_ns),
            format!("{:.2}x", base.total_ns / ours_nmp.total_ns),
        ]);
    }
    println!(
        "{}",
        render_table(&["dataset locality", "Ours(CPU)", "Ours(NMP)"], &rows)
    );
    println!("note: every dataset benefits; locality shifts where the time goes (scatter vs gather-reduce), not whether casting helps.");
}
