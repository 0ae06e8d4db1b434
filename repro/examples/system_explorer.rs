//! Interactive-ish system-model explorer: evaluate any (model, batch,
//! dim, dataset) point across all design points from environment
//! variables — the "what if" tool for the cost model.
//!
//! ```sh
//! cargo run --release --manifest-path repro/Cargo.toml --example system_explorer
//! MODEL=RM2 BATCH=16384 DIM=128 DATASET=movielens \
//!     cargo run --release --manifest-path repro/Cargo.toml --example system_explorer
//! ```

use tcast_datasets::DatasetPreset;
use tcast_repro::system::{
    build_timeline, energy_joules, render_table, render_timeline, Calibration, DesignPoint,
    SystemWorkload, TABLE_II,
};

fn env(name: &str, default: &str) -> String {
    std::env::var(name).unwrap_or_else(|_| default.to_string())
}

fn main() {
    let name = env("MODEL", "RM1").to_uppercase();
    let model = TABLE_II
        .into_iter()
        .find(|m| m.name == name)
        .unwrap_or(TABLE_II[0]);
    let batch: usize = env("BATCH", "2048").parse().unwrap_or(2048);
    let dim: usize = env("DIM", "64").parse().unwrap_or(64);
    let dataset = match env("DATASET", "criteo").to_lowercase().as_str() {
        "random" => DatasetPreset::Random,
        "amazon" => DatasetPreset::AmazonBooks,
        "movielens" => DatasetPreset::MovieLens20M,
        "alibaba" => DatasetPreset::AlibabaUserBehavior,
        _ => DatasetPreset::CriteoKaggle,
    };

    let cal = Calibration::default();
    let wl = SystemWorkload::build_with_dataset(model, batch, dim, dataset, 42);
    println!(
        "workload: {} | batch {} | dim {} | {} locality | {} lookups/table, {} unique\n",
        wl.name,
        wl.batch,
        wl.dim,
        wl.dataset.name(),
        wl.lookups_per_table(),
        wl.unique_per_table
    );

    let base = DesignPoint::BaselineCpuGpu.evaluate(&wl, &cal);
    let mut rows = Vec::new();
    for dp in DesignPoint::ALL {
        let e = dp.evaluate(&wl, &cal);
        let energy = energy_joules(&e, &cal);
        rows.push(vec![
            dp.name().to_string(),
            format!("{:.3} ms", e.total_ns / 1e6),
            format!("{:.2}x", base.total_ns / e.total_ns),
            format!("{:.0}%", 100.0 * e.embedding_backward_fraction()),
            if dp.devices().contains(&tcast_repro::system::Device::Nmp) {
                format!("{:.0}%", 100.0 * e.nmp_utilization())
            } else {
                "-".into()
            },
            format!("{:.2} J", energy.total()),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "design point",
                "iteration",
                "speedup",
                "emb-bwd share",
                "NMP util",
                "energy"
            ],
            &rows,
        )
    );

    println!("Ours(NMP) timeline:");
    let events = build_timeline(DesignPoint::OursNmp, &wl, &cal);
    println!("{}", render_timeline(&events, 90));
}
