//! Pool-scaling study (an ablation of Table I): how the Ours(NMP) speedup
//! grows with the number of pool ranks, and where it saturates — the
//! design knob behind Table I's choice of 32.

use tcast_bench::banner;
use tcast_repro::system::{render_table, sweeps, Calibration, TABLE_II};

pub fn run() {
    banner(
        "Pool scaling",
        "Ours(NMP) speedup over Baseline(CPU) vs pool rank count (b2048, dim 64)",
    );
    let cal = Calibration::default();
    let ranks = [4usize, 8, 16, 32, 64, 128];
    let mut rows = Vec::new();
    for model in TABLE_II {
        let series = sweeps::rank_sweep(model, &ranks, &cal);
        let mut row = vec![model.name.to_string()];
        for (_, v) in &series.points {
            row.push(format!("{v:.2}x"));
        }
        rows.push(row);
    }
    let mut headers = vec!["model"];
    let labels: Vec<String> = ranks.iter().map(|r| format!("{r} ranks")).collect();
    headers.extend(labels.iter().map(String::as_str));
    println!("{}", render_table(&headers, &rows));
    println!("takeaway: returns diminish past Table I's 32 ranks — the non-embedding phases (DNN, link, exposed casting) take over.");
}
