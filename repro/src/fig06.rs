//! Fig. 6: memory read/write traffic of the key embedding-layer
//! primitives per dataset (pooling 10, batch 2048), normalized to the
//! backpropagated gradient tensor size. The "Coalesce" row counts only
//! the accumulation step, matching the paper's convention.

use tcast_bench::{banner, fast_mode};
use tcast_datasets::DatasetPreset;
use tcast_system::traffic::{self, WorkloadShape};
use tcast_system::{render_table, CoalesceStats};

pub fn run() {
    banner(
        "Fig. 6",
        "Memory read/write traffic per primitive (normalized to backpropagated gradient size)",
    );
    let batch = 2048usize;
    let dim = 64u64;
    let scale_rows = if fast_mode() { 50_000 } else { 200_000 };
    let unit = (batch as u64 * dim * 4) as f64; // backpropagated tensor bytes

    let mut rows = Vec::new();
    for preset in DatasetPreset::ALL {
        let workload = preset.table_workload(10).with_rows(scale_rows);
        let stats = CoalesceStats::measure(&workload, batch, 5);
        let s = WorkloadShape {
            lookups: stats.expanded as u64,
            outputs: stats.backpropagated as u64,
            unique: stats.coalesced as u64,
            dim,
        };
        let prims: [(&str, traffic::Traffic); 4] = [
            ("Gather", traffic::gather_reduce(&s)),
            ("Expand", traffic::gradient_expand(&s)),
            ("Coalesce", traffic::coalesce_accumulate(&s)),
            ("Scatter", traffic::scatter(&s, 0)),
        ];
        for (name, t) in prims {
            rows.push(vec![
                preset.name().to_string(),
                name.to_string(),
                format!("{:.2}", t.read_bytes as f64 / unit),
                format!("{:.2}", t.write_bytes as f64 / unit),
                format!("{:.2}", t.total() as f64 / unit),
            ]);
        }
        let ec = traffic::expand_coalesce_total(&s).total() as f64;
        let gr = traffic::gather_reduce(&s).total() as f64;
        rows.push(vec![
            preset.name().to_string(),
            "(expand-coalesce / gather)".into(),
            String::new(),
            String::new(),
            format!("{:.2}x", ec / gr),
        ]);
    }
    println!(
        "{}",
        render_table(&["dataset", "primitive", "read", "write", "total"], &rows)
    );
    println!("paper check: expand-coalesce aggregate incurs ~3x the traffic of gather-reduce; coalesce and scatter dwarf gather.");
}
