//! Calibration report: prints the cost model's device parameters and
//! re-measures the pool efficiency factors on the cycle-level DRAM
//! simulator, side by side with the documented defaults — the provenance
//! audit for every number the figures depend on (the paper's Section V
//! methodology).

use tcast_bench::{banner, fast_mode};
use tcast_repro::system::{render_table, Calibration};

pub fn run() {
    banner(
        "Calibration",
        "Documented device parameters vs DRAM-simulator re-measurement",
    );
    let default = Calibration::default();
    let sample = if fast_mode() { 2_048 } else { 16_384 };
    let measured = Calibration::default().from_dram_sim(sample);

    let rows = vec![
        vec![
            "CPU memory (peak)".into(),
            format!("{:.1} GB/s", default.cpu_mem_gbps),
            "paper Fig. 3".into(),
        ],
        vec![
            "GPU HBM (peak)".into(),
            format!("{:.1} GB/s", default.gpu_mem_gbps),
            "V100 datasheet".into(),
        ],
        vec![
            "PCIe".into(),
            format!("{:.1} GB/s", default.pcie_gbps),
            "gen3 x16".into(),
        ],
        vec![
            "pool link".into(),
            format!("{:.1} GB/s", default.pool_link_gbps),
            "paper Section V".into(),
        ],
        vec![
            "pool peak".into(),
            format!("{:.1} GB/s", default.pool_peak_gbps()),
            "Table I (32 x 25.6)".into(),
        ],
        vec![
            "pool gather efficiency".into(),
            format!(
                "{:.3} documented / {:.3} measured",
                default.pool_gather_eff, measured.pool_gather_eff
            ),
            "tcast-dram, 64 B random gathers".into(),
        ],
        vec![
            "pool RMW efficiency".into(),
            format!(
                "{:.3} documented / {:.3} measured",
                default.pool_rmw_eff, measured.pool_rmw_eff
            ),
            "tcast-dram, read-modify-write".into(),
        ],
        vec![
            "pool stream efficiency".into(),
            format!(
                "{:.3} documented / {:.3} measured",
                default.pool_stream_eff, measured.pool_stream_eff
            ),
            "tcast-dram, sequential writes".into(),
        ],
        vec![
            "effective pool gather bw".into(),
            format!("{:.0} GB/s", default.pool_gather_gbps()),
            "paper: >600 GB/s".into(),
        ],
    ];
    println!(
        "{}",
        render_table(&["parameter", "value", "provenance"], &rows)
    );
    println!(
        "rerun any figure with measured efficiencies via Calibration::default().from_dram_sim(n)."
    );
}
