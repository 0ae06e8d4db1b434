//! Table I: disaggregated memory architecture configuration, plus the
//! measured effective bandwidth (">600 GB/s of the 819.2 GB/s peak") and
//! a rank-scaling sweep validating linear bandwidth amplification.

use tcast_bench::{banner, fast_mode};
use tcast_repro::dram::{streams, AddressMapping, DramConfig, MemorySystem};
use tcast_repro::system::render_table;

pub fn run() {
    banner("Table I", "Disaggregated memory architecture configuration");
    let mut channel = DramConfig::ddr4_3200().with_mapping(AddressMapping::ColumnFirst);
    channel.ranks_per_channel = 2;
    let per_rank = channel.peak_bandwidth_gbps();
    let ranks = 32usize;

    println!(
        "{}",
        render_table(
            &["parameter", "value"],
            &[
                vec![
                    "DRAM specification".into(),
                    "DDR4-3200 (dual-rank LRDIMM)".into()
                ],
                vec!["Number of ranks".into(), ranks.to_string()],
                vec![
                    "Effective memory bandwidth (per rank)".into(),
                    format!("{per_rank:.1} GB/sec"),
                ],
                vec![
                    "Effective memory bandwidth (in aggregate)".into(),
                    format!("{:.1} GB/sec", per_rank * ranks as f64),
                ],
            ],
        )
    );

    // Measured effective bandwidth of the gather pattern the NMP cores
    // service (random 64 B-granule slice reads).
    let sample = if fast_mode() { 2_000 } else { 16_000 };
    let rows: Vec<u32> = (0..sample as u32)
        .map(|i| i.wrapping_mul(2_654_435_761) % 500_000)
        .collect();
    let eff = MemorySystem::new(channel.clone())
        .run_trace(streams::gather_reads(&rows, 64, 0))
        .effective_bandwidth_gbps(&channel);
    println!(
        "measured per-rank gather bandwidth : {eff:.1} GB/s ({:.0}% of peak)",
        100.0 * eff / per_rank
    );
    println!(
        "measured aggregate gather bandwidth: {:.0} GB/s of {:.1} GB/s peak (paper: >600 of 819.2)\n",
        eff * ranks as f64,
        per_rank * ranks as f64
    );

    // Rank-scaling sweep: the premise that bandwidth amplifies linearly.
    println!("rank-scaling sweep (measured aggregate gather bandwidth):");
    let mut rows_out = Vec::new();
    for r in [4usize, 8, 16, 32, 64] {
        rows_out.push(vec![
            r.to_string(),
            format!("{:.1}", per_rank * r as f64),
            format!("{:.1}", eff * r as f64),
        ]);
    }
    println!(
        "{}",
        render_table(&["ranks", "peak GB/s", "effective GB/s"], &rows_out)
    );
}
