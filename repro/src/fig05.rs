//! Fig. 5: (a) the lookup-probability function of each dataset's largest
//! embedding table; (b) gradient tensor sizes before/after expansion and
//! coalescing as a function of batch size (pooling factor 10, matching
//! the paper's setup where "the expanded gradient size is precisely 10x
//! larger than the initial backpropagated gradients").

use tcast_bench::{banner, fast_mode};
use tcast_datasets::DatasetPreset;
use tcast_system::{render_table, CoalesceStats, LookupHistogram};
use tcast_tensor::SplitMix64;

pub fn run() {
    banner("Fig. 5a", "Probability of lookup per table entry (sorted)");
    let scale_rows = if fast_mode() { 50_000 } else { 200_000 };
    let sample = if fast_mode() { 50_000 } else { 400_000 };

    let ranks = [0usize, 9, 99, 999, 9999];
    let mut rows = Vec::new();
    for preset in DatasetPreset::ALL {
        let pop = preset.popularity().with_rows(scale_rows);
        let sampler = pop.sampler();
        let mut rng = SplitMix64::new(7);
        let hist = LookupHistogram::from_lookups(&sampler.sample_many(sample, &mut rng));
        let probs = hist.sorted_probabilities();
        let mut row = vec![preset.name().to_string()];
        for &r in &ranks {
            row.push(
                probs
                    .get(r)
                    .map(|p| format!("{p:.2e}"))
                    .unwrap_or_else(|| "-".into()),
            );
        }
        row.push(format!("{:.1}%", 100.0 * hist.head_mass(100)));
        rows.push(row);
    }
    println!(
        "{}",
        render_table(
            &[
                "dataset",
                "p(rank 1)",
                "p(rank 10)",
                "p(rank 100)",
                "p(rank 1k)",
                "p(rank 10k)",
                "top-100 mass"
            ],
            &rows,
        )
    );

    banner(
        "Fig. 5b",
        "Gradient size before/after expand and coalesce (normalized to backpropagated; 10 gathers/table)",
    );
    let mut rows = Vec::new();
    for preset in DatasetPreset::ALL {
        let workload = preset.table_workload(10).with_rows(scale_rows);
        for batch in [1024usize, 2048, 4096] {
            let s = CoalesceStats::measure(&workload, batch, 11);
            rows.push(vec![
                preset.name().to_string(),
                format!("b{batch}"),
                "1.00".to_string(),
                format!("{:.2}", s.expansion_ratio()),
                format!("{:.2}", s.coalesced_ratio()),
                format!("{:.0}%", 100.0 * s.coalesce_savings()),
            ]);
        }
    }
    println!(
        "{}",
        render_table(
            &[
                "dataset",
                "batch",
                "backpropagated",
                "expanded",
                "coalesced",
                "coalesce savings"
            ],
            &rows,
        )
    );
    println!("paper check: expanded = exactly 10x; coalesced shrinks with batch size and dataset skew (MovieLens most, Random least).");
}
