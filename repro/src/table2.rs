//! Table II: recommendation model configurations (RM1-RM4).

use tcast_bench::banner;
use tcast_repro::system::{render_table, TABLE_II};

pub fn run() {
    banner("Table II", "Recommendation model configurations");
    let rows: Vec<Vec<String>> = TABLE_II
        .into_iter()
        .map(|m| {
            let c = m.config();
            let fmt = |v: &[usize]| {
                v.iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
                    .join("-")
            };
            vec![
                m.name.to_string(),
                c.tables.len().to_string(),
                c.tables[0].pooling.to_string(),
                fmt(&c.bottom_mlp),
                fmt(&c.top_mlp),
                if m.embedding_intensive {
                    "embedding".into()
                } else {
                    "MLP".into()
                },
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "Model",
                "# of Tables",
                "Gathers/table",
                "Bottom MLP",
                "Top MLP",
                "intensive"
            ],
            &rows,
        )
    );
}
