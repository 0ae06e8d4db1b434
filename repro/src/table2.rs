//! Table II: recommendation model configurations (RM1-RM4).

use tcast_bench::banner;
use tcast_system::{render_table, RmModel};

pub fn run() {
    banner("Table II", "Recommendation model configurations");
    let rows: Vec<Vec<String>> = RmModel::all()
        .into_iter()
        .map(|m| {
            let fmt = |v: &[usize]| {
                v.iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
                    .join("-")
            };
            vec![
                m.name.to_string(),
                m.tables.to_string(),
                m.pooling.to_string(),
                fmt(&m.bottom_mlp),
                fmt(&m.top_mlp),
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
