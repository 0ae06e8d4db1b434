//! DLRM model configurations: Table II shapes at functional-run scale.
//!
//! The paper's tables hold millions to billions of rows; functional
//! training runs on one machine use the same *architecture* (table
//! counts, pooling factors, MLP stacks) with reduced per-table
//! cardinality — locality behaviour is preserved by the Zipf workload
//! models, and none of the algorithms under test depend on absolute
//! table size.

use tcast_datasets::{Popularity, TableWorkload};

/// One embedding table's configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TableConfig {
    /// Number of rows (categorical cardinality).
    pub rows: usize,
    /// Lookups per sample (pooling factor).
    pub pooling: usize,
    /// Zipf exponent of the lookup popularity (0 = uniform).
    pub zipf_exponent: f64,
}

impl TableConfig {
    /// The dataset workload model for this table.
    pub fn workload(&self) -> TableWorkload {
        TableWorkload::new(
            Popularity::zipf_or_uniform(self.rows, self.zipf_exponent),
            self.pooling,
        )
    }
}

/// Full DLRM configuration: Fig. 1's topology, whose bottom-MLP output
/// and pooled embeddings meet in DLRM's dot interaction.
#[derive(Debug, Clone, PartialEq)]
pub struct DlrmConfig {
    /// Dense (continuous) feature count.
    pub dense_features: usize,
    /// Embedding dimension (shared across tables, as in DLRM; non-zero).
    pub embedding_dim: usize,
    /// Embedding tables.
    pub tables: Vec<TableConfig>,
    /// Bottom-MLP widths, each non-zero; the last must equal
    /// `embedding_dim`, the width the dot interaction pairs it at.
    pub bottom_mlp: Vec<usize>,
    /// Top-MLP widths, each non-zero; the last must be 1.
    pub top_mlp: Vec<usize>,
}

impl DlrmConfig {
    /// A tiny configuration for unit tests and doc examples.
    pub fn tiny() -> Self {
        Self {
            dense_features: 8,
            embedding_dim: 16,
            tables: vec![
                TableConfig {
                    rows: 200,
                    pooling: 3,
                    zipf_exponent: 1.0,
                },
                TableConfig {
                    rows: 100,
                    pooling: 2,
                    zipf_exponent: 0.0,
                },
            ],
            bottom_mlp: vec![32, 16],
            top_mlp: vec![32, 1],
        }
    }

    /// RM1's architecture (Table II) at reduced table cardinality:
    /// 10 tables x 80 gathers, bottom 256-128-64, top 256-64-1.
    pub fn rm1_scaled(rows_per_table: usize) -> Self {
        Self::rm_scaled(10, 80, vec![256, 128, 64], vec![256, 64, 1], rows_per_table)
    }

    /// RM2's architecture at reduced cardinality: 40 tables x 80 gathers.
    pub fn rm2_scaled(rows_per_table: usize) -> Self {
        Self::rm_scaled(
            40,
            80,
            vec![256, 128, 64],
            vec![512, 128, 1],
            rows_per_table,
        )
    }

    /// RM3's architecture at reduced cardinality: 10 tables x 20 gathers,
    /// MLP-heavy stacks.
    pub fn rm3_scaled(rows_per_table: usize) -> Self {
        Self::rm_scaled(
            10,
            20,
            vec![2560, 512, 64],
            vec![512, 128, 1],
            rows_per_table,
        )
    }

    /// RM4's architecture at reduced cardinality.
    pub fn rm4_scaled(rows_per_table: usize) -> Self {
        Self::rm_scaled(
            10,
            20,
            vec![2560, 1024, 64],
            vec![2048, 2048, 1024, 1],
            rows_per_table,
        )
    }

    fn rm_scaled(
        tables: usize,
        pooling: usize,
        bottom: Vec<usize>,
        top: Vec<usize>,
        rows: usize,
    ) -> Self {
        let dim = *bottom.last().expect("bottom mlp non-empty");
        Self {
            dense_features: 13,
            embedding_dim: dim,
            tables: vec![
                TableConfig {
                    rows,
                    pooling,
                    zipf_exponent: 1.05, // Criteo-like skew
                };
                tables
            ],
            bottom_mlp: bottom,
            top_mlp: top,
        }
    }

    /// Per-table dataset workload models (drives `SyntheticCtr`).
    pub fn table_workloads(&self) -> Vec<TableWorkload> {
        self.tables.iter().map(TableConfig::workload).collect()
    }

    /// Total embedding parameters.
    pub fn embedding_parameters(&self) -> usize {
        self.tables
            .iter()
            .map(|t| t.rows * self.embedding_dim)
            .sum()
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a message when the embedding dimension is 0, the bottom-MLP
    /// output width differs from it (required by the dot interaction),
    /// the top MLP does not end in 1, no tables are configured, or a table
    /// has no rows, a pooling factor of 0 or a NaN Zipf exponent (which
    /// its workload generator could not draw from). A zero hidden width is
    /// refused when the model's MLPs are built.
    pub fn validate(&self) -> Result<(), String> {
        if self.embedding_dim == 0 {
            return Err("embedding_dim is 0".to_string());
        }
        if self.tables.is_empty() {
            return Err("at least one embedding table is required".to_string());
        }
        for (i, t) in self.tables.iter().enumerate() {
            if t.rows == 0 {
                return Err(format!("table {i} has no rows"));
            }
            if t.pooling == 0 {
                return Err(format!("table {i} has pooling factor 0"));
            }
            if t.zipf_exponent.is_nan() {
                return Err(format!("table {i} has a NaN zipf exponent"));
            }
        }
        if self.bottom_mlp.last() != Some(&self.embedding_dim) {
            return Err(format!(
                "dot interaction requires bottom-MLP output ({}) == embedding dim ({})",
                self.bottom_mlp.last().copied().unwrap_or(0),
                self.embedding_dim
            ));
        }
        if self.top_mlp.last() != Some(&1) {
            return Err("top MLP must end in a single logit".to_string());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_is_valid() {
        assert!(DlrmConfig::tiny().validate().is_ok());
    }

    #[test]
    fn rm_presets_match_table_ii_shapes() {
        let rm1 = DlrmConfig::rm1_scaled(1000);
        assert_eq!(rm1.tables.len(), 10);
        assert_eq!(rm1.tables[0].pooling, 80);
        assert_eq!(rm1.bottom_mlp, vec![256, 128, 64]);
        assert!(rm1.validate().is_ok());
        let rm2 = DlrmConfig::rm2_scaled(1000);
        assert_eq!(rm2.tables.len(), 40);
        let rm4 = DlrmConfig::rm4_scaled(1000);
        assert_eq!(rm4.top_mlp, vec![2048, 2048, 1024, 1]);
        assert!(rm4.validate().is_ok());
    }

    #[test]
    fn validation_catches_mismatches() {
        let mut bad = DlrmConfig::tiny();
        bad.embedding_dim = 99;
        assert!(bad.validate().is_err());

        let mut bad = DlrmConfig::tiny();
        bad.top_mlp = vec![8, 2];
        assert!(bad.validate().is_err());

        let mut bad = DlrmConfig::tiny();
        bad.tables.clear();
        assert!(bad.validate().is_err());
    }

    #[test]
    fn hostile_tables_are_rejected_before_anything_is_built() {
        // Each of these used to pass validation and then panic (or, for
        // NaN, silently draw row 0 every time) once a generator was built
        // or, for a zero-width last layer, on the first step.
        let spoilers: [fn(&mut DlrmConfig); 4] = [
            |c| c.tables[1].rows = 0,
            |c| c.tables[1].pooling = 0,
            |c| c.tables[1].zipf_exponent = f64::NAN,
            |c| {
                c.embedding_dim = 0;
                c.bottom_mlp = vec![32, 0];
            },
        ];
        let messages = [
            "table 1 has no rows",
            "table 1 has pooling factor 0",
            "table 1 has a NaN zipf exponent",
            "embedding_dim is 0",
        ];
        for (spoil, message) in spoilers.into_iter().zip(messages) {
            let mut bad = DlrmConfig::tiny();
            spoil(&mut bad);
            assert_eq!(bad.validate(), Err(message.to_string()));
            let Err(err) = crate::Trainer::new(bad, crate::BackwardMode::Casted, 1) else {
                panic!("a hostile table must not build a trainer ({message})");
            };
            assert!(err.to_string().contains(message), "{err}");
        }
    }

    #[test]
    fn parameter_count() {
        let c = DlrmConfig::tiny();
        assert_eq!(c.embedding_parameters(), (200 + 100) * 16);
    }

    #[test]
    fn workload_conversion() {
        let c = DlrmConfig::tiny();
        let w = c.table_workloads();
        assert_eq!(w.len(), 2);
        assert_eq!(w[0].pooling(), 3);
        assert_eq!(w[0].rows(), 200);
    }
}
