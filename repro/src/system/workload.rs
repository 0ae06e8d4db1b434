//! Workload descriptions: the RM1-RM4 model zoo (Table II) lowered into
//! the quantities the cost model needs.

use crate::histogram::CoalesceStats;
use crate::traffic::WorkloadShape;
use tcast_datasets::DatasetPreset;
use tcast_dlrm::DlrmConfig;

/// Rows a table in every [`PaperModel`]'s config. The model reads only the
/// architecture (table count, pooling, MLP widths, dense width), never the
/// row count, so any value prints the same reports.
const ROWS_PER_TABLE: usize = 1_000_000;

/// One of the paper's four models: a display name and the paper's
/// "embedding / MLP intensive" label. The architecture itself is declared
/// once, by `DlrmConfig::rm{1..4}_scaled`.
#[derive(Debug, Clone, Copy)]
pub struct PaperModel {
    /// Display name ("RM1"...).
    pub name: &'static str,
    /// Whether the paper classifies it embedding intensive (else MLP
    /// intensive).
    pub embedding_intensive: bool,
    scaled: fn(usize) -> DlrmConfig,
}

impl PaperModel {
    /// The model's architecture (its row count is never read).
    pub fn config(&self) -> DlrmConfig {
        (self.scaled)(ROWS_PER_TABLE)
    }
}

/// RM1 (embedding intensive).
pub const RM1: PaperModel = PaperModel {
    name: "RM1",
    embedding_intensive: true,
    scaled: DlrmConfig::rm1_scaled,
};
/// RM2 (embedding intensive).
pub const RM2: PaperModel = PaperModel {
    name: "RM2",
    embedding_intensive: true,
    scaled: DlrmConfig::rm2_scaled,
};
/// RM3 (MLP intensive).
pub const RM3: PaperModel = PaperModel {
    name: "RM3",
    embedding_intensive: false,
    scaled: DlrmConfig::rm3_scaled,
};
/// RM4 (MLP intensive).
pub const RM4: PaperModel = PaperModel {
    name: "RM4",
    embedding_intensive: false,
    scaled: DlrmConfig::rm4_scaled,
};

/// Table II's four models in paper order.
pub const TABLE_II: [PaperModel; 4] = [RM1, RM2, RM3, RM4];

/// A fully specified experiment point: model x batch x embedding dim,
/// with the coalescing locality measured from a dataset popularity model.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemWorkload {
    /// Display name ("RM1"...).
    pub name: &'static str,
    /// Whether the paper classifies the model embedding intensive.
    pub embedding_intensive: bool,
    /// The model architecture; every table has the same pooling.
    pub config: DlrmConfig,
    /// Mini-batch size.
    pub batch: usize,
    /// Embedding vector dimension.
    pub dim: usize,
    /// Unique-index count per table per batch (`U`), measured by
    /// sampling the locality model.
    pub unique_per_table: usize,
    /// The dataset whose locality was used.
    pub dataset: DatasetPreset,
}

impl SystemWorkload {
    /// Builds a workload using the paper's default Criteo-like locality.
    pub fn build(model: PaperModel, batch: usize, dim: usize, seed: u64) -> Self {
        Self::build_with_dataset(model, batch, dim, DatasetPreset::CriteoKaggle, seed)
    }

    /// Builds a workload with an explicit dataset locality model. The
    /// unique-index fraction is *measured* by generating one table's
    /// index stream and counting distinct ids (Fig. 5b methodology).
    ///
    /// # Panics
    ///
    /// Panics when the model's tables differ in pooling.
    pub fn build_with_dataset(
        model: PaperModel,
        batch: usize,
        dim: usize,
        dataset: DatasetPreset,
        seed: u64,
    ) -> Self {
        let config = model.config();
        let pooling = config.tables[0].pooling;
        assert!(
            config.tables.iter().all(|t| t.pooling == pooling),
            "{}: every table must share one pooling",
            model.name
        );
        let workload = dataset.table_workload(pooling);
        let stats = CoalesceStats::measure(&workload, batch, seed);
        Self {
            name: model.name,
            embedding_intensive: model.embedding_intensive,
            config,
            batch,
            dim,
            unique_per_table: stats.coalesced,
            dataset,
        }
    }

    /// Number of embedding tables.
    pub fn tables(&self) -> usize {
        self.config.tables.len()
    }

    /// Gathers (lookups) per table per sample — Table II "Gathers/table".
    pub fn pooling(&self) -> usize {
        self.config.tables[0].pooling
    }

    /// Lookups per table per batch (`n = batch * pooling`).
    pub fn lookups_per_table(&self) -> u64 {
        (self.batch * self.pooling()) as u64
    }

    /// The traffic-model shape of a single table's mini-batch.
    pub fn table_shape(&self) -> WorkloadShape {
        WorkloadShape {
            lookups: self.lookups_per_table(),
            outputs: self.batch as u64,
            unique: self.unique_per_table as u64,
            dim: self.dim as u64,
        }
    }

    /// Total lookups across all tables.
    pub fn total_lookups(&self) -> u64 {
        self.lookups_per_table() * self.tables() as u64
    }

    /// Bytes of the pooled embedding activations (all tables), the
    /// tensor shipped to the DNN each iteration.
    pub fn pooled_bytes(&self) -> u64 {
        (self.batch * self.dim * 4 * self.tables()) as u64
    }

    /// Bytes of the raw `(src,dst)` index arrays (all tables).
    pub fn index_bytes(&self) -> u64 {
        self.total_lookups() * 8
    }

    /// Forward-pass FLOPs of both MLPs at this batch with embedding width
    /// `dim` (2 FLOPs per MAC; interaction output feeds the top MLP).
    pub fn mlp_forward_flops(&self) -> f64 {
        let mut flops = 0.0;
        let mut prev = self.config.dense_features;
        for &w in &self.config.bottom_mlp {
            flops += 2.0 * self.batch as f64 * prev as f64 * w as f64;
            prev = w;
        }
        // DLRM dot interaction over (tables + 1) dim-wide vectors.
        let m = self.tables() + 1;
        let interaction_dim = self.dim + m * (m - 1) / 2;
        let mut prev = interaction_dim;
        for &w in &self.config.top_mlp {
            flops += 2.0 * self.batch as f64 * prev as f64 * w as f64;
            prev = w;
        }
        flops
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_ii_parameters() {
        let shape = |model: PaperModel| {
            let wl = SystemWorkload::build(model, 1024, 64, 1);
            (wl.name, wl.tables(), wl.pooling())
        };
        assert_eq!(shape(RM1), ("RM1", 10, 80));
        assert_eq!(shape(RM2), ("RM2", 40, 80));
        assert_eq!(shape(RM3), ("RM3", 10, 20));
        assert_eq!(RM4.config().top_mlp, vec![2048, 2048, 1024, 1]);
        let names: Vec<&str> = TABLE_II.iter().map(|m| m.name).collect();
        assert_eq!(names, ["RM1", "RM2", "RM3", "RM4"]);
    }

    #[test]
    fn embedding_vs_mlp_classification() {
        let labels: Vec<bool> = TABLE_II.iter().map(|m| m.embedding_intensive).collect();
        assert_eq!(labels, [true, true, false, false]);
    }

    #[test]
    fn mlp_flops_ordering_matches_model_classes() {
        // RM4 > RM3 > RM1 in MLP compute.
        let flops = |model| SystemWorkload::build(model, 2048, 64, 1).mlp_forward_flops();
        let (f1, f3, f4) = (flops(RM1), flops(RM3), flops(RM4));
        assert!(f3 > 5.0 * f1);
        assert!(f4 > 2.0 * f3);
    }

    #[test]
    fn workload_quantities() {
        let wl = SystemWorkload::build(RM1, 2048, 64, 1);
        assert_eq!(wl.lookups_per_table(), 2048 * 80);
        assert_eq!(wl.total_lookups(), 2048 * 80 * 10);
        assert_eq!(wl.pooled_bytes(), 2048 * 64 * 4 * 10);
        assert_eq!(wl.index_bytes(), 2048 * 80 * 10 * 8);
        // Locality: unique must be positive and below lookups.
        assert!(wl.unique_per_table > 0);
        assert!((wl.unique_per_table as u64) < wl.lookups_per_table());
    }

    #[test]
    fn larger_batches_coalesce_relatively_better() {
        let small = SystemWorkload::build(RM1, 1024, 64, 2);
        let large = SystemWorkload::build(RM1, 8192, 64, 2);
        let frac_small = small.unique_per_table as f64 / small.lookups_per_table() as f64;
        let frac_large = large.unique_per_table as f64 / large.lookups_per_table() as f64;
        assert!(frac_large < frac_small);
    }

    #[test]
    fn table_shape_roundtrip() {
        let wl = SystemWorkload::build(RM3, 1024, 32, 3);
        let s = wl.table_shape();
        assert_eq!(s.lookups, 1024 * 20);
        assert_eq!(s.outputs, 1024);
        assert_eq!(s.dim, 32);
        assert_eq!(s.unique, wl.unique_per_table as u64);
    }

    #[test]
    fn dataset_choice_changes_locality() {
        let criteo =
            SystemWorkload::build_with_dataset(RM1, 2048, 64, DatasetPreset::CriteoKaggle, 4);
        let random = SystemWorkload::build_with_dataset(RM1, 2048, 64, DatasetPreset::Random, 4);
        assert!(criteo.unique_per_table < random.unique_per_table);
    }
}
