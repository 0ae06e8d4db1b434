//! Workload descriptions: the RM1-RM4 model zoo (Table II) lowered into
//! the quantities the cost model needs.

use crate::histogram::CoalesceStats;
use crate::traffic::WorkloadShape;
use tcast_datasets::DatasetPreset;

/// A recommendation-model architecture (one row of Table II).
#[derive(Debug, Clone, PartialEq)]
pub struct RmModel {
    /// Display name ("RM1"...).
    pub name: &'static str,
    /// Number of embedding tables.
    pub tables: usize,
    /// Gathers (lookups) per table per sample — Table II "Gathers/table".
    pub pooling: usize,
    /// Bottom-MLP layer widths.
    pub bottom_mlp: Vec<usize>,
    /// Top-MLP layer widths (last = 1).
    pub top_mlp: Vec<usize>,
    /// Dense (continuous) input features.
    pub dense_features: usize,
    /// Whether the paper classifies it embedding-intensive.
    pub embedding_intensive: bool,
}

impl RmModel {
    /// RM1: 10 tables x 80 gathers, bottom 256-128-64, top 256-64-1
    /// (embedding intensive).
    pub fn rm1() -> Self {
        Self {
            name: "RM1",
            tables: 10,
            pooling: 80,
            bottom_mlp: vec![256, 128, 64],
            top_mlp: vec![256, 64, 1],
            dense_features: 13,
            embedding_intensive: true,
        }
    }

    /// RM2: 40 tables x 80 gathers, bottom 256-128-64, top 512-128-1
    /// (embedding intensive).
    pub fn rm2() -> Self {
        Self {
            name: "RM2",
            tables: 40,
            pooling: 80,
            bottom_mlp: vec![256, 128, 64],
            top_mlp: vec![512, 128, 1],
            dense_features: 13,
            embedding_intensive: true,
        }
    }

    /// RM3: 10 tables x 20 gathers, bottom 2560-512-64, top 512-128-1
    /// (MLP intensive).
    pub fn rm3() -> Self {
        Self {
            name: "RM3",
            tables: 10,
            pooling: 20,
            bottom_mlp: vec![2560, 512, 64],
            top_mlp: vec![512, 128, 1],
            dense_features: 13,
            embedding_intensive: false,
        }
    }

    /// RM4: RM3 with an extra, wider top MLP: top 2048-2048-1024-1
    /// (MLP intensive).
    pub fn rm4() -> Self {
        Self {
            name: "RM4",
            tables: 10,
            pooling: 20,
            bottom_mlp: vec![2560, 1024, 64],
            top_mlp: vec![2048, 2048, 1024, 1],
            dense_features: 13,
            embedding_intensive: false,
        }
    }

    /// All four models in paper order.
    pub fn all() -> Vec<RmModel> {
        vec![Self::rm1(), Self::rm2(), Self::rm3(), Self::rm4()]
    }

    /// Forward-pass FLOPs of both MLPs at `batch` with embedding width
    /// `dim` (2 FLOPs per MAC; interaction output feeds the top MLP).
    pub fn mlp_forward_flops(&self, batch: usize, dim: usize) -> f64 {
        let mut flops = 0.0;
        let mut prev = self.dense_features;
        for &w in &self.bottom_mlp {
            flops += 2.0 * batch as f64 * prev as f64 * w as f64;
            prev = w;
        }
        // DLRM dot interaction over (tables + 1) dim-wide vectors.
        let m = self.tables + 1;
        let interaction_dim = dim + m * (m - 1) / 2;
        let mut prev = interaction_dim;
        for &w in &self.top_mlp {
            flops += 2.0 * batch as f64 * prev as f64 * w as f64;
            prev = w;
        }
        flops
    }
}

/// A fully specified experiment point: model x batch x embedding dim,
/// with the coalescing locality measured from a dataset popularity model.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemWorkload {
    /// The model architecture.
    pub model: RmModel,
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
    pub fn build(model: RmModel, batch: usize, dim: usize, seed: u64) -> Self {
        Self::build_with_dataset(model, batch, dim, DatasetPreset::CriteoKaggle, seed)
    }

    /// Builds a workload with an explicit dataset locality model. The
    /// unique-index fraction is *measured* by generating one table's
    /// index stream and counting distinct ids (Fig. 5b methodology).
    pub fn build_with_dataset(
        model: RmModel,
        batch: usize,
        dim: usize,
        dataset: DatasetPreset,
        seed: u64,
    ) -> Self {
        let workload = dataset.table_workload(model.pooling);
        let stats = CoalesceStats::measure(&workload, batch, seed);
        Self {
            model,
            batch,
            dim,
            unique_per_table: stats.coalesced,
            dataset,
        }
    }

    /// Lookups per table per batch (`n = batch * pooling`).
    pub fn lookups_per_table(&self) -> u64 {
        (self.batch * self.model.pooling) as u64
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
        self.lookups_per_table() * self.model.tables as u64
    }

    /// Bytes of the pooled embedding activations (all tables), the
    /// tensor shipped to the DNN each iteration.
    pub fn pooled_bytes(&self) -> u64 {
        (self.batch * self.dim * 4 * self.model.tables) as u64
    }

    /// Bytes of the raw `(src,dst)` index arrays (all tables).
    pub fn index_bytes(&self) -> u64 {
        self.total_lookups() * 8
    }

    /// MLP forward FLOPs at this batch/dim.
    pub fn mlp_forward_flops(&self) -> f64 {
        self.model.mlp_forward_flops(self.batch, self.dim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_ii_parameters() {
        let rm1 = RmModel::rm1();
        assert_eq!((rm1.tables, rm1.pooling), (10, 80));
        let rm2 = RmModel::rm2();
        assert_eq!((rm2.tables, rm2.pooling), (40, 80));
        let rm3 = RmModel::rm3();
        assert_eq!((rm3.tables, rm3.pooling), (10, 20));
        assert_eq!(RmModel::rm4().top_mlp, vec![2048, 2048, 1024, 1]);
        assert_eq!(RmModel::all().len(), 4);
    }

    #[test]
    fn embedding_vs_mlp_classification() {
        assert!(RmModel::rm1().embedding_intensive);
        assert!(RmModel::rm2().embedding_intensive);
        assert!(!RmModel::rm3().embedding_intensive);
        assert!(!RmModel::rm4().embedding_intensive);
    }

    #[test]
    fn mlp_flops_ordering_matches_model_classes() {
        // RM4 > RM3 > RM1 in MLP compute.
        let b = 2048;
        let f1 = RmModel::rm1().mlp_forward_flops(b, 64);
        let f3 = RmModel::rm3().mlp_forward_flops(b, 64);
        let f4 = RmModel::rm4().mlp_forward_flops(b, 64);
        assert!(f3 > 5.0 * f1);
        assert!(f4 > 2.0 * f3);
    }

    #[test]
    fn workload_quantities() {
        let wl = SystemWorkload::build(RmModel::rm1(), 2048, 64, 1);
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
        let small = SystemWorkload::build(RmModel::rm1(), 1024, 64, 2);
        let large = SystemWorkload::build(RmModel::rm1(), 8192, 64, 2);
        let frac_small = small.unique_per_table as f64 / small.lookups_per_table() as f64;
        let frac_large = large.unique_per_table as f64 / large.lookups_per_table() as f64;
        assert!(frac_large < frac_small);
    }

    #[test]
    fn table_shape_roundtrip() {
        let wl = SystemWorkload::build(RmModel::rm3(), 1024, 32, 3);
        let s = wl.table_shape();
        assert_eq!(s.lookups, 1024 * 20);
        assert_eq!(s.outputs, 1024);
        assert_eq!(s.dim, 32);
        assert_eq!(s.unique, wl.unique_per_table as u64);
    }

    #[test]
    fn dataset_choice_changes_locality() {
        let criteo = SystemWorkload::build_with_dataset(
            RmModel::rm1(),
            2048,
            64,
            DatasetPreset::CriteoKaggle,
            4,
        );
        let random =
            SystemWorkload::build_with_dataset(RmModel::rm1(), 2048, 64, DatasetPreset::Random, 4);
        assert!(criteo.unique_per_table < random.unique_per_table);
    }
}
