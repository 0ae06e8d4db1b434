//! The DLRM model: Fig. 1's topology over this repository's kernels.

use crate::config::DlrmConfig;
use tcast_embedding::{
    gather_reduce, gather_reduce_into, EmbeddingError, EmbeddingTable, IndexArray, ShardMap,
    ShardSpec,
};
use tcast_pool::Exec;
use tcast_tensor::{Activation, FeatureInteraction, Matrix, Mlp, MlpInferenceScratch, ShapeError};

/// A DLRM model instance: bottom MLP, embedding tables, feature
/// interaction, top MLP.
///
/// `forward`/`backward` handle the dense parts and the embedding
/// *forward*; the embedding *backward* (the subject of the paper) is
/// orchestrated by the [`crate::Trainer`], which owns the choice between
/// the baseline and casted paths.
///
/// # Sharding
///
/// A [`ShardSpec`] splits every table's **rows** into contiguous range
/// shards (a [`ShardMap`] per table). The tables themselves stay single
/// slabs — sharding is a *placement plan* the trainer uses to split
/// optimizer state and run per-shard backward work concurrently — so the
/// forward pass, serving, and the `MODL` checkpoint section are untouched
/// by the shard count, and a 1-shard model is today's layout exactly.
#[derive(Debug)]
pub struct Dlrm {
    config: DlrmConfig,
    bottom: Mlp,
    top: Mlp,
    interaction: FeatureInteraction,
    tables: Vec<EmbeddingTable>,
    shard_spec: ShardSpec,
    maps: Vec<ShardMap>,
    scratch: DenseScratch,
}

/// Reusable intermediates of the dense step path; every buffer is
/// `zero_into`-recycled each step, so the steady-state dense forward and
/// backward allocate nothing.
#[derive(Debug, Default)]
struct DenseScratch {
    bottom_out: Matrix,
    interaction_out: Matrix,
    dz: Matrix,
    ddense: Matrix,
    dinput_sink: Matrix,
}

/// Caller-owned reusable buffers for the `&self` inference path
/// ([`Dlrm::predict_into`] / [`Dlrm::dense_infer_into`]).
///
/// Unlike the training scratch (which lives inside the model because
/// backward consumes cached forward state), inference touches no model
/// state at all — so the buffers live with the *caller*, and any number
/// of serving engines can score one shared frozen model, each through
/// its own scratch.
#[derive(Debug, Default)]
pub struct InferenceScratch {
    pooled: Vec<Matrix>,
    bottom_out: Matrix,
    interaction_out: Matrix,
    bottom_mlp: MlpInferenceScratch,
    top_mlp: MlpInferenceScratch,
}

impl InferenceScratch {
    /// The per-table pooled-embedding buffers [`Dlrm::dense_infer_into`]
    /// consumes. [`Dlrm::predict_into`] fills them via the plain
    /// gather-reduce; a serving engine writes them directly (e.g. through
    /// the casted forward fast path) before calling
    /// [`Dlrm::dense_infer_into`].
    pub fn pooled_mut(&mut self) -> &mut Vec<Matrix> {
        &mut self.pooled
    }
}

impl Dlrm {
    /// Builds a model with seeded initialization.
    ///
    /// # Errors
    ///
    /// Returns [`EmbeddingError::InvalidIndex`] when the configuration is
    /// inconsistent (see [`DlrmConfig::validate`]).
    pub fn new(config: DlrmConfig, seed: u64) -> Result<Self, EmbeddingError> {
        Self::with_shards(config, seed, ShardSpec::default())
    }

    /// [`Dlrm::new`] with a row-range sharding plan. `spec` requests the
    /// shard count per table; a table too small for the full count gets
    /// fewer (see [`ShardMap::new`]). Weights are seeded identically for
    /// every spec — sharding never changes the model.
    ///
    /// # Errors
    ///
    /// Returns [`EmbeddingError::InvalidIndex`] when the configuration is
    /// inconsistent (see [`DlrmConfig::validate`]).
    pub fn with_shards(
        config: DlrmConfig,
        seed: u64,
        spec: ShardSpec,
    ) -> Result<Self, EmbeddingError> {
        config.validate().map_err(EmbeddingError::InvalidIndex)?;
        let bottom = Mlp::new(
            config.dense_features,
            &config.bottom_mlp,
            Activation::Relu,
            seed,
        )
        .map_err(EmbeddingError::from)?;
        let m = config.tables.len() + 1;
        let interaction_dim = match config.interaction {
            tcast_tensor::InteractionKind::Dot => config.embedding_dim + m * (m - 1) / 2,
            tcast_tensor::InteractionKind::Concat => config.embedding_dim * m,
        };
        let top = Mlp::new(
            interaction_dim,
            &config.top_mlp,
            Activation::Relu,
            seed ^ 0xA5A5,
        )
        .map_err(EmbeddingError::from)?;
        let tables = config
            .tables
            .iter()
            .enumerate()
            .map(|(i, t)| {
                EmbeddingTable::seeded(t.rows, config.embedding_dim, seed.wrapping_add(i as u64))
            })
            .collect();
        let maps = config
            .tables
            .iter()
            .map(|t| ShardMap::new(t.rows, spec.shards()))
            .collect();
        Ok(Self {
            interaction: FeatureInteraction::new(config.interaction),
            config,
            bottom,
            top,
            tables,
            shard_spec: spec,
            maps,
            scratch: DenseScratch::default(),
        })
    }

    /// The sharding plan this model was built with.
    pub fn shard_spec(&self) -> ShardSpec {
        self.shard_spec
    }

    /// Table `i`'s row-range shard map.
    pub fn shard_map(&self, i: usize) -> &ShardMap {
        &self.maps[i]
    }

    /// The model configuration.
    pub fn config(&self) -> &DlrmConfig {
        &self.config
    }

    /// Immutable access to an embedding table.
    pub fn table(&self, i: usize) -> &EmbeddingTable {
        &self.tables[i]
    }

    /// Mutable access to an embedding table (checkpoint restore, weight
    /// surgery).
    pub fn table_mut(&mut self, i: usize) -> &mut EmbeddingTable {
        &mut self.tables[i]
    }

    /// Mutable access to every embedding table at once: the trainer's
    /// scatter phase, which updates table `i + 1` while table `i`, already
    /// updated, is read for the next step's gather.
    pub fn tables_mut(&mut self) -> &mut [EmbeddingTable] {
        &mut self.tables
    }

    /// Number of embedding tables.
    pub fn num_tables(&self) -> usize {
        self.tables.len()
    }

    /// Immutable access to the bottom MLP.
    pub fn bottom(&self) -> &Mlp {
        &self.bottom
    }

    /// Mutable access to the bottom MLP (checkpoint restore).
    pub fn bottom_mut(&mut self) -> &mut Mlp {
        &mut self.bottom
    }

    /// Immutable access to the top MLP.
    pub fn top(&self) -> &Mlp {
        &self.top
    }

    /// Mutable access to the top MLP (checkpoint restore).
    pub fn top_mut(&mut self) -> &mut Mlp {
        &mut self.top
    }

    /// Copies every trainable weight of `src` into this model **in
    /// place**: both MLPs' parameters and all embedding-table slabs, with
    /// zero allocation. This is the slab-copy half of epoch-versioned
    /// snapshot publication (`tcast-snapshot`): the trainer's live model
    /// is captured into a recycled buffer model between steps, so serving
    /// engines can read a frozen copy while training mutates the
    /// original. Scratch, cached activations and shard plans are *not*
    /// copied — the receiving model keeps its own (weights fully
    /// determine inference, and sharding is placement, not state).
    ///
    /// # Panics
    ///
    /// Panics if the models disagree on architecture (table count/shape,
    /// MLP depth or layer shapes).
    pub fn copy_weights_from(&mut self, src: &Dlrm) {
        self.bottom.copy_parameters_from(&src.bottom);
        self.top.copy_parameters_from(&src.top);
        assert_eq!(self.tables.len(), src.tables.len(), "table count mismatch");
        for (dst, src) in self.tables.iter_mut().zip(src.tables.iter()) {
            assert_eq!(
                (dst.rows(), dst.dim()),
                (src.rows(), src.dim()),
                "table shape mismatch"
            );
            dst.as_mut_slice().copy_from_slice(src.as_slice());
        }
    }

    /// Total trainable parameters (MLPs + embeddings).
    pub fn parameter_count(&self) -> usize {
        self.bottom.parameter_count()
            + self.top.parameter_count()
            + self.config.embedding_parameters()
    }

    /// Embedding forward: per-table fused gather-reduce.
    ///
    /// # Errors
    ///
    /// Returns an error if index arrays are out of range or their count
    /// differs from the table count.
    pub fn embedding_forward(&self, indices: &[IndexArray]) -> Result<Vec<Matrix>, EmbeddingError> {
        if indices.len() != self.tables.len() {
            return Err(EmbeddingError::LengthMismatch {
                expected: self.tables.len(),
                found: indices.len(),
            });
        }
        self.tables
            .iter()
            .zip(indices.iter())
            .map(|(t, idx)| gather_reduce(t, idx))
            .collect()
    }

    /// [`Dlrm::embedding_forward`] writing into per-table reused buffers
    /// (`pooled` is resized to the table count), serially or on a pool.
    ///
    /// # Errors
    ///
    /// Returns an error if index arrays are out of range or their count
    /// differs from the table count.
    pub fn embedding_forward_into(
        &self,
        indices: &[IndexArray],
        pooled: &mut Vec<Matrix>,
        exec: Exec<'_>,
    ) -> Result<(), EmbeddingError> {
        if indices.len() != self.tables.len() {
            return Err(EmbeddingError::LengthMismatch {
                expected: self.tables.len(),
                found: indices.len(),
            });
        }
        pooled.resize_with(self.tables.len(), Matrix::default);
        for ((table, idx), out) in self
            .tables
            .iter()
            .zip(indices.iter())
            .zip(pooled.iter_mut())
        {
            gather_reduce_into(table, idx, out, exec)?;
        }
        Ok(())
    }

    /// Whether either MLP has a layer whose GEMMs at `batch` rows a
    /// multi-threaded [`Exec`] would split (see
    /// [`tcast_tensor::Linear::splits_at`]): when not, the dense phases
    /// run on the calling thread whatever `Exec` they are handed.
    pub fn dense_splits_at(&self, batch: usize) -> bool {
        self.bottom.splits_at(batch) || self.top.splits_at(batch)
    }

    /// [`Dlrm::dense_forward`] writing the logits into a reused buffer —
    /// the zero-allocation steady-state form. Bit-identical results.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] on dimension mismatches.
    pub fn dense_forward_into(
        &mut self,
        dense: &Matrix,
        pooled: &[Matrix],
        logits: &mut Matrix,
        exec: Exec<'_>,
    ) -> Result<(), ShapeError> {
        let Self {
            bottom,
            top,
            interaction,
            scratch,
            ..
        } = self;
        bottom.forward_into(dense, &mut scratch.bottom_out, exec)?;
        interaction.forward_into(&scratch.bottom_out, pooled, &mut scratch.interaction_out)?;
        top.forward_into(&scratch.interaction_out, logits, exec)
    }

    /// [`Dlrm::dense_backward`] writing the per-table pooled-embedding
    /// gradients into reused buffers. Bit-identical results.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] if no step forward preceded this call.
    pub fn dense_backward_into(
        &mut self,
        dlogits: &Matrix,
        dpooled: &mut Vec<Matrix>,
        exec: Exec<'_>,
    ) -> Result<(), ShapeError> {
        let Self {
            bottom,
            top,
            interaction,
            scratch,
            ..
        } = self;
        top.backward_into(dlogits, &mut scratch.dz, exec)?;
        interaction.backward_into(&scratch.dz, &mut scratch.ddense, dpooled)?;
        bottom.backward_into(&scratch.ddense, &mut scratch.dinput_sink, exec)
    }

    /// Dense forward: bottom MLP, interaction, top MLP; returns logits.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] on dimension mismatches.
    pub fn dense_forward(
        &mut self,
        dense: &Matrix,
        pooled: &[Matrix],
    ) -> Result<Matrix, ShapeError> {
        let bottom_out = self.bottom.forward(dense)?;
        let z = self.interaction.forward(&bottom_out, pooled)?;
        self.top.forward(&z)
    }

    /// Dense backward: from `d(logits)` to the gradient of each pooled
    /// embedding (the tensors the embedding backward consumes), leaving
    /// MLP gradients cached inside the layers.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] if no forward pass preceded this call.
    pub fn dense_backward(&mut self, dlogits: &Matrix) -> Result<Vec<Matrix>, ShapeError> {
        let dz = self.top.backward(dlogits)?;
        let (ddense, dpooled) = self.interaction.backward(&dz)?;
        self.bottom.backward(&ddense)?;
        Ok(dpooled)
    }

    /// Applies cached MLP gradients with SGD.
    pub fn apply_dense_update(&mut self, lr: f32) {
        self.bottom.apply_update(lr);
        self.top.apply_update(lr);
    }

    /// Inference: logits for a batch (no caching).
    ///
    /// # Errors
    ///
    /// Returns an error on shape mismatches.
    pub fn predict(
        &self,
        dense: &Matrix,
        indices: &[IndexArray],
    ) -> Result<Matrix, EmbeddingError> {
        let mut scratch = InferenceScratch::default();
        let mut logits = Matrix::default();
        self.predict_into(dense, indices, &mut scratch, &mut logits, Exec::Serial)?;
        Ok(logits)
    }

    /// [`Dlrm::predict`] through caller-owned scratch: the
    /// zero-allocation `&self` serving form. Embedding pooling runs the
    /// plain per-table gather-reduce; the dense stack runs
    /// [`Dlrm::dense_infer_into`]. Bit-identical to [`Dlrm::predict`] in
    /// both [`Exec`] modes.
    ///
    /// # Errors
    ///
    /// Returns an error on shape/index mismatches.
    pub fn predict_into(
        &self,
        dense: &Matrix,
        indices: &[IndexArray],
        scratch: &mut InferenceScratch,
        logits: &mut Matrix,
        exec: Exec<'_>,
    ) -> Result<(), EmbeddingError> {
        self.embedding_forward_into(indices, &mut scratch.pooled, exec)?;
        self.dense_infer_into(dense, scratch, logits, exec)
            .map_err(EmbeddingError::from)
    }

    /// The dense half of inference — bottom MLP, interaction, top MLP —
    /// over pooled embeddings already written into `scratch`'s
    /// [`InferenceScratch::pooled_mut`] buffers (one `batch x dim` matrix
    /// per table). `&self`: no model state is read back or written, so a
    /// frozen model can serve many engines concurrently. Bit-identical to
    /// the training forward pass.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] on dimension mismatches (including
    /// pooled buffers that disagree with the batch).
    pub fn dense_infer_into(
        &self,
        dense: &Matrix,
        scratch: &mut InferenceScratch,
        logits: &mut Matrix,
        exec: Exec<'_>,
    ) -> Result<(), ShapeError> {
        let InferenceScratch {
            pooled,
            bottom_out,
            interaction_out,
            bottom_mlp,
            top_mlp,
        } = scratch;
        self.bottom
            .forward_inference_into(dense, bottom_mlp, bottom_out, exec)?;
        self.interaction
            .forward_inference_into(bottom_out, pooled, interaction_out)?;
        self.top
            .forward_inference_into(interaction_out, top_mlp, logits, exec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcast_datasets::SyntheticCtr;

    fn model() -> Dlrm {
        Dlrm::new(DlrmConfig::tiny(), 7).unwrap()
    }

    fn batch(n: usize) -> tcast_datasets::CtrBatch {
        let cfg = DlrmConfig::tiny();
        SyntheticCtr::new(cfg.table_workloads(), cfg.dense_features, 3).next_batch(n)
    }

    #[test]
    fn construction_validates_config() {
        let mut bad = DlrmConfig::tiny();
        bad.embedding_dim = 5;
        assert!(Dlrm::new(bad, 0).is_err());
    }

    #[test]
    fn forward_shapes() {
        let mut m = model();
        let b = batch(16);
        let pooled = m.embedding_forward(&b.indices).unwrap();
        assert_eq!(pooled.len(), 2);
        assert_eq!(pooled[0].shape(), (16, 16));
        let logits = m.dense_forward(&b.dense, &pooled).unwrap();
        assert_eq!(logits.shape(), (16, 1));
    }

    #[test]
    fn backward_produces_per_table_gradients() {
        let mut m = model();
        let b = batch(8);
        let pooled = m.embedding_forward(&b.indices).unwrap();
        let logits = m.dense_forward(&b.dense, &pooled).unwrap();
        let dlogits = Matrix::filled(8, 1, 0.1);
        let _ = logits;
        let dpooled = m.dense_backward(&dlogits).unwrap();
        assert_eq!(dpooled.len(), 2);
        assert_eq!(dpooled[0].shape(), (8, 16));
        // Gradients should not be all-zero.
        assert!(dpooled[0].frobenius_norm() > 0.0);
    }

    #[test]
    fn wrong_index_count_rejected() {
        let m = model();
        let b = batch(4);
        assert!(m.embedding_forward(&b.indices[..1]).is_err());
    }

    #[test]
    fn predict_matches_training_forward() {
        let mut m = model();
        let b = batch(4);
        let pooled = m.embedding_forward(&b.indices).unwrap();
        let train_logits = m.dense_forward(&b.dense, &pooled).unwrap();
        let infer_logits = m.predict(&b.dense, &b.indices).unwrap();
        assert!(train_logits.max_abs_diff(&infer_logits).unwrap() < 1e-6);
    }

    #[test]
    fn predict_into_is_bit_identical_to_predict() {
        let m = model();
        let b = batch(12);
        let alloc = m.predict(&b.dense, &b.indices).unwrap();
        let mut scratch = InferenceScratch::default();
        let mut logits = Matrix::default();
        // Twice: the second pass runs through recycled buffers.
        for _ in 0..2 {
            m.predict_into(
                &b.dense,
                &b.indices,
                &mut scratch,
                &mut logits,
                Exec::Serial,
            )
            .unwrap();
            assert_eq!(logits.as_slice(), alloc.as_slice());
        }
    }

    #[test]
    fn predict_into_matches_training_forward_bit_exactly() {
        // The serving path and the training forward share every kernel
        // (same GEMM, same interaction op order), so their logits are
        // bit-identical — the foundation of the checkpoint -> serve
        // equivalence test.
        let mut m = model();
        let b = batch(8);
        let pooled = m.embedding_forward(&b.indices).unwrap();
        let train = m.dense_forward(&b.dense, &pooled).unwrap();
        let infer = m.predict(&b.dense, &b.indices).unwrap();
        assert_eq!(train.as_slice(), infer.as_slice());
    }

    #[test]
    fn parameter_count_is_consistent() {
        let m = model();
        assert!(m.parameter_count() > m.config().embedding_parameters());
    }

    #[test]
    fn seeded_models_are_identical() {
        let a = Dlrm::new(DlrmConfig::tiny(), 9).unwrap();
        let b = Dlrm::new(DlrmConfig::tiny(), 9).unwrap();
        assert_eq!(a.table(0).max_abs_diff(b.table(0)).unwrap(), 0.0);
    }
}
