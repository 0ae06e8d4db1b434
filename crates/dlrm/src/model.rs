//! The DLRM model: Fig. 1's topology over this repository's kernels.

use crate::config::DlrmConfig;
use tcast_embedding::{gather_reduce_into, EmbeddingError, EmbeddingTable, IndexArray};
use tcast_pool::Exec;
use tcast_tensor::{
    interaction_output_dim, FeatureInteraction, Matrix, Mlp, MlpInferenceScratch, ShapeError,
};

/// A DLRM model instance: bottom MLP, embedding tables, feature
/// interaction, top MLP.
///
/// The model owns weights and pending MLP gradients, never an activation:
/// its one dense forward, [`Dlrm::dense_infer_into`], takes `&self` and
/// writes into an [`InferenceScratch`] the caller owns, and a training
/// step's dense backward reads the activations back out of that scratch.
/// The embedding *backward* (the subject of the paper) is orchestrated by
/// the [`crate::Trainer`], which owns the choice between the baseline and
/// casted paths.
#[derive(Debug)]
pub struct Dlrm {
    config: DlrmConfig,
    bottom: Mlp,
    top: Mlp,
    tables: Vec<EmbeddingTable>,
}

/// Caller-owned reusable buffers of one pass through the model's dense
/// stack — the scratch of a training step and of a served batch alike
/// (callers outside the workspace import it under this name, so it keeps
/// it).
///
/// [`Dlrm::dense_infer_into`] reads the pooled embeddings out of it and
/// leaves every activation in it; a training step then hands the same
/// scratch to its dense backward, which borrows those activations and
/// uses the gradient-side buffers (untouched, and never sized, by a
/// caller that only scores). The model itself holds no
/// activation, so any number of serving engines and a trainer can share
/// one `&Dlrm`, each through its own scratch; every buffer is recycled,
/// so the steady-state dense forward and backward allocate nothing.
#[derive(Debug, Default)]
pub struct InferenceScratch {
    pooled: Vec<Matrix>,
    bottom_out: Matrix,
    interaction_out: Matrix,
    bottom_mlp: MlpInferenceScratch,
    top_mlp: MlpInferenceScratch,
    // Gradient side: d(interaction output) and d(bottom output). The
    // gradient w.r.t. the dense features is never computed: nothing
    // consumes it.
    dz: Matrix,
    ddense: Matrix,
}

impl InferenceScratch {
    /// The per-table pooled-embedding buffers [`Dlrm::dense_infer_into`]
    /// consumes. [`Dlrm::predict_into`] fills them via the plain
    /// gather-reduce, as a training step does; a serving engine writes
    /// them directly (e.g. through the casted forward fast path) before
    /// calling [`Dlrm::dense_infer_into`].
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
        config.validate().map_err(EmbeddingError::InvalidIndex)?;
        let bottom = Mlp::new(config.dense_features, &config.bottom_mlp, seed)
            .map_err(EmbeddingError::from)?;
        let interaction_dim = interaction_output_dim(config.tables.len(), config.embedding_dim);
        let top = Mlp::new(interaction_dim, &config.top_mlp, seed ^ 0xA5A5)
            .map_err(EmbeddingError::from)?;
        let tables = config
            .tables
            .iter()
            .enumerate()
            .map(|(i, t)| {
                EmbeddingTable::seeded(t.rows, config.embedding_dim, seed.wrapping_add(i as u64))
            })
            .collect();
        Ok(Self {
            config,
            bottom,
            top,
            tables,
        })
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
    /// original.
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

    /// Embedding forward: the fused gather-reduce of every table, written
    /// into per-table reused buffers (`pooled` is resized to the table
    /// count), on the calling thread.
    ///
    /// # Errors
    ///
    /// Returns an error if index arrays are out of range or their count
    /// differs from the table count.
    pub fn embedding_forward_into(
        &self,
        indices: &[IndexArray],
        pooled: &mut Vec<Matrix>,
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
            gather_reduce_into(table, idx, out, Exec::Serial)?;
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

    /// Inference: logits for a batch.
    ///
    /// Pools each bag in lookup order (the plain gather-reduce), where
    /// `tcast_serve`'s `ServeEngine::score` pools it in ascending-row order
    /// (the casted forward): a served score is bit for bit this function
    /// over the same query with each bag's lookups stably sorted by row,
    /// and may differ in the last bit from it over the bags as given.
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
    /// plain per-table gather-reduce on the calling thread; the dense stack
    /// runs [`Dlrm::dense_infer_into`] under `exec`. Bit-identical to
    /// [`Dlrm::predict`] whatever the [`Exec`].
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
        self.embedding_forward_into(indices, &mut scratch.pooled)?;
        self.dense_infer_into(dense, scratch, logits, exec)
            .map_err(EmbeddingError::from)
    }

    /// The model's one dense forward — bottom MLP, interaction, top MLP —
    /// over pooled embeddings already written into `scratch`'s
    /// [`InferenceScratch::pooled_mut`] buffers (one `batch x dim` matrix
    /// per table). `&self`: no model state is read back or written, so a
    /// frozen model can serve many engines concurrently, and a training
    /// step calls this same function with a scratch its trainer owns.
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
        bottom_forward_into(&self.bottom, dense, scratch, exec)?;
        self.dense_head_infer_into(scratch, logits, exec)
    }

    /// [`Dlrm::dense_infer_into`] past the bottom MLP: the interaction and
    /// the top MLP over the bottom output and pooled embeddings already in
    /// `scratch` — for a training step whose bottom forward ran ahead of
    /// it.
    pub(crate) fn dense_head_infer_into(
        &self,
        scratch: &mut InferenceScratch,
        logits: &mut Matrix,
        exec: Exec<'_>,
    ) -> Result<(), ShapeError> {
        let InferenceScratch {
            pooled,
            bottom_out,
            interaction_out,
            top_mlp,
            ..
        } = scratch;
        FeatureInteraction.forward_into(bottom_out, pooled, interaction_out)?;
        self.top
            .forward_into(interaction_out, top_mlp, logits, exec)
    }

    /// The dense backward's head: from `d(logits)` through the top MLP and
    /// the interaction to the gradient of each pooled embedding (`dpooled`,
    /// resized and reused — all the embedding backward consumes) and of
    /// the bottom output, left in `scratch` for a [`bottom_backward_into`]
    /// that may run later and elsewhere; the top MLP's gradients are left
    /// inside its layers. `scratch` is the one this step's
    /// [`Dlrm::dense_infer_into`] ran over: the bottom output, the pooled
    /// embeddings, the interaction output and the top MLP's activations
    /// are read back out of it.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] if `scratch` and `dlogits` are not those of
    /// one pass through this model.
    pub(crate) fn dense_head_backward_into(
        &mut self,
        scratch: &mut InferenceScratch,
        dlogits: &Matrix,
        dpooled: &mut Vec<Matrix>,
        exec: Exec<'_>,
    ) -> Result<(), ShapeError> {
        let InferenceScratch {
            pooled,
            bottom_out,
            interaction_out,
            top_mlp,
            dz,
            ddense,
            ..
        } = scratch;
        self.top
            .backward_into(interaction_out, top_mlp, dlogits, Some(dz), None, exec)?;
        FeatureInteraction.backward_into(bottom_out, pooled, dz, ddense, dpooled)
    }

    /// The bottom MLP and the embedding tables, borrowed apart: the
    /// bottom MLP's backward and update read nothing the embedding
    /// backward writes, so a training step runs the two side by side.
    pub(crate) fn bottom_and_tables_mut(&mut self) -> (&mut Mlp, &mut [EmbeddingTable]) {
        (&mut self.bottom, &mut self.tables)
    }
}

/// The bottom MLP's forward over `dense`, into `scratch`'s bottom output
/// and activations: the first stage of [`Dlrm::dense_infer_into`].
pub(crate) fn bottom_forward_into(
    bottom: &Mlp,
    dense: &Matrix,
    scratch: &mut InferenceScratch,
    exec: Exec<'_>,
) -> Result<(), ShapeError> {
    bottom.forward_into(
        dense,
        &mut scratch.bottom_mlp,
        &mut scratch.bottom_out,
        exec,
    )
}

/// The bottom MLP's backward from the gradient
/// [`Dlrm::dense_head_backward_into`] left in `scratch`, over the
/// activations of the forward of `dense` that `scratch` holds: the last
/// stage of the dense backward, leaving the bottom MLP's gradients inside
/// its layers or, with `lr`, applying them (see [`Mlp::backward_into`]).
pub(crate) fn bottom_backward_into(
    bottom: &mut Mlp,
    dense: &Matrix,
    scratch: &mut InferenceScratch,
    lr: Option<f32>,
    exec: Exec<'_>,
) -> Result<(), ShapeError> {
    let (mlp_scratch, ddense) = (&mut scratch.bottom_mlp, &scratch.ddense);
    bottom.backward_into(dense, mlp_scratch, ddense, None, lr, exec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BackwardMode, Trainer};
    use tcast_datasets::SyntheticCtr;

    fn model() -> Dlrm {
        Dlrm::new(DlrmConfig::tiny(), 7).unwrap()
    }

    fn batch(n: usize) -> tcast_datasets::CtrBatch {
        let cfg = DlrmConfig::tiny();
        SyntheticCtr::new(cfg.table_workloads(), cfg.dense_features, 3).next_batch(n)
    }

    /// The embedding and dense forward of `b`, as a step runs them.
    fn run_forward(
        m: &Dlrm,
        b: &tcast_datasets::CtrBatch,
        scratch: &mut InferenceScratch,
    ) -> Matrix {
        let mut logits = Matrix::default();
        m.embedding_forward_into(&b.indices, scratch.pooled_mut())
            .unwrap();
        m.dense_infer_into(&b.dense, scratch, &mut logits, Exec::Serial)
            .unwrap();
        logits
    }

    #[test]
    fn construction_validates_config() {
        let mut bad = DlrmConfig::tiny();
        bad.embedding_dim = 5;
        assert!(Dlrm::new(bad, 0).is_err());
    }

    #[test]
    fn forward_shapes() {
        let m = model();
        let mut scratch = InferenceScratch::default();
        let logits = run_forward(&m, &batch(16), &mut scratch);
        assert_eq!(scratch.pooled.len(), 2);
        assert_eq!(scratch.pooled[0].shape(), (16, 16));
        assert_eq!(scratch.interaction_out.cols(), m.top().input_dim());
        assert_eq!(logits.shape(), (16, 1));
    }

    #[test]
    fn backward_produces_per_table_gradients() {
        let mut m = model();
        let b = batch(8);
        let mut scratch = InferenceScratch::default();
        run_forward(&m, &b, &mut scratch);
        let dlogits = Matrix::filled(8, 1, 0.1);
        let mut dpooled = Vec::new();
        m.dense_head_backward_into(&mut scratch, &dlogits, &mut dpooled, Exec::Serial)
            .unwrap();
        bottom_backward_into(&mut m.bottom, &b.dense, &mut scratch, None, Exec::Serial).unwrap();
        assert_eq!(dpooled.len(), 2);
        assert_eq!(dpooled[0].shape(), (8, 16));
        // Gradients should not be all-zero.
        assert!(dpooled[0].as_slice().iter().any(|&g| g != 0.0));
        // A scratch whose last forward saw another batch is an error.
        run_forward(&m, &batch(4), &mut scratch);
        assert!(m
            .dense_head_backward_into(&mut scratch, &dlogits, &mut dpooled, Exec::Serial)
            .is_err());
    }

    #[test]
    fn wrong_index_count_rejected() {
        let m = model();
        let b = batch(4);
        let mut pooled = Vec::new();
        assert!(m
            .embedding_forward_into(&b.indices[..1], &mut pooled)
            .is_err());
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
        // Serving and the training step run one dense forward, so the loss
        // a step reports is the loss of the logits `predict` scores just
        // before it — the foundation of the checkpoint -> serve
        // equivalence test.
        for mode in [BackwardMode::Baseline, BackwardMode::Casted] {
            let mut trainer = Trainer::new(DlrmConfig::tiny(), mode, 7).unwrap();
            for n in [8, 5] {
                let b = batch(n);
                let served = trainer.evaluate(&b).unwrap();
                let trained = trainer.step(&b).unwrap().loss;
                assert_eq!(served.to_bits(), trained.to_bits(), "{mode:?}");
            }
        }
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

    /// FNV-1a over the bit patterns of every parameter of `tiny` at seed
    /// 7: both MLPs' weights and biases, layer by layer, then every table.
    /// Recorded from the per-element `next_range` loops the initializers
    /// ran before they filled through `SplitMix64::fill_range`; a change
    /// to how a model is seeded moves it. Never re-pin it.
    #[test]
    fn seeded_parameters_are_pinned() {
        let m = Dlrm::new(DlrmConfig::tiny(), 7).unwrap();
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |vs: &[f32]| {
            for v in vs {
                for b in v.to_bits().to_le_bytes() {
                    h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
                }
            }
        };
        for layer in m.bottom().layers().iter().chain(m.top().layers()) {
            eat(layer.weight().as_slice());
            eat(layer.bias());
        }
        for t in 0..m.num_tables() {
            eat(m.table(t).as_slice());
        }
        assert_eq!(h, 0x43ae_95ee_f9e6_94f0);
    }
}
