//! DLRM feature interaction: combines the bottom-MLP output with the pooled
//! embedding vectors before the top MLP (Fig. 1 of the paper).
//!
//! Two interaction operators are provided, matching the open-source DLRM:
//!
//! * [`InteractionKind::Concat`] — plain horizontal concatenation.
//! * [`InteractionKind::Dot`] — pairwise dot products between all feature
//!   vectors, concatenated after the dense feature vector (DLRM's default
//!   `--arch-interaction-op=dot`).

use crate::error::ShapeError;
use crate::matrix::Matrix;

/// Which interaction operator to apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum InteractionKind {
    /// Concatenate `[dense, emb_0, ..., emb_{T-1}]`.
    Concat,
    /// `[dense, dot(v_i, v_j) for i < j]` over all feature vectors
    /// (dense output + each pooled embedding), DLRM's default.
    #[default]
    Dot,
}

/// Output width of the interaction for `num_tables` embedding tables whose
/// pooled vectors (and the dense vector) all have width `dim`.
///
/// ```
/// use tcast_tensor::{interaction_output_dim, InteractionKind};
///
/// // 10 tables + 1 dense vector = 11 vectors; C(11,2) = 55 pairs.
/// assert_eq!(interaction_output_dim(InteractionKind::Dot, 10, 64), 64 + 55);
/// assert_eq!(interaction_output_dim(InteractionKind::Concat, 10, 64), 64 * 11);
/// ```
pub fn interaction_output_dim(kind: InteractionKind, num_tables: usize, dim: usize) -> usize {
    match kind {
        InteractionKind::Concat => dim * (num_tables + 1),
        InteractionKind::Dot => {
            let m = num_tables + 1;
            dim + m * (m - 1) / 2
        }
    }
}

/// Differentiable feature-interaction operator.
///
/// Stateless: the forward pass writes into the caller's buffer and the
/// backward pass is handed the same inputs again, routing gradients back
/// to the dense vector and to each pooled embedding (which is where the
/// embedding-layer backpropagation — the subject of the paper — begins).
#[derive(Debug, Clone, Default)]
pub struct FeatureInteraction {
    kind: InteractionKind,
}

impl FeatureInteraction {
    /// Creates the operator.
    pub fn new(kind: InteractionKind) -> Self {
        Self { kind }
    }

    /// The configured interaction kind.
    pub fn kind(&self) -> InteractionKind {
        self.kind
    }

    /// Checks what both directions require of their inputs — one batch,
    /// and for [`InteractionKind::Dot`] one width — and returns the width
    /// of the output.
    fn output_width(&self, dense: &Matrix, embeddings: &[Matrix]) -> Result<usize, ShapeError> {
        for e in embeddings {
            if e.rows() != dense.rows() {
                return Err(ShapeError::new(
                    "interaction_batch",
                    dense.shape(),
                    e.shape(),
                ));
            }
            if self.kind == InteractionKind::Dot && e.cols() != dense.cols() {
                return Err(ShapeError::new("interaction_dim", dense.shape(), e.shape()));
            }
        }
        let m = embeddings.len() + 1;
        Ok(dense.cols()
            + match self.kind {
                InteractionKind::Concat => embeddings.iter().map(Matrix::cols).sum(),
                InteractionKind::Dot => m * (m - 1) / 2,
            })
    }

    /// Forward pass writing into `out` (reshaped in place, reusing its
    /// allocation). `dense` is the bottom-MLP output (`batch x dim`);
    /// `embeddings` are the pooled per-table outputs (each `batch x dim`).
    /// The one forward of training and serving.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] if any operand disagrees on `batch`/`dim`
    /// (for [`InteractionKind::Dot`], all vectors must share `dim`).
    pub fn forward_into(
        &self,
        dense: &Matrix,
        embeddings: &[Matrix],
        out: &mut Matrix,
    ) -> Result<(), ShapeError> {
        let width = self.output_width(dense, embeddings)?;
        // Virtual input list [dense, emb_0, ..], without materializing it.
        let m = embeddings.len() + 1;
        let input = |i: usize| if i == 0 { dense } else { &embeddings[i - 1] };
        let (batch, dim) = dense.shape();
        out.zero_into(batch, width);
        match self.kind {
            InteractionKind::Concat => {
                for b in 0..batch {
                    let row = out.row_mut(b);
                    let mut offset = 0;
                    for i in 0..m {
                        let part = input(i);
                        row[offset..offset + part.cols()].copy_from_slice(part.row(b));
                        offset += part.cols();
                    }
                }
            }
            InteractionKind::Dot => {
                for b in 0..batch {
                    let row = out.row_mut(b);
                    row[..dim].copy_from_slice(dense.row(b));
                    let mut p = dim;
                    for i in 0..m {
                        for j in (i + 1)..m {
                            let vi = input(i).row(b);
                            let vj = input(j).row(b);
                            row[p] = vi.iter().zip(vj.iter()).map(|(a, c)| a * c).sum();
                            p += 1;
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Backward pass: splits `dout` into the gradient w.r.t. the dense
    /// vector (`ddense`) and w.r.t. each pooled embedding (`dpooled`, one
    /// per table; resized and reused). `dense` and `embeddings` are the
    /// inputs the forward pass of this step saw — the caller still holds
    /// them. Every shape is checked against `dout` before a buffer is
    /// touched.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] if the inputs disagree with one another or
    /// with the shape of `dout`.
    pub fn backward_into(
        &self,
        dense: &Matrix,
        embeddings: &[Matrix],
        dout: &Matrix,
        ddense: &mut Matrix,
        dpooled: &mut Vec<Matrix>,
    ) -> Result<(), ShapeError> {
        let width = self.output_width(dense, embeddings)?;
        let m = embeddings.len() + 1;
        let input = |i: usize| if i == 0 { dense } else { &embeddings[i - 1] };
        let (batch, dim) = dense.shape();
        if dout.shape() != (batch, width) {
            return Err(ShapeError::new(
                "interaction_backward",
                (batch, width),
                dout.shape(),
            ));
        }
        dpooled.resize_with(m - 1, Matrix::default);
        ddense.zero_into(batch, dim);
        for (buf, src) in dpooled.iter_mut().zip(embeddings) {
            buf.zero_into(batch, src.cols());
        }
        match self.kind {
            InteractionKind::Concat => {
                for b in 0..batch {
                    let drow = dout.row(b);
                    ddense.row_mut(b).copy_from_slice(&drow[..dim]);
                    let mut offset = dim;
                    for buf in dpooled.iter_mut() {
                        let w = buf.cols();
                        buf.row_mut(b).copy_from_slice(&drow[offset..offset + w]);
                        offset += w;
                    }
                }
            }
            InteractionKind::Dot => {
                for b in 0..batch {
                    let drow = dout.row(b);
                    // Dense passthrough part.
                    ddense.row_mut(b).copy_from_slice(&drow[..dim]);
                    // Pair part: dz_ij flows to both v_i and v_j. The
                    // inputs and the gradient buffers are separate
                    // storage, so no row copies are needed.
                    let mut p = dim;
                    for i in 0..m {
                        for j in (i + 1)..m {
                            let g = drow[p];
                            p += 1;
                            if g == 0.0 {
                                continue;
                            }
                            {
                                let gi = if i == 0 {
                                    &mut *ddense
                                } else {
                                    &mut dpooled[i - 1]
                                };
                                for (o, &vjv) in
                                    gi.row_mut(b).iter_mut().zip(input(j).row(b).iter())
                                {
                                    *o += g * vjv;
                                }
                            }
                            {
                                let gj = &mut dpooled[j - 1]; // j >= 1 always
                                for (o, &viv) in
                                    gj.row_mut(b).iter_mut().zip(input(i).row(b).iter())
                                {
                                    *o += g * viv;
                                }
                            }
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(rows: usize, cols: usize, seed: f32) -> Matrix {
        let mut m = Matrix::zeros(rows, cols);
        for (i, v) in m.as_mut_slice().iter_mut().enumerate() {
            *v = ((i as f32 + seed) * 0.37).sin();
        }
        m
    }

    fn output(kind: InteractionKind, dense: &Matrix, embeddings: &[Matrix]) -> Matrix {
        let mut out = Matrix::default();
        FeatureInteraction::new(kind)
            .forward_into(dense, embeddings, &mut out)
            .unwrap();
        out
    }

    #[test]
    fn output_dims() {
        assert_eq!(interaction_output_dim(InteractionKind::Concat, 3, 8), 32);
        assert_eq!(interaction_output_dim(InteractionKind::Dot, 3, 8), 8 + 6);
        for kind in [InteractionKind::Concat, InteractionKind::Dot] {
            let embeddings = [mk(2, 8, 1.0), mk(2, 8, 2.0), mk(2, 8, 3.0)];
            let out = output(kind, &mk(2, 8, 0.0), &embeddings);
            assert_eq!(out.cols(), interaction_output_dim(kind, 3, 8), "{kind:?}");
        }
    }

    #[test]
    fn concat_forward_layout() {
        let dense = mk(2, 3, 0.0);
        let e = mk(2, 3, 5.0);
        let out = output(InteractionKind::Concat, &dense, std::slice::from_ref(&e));
        assert_eq!(out.shape(), (2, 6));
        assert_eq!(&out.row(0)[..3], dense.row(0));
        assert_eq!(&out.row(0)[3..], e.row(0));
        assert_eq!(out, Matrix::hconcat(&[&dense, &e]).unwrap());
    }

    #[test]
    fn dot_forward_values() {
        let dense = Matrix::from_rows(&[&[1.0, 2.0]]).unwrap();
        let e = Matrix::from_rows(&[&[3.0, 4.0]]).unwrap();
        let out = output(InteractionKind::Dot, &dense, &[e]);
        // [dense..., dot(dense, e)] = [1, 2, 11]
        assert_eq!(out.row(0), &[1.0, 2.0, 11.0]);
    }

    #[test]
    fn batch_mismatch_rejected() {
        let dense = Matrix::zeros(2, 4);
        let e = Matrix::zeros(3, 4);
        let op = FeatureInteraction::new(InteractionKind::Dot);
        assert!(op
            .forward_into(&dense, &[e], &mut Matrix::default())
            .is_err());
    }

    #[test]
    fn dim_mismatch_rejected_for_dot_only() {
        let dense = Matrix::zeros(2, 4);
        let e = [Matrix::zeros(2, 3)];
        let mut out = Matrix::default();
        let dot = FeatureInteraction::new(InteractionKind::Dot);
        assert!(dot.forward_into(&dense, &e, &mut out).is_err());
        let cat = FeatureInteraction::new(InteractionKind::Concat);
        assert!(cat.forward_into(&dense, &e, &mut out).is_ok());
    }

    #[test]
    fn a_rejected_backward_keeps_the_gradient_buffers() {
        // Inputs that are not the ones `dout` came from — a wrong `dout`
        // width or batch, an `embeddings` slice of the wrong length, an
        // embedding of another batch — are a shape error found before a
        // gradient buffer is resized or written.
        for kind in [InteractionKind::Dot, InteractionKind::Concat] {
            let op = FeatureInteraction::new(kind);
            let dense = mk(2, 4, 0.3);
            let embeddings = [mk(2, 4, 1.7), mk(2, 4, 2.9)];
            let dout = mk(2, output(kind, &dense, &embeddings).cols(), 9.0);
            let (mut ddense, mut dpooled) = (Matrix::default(), Vec::new());
            op.backward_into(&dense, &embeddings, &dout, &mut ddense, &mut dpooled)
                .unwrap();
            let want = (ddense.clone(), dpooled.clone());
            let narrow = mk(2, dout.cols() - 1, 9.0);
            let short = mk(1, dout.cols(), 9.0);
            let other_batch = [mk(2, 4, 1.7), mk(3, 4, 2.9)];
            for (bad_embeddings, bad_dout) in [
                (&embeddings[..], &narrow),
                (&embeddings[..], &short),
                (&embeddings[..1], &dout),
                (&other_batch[..], &dout),
            ] {
                assert!(op
                    .backward_into(&dense, bad_embeddings, bad_dout, &mut ddense, &mut dpooled)
                    .is_err());
                assert_eq!((&ddense, &dpooled), (&want.0, &want.1), "{kind:?}");
            }
        }
    }

    #[test]
    fn concat_backward_splits_gradient() {
        let dense = mk(2, 3, 0.0);
        let embeddings = [mk(2, 2, 1.0), mk(2, 4, 2.0)];
        let op = FeatureInteraction::new(InteractionKind::Concat);
        let dout = mk(2, 3 + 2 + 4, 9.0);
        let (mut dd, mut de) = (Matrix::default(), Vec::new());
        op.backward_into(&dense, &embeddings, &dout, &mut dd, &mut de)
            .unwrap();
        assert_eq!(dd.shape(), (2, 3));
        assert_eq!(de.len(), 2);
        assert_eq!(de[0].shape(), (2, 2));
        assert_eq!(de[1].shape(), (2, 4));
        // Gradient is a pure split of dout.
        assert_eq!(&dout.row(0)[..3], dd.row(0));
        assert_eq!(&dout.row(0)[3..5], de[0].row(0));
        let split = dout.hsplit(&[3, 2, 4]).unwrap();
        assert_eq!((&dd, &de[..]), (&split[0], &split[1..]));
    }

    #[test]
    fn dot_backward_matches_finite_difference() {
        let dense = mk(2, 4, 0.3);
        let e0 = mk(2, 4, 1.7);
        let e1 = mk(2, 4, 2.9);
        let loss = |dense: &Matrix, e0: &Matrix, e1: &Matrix| -> f32 {
            output(InteractionKind::Dot, dense, &[e0.clone(), e1.clone()]).sum()
        };
        let dout = Matrix::filled(2, 4 + 3, 1.0);
        let (mut dd, mut de) = (Matrix::default(), Vec::new());
        FeatureInteraction::new(InteractionKind::Dot)
            .backward_into(&dense, &[e0.clone(), e1.clone()], &dout, &mut dd, &mut de)
            .unwrap();

        let eps = 1e-3f32;
        for r in 0..2 {
            for c in 0..4 {
                // dense grad
                let mut p = dense.clone();
                p[(r, c)] += eps;
                let mut mo = dense.clone();
                mo[(r, c)] -= eps;
                let num = (loss(&p, &e0, &e1) - loss(&mo, &e0, &e1)) / (2.0 * eps);
                assert!((dd[(r, c)] - num).abs() < 1e-2, "dense[{r}][{c}]");
                // e0 grad
                let mut p = e0.clone();
                p[(r, c)] += eps;
                let mut mo = e0.clone();
                mo[(r, c)] -= eps;
                let num = (loss(&dense, &p, &e1) - loss(&dense, &mo, &e1)) / (2.0 * eps);
                assert!((de[0][(r, c)] - num).abs() < 1e-2, "e0[{r}][{c}]");
            }
        }
    }
}
