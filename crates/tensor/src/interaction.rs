//! DLRM feature interaction: combines the bottom-MLP output with the pooled
//! embedding vectors before the top MLP (Fig. 1 of the paper).
//!
//! The operator is DLRM's default `--arch-interaction-op=dot`: pairwise
//! dot products between all feature vectors (the dense vector and each
//! pooled embedding), concatenated after the dense feature vector.
//!
//! The loops below are the scalar oracle, what
//! [`KernelDispatch::Scalar`] runs. The SIMD tiers run the kernels of
//! [`crate::simd`] instead: the forward across whole 8-row blocks of the
//! batch (the rows past the last block take the loop), the backward one
//! gradient row at a time. Both keep every output's operations and their
//! order, so every tier gives the same bits.

use crate::error::ShapeError;
use crate::matrix::Matrix;
use crate::simd::{self, KernelDispatch};

/// Output width of the interaction for `num_tables` embedding tables whose
/// pooled vectors (and the dense vector) all have width `dim`: the dense
/// vector followed by one dot product per pair of vectors.
///
/// ```
/// use tcast_tensor::interaction_output_dim;
///
/// // 10 tables + 1 dense vector = 11 vectors; C(11,2) = 55 pairs.
/// assert_eq!(interaction_output_dim(10, 64), 64 + 55);
/// ```
pub fn interaction_output_dim(num_tables: usize, dim: usize) -> usize {
    let m = num_tables + 1;
    dim + m * (m - 1) / 2
}

/// Differentiable feature-interaction operator.
///
/// Stateless: the forward pass writes into the caller's buffer and the
/// backward pass is handed the same inputs again, routing gradients back
/// to the dense vector and to each pooled embedding (which is where the
/// embedding-layer backpropagation — the subject of the paper — begins).
#[derive(Debug, Clone, Default)]
pub struct FeatureInteraction;

impl FeatureInteraction {
    /// Checks what both directions require of their inputs — one batch
    /// and one width — and returns the width of the output.
    fn output_width(&self, dense: &Matrix, embeddings: &[Matrix]) -> Result<usize, ShapeError> {
        for e in embeddings {
            if e.rows() != dense.rows() {
                return Err(ShapeError::new(
                    "interaction_batch",
                    dense.shape(),
                    e.shape(),
                ));
            }
            if e.cols() != dense.cols() {
                return Err(ShapeError::new("interaction_dim", dense.shape(), e.shape()));
            }
        }
        Ok(interaction_output_dim(embeddings.len(), dense.cols()))
    }

    /// Forward pass writing into `out` (reshaped in place, reusing its
    /// allocation). `dense` is the bottom-MLP output (`batch x dim`);
    /// `embeddings` are the pooled per-table outputs (each `batch x dim`).
    /// The one forward of training and serving.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] if any operand disagrees on `batch`/`dim`.
    pub fn forward_into(
        &self,
        dense: &Matrix,
        embeddings: &[Matrix],
        out: &mut Matrix,
    ) -> Result<(), ShapeError> {
        self.forward_on(simd::dispatch(), dense, embeddings, out)
    }

    /// [`FeatureInteraction::forward_into`] on kernel tier `tier`.
    fn forward_on(
        &self,
        tier: KernelDispatch,
        dense: &Matrix,
        embeddings: &[Matrix],
        out: &mut Matrix,
    ) -> Result<(), ShapeError> {
        let width = self.output_width(dense, embeddings)?;
        // Virtual input list [dense, emb_0, ..], without materializing it.
        let m = embeddings.len() + 1;
        let input = |i: usize| if i == 0 { dense } else { &embeddings[i - 1] };
        let (batch, dim) = dense.shape();
        // Every element is written below.
        out.reshape_for_overwrite(batch, width);
        let slab = |i: usize| input(i).as_slice();
        let done = simd::pair_dots(tier, slab, m, dim, batch, out.as_mut_slice());
        for b in 0..batch {
            let row = out.row_mut(b);
            row[..dim].copy_from_slice(dense.row(b));
            if b < done {
                continue;
            }
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
        self.backward_on(simd::dispatch(), dense, embeddings, dout, ddense, dpooled)
    }

    /// [`FeatureInteraction::backward_into`] on kernel tier `tier`.
    fn backward_on(
        &self,
        tier: KernelDispatch,
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
        // Every element is written below.
        ddense.reshape_for_overwrite(batch, dim);
        for (buf, src) in dpooled.iter_mut().zip(embeddings) {
            buf.reshape_for_overwrite(batch, src.cols());
        }
        for b in 0..batch {
            let drow = dout.row(b);
            let (passthrough, dpairs) = drow.split_at(dim);
            // The SIMD tiers: one gradient row at a time, each adding its
            // partners in the order the loop below adds them to it.
            let row = |q: usize| input(q).row(b);
            let dense_row = ddense.row_mut(b);
            if simd::pair_grads_row(tier, row, m, 0, Some(passthrough), dpairs, dense_row) {
                for (f, grad) in dpooled.iter_mut().enumerate() {
                    let grad = grad.row_mut(b);
                    simd::pair_grads_row(tier, row, m, f + 1, None, dpairs, grad);
                }
                continue;
            }
            // Dense passthrough part; the others start from zero.
            ddense.row_mut(b).copy_from_slice(passthrough);
            for buf in dpooled.iter_mut() {
                buf.row_mut(b).fill(0.0);
            }
            // Pair part: dz_ij flows to both v_i and v_j. The inputs and
            // the gradient buffers are separate storage, so no row copies
            // are needed.
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
                        for (o, &vjv) in gi.row_mut(b).iter_mut().zip(input(j).row(b).iter()) {
                            *o += g * vjv;
                        }
                    }
                    {
                        let gj = &mut dpooled[j - 1]; // j >= 1 always
                        for (o, &viv) in gj.row_mut(b).iter_mut().zip(input(i).row(b).iter()) {
                            *o += g * viv;
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

    fn output(dense: &Matrix, embeddings: &[Matrix]) -> Matrix {
        let mut out = Matrix::default();
        FeatureInteraction
            .forward_into(dense, embeddings, &mut out)
            .unwrap();
        out
    }

    #[test]
    fn output_dims() {
        assert_eq!(interaction_output_dim(3, 8), 8 + 6);
        let embeddings = [mk(2, 8, 1.0), mk(2, 8, 2.0), mk(2, 8, 3.0)];
        let out = output(&mk(2, 8, 0.0), &embeddings);
        assert_eq!(out.cols(), interaction_output_dim(3, 8));
    }

    #[test]
    fn dot_forward_values() {
        let dense = Matrix::from_rows(&[&[1.0, 2.0]]).unwrap();
        let e = Matrix::from_rows(&[&[3.0, 4.0]]).unwrap();
        let out = output(&dense, &[e]);
        // [dense..., dot(dense, e)] = [1, 2, 11]
        assert_eq!(out.row(0), &[1.0, 2.0, 11.0]);
    }

    #[test]
    fn batch_mismatch_rejected() {
        let dense = Matrix::zeros(2, 4);
        let e = Matrix::zeros(3, 4);
        assert!(FeatureInteraction
            .forward_into(&dense, &[e], &mut Matrix::default())
            .is_err());
    }

    #[test]
    fn dim_mismatch_rejected_for_dot_only() {
        let dense = Matrix::zeros(2, 4);
        let e = [Matrix::zeros(2, 3)];
        let mut out = Matrix::default();
        assert!(FeatureInteraction
            .forward_into(&dense, &e, &mut out)
            .is_err());
    }

    #[test]
    fn a_rejected_backward_keeps_the_gradient_buffers() {
        // Inputs that are not the ones `dout` came from — a wrong `dout`
        // width or batch, an `embeddings` slice of the wrong length, an
        // embedding of another batch or another width — are a shape error
        // found before a gradient buffer is resized or written.
        let op = FeatureInteraction;
        let dense = mk(2, 4, 0.3);
        let embeddings = [mk(2, 4, 1.7), mk(2, 4, 2.9)];
        let dout = mk(2, output(&dense, &embeddings).cols(), 9.0);
        let (mut ddense, mut dpooled) = (Matrix::default(), Vec::new());
        op.backward_into(&dense, &embeddings, &dout, &mut ddense, &mut dpooled)
            .unwrap();
        let want = (ddense.clone(), dpooled.clone());
        let narrow = mk(2, dout.cols() - 1, 9.0);
        let short = mk(1, dout.cols(), 9.0);
        let other_batch = [mk(2, 4, 1.7), mk(3, 4, 2.9)];
        let other_width = [mk(2, 4, 1.7), mk(2, 3, 2.9)];
        for (bad_embeddings, bad_dout) in [
            (&embeddings[..], &narrow),
            (&embeddings[..], &short),
            (&embeddings[..1], &dout),
            (&other_batch[..], &dout),
            (&other_width[..], &dout),
        ] {
            assert!(op
                .backward_into(&dense, bad_embeddings, bad_dout, &mut ddense, &mut dpooled)
                .is_err());
            assert_eq!((&ddense, &dpooled), (&want.0, &want.1));
        }
    }

    /// The features of one `Dot` interaction (`m` of `batch x dim`) and an
    /// upstream gradient, holding what a bit-identity claim must survive
    /// beside values in `[-2, 2)`, `-0.0` and denormals:
    /// * every third row, feature 0 is `+0.0` and feature 1 negative, so
    ///   each product of pair `(0, 1)` is `-0.0` and so is its sum, which
    ///   starts at `-0.0` (a sum started at `+0.0` would read `+0.0`);
    /// * every fourth row, feature `m - 1` holds `inf` and NaN and every
    ///   pair it is in has a zero `g`, which must be skipped, not added as
    ///   `0 * inf`;
    /// * in the rows after those, the dense passthrough is `-0.0` and
    ///   every pair of feature 0 has a zero `g`, so its gradient row must
    ///   stay `-0.0`.
    fn hostile_dot(batch: usize, m: usize, dim: usize, seed: u64) -> (Vec<Matrix>, Matrix) {
        let mut rng = crate::SplitMix64::new(seed);
        let value = |rng: &mut crate::SplitMix64| match rng.next_below(32) {
            0 => -0.0,
            1 => 1.0e-40,
            2 => -1.0e-41,
            3 => 0.0,
            _ => rng.next_range(-2.0, 2.0),
        };
        let mut features: Vec<Matrix> = (0..m).map(|_| Matrix::zeros(batch, dim)).collect();
        let pairs = m * (m - 1) / 2;
        let mut dout = Matrix::zeros(batch, dim + pairs);
        for b in 0..batch {
            for (f, x) in features.iter_mut().enumerate() {
                for v in x.row_mut(b) {
                    *v = match (b % 3, f) {
                        (0, 0) => 0.0,
                        (0, 1) => -rng.next_range(0.5, 2.0),
                        _ => value(&mut rng),
                    };
                }
            }
            for v in dout.row_mut(b) {
                *v = value(&mut rng);
            }
            // Pair `p` of `(i, j)`, in the forward's order.
            let mut p = dim;
            for i in 0..m {
                for j in (i + 1)..m {
                    let zero = if p.is_multiple_of(2) { 0.0 } else { -0.0 };
                    if (b % 4 == 1 && j == m - 1) || (b % 4 == 2 && i == 0) {
                        dout[(b, p)] = zero;
                    }
                    p += 1;
                }
            }
            if b % 4 == 1 {
                let last = features[m - 1].row_mut(b);
                last[0] = f32::INFINITY;
                last[dim / 2] = f32::NAN;
                last[dim - 1] = f32::NEG_INFINITY;
            }
            if b % 4 == 2 {
                dout.row_mut(b)[..dim].fill(-0.0);
            }
        }
        (features, dout)
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn simd_dot_interaction_matches_the_scalar_oracle() {
        // Rows below, at and past one 8-row block and a full RM1 batch;
        // one pair, RM1's 11 features (one tile over the whole row) and 41
        // (the reduction in 18-step blocks; not at 512 rows, which only
        // repeat the blocks of 17 at 25 times the debug-build cost); whole
        // and ragged vectors.
        let op = FeatureInteraction;
        let mut seed = 0xD07;
        for batch in [1, 7, 8, 9, 17, 512] {
            for m in [2, 11, 41] {
                if (batch, m) == (512, 41) {
                    continue;
                }
                for dim in [16, 63, 64] {
                    seed += 1;
                    let (features, dout) = hostile_dot(batch, m, dim, seed);
                    let run = |tier| {
                        let (dense, embeddings) = (&features[0], &features[1..]);
                        // Stale NaN in every buffer: each element must be
                        // written.
                        let width = dim + m * (m - 1) / 2;
                        let mut out = Matrix::filled(batch, width, f32::NAN);
                        let mut ddense = Matrix::filled(batch, dim, f32::NAN);
                        let mut dpooled = vec![ddense.clone(); m - 1];
                        op.forward_on(tier, dense, embeddings, &mut out).unwrap();
                        op.backward_on(tier, dense, embeddings, &dout, &mut ddense, &mut dpooled)
                            .unwrap();
                        let mut all = vec![bits(&out), bits(&ddense)];
                        all.extend(dpooled.iter().map(bits));
                        all
                    };
                    let oracle = run(KernelDispatch::Scalar);
                    // Row 0, pair (0, 1): a sum of `-0.0` products.
                    assert_eq!(oracle[0][dim], (-0.0f32).to_bits());
                    for tier in [KernelDispatch::Avx2] {
                        let got = run(tier);
                        for (t, (want, got)) in oracle.iter().zip(&got).enumerate() {
                            // A forward sum meeting both the input NaN and
                            // one `inf * 0` made keeps the payload of the
                            // add's first operand, which the compiler picks
                            // for the oracle (it commutes adds): there the
                            // NaN-ness is what must agree.
                            let nan = |x: u32| f32::from_bits(x).is_nan();
                            let same = |x: u32, y: u32| x == y || (t == 0 && nan(x) && nan(y));
                            let bad = want.iter().zip(got).position(|(&x, &y)| !same(x, y));
                            assert!(
                                bad.is_none(),
                                "{} batch {batch} m {m} dim {dim}: tensor {t} (0 = output, \
                                 1 = ddense) differs at {bad:?}: {:x?} vs {:x?}",
                                tier.name(),
                                bad.map(|i| want[i]),
                                bad.map(|i| got[i]),
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn dot_backward_matches_finite_difference() {
        let dense = mk(2, 4, 0.3);
        let e0 = mk(2, 4, 1.7);
        let e1 = mk(2, 4, 2.9);
        let loss = |dense: &Matrix, e0: &Matrix, e1: &Matrix| -> f32 {
            output(dense, &[e0.clone(), e1.clone()]).sum()
        };
        let dout = Matrix::filled(2, 4 + 3, 1.0);
        let (mut dd, mut de) = (Matrix::default(), Vec::new());
        FeatureInteraction
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
