//! Elementwise activations and their backward passes.

use crate::error::ShapeError;
use crate::matrix::Matrix;

/// ReLU: `max(0, x)` elementwise.
///
/// ```
/// use tcast_tensor::{Matrix, relu};
///
/// let x = Matrix::from_rows(&[&[-1.0, 2.0]]).unwrap();
/// assert_eq!(relu(&x).row(0), &[0.0, 2.0]);
/// ```
pub fn relu(x: &Matrix) -> Matrix {
    x.map(|v| if v > 0.0 { v } else { 0.0 })
}

/// The forward epilogue of a dense layer in one pass over its output:
/// `z += bias` on every row and, when `relu_out` is given, `relu_out =
/// relu(z)` (reshaped in place, reusing its allocation). Bit-identical to
/// [`Matrix::add_row_vector`] followed by [`relu`], including on NaN and
/// `-0.0` pre-activations (both map to `+0.0`).
pub(crate) fn bias_relu_epilogue(z: &mut Matrix, bias: &[f32], relu_out: Option<&mut Matrix>) {
    let cols = z.cols();
    assert_eq!(bias.len(), cols, "bias length matches the layer width");
    let Some(h) = relu_out else {
        z.add_row_vector(bias).expect("length asserted above");
        return;
    };
    h.reshape_for_overwrite(z.rows(), cols);
    let z_rows = z.as_mut_slice().chunks_exact_mut(cols.max(1));
    let h_rows = h.as_mut_slice().chunks_exact_mut(cols.max(1));
    for (z_row, h_row) in z_rows.zip(h_rows) {
        for ((v, a), &b) in z_row.iter_mut().zip(h_row).zip(bias) {
            *v += b;
            *a = if *v > 0.0 { *v } else { 0.0 };
        }
    }
}

/// Backward pass of ReLU: `dx = dy ⊙ 1[x > 0]`, where `x` is the
/// *pre-activation* input saved during the forward pass.
///
/// # Errors
///
/// Returns a [`ShapeError`] if `dy` and `x` have different shapes.
pub fn relu_backward(dy: &Matrix, x: &Matrix) -> Result<Matrix, ShapeError> {
    if dy.shape() != x.shape() {
        return Err(ShapeError::new("relu_backward", dy.shape(), x.shape()));
    }
    let data: Vec<f32> = dy
        .as_slice()
        .iter()
        .zip(x.as_slice().iter())
        .map(|(&g, &v)| if v > 0.0 { g } else { 0.0 })
        .collect();
    Matrix::from_vec(dy.rows(), dy.cols(), data)
}

/// [`relu_backward`] masking the gradient **in place** (`dy` is both input
/// and output): `dy[i] = 0` wherever the pre-activation is not `> 0`
/// (negative, zero, or NaN — the same mask as [`relu_backward`]). `x` may
/// equally be the activation `relu(x)`, which is `> 0` at exactly the same
/// elements — what [`crate::Mlp::backward_into`] passes.
///
/// # Errors
///
/// Returns a [`ShapeError`] if `dy` and `x` have different shapes.
pub fn relu_backward_in_place(dy: &mut Matrix, x: &Matrix) -> Result<(), ShapeError> {
    if dy.shape() != x.shape() {
        return Err(ShapeError::new("relu_backward", dy.shape(), x.shape()));
    }
    for (g, &v) in dy.as_mut_slice().iter_mut().zip(x.as_slice().iter()) {
        *g = if v > 0.0 { *g } else { 0.0 };
    }
    Ok(())
}

/// Numerically-stable logistic sigmoid.
#[inline]
pub(crate) fn sigmoid_scalar(v: f32) -> f32 {
    if v >= 0.0 {
        1.0 / (1.0 + (-v).exp())
    } else {
        let e = v.exp();
        e / (1.0 + e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_clamps_negatives() {
        let x = Matrix::from_rows(&[&[-3.0, 0.0, 5.0]]).unwrap();
        assert_eq!(relu(&x).row(0), &[0.0, 0.0, 5.0]);
    }

    #[test]
    fn relu_backward_masks_gradient() {
        let x = Matrix::from_rows(&[&[-1.0, 2.0]]).unwrap();
        let dy = Matrix::from_rows(&[&[10.0, 10.0]]).unwrap();
        let dx = relu_backward(&dy, &x).unwrap();
        assert_eq!(dx.row(0), &[0.0, 10.0]);
    }

    #[test]
    fn in_place_forms_match_allocating_forms_on_nan_and_negative_zero() {
        let x = Matrix::from_rows(&[&[f32::NAN, -0.0, 0.0, -1.0, 2.0]]).unwrap();

        let dy = Matrix::filled(1, 5, 3.0);
        let expect = relu_backward(&dy, &x).unwrap();
        let mut grad = dy.clone();
        relu_backward_in_place(&mut grad, &x).unwrap();
        assert_eq!(expect.as_slice(), grad.as_slice());
        // Masking by the activation is masking by the pre-activation.
        let mut grad = dy.clone();
        relu_backward_in_place(&mut grad, &relu(&x)).unwrap();
        assert_eq!(expect.as_slice(), grad.as_slice());
    }

    #[test]
    fn fused_epilogue_matches_bias_then_relu_on_nan_and_negative_zero() {
        // Pre-activations that land on NaN, -0.0, +0.0, negative, positive.
        let acc = Matrix::from_rows(&[
            &[f32::NAN, -0.5, 0.0, -1.0, 2.0],
            &[1.0, -0.0, 0.5, f32::NAN, -3.0],
        ])
        .unwrap();
        let bias = [0.0, 0.5, -0.0, 0.25, -1.0];
        let mut want_z = acc.clone();
        want_z.add_row_vector(&bias).unwrap();
        let want_h = relu(&want_z);

        let mut z = acc.clone();
        let mut h = Matrix::filled(7, 3, f32::NAN); // stale shape and contents
        bias_relu_epilogue(&mut z, &bias, Some(&mut h));
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&want_z), bits(&z));
        assert_eq!(bits(&want_h), bits(&h));
        assert_eq!(h.shape(), (2, 5));
        assert!(h.as_slice().iter().all(|v| v.is_finite()));

        let mut z = acc.clone();
        bias_relu_epilogue(&mut z, &bias, None);
        assert_eq!(bits(&want_z), bits(&z));
    }

    #[test]
    fn relu_backward_shape_check() {
        let x = Matrix::zeros(1, 2);
        let dy = Matrix::zeros(2, 1);
        assert!(relu_backward(&dy, &x).is_err());
    }

    #[test]
    fn sigmoid_symmetry_and_range() {
        let s = [-100.0, -1.0, 0.0, 1.0, 100.0].map(sigmoid_scalar);
        for v in s {
            assert!((0.0..=1.0).contains(&v));
            assert!(v.is_finite());
        }
        assert!((s[2] - 0.5).abs() < 1e-6);
        // s(-x) = 1 - s(x)
        assert!((s[1] + s[3] - 1.0).abs() < 1e-6);
    }
}
