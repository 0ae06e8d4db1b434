//! Training losses: binary cross-entropy over logits (the CTR objective of
//! DLRM) and mean squared error (used in substrate tests).

use crate::error::ShapeError;
use crate::matrix::Matrix;
use crate::ops::sigmoid_scalar;

/// The element count a mean loss (or its gradient) divides by, once both
/// operands agree on a shape that has elements: the mean of zero elements
/// is an error, not `0/0 = NaN`.
fn mean_divisor(op: &'static str, a: &Matrix, b: &Matrix) -> Result<f32, ShapeError> {
    if a.shape() != b.shape() {
        return Err(ShapeError::new(op, a.shape(), b.shape()));
    }
    if a.is_empty() {
        return Err(ShapeError::new(
            "mean_of_zero_elements",
            a.shape(),
            b.shape(),
        ));
    }
    Ok(a.len() as f32)
}

/// Mean binary-cross-entropy between logits and `{0,1}` targets, computed
/// in the numerically-stable fused form
/// `max(z,0) - z*t + ln(1 + e^{-|z|})`.
///
/// # Errors
///
/// Returns a [`ShapeError`] if the shapes differ or have no elements.
///
/// ```
/// use tcast_tensor::{Matrix, bce_with_logits};
///
/// let logits = Matrix::from_rows(&[&[10.0], &[-10.0]]).unwrap();
/// let targets = Matrix::from_rows(&[&[1.0], &[0.0]]).unwrap();
/// // Confident and correct: loss near zero.
/// assert!(bce_with_logits(&logits, &targets).unwrap() < 1e-3);
/// ```
pub fn bce_with_logits(logits: &Matrix, targets: &Matrix) -> Result<f32, ShapeError> {
    let n = mean_divisor("bce_with_logits", logits, targets)?;
    let mut total = 0.0f32;
    for (&z, &t) in logits.as_slice().iter().zip(targets.as_slice().iter()) {
        total += z.max(0.0) - z * t + (1.0 + (-z.abs()).exp()).ln();
    }
    Ok(total / n)
}

/// Gradient of [`bce_with_logits`] w.r.t. the logits:
/// `(sigmoid(z) - t) / N`.
///
/// # Errors
///
/// Returns a [`ShapeError`] if the shapes differ or have no elements.
pub fn bce_with_logits_backward(logits: &Matrix, targets: &Matrix) -> Result<Matrix, ShapeError> {
    let mut out = Matrix::default();
    bce_with_logits_backward_into(logits, targets, &mut out)?;
    Ok(out)
}

/// [`bce_with_logits_backward`] writing into `out` (reshaped in place,
/// reusing its allocation).
///
/// # Errors
///
/// Returns a [`ShapeError`] if the shapes differ or have no elements.
pub fn bce_with_logits_backward_into(
    logits: &Matrix,
    targets: &Matrix,
    out: &mut Matrix,
) -> Result<(), ShapeError> {
    let n = mean_divisor("bce_with_logits_backward", logits, targets)?;
    out.zero_into(logits.rows(), logits.cols());
    for (o, (&z, &t)) in out
        .as_mut_slice()
        .iter_mut()
        .zip(logits.as_slice().iter().zip(targets.as_slice().iter()))
    {
        *o = (sigmoid_scalar(z) - t) / n;
    }
    Ok(())
}

/// Mean squared error `mean((y - t)^2)`.
///
/// # Errors
///
/// Returns a [`ShapeError`] if the shapes differ or have no elements.
pub fn mse(pred: &Matrix, target: &Matrix) -> Result<f32, ShapeError> {
    let n = mean_divisor("mse", pred, target)?;
    Ok(pred
        .as_slice()
        .iter()
        .zip(target.as_slice().iter())
        .map(|(&y, &t)| (y - t) * (y - t))
        .sum::<f32>()
        / n)
}

/// Gradient of [`mse`] w.r.t. predictions: `2 (y - t) / N`.
///
/// # Errors
///
/// Returns a [`ShapeError`] if the shapes differ or have no elements.
pub fn mse_backward(pred: &Matrix, target: &Matrix) -> Result<Matrix, ShapeError> {
    let n = mean_divisor("mse_backward", pred, target)?;
    let data: Vec<f32> = pred
        .as_slice()
        .iter()
        .zip(target.as_slice().iter())
        .map(|(&y, &t)| 2.0 * (y - t) / n)
        .collect();
    Matrix::from_vec(pred.rows(), pred.cols(), data)
}

/// Convenience: MSE loss and its gradient in one call.
///
/// # Errors
///
/// Returns a [`ShapeError`] if the shapes differ or have no elements.
pub fn mse_with_grad(pred: &Matrix, target: &Matrix) -> Result<(f32, Matrix), ShapeError> {
    Ok((mse(pred, target)?, mse_backward(pred, target)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bce_is_ln2_at_zero_logit() {
        let z = Matrix::zeros(4, 1);
        let t = Matrix::from_vec(4, 1, vec![0.0, 1.0, 0.0, 1.0]).unwrap();
        let loss = bce_with_logits(&z, &t).unwrap();
        assert!((loss - std::f32::consts::LN_2).abs() < 1e-6);
    }

    #[test]
    fn bce_penalizes_confident_wrong() {
        let right = Matrix::from_rows(&[&[5.0]]).unwrap();
        let wrong = Matrix::from_rows(&[&[-5.0]]).unwrap();
        let t = Matrix::from_rows(&[&[1.0]]).unwrap();
        assert!(bce_with_logits(&wrong, &t).unwrap() > bce_with_logits(&right, &t).unwrap() + 4.0);
    }

    #[test]
    fn bce_is_stable_at_extreme_logits() {
        let z = Matrix::from_rows(&[&[1000.0, -1000.0]]).unwrap();
        let t = Matrix::from_rows(&[&[1.0, 0.0]]).unwrap();
        let loss = bce_with_logits(&z, &t).unwrap();
        assert!(loss.is_finite());
        assert!(loss < 1e-3);
        let grad = bce_with_logits_backward(&z, &t).unwrap();
        assert!(grad.as_slice().iter().all(|g| g.is_finite()));
    }

    #[test]
    fn bce_gradient_matches_finite_difference() {
        let z = Matrix::from_rows(&[&[0.3, -1.2], &[2.0, 0.0]]).unwrap();
        let t = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]).unwrap();
        let g = bce_with_logits_backward(&z, &t).unwrap();
        let eps = 1e-3f32;
        for r in 0..2 {
            for c in 0..2 {
                let mut zp = z.clone();
                zp[(r, c)] += eps;
                let mut zm = z.clone();
                zm[(r, c)] -= eps;
                let num = (bce_with_logits(&zp, &t).unwrap() - bce_with_logits(&zm, &t).unwrap())
                    / (2.0 * eps);
                assert!(
                    (g[(r, c)] - num).abs() < 1e-3,
                    "grad[{r}][{c}] {} vs {num}",
                    g[(r, c)]
                );
            }
        }
    }

    #[test]
    fn mse_zero_when_equal() {
        let a = Matrix::filled(2, 2, 3.0);
        assert_eq!(mse(&a, &a).unwrap(), 0.0);
    }

    #[test]
    fn mse_gradient_matches_finite_difference() {
        let y = Matrix::from_rows(&[&[0.5, -1.0]]).unwrap();
        let t = Matrix::from_rows(&[&[1.0, 1.0]]).unwrap();
        let g = mse_backward(&y, &t).unwrap();
        let eps = 1e-3f32;
        for c in 0..2 {
            let mut yp = y.clone();
            yp[(0, c)] += eps;
            let mut ym = y.clone();
            ym[(0, c)] -= eps;
            let num = (mse(&yp, &t).unwrap() - mse(&ym, &t).unwrap()) / (2.0 * eps);
            assert!((g[(0, c)] - num).abs() < 1e-3);
        }
    }

    #[test]
    fn shape_mismatch_is_rejected_everywhere() {
        let a = Matrix::zeros(1, 2);
        let b = Matrix::zeros(2, 1);
        assert!(bce_with_logits(&a, &b).is_err());
        assert!(bce_with_logits_backward(&a, &b).is_err());
        assert!(mse(&a, &b).is_err());
        assert!(mse_backward(&a, &b).is_err());
    }

    #[test]
    fn the_mean_of_zero_elements_is_an_error_not_nan() {
        let empty = Matrix::zeros(0, 1);
        let mut out = Matrix::filled(2, 1, 7.0);
        let err = bce_with_logits(&empty, &empty).unwrap_err();
        assert_eq!(err.op(), "mean_of_zero_elements");
        assert!(bce_with_logits_backward_into(&empty, &empty, &mut out).is_err());
        assert_eq!(out, Matrix::filled(2, 1, 7.0));
        assert!(mse(&empty, &empty).is_err());
        assert!(mse_backward(&empty, &empty).is_err());
    }
}
