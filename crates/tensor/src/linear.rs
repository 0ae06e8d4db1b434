//! A fully-connected layer: parameters, their gradients, and the two
//! GEMM phases of a training step.

use crate::error::ShapeError;
use crate::init::xavier_uniform;
use crate::matrix::Matrix;
use crate::ops::bias_relu_epilogue;
use crate::parallel;
use tcast_pool::Exec;

/// A fully-connected (dense) layer `y = x W + b`.
///
/// `W` is `in_dim x out_dim`; inputs are batched row-wise (`batch x in_dim`).
/// The layer owns its parameters and, between [`Linear::backward_into`] and
/// [`Linear::apply_update`], their gradients — never an activation: the
/// forward pass is `&self` and writes into the caller's buffers, and the
/// caller lends the input back to the backward pass. Training and serving
/// therefore run the same forward.
///
/// Under a multi-threaded [`Exec`] a layer whose products reach the
/// multiply-add floor of the `parallel` module splits them over its pool,
/// each product cut across its larger operand: the weight's columns
/// (forward) or rows (backward) when that dimension exceeds the batch,
/// claimed block by block by whichever thread is free, and the batch
/// otherwise, one band a thread with `dW` beside `dX` in the backward. A smaller
/// layer runs on the calling thread as if the `Exec` were serial. Either
/// way every output element keeps its accumulation order: the bits do
/// not depend on the `Exec`.
///
/// This mirrors how the paper's GPU-side "DNN fwd/bwd" phases are structured:
/// forward produces activations, backward produces `dW` (GEMM of transposed
/// activations) and `dX` (GEMM against transposed weights).
#[derive(Debug, Clone)]
pub struct Linear {
    weight: Matrix,
    bias: Vec<f32>,
    grad_weight: Option<Matrix>,
    grad_bias: Option<Vec<f32>>,
    // Retired gradient buffers recycled by the next backward pass, so the
    // steady-state training step allocates nothing here.
    spare_grad_weight: Option<Matrix>,
    spare_grad_bias: Option<Vec<f32>>,
}

impl Linear {
    /// Creates a layer with Xavier-uniform weights and zero bias.
    pub fn new(in_dim: usize, out_dim: usize, seed: u64) -> Self {
        Self {
            weight: xavier_uniform(in_dim, out_dim, seed),
            bias: vec![0.0; out_dim],
            grad_weight: None,
            grad_bias: None,
            spare_grad_weight: None,
            spare_grad_bias: None,
        }
    }

    /// Creates a layer from explicit parameters (for tests).
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] if `bias.len() != weight.cols()`.
    pub fn from_parameters(weight: Matrix, bias: Vec<f32>) -> Result<Self, ShapeError> {
        if bias.len() != weight.cols() {
            return Err(ShapeError::new(
                "from_parameters",
                weight.shape(),
                (1, bias.len()),
            ));
        }
        Ok(Self {
            weight,
            bias,
            grad_weight: None,
            grad_bias: None,
            spare_grad_weight: None,
            spare_grad_bias: None,
        })
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.weight.rows()
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.weight.cols()
    }

    /// Immutable access to the weight matrix.
    pub fn weight(&self) -> &Matrix {
        &self.weight
    }

    /// Immutable access to the bias vector.
    pub fn bias(&self) -> &[f32] {
        &self.bias
    }

    /// Number of trainable parameters.
    pub fn parameter_count(&self) -> usize {
        self.weight.len() + self.bias.len()
    }

    /// Copies `src`'s parameters into this layer **in place** — no
    /// allocation, shapes must already match. This is the snapshot-capture
    /// primitive: publishing an epoch-versioned model copy every K steps
    /// must not allocate in steady state, so the copy writes through the
    /// existing weight/bias slabs instead of [`Linear::set_parameters`]'
    /// buffer replacement. Pending gradients are *not* copied — a
    /// parameter copy captures what the layer computes, not what it was
    /// computing.
    ///
    /// # Panics
    ///
    /// Panics if the layers disagree on shape.
    pub fn copy_parameters_from(&mut self, src: &Linear) {
        assert_eq!(
            self.weight.shape(),
            src.weight.shape(),
            "layer shape mismatch"
        );
        self.weight.copy_from(&src.weight);
        self.bias.copy_from_slice(&src.bias);
    }

    /// Whether this layer's products at `batch` rows reach the
    /// multiply-add floor above which a multi-threaded [`Exec`] splits
    /// them — what a caller that starts its pool lazily asks before it
    /// builds the `Exec`.
    pub fn splits_at(&self, batch: usize) -> bool {
        parallel::splits(batch, self.in_dim(), self.out_dim())
    }

    /// Forward pass `out = x W + b` and, with `relu_out`, `relu(out)`
    /// there in the same pass (the hidden-layer epilogue), both written
    /// into the caller's buffers (reusing their allocations). `&self`:
    /// nothing is kept, so any number of callers can run one layer, each
    /// through its own buffers, and a training step keeps `x` itself for
    /// [`Linear::backward_into`]. With a multi-threaded `exec` a product
    /// at or above the floor is split over its pool — into blocks of the
    /// weight's columns that its tasks claim until none is left when
    /// `out_dim` exceeds the batch, into one band of the batch a task
    /// otherwise; the bits are the same under every `exec`.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] if `x.cols() != in_dim`.
    pub fn forward_into(
        &self,
        x: &Matrix,
        out: &mut Matrix,
        relu_out: Option<&mut Matrix>,
        exec: Exec<'_>,
    ) -> Result<(), ShapeError> {
        if x.cols() != self.in_dim() {
            return Err(ShapeError::new("matmul", x.shape(), self.weight.shape()));
        }
        parallel::matmul_unchecked(exec, x, &self.weight, out);
        bias_relu_epilogue(out, &self.bias, relu_out);
        Ok(())
    }

    /// Backward pass: given `dy = dL/dy` and the `x` this step's forward
    /// pass saw (the caller kept it), stores `dW = x^T dy` and
    /// `db = sum_rows(dy)` in the layer and, unless `dx` is `None` (a
    /// first layer, whose input gradient nothing consumes), writes
    /// `dx = dy W^T` into a reused buffer; the gradient buffers are the
    /// ones the last [`Linear::apply_update`] retired. With `lr` it also
    /// applies that update at rate `lr` and keeps no gradient: the bits are
    /// those of this backward without `lr` and then
    /// [`Linear::apply_update`]. Every shape is checked before a buffer is
    /// touched, so a rejected call costs the next one nothing. `dW` and
    /// `dx` run inline, or — under a multi-threaded `exec`, at or above
    /// the floor — as the tasks of **one** scope on its pool: when
    /// `in_dim` exceeds the batch, each task claims blocks of the weight's
    /// rows until none is left, and runs each block's `dx` columns, then
    /// its `dW` rows and, with `lr`, the update of its own rows; otherwise
    /// `dx`'s batch bands beside `dW`'s, and the update after them. The
    /// bits are the same under every `exec`, with or without `dx`.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] if `x` is not `batch x in_dim` or `dy` not
    /// `batch x out_dim` for one `batch`.
    pub fn backward_into(
        &mut self,
        x: &Matrix,
        dy: &Matrix,
        dx: Option<&mut Matrix>,
        lr: Option<f32>,
        exec: Exec<'_>,
    ) -> Result<(), ShapeError> {
        if x.cols() != self.in_dim() {
            return Err(ShapeError::new("matmul", x.shape(), self.weight.shape()));
        }
        if x.rows() != dy.rows() {
            return Err(ShapeError::new("matmul_at", x.shape(), dy.shape()));
        }
        if dy.cols() != self.out_dim() {
            return Err(ShapeError::new(
                "matmul_bt",
                dy.shape(),
                self.weight.shape(),
            ));
        }
        let mut grad_w = self.spare_grad_weight.take().unwrap_or_default();
        let mut grad_b = self.spare_grad_bias.take().unwrap_or_default();
        dy.sum_rows_into(&mut grad_b);
        parallel::backward_unchecked(exec, x, dy, &mut self.weight, &mut grad_w, dx, lr);
        match lr {
            Some(lr) => {
                self.update_bias(&grad_b, lr);
                self.spare_grad_weight = Some(grad_w);
                self.spare_grad_bias = Some(grad_b);
                // What an earlier backward left pending never reached its
                // update and is stale, as a backward without `lr` would
                // overwrite it.
                self.grad_weight = None;
                self.grad_bias = None;
            }
            None => {
                self.grad_weight = Some(grad_w);
                self.grad_bias = Some(grad_b);
            }
        }
        Ok(())
    }

    /// Applies the cached gradients with plain SGD:
    /// `W -= lr * dW`, `b -= lr * db`, then clears them.
    ///
    /// Calling this without cached gradients is a no-op, so optimizer steps
    /// may be issued uniformly across layers.
    pub fn apply_update(&mut self, lr: f32) {
        if let Some(gw) = self.grad_weight.take() {
            // Infallible: gw has the same shape as weight by construction.
            self.weight
                .add_scaled(&gw, -lr)
                .expect("weight gradient shape matches weight");
            self.spare_grad_weight = Some(gw); // recycle for the next step
        }
        if let Some(gb) = self.grad_bias.take() {
            self.update_bias(&gb, lr);
            self.spare_grad_bias = Some(gb);
        }
    }

    /// `b -= lr * db`.
    fn update_bias(&mut self, grad_b: &[f32], lr: f32) {
        for (b, g) in self.bias.iter_mut().zip(grad_b) {
            *b -= lr * g;
        }
    }

    /// Replaces the layer parameters (checkpoint restore).
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] if the shapes differ from the current
    /// parameters.
    pub fn set_parameters(&mut self, weight: Matrix, bias: Vec<f32>) -> Result<(), ShapeError> {
        if weight.shape() != self.weight.shape() {
            return Err(ShapeError::new(
                "set_parameters",
                self.weight.shape(),
                weight.shape(),
            ));
        }
        if bias.len() != self.bias.len() {
            return Err(ShapeError::new(
                "set_parameters",
                (1, self.bias.len()),
                (1, bias.len()),
            ));
        }
        self.weight = weight;
        self.bias = bias;
        Ok(())
    }

    /// The cached weight gradient from the last backward pass, if any.
    pub fn grad_weight(&self) -> Option<&Matrix> {
        self.grad_weight.as_ref()
    }

    /// The cached bias gradient from the last backward pass, if any.
    pub fn grad_bias(&self) -> Option<&[f32]> {
        self.grad_bias.as_deref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn output(layer: &Linear, x: &Matrix) -> Matrix {
        let mut y = Matrix::default();
        layer.forward_into(x, &mut y, None, Exec::Serial).unwrap();
        y
    }

    #[test]
    fn forward_applies_weight_and_bias() {
        let w = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 2.0]]).unwrap();
        let layer = Linear::from_parameters(w, vec![10.0, -20.0]).unwrap();
        let x = Matrix::from_rows(&[&[1.0, 1.0]]).unwrap();
        let (mut y, mut h) = (Matrix::default(), Matrix::default());
        layer
            .forward_into(&x, &mut y, Some(&mut h), Exec::Serial)
            .unwrap();
        assert_eq!(y.row(0), &[11.0, -18.0]);
        assert_eq!(h.row(0), &[11.0, 0.0]);
        assert!(layer
            .forward_into(&Matrix::zeros(1, 3), &mut y, None, Exec::Serial)
            .is_err());
    }

    #[test]
    fn from_parameters_validates_bias() {
        let w = Matrix::zeros(2, 3);
        assert!(Linear::from_parameters(w, vec![0.0; 2]).is_err());
    }

    #[test]
    fn a_rejected_backward_keeps_the_recycled_gradient_buffers() {
        // Regression: the spares were taken before the shapes were
        // checked, so one bad `dy` made the next good step allocate both
        // gradient buffers again.
        let mut layer = Linear::new(5, 3, 9);
        let x = Matrix::filled(4, 5, 0.5);
        let dy = Matrix::filled(4, 3, 1.0);
        let mut dx = Matrix::default();
        layer
            .backward_into(&x, &dy, Some(&mut dx), None, Exec::Serial)
            .unwrap();
        let buffers = |l: &Linear| {
            (
                l.grad_weight().unwrap().as_slice().as_ptr(),
                l.grad_bias().unwrap().as_ptr(),
            )
        };
        let first = buffers(&layer);
        layer.apply_update(0.1);
        for (bad_x, bad_dy) in [
            (&x, Matrix::zeros(4, 2)),                   // dy against the weight
            (&x, Matrix::zeros(3, 3)),                   // dy against the input
            (&Matrix::zeros(4, 6), Matrix::zeros(4, 3)), // input against the weight
        ] {
            assert!(layer
                .backward_into(bad_x, &bad_dy, Some(&mut dx), None, Exec::Serial)
                .is_err());
            assert!(layer.grad_weight().is_none());
        }
        layer
            .backward_into(&x, &dy, Some(&mut dx), None, Exec::Serial)
            .unwrap();
        assert_eq!(buffers(&layer), first);
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut layer = Linear::new(3, 2, 42);
        let x = Matrix::from_rows(&[&[0.5, -0.25, 1.0], &[-1.0, 0.75, 0.1]]).unwrap();

        // Scalar loss L = sum(y); dL/dy = ones.
        let y = output(&layer, &x);
        let dy = Matrix::filled(y.rows(), y.cols(), 1.0);
        let mut dx = Matrix::default();
        layer
            .backward_into(&x, &dy, Some(&mut dx), None, Exec::Serial)
            .unwrap();
        let gw = layer.grad_weight().unwrap().clone();
        let gb = layer.grad_bias().unwrap().to_vec();

        let eps = 1e-2f32;
        let loss = |l: &Linear, x: &Matrix| -> f32 { output(l, x).sum() };

        // Weight gradient check.
        for r in 0..3 {
            for c in 0..2 {
                let nudged = |by: f32| {
                    let mut w = layer.weight().clone();
                    w[(r, c)] += by;
                    Linear::from_parameters(w, layer.bias().to_vec()).unwrap()
                };
                let num = (loss(&nudged(eps), &x) - loss(&nudged(-eps), &x)) / (2.0 * eps);
                assert!(
                    (gw[(r, c)] - num).abs() < 1e-2,
                    "dW[{r}][{c}] analytic {} vs numeric {num}",
                    gw[(r, c)]
                );
            }
        }
        // Bias gradient = batch size for sum loss.
        assert!(gb.iter().all(|&g| (g - 2.0).abs() < 1e-5));

        // Input gradient check.
        for r in 0..2 {
            for c in 0..3 {
                let mut xp = x.clone();
                xp[(r, c)] += eps;
                let mut xm = x.clone();
                xm[(r, c)] -= eps;
                let num = (loss(&layer, &xp) - loss(&layer, &xm)) / (2.0 * eps);
                assert!(
                    (dx[(r, c)] - num).abs() < 1e-2,
                    "dX[{r}][{c}] analytic {} vs numeric {num}",
                    dx[(r, c)]
                );
            }
        }
    }

    #[test]
    fn apply_update_moves_against_gradient() {
        let mut layer = Linear::new(2, 1, 3);
        let before = layer.weight().clone();
        let x = Matrix::filled(4, 2, 1.0);
        let dy = Matrix::filled(4, 1, 1.0);
        let mut dx = Matrix::default();
        layer
            .backward_into(&x, &dy, Some(&mut dx), None, Exec::Serial)
            .unwrap();
        layer.apply_update(0.1);
        let after = layer.weight();
        // dW = x^T dy = 4.0 for each entry; W should decrease by 0.4.
        for r in 0..2 {
            assert!((before[(r, 0)] - after[(r, 0)] - 0.4).abs() < 1e-5);
        }
        // Gradients consumed.
        assert!(layer.grad_weight().is_none());
        assert!(layer.grad_bias().is_none());
    }

    #[test]
    fn an_update_inside_the_backward_drops_a_stale_pending_gradient() {
        // A backward whose update never ran (its step failed after it),
        // then one with `lr`: the second's update alone, bit for bit, and
        // nothing left for a following `apply_update`.
        let x = Matrix::from_rows(&[&[0.5, -1.0, 2.0], &[1.5, 0.25, -0.5]]).unwrap();
        let (stale, dy) = (Matrix::filled(2, 2, 3.0), Matrix::filled(2, 2, -0.5));
        let mut dx = Matrix::default();
        let mut want = Linear::new(3, 2, 11);
        let mut got = want.clone();
        want.backward_into(&x, &dy, Some(&mut dx), None, Exec::Serial)
            .unwrap();
        want.apply_update(0.1);
        got.backward_into(&x, &stale, Some(&mut dx), None, Exec::Serial)
            .unwrap();
        got.backward_into(&x, &dy, Some(&mut dx), Some(0.1), Exec::Serial)
            .unwrap();
        assert!(got.grad_weight().is_none() && got.grad_bias().is_none());
        got.apply_update(0.1);
        assert_eq!(got.weight(), want.weight());
        assert_eq!(got.bias(), want.bias());
    }

    #[test]
    fn apply_update_without_gradients_is_noop() {
        let mut layer = Linear::new(2, 2, 5);
        let before = layer.weight().clone();
        layer.apply_update(1.0);
        assert_eq!(layer.weight(), &before);
    }

    #[test]
    fn parameter_count() {
        let layer = Linear::new(3, 4, 0);
        assert_eq!(layer.parameter_count(), 3 * 4 + 4);
    }
}
