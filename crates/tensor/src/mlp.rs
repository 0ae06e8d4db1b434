//! Multi-layer perceptron: the "bottom" and "top" DNN of a DLRM model.

use crate::error::ShapeError;
use crate::linear::Linear;
use crate::matrix::Matrix;
use crate::ops::relu_backward_in_place;
use tcast_pool::Exec;

/// Caller-owned buffers of one pass through an [`Mlp`], sized lazily on
/// first use and recycled afterwards: one pre-activation buffer shared by
/// every layer, the post-activation output of each hidden layer — what
/// [`Mlp::forward_into`] leaves behind and [`Mlp::backward_into`] borrows
/// — and the two buffers the running gradient ping-pongs between. The
/// model keeps no activation, so one `&self` model serves any number of
/// callers, each through a scratch of its own: a trainer's step and a
/// serving engine's batch alike.
#[derive(Debug, Default)]
pub struct MlpInferenceScratch {
    pre: Matrix,
    act: Vec<Matrix>,
    grad: [Matrix; 2],
}

/// A stack of [`Linear`] layers with ReLU after every hidden layer.
///
/// The final layer is linear (no activation): DLRM applies the
/// sigmoid inside the loss ([`crate::bce_with_logits`]) for numerical
/// stability, matching standard practice.
///
/// Layer sizes follow the paper's notation: the Table II entry
/// "256-128-64" for a bottom MLP is expressed as
/// `Mlp::new(input_dim, &[256, 128, 64], seed)`.
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Linear>,
}

impl Mlp {
    /// Creates an MLP mapping `input_dim` to `widths.last()` through the
    /// given hidden widths.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] if `widths` is empty or holds a zero
    /// width.
    pub fn new(input_dim: usize, widths: &[usize], seed: u64) -> Result<Self, ShapeError> {
        if widths.is_empty() || widths.contains(&0) {
            return Err(ShapeError::new(
                "mlp_new",
                (input_dim, widths.len()),
                (0, 0),
            ));
        }
        let mut layers = Vec::with_capacity(widths.len());
        let mut in_dim = input_dim;
        for (i, &w) in widths.iter().enumerate() {
            layers.push(Linear::new(in_dim, w, seed.wrapping_add(i as u64 * 7919)));
            in_dim = w;
        }
        Ok(Self { layers })
    }

    /// Input dimensionality.
    pub fn input_dim(&self) -> usize {
        self.layers[0].in_dim()
    }

    /// Number of layers.
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// Total trainable parameters across all layers.
    pub fn parameter_count(&self) -> usize {
        self.layers.iter().map(Linear::parameter_count).sum()
    }

    /// Immutable access to the layers.
    pub fn layers(&self) -> &[Linear] {
        &self.layers
    }

    /// Mutable access to the layers (checkpoint restore).
    pub fn layers_mut(&mut self) -> &mut [Linear] {
        &mut self.layers
    }

    /// Copies `src`'s parameters layer by layer **in place** (see
    /// [`Linear::copy_parameters_from`]) — the allocation-free capture
    /// path for epoch-versioned model snapshots.
    ///
    /// # Panics
    ///
    /// Panics if the MLPs disagree on depth or any layer's shape.
    pub fn copy_parameters_from(&mut self, src: &Mlp) {
        assert_eq!(self.layers.len(), src.layers.len(), "MLP depth mismatch");
        for (dst, src) in self.layers.iter_mut().zip(src.layers.iter()) {
            dst.copy_parameters_from(src);
        }
    }

    /// Whether any layer's products at `batch` rows reach the
    /// multiply-add floor above which a multi-threaded [`Exec`] splits
    /// them (see [`Linear::splits_at`]).
    pub fn splits_at(&self, batch: usize) -> bool {
        self.layers.iter().any(|layer| layer.splits_at(batch))
    }

    /// Forward pass over a `batch x input_dim` matrix, writing the output
    /// into `out` and every hidden activation into `scratch` (all buffers
    /// reused: no allocation in steady state). Takes `&self` and mutates
    /// no model state: the training step and a serving engine call this
    /// one function, a step then handing the same `x` and `scratch` to
    /// [`Mlp::backward_into`]. With a multi-threaded `exec` the layers at
    /// or above the floor split their GEMMs on its pool; the bits are the
    /// same under every `exec`.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] on input-dimension mismatch.
    pub fn forward_into(
        &self,
        x: &Matrix,
        scratch: &mut MlpInferenceScratch,
        out: &mut Matrix,
        exec: Exec<'_>,
    ) -> Result<(), ShapeError> {
        let hidden = self.layers.len() - 1;
        scratch.act.resize_with(hidden, Matrix::default);
        for i in 0..hidden {
            // Split so the previous layer's (immutable) activation and
            // this layer's (mutable) buffer never alias.
            let (before, at) = scratch.act.split_at_mut(i);
            let input = if i == 0 { x } else { &before[i - 1] };
            self.layers[i].forward_into(input, &mut scratch.pre, Some(&mut at[0]), exec)?;
        }
        let input = if hidden == 0 {
            x
        } else {
            &scratch.act[hidden - 1]
        };
        self.layers[hidden].forward_into(input, out, None, exec)
    }

    /// Backward pass: takes `dL/d(output)`, writes `dL/d(input)` into `dx`
    /// (unless it is `None`: a bottom MLP's input gradient, which nothing
    /// consumes, is then not computed) and leaves per-layer gradients
    /// inside each [`Linear`]. `x` and
    /// `scratch` are the ones the forward pass of this step ran over:
    /// layer `i` borrows its input from them, and ReLU masks the running
    /// gradient by that same activation (`relu(z) > 0` exactly where
    /// `z > 0`, so no pre-activation is kept). A scratch no forward pass
    /// filled for this model at `dy`'s batch size is a [`ShapeError`],
    /// found before any gradient buffer is touched. With `lr` each layer
    /// also applies its SGD update once its backward is done (see
    /// [`Linear::backward_into`]), which nothing below it reads: the bits
    /// of this backward without `lr` and then [`Mlp::apply_update`]. With
    /// a multi-threaded `exec` the layers at or above the floor split
    /// their `dW` and `dX` over its pool, in claimed blocks of the weight
    /// or in bands of the batch (see [`Linear::backward_into`]); the bits
    /// are the same under every `exec`.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] if `x`, `scratch` and `dy` are not those
    /// of one pass through this model.
    pub fn backward_into(
        &mut self,
        x: &Matrix,
        scratch: &mut MlpInferenceScratch,
        dy: &Matrix,
        mut dx: Option<&mut Matrix>,
        lr: Option<f32>,
        exec: Exec<'_>,
    ) -> Result<(), ShapeError> {
        let n = self.layers.len();
        let batch = dy.rows();
        let MlpInferenceScratch { act, grad, .. } = scratch;
        // The top layer checks `dy` before it touches a buffer; what only
        // a lower layer would trip over is checked here.
        if x.shape() != (batch, self.input_dim()) {
            let expected = (batch, self.input_dim());
            return Err(ShapeError::new("mlp_backward_input", expected, x.shape()));
        }
        for (i, layer) in self.layers[..n - 1].iter().enumerate() {
            let expected = (batch, layer.out_dim());
            let found = act.get(i).map_or((0, 0), Matrix::shape);
            if found != expected {
                return Err(ShapeError::new("mlp_backward_scratch", expected, found));
            }
        }
        // The running gradient goes dy -> cur -> next -> cur -> ... -> dx.
        let [cur, next] = grad;
        let (mut cur, mut next) = (cur, next);
        for i in (0..n).rev() {
            let input = if i == 0 { x } else { &act[i - 1] };
            let grad = if i + 1 == n { dy } else { &*cur };
            let into = if i == 0 {
                dx.as_deref_mut()
            } else {
                Some(&mut *next)
            };
            self.layers[i].backward_into(input, grad, into, lr, exec)?;
            if i > 0 {
                relu_backward_in_place(next, &act[i - 1])?;
                std::mem::swap(&mut cur, &mut next);
            }
        }
        Ok(())
    }

    /// Applies cached gradients on every layer with SGD at rate `lr`.
    pub fn apply_update(&mut self, lr: f32) {
        for layer in &mut self.layers {
            layer.apply_update(lr);
        }
    }

    /// Approximate FLOP count for one forward pass at the given batch size
    /// (2 FLOPs per MAC). Used by the system-level cost model.
    pub fn forward_flops(&self, batch: usize) -> u64 {
        self.layers
            .iter()
            .map(|l| 2 * batch as u64 * l.in_dim() as u64 * l.out_dim() as u64)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{relu, relu_backward};
    use tcast_pool::Pool;

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|f| f.to_bits()).collect()
    }

    fn output(mlp: &Mlp, x: &Matrix) -> Matrix {
        let mut y = Matrix::default();
        mlp.forward_into(x, &mut MlpInferenceScratch::default(), &mut y, Exec::Serial)
            .unwrap();
        y
    }

    /// One SGD step composed from the unfused primitives, masking ReLU by
    /// the *pre*-activation: the second opinion on the fused epilogue and
    /// on the activation mask of [`Mlp::backward_into`]. Returns the
    /// output, `dx`, and every layer's updated `(weight, bias)`.
    fn reference_step(mlp: &Mlp, x: &Matrix, dy: &Matrix, lr: f32) -> Vec<Vec<u32>> {
        let n = mlp.depth();
        let (mut inputs, mut pre) = (vec![x.clone()], Vec::new());
        for (i, layer) in mlp.layers().iter().enumerate() {
            let mut z = inputs[i].matmul(layer.weight()).unwrap();
            z.add_row_vector(layer.bias()).unwrap();
            inputs.push(if i + 1 < n { relu(&z) } else { z.clone() });
            pre.push(z);
        }
        let mut out = vec![bits(inputs[n].as_slice())];
        let mut grad = dy.clone();
        let mut updated = Vec::new();
        for (i, layer) in mlp.layers().iter().enumerate().rev() {
            let mut weight = layer.weight().clone();
            let dw = inputs[i].matmul_at(&grad).unwrap();
            weight.add_scaled(&dw, -lr).unwrap();
            let db = grad.sum_rows();
            let bias: Vec<f32> = layer
                .bias()
                .iter()
                .zip(&db)
                .map(|(b, g)| b - lr * g)
                .collect();
            updated.push((bits(weight.as_slice()), bits(&bias)));
            grad = grad.matmul_bt(layer.weight()).unwrap();
            if i > 0 {
                grad = relu_backward(&grad, &pre[i - 1]).unwrap();
            }
        }
        out.push(bits(grad.as_slice()));
        for (weight, bias) in updated.into_iter().rev() {
            out.push(weight);
            out.push(bias);
        }
        out
    }

    #[test]
    fn rejects_empty_widths() {
        assert!(Mlp::new(4, &[], 0).is_err());
        assert!(Mlp::new(4, &[16, 0], 1).is_err());
    }

    #[test]
    fn shapes_flow_through() {
        let mlp = Mlp::new(8, &[16, 4, 2], 1).unwrap();
        assert_eq!(mlp.depth(), 3);
        assert_eq!(mlp.input_dim(), 8);
        assert_eq!(output(&mlp, &Matrix::zeros(5, 8)).shape(), (5, 2));
        let (mut scratch, mut y) = (MlpInferenceScratch::default(), Matrix::default());
        assert!(mlp
            .forward_into(&Matrix::zeros(5, 7), &mut scratch, &mut y, Exec::Serial)
            .is_err());
    }

    #[test]
    fn inference_into_handles_single_layer_stacks() {
        let mlp = Mlp::new(4, &[2], 3).unwrap();
        let x = Matrix::from_rows(&[&[0.1, -0.4, 0.7, 0.2]]).unwrap();
        let layer = &mlp.layers()[0];
        let mut expect = x.matmul(layer.weight()).unwrap();
        expect.add_row_vector(layer.bias()).unwrap();
        assert_eq!(output(&mlp, &x).as_slice(), expect.as_slice());
    }

    /// Everything one training step leaves behind, as bits; `dx` empty
    /// unless `with_dx`. The update runs inside the backward when
    /// `in_band`, after it otherwise.
    fn step_bits(
        mlp: &mut Mlp,
        x: &Matrix,
        dy: &Matrix,
        exec: Exec<'_>,
        with_dx: bool,
        in_band: bool,
    ) -> Vec<Vec<u32>> {
        let mut scratch = MlpInferenceScratch::default();
        let (mut y, mut dx) = (Matrix::default(), Matrix::default());
        mlp.forward_into(x, &mut scratch, &mut y, exec).unwrap();
        let into = if with_dx { Some(&mut dx) } else { None };
        let lr = 0.05;
        mlp.backward_into(x, &mut scratch, dy, into, in_band.then_some(lr), exec)
            .unwrap();
        if in_band {
            assert!(mlp.layers().iter().all(|l| l.grad_weight().is_none()));
        }
        mlp.apply_update(lr);
        let mut out = vec![bits(y.as_slice()), bits(dx.as_slice())];
        for layer in mlp.layers() {
            out.push(bits(layer.weight().as_slice()));
            out.push(bits(layer.bias()));
        }
        out
    }

    #[test]
    fn a_step_leaves_the_same_bits_under_every_exec() {
        // serial == lane (one worker, the caller the second pair of hands)
        // == pooled, with and without `dx`, with the update after the
        // backward or inside it, through forward, backward and update,
        // for stacks with layers on both sides of the split floor: a
        // `k = 13` first layer above it feeding an `n = 1` logit layer
        // below it at an odd batch; a square layer that reaches the floor
        // at one row, at batches of one and two (fewer rows than the pool
        // has bands); a 512x256 layer the backward cuts across the weight
        // at a batch of 33 (two 16-row blocks of the `zmm` `NT` kernel and
        // a ragged one); a 64x512 first layer it cuts across the batch; and
        // an all-small stack. The step composed from unfused
        // primitives, which masks ReLU by the pre-activation, agrees too.
        let lane = Pool::new(1);
        let pool = Pool::new(3);
        let cases: [(usize, &[usize], usize); 6] = [
            (13, &[2048, 1], 161),
            (8, &[2048, 2048, 1], 1),
            (8, &[2048, 2048, 1], 2),
            (13, &[512, 256, 1], 33),
            (64, &[512, 1], 160),
            (13, &[32, 16, 1], 37),
        ];
        for (input, widths, batch) in cases {
            let fresh = Mlp::new(input, widths, 5).unwrap();
            assert_eq!(fresh.splits_at(batch), widths[0] > 32);
            let mut rng = crate::init::SplitMix64::new(batch as u64);
            let mut random = |rows, cols| {
                let mut m = Matrix::zeros(rows, cols);
                m.as_mut_slice()
                    .iter_mut()
                    .for_each(|v| *v = rng.next_range(-1.0, 1.0));
                m
            };
            let (x, dy) = (random(batch, input), random(batch, 1));

            let serial = step_bits(&mut fresh.clone(), &x, &dy, Exec::Serial, true, false);
            let execs = [
                Exec::Serial,
                Exec::Pooled {
                    pool: &lane,
                    threads: 2,
                },
                Exec::pooled(&pool),
            ];
            for exec in execs {
                let split = step_bits(&mut fresh.clone(), &x, &dy, exec, true, false);
                assert!(split == serial, "{widths:?} x {batch} under {exec:?}");
                // Without `dx` the first layer runs `dW` alone: the same
                // weight bits.
                let mut no_dx = step_bits(&mut fresh.clone(), &x, &dy, exec, false, false);
                assert!(no_dx[1].is_empty(), "{widths:?} x {batch}: dx written");
                no_dx[1].clone_from(&serial[1]);
                assert!(no_dx == serial, "{widths:?} x {batch} without dx, {exec:?}");
                let in_band = step_bits(&mut fresh.clone(), &x, &dy, exec, true, true);
                assert!(in_band == serial, "{widths:?} x {batch} in band, {exec:?}");
            }
            let reference = reference_step(&fresh, &x, &dy, 0.05);
            assert!(reference == serial, "{widths:?} x {batch} vs the reference");
        }
    }

    #[test]
    fn each_backward_wants_its_own_forward() {
        // A scratch no forward pass filled, one filled at another batch
        // size, or an `x` that is not the forward's: a shape error, never a
        // stale read — and found before any layer gave up the gradient
        // buffers its last update retired.
        let mut mlp = Mlp::new(3, &[4, 4, 1], 1).unwrap();
        let x = Matrix::filled(2, 3, 0.5);
        let dy = Matrix::filled(2, 1, 1.0);
        let (mut y, mut dx) = (Matrix::default(), Matrix::default());
        let mut scratch = MlpInferenceScratch::default();
        mlp.forward_into(&x, &mut scratch, &mut y, Exec::Serial)
            .unwrap();
        mlp.backward_into(&x, &mut scratch, &dy, Some(&mut dx), None, Exec::Serial)
            .unwrap();
        let buffers = |mlp: &Mlp| -> Vec<*const f32> {
            let grads = mlp.layers().iter();
            grads
                .map(|l| l.grad_weight().unwrap().as_slice().as_ptr())
                .collect()
        };
        let first = buffers(&mlp);
        mlp.apply_update(0.1);

        let x3 = Matrix::filled(3, 3, 0.5);
        let mut other_batch = MlpInferenceScratch::default();
        mlp.forward_into(&x3, &mut other_batch, &mut y, Exec::Serial)
            .unwrap();
        let mut scratches = [MlpInferenceScratch::default(), other_batch, scratch];
        let (short_dy, wide_dy) = (Matrix::zeros(3, 1), Matrix::zeros(2, 2));
        for (bad_x, which, bad_dy) in [
            (&x, 0, &dy),  // a scratch no forward filled
            (&x, 1, &dy),  // one filled at another batch size
            (&x3, 2, &dy), // the right scratch, another batch's input
            (&x, 2, &short_dy),
            (&x, 2, &wide_dy),
        ] {
            let scratch = &mut scratches[which];
            assert!(mlp
                .backward_into(bad_x, scratch, bad_dy, Some(&mut dx), None, Exec::Serial)
                .is_err());
            assert!(mlp.layers().iter().all(|l| l.grad_weight().is_none()));
        }
        let scratch = &mut scratches[2];
        mlp.backward_into(&x, scratch, &dy, Some(&mut dx), None, Exec::Serial)
            .unwrap();
        assert_eq!(buffers(&mlp), first);
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let mut mlp = Mlp::new(3, &[5, 1], 12).unwrap();
        let x = Matrix::from_rows(&[&[0.4, -0.2, 0.9], &[-0.5, 0.3, 0.1]]).unwrap();
        let mut scratch = MlpInferenceScratch::default();
        let (mut y, mut dx) = (Matrix::default(), Matrix::default());
        mlp.forward_into(&x, &mut scratch, &mut y, Exec::Serial)
            .unwrap();
        let dy = Matrix::filled(y.rows(), y.cols(), 1.0);
        mlp.backward_into(&x, &mut scratch, &dy, Some(&mut dx), None, Exec::Serial)
            .unwrap();

        let eps = 1e-2f32;
        for r in 0..2 {
            for c in 0..3 {
                let mut xp = x.clone();
                xp[(r, c)] += eps;
                let mut xm = x.clone();
                xm[(r, c)] -= eps;
                let num = (output(&mlp, &xp).sum() - output(&mlp, &xm).sum()) / (2.0 * eps);
                assert!(
                    (dx[(r, c)] - num).abs() < 2e-2,
                    "dX[{r}][{c}] analytic {} vs numeric {num}",
                    dx[(r, c)]
                );
            }
        }
    }

    #[test]
    fn training_reduces_loss_on_regression_task() {
        // Fit y = sum(x) with a small MLP; the mean squared error should
        // drop sharply.
        let mut mlp = Mlp::new(4, &[16, 1], 77).unwrap();
        let mut rng = crate::init::SplitMix64::new(5);
        let mut scratch = MlpInferenceScratch::default();
        let (mut y, mut dx) = (Matrix::default(), Matrix::default());
        let mut first_loss = None;
        let mut last_loss = 0.0;
        for _ in 0..300 {
            let mut x = Matrix::zeros(16, 4);
            for v in x.as_mut_slice() {
                *v = rng.next_range(-1.0, 1.0);
            }
            mlp.forward_into(&x, &mut scratch, &mut y, Exec::Serial)
                .unwrap();
            let n = y.len() as f32;
            let (mut loss, mut dy) = (0.0, Matrix::zeros(16, 1));
            for b in 0..16 {
                let err = y[(b, 0)] - x.row(b).iter().sum::<f32>();
                loss += err * err / n;
                dy[(b, 0)] = 2.0 * err / n;
            }
            mlp.backward_into(&x, &mut scratch, &dy, Some(&mut dx), None, Exec::Serial)
                .unwrap();
            mlp.apply_update(0.05);
            if first_loss.is_none() {
                first_loss = Some(loss);
            }
            last_loss = loss;
        }
        assert!(
            last_loss < first_loss.unwrap() * 0.2,
            "loss did not drop: {first_loss:?} -> {last_loss}"
        );
    }

    #[test]
    fn flops_formula() {
        let mlp = Mlp::new(10, &[20, 5], 0).unwrap();
        // 2*(10*20 + 20*5) per sample.
        assert_eq!(mlp.forward_flops(1), 2 * (200 + 100));
        assert_eq!(mlp.forward_flops(8), 8 * 2 * 300);
    }
}
