//! Multi-layer perceptron: the "bottom" and "top" DNN of a DLRM model.

use crate::error::ShapeError;
use crate::linear::Linear;
use crate::matrix::Matrix;
use crate::ops::{relu, relu_backward, relu_backward_in_place};
use tcast_pool::Exec;

/// Hidden-layer activation for [`Mlp`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Activation {
    /// Rectified linear unit (DLRM's default).
    #[default]
    Relu,
    /// No activation (purely linear stack).
    Identity,
}

/// Caller-owned reusable buffers for [`Mlp::forward_inference_into`]:
/// one pre-activation buffer shared by every layer plus one
/// post-activation buffer per hidden layer (sized lazily on first use).
/// Keeping these outside the [`Mlp`] lets a `&self` model serve many
/// engines, each with its own scratch.
#[derive(Debug, Default)]
pub struct MlpInferenceScratch {
    pre: Matrix,
    act: Vec<Matrix>,
}

/// A stack of [`Linear`] layers with a shared hidden activation.
///
/// The final layer is always linear (no activation): DLRM applies the
/// sigmoid inside the loss ([`crate::bce_with_logits`]) for numerical
/// stability, matching standard practice.
///
/// Layer sizes follow the paper's notation: the Table II entry
/// "256-128-64" for a bottom MLP is expressed as
/// `Mlp::new(input_dim, &[256, 128, 64], ...)`.
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Linear>,
    activation: Activation,
    // Pre-activation outputs of each hidden layer, saved for backprop.
    cached_pre_activations: Vec<Matrix>,
    // Reusable buffers for the zero-allocation step path: a copy of the
    // input and the post-activation output of each hidden layer — the `x`
    // every layer's backward borrows — and two ping-pong gradient buffers.
    step_input: Matrix,
    step_hidden: Vec<Matrix>,
    step_grad: [Matrix; 2],
    // Which forward ran last: `forward_into` (the step buffers above are
    // current) or `forward` (the layers' own input caches are).
    stepped: bool,
}

impl Mlp {
    /// Creates an MLP mapping `input_dim` to `widths.last()` through the
    /// given hidden widths.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] if `widths` is empty.
    pub fn new(
        input_dim: usize,
        widths: &[usize],
        activation: Activation,
        seed: u64,
    ) -> Result<Self, ShapeError> {
        if widths.is_empty() {
            return Err(ShapeError::new("mlp_new", (input_dim, 0), (0, 0)));
        }
        let mut layers = Vec::with_capacity(widths.len());
        let mut in_dim = input_dim;
        for (i, &w) in widths.iter().enumerate() {
            layers.push(Linear::new(in_dim, w, seed.wrapping_add(i as u64 * 7919)));
            in_dim = w;
        }
        Ok(Self {
            layers,
            activation,
            cached_pre_activations: Vec::new(),
            step_input: Matrix::default(),
            step_hidden: Vec::new(),
            step_grad: [Matrix::default(), Matrix::default()],
            stepped: false,
        })
    }

    /// Input dimensionality.
    pub fn input_dim(&self) -> usize {
        self.layers[0].in_dim()
    }

    /// Output dimensionality.
    pub fn output_dim(&self) -> usize {
        self.layers.last().expect("mlp has >= 1 layer").out_dim()
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

    /// Forward pass over a `batch x input_dim` matrix, caching
    /// pre-activations for [`Mlp::backward`].
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] on input-dimension mismatch.
    pub fn forward(&mut self, x: &Matrix) -> Result<Matrix, ShapeError> {
        self.stepped = false;
        self.cached_pre_activations.clear();
        let mut h = x.clone();
        let n = self.layers.len();
        for (i, layer) in self.layers.iter_mut().enumerate() {
            let z = layer.forward(&h)?;
            if i + 1 < n {
                h = match self.activation {
                    Activation::Relu => relu(&z),
                    Activation::Identity => z.clone(),
                };
                self.cached_pre_activations.push(z);
            } else {
                h = z;
            }
        }
        Ok(h)
    }

    /// Whether any layer's products at `batch` rows reach the
    /// multiply-add floor above which a multi-threaded [`Exec`] splits
    /// them (see [`Linear::splits_at`]).
    pub fn splits_at(&self, batch: usize) -> bool {
        self.layers.iter().any(|layer| layer.splits_at(batch))
    }

    /// [`Mlp::forward`] writing into `out` and reusing every intermediate
    /// buffer (pre-activations, hidden activations, a copy of `x`): the
    /// zero-allocation steady-state form, to be followed by
    /// [`Mlp::backward_into`]. The layers cache nothing; each one's
    /// backward borrows its input from these buffers. With a
    /// multi-threaded `exec` the layers at or above the floor split their
    /// GEMMs on its pool. Bit-identical to [`Mlp::forward`].
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] on input-dimension mismatch.
    pub fn forward_into(
        &mut self,
        x: &Matrix,
        out: &mut Matrix,
        exec: Exec<'_>,
    ) -> Result<(), ShapeError> {
        let n = self.layers.len();
        let hidden = n - 1;
        self.stepped = false;
        // Lazily size the per-hidden-layer buffers (first call only).
        self.cached_pre_activations
            .resize_with(hidden, Matrix::default);
        self.step_hidden.resize_with(hidden, Matrix::default);
        self.step_input.copy_from(x);

        let Self {
            layers,
            activation,
            cached_pre_activations,
            step_hidden,
            ..
        } = self;
        for i in 0..hidden {
            // Split the buffer list so the previous layer's (immutable)
            // output and this layer's (mutable) output never alias.
            let (before, at) = step_hidden.split_at_mut(i);
            let input = if i == 0 { x } else { &before[i - 1] };
            let z = &mut cached_pre_activations[i];
            match activation {
                Activation::Relu => {
                    layers[i].forward_inference_into(input, z, Some(&mut at[0]), exec)?
                }
                Activation::Identity => {
                    layers[i].forward_inference_into(input, z, None, exec)?;
                    at[0].copy_from(z);
                }
            }
        }
        let input = if hidden == 0 {
            x
        } else {
            &step_hidden[hidden - 1]
        };
        layers[hidden].forward_inference_into(input, out, None, exec)?;
        self.stepped = true;
        Ok(())
    }

    /// Inference-only forward pass writing into `out` through
    /// caller-owned scratch — the zero-allocation serving form. Takes
    /// `&self` and mutates no model state (unlike [`Mlp::forward_into`],
    /// which keeps activations for backprop), so one frozen model
    /// can be scored concurrently with checkpointing, and the serve
    /// engine's scratch lives with the engine, not the model.
    /// Bit-identical to [`Mlp::forward`], [`Mlp::forward_into`] and
    /// [`Mlp::forward_inference`].
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] on input-dimension mismatch.
    pub fn forward_inference_into(
        &self,
        x: &Matrix,
        scratch: &mut MlpInferenceScratch,
        out: &mut Matrix,
        exec: Exec<'_>,
    ) -> Result<(), ShapeError> {
        let n = self.layers.len();
        let hidden = n - 1;
        scratch.act.resize_with(hidden, Matrix::default);
        for i in 0..hidden {
            // Split so the previous layer's (immutable) activation and
            // this layer's (mutable) buffer never alias.
            let (before, at) = scratch.act.split_at_mut(i);
            let input = if i == 0 { x } else { &before[i - 1] };
            let layer = &self.layers[i];
            match self.activation {
                Activation::Relu => {
                    layer.forward_inference_into(input, &mut scratch.pre, Some(&mut at[0]), exec)?
                }
                Activation::Identity => {
                    layer.forward_inference_into(input, &mut at[0], None, exec)?
                }
            }
        }
        let input = if hidden == 0 {
            x
        } else {
            &scratch.act[hidden - 1]
        };
        self.layers[hidden].forward_inference_into(input, out, None, exec)
    }

    /// Inference-only forward pass (no caching, `&self`).
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] on input-dimension mismatch.
    pub fn forward_inference(&self, x: &Matrix) -> Result<Matrix, ShapeError> {
        let mut h = x.clone();
        let n = self.layers.len();
        for (i, layer) in self.layers.iter().enumerate() {
            let z = layer.forward_inference(&h)?;
            h = if i + 1 < n {
                match self.activation {
                    Activation::Relu => relu(&z),
                    Activation::Identity => z,
                }
            } else {
                z
            };
        }
        Ok(h)
    }

    /// Backward pass. Takes `dL/d(output)` and returns `dL/d(input)`,
    /// leaving per-layer gradients cached inside each [`Linear`].
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] unless [`Mlp::forward`] was the last
    /// forward pass.
    pub fn backward(&mut self, dy: &Matrix) -> Result<Matrix, ShapeError> {
        if self.stepped {
            return Err(no_matching_forward(dy));
        }
        let n = self.layers.len();
        let mut grad = dy.clone();
        for i in (0..n).rev() {
            grad = self.layers[i].backward(&grad)?;
            if i > 0 {
                let z = &self.cached_pre_activations[i - 1];
                grad = match self.activation {
                    Activation::Relu => relu_backward(&grad, z)?,
                    Activation::Identity => grad,
                };
            }
        }
        Ok(grad)
    }

    /// [`Mlp::backward`] for the step path: writes `dL/d(input)` into
    /// `dx`, reuses the two internal ping-pong gradient buffers, and lends
    /// each layer the input [`Mlp::forward_into`] kept for it.
    /// Bit-identical to [`Mlp::backward`]; with a multi-threaded `exec`
    /// the layers at or above the floor run `dW` beside `dX` on its pool.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] unless [`Mlp::forward_into`] was the last
    /// forward pass, or if `dy` disagrees with its output.
    pub fn backward_into(
        &mut self,
        dy: &Matrix,
        dx: &mut Matrix,
        exec: Exec<'_>,
    ) -> Result<(), ShapeError> {
        if !self.stepped {
            return Err(no_matching_forward(dy));
        }
        let n = self.layers.len();
        let Self {
            layers,
            activation,
            cached_pre_activations,
            step_input,
            step_hidden,
            step_grad,
            ..
        } = self;
        // The running gradient goes dy -> cur -> next -> cur -> ... -> dx.
        let [cur, next] = step_grad;
        let (mut cur, mut next) = (cur, next);
        for i in (0..n).rev() {
            let x = if i == 0 {
                &*step_input
            } else {
                &step_hidden[i - 1]
            };
            let grad = if i + 1 == n { dy } else { &*cur };
            let into = if i == 0 { &mut *dx } else { &mut *next };
            layers[i].backward_into(x, grad, into, exec)?;
            if i > 0 {
                if let Activation::Relu = activation {
                    relu_backward_in_place(next, &cached_pre_activations[i - 1])?;
                }
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

/// The error of a backward pass whose own kind of forward pass did not
/// run last.
fn no_matching_forward(dy: &Matrix) -> ShapeError {
    ShapeError::new("backward_without_forward", (0, 0), dy.shape())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcast_pool::Pool;

    #[test]
    fn rejects_empty_widths() {
        assert!(Mlp::new(4, &[], Activation::Relu, 0).is_err());
    }

    #[test]
    fn shapes_flow_through() {
        let mut mlp = Mlp::new(8, &[16, 4, 2], Activation::Relu, 1).unwrap();
        assert_eq!(mlp.depth(), 3);
        assert_eq!(mlp.input_dim(), 8);
        assert_eq!(mlp.output_dim(), 2);
        let y = mlp.forward(&Matrix::zeros(5, 8)).unwrap();
        assert_eq!(y.shape(), (5, 2));
    }

    #[test]
    fn forward_and_inference_agree() {
        let mut mlp = Mlp::new(6, &[12, 3], Activation::Relu, 9).unwrap();
        let mut x = Matrix::zeros(4, 6);
        for (i, v) in x.as_mut_slice().iter_mut().enumerate() {
            *v = (i as f32 * 0.13).sin();
        }
        let y1 = mlp.forward(&x).unwrap();
        let y2 = mlp.forward_inference(&x).unwrap();
        assert!(y1.max_abs_diff(&y2).unwrap() < 1e-6);
    }

    #[test]
    fn inference_into_is_bit_identical_to_every_forward_form() {
        let mut mlp = Mlp::new(6, &[12, 7, 1], Activation::Relu, 31).unwrap();
        let mut x = Matrix::zeros(5, 6);
        for (i, v) in x.as_mut_slice().iter_mut().enumerate() {
            *v = (i as f32 * 0.29).cos();
        }
        let trained = mlp.forward(&x).unwrap();
        let alloc = mlp.forward_inference(&x).unwrap();
        let mut scratch = MlpInferenceScratch::default();
        let mut out = Matrix::default();
        // Twice: the second pass runs entirely through recycled buffers.
        for _ in 0..2 {
            mlp.forward_inference_into(&x, &mut scratch, &mut out, Exec::Serial)
                .unwrap();
            assert_eq!(out.as_slice(), trained.as_slice());
            assert_eq!(out.as_slice(), alloc.as_slice());
        }
    }

    #[test]
    fn inference_into_handles_single_layer_stacks() {
        let mlp = Mlp::new(4, &[2], Activation::Relu, 3).unwrap();
        let x = Matrix::from_rows(&[&[0.1, -0.4, 0.7, 0.2]]).unwrap();
        let mut scratch = MlpInferenceScratch::default();
        let mut out = Matrix::default();
        mlp.forward_inference_into(&x, &mut scratch, &mut out, Exec::Serial)
            .unwrap();
        let expect = mlp.forward_inference(&x).unwrap();
        assert_eq!(out.as_slice(), expect.as_slice());
    }

    /// Everything one training step leaves behind, as bits.
    fn step_bits(mlp: &mut Mlp, x: &Matrix, dy: &Matrix, exec: Exec<'_>) -> Vec<Vec<u32>> {
        let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<u32>>();
        let (mut y, mut dx) = (Matrix::default(), Matrix::default());
        mlp.forward_into(x, &mut y, exec).unwrap();
        mlp.backward_into(dy, &mut dx, exec).unwrap();
        mlp.apply_update(0.05);
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
        // == pooled, through forward, backward and update, for stacks with
        // layers on both sides of the split floor: a `k = 13` first layer
        // above it feeding an `n = 1` logit layer below it at an odd batch;
        // a square layer that reaches the floor at one row, at batches of
        // one and two (fewer rows than the pool has bands); and an
        // all-small stack. The allocating reference path agrees too.
        let lane = Pool::new(1);
        let pool = Pool::new(3);
        let cases: [(usize, &[usize], usize); 4] = [
            (13, &[2048, 1], 161),
            (8, &[2048, 2048, 1], 1),
            (8, &[2048, 2048, 1], 2),
            (13, &[32, 16, 1], 37),
        ];
        for (input, widths, batch) in cases {
            let fresh = Mlp::new(input, widths, Activation::Relu, 5).unwrap();
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

            let mut reference = fresh.clone();
            reference.forward(&x).unwrap();
            reference.backward(&dy).unwrap();
            reference.apply_update(0.05);

            let serial = step_bits(&mut fresh.clone(), &x, &dy, Exec::Serial);
            let execs = [
                Exec::Pooled {
                    pool: &lane,
                    threads: 2,
                },
                Exec::pooled(&pool),
            ];
            for exec in execs {
                let split = step_bits(&mut fresh.clone(), &x, &dy, exec);
                assert!(split == serial, "{widths:?} x {batch} under {exec:?}");
            }
            for (layer, pair) in reference.layers().iter().zip(serial[2..].chunks(2)) {
                let weight: Vec<u32> = layer
                    .weight()
                    .as_slice()
                    .iter()
                    .map(|f| f.to_bits())
                    .collect();
                assert!(weight == pair[0], "{widths:?} x {batch} vs the reference");
            }
        }
    }

    #[test]
    fn each_backward_wants_its_own_forward() {
        let mut mlp = Mlp::new(3, &[4, 1], Activation::Relu, 1).unwrap();
        let x = Matrix::filled(2, 3, 0.5);
        let dy = Matrix::filled(2, 1, 1.0);
        let (mut y, mut dx) = (Matrix::default(), Matrix::default());
        assert!(mlp.backward_into(&dy, &mut dx, Exec::Serial).is_err());
        mlp.forward(&x).unwrap();
        assert!(mlp.backward_into(&dy, &mut dx, Exec::Serial).is_err());
        mlp.backward(&dy).unwrap();
        mlp.forward_into(&x, &mut y, Exec::Serial).unwrap();
        assert!(mlp.backward(&dy).is_err());
        mlp.backward_into(&dy, &mut dx, Exec::Serial).unwrap();
        // A `dy` that disagrees with the forward's batch is a shape error.
        assert!(mlp
            .backward_into(&Matrix::zeros(3, 1), &mut dx, Exec::Serial)
            .is_err());
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let mut mlp = Mlp::new(3, &[5, 1], Activation::Relu, 12).unwrap();
        let x = Matrix::from_rows(&[&[0.4, -0.2, 0.9], &[-0.5, 0.3, 0.1]]).unwrap();
        let y = mlp.forward(&x).unwrap();
        let dy = Matrix::filled(y.rows(), y.cols(), 1.0);
        let dx = mlp.backward(&dy).unwrap();

        let eps = 1e-2f32;
        for r in 0..2 {
            for c in 0..3 {
                let mut xp = x.clone();
                xp[(r, c)] += eps;
                let mut xm = x.clone();
                xm[(r, c)] -= eps;
                let num = (mlp.forward_inference(&xp).unwrap().sum()
                    - mlp.forward_inference(&xm).unwrap().sum())
                    / (2.0 * eps);
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
        // Fit y = sum(x) with a small MLP; MSE should drop sharply.
        let mut mlp = Mlp::new(4, &[16, 1], Activation::Relu, 77).unwrap();
        let mut rng = crate::init::SplitMix64::new(5);
        let mut first_loss = None;
        let mut last_loss = 0.0;
        for _ in 0..300 {
            let mut x = Matrix::zeros(16, 4);
            for v in x.as_mut_slice() {
                *v = rng.next_range(-1.0, 1.0);
            }
            let target: Vec<f32> = x.rows_iter().map(|r| r.iter().sum()).collect();
            let t = Matrix::from_vec(16, 1, target).unwrap();
            let y = mlp.forward(&x).unwrap();
            let (loss, dy) = crate::loss::mse_with_grad(&y, &t).unwrap();
            mlp.backward(&dy).unwrap();
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
    fn identity_activation_is_linear() {
        let mlp = Mlp::new(2, &[2, 2], Activation::Identity, 4).unwrap();
        let x1 = Matrix::from_rows(&[&[1.0, 0.0]]).unwrap();
        let x2 = Matrix::from_rows(&[&[0.0, 1.0]]).unwrap();
        let sum = Matrix::from_rows(&[&[1.0, 1.0]]).unwrap();
        let y1 = mlp.forward_inference(&x1).unwrap();
        let y2 = mlp.forward_inference(&x2).unwrap();
        let ysum = mlp.forward_inference(&sum).unwrap();
        // Linearity up to the (shared) bias: f(a+b) = f(a) + f(b) - f(0).
        let y0 = mlp.forward_inference(&Matrix::zeros(1, 2)).unwrap();
        let expect = y1.add(&y2).unwrap().sub(&y0).unwrap();
        assert!(ysum.max_abs_diff(&expect).unwrap() < 1e-5);
    }

    #[test]
    fn flops_formula() {
        let mlp = Mlp::new(10, &[20, 5], Activation::Relu, 0).unwrap();
        // 2*(10*20 + 20*5) per sample.
        assert_eq!(mlp.forward_flops(1), 2 * (200 + 100));
        assert_eq!(mlp.forward_flops(8), 8 * 2 * 300);
    }
}
