//! Dense tensor and MLP training substrate for the Tensor Casting
//! reproduction.
//!
//! DLRM-style recommendation models combine *sparse* embedding layers with
//! *dense* multi-layer perceptrons (bottom MLP over continuous features, top
//! MLP over the feature-interaction output; see Fig. 1 of the paper). The
//! paper runs the dense side on a GPU through cuDNN/cuBLAS; this crate is the
//! from-scratch Rust substitute: a row-major [`Matrix`] with a register-tiled GEMM,
//! differentiable [`Linear`]/[`Mlp`] layers (ReLU hidden layers), the
//! binary-cross-entropy loss and DLRM's dot feature interaction — the one
//! dense stack every model here runs.
//!
//! Every layer has **one** forward and **one** backward. The forward takes
//! `&self` and writes into buffers the caller owns, so training and
//! serving run the same function over one shared model; the backward is
//! handed the activations that forward left with the caller. Layers own
//! parameters and pending gradients, never an activation.
//!
//! Everything is `f32`, matching the paper's training precision.
//!
//! # Example
//!
//! ```
//! use tcast_tensor::{Exec, Matrix, Mlp, MlpInferenceScratch};
//!
//! # fn main() -> Result<(), tcast_tensor::ShapeError> {
//! // A 2-layer MLP: 8 -> 16 -> 1, ReLU hidden, linear output.
//! let mut mlp = Mlp::new(8, &[16, 1], 42)?;
//! let x = Matrix::zeros(4, 8); // batch of 4
//! let (mut scratch, mut y) = (MlpInferenceScratch::default(), Matrix::default());
//! mlp.forward_into(&x, &mut scratch, &mut y, Exec::Serial)?;
//! assert_eq!((y.rows(), y.cols()), (4, 1));
//!
//! // One SGD step: the backward borrows `x` and the scratch back, then
//! // the update applies the gradients it left in the layers.
//! let (dy, mut dx) = (Matrix::filled(4, 1, 0.25), Matrix::default());
//! mlp.backward_into(&x, &mut scratch, &dy, Some(&mut dx), None, Exec::Serial)?;
//! mlp.apply_update(0.05);
//!
//! // Or the update inside the backward, at rate 0.05: the same bits.
//! mlp.forward_into(&x, &mut scratch, &mut y, Exec::Serial)?;
//! mlp.backward_into(&x, &mut scratch, &dy, Some(&mut dx), Some(0.05), Exec::Serial)?;
//! # Ok(())
//! # }
//! ```

mod error;
mod init;
mod interaction;
mod linear;
mod loss;
mod matrix;
mod mlp;
mod ops;
mod parallel;
pub mod simd;
mod strided;

pub use error::ShapeError;
pub use init::{xavier_uniform, SplitMix64};
pub use interaction::{interaction_output_dim, FeatureInteraction};
pub use linear::Linear;
pub use loss::{bce_with_logits, bce_with_logits_backward_into};
pub use matrix::Matrix;
pub use mlp::{Mlp, MlpInferenceScratch};
pub use ops::{relu, relu_backward, relu_backward_in_place};
pub use simd::KernelDispatch;
pub use tcast_pool::{Exec, Pool};
