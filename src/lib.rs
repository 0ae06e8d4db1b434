//! # tensor-casting
//!
//! A from-scratch Rust reproduction of **"Tensor Casting: Co-Designing
//! Algorithm-Architecture for Personalized Recommendation Training"**
//! (Kwon, Lee, Rhu — HPCA 2021, arXiv:2010.13100).
//!
//! This facade crate re-exports the whole workspace. The subsystems:
//!
//! * [`core`] (`tcast-core`) — the paper's contribution: the Tensor
//!   Casting index transformation (Algorithm 2), the fused casted
//!   gradient gather-reduce (Algorithm 3), and the accounting of the
//!   Section IV-B runtime that casts ahead, beside other work.
//! * [`embedding`] (`tcast-embedding`) — embedding tables and the
//!   baseline primitives: fused gather-reduce, gradient expand, gradient
//!   coalesce (Algorithm 1), gradient scatter and sparse optimizers.
//! * [`tensor`] (`tcast-tensor`) — the dense MLP substrate (matrices,
//!   GEMM, losses, DLRM feature interaction).
//! * [`datasets`] (`tcast-datasets`) — popularity models of the paper's
//!   four datasets, synthetic CTR data, batch sources.
//! * [`dlrm`] (`tcast-dlrm`) — end-to-end DLRM training on the real
//!   kernels with switchable baseline/casted backward.
//! * [`serve`] (`tcast-serve`) — SLA-aware batched inference serving:
//!   query workload models, admission-queue batching policies, the
//!   zero-alloc fused scoring engine with a casting-cache hot path, the
//!   online-training mode, and true concurrent train-and-serve.
//! * [`snapshot`] (`tcast-snapshot`) — epoch-versioned model snapshot
//!   publication: the trainer publishes immutable, recycled-buffer
//!   snapshots every K steps; serve engines resolve consistent versions
//!   with bounded staleness, hot swap and rollback.
//!
//! See `examples/` for runnable entry points. The paper's hardware half —
//! the DDR4 simulator, the rank-NMP tensor pool and the system model
//! behind its tables and figures — lives under `repro/`, which depends on
//! these crates; they never depend on it, and this facade does not
//! re-export it.
//!
//! ```
//! use tensor_casting::core::{tensor_casting, casted_gather_reduce};
//! use tensor_casting::embedding::{IndexArray, gradient_expand_coalesce};
//! use tensor_casting::tensor::Matrix;
//!
//! // The paper's running example (Figs. 2, 7, 8).
//! let index = IndexArray::from_samples(&[vec![1, 2, 4], vec![0, 2]]).unwrap();
//! let grads = Matrix::from_rows(&[&[1.0], &[2.0]]).unwrap();
//! let baseline = gradient_expand_coalesce(&grads, &index).unwrap();
//! let casted = casted_gather_reduce(&grads, &tensor_casting(&index)).unwrap();
//! // The same unique rows and the same gradients.
//! assert_eq!(baseline, casted);
//! ```

pub use tcast_core as core;
pub use tcast_datasets as datasets;
pub use tcast_dlrm as dlrm;
pub use tcast_embedding as embedding;
pub use tcast_serve as serve;
pub use tcast_snapshot as snapshot;
pub use tcast_tensor as tensor;
