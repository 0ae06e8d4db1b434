//! **Tensor Casting** — the paper's primary contribution.
//!
//! The baseline backward pass of an embedding layer is the two-step
//! *gradient expand-coalesce* (Algorithm 1 in the paper, implemented in
//! `tcast-embedding`): expand the `B x D` backpropagated gradients into an
//! `n x D` intermediate, sort by `src`, then accumulate duplicates. The
//! paper's key observation is that coalescing *is* a reduction: if the
//! backpropagated gradients are viewed as a "gradient table" of `B` rows,
//! expand-coalesce is exactly a **tensor gather-reduce over that table** —
//! the same primitive as forward propagation.
//!
//! This crate implements:
//!
//! * [`tensor_casting`] — **Algorithm 2**: transform the original
//!   `(src, dst)` index array into the casted `(casted_src, casted_dst)`
//!   pair via sort-by-key → adjacent-difference scan → cumulative sum
//!   (Fig. 8), in linear time ([`tensor_casting_into`] into recycled
//!   buffers);
//! * [`casted_gather_reduce`] — **Algorithm 3**: the fused backward
//!   kernel that gathers gradient rows by `casted_src` and reduces them
//!   into coalesced rows by `casted_dst`, with no `n x D` intermediate and
//!   no sort on the critical path;
//! * [`CastingPipeline`] — the software runtime of Section IV-B: casting
//!   depends only on the index array, which is known *before* forward
//!   propagation, so a pipeline worker (the paper uses the otherwise-idle
//!   GPU) precomputes casted arrays concurrently with the forward pass and
//!   backward consumes them for free.
//!
//! # Functional equivalence
//!
//! `casted_gather_reduce(tensor_casting(idx), grads)` produces bit-for-bit
//! the gradients of `gradient_expand_coalesce(grads, idx)` (both reduce in
//! ascending-`src`, original-pair order) — see [`verify_equivalence`] and
//! the property tests. This mirrors the paper's own validation: "We
//! thoroughly validate the functional equivalence between the baseline
//! gradient expand-coalesce primitive and our proposed tensor casted
//! gradient gather-reduce operator."
//!
//! # Example
//!
//! ```
//! use tcast_core::{tensor_casting, casted_gather_reduce};
//! use tcast_embedding::IndexArray;
//! use tcast_tensor::Matrix;
//!
//! # fn main() -> Result<(), tcast_embedding::EmbeddingError> {
//! // Fig. 2/7/8 running example.
//! let index = IndexArray::from_samples(&[vec![1, 2, 4], vec![0, 2]])?;
//! let casted = tensor_casting(&index);
//! assert_eq!(casted.gather_src(), &[1, 0, 0, 1, 0]);
//! assert_eq!(casted.reduce_dst(), &[0, 1, 2, 2, 3]);
//!
//! let grads = Matrix::from_rows(&[&[1.0], &[2.0]]).unwrap(); // G[0], G[1]
//! let coalesced = casted_gather_reduce(&grads, &casted)?;
//! assert_eq!(coalesced.rows(), &[0, 1, 2, 4]);
//! assert_eq!(coalesced.grads().row(2), &[3.0]); // G[0]+G[1] for E[2]
//! # Ok(())
//! # }
//! ```

mod cache;
mod casted_forward;
mod casted_index;
mod casting;
mod equivalence;
mod fault;
mod fused;
mod gather_reduce;
mod runtime;

pub use cache::CastingCache;
pub use casted_forward::{casted_embedding_forward, casted_embedding_forward_into};
pub use casted_index::CastedIndexArray;
pub use casting::{tensor_casting, tensor_casting_into};
pub use equivalence::verify_equivalence;
pub use fault::{FaultPlan, FaultyWrite};
pub use fused::blocked_casted_backward;
pub use gather_reduce::{casted_backward, casted_gather_reduce, casted_gather_reduce_into};
pub use runtime::{CastingPipeline, JobTicket, PipelineStats};
