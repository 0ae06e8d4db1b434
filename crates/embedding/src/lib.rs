//! Embedding tables and the *baseline* training primitives of
//! recommendation models, exactly as characterized in Section II-B / III of
//! the Tensor Casting paper:
//!
//! * **tensor gather-reduce** (forward propagation, Fig. 2a) — fused lookup
//!   and reduction of embedding rows, driven by a `(src, dst)`
//!   [`IndexArray`];
//! * **gradient expand** (backward, Fig. 2b step 1) — the dual of reduce;
//! * **gradient coalesce** (backward, Fig. 2b step 2, Algorithm 1) —
//!   argsort the `src` indices, then accumulate gradients that share a
//!   `src`. The argsort is [`radix_sort_pairs`], the stable linear-time
//!   sort the casted path's Algorithm 2 runs too;
//! * **gradient scatter** (backward, Fig. 2b step 3) — apply the coalesced
//!   gradients to the table through the sparse row optimizer: an
//!   [`optim::UpdateRule`] (SGD / momentum / Adagrad Eq. 2 / RMSprop
//!   Eq. 1 / Adam) and the per-row state it builds up, one
//!   [`optim::RowOptimizer`] per table.
//!
//! # One implementation per primitive
//!
//! Each primitive has exactly one implementation, its `_into` form, which
//! writes into caller-owned buffers and runs on the calling thread:
//! [`gather_reduce_into`], [`gradient_expand_into`],
//! [`gradient_coalesce_into`], [`scatter_apply_coalesced`]. The embedding
//! half is bound by memory traffic, not by how its work is cut, so no
//! primitive here splits over a pool (`gather_reduce_into` still takes a
//! `tcast_pool::Exec`, and ignores it). Every scatter reaches optimizer
//! state through [`optim::RowOptimizer::with_update`], which grows it up
//! front. The allocating forms ([`gather_reduce`], [`gradient_expand`],
//! [`gradient_expand_coalesce`]) are thin wrappers for tests, examples and
//! the `repro/` model crates; [`scatter_apply`] is the serial reference
//! scatter. One type, [`CoalescedGradients`], carries a coalesced gradient
//! from either backward to the scatter. The `(src, dst)` accumulate loop
//! itself lives once, behind [`accumulate_rows`], and also serves the
//! casted backward.
//!
//! The *casted* backward path (Algorithms 2-3) lives in the `tcast-core`
//! crate; this crate deliberately contains only what existing ML frameworks
//! (PyTorch / TensorFlow) do today, so the two can be benchmarked against
//! each other.
//!
//! # Example: one forward/backward step over a single table
//!
//! ```
//! use tcast_embedding::{EmbeddingTable, IndexArray, gather_reduce,
//!                       gradient_expand_coalesce, scatter_apply,
//!                       optim::{RowOptimizer, UpdateRule}};
//! use tcast_tensor::Matrix;
//!
//! # fn main() -> Result<(), tcast_embedding::EmbeddingError> {
//! let mut table = EmbeddingTable::seeded(100, 8, 42);
//! // Two samples: sample 0 gathers rows {1,2,4}, sample 1 gathers {0,2}.
//! let index = IndexArray::from_samples(&[vec![1, 2, 4], vec![0, 2]])?;
//! let pooled = gather_reduce(&table, &index)?;      // 2 x 8
//!
//! let upstream = Matrix::filled(2, 8, 0.1);          // dL/d(pooled)
//! // Expand to one row per lookup (5 x 8), then coalesce: 4 unique rows.
//! let coalesced = gradient_expand_coalesce(&upstream, &index)?;
//! let mut sgd = RowOptimizer::new(UpdateRule::Sgd { lr: 0.01 });
//! scatter_apply(&mut table, &coalesced, &mut sgd)?;
//! # Ok(())
//! # }
//! ```

mod coalesce;
mod error;
mod expand;
mod gather;
mod index;
pub mod optim;
mod radix;
mod scatter;
pub mod simd;
mod table;

pub use coalesce::{gradient_coalesce_into, gradient_expand_coalesce, CoalescedGradients};
pub use error::EmbeddingError;
pub use expand::{gradient_expand, gradient_expand_into};
pub use gather::{accumulate_rows, gather_reduce, gather_reduce_into};
pub use index::IndexArray;
pub use radix::{radix_sort_pairs, RadixScratch};
pub use scatter::{
    scatter_apply, scatter_apply_casted, scatter_apply_coalesced, BlockScratch,
    CastedBackwardTimings, CastedLookups,
};
pub use table::EmbeddingTable;
