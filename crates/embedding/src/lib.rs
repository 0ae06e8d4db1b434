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
//!   `src`;
//! * **gradient scatter** (backward, Fig. 2b step 3) — apply the coalesced
//!   gradients to the table through the sparse row optimizer: an
//!   [`optim::UpdateRule`] (SGD / momentum / Adagrad Eq. 2 / RMSprop
//!   Eq. 1 / Adam) and the per-row state it builds up, one
//!   [`optim::RowOptimizer`] per table.
//!
//! # One implementation per primitive
//!
//! Each primitive has exactly one implementation, its `_into` form, which
//! writes into caller-owned buffers and takes a `tcast_pool::Exec`
//! saying where to run: [`gather_reduce_into`],
//! [`gradient_coalesce_into`], [`scatter_apply_coalesced`]
//! ([`gradient_expand_into`] is a plain copy loop and always serial).
//! Serial execution is the one-band case *of the same function*, so the
//! results are bit-identical whatever the `Exec` — by construction, not by
//! a second kernel that happens to agree. The allocating forms ([`gather_reduce`],
//! [`gradient_coalesce`], [`gradient_expand`]) are thin wrappers for
//! tests, examples and the model crates; [`scatter_apply`] is the serial
//! reference scatter. The `(src, dst)` accumulate loop itself lives once,
//! behind [`accumulate_rows`], and also serves the casted backward.
//!
//! The *casted* backward path (Algorithms 2-3) lives in the `tcast-core`
//! crate; this crate deliberately contains only what existing ML frameworks
//! (PyTorch / TensorFlow) do today, so the two can be benchmarked against
//! each other.
//!
//! [`traffic`] implements the paper's analytic memory-traffic model
//! (Section III-C, Fig. 6): every primitive's read/write byte counts as a
//! function of batch size, pooling factor, embedding dimension and the
//! number of unique indices.
//!
//! # Example: one forward/backward step over a single table
//!
//! ```
//! use tcast_embedding::{EmbeddingTable, IndexArray, gather_reduce,
//!                       gradient_expand, gradient_coalesce, scatter_apply,
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
//! let expanded = gradient_expand(&upstream, &index)?; // 5 x 8
//! let coalesced = gradient_coalesce(&expanded, &index)?; // 4 unique rows
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
mod scatter;
pub mod simd;
mod table;
pub mod traffic;

pub use coalesce::{
    gradient_coalesce, gradient_coalesce_into, gradient_expand_coalesce, CoalescedGradients,
    CoalescedScratch,
};
pub use error::EmbeddingError;
pub use expand::{gradient_expand, gradient_expand_into};
pub use gather::{accumulate_rows, gather_reduce, gather_reduce_into};
pub use index::IndexArray;
pub use scatter::{
    scatter_apply, scatter_apply_casted, scatter_apply_coalesced, BlockScratch,
    CastedBackwardTimings, CastedLookups,
};
pub use table::EmbeddingTable;
