//! The near-memory-processing (NMP) architecture of Sections IV-C of the
//! paper: rank-level NMP cores (Fig. 11) inside a disaggregated memory
//! pool (Fig. 10, Table I), unified behind the tensor gather-scatter
//! primitive that Tensor Casting makes sufficient for *all* of embedding
//! training.
//!
//! # Model structure
//!
//! * [`NmpCore`] — one DIMM's accelerator: a vector ALU, staging queues
//!   and a local memory controller, modelled functionally (it computes
//!   real results over real `f32` data) *and* temporally (every
//!   instruction is compiled to a 64 B DRAM command stream and timed on
//!   the cycle-level `dram` simulator).
//! * [`NmpPool`] — the disaggregated node: N NMP channels
//!   (dual-rank DDR4-3200 LRDIMMs, 25.6 GB/s each; 32 channels =
//!   819.2 GB/s aggregate, Table I). Embedding tables are *sliced
//!   column-wise* across a group of channels at the 64 B minimum access
//!   granularity ("each NMP core is able to conduct multiples of 64 byte
//!   granularity gathers and scatters"), so every core runs the same
//!   `(src, dst)` stream over its own slice and no cross-rank reduction
//!   is ever needed.
//! * [`NmpInstruction`] — the CISC-style commands the host sends
//!   (gather-reduce / scatter / the Tensor-Casting additions), mirroring
//!   the ISA extension the paper calls "the primary change required".
//! * [`LinkModel`] — the host-pool interconnect (25 GB/s PCIe-class by
//!   default, sweepable to 150 GB/s NVLINK-class for the Section VI-D
//!   sensitivity study).
//!
//! # Example
//!
//! ```
//! use tcast_repro::nmp::{NmpPool, PoolConfig};
//! use tcast_embedding::{EmbeddingTable, IndexArray, gather_reduce};
//!
//! # fn main() -> Result<(), tcast_embedding::EmbeddingError> {
//! let mut pool = NmpPool::new(PoolConfig::small(4));
//! let table = EmbeddingTable::seeded(256, 16, 7);
//! let handle = pool.load_table(&table)?;
//! let index = IndexArray::from_samples(&[vec![1, 2, 4], vec![0, 2]])?;
//! let (pooled, exec) = pool.gather_reduce(handle, &index)?;
//! // Functionally identical to the host kernel...
//! assert_eq!(pooled, gather_reduce(&table, &index)?);
//! // ...and timed on the cycle-level DRAM model.
//! assert!(exec.nanoseconds > 0.0);
//! # Ok(())
//! # }
//! ```

// The leaf modules are declared at the crate root (see `lib.rs`); this
// module is their public face.
pub use crate::core::{CoreExec, NmpCore, SLICE_BYTES, SLICE_FLOATS};
pub use crate::isa::NmpInstruction;
pub use crate::link::LinkModel;
pub use crate::pool::{NmpPool, PoolConfig, PoolExec, TableHandle};
pub use crate::utilization::UtilizationTracker;
