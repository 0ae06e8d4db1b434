//! Workload generation for the Tensor Casting reproduction: popularity
//! models of the paper's four public recommendation datasets, lookup
//! histograms and coalescing statistics (Fig. 5), and per-table index
//! generators plus synthetic CTR training data.
//!
//! # Substitution note (see DESIGN.md)
//!
//! The paper drives its locality analysis with Amazon Review (Books),
//! MovieLens-20M, Alibaba Taobao UserBehavior and Criteo Kaggle. Those
//! datasets are not redistributable here, so each is modelled as a
//! truncated-Zipf popularity distribution whose exponent and cardinality
//! are chosen to match the published shape of its lookup-frequency curve
//! (a handful of very hot entries, long cold tail — Fig. 5a). Every
//! figure that depends on a dataset consumes only its popularity
//! distribution (how often lookups collide), which the Zipf model
//! reproduces; item identities are irrelevant to the systems analysis.
//!
//! # Example
//!
//! ```
//! use tcast_datasets::{DatasetPreset, TableWorkload};
//!
//! // Criteo-like table, pooling factor 10 (the Fig. 5/6 setup).
//! let spec = DatasetPreset::CriteoKaggle.table_workload(10).with_rows(100_000);
//! let mut gen = spec.generator(42);
//! let index = gen.next_batch(2048);
//! assert_eq!(index.num_outputs(), 2048);
//! assert_eq!(index.len(), 2048 * 10);
//! // Skewed lookups coalesce well: far fewer unique rows than lookups.
//! assert!(index.unique_src_count() < index.len() / 2);
//! ```

mod histogram;
mod popularity;
mod prefetch;
mod presets;
mod source;
mod synthetic;
pub mod trace;
mod workload;

pub use histogram::{CoalesceStats, LookupHistogram};
pub use popularity::{CdfSampler, Popularity};
pub use prefetch::{PrefetchSource, PrefetchStats};
pub use presets::DatasetPreset;
pub use source::{BatchSource, SourceState, SyntheticSource, TraceReplaySource};
pub use synthetic::{CtrBatch, SyntheticCtr};
pub use workload::{TableWorkload, WorkloadGenerator};
