#![doc = include_str!("../README.md")]

pub use tcast_core as core;
pub use tcast_datasets as datasets;
pub use tcast_dlrm as dlrm;
pub use tcast_embedding as embedding;
pub use tcast_serve as serve;
pub use tcast_snapshot as snapshot;
pub use tcast_tensor as tensor;
