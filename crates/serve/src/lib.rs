//! **tcast-serve** — SLA-aware batched inference serving over the
//! Tensor-Casting training substrate, with an online-training mode.
//!
//! Training made this repository fast (casted backward, parallel
//! scatter, pipelined lookahead); this crate makes the trained model
//! *servable*. At-scale recommendation inference is dominated not by any
//! single forward pass but by the batching/scheduling decisions that
//! fuse concurrent user queries into model batches under a tail-latency
//! SLA (DeepRecSys), and the serving path has to coexist with the
//! embedding-heavy training substrate it shares tables with (MP-Rec).
//! The pieces:
//!
//! * [`request`] — the seeded query workload: a catalog of distinct
//!   queries (candidate-set sizes from a configurable distribution,
//!   sparse features from the `tcast-datasets` popularity models) drawn
//!   through a Zipf hot-query skew, arriving open-loop (Poisson) or
//!   closed-loop;
//! * [`queue`] — the admission queue with three batching policies:
//!   fixed-size, deadline/max-wait, and DeepRecSys-style adaptive batch
//!   sizing that hill-climbs toward the SLA;
//! * [`engine`] — the zero-alloc batched scoring engine over a frozen
//!   [`Dlrm`]: each query's bags pooled by the training forward's
//!   gather-reduce into its rows of the fused batch, the dense stack,
//!   and per-query demux. A batch of 1,024 lookups or more runs on the
//!   calling thread and the engine's lane (its own one-worker pool, or
//!   one lent through [`Execution`]), cut into one band of sample rows a
//!   thread, each pooled and run through the whole dense stack by that
//!   thread; a smaller one is scored on the calling thread;
//! * [`stats`] — latency histograms (p50/p95/p99), QPS, queue depth and
//!   SLA-violation accounting;
//! * one private **serve loop** under two entry-point modules: a lane
//!   (an admission queue, its arrivals, its model source, its accounting)
//!   on a clock whose arrivals are simulated and whose service is the
//!   measured wall time of scoring, the model frozen, an interleaved
//!   trainer, or a snapshot store:
//!   * [`online`] — [`serve`] (one frozen lane) and [`serve_online`] (one
//!     lane interleaving casted [`Trainer`] update steps, tracking model
//!     staleness);
//!   * [`concurrent`] — *true* concurrent train-and-serve: the trainer
//!     publishes epoch-versioned snapshots (`tcast-snapshot`) every K
//!     steps while N engines — one snapshot lane each, on separate pool
//!     workers — score consistent snapshots under a freshness SLA (p99
//!     model age), with hot-swap and rollback drills that never pause
//!     serving.
//!
//! # The serving invariant
//!
//! A fused batch of queries scores **bit-identically** to scoring each
//! query alone, and to [`Dlrm::predict`] on it: embedding pooling
//! accumulates each bag in lookup order, the training forward's order —
//! independent of batch composition — and every dense kernel is
//! row-independent. Batching is a pure scheduling decision, and so is
//! splitting a batch over the lane into bands of sample rows: each bag is
//! pooled whole by one thread, in lookup order, and each band's dense
//! stack computes its rows as the whole batch's would.
//! Likewise, online-mode update steps are bit-identical to the offline
//! [`Trainer`] fed the same batches: serving reads the model through `&`
//! only. Both are property-tested in `tests/serving.rs`.
//!
//! # Example
//!
//! ```
//! use tcast_serve::{
//!     serve, ArrivalProcess, BatchPolicy, CandidateCount, QueryModel, ServeConfig, ServeEngine,
//! };
//! use tcast_dlrm::{Dlrm, DlrmConfig};
//!
//! # fn main() -> Result<(), tcast_embedding::EmbeddingError> {
//! let config = DlrmConfig::tiny();
//! let model = Dlrm::new(config.clone(), 42)?;
//! let mut workload = QueryModel::new(
//!     &config.table_workloads(),
//!     config.dense_features,
//!     64,                          // catalog of distinct queries
//!     CandidateCount::Fixed(4),    // items scored per query
//!     1.1,                         // hot-query Zipf skew
//!     7,
//! );
//! let mut engine = ServeEngine::with_defaults(&model);
//! let report = serve(
//!     &mut engine,
//!     &model,
//!     &mut workload,
//!     &ServeConfig {
//!         queries: 64,
//!         arrivals: ArrivalProcess::Poisson { mean_qps: 100_000.0 },
//!         policy: BatchPolicy::Fixed { batch: 8 },
//!         sla_ns: 10_000_000,
//!         seed: 1,
//!         shed_unmeetable: false,
//!     },
//! )?;
//! assert_eq!(report.queries, 64);
//! println!("p99 {} us at {:.0} qps", report.latency.p99_ns() / 1000, report.qps());
//! # Ok(())
//! # }
//! ```
//!
//! [`Dlrm`]: tcast_dlrm::Dlrm
//! [`Dlrm::predict`]: tcast_dlrm::Dlrm::predict
//! [`Trainer`]: tcast_dlrm::Trainer
//! [`Execution`]: tcast_dlrm::Execution

pub mod concurrent;
pub mod engine;
pub mod online;
pub mod queue;
pub mod request;
mod serve_loop;
pub mod stats;

pub use concurrent::{
    serve_concurrent, ConcurrentConfig, ConcurrentError, ConcurrentReport, HotSwap, RollbackDrill,
    ServedBatchRecord, TrainReport,
};
pub use engine::{ScoredBatch, ServeEngine};
pub use online::{
    serve, serve_online, HotRestore, OnlineConfig, OnlineReport, ServeConfig, ServeError,
};
pub use queue::{AdaptiveBatcher, AdmissionQueue, BatchPolicy, Decision, QueuedQuery};
pub use request::{ArrivalProcess, CandidateCount, Query, QueryModel};
pub use stats::{FreshnessLedger, LatencyHistogram, ServeReport};
pub use tcast_snapshot::{ModelSnapshot, SnapshotError, SnapshotStore};
