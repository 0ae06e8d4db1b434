//! The sharding invariant — the sharded data plane's headline property:
//! **sharded == unsharded**, bit for bit. A trainer's shard count fences
//! each table's rows into the fixed ranges its pooled backward's tasks
//! own, and sharding its batch pipeline (multi-producer prefetch with a
//! deterministic merge) changes which thread generates a batch; neither
//! changes the numbers.
//!
//! The matrix covers shard counts {1, 2, 3, 7} x every embedding
//! optimizer x both backward modes, comparing per-step losses and final
//! table weights against the unsharded serial reference; a pooled
//! spot-check shows shard-concurrent execution lands on the same bits,
//! and under one `Execution` the whole training checkpoint — parameters
//! and optimizer state — is the same bytes at 1 and at 3 shards.
//! `ShardedPrefetchSource` is held to the same standard against an
//! inline round-robin merge, for both synthetic and trace-replay shard
//! sources. A property test closes the layer underneath: a `ShardMap`'s
//! bounds tile the rows exactly.

use proptest::prelude::*;
use std::sync::Arc;
use tensor_casting::datasets::{
    BatchSource, Popularity, PrefetchSource, ShardedPrefetchSource, SyntheticCtr, SyntheticSource,
    TableWorkload, TraceReplaySource,
};
use tensor_casting::dlrm::checkpoint::save_train_checkpoint;
use tensor_casting::dlrm::{
    BackwardMode, DlrmConfig, EmbeddingOptimizer, Execution, ShardSpec, Trainer,
};
use tensor_casting::embedding::ShardMap;
use tensor_casting::tensor::Pool;

const OPTIMIZERS: [EmbeddingOptimizer; 5] = [
    EmbeddingOptimizer::Sgd,
    EmbeddingOptimizer::Momentum { mu: 0.9 },
    EmbeddingOptimizer::Adagrad { eps: 1e-8 },
    EmbeddingOptimizer::RmsProp {
        gamma: 0.9,
        eps: 1e-8,
    },
    EmbeddingOptimizer::Adam {
        beta1: 0.9,
        beta2: 0.999,
        eps: 1e-8,
    },
];

const SHARD_COUNTS: [usize; 4] = [1, 2, 3, 7];

fn data(seed: u64) -> SyntheticCtr {
    let cfg = DlrmConfig::tiny();
    SyntheticCtr::new(cfg.table_workloads(), cfg.dense_features, seed)
}

fn table_bits(t: &Trainer) -> Vec<Vec<u32>> {
    (0..t.model().num_tables())
        .map(|i| {
            t.model()
                .table(i)
                .as_slice()
                .iter()
                .map(|v| v.to_bits())
                .collect()
        })
        .collect()
}

/// Trains `steps` and returns (per-step loss bits, final table bits).
fn trajectory(mut trainer: Trainer, data_seed: u64, steps: usize) -> (Vec<u32>, Vec<Vec<u32>>) {
    let mut stream = data(data_seed);
    let losses = (0..steps)
        .map(|_| trainer.step(&stream.next_batch(16)).unwrap().loss.to_bits())
        .collect();
    (losses, table_bits(&trainer))
}

/// THE acceptance matrix: every shard count x every optimizer x both
/// modes trains bit-identically to the unsharded serial reference.
#[test]
fn sharded_training_matches_unsharded_for_every_optimizer_and_mode() {
    for opt in OPTIMIZERS {
        for mode in [BackwardMode::Baseline, BackwardMode::Casted] {
            let reference = Trainer::with_optimizer(DlrmConfig::tiny(), mode, opt, 7).unwrap();
            let want = trajectory(reference, 42, 4);
            for shards in SHARD_COUNTS {
                let sharded = Trainer::with_sharding(
                    DlrmConfig::tiny(),
                    mode,
                    opt,
                    Execution::Serial,
                    ShardSpec::new(shards),
                    7,
                )
                .unwrap();
                let got = trajectory(sharded, 42, 4);
                assert_eq!(
                    got.0, want.0,
                    "{mode:?} {opt:?} {shards} shards: losses diverged"
                );
                assert_eq!(
                    got.1, want.1,
                    "{mode:?} {opt:?} {shards} shards: weights diverged"
                );
            }
        }
    }
}

/// Shard-concurrent execution (one pool task per shard in the scatter)
/// still lands on the reference bits.
#[test]
fn pooled_sharded_training_matches_the_serial_unsharded_reference() {
    let pool = Arc::new(Pool::new(4));
    let opt = EmbeddingOptimizer::Adam {
        beta1: 0.9,
        beta2: 0.999,
        eps: 1e-8,
    };
    for mode in [BackwardMode::Baseline, BackwardMode::Casted] {
        let reference = Trainer::with_optimizer(DlrmConfig::tiny(), mode, opt, 13).unwrap();
        let want = trajectory(reference, 23, 5);
        for shards in [3usize, 7] {
            let sharded = Trainer::with_sharding(
                DlrmConfig::tiny(),
                mode,
                opt,
                Execution::Pooled(Arc::clone(&pool)),
                ShardSpec::new(shards),
                13,
            )
            .unwrap();
            let got = trajectory(sharded, 23, 5);
            assert_eq!(got.0, want.0, "{mode:?} {shards} shards pooled: losses");
            assert_eq!(got.1, want.1, "{mode:?} {shards} shards pooled: weights");
        }
    }
}

/// Stronger than "restorable under another shard count": the shard count
/// is not in the checkpoint at all. For every optimizer, both modes and
/// both kinds of `Execution`, eight steps at 1 and at 3 shards leave
/// byte-identical training checkpoints.
#[test]
fn checkpoints_are_byte_identical_across_shard_counts() {
    let pool = Arc::new(Pool::new(4));
    for execution in [Execution::Serial, Execution::Pooled(pool)] {
        for opt in OPTIMIZERS {
            for mode in [BackwardMode::Baseline, BackwardMode::Casted] {
                let [one, three] = [1, 3].map(|shards| {
                    let spec = ShardSpec::new(shards);
                    let mut trainer = Trainer::with_sharding(
                        DlrmConfig::tiny(),
                        mode,
                        opt,
                        execution.clone(),
                        spec,
                        7,
                    )
                    .unwrap();
                    let mut stream = data(42);
                    for _ in 0..8 {
                        trainer.step(&stream.next_batch(16)).unwrap();
                    }
                    let mut bytes = Vec::new();
                    save_train_checkpoint(&mut bytes, &trainer, None, None).unwrap();
                    bytes
                });
                assert!(one == three, "{execution:?} {mode:?} {opt:?}");
            }
        }
    }
}

fn synthetic_shard(seed: u64) -> SyntheticSource {
    let cfg = DlrmConfig::tiny();
    SyntheticSource::new(
        SyntheticCtr::new(cfg.table_workloads(), cfg.dense_features, seed),
        16,
    )
}

fn trace_shard(seed: u64, batches: usize) -> TraceReplaySource {
    let w = TableWorkload::new(
        Popularity::Zipf {
            rows: 200,
            exponent: 1.0,
        },
        3,
    );
    let mut g = w.generator(seed);
    let t: Vec<_> = (0..batches).map(|_| g.next_batch(8)).collect();
    TraceReplaySource::new(vec![t], 4, seed).unwrap()
}

/// The multi-producer merge delivers exactly the inline round-robin
/// stream, for both source kinds and several shard counts — thread
/// scheduling never reaches the consumer.
#[test]
fn sharded_prefetch_stream_is_bit_identical_for_both_source_kinds() {
    for shards in [1usize, 2, 3] {
        // Synthetic (endless) shards.
        let mut inline: Vec<SyntheticSource> = (0..shards as u64).map(synthetic_shard).collect();
        let mut merged =
            ShardedPrefetchSource::new((0..shards as u64).map(synthetic_shard).collect(), 2);
        for step in 0..3 * shards + 1 {
            let want = inline[step % shards].next_batch().unwrap();
            let got = merged.next_batch().unwrap();
            assert_eq!(*got, *want, "synthetic {shards} shards, step {step}");
            inline[step % shards].recycle(want);
            merged.recycle(got);
        }

        // Trace-replay (finite) shards: full delivery, then sticky end.
        let mut inline: Vec<TraceReplaySource> =
            (0..shards as u64).map(|s| trace_shard(s, 3)).collect();
        let mut merged =
            ShardedPrefetchSource::new((0..shards as u64).map(|s| trace_shard(s, 3)).collect(), 2);
        for step in 0..3 * shards {
            let want = inline[step % shards].next_batch().unwrap();
            let got = merged.next_batch().unwrap();
            assert_eq!(*got, *want, "trace {shards} shards, step {step}");
            merged.recycle(got);
        }
        assert!(merged.next_batch().is_none(), "trace shards must end");
        assert!(merged.next_batch().is_none(), "None must be sticky");
    }
}

/// One shard is just a [`PrefetchSource`], delivering the wrapped
/// source's exact stream.
#[test]
fn one_shard_prefetch_matches_the_single_producer_source() {
    let mut plain = PrefetchSource::new(synthetic_shard(3), 2);
    let mut merged = ShardedPrefetchSource::new(vec![synthetic_shard(3)], 2);
    for step in 0..6 {
        let want = plain.next_batch().unwrap();
        let got = merged.next_batch().unwrap();
        assert_eq!(*got, *want, "step {step}");
        plain.recycle(want);
        merged.recycle(got);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The shards tile `0..rows`: contiguous, non-empty, never more than
    /// requested, every row in exactly one `[shard_base, shard_end)`.
    #[test]
    fn shard_bounds_tile_the_rows(rows in 1usize..200, shards in 1usize..9) {
        let map = ShardMap::new(rows, shards);
        prop_assert_eq!(map.rows(), rows);
        prop_assert!(map.num_shards() <= shards);
        let mut next = 0;
        for s in 0..map.num_shards() {
            prop_assert_eq!(map.shard_base(s), next);
            prop_assert!(map.shard_rows(s) > 0);
            next = map.shard_end(s);
        }
        prop_assert_eq!(next, rows);
    }
}
