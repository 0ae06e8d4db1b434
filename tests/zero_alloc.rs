//! The zero-allocation steady-state invariant, enforced with a counting
//! global allocator: after a warm-up step sizes every scratch buffer to
//! its high-water mark, the embedding/MLP hot-path kernels perform **no
//! heap allocation per step** on their serial `_into` paths. That now
//! includes the *stateful* optimizer scatter (the dense `RowState` store
//! stops growing once warmed), the casting pipeline's hand-off (submit
//! as an `Arc<[IndexArray]>` refcount bump, collect, recycle), the cast
//! itself into recycled arrays, and a full serving cache's misses.
//!
//! The whole file is one test function on purpose — the allocation
//! counter is process-global, and sibling tests running on other threads
//! would pollute it. The one other thread that *does* count is the
//! `PrefetchSource` producer: the final section opts it into tracking
//! (via a wrapping source that flips the thread-local) to certify that
//! the cross-thread checkout/recycle steady state — producer refilling
//! buffers the consumer returned — allocates nothing on either side.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tensor_casting::datasets::{
    BatchSource, CtrBatch, Popularity, PrefetchSource, SyntheticCtr, SyntheticSource, TableWorkload,
};

use tensor_casting::core::{
    blocked_casted_backward, casted_gather_reduce_into, tensor_casting, tensor_casting_into,
    CastedIndexArray, CastingPipeline,
};
use tensor_casting::dlrm::{BackwardMode, DlrmConfig, TableConfig, Trainer};
use tensor_casting::embedding::{
    gather_reduce_into, gradient_coalesce_into, gradient_expand_into,
    optim::{RowOptimizer, UpdateRule},
    scatter_apply_coalesced, BlockScratch, CoalescedScratch, EmbeddingTable, IndexArray,
    RadixScratch,
};
use tensor_casting::tensor::{
    bce_with_logits, bce_with_logits_backward_into, Activation, Exec, FeatureInteraction, Matrix,
    Mlp, MlpInferenceScratch, Pool, SplitMix64,
};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // Only the test's own thread counts: the libtest harness allocates
    // from its main thread (timing, channel messages) and would otherwise
    // pollute the counter nondeterministically.
    static TRACKING: Cell<bool> = const { Cell::new(false) };
}

fn count_here() {
    if TRACKING.try_with(Cell::get).unwrap_or(false) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_here();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_here();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    TRACKING.with(|t| t.set(true));
    ALLOCATIONS.load(Ordering::Relaxed)
}

fn random_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = SplitMix64::new(seed);
    let mut m = Matrix::zeros(rows, cols);
    for v in m.as_mut_slice() {
        *v = rng.next_range(-1.0, 1.0);
    }
    m
}

const SGD: UpdateRule = UpdateRule::Sgd { lr: 0.01 };
const ADAGRAD: UpdateRule = UpdateRule::Adagrad {
    lr: 0.01,
    eps: 1e-8,
};
const ADAM: UpdateRule = UpdateRule::Adam {
    lr: 0.001,
    beta1: 0.9,
    beta2: 0.999,
    eps: 1e-8,
};

#[test]
fn steady_state_hot_path_performs_zero_allocations() {
    let batch = 64;
    let dim = 16;

    // ---- Embedding forward + casted backward + scatter ----------------
    let mut rng = SplitMix64::new(7);
    let mut table = EmbeddingTable::seeded(500, dim, 1);
    let samples: Vec<Vec<u32>> = (0..batch)
        .map(|_| (0..6).map(|_| rng.next_below(500) as u32).collect())
        .collect();
    let index = IndexArray::from_samples(&samples).unwrap();
    // The casted index array is produced by the overlap pipeline in real
    // training (off the critical path); here it is fixed input.
    let casted = tensor_casting(&index);
    let upstream = random_matrix(batch, dim, 2);

    let mut pooled = Matrix::default();
    let mut blocks = BlockScratch::default();
    let mut sgd = RowOptimizer::new(SGD);

    // What a casted training step runs per table: the forward
    // gather-reduce, then the blocked casted backward (gather-reduce and
    // scatter a block of coalesced rows at a time, through one reused
    // block buffer).
    let embedding_step = |pooled: &mut Matrix,
                          blocks: &mut BlockScratch,
                          table: &mut EmbeddingTable,
                          sgd: &mut RowOptimizer| {
        gather_reduce_into(table, &index, pooled, Exec::Serial).unwrap();
        blocked_casted_backward(table, sgd, &upstream, &casted, blocks, Exec::Serial).unwrap();
    };

    // Warm-up: size every buffer to its high-water mark.
    embedding_step(&mut pooled, &mut blocks, &mut table, &mut sgd);
    embedding_step(&mut pooled, &mut blocks, &mut table, &mut sgd);

    let before = allocations();
    for _ in 0..10 {
        embedding_step(&mut pooled, &mut blocks, &mut table, &mut sgd);
    }
    assert_eq!(
        allocations() - before,
        0,
        "embedding gather/blocked-casted-backward steady state must not allocate"
    );

    // ---- Casting (Algorithm 2) into a recycled array -------------------
    // What the casting worker and a full serving cache run: the radix
    // sort ping-pongs through the scratch's buffers and the final pass
    // rewrites the casted array in place. Warmed by a larger array with
    // ids up to `u32::MAX` (the most lookups and the most digit passes),
    // whose stale contents stay behind, a cast allocates nothing and
    // matches the allocating form bit for bit.
    let mut recycled = CastedIndexArray::default();
    let mut cast_scratch = RadixScratch::default();
    let wide_ids: Vec<u32> = (0..12).map(|j| u32::MAX - j).collect();
    let wide = IndexArray::from_samples(&vec![wide_ids; batch]).unwrap();
    tensor_casting_into(&wide, &mut recycled, &mut cast_scratch);
    let before = allocations();
    for _ in 0..10 {
        tensor_casting_into(&index, &mut recycled, &mut cast_scratch);
    }
    assert_eq!(
        allocations() - before,
        0,
        "a warm tensor_casting_into must not allocate"
    );
    assert_eq!(recycled, casted);

    // The whole coalesced gradient of the same batch, for the scatters
    // below that take one as input.
    let mut coalesced = CoalescedScratch::default();
    casted_gather_reduce_into(&upstream, &casted, &mut coalesced, Exec::Serial).unwrap();

    // ---- Baseline expand-coalesce through recycled scratch ------------
    // The baseline backward still materializes its n x D expand and runs
    // Algorithm 1's argsort + accumulate every step (that cost is the
    // paper's subject) — but via `_into` forms its steady state touches
    // only recycled buffers. The argsort is the radix sort the cast runs,
    // through the scratch's own ping-pong buffers.
    let mut base_table = EmbeddingTable::seeded(500, dim, 9);
    let mut base_sgd = RowOptimizer::new(SGD);
    let mut expanded = Matrix::default();
    let mut base_coalesced = CoalescedScratch::default();

    let baseline_step = |expanded: &mut Matrix,
                         coalesced: &mut CoalescedScratch,
                         table: &mut EmbeddingTable,
                         sgd: &mut RowOptimizer| {
        gradient_expand_into(&upstream, &index, expanded).unwrap();
        gradient_coalesce_into(expanded, &index, coalesced, Exec::Serial).unwrap();
        scatter_apply_coalesced(table, sgd, coalesced, Exec::Serial).unwrap();
    };

    baseline_step(
        &mut expanded,
        &mut base_coalesced,
        &mut base_table,
        &mut base_sgd,
    );
    baseline_step(
        &mut expanded,
        &mut base_coalesced,
        &mut base_table,
        &mut base_sgd,
    );

    let before = allocations();
    for _ in 0..10 {
        baseline_step(
            &mut expanded,
            &mut base_coalesced,
            &mut base_table,
            &mut base_sgd,
        );
    }
    assert_eq!(
        allocations() - before,
        0,
        "baseline expand/coalesce/scatter steady state must not allocate"
    );

    // ---- Stateful-optimizer scatter (dense RowState) ------------------
    // The splittable state store grows geometrically on serial lazy
    // touches; once the warm-up covers the batch's hottest row, further
    // scatters (including Adam's per-row step counts) allocate nothing.
    let mut ada_table = EmbeddingTable::seeded(500, dim, 11);
    let mut ada = RowOptimizer::new(ADAGRAD);
    let mut adam_table = EmbeddingTable::seeded(500, dim, 12);
    let mut adam = RowOptimizer::new(ADAM);

    let stateful_scatter =
        |coalesced: &CoalescedScratch, table: &mut EmbeddingTable, opt: &mut RowOptimizer| {
            scatter_apply_coalesced(table, opt, coalesced, Exec::Serial).unwrap();
        };

    stateful_scatter(&coalesced, &mut ada_table, &mut ada);
    stateful_scatter(&coalesced, &mut adam_table, &mut adam);

    let before = allocations();
    for _ in 0..10 {
        stateful_scatter(&coalesced, &mut ada_table, &mut ada);
        stateful_scatter(&coalesced, &mut adam_table, &mut adam);
    }
    assert_eq!(
        allocations() - before,
        0,
        "stateful-optimizer scatter steady state must not allocate"
    );

    // ---- Casting-pipeline hand-off: submit, collect, recycle ----------
    // A job goes to the worker on a bounded channel as an
    // Arc<[IndexArray]> share (a refcount bump however many tables it
    // has), its arrays come back on the results channel, and they go
    // back on the bounded free channel for a later job to be cast into.
    // Once a collect has parked this thread on the results channel — std
    // allocates a thread's wait context and a channel's waiter slot on
    // the first blocking receive — the hand-off allocates nothing on the
    // training thread, for a wide batch as for a narrow one. A job of long
    // bags (256k lookups, milliseconds of casting) collected at once
    // parks it.
    let long_bags = |samples: usize| {
        let bag: Vec<u32> = (0..8_000).map(|j| j % 100).collect();
        IndexArray::from_samples(&vec![bag; samples]).unwrap()
    };
    let make_indices = |tables: usize, seed: u64| -> Arc<[IndexArray]> {
        let mut rng = SplitMix64::new(seed);
        (0..tables)
            .map(|_| {
                let samples: Vec<Vec<u32>> = (0..batch)
                    .map(|_| (0..6).map(|_| rng.next_below(500) as u32).collect())
                    .collect();
                IndexArray::from_samples(&samples).unwrap()
            })
            .collect::<Vec<_>>()
            .into()
    };
    let narrow = make_indices(2, 21);
    let wide = make_indices(10, 22);
    let mut pipeline = CastingPipeline::new();
    let mut hand_off = |indices: &Arc<[IndexArray]>, cycles: usize| -> u64 {
        let before = allocations();
        for _ in 0..cycles {
            let ticket = pipeline.submit(Arc::clone(indices));
            let casted = pipeline.collect(ticket);
            pipeline.recycle(casted);
        }
        allocations() - before
    };
    hand_off(&vec![long_bags(32)].into(), 1);
    hand_off(&narrow, 4);
    hand_off(&wide, 4);
    let cycle_allocs = hand_off(&narrow, 32) + hand_off(&wide, 32);
    assert_eq!(
        cycle_allocs, 0,
        "64 warm submit/collect/recycle cycles allocated on the training thread: \
         is submit cloning index arrays, or a channel growing?"
    );

    // ---- A failed casted step gives its casting job back ---------------
    // `Trainer::step` submits the batch's casting job before forward
    // propagation; a step that then fails in forward (here: an embedding
    // id past its table) must still drain that job. If it did not, the
    // orphaned result would arrive ahead of the next step's and stay
    // parked in the pipeline for good, for a caller who handles the `Err`
    // and keeps training. So `good, BAD, good x 32` must end bit-equal
    // (losses and weights) to the same 33 good steps without the bad
    // one, and its 32 steps after the error must allocate nothing on the
    // training thread, like any warm casted steps. (One batch throughout,
    // so the first step already sizes every scratch buffer to its
    // high-water mark. The bad batch's second table carries long bags, so
    // the collect of its orphan parks on this trainer's results channel
    // before the count starts.)
    let cfg = DlrmConfig::tiny();
    let good = SyntheticCtr::new(cfg.table_workloads(), cfg.dense_features, 71).next_batch(32);
    let bad = {
        let mut indices = good.indices.to_vec();
        let past_the_table = cfg.table_workloads()[0].rows() as u32;
        indices[0] = IndexArray::from_samples(&vec![vec![past_the_table]; 32]).unwrap();
        indices[1] = long_bags(32);
        CtrBatch {
            indices: indices.into(),
            ..good.clone()
        }
    };
    let mut clean = Trainer::new(cfg.clone(), BackwardMode::Casted, 5).unwrap();
    let clean_losses: Vec<u32> = (0..33)
        .map(|_| clean.step(&good).unwrap().loss.to_bits())
        .collect();

    let mut survivor = Trainer::new(cfg.clone(), BackwardMode::Casted, 5).unwrap();
    let mut survivor_losses = Vec::with_capacity(33);
    survivor_losses.push(survivor.step(&good).unwrap().loss.to_bits());
    assert!(
        survivor.step(&bad).is_err(),
        "the bad batch must be rejected"
    );
    assert_eq!(survivor.steps(), 1, "a failed step does not count");
    let before = allocations();
    for _ in 0..32 {
        survivor_losses.push(survivor.step(&good).unwrap().loss.to_bits());
    }
    let after_error = allocations() - before;
    assert_eq!(
        after_error, 0,
        "32 steps after a failed step allocated on the training thread: \
         did the failed step orphan its casting ticket?"
    );
    assert_eq!(survivor_losses, clean_losses);
    for t in 0..clean.model().num_tables() {
        assert_eq!(
            survivor.model().table(t).as_slice(),
            clean.model().table(t).as_slice(),
            "table {t} diverged after the failed step"
        );
    }

    // ---- MLP forward + loss + backward + update -----------------------
    let mut mlp = Mlp::new(dim, &[32, 16, 1], Activation::Relu, 3).unwrap();
    let x = random_matrix(batch, dim, 4);
    let labels = random_matrix(batch, 1, 5).map(|v| if v > 0.0 { 1.0 } else { 0.0 });
    let mut scratch = MlpInferenceScratch::default();
    let mut logits = Matrix::default();
    let mut dlogits = Matrix::default();
    let mut dx = Matrix::default();

    let mut mlp_step = |mlp: &mut Mlp,
                        x: &Matrix,
                        exec: Exec<'_>,
                        logits: &mut Matrix,
                        dlogits: &mut Matrix,
                        dx: &mut Matrix| {
        mlp.forward_into(x, &mut scratch, logits, exec).unwrap();
        let loss = bce_with_logits(logits, &labels).unwrap();
        assert!(loss.is_finite());
        bce_with_logits_backward_into(logits, &labels, dlogits).unwrap();
        mlp.backward_into(x, &mut scratch, dlogits, dx, exec)
            .unwrap();
        mlp.apply_update(0.05);
    };

    // Serially, and under the `Exec` a serial trainer hands its dense
    // phases (a one-worker lane, two bands): every product of this stack
    // is under the split floor, so the lane is never touched and the step
    // allocates as little as the serial one.
    let lane = Pool::new(1);
    let lane_exec = Exec::Pooled {
        pool: &lane,
        threads: 2,
    };
    for exec in [Exec::Serial, lane_exec] {
        mlp_step(&mut mlp, &x, exec, &mut logits, &mut dlogits, &mut dx);
        mlp_step(&mut mlp, &x, exec, &mut logits, &mut dlogits, &mut dx);

        let before = allocations();
        for _ in 0..10 {
            mlp_step(&mut mlp, &x, exec, &mut logits, &mut dlogits, &mut dx);
        }
        assert_eq!(
            allocations() - before,
            0,
            "MLP forward/loss/backward/update steady state must not allocate ({exec:?})"
        );
    }

    // A rejected backward (a `dy` of the wrong batch, a scratch no forward
    // pass filled) leaves the recycled gradient buffers where they were:
    // the next good step allocates nothing.
    let before = allocations();
    let mut never_filled = MlpInferenceScratch::default();
    assert!(mlp
        .backward_into(&x, &mut never_filled, &dlogits, &mut dx, Exec::Serial)
        .is_err());
    assert!(mlp
        .backward_into(
            &x,
            &mut never_filled,
            &Matrix::default(),
            &mut dx,
            Exec::Serial
        )
        .is_err());
    mlp_step(
        &mut mlp,
        &x,
        Exec::Serial,
        &mut logits,
        &mut dlogits,
        &mut dx,
    );
    assert_eq!(
        allocations() - before,
        0,
        "a step after a rejected backward allocated: were the spare gradient buffers dropped?"
    );

    // A stack whose first layer sits exactly on the floor at this batch
    // does split on the lane, and what that costs the calling thread is
    // bounded: per scope its shared state and one boxed task per band —
    // two forward bands, two of `dX` and two of `dW` in the one backward
    // scope. Everything else is recycled as before.
    let mut wide = Mlp::new(256, &[256, 1], Activation::Relu, 3).unwrap();
    assert!(wide.splits_at(batch));
    let wide_x = random_matrix(batch, 256, 4);
    for _ in 0..2 {
        mlp_step(
            &mut wide,
            &wide_x,
            lane_exec,
            &mut logits,
            &mut dlogits,
            &mut dx,
        );
    }
    let before = allocations();
    for _ in 0..4 {
        mlp_step(
            &mut wide,
            &wide_x,
            lane_exec,
            &mut logits,
            &mut dlogits,
            &mut dx,
        );
    }
    let split_allocs = allocations() - before;
    assert!(
        split_allocs <= 4 * ((1 + 2) + (1 + 4)),
        "4 split MLP steps allocated {split_allocs} times on the calling thread"
    );

    // ---- Feature interaction (dot) forward + backward -----------------
    let dense = random_matrix(batch, dim, 6);
    let embeddings = vec![random_matrix(batch, dim, 7), random_matrix(batch, dim, 8)];
    let op = FeatureInteraction::default();
    let mut z = Matrix::default();
    let mut dz = Matrix::default();
    let mut ddense = Matrix::default();
    let mut dpooled = Vec::new();

    let interaction_step =
        |z: &mut Matrix, dz: &mut Matrix, ddense: &mut Matrix, dpooled: &mut Vec<Matrix>| {
            op.forward_into(&dense, &embeddings, z).unwrap();
            dz.copy_from(z);
            op.backward_into(&dense, &embeddings, dz, ddense, dpooled)
                .unwrap();
        };

    interaction_step(&mut z, &mut dz, &mut ddense, &mut dpooled);
    interaction_step(&mut z, &mut dz, &mut ddense, &mut dpooled);

    let before = allocations();
    for _ in 0..10 {
        interaction_step(&mut z, &mut dz, &mut ddense, &mut dpooled);
    }
    assert_eq!(
        allocations() - before,
        0,
        "feature-interaction steady state must not allocate"
    );

    // ---- Serve engine: warm-cache fused scoring -----------------------
    // Once the catalog's casting transforms are memoized and the fused
    // buffers are sized, scoring a batch of hot queries allocates
    // nothing: offsets/dense/pooled/logits recycle, cache hits return
    // borrowed casted arrays, and the dense stack runs through the
    // caller-owned inference scratch. (The misses that fill a cache
    // allocate their memoized arrays, once each; the cold section below
    // covers misses on a full cache.)
    let serve_cfg = tensor_casting::dlrm::DlrmConfig::tiny();
    let serve_model = tensor_casting::dlrm::Dlrm::new(serve_cfg.clone(), 31).unwrap();
    let mut serve_workload = tensor_casting::serve::QueryModel::new(
        &serve_cfg.table_workloads(),
        serve_cfg.dense_features,
        6,
        tensor_casting::serve::CandidateCount::Fixed(3),
        1.0,
        41,
    );
    let serve_queries: Vec<_> = (0..8).map(|_| serve_workload.draw()).collect();
    let mut engine = tensor_casting::serve::ServeEngine::with_defaults(&serve_model);

    // Warm-up: miss-cast every catalog entry, size the fused buffers.
    engine.score(&serve_model, &serve_queries).unwrap();
    engine.score(&serve_model, &serve_queries).unwrap();

    let before = allocations();
    for _ in 0..10 {
        let scored = engine.score(&serve_model, &serve_queries).unwrap();
        assert_eq!(scored.num_queries(), 8);
    }
    assert_eq!(
        allocations() - before,
        0,
        "warm-cache fused serving steady state must not allocate"
    );

    // ---- Serve engine: cold steady state, every query a miss -----------
    // A cache smaller than the catalog, visited round-robin: LRU evicts
    // each entry just before its query comes back, so every lookup
    // misses on a full cache. A miss copies the query's index array into
    // the victim's buffers and casts into its casted array in place, so
    // once every entry has held an array this large and the cache's hash
    // map has cycled through its tombstones, cold scoring allocates
    // nothing either.
    let mut cold_workload = tensor_casting::serve::QueryModel::new(
        &serve_cfg.table_workloads(),
        serve_cfg.dense_features,
        24,
        tensor_casting::serve::CandidateCount::Fixed(3),
        0.0,
        47,
    );
    let mut cold_queries: Vec<_> = (0..1000).map(|_| cold_workload.draw()).collect();
    cold_queries.sort_by_key(|q| q.id);
    cold_queries.dedup_by_key(|q| q.id);
    assert_eq!(cold_queries.len(), 24, "the whole catalog, once each");
    let mut cold_engine = tensor_casting::serve::ServeEngine::new(
        &serve_model,
        20,
        tensor_casting::dlrm::Execution::Serial,
    );
    for _ in 0..64 {
        cold_engine.score(&serve_model, &cold_queries).unwrap();
    }
    let evictions_before = cold_engine.cache_evictions();
    let before = allocations();
    for _ in 0..32 {
        let scored = cold_engine.score(&serve_model, &cold_queries).unwrap();
        assert_eq!(scored.num_queries(), 24);
    }
    assert_eq!(
        allocations() - before,
        0,
        "cold serving on a full cache must not allocate"
    );
    assert_eq!(cold_engine.cache_hit_rate(), 0.0, "every lookup must miss");
    assert_eq!(
        cold_engine.cache_evictions() - evictions_before,
        32 * 24 * serve_model.num_tables() as u64,
        "every miss must recycle a victim"
    );

    // ---- One model, trained and served ---------------------------------
    // The `&self` dense forward shares nothing with the step but weights:
    // the step's activations live in the trainer's scratch, the engine's
    // in its own. So the trainer's own model, scored through an engine
    // between two of its steps, reads what `predict` reads, bit for bit
    // (one lookup a sample, so casted and index pooling order coincide).
    let shared_cfg = DlrmConfig {
        tables: vec![
            TableConfig {
                rows: 50,
                pooling: 1,
                zipf_exponent: 0.0,
            };
            2
        ],
        ..DlrmConfig::tiny()
    };
    let mut shared_data =
        SyntheticCtr::new(shared_cfg.table_workloads(), shared_cfg.dense_features, 61);
    let mut shared_workload = tensor_casting::serve::QueryModel::new(
        &shared_cfg.table_workloads(),
        shared_cfg.dense_features,
        4,
        tensor_casting::serve::CandidateCount::Fixed(3),
        1.0,
        43,
    );
    let shared_queries: Vec<_> = (0..4).map(|_| shared_workload.draw()).collect();
    let mut shared = Trainer::new(shared_cfg, BackwardMode::Casted, 33).unwrap();
    let mut shared_engine = tensor_casting::serve::ServeEngine::with_defaults(shared.model());
    for _ in 0..2 {
        shared.step(&shared_data.next_batch(batch)).unwrap();
        let model = shared.model();
        let scored = shared_engine.score(model, &shared_queries).unwrap();
        for (i, q) in shared_queries.iter().enumerate() {
            let want = model.predict(&q.dense, &q.indices).unwrap();
            let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(scored.scores(i)), bits(want.as_slice()), "query {i}");
        }
    }

    // ---- Snapshot publication: warm slab copy into recycled buffers ---
    // The concurrent train-and-serve publish path: once the store's
    // circulating buffer census is warm (current + retained ring + one
    // free buffer), every further publish recycles an unpinned buffer —
    // the slab copy lands in place (`copy_weights_from`), the ring
    // rotates within warmed VecDeque capacity, and the version counter
    // is an atomic store. Nothing allocates.
    let snap_store = tensor_casting::snapshot::SnapshotStore::new(&serve_model, 0, 2);
    for s in 1..=4u64 {
        snap_store.publish(&serve_model, s);
    }
    let before = allocations();
    for s in 5..=14u64 {
        snap_store.publish(&serve_model, s);
    }
    assert_eq!(
        allocations() - before,
        0,
        "warm snapshot publish steady state must not allocate"
    );

    // ---- Prefetched batch source: warm checkout/recycle ---------------
    // A PrefetchSource generates on a producer thread and refills
    // buffers the consumer recycles across the thread boundary. Once
    // the circulating buffer pool is warm (capacity + 2 batches), a
    // checkout/recycle cycle allocates nothing on EITHER thread: the
    // consumer's pop/park are queue operations within warmed capacity,
    // and the producer's refill goes through the `*_into` forms into a
    // recycled CtrBatch (reseeded cached samplers, no CDF rebuild).
    // The producer opts itself into the allocation counter through this
    // wrapper — tracking is thread-local precisely so that *untracked*
    // harness threads don't pollute the counter, but the producer is
    // part of the contract under test.
    struct TrackedSource(SyntheticSource);
    impl BatchSource for TrackedSource {
        fn next_batch(&mut self) -> Option<Arc<CtrBatch>> {
            TRACKING.with(|t| t.set(true));
            self.0.next_batch()
        }
        fn recycle(&mut self, batch: Arc<CtrBatch>) {
            self.0.recycle(batch);
        }
    }
    let prefetch_tables = vec![
        TableWorkload::new(
            Popularity::Zipf {
                rows: 500,
                exponent: 1.0,
            },
            4,
        ),
        TableWorkload::new(Popularity::Uniform { rows: 200 }, 2),
    ];
    let inner = TrackedSource(SyntheticSource::new(
        SyntheticCtr::new(prefetch_tables, 8, 51),
        batch,
    ));
    let capacity = 2;
    let mut prefetched = PrefetchSource::new(inner, capacity);
    // Warm-up: let the buffer pool reach its steady census (the
    // producer allocates at most capacity + 2 CtrBatches, ever).
    for _ in 0..12 {
        let b = prefetched.next_batch().expect("endless");
        prefetched.recycle(b);
    }
    // Quiesce: with the consumer idle the producer fills the queue to
    // capacity and parks on its send *before* generating another batch,
    // so no producer-side work races the measurement below.
    let quiesce = |p: &PrefetchSource<TrackedSource>| {
        let deadline = Instant::now() + Duration::from_secs(10);
        while p.ready_len() < capacity {
            assert!(Instant::now() < deadline, "producer never filled the queue");
            std::thread::yield_now();
        }
    };
    // ... and let it park there once: std allocates a thread's wait
    // context and a channel's waiter slot on the first blocking send (a
    // send that finds room while spinning does not park). A round whose
    // wait lasts most of the consumer's pause shows a park; each batch
    // carries the wait before it, so it arrives capacity + 1 checkouts
    // after the pause.
    loop {
        let waited = prefetched.stats().producer_wait;
        quiesce(&prefetched);
        std::thread::sleep(Duration::from_millis(5));
        for _ in 0..=capacity {
            let b = prefetched.next_batch().expect("endless");
            prefetched.recycle(b);
        }
        if prefetched.stats().producer_wait - waited >= Duration::from_millis(1) {
            break;
        }
    }
    quiesce(&prefetched);

    let before = allocations();
    for _ in 0..10 {
        let b = prefetched.next_batch().expect("endless");
        prefetched.recycle(b);
    }
    quiesce(&prefetched);
    assert_eq!(
        allocations() - before,
        0,
        "warm prefetch checkout/recycle steady state must not allocate \
         (is the producer rebuilding samplers or allocating fresh batches?)"
    );

    // The bounded-queue half of the contract, under the slowest
    // possible consumer (one that stopped consuming): the producer must
    // hold at `capacity` ready batches, not run ahead.
    let produced_at_cap = prefetched.stats().produced;
    std::thread::sleep(Duration::from_millis(25));
    let stats = prefetched.stats();
    assert_eq!(
        stats.produced, produced_at_cap,
        "producer kept generating past the bounded-queue cap"
    );
    assert!(
        stats.max_ready <= capacity,
        "ready-queue high-water {} exceeded the capacity {capacity}",
        stats.max_ready
    );

    // ---- SIMD kernel tiers ---------------------------------------------
    // The runtime-dispatched kernels must be allocation-free on every
    // tier the host supports: the AVX2/FMA paths are straight-line
    // intrinsic loops over caller-owned slices, and tier selection is an
    // atomic load (the env read behind the OnceLock happened at first
    // dispatch, during warm-up). Certified by forcing each tier through
    // the same warmed embedding step and a GEMM round-trip.
    use tensor_casting::tensor::simd;
    let a = random_matrix(48, 33, 21); // ragged shapes: every vector tail runs
    let b = random_matrix(33, 29, 22);
    let at_rhs = random_matrix(48, 29, 23); // a^T * at_rhs: 33 x 29
    let bt = random_matrix(29, 33, 24); // a * bt^T: 48 x 29
    let mut gemm_out = Matrix::zeros(48, 29);
    let mut at_out = Matrix::zeros(33, 29);
    let mut bt_out = Matrix::zeros(48, 29);
    for tier in simd::KernelDispatch::available() {
        simd::force(Some(tier));
        // Warm under this tier (the first forced dispatch resolves the
        // feature-detection caches, which must not count either way).
        embedding_step(&mut pooled, &mut blocks, &mut table, &mut sgd);
        a.matmul_into_with(&b, &mut gemm_out, tier).unwrap();

        let before = allocations();
        for _ in 0..5 {
            embedding_step(&mut pooled, &mut blocks, &mut table, &mut sgd);
            stateful_scatter(&coalesced, &mut ada_table, &mut ada);
            stateful_scatter(&coalesced, &mut adam_table, &mut adam);
            a.matmul_into_with(&b, &mut gemm_out, tier).unwrap();
            a.matmul_at_into_with(&at_rhs, &mut at_out, tier).unwrap();
            a.matmul_bt_into_with(&bt, &mut bt_out, tier).unwrap();
        }
        assert_eq!(
            allocations() - before,
            0,
            "{} kernel tier must not allocate in steady state",
            tier.name()
        );
    }
    simd::force(None);
}
