//! The zero-allocation steady-state invariant, enforced with a counting
//! global allocator: after a warm-up step sizes every scratch buffer to
//! its high-water mark, the embedding/MLP hot-path kernels perform **no
//! heap allocation per step** on their serial `_into` paths. That now
//! includes the *stateful* optimizer scatter (the dense per-row state
//! stops growing once warmed), the cast itself into recycled arrays, the
//! cast a casted training step with no lane runs on the training thread,
//! a trainer lent a pool (it allocates exactly as a serial one does),
//! and a served batch under the engine's split floor, of queries it has
//! seen or not, repeated within the batch or not; a batch that splits is
//! bounded at one pool scope, however large its dense stack.
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
    CastedIndexArray,
};
use tensor_casting::dlrm::{
    BackwardMode, DlrmConfig, EmbeddingOptimizer, Execution, TableConfig, Trainer,
};
use tensor_casting::embedding::{
    gather_reduce_into, gradient_coalesce_into, gradient_expand_into,
    optim::{RowOptimizer, UpdateRule},
    scatter_apply_coalesced, BlockScratch, CoalescedGradients, EmbeddingTable, IndexArray,
    RadixScratch,
};
use tensor_casting::tensor::{
    bce_with_logits, bce_with_logits_backward_into, Exec, FeatureInteraction, Matrix, Mlp,
    MlpInferenceScratch, Pool, SplitMix64,
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

// SAFETY: every method forwards to `System`, a valid allocator, with the
// caller's arguments unchanged; counting touches no allocation.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_here();
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s
        // contract (a non-zero-size `layout`) for `System` as for us.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: every block this allocator hands out came from `System`
        // with this `layout`, which the caller passes back unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_here();
        // SAFETY: `ptr` came from `System` with `layout` (as in `dealloc`),
        // and the caller upholds `realloc`'s contract on `new_size`.
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
    // The casted index array is cast ahead in real training (off the
    // critical path); here it is fixed input.
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
        blocked_casted_backward(table, sgd, &upstream, &casted, blocks).unwrap();
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
    // What the trainer's casts and a full serving cache run: the radix
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
    let mut coalesced = CoalescedGradients::default();
    casted_gather_reduce_into(&upstream, &casted, &mut coalesced).unwrap();

    // ---- Baseline expand-coalesce through recycled scratch ------------
    // The baseline backward still materializes its n x D expand and runs
    // Algorithm 1's argsort + accumulate every step (that cost is the
    // paper's subject) — but via `_into` forms its steady state touches
    // only recycled buffers. The argsort is the radix sort the cast runs,
    // through the scratch's own ping-pong buffers.
    let mut base_table = EmbeddingTable::seeded(500, dim, 9);
    let mut base_sgd = RowOptimizer::new(SGD);
    let mut expanded = Matrix::default();
    let mut base_coalesced = CoalescedGradients::default();
    let mut base_radix = RadixScratch::default();

    let mut baseline_step = |expanded: &mut Matrix,
                             coalesced: &mut CoalescedGradients,
                             table: &mut EmbeddingTable,
                             sgd: &mut RowOptimizer| {
        gradient_expand_into(&upstream, &index, expanded).unwrap();
        gradient_coalesce_into(expanded, &index, coalesced, &mut base_radix).unwrap();
        scatter_apply_coalesced(table, sgd, coalesced).unwrap();
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

    // ---- Stateful-optimizer scatter (dense per-row state) -------------
    // Every scatter grows the state store, up front, to just past its
    // last row; once the warm-up has covered the batch's highest row,
    // further scatters (including Adam's per-row step counts) allocate
    // nothing.
    let mut ada_table = EmbeddingTable::seeded(500, dim, 11);
    let mut ada = RowOptimizer::new(ADAGRAD);
    let mut adam_table = EmbeddingTable::seeded(500, dim, 12);
    let mut adam = RowOptimizer::new(ADAM);

    let stateful_scatter =
        |coalesced: &CoalescedGradients, table: &mut EmbeddingTable, opt: &mut RowOptimizer| {
            scatter_apply_coalesced(table, opt, coalesced).unwrap();
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

    // ---- A failed casted step leaves the warm steps after it alone -----
    // `Trainer::step` casts the batch in-step, into the trainer's recycled
    // arrays, right before its embedding backward; a step that fails
    // earlier, in forward (here: an embedding id past its table), casts
    // nothing. So `good, BAD, good x 32` must end bit-equal (losses and
    // weights) to the same 33 good steps without the bad one, and its 32
    // steps after the error must allocate nothing on the training thread,
    // like any warm casted steps. (One batch throughout, so the first
    // step already sizes every scratch buffer to its high-water mark.)
    let cfg = DlrmConfig::tiny();
    let good = SyntheticCtr::new(cfg.table_workloads(), cfg.dense_features, 71).next_batch(32);
    let bad = {
        let mut indices = good.indices.to_vec();
        let past_the_table = cfg.table_workloads()[0].rows() as u32;
        indices[0] = IndexArray::from_samples(&vec![vec![past_the_table]; 32]).unwrap();
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
        "32 steps after a failed step allocated on the training thread"
    );
    assert_eq!(survivor_losses, clean_losses);
    for t in 0..clean.model().num_tables() {
        assert_eq!(
            survivor.model().table(t).as_slice(),
            clean.model().table(t).as_slice(),
            "table {t} diverged after the failed step"
        );
    }

    // ---- A lent pool runs the serial trainer's step ---------------------
    // `Execution` only says who owns the lane: a trainer lent a two-worker
    // pool runs the step a serial trainer runs, so its steady-state steps
    // allocate on the training thread exactly as often — none for a plain
    // step, the lane scopes' state and boxed tasks for a completion with a
    // successor (every product of `tiny` is under the split floor) — and
    // train the same bits.
    let lent = Arc::new(Pool::new(2));
    let ping_pong = [good.clone(), good.clone()].map(Arc::new);
    for mode in [BackwardMode::Baseline, BackwardMode::Casted] {
        let run = |execution: Execution| {
            let opt = EmbeddingOptimizer::Sgd;
            let mut t = Trainer::with_execution(cfg.clone(), mode, opt, execution, 5).unwrap();
            let mut losses = Vec::with_capacity(2 * 3 * 8);
            let mut counts = Vec::new();
            for lookahead in [false, true] {
                for round in 0..3 {
                    let before = allocations();
                    for i in 0..8 {
                        let next = lookahead.then(|| &ping_pong[(i + 1) % 2]);
                        let report = t.complete_step(&ping_pong[i % 2], next).unwrap();
                        losses.push(report.loss.to_bits());
                    }
                    // The first round of each kind warms its buffers.
                    if round > 0 {
                        counts.push(allocations() - before);
                    }
                }
            }
            (counts, losses)
        };
        let (serial_counts, serial_losses) = run(Execution::Serial);
        let (lent_counts, lent_losses) = run(Execution::Pooled(Arc::clone(&lent)));
        assert_eq!(
            &serial_counts[..2],
            [0, 0],
            "{mode:?}: plain steps allocated"
        );
        assert_eq!(
            lent_counts, serial_counts,
            "{mode:?}: a lent pool's steps allocated unlike the serial trainer's"
        );
        assert_eq!(lent_losses, serial_losses, "{mode:?}");
    }

    // ---- MLP forward + loss + backward + update -----------------------
    let mut mlp = Mlp::new(dim, &[32, 16, 1], 3).unwrap();
    let x = random_matrix(batch, dim, 4);
    let labels = random_matrix(batch, 1, 5).map(|v| if v > 0.0 { 1.0 } else { 0.0 });
    let mut scratch = MlpInferenceScratch::default();
    let mut logits = Matrix::default();
    let mut dlogits = Matrix::default();
    let mut dx = Matrix::default();

    // Step `i` updates inside the backward when odd, after it when even.
    let mut mlp_step = |mlp: &mut Mlp,
                        x: &Matrix,
                        exec: Exec<'_>,
                        logits: &mut Matrix,
                        dlogits: &mut Matrix,
                        dx: &mut Matrix,
                        i: usize| {
        mlp.forward_into(x, &mut scratch, logits, exec).unwrap();
        let loss = bce_with_logits(logits, &labels).unwrap();
        assert!(loss.is_finite());
        bce_with_logits_backward_into(logits, &labels, dlogits).unwrap();
        let in_band = (i % 2 == 1).then_some(0.05);
        mlp.backward_into(x, &mut scratch, dlogits, Some(dx), in_band, exec)
            .unwrap();
        mlp.apply_update(0.05);
    };

    // Serially, and under the `Exec` a serial trainer hands its dense
    // phases (a one-worker lane, two bands): every product of this stack
    // is under the split floor, so the lane is never touched and the step
    // allocates as little as the serial one.
    let lane = Pool::new(1);
    let lane_exec = Exec::pooled(&lane);
    for exec in [Exec::Serial, lane_exec] {
        mlp_step(&mut mlp, &x, exec, &mut logits, &mut dlogits, &mut dx, 0);
        mlp_step(&mut mlp, &x, exec, &mut logits, &mut dlogits, &mut dx, 1);

        let before = allocations();
        for i in 0..10 {
            mlp_step(&mut mlp, &x, exec, &mut logits, &mut dlogits, &mut dx, i);
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
        .backward_into(
            &x,
            &mut never_filled,
            &dlogits,
            Some(&mut dx),
            None,
            Exec::Serial
        )
        .is_err());
    assert!(mlp
        .backward_into(
            &x,
            &mut never_filled,
            &Matrix::default(),
            Some(&mut dx),
            Some(0.05),
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
        0,
    );
    assert_eq!(
        allocations() - before,
        0,
        "a step after a rejected backward allocated: were the spare gradient buffers dropped?"
    );

    // A stack whose first layer sits exactly on the floor at this batch
    // does split on the lane, and what that costs the calling thread is
    // bounded: per scope its shared state and one boxed task per thread,
    // never one per claimed block (the cursor lives on the stack). The
    // layer's weight outgrows the batch both ways (256 > 64), so both
    // scopes cut the weight: two tasks claim the forward's four blocks of
    // columns, and one task its backward's one block of rows, running its
    // `dX` columns and then its `dW` rows (and, on odd steps, the update
    // of those rows). Everything else is recycled as before.
    let mut wide = Mlp::new(256, &[256, 1], 3).unwrap();
    assert!(wide.splits_at(batch));
    let wide_x = random_matrix(batch, 256, 4);
    for i in 0..2 {
        mlp_step(
            &mut wide,
            &wide_x,
            lane_exec,
            &mut logits,
            &mut dlogits,
            &mut dx,
            i,
        );
    }
    let before = allocations();
    for i in 0..4 {
        mlp_step(
            &mut wide,
            &wide_x,
            lane_exec,
            &mut logits,
            &mut dlogits,
            &mut dx,
            i,
        );
    }
    let split_allocs = allocations() - before;
    assert!(
        split_allocs <= 4 * ((1 + 2) + (1 + 2)),
        "4 split MLP steps allocated {split_allocs} times on the calling thread"
    );

    // ---- Feature interaction (dot) forward + backward -----------------
    // RM1's shape, 11 features of 64, over whole 8-row blocks and a tail:
    // the SIMD tiers' stack tile and register rows, and the scalar rows.
    let (rows, width) = (67, 64);
    let dense = random_matrix(rows, width, 6);
    let embeddings: Vec<Matrix> = (0..10).map(|t| random_matrix(rows, width, 7 + t)).collect();
    let op = FeatureInteraction;
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

    // ---- Serve engine: fused scoring ----------------------------------
    // Once the fused buffers are sized, scoring a batch allocates nothing:
    // offsets/dense/pooled/logits recycle, each bag pools through the
    // training forward's loop straight into the query's rows of the
    // recycled pooled matrix, and the dense stack runs through the
    // caller-owned inference scratch.
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

    // Warm-up: size the fused buffers.
    engine.score(&serve_model, &serve_queries).unwrap();

    let before = allocations();
    for _ in 0..10 {
        let scored = engine.score(&serve_model, &serve_queries).unwrap();
        assert_eq!(scored.num_queries(), 8);
    }
    assert_eq!(
        allocations() - before,
        0,
        "fused serving steady state must not allocate"
    );

    // ---- Serve engine: queries it has never seen ----------------------
    // The engine keeps nothing per query, so new queries cost what repeats
    // cost: after the first batch sizes the buffers, 32 batches of catalog
    // entries the engine has never scored allocate nothing.
    let new_workload = tensor_casting::serve::QueryModel::new(
        &serve_cfg.table_workloads(),
        serve_cfg.dense_features,
        33 * 8,
        tensor_casting::serve::CandidateCount::Fixed(3),
        0.0,
        47,
    );
    let new_batches: Vec<Vec<_>> = (0..33)
        .map(|b| {
            (0..8)
                .map(|i| Arc::clone(new_workload.query(b * 8 + i)))
                .collect()
        })
        .collect();
    let mut new_engine = tensor_casting::serve::ServeEngine::with_defaults(&serve_model);
    new_engine.score(&serve_model, &new_batches[0]).unwrap();
    let before = allocations();
    for batch in &new_batches[1..] {
        let scored = new_engine.score(&serve_model, batch).unwrap();
        assert_eq!(scored.num_queries(), 8);
    }
    assert_eq!(
        allocations() - before,
        0,
        "scoring queries the engine has never seen must not allocate"
    );

    // ---- Serve engine: queries repeated within a batch -----------------
    // A repeat is matched by pointer and takes its first occurrence's rows
    // through the engine's recycled slot map, distinct offsets and
    // distinct logits: batches of changing repeat patterns, none longer
    // or wider than the warm-up, allocate nothing.
    let [a, b, c] = [0, 1, 2].map(|i| serve_workload.query(i));
    let repeat_batches = [[a, b, a, a, c, b], [a, a, a, a, a, a], [c, b, a, c, b, a]]
        .map(|batch| batch.map(Arc::clone));
    let mut repeat_engine = tensor_casting::serve::ServeEngine::with_defaults(&serve_model);
    for batch in &repeat_batches {
        repeat_engine.score(&serve_model, batch).unwrap();
    }
    let before = allocations();
    for batch in repeat_batches.iter().cycle().take(12) {
        let scored = repeat_engine.score(&serve_model, batch).unwrap();
        assert_eq!(scored.num_queries(), 6);
    }
    assert_eq!(
        allocations() - before,
        0,
        "batches of repeated queries under the split floor must not allocate"
    );

    // ---- Serve engine: a batch that splits -----------------------------
    // A batch of at least the engine's split floor (1,024 lookups) is cut
    // into two bands of sample rows, one scored on the engine's own lane.
    // The one thing that allocates on the calling thread is that pool
    // scope: its state and one boxed task for the band the lane's worker
    // takes.
    let split_cfg = DlrmConfig {
        tables: vec![
            TableConfig {
                rows: 500,
                pooling: 80,
                zipf_exponent: 1.0,
            };
            10
        ],
        ..DlrmConfig::tiny()
    };
    let split_model = tensor_casting::dlrm::Dlrm::new(split_cfg.clone(), 37).unwrap();
    let split_workload = tensor_casting::serve::QueryModel::new(
        &split_cfg.table_workloads(),
        split_cfg.dense_features,
        4,
        tensor_casting::serve::CandidateCount::Fixed(3),
        1.0,
        53,
    );
    // 4 queries x 3 candidates x 10 tables x 80 lookups: 9,600 lookups.
    let split_queries: Vec<_> = (0..4)
        .map(|i| Arc::clone(split_workload.query(i)))
        .collect();
    let mut split_engine = tensor_casting::serve::ServeEngine::with_defaults(&split_model);
    split_engine.score(&split_model, &split_queries).unwrap();
    let split_batches = 10;
    let before = allocations();
    for _ in 0..split_batches {
        let scored = split_engine.score(&split_model, &split_queries).unwrap();
        assert_eq!(scored.num_queries(), 4);
    }
    let split_allocs = allocations() - before;
    assert!(
        split_allocs <= 2 * split_batches,
        "a split batch allocates one pool scope on the calling thread (state + one task), \
         {split_allocs} over {split_batches} batches"
    );

    // The same with repeats: three distinct queries (7,200 lookups) in a
    // batch of six still split, and still allocate one scope's 2.
    let [a, b, c] = [0, 1, 2].map(|i| &split_queries[i]);
    let split_repeats = [a, b, a, a, c, b].map(Arc::clone);
    split_engine.score(&split_model, &split_repeats).unwrap();
    let before = allocations();
    for _ in 0..split_batches {
        let scored = split_engine.score(&split_model, &split_repeats).unwrap();
        assert_eq!(scored.num_queries(), 6);
    }
    let split_allocs = allocations() - before;
    assert!(
        split_allocs <= 2 * split_batches,
        "a split batch of repeated queries allocates one pool scope on the calling thread, \
         {split_allocs} over {split_batches} batches"
    );

    // A band runs the whole dense stack on its own thread, so a batch
    // whose GEMMs reach the tensor crate's split floor opens no scope of
    // its own for them: 16 rows through a 512x512 bottom layer (a
    // 4M-multiply-add product) still allocate one scope's 2 a batch.
    let wide_cfg = DlrmConfig {
        bottom_mlp: vec![512, 512, 16],
        ..split_cfg.clone()
    };
    let wide_model = tensor_casting::dlrm::Dlrm::new(wide_cfg.clone(), 41).unwrap();
    assert!(wide_model.dense_splits_at(16));
    let wide_workload = tensor_casting::serve::QueryModel::new(
        &wide_cfg.table_workloads(),
        wide_cfg.dense_features,
        4,
        tensor_casting::serve::CandidateCount::Fixed(4),
        1.0,
        59,
    );
    let wide_queries: Vec<_> = (0..4).map(|i| Arc::clone(wide_workload.query(i))).collect();
    let mut wide_engine = tensor_casting::serve::ServeEngine::with_defaults(&wide_model);
    wide_engine.score(&wide_model, &wide_queries).unwrap();
    let before = allocations();
    for _ in 0..split_batches {
        let scored = wide_engine.score(&wide_model, &wide_queries).unwrap();
        assert_eq!(scored.num_samples(), 16);
    }
    let wide_allocs = allocations() - before;
    assert!(
        wide_allocs <= 2 * split_batches,
        "a split batch whose GEMMs reach the split floor still opens one pool scope, \
         {wide_allocs} over {split_batches} batches"
    );

    // ---- One model, trained and served ---------------------------------
    // The `&self` dense forward shares nothing with the step but weights:
    // the step's activations live in the trainer's scratch, the engine's
    // in its own. So the trainer's own model, scored through an engine
    // between two of its steps, reads what `predict` reads, bit for bit.
    let shared_cfg = DlrmConfig {
        tables: vec![
            TableConfig {
                rows: 50,
                pooling: 3,
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
    // tier the host supports: the AVX2 paths are straight-line
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
