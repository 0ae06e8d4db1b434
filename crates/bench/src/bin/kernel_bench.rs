//! Per-kernel throughput: scalar vs runtime-dispatched SIMD tiers.
//!
//! Where the repo benchmark (`benchmark/`) measures the end-to-end
//! training step and served query, this binary isolates the individual
//! hot kernels behind
//! [`tcast_tensor::simd::KernelDispatch`] and reports GFLOP/s (GEMM
//! family) and GB/s (gather/scatter family) for **every tier the host
//! supports**, on the bench suite's shapes: the MLP layer sizes, the
//! embedding dims {16, 32, 64}, and ragged non-multiple-of-8 shapes that
//! exercise the vector tails.
//!
//! Rows land in `BENCH_kernel.json` (override with `--json PATH` or
//! `TCAST_BENCH_JSON`); every row carries a `dispatch` field naming the
//! tier it measured, so the perf trajectory of each tier is separable.
//!
//! ```text
//! kernel_bench [--iters N] [--json PATH]
//! ```
//!
//! `FAST=1` shrinks shapes and iteration counts for smoke runs. The
//! `KERNEL <name> simd/scalar ratio` (`interaction`: forward plus
//! backward), `KERNEL <name> cold`, `KERNEL linear_fwd lane/serial
//! ratio`, `KERNEL linear_bwd lane/serial ratio`, `KERNEL linear_bwd
//! late-caller lane/serial ratio`, `KERNEL gemm lanes`,
//! `KERNEL gemm_bt lanes`, `KERNEL cast`, `KERNEL cast_into` and
//! `KERNEL zipf_sample ns/draw` lines are CI's grep anchors.
//!
//! A GEMM-family row's `peak_frac` is read against the multiply-add peak
//! measured at the register width its kernels run at, named by its `lanes`
//! field: 16 (`zmm`) where the host has AVX-512F, 8 (`ymm`) otherwise.
//! `KERNEL gemm lanes <n>` prints the `NN` / `TN` width of the
//! auto-detected tier, `KERNEL gemm_bt lanes <n>` the `NT` one.
//!
//! The `linear_fwd` / `linear_bwd` / `mlp_step` rows time a whole dense
//! layer (and a whole MLP training step) of the repo benchmark's two
//! models under the two schedules a serial trainer gives them: `exec`
//! `serial`, everything on the calling thread, and `lane`,
//! [`Exec::pooled`] over a one-worker pool, which `Trainer` hands its dense
//! phases: two tasks, the calling thread being the second pair of hands.
//! Their `peak_frac` is taken against **twice** the one-core multiply-add
//! peak — the ceiling of the two cores — for both schedules, so the two
//! rows of a pair read on one scale. The `linear_bwd` and `mlp_step` rows
//! whose shape ends in `late-caller` run the same work as a task on the
//! lane's worker while the calling thread busy-waits 1 ms before it joins,
//! as the training thread reaches the bottom MLP's GEMMs only after its
//! embedding backward: under `lane` the worker claims blocks of a
//! weight-cut product from the start and the caller claims what is left
//! once it arrives (`KERNEL linear_bwd late-caller lane/serial ratio`).
//!
//! The `interaction_fwd` / `interaction_bwd` rows time DLRM's `Dot`
//! feature interaction, forward and backward, at RM1's shape (11 feature
//! vectors of 64 at batch 512) on every tier, in GFLOP/s of its pair
//! multiply-adds.
//!
//! The gather/scatter family is measured twice. The *warm* rows repeat one
//! batch over a 100k-row table: everything is L3-resident after the first
//! call, so they show the kernels' instruction cost. The *cold* rows are
//! the regime the paper is about: a table four times the L3 (1 GB; a
//! 16 MB table under `FAST`, still past the L2) and a fresh batch of rows
//! on every call, so each row touched is a DRAM miss — each row carries
//! `peak_frac`, its DRAM traffic rate against a bare random-row read
//! measured on the same table right before it.
//!
//! The `cast` rows time the casting stage itself (Algorithm 2,
//! `tensor_casting`) in ns a lookup, on Zipf batches over a small and a
//! large id space; the cast is a sort and a scan, so it has no tiers. The
//! `cast_into` rows time the same batches through `tensor_casting_into`
//! into a recycled array and sort scratch — what the trainer's cast-ahead
//! task and a full serving cache run.
//!
//! The `zipf_sample` rows time one Zipf(1.05) lookup draw
//! (`CdfSampler::sample_many`, 4096 at a time) in ns, over 10k and 400k
//! rows, and the `synthetic_batch` row a whole generated RM1 batch (ten
//! 400k-row tables, batch 512, refilled in place) in ms: the generation
//! that a streamed training run or an online serving update waits on.
//!
//! Full-size runs on multi-core hosts gate the dispatch layer's reason to
//! exist: AVX2 GEMM must reach at least 2x scalar and AVX2 gather-reduce
//! at least 1.2x scalar (single-core containers report without failing —
//! the SIMD win is per-core, but tiny containers throttle too
//! unpredictably to gate on).

use std::path::PathBuf;
use std::time::{Duration, Instant};

use tcast_bench::{banner, fast_mode, json};
use tcast_core::{
    blocked_casted_backward, casted_gather_reduce_into, tensor_casting, tensor_casting_into,
    CastedIndexArray,
};
use tcast_datasets::{CtrBatch, Popularity, SyntheticCtr, TableWorkload};
use tcast_embedding::{
    gather_reduce_into,
    optim::{RowOptimizer, UpdateRule},
    scatter_apply, scatter_apply_coalesced, BlockScratch, CoalescedGradients, EmbeddingTable,
    IndexArray, RadixScratch,
};
use tcast_pool::{Exec, Pool};
use tcast_tensor::{
    simd, FeatureInteraction, KernelDispatch, Linear, Matrix, Mlp, MlpInferenceScratch, SplitMix64,
};

const ADAGRAD: UpdateRule = UpdateRule::Adagrad {
    lr: 0.01,
    eps: 1e-8,
};

struct Args {
    iters: usize,
    json: PathBuf,
}

fn parse_args() -> Args {
    let fast = fast_mode();
    let mut args = Args {
        iters: if fast { 3 } else { 30 },
        json: json::sink_from_env().unwrap_or_else(|| PathBuf::from("BENCH_kernel.json")),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .unwrap_or_else(|| panic!("{name} requires a value"))
        };
        match flag.as_str() {
            "--iters" => args.iters = value("--iters").parse().expect("--iters: integer"),
            "--json" => args.json = PathBuf::from(value("--json")),
            other => panic!("unknown flag {other}"),
        }
    }
    args
}

fn random_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = SplitMix64::new(seed);
    let mut m = Matrix::zeros(rows, cols);
    for v in m.as_mut_slice() {
        *v = rng.next_range(-1.0, 1.0);
    }
    m
}

/// Warm twice, then the median of `iters` individually timed runs: one
/// stall of the shared host moves a mean by whole multiples (a 20 us
/// kernel, a 5 ms stall) and a median not at all.
fn time_ns(iters: usize, mut f: impl FnMut()) -> f64 {
    time_ns_fresh(iters, || (), |&()| f())
}

/// [`time_ns`] for a kernel that must not see the same input twice: every
/// call (warm-ups included) gets a fresh input from `next`, built outside
/// the clock.
fn time_ns_fresh<B>(iters: usize, mut next: impl FnMut() -> B, mut f: impl FnMut(&B)) -> f64 {
    let mut ns: Vec<f64> = (0..iters.max(1) + 2)
        .map(|_| {
            let input = next();
            let t0 = Instant::now();
            f(&input);
            t0.elapsed().as_secs_f64() * 1e9
        })
        .skip(2)
        .collect();
    ns.sort_by(f64::total_cmp);
    ns[ns.len() / 2]
}

/// Timed calls in one block of [`time_serial_and_lane_ns`].
const EXEC_BLOCK: usize = 6;

/// Median ns of `f(Exec::Serial)` and of `f(lane)` over `iters` timed calls
/// each, taken in alternating blocks of [`EXEC_BLOCK`] calls: this host's
/// clock sits on plateaus that outlast a loop, so two whole loops would
/// compare two plateaus, while inside a lane block the worker is used
/// back to back and stays polling, as it does through a training step.
/// The first call of every block is warm-up and not counted.
fn time_serial_and_lane_ns(iters: usize, lane: &Pool, mut f: impl FnMut(Exec<'_>)) -> [f64; 2] {
    let execs = [Exec::Serial, Exec::pooled(lane)];
    let mut ns = [Vec::new(), Vec::new()];
    while ns[1].len() < iters.max(1) {
        for (exec, ns) in execs.iter().zip(ns.iter_mut()) {
            for call in 0..=EXEC_BLOCK {
                let t0 = Instant::now();
                f(*exec);
                if call > 0 {
                    ns.push(t0.elapsed().as_secs_f64() * 1e9);
                }
            }
        }
    }
    ns.map(|mut ns| {
        ns.sort_by(f64::total_cmp);
        ns[ns.len() / 2]
    })
}

/// Keeps the calling thread and the lane's worker both busy for `wall`, in
/// 2 ms slices. On the host these rows are committed from, a worker woken
/// after the process has run single-threaded for seconds starts on its
/// waker's vCPU and the guest leaves the two threads there for a second or
/// two, however busy they are (`/proc/thread-self/stat` shows one CPU for
/// both; a split GEMM then reads 1.0-1.2x the *serial* time). Once spread
/// they stay spread. A training loop is past that after its first seconds;
/// the single-threaded sections before the dense-layer rows put this
/// process back at the start.
fn warm_both_cores(lane: &Pool, wall: Duration) {
    let spin = || spin_for(Duration::from_millis(2));
    let t0 = Instant::now();
    while t0.elapsed() < wall {
        lane.scope(|s| {
            s.spawn(spin);
            spin();
        });
    }
}

/// Busy-waits for `wall` on the calling thread.
fn spin_for(wall: Duration) {
    let t0 = Instant::now();
    while t0.elapsed() < wall {
        std::hint::spin_loop();
    }
}

/// How long the calling thread of a late-caller row stays away before it
/// joins the lane: about what `train_dense`'s training thread spends in
/// the embedding backward and the gathers ahead while the lane's worker
/// runs the bottom MLP's wide layer.
const LATE_CALLER: Duration = Duration::from_millis(1);

/// Runs `work` as a task on `lane`'s worker while the calling thread first
/// busy-waits for [`LATE_CALLER`] and only then joins the scope (helping,
/// as `Pool::scope` does): a GEMM the worker opens on the lane waits for
/// its second pair of hands as the bottom MLP's does on the training
/// thread beside the embedding backward. Under `Exec::Serial` the worker
/// runs the whole of `work` alone.
fn late_caller(lane: &Pool, work: impl FnOnce() + Send) {
    lane.scope(|s| {
        s.spawn(work);
        spin_for(LATE_CALLER);
    });
}

/// The rows of a table in one shuffled order, handed out a batch at a
/// time: no row comes back until every other row has been handed out, so
/// by then it has long left the cache.
struct ColdRows {
    order: Vec<u32>,
    cursor: usize,
}

/// One cold call's inputs, all over the same `lookups` distinct rows.
struct ColdBatch {
    /// `batch` samples of `pooling` lookups, in shuffled order.
    index: IndexArray,
    /// The same lookups, cast (what the trainer's cast-ahead would deliver).
    casted: CastedIndexArray,
    /// The rows ascending, with one gradient row each: a coalesced
    /// gradient as the baseline backward hands it to the scatter.
    coalesced: CoalescedGradients,
}

impl ColdRows {
    fn new(rows: usize, seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed);
        let mut order: Vec<u32> = (0..rows as u32).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.next_below(i as u64 + 1) as usize);
        }
        Self { order, cursor: 0 }
    }

    /// The next `n` rows of the order (wrapping to its start).
    fn take(&mut self, n: usize) -> &[u32] {
        if self.cursor + n > self.order.len() {
            self.cursor = 0;
        }
        self.cursor += n;
        &self.order[self.cursor - n..self.cursor]
    }

    fn batch(&mut self, batch: usize, pooling: usize, grads: &Matrix) -> ColdBatch {
        let rows = self.take(batch * pooling);
        let samples: Vec<Vec<u32>> = rows.chunks(pooling).map(<[u32]>::to_vec).collect();
        let index = IndexArray::from_samples(&samples).unwrap();
        let casted = tensor_casting(&index);
        let coalesced = CoalescedGradients::new(casted.unique_rows().to_vec(), grads.clone())
            .expect("cast rows are ascending and unique");
        ColdBatch {
            index,
            casted,
            coalesced,
        }
    }
}

/// GB/s of reading `lookups` fresh random rows of `table` and doing nothing
/// with them: every cache line of a row is loaded once (one lane of it
/// summed), rows are prefetched well past the kernels' own window, nothing
/// is stored. What this host's memory system delivers to a row-granular
/// random read — the ceiling the cold rows' `peak_frac` is taken against.
fn random_row_read_gbps(
    table: &EmbeddingTable,
    cold: &mut ColdRows,
    lookups: usize,
    iters: usize,
) -> f64 {
    const AHEAD: usize = 4 * simd::PREFETCH_WINDOW;
    const LINE: usize = 64 / std::mem::size_of::<f32>();
    let ns = time_ns_fresh(
        iters,
        || cold.take(lookups).to_vec(),
        |rows| {
            let mut sum = 0.0f32;
            for (k, &row) in rows.iter().enumerate() {
                if let Some(&ahead) = rows.get(k + AHEAD) {
                    simd::prefetch(table.row(ahead as usize));
                }
                sum += table.row(row as usize).iter().step_by(LINE).sum::<f32>();
            }
            std::hint::black_box(sum);
        },
    );
    (lookups * table.dim() * 4) as f64 / ns
}

/// Register width, in `f32` lanes, that tier `tier`'s GEMM kernels run at
/// on this host, and so the width of the ceiling a GEMM-family row is read
/// against. `simd`'s dispatch runs all three products (`gemm`, `gemm_at`,
/// `gemm_bt`, and the `linear_*` / `mlp_step` rows, which are those) on
/// 16-lane `zmm` registers where the host has AVX-512F, on 8-lane `ymm`
/// ones otherwise. Scalar rows keep the 8-lane ceiling.
fn gemm_lanes(tier: KernelDispatch) -> usize {
    #[cfg(target_arch = "x86_64")]
    if tier != KernelDispatch::Scalar && std::arch::is_x86_feature_detected!("avx512f") {
        return 16;
    }
    let _ = tier;
    8
}

/// The ceiling a row's `peak_frac` is read against: its rate in the row's
/// unit and, for the GEMM family, the register width (`lanes`) the rate was
/// measured at.
#[derive(Clone, Copy)]
struct Ceiling {
    rate: f64,
    lanes: Option<usize>,
}

/// GFLOP/s of independent multiply and add dependency chains held in
/// `lanes`-wide registers (8: `ymm`, 16: `zmm`), in the 1:1 mix of
/// separate multiplies and adds the GEMM kernels issue: the arithmetic
/// ceiling they can approach on this host at that width. `None` where the
/// host lacks the instructions.
fn madd_peak(lanes: usize) -> Option<Ceiling> {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::*;
        const CHAINS: usize = 7; // of each kind: 14 of the 16 `ymm` registers
        const ROUNDS: usize = 400_000;

        // mul chains hold at 1.0 (x = 1.0), add chains count up to ROUNDS
        // (exact in f32): no denormals, no infinities.
        #[target_feature(enable = "avx2")]
        fn rounded() -> usize {
            let x = _mm256_set1_ps(std::hint::black_box(1.0));
            let mut mul = [x; CHAINS];
            let mut add = [_mm256_setzero_ps(); CHAINS];
            for _ in 0..ROUNDS {
                for (m, a) in mul.iter_mut().zip(add.iter_mut()) {
                    *m = _mm256_mul_ps(*m, x);
                    *a = _mm256_add_ps(*a, x);
                }
            }
            std::hint::black_box((mul, add));
            CHAINS * ROUNDS * 16 // one mul and one add on each of 8 lanes
        }
        #[target_feature(enable = "avx512f")]
        fn rounded_zmm() -> usize {
            let x = _mm512_set1_ps(std::hint::black_box(1.0));
            let mut mul = [x; CHAINS];
            let mut add = [_mm512_setzero_ps(); CHAINS];
            for _ in 0..ROUNDS {
                for (m, a) in mul.iter_mut().zip(add.iter_mut()) {
                    *m = _mm512_mul_ps(*m, x);
                    *a = _mm512_add_ps(*a, x);
                }
            }
            std::hint::black_box((mul, add));
            CHAINS * ROUNDS * 32 // one mul and one add on each of 16 lanes
        }
        let zmm = lanes == 16;
        if !KernelDispatch::Avx2.supported()
            || (zmm && !std::arch::is_x86_feature_detected!("avx512f"))
        {
            return None;
        }
        let run: fn() -> usize = if zmm {
            // SAFETY: AVX-512F support verified above.
            || unsafe { rounded_zmm() }
        } else {
            // SAFETY: AVX2 support verified above.
            || unsafe { rounded() }
        };
        (0..5)
            .map(|_| {
                let t0 = Instant::now();
                let flops = run();
                flops as f64 / t0.elapsed().as_secs_f64() / 1e9
            })
            .reduce(f64::max)
            .map(|rate| Ceiling {
                rate,
                lanes: Some(lanes),
            })
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = lanes;
        None
    }
}

struct Emitter {
    json: PathBuf,
    iters: usize,
}

impl Emitter {
    /// One measured row: `rate` is GFLOP/s for the GEMM family (with the
    /// host's multiply-add `peak` measured beside it, at the width the row
    /// runs at), GB/s for the gather/scatter family and ns a lookup for the
    /// cast (`unit` labels which).
    #[allow(clippy::too_many_arguments)]
    fn row(
        &self,
        kernel: &str,
        dispatch: KernelDispatch,
        shape: &str,
        dim: usize,
        ns: f64,
        rate: f64,
        unit: &str,
        peak: Option<Ceiling>,
    ) {
        self.exec_row(kernel, dispatch, None, shape, dim, ns, rate, unit, peak);
    }

    /// [`Emitter::row`] with the schedule the row ran under (`exec`:
    /// `serial` | `lane`) for the dense-layer rows.
    #[allow(clippy::too_many_arguments)]
    fn exec_row(
        &self,
        kernel: &str,
        dispatch: KernelDispatch,
        exec: Option<&str>,
        shape: &str,
        dim: usize,
        ns: f64,
        rate: f64,
        unit: &str,
        peak: Option<Ceiling>,
    ) {
        let of_peak = peak.map_or(String::new(), |p| {
            format!("  {:>5.1}% of peak", 100.0 * rate / p.rate)
        });
        println!(
            "  {kernel:<22} {:<6} {shape:<20} {ns:>12.0} ns  {rate:>8.2} {unit}{of_peak}",
            exec.unwrap_or(dispatch.name()),
        );
        let mut row = json::JsonRow::new();
        row.str_field("kind", "kernel")
            .str_field("kernel", kernel)
            .str_field("dispatch", dispatch.name());
        if let Some(exec) = exec {
            row.str_field("exec", exec);
        }
        row.str_field("shape", shape)
            .u64_field("dim", dim as u64)
            .u64_field("cores", tcast_pool::default_parallelism() as u64)
            .bool_field("fast", fast_mode())
            .f64_field("ns_per_iter", ns)
            .f64_field(
                match unit {
                    "GFLOP/s" => "gflops",
                    "GB/s" => "gbps",
                    "ns/lookup" => "ns_per_lookup",
                    "ns/draw" => "ns_per_draw",
                    "ms/batch" => "ms_per_batch",
                    other => unreachable!("unit {other}"),
                },
                rate,
            );
        if let Some(peak) = peak {
            row.f64_field("peak_frac", rate / peak.rate);
            if let Some(lanes) = peak.lanes {
                row.u64_field("lanes", lanes as u64);
            }
        }
        if let Err(e) = json::append_row(&self.json, &row) {
            eprintln!("[kernel_bench] cannot write {}: {e}", self.json.display());
        }
    }

    /// Times one dense-layer operation (`flops` per call) serially and on
    /// the lane, on the auto-detected tier, and emits the two rows against
    /// the two-core multiply-add peak at the `NN` / `TN` width. Returns
    /// serial ns over lane ns.
    fn lane_rows(
        &self,
        kernel: &str,
        shape: &str,
        dim: usize,
        flops: f64,
        lane: &Pool,
        run: impl FnMut(Exec<'_>),
    ) -> f64 {
        let tier = KernelDispatch::detect();
        let peak = madd_peak(gemm_lanes(tier)).map(|p| Ceiling {
            rate: 2.0 * p.rate,
            ..p
        });
        let [serial, on_lane] = time_serial_and_lane_ns(self.iters, lane, run);
        for (exec, ns) in [("serial", serial), ("lane", on_lane)] {
            let rate = flops / ns;
            self.exec_row(
                kernel,
                tier,
                Some(exec),
                shape,
                dim,
                ns,
                rate,
                "GFLOP/s",
                peak,
            );
        }
        serial / on_lane.max(1.0)
    }

    /// Times one GEMM product (`flops` per call) on every tier and emits
    /// its rows, against the ceiling at its width ([`gemm_lanes`]). The
    /// multiply-add peak is measured right before each timing: this host's
    /// clock sits on plateaus 1.2-1.5x apart that last seconds, so a peak
    /// taken once at start-up would misstate `peak_frac` for most rows.
    fn gemm_rows(
        &self,
        kernel: &str,
        shape: &str,
        dim: usize,
        flops: f64,
        run: &mut dyn FnMut(KernelDispatch),
    ) -> Vec<(KernelDispatch, f64)> {
        tier_ns(&mut |d| {
            let peak = madd_peak(gemm_lanes(d));
            let ns = time_ns(self.iters, || run(d));
            self.row(kernel, d, shape, dim, ns, flops / ns, "GFLOP/s", peak);
            ns
        })
    }
}

/// ns-per-iter for each available tier, keyed by tier, for ratio lines.
fn tier_ns(f: &mut dyn FnMut(KernelDispatch) -> f64) -> Vec<(KernelDispatch, f64)> {
    KernelDispatch::available()
        .into_iter()
        .map(|d| (d, f(d)))
        .collect()
}

fn lookup(rows: &[(KernelDispatch, f64)], want: KernelDispatch) -> Option<f64> {
    rows.iter().find(|(d, _)| *d == want).map(|&(_, v)| v)
}

/// Prints the CI grep anchor and returns the AVX2-vs-scalar speedup (None
/// when the host has no AVX2 tier).
fn ratio_line(name: &str, rows: &[(KernelDispatch, f64)]) -> Option<f64> {
    let scalar = lookup(rows, KernelDispatch::Scalar)?;
    let simd = lookup(rows, KernelDispatch::Avx2)?;
    let ratio = scalar / simd.max(1.0);
    println!("KERNEL {name} simd/scalar ratio {ratio:.2}");
    Some(ratio)
}

fn main() {
    let args = parse_args();
    banner(
        "kernel_bench",
        "per-kernel GFLOP/s and GB/s, scalar vs SIMD dispatch tiers",
    );
    let tiers = KernelDispatch::available();
    println!(
        "tiers {:?}, auto-detect {}, {} iters, host cores {}, sink {}",
        tiers.iter().map(|d| d.name()).collect::<Vec<_>>(),
        KernelDispatch::detect().name(),
        args.iters,
        tcast_pool::default_parallelism(),
        args.json.display()
    );
    for lanes in [8, 16] {
        if let Some(p) = madd_peak(lanes) {
            println!("multiply-add peak {lanes:>2} lanes {:>8.2} GFLOP/s", p.rate);
        }
    }
    let lanes = gemm_lanes(KernelDispatch::detect());
    println!("KERNEL gemm lanes {lanes}");
    println!("KERNEL gemm_bt lanes {lanes}");
    let emit = Emitter {
        json: args.json.clone(),
        iters: args.iters,
    };
    let fast = fast_mode();

    // --- GEMM family: the MLP layer shapes of the step bench (batch x ---
    // dense stack), a ragged shape exercising every tile tail, and the
    // repo benchmark's layers as (batch, in, out): RM3's 2560x512 layer at
    // its training batch, RM1's 256x128 layer at a training and at a
    // serving batch.
    let batch = if fast { 256 } else { 2048 };
    let layer_shapes = [(64, 2560, 512), (512, 256, 128), (16, 256, 128)];
    let mut gemm_shapes: Vec<(usize, usize, usize)> = vec![
        (batch, 13, 64), // bottom MLP entry layer
        (batch, 64, 64), // bottom MLP hidden layer
        (batch, 64, 32), // top MLP hidden layer
        (251, 67, 121),  // ragged: nothing divides 8
    ];
    gemm_shapes.extend(layer_shapes);
    println!("\nGEMM (c = a*b), {} iters:", args.iters);
    let mut gemm_ratio = None;
    for &(m, k, n) in &gemm_shapes {
        let a = random_matrix(m, k, 1);
        let b = random_matrix(k, n, 2);
        let mut c = Matrix::zeros(m, n);
        let shape = format!("{m}x{k}x{n}");
        let flops = 2.0 * (m * k * n) as f64;
        let rows = emit.gemm_rows("gemm", &shape, n, flops, &mut |d| {
            a.matmul_into_with(&b, &mut c, d).unwrap();
        });
        // Gate on the biggest regular layer, not the ragged tail shape.
        if (m, k, n) == (batch, 64, 64) {
            gemm_ratio = ratio_line("gemm", &rows);
        }
    }

    // gemm_at (a^T * b, the weight-gradient shape) and gemm_bt (a * b^T,
    // the input-gradient shape) on the hidden layer, a ragged shape and
    // the benchmark layers (both loops read a tuple as batch, in, out).
    let mut at_shapes: Vec<(usize, usize, usize)> = vec![(batch, 64, 64), (251, 67, 121)];
    at_shapes.extend(layer_shapes);
    println!("\nGEMM variants (a^T*b and a*b^T), {} iters:", args.iters);
    for &(r, m, n) in &at_shapes {
        // a: r x m, b: r x n -> a^T b: m x n.
        let a = random_matrix(r, m, 3);
        let b = random_matrix(r, n, 4);
        let mut c = Matrix::zeros(m, n);
        let shape = format!("{r}x{m}^T*{r}x{n}");
        let flops = 2.0 * (r * m * n) as f64;
        emit.gemm_rows("gemm_at", &shape, n, flops, &mut |d| {
            a.matmul_at_into_with(&b, &mut c, d).unwrap();
        });
    }
    // ... and RM3's 2560x512 backward as the weight cut bands it: one
    // band's `dX` columns, 64x512 against 1280 rows of `W`.
    let mut bt_shapes = at_shapes.clone();
    bt_shapes.push((64, 1280, 512));
    for &(m, n, k) in &bt_shapes {
        // a: m x k, b: n x k -> a b^T: m x n.
        let a = random_matrix(m, k, 5);
        let b = random_matrix(n, k, 6);
        let mut c = Matrix::zeros(m, n);
        let shape = format!("{m}x{k}*{n}x{k}^T");
        let flops = 2.0 * (m * k * n) as f64;
        emit.gemm_rows("gemm_bt", &shape, n, flops, &mut |d| {
            a.matmul_bt_into_with(&b, &mut c, d).unwrap();
        });
    }

    // --- Dense layers as the trainer runs them: a whole layer's forward --
    // (GEMM + bias + ReLU), its backward (`dW` and `dX`) and a whole MLP
    // step, serially and on the lane, for RM3's 2560x512 layer and bottom
    // stack at batch 64 and RM1's 256x128 layer and bottom stack at 512.
    println!(
        "\ndense layers, serial vs lane (% of the two-core peak), {} iters:",
        args.iters
    );
    let lane = Pool::new(1);
    warm_both_cores(&lane, Duration::from_secs(3));
    let stacks: [(usize, [usize; 3]); 2] = [(64, [2560, 512, 64]), (512, [256, 128, 64])];
    for (m, widths) in stacks {
        let (k, n) = (widths[0], widths[1]);
        let mut layer = Linear::new(k, n, 41);
        let (x, dy) = (random_matrix(m, k, 43), random_matrix(m, n, 47));
        let (mut y, mut act, mut dx) = (Matrix::default(), Matrix::default(), Matrix::default());
        let shape = format!("{m}x{k}x{n}");
        let flops = 2.0 * (m * k * n) as f64;
        let ratio = emit.lane_rows("linear_fwd", &shape, n, flops, &lane, |exec| {
            layer
                .forward_into(&x, &mut y, Some(&mut act), exec)
                .unwrap();
        });
        println!("KERNEL linear_fwd lane/serial ratio {ratio:.2} ({shape})");
        let ratio = emit.lane_rows("linear_bwd", &shape, n, 2.0 * flops, &lane, |exec| {
            layer
                .backward_into(&x, &dy, Some(&mut dx), None, exec)
                .unwrap();
        });
        println!("KERNEL linear_bwd lane/serial ratio {ratio:.2} ({shape})");
        let late_shape = format!("{shape} late-caller");
        let ratio = emit.lane_rows("linear_bwd", &late_shape, n, 2.0 * flops, &lane, |exec| {
            late_caller(&lane, || {
                layer
                    .backward_into(&x, &dy, Some(&mut dx), None, exec)
                    .unwrap();
            });
        });
        println!("KERNEL linear_bwd late-caller lane/serial ratio {ratio:.2} ({shape})");

        let mut mlp = Mlp::new(13, &widths, 53).unwrap();
        let (x, dy) = (random_matrix(m, 13, 59), random_matrix(m, widths[2], 61));
        let shape = format!("{m}x13-{}-{}-{}", widths[0], widths[1], widths[2]);
        // forward, `dW` and `dX` of every layer
        let flops = 3.0 * mlp.forward_flops(m) as f64;
        let mut scratch = MlpInferenceScratch::default();
        let mut step = |exec: Exec<'_>| {
            mlp.forward_into(&x, &mut scratch, &mut y, exec).unwrap();
            mlp.backward_into(&x, &mut scratch, &dy, Some(&mut dx), Some(1e-6), exec)
                .unwrap();
        };
        emit.lane_rows("mlp_step", &shape, widths[2], flops, &lane, &mut step);
        let late_shape = format!("{shape} late-caller");
        emit.lane_rows("mlp_step", &late_shape, widths[2], flops, &lane, |exec| {
            late_caller(&lane, || step(exec));
        });
    }

    // --- Feature interaction (`Dot`) at RM1's shape: 11 features of 64 ---
    // (the bottom output and 10 pooled tables) at batch 512, forward and
    // backward, through the process-wide dispatch pinned per tier.
    let (rows, features, width) = (512, 11, 64);
    let dense = random_matrix(rows, width, 67);
    let embeddings: Vec<Matrix> = (0..features as u64 - 1)
        .map(|t| random_matrix(rows, width, 71 + t))
        .collect();
    let op = FeatureInteraction;
    let (mut z, mut ddense, mut dpooled) = (Matrix::default(), Matrix::default(), Vec::new());
    op.forward_into(&dense, &embeddings, &mut z).unwrap();
    let dz = random_matrix(rows, z.cols(), 73);
    let shape = format!("b{rows} m{features} d{width}");
    // One multiply-add a pair and element forward, two backward.
    let pair_flops = 2.0 * (rows * features * (features - 1) / 2 * width) as f64;
    println!("\nfeature interaction (dot), {} iters:", args.iters);
    let mut timed = Vec::new();
    for (kernel, flops) in [
        ("interaction_fwd", pair_flops),
        ("interaction_bwd", 2.0 * pair_flops),
    ] {
        let tiers = tier_ns(&mut |d| {
            simd::force(Some(d));
            let ns = time_ns(args.iters, || {
                if kernel == "interaction_fwd" {
                    op.forward_into(&dense, &embeddings, &mut z).unwrap();
                } else {
                    op.backward_into(&dense, &embeddings, &dz, &mut ddense, &mut dpooled)
                        .unwrap();
                }
            });
            simd::force(None);
            ns
        });
        for &(d, ns) in &tiers {
            emit.row(kernel, d, &shape, width, ns, flops / ns, "GFLOP/s", None);
        }
        timed.push(tiers);
    }
    // Forward plus backward.
    let both: Vec<_> = (timed[0].iter().zip(&timed[1]))
        .map(|(&(d, fwd), &(_, bwd))| (d, fwd + bwd))
        .collect();
    ratio_line("interaction", &both);

    // --- Gather/scatter family: the embedding data plane. These go ------
    // through the process-wide dispatch, pinned per tier with
    // simd::force. dims: the bench suite's {16, 32, 64} plus a
    // non-multiple-of-8 width that stresses the scalar tail.
    let table_rows = if fast { 5_000 } else { 100_000 };
    let pooling = 10;
    let lookups = batch * pooling;
    let mut rng = SplitMix64::new(42);
    let samples: Vec<Vec<u32>> = (0..batch)
        .map(|_| {
            (0..pooling)
                .map(|_| rng.next_below(table_rows as u64) as u32)
                .collect()
        })
        .collect();
    let index = IndexArray::from_samples(&samples).unwrap();
    let casted = tensor_casting(&index);

    println!(
        "\ngather-reduce ({lookups} lookups over {table_rows} rows), {} iters:",
        args.iters
    );
    let mut gather_ratio = None;
    for dim in [16usize, 32, 64, 37] {
        let table = EmbeddingTable::seeded(table_rows, dim, 7);
        let mut out = Matrix::zeros(batch, dim);
        let shape = format!("b{batch} p{pooling} d{dim}");
        // Table-row read + output-row read/write per lookup.
        let bytes = (3 * lookups * dim * 4) as f64;
        let rows = tier_ns(&mut |d| {
            simd::force(Some(d));
            let ns = time_ns(args.iters, || {
                gather_reduce_into(&table, &index, &mut out, Exec::Serial).unwrap();
            });
            simd::force(None);
            ns
        });
        for &(d, ns) in &rows {
            emit.row(
                "gather_reduce",
                d,
                &shape,
                dim,
                ns,
                bytes / ns,
                "GB/s",
                None,
            );
        }
        if dim == 64 {
            gather_ratio = ratio_line("gather_reduce", &rows);
        }

        // The casted backward gather-reduce (Algorithm 3) on the same
        // workload: gradient rows in, coalesced rows out.
        let grads = random_matrix(batch, dim, 11);
        let mut scratch = CoalescedGradients::default();
        // Gradient-row read per lookup + coalesced-row read/write.
        let bytes = ((lookups + 2 * casted.num_unique()) * dim * 4) as f64;
        let rows = tier_ns(&mut |d| {
            simd::force(Some(d));
            let ns = time_ns(args.iters, || {
                casted_gather_reduce_into(&grads, &casted, &mut scratch).unwrap();
            });
            simd::force(None);
            ns
        });
        for &(d, ns) in &rows {
            emit.row(
                "casted_gather_reduce",
                d,
                &shape,
                dim,
                ns,
                bytes / ns,
                "GB/s",
                None,
            );
        }
    }

    // --- Optimizer scatter: one Adagrad update per coalesced row. -------
    // param read+write, grad read, accumulator read+write: 20 B/element.
    println!("\noptimizer scatter (adagrad), {} iters:", args.iters);
    let mut scatter_ratio = None;
    for dim in [16usize, 32, 64, 37] {
        let grads = random_matrix(batch, dim, 13);
        let mut coalesced = CoalescedGradients::default();
        casted_gather_reduce_into(&grads, &casted, &mut coalesced).unwrap();
        let unique = coalesced.len();
        let shape = format!("u{unique} d{dim}");
        let bytes = (unique * dim * 20) as f64;
        let rows = tier_ns(&mut |d| {
            let mut table = EmbeddingTable::seeded(table_rows, dim, 17);
            let mut opt = RowOptimizer::new(ADAGRAD);
            simd::force(Some(d));
            let ns = time_ns(args.iters, || {
                scatter_apply(&mut table, &coalesced, &mut opt).unwrap();
            });
            simd::force(None);
            ns
        });
        for &(d, ns) in &rows {
            emit.row(
                "scatter_adagrad",
                d,
                &shape,
                dim,
                ns,
                bytes / ns,
                "GB/s",
                None,
            );
        }
        if dim == 64 {
            scatter_ratio = ratio_line("scatter_adagrad", &rows);
        }
    }

    // --- Casting (Algorithm 2): batches of 2048 samples x pooling 10 ----
    // drawn from a Zipf(1.05) over an id space that fits the caches and
    // one that does not.
    println!("\ncast (b2048 p10, Zipf 1.05), {} iters:", args.iters);
    for rows in [20_000usize, 5_000_000] {
        let workload = TableWorkload::new(
            Popularity::Zipf {
                rows,
                exponent: 1.05,
            },
            10,
        );
        let index = workload.generator(5).next_batch(2048);
        let shape = format!("b2048 p10 r{rows}");
        let tier = KernelDispatch::detect();
        let ns = time_ns(args.iters, || {
            std::hint::black_box(tensor_casting(&index));
        });
        let per_lookup = ns / index.len() as f64;
        emit.row("cast", tier, &shape, 0, ns, per_lookup, "ns/lookup", None);
        println!("KERNEL cast r{rows} {per_lookup:.1} ns a lookup");

        let (mut casted, mut scratch) = (CastedIndexArray::default(), RadixScratch::default());
        let ns = time_ns(args.iters, || {
            tensor_casting_into(&index, &mut casted, &mut scratch);
            std::hint::black_box(&casted);
        });
        let per_lookup = ns / index.len() as f64;
        emit.row(
            "cast_into",
            tier,
            &shape,
            0,
            ns,
            per_lookup,
            "ns/lookup",
            None,
        );
        println!("KERNEL cast_into r{rows} {per_lookup:.1} ns a lookup");
    }

    // --- Generation: one Zipf(1.05) draw, and a whole RM1 batch --------
    // (ten 400k-row tables x pooling 80, 13 dense features, batch 512)
    // refilled in place, as a `BatchSource` free-list refills it.
    let draws = if fast { 100 * 4096 } else { 1000 * 4096 };
    println!(
        "\nzipf_sample ({draws} draws, Zipf 1.05) and synthetic_batch, {} iters:",
        args.iters
    );
    let tier = KernelDispatch::detect();
    for rows in [10_000usize, 400_000] {
        let sampler = Popularity::Zipf {
            rows,
            exponent: 1.05,
        }
        .sampler();
        let mut rng = SplitMix64::new(37);
        let ns = time_ns(args.iters, || {
            for _ in 0..draws / 4096 {
                std::hint::black_box(sampler.sample_many(4096, &mut rng));
            }
        });
        let per_draw = ns / draws as f64;
        let shape = format!("r{rows}");
        emit.row(
            "zipf_sample",
            tier,
            &shape,
            0,
            ns,
            per_draw,
            "ns/draw",
            None,
        );
        println!("KERNEL zipf_sample ns/draw r{rows} {per_draw:.1}");
    }
    let rm1 = TableWorkload::new(
        Popularity::Zipf {
            rows: 400_000,
            exponent: 1.05,
        },
        80,
    );
    let mut ctr = SyntheticCtr::new(vec![rm1; 10], 13, 41);
    let mut refill = CtrBatch::default();
    let ns = time_ns(args.iters, || ctr.next_batch_into(512, &mut refill));
    let shape = "rm1 b512 r400000";
    emit.row(
        "synthetic_batch",
        tier,
        shape,
        0,
        ns,
        ns / 1e6,
        "ms/batch",
        None,
    );
    println!("KERNEL synthetic_batch rm1 b512 {:.2} ms", ns / 1e6);

    // --- Cold rows: the same kernels where every row is a DRAM miss. -----
    // `bytes` is what has to cross the memory bus per call: the table
    // (and optimizer-state) rows read, plus the same again written back
    // by a scatter (so a scatter's `peak_frac`, taken against a read-only
    // reference, can approach 2); outputs, gradients and indices are
    // cache-resident or streamed and not counted.
    let cold_dim = 64;
    let cold_table_rows = if fast { 64 * 1024 } else { 4 * 1024 * 1024 };
    println!(
        "\ncold gather/scatter ({lookups} distinct rows a call, never repeated, over {} MB), \
         {} iters:",
        (cold_table_rows * cold_dim * 4) >> 20,
        args.iters
    );
    let mut cold_table = EmbeddingTable::seeded(cold_table_rows, cold_dim, 19);
    let mut cold = ColdRows::new(cold_table_rows, 23);
    let upstream = random_matrix(batch, cold_dim, 29);
    let coalesced_grads = random_matrix(lookups, cold_dim, 31);
    let shape = format!("r{cold_table_rows} b{batch} p{pooling} d{cold_dim}");
    let row_bytes = (lookups * cold_dim * 4) as f64;
    // Adagrad's state slab is grown (and its pages first touched) here,
    // not under the clock: one zero-gradient update of every row.
    let mut adagrad = RowOptimizer::new(ADAGRAD);
    {
        let all = CoalescedGradients::new(
            (0..cold_table_rows as u32).collect(),
            Matrix::zeros(cold_table_rows, cold_dim),
        )
        .unwrap();
        scatter_apply_coalesced(&mut cold_table, &mut adagrad, &all).unwrap();
    }
    let mut sgd = RowOptimizer::new(UpdateRule::Sgd { lr: 0.01 });
    let mut blocks = BlockScratch::default();
    let mut out = Matrix::zeros(batch, cold_dim);

    let mut cold_kernel =
        |name: &str, bytes: f64, kernel: &mut dyn FnMut(&mut EmbeddingTable, &ColdBatch)| {
            let peak = random_row_read_gbps(&cold_table, &mut cold, lookups, args.iters);
            let rows = tier_ns(&mut |d| {
                simd::force(Some(d));
                let ns = time_ns_fresh(
                    args.iters,
                    || cold.batch(batch, pooling, &coalesced_grads),
                    |b| kernel(&mut cold_table, b),
                );
                simd::force(None);
                ns
            });
            for &(d, ns) in &rows {
                let kernel = format!("{name}_cold");
                emit.row(
                    &kernel,
                    d,
                    &shape,
                    cold_dim,
                    ns,
                    bytes / ns,
                    "GB/s",
                    Some(Ceiling {
                        rate: peak,
                        lanes: None,
                    }),
                );
            }
            if let Some(ns) = lookup(&rows, KernelDispatch::detect()) {
                println!(
                    "KERNEL {name} cold {:.2} GB/s, {:.2} of the random-row read's {peak:.2} GB/s",
                    bytes / ns,
                    bytes / ns / peak
                );
            }
        };
    cold_kernel("gather_reduce", row_bytes, &mut |table, b| {
        gather_reduce_into(table, &b.index, &mut out, Exec::Serial).unwrap();
    });
    cold_kernel("scatter_sgd", 2.0 * row_bytes, &mut |table, b| {
        scatter_apply_coalesced(table, &mut sgd, &b.coalesced).unwrap();
    });
    cold_kernel("scatter_adagrad", 4.0 * row_bytes, &mut |table, b| {
        scatter_apply_coalesced(table, &mut adagrad, &b.coalesced).unwrap();
    });
    // Gather-reduce out of the (cache-resident) upstream gradients and
    // SGD scatter, a block of coalesced rows at a time.
    cold_kernel(
        "blocked_casted_backward",
        2.0 * row_bytes,
        &mut |table, b| {
            let (opt, blocks) = (&mut sgd, &mut blocks);
            blocked_casted_backward(table, opt, &upstream, &b.casted, blocks).unwrap();
        },
    );

    // --- Gates: full-size multi-core runs only. The SIMD win is --------
    // per-core, but 1-core containers throttle too unpredictably to
    // fail builds on; FAST shapes are too small to be stable.
    let gate = !fast && tcast_pool::default_parallelism() >= 2;
    if let Some(r) = gemm_ratio {
        if gate && r < 2.0 {
            eprintln!("[kernel_bench] WARNING: SIMD GEMM speedup {r:.2}x < 2x target");
            std::process::exit(1);
        }
    }
    if let Some(r) = gather_ratio {
        if gate && r < 1.2 {
            eprintln!("[kernel_bench] WARNING: SIMD gather-reduce speedup {r:.2}x < 1.2x target");
            std::process::exit(1);
        }
    }
    if let Some(r) = scatter_ratio {
        // Reported, not gated: the scatter is state-bandwidth-bound and
        // its SIMD headroom varies with the accumulator layout.
        println!("scatter simd/scalar: {r:.2}x (informational)");
    }
}
