//! Runtime-dispatched SIMD kernels: x86-64 AVX2 (`std::arch`), with the
//! GEMMs on AVX-512 registers where the host has them, and a portable
//! scalar fallback.
//!
//! ROADMAP's "as fast as the hardware allows" requires explicit SIMD, but
//! the repository's entire correctness story rests on bit-identity
//! invariants (pooled == serial, fused-batch == per-query, resume ==
//! uninterrupted). The kernels here are therefore
//! designed so that vectorization *cannot* change results:
//!
//! * Every kernel vectorizes **across the `j`/`dim` lane axis** and keeps
//!   the reduction axis (`k`, lookup order) in exactly the scalar order,
//!   so each output element sees the same operations in the same order.
//! * The SIMD tier ([`KernelDispatch::Avx2`]) uses only individually
//!   correctly-rounded operations (`vmulps`/`vaddps`/`vsubps`/`vdivps`/
//!   `vsqrtps` match their scalar counterparts per IEEE-754), so it is
//!   **bit-identical** to [`KernelDispatch::Scalar`] — including on NaN,
//!   `-0.0` and denormal inputs (Rust performs no FP contraction and x86
//!   runs with FTZ/DAZ off by default). A NaN's sign and payload are
//!   outside that invariant: Rust does not fix which NaN an add returns
//!   when both operands are NaN, and where `±Inf` inputs make a NaN that
//!   meets an input NaN the `avx2` GEMM and the oracle can keep opposite
//!   signs. Every output is NaN on both tiers or on neither, and every
//!   non-NaN output is bit-identical.
//! * No kernel contracts `a*b + c` into one fused multiply-add: a fused
//!   op rounds once where the oracle rounds twice, so every tier is
//!   bit-identical to the oracle and none is merely close to it.
//!
//! The active tier is resolved once per process from the `TCAST_KERNEL`
//! environment variable (`scalar` | `avx2` | `auto`, default
//! `auto` = AVX2 where `is_x86_feature_detected!` reports it, scalar
//! otherwise) and cached; tests and benches can override it in-process
//! with [`force`] or per call through the explicit-dispatch entry points.
//! On non-x86-64 targets every tier falls back to the scalar kernels, so
//! forcing `avx2` on such a host is safe (and a no-op).
//!
//! The dot-product kernels reduce eight partial accumulators with the
//! AVX2 horizontal-add tree (`(s0+s2) + (s1+s3)` over `s_l = acc_l +
//! acc_{l+4}`); the scalar kernel performs the identical fold, which is
//! what makes `matmul_bt` bit-identical across tiers despite being a
//! reduction.
//!
//! # The GEMM family
//!
//! The three products an MLP layer needs — `NN` ([`gemm_nn`], forward
//! `C = A B`), `TN` ([`gemm_tn`], weight gradient `C = A^T B`) and `NT`
//! ([`gemm_nt`], input gradient `C = A B^T`) — are plain loops on the
//! scalar tier (the oracle) and register-tiled on the `avx2` tier. Tiling
//! changes *where* an output lives while it is being summed, never *what*
//! is summed in which order:
//!
//! * `NN` and `TN` share one kernel (`A` is addressed through a row and a
//!   `k` stride). A tile keeps up to 8 rows x 16 columns of `C` in
//!   registers and, for `kk` ascending, adds `a[i][kk] * b[kk][j]` to
//!   each — the oracle's `c[i][j] += a[i][kk] * b[kk][j]` sequence
//!   starting from `+0.0`, vectorized across `j` only. It multiplies then
//!   adds: two roundings, like the oracle.
//! * The register width is the host's, not the tier's: where AVX-512F is
//!   present the tile is 8 rows of one 16-lane `zmm` vector, otherwise 4
//!   rows of two 8-lane `ymm` vectors. A 16-lane `vmulps` then `vaddps` is
//!   sixteen of the same IEEE operations an 8-lane pair performs, so both
//!   widths give every output the same bits and the tier is still
//!   reported as `avx2`. The width is one parameter of the one macro
//!   body, not a second kernel.
//! * The reduction is blocked by `GEMM_KC` steps: between blocks the
//!   accumulators are stored to `C` and loaded back, which changes when an
//!   element is revisited, not the order of its additions (an `f32` store
//!   and load is exact).
//! * Each 16-column panel of `B` is first copied into a contiguous,
//!   zero-padded stack buffer, so a tile streams it from L1 whatever the
//!   row stride, and the last `n % 16` columns run the same full-width
//!   tile (on a staging copy of `C` whose dead lanes are dropped). Row
//!   tails (`m % 8`, or `m % 4` on `ymm`) run the same tile body with
//!   fewer rows. Copies move bits; neither touches the arithmetic.
//! * `NT` keeps each output's own eight partial sums (reduction step
//!   `kk % 8`, each a multiply then an add from `+0.0`), the fold above
//!   and the scalar `k % 8` tail — one [`dot`], exactly. On `zmm` the
//!   kernel vectorizes **across the batch**: 16 rows of `A` (the batch
//!   gradient `dy`) are packed once a call (once a thread, for all the
//!   blocks a weight-cut backward hands it) into a bounded stack buffer,
//!   lane `r` holding row `r`, and a tile keeps the eight partial-sum
//!   vectors of 3 outputs' columns while `B`'s rows (the weight, larger
//!   than L2) are read in place as broadcasts; the partials fold in
//!   [`dot`]'s order vertically, across lanes. On `ymm` it holds a 2 x 4
//!   block of [`dot`]s in flight (the `m % 2` / `n % 4` tails call [`dot`]
//!   itself): the batch-vectorized body, which sixteen registers allow one
//!   column a tile, measured 0.75x of it there.
//!
//! The kernels address `B` and `C` through row strides, `C` through a
//! crate-private strided view, so they run on a band of `C`'s columns as
//! readily as on a band of its rows. No output's operation sequence
//! depends on `m`, nor on which columns its call covers: a column's
//! operations never read another column's, and a panel a band leaves
//! ragged runs the zero-padded tile, whose dead lanes are dropped. An
//! `NT` output is its own [`dot`] whichever rows of `A` and `B` its call
//! holds (a row in a ragged 16-row block shares its vector with zeros that
//! are never stored). So the pooled matmuls run the same kernel on each
//! band, of rows or of columns, and serial == pooled holds by construction
//! on every tier. The tile and block sizes are compile-time
//! constants picked on the repo benchmark's shapes (`BENCH_kernel.json`
//! carries the per-shape rates against this host's multiply-add peak);
//! nothing about them is tunable at run time.
//!
//! # The `Dot` interaction
//!
//! DLRM's pairwise dot products ([`crate::FeatureInteraction`]) have a
//! strict-order scalar loop as their oracle: each pair's sum starts at
//! `-0.0` (Rust's `f32` `Sum`) and adds `x_i[k] * x_j[k]` for `k`
//! ascending. The `avx2` tier runs two kernels on 8-lane `ymm` registers,
//! multiplying then adding, so it gives the oracle's bits:
//!
//! * the forward vectorizes **across the batch**. Each 8-row block of the
//!   `m` feature rows is transposed into a stack tile, so lane `r` of a
//!   vector is batch row `r`. `PAIR_NP` pairs' accumulators are then in
//!   flight at once, each one pair's own sum in the oracle's order. A tile
//!   that cannot hold every feature's whole row takes the reduction in
//!   blocks, storing its partial sums to the output and loading them back
//!   between blocks, as `GEMM_KC` does. The rows past the last whole block
//!   run the scalar loop;
//! * the backward is output-stationary, one gradient row at a time: up to
//!   64 columns of feature `f`'s gradient stay in registers while
//!   `g * x_q` is added for every partner `q != f` in ascending order,
//!   skipping a pair whose `g == 0.0` — the oracle's pair-major loop adds
//!   them to that row in the same order and skips the same pairs.
//!
//! # Checked loads, and the sites that stay raw
//!
//! The streaming kernels are safe code: [`add_assign`], [`dot`], the
//! `Dot` interaction's pair tile and gradient columns, and
//! `tcast-embedding`'s gather-reduce accumulate and optimizer rows. Each
//! cuts its slices into `as_chunks::<8>()` windows and moves every window
//! through [`ymm_load`] / [`ymm_store`], the one `unsafe` load and store,
//! so an index past a slice's end panics where the window is cut and is
//! never read. The operations and their order are those of the
//! raw-pointer loops they replaced. The register-tiled GEMM and `NT`
//! tiles, `pack_nt`, `transpose8` and [`prefetch`] keep raw pointers:
//! their address arithmetic is tuned (the `zmm` tile read 7-14% slower
//! when the compiler rebuilt its addresses). Their spans are
//! `debug_assert!`ed at each tile's entry, and a tile's output window
//! where the strided view hands out its address.

use crate::strided::StridedMut;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// Register tile of the `C = A B` kernels (`NN` and `TN`): up to `MR` rows
/// by `GEMM_NR` columns. On 8-lane `ymm` registers a tile row is two
/// vectors, so `GEMM_MR_YMM` rows make eight accumulators, two `B` vectors
/// and one broadcast of `A` in the sixteen `ymm` registers. On 16-lane
/// `zmm` registers (AVX-512) a tile row is one vector, so `GEMM_MR_ZMM`
/// rows make eight accumulators, one `B` vector and one broadcast in ten
/// of the thirty-two `zmm` registers.
const GEMM_MR_YMM: usize = 4;
const GEMM_MR_ZMM: usize = 8;
pub(crate) const GEMM_NR: usize = 16;
/// Reduction steps a tile takes between loading and storing its `C`
/// accumulators.
const GEMM_KC: usize = 256;
/// Outputs of `C = A B^T` the `ymm` `NT` kernel keeps in flight: `NT_MR`
/// rows of `A` against `NT_NR` rows of `B`, eight independent 8-lane dot
/// accumulators.
const NT_MR: usize = 2;
const NT_NR: usize = 4;
/// Columns of `C = A B^T` a `zmm` `NT` tile holds, eight partial-sum
/// accumulators each: 24 of the thirty-two registers, beside one vector of
/// packed `A` and three broadcasts of `B` (two columns measured 0.8-0.9x
/// of three).
const NT_NJ: usize = 3;
/// Floats of the stack buffer a `zmm` `NT` call packs `A`'s rows into (128
/// KB, on the stack of the thread running the product: a pool worker's is
/// the default 2 MB): RM3's whole 64 x 512 batch gradient.
const NT_PACK: usize = 32 * 1024;
/// Floats of `B` (256 KB, well inside L2) whose rows every packed block of
/// `A` meets before the next rows of `B` are read.
const NT_B_RANGE: usize = 64 * 1024;
/// Batch rows of one `Dot` interaction forward tile, one per `ymm` lane. (An
/// 8-row `ymm` tile measured faster than a 16-row `zmm` one.)
const PAIR_ROWS: usize = 8;
/// Tile rows of the transposed stack tile the `Dot` forward fills: `m`
/// features by `kc` reduction steps with `m * kc <= PAIR_TILE_KS`, each
/// tile row `PAIR_ROWS` floats (24 KB). RM1's 11 features of 64 fit whole.
const PAIR_TILE_KS: usize = 768;
/// Pair accumulators the `Dot` forward keeps in flight.
const PAIR_NP: usize = 8;
/// 8-lane vectors of a gradient row the `Dot` backward keeps in registers.
const GRAD_NV: usize = 8;

/// Environment variable selecting the kernel tier (`scalar` | `avx2` |
/// `auto`).
pub const KERNEL_ENV: &str = "TCAST_KERNEL";

/// Which kernel implementation the hot loops run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelDispatch {
    /// Portable scalar loops — the bit-exact oracle for `Avx2`.
    Scalar,
    /// AVX2 (AVX-512 registers for the GEMMs where present), multiply
    /// then add: bit-identical to `Scalar`.
    Avx2,
    /// Retired: nothing constructs it, a kernel handed it runs the `Avx2`
    /// path, and it stays only because `benchmark/src/train.rs` names it.
    Fma,
}

impl KernelDispatch {
    /// The best tier this host supports: `Avx2` where available, else
    /// `Scalar`.
    pub fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            return KernelDispatch::Avx2;
        }
        KernelDispatch::Scalar
    }

    /// Parses a `TCAST_KERNEL` value. `auto` (and the empty string)
    /// resolve through [`KernelDispatch::detect`].
    pub fn parse(s: &str) -> Option<Self> {
        match s.trim().to_ascii_lowercase().as_str() {
            "scalar" => Some(KernelDispatch::Scalar),
            "avx2" => Some(KernelDispatch::Avx2),
            "auto" | "" => Some(KernelDispatch::detect()),
            _ => None,
        }
    }

    /// Whether this host can actually run the tier. Scalar always can;
    /// the SIMD tiers require the matching CPU features (queried at
    /// runtime, cached by `std`).
    pub fn supported(self) -> bool {
        match self {
            KernelDispatch::Scalar => true,
            KernelDispatch::Avx2 => avx2_ok(),
            KernelDispatch::Fma => false,
        }
    }

    /// Every tier this host supports, scalar first — the bench sweep
    /// axis.
    pub fn available() -> Vec<Self> {
        let mut tiers = vec![KernelDispatch::Scalar];
        if KernelDispatch::Avx2.supported() {
            tiers.push(KernelDispatch::Avx2);
        }
        tiers
    }

    /// Stable lowercase name (the `dispatch` field of bench JSON rows).
    pub fn name(self) -> &'static str {
        match self {
            KernelDispatch::Scalar => "scalar",
            KernelDispatch::Avx2 => "avx2",
            KernelDispatch::Fma => "fma",
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn avx2_ok() -> bool {
    std::arch::is_x86_feature_detected!("avx2")
}

/// Whether the SIMD tiers' GEMMs run on 16-lane `zmm` registers rather
/// than 8-lane `ymm` ones. Not a tier: both widths perform the same
/// operations on every output.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn zmm_ok() -> bool {
    std::arch::is_x86_feature_detected!("avx512f")
}

#[cfg(not(target_arch = "x86_64"))]
#[inline(always)]
fn avx2_ok() -> bool {
    false
}

/// In-process override installed by [`force`]: 0 = none, else tier + 1.
static FORCED: AtomicU8 = AtomicU8::new(0);
/// The once-per-process `TCAST_KERNEL` resolution.
static RESOLVED: OnceLock<KernelDispatch> = OnceLock::new();

/// The process-wide kernel tier every implicit-dispatch entry point
/// (`Matrix::matmul_into`, `gather_reduce_into`, the optimizer steps)
/// runs: the [`force`] override if one is installed, otherwise the cached
/// `TCAST_KERNEL` resolution.
#[inline]
pub fn dispatch() -> KernelDispatch {
    match FORCED.load(Ordering::Relaxed) {
        1 => KernelDispatch::Scalar,
        2 => KernelDispatch::Avx2,
        _ => *RESOLVED.get_or_init(resolve_from_env),
    }
}

/// Installs (or with `None` removes) a process-wide dispatch override,
/// taking precedence over `TCAST_KERNEL`. For tests and benches that
/// compare tiers in one process; unsupported tiers still fall back to
/// scalar inside each kernel, so forcing `Avx2` on a non-AVX2 host is
/// safe.
pub fn force(d: Option<KernelDispatch>) {
    let code = match d {
        None => 0,
        Some(KernelDispatch::Scalar) => 1,
        Some(KernelDispatch::Avx2 | KernelDispatch::Fma) => 2,
    };
    FORCED.store(code, Ordering::Relaxed);
}

fn resolve_from_env() -> KernelDispatch {
    match std::env::var(KERNEL_ENV) {
        Ok(v) => match KernelDispatch::parse(&v) {
            Some(d) if d.supported() => d,
            Some(d) => {
                eprintln!(
                    "{KERNEL_ENV}={} not supported on this host; falling back to {}",
                    d.name(),
                    KernelDispatch::detect().name()
                );
                KernelDispatch::detect()
            }
            None => {
                eprintln!(
                    "{KERNEL_ENV}={v:?} not recognized (expected scalar|avx2|auto); \
                     falling back to {}",
                    KernelDispatch::detect().name()
                );
                KernelDispatch::detect()
            }
        },
        Err(_) => KernelDispatch::detect(),
    }
}

/// How many rows ahead of the one being accumulated or updated every
/// gather and scatter loop prefetches ([`prefetch`]).
///
/// A random row of a table that does not fit the cache is a DRAM miss, and
/// at distance 1 the loop still waits out most of it on every lookup; a
/// window keeps this many independent misses in flight. On the repo
/// benchmark's host `train_embed` gains 13-19% going from 1 row to 16
/// (three interleaved pairs) and reads the same within run-to-run noise at
/// 4, 8, 16 and 64, so this is a constant, not a setting.
pub const PREFETCH_WINDOW: usize = 16;

/// Hints the prefetcher to pull one table `row` — every cache line of it —
/// into L1.
///
/// Issued [`PREFETCH_WINDOW`] rows ahead so the accumulate of the current
/// row overlaps the memory latency of the ones behind it — the
/// software-prefetch half of the paper's "gathers are bandwidth-bound"
/// observation. No-op on non-x86-64 targets; `prefetcht0` requires no
/// feature detection on x86-64 and never faults.
#[inline(always)]
pub fn prefetch(row: &[f32]) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        let base = row.as_ptr() as *const i8;
        let bytes = row.len() * 4;
        // Every 64th byte, then the last one: a row that does not start on
        // a line boundary ends one line further on than its length says.
        let mut off = 0;
        while off < bytes {
            // SAFETY: prefetch is a hint; it never faults, whatever the
            // address.
            unsafe { _mm_prefetch(base.wrapping_add(off), _MM_HINT_T0) };
            off += 64;
        }
        if bytes > 0 {
            // SAFETY: as above.
            unsafe { _mm_prefetch(base.wrapping_add(bytes - 1), _MM_HINT_T0) };
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = row;
}

// ---------------------------------------------------------------------------
// Scalar kernels: the oracle tier.
// ---------------------------------------------------------------------------

#[inline(always)]
fn add_assign_scalar(acc: &mut [f32], src: &[f32]) {
    for (a, &v) in acc.iter_mut().zip(src.iter()) {
        *a += v;
    }
}

/// Scalar dot with eight partial accumulators folded in the exact AVX2
/// horizontal-reduce order, so [`dot`] is bit-identical across tiers.
#[inline(always)]
fn dot_scalar(a: &[f32], b: &[f32]) -> f32 {
    let mut acc = [0.0f32; 8];
    let chunks = a.len() / 8;
    for i in 0..chunks {
        let ai = &a[i * 8..i * 8 + 8];
        let bi = &b[i * 8..i * 8 + 8];
        for l in 0..8 {
            acc[l] += ai[l] * bi[l];
        }
    }
    // The vextractf128/vmovhlps/vshufps fold: lanes l and l+4 first, then
    // (s0+s2) + (s1+s3).
    let s0 = acc[0] + acc[4];
    let s1 = acc[1] + acc[5];
    let s2 = acc[2] + acc[6];
    let s3 = acc[3] + acc[7];
    let mut sum = (s0 + s2) + (s1 + s3);
    for i in chunks * 8..a.len() {
        sum += a[i] * b[i];
    }
    sum
}

/// The plain-loop `C = A B` oracle. `A[i][kk]` lives at
/// `a[i * a_rs + kk * a_ks]`, so one body serves both the row-major
/// (`NN`) and the transposed (`TN`) left operand, and `B[kk][j]` at
/// `b[kk * ldb + j]`, so `B` may be a band of a wider matrix's columns.
///
/// Note there is deliberately *no* `aik == 0.0` skip: skipping defeats
/// vectorization, and because every accumulator starts at `+0.0` and
/// round-to-nearest never produces `-0.0` from a sum of non-`-0.0`
/// addends, adding the `aik * b` products of a zero `aik` is bit-identical
/// to skipping them for all finite inputs (and for NaN/Inf inputs the
/// no-skip form is the IEEE-propagating one every tier shares).
#[allow(clippy::too_many_arguments)]
fn gemm_scalar(
    a: &[f32],
    a_rs: usize,
    a_ks: usize,
    b: &[f32],
    ldb: usize,
    mut c: StridedMut<'_>,
    k: usize,
) {
    let n = c.cols();
    for i in 0..c.rows() {
        let c_row = c.row(i);
        c_row.fill(0.0);
        for kk in 0..k {
            let aik = a[i * a_rs + kk * a_ks];
            for (c, &bv) in c_row.iter_mut().zip(&b[kk * ldb..][..n]) {
                *c += aik * bv;
            }
        }
    }
}

/// The plain-loop `C = A B^T` oracle: one [`dot_scalar`] per output.
fn gemm_nt_scalar(a: &[f32], b: &[f32], mut c: StridedMut<'_>, k: usize) {
    for i in 0..c.rows() {
        let a_row = &a[i * k..(i + 1) * k];
        for (j, out) in c.row(i).iter_mut().enumerate() {
            *out = dot_scalar(a_row, &b[j * k..(j + 1) * k]);
        }
    }
}

// ---------------------------------------------------------------------------
// AVX2 kernels.
// ---------------------------------------------------------------------------

/// The 8 floats of `v` in one `ymm` register: the checked load every
/// streaming AVX2 kernel of this crate and of `tcast-embedding` reads
/// through. `v` is a window of `as_chunks::<8>()`, so the bounds are
/// checked where the window is cut, and this is the one `unsafe` load.
///
/// # Safety
///
/// The CPU must support AVX2. A caller compiled with AVX2 enabled (an
/// AVX2 kernel) calls it as safe code.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
pub fn ymm_load(v: &[f32; 8]) -> std::arch::x86_64::__m256 {
    // SAFETY: `v` is 8 readable floats; `loadu` needs no alignment.
    unsafe { std::arch::x86_64::_mm256_loadu_ps(v.as_ptr()) }
}

/// Stores the 8 lanes of `x` to `v`: the checked store twin of
/// [`ymm_load`].
///
/// # Safety
///
/// As for [`ymm_load`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
pub fn ymm_store(v: &mut [f32; 8], x: std::arch::x86_64::__m256) {
    // SAFETY: `v` is 8 floats borrowed for writing; `storeu` needs no
    // alignment.
    unsafe { std::arch::x86_64::_mm256_storeu_ps(v.as_mut_ptr(), x) }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{
        ymm_load, ymm_store, StridedMut, GEMM_KC, GEMM_MR_YMM, GEMM_MR_ZMM, GEMM_NR, GRAD_NV,
        NT_B_RANGE, NT_MR, NT_NJ, NT_NR, NT_PACK, PAIR_NP, PAIR_ROWS, PAIR_TILE_KS,
    };
    use std::arch::x86_64::*;

    #[target_feature(enable = "avx2")]
    #[inline]
    pub fn add_assign(acc: &mut [f32], src: &[f32]) {
        let n = acc.len().min(src.len());
        let (acc, acc_tail) = acc[..n].as_chunks_mut::<8>();
        let (src, src_tail) = src[..n].as_chunks::<8>();
        for (a, s) in acc.iter_mut().zip(src) {
            ymm_store(a, _mm256_add_ps(ymm_load(a), ymm_load(s)));
        }
        for (a, &s) in acc_tail.iter_mut().zip(src_tail) {
            *a += s;
        }
    }

    /// The horizontal fold matched bit-for-bit by the scalar oracle.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn hreduce(v: __m256) -> f32 {
        let lo = _mm256_castps256_ps128(v);
        let hi = _mm256_extractf128_ps(v, 1);
        let q = _mm_add_ps(lo, hi); // [s0, s1, s2, s3]
        let h = _mm_add_ps(q, _mm_movehl_ps(q, q)); // [s0+s2, s1+s3, ..]
        let r = _mm_add_ss(h, _mm_shuffle_ps(h, h, 1)); // (s0+s2)+(s1+s3)
        _mm_cvtss_f32(r)
    }

    #[target_feature(enable = "avx2")]
    #[inline]
    pub fn dot(a: &[f32], b: &[f32]) -> f32 {
        let n = a.len().min(b.len());
        let (a, a_tail) = a[..n].as_chunks::<8>();
        let (b, b_tail) = b[..n].as_chunks::<8>();
        let mut vacc = _mm256_setzero_ps();
        for (x, y) in a.iter().zip(b) {
            vacc = _mm256_add_ps(vacc, _mm256_mul_ps(ymm_load(x), ymm_load(y)));
        }
        let mut sum = hreduce(vacc);
        for (x, y) in a_tail.iter().zip(b_tail) {
            sum += x * y;
        }
        sum
    }

    /// `acc + a * b` as two correctly-rounded operations — what the scalar
    /// oracle's `c += a * b` does — on 8 lanes (`ymm`) or 16 lanes
    /// (`zmm`), so the `avx2` tier stays bit-identical to it.
    macro_rules! madd_rounded {
        (ymm $acc:expr, $a:expr, $b:expr) => {
            _mm256_add_ps($acc, _mm256_mul_ps($a, $b))
        };
        (zmm $acc:expr, $a:expr, $b:expr) => {
            _mm512_add_ps($acc, _mm512_mul_ps($a, $b))
        };
    }

    /// `a + b`, one correctly-rounded add a lane, on 8 lanes (`ymm`) or 16
    /// lanes (`zmm`): the scalar oracle's `a + b` on each.
    macro_rules! add_rounded {
        (ymm $a:expr, $b:expr) => {
            _mm256_add_ps($a, $b)
        };
        (zmm $a:expr, $b:expr) => {
            _mm512_add_ps($a, $b)
        };
    }

    /// The data movement of one register width (`ymm` | `zmm`): `zero`,
    /// `load`, `store` and `splat` (the float at a pointer, in every lane).
    /// None of it rounds.
    macro_rules! vop {
        (ymm zero) => {
            _mm256_setzero_ps()
        };
        (ymm load $p:expr) => {
            _mm256_loadu_ps($p)
        };
        (ymm store $p:expr, $v:expr) => {
            _mm256_storeu_ps($p, $v)
        };
        (ymm splat $p:expr) => {
            _mm256_broadcast_ss(&*$p)
        };
        (zmm zero) => {
            _mm512_setzero_ps()
        };
        (zmm load $p:expr) => {
            _mm512_loadu_ps($p)
        };
        (zmm store $p:expr, $v:expr) => {
            _mm512_storeu_ps($p, $v)
        };
        (zmm splat $p:expr) => {
            _mm512_set1_ps(*$p)
        };
    }

    /// The `NN` / `TN` kernel at one register width, in a module `$w` that
    /// also holds the `$extra` items given. The two instantiations share
    /// this body verbatim: the width `$w` (`ymm` | `zmm`, `$lanes` floats)
    /// picks the data movement and the tile height `$mr`, with `$tail` the
    /// row counts below it that a row tail can have.
    macro_rules! gemm_width {
        (
            $w:ident,
            $lanes:literal,
            $mr:expr,
            [$($tail:literal),*],
            $($feat:literal),+
            $(; $($extra:item)*)?
        ) => {
            pub mod $w {
                use super::*;

                /// Floats a vector holds.
                const LANES: usize = $lanes;
                /// Vectors a tile row of `GEMM_NR` columns spans.
                const NV: usize = GEMM_NR / LANES;
                /// Rows of the `NN` / `TN` tile.
                const MR: usize = $mr;

                /// One `R x GEMM_NR` register tile of `C = A B` over `kc`
                /// reduction steps against a `B` panel of row stride `ldb`:
                /// the accumulators start from `+0.0` (`first`) or from
                /// `C`, take one multiply-add per `kk` in ascending order,
                /// and are stored back once. `a`, `b` and `c` start at the
                /// tile's first element of each operand.
                ///
                /// # Safety
                ///
                /// `R <= MR` and `0 < kc <= GEMM_KC`; `a` must hold
                /// `A[r][kk]` at `r * a_rs + kk * a_ks` for every `r < R`
                /// and `kk < kc`, and `b` `GEMM_NR` floats from `kk *
                /// ldb`. The `GEMM_NR` floats from `c + r * ldc` must be
                /// valid for reads and writes, and written through nothing
                /// else, for every `r < R`. The elements are addressed
                /// without bounds checks; the `a` and `b` spans are
                /// `debug_assert!`ed.
                #[target_feature($(enable = $feat),+)]
                #[inline]
                #[allow(clippy::too_many_arguments)]
                unsafe fn tile<const R: usize>(
                    a: &[f32],
                    a_rs: usize,
                    a_ks: usize,
                    b: &[f32],
                    ldb: usize,
                    c: *mut f32,
                    ldc: usize,
                    kc: usize,
                    first: bool,
                ) {
                    debug_assert!(0 < R && R <= MR && 0 < kc && kc <= GEMM_KC);
                    debug_assert!(a.len() > (R - 1) * a_rs + (kc - 1) * a_ks);
                    debug_assert!(b.len() >= (kc - 1) * ldb + GEMM_NR);
                    let (a, b) = (a.as_ptr(), b.as_ptr());
                    let mut acc = [[vop!($w zero); NV]; R];
                    if !first {
                        for r in 0..R {
                            for v in 0..NV {
                                // SAFETY: `c + r * ldc` holds GEMM_NR =
                                // NV * LANES floats (caller contract).
                                acc[r][v] = unsafe { vop!($w load c.add(r * ldc + v * LANES)) };
                            }
                        }
                    }
                    // Row `r` of the tile reads `A` from `a_rows[r]`. Hidden
                    // from the optimizer, or it rebuilds the `R` addresses
                    // from one another with `R - 1` integer adds a step,
                    // which take issue slots from the multiply-adds (the
                    // `zmm` tile read 7-14% slower on the benchmark shapes).
                    let a_rows: [*const f32; R] =
                        std::hint::black_box(std::array::from_fn(|r| a.wrapping_add(r * a_rs)));
                    for kk in 0..kc {
                        // SAFETY: `b + kk * ldb` holds GEMM_NR floats and
                        // every `a` element addressed is readable (caller
                        // contract).
                        unsafe {
                            let mut bv = [vop!($w zero); NV];
                            for v in 0..NV {
                                bv[v] = vop!($w load b.add(kk * ldb + v * LANES));
                            }
                            for r in 0..R {
                                let av = vop!($w splat a_rows[r].add(kk * a_ks));
                                for v in 0..NV {
                                    acc[r][v] = madd_rounded!($w acc[r][v], av, bv[v]);
                                }
                            }
                        }
                    }
                    for r in 0..R {
                        for v in 0..NV {
                            // SAFETY: as for the loads above.
                            unsafe { vop!($w store c.add(r * ldc + v * LANES), acc[r][v]) };
                        }
                    }
                }

                /// `C = A B` with `A[i][kk]` at `a[i * a_rs + kk * a_ks]`
                /// and `B[kk][j]` at `b[kk * ldb + j]` (the scalar
                /// oracle's layout convention), `C` being `c.rows() x
                /// c.cols()`; every output is overwritten.
                #[target_feature($(enable = $feat),+)]
                pub fn gemm(
                    a: &[f32],
                    a_rs: usize,
                    a_ks: usize,
                    b: &[f32],
                    ldb: usize,
                    mut c: StridedMut<'_>,
                    k: usize,
                ) {
                    let (m, n) = (c.rows(), c.cols());
                    if m == 0 || n == 0 {
                        return;
                    }
                    if k == 0 {
                        (0..m).for_each(|i| c.row(i).fill(0.0));
                        return;
                    }
                    assert!(a.len() > (m - 1) * a_rs + (k - 1) * a_ks);
                    assert!(b.len() >= (k - 1) * ldb + n);
                    // One `kc x GEMM_NR` panel of `B`, copied contiguous so
                    // that every row tile streams it from L1 whatever `ldb`
                    // strides `B` by, and zero-padded past column `n` so
                    // that the last panel is a full-width one too: its
                    // tiles run on `edge`, a staging copy of their `C`
                    // rows, whose dead lanes are never copied back. A
                    // full-width panel that a single row tile reads is
                    // read in place: copying it could not pay.
                    let mut panel = [0.0f32; GEMM_KC * GEMM_NR];
                    let mut edge = [0.0f32; MR * GEMM_NR];
                    for k0 in (0..k).step_by(GEMM_KC) {
                        let kc = GEMM_KC.min(k - k0);
                        let first = k0 == 0;
                        for j0 in (0..n).step_by(GEMM_NR) {
                            let cols = GEMM_NR.min(n - j0);
                            let staged = cols < GEMM_NR;
                            let packed = staged || m > MR;
                            if packed {
                                let rows = panel.chunks_exact_mut(GEMM_NR);
                                for (kk, dst) in rows.take(kc).enumerate() {
                                    let src = &b[(k0 + kk) * ldb + j0..][..cols];
                                    if staged {
                                        dst[..cols].copy_from_slice(src);
                                        dst[cols..].fill(0.0);
                                    } else {
                                        dst.copy_from_slice(src);
                                    }
                                }
                            }
                            for i0 in (0..m).step_by(MR) {
                                let rows = MR.min(m - i0);
                                if staged && !first {
                                    for r in 0..rows {
                                        let c_row = &c.row(i0 + r)[j0..][..cols];
                                        edge[r * GEMM_NR..][..cols].copy_from_slice(c_row);
                                    }
                                }
                                let at = &a[i0 * a_rs + k0 * a_ks..];
                                let (bt, ldb) = if packed {
                                    (&panel[..], GEMM_NR)
                                } else {
                                    (&b[k0 * ldb + j0..], ldb)
                                };
                                let (ct, ldc) = if staged {
                                    (edge.as_mut_ptr(), GEMM_NR)
                                } else {
                                    c.at(i0, j0, rows, GEMM_NR)
                                };
                                // SAFETY: `rows <= MR`, `0 < kc <= GEMM_KC`.
                                // Rows `i0..i0 + rows` (<= m) and reduction
                                // steps `k0..k0 + kc` (<= k) are inside `a`
                                // by the assert above. The `B` panel is
                                // `panel` (GEMM_KC >= kc rows of GEMM_NR)
                                // or rows `k0..k0 + kc`, columns `j0..j0 +
                                // GEMM_NR` (<= n: not staged) of `b`; the
                                // output is `edge` (MR >= rows rows of
                                // GEMM_NR) or rows `i0..i0 + rows` (<= m)
                                // of the same columns of `c`, elements of
                                // the view `c`, which nothing else writes
                                // while it is borrowed here.
                                unsafe {
                                    match rows {
                                        $($tail => tile::<$tail>(
                                            at, a_rs, a_ks, bt, ldb, ct, ldc, kc, first,
                                        ),)*
                                        _ => tile::<MR>(
                                            at, a_rs, a_ks, bt, ldb, ct, ldc, kc, first,
                                        ),
                                    }
                                }
                                if staged {
                                    for r in 0..rows {
                                        let c_row = &mut c.row(i0 + r)[j0..][..cols];
                                        c_row.copy_from_slice(&edge[r * GEMM_NR..][..cols]);
                                    }
                                }
                            }
                        }
                    }
                }

                $($($extra)*)?
            }
        };
    }

    /// The `NT` kernel at one register width `$w`, in a module that
    /// [`gemm_width`] filled at that width (it reads `LANES`): `$nj`
    /// columns a tile, with `$tail` the column counts below it that a
    /// column tail can have.
    macro_rules! nt_width {
        ($w:ident, $nj:expr, [$($tail:literal),*], $($feat:literal),+) => {
            /// Columns of `C = A B^T` (rows of `B`) an `NT` tile
            /// holds: eight partial sums each, `8 NJ` accumulators.
            const NJ: usize = $nj;

            /// `LANES` rows by `J` columns of `C = A B^T`, vectorized
            /// across the rows: lane `r` of every vector is row `r` of
            /// the block. Each output keeps [`dot`]'s eight partial
            /// sums (reduction step `kk % 8`), started at `+0.0`, each
            /// taking a multiply then an add for `kk` ascending; folds
            /// them in [`hreduce`]'s order, `((P0 + P4) + (P2 + P6)) +
            /// ((P1 + P5) + (P3 + P7))`, and adds the `k % 8` tail in
            /// scalar order: one [`dot`] per output, bit for bit. `pa`
            /// is the block of `A` packed `k x LANES` (step `kk` of
            /// row `r` at `kk * LANES + r`), `b` the tile's first row
            /// of `B`, read in place. Rows `r < rows` of the block are
            /// stored, to `c + r * ldc + j`.
            ///
            /// # Safety
            ///
            /// `0 < J <= NJ` and `rows <= LANES`; `pa` must hold `k *
            /// LANES` and `b` `J * k` floats. The `J` floats from `c +
            /// r * ldc` must be valid for writes, and written through
            /// nothing else, for every `r < rows`. The elements are
            /// addressed without bounds checks; the `pa` and `b` spans
            /// are `debug_assert!`ed.
            #[target_feature($(enable = $feat),+)]
            #[inline]
            unsafe fn tile_nt<const J: usize>(
                pa: &[f32],
                b: &[f32],
                k: usize,
                c: *mut f32,
                ldc: usize,
                rows: usize,
            ) {
                debug_assert!(0 < J && J <= NJ && rows <= LANES);
                debug_assert!(pa.len() >= k * LANES && b.len() >= J * k);
                let pa = pa.as_ptr();
                let b_rows: [*const f32; J] =
                    std::array::from_fn(|j| b.as_ptr().wrapping_add(j * k));
                let mut acc = [[vop!($w zero); 8]; J];
                let full = k - k % 8;
                for k0 in (0..full).step_by(8) {
                    for l in 0..8 {
                        // SAFETY: `k0 + l < k` is inside the packed
                        // block and inside every `B` row (caller
                        // contract).
                        unsafe {
                            let av = vop!($w load pa.add((k0 + l) * LANES));
                            for j in 0..J {
                                let bv = vop!($w splat b_rows[j].add(k0 + l));
                                acc[j][l] = madd_rounded!($w acc[j][l], av, bv);
                            }
                        }
                    }
                }
                let mut out = [[0.0f32; LANES]; J];
                for (j, p) in acc.iter().enumerate() {
                    let lo = add_rounded!($w add_rounded!($w p[0], p[4]), add_rounded!($w p[2], p[6]));
                    let hi = add_rounded!($w add_rounded!($w p[1], p[5]), add_rounded!($w p[3], p[7]));
                    let mut sum = add_rounded!($w lo, hi);
                    for kk in full..k {
                        // SAFETY: as above, `kk < k`.
                        unsafe {
                            let av = vop!($w load pa.add(kk * LANES));
                            sum = madd_rounded!($w sum, av, vop!($w splat b_rows[j].add(kk)));
                        }
                    }
                    // SAFETY: `out[j]` holds LANES floats.
                    unsafe { vop!($w store out[j].as_mut_ptr(), sum) };
                }
                for r in 0..rows {
                    for (j, col) in out.iter().enumerate() {
                        // SAFETY: `c + r * ldc + j` is writable
                        // (caller contract).
                        unsafe { *c.add(r * ldc + j) = col[r] };
                    }
                }
            }

            /// `C = A B^T` for row-major `a` (`m x k`) and `b` (`n x
            /// k`), `C` being `c.rows() x c.cols()` = `m x n`; every
            /// output is overwritten. `A`'s rows are packed once
            /// ([`pack_nt`]) into a stack buffer of `NT_PACK` floats, as
            /// many blocks of `LANES` rows at a time as it holds, and
            /// [`gemm_nt_packed`] runs the tiles over each packing.
            /// Where one block of `k` steps outgrows the buffer, each
            /// output is one [`dot`] call.
            #[target_feature($(enable = $feat),+)]
            pub fn gemm_nt(a: &[f32], b: &[f32], mut c: StridedMut<'_>, k: usize) {
                let (m, n) = (c.rows(), c.cols());
                assert!(a.len() >= m * k && b.len() >= n * k);
                if m == 0 || n == 0 {
                    return;
                }
                let chunk = nt_pack_rows(k);
                if chunk == 0 {
                    for i in 0..m {
                        let a_row = &a[i * k..][..k];
                        for (j, out) in c.row(i).iter_mut().enumerate() {
                            *out = dot(a_row, &b[j * k..][..k]);
                        }
                    }
                    return;
                }
                let mut pack = [const { std::mem::MaybeUninit::<f32>::uninit() }; NT_PACK];
                for r0 in (0..m).step_by(chunk) {
                    let rows = chunk.min(m - r0);
                    let packed = pack_nt(&a[r0 * k..][..rows * k], k, &mut pack);
                    gemm_nt_packed(packed, rows, b, &mut c, r0, k);
                }
            }

            /// Rows of `A` (`k` floats each) that one packing of
            /// [`pack_nt`] holds, a multiple of `LANES`: 0 where one
            /// block of `k` steps outgrows `NT_PACK`, or `k == 0`.
            pub(crate) fn nt_pack_rows(k: usize) -> usize {
                if k == 0 {
                    0
                } else {
                    NT_PACK / (k * LANES) * LANES
                }
            }

            /// Packs the rows of `a` (`k` floats each, at most
            /// [`nt_pack_rows`] of them) into `pack`, in blocks of
            /// `LANES` rows: block `q`'s step `kk` of row `r` at `(q *
            /// k + kk) * LANES + r`; lanes past the last row hold `0.0`
            /// and are never stored. Returns the packed floats. A copy:
            /// it moves bits, rounds nothing.
            ///
            /// # Panics
            ///
            /// Panics if `k == 0`, if `a` is no whole number of rows or
            /// if they outgrow `pack`.
            #[target_feature($(enable = $feat),+)]
            pub(crate) fn pack_nt<'p>(
                a: &[f32],
                k: usize,
                pack: &'p mut [std::mem::MaybeUninit<f32>; NT_PACK],
            ) -> &'p [f32] {
                assert!(k > 0 && a.len() % k == 0, "{} floats of rows of {k}", a.len());
                let rows = a.len() / k;
                let blocks = rows.div_ceil(LANES);
                let packs = pack.chunks_exact_mut(k * LANES);
                assert!(blocks <= packs.len(), "{rows} rows of {k} outgrow the pack");
                for (q, block) in packs.take(blocks).enumerate() {
                    let live = LANES.min(rows - q * LANES);
                    let src = &a[q * LANES * k..][..live * k];
                    // Whole 8 x 8 squares in registers, the rest (the `k
                    // % 8` tail, a ragged last block) one float at a time.
                    let (whole_rows, whole_k) = (live - live % 8, k - k % 8);
                    for l0 in (0..whole_rows).step_by(8) {
                        for k0 in (0..whole_k).step_by(8) {
                            let to = &mut block[k0 * LANES + l0..][..7 * LANES + 8];
                            // SAFETY: `to` holds the 8 floats from every
                            // `c * LANES`, `c < 8`.
                            unsafe {
                                transpose8(&src[l0 * k + k0..], k, to.as_mut_ptr().cast(), LANES)
                            };
                        }
                    }
                    for (kk, step) in block.chunks_exact_mut(LANES).enumerate() {
                        let from = if kk < whole_k { whole_rows } else { 0 };
                        for (lane, v) in step.iter_mut().enumerate().skip(from) {
                            v.write(if lane < live { src[lane * k + kk] } else { 0.0 });
                        }
                    }
                }
                // SAFETY: the loop above wrote every one of the `blocks *
                // k * LANES` floats this views, inside `pack` (asserted).
                unsafe { std::slice::from_raw_parts(pack.as_ptr().cast(), blocks * k * LANES) }
            }

            /// Rows `r0..r0 + rows` of `C = A B^T` into the view `c`,
            /// over those rows of `A` as [`pack_nt`] packed them
            /// (`packed`) and the `c.cols()` rows of `b` (`k` floats
            /// each). `B` is read in place, in ranges of `NT_B_RANGE`
            /// floats, and each packed block (`k x LANES`, L1-resident)
            /// meets every tile of a range (L2-resident) before the next
            /// block.
            ///
            /// # Panics
            ///
            /// Panics if `k == 0`, if `packed` does not hold `rows` rows,
            /// if `r0 + rows > c.rows()` or if `b` holds fewer than
            /// `c.cols()` rows.
            #[target_feature($(enable = $feat),+)]
            pub(crate) fn gemm_nt_packed(
                packed: &[f32],
                rows: usize,
                b: &[f32],
                c: &mut StridedMut<'_>,
                r0: usize,
                k: usize,
            ) {
                let n = c.cols();
                assert!(k > 0 && packed.len() == rows.div_ceil(LANES) * k * LANES);
                assert!(r0 + rows <= c.rows() && b.len() >= n * k);
                let range = (NT_B_RANGE / k / NJ).max(1) * NJ;
                for j1 in (0..n).step_by(range) {
                    for (q, pa) in packed.chunks_exact(k * LANES).enumerate() {
                        let live = LANES.min(rows - q * LANES);
                        for j0 in (j1..n.min(j1 + range)).step_by(NJ) {
                            let cols = NJ.min(n - j0);
                            let bt = &b[j0 * k..][..cols * k];
                            let (ct, ldc) = c.at(r0 + q * LANES, j0, live, cols);
                            // SAFETY: `cols <= NJ`, `live <= LANES`; `pa`
                            // is one packed block of `k` steps, `bt` rows
                            // `j0..j0 + cols` (<= n) of `b`; the outputs
                            // are rows `r0 + q * LANES..` (`live` of
                            // them, `<= r0 + rows <= c.rows()`) and
                            // columns `j0..j0 + cols` of the view `c`,
                            // which nothing else writes while it is
                            // borrowed here.
                            unsafe {
                                match cols {
                                    $($tail => tile_nt::<$tail>(
                                        pa, bt, k, ct, ldc, live,
                                    ),)*
                                    _ => tile_nt::<NJ>(pa, bt, k, ct, ldc, live),
                                }
                            }
                        }
                    }
                }
            }
        };
    }

    /// The `NT` kernel on 8-lane `ymm` registers (the batch-vectorized one
    /// of [`nt_width`], whose eight partial sums a column leave sixteen
    /// registers room for a one-column tile that loads a vector and a
    /// broadcast for every multiply-add, ran at 0.75x of it), and the `NN`
    /// / `TN` kernel and the batch-vectorized `NT` one at 16 lanes.
    pub mod avx2 {
        use super::*;

        /// `NT_MR x NT_NR` outputs of `C = A B^T` in flight: each
        /// keeps its own 8-lane partial sums over the `k / 8` full
        /// chunks, folds them with [`hreduce`] and finishes the `k % 8`
        /// tail in scalar — the exact sequence of one [`dot`] call.
        /// `a`, `b` and `c` start at the block's first row of each
        /// operand.
        ///
        /// # Safety
        ///
        /// `a` must hold `NT_MR` and `b` `NT_NR` rows of `k`
        /// floats each. The `NT_NR` floats from `c + r * ldc` must
        /// be valid for writes, and written through nothing else,
        /// for every `r < NT_MR`. The elements are addressed
        /// without bounds checks; the `a` and `b` spans are
        /// `debug_assert!`ed.
        #[target_feature(enable = "avx2")]
        #[inline]
        unsafe fn tile_nt(a: &[f32], b: &[f32], k: usize, c: *mut f32, ldc: usize) {
            debug_assert!(a.len() >= NT_MR * k && b.len() >= NT_NR * k);
            let (a, b) = (a.as_ptr(), b.as_ptr());
            let mut acc = [[_mm256_setzero_ps(); NT_NR]; NT_MR];
            let full = k - k % 8;
            let mut kk = 0;
            while kk < full {
                // SAFETY: `kk + 8 <= k` bounds every 8-lane load
                // inside its row (caller contract).
                unsafe {
                    let mut av = [_mm256_setzero_ps(); NT_MR];
                    for r in 0..NT_MR {
                        av[r] = _mm256_loadu_ps(a.add(r * k + kk));
                    }
                    for j in 0..NT_NR {
                        let bv = _mm256_loadu_ps(b.add(j * k + kk));
                        for r in 0..NT_MR {
                            acc[r][j] = madd_rounded!(ymm acc[r][j], av[r], bv);
                        }
                    }
                }
                kk += 8;
            }
            for r in 0..NT_MR {
                for j in 0..NT_NR {
                    let mut sum = hreduce(acc[r][j]);
                    for t in full..k {
                        // SAFETY: `t < k` is inside both rows.
                        let (x, y) = unsafe { (*a.add(r * k + t), *b.add(j * k + t)) };
                        sum += x * y;
                    }
                    // SAFETY: `c + r * ldc + j` is writable (caller
                    // contract).
                    unsafe { *c.add(r * ldc + j) = sum };
                }
            }
        }

        /// `C = A B^T` for row-major `a` (`m x k`) and `b`
        /// (`n x k`), `C` being `c.rows() x c.cols()` = `m x n`;
        /// every output is overwritten.
        #[target_feature(enable = "avx2")]
        pub fn gemm_nt(a: &[f32], b: &[f32], mut c: StridedMut<'_>, k: usize) {
            let (m, n) = (c.rows(), c.cols());
            assert!(a.len() >= m * k && b.len() >= n * k);
            // Without one full 8-lane chunk there is nothing to tile.
            let m_tiled = if k < 8 { 0 } else { m - m % NT_MR };
            let n_tiled = n - n % NT_NR;
            for j0 in (0..n_tiled).step_by(NT_NR) {
                for i0 in (0..m_tiled).step_by(NT_MR) {
                    let (at, bt) = (&a[i0 * k..], &b[j0 * k..]);
                    let (ct, ldc) = c.at(i0, j0, NT_MR, NT_NR);
                    // SAFETY: rows `i0..i0 + NT_MR` (<= m) of `a`,
                    // rows `j0..j0 + NT_NR` (<= n) of `b` are
                    // inside the operands by the assert above; the
                    // outputs are elements `(i0.., j0..)` of the
                    // view `c`, which nothing else writes while it
                    // is borrowed here; and AVX2 is enabled here.
                    unsafe { tile_nt(at, bt, k, ct, ldc) };
                }
            }
            // Tails: the last `m % NT_MR` rows over all columns,
            // then the last `n % NT_NR` columns of the tiled rows.
            for i in 0..m {
                let a_row = &a[i * k..(i + 1) * k];
                let j_from = if i < m_tiled { n_tiled } else { 0 };
                let c_row = c.row(i);
                for j in j_from..n {
                    c_row[j] = dot(a_row, &b[j * k..(j + 1) * k]);
                }
            }
        }

        gemm_width!(ymm, 8, GEMM_MR_YMM, [1, 2, 3], "avx2");
        gemm_width!(
            zmm,
            16,
            GEMM_MR_ZMM,
            [1, 2, 3, 4, 5, 6, 7],
            "avx2",
            "avx512f";
            nt_width!(zmm, NT_NJ, [1, 2], "avx2", "avx512f");
        );
    }

    /// Where pair `(i, j)`, `i < j`, of `m` features sits in the `Dot`
    /// interaction's pair order (`(0, 1), (0, 2), .., (1, 2), ..`).
    #[inline(always)]
    fn pair_index(m: usize, i: usize, j: usize) -> usize {
        i * (2 * m - i - 1) / 2 + (j - i - 1)
    }

    /// `NP` pair dot products of one `PAIR_ROWS`-row block over `kc`
    /// reduction steps, one 8-lane accumulator a pair, lane `r` being row
    /// `r` of the block; `tile` is the block's `m * kc` tile rows, feature
    /// by feature. Pair `q` multiplies tile rows `ij[q].0 + kk` and
    /// `ij[q].1 + kk` (its two features' `k` = `k0 + kk`) in that order;
    /// each accumulator starts from `-0.0` (`first`) or from the partial
    /// sum stored at `out[r * ldo + q]`, adds the products for `kk`
    /// ascending, and is stored back there.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn pair_tile<const NP: usize>(
        tile: &[[f32; PAIR_ROWS]],
        kc: usize,
        ij: &[(usize, usize); PAIR_NP],
        out: &mut [f32],
        ldo: usize,
        first: bool,
    ) {
        let mut stage = [[-0.0f32; PAIR_ROWS]; NP];
        if !first {
            for (q, lanes) in stage.iter_mut().enumerate() {
                for (r, v) in lanes.iter_mut().enumerate() {
                    *v = out[r * ldo + q];
                }
            }
        }
        let mut acc = [_mm256_setzero_ps(); NP];
        for (a, lanes) in acc.iter_mut().zip(&stage) {
            *a = ymm_load(lanes);
        }
        // Window `kk` of the tile starts at its row `kk`, so the rows `ij`
        // of a window are step `kk` of every pair. Checked once here, so
        // that the loads below need no check.
        let span = tile.len() + 1 - kc;
        let ij = &ij[..NP];
        assert!(ij.iter().all(|&(i, j)| i < span && j < span));
        for w in tile.windows(span) {
            for (a, &(i, j)) in acc.iter_mut().zip(ij) {
                *a = madd_rounded!(ymm * a, ymm_load(&w[i]), ymm_load(&w[j]));
            }
        }
        for (q, (lanes, &a)) in stage.iter_mut().zip(&acc).enumerate() {
            ymm_store(lanes, a);
            for (r, &v) in lanes.iter().enumerate() {
                out[r * ldo + q] = v;
            }
        }
    }

    /// Copies the 8 x 8 block of `src` whose row `r` is `src[r * lds..][..8]`
    /// to `dst` transposed: column `c` of the block becomes the 8 floats
    /// from `dst + c * ldd`. Shuffles only: bits move, none change.
    ///
    /// # Safety
    ///
    /// The 8 floats from `dst + c * ldd` must be valid for writes, and
    /// written through nothing else, for every `c < 8`.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn transpose8(src: &[f32], lds: usize, dst: *mut f32, ldd: usize) {
        assert!(src.len() >= 7 * lds + 8);
        // SAFETY: rows `r < 8` of 8 floats from `r * lds` are inside `src`
        // (asserted above).
        let r: [__m256; 8] =
            std::array::from_fn(|i| unsafe { _mm256_loadu_ps(src.as_ptr().add(i * lds)) });
        // Interleave row pairs, then pairs of pairs: `q[c]` holds column
        // `c` of rows 0-3 in its low half and column `c + 4` in its high
        // half, `q[c + 4]` the same of rows 4-7.
        let t: [__m256; 8] = std::array::from_fn(|i| {
            let (a, b) = (r[i / 2 * 2], r[i / 2 * 2 + 1]);
            if i % 2 == 0 {
                _mm256_unpacklo_ps(a, b)
            } else {
                _mm256_unpackhi_ps(a, b)
            }
        });
        let q = [
            _mm256_shuffle_ps::<0x44>(t[0], t[2]),
            _mm256_shuffle_ps::<0xEE>(t[0], t[2]),
            _mm256_shuffle_ps::<0x44>(t[1], t[3]),
            _mm256_shuffle_ps::<0xEE>(t[1], t[3]),
            _mm256_shuffle_ps::<0x44>(t[4], t[6]),
            _mm256_shuffle_ps::<0xEE>(t[4], t[6]),
            _mm256_shuffle_ps::<0x44>(t[5], t[7]),
            _mm256_shuffle_ps::<0xEE>(t[5], t[7]),
        ];
        for c in 0..4 {
            let lo = _mm256_permute2f128_ps::<0x20>(q[c], q[c + 4]);
            let hi = _mm256_permute2f128_ps::<0x31>(q[c], q[c + 4]);
            // SAFETY: the 8 floats from `dst + c * ldd` and `dst + (c + 4) *
            // ldd` are writable (caller contract).
            unsafe {
                _mm256_storeu_ps(dst.add(c * ldd), lo);
                _mm256_storeu_ps(dst.add((c + 4) * ldd), hi);
            }
        }
    }

    /// The pair dot products of every whole `PAIR_ROWS`-row block of the
    /// `Dot` interaction (see [`super::pair_dots`]); returns the rows
    /// written.
    #[target_feature(enable = "avx2")]
    pub fn pair_dots<'a>(
        input: impl Fn(usize) -> &'a [f32],
        m: usize,
        dim: usize,
        batch: usize,
        out: &mut [f32],
    ) -> usize {
        let kc_max = (PAIR_TILE_KS / m.max(1)).min(dim);
        let rows = batch - batch % PAIR_ROWS;
        if m < 2 || kc_max == 0 || rows == 0 {
            return 0;
        }
        let pairs = m * (m - 1) / 2;
        let ldo = dim + pairs;
        let mut tile = [0.0f32; PAIR_TILE_KS * PAIR_ROWS];
        let mut ij = [(0, 0); PAIR_NP];
        for b0 in (0..rows).step_by(PAIR_ROWS) {
            for k0 in (0..dim).step_by(kc_max) {
                let kc = kc_max.min(dim - k0);
                // Tile row `f * kc + kk` holds `x_f[b0 + r][k0 + kk]` in
                // lane `r`: 8 x 8 blocks transposed in registers, then the
                // `kc % 8` columns past them one by one. A copy: it moves
                // bits, rounds nothing.
                let whole = kc - kc % 8;
                for f in 0..m {
                    let x = &input(f)[b0 * dim + k0..];
                    let dst = &mut tile[f * kc * PAIR_ROWS..][..kc * PAIR_ROWS];
                    for c in (0..whole).step_by(8) {
                        let to = &mut dst[c * PAIR_ROWS..][..8 * PAIR_ROWS];
                        // SAFETY: `to` holds the 8 rows of PAIR_ROWS = 8
                        // floats written.
                        unsafe { transpose8(&x[c..], dim, to.as_mut_ptr(), PAIR_ROWS) };
                    }
                    for r in 0..PAIR_ROWS {
                        for kk in whole..kc {
                            dst[kk * PAIR_ROWS + r] = x[r * dim + kk];
                        }
                    }
                }
                let rows = &tile.as_chunks().0[..m * kc];
                let (mut i, mut j) = (0, 1);
                for p0 in (0..pairs).step_by(PAIR_NP) {
                    let np = PAIR_NP.min(pairs - p0);
                    for slot in &mut ij[..np] {
                        *slot = (i * kc, j * kc);
                        j += 1;
                        if j == m {
                            i += 1;
                            j = i + 1;
                        }
                    }
                    let o = &mut out[b0 * ldo + dim + p0..];
                    let first = k0 == 0;
                    match np {
                        1 => pair_tile::<1>(rows, kc, &ij, o, ldo, first),
                        2 => pair_tile::<2>(rows, kc, &ij, o, ldo, first),
                        3 => pair_tile::<3>(rows, kc, &ij, o, ldo, first),
                        4 => pair_tile::<4>(rows, kc, &ij, o, ldo, first),
                        5 => pair_tile::<5>(rows, kc, &ij, o, ldo, first),
                        6 => pair_tile::<6>(rows, kc, &ij, o, ldo, first),
                        7 => pair_tile::<7>(rows, kc, &ij, o, ldo, first),
                        _ => pair_tile::<PAIR_NP>(rows, kc, &ij, o, ldo, first),
                    }
                }
            }
        }
        rows
    }

    /// `V` vectors of feature `f`'s gradient row, from column `c0`: started
    /// from `start` (or `+0.0`), `g * x_q` added for every partner `q != f`
    /// ascending whose `g` is not `0.0`, and stored to `grad`.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn grad_cols<'a, const V: usize>(
        row: &impl Fn(usize) -> &'a [f32],
        m: usize,
        f: usize,
        dpairs: &[f32],
        start: Option<&[f32]>,
        grad: &mut [f32],
        c0: usize,
    ) {
        let mut acc = [_mm256_setzero_ps(); V];
        if let Some(start) = start {
            for (a, s) in acc.iter_mut().zip(start[c0..][..V * 8].as_chunks().0) {
                *a = ymm_load(s);
            }
        }
        for q in (0..m).filter(|&q| q != f) {
            let g = dpairs[pair_index(m, q.min(f), q.max(f))];
            if g == 0.0 {
                continue;
            }
            let gv = _mm256_set1_ps(g);
            for (a, x) in acc.iter_mut().zip(row(q)[c0..][..V * 8].as_chunks().0) {
                *a = madd_rounded!(ymm * a, gv, ymm_load(x));
            }
        }
        for (out, &a) in grad[..V * 8].as_chunks_mut().0.iter_mut().zip(&acc) {
            ymm_store(out, a);
        }
    }

    /// Feature `f`'s gradient row of the `Dot` interaction (see
    /// [`super::pair_grads_row`]).
    #[target_feature(enable = "avx2")]
    pub fn pair_grads_row<'a>(
        row: impl Fn(usize) -> &'a [f32],
        m: usize,
        f: usize,
        start: Option<&[f32]>,
        dpairs: &[f32],
        grad: &mut [f32],
    ) {
        debug_assert!(f < m);
        let dim = grad.len();
        let mut c0 = 0;
        while dim - c0 >= 8 {
            let nv = ((dim - c0) / 8).min(GRAD_NV);
            let (row, cols) = (&row, &mut grad[c0..]);
            match nv {
                1 => grad_cols::<1>(row, m, f, dpairs, start, cols, c0),
                2 => grad_cols::<2>(row, m, f, dpairs, start, cols, c0),
                3 => grad_cols::<3>(row, m, f, dpairs, start, cols, c0),
                4 => grad_cols::<4>(row, m, f, dpairs, start, cols, c0),
                5 => grad_cols::<5>(row, m, f, dpairs, start, cols, c0),
                6 => grad_cols::<6>(row, m, f, dpairs, start, cols, c0),
                7 => grad_cols::<7>(row, m, f, dpairs, start, cols, c0),
                _ => grad_cols::<GRAD_NV>(row, m, f, dpairs, start, cols, c0),
            }
            c0 += nv * 8;
        }
        if c0 < dim {
            let tail = &mut grad[c0..];
            match start {
                Some(start) => tail.copy_from_slice(&start[c0..dim]),
                None => tail.fill(0.0),
            }
            for q in (0..m).filter(|&q| q != f) {
                let g = dpairs[pair_index(m, q.min(f), q.max(f))];
                if g == 0.0 {
                    continue;
                }
                for (o, &x) in grad[c0..].iter_mut().zip(&row(q)[c0..dim]) {
                    *o += g * x;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Dispatching entry points.
//
// Each checks the requested tier against the host at runtime (the
// feature queries are cached atomics) and falls back to scalar when the
// tier is unavailable, so arbitrary `KernelDispatch` values are safe on
// any host.
// ---------------------------------------------------------------------------

/// `acc[j] += src[j]` — the gather-reduce accumulate. Bit-identical
/// across all tiers (pure lane-wise adds).
#[inline]
pub fn add_assign(d: KernelDispatch, acc: &mut [f32], src: &[f32]) {
    debug_assert_eq!(acc.len(), src.len());
    #[cfg(target_arch = "x86_64")]
    if d != KernelDispatch::Scalar && avx2_ok() {
        // SAFETY: AVX2 support verified on the line above.
        unsafe { x86::add_assign(acc, src) };
        return;
    }
    let _ = d;
    add_assign_scalar(acc, src);
}

/// Dot product with the 8-accumulator AVX2 fold on every tier (see the
/// module docs); `Avx2` is bit-identical to `Scalar`.
#[inline]
pub fn dot(d: KernelDispatch, a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    #[cfg(target_arch = "x86_64")]
    if d != KernelDispatch::Scalar && avx2_ok() {
        // SAFETY: AVX2 support verified on the line above.
        return unsafe { x86::dot(a, b) };
    }
    let _ = d;
    dot_scalar(a, b)
}

/// `C = A B` with `A[i][kk]` at `a[i * a_rs + kk * a_ks]` and `B[kk][j]`
/// at `b[kk * ldb + j]`, `C` being the `c.rows() x c.cols()` view: the
/// shared body of [`gemm_nn`] and [`gemm_tn`], and the kernel of a split
/// product's band. A band of `C`'s rows passes fewer rows of `A`; a band
/// of its columns passes the same columns of `B` (`&b[lo..]`, `ldb` the
/// whole row) and of `C`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_strided(
    d: KernelDispatch,
    a: &[f32],
    a_rs: usize,
    a_ks: usize,
    b: &[f32],
    ldb: usize,
    c: StridedMut<'_>,
    k: usize,
) {
    let (m, n) = (c.rows(), c.cols());
    debug_assert!(m == 0 || k == 0 || a.len() > (m - 1) * a_rs + (k - 1) * a_ks);
    debug_assert!(n == 0 || k == 0 || b.len() >= (k - 1) * ldb + n);
    #[cfg(target_arch = "x86_64")]
    if d != KernelDispatch::Scalar && avx2_ok() {
        if zmm_ok() {
            // SAFETY: AVX2 and AVX-512F support verified above.
            unsafe { x86::avx2::zmm::gemm(a, a_rs, a_ks, b, ldb, c, k) };
        } else {
            // SAFETY: AVX2 support verified above.
            unsafe { x86::avx2::ymm::gemm(a, a_rs, a_ks, b, ldb, c, k) };
        }
        return;
    }
    let _ = d;
    gemm_scalar(a, a_rs, a_ks, b, ldb, c, k);
}

/// `C = A B` for row-major `a` (`m x k`), `b` (`k x n`) and `c`
/// (`m x n`); every output is overwritten.
pub fn gemm_nn(
    d: KernelDispatch,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    debug_assert_eq!(b.len(), k * n);
    gemm_strided(d, a, k, 1, b, n, StridedMut::new(c, m, n), k);
}

/// `C = A^T B` where `A[kk][i]` lives at `a[kk * lda + i]`: the backprop
/// weight gradient without materializing the transpose. `lda == m` is a
/// whole `k x m` row-major `a`; a band of `m` output rows starting at row
/// `lo` of a wider product passes `&a[lo..]` and the full row length as
/// `lda`. Every output is overwritten.
#[allow(clippy::too_many_arguments)]
pub fn gemm_tn(
    d: KernelDispatch,
    a: &[f32],
    lda: usize,
    b: &[f32],
    c: &mut [f32],
    k: usize,
    m: usize,
    n: usize,
) {
    debug_assert_eq!(b.len(), k * n);
    gemm_strided(d, a, 1, lda, b, n, StridedMut::new(c, m, n), k);
}

/// `C = A B^T` for row-major `a` (`m x k`) and `b` (`n x k`): the backprop
/// input gradient. Every output is one [`dot`] (bit for bit) and is
/// overwritten.
pub fn gemm_nt(
    d: KernelDispatch,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    gemm_nt_strided(d, a, b, StridedMut::new(c, m, n), k);
}

/// [`gemm_nt`] into the `m x n` view `c` (`m = c.rows()`, `n =
/// c.cols()`): the kernel of a split backward's batch band, which passes a
/// band of `a`'s rows for a band of `C`'s rows. A block of `b`'s rows for
/// the same block of `C`'s columns goes through [`with_nt_lhs`].
pub(crate) fn gemm_nt_strided(
    d: KernelDispatch,
    a: &[f32],
    b: &[f32],
    c: StridedMut<'_>,
    k: usize,
) {
    debug_assert_eq!(a.len(), c.rows() * k);
    debug_assert_eq!(b.len(), c.cols() * k);
    #[cfg(target_arch = "x86_64")]
    if d != KernelDispatch::Scalar && avx2_ok() {
        let lanes = if zmm_ok() { 16 } else { 8 };
        gemm_nt_lanes(lanes, a, b, c, k);
        return;
    }
    let _ = d;
    gemm_nt_scalar(a, b, c, k);
}

/// `C = A B^T` for one row-major `a` (`m x k`) against several `b`s: runs
/// `f` with a kernel `nt(b, c)` that writes `c = A b^T` (`c.rows() == m`)
/// with [`gemm_nt_strided`]'s bits. Where that runs the `zmm` kernel and
/// all of `A` fits its pack, `A` is packed once here instead of once a
/// call: the blocks a backward cut across the weight hands one thread
/// each multiply the same `dy` by their own rows of `W`.
pub(crate) fn with_nt_lhs<R>(
    d: KernelDispatch,
    a: &[f32],
    k: usize,
    f: impl FnOnce(&mut dyn FnMut(&[f32], StridedMut<'_>)) -> R,
) -> R {
    #[cfg(target_arch = "x86_64")]
    if d != KernelDispatch::Scalar && avx2_ok() && zmm_ok() {
        use x86::avx2::zmm;
        let m = a.len().checked_div(k).unwrap_or(0);
        if m > 0 && m <= zmm::nt_pack_rows(k) {
            let mut pack = [const { std::mem::MaybeUninit::uninit() }; NT_PACK];
            // SAFETY: AVX2 and AVX-512F support verified above.
            let packed = unsafe { zmm::pack_nt(a, k, &mut pack) };
            return f(&mut |b, mut c| {
                assert_eq!(c.rows(), m, "rows of the packed A");
                // SAFETY: as above.
                unsafe { zmm::gemm_nt_packed(packed, m, b, &mut c, 0, k) };
            });
        }
    }
    f(&mut |b, c| gemm_nt_strided(d, a, b, c, k))
}

/// The `avx2` tier's `NT` kernel at one register width, `lanes` 8 (`ymm`)
/// or 16 (`zmm`), into the `m x n` view `c`; `false`, writing nothing,
/// where the host lacks AVX2 or that width.
fn gemm_nt_lanes(lanes: usize, a: &[f32], b: &[f32], c: StridedMut<'_>, k: usize) -> bool {
    #[cfg(target_arch = "x86_64")]
    if avx2_ok() {
        match lanes {
            // SAFETY: AVX2 support verified above.
            8 => unsafe { x86::avx2::gemm_nt(a, b, c, k) },
            // SAFETY: AVX2 verified above, AVX-512F by the guard.
            16 if zmm_ok() => unsafe { x86::avx2::zmm::gemm_nt(a, b, c, k) },
            _ => return false,
        }
        return true;
    }
    let _ = (lanes, a, b, c, k);
    false
}

/// [`gemm_nt`] on the `avx2` tier at one register width, `lanes` 8
/// (`ymm`) or 16 (`zmm`), for tests and benches that compare the widths
/// on one host (the dispatcher runs the widest the host has). Returns
/// `false`, writing nothing, where the host lacks AVX2 or that width.
///
/// # Panics
///
/// Panics if `lanes` is neither 8 nor 16.
pub fn gemm_nt_width(
    lanes: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) -> bool {
    assert!(lanes == 8 || lanes == 16, "no {lanes}-lane NT kernel");
    assert!(a.len() >= m * k && b.len() >= n * k);
    gemm_nt_lanes(lanes, a, b, StridedMut::new(c, m, n), k)
}

/// The `Dot` interaction forward's pair dot products, vectorized across
/// the batch (see the module docs). `input(f)` is feature `f`'s
/// `batch x dim` rows, `f < m`; `out` is the `batch x (dim + m(m-1)/2)`
/// interaction output, whose row `b` takes pair `p` at column `dim + p`.
/// Writes the pairs of the rows of every whole 8-row block and returns
/// their count, `batch - batch % 8`, where tier `d` runs SIMD on this
/// host, and 0 (writing nothing) where it does not: the caller's scalar
/// loop covers the rest, and on the oracle's bits.
pub(crate) fn pair_dots<'a>(
    d: KernelDispatch,
    input: impl Fn(usize) -> &'a [f32],
    m: usize,
    dim: usize,
    batch: usize,
    out: &mut [f32],
) -> usize {
    #[cfg(target_arch = "x86_64")]
    if d != KernelDispatch::Scalar && avx2_ok() {
        // SAFETY: AVX2 support verified on the line above.
        return unsafe { x86::pair_dots(input, m, dim, batch, out) };
    }
    let _ = (d, input, m, dim, batch, out);
    0
}

/// The `Dot` interaction backward's gradient row of feature `f < m` for
/// one batch row (see the module docs): `row(q)` is feature `q`'s input
/// row and `dpairs` the upstream gradient of the row's pairs. The sum
/// starts from `start` (the dense feature's passthrough) or from `+0.0`
/// and overwrites `grad`. Returns `false`, writing nothing, where tier
/// `d` does not run SIMD on this host: the caller's pair-major scalar
/// loop is the oracle.
pub(crate) fn pair_grads_row<'a>(
    d: KernelDispatch,
    row: impl Fn(usize) -> &'a [f32],
    m: usize,
    f: usize,
    start: Option<&[f32]>,
    dpairs: &[f32],
    grad: &mut [f32],
) -> bool {
    #[cfg(target_arch = "x86_64")]
    if d != KernelDispatch::Scalar && avx2_ok() {
        // SAFETY: AVX2 support verified on the line above.
        unsafe { x86::pair_grads_row(row, m, f, start, dpairs, grad) };
        return true;
    }
    let _ = (d, row, m, f, start, dpairs, grad);
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(n: usize, scale: f32) -> Vec<f32> {
        (0..n).map(|i| (i as f32 * scale).sin()).collect()
    }

    #[test]
    fn parse_accepts_all_tiers() {
        assert_eq!(
            KernelDispatch::parse("scalar"),
            Some(KernelDispatch::Scalar)
        );
        assert_eq!(KernelDispatch::parse("AVX2"), Some(KernelDispatch::Avx2));
        assert_eq!(KernelDispatch::parse(" fma "), None);
        assert_eq!(
            KernelDispatch::parse("auto"),
            Some(KernelDispatch::detect())
        );
        assert_eq!(KernelDispatch::parse("neon"), None);
    }

    #[test]
    fn scalar_always_supported_and_first() {
        assert!(KernelDispatch::Scalar.supported());
        assert_eq!(KernelDispatch::available()[0], KernelDispatch::Scalar);
    }

    #[test]
    fn every_available_tier_is_scalar_or_avx2() {
        for d in KernelDispatch::available() {
            assert!(
                matches!(d, KernelDispatch::Scalar | KernelDispatch::Avx2),
                "{d:?}"
            );
        }
        assert!(!KernelDispatch::Fma.supported());
    }

    #[test]
    fn add_assign_bit_identical_across_tiers() {
        for n in [0, 1, 5, 8, 17, 64, 67] {
            let src = seq(n, 0.37);
            let base = seq(n, 0.61);
            let mut scalar = base.clone();
            add_assign(KernelDispatch::Scalar, &mut scalar, &src);
            for d in KernelDispatch::available() {
                let mut out = base.clone();
                add_assign(d, &mut out, &src);
                assert_eq!(
                    scalar.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    out.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "n={n} tier={}",
                    d.name()
                );
            }
        }
    }

    #[test]
    fn avx2_dot_bit_identical() {
        if !KernelDispatch::Avx2.supported() {
            return;
        }
        for n in [1, 7, 8, 9, 31, 64, 66] {
            let src = seq(n, 0.73);
            let base = seq(n, 0.11);
            let ds = dot(KernelDispatch::Scalar, &base, &src);
            let dv = dot(KernelDispatch::Avx2, &base, &src);
            assert_eq!(ds.to_bits(), dv.to_bits(), "dot n={n}");
        }
    }

    #[test]
    fn forcing_overrides_env_resolution() {
        let before = dispatch();
        force(Some(KernelDispatch::Scalar));
        assert_eq!(dispatch(), KernelDispatch::Scalar);
        force(None);
        assert_eq!(dispatch(), before);
    }

    #[test]
    fn prefetch_accepts_any_slice() {
        prefetch(&[]);
        prefetch(&[1.0; 3]);
        prefetch(&vec![0.5; 1024]);
    }

    /// Values in `[-2, 2)` with, once per `4 * one_in` draws each, the
    /// inputs a bit-identity claim must survive: `-0.0`, two denormals and
    /// either NaN (`nan`) or `+inf` and `-inf`. Rare enough in a long
    /// reduction that most outputs stay finite. Not both: an input NaN
    /// meeting a generated one (`inf * 0`) keeps the payload of the first
    /// operand of the add, and which operand is first is the compiler's
    /// choice (it commutes adds), so the bits are then the same NaN-ness
    /// but not the same payload, on every width alike.
    #[cfg(target_arch = "x86_64")]
    fn adversarial(n: usize, one_in: u64, nan: bool, seed: u64) -> Vec<f32> {
        let mut rng = crate::SplitMix64::new(seed);
        (0..n)
            .map(|_| match rng.next_below(4 * one_in) {
                0 if nan => f32::NAN,
                0 => f32::INFINITY,
                1 if nan => -1.5,
                1 => f32::NEG_INFINITY,
                2 => -0.0,
                3 => 1.0e-40,
                4 => -1.0e-41,
                _ => rng.next_range(-2.0, 2.0),
            })
            .collect()
    }

    /// The `avx2` `NN` / `TN` kernel at one register width (`lanes` 8 or
    /// 16), called directly rather than through the dispatcher, which runs
    /// only the widest the host has. `false` where the host lacks AVX2 or
    /// the width.
    #[cfg(target_arch = "x86_64")]
    #[allow(clippy::too_many_arguments)]
    fn gemm_at_width(
        lanes: usize,
        a: &[f32],
        a_rs: usize,
        a_ks: usize,
        b: &[f32],
        ldb: usize,
        c: StridedMut<'_>,
        k: usize,
    ) -> bool {
        if !avx2_ok() || (lanes == 16 && !zmm_ok()) {
            return false;
        }
        // SAFETY: AVX2 (and AVX-512F for 16 lanes) verified above.
        unsafe {
            match lanes {
                8 => x86::avx2::ymm::gemm(a, a_rs, a_ks, b, ldb, c, k),
                16 => x86::avx2::zmm::gemm(a, a_rs, a_ks, b, ldb, c, k),
                _ => unreachable!("no {lanes}-lane kernel"),
            }
        }
        true
    }

    /// The index of the first output of `got` whose bits differ from the
    /// scalar oracle's `want`.
    #[cfg(target_arch = "x86_64")]
    fn mismatch(want: &[f32], got: &[f32]) -> Option<usize> {
        want.iter()
            .zip(got)
            .position(|(x, y)| x.to_bits() != y.to_bits())
    }

    /// Runs `C = A B` (`A[i][kk]` at `a[i * a_rs + kk * a_ks]`) on the
    /// `avx2` tier at both widths, on a `C` pre-filled with NaN (every
    /// output is overwritten), against the scalar oracle, bit for bit.
    #[cfg(target_arch = "x86_64")]
    #[allow(clippy::too_many_arguments)]
    fn check_widths(a: &[f32], a_rs: usize, a_ks: usize, b: &[f32], m: usize, k: usize, n: usize) {
        let mut want = vec![0.0f32; m * n];
        gemm_scalar(a, a_rs, a_ks, b, n, StridedMut::new(&mut want, m, n), k);
        for lanes in [8, 16] {
            let mut got = vec![f32::NAN; m * n];
            let c = StridedMut::new(&mut got, m, n);
            if !gemm_at_width(lanes, a, a_rs, a_ks, b, n, c, k) {
                continue;
            }
            let bad = mismatch(&want, &got);
            assert!(
                bad.is_none(),
                "{lanes}-lane vs scalar at {bad:?} (m={m} k={k} n={n} a_rs={a_rs} \
                 a_ks={a_ks}): {:?} vs {:?}",
                bad.map(|i| want[i].to_bits()),
                bad.map(|i| got[i].to_bits()),
            );
        }
    }

    /// Every row tail of both tiles (`m` up to two 8-row tiles and one
    /// more), the column tails of the 16-wide panel (`n = 1` is the logit
    /// layer) and both sides of the 256-step K block, in the `NN` layout.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn gemm_nn_widths_match_scalar_on_tile_edges() {
        let mut seed = 0x16;
        for k in [1, 255, 256, 257, 513] {
            for n in [1, 15, 16, 17, 31, 33] {
                for m in 1..=17 {
                    seed += 1;
                    let one_in = (k as u64).max(4);
                    for nan in [true, false] {
                        let a = adversarial(m * k, one_in, nan, seed);
                        let b = adversarial(k * n, one_in, nan, seed ^ 0xb);
                        check_widths(&a, k, 1, &b, m, k, n);
                    }
                }
            }
        }
    }

    /// `TN` row bands as the split backward cuts them: columns `lo..lo + m`
    /// of a `k x lda` operand with `lda > m`, so `A`'s rows are strided
    /// past the band.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn gemm_tn_bands_widths_match_scalar() {
        let mut seed = 0x7a;
        for k in [1, 255, 257, 513] {
            for n in [1, 16, 17, 33] {
                for (m, lo, lda) in [(1, 0, 2), (7, 3, 13), (8, 8, 16), (9, 0, 17), (16, 5, 40)] {
                    seed += 1;
                    let one_in = (k as u64).max(4);
                    for nan in [true, false] {
                        let a = adversarial(k * lda, one_in, nan, seed);
                        let b = adversarial(k * n, one_in, nan, seed ^ 0xb);
                        check_widths(&a[lo..], 1, lda, &b, m, k, n);
                    }
                }
            }
        }
    }

    /// The `NT` kernel's two edges the integration suite's shapes
    /// (`tests/simd_equivalence.rs`, both widths) do not reach: no
    /// reduction at all, and a `k` whose 16-row block outgrows the pack,
    /// where each output is one `dot` call. Bit for bit the scalar oracle,
    /// into a NaN-filled `C`.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn gemm_nt_widths_match_scalar_without_a_reduction_and_past_the_pack() {
        let mut seed = 0x47;
        for k in [0, NT_PACK / 16 + 1] {
            for (m, n) in [(1, 1), (17, 4)] {
                seed += 1;
                let a = adversarial(m * k, k as u64 + 4, true, seed);
                let b = adversarial(n * k, k as u64 + 4, true, seed ^ 0xb);
                let mut want = vec![0.0f32; m * n];
                gemm_nt_scalar(&a, &b, StridedMut::new(&mut want, m, n), k);
                for lanes in [8, 16] {
                    let mut got = vec![f32::NAN; m * n];
                    if gemm_nt_width(lanes, &a, &b, &mut got, m, k, n) {
                        let bad = mismatch(&want, &got);
                        assert!(bad.is_none(), "{lanes}-lane NT m={m} k={k} n={n}: {bad:?}");
                    }
                }
            }
        }
    }

    /// Column bands as the split forward and backward cut them: the `NN`
    /// kernel on columns `lo..lo + w` of `B` (row stride `n`) into the same
    /// columns of `C`, and the `NT` kernel on rows `lo..lo + w` of `B` into
    /// columns `lo..lo + w` of `C`, on every tier and width, each against
    /// the same columns of the whole product the scalar oracle computes:
    /// no output's operations depend on which columns its band holds.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn column_bands_match_the_whole_product_on_every_tier() {
        let mut seed = 0xc01;
        for k in [1, 7, 9, 257] {
            for (m, n) in [(1, 33), (5, 47), (9, 80), (17, 40)] {
                seed += 1;
                let one_in = (k as u64).max(4);
                let a = adversarial(m * k, one_in, false, seed);
                let b = adversarial(k * n, one_in, false, seed ^ 0xb);
                let bt = adversarial(n * k, one_in, false, seed ^ 0xbb);
                let (mut nn, mut nt) = (vec![0.0f32; m * n], vec![0.0f32; m * n]);
                gemm_scalar(&a, k, 1, &b, n, StridedMut::new(&mut nn, m, n), k);
                gemm_nt_scalar(&a, &bt, StridedMut::new(&mut nt, m, n), k);
                for (lo, w) in [(0, 16), (16, n - 16), (3, 13), (n - 1, 1)] {
                    let cols = |out: &[f32]| -> Vec<f32> {
                        let rows = out.chunks(n);
                        rows.flat_map(|row| &row[lo..lo + w]).copied().collect()
                    };
                    // Columns `lo..lo + w` of a NaN-filled output after
                    // `kernel` ran on that band's view (`None` where the
                    // host lacks the kernel), checking it wrote nothing
                    // outside the band.
                    let run = |kernel: &dyn Fn(StridedMut<'_>) -> bool| {
                        let mut out = vec![f32::NAN; m * n];
                        let view = StridedMut::new(&mut out, m, n).split_cols(lo).1;
                        kernel(view.split_cols(w).0).then(|| {
                            let rows = out.chunks(n);
                            let mut outside = rows.flat_map(|r| r[..lo].iter().chain(&r[lo + w..]));
                            assert!(outside.all(|v| v.is_nan()), "wrote outside {lo}+{w}");
                            cols(&out)
                        })
                    };
                    let (want_nn, want_nt) = (cols(&nn), cols(&nt));
                    for d in KernelDispatch::available() {
                        let mut got = vec![run(&|c| {
                            gemm_strided(d, &a, k, 1, &b[lo..], n, c, k);
                            true
                        })];
                        if d != KernelDispatch::Scalar {
                            got.extend([8, 16].map(|lanes| {
                                run(&|c| gemm_at_width(lanes, &a, k, 1, &b[lo..], n, c, k))
                            }));
                        }
                        let got_nt = run(&|c| {
                            gemm_nt_strided(d, &a, &bt[lo * k..(lo + w) * k], c, k);
                            true
                        });
                        let checks = got.into_iter().map(|g| ("NN", &want_nn, g));
                        for (what, want, got) in checks.chain([("NT", &want_nt, got_nt)]) {
                            let bad = got.and_then(|got| mismatch(want, &got));
                            assert!(
                                bad.is_none(),
                                "{what} {} m={m} k={k} n={n} cols {lo}+{w}: {bad:?}",
                                d.name()
                            );
                        }
                    }
                }
            }
        }
    }
}
