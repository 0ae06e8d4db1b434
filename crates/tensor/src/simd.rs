//! Runtime-dispatched SIMD kernels: x86-64 AVX2 (`std::arch`) with a
//! portable scalar fallback.
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
//! * The non-FMA tier ([`KernelDispatch::Avx2`]) uses only individually
//!   correctly-rounded operations (`vmulps`/`vaddps`/`vsubps`/`vdivps`/
//!   `vsqrtps` match their scalar counterparts per IEEE-754), so it is
//!   **bit-identical** to [`KernelDispatch::Scalar`] — including on NaN,
//!   `-0.0` and denormal inputs (Rust performs no FP contraction and x86
//!   runs with FTZ/DAZ off by default).
//! * The [`KernelDispatch::Fma`] tier contracts `a*b + c` with
//!   `vfmaddps` (one rounding instead of two). It is *tolerance-gated*,
//!   never auto-selected, and opt-in via `TCAST_KERNEL=fma`.
//!
//! The active tier is resolved once per process from the `TCAST_KERNEL`
//! environment variable (`scalar` | `avx2` | `fma` | `auto`, default
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
//! scalar tier (the oracle) and register-tiled on the SIMD tiers, whose
//! kernels are one macro body instantiated twice, differing only in the
//! multiply-add op. Tiling changes *where* an output lives while it is
//! being summed, never *what* is summed in which order:
//!
//! * `NN` and `TN` share one kernel (`A` is addressed through a row and a
//!   `k` stride). A tile keeps 4 rows x 16 columns of `C` in registers
//!   and, for `kk` ascending, adds `a[i][kk] * b[kk][j]` to each — the
//!   oracle's `c[i][j] += a[i][kk] * b[kk][j]` sequence starting from
//!   `+0.0`, vectorized across `j` only. `avx2` multiplies then adds (two
//!   roundings, like the oracle); `fma` contracts.
//! * The reduction is blocked by `GEMM_KC` steps: between blocks the
//!   accumulators are stored to `C` and loaded back, which changes when an
//!   element is revisited, not the order of its additions (an `f32` store
//!   and load is exact).
//! * Each 16-column panel of `B` is first copied into a contiguous,
//!   zero-padded stack buffer, so a tile streams it from L1 whatever the
//!   row stride, and the last `n % 16` columns run the same full-width
//!   tile (on a staging copy of `C` whose dead lanes are dropped). Row
//!   tails (`m % 4`) run the same tile body with fewer rows. Copies move
//!   bits; neither touches the arithmetic.
//! * `NT` keeps each output's own 8-lane partial sums, the fold above and
//!   the scalar `k % 8` tail — one [`dot`], exactly — and merely holds a
//!   2 x 4 block of outputs in flight; the `m % 2` / `n % 4` tails call
//!   [`dot`] itself.
//!
//! No output's operation sequence depends on `m`, so the pooled matmuls
//! simply run the same kernel on each row band: serial == pooled holds by
//! construction on every tier. The tile and block sizes are compile-time
//! constants picked on the repo benchmark's shapes (`BENCH_kernel.json`
//! carries the per-shape rates against this host's multiply-add peak);
//! nothing about them is tunable at run time.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// Register tile of the `C = A B` kernels (`NN` and `TN`): `GEMM_MR` rows
/// by `GEMM_NR` columns (two 8-lane vectors), i.e. eight accumulators, two
/// `B` vectors and one broadcast of `A` in the sixteen `ymm` registers.
const GEMM_MR: usize = 4;
const GEMM_NR: usize = 16;
/// Reduction steps a tile takes between loading and storing its `C`
/// accumulators.
const GEMM_KC: usize = 256;
/// Outputs of `C = A B^T` kept in flight: `NT_MR` rows of `A` against
/// `NT_NR` rows of `B`, eight independent 8-lane dot accumulators.
const NT_MR: usize = 2;
const NT_NR: usize = 4;

/// Environment variable selecting the kernel tier (`scalar` | `avx2` |
/// `fma` | `auto`).
pub const KERNEL_ENV: &str = "TCAST_KERNEL";

/// Which kernel implementation the hot loops run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelDispatch {
    /// Portable scalar loops — the bit-exact oracle for `Avx2` and the
    /// tolerance oracle for `Fma`.
    Scalar,
    /// AVX2 without FMA contraction: bit-identical to `Scalar`.
    Avx2,
    /// AVX2 + FMA contraction in GEMM/dot/axpy: faster, tolerance-gated,
    /// never auto-selected.
    Fma,
}

impl KernelDispatch {
    /// The best *bit-identical* tier this host supports (`Avx2` where
    /// available, else `Scalar`). `Fma` is never auto-selected.
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
            "fma" => Some(KernelDispatch::Fma),
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
            KernelDispatch::Fma => fma_ok(),
        }
    }

    /// Every tier this host supports, scalar first — the bench sweep
    /// axis.
    pub fn available() -> Vec<Self> {
        let mut tiers = vec![KernelDispatch::Scalar];
        if KernelDispatch::Avx2.supported() {
            tiers.push(KernelDispatch::Avx2);
        }
        if KernelDispatch::Fma.supported() {
            tiers.push(KernelDispatch::Fma);
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

#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn fma_ok() -> bool {
    avx2_ok() && std::arch::is_x86_feature_detected!("fma")
}

#[cfg(not(target_arch = "x86_64"))]
#[inline(always)]
fn avx2_ok() -> bool {
    false
}

#[cfg(not(target_arch = "x86_64"))]
#[inline(always)]
fn fma_ok() -> bool {
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
        3 => KernelDispatch::Fma,
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
        Some(KernelDispatch::Avx2) => 2,
        Some(KernelDispatch::Fma) => 3,
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
                    "{KERNEL_ENV}={v:?} not recognized (expected scalar|avx2|fma|auto); \
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

#[inline(always)]
fn axpy_scalar(acc: &mut [f32], src: &[f32], alpha: f32) {
    for (a, &v) in acc.iter_mut().zip(src.iter()) {
        *a += alpha * v;
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
/// (`NN`) and the transposed (`TN`) left operand.
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
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    for i in 0..m {
        let c_row = &mut c[i * n..(i + 1) * n];
        c_row.fill(0.0);
        for kk in 0..k {
            axpy_scalar(c_row, &b[kk * n..(kk + 1) * n], a[i * a_rs + kk * a_ks]);
        }
    }
}

/// The plain-loop `C = A B^T` oracle: one [`dot_scalar`] per output.
fn gemm_nt_scalar(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        for j in 0..n {
            c[i * n + j] = dot_scalar(a_row, &b[j * k..(j + 1) * k]);
        }
    }
}

// ---------------------------------------------------------------------------
// AVX2 / FMA kernels.
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{GEMM_KC, GEMM_MR, GEMM_NR, NT_MR, NT_NR};
    use std::arch::x86_64::*;

    #[target_feature(enable = "avx2")]
    #[inline]
    pub fn add_assign(acc: &mut [f32], src: &[f32]) {
        let n = acc.len().min(src.len());
        let mut j = 0;
        while j + 8 <= n {
            // SAFETY: j + 8 <= n bounds both 8-lane loads and the store.
            unsafe {
                let a = _mm256_loadu_ps(acc.as_ptr().add(j));
                let s = _mm256_loadu_ps(src.as_ptr().add(j));
                _mm256_storeu_ps(acc.as_mut_ptr().add(j), _mm256_add_ps(a, s));
            }
            j += 8;
        }
        while j < n {
            acc[j] += src[j];
            j += 1;
        }
    }

    #[target_feature(enable = "avx2")]
    #[inline]
    pub fn axpy(acc: &mut [f32], src: &[f32], alpha: f32) {
        let n = acc.len().min(src.len());
        let va = _mm256_set1_ps(alpha);
        let mut j = 0;
        while j + 8 <= n {
            // SAFETY: j + 8 <= n bounds both 8-lane loads and the store.
            unsafe {
                let a = _mm256_loadu_ps(acc.as_ptr().add(j));
                let s = _mm256_loadu_ps(src.as_ptr().add(j));
                // mul then add (no contraction): matches the scalar
                // `acc += alpha * src` bit for bit per lane.
                _mm256_storeu_ps(
                    acc.as_mut_ptr().add(j),
                    _mm256_add_ps(a, _mm256_mul_ps(va, s)),
                );
            }
            j += 8;
        }
        while j < n {
            acc[j] += alpha * src[j];
            j += 1;
        }
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    #[inline]
    pub fn axpy_fma(acc: &mut [f32], src: &[f32], alpha: f32) {
        let n = acc.len().min(src.len());
        let va = _mm256_set1_ps(alpha);
        let mut j = 0;
        while j + 8 <= n {
            // SAFETY: j + 8 <= n bounds both 8-lane loads and the store.
            unsafe {
                let a = _mm256_loadu_ps(acc.as_ptr().add(j));
                let s = _mm256_loadu_ps(src.as_ptr().add(j));
                _mm256_storeu_ps(acc.as_mut_ptr().add(j), _mm256_fmadd_ps(va, s, a));
            }
            j += 8;
        }
        while j < n {
            acc[j] = alpha.mul_add(src[j], acc[j]);
            j += 1;
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
        let mut vacc = _mm256_setzero_ps();
        let mut j = 0;
        while j + 8 <= n {
            // SAFETY: j + 8 <= n bounds both 8-lane loads.
            unsafe {
                let av = _mm256_loadu_ps(a.as_ptr().add(j));
                let bv = _mm256_loadu_ps(b.as_ptr().add(j));
                vacc = _mm256_add_ps(vacc, _mm256_mul_ps(av, bv));
            }
            j += 8;
        }
        let mut sum = hreduce(vacc);
        while j < n {
            sum += a[j] * b[j];
            j += 1;
        }
        sum
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    #[inline]
    pub fn dot_fma(a: &[f32], b: &[f32]) -> f32 {
        let n = a.len().min(b.len());
        let mut vacc = _mm256_setzero_ps();
        let mut j = 0;
        while j + 8 <= n {
            // SAFETY: j + 8 <= n bounds both 8-lane loads.
            unsafe {
                let av = _mm256_loadu_ps(a.as_ptr().add(j));
                let bv = _mm256_loadu_ps(b.as_ptr().add(j));
                vacc = _mm256_fmadd_ps(av, bv, vacc);
            }
            j += 8;
        }
        let mut sum = hreduce(vacc);
        while j < n {
            sum = a[j].mul_add(b[j], sum);
            j += 1;
        }
        sum
    }

    /// `acc + a * b` as two correctly-rounded operations — what the scalar
    /// oracle's `c += a * b` does — on 8 lanes (`ps`) or one float (`ss`),
    /// so the `avx2` tier stays bit-identical to it.
    macro_rules! madd_rounded {
        (ps $acc:expr, $a:expr, $b:expr) => {
            _mm256_add_ps($acc, _mm256_mul_ps($a, $b))
        };
        (ss $acc:expr, $a:expr, $b:expr) => {
            $acc + $a * $b
        };
    }

    /// `acc + a * b` contracted into one rounding (`fma` tier).
    macro_rules! madd_fused {
        (ps $acc:expr, $a:expr, $b:expr) => {
            _mm256_fmadd_ps($a, $b, $acc)
        };
        (ss $acc:expr, $a:expr, $b:expr) => {
            $a.mul_add($b, $acc)
        };
    }

    /// One tier's GEMM kernels. The two instantiations share this body
    /// verbatim and differ only in the multiply-add op `$madd` and in the
    /// `$dot` helper (built on the same op) the `NT` tails fall back to.
    macro_rules! gemm_tier {
        ($tier:ident, $madd:ident, $dot:ident, $($feat:literal),+) => {
            pub mod $tier {
                use super::*;

                /// One `R x GEMM_NR` register tile of `C = A B` over `kc`
                /// reduction steps against a `B` panel of row stride `ldb`: the
                /// accumulators start from `+0.0` (`first`) or from `C`,
                /// take one multiply-add per `kk` in ascending order, and
                /// are stored back once.
                ///
                /// # Safety
                ///
                /// For every `r < R` and `kk < kc`, `a + r * a_rs + kk *
                /// a_ks` must be readable, `b + kk * ldb` readable for
                /// `GEMM_NR` floats, and `c + r * ldc` readable and writable
                /// for `GEMM_NR` floats.
                #[target_feature($(enable = $feat),+)]
                #[inline]
                #[allow(clippy::too_many_arguments)]
                unsafe fn tile<const R: usize>(
                    a: *const f32,
                    a_rs: usize,
                    a_ks: usize,
                    b: *const f32,
                    ldb: usize,
                    c: *mut f32,
                    ldc: usize,
                    kc: usize,
                    first: bool,
                ) {
                    let mut acc = [[_mm256_setzero_ps(); 2]; R];
                    if !first {
                        for r in 0..R {
                            // SAFETY: `c + r * ldc` holds GEMM_NR = 16
                            // floats (caller contract).
                            unsafe {
                                acc[r][0] = _mm256_loadu_ps(c.add(r * ldc));
                                acc[r][1] = _mm256_loadu_ps(c.add(r * ldc + 8));
                            }
                        }
                    }
                    for kk in 0..kc {
                        // SAFETY: `b + kk * ldb` holds 16 floats and every
                        // `a` element addressed is readable (caller
                        // contract).
                        unsafe {
                            let b0 = _mm256_loadu_ps(b.add(kk * ldb));
                            let b1 = _mm256_loadu_ps(b.add(kk * ldb + 8));
                            for r in 0..R {
                                let av = _mm256_broadcast_ss(&*a.add(r * a_rs + kk * a_ks));
                                acc[r][0] = $madd!(ps acc[r][0], av, b0);
                                acc[r][1] = $madd!(ps acc[r][1], av, b1);
                            }
                        }
                    }
                    for r in 0..R {
                        // SAFETY: as for the loads above.
                        unsafe {
                            _mm256_storeu_ps(c.add(r * ldc), acc[r][0]);
                            _mm256_storeu_ps(c.add(r * ldc + 8), acc[r][1]);
                        }
                    }
                }

                /// `C = A B` with `A[i][kk]` at `a[i * a_rs + kk * a_ks]`
                /// (the scalar oracle's layout convention); every output
                /// is overwritten.
                #[target_feature($(enable = $feat),+)]
                #[allow(clippy::too_many_arguments)]
                pub fn gemm(
                    a: &[f32],
                    a_rs: usize,
                    a_ks: usize,
                    b: &[f32],
                    c: &mut [f32],
                    m: usize,
                    k: usize,
                    n: usize,
                ) {
                    assert!(b.len() >= k * n && c.len() >= m * n);
                    if m == 0 || n == 0 {
                        return;
                    }
                    if k == 0 {
                        c[..m * n].fill(0.0);
                        return;
                    }
                    assert!(a.len() > (m - 1) * a_rs + (k - 1) * a_ks);
                    // One `kc x GEMM_NR` panel of `B`, copied contiguous so
                    // that every row tile streams it from L1 whatever `n`
                    // strides `B` by, and zero-padded past column `n` so
                    // that the last panel is a full-width one too: its
                    // tiles run on `edge`, a staging copy of their `C`
                    // rows, whose dead lanes are never copied back. A
                    // full-width panel that a single row tile reads is
                    // read in place: copying it could not pay.
                    let mut panel = [0.0f32; GEMM_KC * GEMM_NR];
                    let mut edge = [0.0f32; GEMM_MR * GEMM_NR];
                    for k0 in (0..k).step_by(GEMM_KC) {
                        let kc = GEMM_KC.min(k - k0);
                        let first = k0 == 0;
                        for j0 in (0..n).step_by(GEMM_NR) {
                            let cols = GEMM_NR.min(n - j0);
                            let staged = cols < GEMM_NR;
                            let packed = staged || m > GEMM_MR;
                            if packed {
                                let rows = panel.chunks_exact_mut(GEMM_NR);
                                for (kk, dst) in rows.take(kc).enumerate() {
                                    let src = &b[(k0 + kk) * n + j0..][..cols];
                                    if staged {
                                        dst[..cols].copy_from_slice(src);
                                        dst[cols..].fill(0.0);
                                    } else {
                                        dst.copy_from_slice(src);
                                    }
                                }
                            }
                            for i0 in (0..m).step_by(GEMM_MR) {
                                let rows = GEMM_MR.min(m - i0);
                                if staged && !first {
                                    for r in 0..rows {
                                        let c_row = &c[(i0 + r) * n + j0..][..cols];
                                        edge[r * GEMM_NR..][..cols].copy_from_slice(c_row);
                                    }
                                }
                                // SAFETY: rows `i0..i0 + rows` (<= m) and
                                // reduction steps `k0..k0 + kc` (<= k) are
                                // inside `a` by the assert above. The `B`
                                // panel is `panel` (GEMM_KC >= kc rows of
                                // GEMM_NR) or rows `k0..k0 + kc`, columns
                                // `j0..j0 + GEMM_NR` (<= n: not staged) of
                                // `b`; the output is `edge` (GEMM_MR >= rows
                                // rows of GEMM_NR) or rows `i0..i0 + rows`
                                // of the same columns of `c`.
                                unsafe {
                                    let at = a.as_ptr().add(i0 * a_rs + k0 * a_ks);
                                    let (bt, ldb) = if packed {
                                        (panel.as_ptr(), GEMM_NR)
                                    } else {
                                        (b.as_ptr().add(k0 * n + j0), n)
                                    };
                                    let (ct, ldc) = if staged {
                                        (edge.as_mut_ptr(), GEMM_NR)
                                    } else {
                                        (c.as_mut_ptr().add(i0 * n + j0), n)
                                    };
                                    match rows {
                                        1 => tile::<1>(at, a_rs, a_ks, bt, ldb, ct, ldc, kc, first),
                                        2 => tile::<2>(at, a_rs, a_ks, bt, ldb, ct, ldc, kc, first),
                                        3 => tile::<3>(at, a_rs, a_ks, bt, ldb, ct, ldc, kc, first),
                                        _ => tile::<GEMM_MR>(
                                            at, a_rs, a_ks, bt, ldb, ct, ldc, kc, first,
                                        ),
                                    }
                                }
                                if staged {
                                    for r in 0..rows {
                                        let c_row = &mut c[(i0 + r) * n + j0..][..cols];
                                        c_row.copy_from_slice(&edge[r * GEMM_NR..][..cols]);
                                    }
                                }
                            }
                        }
                    }
                }

                /// `RA x RB` outputs of `C = A B^T` in flight: each keeps
                /// its own 8-lane partial sums over the `k / 8` full
                /// chunks, folds them with [`hreduce`] and finishes the
                /// `k % 8` tail in scalar — the exact sequence of one
                /// `$dot` call.
                ///
                /// # Safety
                ///
                /// `a` must be readable for `RA` rows and `b` for `RB`
                /// rows of `k` floats each; `c + r * ldc` must be writable
                /// for `RB` floats for every `r < RA`.
                #[target_feature($(enable = $feat),+)]
                #[inline]
                #[allow(clippy::assign_op_pattern)] // `sum = $madd!(..)`: one form for both ops
                unsafe fn tile_nt<const RA: usize, const RB: usize>(
                    a: *const f32,
                    b: *const f32,
                    k: usize,
                    c: *mut f32,
                    ldc: usize,
                ) {
                    let mut acc = [[_mm256_setzero_ps(); RB]; RA];
                    let full = k - k % 8;
                    let mut kk = 0;
                    while kk < full {
                        // SAFETY: `kk + 8 <= k` bounds every 8-lane load
                        // inside its row (caller contract).
                        unsafe {
                            let mut av = [_mm256_setzero_ps(); RA];
                            for r in 0..RA {
                                av[r] = _mm256_loadu_ps(a.add(r * k + kk));
                            }
                            for j in 0..RB {
                                let bv = _mm256_loadu_ps(b.add(j * k + kk));
                                for r in 0..RA {
                                    acc[r][j] = $madd!(ps acc[r][j], av[r], bv);
                                }
                            }
                        }
                        kk += 8;
                    }
                    for r in 0..RA {
                        for j in 0..RB {
                            let mut sum = hreduce(acc[r][j]);
                            for t in full..k {
                                // SAFETY: `t < k` is inside both rows.
                                let (x, y) = unsafe { (*a.add(r * k + t), *b.add(j * k + t)) };
                                sum = $madd!(ss sum, x, y);
                            }
                            // SAFETY: `c + r * ldc + j` is writable (caller
                            // contract).
                            unsafe { *c.add(r * ldc + j) = sum };
                        }
                    }
                }

                /// `C = A B^T` for row-major `a` (`m x k`) and `b`
                /// (`n x k`); every output is overwritten.
                #[target_feature($(enable = $feat),+)]
                pub fn gemm_nt(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
                    assert!(a.len() >= m * k && b.len() >= n * k && c.len() >= m * n);
                    // Without one full 8-lane chunk there is nothing to tile.
                    let m_tiled = if k < 8 { 0 } else { m - m % NT_MR };
                    let n_tiled = n - n % NT_NR;
                    let (ap, bp, cp) = (a.as_ptr(), b.as_ptr(), c.as_mut_ptr());
                    for j0 in (0..n_tiled).step_by(NT_NR) {
                        for i0 in (0..m_tiled).step_by(NT_MR) {
                            // SAFETY: rows `i0..i0 + NT_MR` (<= m) of `a`
                            // and `c`, rows `j0..j0 + NT_NR` (<= n) of `b`
                            // are inside the operands by the assert above.
                            unsafe {
                                tile_nt::<NT_MR, NT_NR>(
                                    ap.add(i0 * k),
                                    bp.add(j0 * k),
                                    k,
                                    cp.add(i0 * n + j0),
                                    n,
                                );
                            }
                        }
                    }
                    // Tails: the last `m % NT_MR` rows over all columns,
                    // then the last `n % NT_NR` columns of the tiled rows.
                    for i in 0..m {
                        let a_row = &a[i * k..(i + 1) * k];
                        let j_from = if i < m_tiled { n_tiled } else { 0 };
                        for j in j_from..n {
                            c[i * n + j] = $dot(a_row, &b[j * k..(j + 1) * k]);
                        }
                    }
                }
            }
        };
    }

    gemm_tier!(avx2, madd_rounded, dot, "avx2");
    gemm_tier!(fma, madd_fused, dot_fma, "avx2", "fma");
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
/// across all tiers (pure lane-wise adds; FMA cannot apply).
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

/// `acc[j] += alpha * src[j]`. `Avx2` is bit-identical to `Scalar`;
/// `Fma` contracts the multiply-add (tolerance tier).
#[inline]
pub fn axpy(d: KernelDispatch, acc: &mut [f32], src: &[f32], alpha: f32) {
    debug_assert_eq!(acc.len(), src.len());
    #[cfg(target_arch = "x86_64")]
    {
        if d == KernelDispatch::Fma && fma_ok() {
            // SAFETY: AVX2+FMA support verified on the line above.
            unsafe { x86::axpy_fma(acc, src, alpha) };
            return;
        }
        if d != KernelDispatch::Scalar && avx2_ok() {
            // SAFETY: AVX2 support verified on the line above.
            unsafe { x86::axpy(acc, src, alpha) };
            return;
        }
    }
    let _ = d;
    axpy_scalar(acc, src, alpha);
}

/// Dot product with the 8-accumulator AVX2 fold on every tier (see the
/// module docs); `Avx2` is bit-identical to `Scalar`.
#[inline]
pub fn dot(d: KernelDispatch, a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    #[cfg(target_arch = "x86_64")]
    {
        if d == KernelDispatch::Fma && fma_ok() {
            // SAFETY: AVX2+FMA support verified on the line above.
            return unsafe { x86::dot_fma(a, b) };
        }
        if d != KernelDispatch::Scalar && avx2_ok() {
            // SAFETY: AVX2 support verified on the line above.
            return unsafe { x86::dot(a, b) };
        }
    }
    let _ = d;
    dot_scalar(a, b)
}

/// `C = A B` with `A[i][kk]` at `a[i * a_rs + kk * a_ks]`: the shared
/// body of [`gemm_nn`] and [`gemm_tn`].
#[allow(clippy::too_many_arguments)]
fn gemm_strided(
    d: KernelDispatch,
    a: &[f32],
    a_rs: usize,
    a_ks: usize,
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    debug_assert!(m == 0 || k == 0 || a.len() > (m - 1) * a_rs + (k - 1) * a_ks);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    #[cfg(target_arch = "x86_64")]
    {
        if d == KernelDispatch::Fma && fma_ok() {
            // SAFETY: AVX2+FMA support verified on the line above.
            unsafe { x86::fma::gemm(a, a_rs, a_ks, b, c, m, k, n) };
            return;
        }
        if d != KernelDispatch::Scalar && avx2_ok() {
            // SAFETY: AVX2 support verified on the line above.
            unsafe { x86::avx2::gemm(a, a_rs, a_ks, b, c, m, k, n) };
            return;
        }
    }
    let _ = d;
    gemm_scalar(a, a_rs, a_ks, b, c, m, k, n);
}

/// `C = A B` for row-major `a` (`m x k`), `b` (`k x n`) and `c`
/// (`m x n`); every output is overwritten. Also the row-band kernel of
/// the pooled matmul: a band is simply a smaller `m`.
pub fn gemm_nn(
    d: KernelDispatch,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    gemm_strided(d, a, k, 1, b, c, m, k, n);
}

/// `C = A^T B` where `A[kk][i]` lives at `a[kk * lda + i]`: the backprop
/// weight gradient without materializing the transpose. `lda == m` is a
/// whole `k x m` row-major `a`; a band of `m` output rows starting at row
/// `lo` of a wider product passes `&a[lo..]` and the full row length as
/// `lda` (the row-band kernel of the split backward). Every output is
/// overwritten.
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
    gemm_strided(d, a, 1, lda, b, c, m, k, n);
}

/// `C = A B^T` for row-major `a` (`m x k`) and `b` (`n x k`): the backprop
/// input gradient. Every output is one [`dot`] (bit for bit) and is
/// overwritten; also the row-band kernel of the pooled `matmul_bt`.
pub fn gemm_nt(
    d: KernelDispatch,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), n * k);
    debug_assert_eq!(c.len(), m * n);
    #[cfg(target_arch = "x86_64")]
    {
        if d == KernelDispatch::Fma && fma_ok() {
            // SAFETY: AVX2+FMA support verified on the line above.
            unsafe { x86::fma::gemm_nt(a, b, c, m, k, n) };
            return;
        }
        if d != KernelDispatch::Scalar && avx2_ok() {
            // SAFETY: AVX2 support verified on the line above.
            unsafe { x86::avx2::gemm_nt(a, b, c, m, k, n) };
            return;
        }
    }
    let _ = d;
    gemm_nt_scalar(a, b, c, m, k, n);
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
        assert_eq!(KernelDispatch::parse(" fma "), Some(KernelDispatch::Fma));
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
    fn detect_never_returns_fma() {
        assert_ne!(KernelDispatch::detect(), KernelDispatch::Fma);
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
    fn avx2_axpy_and_dot_bit_identical() {
        if !KernelDispatch::Avx2.supported() {
            return;
        }
        for n in [1, 7, 8, 9, 31, 64, 66] {
            let src = seq(n, 0.73);
            let base = seq(n, 0.11);
            let mut scalar = base.clone();
            let mut simd = base.clone();
            axpy(KernelDispatch::Scalar, &mut scalar, &src, -0.625);
            axpy(KernelDispatch::Avx2, &mut simd, &src, -0.625);
            assert_eq!(
                scalar.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                simd.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "axpy n={n}"
            );
            let ds = dot(KernelDispatch::Scalar, &base, &src);
            let dv = dot(KernelDispatch::Avx2, &base, &src);
            assert_eq!(ds.to_bits(), dv.to_bits(), "dot n={n}");
        }
    }

    #[test]
    fn fma_dot_within_tolerance() {
        if !KernelDispatch::Fma.supported() {
            return;
        }
        let a = seq(123, 0.41);
        let b = seq(123, 0.29);
        let ds = dot(KernelDispatch::Scalar, &a, &b) as f64;
        let df = dot(KernelDispatch::Fma, &a, &b) as f64;
        assert!((ds - df).abs() < 1e-4, "scalar {ds} vs fma {df}");
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
}
