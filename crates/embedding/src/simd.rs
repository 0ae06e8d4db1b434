//! Runtime-dispatched per-row optimizer kernels, and the gather-reduce's
//! per-run accumulate (x86-64 AVX2 with the scalar loop as the bit-exact
//! oracle).
//!
//! The optimizer scatter is the write half of the embedding data plane:
//! after coalescing, every touched table row gets exactly one
//! `update_row`, which walks the row lane-wise. These kernels vectorize
//! that walk across `dim` while keeping the per-element operation
//! sequence exactly the scalar one, so the AVX2 tier is **bit-identical**
//! for all five [`crate::optim::UpdateRule`]s:
//!
//! * every lane is independent (no reduction, so no reassociation), and
//! * `vmulps`/`vaddps`/`vsubps`/`vdivps`/`vsqrtps` are correctly rounded,
//!   matching their scalar counterparts per IEEE-754 — including for the
//!   `sqrt`/`div` in Adagrad/RMSprop/Adam.
//!
//! [`KernelDispatch::Fma`] deliberately runs these row kernels on the
//! non-contracted AVX2 path: FMA contraction is reserved for the GEMM /
//! dot kernels in [`tcast_tensor::simd`], so the optimizer state (and
//! with it every bit-identity invariant over training trajectories)
//! never depends on the tier beyond scalar-vs-SIMD, which are equal.
//!
//! Scalar bias-correction work (Adam's `powi(t)`) stays per-row scalar in
//! `optim.rs`; only the lane-parallel part lives here.
//!
//! The read half has one kernel here, `x86::accumulate_run`: the AVX2 form
//! of the gather-reduce's inner loop (`gather.rs` holds the loop and its
//! scalar oracle), under the same rule — lanes are independent and each
//! adds the same rows in the same order, only in registers.

pub use tcast_tensor::simd::{dispatch, force, KernelDispatch};

// ---------------------------------------------------------------------------
// Scalar row kernels: the oracles. Exact transcriptions of the optimizer
// update loops they replaced.
//
// `#[inline(never)]` is load-bearing for the bit-identity invariant: the
// AVX2 kernels call these same functions for their sub-8-lane tails, and
// LLVM's NaN-payload choice for a float expression is unspecified *per
// compilation* — two inlined copies of identical source can legally
// disagree on which NaN `p - step` returns when `sqrt` of a negative
// accumulator mints a fresh one. One compiled instance shared by the
// scalar tier and every SIMD tail makes that divergence impossible (the
// call is per row, amortized over the whole `dim` loop).
// ---------------------------------------------------------------------------

#[inline(never)]
fn sgd_scalar(lr: f32, param: &mut [f32], grad: &[f32]) {
    for (p, &g) in param.iter_mut().zip(grad.iter()) {
        *p -= lr * g;
    }
}

#[inline(never)]
fn momentum_scalar(lr: f32, mu: f32, v: &mut [f32], param: &mut [f32], grad: &[f32]) {
    for ((p, &g), vi) in param.iter_mut().zip(grad.iter()).zip(v.iter_mut()) {
        *vi = mu * *vi + g;
        *p -= lr * *vi;
    }
}

#[inline(never)]
fn adagrad_scalar(lr: f32, eps: f32, a: &mut [f32], param: &mut [f32], grad: &[f32]) {
    for ((p, &g), ai) in param.iter_mut().zip(grad.iter()).zip(a.iter_mut()) {
        *ai += g * g;
        *p -= lr * g / (eps + *ai).sqrt();
    }
}

#[inline(never)]
fn rmsprop_scalar(lr: f32, gamma: f32, eps: f32, a: &mut [f32], param: &mut [f32], grad: &[f32]) {
    for ((p, &g), ai) in param.iter_mut().zip(grad.iter()).zip(a.iter_mut()) {
        *ai = gamma * *ai + (1.0 - gamma) * g * g;
        *p -= lr * g / (eps + *ai).sqrt();
    }
}

/// Per-row Adam hyperparameters plus the (scalar, per-row) bias
/// corrections `bc1 = 1 - beta1^t`, `bc2 = 1 - beta2^t`.
#[derive(Debug, Clone, Copy)]
pub struct AdamRow {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Denominator stabilizer.
    pub eps: f32,
    /// `1 - beta1^t` for this row's step count.
    pub bc1: f32,
    /// `1 - beta2^t` for this row's step count.
    pub bc2: f32,
}

#[inline(never)]
fn adam_scalar(h: AdamRow, m: &mut [f32], v: &mut [f32], param: &mut [f32], grad: &[f32]) {
    for (((p, &g), mi), vi) in param
        .iter_mut()
        .zip(grad.iter())
        .zip(m.iter_mut())
        .zip(v.iter_mut())
    {
        *mi = h.beta1 * *mi + (1.0 - h.beta1) * g;
        *vi = h.beta2 * *vi + (1.0 - h.beta2) * g * g;
        let mhat = *mi / h.bc1;
        let vhat = *vi / h.bc2;
        *p -= h.lr * mhat / (vhat.sqrt() + h.eps);
    }
}

// ---------------------------------------------------------------------------
// AVX2 row kernels: lane-wise transcriptions of the scalar loops above,
// operation for operation, in the same order. Sub-8-lane tails call the
// scalar oracles (the single `#[inline(never)]` instances), never an
// open-coded copy of them.
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
pub(crate) mod x86 {
    use super::AdamRow;
    use std::arch::x86_64::*;
    use tcast_tensor::simd::{add_assign, prefetch, KernelDispatch, PREFETCH_WINDOW};

    /// One run of the gather-reduce: `acc += rows[src[k]]` for `k` in
    /// `run`, in order, where every lookup of the run reduces into the
    /// same output row `acc` (of `acc.len()` lanes, the width of a row of
    /// `rows`). The output row stays in registers — up to 64 lanes at a
    /// time — from the first lookup of the run to the last and is stored
    /// once; each lane still adds the run's rows one after the other in
    /// lookup order, so the result is the scalar loop's bit for bit. The
    /// first pass over the run prefetches the rows [`PREFETCH_WINDOW`]
    /// lookups ahead in `src` (past the end of the run: the next runs'
    /// rows).
    ///
    /// # Panics
    ///
    /// Panics if `run` is not a range of `src` or a row lies outside `rows`.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2. The slices need no promise: each row is a
    /// bounds-checked `acc.len()`-lane slice of `rows`, and no load or
    /// store passes `acc.len()`.
    #[target_feature(enable = "avx2")]
    #[inline]
    pub fn accumulate_run(acc: &mut [f32], rows: &[f32], src: &[u32], run: std::ops::Range<usize>) {
        let dim = acc.len();
        debug_assert!(run.end <= src.len(), "the run lies inside src");
        // Widest pieces first: a 64-wide row is one pass over the run, a
        // narrower or ragged one at most three and the scalar tail.
        let mut j = 0;
        while j + 64 <= dim {
            accumulate_lanes::<8>(acc, rows, src, run.clone(), j);
            j += 64;
        }
        if j + 32 <= dim {
            accumulate_lanes::<4>(acc, rows, src, run.clone(), j);
            j += 32;
        }
        if j + 16 <= dim {
            accumulate_lanes::<2>(acc, rows, src, run.clone(), j);
            j += 16;
        }
        if j + 8 <= dim {
            accumulate_lanes::<1>(acc, rows, src, run.clone(), j);
            j += 8;
        }
        if j < dim {
            // The sub-8-lane tail runs the scalar tier's own add.
            for k in run {
                let row = row_ahead(rows, dim, src, k, j == 0);
                add_assign(KernelDispatch::Scalar, &mut acc[j..], &row[j..]);
            }
        }
    }

    /// Lanes `j..j + 8 * N` of [`accumulate_run`], in `N` registers.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2. Loads and stores stay below
    /// `j + 8 * N <= acc.len()` (asserted), the length of every row.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn accumulate_lanes<const N: usize>(
        acc: &mut [f32],
        rows: &[f32],
        src: &[u32],
        run: std::ops::Range<usize>,
        j: usize,
    ) {
        let dim = acc.len();
        assert!(j + 8 * N <= dim);
        let mut lanes = [_mm256_setzero_ps(); N];
        for (l, a) in lanes.iter_mut().enumerate() {
            // SAFETY: j + 8 * N <= acc.len() (asserted) bounds every load.
            *a = unsafe { _mm256_loadu_ps(acc.as_ptr().add(j + 8 * l)) };
        }
        for k in run {
            let row = row_ahead(rows, dim, src, k, j == 0);
            debug_assert_eq!(row.len(), acc.len());
            for (l, a) in lanes.iter_mut().enumerate() {
                // SAFETY: `row` has `dim` lanes and j + 8 * N <= dim.
                *a = _mm256_add_ps(*a, unsafe { _mm256_loadu_ps(row.as_ptr().add(j + 8 * l)) });
            }
        }
        for (l, a) in lanes.iter().enumerate() {
            // SAFETY: j + 8 * N <= acc.len() (asserted) bounds every store.
            unsafe { _mm256_storeu_ps(acc.as_mut_ptr().add(j + 8 * l), *a) };
        }
    }

    /// Row `src[k]` of `rows`; on the run's first pass (`first`) also
    /// prefetches the row [`PREFETCH_WINDOW`] lookups further on.
    #[inline(always)]
    fn row_ahead<'r>(rows: &'r [f32], dim: usize, src: &[u32], k: usize, first: bool) -> &'r [f32] {
        let row = |s: u32| &rows[s as usize * dim..(s as usize + 1) * dim];
        if let Some(&ahead) = src.get(k + PREFETCH_WINDOW).filter(|_| first) {
            prefetch(row(ahead));
        }
        row(src[k])
    }

    /// # Safety
    ///
    /// The CPU must support AVX2. `param` and `grad` must be equally long
    /// (checked in debug builds); no load or store passes the shortest.
    #[target_feature(enable = "avx2")]
    pub fn sgd(lr: f32, param: &mut [f32], grad: &[f32]) {
        debug_assert_eq!(param.len(), grad.len());
        let n = param.len().min(grad.len());
        let vlr = _mm256_set1_ps(lr);
        let mut j = 0;
        while j + 8 <= n {
            // SAFETY: j + 8 <= n bounds the 8-lane loads and store.
            unsafe {
                let p = _mm256_loadu_ps(param.as_ptr().add(j));
                let g = _mm256_loadu_ps(grad.as_ptr().add(j));
                _mm256_storeu_ps(
                    param.as_mut_ptr().add(j),
                    _mm256_sub_ps(p, _mm256_mul_ps(vlr, g)),
                );
            }
            j += 8;
        }
        super::sgd_scalar(lr, &mut param[j..n], &grad[j..n]);
    }

    /// # Safety
    ///
    /// The CPU must support AVX2. `v`, `param` and `grad` must be equally long
    /// (checked in debug builds); no load or store passes the shortest.
    #[target_feature(enable = "avx2")]
    pub fn momentum(lr: f32, mu: f32, v: &mut [f32], param: &mut [f32], grad: &[f32]) {
        debug_assert_eq!(param.len(), grad.len());
        debug_assert_eq!(v.len(), param.len());
        let n = param.len().min(grad.len()).min(v.len());
        let vlr = _mm256_set1_ps(lr);
        let vmu = _mm256_set1_ps(mu);
        let mut j = 0;
        while j + 8 <= n {
            // SAFETY: j + 8 <= n bounds the 8-lane loads and stores.
            unsafe {
                let vv = _mm256_loadu_ps(v.as_ptr().add(j));
                let g = _mm256_loadu_ps(grad.as_ptr().add(j));
                let p = _mm256_loadu_ps(param.as_ptr().add(j));
                let vnew = _mm256_add_ps(_mm256_mul_ps(vmu, vv), g);
                _mm256_storeu_ps(v.as_mut_ptr().add(j), vnew);
                _mm256_storeu_ps(
                    param.as_mut_ptr().add(j),
                    _mm256_sub_ps(p, _mm256_mul_ps(vlr, vnew)),
                );
            }
            j += 8;
        }
        super::momentum_scalar(lr, mu, &mut v[j..n], &mut param[j..n], &grad[j..n]);
    }

    /// # Safety
    ///
    /// The CPU must support AVX2. `a`, `param` and `grad` must be equally long
    /// (checked in debug builds); no load or store passes the shortest.
    #[target_feature(enable = "avx2")]
    pub fn adagrad(lr: f32, eps: f32, a: &mut [f32], param: &mut [f32], grad: &[f32]) {
        debug_assert_eq!(param.len(), grad.len());
        debug_assert_eq!(a.len(), param.len());
        let n = param.len().min(grad.len()).min(a.len());
        let vlr = _mm256_set1_ps(lr);
        let veps = _mm256_set1_ps(eps);
        let mut j = 0;
        while j + 8 <= n {
            // SAFETY: j + 8 <= n bounds the 8-lane loads and stores.
            unsafe {
                let av = _mm256_loadu_ps(a.as_ptr().add(j));
                let g = _mm256_loadu_ps(grad.as_ptr().add(j));
                let p = _mm256_loadu_ps(param.as_ptr().add(j));
                let anew = _mm256_add_ps(av, _mm256_mul_ps(g, g));
                _mm256_storeu_ps(a.as_mut_ptr().add(j), anew);
                let denom = _mm256_sqrt_ps(_mm256_add_ps(veps, anew));
                let step = _mm256_div_ps(_mm256_mul_ps(vlr, g), denom);
                _mm256_storeu_ps(param.as_mut_ptr().add(j), _mm256_sub_ps(p, step));
            }
            j += 8;
        }
        super::adagrad_scalar(lr, eps, &mut a[j..n], &mut param[j..n], &grad[j..n]);
    }

    /// # Safety
    ///
    /// The CPU must support AVX2. `a`, `param` and `grad` must be equally long
    /// (checked in debug builds); no load or store passes the shortest.
    #[target_feature(enable = "avx2")]
    pub fn rmsprop(lr: f32, gamma: f32, eps: f32, a: &mut [f32], param: &mut [f32], grad: &[f32]) {
        debug_assert_eq!(param.len(), grad.len());
        debug_assert_eq!(a.len(), param.len());
        let n = param.len().min(grad.len()).min(a.len());
        let vlr = _mm256_set1_ps(lr);
        let vgamma = _mm256_set1_ps(gamma);
        let vomg = _mm256_set1_ps(1.0 - gamma);
        let veps = _mm256_set1_ps(eps);
        let mut j = 0;
        while j + 8 <= n {
            // SAFETY: j + 8 <= n bounds the 8-lane loads and stores.
            unsafe {
                let av = _mm256_loadu_ps(a.as_ptr().add(j));
                let g = _mm256_loadu_ps(grad.as_ptr().add(j));
                let p = _mm256_loadu_ps(param.as_ptr().add(j));
                // gamma*a + ((1-gamma)*g)*g, matching the scalar
                // left-to-right product order.
                let anew = _mm256_add_ps(
                    _mm256_mul_ps(vgamma, av),
                    _mm256_mul_ps(_mm256_mul_ps(vomg, g), g),
                );
                _mm256_storeu_ps(a.as_mut_ptr().add(j), anew);
                let denom = _mm256_sqrt_ps(_mm256_add_ps(veps, anew));
                let step = _mm256_div_ps(_mm256_mul_ps(vlr, g), denom);
                _mm256_storeu_ps(param.as_mut_ptr().add(j), _mm256_sub_ps(p, step));
            }
            j += 8;
        }
        super::rmsprop_scalar(lr, gamma, eps, &mut a[j..n], &mut param[j..n], &grad[j..n]);
    }

    /// # Safety
    ///
    /// The CPU must support AVX2. `m`, `v`, `param` and `grad` must be equally long
    /// (checked in debug builds); no load or store passes the shortest.
    #[target_feature(enable = "avx2")]
    pub fn adam(h: AdamRow, m: &mut [f32], v: &mut [f32], param: &mut [f32], grad: &[f32]) {
        debug_assert_eq!(param.len(), grad.len());
        debug_assert_eq!(m.len(), param.len());
        debug_assert_eq!(v.len(), param.len());
        let n = param.len().min(grad.len()).min(m.len()).min(v.len());
        let vb1 = _mm256_set1_ps(h.beta1);
        let vomb1 = _mm256_set1_ps(1.0 - h.beta1);
        let vb2 = _mm256_set1_ps(h.beta2);
        let vomb2 = _mm256_set1_ps(1.0 - h.beta2);
        let vlr = _mm256_set1_ps(h.lr);
        let veps = _mm256_set1_ps(h.eps);
        let vbc1 = _mm256_set1_ps(h.bc1);
        let vbc2 = _mm256_set1_ps(h.bc2);
        let mut j = 0;
        while j + 8 <= n {
            // SAFETY: j + 8 <= n bounds the 8-lane loads and stores.
            unsafe {
                let mv = _mm256_loadu_ps(m.as_ptr().add(j));
                let vv = _mm256_loadu_ps(v.as_ptr().add(j));
                let g = _mm256_loadu_ps(grad.as_ptr().add(j));
                let p = _mm256_loadu_ps(param.as_ptr().add(j));
                let mnew = _mm256_add_ps(_mm256_mul_ps(vb1, mv), _mm256_mul_ps(vomb1, g));
                let vnew = _mm256_add_ps(
                    _mm256_mul_ps(vb2, vv),
                    _mm256_mul_ps(_mm256_mul_ps(vomb2, g), g),
                );
                _mm256_storeu_ps(m.as_mut_ptr().add(j), mnew);
                _mm256_storeu_ps(v.as_mut_ptr().add(j), vnew);
                let mhat = _mm256_div_ps(mnew, vbc1);
                let vhat = _mm256_div_ps(vnew, vbc2);
                let denom = _mm256_add_ps(_mm256_sqrt_ps(vhat), veps);
                let step = _mm256_div_ps(_mm256_mul_ps(vlr, mhat), denom);
                _mm256_storeu_ps(param.as_mut_ptr().add(j), _mm256_sub_ps(p, step));
            }
            j += 8;
        }
        super::adam_scalar(h, &mut m[j..n], &mut v[j..n], &mut param[j..n], &grad[j..n]);
    }
}

#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn avx2_ok() -> bool {
    std::arch::is_x86_feature_detected!("avx2")
}

// ---------------------------------------------------------------------------
// Dispatching row kernels. `Fma` runs the AVX2 path (see module docs).
// ---------------------------------------------------------------------------

/// One SGD row update: `param -= lr * grad`.
#[inline]
pub fn sgd_row(d: KernelDispatch, lr: f32, param: &mut [f32], grad: &[f32]) {
    #[cfg(target_arch = "x86_64")]
    if d != KernelDispatch::Scalar && avx2_ok() {
        // SAFETY: AVX2 support verified on the line above.
        unsafe { x86::sgd(lr, param, grad) };
        return;
    }
    let _ = d;
    sgd_scalar(lr, param, grad);
}

/// One momentum row update: `v = mu*v + g; param -= lr*v`.
#[inline]
pub fn momentum_row(
    d: KernelDispatch,
    lr: f32,
    mu: f32,
    v: &mut [f32],
    param: &mut [f32],
    grad: &[f32],
) {
    #[cfg(target_arch = "x86_64")]
    if d != KernelDispatch::Scalar && avx2_ok() {
        // SAFETY: AVX2 support verified on the line above.
        unsafe { x86::momentum(lr, mu, v, param, grad) };
        return;
    }
    let _ = d;
    momentum_scalar(lr, mu, v, param, grad);
}

/// One Adagrad row update: `a += g^2; param -= lr*g / sqrt(eps + a)`.
#[inline]
pub fn adagrad_row(
    d: KernelDispatch,
    lr: f32,
    eps: f32,
    a: &mut [f32],
    param: &mut [f32],
    grad: &[f32],
) {
    #[cfg(target_arch = "x86_64")]
    if d != KernelDispatch::Scalar && avx2_ok() {
        // SAFETY: AVX2 support verified on the line above.
        unsafe { x86::adagrad(lr, eps, a, param, grad) };
        return;
    }
    let _ = d;
    adagrad_scalar(lr, eps, a, param, grad);
}

/// One RMSprop row update (the paper's Eq. 1).
#[inline]
pub fn rmsprop_row(
    d: KernelDispatch,
    lr: f32,
    gamma: f32,
    eps: f32,
    a: &mut [f32],
    param: &mut [f32],
    grad: &[f32],
) {
    #[cfg(target_arch = "x86_64")]
    if d != KernelDispatch::Scalar && avx2_ok() {
        // SAFETY: AVX2 support verified on the line above.
        unsafe { x86::rmsprop(lr, gamma, eps, a, param, grad) };
        return;
    }
    let _ = d;
    rmsprop_scalar(lr, gamma, eps, a, param, grad);
}

/// One Adam row update; the caller computes the per-row bias corrections
/// (`bc1`/`bc2`, a scalar `powi` per row) and passes them in [`AdamRow`].
#[inline]
pub fn adam_row(
    d: KernelDispatch,
    h: AdamRow,
    m: &mut [f32],
    v: &mut [f32],
    param: &mut [f32],
    grad: &[f32],
) {
    #[cfg(target_arch = "x86_64")]
    if d != KernelDispatch::Scalar && avx2_ok() {
        // SAFETY: AVX2 support verified on the line above.
        unsafe { x86::adam(h, m, v, param, grad) };
        return;
    }
    let _ = d;
    adam_scalar(h, m, v, param, grad);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn grads(n: usize) -> Vec<f32> {
        (0..n).map(|i| (i as f32 * 0.83).sin() * 0.3).collect()
    }

    #[test]
    fn all_row_kernels_bit_identical_across_tiers() {
        for n in [1, 4, 8, 9, 16, 33, 64, 67] {
            let g = grads(n);
            let p0: Vec<f32> = (0..n).map(|i| (i as f32 * 0.41).cos()).collect();
            let s0: Vec<f32> = (0..n).map(|i| (i as f32 * 0.07).abs()).collect();
            for d in KernelDispatch::available() {
                // SGD
                let mut p_ref = p0.clone();
                sgd_row(KernelDispatch::Scalar, 0.05, &mut p_ref, &g);
                let mut p = p0.clone();
                sgd_row(d, 0.05, &mut p, &g);
                assert_eq!(bits(&p_ref), bits(&p), "sgd n={n} d={}", d.name());

                // Momentum
                let (mut pr, mut vr) = (p0.clone(), s0.clone());
                momentum_row(KernelDispatch::Scalar, 0.05, 0.9, &mut vr, &mut pr, &g);
                let (mut p, mut v) = (p0.clone(), s0.clone());
                momentum_row(d, 0.05, 0.9, &mut v, &mut p, &g);
                assert_eq!(bits(&pr), bits(&p), "momentum n={n} d={}", d.name());
                assert_eq!(bits(&vr), bits(&v), "momentum state n={n} d={}", d.name());

                // Adagrad
                let (mut pr, mut ar) = (p0.clone(), s0.clone());
                adagrad_row(KernelDispatch::Scalar, 0.05, 1e-8, &mut ar, &mut pr, &g);
                let (mut p, mut a) = (p0.clone(), s0.clone());
                adagrad_row(d, 0.05, 1e-8, &mut a, &mut p, &g);
                assert_eq!(bits(&pr), bits(&p), "adagrad n={n} d={}", d.name());
                assert_eq!(bits(&ar), bits(&a), "adagrad state n={n} d={}", d.name());

                // RMSprop
                let (mut pr, mut ar) = (p0.clone(), s0.clone());
                rmsprop_row(
                    KernelDispatch::Scalar,
                    0.05,
                    0.99,
                    1e-8,
                    &mut ar,
                    &mut pr,
                    &g,
                );
                let (mut p, mut a) = (p0.clone(), s0.clone());
                rmsprop_row(d, 0.05, 0.99, 1e-8, &mut a, &mut p, &g);
                assert_eq!(bits(&pr), bits(&p), "rmsprop n={n} d={}", d.name());
                assert_eq!(bits(&ar), bits(&a), "rmsprop state n={n} d={}", d.name());

                // Adam (t = 3)
                let h = AdamRow {
                    lr: 0.001,
                    beta1: 0.9,
                    beta2: 0.999,
                    eps: 1e-8,
                    bc1: 1.0 - 0.9f32.powi(3),
                    bc2: 1.0 - 0.999f32.powi(3),
                };
                let (mut pr, mut mr, mut vr) = (p0.clone(), s0.clone(), s0.clone());
                adam_row(KernelDispatch::Scalar, h, &mut mr, &mut vr, &mut pr, &g);
                let (mut p, mut m, mut v) = (p0.clone(), s0.clone(), s0.clone());
                adam_row(d, h, &mut m, &mut v, &mut p, &g);
                assert_eq!(bits(&pr), bits(&p), "adam n={n} d={}", d.name());
                assert_eq!(bits(&mr), bits(&m), "adam m n={n} d={}", d.name());
                assert_eq!(bits(&vr), bits(&v), "adam v n={n} d={}", d.name());
            }
        }
    }

    #[test]
    fn special_values_propagate_identically() {
        if !KernelDispatch::Avx2.supported() {
            return;
        }
        let g = [
            f32::NAN,
            -0.0,
            1e-42,
            f32::MIN_POSITIVE,
            -3.5,
            0.0,
            2.0,
            -1e-40,
            7.25,
        ];
        let p0 = [-0.0f32, 1.0, f32::NAN, 1e-41, 0.5, -2.0, 0.0, 4.0, -0.125];
        let s0 = [0.0f32; 9];

        let (mut pr, mut ar) = (p0, s0);
        adagrad_row(KernelDispatch::Scalar, 0.1, 1e-8, &mut ar, &mut pr, &g);
        let (mut p, mut a) = (p0, s0);
        adagrad_row(KernelDispatch::Avx2, 0.1, 1e-8, &mut a, &mut p, &g);
        assert_eq!(bits(&pr), bits(&p));
        assert_eq!(bits(&ar), bits(&a));
    }

    /// Regression: a *negative* accumulator at a tail index (element 64
    /// of 65) makes `sqrt(eps + a)` mint a fresh NaN, and `NaN - NaN`'s
    /// payload is an unspecified per-compilation LLVM choice — the
    /// scalar oracle's own tail and an open-coded copy of it inside the
    /// AVX2 kernel used to pick *different* NaNs (0xffc00000 vs
    /// 0x7fc00000). The tails now call the one `#[inline(never)]`
    /// scalar instance, so the tiers cannot diverge; this pins the
    /// exact inputs that caught it.
    #[test]
    fn fresh_nan_from_negative_state_is_tier_identical() {
        if !KernelDispatch::Avx2.supported() {
            return;
        }
        let n = 65;
        let tail = n - 1;
        let mut p0 = vec![0.25f32; n];
        let mut g = vec![0.5f32; n];
        let mut s0 = vec![0.0f32; n];
        p0[tail] = f32::from_bits(0x7fc00000); // NaN param...
        g[tail] = f32::from_bits(0x3f9b2610); // finite grad...
        s0[tail] = f32::from_bits(0xbfe71036); // negative accumulator
        s0[3] = -2.5; // and one in the vector body too

        for d in KernelDispatch::available() {
            // Adagrad and RMSprop hit sqrt(eps + negative) directly.
            let (mut pr, mut ar) = (p0.clone(), s0.clone());
            adagrad_row(KernelDispatch::Scalar, 0.05, 1e-8, &mut ar, &mut pr, &g);
            let (mut p, mut a) = (p0.clone(), s0.clone());
            adagrad_row(d, 0.05, 1e-8, &mut a, &mut p, &g);
            assert_eq!(bits(&pr), bits(&p), "adagrad param d={}", d.name());
            assert_eq!(bits(&ar), bits(&a), "adagrad state d={}", d.name());

            let (mut pr, mut ar) = (p0.clone(), s0.clone());
            rmsprop_row(
                KernelDispatch::Scalar,
                0.05,
                0.95,
                1e-8,
                &mut ar,
                &mut pr,
                &g,
            );
            let (mut p, mut a) = (p0.clone(), s0.clone());
            rmsprop_row(d, 0.05, 0.95, 1e-8, &mut a, &mut p, &g);
            assert_eq!(bits(&pr), bits(&p), "rmsprop param d={}", d.name());
            assert_eq!(bits(&ar), bits(&a), "rmsprop state d={}", d.name());

            // Adam's sqrt sees the negative second moment.
            let h = AdamRow {
                lr: 0.01,
                beta1: 0.9,
                beta2: 0.999,
                eps: 1e-8,
                bc1: 1.0 - 0.9f32.powi(3),
                bc2: 1.0 - 0.999f32.powi(3),
            };
            let (mut pr, mut mr, mut vr) = (p0.clone(), s0.clone(), s0.clone());
            adam_row(KernelDispatch::Scalar, h, &mut mr, &mut vr, &mut pr, &g);
            let (mut p, mut m, mut v) = (p0.clone(), s0.clone(), s0.clone());
            adam_row(d, h, &mut m, &mut v, &mut p, &g);
            assert_eq!(bits(&pr), bits(&p), "adam param d={}", d.name());
            assert_eq!(bits(&mr), bits(&m), "adam m d={}", d.name());
            assert_eq!(bits(&vr), bits(&v), "adam v d={}", d.name());
        }
    }
}
