//! SIMD-tier equivalence suite: every kernel tier must be *bit-identical*
//! to the scalar oracle (performance invariant 8), except the opt-in FMA
//! tier, which contracts `a*b + c` and is therefore only tolerance-gated.
//!
//! The proptests drive the explicit-dispatch entry points
//! ([`Matrix::matmul_into_with`], `tensor::simd::{add_assign, axpy, dot}`,
//! `embedding::simd::*_row`) so they stay independent of the process-wide
//! [`simd::force`] override; the single end-to-end test owns `force()`
//! and walks a full `Trainer` trajectory per tier.

use proptest::prelude::*;
use tensor_casting::core::{casted_gather_reduce, tensor_casting};
use tensor_casting::datasets::SyntheticCtr;
use tensor_casting::dlrm::{checkpoint::save_checkpoint, BackwardMode, DlrmConfig, Trainer};
use tensor_casting::embedding::{
    accumulate_rows, gather_reduce_into,
    optim::{RowOptimizer, UpdateRule},
    scatter_apply, simd as opt_simd, EmbeddingTable, IndexArray,
};
use tensor_casting::tensor::{simd, Exec, KernelDispatch, Linear, Matrix, Pool, SplitMix64};

/// Fills a buffer with mostly-normal values plus the adversarial cases —
/// NaN, `-0.0`, and denormals — that a bit-identity claim must survive.
fn fill_special(rng: &mut SplitMix64, out: &mut [f32]) {
    fill_special_one_in(rng, out, 4);
}

/// [`fill_special`] with each adversarial value drawn once per
/// `4 * one_in` elements: a long reduction wants them rare enough that
/// most outputs stay finite (a NaN output compares equal whatever the
/// order of the finite terms around it).
fn fill_special_one_in(rng: &mut SplitMix64, out: &mut [f32], one_in: u64) {
    for v in out.iter_mut() {
        *v = match rng.next_below(4 * one_in) {
            0 => f32::NAN,
            1 => -0.0,
            2 => 1.0e-40,
            3 => -1.0e-41,
            _ => rng.next_range(-2.0, 2.0),
        };
    }
}

/// A matrix of a product whose reduction runs over `k` terms.
fn reduction_matrix(rows: usize, cols: usize, k: usize, rng: &mut SplitMix64) -> Matrix {
    let mut m = Matrix::zeros(rows, cols);
    fill_special_one_in(rng, m.as_mut_slice(), (k as u64).max(4));
    m
}

fn special_vec(n: usize, rng: &mut SplitMix64) -> Vec<f32> {
    let mut v = vec![0.0f32; n];
    fill_special(rng, &mut v);
    v
}

/// Index of the first element whose bit pattern differs, if any.
fn first_bit_mismatch(a: &[f32], b: &[f32]) -> Option<(usize, f32, f32)> {
    a.iter()
        .zip(b.iter())
        .position(|(x, y)| x.to_bits() != y.to_bits())
        .map(|i| (i, a[i], b[i]))
}

/// FMA-tier comparison: contraction changes rounding, not semantics, so
/// NaNs must still align and finite values must agree to a loose bound.
fn fma_close(a: f32, b: f32) -> bool {
    if a.is_nan() || b.is_nan() {
        return a.is_nan() && b.is_nan();
    }
    (a - b).abs() <= 1e-3 + 1e-4 * a.abs().max(b.abs())
}

fn first_fma_mismatch(a: &[f32], b: &[f32]) -> Option<(usize, f32, f32)> {
    a.iter()
        .zip(b.iter())
        .position(|(x, y)| !fma_close(*x, *y))
        .map(|i| (i, a[i], b[i]))
}

fn non_scalar_tiers() -> Vec<KernelDispatch> {
    KernelDispatch::available()
        .into_iter()
        .filter(|&d| d != KernelDispatch::Scalar)
        .collect()
}

/// All three GEMM entry points on one `m x k x n` shape: the AVX2 tier is
/// bit-identical to scalar; FMA stays within contraction tolerance.
fn check_gemm_tiers(m: usize, k: usize, n: usize, seed: u64) -> Result<(), String> {
    let mut rng = SplitMix64::new(seed);
    let a = reduction_matrix(m, k, k, &mut rng);
    let b = reduction_matrix(k, n, k, &mut rng);
    let at_lhs = reduction_matrix(k, m, k, &mut rng); // at_lhs^T * b_at: m x n
    let b_at = reduction_matrix(k, n, k, &mut rng);
    let bt_rhs = reduction_matrix(n, k, k, &mut rng); // a * bt_rhs^T: m x n

    let mut want = Matrix::zeros(m, n);
    let mut want_at = Matrix::zeros(m, n);
    let mut want_bt = Matrix::zeros(m, n);
    a.matmul_into_with(&b, &mut want, KernelDispatch::Scalar)
        .unwrap();
    at_lhs
        .matmul_at_into_with(&b_at, &mut want_at, KernelDispatch::Scalar)
        .unwrap();
    a.matmul_bt_into_with(&bt_rhs, &mut want_bt, KernelDispatch::Scalar)
        .unwrap();

    // Stale contents: every product must overwrite, not accumulate.
    let mut got = Matrix::filled(m, n, f32::NAN);
    for tier in non_scalar_tiers() {
        for (name, want, run) in [
            ("matmul", &want, 0usize),
            ("matmul_at", &want_at, 1),
            ("matmul_bt", &want_bt, 2),
        ] {
            match run {
                0 => a.matmul_into_with(&b, &mut got, tier).unwrap(),
                1 => at_lhs.matmul_at_into_with(&b_at, &mut got, tier).unwrap(),
                _ => a.matmul_bt_into_with(&bt_rhs, &mut got, tier).unwrap(),
            }
            let bad = if tier == KernelDispatch::Fma {
                first_fma_mismatch(want.as_slice(), got.as_slice())
            } else {
                first_bit_mismatch(want.as_slice(), got.as_slice())
            };
            if bad.is_some() {
                return Err(format!(
                    "{name} {} vs scalar diverged at {bad:?} (m={m} k={k} n={n})",
                    tier.name()
                ));
            }
        }
    }
    Ok(())
}

/// The shapes that straddle every tail of the register-tiled kernels: row
/// tails of the 4-row `NN`/`TN` tile and the 2-row `NT` tile, column tails
/// of the 16-wide panel and the 4-wide `NT` tile (down to the `out_dim =
/// 1` logit layer), the 8-lane dot chunk, and the 256-step K block — plus
/// the repo benchmark's own layer shapes.
#[test]
fn gemm_tiers_match_scalar_on_tile_boundaries() {
    let ms = [1, 2, 3, 4, 5, 6, 7, 8, 9, 63, 64, 65];
    let ns = [1, 7, 8, 15, 16, 17, 33, 100];
    let ks = [1, 7, 8, 9, 127, 128, 129, 255, 256, 257, 300, 513];
    let mut seed = 0x7115;
    for &m in &ms {
        for &n in &ns {
            for &k in &ks {
                seed += 1;
                check_gemm_tiers(m, k, n, seed).unwrap();
            }
        }
    }
    for (m, k, n) in [(64, 2560, 512), (64, 13, 2560), (16, 119, 256), (10, 64, 1)] {
        check_gemm_tiers(m, k, n, seed + m as u64).unwrap();
    }
}

/// Row bands are not multiples of any tile: a split product must still be
/// bit-identical to the serial one (invariant: serial == pooled), for the
/// forward `x W` (`NN`), the weight gradient `x^T dy` (`TN`) and the input
/// gradient `dy W^T` (`NT`), with the reduction crossing chunk and K-block
/// boundaries. A layer splits only from the multiply-add floor up, so the
/// free dimension is as wide as that takes (the small shapes, and every
/// reduction length, are `tcast-tensor`'s own `parallel` unit test, which
/// cuts bands under the floor too).
#[test]
fn pooled_gemm_matches_serial_on_uneven_bands() {
    let pool = Pool::new(3);
    let m = 37;
    for k in [9, 257, 300] {
        let mut rng = SplitMix64::new(0xBA4D + k as u64);
        let wide = (4usize << 20).div_ceil(m * k) + 3;
        // forward reduces over the layer's inputs, backward over its outputs.
        for (in_dim, out_dim) in [(k, wide), (wide, k)] {
            let weight = reduction_matrix(in_dim, out_dim, k, &mut rng);
            let bias = special_vec(out_dim, &mut rng);
            let x = reduction_matrix(m, in_dim, k, &mut rng);
            let dy = reduction_matrix(m, out_dim, k, &mut rng);
            let mut layer = Linear::from_parameters(weight, bias).unwrap();
            assert!(
                layer.splits_at(m),
                "{m}x{in_dim}x{out_dim} is under the floor"
            );

            let (mut y_serial, mut dx_serial) = (Matrix::default(), Matrix::default());
            layer
                .forward_into(&x, &mut y_serial, None, Exec::Serial)
                .unwrap();
            layer
                .backward_into(&x, &dy, &mut dx_serial, Exec::Serial)
                .unwrap();
            let dw_serial = layer.grad_weight().unwrap().clone();
            for threads in [2, 3, 8] {
                let exec = Exec::Pooled {
                    pool: &pool,
                    threads,
                };
                let (mut y, mut dx) = (Matrix::default(), Matrix::default());
                layer.forward_into(&x, &mut y, None, exec).unwrap();
                layer.backward_into(&x, &dy, &mut dx, exec).unwrap();
                let dw = layer.grad_weight().unwrap();
                for (kind, serial, split) in [
                    ("NN", &y_serial, &y),
                    ("TN", &dw_serial, dw),
                    ("NT", &dx_serial, &dx),
                ] {
                    let bad = first_bit_mismatch(serial.as_slice(), split.as_slice());
                    assert!(
                        bad.is_none(),
                        "{kind} {in_dim}x{out_dim} threads={threads}: {bad:?}"
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// All three GEMM entry points across ragged shapes: the AVX2 tier is
    /// bit-identical to scalar; FMA stays within contraction tolerance.
    #[test]
    fn gemm_tiers_match_scalar(
        m in 1usize..67,
        k in 1usize..67,
        n in 1usize..67,
        seed in any::<u64>(),
    ) {
        let checked = check_gemm_tiers(m, k, n, seed);
        prop_assert!(checked.is_ok(), "{}", checked.unwrap_err());
    }

    /// The gather/axpy vector kernels: `add_assign` has no contracted
    /// form, so it is bit-identical on *every* tier (FMA included);
    /// `axpy` and `dot` are bit-gated on AVX2 and tolerance-gated on FMA.
    #[test]
    fn vector_kernels_match_scalar(n in 1usize..67, seed in any::<u64>(), alpha in -2.0f32..2.0) {
        let mut rng = SplitMix64::new(seed);
        let acc0 = special_vec(n, &mut rng);
        let src = special_vec(n, &mut rng);

        let mut want_add = acc0.clone();
        simd::add_assign(KernelDispatch::Scalar, &mut want_add, &src);
        let mut want_axpy = acc0.clone();
        simd::axpy(KernelDispatch::Scalar, &mut want_axpy, &src, alpha);
        let want_dot = simd::dot(KernelDispatch::Scalar, &acc0, &src);

        for tier in non_scalar_tiers() {
            let mut add = acc0.clone();
            simd::add_assign(tier, &mut add, &src);
            let bad = first_bit_mismatch(&want_add, &add);
            prop_assert!(bad.is_none(), "add_assign {} mismatch at {bad:?} (n={n})", tier.name());

            let mut axpy = acc0.clone();
            simd::axpy(tier, &mut axpy, &src, alpha);
            let dot = simd::dot(tier, &acc0, &src);
            if tier == KernelDispatch::Fma {
                let bad = first_fma_mismatch(&want_axpy, &axpy);
                prop_assert!(bad.is_none(), "axpy fma diverged at {bad:?} (n={n})");
                prop_assert!(fma_close(want_dot, dot), "dot fma {want_dot} vs {dot} (n={n})");
            } else {
                let bad = first_bit_mismatch(&want_axpy, &axpy);
                prop_assert!(bad.is_none(), "axpy {} mismatch at {bad:?} (n={n})", tier.name());
                prop_assert!(
                    want_dot.to_bits() == dot.to_bits(),
                    "dot {} {want_dot} vs {dot} (n={n})",
                    tier.name()
                );
            }
        }
    }

    /// Per-row optimizer updates run the non-contracted path on every
    /// tier, so params *and* state are bit-identical across all of them.
    #[test]
    fn optimizer_rows_match_scalar(n in 1usize..67, seed in any::<u64>()) {
        let mut rng = SplitMix64::new(seed);
        let param0 = special_vec(n, &mut rng);
        let grad = special_vec(n, &mut rng);
        let state0 = special_vec(n, &mut rng);
        let adam = opt_simd::AdamRow {
            lr: 0.01,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            bc1: 1.0 - 0.9f32.powi(3),
            bc2: 1.0 - 0.999f32.powi(3),
        };

        // (label, updater over (tier, state_a, state_b, param)).
        type Step = fn(KernelDispatch, &mut [f32], &mut [f32], &mut [f32], &[f32], opt_simd::AdamRow);
        let steps: [(&str, Step); 5] = [
            ("sgd", |d, _a, _b, p, g, _h| opt_simd::sgd_row(d, 0.05, p, g)),
            ("momentum", |d, a, _b, p, g, _h| opt_simd::momentum_row(d, 0.05, 0.9, a, p, g)),
            ("adagrad", |d, a, _b, p, g, _h| opt_simd::adagrad_row(d, 0.05, 1e-8, a, p, g)),
            ("rmsprop", |d, a, _b, p, g, _h| opt_simd::rmsprop_row(d, 0.05, 0.95, 1e-8, a, p, g)),
            ("adam", |d, a, b, p, g, h| opt_simd::adam_row(d, h, a, b, p, g)),
        ];

        for (label, step) in steps {
            let mut wp = param0.clone();
            let mut wa = state0.clone();
            let mut wb = state0.clone();
            step(KernelDispatch::Scalar, &mut wa, &mut wb, &mut wp, &grad, adam);
            for tier in non_scalar_tiers() {
                let mut p = param0.clone();
                let mut a = state0.clone();
                let mut b = state0.clone();
                step(tier, &mut a, &mut b, &mut p, &grad, adam);
                for (what, want, got) in [("param", &wp, &p), ("state1", &wa, &a), ("state2", &wb, &b)] {
                    let bad = first_bit_mismatch(want, got);
                    prop_assert!(
                        bad.is_none(),
                        "{label} {} {what} mismatch at {bad:?} (n={n})",
                        tier.name()
                    );
                }
            }
        }
    }
}

/// The gather-reduce band kernels, tier against tier: the scalar loop adds
/// a row per lookup, the AVX2 one keeps an output row in registers across a
/// run of equal `dst` and stores it once — same rows, same order, per lane.
/// Swept over every ragged width up to 67 and a few past one 64-lane pass,
/// streams built of runs of 1, 3 and 80 lookups whose `dst` jump about (so
/// rows are revisited), pre-loaded non-zero outputs, NaN / `-0.0` /
/// denormal rows, and pooled bands whose `base` is past row 0 and which
/// skip the pairs they do not own. `accumulate_rows` reads the process-wide
/// tier, so this runs inside the one test that owns `simd::force`.
fn check_band_kernels_across_tiers(pool: &Pool) {
    let mut rng = SplitMix64::new(0xBA4D);
    let (table_rows, outputs) = (40usize, 11usize);
    for dim in (1..=67).chain([72, 128, 131]) {
        let mut rows = vec![0.0f32; table_rows * dim];
        fill_special_one_in(&mut rng, &mut rows, 16);
        let (mut src, mut dst) = (Vec::new(), Vec::new());
        for _ in 0..12 {
            let d = rng.next_below(outputs as u64) as u32;
            let run = [1, 3, 80][rng.next_below(3) as usize];
            for _ in 0..run {
                src.push(rng.next_below(table_rows as u64) as u32);
                dst.push(d);
            }
        }
        let mut preload = Matrix::zeros(outputs, dim);
        fill_special_one_in(&mut rng, preload.as_mut_slice(), 16);

        for exec in [Exec::Serial, Exec::Pooled { pool, threads: 3 }] {
            let run = |tier: KernelDispatch| {
                simd::force(Some(tier));
                let mut out = preload.clone();
                accumulate_rows(&rows, &src, &dst, &mut out, exec);
                simd::force(None);
                out
            };
            let want = run(KernelDispatch::Scalar);
            for tier in non_scalar_tiers() {
                let bad = first_bit_mismatch(want.as_slice(), run(tier).as_slice());
                assert!(
                    bad.is_none(),
                    "{} band kernel, dim {dim}, {exec:?}: mismatch at {bad:?}",
                    tier.name()
                );
            }
        }
    }
}

/// The one test that owns the process-wide [`simd::force`] override: the
/// gather-reduce band kernels on their own, then the
/// full gather → casted-reduce → scatter operator chain and a complete
/// `Trainer` trajectory (per-step losses + final checkpoint bytes) must
/// be bit-identical on every non-FMA tier; the FMA trajectory must stay
/// finite and close.
#[test]
fn forced_dispatch_is_trajectory_bit_identical() {
    check_band_kernels_across_tiers(&Pool::new(3));

    let mut rng = SplitMix64::new(97);
    let table = EmbeddingTable::seeded(300, 37, 5); // ragged dim: tails run
    let samples: Vec<Vec<u32>> = (0..64)
        .map(|_| (0..5).map(|_| rng.next_below(300) as u32).collect())
        .collect();
    let index = IndexArray::from_samples(&samples).unwrap();
    let casted = tensor_casting(&index);
    let mut grads = Matrix::zeros(64, 37);
    fill_special(&mut rng, grads.as_mut_slice());

    let config = DlrmConfig::tiny();
    let run_operators = |tier: KernelDispatch| {
        simd::force(Some(tier));
        let mut pooled = Matrix::zeros(64, 37);
        gather_reduce_into(&table, &index, &mut pooled, Exec::Serial).unwrap();
        let coalesced = casted_gather_reduce(&grads, &casted).unwrap();
        let mut ada_table = table.clone();
        let mut adam_table = table.clone();
        let adagrad = UpdateRule::Adagrad {
            lr: 0.05,
            eps: 1e-8,
        };
        let adam = UpdateRule::Adam {
            lr: 0.01,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
        };
        scatter_apply(&mut ada_table, &coalesced, &mut RowOptimizer::new(adagrad)).unwrap();
        scatter_apply(&mut adam_table, &coalesced, &mut RowOptimizer::new(adam)).unwrap();
        simd::force(None);
        (pooled, coalesced, ada_table, adam_table)
    };
    let run_trainer = |tier: KernelDispatch| {
        simd::force(Some(tier));
        let mut trainer = Trainer::new(config.clone(), BackwardMode::Casted, 11).unwrap();
        let mut stream = SyntheticCtr::new(config.table_workloads(), config.dense_features, 13);
        let losses: Vec<u32> = (0..6)
            .map(|_| trainer.step(&stream.next_batch(32)).unwrap().loss.to_bits())
            .collect();
        let mut bytes = Vec::new();
        save_checkpoint(&mut bytes, trainer.model()).unwrap();
        simd::force(None);
        (losses, bytes)
    };

    let (pooled_s, coalesced_s, ada_s, adam_s) = run_operators(KernelDispatch::Scalar);
    let (losses_s, bytes_s) = run_trainer(KernelDispatch::Scalar);
    assert!(losses_s.iter().all(|&b| f32::from_bits(b).is_finite()));

    for tier in non_scalar_tiers() {
        let (pooled, coalesced, ada, adam) = run_operators(tier);
        // The operator chain never contracts, so even FMA is bit-gated.
        assert!(
            first_bit_mismatch(pooled_s.as_slice(), pooled.as_slice()).is_none(),
            "{}: gather_reduce diverged from scalar",
            tier.name()
        );
        assert!(
            first_bit_mismatch(coalesced_s.grads().as_slice(), coalesced.grads().as_slice())
                .is_none(),
            "{}: casted_gather_reduce diverged from scalar",
            tier.name()
        );
        // Bit comparison, not max_abs_diff: NaN gradients flow into the
        // tables and NaN != NaN would mask an identical-bits result.
        assert!(
            first_bit_mismatch(ada_s.as_slice(), ada.as_slice()).is_none(),
            "{}: adagrad scatter diverged from scalar",
            tier.name()
        );
        assert!(
            first_bit_mismatch(adam_s.as_slice(), adam.as_slice()).is_none(),
            "{}: adam scatter diverged from scalar",
            tier.name()
        );

        let (losses, bytes) = run_trainer(tier);
        if tier == KernelDispatch::Fma {
            for (i, (&ws, &gs)) in losses_s.iter().zip(losses.iter()).enumerate() {
                let (w, g) = (f32::from_bits(ws), f32::from_bits(gs));
                assert!(g.is_finite(), "fma: loss {i} not finite");
                assert!((w - g).abs() < 5e-2, "fma: step {i} loss {w} vs {g}");
            }
        } else {
            assert_eq!(
                losses_s,
                losses,
                "{}: loss trajectory diverged",
                tier.name()
            );
            assert_eq!(
                bytes_s,
                bytes,
                "{}: final model weights diverged",
                tier.name()
            );
        }
    }
}
