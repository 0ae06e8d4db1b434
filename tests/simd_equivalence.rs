//! SIMD-tier equivalence suite: every kernel tier must be *bit-identical*
//! to the scalar oracle (performance invariant 8).
//!
//! The proptests drive the explicit-dispatch entry points
//! ([`Matrix::matmul_into_with`], `tensor::simd::{add_assign, dot}`,
//! `embedding::simd::*_row`) so they stay independent of the process-wide
//! [`simd::force`] override; the single end-to-end test owns `force()`
//! and walks a full `Trainer` trajectory per tier.

use proptest::prelude::*;
use tensor_casting::core::{casted_gather_reduce, tensor_casting};
use tensor_casting::datasets::SyntheticCtr;
use tensor_casting::dlrm::{checkpoint::save_train_checkpoint, BackwardMode, DlrmConfig, Trainer};
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

/// [`fill_special_one_in`], then `+Inf` and `-Inf` each over one element
/// in `4 * one_in`.
fn fill_infinities_one_in(rng: &mut SplitMix64, out: &mut [f32], one_in: u64) {
    fill_special_one_in(rng, out, one_in);
    for v in out.iter_mut() {
        match rng.next_below(4 * one_in) {
            0 => *v = f32::INFINITY,
            1 => *v = f32::NEG_INFINITY,
            _ => {}
        }
    }
}

/// Which adversarial values a GEMM case draws.
#[derive(Clone, Copy, PartialEq)]
enum Specials {
    /// NaN, `-0.0` and denormals: every output is bit-gated.
    NanZeroDenormal,
    /// The same and `+Inf` / `-Inf`: an infinity meeting its opposite or
    /// a zero makes a NaN, and where it meets another NaN the tiers need
    /// not agree on which one's sign survives.
    Infinity,
}

/// A matrix of a product whose reduction runs over `k` terms.
fn reduction_matrix(rows: usize, cols: usize, k: usize, rng: &mut SplitMix64) -> Matrix {
    reduction_matrix_with(rows, cols, k, rng, Specials::NanZeroDenormal)
}

fn reduction_matrix_with(
    rows: usize,
    cols: usize,
    k: usize,
    rng: &mut SplitMix64,
    specials: Specials,
) -> Matrix {
    let mut m = Matrix::zeros(rows, cols);
    let one_in = (k as u64).max(4);
    match specials {
        Specials::NanZeroDenormal => fill_special_one_in(rng, m.as_mut_slice(), one_in),
        Specials::Infinity => fill_infinities_one_in(rng, m.as_mut_slice(), one_in),
    }
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

/// Index of the first element that is NaN on one side only, or not NaN
/// and of different bits: NaN sign and payload are not compared.
fn first_non_nan_mismatch(a: &[f32], b: &[f32]) -> Option<(usize, f32, f32)> {
    a.iter()
        .zip(b.iter())
        .position(|(x, y)| match (x.is_nan(), y.is_nan()) {
            (true, true) => false,
            (false, false) => x.to_bits() != y.to_bits(),
            _ => true,
        })
        .map(|i| (i, a[i], b[i]))
}

fn non_scalar_tiers() -> Vec<KernelDispatch> {
    KernelDispatch::available()
        .into_iter()
        .filter(|&d| d != KernelDispatch::Scalar)
        .collect()
}

/// All three GEMM entry points on one `m x k x n` shape: the AVX2 tier is
/// bit-identical to scalar.
fn check_gemm_tiers(m: usize, k: usize, n: usize, seed: u64) -> Result<(), String> {
    check_gemm_tiers_with(m, k, n, seed, Specials::NanZeroDenormal)
}

/// [`check_gemm_tiers`] over `specials`. On [`Specials::Infinity`] the
/// AVX2 tier must match scalar on every non-NaN output bit for bit and on
/// which outputs are NaN.
fn check_gemm_tiers_with(
    m: usize,
    k: usize,
    n: usize,
    seed: u64,
    specials: Specials,
) -> Result<(), String> {
    let mut rng = SplitMix64::new(seed);
    let mut draw = |rows, cols| reduction_matrix_with(rows, cols, k, &mut rng, specials);
    let a = draw(m, k);
    let b = draw(k, n);
    let at_lhs = draw(k, m); // at_lhs^T * b_at: m x n
    let b_at = draw(k, n);
    let bt_rhs = draw(n, k); // a * bt_rhs^T: m x n

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
            let bad = if specials == Specials::Infinity {
                first_non_nan_mismatch(want.as_slice(), got.as_slice())
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

/// The shapes that straddle every tail of the register-tiled kernels at
/// the host's width: row tails of the `NN`/`TN` tile and of the `NT` tile
/// (2 rows on `ymm`, a 16-row block on `zmm`), column tails of the 16-wide
/// panel and of the `NT` tile (4 columns, or 3) down to the `out_dim = 1`
/// logit layer, the 8-lane dot chunk, and the 256-step K block — plus the
/// repo benchmark's own layer shapes.
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

/// `a * b^T` (`NT`, the input gradient) on the `avx2` tier at each
/// register width the host has, 8 and 16 lanes, into a stale output: bit
/// for bit the scalar oracle's one `dot` per output.
fn check_nt_widths(m: usize, k: usize, n: usize, seed: u64) -> Result<(), String> {
    let mut rng = SplitMix64::new(seed);
    let a = reduction_matrix(m, k, k, &mut rng);
    let b = reduction_matrix(n, k, k, &mut rng);
    let mut want = Matrix::zeros(m, n);
    a.matmul_bt_into_with(&b, &mut want, KernelDispatch::Scalar)
        .unwrap();
    for lanes in [8, 16] {
        let mut got = vec![f32::NAN; m * n];
        if !simd::gemm_nt_width(lanes, a.as_slice(), b.as_slice(), &mut got, m, k, n) {
            continue;
        }
        if let Some(bad) = first_bit_mismatch(want.as_slice(), &got) {
            return Err(format!(
                "{lanes}-lane NT vs scalar diverged at {bad:?} (m={m} k={k} n={n})"
            ));
        }
    }
    Ok(())
}

/// `NT` at both widths on batches around the `zmm` kernel's 16-row block,
/// reductions on both sides of the 8-step chunk and of RM3's 512, and
/// column counts around the 3-column tile.
#[test]
fn nt_widths_match_scalar_on_block_edges() {
    let mut seed = 0x47;
    for m in [1, 15, 16, 17, 33, 64] {
        for k in (1..=9).chain(15..=17).chain([512, 513]) {
            for n in [1, 2, 3, 4, 7, 40] {
                seed += 1;
                check_nt_widths(m, k, n, seed).unwrap();
            }
        }
    }
}

/// `+Inf` and `-Inf` among the NaN, `-0.0` and denormal inputs, over the
/// tile-boundary shapes (fewer reduction lengths). Rust does not fix which
/// NaN an add returns: where the NaN an infinity makes (`0xffc00000` on
/// x86) meets an input NaN (`0x7fc00000`), the AVX2 tier and the oracle
/// can keep different ones. Every other output is bit-equal.
#[test]
fn gemm_tiers_match_scalar_on_infinities() {
    let ms = [1, 2, 3, 4, 5, 6, 7, 8, 9, 63, 64, 65];
    let ns = [1, 7, 8, 15, 16, 17, 33, 100];
    let ks = [1, 7, 8, 9, 255, 256, 257, 513];
    let mut seed = 0x1AF;
    for &m in &ms {
        for &n in &ns {
            for &k in &ks {
                seed += 1;
                check_gemm_tiers_with(m, k, n, seed, Specials::Infinity).unwrap();
            }
        }
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
                .backward_into(&x, &dy, Some(&mut dx_serial), None, Exec::Serial)
                .unwrap();
            let dw_serial = layer.grad_weight().unwrap().clone();
            for threads in [2, 3, 8] {
                let exec = Exec::Pooled {
                    pool: &pool,
                    threads,
                };
                let (mut y, mut dx) = (Matrix::default(), Matrix::default());
                layer.forward_into(&x, &mut y, None, exec).unwrap();
                layer
                    .backward_into(&x, &dy, Some(&mut dx), None, exec)
                    .unwrap();
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
    /// bit-identical to scalar.
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

    /// `NT` at both widths across ragged shapes.
    #[test]
    fn nt_widths_match_scalar(
        m in 1usize..70,
        k in 1usize..70,
        n in 1usize..20,
        seed in any::<u64>(),
    ) {
        let checked = check_nt_widths(m, k, n, seed);
        prop_assert!(checked.is_ok(), "{}", checked.unwrap_err());
    }

    /// The vector kernels: `add_assign` (the gather accumulate) and `dot`
    /// are bit-identical to scalar on every tier.
    #[test]
    fn vector_kernels_match_scalar(n in 1usize..67, seed in any::<u64>()) {
        let mut rng = SplitMix64::new(seed);
        let acc0 = special_vec(n, &mut rng);
        let src = special_vec(n, &mut rng);

        let mut want_add = acc0.clone();
        simd::add_assign(KernelDispatch::Scalar, &mut want_add, &src);
        let want_dot = simd::dot(KernelDispatch::Scalar, &acc0, &src);

        for tier in non_scalar_tiers() {
            let mut add = acc0.clone();
            simd::add_assign(tier, &mut add, &src);
            let bad = first_bit_mismatch(&want_add, &add);
            prop_assert!(bad.is_none(), "add_assign {} mismatch at {bad:?} (n={n})", tier.name());

            let dot = simd::dot(tier, &acc0, &src);
            prop_assert!(
                want_dot.to_bits() == dot.to_bits(),
                "dot {} {want_dot} vs {dot} (n={n})",
                tier.name()
            );
        }
    }

    /// Per-row optimizer updates: params *and* state are bit-identical
    /// across every tier.
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

/// The gather-reduce accumulate kernels, tier against tier: the scalar
/// loop adds a row per lookup, the AVX2 one keeps an output row in
/// registers across a run of equal `dst` and stores it once — same rows,
/// same order, per lane. Swept over every ragged width up to 67 and a few
/// past one 64-lane pass, streams built of runs of 1, 3 and 80 lookups
/// whose `dst` jump about (so rows are revisited), pre-loaded non-zero
/// outputs and NaN / `-0.0` / denormal rows, pooled into a window that
/// starts two rows into the output from a `dst` base of 3 (as the serve
/// engine pools a query cut between two bands). `accumulate_rows` reads the
/// process-wide tier, so this runs inside the one test that owns
/// `simd::force`.
fn check_accumulate_kernels_across_tiers() {
    let mut rng = SplitMix64::new(0xBA4D);
    let (table_rows, outputs, first_row, first_dst) = (40usize, 11usize, 2usize, 3usize);
    for dim in (1..=67).chain([72, 128, 131]) {
        let mut rows = vec![0.0f32; table_rows * dim];
        fill_special_one_in(&mut rng, &mut rows, 16);
        let (mut src, mut dst) = (Vec::new(), Vec::new());
        for _ in 0..12 {
            let d = (first_dst + rng.next_below(outputs as u64) as usize) as u32;
            let run = [1, 3, 80][rng.next_below(3) as usize];
            for _ in 0..run {
                src.push(rng.next_below(table_rows as u64) as u32);
                dst.push(d);
            }
        }
        let mut preload = Matrix::zeros(first_row + outputs, dim);
        fill_special_one_in(&mut rng, preload.as_mut_slice(), 16);

        let run = |tier: KernelDispatch| {
            simd::force(Some(tier));
            let mut out = preload.clone();
            accumulate_rows(&rows, &src, &dst, &mut out, first_row, first_dst);
            simd::force(None);
            out
        };
        let want = run(KernelDispatch::Scalar);
        for tier in non_scalar_tiers() {
            let bad = first_bit_mismatch(want.as_slice(), run(tier).as_slice());
            assert!(
                bad.is_none(),
                "{} accumulate kernel, dim {dim}: mismatch at {bad:?}",
                tier.name()
            );
        }
    }
}

/// The one test that owns the process-wide [`simd::force`] override: the
/// gather-reduce accumulate kernels on their own, then the
/// full gather → casted-reduce → scatter operator chain and a complete
/// `Trainer` trajectory (per-step losses + final checkpoint bytes) must
/// be bit-identical on every tier.
#[test]
fn forced_dispatch_is_trajectory_bit_identical() {
    check_accumulate_kernels_across_tiers();

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
        save_train_checkpoint(&mut bytes, &trainer, None, None).unwrap();
        simd::force(None);
        (losses, bytes)
    };

    let (pooled_s, coalesced_s, ada_s, adam_s) = run_operators(KernelDispatch::Scalar);
    let (losses_s, bytes_s) = run_trainer(KernelDispatch::Scalar);
    assert!(losses_s.iter().all(|&b| f32::from_bits(b).is_finite()));

    for tier in non_scalar_tiers() {
        let (pooled, coalesced, ada, adam) = run_operators(tier);
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
