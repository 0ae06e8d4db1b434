//! The sparse row optimizer of the embedding tables.
//!
//! Section II-B of the paper explains *why* gradient coalescing exists at
//! all: optimizers like RMSprop (Eq. 1) and Adagrad (Eq. 2) need the
//! (potentially multiple) gradients of a parameter accumulated into a
//! single value `G_i` before the update, because their state update is a
//! nonlinear function of `G_i`. Every such optimizer is the same thing — a
//! per-row function of the coalesced gradient and a few `f32` planes of
//! per-row state — so there is one optimizer type here:
//!
//! * [`UpdateRule`] is the function: a `Copy` enum of the five rules with
//!   their hyperparameters. It alone knows what differs between them — how
//!   many state planes a rule keeps, whether it counts steps per row, its
//!   name and which `simd::*_row` kernel it runs. The kernel is chosen once
//!   a scatter ([`RowOptimizer::with_update`]), not once a row.
//! * [`RowOptimizer`] is the state: one dense slab per plane plus the
//!   per-row step counts, touching only rows that actually receive
//!   gradients — the sparse update pattern of embedding training. Growth
//!   and the read-only view a checkpoint saves (and the checked
//!   constructor it restores through) are written over planes and step
//!   counts, never per rule; the byte format is the checkpoint's alone.
//!
//! # One door to the state
//!
//! Each plane lives in a dense slab, `width`-strided and keyed by table
//! row, not in a `HashMap<u32, Vec<f32>>`: a row's state is an offset, not
//! a lookup. Every update reaches it through [`RowOptimizer::with_update`],
//! which grows the slabs to exactly the rows a scatter touches —
//! `[0, last + 1)` — before the scatter's first update. So state never
//! outgrows the highest row it served, an update never grows it, and every
//! scatter grows it identically.

use crate::simd;

/// One plane of per-row optimizer state: `width` `f32` slots per row in
/// one contiguous slab, plus a touched bitmap for reporting. It grows only
/// in [`RowState::band`], to exactly the rows asked for.
#[derive(Debug, Clone, Default)]
struct RowState {
    width: usize,
    data: Vec<f32>,
    touched: Vec<bool>,
}

/// One row band of a [`RowState`]; a plane the rule does not keep is an
/// empty band.
#[derive(Debug, Default)]
struct RowStateBand<'a> {
    width: usize,
    data: &'a mut [f32],
    touched: &'a mut [bool],
}

impl RowState {
    /// Rows currently backed by the slab.
    fn rows(&self) -> usize {
        self.touched.len()
    }

    /// Number of rows that ever received an update.
    fn tracked_rows(&self) -> usize {
        self.touched.iter().filter(|&&t| t).count()
    }

    /// Rows `[0, end)` as one band of `width`-wide rows, the slab grown to
    /// cover them (never shrunk).
    fn band(&mut self, end: usize, width: usize) -> RowStateBand<'_> {
        if self.width == 0 {
            self.width = width;
        }
        assert_eq!(self.width, width, "optimizer state width changed");
        if end > self.rows() {
            self.data.resize(end * width, 0.0);
            self.touched.resize(end, false);
        }
        RowStateBand {
            width,
            data: &mut self.data[..end * width],
            touched: &mut self.touched[..end],
        }
    }
}

impl RowStateBand<'_> {
    /// Mutable state of table row `row`, marking it live.
    fn row_mut(&mut self, row: usize) -> &mut [f32] {
        self.touched[row] = true;
        &mut self.data[row * self.width..(row + 1) * self.width]
    }
}

/// The per-row update function: which optimizer, with its hyperparameters.
///
/// A rule is a value, not a type: a [`RowOptimizer`] carries one next to
/// its state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum UpdateRule {
    /// Plain stochastic gradient descent: `W <- W - lr * G`.
    Sgd {
        /// Learning rate.
        lr: f32,
    },
    /// SGD with (heavy-ball) momentum: `V <- mu*V + G; W <- W - lr*V`.
    Momentum {
        /// Learning rate.
        lr: f32,
        /// Momentum coefficient.
        mu: f32,
    },
    /// Adagrad (the paper's Eq. 2):
    /// `A <- A + G^2; W <- W - lr * G / sqrt(eps + A)`.
    Adagrad {
        /// Learning rate.
        lr: f32,
        /// Numerical-stability term.
        eps: f32,
    },
    /// RMSprop (the paper's Eq. 1):
    /// `A <- gamma*A + (1-gamma)*G^2; W <- W - lr * G / sqrt(eps + A)`.
    RmsProp {
        /// Learning rate.
        lr: f32,
        /// Accumulator decay.
        gamma: f32,
        /// Numerical-stability term.
        eps: f32,
    },
    /// Adam with sparse (lazy) per-row moments: `M <- b1*M + (1-b1)*G;
    /// V <- b2*V + (1-b2)*G^2; W <- W - lr * Mhat / (sqrt(Vhat) + eps)`
    /// with per-row bias-correction step counts (rows update at different
    /// rates in sparse training, so a global step count would over-correct
    /// cold rows).
    Adam {
        /// Learning rate.
        lr: f32,
        /// First-moment decay.
        beta1: f32,
        /// Second-moment decay.
        beta2: f32,
        /// Numerical-stability term.
        eps: f32,
    },
}

impl UpdateRule {
    /// Number of `f32` state planes the rule keeps per table element.
    pub fn planes(self) -> usize {
        match self {
            UpdateRule::Sgd { .. } => 0,
            UpdateRule::Momentum { .. }
            | UpdateRule::Adagrad { .. }
            | UpdateRule::RmsProp { .. } => 1,
            UpdateRule::Adam { .. } => 2,
        }
    }

    /// Whether the rule keeps a step count per row.
    pub fn counts_steps(self) -> bool {
        matches!(self, UpdateRule::Adam { .. })
    }

    /// Human-readable rule name (for logs, experiment output and the
    /// checkpoint's optimizer check).
    pub fn name(self) -> &'static str {
        match self {
            UpdateRule::Sgd { .. } => "sgd",
            UpdateRule::Momentum { .. } => "momentum",
            UpdateRule::Adagrad { .. } => "adagrad",
            UpdateRule::RmsProp { .. } => "rmsprop",
            UpdateRule::Adam { .. } => "adam",
        }
    }
}

/// The update of one row by its coalesced gradient, as a scatter holds
/// it: `(row, param, grad)`.
///
/// # Panics
///
/// Panics if `param.len() != grad.len()`.
pub type RowUpdate<'u> = dyn FnMut(u32, &mut [f32], &[f32]) + 'u;

/// Runs `task` with `update` behind the width check every rule shares.
fn run<R>(
    task: impl FnOnce(&mut RowUpdate<'_>) -> R,
    mut update: impl FnMut(u32, &mut [f32], &[f32]),
) -> R {
    task(&mut |row, param, grad| {
        assert_eq!(param.len(), grad.len(), "row/grad width mismatch");
        update(row, param, grad);
    })
}

/// An [`UpdateRule`] and the per-row state it has built up: one dense
/// slab per plane of the rule, plus per-row step counts when the rule
/// keeps them.
///
/// Rows are keyed by table row id. The state covers rows `[0, end)` for
/// the largest `end` a [`RowOptimizer::with_update`] asked for: one past
/// the highest row updated.
#[derive(Debug, Clone)]
pub struct RowOptimizer {
    rule: UpdateRule,
    planes: Vec<RowState>,
    steps: Vec<u32>,
}

impl RowOptimizer {
    /// A fresh optimizer (no row updated yet) running `rule`.
    pub fn new(rule: UpdateRule) -> Self {
        Self {
            rule,
            planes: vec![RowState::default(); rule.planes()],
            steps: Vec::new(),
        }
    }

    /// Number of rows with live state (always 0 for a stateless rule).
    pub fn tracked_rows(&self) -> usize {
        self.planes.first().map_or(0, RowState::tracked_rows)
    }

    /// Runs `task` — one scatter, or any run of updates — with the
    /// one-row update of rows `[0, end)` of `dim` elements each; every row
    /// it is called with must lie below `end`. The only way an update
    /// reaches optimizer state.
    ///
    /// State is grown to cover the rows first, so the updates never grow
    /// it (and never allocate); it is never grown past `end`. The rule is
    /// matched here, once a scatter, and each arm's update holds only its
    /// own kernel, so a row of the scatter loop costs one indirect call
    /// into a function as small as a dedicated optimizer type's would be.
    ///
    /// # Panics
    ///
    /// Panics if `dim` conflicts with the width of already-live state.
    pub fn with_update<R>(
        &mut self,
        end: usize,
        dim: usize,
        task: impl FnOnce(&mut RowUpdate<'_>) -> R,
    ) -> R {
        if self.rule.counts_steps() && end > self.steps.len() {
            self.steps.resize(end, 0);
        }
        let mut planes = self.planes.iter_mut().map(|plane| plane.band(end, dim));
        // One band per plane the rule keeps, then empty ones.
        let [mut a, mut b]: [RowStateBand<'_>; 2] =
            std::array::from_fn(|_| planes.next().unwrap_or_default());
        let kernel = simd::dispatch();
        match self.rule {
            UpdateRule::Sgd { lr } => run(task, |_, param, grad| {
                simd::sgd_row(kernel, lr, param, grad);
            }),
            UpdateRule::Momentum { lr, mu } => run(task, |row, param, grad| {
                simd::momentum_row(kernel, lr, mu, a.row_mut(row as usize), param, grad);
            }),
            UpdateRule::Adagrad { lr, eps } => run(task, |row, param, grad| {
                simd::adagrad_row(kernel, lr, eps, a.row_mut(row as usize), param, grad);
            }),
            UpdateRule::RmsProp { lr, gamma, eps } => run(task, |row, param, grad| {
                simd::rmsprop_row(kernel, lr, gamma, eps, a.row_mut(row as usize), param, grad);
            }),
            UpdateRule::Adam {
                lr,
                beta1,
                beta2,
                eps,
            } => run(task, |row, param, grad| {
                let row = row as usize;
                let t = &mut self.steps[row];
                *t += 1;
                let adam = simd::AdamRow {
                    lr,
                    beta1,
                    beta2,
                    eps,
                    bc1: 1.0 - beta1.powi(*t as i32),
                    bc2: 1.0 - beta2.powi(*t as i32),
                };
                simd::adam_row(kernel, adam, a.row_mut(row), b.row_mut(row), param, grad);
            }),
        }
    }

    /// The per-row state, read-only, one `(width, values, touched)` a
    /// plane of the rule: `width` `f32`s a row (0 before the plane first
    /// grew), the whole slab — untouched rows included, so state rebuilt
    /// from it grows as this state would — and which rows were updated.
    pub fn planes(&self) -> impl ExactSizeIterator<Item = (usize, &[f32], &[bool])> {
        self.planes
            .iter()
            .map(|p| (p.width, p.data.as_slice(), p.touched.as_slice()))
    }

    /// The per-row step counts, one a row of the planes; `None` for a rule
    /// that counts no steps.
    pub fn step_counts(&self) -> Option<&[u32]> {
        self.rule.counts_steps().then_some(self.steps.as_slice())
    }

    /// An optimizer running `rule` over saved state — what
    /// [`RowOptimizer::planes`] and [`RowOptimizer::step_counts`] show,
    /// owned — for a table of `rows` rows of `dim` elements.
    ///
    /// # Errors
    ///
    /// Describes the first disagreement with the rule or the table: a
    /// plane count other than `rule.planes()`; a plane not `dim` wide (one
    /// that never grew may say 0) or not rows x width values; planes of
    /// unequal rows, or more rows than the table; step counts on a rule
    /// that keeps none, none on one that does, or not one a row; a step
    /// count the update cannot advance (`i32::MAX` or more: the bias
    /// correction raises the decays to the advanced count as an `i32`).
    pub fn from_state(
        rule: UpdateRule,
        rows: usize,
        dim: usize,
        planes: Vec<(usize, Vec<f32>, Vec<bool>)>,
        steps: Option<Vec<u32>>,
    ) -> Result<Self, String> {
        let (name, keeps) = (rule.name(), rule.planes());
        if planes.len() != keeps {
            return Err(format!(
                "{} state planes, {name} keeps {keeps}",
                planes.len()
            ));
        }
        let state_rows = planes.first().map_or(0, |(_, _, touched)| touched.len());
        for (p, (width, values, touched)) in planes.iter().enumerate() {
            let width_ok = *width == dim || (*width == 0 && touched.is_empty());
            if !width_ok || values.len() != touched.len() * width {
                let (n, r) = (values.len(), touched.len());
                return Err(format!("plane {p} holds {n} values for {r} rows of width {width}, the table {dim} wide"));
            }
            if touched.len() != state_rows {
                return Err(format!(
                    "plane {p} has {} rows, plane 0 {state_rows}",
                    touched.len()
                ));
            }
        }
        if state_rows > rows {
            return Err(format!("{state_rows} state rows, the table {rows}"));
        }
        if steps.is_some() != rule.counts_steps() {
            let no = if rule.counts_steps() { "" } else { "no " };
            return Err(format!("{name} keeps {no}step counts"));
        }
        let steps = steps.unwrap_or_default();
        if rule.counts_steps() && steps.len() != state_rows {
            return Err(format!(
                "{} step counts for {state_rows} state rows",
                steps.len()
            ));
        }
        if let Some(row) = steps.iter().position(|&t| t >= i32::MAX as u32) {
            return Err(format!(
                "row {row} has taken {} steps: its next update would pass {}",
                steps[row],
                i32::MAX
            ));
        }
        let planes = planes.into_iter();
        let planes = planes.map(|(width, data, touched)| RowState {
            width,
            data,
            touched,
        });
        Ok(Self {
            rule,
            planes: planes.collect(),
            steps,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coalesce::CoalescedGradients;
    use crate::scatter::scatter_apply_coalesced;
    use crate::table::EmbeddingTable;
    use tcast_tensor::Matrix;

    /// One of each rule.
    const RULES: [UpdateRule; 5] = [
        UpdateRule::Sgd { lr: 0.1 },
        UpdateRule::Momentum { lr: 0.1, mu: 0.9 },
        UpdateRule::Adagrad { lr: 0.1, eps: 1e-8 },
        UpdateRule::RmsProp {
            lr: 0.1,
            gamma: 0.9,
            eps: 1e-8,
        },
        UpdateRule::Adam {
            lr: 0.01,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
        },
    ];

    /// Row `r`'s gradient in update pass `pass`.
    fn grad(r: u32, dim: usize, pass: usize) -> Vec<f32> {
        (0..dim)
            .map(|c| (r + c as u32) as f32 * 0.1 + pass as f32)
            .collect()
    }

    /// One row's update by its coalesced gradient, through state that
    /// ends just past it.
    fn update_row(opt: &mut RowOptimizer, row: u32, param: &mut [f32], grad: &[f32]) {
        opt.with_update(row as usize + 1, param.len(), |update| {
            update(row, param, grad)
        });
    }

    /// One update pass over `rows`, a row at a time.
    fn step(opt: &mut RowOptimizer, rows: &[u32], params: &mut [Vec<f32>], pass: usize) {
        for (param, &r) in params.iter_mut().zip(rows) {
            let grad = grad(r, param.len(), pass);
            update_row(opt, r, param, &grad);
        }
    }

    fn initial_params(rows: &[u32], dim: usize) -> Vec<Vec<f32>> {
        rows.iter().map(|&r| vec![r as f32; dim]).collect()
    }

    fn bits(params: &[Vec<f32>]) -> Vec<u32> {
        params.iter().flatten().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn sgd_moves_against_gradient() {
        let mut opt = RowOptimizer::new(UpdateRule::Sgd { lr: 0.1 });
        let mut p = vec![1.0, -1.0];
        update_row(&mut opt, 0, &mut p, &[1.0, -1.0]);
        assert_eq!(p, vec![0.9, -0.9]);
        assert_eq!(opt.tracked_rows(), 0);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn sgd_rejects_width_mismatch() {
        let mut opt = RowOptimizer::new(UpdateRule::Sgd { lr: 0.1 });
        update_row(&mut opt, 0, &mut [0.0], &[1.0, 2.0]);
    }

    #[test]
    fn momentum_accumulates_velocity() {
        let mut opt = RowOptimizer::new(UpdateRule::Momentum { lr: 1.0, mu: 0.5 });
        let mut p = vec![0.0];
        update_row(&mut opt, 0, &mut p, &[1.0]); // v=1, p=-1
        update_row(&mut opt, 0, &mut p, &[1.0]); // v=1.5, p=-2.5
        assert!((p[0] + 2.5).abs() < 1e-6);
        assert_eq!(opt.tracked_rows(), 1);
    }

    #[test]
    fn momentum_state_is_per_row() {
        let mut opt = RowOptimizer::new(UpdateRule::Momentum { lr: 1.0, mu: 0.9 });
        let mut p0 = vec![0.0];
        let mut p1 = vec![0.0];
        update_row(&mut opt, 0, &mut p0, &[1.0]);
        update_row(&mut opt, 1, &mut p1, &[1.0]);
        assert_eq!(opt.tracked_rows(), 2);
        assert_eq!(p0, p1); // fresh state each: same result
    }

    #[test]
    fn adagrad_matches_eq2_by_hand() {
        // A1 = 0 + G^2 = 4; W1 = 1 - lr*G/sqrt(eps+A1) = 1 - 0.1*2/2.
        let mut opt = RowOptimizer::new(UpdateRule::Adagrad { lr: 0.1, eps: 0.0 });
        let mut p = vec![1.0];
        update_row(&mut opt, 3, &mut p, &[2.0]);
        assert!((p[0] - 0.9).abs() < 1e-6);
        // Second step: A2 = 4 + 1 = 5; W2 = 0.9 - 0.1*1/sqrt(5).
        update_row(&mut opt, 3, &mut p, &[1.0]);
        assert!((p[0] - (0.9 - 0.1 / 5.0f32.sqrt())).abs() < 1e-6);
    }

    #[test]
    fn adagrad_shrinks_effective_lr_over_time() {
        let mut opt = RowOptimizer::new(UpdateRule::Adagrad { lr: 0.1, eps: 1e-8 });
        let mut p = vec![0.0];
        let mut deltas = Vec::new();
        for _ in 0..5 {
            let before = p[0];
            update_row(&mut opt, 0, &mut p, &[1.0]);
            deltas.push((before - p[0]).abs());
        }
        for w in deltas.windows(2) {
            assert!(w[1] < w[0], "step sizes must be decreasing: {deltas:?}");
        }
    }

    #[test]
    fn rmsprop_matches_eq1_by_hand() {
        // gamma=0.5: A1 = 0.5*0 + 0.5*G^2 = 2; W1 = -lr*G/sqrt(A1).
        let mut opt = RowOptimizer::new(UpdateRule::RmsProp {
            lr: 0.1,
            gamma: 0.5,
            eps: 0.0,
        });
        let mut p = vec![0.0];
        update_row(&mut opt, 0, &mut p, &[2.0]);
        assert!((p[0] + 0.1 * 2.0 / 2.0f32.sqrt()).abs() < 1e-6);
    }

    fn adam_with_tiny_eps() -> RowOptimizer {
        RowOptimizer::new(UpdateRule::Adam {
            lr: 0.01,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-12,
        })
    }

    #[test]
    fn adam_first_step_is_lr_sized() {
        // With bias correction, the first step is ~lr regardless of the
        // gradient magnitude (for eps -> 0).
        for g in [0.1f32, 10.0] {
            let mut opt = adam_with_tiny_eps();
            let mut p = vec![0.0];
            update_row(&mut opt, 0, &mut p, &[g]);
            assert!((p[0] + 0.01).abs() < 1e-4, "g={g}: step {}", p[0]);
        }
    }

    #[test]
    fn adam_bias_correction_is_per_row() {
        // A cold row's first update must not be shrunk by other rows'
        // step counts.
        let mut opt = adam_with_tiny_eps();
        let mut hot = vec![0.0];
        for _ in 0..10 {
            update_row(&mut opt, 0, &mut hot, &[1.0]);
        }
        let mut cold = vec![0.0];
        update_row(&mut opt, 1, &mut cold, &[1.0]);
        assert!((cold[0] + 0.01).abs() < 1e-4, "cold first step {}", cold[0]);
        assert_eq!(opt.tracked_rows(), 2);
    }

    /// The whole state, bit for bit: each plane's width, value bits and
    /// touched flags, then the step counts.
    type StateBits = (Vec<(usize, Vec<u32>, Vec<bool>)>, Option<Vec<u32>>);

    fn state_bits(opt: &RowOptimizer) -> StateBits {
        let planes = opt.planes().map(|(width, values, touched)| {
            let bits = values.iter().map(|v| v.to_bits()).collect();
            (width, bits, touched.to_vec())
        });
        (planes.collect(), opt.step_counts().map(<[u32]>::to_vec))
    }

    /// A fresh optimizer over `opt`'s state, through the checked
    /// constructor, for a table of `rows` x `dim`.
    fn rebuilt(opt: &RowOptimizer, rows: usize, dim: usize) -> Result<RowOptimizer, String> {
        let planes = opt
            .planes()
            .map(|(w, values, touched)| (w, values.to_vec(), touched.to_vec()));
        let steps = opt.step_counts().map(<[u32]>::to_vec);
        RowOptimizer::from_state(opt.rule, rows, dim, planes.collect(), steps)
    }

    /// `opt`'s state, owned, as [`RowOptimizer::from_state`] takes it.
    type OwnedState = (Vec<(usize, Vec<f32>, Vec<bool>)>, Option<Vec<u32>>);

    /// The whole of `opt`'s state rebuilds bit for bit; every cut of one of
    /// its slices (a plane's values or touched flags, the step counts), one
    /// element past each, one plane more and step counts on a rule that
    /// keeps none are refused — never accepted, never a panic.
    fn assert_truncated_and_trailing_state_refused(opt: &RowOptimizer, rows: usize, dim: usize) {
        let owned = || -> OwnedState {
            let planes = opt.planes();
            let planes = planes.map(|(w, values, touched)| (w, values.to_vec(), touched.to_vec()));
            (planes.collect(), opt.step_counts().map(<[u32]>::to_vec))
        };
        let refused = |(planes, steps): OwnedState| {
            RowOptimizer::from_state(opt.rule, rows, dim, planes, steps).is_err()
        };
        let name = opt.rule.name();
        assert_eq!(
            state_bits(&rebuilt(opt, rows, dim).unwrap()),
            state_bits(opt)
        );
        for p in 0..opt.rule.planes() {
            let (_, values, touched) = owned().0.swap_remove(p);
            for cut in 0..values.len() {
                let mut state = owned();
                state.0[p].1.truncate(cut);
                assert!(
                    refused(state),
                    "{name}: plane {p} values cut at {cut} accepted"
                );
            }
            for cut in 0..touched.len() {
                let mut state = owned();
                state.0[p].2.truncate(cut);
                assert!(
                    refused(state),
                    "{name}: plane {p} rows cut at {cut} accepted"
                );
            }
            let mut state = owned();
            state.0[p].1.push(0.0);
            assert!(
                refused(state),
                "{name}: trailing value on plane {p} accepted"
            );
            let mut state = owned();
            state.0[p].2.push(false);
            assert!(refused(state), "{name}: trailing row on plane {p} accepted");
        }
        let mut state = owned();
        match state.1.as_mut() {
            Some(steps) => {
                for cut in 0..steps.len() {
                    let mut state = owned();
                    state.1.as_mut().unwrap().truncate(cut);
                    assert!(refused(state), "{name}: step counts cut at {cut} accepted");
                }
                steps.push(1);
            }
            None => state.1 = Some(Vec::new()),
        }
        assert!(refused(state), "{name}: trailing step counts accepted");
        let mut state = owned();
        state.0.push((0, Vec::new(), Vec::new()));
        assert!(refused(state), "{name}: trailing plane accepted");
    }

    /// The state one row's update leaves, and the state a production
    /// scatter of two rows leaves, each cut and padded every way.
    #[test]
    fn load_state_rejects_truncation_and_trailing_garbage() {
        for rule in RULES {
            let mut opt = RowOptimizer::new(rule);
            let mut p = vec![0.0, 0.0];
            update_row(&mut opt, 5, &mut p, &[1.0, 2.0]);
            assert_truncated_and_trailing_state_refused(&opt, 20, 2);
            let mut scattered = RowOptimizer::new(rule);
            scatter_step(&mut scattered, &[5, 13], &mut initial_table(20, 2), 0);
            assert_truncated_and_trailing_state_refused(&scattered, 20, 2);
        }
    }

    #[test]
    fn saved_state_resumes_bit_identically() {
        // Save mid-trajectory, load into a fresh optimizer, continue both:
        // the continued updates must match bit-for-bit (the checkpoint
        // resume invariant at the optimizer layer).
        let rows: Vec<u32> = vec![0, 3, 9, 17];
        for rule in RULES {
            let mut original = RowOptimizer::new(rule);
            let mut params_a = initial_params(&rows, 3);
            step(&mut original, &rows, &mut params_a, 0);
            let mut restored = rebuilt(&original, 18, 3).expect("valid state rebuilds");
            let mut params_b = params_a.clone();
            step(&mut original, &rows, &mut params_a, 1);
            step(&mut restored, &rows, &mut params_b, 1);
            assert_eq!(
                bits(&params_a),
                bits(&params_b),
                "{} diverged after restore",
                rule.name()
            );
        }
    }

    /// The constructor refuses state that disagrees with its rule or its
    /// table, each case with its own message.
    #[test]
    fn from_state_rejects_state_that_disagrees_with_rule_or_table() {
        let adam = RULES[4];
        let plane = |width: usize, rows: usize| (width, vec![0.5; width * rows], vec![true; rows]);
        let build = |planes, steps| RowOptimizer::from_state(adam, 10, 4, planes, steps);
        let ok = build(vec![plane(4, 6), plane(4, 6)], Some(vec![1; 6]));
        assert_eq!(ok.unwrap().tracked_rows(), 6);
        // A plane that never grew may say width 0.
        assert!(build(vec![plane(0, 0), plane(4, 0)], Some(vec![])).is_ok());
        let cases = [
            (
                vec![plane(4, 6)],
                Some(vec![1; 6]),
                "1 state planes, adam keeps 2",
            ),
            (
                vec![plane(8, 6), plane(8, 6)],
                Some(vec![1; 6]),
                "48 values for 6 rows of width 8",
            ),
            (
                vec![plane(0, 6), plane(4, 6)],
                Some(vec![1; 6]),
                "0 values for 6 rows of width 0",
            ),
            (
                vec![plane(4, 11), plane(4, 11)],
                Some(vec![1; 11]),
                "11 state rows, the table 10",
            ),
            (
                vec![plane(4, 6), plane(4, 5)],
                Some(vec![1; 6]),
                "plane 1 has 5 rows",
            ),
            (
                vec![plane(4, 6), plane(4, 6)],
                Some(vec![1; 5]),
                "5 step counts for 6",
            ),
            (
                vec![plane(4, 6), plane(4, 6)],
                None,
                "adam keeps step counts",
            ),
        ];
        for (planes, steps, want) in cases {
            let err = build(planes, steps).unwrap_err();
            assert!(err.contains(want), "{err:?} does not say {want:?}");
        }
        let mut short = plane(4, 6);
        short.1.pop();
        let err = build(vec![short, plane(4, 6)], Some(vec![1; 6])).unwrap_err();
        assert!(err.contains("23 values for 6 rows of width 4"), "{err}");
        let err = RowOptimizer::from_state(RULES[2], 10, 4, vec![plane(4, 6)], Some(vec![1; 6]));
        assert!(err.unwrap_err().contains("adagrad keeps no step counts"));
    }

    #[test]
    fn row_state_grows_exactly_and_preserves_rows() {
        let mut s = RowState::default();
        s.band(1, 2).row_mut(0).copy_from_slice(&[1.0, 2.0]);
        s.band(101, 2).row_mut(100).copy_from_slice(&[3.0, 4.0]);
        assert_eq!(s.rows(), 101);
        // A shorter band neither shrinks the slab nor moves a row.
        assert_eq!(s.band(50, 2).row_mut(0), &[1.0, 2.0]);
        assert_eq!(s.rows(), 101);
        assert_eq!(s.band(101, 2).row_mut(100), &[3.0, 4.0]);
        assert_eq!(s.tracked_rows(), 2);
    }

    /// A table whose row `r` starts as `initial_params` has it.
    fn initial_table(rows: usize, dim: usize) -> EmbeddingTable {
        let data = (0..rows).flat_map(|r| vec![r as f32; dim]).collect();
        EmbeddingTable::from_vec(rows, dim, data).unwrap()
    }

    /// `step`'s update pass over `rows`, through the production scatter.
    fn scatter_step(opt: &mut RowOptimizer, rows: &[u32], table: &mut EmbeddingTable, pass: usize) {
        let dim = table.dim();
        let grads = rows.iter().flat_map(|&r| grad(r, dim, pass)).collect();
        let grads = Matrix::from_vec(rows.len(), dim, grads).unwrap();
        let part = CoalescedGradients::new(rows.to_vec(), grads).unwrap();
        scatter_apply_coalesced(table, opt, &part).unwrap();
    }

    fn touched_bits(table: &EmbeddingTable, rows: &[u32]) -> Vec<u32> {
        rows.iter()
            .flat_map(|&r| table.row(r as usize))
            .map(|v| v.to_bits())
            .collect()
    }

    /// Three passes of the production scatter must match plain row-by-row
    /// updates bit for bit, for every rule: the table rows, and the state,
    /// which every scatter grows just past the last row it updates, as the
    /// one-row updates do.
    #[test]
    fn scatter_matches_row_by_row_updates() {
        let rows: Vec<u32> = vec![0, 3, 11, 12, 17, 22, 23, 33];
        for rule in RULES {
            let mut row_by_row = RowOptimizer::new(rule);
            let mut params = initial_params(&rows, 3);
            let mut scattered = RowOptimizer::new(rule);
            let mut table = initial_table(34, 3);
            for pass in 0..3 {
                step(&mut row_by_row, &rows, &mut params, pass);
                scatter_step(&mut scattered, &rows, &mut table, pass);
                let what = format!("{} after pass {pass}", rule.name());
                assert_eq!(bits(&params), touched_bits(&table, &rows), "{what}");
                assert_eq!(state_bits(&row_by_row), state_bits(&scattered), "{what}");
            }
        }
    }
}
