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
//!   name, its state traffic and which `simd::*_row` kernel it runs. The
//!   kernel is chosen once a scatter task (`with_update`), not once a row.
//! * [`RowOptimizer`] is the state: one [`RowState`] slab per plane plus
//!   the per-row step counts, touching only rows that actually receive
//!   gradients — the sparse update pattern of embedding training. Growth,
//!   splitting and the checkpoint format are written over planes and step
//!   counts, never per rule.
//!
//! # Splittable state
//!
//! Coalescing has a second payoff the paper's Section IV-C datapath
//! argument relies on: after coalescing, every table row appears **at most
//! once** per scatter, so the update of disjoint row ranges is
//! embarrassingly parallel — *if* the state store can hand out disjoint
//! mutable views. A `HashMap<u32, Vec<f32>>` cannot (concurrent inserts
//! rehash), so state lives in a dense, lazily-grown [`RowState`] slab:
//! `width`-strided and contiguous, splittable at arbitrary row boundaries
//! with `split_at_mut`. [`RowOptimizer::split_by_rows`] hands out the
//! resulting [`RowOptimizerBand`]s, and [`crate::scatter_apply_coalesced`]
//! runs one pool task on each. That row-disjointness is a property of the
//! state store, not of any rule, which is why it is stated once.

use crate::simd;

/// Little-endian cursor over checkpoint bytes; every read is
/// bounds-checked so truncated state surfaces as an `Err`, never a panic.
struct StateReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> StateReader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| {
                format!(
                    "optimizer state truncated: need {n} bytes at offset {}, have {}",
                    self.pos,
                    self.bytes.len() - self.pos
                )
            })?;
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u64(&mut self) -> Result<u64, String> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// The serialized per-row step counts: a length, then that many `u32`s
    /// (returned as their bytes).
    fn step_counts(&mut self) -> Result<&'a [u8], String> {
        let len = self.u64()? as usize;
        self.take(
            len.checked_mul(4)
                .ok_or_else(|| "optimizer step-count length overflows".to_string())?,
        )
    }

    fn finish(self) -> Result<(), String> {
        if self.pos != self.bytes.len() {
            return Err(format!(
                "optimizer state has {} trailing bytes",
                self.bytes.len() - self.pos
            ));
        }
        Ok(())
    }
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn f32s(raw: &[u8]) -> impl Iterator<Item = f32> + '_ {
    raw.chunks_exact(4)
        .map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes")))
}

fn u32s(raw: &[u8]) -> impl Iterator<Item = u32> + '_ {
    raw.chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes")))
}

/// Appends `vals` as little-endian bytes: one reservation, then a stack
/// buffer at a time, which the compiler fills with wide stores.
fn put_le<const N: usize, T: Copy>(out: &mut Vec<u8>, vals: &[T], le: impl Fn(T) -> [u8; N]) {
    const CHUNK: usize = 1024;
    out.reserve(vals.len() * N);
    let mut buf = [[0u8; N]; CHUNK];
    for chunk in vals.chunks(CHUNK) {
        for (bytes, &v) in buf.iter_mut().zip(chunk) {
            *bytes = le(v);
        }
        out.extend_from_slice(buf[..chunk.len()].as_flattened());
    }
}

impl RowState {
    /// Appends `width`, row count, the full slab and the touched bitmap.
    fn save_into(&self, out: &mut Vec<u8>) {
        put_u64(out, self.width as u64);
        put_u64(out, self.rows() as u64);
        put_le(out, &self.data, f32::to_le_bytes);
        out.extend(self.touched.iter().map(|&t| t as u8));
    }

    /// Reads back what [`RowState::save_into`] wrote, the touched flags
    /// checked to be 0 or 1.
    fn load_from(&mut self, r: &mut StateReader<'_>) -> Result<(), String> {
        let width = r.u64()? as usize;
        let rows = r.u64()? as usize;
        let slab_bytes = rows
            .checked_mul(width)
            .and_then(|e| e.checked_mul(4))
            .ok_or_else(|| "optimizer state slab size overflows".to_string())?;
        let slab = r.take(slab_bytes)?;
        let touched = r.take(rows)?;
        if let Some(&bad) = touched.iter().find(|&&b| b > 1) {
            return Err(format!("optimizer touched flag has invalid value {bad}"));
        }
        *self = RowState {
            width,
            data: f32s(slab).collect(),
            touched: touched.iter().map(|&b| b == 1).collect(),
        };
        Ok(())
    }
}

/// The length a lazily-grown per-row array of `len` entries grows to when
/// `row` lies beyond it: at least doubled, so growth is amortized O(1) and
/// stops once the live rows are covered.
fn grown_len(len: usize, row: u32) -> usize {
    (row as usize + 1).max(len * 2)
}

/// The state rows of one table row: `row_of` each plane, the unused slots
/// empty.
fn state_rows<'s, P>(
    planes: &'s mut [P],
    mut row_of: impl FnMut(&'s mut P) -> &'s mut [f32],
) -> [&'s mut [f32]; 2] {
    match planes {
        [] => [&mut [], &mut []],
        [a] => [row_of(a), &mut []],
        [a, b] => [row_of(a), row_of(b)],
        _ => unreachable!("a rule keeps at most two planes"),
    }
}

/// Dense, lazily-grown per-row optimizer state: `width` `f32` slots per
/// row in one contiguous slab, plus a touched bitmap for reporting.
///
/// Growth is geometric, so serial lazy growth (a new hottest row) is
/// amortized O(1) and stops entirely once the live row set is covered —
/// preserving the workspace's zero-allocation steady state. The slab
/// splits into disjoint row bands (`split_at_mut`) for the parallel
/// scatter.
#[derive(Debug, Clone, Default)]
pub struct RowState {
    width: usize,
    data: Vec<f32>,
    touched: Vec<bool>,
}

/// One row band of a [`RowState`].
#[derive(Debug)]
struct RowStateBand<'a> {
    base: u32,
    width: usize,
    data: &'a mut [f32],
    touched: &'a mut [bool],
}

impl RowState {
    fn set_width(&mut self, width: usize) {
        if self.width == 0 {
            self.width = width;
        }
        assert_eq!(self.width, width, "optimizer state width changed");
    }

    /// Rows currently backed by the slab.
    fn rows(&self) -> usize {
        self.touched.len()
    }

    /// Grows to cover `rows` rows (never shrinks). Out of line: a scatter
    /// gets here a handful of times in a run, from a loop that must stay
    /// small.
    #[cold]
    #[inline(never)]
    fn grow_to(&mut self, rows: usize) {
        if rows > self.rows() {
            self.data.resize(rows * self.width, 0.0);
            self.touched.resize(rows, false);
        }
    }

    /// Mutable state of `row` (zeros on first touch), marking it live.
    /// Grows geometrically, so `row` is addressable without allocation on
    /// subsequent touches.
    fn row_mut(&mut self, row: u32) -> &mut [f32] {
        if row as usize >= self.rows() {
            self.grow_to(grown_len(self.rows(), row));
        }
        self.touched[row as usize] = true;
        let w = self.width;
        &mut self.data[row as usize * w..(row as usize + 1) * w]
    }

    /// Number of rows that ever received an update.
    fn tracked_rows(&self) -> usize {
        self.touched.iter().filter(|&&t| t).count()
    }

    /// The slab from row `first` on as one band, the slab grown to `end`
    /// rows — exactly: the scatter knows the last row it will touch.
    fn tail(&mut self, first: usize, end: usize, width: usize) -> RowStateBand<'_> {
        self.set_width(width);
        self.grow_to(end);
        RowStateBand {
            base: first as u32,
            width,
            data: &mut self.data[first * width..],
            touched: &mut self.touched[first..],
        }
    }
}

impl<'a> RowStateBand<'a> {
    /// Cuts the band's first `rows` rows off as a band of their own.
    fn split_off_front(&mut self, rows: usize) -> RowStateBand<'a> {
        let within = "a fence inside the band";
        let front = RowStateBand {
            base: self.base,
            width: self.width,
            data: self.data.split_off_mut(..rows * self.width).expect(within),
            touched: self.touched.split_off_mut(..rows).expect(within),
        };
        self.base += rows as u32;
        front
    }

    /// Mutable state of `row` (which must lie in this band), marking it
    /// live.
    fn row_mut(&mut self, row: u32) -> &mut [f32] {
        let local = (row - self.base) as usize;
        self.touched[local] = true;
        &mut self.data[local * self.width..(local + 1) * self.width]
    }
}

/// The per-row update function: which optimizer, with its hyperparameters.
///
/// A rule is a value, not a type: a [`RowOptimizer`] carries one next to
/// its state, and every band of a table runs the same one.
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

    /// Bytes of optimizer state read+written per updated element, used by
    /// the analytic traffic model: each plane is one `f32` read and one
    /// written.
    pub fn state_bytes_per_element(self) -> usize {
        8 * self.planes()
    }

    /// Runs `task` with this rule's one-row update over `state`. The rule
    /// is matched here, once a task, and each arm's update holds only its
    /// own kernel, so a row of the scatter loop costs one indirect call
    /// into a function as small as a dedicated optimizer type's would be.
    fn with_update<S: RowStates, R>(
        self,
        state: &mut S,
        task: impl FnOnce(&mut RowUpdate<'_>) -> R,
    ) -> R {
        let kernel = simd::dispatch();
        match self {
            UpdateRule::Sgd { lr } => run(task, |_, param, grad| {
                simd::sgd_row(kernel, lr, param, grad);
            }),
            UpdateRule::Momentum { lr, mu } => run(task, |row, param, grad| {
                let [v, _] = state.planes_at(row, param.len());
                simd::momentum_row(kernel, lr, mu, v, param, grad);
            }),
            UpdateRule::Adagrad { lr, eps } => run(task, |row, param, grad| {
                let [a, _] = state.planes_at(row, param.len());
                simd::adagrad_row(kernel, lr, eps, a, param, grad);
            }),
            UpdateRule::RmsProp { lr, gamma, eps } => run(task, |row, param, grad| {
                let [a, _] = state.planes_at(row, param.len());
                simd::rmsprop_row(kernel, lr, gamma, eps, a, param, grad);
            }),
            UpdateRule::Adam {
                lr,
                beta1,
                beta2,
                eps,
            } => run(task, |row, param, grad| {
                let t = state.step_at(row);
                *t += 1;
                let adam = simd::AdamRow {
                    lr,
                    beta1,
                    beta2,
                    eps,
                    bc1: 1.0 - beta1.powi(*t as i32),
                    bc2: 1.0 - beta2.powi(*t as i32),
                };
                let [m, v] = state.planes_at(row, param.len());
                simd::adam_row(kernel, adam, m, v, param, grad);
            }),
        }
    }
}

/// The update of one row by its coalesced gradient, as a scatter task
/// holds it: `(row, param, grad)`.
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

/// Where a rule's update finds the state of one row: in an optimizer's
/// own slabs, grown to the row on demand ([`RowOptimizer`]), or in one
/// pre-grown band of them ([`RowOptimizerBand`]).
trait RowStates {
    /// The row's slice of each state plane, the unused slots empty.
    fn planes_at(&mut self, row: u32, dim: usize) -> [&mut [f32]; 2];
    /// The row's step count, for a rule that keeps one.
    fn step_at(&mut self, row: u32) -> &mut u32;
}

/// An [`UpdateRule`] and the per-row state it has built up: one
/// [`RowState`] slab per plane of the rule, plus per-row step counts when
/// the rule keeps them.
///
/// Rows are keyed by table row id; state grows lazily (geometrically) to
/// the highest row updated.
#[derive(Debug, Clone)]
pub struct RowOptimizer {
    rule: UpdateRule,
    planes: Vec<RowState>,
    steps: Vec<u32>,
}

/// The state of one row band of a [`RowOptimizer`], produced by
/// [`RowOptimizer::split_by_rows`] — one task of the pooled scatter.
///
/// A band updates rows exactly as its optimizer's
/// [`RowOptimizer::with_update`] would (same operations, same order per
/// row), which is what makes the band-parallel scatter bit-identical to
/// the serial one.
#[derive(Debug)]
pub struct RowOptimizerBand<'a> {
    rule: UpdateRule,
    base: u32,
    planes: Vec<RowStateBand<'a>>,
    steps: &'a mut [u32],
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

    /// Splits the state at the row `fence` (ascending,
    /// `fence.len() >= 2`): band `i` owns rows `[fence[i], fence[i+1])`,
    /// and state outside the fence is not handed out. `dim` is the
    /// embedding width of the rows about to be updated; state is pre-grown
    /// to cover `fence.last()` rows here, on the calling thread, so band
    /// updates never grow (and never allocate).
    ///
    /// # Panics
    ///
    /// Panics if the fence is not ascending, has fewer than two entries,
    /// or `dim` conflicts with the width of already-live state.
    pub fn split_by_rows(&mut self, fence: &[u32], dim: usize) -> Vec<RowOptimizerBand<'_>> {
        assert!(fence.len() >= 2, "state fence needs >= 2 entries");
        assert!(
            fence.windows(2).all(|w| w[0] <= w[1]),
            "state fence must be ascending"
        );
        let rule = self.rule;
        let (first, end) = (fence[0] as usize, fence[fence.len() - 1] as usize);
        if rule.counts_steps() && end > self.steps.len() {
            self.steps.resize(end, 0);
        }
        // Empty for a rule that counts no steps: every band then gets none.
        let mut steps = self.steps.get_mut(first..).unwrap_or_default();
        let mut tails: Vec<_> = self
            .planes
            .iter_mut()
            .map(|plane| plane.tail(first, end, dim))
            .collect();
        fence
            .windows(2)
            .map(|pair| {
                let rows = (pair[1] - pair[0]) as usize;
                RowOptimizerBand {
                    rule,
                    base: pair[0],
                    planes: tails
                        .iter_mut()
                        .map(|tail| tail.split_off_front(rows))
                        .collect(),
                    steps: steps
                        .split_off_mut(..rows.min(steps.len()))
                        .unwrap_or_default(),
                }
            })
            .collect()
    }

    /// Appends the *mutable* per-row state (slabs, step counts — not the
    /// rule) to `out`, for checkpointing. The full slab is captured,
    /// including allocated-but-untouched rows, so a restore reproduces the
    /// exact allocation state and subsequent growth behaves identically
    /// to the uninterrupted run. A stateless rule writes nothing.
    pub fn save_state(&self, out: &mut Vec<u8>) {
        for plane in &self.planes {
            plane.save_into(out);
        }
        if self.rule.counts_steps() {
            put_u64(out, self.steps.len() as u64);
            put_le(out, &self.steps, u32::to_le_bytes);
        }
    }

    /// Restores state written by [`RowOptimizer::save_state`] into this
    /// optimizer (which must run the same rule).
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency if `bytes` is
    /// truncated, malformed, or has trailing garbage; the optimizer's
    /// state is unspecified after an error.
    pub fn load_state(&mut self, bytes: &[u8]) -> Result<(), String> {
        let mut r = StateReader::new(bytes);
        for plane in &mut self.planes {
            plane.load_from(&mut r)?;
        }
        if self.rule.counts_steps() {
            self.steps = u32s(r.step_counts()?).collect();
        }
        r.finish()
    }
}

impl RowOptimizer {
    /// Runs `task` — one scatter task, or any run of updates — with this
    /// optimizer's one-row update.
    pub fn with_update<R>(&mut self, task: impl FnOnce(&mut RowUpdate<'_>) -> R) -> R {
        self.rule.with_update(self, task)
    }
}

impl RowStates for RowOptimizer {
    fn planes_at(&mut self, row: u32, dim: usize) -> [&mut [f32]; 2] {
        state_rows(&mut self.planes, |plane| {
            plane.set_width(dim);
            plane.row_mut(row)
        })
    }

    fn step_at(&mut self, row: u32) -> &mut u32 {
        if row as usize >= self.steps.len() {
            grow_steps(&mut self.steps, row);
        }
        &mut self.steps[row as usize]
    }
}

/// Grows per-row step counts (geometrically) to hold `row`; out of line
/// for the reason [`RowState::grow_to`] is.
#[cold]
#[inline(never)]
fn grow_steps(steps: &mut Vec<u32>, row: u32) {
    steps.resize(grown_len(steps.len(), row), 0);
}

impl RowOptimizerBand<'_> {
    /// Runs `task` with this band's one-row update; every row it is
    /// called with must lie in the band.
    pub fn with_update<R>(&mut self, task: impl FnOnce(&mut RowUpdate<'_>) -> R) -> R {
        self.rule.with_update(self, task)
    }
}

impl RowStates for RowOptimizerBand<'_> {
    fn planes_at(&mut self, row: u32, _dim: usize) -> [&mut [f32]; 2] {
        state_rows(&mut self.planes, |plane| plane.row_mut(row))
    }

    fn step_at(&mut self, row: u32) -> &mut u32 {
        &mut self.steps[(row - self.base) as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coalesce::CoalescedScratch;
    use crate::scatter::scatter_apply_coalesced;
    use crate::table::EmbeddingTable;
    use tcast_pool::{Exec, Pool};
    use tcast_tensor::{Matrix, SplitMix64};

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

    /// One row's update by its coalesced gradient.
    fn update_row(opt: &mut RowOptimizer, row: u32, param: &mut [f32], grad: &[f32]) {
        opt.with_update(|update| update(row, param, grad));
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

    #[test]
    fn stateful_optimizers_report_state_traffic() {
        let traffic = RULES.map(|rule| (rule.name(), rule.state_bytes_per_element()));
        assert_eq!(
            traffic,
            [
                ("sgd", 0),
                ("momentum", 8),
                ("adagrad", 8),
                ("rmsprop", 8),
                ("adam", 16)
            ]
        );
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

    /// Band updates must be bit-identical to whole-optimizer updates.
    #[test]
    fn bands_match_serial_updates_exactly() {
        let rows: Vec<u32> = vec![0, 3, 4, 9, 17];
        let dim = 3;
        // Fences that cut the row set unevenly.
        let fence = [0u32, 4, 10, 32];
        for rule in RULES {
            let mut serial = RowOptimizer::new(rule);
            let mut split = RowOptimizer::new(rule);
            let mut params_a = initial_params(&rows, dim);
            let mut params_b = params_a.clone();
            // Two passes so stateful rules exercise non-zero state.
            for pass in 0..2 {
                step(&mut serial, &rows, &mut params_a, pass);
                let mut bands = split.split_by_rows(&fence, dim);
                for (i, &r) in rows.iter().enumerate() {
                    let band = fence[1..].iter().position(|&f| r < f).unwrap();
                    let grad = grad(r, dim, pass);
                    bands[band].with_update(|update| update(r, &mut params_b[i], &grad));
                }
            }
            assert_eq!(bits(&params_a), bits(&params_b), "{} diverged", rule.name());
            assert_eq!(serial.tracked_rows(), split.tracked_rows());
        }
    }

    #[test]
    fn every_rule_rejects_a_malformed_fence_with_the_fence_message() {
        let malformed: [(&[u32], &str); 3] = [
            (&[], "state fence needs >= 2 entries"),
            (&[3], "state fence needs >= 2 entries"),
            (&[4, 0], "state fence must be ascending"),
        ];
        for rule in RULES {
            for (fence, expected) in malformed {
                let mut opt = RowOptimizer::new(rule);
                let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    opt.split_by_rows(fence, 2);
                }))
                .expect_err("a malformed fence must panic");
                let message = panic
                    .downcast_ref::<&str>()
                    .map(|m| m.to_string())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_default();
                assert!(
                    message.contains(expected),
                    "{} on fence {fence:?}: panicked with {message:?}",
                    rule.name()
                );
            }
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
            let mut saved = Vec::new();
            original.save_state(&mut saved);
            let mut restored = RowOptimizer::new(rule);
            restored.load_state(&saved).expect("valid state loads");
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

    #[test]
    fn load_state_rejects_truncation_and_trailing_garbage() {
        for rule in RULES {
            let mut opt = RowOptimizer::new(rule);
            let mut p = vec![0.0, 0.0];
            update_row(&mut opt, 5, &mut p, &[1.0, 2.0]);
            let mut saved = Vec::new();
            opt.save_state(&mut saved);
            // Every truncation point is a clean error, never a panic.
            for cut in 0..saved.len() {
                assert!(
                    RowOptimizer::new(rule).load_state(&saved[..cut]).is_err(),
                    "{}: truncation at byte {cut} accepted",
                    rule.name()
                );
            }
            saved.push(0);
            let err = RowOptimizer::new(rule).load_state(&saved).unwrap_err();
            assert!(err.contains("trailing"), "unexpected error: {err}");
        }
    }

    #[test]
    fn row_state_growth_is_geometric_and_preserving() {
        let mut s = RowState::default();
        s.set_width(2);
        s.row_mut(0).copy_from_slice(&[1.0, 2.0]);
        s.row_mut(100).copy_from_slice(&[3.0, 4.0]);
        assert!(s.rows() >= 101);
        assert_eq!(s.row_mut(0), &[1.0, 2.0]);
        assert_eq!(s.row_mut(100), &[3.0, 4.0]);
        assert_eq!(s.tracked_rows(), 2);
    }

    /// A table whose row `r` starts as `initial_params` has it.
    fn initial_table(rows: usize, dim: usize) -> EmbeddingTable {
        let data = (0..rows).flat_map(|r| vec![r as f32; dim]).collect();
        EmbeddingTable::from_vec(rows, dim, data).unwrap()
    }

    /// The serial scatter and pooled ones cut into 1, 2, 3 and 7 bands.
    fn execs(pool: &Pool) -> impl Iterator<Item = Exec<'_>> + Clone {
        let pooled = [1usize, 2, 3, 7].map(|threads| Exec::Pooled { pool, threads });
        [Exec::Serial].into_iter().chain(pooled)
    }

    /// `step`'s update pass over `rows`, through the production scatter.
    fn scatter_step(
        opt: &mut RowOptimizer,
        exec: Exec<'_>,
        rows: &[u32],
        table: &mut EmbeddingTable,
        pass: usize,
    ) {
        let dim = table.dim();
        let mut part = CoalescedScratch::default();
        part.rows.extend_from_slice(rows);
        let grads = rows.iter().flat_map(|&r| grad(r, dim, pass)).collect();
        part.grads = Matrix::from_vec(rows.len(), dim, grads).unwrap();
        scatter_apply_coalesced(table, opt, &part, exec).unwrap();
    }

    fn touched_bits(table: &EmbeddingTable, rows: &[u32]) -> Vec<u32> {
        rows.iter()
            .flat_map(|&r| table.row(r as usize))
            .map(|v| v.to_bits())
            .collect()
    }

    /// The one optimizer, split into the bands of the production scatter,
    /// must match plain row-by-row updates bit-for-bit, for every rule and
    /// band count.
    #[test]
    fn banded_optimizer_matches_global_updates() {
        let rows: Vec<u32> = vec![0, 3, 11, 12, 17, 22, 23, 33];
        let pool = Pool::new(3);
        for rule in RULES {
            let mut global = RowOptimizer::new(rule);
            let mut params = initial_params(&rows, 3);
            for pass in 0..3 {
                step(&mut global, &rows, &mut params, pass);
            }
            for exec in execs(&pool) {
                let mut banded = RowOptimizer::new(rule);
                let mut table = initial_table(34, 3);
                for pass in 0..3 {
                    scatter_step(&mut banded, exec, &rows, &mut table, pass);
                }
                assert_eq!(
                    bits(&params),
                    touched_bits(&table, &rows),
                    "{} diverged under {exec:?}",
                    rule.name()
                );
                assert_eq!(banded.tracked_rows(), global.tracked_rows());
            }
        }
    }

    /// Save after scatters cut into N bands, restore and scatter in M
    /// (either may be the serial scatter), continue: the continued
    /// trajectory must be bit-identical. The blob depends only on whether
    /// the scatters were cut: an uncut one grows state as plain row-by-row
    /// updates do, a cut one to just past the last touched row.
    #[test]
    fn state_is_portable_across_band_counts() {
        let rows_total = 23usize;
        let rows: Vec<u32> = vec![0, 6, 7, 11, 12, 21, 22];
        let pool = Pool::new(3);
        for rule in RULES {
            // Reference trajectory on plain row-by-row updates.
            let mut global = RowOptimizer::new(rule);
            let mut params = initial_params(&rows, 2);
            let mut global_blob = Vec::new();
            for pass in 0..3 {
                if pass == 2 {
                    global.save_state(&mut global_blob);
                }
                step(&mut global, &rows, &mut params, pass);
            }
            let mut cut_blobs = Vec::new();
            for at_n in execs(&pool) {
                let mut opt_n = RowOptimizer::new(rule);
                let mut table_n = initial_table(rows_total, 2);
                for pass in 0..2 {
                    scatter_step(&mut opt_n, at_n, &rows, &mut table_n, pass);
                }
                let mut blob = Vec::new();
                opt_n.save_state(&mut blob);
                for at_m in execs(&pool) {
                    let mut opt_m = RowOptimizer::new(rule);
                    opt_m.load_state(&blob).expect("saved state loads");
                    let mut table_m = table_n.clone();
                    scatter_step(&mut opt_m, at_m, &rows, &mut table_m, 2);
                    assert_eq!(
                        bits(&params),
                        touched_bits(&table_m, &rows),
                        "{}: {at_n:?} -> {at_m:?} restore diverged",
                        rule.name()
                    );
                }
                if at_n.threads() > 1 {
                    cut_blobs.push(blob);
                } else {
                    assert_eq!(blob, global_blob, "{} under {at_n:?}", rule.name());
                }
            }
            assert!(
                cut_blobs.windows(2).all(|w| w[0] == w[1]),
                "{}: the state bytes depend on the band count",
                rule.name()
            );
        }
    }

    #[test]
    fn banded_load_rejects_truncation_and_trailing_garbage() {
        let pool = Pool::new(2);
        for rule in RULES {
            let mut banded = RowOptimizer::new(rule);
            let mut table = initial_table(20, 2);
            scatter_step(&mut banded, Exec::pooled(&pool), &[5, 13], &mut table, 0);
            let mut saved = Vec::new();
            banded.save_state(&mut saved);
            for cut in 0..saved.len() {
                assert!(
                    RowOptimizer::new(rule).load_state(&saved[..cut]).is_err(),
                    "{}: truncation at byte {cut} accepted",
                    rule.name()
                );
            }
            saved.push(0);
            let err = RowOptimizer::new(rule).load_state(&saved).unwrap_err();
            assert!(err.contains("trailing"), "unexpected error: {err}");
        }
    }

    /// FNV-1a, as a checksum of a state blob.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// Six seeded scatters into a 97 x 5 table through a fresh optimizer,
    /// then the checksum of the state it saves.
    fn optm_checksum(rule: UpdateRule, exec: Exec<'_>) -> u64 {
        let (rows, dim) = (97usize, 5usize);
        let mut opt = RowOptimizer::new(rule);
        let mut table = EmbeddingTable::seeded(rows, dim, 11);
        let mut rng = SplitMix64::new(0x0097_4d5f);
        for _ in 0..6 {
            let mut part = CoalescedScratch::default();
            part.rows
                .extend((0..rows as u32).filter(|_| rng.next_below(3) == 0));
            let n = part.rows.len();
            let grads = (0..n * dim).map(|_| rng.next_range(-1.0, 1.0)).collect();
            part.grads = Matrix::from_vec(n, dim, grads).unwrap();
            scatter_apply_coalesced(&mut table, &mut opt, &part, exec).unwrap();
        }
        let mut blob = Vec::new();
        opt.save_state(&mut blob);
        fnv1a(&blob)
    }

    /// The `OPTM` checkpoint payload of every rule, byte for byte, as the
    /// commit before the optimizers became one type wrote it: after a
    /// serial scatter sequence and a 3-band pooled one. Saving and loading
    /// with one build cannot notice a format change; these constants can.
    #[test]
    fn optm_state_bytes_are_stable() {
        const PINNED: [[u64; 2]; 5] = [
            [0xcbf29ce484222325, 0xcbf29ce484222325],
            [0x17cb6d34f6b38502, 0xa81b09b42e6d37b1],
            [0xf0b83b94f31d2f46, 0x11646e9eadb28a65],
            [0x1fbe7dd210508682, 0x8bae82fd71926445],
            [0x2f889d2cc02fef25, 0x8ba202cf63b42c12],
        ];
        let pool = Pool::new(3);
        for (rule, pinned) in RULES.into_iter().zip(PINNED) {
            for (exec, pinned) in [Exec::Serial, Exec::pooled(&pool)].into_iter().zip(pinned) {
                assert_eq!(
                    optm_checksum(rule, exec),
                    pinned,
                    "{} state bytes moved under {exec:?}",
                    rule.name()
                );
            }
        }
    }
}
