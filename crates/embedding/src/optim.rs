//! Sparse optimizers for embedding rows.
//!
//! Section II-B of the paper explains *why* gradient coalescing exists at
//! all: optimizers like RMSprop (Eq. 1) and Adagrad (Eq. 2) need the
//! (potentially multiple) gradients of a parameter accumulated into a
//! single value `G_i` before the update, because their state update is a
//! nonlinear function of `G_i`. These implementations keep per-row state
//! touching only rows that actually receive gradients — the sparse
//! update pattern of embedding training.
//!
//! # Splittable state
//!
//! Coalescing has a second payoff the paper's Section IV-C datapath
//! argument relies on: after coalescing, every table row appears **at most
//! once** per scatter, so the optimizer update of disjoint row ranges is
//! embarrassingly parallel — *if* the state store can hand out disjoint
//! mutable views. A `HashMap<u32, Vec<f32>>` cannot (concurrent inserts
//! rehash), so state lives in a dense, lazily-grown [`RowState`] band
//! store instead: one contiguous `width`-strided slab, splittable at
//! arbitrary row boundaries with `split_at_mut`. [`SplittableOptimizer`]
//! exposes that split, and [`crate::scatter_apply_sharded`] consumes it.
//!
//! [`ShardedOptimizer`] goes one step further — from bands *within* one
//! slab to state you can *place*: one optimizer instance (and thus one
//! [`RowState`] slab) per row-range shard of a [`ShardMap`], with a
//! canonical global-keyed checkpoint blob so shard counts can change
//! between save and restore.

use crate::sharding::ShardMap;

/// A sparse, row-granular optimizer.
///
/// `update_row` applies one training-step update for a single embedding
/// row given its *coalesced* gradient. Implementations may keep per-row
/// state (momentum/second-moment accumulators) keyed by row id.
pub trait SparseOptimizer {
    /// Applies the update `param <- f(param, grad)` for table row `row`.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `param.len() != grad.len()`.
    fn update_row(&mut self, row: u32, param: &mut [f32], grad: &[f32]);

    /// Human-readable optimizer name (for logs and experiment output).
    fn name(&self) -> &'static str;

    /// Bytes of optimizer state read+written per updated element, used by
    /// the analytic traffic model (0 for plain SGD, 8 for one f32
    /// accumulator read+write, ...).
    fn state_bytes_per_element(&self) -> usize {
        0
    }
}

/// A row-disjoint mutable shard of a splittable optimizer's state — one
/// band of the parallel scatter.
///
/// A shard updates rows exactly as the owning optimizer's
/// [`SparseOptimizer::update_row`] would (same operations, same order per
/// row), which is what makes the band-parallel scatter bit-identical to
/// the serial one. Callers must only pass rows inside the band the shard
/// was split for.
pub trait StateShard: Send {
    /// Applies the update for `row`; `row` must lie in this shard's band.
    fn update_row(&mut self, row: u32, param: &mut [f32], grad: &[f32]);
}

/// A [`SparseOptimizer`] whose per-row state splits at row-range
/// boundaries into independently-updatable shards.
///
/// Gradient coalescing guarantees each table row appears at most once per
/// scatter, so shards over disjoint row ranges never alias state — each
/// band of [`crate::scatter_apply_sharded`] updates its table slice and its state
/// shard with no synchronization.
pub trait SplittableOptimizer: SparseOptimizer + Send {
    /// Splits the optimizer state at the row `fence` (ascending,
    /// `fence.len() >= 2`): shard `i` owns rows `[fence[i], fence[i+1])`.
    ///
    /// `dim` is the embedding width of the rows about to be updated;
    /// state is pre-grown to cover `fence.last()` rows here, on the
    /// calling thread, so shard updates never grow (and never allocate).
    ///
    /// # Panics
    ///
    /// Panics if the fence is not ascending, has fewer than two entries,
    /// or `dim` conflicts with the width of already-live state.
    fn split_by_rows<'s>(&'s mut self, fence: &[u32], dim: usize) -> Vec<Box<dyn StateShard + 's>>;

    /// Appends the optimizer's *mutable* per-row state (slabs, step
    /// counts — not hyperparameters) to `out`, for checkpointing. The
    /// full slab is captured, including allocated-but-untouched rows, so
    /// a restore reproduces the exact allocation state and subsequent
    /// growth behaves identically to the uninterrupted run.
    fn save_state(&self, out: &mut Vec<u8>);

    /// Restores state written by [`SplittableOptimizer::save_state`] into
    /// this optimizer (which must have been built with the same
    /// hyperparameters).
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency if `bytes` is
    /// truncated, malformed, or has trailing garbage; the optimizer's
    /// state is unspecified after an error.
    fn load_state(&mut self, bytes: &[u8]) -> Result<(), String>;

    /// The optimizer's dense per-row state planes, in the exact order
    /// [`SplittableOptimizer::save_state`] serializes them, plus the
    /// per-row step counts (Adam) if any. This is what makes state
    /// *placeable*: [`ShardedOptimizer`] merges the planes of row-range
    /// shards into one global-keyed blob (and re-splits on load), so a
    /// checkpoint written at N shards restores at M. Stateless
    /// optimizers return the default empty planes.
    fn state_planes(&self) -> (Vec<&RowState>, Option<&[u32]>) {
        (Vec::new(), None)
    }

    /// Mutable form of [`SplittableOptimizer::state_planes`], used when
    /// re-splitting a global state blob into per-shard slabs.
    fn state_planes_mut(&mut self) -> (Vec<&mut RowState>, Option<&mut Vec<u32>>) {
        (Vec::new(), None)
    }
}

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

impl RowState {
    /// Appends `width`, row count, the full slab and the touched bitmap.
    fn save_into(&self, out: &mut Vec<u8>) {
        put_u64(out, self.width as u64);
        put_u64(out, self.rows() as u64);
        for &v in &self.data {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out.extend(self.touched.iter().map(|&t| t as u8));
    }

    /// Reads back what [`RowState::save_into`] wrote.
    fn load_from(&mut self, r: &mut StateReader<'_>) -> Result<(), String> {
        let width = r.u64()? as usize;
        let rows = r.u64()? as usize;
        let elems = rows
            .checked_mul(width)
            .and_then(|e| e.checked_mul(4).map(|_| e))
            .ok_or_else(|| "optimizer state slab size overflows".to_string())?;
        let raw = r.take(elems * 4)?;
        let mut data = Vec::with_capacity(elems);
        for c in raw.chunks_exact(4) {
            data.push(f32::from_le_bytes(c.try_into().expect("4 bytes")));
        }
        let flags = r.take(rows)?;
        if let Some(&bad) = flags.iter().find(|&&b| b > 1) {
            return Err(format!("optimizer touched flag has invalid value {bad}"));
        }
        self.width = width;
        self.data = data;
        self.touched = flags.iter().map(|&b| b == 1).collect();
        Ok(())
    }
}

/// Asserts the [`SplittableOptimizer::split_by_rows`] fence contract:
/// at least two entries, ascending.
fn validate_fence(fence: &[u32]) {
    assert!(fence.len() >= 2, "state fence needs >= 2 entries");
    assert!(
        fence.windows(2).all(|w| w[0] <= w[1]),
        "state fence must be ascending"
    );
}

/// Dense, lazily-grown per-row optimizer state: `width` `f32` slots per
/// row in one contiguous slab, plus a touched bitmap for reporting.
///
/// Growth is geometric, so serial lazy growth (a new hottest row) is
/// amortized O(1) and stops entirely once the live row set is covered —
/// preserving the workspace's zero-allocation steady state. Unlike the
/// `HashMap` store it replaces, the slab splits into disjoint row bands
/// (`split_at_mut`) for the parallel scatter.
#[derive(Debug, Clone, Default)]
pub struct RowState {
    width: usize,
    data: Vec<f32>,
    touched: Vec<bool>,
}

/// One row band of a [`RowState`], produced by [`RowState::split`].
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

    /// Grows (geometrically) so `row` is addressable without allocation
    /// on subsequent touches.
    fn grow_for(&mut self, row: u32) {
        let needed = row as usize + 1;
        if needed > self.rows() {
            let target = needed.max(self.rows() * 2);
            self.data.resize(target * self.width, 0.0);
            self.touched.resize(target, false);
        }
    }

    /// Grows to exactly cover `rows` rows (no geometric overshoot — used
    /// by the parallel split, where the table size is known).
    fn grow_exact(&mut self, rows: usize) {
        if rows > self.rows() {
            self.data.resize(rows * self.width, 0.0);
            self.touched.resize(rows, false);
        }
    }

    /// Mutable state of `row` (zeros on first touch), marking it live.
    fn row_mut(&mut self, row: u32) -> &mut [f32] {
        self.grow_for(row);
        self.touched[row as usize] = true;
        let w = self.width;
        &mut self.data[row as usize * w..(row as usize + 1) * w]
    }

    /// Number of rows that ever received an update.
    fn tracked_rows(&self) -> usize {
        self.touched.iter().filter(|&&t| t).count()
    }

    /// Splits the slab at `fence` into one band per window; band `i`
    /// covers rows `[fence[i], fence[i+1])`. State below `fence[0]` and
    /// above `fence.last()` is not handed out.
    fn split<'s>(&'s mut self, fence: &[u32], width: usize) -> Vec<RowStateBand<'s>> {
        validate_fence(fence);
        self.set_width(width);
        self.grow_exact(*fence.last().expect("non-empty fence") as usize);
        let w = self.width;
        let skip = fence[0] as usize;
        let mut data = &mut self.data[skip * w..];
        let mut touched = &mut self.touched[skip..];
        let mut bands = Vec::with_capacity(fence.len() - 1);
        for pair in fence.windows(2) {
            let rows = (pair[1] - pair[0]) as usize;
            let (band_data, rest_data) = data.split_at_mut(rows * w);
            let (band_touched, rest_touched) = touched.split_at_mut(rows);
            data = rest_data;
            touched = rest_touched;
            bands.push(RowStateBand {
                base: pair[0],
                width: w,
                data: band_data,
                touched: band_touched,
            });
        }
        bands
    }
}

impl RowStateBand<'_> {
    /// Mutable state of `row` (which must lie in this band), marking it
    /// live.
    fn row_mut(&mut self, row: u32) -> &mut [f32] {
        let local = (row - self.base) as usize;
        self.touched[local] = true;
        &mut self.data[local * self.width..(local + 1) * self.width]
    }
}

/// Plain stochastic gradient descent: `W <- W - lr * G`.
#[derive(Debug, Clone, PartialEq)]
pub struct Sgd {
    lr: f32,
}

impl Sgd {
    /// Creates SGD with learning rate `lr`.
    pub fn new(lr: f32) -> Self {
        Self { lr }
    }

    /// The configured learning rate.
    pub fn learning_rate(&self) -> f32 {
        self.lr
    }
}

fn sgd_step(lr: f32, param: &mut [f32], grad: &[f32]) {
    assert_eq!(param.len(), grad.len(), "row/grad width mismatch");
    crate::simd::sgd_row(crate::simd::dispatch(), lr, param, grad);
}

impl SparseOptimizer for Sgd {
    fn update_row(&mut self, _row: u32, param: &mut [f32], grad: &[f32]) {
        sgd_step(self.lr, param, grad);
    }

    fn name(&self) -> &'static str {
        "sgd"
    }
}

struct SgdShard {
    lr: f32,
}

impl StateShard for SgdShard {
    fn update_row(&mut self, _row: u32, param: &mut [f32], grad: &[f32]) {
        sgd_step(self.lr, param, grad);
    }
}

impl SplittableOptimizer for Sgd {
    fn split_by_rows<'s>(
        &'s mut self,
        fence: &[u32],
        _dim: usize,
    ) -> Vec<Box<dyn StateShard + 's>> {
        // Stateless, but the fence contract is validated like every other
        // optimizer so callers get consistent panics.
        validate_fence(fence);
        let lr = self.lr;
        (0..fence.len() - 1)
            .map(|_| Box::new(SgdShard { lr }) as Box<dyn StateShard>)
            .collect()
    }

    fn save_state(&self, _out: &mut Vec<u8>) {
        // SGD is stateless; an empty payload round-trips.
    }

    fn load_state(&mut self, bytes: &[u8]) -> Result<(), String> {
        StateReader::new(bytes).finish()
    }
}

/// SGD with (heavy-ball) momentum: `V <- mu*V + G; W <- W - lr*V`.
#[derive(Debug, Clone)]
pub struct Momentum {
    lr: f32,
    mu: f32,
    velocity: RowState,
}

impl Momentum {
    /// Creates momentum SGD with learning rate `lr` and momentum `mu`.
    pub fn new(lr: f32, mu: f32) -> Self {
        Self {
            lr,
            mu,
            velocity: RowState::default(),
        }
    }

    /// Number of rows with live momentum state.
    pub fn tracked_rows(&self) -> usize {
        self.velocity.tracked_rows()
    }
}

fn momentum_step(lr: f32, mu: f32, v: &mut [f32], param: &mut [f32], grad: &[f32]) {
    assert_eq!(param.len(), grad.len(), "row/grad width mismatch");
    crate::simd::momentum_row(crate::simd::dispatch(), lr, mu, v, param, grad);
}

impl SparseOptimizer for Momentum {
    fn update_row(&mut self, row: u32, param: &mut [f32], grad: &[f32]) {
        self.velocity.set_width(param.len());
        momentum_step(self.lr, self.mu, self.velocity.row_mut(row), param, grad);
    }

    fn name(&self) -> &'static str {
        "momentum"
    }

    fn state_bytes_per_element(&self) -> usize {
        8 // one f32 velocity read + write
    }
}

struct MomentumShard<'a> {
    lr: f32,
    mu: f32,
    velocity: RowStateBand<'a>,
}

impl StateShard for MomentumShard<'_> {
    fn update_row(&mut self, row: u32, param: &mut [f32], grad: &[f32]) {
        momentum_step(self.lr, self.mu, self.velocity.row_mut(row), param, grad);
    }
}

impl SplittableOptimizer for Momentum {
    fn split_by_rows<'s>(&'s mut self, fence: &[u32], dim: usize) -> Vec<Box<dyn StateShard + 's>> {
        let (lr, mu) = (self.lr, self.mu);
        self.velocity
            .split(fence, dim)
            .into_iter()
            .map(|velocity| Box::new(MomentumShard { lr, mu, velocity }) as Box<dyn StateShard>)
            .collect()
    }

    fn save_state(&self, out: &mut Vec<u8>) {
        self.velocity.save_into(out);
    }

    fn load_state(&mut self, bytes: &[u8]) -> Result<(), String> {
        let mut r = StateReader::new(bytes);
        self.velocity.load_from(&mut r)?;
        r.finish()
    }

    fn state_planes(&self) -> (Vec<&RowState>, Option<&[u32]>) {
        (vec![&self.velocity], None)
    }

    fn state_planes_mut(&mut self) -> (Vec<&mut RowState>, Option<&mut Vec<u32>>) {
        (vec![&mut self.velocity], None)
    }
}

/// Adagrad (the paper's Eq. 2): `A <- A + G^2; W <- W - lr * G / sqrt(eps + A)`.
#[derive(Debug, Clone)]
pub struct Adagrad {
    lr: f32,
    eps: f32,
    accum: RowState,
}

impl Adagrad {
    /// Creates Adagrad with learning rate `lr` and stabilizer `eps`.
    pub fn new(lr: f32, eps: f32) -> Self {
        Self {
            lr,
            eps,
            accum: RowState::default(),
        }
    }

    /// Number of rows with live accumulator state.
    pub fn tracked_rows(&self) -> usize {
        self.accum.tracked_rows()
    }
}

fn adagrad_step(lr: f32, eps: f32, a: &mut [f32], param: &mut [f32], grad: &[f32]) {
    assert_eq!(param.len(), grad.len(), "row/grad width mismatch");
    crate::simd::adagrad_row(crate::simd::dispatch(), lr, eps, a, param, grad);
}

impl SparseOptimizer for Adagrad {
    fn update_row(&mut self, row: u32, param: &mut [f32], grad: &[f32]) {
        self.accum.set_width(param.len());
        adagrad_step(self.lr, self.eps, self.accum.row_mut(row), param, grad);
    }

    fn name(&self) -> &'static str {
        "adagrad"
    }

    fn state_bytes_per_element(&self) -> usize {
        8
    }
}

struct AdagradShard<'a> {
    lr: f32,
    eps: f32,
    accum: RowStateBand<'a>,
}

impl StateShard for AdagradShard<'_> {
    fn update_row(&mut self, row: u32, param: &mut [f32], grad: &[f32]) {
        adagrad_step(self.lr, self.eps, self.accum.row_mut(row), param, grad);
    }
}

impl SplittableOptimizer for Adagrad {
    fn split_by_rows<'s>(&'s mut self, fence: &[u32], dim: usize) -> Vec<Box<dyn StateShard + 's>> {
        let (lr, eps) = (self.lr, self.eps);
        self.accum
            .split(fence, dim)
            .into_iter()
            .map(|accum| Box::new(AdagradShard { lr, eps, accum }) as Box<dyn StateShard>)
            .collect()
    }

    fn save_state(&self, out: &mut Vec<u8>) {
        self.accum.save_into(out);
    }

    fn load_state(&mut self, bytes: &[u8]) -> Result<(), String> {
        let mut r = StateReader::new(bytes);
        self.accum.load_from(&mut r)?;
        r.finish()
    }

    fn state_planes(&self) -> (Vec<&RowState>, Option<&[u32]>) {
        (vec![&self.accum], None)
    }

    fn state_planes_mut(&mut self) -> (Vec<&mut RowState>, Option<&mut Vec<u32>>) {
        (vec![&mut self.accum], None)
    }
}

/// RMSprop (the paper's Eq. 1):
/// `A <- gamma*A + (1-gamma)*G^2; W <- W - lr * G / sqrt(eps + A)`.
#[derive(Debug, Clone)]
pub struct RmsProp {
    lr: f32,
    gamma: f32,
    eps: f32,
    accum: RowState,
}

impl RmsProp {
    /// Creates RMSprop with learning rate `lr`, decay `gamma` and
    /// stabilizer `eps`.
    pub fn new(lr: f32, gamma: f32, eps: f32) -> Self {
        Self {
            lr,
            gamma,
            eps,
            accum: RowState::default(),
        }
    }

    /// Number of rows with live accumulator state.
    pub fn tracked_rows(&self) -> usize {
        self.accum.tracked_rows()
    }
}

fn rmsprop_step(lr: f32, gamma: f32, eps: f32, a: &mut [f32], param: &mut [f32], grad: &[f32]) {
    assert_eq!(param.len(), grad.len(), "row/grad width mismatch");
    crate::simd::rmsprop_row(crate::simd::dispatch(), lr, gamma, eps, a, param, grad);
}

impl SparseOptimizer for RmsProp {
    fn update_row(&mut self, row: u32, param: &mut [f32], grad: &[f32]) {
        self.accum.set_width(param.len());
        rmsprop_step(
            self.lr,
            self.gamma,
            self.eps,
            self.accum.row_mut(row),
            param,
            grad,
        );
    }

    fn name(&self) -> &'static str {
        "rmsprop"
    }

    fn state_bytes_per_element(&self) -> usize {
        8
    }
}

struct RmsPropShard<'a> {
    lr: f32,
    gamma: f32,
    eps: f32,
    accum: RowStateBand<'a>,
}

impl StateShard for RmsPropShard<'_> {
    fn update_row(&mut self, row: u32, param: &mut [f32], grad: &[f32]) {
        rmsprop_step(
            self.lr,
            self.gamma,
            self.eps,
            self.accum.row_mut(row),
            param,
            grad,
        );
    }
}

impl SplittableOptimizer for RmsProp {
    fn split_by_rows<'s>(&'s mut self, fence: &[u32], dim: usize) -> Vec<Box<dyn StateShard + 's>> {
        let (lr, gamma, eps) = (self.lr, self.gamma, self.eps);
        self.accum
            .split(fence, dim)
            .into_iter()
            .map(|accum| {
                Box::new(RmsPropShard {
                    lr,
                    gamma,
                    eps,
                    accum,
                }) as Box<dyn StateShard>
            })
            .collect()
    }

    fn save_state(&self, out: &mut Vec<u8>) {
        self.accum.save_into(out);
    }

    fn load_state(&mut self, bytes: &[u8]) -> Result<(), String> {
        let mut r = StateReader::new(bytes);
        self.accum.load_from(&mut r)?;
        r.finish()
    }

    fn state_planes(&self) -> (Vec<&RowState>, Option<&[u32]>) {
        (vec![&self.accum], None)
    }

    fn state_planes_mut(&mut self) -> (Vec<&mut RowState>, Option<&mut Vec<u32>>) {
        (vec![&mut self.accum], None)
    }
}

/// Adam with sparse (lazy) per-row moments: `M <- b1*M + (1-b1)*G;
/// V <- b2*V + (1-b2)*G^2; W <- W - lr * Mhat / (sqrt(Vhat) + eps)` with
/// per-row bias-correction step counts (rows update at different rates
/// in sparse training, so a global step count would over-correct cold
/// rows).
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    m: RowState,
    v: RowState,
    t: Vec<u32>,
}

impl Adam {
    /// Creates Adam with the given hyperparameters.
    pub fn new(lr: f32, beta1: f32, beta2: f32, eps: f32) -> Self {
        Self {
            lr,
            beta1,
            beta2,
            eps,
            m: RowState::default(),
            v: RowState::default(),
            t: Vec::new(),
        }
    }

    /// Number of rows with live moment state.
    pub fn tracked_rows(&self) -> usize {
        self.t.iter().filter(|&&t| t > 0).count()
    }
}

#[derive(Debug, Clone, Copy)]
struct AdamHyper {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
}

fn adam_step(
    h: AdamHyper,
    m: &mut [f32],
    v: &mut [f32],
    t: &mut u32,
    param: &mut [f32],
    grad: &[f32],
) {
    assert_eq!(param.len(), grad.len(), "row/grad width mismatch");
    *t += 1;
    let row = crate::simd::AdamRow {
        lr: h.lr,
        beta1: h.beta1,
        beta2: h.beta2,
        eps: h.eps,
        bc1: 1.0 - h.beta1.powi(*t as i32),
        bc2: 1.0 - h.beta2.powi(*t as i32),
    };
    crate::simd::adam_row(crate::simd::dispatch(), row, m, v, param, grad);
}

impl Adam {
    fn hyper(&self) -> AdamHyper {
        AdamHyper {
            lr: self.lr,
            beta1: self.beta1,
            beta2: self.beta2,
            eps: self.eps,
        }
    }
}

impl SparseOptimizer for Adam {
    fn update_row(&mut self, row: u32, param: &mut [f32], grad: &[f32]) {
        self.m.set_width(param.len());
        self.v.set_width(param.len());
        if row as usize >= self.t.len() {
            let target = (row as usize + 1).max(self.t.len() * 2);
            self.t.resize(target, 0);
        }
        let h = self.hyper();
        adam_step(
            h,
            self.m.row_mut(row),
            self.v.row_mut(row),
            &mut self.t[row as usize],
            param,
            grad,
        );
    }

    fn name(&self) -> &'static str {
        "adam"
    }

    fn state_bytes_per_element(&self) -> usize {
        16 // two f32 moments, read + write each
    }
}

struct AdamShard<'a> {
    h: AdamHyper,
    m: RowStateBand<'a>,
    v: RowStateBand<'a>,
    base: u32,
    t: &'a mut [u32],
}

impl StateShard for AdamShard<'_> {
    fn update_row(&mut self, row: u32, param: &mut [f32], grad: &[f32]) {
        let local = (row - self.base) as usize;
        adam_step(
            self.h,
            self.m.row_mut(row),
            self.v.row_mut(row),
            &mut self.t[local],
            param,
            grad,
        );
    }
}

impl SplittableOptimizer for Adam {
    fn split_by_rows<'s>(&'s mut self, fence: &[u32], dim: usize) -> Vec<Box<dyn StateShard + 's>> {
        let h = self.hyper();
        let last = *fence.last().expect("non-empty fence") as usize;
        if last > self.t.len() {
            self.t.resize(last, 0);
        }
        let m_bands = self.m.split(fence, dim);
        let v_bands = self.v.split(fence, dim);
        let mut t_rest = &mut self.t[fence[0] as usize..];
        let mut shards: Vec<Box<dyn StateShard>> = Vec::with_capacity(fence.len() - 1);
        for ((pair, m), v) in fence.windows(2).zip(m_bands).zip(v_bands) {
            let (t_band, tail) = t_rest.split_at_mut((pair[1] - pair[0]) as usize);
            t_rest = tail;
            shards.push(Box::new(AdamShard {
                h,
                m,
                v,
                base: pair[0],
                t: t_band,
            }));
        }
        shards
    }

    fn save_state(&self, out: &mut Vec<u8>) {
        self.m.save_into(out);
        self.v.save_into(out);
        put_u64(out, self.t.len() as u64);
        for &t in &self.t {
            out.extend_from_slice(&t.to_le_bytes());
        }
    }

    fn load_state(&mut self, bytes: &[u8]) -> Result<(), String> {
        let mut r = StateReader::new(bytes);
        self.m.load_from(&mut r)?;
        self.v.load_from(&mut r)?;
        let len = r.u64()? as usize;
        let raw = r.take(
            len.checked_mul(4)
                .ok_or_else(|| "optimizer step-count length overflows".to_string())?,
        )?;
        self.t = raw
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes")))
            .collect();
        r.finish()
    }

    fn state_planes(&self) -> (Vec<&RowState>, Option<&[u32]>) {
        (vec![&self.m, &self.v], Some(&self.t))
    }

    fn state_planes_mut(&mut self) -> (Vec<&mut RowState>, Option<&mut Vec<u32>>) {
        (vec![&mut self.m, &mut self.v], Some(&mut self.t))
    }
}

/// One optimizer per row-range shard of a table: state you can *place*.
///
/// Where [`SplittableOptimizer::split_by_rows`] hands out temporary bands
/// within one slab (for a single parallel scatter), `ShardedOptimizer`
/// keeps the state permanently split: shard `s` owns a shard-local slab
/// keyed by local row ids, so each shard's scatter touches only its own
/// state — the placement a pooled-memory deployment needs.
///
/// # Checkpoint portability
///
/// [`ShardedOptimizer::save_state`] always emits the **canonical
/// global-keyed blob** — byte-compatible with what a single unsharded
/// optimizer saves (a 1-shard save is a literal passthrough). With more
/// shards, the per-shard [`RowState`] planes are merged row-by-row into
/// global keying on save and re-split by the current [`ShardMap`] on
/// load. A checkpoint written at N shards therefore restores at M shards
/// (any N, M ≥ 1) with bit-identical subsequent training.
pub struct ShardedOptimizer {
    map: ShardMap,
    shards: Vec<Box<dyn SplittableOptimizer>>,
}

impl ShardedOptimizer {
    /// Builds one optimizer instance per shard of `map` via `build`
    /// (every instance must be the same optimizer with the same
    /// hyperparameters).
    pub fn new(map: ShardMap, mut build: impl FnMut() -> Box<dyn SplittableOptimizer>) -> Self {
        let shards: Vec<Box<dyn SplittableOptimizer>> =
            (0..map.num_shards()).map(|_| build()).collect();
        let name = shards[0].name();
        assert!(
            shards.iter().all(|s| s.name() == name),
            "all shards must run the same optimizer"
        );
        Self { map, shards }
    }

    /// Number of state shards (== the map's shard count).
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shared optimizer name (e.g. `"adam"`), without needing the
    /// [`SparseOptimizer`] trait in scope.
    pub fn name(&self) -> &'static str {
        self.shards[0].name()
    }

    /// The placement plan this state is split by.
    pub fn map(&self) -> &ShardMap {
        &self.map
    }

    /// Immutable access to one shard's optimizer.
    ///
    /// # Panics
    ///
    /// Panics when `s` is out of range.
    pub fn shard(&self, s: usize) -> &dyn SplittableOptimizer {
        self.shards[s].as_ref()
    }

    /// The map and the shard optimizers together (split borrow), for
    /// scatter kernels that walk both.
    pub fn parts_mut(&mut self) -> (&ShardMap, &mut [Box<dyn SplittableOptimizer>]) {
        (&self.map, &mut self.shards)
    }

    /// Appends the canonical global-keyed state blob (see the type-level
    /// docs): a 1-shard save passes the inner optimizer's bytes through
    /// unchanged; an N-shard save merges the per-shard planes into global
    /// row keying, zero-filling rows no shard has touched.
    pub fn save_state(&self, out: &mut Vec<u8>) {
        if self.shards.len() == 1 {
            self.shards[0].save_state(out);
            return;
        }
        let per_shard: Vec<(Vec<&RowState>, Option<&[u32]>)> =
            self.shards.iter().map(|s| s.state_planes()).collect();
        // Rows a shard's plane actually backs, clamped to the shard's
        // span (geometric growth may overshoot it; the overshoot is
        // all-zero by construction and not part of the canonical blob).
        let clamped = |s: usize, rows: usize| rows.min(self.map.shard_rows(s));
        let planes = per_shard[0].0.len();
        for p in 0..planes {
            let width = per_shard
                .iter()
                .map(|(pl, _)| pl[p].width)
                .find(|&w| w != 0)
                .unwrap_or(0);
            let extent = per_shard
                .iter()
                .enumerate()
                .filter(|(_, (pl, _))| pl[p].rows() > 0)
                .map(|(s, (pl, _))| self.map.shard_base(s) + clamped(s, pl[p].rows()))
                .max()
                .unwrap_or(0);
            put_u64(out, width as u64);
            put_u64(out, extent as u64);
            for r in 0..extent {
                let (s, local) = self.map.locate(r as u32).expect("extent within the map");
                let plane = &per_shard[s].0[p];
                let local = local as usize;
                if width > 0 && plane.width == width && local < plane.rows() {
                    for &v in &plane.data[local * width..(local + 1) * width] {
                        out.extend_from_slice(&v.to_le_bytes());
                    }
                } else {
                    let at = out.len();
                    out.resize(at + width * 4, 0u8);
                }
            }
            for r in 0..extent {
                let (s, local) = self.map.locate(r as u32).expect("extent within the map");
                let plane = &per_shard[s].0[p];
                let touched = (local as usize) < plane.rows() && plane.touched[local as usize];
                out.push(touched as u8);
            }
        }
        if per_shard[0].1.is_some() {
            let extent = per_shard
                .iter()
                .enumerate()
                .filter_map(|(s, (_, t))| t.as_ref().map(|t| (s, t.len())))
                .filter(|&(_, len)| len > 0)
                .map(|(s, len)| self.map.shard_base(s) + clamped(s, len))
                .max()
                .unwrap_or(0);
            put_u64(out, extent as u64);
            for r in 0..extent {
                let (s, local) = self.map.locate(r as u32).expect("extent within the map");
                let t = per_shard[s].1.expect("all shards share the optimizer type");
                let v = t.get(local as usize).copied().unwrap_or(0);
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
    }

    /// Restores a canonical blob written by [`ShardedOptimizer::save_state`]
    /// under **any** shard count: the global-keyed planes are re-split by
    /// this optimizer's own map.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency if `bytes` is
    /// truncated, malformed, or has trailing garbage; the state is
    /// unspecified after an error.
    pub fn load_state(&mut self, bytes: &[u8]) -> Result<(), String> {
        if self.shards.len() == 1 {
            return self.shards[0].load_state(bytes);
        }
        let mut r = StateReader::new(bytes);
        let planes = self.shards[0].state_planes().0.len();
        let has_counts = self.shards[0].state_planes().1.is_some();
        for p in 0..planes {
            let width = r.u64()? as usize;
            let extent = r.u64()? as usize;
            let bytes_len = extent
                .checked_mul(width)
                .and_then(|e| e.checked_mul(4))
                .ok_or_else(|| "optimizer state slab size overflows".to_string())?;
            let raw = r.take(bytes_len)?;
            let flags = r.take(extent)?;
            if let Some(&bad) = flags.iter().find(|&&b| b > 1) {
                return Err(format!("optimizer touched flag has invalid value {bad}"));
            }
            for s in 0..self.shards.len() {
                let base = self.map.shard_base(s);
                let end = self.map.shard_end(s).min(extent);
                let lo = base.min(end);
                let (mut planes_mut, _) = self.shards[s].state_planes_mut();
                let plane = planes_mut
                    .drain(..)
                    .nth(p)
                    .expect("all shards share the optimizer type");
                if width == 0 || end <= lo {
                    *plane = RowState::default();
                    continue;
                }
                plane.width = width;
                plane.data.clear();
                plane.data.extend(
                    raw[lo * width * 4..end * width * 4]
                        .chunks_exact(4)
                        .map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes"))),
                );
                plane.touched.clear();
                plane.touched.extend(flags[lo..end].iter().map(|&b| b == 1));
            }
        }
        if has_counts {
            let extent = r.u64()? as usize;
            let raw = r.take(
                extent
                    .checked_mul(4)
                    .ok_or_else(|| "optimizer step-count length overflows".to_string())?,
            )?;
            for s in 0..self.shards.len() {
                let base = self.map.shard_base(s);
                let end = self.map.shard_end(s).min(extent);
                let lo = base.min(end);
                let (_, counts) = self.shards[s].state_planes_mut();
                let t = counts.expect("all shards share the optimizer type");
                t.clear();
                t.extend(
                    raw[lo * 4..end * 4]
                        .chunks_exact(4)
                        .map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes"))),
                );
            }
        }
        r.finish()
    }
}

impl SparseOptimizer for ShardedOptimizer {
    /// Applies the update for **global** row `row` through the owning
    /// shard's local state — bit-identical to a single global optimizer,
    /// since per-row state is independent either way.
    ///
    /// # Panics
    ///
    /// Panics if `row` lies outside the shard map.
    fn update_row(&mut self, row: u32, param: &mut [f32], grad: &[f32]) {
        let (s, local) = self.map.locate(row).expect("row inside the shard map");
        self.shards[s].update_row(local, param, grad);
    }

    fn name(&self) -> &'static str {
        self.shards[0].name()
    }

    fn state_bytes_per_element(&self) -> usize {
        self.shards[0].state_bytes_per_element()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sgd_moves_against_gradient() {
        let mut opt = Sgd::new(0.1);
        let mut p = vec![1.0, -1.0];
        opt.update_row(0, &mut p, &[1.0, -1.0]);
        assert_eq!(p, vec![0.9, -0.9]);
        assert_eq!(opt.name(), "sgd");
        assert_eq!(opt.state_bytes_per_element(), 0);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn sgd_rejects_width_mismatch() {
        Sgd::new(0.1).update_row(0, &mut [0.0], &[1.0, 2.0]);
    }

    #[test]
    fn momentum_accumulates_velocity() {
        let mut opt = Momentum::new(1.0, 0.5);
        let mut p = vec![0.0];
        opt.update_row(0, &mut p, &[1.0]); // v=1, p=-1
        opt.update_row(0, &mut p, &[1.0]); // v=1.5, p=-2.5
        assert!((p[0] + 2.5).abs() < 1e-6);
        assert_eq!(opt.tracked_rows(), 1);
    }

    #[test]
    fn momentum_state_is_per_row() {
        let mut opt = Momentum::new(1.0, 0.9);
        let mut p0 = vec![0.0];
        let mut p1 = vec![0.0];
        opt.update_row(0, &mut p0, &[1.0]);
        opt.update_row(1, &mut p1, &[1.0]);
        assert_eq!(opt.tracked_rows(), 2);
        assert_eq!(p0, p1); // fresh state each: same result
    }

    #[test]
    fn adagrad_matches_eq2_by_hand() {
        // A1 = 0 + G^2 = 4; W1 = 1 - lr*G/sqrt(eps+A1) = 1 - 0.1*2/2.
        let mut opt = Adagrad::new(0.1, 0.0);
        let mut p = vec![1.0];
        opt.update_row(3, &mut p, &[2.0]);
        assert!((p[0] - 0.9).abs() < 1e-6);
        // Second step: A2 = 4 + 1 = 5; W2 = 0.9 - 0.1*1/sqrt(5).
        opt.update_row(3, &mut p, &[1.0]);
        assert!((p[0] - (0.9 - 0.1 / 5.0f32.sqrt())).abs() < 1e-6);
    }

    #[test]
    fn adagrad_shrinks_effective_lr_over_time() {
        let mut opt = Adagrad::new(0.1, 1e-8);
        let mut p = vec![0.0];
        let mut deltas = Vec::new();
        for _ in 0..5 {
            let before = p[0];
            opt.update_row(0, &mut p, &[1.0]);
            deltas.push((before - p[0]).abs());
        }
        for w in deltas.windows(2) {
            assert!(w[1] < w[0], "step sizes must be decreasing: {deltas:?}");
        }
    }

    #[test]
    fn rmsprop_matches_eq1_by_hand() {
        // gamma=0.5: A1 = 0.5*0 + 0.5*G^2 = 2; W1 = -lr*G/sqrt(A1).
        let mut opt = RmsProp::new(0.1, 0.5, 0.0);
        let mut p = vec![0.0];
        opt.update_row(0, &mut p, &[2.0]);
        assert!((p[0] + 0.1 * 2.0 / 2.0f32.sqrt()).abs() < 1e-6);
    }

    #[test]
    fn stateful_optimizers_report_state_traffic() {
        assert_eq!(Momentum::new(0.1, 0.9).state_bytes_per_element(), 8);
        assert_eq!(Adagrad::new(0.1, 1e-8).state_bytes_per_element(), 8);
        assert_eq!(RmsProp::new(0.1, 0.9, 1e-8).state_bytes_per_element(), 8);
    }

    #[test]
    fn adam_first_step_is_lr_sized() {
        // With bias correction, the first step is ~lr regardless of the
        // gradient magnitude (for eps -> 0).
        for g in [0.1f32, 10.0] {
            let mut opt = Adam::new(0.01, 0.9, 0.999, 1e-12);
            let mut p = vec![0.0];
            opt.update_row(0, &mut p, &[g]);
            assert!((p[0] + 0.01).abs() < 1e-4, "g={g}: step {}", p[0]);
        }
    }

    #[test]
    fn adam_bias_correction_is_per_row() {
        // A cold row's first update must not be shrunk by other rows'
        // step counts.
        let mut opt = Adam::new(0.01, 0.9, 0.999, 1e-12);
        let mut hot = vec![0.0];
        for _ in 0..10 {
            opt.update_row(0, &mut hot, &[1.0]);
        }
        let mut cold = vec![0.0];
        opt.update_row(1, &mut cold, &[1.0]);
        assert!((cold[0] + 0.01).abs() < 1e-4, "cold first step {}", cold[0]);
        assert_eq!(opt.tracked_rows(), 2);
    }

    #[test]
    fn trait_objects_are_usable() {
        let mut opts: Vec<Box<dyn SparseOptimizer>> = vec![
            Box::new(Sgd::new(0.1)),
            Box::new(Momentum::new(0.1, 0.9)),
            Box::new(Adagrad::new(0.1, 1e-8)),
            Box::new(RmsProp::new(0.1, 0.9, 1e-8)),
            Box::new(Adam::new(0.1, 0.9, 0.999, 1e-8)),
        ];
        let mut p = vec![1.0, 1.0];
        for opt in opts.iter_mut() {
            opt.update_row(0, &mut p, &[0.5, 0.5]);
        }
        assert!(p[0] < 1.0);
    }

    #[test]
    fn splittable_trait_objects_upcast_to_sparse() {
        // The trainer stores Box<dyn SplittableOptimizer> and hands the
        // serial paths a &mut dyn SparseOptimizer via upcasting.
        let mut boxed: Box<dyn SplittableOptimizer> = Box::new(Adagrad::new(0.1, 1e-8));
        let opt: &mut dyn SparseOptimizer = boxed.as_mut();
        let mut p = vec![1.0];
        opt.update_row(0, &mut p, &[2.0]);
        assert!(p[0] < 1.0);
    }

    /// Shard updates must be bit-identical to whole-optimizer updates.
    #[test]
    fn shards_match_serial_updates_exactly() {
        let make: Vec<Box<dyn Fn() -> Box<dyn SplittableOptimizer>>> = vec![
            Box::new(|| Box::new(Sgd::new(0.1))),
            Box::new(|| Box::new(Momentum::new(0.1, 0.9))),
            Box::new(|| Box::new(Adagrad::new(0.1, 1e-8))),
            Box::new(|| Box::new(RmsProp::new(0.1, 0.9, 1e-8))),
            Box::new(|| Box::new(Adam::new(0.01, 0.9, 0.999, 1e-8))),
        ];
        let rows: Vec<u32> = vec![0, 3, 4, 9, 17];
        let dim = 3;
        for mk in &make {
            let mut serial = mk();
            let mut split = mk();
            let mut params_a: Vec<Vec<f32>> = rows.iter().map(|&r| vec![r as f32; dim]).collect();
            let mut params_b = params_a.clone();
            // Two passes so stateful optimizers exercise non-zero state.
            for pass in 0..2 {
                let grads: Vec<Vec<f32>> = rows
                    .iter()
                    .map(|&r| {
                        (0..dim)
                            .map(|c| (r as f32 + c as f32) * 0.1 + pass as f32)
                            .collect()
                    })
                    .collect();
                for (i, &r) in rows.iter().enumerate() {
                    serial.update_row(r, &mut params_a[i], &grads[i]);
                }
                // Split at fences that cut the row set unevenly.
                let fence = [0u32, 4, 10, 32];
                let mut shards = split.split_by_rows(&fence, dim);
                for (i, &r) in rows.iter().enumerate() {
                    let band = fence[1..].iter().position(|&f| r < f).unwrap();
                    shards[band].update_row(r, &mut params_b[i], &grads[i]);
                }
                drop(shards);
            }
            assert_eq!(params_a, params_b, "{} diverged", mk().name());
        }
    }

    #[test]
    fn every_optimizer_rejects_a_descending_fence() {
        let mut opts: Vec<Box<dyn SplittableOptimizer>> = vec![
            Box::new(Sgd::new(0.1)),
            Box::new(Momentum::new(0.1, 0.9)),
            Box::new(Adagrad::new(0.1, 1e-8)),
            Box::new(RmsProp::new(0.1, 0.9, 1e-8)),
            Box::new(Adam::new(0.1, 0.9, 0.999, 1e-8)),
        ];
        for opt in opts.iter_mut() {
            let name = opt.name();
            let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                opt.split_by_rows(&[4, 0], 2);
            }))
            .is_err();
            assert!(panicked, "{name} accepted a descending fence");
        }
    }

    #[test]
    fn saved_state_resumes_bit_identically() {
        // Save mid-trajectory, load into a fresh optimizer, continue both:
        // the continued updates must match bit-for-bit (the checkpoint
        // resume invariant at the optimizer layer).
        let make: Vec<Box<dyn Fn() -> Box<dyn SplittableOptimizer>>> = vec![
            Box::new(|| Box::new(Sgd::new(0.1))),
            Box::new(|| Box::new(Momentum::new(0.1, 0.9))),
            Box::new(|| Box::new(Adagrad::new(0.1, 1e-8))),
            Box::new(|| Box::new(RmsProp::new(0.1, 0.9, 1e-8))),
            Box::new(|| Box::new(Adam::new(0.01, 0.9, 0.999, 1e-8))),
        ];
        let rows: Vec<u32> = vec![0, 3, 9, 17];
        let dim = 3;
        for mk in &make {
            let mut original = mk();
            let mut params_a: Vec<Vec<f32>> = rows.iter().map(|&r| vec![r as f32; dim]).collect();
            for (i, &r) in rows.iter().enumerate() {
                let grad: Vec<f32> = (0..dim).map(|c| (r + c as u32) as f32 * 0.1).collect();
                original.update_row(r, &mut params_a[i], &grad);
            }
            let mut saved = Vec::new();
            original.save_state(&mut saved);
            let mut restored = mk();
            restored.load_state(&saved).expect("valid state loads");
            let mut params_b = params_a.clone();
            for (i, &r) in rows.iter().enumerate() {
                let grad: Vec<f32> = (0..dim).map(|c| (r + c as u32) as f32 * 0.2).collect();
                original.update_row(r, &mut params_a[i], &grad);
                restored.update_row(r, &mut params_b[i], &grad);
            }
            let bits = |ps: &[Vec<f32>]| -> Vec<Vec<u32>> {
                ps.iter()
                    .map(|p| p.iter().map(|v| v.to_bits()).collect())
                    .collect()
            };
            assert_eq!(
                bits(&params_a),
                bits(&params_b),
                "{} diverged after restore",
                mk().name()
            );
        }
    }

    #[test]
    fn load_state_rejects_truncation_and_trailing_garbage() {
        let mut opt = Adam::new(0.01, 0.9, 0.999, 1e-8);
        let mut p = vec![0.0, 0.0];
        opt.update_row(5, &mut p, &[1.0, 2.0]);
        let mut saved = Vec::new();
        opt.save_state(&mut saved);
        // Every truncation point is a clean error, never a panic.
        for cut in 0..saved.len() {
            let mut fresh = Adam::new(0.01, 0.9, 0.999, 1e-8);
            assert!(
                fresh.load_state(&saved[..cut]).is_err(),
                "truncation at byte {cut} accepted"
            );
        }
        let mut trailing = saved.clone();
        trailing.push(0);
        let mut fresh = Adam::new(0.01, 0.9, 0.999, 1e-8);
        let err = fresh.load_state(&trailing).unwrap_err();
        assert!(err.contains("trailing"), "unexpected error: {err}");
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

    fn all_optimizers() -> Vec<Box<dyn Fn() -> Box<dyn SplittableOptimizer>>> {
        vec![
            Box::new(|| Box::new(Sgd::new(0.1))),
            Box::new(|| Box::new(Momentum::new(0.1, 0.9))),
            Box::new(|| Box::new(Adagrad::new(0.1, 1e-8))),
            Box::new(|| Box::new(RmsProp::new(0.1, 0.9, 1e-8))),
            Box::new(|| Box::new(Adam::new(0.01, 0.9, 0.999, 1e-8))),
        ]
    }

    /// Global-keyed updates through the sharded state must match a single
    /// unsharded optimizer bit-for-bit, for every optimizer and shard count.
    #[test]
    fn sharded_optimizer_matches_global_updates() {
        use crate::sharding::ShardMap;
        let rows_total = 34usize;
        let rows: Vec<u32> = vec![0, 3, 11, 12, 17, 22, 23, 33];
        let dim = 3;
        for mk in &all_optimizers() {
            for shards in [1usize, 2, 3, 7] {
                let mut global = mk();
                let mut sharded = ShardedOptimizer::new(ShardMap::new(rows_total, shards), || mk());
                assert_eq!(sharded.name(), global.name());
                let mut params_a: Vec<Vec<f32>> =
                    rows.iter().map(|&r| vec![r as f32; dim]).collect();
                let mut params_b = params_a.clone();
                for pass in 0..3 {
                    for (i, &r) in rows.iter().enumerate() {
                        let grad: Vec<f32> = (0..dim)
                            .map(|c| (r + c as u32) as f32 * 0.1 + pass as f32)
                            .collect();
                        global.update_row(r, &mut params_a[i], &grad);
                        sharded.update_row(r, &mut params_b[i], &grad);
                    }
                }
                let (a, b): (Vec<u32>, Vec<u32>) = (
                    params_a.iter().flatten().map(|v| v.to_bits()).collect(),
                    params_b.iter().flatten().map(|v| v.to_bits()).collect(),
                );
                assert_eq!(a, b, "{} diverged at {shards} shards", global.name());
            }
        }
    }

    /// Save at N shards, restore at M shards (including M == 1), continue:
    /// the continued trajectory must be bit-identical. The 1-shard blob is
    /// also byte-identical to the plain optimizer's save format.
    #[test]
    fn sharded_state_is_portable_across_shard_counts() {
        use crate::sharding::ShardMap;
        let rows_total = 23usize;
        let rows: Vec<u32> = vec![0, 6, 7, 11, 12, 21, 22];
        let dim = 2;
        for mk in &all_optimizers() {
            // Reference trajectory on a plain global optimizer.
            let mut global = mk();
            let mut params: Vec<Vec<f32>> = rows.iter().map(|&r| vec![r as f32; dim]).collect();
            let step = |opt: &mut dyn SparseOptimizer, params: &mut [Vec<f32>], pass: usize| {
                for (i, &r) in rows.iter().enumerate() {
                    let grad: Vec<f32> = (0..dim)
                        .map(|c| (r + c as u32) as f32 * 0.1 + pass as f32)
                        .collect();
                    opt.update_row(r, &mut params[i], &grad);
                }
            };
            step(global.as_mut(), &mut params, 0);
            step(global.as_mut(), &mut params, 1);
            let mut global_blob = Vec::new();
            global.save_state(&mut global_blob);

            for n in [1usize, 2, 3, 7] {
                // Replay the same two passes through N shards and save.
                let mut at_n = ShardedOptimizer::new(ShardMap::new(rows_total, n), || mk());
                let mut params_n: Vec<Vec<f32>> =
                    rows.iter().map(|&r| vec![r as f32; dim]).collect();
                step(&mut at_n, &mut params_n, 0);
                step(&mut at_n, &mut params_n, 1);
                let mut blob = Vec::new();
                at_n.save_state(&mut blob);
                if n == 1 {
                    assert_eq!(
                        blob,
                        global_blob,
                        "{}: 1-shard save is not a byte passthrough",
                        at_n.name()
                    );
                }
                for m in [1usize, 2, 3, 7] {
                    let mut at_m = ShardedOptimizer::new(ShardMap::new(rows_total, m), || mk());
                    at_m.load_state(&blob).expect("canonical blob loads");
                    // Continue both for one more pass and compare bits.
                    let mut cont_ref = params_n.clone();
                    let mut cont_new = params_n.clone();
                    let mut resaved = mk();
                    resaved.load_state(&blob).unwrap_or_else(|e| {
                        panic!("{}: global load of {n}-shard blob: {e}", at_m.name())
                    });
                    step(resaved.as_mut(), &mut cont_ref, 2);
                    step(&mut at_m, &mut cont_new, 2);
                    let (a, b): (Vec<u32>, Vec<u32>) = (
                        cont_ref.iter().flatten().map(|v| v.to_bits()).collect(),
                        cont_new.iter().flatten().map(|v| v.to_bits()).collect(),
                    );
                    assert_eq!(a, b, "{}: {n}->{m} shard restore diverged", at_m.name());
                }
            }
        }
    }

    #[test]
    fn sharded_load_rejects_truncation_and_trailing_garbage() {
        use crate::sharding::ShardMap;
        let mut at_n = ShardedOptimizer::new(ShardMap::new(20, 3), || {
            Box::new(Adam::new(0.01, 0.9, 0.999, 1e-8))
        });
        let mut p = vec![0.0, 0.0];
        at_n.update_row(5, &mut p, &[1.0, 2.0]);
        at_n.update_row(13, &mut p, &[0.5, -1.0]);
        let mut saved = Vec::new();
        at_n.save_state(&mut saved);
        for cut in 0..saved.len() {
            let mut fresh = ShardedOptimizer::new(ShardMap::new(20, 2), || {
                Box::new(Adam::new(0.01, 0.9, 0.999, 1e-8))
            });
            assert!(
                fresh.load_state(&saved[..cut]).is_err(),
                "truncation at byte {cut} accepted"
            );
        }
        let mut trailing = saved.clone();
        trailing.push(0);
        let mut fresh = ShardedOptimizer::new(ShardMap::new(20, 2), || {
            Box::new(Adam::new(0.01, 0.9, 0.999, 1e-8))
        });
        let err = fresh.load_state(&trailing).unwrap_err();
        assert!(err.contains("trailing"), "unexpected error: {err}");
    }
}
