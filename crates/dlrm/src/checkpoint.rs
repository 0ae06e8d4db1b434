//! Crash-safe checkpointing: save and restore *full training state* —
//! model parameters, per-table optimizer slabs, the trainer's step
//! counter, the batch source's stream position and the training loop's
//! lookahead depth — in a self-describing, CRC-checksummed binary format.
//!
//! Production recommendation training checkpoints constantly (the
//! embedding tables *are* the model, and they are expensive to
//! retrain); this module provides exact-resume capability without
//! external serialization dependencies. Format (version 2):
//!
//! ```text
//! magic   "TCKP"   4 bytes
//! version u32      (currently 2)
//! then sections until end-of-file, each:
//!   tag      4 bytes      ("MODL", "OPTM", "TRNR", "SRC0", "DCTL")
//!   length   u64          payload bytes
//!   crc      u32          CRC-32 (IEEE) of the payload
//!   payload  length bytes
//! ```
//!
//! `MODL` (model parameters) is always present; a *training* checkpoint
//! adds `OPTM` (optimizer state) and `TRNR` (step counter, learning
//! rate, backward mode), and optionally `SRC0` (batch-source resume
//! state) and `DCTL` (the `TrainLoop`'s lookahead depth, one `u64`, at
//! most 1024). Everything is little-endian.
//!
//! Loading is staged: the entire file is parsed and checksum-verified
//! into a [`TrainCheckpoint`] *before* any model or trainer state is
//! written, and shape validation runs ahead of mutation — so a failed
//! load of any kind leaves the receiving model byte-identical to what
//! it was. Trailing bytes after the last section, unknown or duplicate
//! section tags, checksum mismatches and truncations all fail cleanly,
//! and every [`CheckpointError::Format`] names the section at fault.
//!
//! [`CheckpointStore`] adds the durability protocol: write to a
//! temporary file, fsync, atomically rename into a versioned
//! `ckpt-<steps>.tckp` name, fsync the directory, prune old versions —
//! so a crash at any instant leaves either the old checkpoint set or
//! the new one, never a half-written file under a valid name.

use crate::model::Dlrm;
use crate::trainer::{BackwardMode, Trainer};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use tcast_core::{FaultPlan, FaultyWrite};
use tcast_datasets::SourceState;

const MAGIC: &[u8; 4] = b"TCKP";
const VERSION: u32 = 2;

const TAG_MODEL: [u8; 4] = *b"MODL";
const TAG_OPTIM: [u8; 4] = *b"OPTM";
const TAG_TRAINER: [u8; 4] = *b"TRNR";
const TAG_SOURCE: [u8; 4] = *b"SRC0";
const TAG_DEPTH: [u8; 4] = *b"DCTL";

/// Errors from writing or reading checkpoints.
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Bad magic/version/truncation/checksum; the message names the
    /// failing section.
    Format(String),
    /// Shape or configuration mismatch against the receiving model or
    /// trainer.
    Shape(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint i/o error: {e}"),
            CheckpointError::Format(m) => write!(f, "malformed checkpoint: {m}"),
            CheckpointError::Shape(m) => write!(f, "checkpoint shape mismatch: {m}"),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

// ---------------------------------------------------------------- CRC-32

const fn crc_table() -> [u32; 256] {
    const POLY: u32 = 0xEDB8_8320;
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

/// Slice-by-8 tables: `CRC_TABLES[k][b]` is the CRC of byte `b` followed
/// by `k` zero bytes, so eight input bytes fold in with eight independent
/// lookups instead of a chain of eight.
const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [crc_table(); 8];
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

const CRC_TABLES: [[u32; 256]; 8] = crc_tables();

/// One byte folded into a running (pre-inverted) CRC.
fn crc32_byte(crc: u32, b: u8) -> u32 {
    CRC_TABLES[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8)
}

/// CRC-32 (IEEE 802.3 polynomial, reflected) of `bytes`, eight bytes a
/// step.
fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    !words
        .remainder()
        .iter()
        .fold(crc, |crc, &b| crc32_byte(crc, b))
}

/// The bytewise CRC-32 [`crc32`] is held to.
#[cfg(test)]
fn crc32_bytewise(bytes: &[u8]) -> u32 {
    !bytes.iter().fold(0xFFFF_FFFF, |crc, &b| crc32_byte(crc, b))
}

// ------------------------------------------------------- payload cursor

/// Bounds-checked little-endian reader over one section's payload;
/// every error names the section.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
    section: &'static str,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8], section: &'static str) -> Self {
        Self {
            bytes,
            pos: 0,
            section,
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.bytes.len());
        let Some(end) = end else {
            return Err(CheckpointError::Format(format!(
                "{}: truncated payload (need {} bytes at offset {}, have {})",
                self.section,
                n,
                self.pos,
                self.bytes.len() - self.pos
            )));
        };
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, CheckpointError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, CheckpointError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn f32(&mut self) -> Result<f32, CheckpointError> {
        let b = self.take(4)?;
        Ok(f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn f32s(&mut self, n: usize) -> Result<Vec<f32>, CheckpointError> {
        let bytes = n.checked_mul(4).ok_or_else(|| {
            CheckpointError::Format(format!("{}: element count overflows", self.section))
        })?;
        let raw = self.take(bytes)?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect())
    }

    fn finish(self) -> Result<(), CheckpointError> {
        if self.pos != self.bytes.len() {
            return Err(CheckpointError::Format(format!(
                "{}: {} trailing bytes in section",
                self.section,
                self.bytes.len() - self.pos
            )));
        }
        Ok(())
    }
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends `vals` as little-endian bytes: one reservation, then a stack
/// buffer at a time (1.5x the rate of an append per value).
fn put_f32s(out: &mut Vec<u8>, vals: &[f32]) {
    const CHUNK: usize = 1024;
    out.reserve(vals.len() * 4);
    let mut buf = [[0u8; 4]; CHUNK];
    for chunk in vals.chunks(CHUNK) {
        for (bytes, v) in buf.iter_mut().zip(chunk) {
            *bytes = v.to_le_bytes();
        }
        out.extend_from_slice(buf[..chunk.len()].as_flattened());
    }
}

// ------------------------------------------------------- staged parsing

#[derive(Debug)]
struct LayerSection {
    in_dim: usize,
    out_dim: usize,
    weights: Vec<f32>,
    bias: Vec<f32>,
}

#[derive(Debug)]
struct TableSection {
    rows: usize,
    dim: usize,
    data: Vec<f32>,
}

#[derive(Debug)]
struct ModelSection {
    bottom: Vec<LayerSection>,
    top: Vec<LayerSection>,
    tables: Vec<TableSection>,
}

#[derive(Debug)]
struct OptimSection {
    name: String,
    tables: Vec<Vec<u8>>,
}

#[derive(Debug)]
struct TrainerSection {
    steps: u64,
    lr: f32,
    mode: BackwardMode,
}

/// A fully parsed, checksum-verified checkpoint, staged in memory and
/// not yet applied to anything.
///
/// Produced by [`read_train_checkpoint`]; consumed by
/// [`TrainCheckpoint::apply_model`] (parameters only) or
/// [`TrainCheckpoint::restore_into`] (full training state). Staging is
/// what makes loading all-or-nothing: every parse/checksum failure
/// happens before the receiving model is touched, and shape validation
/// runs ahead of mutation.
#[derive(Debug)]
pub struct TrainCheckpoint {
    model: ModelSection,
    optim: Option<OptimSection>,
    trainer: Option<TrainerSection>,
    source: Option<SourceState>,
    depth: Option<usize>,
}

impl TrainCheckpoint {
    /// The trainer step count recorded in the checkpoint (`None` for a
    /// model-only checkpoint).
    pub fn steps(&self) -> Option<u64> {
        self.trainer.as_ref().map(|t| t.steps)
    }

    /// The backward mode the checkpoint was taken under (informational:
    /// both modes train bit-identically, so a checkpoint taken under one
    /// resumes under the other).
    pub fn mode(&self) -> Option<BackwardMode> {
        self.trainer.as_ref().map(|t| t.mode)
    }

    /// The batch source's resume state, if one was recorded.
    pub fn source_state(&self) -> Option<SourceState> {
        self.source
    }

    /// The training loop's lookahead depth, if one was recorded.
    pub fn depth(&self) -> Option<usize> {
        self.depth
    }

    /// Restores model parameters only, leaving `model` untouched on any
    /// failure (all shapes are validated before the first write).
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Shape`] when the checkpoint does not
    /// match the model architecture.
    pub fn apply_model(&self, model: &mut Dlrm) -> Result<(), CheckpointError> {
        self.validate_model(model)?;
        let apply_mlp =
            |mlp: &mut tcast_tensor::Mlp, layers: &[LayerSection]| -> Result<(), CheckpointError> {
                for (layer, saved) in mlp.layers_mut().iter_mut().zip(layers) {
                    let weight = tcast_tensor::Matrix::from_vec(
                        saved.in_dim,
                        saved.out_dim,
                        saved.weights.clone(),
                    )
                    .map_err(|e| CheckpointError::Shape(e.to_string()))?;
                    layer
                        .set_parameters(weight, saved.bias.clone())
                        .map_err(|e| CheckpointError::Shape(e.to_string()))?;
                }
                Ok(())
            };
        apply_mlp(model.bottom_mut(), &self.model.bottom)?;
        apply_mlp(model.top_mut(), &self.model.top)?;
        for (i, saved) in self.model.tables.iter().enumerate() {
            model
                .table_mut(i)
                .as_mut_slice()
                .copy_from_slice(&saved.data);
        }
        Ok(())
    }

    /// Restores *full* training state into `trainer`: model parameters,
    /// per-table optimizer slabs and the step counter. The trainer is
    /// untouched on any failure — optimizer payloads are decoded into
    /// fresh instances and every shape is validated before the first
    /// mutation.
    ///
    /// The receiving trainer must be freshly built with the same
    /// architecture, optimizer configuration and learning rate as the
    /// one that saved the checkpoint (the backward mode and execution
    /// schedule may differ: both are bit-identical).
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Format`] if the checkpoint is
    /// model-only or an optimizer payload is malformed, and
    /// [`CheckpointError::Shape`] on architecture/optimizer/learning
    /// rate mismatches.
    pub fn restore_into(&self, trainer: &mut Trainer) -> Result<(), CheckpointError> {
        let optim = self.optim.as_ref().ok_or_else(|| {
            CheckpointError::Format("missing OPTM section (model-only checkpoint)".into())
        })?;
        let tr = self.trainer.as_ref().ok_or_else(|| {
            CheckpointError::Format("missing TRNR section (model-only checkpoint)".into())
        })?;
        let name = optimizer_name(trainer);
        if optim.name != name {
            return Err(CheckpointError::Shape(format!(
                "checkpoint optimizer {:?}, trainer {name:?}",
                optim.name
            )));
        }
        if optim.tables.len() != trainer.model().num_tables() {
            return Err(CheckpointError::Shape(format!(
                "OPTM: checkpoint has {} optimizer states, model has {} tables",
                optim.tables.len(),
                trainer.model().num_tables()
            )));
        }
        if tr.lr.to_bits() != trainer.learning_rate().to_bits() {
            return Err(CheckpointError::Shape(format!(
                "checkpoint learning rate {}, trainer {}",
                tr.lr,
                trainer.learning_rate()
            )));
        }
        // Decode optimizer payloads into fresh instances first: no
        // trainer state is touched until every section has applied
        // cleanly in staging.
        let mut restored = Vec::with_capacity(optim.tables.len());
        for (i, payload) in optim.tables.iter().enumerate() {
            // The payload is the table's one state slab, keyed by table
            // row.
            let mut opt = trainer.fresh_table_optimizer();
            opt.load_state(payload)
                .map_err(|e| CheckpointError::Format(format!("OPTM: table {i}: {e}")))?;
            restored.push(opt);
        }
        self.apply_model(trainer.model_mut())?;
        trainer.install_restored(restored, tr.steps);
        Ok(())
    }

    fn validate_model(&self, model: &Dlrm) -> Result<(), CheckpointError> {
        for (mlp, layers, which) in [
            (model.bottom(), &self.model.bottom, "bottom"),
            (model.top(), &self.model.top, "top"),
        ] {
            if mlp.depth() != layers.len() {
                return Err(CheckpointError::Shape(format!(
                    "checkpoint {which} MLP depth {}, model {}",
                    layers.len(),
                    mlp.depth()
                )));
            }
            for (layer, saved) in mlp.layers().iter().zip(layers) {
                if layer.in_dim() != saved.in_dim || layer.out_dim() != saved.out_dim {
                    return Err(CheckpointError::Shape(format!(
                        "checkpoint {which} layer {}x{}, model {}x{}",
                        saved.in_dim,
                        saved.out_dim,
                        layer.in_dim(),
                        layer.out_dim()
                    )));
                }
            }
        }
        if self.model.tables.len() != model.num_tables() {
            return Err(CheckpointError::Shape(format!(
                "checkpoint has {} tables, model has {}",
                self.model.tables.len(),
                model.num_tables()
            )));
        }
        for (i, saved) in self.model.tables.iter().enumerate() {
            let t = model.table(i);
            if saved.rows != t.rows() || saved.dim != t.dim() {
                return Err(CheckpointError::Shape(format!(
                    "table {i}: checkpoint {}x{}, model {}x{}",
                    saved.rows,
                    saved.dim,
                    t.rows(),
                    t.dim()
                )));
            }
        }
        Ok(())
    }
}

// --------------------------------------------------------------- saving

fn write_section(w: &mut impl Write, tag: [u8; 4], payload: &[u8]) -> Result<(), CheckpointError> {
    w.write_all(&tag)?;
    w.write_all(&(payload.len() as u64).to_le_bytes())?;
    w.write_all(&crc32(payload).to_le_bytes())?;
    w.write_all(payload)?;
    Ok(())
}

fn model_payload(model: &Dlrm) -> Vec<u8> {
    // Every parameter, plus a few header words a layer and a table.
    let mut out = Vec::with_capacity(4 * model.parameter_count() + 1024);
    for mlp in [model.bottom(), model.top()] {
        put_u32(&mut out, mlp.depth() as u32);
        for layer in mlp.layers() {
            put_u32(&mut out, layer.in_dim() as u32);
            put_u32(&mut out, layer.out_dim() as u32);
            put_f32s(&mut out, layer.weight().as_slice());
            put_f32s(&mut out, layer.bias());
        }
    }
    put_u32(&mut out, model.num_tables() as u32);
    for i in 0..model.num_tables() {
        let t = model.table(i);
        put_u32(&mut out, t.rows() as u32);
        put_u32(&mut out, t.dim() as u32);
        put_f32s(&mut out, t.as_slice());
    }
    out
}

/// The name the `OPTM` section records for the trainer's update rule.
fn optimizer_name(trainer: &Trainer) -> &'static str {
    let rule = trainer.optimizer_config().build(trainer.learning_rate());
    rule.name()
}

fn optim_payload(trainer: &Trainer) -> Vec<u8> {
    let mut out = Vec::new();
    let optimizers = trainer.table_optimizers();
    let name = optimizer_name(trainer);
    put_u32(&mut out, name.len() as u32);
    out.extend_from_slice(name.as_bytes());
    put_u32(&mut out, optimizers.len() as u32);
    let mut state = Vec::new();
    for opt in optimizers {
        state.clear();
        opt.save_state(&mut state);
        put_u64(&mut out, state.len() as u64);
        out.extend_from_slice(&state);
    }
    out
}

fn trainer_payload(trainer: &Trainer) -> Vec<u8> {
    let mut out = Vec::new();
    put_u64(&mut out, trainer.steps());
    out.extend_from_slice(&trainer.learning_rate().to_le_bytes());
    out.push(match trainer.mode() {
        BackwardMode::Baseline => 0,
        BackwardMode::Casted => 1,
    });
    out
}

fn source_payload(state: &SourceState) -> Vec<u8> {
    let mut out = Vec::new();
    match *state {
        SourceState::Synthetic { rng_state, batches } => {
            out.push(0);
            put_u64(&mut out, rng_state);
            put_u64(&mut out, batches);
        }
        SourceState::TraceReplay { cursor, rng_state } => {
            out.push(1);
            put_u64(&mut out, cursor);
            put_u64(&mut out, rng_state);
        }
    }
    out
}

/// Serializes model parameters only (a `MODL`-section checkpoint) — the
/// inference/serving checkpoint form.
///
/// # Errors
///
/// Returns [`CheckpointError::Io`] on write failure.
pub fn save_checkpoint(w: &mut impl Write, model: &Dlrm) -> Result<(), CheckpointError> {
    w.write_all(MAGIC)?;
    w.write_all(&VERSION.to_le_bytes())?;
    write_section(w, TAG_MODEL, &model_payload(model))
}

/// Serializes *full* training state: model parameters, per-table
/// optimizer slabs, the trainer's step counter, and (optionally) the
/// batch source's resume state and the training loop's lookahead depth.
///
/// # Errors
///
/// Returns [`CheckpointError::Io`] on write failure.
pub fn save_train_checkpoint(
    w: &mut impl Write,
    trainer: &Trainer,
    source: Option<&SourceState>,
    depth: Option<usize>,
) -> Result<(), CheckpointError> {
    w.write_all(MAGIC)?;
    w.write_all(&VERSION.to_le_bytes())?;
    write_section(w, TAG_MODEL, &model_payload(trainer.model()))?;
    write_section(w, TAG_OPTIM, &optim_payload(trainer))?;
    write_section(w, TAG_TRAINER, &trainer_payload(trainer))?;
    if let Some(state) = source {
        write_section(w, TAG_SOURCE, &source_payload(state))?;
    }
    if let Some(depth) = depth {
        write_section(w, TAG_DEPTH, &(depth as u64).to_le_bytes())?;
    }
    Ok(())
}

// -------------------------------------------------------------- loading

fn parse_mlp(c: &mut Cursor<'_>) -> Result<Vec<LayerSection>, CheckpointError> {
    let depth = c.u32()? as usize;
    if depth > 1024 {
        return Err(CheckpointError::Format(format!(
            "MODL: implausible MLP depth {depth}"
        )));
    }
    let mut layers = Vec::with_capacity(depth);
    for _ in 0..depth {
        let in_dim = c.u32()? as usize;
        let out_dim = c.u32()? as usize;
        let elems = in_dim
            .checked_mul(out_dim)
            .ok_or_else(|| CheckpointError::Format("MODL: layer size overflows".into()))?;
        let weights = c.f32s(elems)?;
        let bias = c.f32s(out_dim)?;
        layers.push(LayerSection {
            in_dim,
            out_dim,
            weights,
            bias,
        });
    }
    Ok(layers)
}

fn parse_model(payload: &[u8]) -> Result<ModelSection, CheckpointError> {
    let mut c = Cursor::new(payload, "MODL");
    let bottom = parse_mlp(&mut c)?;
    let top = parse_mlp(&mut c)?;
    let count = c.u32()? as usize;
    let mut tables = Vec::with_capacity(count.min(4096));
    for _ in 0..count {
        let rows = c.u32()? as usize;
        let dim = c.u32()? as usize;
        let elems = rows
            .checked_mul(dim)
            .ok_or_else(|| CheckpointError::Format("MODL: table size overflows".into()))?;
        let data = c.f32s(elems)?;
        tables.push(TableSection { rows, dim, data });
    }
    c.finish()?;
    Ok(ModelSection {
        bottom,
        top,
        tables,
    })
}

fn parse_optim(payload: &[u8]) -> Result<OptimSection, CheckpointError> {
    let mut c = Cursor::new(payload, "OPTM");
    let name_len = c.u32()? as usize;
    let name = String::from_utf8(c.take(name_len)?.to_vec())
        .map_err(|_| CheckpointError::Format("OPTM: optimizer name is not UTF-8".into()))?;
    let count = c.u32()? as usize;
    let mut tables = Vec::with_capacity(count.min(4096));
    for _ in 0..count {
        let len = c.u64()?;
        let len = usize::try_from(len)
            .map_err(|_| CheckpointError::Format("OPTM: state length overflows".into()))?;
        tables.push(c.take(len)?.to_vec());
    }
    c.finish()?;
    Ok(OptimSection { name, tables })
}

fn parse_trainer(payload: &[u8]) -> Result<TrainerSection, CheckpointError> {
    let mut c = Cursor::new(payload, "TRNR");
    let steps = c.u64()?;
    let lr = c.f32()?;
    let mode = match c.u8()? {
        0 => BackwardMode::Baseline,
        1 => BackwardMode::Casted,
        other => {
            return Err(CheckpointError::Format(format!(
                "TRNR: unknown backward mode {other}"
            )))
        }
    };
    c.finish()?;
    Ok(TrainerSection { steps, lr, mode })
}

fn parse_source(payload: &[u8]) -> Result<SourceState, CheckpointError> {
    let mut c = Cursor::new(payload, "SRC0");
    let state = match c.u8()? {
        0 => SourceState::Synthetic {
            rng_state: c.u64()?,
            batches: c.u64()?,
        },
        1 => SourceState::TraceReplay {
            cursor: c.u64()?,
            rng_state: c.u64()?,
        },
        other => {
            return Err(CheckpointError::Format(format!(
                "SRC0: unknown source variant {other}"
            )))
        }
    };
    c.finish()?;
    Ok(state)
}

fn parse_depth(payload: &[u8]) -> Result<usize, CheckpointError> {
    let mut c = Cursor::new(payload, "DCTL");
    let depth = c.u64()?;
    c.finish()?;
    // The resumed loop sizes its queue from this.
    if depth > 1024 {
        return Err(CheckpointError::Format(format!(
            "DCTL: implausible depth {depth}"
        )));
    }
    Ok(depth as usize)
}

fn tag_name(tag: &[u8; 4]) -> String {
    match std::str::from_utf8(tag) {
        Ok(s) if s.bytes().all(|b| b.is_ascii_graphic()) => s.to_string(),
        _ => format!("{tag:?}"),
    }
}

/// Reads and fully verifies a checkpoint into a staged
/// [`TrainCheckpoint`] without touching any model: every section is
/// length- and CRC-checked, unknown/duplicate sections and trailing
/// garbage are rejected, and format errors name the failing section.
///
/// # Errors
///
/// Returns [`CheckpointError::Io`] on read failure and
/// [`CheckpointError::Format`] on any corruption.
pub fn read_train_checkpoint(r: &mut impl Read) -> Result<TrainCheckpoint, CheckpointError> {
    let mut buf = Vec::new();
    r.read_to_end(&mut buf)?;
    if buf.len() < 8 {
        return Err(CheckpointError::Format("file shorter than header".into()));
    }
    if &buf[..4] != MAGIC {
        return Err(CheckpointError::Format(format!(
            "bad magic {:?}",
            &buf[..4]
        )));
    }
    let version = u32::from_le_bytes([buf[4], buf[5], buf[6], buf[7]]);
    if version != VERSION {
        return Err(CheckpointError::Format(format!(
            "unsupported version {version}"
        )));
    }

    let mut model = None;
    let mut optim = None;
    let mut trainer = None;
    let mut source = None;
    let mut depth = None;
    let mut pos = 8;
    while pos < buf.len() {
        if buf.len() - pos < 16 {
            return Err(CheckpointError::Format(format!(
                "trailing garbage: {} stray bytes after last section",
                buf.len() - pos
            )));
        }
        let tag: [u8; 4] = buf[pos..pos + 4].try_into().expect("4 bytes");
        let name = tag_name(&tag);
        let len = u64::from_le_bytes(buf[pos + 4..pos + 12].try_into().expect("8 bytes"));
        let stored_crc = u32::from_le_bytes(buf[pos + 12..pos + 16].try_into().expect("4 bytes"));
        let len = usize::try_from(len)
            .ok()
            .filter(|&l| l <= buf.len() - pos - 16)
            .ok_or_else(|| {
                CheckpointError::Format(format!(
                    "{name}: truncated payload (section claims {len} bytes, {} remain)",
                    buf.len() - pos - 16
                ))
            })?;
        let payload = &buf[pos + 16..pos + 16 + len];
        let computed = crc32(payload);
        if computed != stored_crc {
            return Err(CheckpointError::Format(format!(
                "{name}: checksum mismatch (stored {stored_crc:#010x}, computed {computed:#010x})"
            )));
        }
        match tag {
            TAG_MODEL => {
                if model.replace(parse_model(payload)?).is_some() {
                    return Err(CheckpointError::Format("MODL: duplicate section".into()));
                }
            }
            TAG_OPTIM => {
                if optim.replace(parse_optim(payload)?).is_some() {
                    return Err(CheckpointError::Format("OPTM: duplicate section".into()));
                }
            }
            TAG_TRAINER => {
                if trainer.replace(parse_trainer(payload)?).is_some() {
                    return Err(CheckpointError::Format("TRNR: duplicate section".into()));
                }
            }
            TAG_SOURCE => {
                if source.replace(parse_source(payload)?).is_some() {
                    return Err(CheckpointError::Format("SRC0: duplicate section".into()));
                }
            }
            TAG_DEPTH => {
                if depth.replace(parse_depth(payload)?).is_some() {
                    return Err(CheckpointError::Format("DCTL: duplicate section".into()));
                }
            }
            _ => {
                return Err(CheckpointError::Format(format!(
                    "unknown section tag {name}"
                )));
            }
        }
        pos += 16 + len;
    }
    let model = model.ok_or_else(|| CheckpointError::Format("missing MODL section".into()))?;
    Ok(TrainCheckpoint {
        model,
        optim,
        trainer,
        source,
        depth,
    })
}

/// Restores model parameters from a checkpoint written by
/// [`save_checkpoint`] or [`save_train_checkpoint`].
///
/// Loading is staged: on *any* failure — corruption, truncation,
/// checksum mismatch, trailing garbage, or architecture mismatch —
/// `model` is left byte-identical to what it was.
///
/// # Errors
///
/// Returns [`CheckpointError::Format`] on corruption (naming the
/// failing section) or [`CheckpointError::Shape`] when the checkpoint
/// does not match the model architecture.
pub fn load_checkpoint(r: &mut impl Read, model: &mut Dlrm) -> Result<(), CheckpointError> {
    read_train_checkpoint(r)?.apply_model(model)
}

// ------------------------------------------------------ CheckpointStore

/// A versioned checkpoint directory with an atomic write protocol and
/// bounded retention.
///
/// Every [`CheckpointStore::save`] writes `ckpt-<steps>.tckp` via
/// temp-file + fsync + rename + directory fsync, so a crash mid-write
/// can never leave a torn file under a valid checkpoint name; the
/// newest `retain` checkpoints are kept and older ones pruned.
///
/// For fault-injection testing, [`CheckpointStore::set_fault_plan`]
/// wires a [`FaultPlan`] into the write path at sites
/// `"checkpoint.open"`, `"checkpoint.write"`, `"checkpoint.fsync"` and
/// `"checkpoint.rename"`; an injected fault surfaces as
/// [`CheckpointError::Io`] and the temp file is cleaned up, leaving
/// previously committed checkpoints intact.
#[derive(Debug)]
pub struct CheckpointStore {
    dir: PathBuf,
    retain: usize,
    fault: Option<FaultPlan>,
}

impl CheckpointStore {
    /// Opens (creating if needed) a checkpoint directory keeping the
    /// newest `retain` checkpoints.
    ///
    /// # Errors
    ///
    /// Returns an error if the directory cannot be created.
    ///
    /// # Panics
    ///
    /// Panics if `retain` is zero (a store that keeps nothing cannot
    /// resume anything).
    pub fn new(dir: impl Into<PathBuf>, retain: usize) -> io::Result<Self> {
        assert!(retain > 0, "retain at least one checkpoint");
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(Self {
            dir,
            retain,
            fault: None,
        })
    }

    /// The directory this store writes into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Arms deterministic fault injection on the write path (testing).
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault = Some(plan);
    }

    fn injected(&self, site: &str) -> Result<(), CheckpointError> {
        if let Some(plan) = &self.fault {
            if plan.should_fail(site) {
                return Err(CheckpointError::Io(io::Error::other(format!(
                    "injected I/O fault at {site}"
                ))));
            }
        }
        Ok(())
    }

    /// Saves full training state as `ckpt-<steps>.tckp`, atomically,
    /// then prunes beyond the retention bound. Returns the committed
    /// path.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Io`] on any I/O failure; the
    /// temporary file is removed and previously committed checkpoints
    /// are untouched.
    pub fn save(
        &self,
        trainer: &Trainer,
        source: Option<&SourceState>,
        depth: Option<usize>,
    ) -> Result<PathBuf, CheckpointError> {
        let name = format!("ckpt-{:012}.tckp", trainer.steps());
        let tmp = self.dir.join(format!(".{name}.tmp"));
        let path = self.dir.join(&name);
        let result = self.write_atomic(&tmp, &path, trainer, source, depth);
        if result.is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
        result?;
        self.prune()?;
        Ok(path)
    }

    fn write_atomic(
        &self,
        tmp: &Path,
        path: &Path,
        trainer: &Trainer,
        source: Option<&SourceState>,
        depth: Option<usize>,
    ) -> Result<(), CheckpointError> {
        let mut bytes = Vec::new();
        save_train_checkpoint(&mut bytes, trainer, source, depth)?;
        self.injected("checkpoint.open")?;
        let file = std::fs::File::create(tmp)?;
        let mut writer = match &self.fault {
            Some(plan) => FaultyWrite::new(file, plan.clone(), "checkpoint.write"),
            None => FaultyWrite::new(file, FaultPlan::new(), "checkpoint.write"),
        };
        // Chunked writes give the torn-write fault site multiple
        // occurrences to arm, matching how real checkpoints stream out.
        for chunk in bytes.chunks(64 * 1024) {
            writer.write_all(chunk)?;
        }
        let file = writer.into_inner();
        self.injected("checkpoint.fsync")?;
        file.sync_all()?;
        drop(file);
        self.injected("checkpoint.rename")?;
        std::fs::rename(tmp, path)?;
        // Persist the rename itself: fsync the directory entry.
        if let Ok(dir) = std::fs::File::open(&self.dir) {
            let _ = dir.sync_all();
        }
        Ok(())
    }

    /// All committed checkpoints, oldest first.
    ///
    /// # Errors
    ///
    /// Returns an error if the directory cannot be read.
    pub fn list(&self) -> io::Result<Vec<PathBuf>> {
        let mut found = Vec::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let path = entry?.path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name.starts_with("ckpt-") && name.ends_with(".tckp") {
                found.push(path);
            }
        }
        found.sort();
        Ok(found)
    }

    /// The newest committed checkpoint, if any.
    ///
    /// # Errors
    ///
    /// Returns an error if the directory cannot be read.
    pub fn latest(&self) -> io::Result<Option<PathBuf>> {
        Ok(self.list()?.pop())
    }

    fn prune(&self) -> Result<(), CheckpointError> {
        let list = self.list()?;
        if list.len() > self.retain {
            for old in &list[..list.len() - self.retain] {
                std::fs::remove_file(old)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DlrmConfig;
    use crate::trainer::EmbeddingOptimizer;
    use tcast_datasets::SyntheticCtr;

    fn data(seed: u64) -> SyntheticCtr {
        let cfg = DlrmConfig::tiny();
        SyntheticCtr::new(cfg.table_workloads(), cfg.dense_features, seed)
    }

    #[test]
    fn sliced_crc_matches_the_bytewise_reference() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926, "the IEEE check value");
        let mut rng = tcast_tensor::SplitMix64::new(32);
        let bytes: Vec<u8> = (0..1000).map(|_| rng.next_below(256) as u8).collect();
        // Every length around the 8-byte step, at every alignment.
        for start in 0..8 {
            for len in (0..40).chain([991, 992]) {
                let piece = &bytes[start..start + len];
                assert_eq!(crc32(piece), crc32_bytewise(piece), "{start}+{len}");
            }
        }
    }

    fn adam() -> EmbeddingOptimizer {
        EmbeddingOptimizer::Adam {
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
        }
    }

    fn trained_trainer(steps: usize) -> Trainer {
        let mut trainer =
            Trainer::with_optimizer(DlrmConfig::tiny(), BackwardMode::Baseline, adam(), 7).unwrap();
        let mut stream = data(11);
        for _ in 0..steps {
            trainer.step(&stream.next_batch(16)).unwrap();
        }
        trainer
    }

    fn trained_model() -> Dlrm {
        let trainer = trained_trainer(3);
        let mut fresh = Dlrm::new(DlrmConfig::tiny(), 999).unwrap();
        let mut buf = Vec::new();
        save_checkpoint(&mut buf, trainer.model()).unwrap();
        load_checkpoint(&mut buf.as_slice(), &mut fresh).unwrap();
        fresh
    }

    fn table_bits(model: &Dlrm) -> Vec<u32> {
        (0..model.num_tables())
            .flat_map(|i| model.table(i).as_slice().iter().map(|v| v.to_bits()))
            .collect()
    }

    #[test]
    fn save_load_roundtrip_preserves_predictions() {
        let model = trained_model();
        let mut buf = Vec::new();
        save_checkpoint(&mut buf, &model).unwrap();
        let mut restored = Dlrm::new(DlrmConfig::tiny(), 123).unwrap();
        load_checkpoint(&mut buf.as_slice(), &mut restored).unwrap();

        let cfg = DlrmConfig::tiny();
        let batch = SyntheticCtr::new(cfg.table_workloads(), cfg.dense_features, 5).next_batch(32);
        let a = model.predict(&batch.dense, &batch.indices).unwrap();
        let b = restored.predict(&batch.dense, &batch.indices).unwrap();
        assert_eq!(a.as_slice(), b.as_slice());
    }

    #[test]
    fn full_train_checkpoint_resumes_bit_identically() {
        // Save at step 3, restore into a FRESH trainer, continue both 4
        // steps on the same stream suffix: losses and weights must match
        // to the bit. This is the module-level core of the resume
        // invariant (tests/checkpoint_resume.rs sweeps the full matrix).
        let mk = || {
            Trainer::with_optimizer(DlrmConfig::tiny(), BackwardMode::Baseline, adam(), 7).unwrap()
        };
        let mut original = mk();
        let mut stream = data(11);
        for _ in 0..3 {
            original.step(&stream.next_batch(16)).unwrap();
        }
        let mut buf = Vec::new();
        save_train_checkpoint(&mut buf, &original, None, None).unwrap();

        let mut resumed = mk();
        let ckpt = read_train_checkpoint(&mut buf.as_slice()).unwrap();
        assert_eq!(ckpt.steps(), Some(3));
        assert_eq!(ckpt.mode(), Some(BackwardMode::Baseline));
        ckpt.restore_into(&mut resumed).unwrap();
        assert_eq!(resumed.steps(), 3);

        for step in 0..4 {
            let batch = stream.next_batch(16);
            let a = original.step(&batch).unwrap();
            let b = resumed.step(&batch).unwrap();
            assert_eq!(
                a.loss.to_bits(),
                b.loss.to_bits(),
                "loss diverged at post-resume step {step}"
            );
        }
        assert_eq!(table_bits(original.model()), table_bits(resumed.model()));
    }

    #[test]
    fn restore_rejects_mismatched_optimizer_and_lr() {
        let trainer = trained_trainer(2);
        let mut buf = Vec::new();
        save_train_checkpoint(&mut buf, &trainer, None, None).unwrap();
        let ckpt = read_train_checkpoint(&mut buf.as_slice()).unwrap();

        // Wrong optimizer family.
        let mut sgd = Trainer::new(DlrmConfig::tiny(), BackwardMode::Baseline, 7).unwrap();
        assert!(matches!(
            ckpt.restore_into(&mut sgd),
            Err(CheckpointError::Shape(_))
        ));

        // Wrong learning rate.
        let mut wrong_lr =
            Trainer::with_optimizer(DlrmConfig::tiny(), BackwardMode::Baseline, adam(), 7).unwrap();
        wrong_lr.set_learning_rate(0.01);
        assert!(matches!(
            ckpt.restore_into(&mut wrong_lr),
            Err(CheckpointError::Shape(_))
        ));
    }

    #[test]
    fn bad_magic_rejected() {
        let model = trained_model();
        let mut buf = Vec::new();
        save_checkpoint(&mut buf, &model).unwrap();
        buf[0] = b'Z';
        let mut m = Dlrm::new(DlrmConfig::tiny(), 1).unwrap();
        assert!(matches!(
            load_checkpoint(&mut buf.as_slice(), &mut m),
            Err(CheckpointError::Format(_))
        ));
    }

    #[test]
    fn truncation_rejected() {
        let model = trained_model();
        let mut buf = Vec::new();
        save_checkpoint(&mut buf, &model).unwrap();
        buf.truncate(buf.len() / 2);
        let mut m = Dlrm::new(DlrmConfig::tiny(), 1).unwrap();
        assert!(matches!(
            load_checkpoint(&mut buf.as_slice(), &mut m),
            Err(CheckpointError::Format(_))
        ));
    }

    #[test]
    fn trailing_garbage_rejected() {
        let model = trained_model();
        let mut buf = Vec::new();
        save_checkpoint(&mut buf, &model).unwrap();
        buf.push(0xAB);
        let mut m = Dlrm::new(DlrmConfig::tiny(), 1).unwrap();
        let before = table_bits(&m);
        let err = load_checkpoint(&mut buf.as_slice(), &mut m).unwrap_err();
        assert!(
            err.to_string().contains("trailing garbage"),
            "unexpected error: {err}"
        );
        assert_eq!(table_bits(&m), before, "model must be untouched");
    }

    #[test]
    fn corruption_names_the_failing_section() {
        let model = trained_model();
        let mut buf = Vec::new();
        save_checkpoint(&mut buf, &model).unwrap();
        // Flip a payload byte well inside the MODL section.
        let at = buf.len() / 2;
        buf[at] ^= 0xFF;
        let mut m = Dlrm::new(DlrmConfig::tiny(), 1).unwrap();
        let err = load_checkpoint(&mut buf.as_slice(), &mut m).unwrap_err();
        assert!(
            err.to_string().contains("MODL"),
            "error must name the section: {err}"
        );
    }

    #[test]
    fn wrong_architecture_rejected_and_model_untouched() {
        let model = trained_model();
        let mut buf = Vec::new();
        save_checkpoint(&mut buf, &model).unwrap();
        let mut other_cfg = DlrmConfig::tiny();
        other_cfg.tables[0].rows += 1;
        let mut m = Dlrm::new(other_cfg, 1).unwrap();
        let before = table_bits(&m);
        assert!(matches!(
            load_checkpoint(&mut buf.as_slice(), &mut m),
            Err(CheckpointError::Shape(_))
        ));
        assert_eq!(
            table_bits(&m),
            before,
            "staged loading must not touch a mismatched model"
        );
    }

    #[test]
    fn error_display() {
        let e = CheckpointError::Shape("oops".into());
        assert!(e.to_string().contains("oops"));
    }

    #[test]
    fn store_commits_versioned_checkpoints_and_prunes() {
        let dir = std::env::temp_dir().join(format!("tckp-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = CheckpointStore::new(&dir, 2).unwrap();
        let mut trainer = trained_trainer(0);
        let mut stream = data(3);
        for _ in 0..3 {
            trainer.step(&stream.next_batch(8)).unwrap();
            store.save(&trainer, None, None).unwrap();
        }
        let list = store.list().unwrap();
        assert_eq!(list.len(), 2, "retention must prune to 2: {list:?}");
        let latest = store.latest().unwrap().unwrap();
        assert!(latest.to_string_lossy().contains("ckpt-000000000003"));
        // The committed file loads cleanly.
        let mut f = std::fs::File::open(&latest).unwrap();
        let ckpt = read_train_checkpoint(&mut f).unwrap();
        assert_eq!(ckpt.steps(), Some(3));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn injected_write_fault_leaves_no_torn_checkpoint() {
        let dir = std::env::temp_dir().join(format!("tckp-fault-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut store = CheckpointStore::new(&dir, 3).unwrap();
        let plan = FaultPlan::new();
        plan.arm("checkpoint.write", 0);
        store.set_fault_plan(plan.clone());
        let trainer = trained_trainer(1);
        let err = store.save(&trainer, None, None).unwrap_err();
        assert!(matches!(err, CheckpointError::Io(_)), "got {err}");
        assert!(
            store.list().unwrap().is_empty(),
            "no checkpoint may be committed"
        );
        assert!(
            std::fs::read_dir(&dir).unwrap().next().is_none(),
            "temp file must be cleaned up"
        );
        assert_eq!(plan.fired(), vec![("checkpoint.write".to_string(), 0)]);
        // The next save (fault disarmed) succeeds.
        store.save(&trainer, None, None).unwrap();
        assert_eq!(store.list().unwrap().len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn source_and_controller_sections_roundtrip() {
        let trainer = trained_trainer(2);
        let src = SourceState::Synthetic {
            rng_state: 0xDEAD_BEEF_CAFE_F00D,
            batches: 42,
        };
        let mut buf = Vec::new();
        save_train_checkpoint(&mut buf, &trainer, Some(&src), Some(3)).unwrap();
        let ckpt = read_train_checkpoint(&mut buf.as_slice()).unwrap();
        assert_eq!(ckpt.source_state(), Some(src));
        assert_eq!(ckpt.depth(), Some(3));
    }

    #[test]
    fn depth_section_holds_one_plausible_depth() {
        let trainer = trained_trainer(1);
        let mut plain = Vec::new();
        save_train_checkpoint(&mut plain, &trainer, None, None).unwrap();
        let with_payload = |payload: &[u8]| {
            let mut buf = plain.clone();
            write_section(&mut buf, TAG_DEPTH, payload).unwrap();
            read_train_checkpoint(&mut buf.as_slice())
        };

        assert_eq!(
            with_payload(&1024u64.to_le_bytes()).unwrap().depth(),
            Some(1024)
        );
        let err = with_payload(&1025u64.to_le_bytes()).unwrap_err();
        assert!(
            matches!(&err, CheckpointError::Format(m) if m == "DCTL: implausible depth 1025"),
            "got {err}"
        );
        // The 49-byte payload earlier version-2 checkpoints wrote here (six
        // u64 counters and a flag byte) is not a depth.
        let err = with_payload(&[0u8; 49]).unwrap_err();
        assert!(
            matches!(&err, CheckpointError::Format(m) if m.contains("DCTL")),
            "got {err}"
        );
    }
}
