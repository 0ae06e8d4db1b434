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
//! `MODL` (model parameters) is always present; a training checkpoint
//! adds `OPTM` (the rule's name, then one state a table: each plane's
//! width, rows, values and touched flags, then Adam's step counts) and
//! `TRNR` (step counter, learning rate, backward mode), and optionally
//! `SRC0` (batch-source resume state) and `DCTL` (the `TrainLoop`'s
//! lookahead depth, one `u64`, at most 1024). Everything is
//! little-endian, and only this module knows the bytes: the optimizer
//! shows its state read-only and takes it back through one checking
//! constructor.
//!
//! Saving streams each section twice through one chunk buffer — into its
//! CRC and length, then into the writer — so no copy of the model is
//! built. Loading is staged: the file is read into one buffer and every
//! section CRC-checked and parsed to shapes and offsets;
//! [`TrainCheckpoint::restore_into`] then checks every shape against the
//! trainer and decodes the optimizer state into fresh optimizers before
//! it decodes the parameters straight into the live model — so a failed
//! load of any kind leaves the trainer byte-identical. Trailing bytes,
//! unknown or duplicate section tags, checksum mismatches and truncations
//! all fail cleanly, and every [`CheckpointError::Format`] names the
//! section at fault.
//!
//! [`CheckpointStore`] adds the durability protocol: write to a
//! temporary file, fsync, atomically rename into a versioned
//! `ckpt-<steps>.tckp` name, fsync the directory, prune old versions —
//! so a crash at any instant leaves either the old checkpoint set or
//! the new one, never a half-written file under a valid name.

use crate::model::Dlrm;
use crate::trainer::{BackwardMode, Trainer};
use std::io::{self, Read, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};
use tcast_core::{FaultPlan, FaultyWrite};
use tcast_datasets::SourceState;
use tcast_embedding::optim::{RowOptimizer, UpdateRule};
use tcast_tensor::{Matrix, Mlp};

const MAGIC: &[u8; 4] = b"TCKP";
const VERSION: u32 = 2;

const TAG_MODEL: [u8; 4] = *b"MODL";
const TAG_OPTIM: [u8; 4] = *b"OPTM";
const TAG_TRAINER: [u8; 4] = *b"TRNR";
const TAG_SOURCE: [u8; 4] = *b"SRC0";
const TAG_DEPTH: [u8; 4] = *b"DCTL";

/// Bytes a payload passes through at a time, on its CRC pass and on its
/// write pass: a saved file goes out in writes of about this size.
const CHUNK: usize = 64 * 1024;

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

/// The CRC-32 (IEEE 802.3 polynomial, reflected) of the bytes `crc` is the
/// CRC of, followed by `bytes`, eight bytes a step: `crc32(0, a)` is `a`'s
/// CRC, and `crc32(crc32(0, a), b)` is that of `a` then `b`.
fn crc32(crc: u32, bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = !crc;
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

// --------------------------------------------------------------- saving

/// A little-endian encoder that hands its bytes on a [`CHUNK`] at a time:
/// to the writer, or — on a section's CRC pass, with no writer — into the
/// section's running CRC and length.
struct Emit<'c, 'w> {
    chunk: &'c mut [u8],
    fill: usize,
    out: Option<&'w mut dyn Write>,
    crc: u32,
    len: u64,
}

impl<'c, 'w> Emit<'c, 'w> {
    fn new(chunk: &'c mut [u8], out: Option<&'w mut dyn Write>) -> Self {
        Self {
            chunk,
            fill: 0,
            out,
            crc: 0,
            len: 0,
        }
    }

    /// Appends `vals`, each as its `N` little-endian bytes.
    fn put<const N: usize, T: Copy>(
        &mut self,
        vals: &[T],
        le: impl Fn(T) -> [u8; N],
    ) -> io::Result<()> {
        let mut rest = vals;
        while !rest.is_empty() {
            if self.fill + N > self.chunk.len() {
                self.flush()?;
            }
            let n = ((self.chunk.len() - self.fill) / N).min(rest.len());
            let (now, later) = rest.split_at(n);
            let out = &mut self.chunk[self.fill..self.fill + n * N];
            for (bytes, &v) in out.chunks_exact_mut(N).zip(now) {
                bytes.copy_from_slice(&le(v));
            }
            self.fill += n * N;
            rest = later;
        }
        Ok(())
    }

    fn bytes(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.put(bytes, |b| [b])
    }

    fn u32(&mut self, v: u32) -> io::Result<()> {
        self.put(&[v], u32::to_le_bytes)
    }

    fn u64(&mut self, v: u64) -> io::Result<()> {
        self.put(&[v], u64::to_le_bytes)
    }

    /// Hands the buffered bytes on.
    fn flush(&mut self) -> io::Result<()> {
        let bytes = &self.chunk[..self.fill];
        match &mut self.out {
            Some(w) => w.write_all(bytes)?,
            None => {
                self.crc = crc32(self.crc, bytes);
                self.len += bytes.len() as u64;
            }
        }
        self.fill = 0;
        Ok(())
    }
}

/// A section of a checkpoint being saved.
#[derive(Clone, Copy)]
enum Section<'a> {
    Model,
    Optim,
    Trainer,
    Source(&'a SourceState),
    Depth(usize),
}

impl Section<'_> {
    /// Encodes the section's payload from `trainer`.
    fn emit(self, e: &mut Emit<'_, '_>, trainer: &Trainer) -> io::Result<()> {
        match self {
            Section::Model => emit_model(e, trainer.model()),
            Section::Optim => {
                let name = optimizer_rule(trainer).name();
                e.u32(name.len() as u32)?;
                e.bytes(name.as_bytes())?;
                let optimizers = trainer.table_optimizers();
                e.u32(optimizers.len() as u32)?;
                optimizers.iter().try_for_each(|opt| emit_state(e, opt))
            }
            Section::Trainer => {
                e.u64(trainer.steps())?;
                e.put(&[trainer.learning_rate()], f32::to_le_bytes)?;
                e.bytes(&[match trainer.mode() {
                    BackwardMode::Baseline => 0,
                    BackwardMode::Casted => 1,
                }])
            }
            Section::Source(&SourceState::Synthetic { rng_state, batches }) => {
                e.bytes(&[0])?;
                e.u64(rng_state)?;
                e.u64(batches)
            }
            Section::Source(&SourceState::TraceReplay { cursor, rng_state }) => {
                e.bytes(&[1])?;
                e.u64(cursor)?;
                e.u64(rng_state)
            }
            Section::Depth(depth) => e.u64(depth as u64),
        }
    }
}

fn emit_model(e: &mut Emit<'_, '_>, model: &Dlrm) -> io::Result<()> {
    for mlp in [model.bottom(), model.top()] {
        e.u32(mlp.depth() as u32)?;
        for layer in mlp.layers() {
            e.u32(layer.in_dim() as u32)?;
            e.u32(layer.out_dim() as u32)?;
            e.put(layer.weight().as_slice(), f32::to_le_bytes)?;
            e.put(layer.bias(), f32::to_le_bytes)?;
        }
    }
    e.u32(model.num_tables() as u32)?;
    for i in 0..model.num_tables() {
        let t = model.table(i);
        e.u32(t.rows() as u32)?;
        e.u32(t.dim() as u32)?;
        e.put(t.as_slice(), f32::to_le_bytes)?;
    }
    Ok(())
}

/// One table's optimizer state, its length first (from its shapes): each
/// plane's width, rows, values and touched flags, then — for a rule that
/// counts steps — the count of step counts and the counts. The whole slab
/// is saved, allocated-but-untouched rows included, so a restore grows
/// exactly as the uninterrupted run would.
fn emit_state(e: &mut Emit<'_, '_>, opt: &RowOptimizer) -> io::Result<()> {
    let planes: usize = opt
        .planes()
        .map(|(_, values, touched)| 16 + 4 * values.len() + touched.len())
        .sum();
    let steps = opt.step_counts().map_or(0, |s| 8 + 4 * s.len());
    e.u64((planes + steps) as u64)?;
    for (width, values, touched) in opt.planes() {
        e.u64(width as u64)?;
        e.u64(touched.len() as u64)?;
        e.put(values, f32::to_le_bytes)?;
        e.put(touched, |t| [t as u8])?;
    }
    if let Some(steps) = opt.step_counts() {
        e.u64(steps.len() as u64)?;
        e.put(steps, u32::to_le_bytes)?;
    }
    Ok(())
}

/// The trainer's update rule, as its tables' optimizers run it.
fn optimizer_rule(trainer: &Trainer) -> UpdateRule {
    trainer.optimizer_config().build(trainer.learning_rate())
}

/// Serializes *full* training state: model parameters, per-table
/// optimizer slabs, the trainer's step counter, and (optionally) the
/// batch source's resume state and the training loop's lookahead depth.
///
/// Streamed: each section is encoded once into its CRC and length and
/// once into `w`, through one chunk buffer, so saving holds no copy of
/// the model.
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
    let sections = [
        (TAG_MODEL, Some(Section::Model)),
        (TAG_OPTIM, Some(Section::Optim)),
        (TAG_TRAINER, Some(Section::Trainer)),
        (TAG_SOURCE, source.map(Section::Source)),
        (TAG_DEPTH, depth.map(Section::Depth)),
    ];
    let present = || sections.iter().filter_map(|&(tag, s)| Some((tag, s?)));
    let mut chunk = vec![0u8; CHUNK];
    let mut headers = [(0u64, 0u32); 5];
    for ((_, section), header) in present().zip(&mut headers) {
        let mut e = Emit::new(&mut chunk, None);
        section.emit(&mut e, trainer)?;
        e.flush()?;
        *header = (e.len, e.crc);
    }
    let mut e = Emit::new(&mut chunk, Some(w));
    e.bytes(MAGIC)?;
    e.u32(VERSION)?;
    for ((tag, section), &(len, crc)) in present().zip(&headers) {
        e.bytes(&tag)?;
        e.u64(len)?;
        e.u32(crc)?;
        section.emit(&mut e, trainer)?;
    }
    e.flush()?;
    Ok(())
}

// ------------------------------------------------------- staged parsing

/// Bounds-checked little-endian reader over one section of a file's
/// bytes; offsets are the file's, and every error names the section.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
    section: &'a str,
}

impl<'a> Cursor<'a> {
    /// A reader over `range` of `bytes`.
    fn new(bytes: &'a [u8], range: Range<usize>, section: &'a str) -> Self {
        let (bytes, pos) = (&bytes[..range.end], range.start);
        Self {
            bytes,
            pos,
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

    /// Skips `rows` x `cols` 4-byte words, returning where they start.
    fn words(&mut self, rows: usize, cols: usize) -> Result<usize, CheckpointError> {
        let at = self.pos;
        let bytes = rows.checked_mul(cols).and_then(|n| n.checked_mul(4));
        let bytes = bytes.ok_or_else(|| {
            CheckpointError::Format(format!("{}: element count overflows", self.section))
        })?;
        self.take(bytes)?;
        Ok(at)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], CheckpointError> {
        Ok(self.take(N)?.try_into().expect("took N bytes"))
    }

    fn u32(&mut self) -> Result<usize, CheckpointError> {
        Ok(u32::from_le_bytes(self.array()?) as usize)
    }

    fn u64(&mut self) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// A `u64` count, as a `usize`.
    fn len(&mut self) -> Result<usize, CheckpointError> {
        let n = self.u64()?;
        usize::try_from(n)
            .map_err(|_| CheckpointError::Format(format!("{}: count {n} overflows", self.section)))
    }

    fn finish(&self) -> Result<(), CheckpointError> {
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

/// The little-endian `N`-byte values from the start of `raw`.
fn decode<'a, const N: usize, T: 'a>(
    raw: &'a [u8],
    from: fn([u8; N]) -> T,
) -> impl Iterator<Item = T> + 'a {
    raw.chunks_exact(N)
        .map(move |c| from(c.try_into().expect("N bytes")))
}

/// A `MODL` block of `rows` x `cols` values and where in the file it
/// starts: a table, or a layer's `in x out` weights (its bias follows).
#[derive(Debug)]
struct Block {
    rows: usize,
    cols: usize,
    at: usize,
}

#[derive(Debug)]
struct ModelSection {
    bottom: Vec<Block>,
    top: Vec<Block>,
    tables: Vec<Block>,
}

/// The `OPTM` rule name, and where in the file each table's state lies.
#[derive(Debug)]
struct OptimSection {
    name: String,
    states: Vec<Range<usize>>,
}

#[derive(Debug)]
struct TrainerSection {
    steps: u64,
    lr: f32,
    mode: BackwardMode,
}

/// A read, checksum-verified checkpoint, not yet applied to anything: the
/// file's bytes, with every section parsed down to its shapes and
/// offsets.
///
/// Produced by [`read_train_checkpoint`]; consumed by
/// [`TrainCheckpoint::restore_into`], which checks every shape against
/// the receiving trainer and decodes the optimizer state into fresh
/// optimizers before it writes anything — so every failure leaves the
/// trainer untouched.
pub struct TrainCheckpoint {
    bytes: Vec<u8>,
    model: ModelSection,
    optim: Option<OptimSection>,
    trainer: Option<TrainerSection>,
    source: Option<SourceState>,
    depth: Option<usize>,
}

impl std::fmt::Debug for TrainCheckpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (len, steps) = (self.bytes.len(), self.steps());
        write!(f, "TrainCheckpoint {{ {len} bytes, steps {steps:?} }}")
    }
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

    /// Restores *full* training state into `trainer`: model parameters,
    /// per-table optimizer slabs and the step counter. The trainer is
    /// untouched on any failure: every shape is checked against it and
    /// the optimizer state is decoded into fresh optimizers first, and
    /// only then are the parameters decoded into the live model.
    ///
    /// The receiving trainer must be freshly built with the same
    /// architecture, optimizer configuration and learning rate as the
    /// one that saved the checkpoint (the backward mode and execution
    /// schedule may differ: both are bit-identical).
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Format`] if the checkpoint is
    /// model-only, an optimizer state is malformed or its `TRNR` step
    /// count cannot advance, and
    /// [`CheckpointError::Shape`] on architecture/optimizer/learning
    /// rate mismatches, naming `OPTM` and the table for optimizer state
    /// that disagrees with its table.
    pub fn restore_into(&self, trainer: &mut Trainer) -> Result<(), CheckpointError> {
        let optim = self.optim.as_ref().ok_or_else(|| {
            CheckpointError::Format("missing OPTM section (model-only checkpoint)".into())
        })?;
        let tr = self.trainer.as_ref().ok_or_else(|| {
            CheckpointError::Format("missing TRNR section (model-only checkpoint)".into())
        })?;
        // 1. Every shape against the trainer.
        self.validate_model(trainer.model())?;
        let rule = optimizer_rule(trainer);
        if optim.name != rule.name() {
            return Err(CheckpointError::Shape(format!(
                "checkpoint optimizer {:?}, trainer {:?}",
                optim.name,
                rule.name()
            )));
        }
        if optim.states.len() != trainer.model().num_tables() {
            return Err(CheckpointError::Shape(format!(
                "OPTM: checkpoint has {} optimizer states, model has {} tables",
                optim.states.len(),
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
        if tr.steps == u64::MAX {
            return Err(CheckpointError::Format(format!(
                "TRNR: step count {}: no step can follow it",
                tr.steps
            )));
        }
        // 2. Optimizer state into fresh optimizers, each checked against
        // its table.
        let restored = optim
            .states
            .iter()
            .enumerate()
            .map(|(i, state)| self.decode_state(i, state.clone(), rule, trainer.model()))
            .collect::<Result<Vec<_>, _>>()?;
        // 3. The parameters, straight into the live model: every shape
        // was checked above, so nothing from here on fails.
        let model = trainer.model_mut();
        self.decode_mlp(model.bottom_mut(), &self.model.bottom);
        self.decode_mlp(model.top_mut(), &self.model.top);
        for (i, saved) in self.model.tables.iter().enumerate() {
            let slab = model.table_mut(i).as_mut_slice();
            for (v, x) in slab
                .iter_mut()
                .zip(decode(&self.bytes[saved.at..], f32::from_le_bytes))
            {
                *v = x;
            }
        }
        trainer.install_restored(restored, tr.steps);
        Ok(())
    }

    /// Table `i`'s optimizer state, from `range` of the file, as a fresh
    /// optimizer running `rule`.
    fn decode_state(
        &self,
        i: usize,
        range: Range<usize>,
        rule: UpdateRule,
        model: &Dlrm,
    ) -> Result<RowOptimizer, CheckpointError> {
        let section = format!("OPTM: table {i}");
        let mut c = Cursor::new(&self.bytes, range, &section);
        let mut planes = Vec::with_capacity(rule.planes());
        for _ in 0..rule.planes() {
            let (width, rows) = (c.len()?, c.len()?);
            let at = c.words(rows, width)?;
            let values = decode(&self.bytes[at..], f32::from_le_bytes);
            let values = values.take(rows * width).collect();
            let touched = c.take(rows)?;
            if let Some(&bad) = touched.iter().find(|&&b| b > 1) {
                return Err(CheckpointError::Format(format!(
                    "{section}: touched flag {bad}, not 0 or 1"
                )));
            }
            planes.push((width, values, touched.iter().map(|&b| b == 1).collect()));
        }
        let steps = if rule.counts_steps() {
            let n = c.len()?;
            let at = c.words(1, n)?;
            Some(
                decode(&self.bytes[at..], u32::from_le_bytes)
                    .take(n)
                    .collect(),
            )
        } else {
            None
        };
        c.finish()?;
        let table = model.table(i);
        RowOptimizer::from_state(rule, table.rows(), table.dim(), planes, steps)
            .map_err(|e| CheckpointError::Shape(format!("{section}: {e}")))
    }

    /// The saved `layers` into `mlp`, whose shapes they were checked to
    /// match.
    fn decode_mlp(&self, mlp: &mut Mlp, layers: &[Block]) {
        for (layer, saved) in mlp.layers_mut().iter_mut().zip(layers) {
            let mut values = decode(&self.bytes[saved.at..], f32::from_le_bytes);
            let weights = values.by_ref().take(saved.rows * saved.cols).collect();
            let weight = Matrix::from_vec(saved.rows, saved.cols, weights).expect("shape checked");
            let bias = values.take(saved.cols).collect();
            layer.set_parameters(weight, bias).expect("shape checked");
        }
    }

    fn validate_model(&self, model: &Dlrm) -> Result<(), CheckpointError> {
        let dims = |mlp: &Mlp| -> Vec<_> {
            mlp.layers()
                .iter()
                .map(|l| (l.in_dim(), l.out_dim()))
                .collect()
        };
        for (mlp, layers, which) in [
            (model.bottom(), &self.model.bottom, "bottom"),
            (model.top(), &self.model.top, "top"),
        ] {
            let saved: Vec<_> = layers.iter().map(|l| (l.rows, l.cols)).collect();
            if saved != dims(mlp) {
                return Err(CheckpointError::Shape(format!(
                    "checkpoint {which} MLP layers {saved:?}, model {:?}",
                    dims(mlp)
                )));
            }
        }
        let tables: Vec<_> = (0..model.num_tables())
            .map(|i| (model.table(i).rows(), model.table(i).dim()))
            .collect();
        let saved: Vec<_> = self.model.tables.iter().map(|t| (t.rows, t.cols)).collect();
        if saved != tables {
            return Err(CheckpointError::Shape(format!(
                "checkpoint tables (rows, dim) {saved:?}, model {tables:?}"
            )));
        }
        Ok(())
    }
}

// -------------------------------------------------------------- loading

fn parse_mlp(c: &mut Cursor<'_>) -> Result<Vec<Block>, CheckpointError> {
    let depth = c.u32()?;
    if depth > 1024 {
        return Err(CheckpointError::Format(format!(
            "MODL: implausible MLP depth {depth}"
        )));
    }
    let mut layers = Vec::with_capacity(depth);
    for _ in 0..depth {
        let (rows, cols) = (c.u32()?, c.u32()?);
        let at = c.words(rows, cols)?;
        c.words(1, cols)?;
        layers.push(Block { rows, cols, at });
    }
    Ok(layers)
}

fn parse_model(c: &mut Cursor<'_>) -> Result<ModelSection, CheckpointError> {
    let bottom = parse_mlp(c)?;
    let top = parse_mlp(c)?;
    let count = c.u32()?;
    let mut tables = Vec::with_capacity(count.min(4096));
    for _ in 0..count {
        let (rows, cols) = (c.u32()?, c.u32()?);
        let at = c.words(rows, cols)?;
        tables.push(Block { rows, cols, at });
    }
    Ok(ModelSection {
        bottom,
        top,
        tables,
    })
}

fn parse_optim(c: &mut Cursor<'_>) -> Result<OptimSection, CheckpointError> {
    let name_len = c.u32()?;
    let name = String::from_utf8(c.take(name_len)?.to_vec())
        .map_err(|_| CheckpointError::Format("OPTM: optimizer name is not UTF-8".into()))?;
    let count = c.u32()?;
    let mut states = Vec::with_capacity(count.min(4096));
    for _ in 0..count {
        let len = c.len()?;
        let at = c.pos;
        c.take(len)?;
        states.push(at..at + len);
    }
    Ok(OptimSection { name, states })
}

fn parse_trainer(c: &mut Cursor<'_>) -> Result<TrainerSection, CheckpointError> {
    let steps = c.u64()?;
    let lr = f32::from_le_bytes(c.array()?);
    let mode = match c.take(1)?[0] {
        0 => BackwardMode::Baseline,
        1 => BackwardMode::Casted,
        other => {
            return Err(CheckpointError::Format(format!(
                "TRNR: unknown backward mode {other}"
            )))
        }
    };
    Ok(TrainerSection { steps, lr, mode })
}

fn parse_source(c: &mut Cursor<'_>) -> Result<SourceState, CheckpointError> {
    let state = match c.take(1)?[0] {
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
    Ok(state)
}

fn parse_depth(c: &mut Cursor<'_>) -> Result<usize, CheckpointError> {
    let depth = c.u64()?;
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

/// Sets `slot` to `value`, refusing a second `name` section.
fn once<T>(slot: &mut Option<T>, value: T, name: &str) -> Result<(), CheckpointError> {
    if slot.replace(value).is_some() {
        return Err(CheckpointError::Format(format!(
            "{name}: duplicate section"
        )));
    }
    Ok(())
}

/// Reads and fully verifies a checkpoint into a staged
/// [`TrainCheckpoint`] without touching any model: the file is read into
/// one buffer, every section is length- and CRC-checked and parsed to
/// its shapes, unknown/duplicate sections and trailing garbage are
/// rejected, and format errors name the failing section.
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
        let payload = pos + 16..pos + 16 + len;
        let computed = crc32(0, &buf[payload.clone()]);
        if computed != stored_crc {
            return Err(CheckpointError::Format(format!(
                "{name}: checksum mismatch (stored {stored_crc:#010x}, computed {computed:#010x})"
            )));
        }
        let c = &mut Cursor::new(&buf, payload, &name);
        match tag {
            TAG_MODEL => once(&mut model, parse_model(c)?, &name)?,
            TAG_OPTIM => once(&mut optim, parse_optim(c)?, &name)?,
            TAG_TRAINER => once(&mut trainer, parse_trainer(c)?, &name)?,
            TAG_SOURCE => once(&mut source, parse_source(c)?, &name)?,
            TAG_DEPTH => once(&mut depth, parse_depth(c)?, &name)?,
            _ => {
                return Err(CheckpointError::Format(format!(
                    "unknown section tag {name}"
                )));
            }
        }
        c.finish()?;
        pos += 16 + len;
    }
    let model = model.ok_or_else(|| CheckpointError::Format("missing MODL section".into()))?;
    Ok(TrainCheckpoint {
        bytes: buf,
        model,
        optim,
        trainer,
        source,
        depth,
    })
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
        self.injected("checkpoint.open")?;
        let file = std::fs::File::create(tmp)?;
        let plan = self.fault.clone().unwrap_or_default();
        // The save streams in chunk-sized writes, which gives the
        // torn-write fault site one occurrence a chunk to arm.
        let mut writer = FaultyWrite::new(file, plan, "checkpoint.write");
        save_train_checkpoint(&mut writer, trainer, source, depth)?;
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
        assert_eq!(crc32(0, b"123456789"), 0xCBF4_3926, "the IEEE check value");
        let mut rng = tcast_tensor::SplitMix64::new(32);
        let bytes: Vec<u8> = (0..1000).map(|_| rng.next_below(256) as u8).collect();
        // Every length around the 8-byte step, at every alignment.
        for start in 0..8 {
            for len in (0..40).chain([991, 992]) {
                let piece = &bytes[start..start + len];
                assert_eq!(crc32(0, piece), crc32_bytewise(piece), "{start}+{len}");
            }
        }
        // Folded in a piece at a time, at any cut.
        for cut in [0, 1, 7, 8, 500, 1000] {
            let (a, b) = bytes.split_at(cut);
            assert_eq!(crc32(crc32(0, a), b), crc32_bytewise(&bytes), "cut {cut}");
        }
    }

    fn adam() -> EmbeddingOptimizer {
        EmbeddingOptimizer::Adam {
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
        }
    }

    const ADAGRAD: EmbeddingOptimizer = EmbeddingOptimizer::Adagrad { eps: 1e-8 };

    /// A `tiny` trainer under `optimizer`, `steps` steps in.
    fn trained(optimizer: EmbeddingOptimizer, seed: u64, steps: usize) -> Trainer {
        let mut trainer =
            Trainer::with_optimizer(DlrmConfig::tiny(), BackwardMode::Baseline, optimizer, seed)
                .unwrap();
        let mut stream = data(11);
        for _ in 0..steps {
            trainer.step(&stream.next_batch(16)).unwrap();
        }
        trainer
    }

    fn trained_trainer(steps: usize) -> Trainer {
        trained(adam(), 7, steps)
    }

    fn saved(trainer: &Trainer) -> Vec<u8> {
        let mut buf = Vec::new();
        save_train_checkpoint(&mut buf, trainer, None, None).unwrap();
        buf
    }

    fn restore(buf: &[u8], trainer: &mut Trainer) -> Result<(), CheckpointError> {
        read_train_checkpoint(&mut &buf[..])?.restore_into(trainer)
    }

    /// Every bit a restore may write: the step count, the MLPs, the
    /// tables and the optimizer state.
    fn fingerprint(trainer: &Trainer) -> Vec<u32> {
        let model = trainer.model();
        let bits = |vals: &[f32]| vals.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let mut out = vec![trainer.steps() as u32, (trainer.steps() >> 32) as u32];
        for layer in model.bottom().layers().iter().chain(model.top().layers()) {
            out.extend(bits(layer.weight().as_slice()));
            out.extend(bits(layer.bias()));
        }
        for i in 0..model.num_tables() {
            out.extend(bits(model.table(i).as_slice()));
        }
        for opt in trainer.table_optimizers() {
            for (width, values, touched) in opt.planes() {
                out.push(width as u32);
                out.extend(bits(values));
                out.extend(touched.iter().map(|&t| u32::from(t)));
            }
            if let Some(steps) = opt.step_counts() {
                out.push(steps.len() as u32);
                out.extend_from_slice(steps);
            }
        }
        out
    }

    /// Restoring `buf` into `target` fails and leaves it byte-identical
    /// (and still training); returns the error.
    fn refused(buf: &[u8], target: &mut Trainer) -> CheckpointError {
        let before = fingerprint(target);
        let err = restore(buf, target).unwrap_err();
        assert_eq!(
            fingerprint(target),
            before,
            "{err}: the trainer was touched"
        );
        target.step(&data(13).next_batch(16)).unwrap();
        err
    }

    /// Each section's tag and payload range.
    fn sections(file: &[u8]) -> Vec<([u8; 4], Range<usize>)> {
        let mut out = Vec::new();
        let mut pos = 8;
        while pos < file.len() {
            let tag = file[pos..pos + 4].try_into().unwrap();
            let len = u64::from_le_bytes(file[pos + 4..pos + 12].try_into().unwrap()) as usize;
            out.push((tag, pos + 16..pos + 16 + len));
            pos += 16 + len;
        }
        out
    }

    /// Appends a section with a valid CRC.
    fn push_section(out: &mut Vec<u8>, tag: [u8; 4], payload: &[u8]) {
        out.extend_from_slice(&tag);
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&crc32(0, payload).to_le_bytes());
        out.extend_from_slice(payload);
    }

    /// `file` with its `tag` section's payload replaced (or, for `None`,
    /// the section dropped), every CRC valid.
    fn with_section(file: &[u8], tag: [u8; 4], payload: Option<&[u8]>) -> Vec<u8> {
        let mut out = file[..8].to_vec();
        for (t, range) in sections(file) {
            match (t == tag, payload) {
                (false, _) => push_section(&mut out, t, &file[range]),
                (true, Some(p)) => push_section(&mut out, t, p),
                (true, None) => {}
            }
        }
        out
    }

    #[test]
    fn save_load_roundtrip_preserves_predictions() {
        let trainer = trained_trainer(3);
        // Another seed: every parameter differs until the restore.
        let mut restored = trained(adam(), 123, 0);
        restore(&saved(&trainer), &mut restored).unwrap();
        assert_eq!(fingerprint(&restored), fingerprint(&trainer));

        let cfg = DlrmConfig::tiny();
        let batch = SyntheticCtr::new(cfg.table_workloads(), cfg.dense_features, 5).next_batch(32);
        let a = trainer
            .model()
            .predict(&batch.dense, &batch.indices)
            .unwrap();
        let b = restored
            .model()
            .predict(&batch.dense, &batch.indices)
            .unwrap();
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
        let buf = saved(&original);

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
        assert_eq!(fingerprint(&original), fingerprint(&resumed));
    }

    #[test]
    fn restore_rejects_mismatched_optimizer_and_lr() {
        let trainer = trained_trainer(2);
        let buf = saved(&trainer);
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
        let mut buf = saved(&trained_trainer(3));
        buf[0] = b'Z';
        let err = refused(&buf, &mut trained_trainer(1));
        assert!(matches!(err, CheckpointError::Format(_)), "got {err}");
    }

    #[test]
    fn truncation_rejected() {
        let mut buf = saved(&trained_trainer(3));
        buf.truncate(buf.len() / 2);
        let err = refused(&buf, &mut trained_trainer(1));
        assert!(matches!(err, CheckpointError::Format(_)), "got {err}");
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut buf = saved(&trained_trainer(3));
        buf.push(0xAB);
        let err = refused(&buf, &mut trained_trainer(1));
        assert!(
            err.to_string().contains("trailing garbage"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn corruption_names_the_failing_section() {
        let mut buf = saved(&trained_trainer(3));
        // Flip a payload byte in the middle of the MODL section.
        let (tag, payload) = sections(&buf)[0].clone();
        assert_eq!(tag, TAG_MODEL);
        buf[(payload.start + payload.end) / 2] ^= 0xFF;
        let err = refused(&buf, &mut trained_trainer(1));
        assert!(
            err.to_string().contains("MODL"),
            "error must name the section: {err}"
        );
    }

    #[test]
    fn wrong_architecture_rejected_and_model_untouched() {
        let buf = saved(&trained_trainer(3));
        let mut other_cfg = DlrmConfig::tiny();
        other_cfg.tables[0].rows += 1;
        let mut target =
            Trainer::with_optimizer(other_cfg, BackwardMode::Baseline, adam(), 1).unwrap();
        let err = refused(&buf, &mut target);
        assert!(matches!(err, CheckpointError::Shape(_)), "got {err}");
    }

    /// A hostile `MODL`-only file — a real one with its `OPTM` and `TRNR`
    /// sections dropped — parses, but restores as a typed error.
    #[test]
    fn model_only_file_is_refused_with_a_typed_error() {
        let buf = saved(&trained_trainer(3));
        let model_only = with_section(&with_section(&buf, TAG_OPTIM, None), TAG_TRAINER, None);
        let ckpt = read_train_checkpoint(&mut model_only.as_slice()).unwrap();
        assert_eq!(ckpt.steps(), None);
        let err = refused(&model_only, &mut trained_trainer(1));
        assert!(
            matches!(&err, CheckpointError::Format(m) if m.contains("missing OPTM section")),
            "got {err}"
        );
    }

    /// An `OPTM` payload under `name`: one state a table.
    fn optm(name: &str, states: &[Vec<u8>]) -> Vec<u8> {
        let mut out = (name.len() as u32).to_le_bytes().to_vec();
        out.extend_from_slice(name.as_bytes());
        out.extend_from_slice(&(states.len() as u32).to_le_bytes());
        for state in states {
            out.extend_from_slice(&(state.len() as u64).to_le_bytes());
            out.extend_from_slice(state);
        }
        out
    }

    /// One saved plane: `rows` rows of `width` values, every touched flag
    /// `flag`.
    fn plane(width: u64, rows: u64, flag: u8) -> Vec<u8> {
        let mut out = width.to_le_bytes().to_vec();
        out.extend_from_slice(&rows.to_le_bytes());
        out.extend(std::iter::repeat_n(0.25f32.to_le_bytes(), (width * rows) as usize).flatten());
        out.extend(std::iter::repeat_n(flag, rows as usize));
        out
    }

    /// Saved step counts: `n` counts of 1.
    fn step_counts(n: u64) -> Vec<u8> {
        let mut out = n.to_le_bytes().to_vec();
        out.extend(std::iter::repeat_n(1u32.to_le_bytes(), n as usize).flatten());
        out
    }

    /// Table 0 of a `tiny` checkpoint saved under `optimizer` given
    /// `state`, table 1 a valid empty one: the restore is refused, names
    /// `OPTM` and table 0, says `want`, and leaves the trainer untouched.
    fn optm_refused(optimizer: EmbeddingOptimizer, state: Vec<u8>, want: &str) {
        let (name, empty) = match optimizer {
            EmbeddingOptimizer::Adam { .. } => (
                "adam",
                [plane(0, 0, 0), plane(0, 0, 0), step_counts(0)].concat(),
            ),
            _ => ("adagrad", plane(0, 0, 0)),
        };
        let buf = saved(&trained(optimizer, 7, 3));
        let buf = with_section(&buf, TAG_OPTIM, Some(&optm(name, &[state, empty.clone()])));
        let err = refused(&buf, &mut trained(optimizer, 7, 2));
        let msg = err.to_string();
        assert!(
            msg.contains("OPTM: table 0: ") && msg.contains(want),
            "{msg}"
        );
        // The same file with table 0's state valid restores.
        let valid = match name {
            "adam" => [plane(16, 5, 1), plane(16, 5, 1), step_counts(5)].concat(),
            _ => plane(16, 5, 1),
        };
        let buf = with_section(&buf, TAG_OPTIM, Some(&optm(name, &[valid, empty])));
        restore(&buf, &mut trained(optimizer, 7, 2)).unwrap();
    }

    #[test]
    fn optm_state_with_another_plane_count_is_refused() {
        optm_refused(
            ADAGRAD,
            [plane(16, 5, 1), plane(16, 5, 1)].concat(),
            "trailing",
        );
        optm_refused(ADAGRAD, Vec::new(), "truncated");
    }

    #[test]
    fn optm_state_of_another_width_is_refused() {
        optm_refused(
            ADAGRAD,
            plane(32, 5, 1),
            "5 rows of width 32, the table 16 wide",
        );
    }

    #[test]
    fn optm_state_longer_than_its_table_is_refused() {
        optm_refused(ADAGRAD, plane(16, 201, 1), "201 state rows, the table 200");
    }

    #[test]
    fn optm_planes_of_unequal_rows_are_refused() {
        let state = [plane(16, 5, 1), plane(16, 4, 1), step_counts(5)].concat();
        optm_refused(adam(), state, "plane 1 has 4 rows, plane 0 5");
    }

    #[test]
    fn optm_step_counts_not_one_a_row_are_refused() {
        let state = [plane(16, 5, 1), plane(16, 5, 1), step_counts(4)].concat();
        optm_refused(adam(), state, "4 step counts for 5 state rows");
    }

    /// Adam advances a row's count and raises its decays to the new count
    /// as an `i32`: a count with no next step is refused, not wrapped.
    #[test]
    fn optm_step_counts_the_update_cannot_advance_are_refused() {
        for count in [u32::MAX, i32::MAX as u32] {
            let mut counts = step_counts(5);
            counts[8..12].copy_from_slice(&count.to_le_bytes());
            let state = [plane(16, 5, 1), plane(16, 5, 1), counts].concat();
            let want = format!("row 0 has taken {count} steps");
            optm_refused(adam(), state, &want);
        }
    }

    /// A `TRNR` step count of `u64::MAX` restored, the next step's count
    /// would overflow: refused before anything is written.
    #[test]
    fn trnr_step_count_that_cannot_advance_is_refused() {
        let buf = saved(&trained_trainer(3));
        let (_, range) = sections(&buf)
            .into_iter()
            .find(|(tag, _)| *tag == TAG_TRAINER)
            .unwrap();
        let mut payload = buf[range].to_vec();
        payload[..8].copy_from_slice(&u64::MAX.to_le_bytes());
        let hostile = with_section(&buf, TAG_TRAINER, Some(&payload));
        let err = refused(&hostile, &mut trained_trainer(2));
        assert!(
            matches!(&err, CheckpointError::Format(m) if m.starts_with("TRNR: ")),
            "{err}"
        );
        payload[..8].copy_from_slice(&(u64::MAX - 1).to_le_bytes());
        restore(
            &with_section(&buf, TAG_TRAINER, Some(&payload)),
            &mut trained_trainer(2),
        )
        .unwrap();
    }

    #[test]
    fn optm_touched_flag_other_than_0_or_1_is_refused() {
        optm_refused(ADAGRAD, plane(16, 5, 2), "touched flag 2, not 0 or 1");
    }

    /// Every cut of a table's optimizer state (its length prefix and the
    /// section CRC kept valid), and one byte past it, is refused naming
    /// `OPTM` and the table, the trainer untouched — for every rule that
    /// keeps state.
    #[test]
    fn optm_state_rejects_truncation_and_trailing_garbage() {
        let mut cfg = DlrmConfig::tiny();
        for table in &mut cfg.tables {
            table.rows = 6;
        }
        let optimizers = [
            EmbeddingOptimizer::Momentum { mu: 0.9 },
            ADAGRAD,
            EmbeddingOptimizer::RmsProp {
                gamma: 0.9,
                eps: 1e-8,
            },
            adam(),
        ];
        for optimizer in optimizers {
            let mk = || {
                let mut t =
                    Trainer::with_optimizer(cfg.clone(), BackwardMode::Baseline, optimizer, 3)
                        .unwrap();
                let mut data = SyntheticCtr::new(cfg.table_workloads(), cfg.dense_features, 4);
                t.step(&data.next_batch(8)).unwrap();
                t
            };
            let buf = saved(&mk());
            let (_, range) = sections(&buf)[1].clone();
            let payload = &buf[range];
            let name_len = u32::from_le_bytes(payload[..4].try_into().unwrap()) as usize;
            let name = std::str::from_utf8(&payload[4..4 + name_len]).unwrap();
            let at = 4 + name_len + 4;
            let len = u64::from_le_bytes(payload[at..at + 8].try_into().unwrap()) as usize;
            let (state, rest) = payload[at + 8..].split_at(len);
            let other = rest[8..].to_vec();
            let mut target = mk();
            let longer = [state, &[0]].concat();
            for cut in (0..len).map(|cut| &state[..cut]).chain([&longer[..]]) {
                let file = with_section(
                    &buf,
                    TAG_OPTIM,
                    Some(&optm(name, &[cut.to_vec(), other.clone()])),
                );
                let before = fingerprint(&target);
                let err = restore(&file, &mut target).unwrap_err();
                assert!(err.to_string().contains("OPTM: table 0: "), "{name}: {err}");
                assert_eq!(fingerprint(&target), before, "{name}: {err}");
            }
            restore(&buf, &mut target).unwrap();
        }
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
        // The committed file holds the bytes an in-memory save writes.
        assert_eq!(std::fs::read(&latest).unwrap(), saved(&trainer));
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
        let plain = saved(&trained_trainer(1));
        let with_payload = |payload: &[u8]| {
            let mut buf = plain.clone();
            push_section(&mut buf, TAG_DEPTH, payload);
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

    /// FNV-1a, as a checksum of saved bytes.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// The bytes `save_train_checkpoint` writes for two 3-step `tiny`
    /// trainers, pinned: Adam with a source position and a depth, SGD
    /// with neither. A save and a load from one build cannot notice a
    /// format change; these constants can. Never re-pin them.
    #[test]
    fn checkpoint_bytes_are_pinned() {
        let file = |mode, optimizer, source: Option<&SourceState>, depth| {
            let mut trainer =
                Trainer::with_optimizer(DlrmConfig::tiny(), mode, optimizer, 7).unwrap();
            let mut stream = data(11);
            for _ in 0..3 {
                trainer.step(&stream.next_batch(16)).unwrap();
            }
            let mut bytes = Vec::new();
            save_train_checkpoint(&mut bytes, &trainer, source, depth).unwrap();
            (bytes.len(), fnv1a(&bytes))
        };
        let src = SourceState::Synthetic {
            rng_state: 0x0123_4567_89ab_cdef,
            batches: 3,
        };
        let adam = file(BackwardMode::Casted, adam(), Some(&src), Some(2));
        let sgd = file(BackwardMode::Baseline, EmbeddingOptimizer::Sgd, None, None);
        assert_eq!(
            adam,
            (63_238, 0xcdec_ef23_c42a_9ed8),
            "Adam checkpoint bytes moved"
        );
        assert_eq!(
            sgd,
            (25_312, 0x34e7_b7a8_1647_9363),
            "SGD checkpoint bytes moved"
        );
    }

    /// Six seeded scatters into a 97 x 5 table through a fresh optimizer,
    /// then the checksum of one table's `OPTM` state as a checkpoint
    /// saves it (without its length prefix).
    fn optm_checksum(rule: UpdateRule) -> u64 {
        use tcast_embedding::{scatter_apply_coalesced, CoalescedGradients, EmbeddingTable};
        let (rows, dim) = (97usize, 5usize);
        let mut opt = RowOptimizer::new(rule);
        let mut table = EmbeddingTable::seeded(rows, dim, 11);
        let mut rng = tcast_tensor::SplitMix64::new(0x0097_4d5f);
        for _ in 0..6 {
            let touched: Vec<u32> = (0..rows as u32)
                .filter(|_| rng.next_below(3) == 0)
                .collect();
            let n = touched.len();
            let grads = (0..n * dim).map(|_| rng.next_range(-1.0, 1.0)).collect();
            let grads = Matrix::from_vec(n, dim, grads).unwrap();
            let part = CoalescedGradients::new(touched, grads).unwrap();
            scatter_apply_coalesced(&mut table, &mut opt, &part).unwrap();
        }
        let mut blob = Vec::new();
        let mut chunk = vec![0; CHUNK];
        let mut e = Emit::new(&mut chunk, Some(&mut blob));
        emit_state(&mut e, &opt).unwrap();
        e.flush().unwrap();
        fnv1a(&blob[8..])
    }

    /// The `OPTM` state of every rule, byte for byte, as the commit before
    /// the optimizers became one type wrote it after a 3-band pooled
    /// scatter sequence — and, now that every scatter grows state just
    /// past the last row it updates, as the one serial scatter writes it.
    #[test]
    fn optm_state_bytes_are_stable() {
        const PINNED: [u64; 5] = [
            0xcbf29ce484222325,
            0xa81b09b42e6d37b1,
            0x11646e9eadb28a65,
            0x8bae82fd71926445,
            0x8ba202cf63b42c12,
        ];
        let rules = [
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
        for (rule, pinned) in rules.into_iter().zip(PINNED) {
            assert_eq!(optm_checksum(rule), pinned, "{} bytes moved", rule.name());
        }
    }
}
