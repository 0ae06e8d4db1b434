//! Streaming mini-batch sources with buffer recycling — the data side of
//! the cross-batch pipelined training driver.
//!
//! A [`BatchSource`] hands out batches behind `Arc`s (so a driver can
//! hold several in flight while their casting jobs run ahead) and takes
//! completed batches back through [`BatchSource::recycle`]: returned
//! buffers enter a free-list and the next batch is produced with the
//! `*_into` refill forms ([`SyntheticCtr::next_batch_into`],
//! [`IndexArray::refill`]) instead of fresh allocations. After the
//! free-list warms up (roughly `depth + 1` batches for a depth-D
//! lookahead), steady-state prefetch is allocation-free.
//!
//! Two implementations:
//!
//! * [`SyntheticSource`] — wraps the planted-model [`SyntheticCtr`]
//!   generator into an endless stream;
//! * [`TraceReplaySource`] — replays recorded per-table lookup traces
//!   (see [`crate::trace`]), the "same dataset-derived lookups through
//!   every design point" workflow of the paper's experiments.

use crate::synthetic::{CtrBatch, SyntheticCtr};
use crate::trace::TraceError;
use std::collections::VecDeque;
use std::sync::Arc;
use tcast_embedding::IndexArray;
use tcast_tensor::SplitMix64;

/// A stream of training mini-batches with buffer recycling.
///
/// The contract is checkout/return: [`BatchSource::next_batch`] hands out
/// an `Arc<CtrBatch>` the caller may hold across steps (e.g. while its
/// casting job is in flight); once the step completes, the caller gives
/// the `Arc` back via [`BatchSource::recycle`] so its buffers can be
/// refilled in place. Recycling is an optimization, never a correctness
/// requirement — a source must produce the identical stream whether or
/// not batches come back.
pub trait BatchSource {
    /// Produces the next mini-batch, drawing buffers from the free-list
    /// when possible. Returns `None` when the stream is exhausted
    /// (synthetic streams never are; trace replay ends with its trace
    /// unless cycling).
    fn next_batch(&mut self) -> Option<Arc<CtrBatch>>;

    /// Returns a completed batch for buffer reuse. A batch whose `Arc`
    /// is still shared elsewhere is simply kept until the sharing ends
    /// (the refill path falls back to fresh allocation if needed).
    fn recycle(&mut self, batch: Arc<CtrBatch>);

    /// The stream position *as consumed so far*, for checkpointing, or
    /// `None` if this source cannot resume. [`BatchSource::restore`] on
    /// an identically-constructed source makes its next batch the one
    /// this source would produce next — free-list contents are
    /// deliberately not part of the state (recycling never changes the
    /// stream).
    fn state(&self) -> Option<SourceState> {
        None
    }

    /// Rewinds/advances to a position captured by [`BatchSource::state`]
    /// on an identically-constructed source.
    ///
    /// # Panics
    ///
    /// Panics if this source does not support resume or `state` is the
    /// wrong variant for it.
    fn restore(&mut self, state: &SourceState) {
        let _ = state;
        panic!("this batch source does not support resume");
    }
}

/// A [`BatchSource`]'s checkpointable stream position.
///
/// Captured by [`BatchSource::state`], applied by [`BatchSource::restore`]
/// — the batch-stream half of the exact-resume invariant: a restored
/// source continues the identical stream the original would have
/// produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceState {
    /// [`SyntheticSource`] position: the generator's RNG state (the sole
    /// stream position — every per-batch draw descends from it) plus a
    /// bookkeeping count of batches emitted.
    Synthetic {
        /// `SyntheticCtr` RNG state.
        rng_state: u64,
        /// Batches emitted so far (reporting only; the RNG state alone
        /// determines the stream).
        batches: u64,
    },
    /// [`TraceReplaySource`] position: the replay cursor plus the
    /// dense/label RNG state.
    TraceReplay {
        /// Next trace step to serve.
        cursor: u64,
        /// Dense/label RNG state.
        rng_state: u64,
    },
}

/// An endless [`BatchSource`] over the planted-model synthetic CTR
/// generator, at a fixed batch size.
#[derive(Debug)]
pub struct SyntheticSource {
    generator: SyntheticCtr,
    batch: usize,
    /// Batches emitted so far (checkpoint bookkeeping).
    emitted: u64,
    /// FIFO, so recycled buffers rotate round-robin: every buffer in a
    /// steady pool gets refilled (and thus capacity-sized) within one
    /// rotation, instead of a LIFO hot buffer shadowing cold ones that
    /// would then pay their first sizing mid-run.
    free: VecDeque<Arc<CtrBatch>>,
}

impl SyntheticSource {
    /// Wraps `generator` into a source emitting `batch`-sized batches.
    ///
    /// # Panics
    ///
    /// Panics if `batch == 0`.
    pub fn new(generator: SyntheticCtr, batch: usize) -> Self {
        assert!(batch > 0, "batch size must be positive");
        Self {
            generator,
            batch,
            emitted: 0,
            free: VecDeque::new(),
        }
    }

    /// The fixed batch size this source emits.
    pub fn batch_size(&self) -> usize {
        self.batch
    }

    /// Batches currently waiting in the free-list.
    pub fn free_list_len(&self) -> usize {
        self.free.len()
    }
}

impl BatchSource for SyntheticSource {
    fn next_batch(&mut self) -> Option<Arc<CtrBatch>> {
        let mut arc = self
            .free
            .pop_front()
            .unwrap_or_else(|| Arc::new(CtrBatch::default()));
        match Arc::get_mut(&mut arc) {
            Some(buf) => self.generator.next_batch_into(self.batch, buf),
            // Still shared (a recycled batch whose Arc someone kept):
            // park it back on the free-list — it becomes refillable once
            // the share drops — and produce a fresh one; the stream is
            // the same either way.
            None => {
                self.free.push_back(arc);
                arc = Arc::new(self.generator.next_batch(self.batch));
            }
        }
        self.emitted += 1;
        Some(arc)
    }

    fn recycle(&mut self, batch: Arc<CtrBatch>) {
        self.free.push_back(batch);
    }

    fn state(&self) -> Option<SourceState> {
        Some(SourceState::Synthetic {
            rng_state: self.generator.rng_state(),
            batches: self.emitted,
        })
    }

    fn restore(&mut self, state: &SourceState) {
        let SourceState::Synthetic { rng_state, batches } = *state else {
            panic!("SyntheticSource cannot restore {state:?}");
        };
        self.generator.set_rng_state(rng_state);
        self.emitted = batches;
    }
}

/// A [`BatchSource`] replaying recorded per-table lookup traces.
///
/// Each training step `i` serves the `i`-th batch of every table's trace
/// as its index arrays (pre-shared as `Arc<[IndexArray]>` once at
/// construction, so serving a step is a refcount bump). Dense features
/// and labels are synthesized from the seed — a trace records *lookups*,
/// which is what every locality/throughput experiment consumes; the
/// labels carry no planted signal.
pub struct TraceReplaySource {
    steps: Vec<Arc<[IndexArray]>>,
    dense_dim: usize,
    rng: SplitMix64,
    cursor: usize,
    cycle: bool,
    free: VecDeque<Arc<CtrBatch>>,
}

impl TraceReplaySource {
    /// Builds a replay source from per-table traces (table `t`'s
    /// sequence of mini-batch index arrays, as
    /// [`crate::trace::read_trace`] returns).
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Format`] if no traces are given, the tables
    /// disagree on batch count, or a step's arrays disagree on batch
    /// size.
    pub fn new(
        per_table: Vec<Vec<IndexArray>>,
        dense_dim: usize,
        seed: u64,
    ) -> Result<Self, TraceError> {
        let Some(first) = per_table.first() else {
            return Err(TraceError::Format("no traces given".to_string()));
        };
        let batches = first.len();
        if per_table.iter().any(|t| t.len() != batches) {
            return Err(TraceError::Format(format!(
                "tables disagree on batch count: {:?}",
                per_table.iter().map(Vec::len).collect::<Vec<_>>()
            )));
        }
        // Transpose to per-step Arc<[IndexArray]> shares.
        let mut columns: Vec<Vec<IndexArray>> = (0..batches).map(|_| Vec::new()).collect();
        for table in per_table {
            for (step, index) in table.into_iter().enumerate() {
                columns[step].push(index);
            }
        }
        let mut steps = Vec::with_capacity(batches);
        for (i, column) in columns.into_iter().enumerate() {
            let outputs = column[0].num_outputs();
            if column.iter().any(|a| a.num_outputs() != outputs) {
                return Err(TraceError::Format(format!(
                    "step {i}: tables disagree on batch size"
                )));
            }
            steps.push(Arc::from(column));
        }
        Ok(Self {
            steps,
            dense_dim,
            rng: SplitMix64::new(seed),
            cursor: 0,
            cycle: false,
            free: VecDeque::new(),
        })
    }

    /// Makes the source loop back to the first step after the last
    /// instead of ending — an endless benchmark stream from a finite
    /// trace.
    pub fn cycling(mut self) -> Self {
        self.cycle = true;
        self
    }

    /// Steps in one pass of the trace.
    pub fn trace_len(&self) -> usize {
        self.steps.len()
    }
}

impl BatchSource for TraceReplaySource {
    fn next_batch(&mut self) -> Option<Arc<CtrBatch>> {
        if self.cursor == self.steps.len() {
            if !self.cycle {
                return None;
            }
            self.cursor = 0;
        }
        let indices = Arc::clone(&self.steps[self.cursor]);
        self.cursor += 1;
        let batch = indices[0].num_outputs();
        let mut arc = self
            .free
            .pop_front()
            .unwrap_or_else(|| Arc::new(CtrBatch::default()));
        let rng = &mut self.rng;
        let fill = |buf: &mut CtrBatch| {
            buf.dense.zero_into(batch, self.dense_dim);
            for v in buf.dense.as_mut_slice() {
                *v = rng.next_range(-1.0, 1.0);
            }
            buf.labels.zero_into(batch, 1);
            for v in buf.labels.as_mut_slice() {
                *v = if rng.next_f32() < 0.5 { 1.0 } else { 0.0 };
            }
            buf.indices = indices;
        };
        match Arc::get_mut(&mut arc) {
            Some(buf) => fill(buf),
            // Park the still-shared buffer for later reuse, as in
            // [`SyntheticSource::next_batch`].
            None => {
                self.free.push_back(arc);
                let mut fresh = CtrBatch::default();
                fill(&mut fresh);
                arc = Arc::new(fresh);
            }
        }
        Some(arc)
    }

    fn recycle(&mut self, batch: Arc<CtrBatch>) {
        self.free.push_back(batch);
    }

    fn state(&self) -> Option<SourceState> {
        Some(SourceState::TraceReplay {
            cursor: self.cursor as u64,
            rng_state: self.rng.state(),
        })
    }

    fn restore(&mut self, state: &SourceState) {
        let SourceState::TraceReplay { cursor, rng_state } = *state else {
            panic!("TraceReplaySource cannot restore {state:?}");
        };
        assert!(
            cursor as usize <= self.steps.len(),
            "restore cursor {cursor} beyond trace of {} steps",
            self.steps.len()
        );
        self.cursor = cursor as usize;
        self.rng = SplitMix64::new(rng_state);
    }
}

impl std::fmt::Debug for TraceReplaySource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceReplaySource")
            .field("trace_len", &self.steps.len())
            .field("cursor", &self.cursor)
            .field("cycle", &self.cycle)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::popularity::Popularity;
    use crate::trace::{read_trace, write_trace};
    use crate::workload::TableWorkload;

    fn ctr() -> SyntheticCtr {
        let tables = vec![
            TableWorkload::new(
                Popularity::Zipf {
                    rows: 300,
                    exponent: 1.0,
                },
                3,
            ),
            TableWorkload::new(Popularity::Uniform { rows: 100 }, 2),
        ];
        SyntheticCtr::new(tables, 4, 11)
    }

    #[test]
    fn synthetic_source_recycles_without_changing_the_stream() {
        let mut plain = ctr();
        let mut source = SyntheticSource::new(ctr(), 24);
        for step in 0..5 {
            let expected = plain.next_batch(24);
            let batch = source.next_batch().expect("endless");
            assert_eq!(*batch, expected, "diverged at step {step}");
            source.recycle(batch);
            assert_eq!(source.free_list_len(), 1);
        }
    }

    #[test]
    fn still_shared_recycled_buffers_are_parked_not_dropped() {
        // Regression: a recycled batch whose Arc is still shared used to
        // be silently discarded, draining the free-list for good. It
        // must be parked and refilled once the share drops.
        let mut source = SyntheticSource::new(ctr(), 8);
        let first = source.next_batch().unwrap();
        let hold = Arc::clone(&first); // external share outlives recycle
        source.recycle(first);
        let fresh = source.next_batch().unwrap(); // can't refill: parked + fresh
        assert_eq!(source.free_list_len(), 1, "shared buffer must be parked");
        drop(hold);
        source.recycle(fresh);
        // Both buffers are recyclable again; no allocation is ever
        // required to keep serving.
        for _ in 0..3 {
            let b = source.next_batch().unwrap();
            source.recycle(b);
        }
        assert_eq!(source.free_list_len(), 2);
    }

    #[test]
    fn synthetic_source_without_recycling_is_identical() {
        let mut recycled = SyntheticSource::new(ctr(), 16);
        let mut hoarded = SyntheticSource::new(ctr(), 16);
        let mut kept = Vec::new();
        for _ in 0..4 {
            let a = recycled.next_batch().unwrap();
            let b = hoarded.next_batch().unwrap();
            assert_eq!(*a, *b);
            recycled.recycle(a);
            kept.push(b); // never recycled
        }
    }

    fn table_trace(pooling: usize, seed: u64, batches: usize, batch: usize) -> Vec<IndexArray> {
        let w = TableWorkload::new(
            Popularity::Zipf {
                rows: 200,
                exponent: 1.0,
            },
            pooling,
        );
        let mut g = w.generator(seed);
        (0..batches).map(|_| g.next_batch(batch)).collect()
    }

    #[test]
    fn trace_replay_serves_the_recorded_indices_in_order() {
        let t0 = table_trace(3, 1, 4, 16);
        let t1 = table_trace(2, 2, 4, 16);
        let mut source = TraceReplaySource::new(vec![t0.clone(), t1.clone()], 4, 7).unwrap();
        assert_eq!(source.trace_len(), 4);
        for step in 0..4 {
            let batch = source.next_batch().expect("trace not exhausted");
            assert_eq!(batch.indices[0], t0[step]);
            assert_eq!(batch.indices[1], t1[step]);
            assert_eq!(batch.dense.shape(), (16, 4));
            assert_eq!(batch.labels.shape(), (16, 1));
            source.recycle(batch);
        }
        assert!(source.next_batch().is_none(), "trace must end");
    }

    #[test]
    fn trace_replay_cycles_when_asked() {
        let t0 = table_trace(2, 3, 2, 8);
        let mut source = TraceReplaySource::new(vec![t0.clone()], 2, 9)
            .unwrap()
            .cycling();
        for step in 0..5 {
            let batch = source.next_batch().expect("cycling source is endless");
            assert_eq!(batch.indices[0], t0[step % 2]);
            source.recycle(batch);
        }
    }

    #[test]
    fn trace_replay_roundtrips_through_the_disk_format() {
        let t0 = table_trace(3, 4, 3, 8);
        let t1 = table_trace(1, 5, 3, 8);
        let mut bufs = Vec::new();
        for t in [&t0, &t1] {
            let mut buf = Vec::new();
            write_trace(&mut buf, t).unwrap();
            bufs.push(buf);
        }
        let per_table = bufs
            .iter()
            .map(|buf| read_trace(&mut buf.as_slice()))
            .collect::<Result<Vec<_>, _>>()
            .unwrap();
        assert_eq!(per_table, [t0.clone(), t1.clone()]);
        let mut source = TraceReplaySource::new(per_table, 4, 1).unwrap();
        let batch = source.next_batch().unwrap();
        assert_eq!(batch.indices[0], t0[0]);
        assert_eq!(batch.indices[1], t1[0]);
    }

    #[test]
    fn trace_replay_validates_shapes() {
        assert!(TraceReplaySource::new(vec![], 4, 0).is_err());
        let short = table_trace(2, 6, 2, 8);
        let long = table_trace(2, 7, 3, 8);
        assert!(TraceReplaySource::new(vec![short, long], 4, 0).is_err());
        let a = table_trace(2, 8, 2, 8);
        let b = table_trace(2, 9, 2, 16); // batch-size mismatch
        assert!(matches!(
            TraceReplaySource::new(vec![a, b], 4, 0),
            Err(TraceError::Format(m)) if m.contains("batch size")
        ));
    }

    #[test]
    fn synthetic_source_resumes_bit_identically_from_any_point() {
        for cut in 0..5usize {
            let mut reference = SyntheticSource::new(ctr(), 16);
            let mut interrupted = SyntheticSource::new(ctr(), 16);
            for _ in 0..cut {
                let a = reference.next_batch().unwrap();
                reference.recycle(a);
                let b = interrupted.next_batch().unwrap();
                interrupted.recycle(b);
            }
            let state = interrupted.state().expect("synthetic sources resume");
            drop(interrupted); // the "crash"
            let mut resumed = SyntheticSource::new(ctr(), 16);
            resumed.restore(&state);
            for step in 0..4 {
                let expected = reference.next_batch().unwrap();
                let got = resumed.next_batch().unwrap();
                assert_eq!(*got, *expected, "cut {cut}, step {step} diverged");
                reference.recycle(expected);
                resumed.recycle(got);
            }
        }
    }

    #[test]
    fn trace_replay_resumes_bit_identically_mid_trace() {
        let t0 = table_trace(3, 1, 5, 8);
        let t1 = table_trace(2, 2, 5, 8);
        let mk = || TraceReplaySource::new(vec![t0.clone(), t1.clone()], 4, 7).unwrap();
        let mut reference = mk();
        for _ in 0..2 {
            let b = reference.next_batch().unwrap();
            reference.recycle(b);
        }
        let state = reference.state().expect("trace replay resumes");
        let mut resumed = mk();
        resumed.restore(&state);
        loop {
            match (reference.next_batch(), resumed.next_batch()) {
                (Some(a), Some(b)) => assert_eq!(*a, *b),
                (None, None) => break,
                (a, b) => panic!(
                    "exhaustion disagrees: reference {:?} vs resumed {:?}",
                    a.is_some(),
                    b.is_some()
                ),
            }
        }
    }

    #[test]
    #[should_panic(expected = "cannot restore")]
    fn restore_rejects_the_wrong_state_variant() {
        let mut source = SyntheticSource::new(ctr(), 8);
        source.restore(&SourceState::TraceReplay {
            cursor: 0,
            rng_state: 1,
        });
    }

    #[test]
    fn trace_replay_is_seeded() {
        let mk = || TraceReplaySource::new(vec![table_trace(2, 10, 3, 8)], 4, 42).unwrap();
        let (mut a, mut b) = (mk(), mk());
        for _ in 0..3 {
            assert_eq!(*a.next_batch().unwrap(), *b.next_batch().unwrap());
        }
    }
}
