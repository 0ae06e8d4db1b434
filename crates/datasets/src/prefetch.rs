//! Background-prefetched batch generation: a [`PrefetchSource`] wraps
//! any [`BatchSource`] with a producer thread so batch *generation*
//! overlaps the consumer's work — the data-side counterpart of the
//! trainer's Section IV-B cast-ahead overlap.
//!
//! The cross-batch `TrainLoop` driver hides *casting* behind training,
//! but generation itself (dense draws, Zipf index sampling, planted
//! labels) was still paid inline: the training loop blocks in
//! `next_batch`, and the online serving loop pays it inside its update
//! slot. `PrefetchSource` moves that work onto a dedicated producer
//! thread feeding a bounded ready-queue:
//!
//! * **Same stream, any interleaving.** One producer sends down one FIFO
//!   channel, so the delivered checkout order is exactly the wrapped
//!   source's order — bit-identical regardless of how producer and
//!   consumer interleave (and recycling never changes a source's
//!   stream, by the [`BatchSource`] contract).
//! * **Bounded queue = backpressure.** Batches travel on a channel of
//!   `capacity - 1` slots and the producer holds one more while its send
//!   blocks, so at most `capacity` batches are ever ready and a fast
//!   producer cannot buffer unboundedly.
//! * **Free-list recycling across the thread boundary.** Batches given
//!   back via [`BatchSource::recycle`] travel back on a bounded channel
//!   the producer drains into the wrapped source before each generation,
//!   so the steady state refills recycled buffers instead of allocating:
//!   once `capacity + 2` buffers circulate, the wrapped source's
//!   free-list can never be empty at production time (buffers only move
//!   between the ready queue, the consumer, and the free-lists), and
//!   every later batch is an in-place refill (enforced in
//!   `tests/zero_alloc.rs`).
//!
//! Dropping a `PrefetchSource` (or calling
//! [`PrefetchSource::into_inner`]) hangs up the ready queue and joins the
//! producer; a producer blocked on a full queue wakes immediately, and
//! one that is mid-generation finishes its batch first. A producer that
//! panics drops its end of the queue, which wakes a waiting consumer into
//! a panic naming the cause.

use crate::source::{BatchSource, SourceState};
use crate::synthetic::CtrBatch;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Counters a [`PrefetchSource`] keeps about its producer/consumer
/// hand-off.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrefetchStats {
    /// Batches the producer thread generated.
    pub produced: u64,
    /// Batches handed to the consumer.
    pub delivered: u64,
    /// High-water mark of the ready-queue — never exceeds the capacity
    /// (the producer blocks instead of overfilling).
    pub max_ready: usize,
    /// Total time the producer spent blocked on a full ready-queue
    /// (backpressure; the consumer is the bottleneck), as of the last
    /// batch delivered: each batch carries the wait that preceded it.
    pub producer_wait: Duration,
    /// Total time the consumer spent blocked on an empty ready-queue —
    /// the *exposed* generation latency, the prefetch analogue of the
    /// trainer's exposed casting wait. Zero means generation was fully
    /// hidden behind the consumer's own work.
    pub consumer_wait: Duration,
}

/// One generated batch, the wrapped source's stream position *after*
/// generating it — so the consumer always knows the exact resume point
/// for what it has checked out, and the producer's run-ahead never leaks
/// into checkpoints — and the time the producer blocked to send the batch
/// before it. `None` ends the stream.
type Ready = Option<(Arc<CtrBatch>, Option<SourceState>, Duration)>;

/// A [`BatchSource`] adapter running the wrapped source on a background
/// producer thread behind a bounded ready-queue.
///
/// ```
/// use tcast_datasets::{BatchSource, PrefetchSource, SyntheticCtr, SyntheticSource, TableWorkload, Popularity};
///
/// let tables = vec![TableWorkload::new(Popularity::Uniform { rows: 50 }, 2)];
/// let inner = SyntheticSource::new(SyntheticCtr::new(tables, 4, 1), 16);
/// let mut source = PrefetchSource::new(inner, 2); // generation runs ahead
/// for _ in 0..5 {
///     let batch = source.next_batch().expect("synthetic streams are endless");
///     // ... train on `batch` while the producer generates the next ...
///     source.recycle(batch);
/// }
/// assert_eq!(source.stats().delivered, 5);
/// ```
pub struct PrefetchSource<S: BatchSource + Send + 'static> {
    /// The ready-queue's receiving end and the producer; taken on
    /// shutdown.
    producer: Option<(Receiver<Ready>, JoinHandle<S>)>,
    /// Recycled batches on their way back to the producer.
    free: SyncSender<Arc<CtrBatch>>,
    /// Batches generated, counted by the producer before it sends each.
    produced: Arc<AtomicU64>,
    capacity: usize,
    /// The wrapped source's position as of the last batch the consumer
    /// checked out (initially, its position at construction).
    consumed_state: Option<SourceState>,
    /// The wrapped source returned `None`: the stream is over.
    exhausted: bool,
    /// The consumer's counters (`produced` is read from the producer's).
    stats: PrefetchStats,
}

impl<S: BatchSource + Send + 'static> PrefetchSource<S> {
    /// Wraps `source`, spawning the producer thread with a ready-queue
    /// bound of `capacity` batches.
    ///
    /// Capacity 1 hands every batch over in a rendezvous (std's
    /// zero-capacity channel), whose blocking hand-off may allocate; the
    /// allocation-free steady state holds from capacity 2.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(source: S, capacity: usize) -> Self {
        assert!(capacity > 0, "need a nonzero prefetch capacity");
        let consumed_state = source.state();
        let (ready_tx, ready) = sync_channel(capacity - 1);
        let (free, free_rx) = sync_channel(capacity + 2);
        let produced = Arc::new(AtomicU64::new(0));
        let counter = Arc::clone(&produced);
        let producer = std::thread::Builder::new()
            .name("tcast-prefetch".to_string())
            .spawn(move || Self::produce(source, capacity, &ready_tx, &free_rx, &counter))
            .expect("spawn prefetch producer");
        Self {
            producer: Some((ready, producer)),
            free,
            produced,
            capacity,
            consumed_state,
            exhausted: false,
            stats: PrefetchStats::default(),
        }
    }

    /// The producer loop: drain recycled buffers into the wrapped source,
    /// generate one batch (the work being overlapped), send it — blocking
    /// while the queue is full. Returns the wrapped source at the end of
    /// the stream or once the consumer hangs up, so
    /// [`PrefetchSource::into_inner`] can hand it back.
    fn produce(
        mut source: S,
        capacity: usize,
        ready: &SyncSender<Ready>,
        free: &Receiver<Arc<CtrBatch>>,
        produced: &AtomicU64,
    ) -> S {
        // Prime the wrapped source's free pool with empty shells (its
        // `*_into` refill path sizes them on first use). With
        // `capacity + 2` buffers circulating from the start, a consumer
        // holding at most one batch can never catch the pool empty —
        // even when its recycle races the producer's drain — so the
        // warm steady state provably needs no fresh batch allocation.
        // Consumers that hold more batches at once self-stabilize: each
        // miss adds one buffer to the pool, permanently.
        for _ in 0..capacity + 2 {
            source.recycle(Arc::new(CtrBatch::default()));
        }
        let mut waited = Duration::ZERO;
        loop {
            for batch in free.try_iter() {
                source.recycle(batch);
            }
            let Some(batch) = source.next_batch() else {
                let _ = ready.send(None);
                return source;
            };
            produced.fetch_add(1, Ordering::Relaxed);
            waited = match ready.try_send(Some((batch, source.state(), waited))) {
                Ok(()) => Duration::ZERO,
                Err(TrySendError::Full(message)) => {
                    let t0 = Instant::now();
                    if ready.send(message).is_err() {
                        return source;
                    }
                    t0.elapsed()
                }
                Err(TrySendError::Disconnected(_)) => return source,
            };
        }
    }

    /// The ready-queue bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Batches generated and waiting to be checked out, including the one
    /// the producer holds while the queue is full.
    pub fn ready_len(&self) -> usize {
        // Read on the consumer's thread, never mid-reception: `delivered`
        // is exact, and `capacity - 1` queued batches plus the one the
        // producer holds bound the difference. (`Relaxed` suffices: the
        // channel orders each count before its batch's reception.)
        (self.produced.load(Ordering::Relaxed) - self.stats.delivered) as usize
    }

    /// Snapshot of the hand-off counters.
    pub fn stats(&self) -> PrefetchStats {
        PrefetchStats {
            produced: self.produced.load(Ordering::Relaxed),
            max_ready: self.stats.max_ready.max(self.ready_len()),
            ..self.stats
        }
    }

    /// Shuts the producer down and returns the wrapped source (with its
    /// own free-list intact). Batches still in the ready-queue or on
    /// their way back to the producer are dropped — a source must produce
    /// the same stream without them, per the [`BatchSource`] contract.
    ///
    /// # Panics
    ///
    /// Propagates a panic from the producer thread (i.e. from the
    /// wrapped source's `next_batch`/`recycle`).
    pub fn into_inner(mut self) -> S {
        match self.shutdown().expect("producer not yet joined") {
            Ok(source) => source,
            Err(payload) => std::panic::resume_unwind(payload),
        }
    }

    /// Hangs up the ready-queue, which ends the producer's loop at its
    /// next send, and joins the producer.
    fn shutdown(&mut self) -> Option<std::thread::Result<S>> {
        let (ready, producer) = self.producer.take()?;
        drop(ready);
        Some(producer.join())
    }
}

impl<S: BatchSource + Send + 'static> BatchSource for PrefetchSource<S> {
    /// Takes the oldest prefetched batch, blocking until the producer
    /// delivers one (the blocked time is recorded as
    /// [`PrefetchStats::consumer_wait`] — the exposed generation
    /// latency). Returns `None` once the wrapped stream is exhausted
    /// and the queue drained.
    ///
    /// # Panics
    ///
    /// Panics if the producer thread died without ending the stream
    /// (the wrapped source panicked mid-generation).
    fn next_batch(&mut self) -> Option<Arc<CtrBatch>> {
        if self.exhausted {
            return None;
        }
        // Between two checkouts the queue only fills: its high-water
        // mark is what it holds just before one.
        self.stats.max_ready = self.stats.max_ready.max(self.ready_len());
        let (ready, _) = self.producer.as_ref().expect("producer not yet joined");
        let message = ready.try_recv().or_else(|_| {
            let t0 = Instant::now();
            let message = ready.recv();
            self.stats.consumer_wait += t0.elapsed();
            message
        });
        let Some((batch, state, producer_wait)) =
            message.expect("prefetch producer died without exhausting the stream")
        else {
            self.exhausted = true;
            return None;
        };
        self.stats.delivered += 1;
        self.stats.producer_wait += producer_wait;
        self.consumed_state = state;
        Some(batch)
    }

    /// Sends the batch back to the producer, which drains it into the
    /// wrapped source before its next generation. Dropped instead when
    /// `capacity + 2` batches are already on their way back, or the
    /// producer is gone.
    fn recycle(&mut self, batch: Arc<CtrBatch>) {
        let _ = self.free.try_send(batch);
    }

    /// The wrapped source's position as of the last batch the *consumer*
    /// checked out — not the producer's run-ahead position. A fresh
    /// wrapped source restored to this state and re-wrapped continues
    /// the delivered stream exactly, which is how `TrainLoop` checkpoints
    /// through a prefetched source without draining it.
    fn state(&self) -> Option<SourceState> {
        self.consumed_state
    }

    fn restore(&mut self, state: &SourceState) -> Result<(), String> {
        Err(format!(
            "cannot restore {state:?}: restore the wrapped source before \
             constructing the PrefetchSource (the producer thread owns it \
             afterwards)"
        ))
    }
}

impl<S: BatchSource + Send + 'static> Drop for PrefetchSource<S> {
    fn drop(&mut self) {
        // Swallow a producer panic: propagating from drop would abort.
        // `into_inner` is the propagating path.
        let _ = self.shutdown();
    }
}

impl<S: BatchSource + Send + 'static> std::fmt::Debug for PrefetchSource<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PrefetchSource")
            .field("capacity", &self.capacity)
            .field("ready", &self.ready_len())
            .field("exhausted", &self.exhausted)
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::popularity::Popularity;
    use crate::source::{SyntheticSource, TraceReplaySource};
    use crate::synthetic::SyntheticCtr;
    use crate::workload::TableWorkload;

    fn ctr(seed: u64) -> SyntheticCtr {
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
        SyntheticCtr::new(tables, 4, seed)
    }

    fn trace(seed: u64, batches: usize, batch: usize) -> TraceReplaySource {
        let w = TableWorkload::new(
            Popularity::Zipf {
                rows: 200,
                exponent: 1.0,
            },
            3,
        );
        let mut g = w.generator(seed);
        let t: Vec<_> = (0..batches).map(|_| g.next_batch(batch)).collect();
        TraceReplaySource::new(vec![t], 4, seed).unwrap()
    }

    #[test]
    fn prefetched_stream_is_bit_identical_to_inline() {
        let mut inline = SyntheticSource::new(ctr(11), 16);
        let mut prefetched = PrefetchSource::new(SyntheticSource::new(ctr(11), 16), 3);
        for step in 0..12 {
            let want = inline.next_batch().unwrap();
            let got = prefetched.next_batch().unwrap();
            assert_eq!(*got, *want, "diverged at step {step}");
            inline.recycle(want);
            prefetched.recycle(got);
        }
        let stats = prefetched.stats();
        assert_eq!(stats.delivered, 12);
        assert!(stats.produced >= 12);
        assert!(
            stats.max_ready <= 3,
            "queue overfilled: {}",
            stats.max_ready
        );
    }

    #[test]
    fn prefetched_stream_is_identical_without_recycling() {
        // Recycling is an optimization, never a correctness requirement
        // — hoarding every batch must not change the stream.
        let mut inline = SyntheticSource::new(ctr(5), 8);
        let mut prefetched = PrefetchSource::new(SyntheticSource::new(ctr(5), 8), 2);
        let mut hoard = Vec::new();
        for step in 0..8 {
            let want = inline.next_batch().unwrap();
            let got = prefetched.next_batch().unwrap();
            assert_eq!(*got, *want, "diverged at step {step}");
            hoard.push(got);
        }
    }

    #[test]
    fn finite_trace_replay_exhausts_cleanly() {
        let mut plain = trace(7, 4, 8);
        let mut prefetched = PrefetchSource::new(trace(7, 4, 8), 2);
        for step in 0..4 {
            let want = plain.next_batch().unwrap();
            let got = prefetched.next_batch().expect("trace not exhausted");
            assert_eq!(*got, *want, "diverged at step {step}");
            prefetched.recycle(got);
        }
        assert!(prefetched.next_batch().is_none(), "trace must end");
        assert!(prefetched.next_batch().is_none(), "None must be sticky");
    }

    #[test]
    fn producer_respects_the_capacity_bound() {
        let prefetched = PrefetchSource::new(SyntheticSource::new(ctr(3), 8), 2);
        // Never consume: the producer fills the queue to capacity and
        // parks *before* generating a third batch.
        let deadline = Instant::now() + Duration::from_secs(5);
        while prefetched.ready_len() < 2 {
            assert!(Instant::now() < deadline, "producer never filled the queue");
            std::thread::yield_now();
        }
        std::thread::sleep(Duration::from_millis(20));
        let stats = prefetched.stats();
        assert_eq!(stats.produced, 2, "producer overran the bounded queue");
        assert_eq!(stats.max_ready, 2);
    }

    #[test]
    fn capacity_one_is_a_rendezvous_holding_one_batch() {
        // A channel of no slots: the one ready batch is the one the
        // producer holds in its send until the consumer takes it.
        let mut inline = SyntheticSource::new(ctr(4), 8);
        let mut prefetched = PrefetchSource::new(SyntheticSource::new(ctr(4), 8), 1);
        let deadline = Instant::now() + Duration::from_secs(5);
        while prefetched.ready_len() < 1 {
            assert!(Instant::now() < deadline, "producer never made a batch");
            std::thread::yield_now();
        }
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(prefetched.stats().produced, 1, "producer ran ahead");
        for step in 0..6 {
            let want = inline.next_batch().unwrap();
            let got = prefetched.next_batch().unwrap();
            assert_eq!(*got, *want, "diverged at step {step}");
            assert!(prefetched.stats().max_ready <= 1);
            prefetched.recycle(got);
        }
    }

    #[test]
    fn into_inner_returns_the_wrapped_source() {
        let mut prefetched = PrefetchSource::new(SyntheticSource::new(ctr(9), 16), 2);
        let first = prefetched.next_batch().unwrap();
        prefetched.recycle(first);
        // The wrapped source keeps working after unwrapping. Its stream
        // position reflects every batch the producer generated — some
        // were dropped with the ready-queue, which is fine: the stream,
        // not the buffers, is the contract.
        let mut inner = prefetched.into_inner();
        assert!(inner.next_batch().is_some());
    }

    #[test]
    fn consumer_wait_is_recorded_when_the_producer_is_slow() {
        struct Slow(SyntheticSource);
        impl BatchSource for Slow {
            fn next_batch(&mut self) -> Option<Arc<CtrBatch>> {
                std::thread::sleep(Duration::from_millis(2));
                self.0.next_batch()
            }
            fn recycle(&mut self, batch: Arc<CtrBatch>) {
                self.0.recycle(batch);
            }
        }
        let mut prefetched = PrefetchSource::new(Slow(SyntheticSource::new(ctr(13), 8)), 1);
        for _ in 0..3 {
            let b = prefetched.next_batch().unwrap();
            prefetched.recycle(b);
        }
        assert!(prefetched.stats().consumer_wait > Duration::ZERO);
    }

    #[test]
    #[should_panic(expected = "producer died")]
    fn panicking_source_fails_the_consumer_instead_of_deadlocking() {
        struct Bomb;
        impl BatchSource for Bomb {
            fn next_batch(&mut self) -> Option<Arc<CtrBatch>> {
                panic!("synthetic source failure");
            }
            fn recycle(&mut self, _batch: Arc<CtrBatch>) {}
        }
        let mut prefetched = PrefetchSource::new(Bomb, 2);
        let _ = prefetched.next_batch();
    }

    #[test]
    fn prefetch_state_tracks_the_consumer_not_the_producer() {
        use crate::source::SourceState;
        // An inline source consumed in lockstep defines the expected
        // resume point; the prefetched source must report the same state
        // even while its producer runs ahead.
        let mut inline = SyntheticSource::new(ctr(17), 8);
        let mut prefetched = PrefetchSource::new(SyntheticSource::new(ctr(17), 8), 3);
        assert_eq!(prefetched.state(), inline.state(), "initial state");
        for step in 0..6 {
            let a = inline.next_batch().unwrap();
            let b = prefetched.next_batch().unwrap();
            assert_eq!(*a, *b);
            inline.recycle(a);
            prefetched.recycle(b);
            let (Some(SourceState::Synthetic { rng_state: ri, .. }), Some(state)) =
                (inline.state(), prefetched.state())
            else {
                panic!("synthetic sources must report state");
            };
            let SourceState::Synthetic { rng_state: rp, .. } = state else {
                panic!("wrong variant");
            };
            assert_eq!(rp, ri, "state diverged at step {step}");
            // Resuming a fresh source from the prefetched state continues
            // the delivered stream (checked on the last step).
            if step == 5 {
                let mut resumed = SyntheticSource::new(ctr(17), 8);
                resumed.restore(&state).unwrap();
                let want = inline.next_batch().unwrap();
                let got = resumed.next_batch().unwrap();
                assert_eq!(*got, *want, "resumed stream diverged");
            }
        }
    }

    #[test]
    fn steady_state_circulates_a_bounded_buffer_pool() {
        // The allocation-free claim, certified structurally: with the
        // consumer recycling every batch, the wrapped source's free-list
        // plus the circulating buffers stop growing — every refill after
        // warm-up reuses a recycled CtrBatch. (The counting-allocator
        // enforcement lives in tests/zero_alloc.rs.)
        let mut prefetched = PrefetchSource::new(SyntheticSource::new(ctr(21), 16), 2);
        for _ in 0..40 {
            let b = prefetched.next_batch().unwrap();
            prefetched.recycle(b);
        }
        let inner = prefetched.into_inner();
        // Capacity 2 in the queue + 1 at the consumer + free-list slack.
        assert!(
            inner.free_list_len() <= 2 + 2,
            "buffer pool grew without bound: {} buffers parked",
            inner.free_list_len()
        );
    }
}
