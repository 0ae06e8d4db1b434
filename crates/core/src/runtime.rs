//! The software runtime of Section IV-B: hide the casting stage inside
//! forward propagation.
//!
//! "An important observation from Algorithm 2 is that all the data
//! structures required to generate the T.Casted index array is already
//! available at the very beginning of forward propagation." The paper
//! therefore ships the index arrays to the (otherwise idle) GPU, casts
//! them there while the CPU runs embedding gather-reduce, and has the
//! casted arrays ready by the time backpropagation needs them (Fig. 9b).
//!
//! [`CastingPipeline`] is the host-side embodiment: a dedicated worker
//! thread plays the role of the GPU's casting kernel. Training code
//! submits the iteration's index arrays *before* starting forward
//! propagation and collects the casted arrays when backward reaches the
//! embedding layers; the pipeline records how much of the casting latency
//! was actually exposed (i.e. how long the collect blocked). Casted arrays
//! the caller is done with go back through [`CastingPipeline::recycle`],
//! and the worker casts later jobs into them: in steady state casting
//! allocates nothing on either thread.

use std::collections::{HashMap, HashSet};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use crate::casted_index::CastedIndexArray;
use crate::casting::tensor_casting_into;
use crate::fault::FaultPlan;
use tcast_embedding::{IndexArray, RadixScratch};

/// Default bound on uncompleted casting jobs (submitted but not yet cast).
/// Generous enough that any sane lookahead depth never blocks, small
/// enough that a runaway submitter cannot grow the job queue without
/// bound before the worker catches up.
pub const DEFAULT_INFLIGHT_CAP: usize = 64;

/// A handle for one submitted casting job (one training iteration's worth
/// of index arrays, one per embedding table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct JobTicket(u64);

/// Aggregate pipeline timing statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PipelineStats {
    /// Jobs completed by the worker.
    pub jobs_completed: u64,
    /// Total time the worker spent casting (would-be GPU kernel time).
    pub casting_time: Duration,
    /// Total time callers spent blocked in [`CastingPipeline::collect`] —
    /// the *exposed* casting latency. Zero means casting was fully hidden
    /// under forward propagation, the Fig. 9b ideal.
    pub exposed_wait: Duration,
    /// High-water mark of uncompleted jobs (submitted, not yet cast).
    /// Never exceeds the pipeline's in-flight cap: `submit` blocks
    /// (backpressure) instead of letting the job queue grow.
    pub max_in_flight: u64,
    /// Total time submitters spent blocked on the in-flight cap.
    pub backpressure_wait: Duration,
}

impl PipelineStats {
    /// Fraction of casting time that was hidden under other work
    /// (1.0 = fully hidden). Returns 1.0 when no casting has run.
    pub fn hidden_fraction(&self) -> f64 {
        if self.casting_time.is_zero() {
            return 1.0;
        }
        let exposed = self.exposed_wait.as_secs_f64();
        let total = self.casting_time.as_secs_f64();
        (1.0 - (exposed / total).min(1.0)).max(0.0)
    }
}

struct Job {
    id: u64,
    indices: Arc<[IndexArray]>,
}

struct JobResult {
    id: u64,
    casted: Vec<CastedIndexArray>,
}

/// The uncompleted-job gauge plus the worker-death flag, shared between
/// submitters (who block on the cap) and the worker (who drains it).
struct Gauge {
    count: usize,
    /// The worker thread panicked. Every blocked or future submit/collect
    /// must panic instead of waiting for progress that can never come.
    dead: bool,
}

type SharedGauge = Arc<(Mutex<Gauge>, Condvar)>;

/// Collected jobs' arrays handed back for the worker to cast into.
type FreeList = Arc<Mutex<Vec<Vec<CastedIndexArray>>>>;

/// Locks the gauge, recovering from poisoning: a panicking worker must
/// still be able to publish its death, and survivors must still read it.
fn lock_gauge(gauge: &SharedGauge) -> MutexGuard<'_, Gauge> {
    gauge.0.lock().unwrap_or_else(|e| e.into_inner())
}

/// Publishes worker death on *every* panic exit path — including a panic
/// in the casting kernel itself — so a submitter blocked on the in-flight
/// cap (whose slot the dead worker will never drain) wakes and fails
/// cleanly instead of hanging.
struct WorkerExitGuard(SharedGauge);

impl Drop for WorkerExitGuard {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let mut g = lock_gauge(&self.0);
            g.dead = true;
            self.0 .1.notify_all();
        }
    }
}

/// Asynchronous casting pipeline: submit index arrays early, collect
/// casted arrays when backward needs them.
///
/// ```
/// use tcast_core::CastingPipeline;
/// use tcast_embedding::IndexArray;
///
/// let mut pipeline = CastingPipeline::new();
/// let index = IndexArray::from_samples(&[vec![1, 2, 4], vec![0, 2]]).unwrap();
/// let ticket = pipeline.submit(vec![index]);
/// // ... forward propagation runs here, overlapped with casting ...
/// let casted = pipeline.collect(ticket);
/// assert_eq!(casted[0].gather_src(), &[1, 0, 0, 1, 0]);
/// ```
pub struct CastingPipeline {
    tx: Option<Sender<Job>>,
    rx: Receiver<JobResult>,
    worker: Option<std::thread::JoinHandle<()>>,
    /// Uncompleted-job gauge shared with the worker; `submit` blocks on
    /// the condvar while the gauge sits at `inflight_cap`.
    in_flight: SharedGauge,
    inflight_cap: usize,
    /// Optional fault-injection hook the worker consults once per job.
    fault: Arc<Mutex<Option<(FaultPlan, String)>>>,
    /// Arrays handed back through [`CastingPipeline::recycle`].
    free: FreeList,
    ready: HashMap<u64, Vec<CastedIndexArray>>,
    /// Lowest ticket id not yet collected: everything below it is
    /// collected. In-order collection (the trainer's pattern) only moves
    /// this watermark, so the already-collected guard costs O(1) memory
    /// over an arbitrarily long training run.
    collect_watermark: u64,
    /// Collected ids at or above the watermark (out-of-order collects
    /// only); drained as the watermark advances past them.
    collected_ahead: HashSet<u64>,
    next_id: u64,
    stats: Arc<Mutex<PipelineStats>>,
}

impl CastingPipeline {
    /// Spawns the casting worker thread with the
    /// [`DEFAULT_INFLIGHT_CAP`].
    pub fn new() -> Self {
        Self::with_inflight_cap(DEFAULT_INFLIGHT_CAP)
    }

    /// [`CastingPipeline::new`] with an explicit bound on *uncompleted*
    /// jobs (submitted but not yet cast). When the bound is reached,
    /// [`CastingPipeline::submit`] blocks until the worker drains a job —
    /// backpressure instead of unbounded job-queue growth. Worker
    /// progress alone releases the block (no collect required), so a
    /// submit-only caller cannot deadlock itself.
    ///
    /// # Panics
    ///
    /// Panics if `cap == 0`.
    pub fn with_inflight_cap(cap: usize) -> Self {
        assert!(cap > 0, "need a nonzero in-flight cap");
        let (job_tx, job_rx) = channel::<Job>();
        let (res_tx, res_rx) = channel::<JobResult>();
        let stats = Arc::new(Mutex::new(PipelineStats::default()));
        let in_flight: SharedGauge = Arc::new((
            Mutex::new(Gauge {
                count: 0,
                dead: false,
            }),
            Condvar::new(),
        ));
        let fault: Arc<Mutex<Option<(FaultPlan, String)>>> = Arc::new(Mutex::new(None));
        let free = FreeList::default();
        let worker = {
            let worker_stats = Arc::clone(&stats);
            let worker_gauge = Arc::clone(&in_flight);
            let worker_fault = Arc::clone(&fault);
            let worker_free = Arc::clone(&free);
            std::thread::Builder::new()
                .name("tcast-casting-0".into())
                .spawn(move || {
                    let _guard = WorkerExitGuard(Arc::clone(&worker_gauge));
                    let mut scratch = RadixScratch::default();
                    // Ends when the pipeline drops the job sender.
                    for job in job_rx {
                        if let Some((plan, site)) = worker_fault
                            .lock()
                            .unwrap_or_else(|poisoned| poisoned.into_inner())
                            .clone()
                        {
                            assert!(
                                !plan.should_fail(&site),
                                "injected casting-worker fault at {site}"
                            );
                        }
                        let start = Instant::now();
                        let mut casted = worker_free
                            .lock()
                            .unwrap_or_else(|poisoned| poisoned.into_inner())
                            .pop()
                            .unwrap_or_default();
                        casted.resize_with(job.indices.len(), CastedIndexArray::default);
                        for (index, out) in job.indices.iter().zip(&mut casted) {
                            tensor_casting_into(index, out, &mut scratch);
                        }
                        let elapsed = start.elapsed();
                        {
                            let mut s = worker_stats.lock().expect("pipeline stats poisoned");
                            s.jobs_completed += 1;
                            s.casting_time += elapsed;
                        }
                        // Drain the in-flight gauge *before* publishing the
                        // result: a submitter blocked on the cap wakes as soon
                        // as the casting work is done.
                        {
                            let mut g = lock_gauge(&worker_gauge);
                            g.count -= 1;
                            worker_gauge.1.notify_one();
                        }
                        if res_tx.send(JobResult { id: job.id, casted }).is_err() {
                            break; // pipeline dropped
                        }
                    }
                })
                .expect("spawn casting worker")
        };
        Self {
            tx: Some(job_tx),
            rx: res_rx,
            worker: Some(worker),
            in_flight,
            inflight_cap: cap,
            fault,
            free,
            ready: HashMap::new(),
            collect_watermark: 0,
            collected_ahead: HashSet::new(),
            next_id: 0,
            stats,
        }
    }

    /// Arms deterministic fault injection: every subsequent job hits
    /// `site` on `plan` once before casting, and an armed occurrence
    /// panics the worker — the stress suite's handle for proving that a
    /// mid-pipeline crash surfaces as a clean panic on the training
    /// thread (never a hang), see `tests/fault_injection.rs`.
    pub fn set_fault_plan(&self, plan: FaultPlan, site: impl Into<String>) {
        *self
            .fault
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner()) = Some((plan, site.into()));
    }

    /// Submits one iteration's index arrays (one per table) for casting.
    /// Returns a ticket to [`CastingPipeline::collect`] with.
    ///
    /// Call this *before* forward propagation so the casting latency
    /// overlaps with it.
    ///
    /// The arrays travel to the worker as an `Arc<[IndexArray]>` share:
    /// a caller that already holds its batch indices behind an `Arc`
    /// (as `CtrBatch` does) pays one refcount bump per step instead of
    /// deep-cloning every table's index arrays — the last steady-state
    /// allocation the casted hot path used to make.
    ///
    /// If the number of uncompleted jobs has reached the in-flight cap,
    /// this call **blocks** until the worker drains one (backpressure); the
    /// time spent blocked is recorded in
    /// [`PipelineStats::backpressure_wait`].
    pub fn submit(&mut self, indices: impl Into<Arc<[IndexArray]>>) -> JobTicket {
        {
            let mut g = lock_gauge(&self.in_flight);
            assert!(!g.dead, "casting worker died; pipeline is unusable");
            if g.count >= self.inflight_cap {
                let start = Instant::now();
                while g.count >= self.inflight_cap {
                    g = self
                        .in_flight
                        .1
                        .wait(g)
                        .unwrap_or_else(|poisoned| poisoned.into_inner());
                    // A dead worker never drains its slot: fail the
                    // blocked submitter instead of waiting forever.
                    assert!(!g.dead, "casting worker died; pipeline is unusable");
                }
                self.stats
                    .lock()
                    .expect("pipeline stats poisoned")
                    .backpressure_wait += start.elapsed();
            }
            g.count += 1;
            let count = g.count;
            drop(g);
            let mut s = self.stats.lock().expect("pipeline stats poisoned");
            s.max_in_flight = s.max_in_flight.max(count as u64);
        }
        let id = self.next_id;
        self.next_id += 1;
        self.tx
            .as_ref()
            .expect("pipeline not shut down")
            .send(Job {
                id,
                indices: indices.into(),
            })
            .expect("casting worker alive");
        JobTicket(id)
    }

    /// Number of submitted jobs not yet cast by the worker.
    pub fn in_flight(&self) -> usize {
        lock_gauge(&self.in_flight).count
    }

    /// The casting time the worker still has ahead of it, estimated as the
    /// jobs in flight times the mean duration of the jobs cast so far
    /// (zero until one has been). What a caller with work to hand a second
    /// core asks first: a long backlog means the worker is using it.
    pub fn backlog(&self) -> Duration {
        let stats = self.stats();
        match (self.in_flight(), stats.jobs_completed) {
            (0, _) | (_, 0) => Duration::ZERO,
            (jobs, done) => stats.casting_time.mul_f64(jobs as f64 / done as f64),
        }
    }

    /// Whether the worker thread has died (panicked); a dead pipeline fails
    /// every subsequent `submit`/`collect` with a panic instead of
    /// hanging.
    pub fn worker_died(&self) -> bool {
        lock_gauge(&self.in_flight).dead
    }

    /// The bound on uncompleted jobs that [`CastingPipeline::submit`]
    /// enforces by blocking.
    pub fn inflight_cap(&self) -> usize {
        self.inflight_cap
    }

    /// Blocks until the given job's casted arrays are ready and returns
    /// them. Time spent blocking is recorded as *exposed* casting latency
    /// in [`PipelineStats`].
    ///
    /// # Panics
    ///
    /// Panics if the ticket was never issued by this pipeline, was already
    /// collected, or the worker thread died.
    pub fn collect(&mut self, ticket: JobTicket) -> Vec<CastedIndexArray> {
        self.collect_timed(ticket).0
    }

    /// [`CastingPipeline::collect`] with per-ticket exposed-wait
    /// attribution: returns the casted arrays *and* how long this call
    /// blocked waiting for them. A zero duration means this job's casting
    /// latency was fully hidden — the per-step version of
    /// [`PipelineStats::hidden_fraction`]'s Fig. 9b ideal, which the
    /// cross-batch training driver reports per lookahead depth.
    ///
    /// # Panics
    ///
    /// Panics if the ticket was never issued by this pipeline, was already
    /// collected, or the worker thread died.
    pub fn collect_timed(&mut self, ticket: JobTicket) -> (Vec<CastedIndexArray>, Duration) {
        assert!(ticket.0 < self.next_id, "unknown ticket {ticket:?}");
        // A collected id is gone from `ready`, so without this guard the
        // recv loop below would block forever on a result that can never
        // arrive — the panic the doc promises instead.
        assert!(
            ticket.0 >= self.collect_watermark && !self.collected_ahead.contains(&ticket.0),
            "ticket {ticket:?} already collected"
        );
        if ticket.0 == self.collect_watermark {
            self.collect_watermark += 1;
            while self.collected_ahead.remove(&self.collect_watermark) {
                self.collect_watermark += 1;
            }
        } else {
            self.collected_ahead.insert(ticket.0);
        }
        // Drain results that already arrived before starting the clock:
        // a job whose casting finished during earlier work must report
        // exactly zero exposed wait, not the channel-recv overhead.
        while let Ok(result) = self.rx.try_recv() {
            self.ready.insert(result.id, result.casted);
        }
        if let Some(casted) = self.ready.remove(&ticket.0) {
            return (casted, Duration::ZERO);
        }
        let start = Instant::now();
        loop {
            // A worker that panicked mid-job can never deliver this
            // result: poll the death flag between bounded waits rather
            // than trust a plain recv to notice — a message still wakes
            // the recv immediately.
            assert!(
                !self.worker_died(),
                "casting worker died; job {} can never complete",
                ticket.0
            );
            let result = match self.rx.recv_timeout(Duration::from_millis(20)) {
                Ok(result) => result,
                Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => {
                    panic!("casting worker died; job {} can never complete", ticket.0)
                }
            };
            if result.id == ticket.0 {
                let exposed = start.elapsed();
                self.stats
                    .lock()
                    .expect("pipeline stats poisoned")
                    .exposed_wait += exposed;
                return (result.casted, exposed);
            }
            self.ready.insert(result.id, result.casted);
        }
    }

    /// Hands a collected job's arrays back: the worker casts a later job
    /// into them, reusing their buffers, instead of allocating — what a
    /// caller does with each job's arrays once its backward is done, the
    /// way `tcast-datasets`' `BatchSource::recycle` returns batches.
    /// Optional: a pipeline that never gets arrays back allocates each
    /// job's arrays afresh.
    pub fn recycle(&self, casted: Vec<CastedIndexArray>) {
        self.free
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .push(casted);
    }

    /// Returns whether the given job has already finished (non-blocking).
    pub fn is_ready(&mut self, ticket: JobTicket) -> bool {
        while let Ok(result) = self.rx.try_recv() {
            self.ready.insert(result.id, result.casted);
        }
        self.ready.contains_key(&ticket.0)
    }

    /// Snapshot of the pipeline's timing statistics.
    pub fn stats(&self) -> PipelineStats {
        *self.stats.lock().expect("pipeline stats poisoned")
    }
}

impl Default for CastingPipeline {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for CastingPipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CastingPipeline")
            .field("next_id", &self.next_id)
            .field("buffered", &self.ready.len())
            .field("stats", &self.stats())
            .finish()
    }
}

impl Drop for CastingPipeline {
    fn drop(&mut self) {
        // Close the job channel so the worker exits, then join it.
        self.tx.take();
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::casting::tensor_casting;
    use crate::gather_reduce::casted_gather_reduce;
    use tcast_embedding::gradient_expand_coalesce;
    use tcast_tensor::{Matrix, SplitMix64};

    fn random_indices(count: usize, seed: u64) -> Vec<IndexArray> {
        let mut rng = SplitMix64::new(seed);
        (0..count)
            .map(|_| {
                let samples: Vec<Vec<u32>> = (0..16)
                    .map(|_| (0..4).map(|_| rng.next_below(40) as u32).collect())
                    .collect();
                IndexArray::from_samples(&samples).unwrap()
            })
            .collect()
    }

    #[test]
    fn submit_collect_roundtrip() {
        let mut p = CastingPipeline::new();
        let indices = random_indices(3, 1);
        let expected: Vec<_> = indices.iter().map(tensor_casting).collect();
        let ticket = p.submit(indices);
        let casted = p.collect(ticket);
        assert_eq!(casted, expected);
        assert_eq!(p.stats().jobs_completed, 1);
    }

    #[test]
    fn multiple_in_flight_jobs_collect_in_any_order() {
        let mut p = CastingPipeline::new();
        let a = random_indices(2, 2);
        let b = random_indices(2, 3);
        let ea: Vec<_> = a.iter().map(tensor_casting).collect();
        let eb: Vec<_> = b.iter().map(tensor_casting).collect();
        let ta = p.submit(a);
        let tb = p.submit(b);
        // Collect out of submission order.
        assert_eq!(p.collect(tb), eb);
        assert_eq!(p.collect(ta), ea);
        assert_eq!(p.stats().jobs_completed, 2);
    }

    #[test]
    fn pipelined_training_loop_matches_baseline() {
        // Double-buffered usage: iteration i trains while i+1 casts.
        let mut p = CastingPipeline::new();
        let mut rng = SplitMix64::new(9);
        let iters: Vec<Vec<IndexArray>> = (0..5).map(|i| random_indices(2, 100 + i)).collect();

        let mut tickets = std::collections::VecDeque::new();
        tickets.push_back(p.submit(iters[0].clone()));
        for i in 0..iters.len() {
            if i + 1 < iters.len() {
                tickets.push_back(p.submit(iters[i + 1].clone()));
            }
            let casted = p.collect(tickets.pop_front().unwrap());
            for (index, c) in iters[i].iter().zip(casted.iter()) {
                let mut grads = Matrix::zeros(index.num_outputs(), 4);
                for v in grads.as_mut_slice() {
                    *v = rng.next_range(-1.0, 1.0);
                }
                let via_pipeline = casted_gather_reduce(&grads, c).unwrap();
                let baseline = gradient_expand_coalesce(&grads, index).unwrap();
                assert_eq!(baseline.grads().as_slice(), via_pipeline.grads().as_slice());
            }
        }
        assert_eq!(p.stats().jobs_completed, 5);
    }

    #[test]
    fn is_ready_becomes_true() {
        let mut p = CastingPipeline::new();
        let ticket = p.submit(random_indices(1, 4));
        // Poll until ready (worker is fast; bound the wait).
        let deadline = Instant::now() + Duration::from_secs(5);
        while !p.is_ready(ticket) {
            assert!(Instant::now() < deadline, "worker never finished");
            std::thread::yield_now();
        }
        let casted = p.collect(ticket);
        assert_eq!(casted.len(), 1);
    }

    #[test]
    #[should_panic(expected = "unknown ticket")]
    fn collect_unknown_ticket_panics() {
        let mut p = CastingPipeline::new();
        p.collect(JobTicket(42));
    }

    #[test]
    #[should_panic(expected = "already collected")]
    fn collect_twice_panics_instead_of_hanging() {
        // Regression: the id is gone from `ready` after the first
        // collect, so a second collect used to block in recv() forever.
        let mut p = CastingPipeline::new();
        let ticket = p.submit(random_indices(1, 6));
        let _ = p.collect(ticket);
        let _ = p.collect(ticket);
    }

    #[test]
    #[should_panic(expected = "already collected")]
    fn double_collect_detected_after_out_of_order_collection() {
        // The watermark only covers in-order collects; ids collected
        // ahead of it must be remembered until the watermark passes them.
        let mut p = CastingPipeline::new();
        let _ta = p.submit(random_indices(1, 8));
        let tb = p.submit(random_indices(1, 9));
        let _ = p.collect(tb); // out of order: watermark stays behind
        let _ = p.collect(tb);
    }

    #[test]
    fn in_order_collection_keeps_the_guard_set_empty() {
        // The trainer collects strictly in submission order; the
        // already-collected guard must then be a watermark bump, not a
        // per-step set insertion (unbounded growth over a training run).
        let mut p = CastingPipeline::new();
        for i in 0..20 {
            let t = p.submit(random_indices(1, 100 + i));
            let _ = p.collect(t);
        }
        assert_eq!(p.collect_watermark, 20);
        assert!(p.collected_ahead.is_empty());
        // Out-of-order collects pass through the set, then drain as the
        // watermark catches up.
        let ta = p.submit(random_indices(1, 200));
        let tb = p.submit(random_indices(1, 201));
        let _ = p.collect(tb);
        assert_eq!(p.collected_ahead.len(), 1);
        let _ = p.collect(ta);
        assert_eq!(p.collect_watermark, 22);
        assert!(p.collected_ahead.is_empty());
    }

    #[test]
    fn arc_submissions_share_without_cloning() {
        // The trainer's steady-state path: one Arc<[IndexArray]> per
        // batch, re-submitted by refcount bump. Results must match the
        // synchronous casting of the same arrays.
        let mut p = CastingPipeline::new();
        let indices: Arc<[IndexArray]> = random_indices(3, 7).into();
        let expected: Vec<_> = indices.iter().map(tensor_casting).collect();
        for _ in 0..3 {
            let ticket = p.submit(Arc::clone(&indices));
            assert_eq!(p.collect(ticket), expected);
        }
        drop(p); // joins the worker, releasing its shares
        assert_eq!(Arc::strong_count(&indices), 1);
    }

    #[test]
    fn recycled_arrays_carry_a_later_job() {
        // The worker casts into arrays handed back, reusing their buffers:
        // the same allocations come out of the next job, holding its casts.
        let mut p = CastingPipeline::new();
        let ticket = p.submit(random_indices(3, 30));
        let first = p.collect(ticket);
        let buffers = |casted: &[CastedIndexArray]| -> Vec<[*const u32; 3]> {
            casted
                .iter()
                .map(|c| {
                    [
                        c.gather_src().as_ptr(),
                        c.reduce_dst().as_ptr(),
                        c.unique_rows().as_ptr(),
                    ]
                })
                .collect()
        };
        let recycled = buffers(&first);
        p.recycle(first);
        // Fewer tables, same batch size: every table's buffers suffice.
        let later = random_indices(2, 31);
        let expected: Vec<_> = later.iter().map(tensor_casting).collect();
        let ticket = p.submit(later);
        let second = p.collect(ticket);
        assert_eq!(second, expected);
        assert_eq!(buffers(&second), recycled[..2]);
        // A job with no arrays to recycle allocates its own.
        let ticket = p.submit(random_indices(1, 32));
        assert_ne!(buffers(&p.collect(ticket))[0], recycled[0]);
    }

    #[test]
    fn hidden_fraction_bounds() {
        let s = PipelineStats::default();
        assert_eq!(s.hidden_fraction(), 1.0);
        let s = PipelineStats {
            jobs_completed: 1,
            casting_time: Duration::from_millis(10),
            exposed_wait: Duration::from_millis(10),
            ..Default::default()
        };
        assert!(s.hidden_fraction() < 1e-9);
        let s = PipelineStats {
            jobs_completed: 1,
            casting_time: Duration::from_millis(10),
            exposed_wait: Duration::from_millis(5),
            ..Default::default()
        };
        assert!((s.hidden_fraction() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn collect_timed_attributes_exposed_wait_per_ticket() {
        let mut p = CastingPipeline::new();
        // Collect immediately: whatever this ticket's wait was, it must
        // equal the aggregate (only job so far).
        let t = p.submit(random_indices(2, 11));
        let (casted, exposed) = p.collect_timed(t);
        assert_eq!(casted.len(), 2);
        assert_eq!(p.stats().exposed_wait, exposed);
        // A job that is already finished when collected reports zero
        // exposed wait and adds nothing to the aggregate.
        let t = p.submit(random_indices(1, 12));
        let deadline = Instant::now() + Duration::from_secs(5);
        while !p.is_ready(t) {
            assert!(Instant::now() < deadline, "worker never finished");
            std::thread::yield_now();
        }
        let before = p.stats().exposed_wait;
        let (_, exposed) = p.collect_timed(t);
        assert_eq!(exposed, Duration::ZERO);
        assert_eq!(p.stats().exposed_wait, before);
    }

    #[test]
    fn inflight_cap_blocks_submit_until_the_worker_drains() {
        // With cap 1, the second submit cannot return before the first
        // job has been *cast* (not collected!) — deterministic evidence
        // that the cap back-pressures the submitter instead of queueing.
        let mut p = CastingPipeline::with_inflight_cap(1);
        assert_eq!(p.inflight_cap(), 1);
        let ta = p.submit(random_indices(2, 13));
        let tb = p.submit(random_indices(2, 14));
        assert!(p.stats().jobs_completed >= 1, "submit overtook the cap");
        let _ = p.collect(ta);
        let _ = p.collect(tb);
        assert_eq!(p.stats().jobs_completed, 2);
        assert_eq!(p.stats().max_in_flight, 1);
    }

    #[test]
    fn max_in_flight_never_exceeds_the_cap() {
        let mut p = CastingPipeline::with_inflight_cap(3);
        let tickets: Vec<_> = (0..12)
            .map(|i| p.submit(random_indices(1, 300 + i)))
            .collect();
        for t in tickets {
            let _ = p.collect(t);
        }
        let stats = p.stats();
        assert_eq!(stats.jobs_completed, 12);
        assert!(
            stats.max_in_flight <= 3,
            "cap violated: {} in flight",
            stats.max_in_flight
        );
        assert_eq!(p.in_flight(), 0);
    }

    #[test]
    #[should_panic(expected = "nonzero in-flight cap")]
    fn zero_inflight_cap_rejected() {
        CastingPipeline::with_inflight_cap(0);
    }

    #[test]
    fn drop_joins_worker_cleanly() {
        let mut p = CastingPipeline::new();
        let _ = p.submit(random_indices(1, 5));
        drop(p); // must not hang or panic even with an uncollected job
    }

    #[test]
    fn worker_panic_fails_collect_instead_of_hanging() {
        let mut p = CastingPipeline::new();
        let plan = FaultPlan::new();
        plan.arm("cast", 0);
        p.set_fault_plan(plan.clone(), "cast");
        let t = p.submit(random_indices(1, 52));
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| p.collect(t)));
        let err = res.expect_err("collect must panic, not hang");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("casting worker died"), "message: {msg}");
        assert!(p.worker_died());
        assert_eq!(plan.fired(), vec![("cast".to_string(), 0)]);
    }

    #[test]
    fn worker_panic_fails_blocked_submitters_instead_of_hanging() {
        // Regression: a worker that panicked mid-job never drains its
        // in-flight slot, so with cap 1 the next submit used to block on
        // the gauge condvar forever. The exit guard must wake and fail
        // it.
        let mut p = CastingPipeline::with_inflight_cap(1);
        let plan = FaultPlan::new();
        plan.arm("cast", 0);
        p.set_fault_plan(plan, "cast");
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = p.submit(random_indices(1, 53));
            let _ = p.submit(random_indices(1, 54));
            // With the dead flag unchecked the second submit would hang;
            // reaching here without panicking means the fault was missed.
        }));
        assert!(res.is_err(), "submit after worker death must panic");
        assert!(p.worker_died());
    }
}
