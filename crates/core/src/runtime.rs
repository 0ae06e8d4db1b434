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
//!
//! The worker shares only channels and one counter with its caller. Jobs
//! travel on a bounded channel (a submitter blocks at the in-flight cap),
//! results come back in submission order with their cast time on an
//! unbounded one (a caller that never collects cannot block the worker,
//! so it cannot deadlock itself), recycled arrays go back on a bounded
//! one, and an atomic counts the jobs not yet cast. A worker that panics
//! drops its channel ends, which wakes every blocked `submit` and
//! `collect` into a panic naming the cause.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, sync_channel, Receiver, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::casted_index::CastedIndexArray;
use crate::casting::tensor_casting_into;
use crate::fault::FaultPlan;
use tcast_embedding::{IndexArray, RadixScratch};

/// Bound on uncompleted casting jobs (submitted but not yet cast).
/// Generous enough that any sane lookahead depth never blocks, small
/// enough that a runaway submitter cannot grow the job queue without
/// bound before the worker catches up.
const INFLIGHT_CAP: usize = 64;

/// A handle for one submitted casting job (one training iteration's worth
/// of index arrays, one per embedding table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct JobTicket(u64);

/// Aggregate pipeline timing statistics, counted by the caller as it
/// receives results.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PipelineStats {
    /// Jobs whose casted arrays the caller has received.
    pub jobs_completed: u64,
    /// Total time the worker spent casting those jobs (would-be GPU
    /// kernel time).
    pub casting_time: Duration,
    /// Total time callers spent blocked in [`CastingPipeline::collect`] —
    /// the *exposed* casting latency. Zero means casting was fully hidden
    /// under forward propagation, the Fig. 9b ideal.
    pub exposed_wait: Duration,
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
    indices: Arc<[IndexArray]>,
    /// The fault plan and site this job passes once before casting.
    fault: Option<(FaultPlan, Arc<str>)>,
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
    /// The job queue's sending end and the worker; taken on drop, which
    /// closes the queue and joins the worker.
    worker: Option<(SyncSender<Job>, JoinHandle<()>)>,
    /// Each job's casted arrays and cast time, in submission order.
    results: Receiver<(Vec<CastedIndexArray>, Duration)>,
    /// Arrays handed back through [`CastingPipeline::recycle`].
    free: SyncSender<Vec<CastedIndexArray>>,
    /// Jobs submitted but not yet cast; the worker counts them down.
    in_flight: Arc<AtomicUsize>,
    fault: Option<(FaultPlan, Arc<str>)>,
    next_id: u64,
    /// Results taken off the channel: every ticket below this arrived.
    received: u64,
    /// Arrived results whose tickets are not collected yet — only ever
    /// filled by out-of-order collects.
    parked: HashMap<u64, Vec<CastedIndexArray>>,
    /// A channel end reported the worker gone.
    dead: bool,
    stats: PipelineStats,
}

impl CastingPipeline {
    /// Spawns the casting worker thread.
    pub fn new() -> Self {
        // One job fewer than the cap waits in the queue while the worker
        // casts another.
        let (job_tx, jobs) = sync_channel::<Job>(INFLIGHT_CAP - 1);
        let (results_tx, results) = channel();
        let (free, free_rx) = sync_channel::<Vec<CastedIndexArray>>(INFLIGHT_CAP);
        let in_flight = Arc::new(AtomicUsize::new(0));
        let worker_in_flight = Arc::clone(&in_flight);
        let worker = std::thread::Builder::new()
            .name("tcast-casting-0".into())
            .spawn(move || {
                let mut scratch = RadixScratch::default();
                // Ends when the pipeline drops the job sender.
                for Job { indices, fault } in jobs {
                    if let Some((plan, site)) = fault {
                        assert!(
                            !plan.should_fail(&site),
                            "injected casting-worker fault at {site}"
                        );
                    }
                    let start = Instant::now();
                    let mut casted = free_rx.try_recv().unwrap_or_default();
                    casted.resize_with(indices.len(), CastedIndexArray::default);
                    for (index, out) in indices.iter().zip(&mut casted) {
                        tensor_casting_into(index, out, &mut scratch);
                    }
                    let cast_time = start.elapsed();
                    // A statistic, so `Relaxed`: counted down before the
                    // send, which orders it before the caller's receive, so
                    // a caller holding the result reads the job as cast.
                    worker_in_flight.fetch_sub(1, Ordering::Relaxed);
                    if results_tx.send((casted, cast_time)).is_err() {
                        break; // pipeline dropped
                    }
                }
            })
            .expect("spawn casting worker");
        Self {
            worker: Some((job_tx, worker)),
            results,
            free,
            in_flight,
            fault: None,
            next_id: 0,
            received: 0,
            parked: HashMap::new(),
            dead: false,
            stats: PipelineStats::default(),
        }
    }

    /// Arms deterministic fault injection: every subsequent job carries
    /// `plan` and hits `site` on it once before casting, and an armed
    /// occurrence panics the worker — the stress suite's handle for
    /// proving that a mid-pipeline crash surfaces as a clean panic on the
    /// training thread (never a hang), see `tests/fault_injection.rs`.
    pub fn set_fault_plan(&mut self, plan: FaultPlan, site: impl Into<String>) {
        self.fault = Some((plan, Arc::from(site.into())));
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
    /// If the in-flight cap of uncompleted jobs is reached, this call
    /// **blocks** until the worker casts one (backpressure). Worker
    /// progress alone releases it, so a caller that never collects cannot
    /// deadlock itself.
    ///
    /// # Panics
    ///
    /// Panics if the worker thread died.
    pub fn submit(&mut self, indices: impl Into<Arc<[IndexArray]>>) -> JobTicket {
        let job = Job {
            indices: indices.into(),
            fault: self.fault.clone(),
        };
        let (jobs, _) = self.worker.as_ref().expect("pipeline not shut down");
        self.in_flight.fetch_add(1, Ordering::Relaxed);
        if jobs.send(job).is_err() {
            self.dead = true;
            panic!("casting worker died; pipeline is unusable");
        }
        self.next_id += 1;
        JobTicket(self.next_id - 1)
    }

    /// Number of submitted jobs not yet cast by the worker.
    pub fn in_flight(&self) -> usize {
        self.in_flight.load(Ordering::Relaxed)
    }

    /// Whether the worker thread has died (panicked); a dead pipeline fails
    /// every subsequent `submit`/`collect` with a panic instead of
    /// hanging. True from the first `submit` or `collect` that observed
    /// the death, and once the worker's thread has finished.
    pub fn worker_died(&self) -> bool {
        self.dead || self.worker.as_ref().is_some_and(|(_, w)| w.is_finished())
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
        let JobTicket(id) = ticket;
        assert!(id < self.next_id, "unknown ticket {ticket:?}");
        if id < self.received {
            let casted = self.parked.remove(&id);
            let casted = casted.unwrap_or_else(|| panic!("ticket {ticket:?} already collected"));
            return (casted, Duration::ZERO);
        }
        // Jobs are cast in submission order, so the count says whether this
        // one is: a job cast during earlier work exposes no wait, not even
        // the receive. (Saturating: a submit that found the worker dead
        // still counted its job.)
        let uncast = id >= self.next_id.saturating_sub(self.in_flight() as u64);
        let start = uncast.then(Instant::now);
        loop {
            let Ok((casted, cast_time)) = self.results.recv() else {
                self.dead = true;
                panic!("casting worker died; job {id} can never complete");
            };
            self.stats.jobs_completed += 1;
            self.stats.casting_time += cast_time;
            self.received += 1;
            if self.received > id {
                let exposed = start.map_or(Duration::ZERO, |start| start.elapsed());
                self.stats.exposed_wait += exposed;
                return (casted, exposed);
            }
            self.parked.insert(self.received - 1, casted);
        }
    }

    /// Hands a collected job's arrays back: the worker casts a later job
    /// into them, reusing their buffers, instead of allocating — what a
    /// caller does with each job's arrays once its backward is done, the
    /// way `tcast-datasets`' `BatchSource::recycle` returns batches.
    /// Optional: a pipeline that never gets arrays back allocates each
    /// job's arrays afresh, and arrays beyond the in-flight cap that
    /// wait to be reused are dropped.
    pub fn recycle(&self, casted: Vec<CastedIndexArray>) {
        let _ = self.free.try_send(casted);
    }

    /// Snapshot of the pipeline's timing statistics.
    pub fn stats(&self) -> PipelineStats {
        self.stats
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
            .field("parked", &self.parked.len())
            .field("stats", &self.stats)
            .finish()
    }
}

impl Drop for CastingPipeline {
    fn drop(&mut self) {
        if let Some((jobs, worker)) = self.worker.take() {
            drop(jobs); // ends the worker's loop
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
    #[should_panic(expected = "unknown ticket")]
    fn collect_unknown_ticket_panics() {
        let mut p = CastingPipeline::new();
        p.collect(JobTicket(42));
    }

    #[test]
    #[should_panic(expected = "already collected")]
    fn collect_twice_panics_instead_of_hanging() {
        // The result already arrived and left: a receive would block
        // forever on a job that can never come back.
        let mut p = CastingPipeline::new();
        let ticket = p.submit(random_indices(1, 6));
        let _ = p.collect(ticket);
        let _ = p.collect(ticket);
    }

    #[test]
    #[should_panic(expected = "already collected")]
    fn double_collect_detected_after_out_of_order_collection() {
        // Collecting `tb` first parks `ta`'s result; `tb` itself is gone.
        let mut p = CastingPipeline::new();
        let _ta = p.submit(random_indices(1, 8));
        let tb = p.submit(random_indices(1, 9));
        let _ = p.collect(tb);
        let _ = p.collect(tb);
    }

    #[test]
    fn in_order_collection_keeps_the_guard_set_empty() {
        // The trainer collects strictly in submission order: each result is
        // then the next to arrive and goes straight back, so nothing is
        // parked over an arbitrarily long training run.
        let mut p = CastingPipeline::new();
        for i in 0..20 {
            let t = p.submit(random_indices(1, 100 + i));
            let _ = p.collect(t);
        }
        assert_eq!(p.received, 20);
        assert!(p.parked.is_empty());
        // An out-of-order collect parks the results that arrive ahead of
        // it until their own collect takes them.
        let ta = p.submit(random_indices(1, 200));
        let tb = p.submit(random_indices(1, 201));
        let _ = p.collect(tb);
        assert_eq!(p.parked.len(), 1);
        let _ = p.collect(ta);
        assert_eq!(p.received, 22);
        assert!(p.parked.is_empty());
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
        };
        assert!(s.hidden_fraction() < 1e-9);
        let s = PipelineStats {
            jobs_completed: 1,
            casting_time: Duration::from_millis(10),
            exposed_wait: Duration::from_millis(5),
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
        // A job that is already cast when collected reports zero exposed
        // wait and adds nothing to the aggregate.
        let t = p.submit(random_indices(1, 12));
        let deadline = Instant::now() + Duration::from_secs(5);
        while p.in_flight() > 0 {
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
        // Twice the cap, never collected: every submit returns on worker
        // progress alone (results queue without bound, so a caller that
        // never collects cannot deadlock itself), and none returns while
        // more than the cap are uncast.
        let mut p = CastingPipeline::new();
        let jobs: Vec<_> = (0..2 * INFLIGHT_CAP as u64)
            .map(|i| {
                let indices = random_indices(1, 300 + i);
                let ticket = p.submit(indices.clone());
                assert!(p.in_flight() <= INFLIGHT_CAP, "cap overrun at job {i}");
                (indices, ticket)
            })
            .collect();
        for (indices, ticket) in jobs {
            assert_eq!(p.collect(ticket), vec![tensor_casting(&indices[0])]);
        }
        assert_eq!(p.stats().jobs_completed, 2 * INFLIGHT_CAP as u64);
        assert_eq!(p.in_flight(), 0);
    }

    #[test]
    fn max_in_flight_never_exceeds_the_cap() {
        // A lookahead window wider than the cap, sustained: the oldest job
        // is collected after each submit, and the uncast count stays
        // within the cap throughout.
        let mut p = CastingPipeline::new();
        let mut window = std::collections::VecDeque::new();
        for i in 0..4 * INFLIGHT_CAP as u64 {
            let indices = random_indices(1, 500 + i);
            window.push_back((p.submit(indices.clone()), indices));
            assert!(p.in_flight() <= INFLIGHT_CAP, "cap overrun at job {i}");
            if window.len() > INFLIGHT_CAP + 8 {
                let (ticket, indices) = window.pop_front().unwrap();
                assert_eq!(p.collect(ticket), vec![tensor_casting(&indices[0])]);
            }
        }
        for (ticket, indices) in window {
            assert_eq!(p.collect(ticket), vec![tensor_casting(&indices[0])]);
        }
        assert!(p.parked.is_empty());
        assert_eq!(p.in_flight(), 0);
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
        // Recorded by the collect itself: the worker may still be
        // unwinding.
        assert!(p.worker_died());
        let err = res.expect_err("collect must panic, not hang");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("casting worker died"), "message: {msg}");
        assert_eq!(plan.fired(), vec![("cast".to_string(), 0)]);
    }

    #[test]
    fn worker_panic_fails_blocked_submitters_instead_of_hanging() {
        // A worker that died on its first job never takes another, so the
        // job queue fills and a later submit blocks: the worker's dropped
        // receiver must wake it into a panic naming the cause.
        let mut p = CastingPipeline::new();
        let plan = FaultPlan::new();
        plan.arm("cast", 0);
        p.set_fault_plan(plan, "cast");
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            for i in 0..INFLIGHT_CAP as u64 + 2 {
                let _ = p.submit(random_indices(1, 53 + i));
            }
        }));
        let err = res.expect_err("submit after worker death must panic");
        let msg = err.downcast_ref::<&str>().copied().unwrap_or_default();
        assert!(msg.contains("casting worker died"), "message: {msg}");
        assert!(p.worker_died());
    }
}
