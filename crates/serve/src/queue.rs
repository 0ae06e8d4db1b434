//! The admission queue: when to fuse waiting queries into one inference
//! batch.
//!
//! Batching is *the* serving-side throughput lever (each fused batch
//! amortizes the MLP weight traffic over every query in it), but every
//! query a batch waits for adds queueing delay to the ones already
//! admitted — the throughput/tail-latency tension DeepRecSys centers on.
//! Three policies span the design space:
//!
//! * [`BatchPolicy::Fixed`] — fire at exactly `batch` queries; maximal
//!   fusion, unbounded wait at low load (the throughput-bench policy).
//! * [`BatchPolicy::Deadline`] — fire at `max_batch` queries or when the
//!   oldest admitted query has waited `max_wait_ns`, whichever first;
//!   the classic bounded-staleness batcher.
//! * [`BatchPolicy::Adaptive`] — a DeepRecSys-style hill-climbing
//!   batcher: the target batch size grows additively while observed
//!   batch latency sits below the SLA and halves multiplicatively when
//!   a batch violates it, so the batcher finds the largest batch the
//!   SLA admits under the current load *without* a latency model.
//!
//! Decision logic is pure (no clocks, no I/O): the serve loop feeds it
//! `now` and it answers *fire k queries* or *wake me at t* — which is
//! what makes the policies unit-testable and the simulated-clock loop
//! deterministic in structure.

use std::collections::VecDeque;
use std::sync::Arc;

use crate::request::Query;

/// A query waiting in the admission queue.
#[derive(Debug, Clone)]
pub struct QueuedQuery {
    /// The query itself.
    pub query: Arc<Query>,
    /// When it arrived, on the serve loop's nanosecond clock.
    pub arrival_ns: u64,
}

/// What the policy wants the serve loop to do next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Fuse and score the oldest `n` queries now.
    Fire(usize),
    /// Nothing to do before this clock value (wake earlier if a query
    /// arrives first).
    WaitUntil(u64),
    /// Idle: wait for the next arrival.
    Wait,
}

/// The DeepRecSys-style adaptive batcher's tunables and state.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveBatcher {
    sla_ns: u64,
    max_batch: usize,
    max_wait_ns: u64,
    target: usize,
    /// Grow the target when a batch's latency lands under this fraction
    /// of the SLA (headroom guard: growing at 99.9% of the SLA would
    /// oscillate straight into violations).
    grow_below: f64,
}

impl AdaptiveBatcher {
    /// Creates a batcher hill-climbing toward `sla_ns`, with the batch
    /// capped at `max_batch` and the oldest query never waiting longer
    /// than `max_wait_ns`.
    ///
    /// # Panics
    ///
    /// Panics if `max_batch == 0` or `sla_ns == 0`.
    pub fn new(sla_ns: u64, max_batch: usize, max_wait_ns: u64) -> Self {
        assert!(max_batch > 0, "max_batch must be positive");
        assert!(sla_ns > 0, "sla must be positive");
        Self {
            sla_ns,
            max_batch,
            max_wait_ns,
            target: 1,
            grow_below: 0.8,
        }
    }

    /// The current hill-climbed batch-size target.
    pub fn target(&self) -> usize {
        self.target
    }

    /// Feeds back one completed batch's end-to-end latency (admission of
    /// its oldest query to completion): additive increase under the SLA
    /// headroom, multiplicative decrease on violation. A batch landing
    /// *exactly* at the SLA is a violation — the serve plane's deadline
    /// convention is everywhere exclusive (meet iff `latency < sla_ns`;
    /// see [`ServeConfig::shed_unmeetable`](crate::ServeConfig::shed_unmeetable)).
    pub fn observe(&mut self, batch_latency_ns: u64) {
        if batch_latency_ns >= self.sla_ns {
            self.target /= 2;
        } else if (batch_latency_ns as f64) < self.grow_below * self.sla_ns as f64 {
            self.target += 1;
        }
        // The decision function owns its own bounds: whatever latency
        // sequence arrives, the target stays inside [1, max_batch].
        self.target = self.target.clamp(1, self.max_batch);
    }
}

/// When to fuse the queue into a batch.
#[derive(Debug, Clone, PartialEq)]
pub enum BatchPolicy {
    /// Fire at exactly `batch` queries (drain the remainder when the
    /// stream ends).
    Fixed {
        /// Queries per fused batch.
        batch: usize,
    },
    /// Fire at `max_batch` queries or once the oldest has waited
    /// `max_wait_ns`.
    Deadline {
        /// Largest fused batch.
        max_batch: usize,
        /// Longest the oldest admitted query may wait.
        max_wait_ns: u64,
    },
    /// Hill-climb the batch size toward an SLA target.
    Adaptive(AdaptiveBatcher),
}

/// FIFO admission queue driven by a [`BatchPolicy`].
#[derive(Debug)]
pub struct AdmissionQueue {
    queue: VecDeque<QueuedQuery>,
    policy: BatchPolicy,
    max_depth: usize,
    shed: u64,
}

impl AdmissionQueue {
    /// An empty queue under the given policy.
    pub fn new(policy: BatchPolicy) -> Self {
        match &policy {
            BatchPolicy::Fixed { batch } => assert!(*batch > 0, "batch must be positive"),
            BatchPolicy::Deadline { max_batch, .. } => {
                assert!(*max_batch > 0, "max_batch must be positive");
            }
            BatchPolicy::Adaptive(_) => {}
        }
        Self {
            queue: VecDeque::new(),
            policy,
            max_depth: 0,
            shed: 0,
        }
    }

    /// Queries currently waiting.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether no queries wait.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Deepest the queue has been.
    pub fn max_depth(&self) -> usize {
        self.max_depth
    }

    /// Queries shed so far (see [`Self::shed_expired_into`]).
    pub(crate) fn shed_count(&self) -> u64 {
        self.shed
    }

    /// Sheds every waiting query whose deadline is already provably
    /// unmeetable at clock `now_ns`. The serve plane's deadline
    /// convention is *exclusive*: a query meets its SLA iff its
    /// end-to-end latency is strictly below `sla_ns`, so one that has
    /// already waited `sla_ns` or longer would violate even if scored in
    /// zero time — scoring it only burns pool time that queries still
    /// inside their budget need. (Violation counting and
    /// [`AdaptiveBatcher::observe`] use the same `>= sla_ns` boundary,
    /// so a shed query and a scored query that aged identically land on
    /// the same side of the SLA.) Shed queries are drained into `out`
    /// (cleared first) so the serve loop can complete their closed-loop
    /// clients without scoring them.
    ///
    /// Admission order is FIFO and arrival times are non-decreasing, so
    /// the expired queries form a prefix of the queue.
    pub(crate) fn shed_expired_into(
        &mut self,
        now_ns: u64,
        sla_ns: u64,
        out: &mut Vec<QueuedQuery>,
    ) {
        out.clear();
        while let Some(front) = self.queue.front() {
            if now_ns.saturating_sub(front.arrival_ns) < sla_ns {
                break;
            }
            out.push(self.queue.pop_front().expect("front exists"));
        }
        self.shed += out.len() as u64;
    }

    /// Admits an arrived query.
    pub fn push(&mut self, query: Arc<Query>, arrival_ns: u64) {
        self.queue.push_back(QueuedQuery { query, arrival_ns });
        self.max_depth = self.max_depth.max(self.queue.len());
    }

    /// Asks the policy what to do at clock `now_ns`. `more_arrivals` is
    /// whether the stream can still deliver queries — when it cannot,
    /// every policy drains what it holds rather than waiting for a batch
    /// that will never fill.
    pub fn decide(&self, now_ns: u64, more_arrivals: bool) -> Decision {
        let len = self.queue.len();
        if len == 0 {
            return Decision::Wait;
        }
        let oldest = self.queue.front().expect("non-empty").arrival_ns;
        let (cap, deadline) = match &self.policy {
            BatchPolicy::Fixed { batch } => (*batch, None),
            BatchPolicy::Deadline {
                max_batch,
                max_wait_ns,
            } => (*max_batch, Some(oldest.saturating_add(*max_wait_ns))),
            BatchPolicy::Adaptive(b) => (b.target, Some(oldest.saturating_add(b.max_wait_ns))),
        };
        if len >= cap {
            return Decision::Fire(cap);
        }
        if !more_arrivals {
            return Decision::Fire(len);
        }
        match deadline {
            Some(t) if t <= now_ns => Decision::Fire(len.min(cap)),
            Some(t) => Decision::WaitUntil(t),
            None => Decision::Wait,
        }
    }

    /// Moves the oldest `n` queries (the fused batch) into `out`, cleared
    /// first: a caller-owned buffer, so no per-batch allocation once it
    /// reaches the largest fired batch.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `n` queries wait.
    pub fn take_into(&mut self, n: usize, out: &mut Vec<QueuedQuery>) {
        assert!(n <= self.queue.len(), "cannot take {n} queries");
        out.clear();
        out.extend(self.queue.drain(..n));
    }

    /// Feeds a completed batch's end-to-end latency back to the policy
    /// (only the adaptive batcher adapts).
    pub fn observe_batch(&mut self, batch_latency_ns: u64) {
        if let BatchPolicy::Adaptive(b) = &mut self.policy {
            b.observe(batch_latency_ns);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcast_tensor::Matrix;

    fn q(id: u64) -> Arc<Query> {
        Arc::new(Query {
            id,
            dense: Matrix::zeros(1, 2),
            indices: Vec::new().into(),
        })
    }

    #[test]
    fn fixed_policy_fires_at_exactly_the_target() {
        let mut queue = AdmissionQueue::new(BatchPolicy::Fixed { batch: 3 });
        queue.push(q(0), 10);
        queue.push(q(1), 20);
        assert_eq!(queue.decide(100, true), Decision::Wait);
        queue.push(q(2), 30);
        assert_eq!(queue.decide(100, true), Decision::Fire(3));
        let mut taken = Vec::new();
        queue.take_into(3, &mut taken);
        assert_eq!(taken.len(), 3);
        assert_eq!(taken[0].query.id, 0, "FIFO order");
        assert!(queue.is_empty());
        assert_eq!(queue.max_depth(), 3);
    }

    #[test]
    fn fixed_policy_drains_when_the_stream_ends() {
        let mut queue = AdmissionQueue::new(BatchPolicy::Fixed { batch: 8 });
        queue.push(q(0), 0);
        queue.push(q(1), 5);
        assert_eq!(queue.decide(10, true), Decision::Wait);
        assert_eq!(queue.decide(10, false), Decision::Fire(2));
    }

    #[test]
    fn deadline_policy_fires_on_oldest_wait() {
        let policy = BatchPolicy::Deadline {
            max_batch: 16,
            max_wait_ns: 100,
        };
        let mut queue = AdmissionQueue::new(policy);
        queue.push(q(0), 50);
        queue.push(q(1), 80);
        // Deadline is oldest arrival + max_wait = 150.
        assert_eq!(queue.decide(120, true), Decision::WaitUntil(150));
        assert_eq!(queue.decide(150, true), Decision::Fire(2));
    }

    #[test]
    fn deadline_policy_caps_the_batch() {
        let mut queue = AdmissionQueue::new(BatchPolicy::Deadline {
            max_batch: 2,
            max_wait_ns: 1_000,
        });
        for i in 0..5 {
            queue.push(q(i), i);
        }
        assert_eq!(queue.decide(10, true), Decision::Fire(2));
    }

    #[test]
    fn empty_queue_always_waits() {
        let queue = AdmissionQueue::new(BatchPolicy::Fixed { batch: 1 });
        assert_eq!(queue.decide(0, true), Decision::Wait);
        assert_eq!(queue.decide(0, false), Decision::Wait);
    }

    #[test]
    fn adaptive_batcher_grows_under_sla_and_halves_on_violation() {
        let mut b = AdaptiveBatcher::new(1_000_000, 32, 100_000);
        assert_eq!(b.target(), 1);
        for _ in 0..5 {
            b.observe(100_000); // far under SLA
        }
        assert_eq!(b.target(), 6);
        b.observe(2_000_000); // violation
        assert_eq!(b.target(), 3);
        b.observe(2_000_000);
        b.observe(2_000_000);
        b.observe(2_000_000);
        assert_eq!(b.target(), 1, "never drops below 1");
        // Near-SLA latencies (between 80% and 100%) hold steady.
        b.observe(900_000);
        assert_eq!(b.target(), 1);
    }

    #[test]
    fn adaptive_batcher_saturates_at_max_batch() {
        let mut b = AdaptiveBatcher::new(1_000_000, 4, 100_000);
        for _ in 0..10 {
            b.observe(1);
        }
        assert_eq!(b.target(), 4);
    }

    #[test]
    fn adaptive_queue_uses_the_live_target() {
        let mut queue = AdmissionQueue::new(BatchPolicy::Adaptive(AdaptiveBatcher::new(
            1_000_000, 32, 500,
        )));
        queue.push(q(0), 0);
        // Target starts at 1: fire immediately.
        assert_eq!(queue.decide(0, true), Decision::Fire(1));
        queue.take_into(1, &mut Vec::new());
        // Feedback far under SLA: target grows to 2.
        queue.observe_batch(1_000);
        queue.push(q(1), 100);
        assert_eq!(queue.decide(100, true), Decision::WaitUntil(600));
        queue.push(q(2), 200);
        assert_eq!(queue.decide(200, true), Decision::Fire(2));
    }

    #[test]
    fn shedding_drains_only_the_expired_prefix() {
        let mut queue = AdmissionQueue::new(BatchPolicy::Fixed { batch: 8 });
        queue.push(q(0), 0);
        queue.push(q(1), 50);
        queue.push(q(2), 180);
        let mut out = vec![QueuedQuery {
            query: q(99),
            arrival_ns: 0,
        }];
        // SLA 100 at clock 150: queries 0 (waited 150) and 1 (waited
        // 100, unmeetable at equality) expire; query 2 has not arrived
        // long enough.
        queue.shed_expired_into(150, 100, &mut out);
        assert_eq!(out.len(), 2, "out buffer is cleared then filled");
        assert_eq!(out[0].query.id, 0);
        assert_eq!(out[1].query.id, 1);
        assert_eq!(queue.len(), 1);
        assert_eq!(queue.shed_count(), 2);
        // Nothing expired: the buffer still gets cleared.
        queue.shed_expired_into(150, 100, &mut out);
        assert!(out.is_empty());
        assert_eq!(queue.shed_count(), 2);
        // The survivor expires later.
        queue.shed_expired_into(280, 100, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(queue.shed_count(), 3);
        assert!(queue.is_empty());
    }

    #[test]
    fn exactly_at_deadline_is_a_violation_on_every_path() {
        // The unified boundary convention: meet iff latency < sla_ns.
        // A query aged exactly sla_ns is shed (unmeetable even at zero
        // service time)...
        let mut queue = AdmissionQueue::new(BatchPolicy::Fixed { batch: 8 });
        queue.push(q(0), 100);
        let mut out = Vec::new();
        queue.shed_expired_into(1_100, 1_000, &mut out);
        assert_eq!(out.len(), 1, "age == sla is shed");
        // ...and a batch landing exactly at the SLA is treated as a
        // violation by the adaptive batcher (halve, not grow/hold).
        let mut b = AdaptiveBatcher::new(1_000_000, 32, 100_000);
        for _ in 0..7 {
            b.observe(100_000);
        }
        assert_eq!(b.target(), 8);
        b.observe(1_000_000); // exactly at the SLA
        assert_eq!(b.target(), 4, "latency == sla halves the target");
    }

    #[test]
    fn adaptive_batcher_target_never_escapes_bounds() {
        // Hammer the hill-climb with adversarial latency sequences; the
        // target is an enforced invariant of the decision function, not
        // an emergent property of polite inputs.
        let mut b = AdaptiveBatcher::new(1_000_000, 4, 100_000);
        for i in 0..200u64 {
            // Alternate extremes: zero latency, exact-SLA, and 100x SLA.
            let lat = match i % 3 {
                0 => 0,
                1 => 1_000_000,
                _ => 100_000_000,
            };
            b.observe(lat);
            assert!((1..=4).contains(&b.target()), "target {}", b.target());
        }
    }

    #[test]
    #[should_panic(expected = "cannot take")]
    fn take_more_than_queued_panics() {
        let mut queue = AdmissionQueue::new(BatchPolicy::Fixed { batch: 1 });
        queue.push(q(0), 0);
        queue.take_into(2, &mut Vec::new());
    }
}
