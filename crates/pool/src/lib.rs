//! Persistent work-sharing thread pool for the Tensor Casting workspace.
//!
//! Spawning and joining OS threads on every kernel call
//! (`std::thread::scope`) costs as much as the kernel itself at realistic
//! mini-batch sizes — exactly the scheduling overhead the paper's
//! co-design removes from the embedding-backward critical path. [`Pool`]
//! is the host-side analogue: workers are spawned once and live as long as
//! the pool, and each kernel invocation only enqueues closures and waits
//! on a latch. Kernels never reach for a pool themselves: the caller owns
//! one and passes it down inside an [`Exec`], the value that says where a
//! kernel runs (serial, or split over so many tasks of this pool).
//!
//! # Scoped execution
//!
//! [`Pool::scope`] mirrors `std::thread::scope`: tasks may borrow from the
//! caller's stack, and the scope does not return until every spawned task
//! finished. Kernels therefore migrate mechanically — `scope.spawn`
//! closures that write disjoint `split_at_mut` bands keep working
//! unchanged:
//!
//! ```
//! use tcast_pool::Pool;
//!
//! let pool = Pool::new(4);
//! let mut out = vec![0u64; 1024];
//! let chunk = out.len() / 4;
//! pool.scope(|scope| {
//!     for (i, band) in out.chunks_mut(chunk).enumerate() {
//!         scope.spawn(move || {
//!             for (j, v) in band.iter_mut().enumerate() {
//!                 *v = (i * chunk + j) as u64;
//!             }
//!         });
//!     }
//! });
//! assert!(out.iter().enumerate().all(|(i, &v)| v == i as u64));
//! ```
//!
//! # Nesting never deadlocks
//!
//! A thread blocked in [`Pool::scope`] does not idle: while its latch is
//! open it pops and runs queued tasks itself ("help-first" waiting). A
//! task that itself opens a scope on the same pool therefore always makes
//! progress, even on a pool with a single worker — the blocked thread
//! drains the inner scope's tasks on its own stack.
//!
//! # How workers wait
//!
//! A worker with nothing to do parks on a condvar, and waking a parked
//! thread is the expensive part of handing it work: on the 2-vCPU host
//! this workspace is measured on, the kernel places a thread woken by
//! `notify_all` on the *waker's* vCPU, where it preempts the thread that
//! was about to run the other half of the work. A scope of two 200 us
//! halves took 404 us against a parked worker and 213 us against one that
//! was already looking at the queue. So a worker that has just run a task
//! does not park at once: for a few milliseconds (`WORKER_POLL`) it polls
//! a lock-free count of queued tasks, and a task pushed in that window
//! starts without any wake-up. Back-to-back scopes (the layers of an MLP,
//! the steps of a training loop) find their helper hot; a pool left alone
//! goes quiet when the window closes.
//!
//! The polling loop is `spin_loop` with a `yield_now` every few dozen
//! probes. The yield is what keeps polling polite: a runnable thread that
//! shares the poller's vCPU (the caller of a scope woken there by the
//! worker's own completion notify, a casting worker beside the trainer's
//! lane) gets the core at the next yield instead of waiting out a
//! scheduler quantum.
//!

use std::collections::VecDeque;
use std::mem;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// A type-erased queued task. Lifetimes are erased on enqueue;
/// [`Pool::scope`] guarantees every task completes before the borrows it
/// captures go out of scope.
type Task = Box<dyn FnOnce() + Send + 'static>;

/// How long a worker that has just run a task keeps polling for the next
/// one before it parks on the condvar (see the module docs): long enough
/// to span the serial stretch between two kernels of one training step,
/// short enough that an idle pool costs nothing.
const WORKER_POLL: Duration = Duration::from_millis(3);

/// Probes of the queued count between two `yield_now` calls (and two
/// looks at the clock) while a worker polls.
const PROBES_PER_YIELD: u32 = 64;

struct Shared {
    queue: Mutex<VecDeque<Task>>,
    /// `queue.len()`, stored under the queue lock after every push and
    /// pop, so a polling worker can watch for work without taking it.
    queued: AtomicUsize,
    /// Signalled when a task is pushed, when a scope's last task
    /// completes, and on shutdown.
    activity: Condvar,
    shutdown: AtomicBool,
    /// Fault injection: set by [`Pool::poison_next_task`], taken by the
    /// next spawn.
    poison_next: AtomicBool,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, VecDeque<Task>> {
        self.queue.lock().expect("pool queue poisoned")
    }

    /// Queues a task without waking anyone: a polling worker sees the
    /// count move, a parked one does not.
    fn enqueue(&self, task: Task) {
        let mut queue = self.lock();
        queue.push_back(task);
        self.queued.store(queue.len(), Ordering::Release);
    }

    /// Pushes a task and wakes every sleeper (parked workers and helping
    /// waiters share one condvar).
    fn push(&self, task: Task) {
        self.enqueue(task);
        self.activity.notify_all();
    }

    /// Pops the oldest task of the locked queue.
    fn pop(&self, queue: &mut VecDeque<Task>) -> Option<Task> {
        let task = queue.pop_front()?;
        self.queued.store(queue.len(), Ordering::Release);
        Some(task)
    }

    /// Polls until a task is queued or the pool shuts down (`true`), or
    /// `deadline` passes (`false`).
    fn poll(&self, deadline: Instant) -> bool {
        loop {
            for _ in 0..PROBES_PER_YIELD {
                if self.queued.load(Ordering::Acquire) > 0 || self.shutdown.load(Ordering::Acquire)
                {
                    return true;
                }
                std::hint::spin_loop();
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::yield_now();
        }
    }
}

/// A fixed set of long-lived worker threads executing scoped tasks.
///
/// Construction is the only place threads are spawned; every
/// [`Pool::scope`] call afterwards reuses them. Dropping the pool joins
/// all workers.
pub struct Pool {
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
    threads: usize,
}

impl Pool {
    /// Creates a pool with `threads` workers (at least one).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            queued: AtomicUsize::new(0),
            activity: Condvar::new(),
            shutdown: AtomicBool::new(false),
            poison_next: AtomicBool::new(false),
        });
        let workers = (0..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("tcast-pool-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn pool worker")
            })
            .collect();
        Self {
            shared,
            workers,
            threads,
        }
    }

    /// Creates a pool sized to `std::thread::available_parallelism`
    /// (falling back to 1 if the hint is unavailable).
    pub fn with_default_parallelism() -> Self {
        Self::new(default_parallelism())
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Fault injection for robustness tests: the next task spawned on this
    /// pool panics when it starts instead of running, exactly as a crash
    /// inside the task would — its scope still joins every sibling and
    /// then resumes the panic on the thread that opened it. Callers that
    /// own a pool privately (the trainer's lane) arm it from their own
    /// fault plan.
    #[doc(hidden)]
    pub fn poison_next_task(&self) {
        self.shared.poison_next.store(true, Ordering::Relaxed);
    }

    /// Runs `f` with a [`Scope`] on which tasks borrowing from the
    /// enclosing stack frame can be spawned; returns only after every
    /// spawned task completed.
    ///
    /// The calling thread helps execute queued tasks while it waits, so
    /// scopes may nest (a task may open another scope on the same pool)
    /// without deadlocking regardless of worker count.
    ///
    /// # Panics
    ///
    /// If a task panics, the panic is captured and resumed on the calling
    /// thread after all tasks of the scope finished (first panic wins).
    pub fn scope<'env, F, R>(&self, f: F) -> R
    where
        F: FnOnce(&Scope<'_, 'env>) -> R,
    {
        let scope = Scope {
            pool: self,
            state: Arc::new(ScopeState {
                pending: AtomicUsize::new(0),
                panic: Mutex::new(None),
            }),
            _env: std::marker::PhantomData,
        };
        // Even if `f` panics mid-spawn, already-queued tasks still borrow
        // the enclosing frame — wait for them before unwinding further.
        let result = catch_unwind(AssertUnwindSafe(|| f(&scope)));
        scope.wait_help();
        if let Some(task_panic) = scope
            .state
            .panic
            .lock()
            .expect("scope panic slot poisoned")
            .take()
        {
            resume_unwind(task_panic);
        }
        match result {
            Ok(r) => r,
            Err(p) => resume_unwind(p),
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        // Serialize with a worker that read `shutdown == false` under the
        // queue lock and is about to wait: once this lock is ours, that
        // worker is inside `wait` (and hears the notify) or has yet to
        // take the lock (and will read `true`). Without it the wake-up
        // can be lost and the join below never returns. A poisoned lock
        // serializes just as well.
        drop(self.shared.queue.lock());
        self.shared.activity.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("threads", &self.threads)
            .finish()
    }
}

fn worker_loop(shared: &Shared) {
    // While `Some`, the worker ran a task less than `WORKER_POLL` ago and
    // polls instead of parking.
    let mut hot_until: Option<Instant> = None;
    loop {
        let polled = hot_until.is_some_and(|deadline| shared.poll(deadline));
        if !polled {
            hot_until = None;
        }
        let task = {
            let mut queue = shared.lock();
            loop {
                if let Some(task) = shared.pop(&mut queue) {
                    break Some(task);
                }
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                if polled {
                    // Another thread took what the poll saw: poll on.
                    break None;
                }
                queue = shared.activity.wait(queue).expect("pool queue poisoned");
            }
        };
        if let Some(task) = task {
            task();
            hot_until = Some(Instant::now() + WORKER_POLL);
        }
    }
}

struct ScopeState {
    pending: AtomicUsize,
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

/// Spawn handle passed to the closure of [`Pool::scope`].
///
/// The `'env` lifetime is invariant (as with `std::thread::scope`): tasks
/// may borrow anything that outlives the scope call.
pub struct Scope<'pool, 'env> {
    pool: &'pool Pool,
    state: Arc<ScopeState>,
    _env: std::marker::PhantomData<&'env mut &'env ()>,
}

impl<'pool, 'env> Scope<'pool, 'env> {
    /// Queues `f` for execution on the pool. Returns immediately; the
    /// enclosing [`Pool::scope`] call joins it.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'env,
    {
        self.state.pending.fetch_add(1, Ordering::SeqCst);
        let state = Arc::clone(&self.state);
        let shared = Arc::clone(&self.pool.shared);
        // A plain load first, so an unarmed pool pays no read-modify-write
        // per spawn. `Relaxed`: armed and taken by the spawning thread, or
        // ordered by whatever handed that thread the pool.
        let poisoned = shared.poison_next.load(Ordering::Relaxed)
            && shared.poison_next.swap(false, Ordering::Relaxed);
        let task: Box<dyn FnOnce() + Send + 'env> = Box::new(move || {
            let f = move || {
                assert!(!poisoned, "injected fault: poisoned pool task");
                f();
            };
            if let Err(panic) = catch_unwind(AssertUnwindSafe(f)) {
                let mut slot = state.panic.lock().expect("scope panic slot poisoned");
                slot.get_or_insert(panic);
            }
            state.pending.fetch_sub(1, Ordering::SeqCst);
            // Serialize with a waiter that just observed pending > 0 and
            // is about to block: taking the queue lock before notifying
            // guarantees the wake-up is not lost.
            drop(shared.lock());
            shared.activity.notify_all();
        });
        // SAFETY: the closure only borrows data living at least for
        // `'env`, and `Pool::scope` blocks (helping, then waiting on the
        // latch) until `pending` returns to zero — i.e. until this task
        // ran to completion — before those borrows can expire. This is
        // the standard scoped-threadpool lifetime erasure.
        let task: Task = unsafe {
            mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Box<dyn FnOnce() + Send + 'static>>(
                task,
            )
        };
        self.pool.shared.push(task);
    }

    /// Blocks until all tasks spawned on this scope completed, running
    /// queued tasks (from any scope) while waiting.
    fn wait_help(&self) {
        let shared = &self.pool.shared;
        let mut queue = shared.lock();
        loop {
            if self.state.pending.load(Ordering::SeqCst) == 0 {
                return;
            }
            if let Some(task) = shared.pop(&mut queue) {
                drop(queue);
                task();
                queue = shared.lock();
                continue;
            }
            queue = shared.activity.wait(queue).expect("pool queue poisoned");
        }
    }
}

impl std::fmt::Debug for Scope<'_, '_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scope")
            .field("pending", &self.state.pending.load(Ordering::SeqCst))
            .finish()
    }
}

/// `std::thread::available_parallelism` as a plain `usize` (min 1).
pub fn default_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// How a kernel should execute: serially on the calling thread, or
/// split into `threads` tasks on a [`Pool`].
///
/// Every pooled kernel in this workspace is *bit-identical* to its serial
/// counterpart (same per-output accumulation order), so `Exec` only
/// selects a schedule, never a result.
#[derive(Clone, Copy, Debug, Default)]
pub enum Exec<'p> {
    /// Run on the calling thread.
    #[default]
    Serial,
    /// Split into `threads` tasks executed by `pool`.
    Pooled {
        /// The pool tasks are dispatched to.
        pool: &'p Pool,
        /// Task-count hint (clamped to at least 1 by kernels).
        threads: usize,
    },
}

impl<'p> Exec<'p> {
    /// Pooled execution using all of the pool's workers.
    pub fn pooled(pool: &'p Pool) -> Self {
        Exec::Pooled {
            pool,
            threads: pool.threads(),
        }
    }

    /// The task-count hint (1 for serial execution).
    pub fn threads(&self) -> usize {
        match self {
            Exec::Serial => 1,
            Exec::Pooled { threads, .. } => (*threads).max(1),
        }
    }

    /// The pool, if pooled.
    pub fn pool(&self) -> Option<&'p Pool> {
        match self {
            Exec::Serial => None,
            Exec::Pooled { pool, .. } => Some(pool),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn runs_every_task_exactly_once() {
        let pool = Pool::new(3);
        let counter = AtomicU64::new(0);
        pool.scope(|s| {
            for _ in 0..100 {
                s.spawn(|| {
                    counter.fetch_add(1, Ordering::SeqCst);
                });
            }
        });
        assert_eq!(counter.load(Ordering::SeqCst), 100);
    }

    #[test]
    fn tasks_borrow_disjoint_bands() {
        let pool = Pool::new(4);
        let mut data = vec![0u32; 97]; // non-divisible by 4 on purpose
        let chunk = data.len().div_ceil(4);
        pool.scope(|s| {
            for band in data.chunks_mut(chunk) {
                s.spawn(move || {
                    for v in band.iter_mut() {
                        *v += 7;
                    }
                });
            }
        });
        assert!(data.iter().all(|&v| v == 7));
    }

    #[test]
    fn more_threads_than_items() {
        let pool = Pool::new(16);
        let mut data = [0u8; 3];
        pool.scope(|s| {
            for v in data.iter_mut() {
                s.spawn(move || *v = 1);
            }
        });
        assert_eq!(data, [1, 1, 1]);
    }

    #[test]
    fn nested_scopes_do_not_deadlock_even_on_one_worker() {
        // A task that itself opens a scope must not starve: the blocked
        // waiter helps drain the queue.
        let pool = Pool::new(1);
        let total = AtomicU64::new(0);
        pool.scope(|outer| {
            for _ in 0..4 {
                outer.spawn(|| {
                    pool.scope(|inner| {
                        for _ in 0..4 {
                            inner.spawn(|| {
                                total.fetch_add(1, Ordering::SeqCst);
                            });
                        }
                    });
                });
            }
        });
        assert_eq!(total.load(Ordering::SeqCst), 16);
    }

    #[test]
    fn deeply_nested_scopes() {
        let pool = Pool::new(2);
        fn recurse(pool: &Pool, depth: usize, counter: &AtomicU64) {
            if depth == 0 {
                counter.fetch_add(1, Ordering::SeqCst);
                return;
            }
            pool.scope(|s| {
                for _ in 0..2 {
                    s.spawn(|| recurse(pool, depth - 1, counter));
                }
            });
        }
        let counter = AtomicU64::new(0);
        recurse(&pool, 4, &counter);
        assert_eq!(counter.load(Ordering::SeqCst), 16);
    }

    #[test]
    fn scope_returns_closure_value() {
        let pool = Pool::new(2);
        let r = pool.scope(|s| {
            s.spawn(|| {});
            41 + 1
        });
        assert_eq!(r, 42);
    }

    #[test]
    fn sequential_scopes_reuse_workers() {
        let pool = Pool::new(2);
        let counter = AtomicU64::new(0);
        for _ in 0..50 {
            pool.scope(|s| {
                for _ in 0..4 {
                    s.spawn(|| {
                        counter.fetch_add(1, Ordering::SeqCst);
                    });
                }
            });
        }
        assert_eq!(counter.load(Ordering::SeqCst), 200);
    }

    #[test]
    fn task_panic_propagates_after_scope_completes() {
        let pool = Pool::new(2);
        let survivors = AtomicU64::new(0);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                s.spawn(|| panic!("boom"));
                s.spawn(|| {
                    survivors.fetch_add(1, Ordering::SeqCst);
                });
            });
        }));
        assert!(result.is_err());
        // The sibling task still ran to completion before the unwind.
        assert_eq!(survivors.load(Ordering::SeqCst), 1);
        // The pool remains usable after a panicked scope.
        let ok = AtomicU64::new(0);
        pool.scope(|s| {
            s.spawn(|| {
                ok.fetch_add(1, Ordering::SeqCst);
            });
        });
        assert_eq!(ok.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn a_poisoned_task_panics_once_and_its_siblings_still_run() {
        let pool = Pool::new(2);
        pool.poison_next_task();
        let ran = AtomicU64::new(0);
        let spawn_three = || {
            pool.scope(|s| {
                for _ in 0..3 {
                    s.spawn(|| {
                        ran.fetch_add(1, Ordering::SeqCst);
                    });
                }
            });
        };
        let panic = std::panic::catch_unwind(AssertUnwindSafe(spawn_three)).unwrap_err();
        let message = panic.downcast_ref::<&str>().expect("a str panic");
        assert!(message.contains("poisoned pool task"), "{message}");
        assert_eq!(ran.load(Ordering::SeqCst), 2);
        spawn_three(); // one shot: the next scope is clean
        assert_eq!(ran.load(Ordering::SeqCst), 5);
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let pool = Pool::new(0);
        assert_eq!(pool.threads(), 1);
        pool.scope(|s| s.spawn(|| {}));
    }

    #[test]
    fn exec_accessors() {
        assert_eq!(Exec::Serial.threads(), 1);
        assert!(Exec::Serial.pool().is_none());
        let pool = Pool::new(3);
        let exec = Exec::pooled(&pool);
        assert_eq!(exec.threads(), 3);
        assert!(exec.pool().is_some());
    }

    #[test]
    fn drop_joins_workers() {
        // Dropped right after a scope, so the worker that ran the task is
        // polling, not parked: it must see `shutdown` from the poll.
        for _ in 0..8 {
            let pool = Pool::new(2);
            pool.scope(|s| s.spawn(|| {}));
            drop(pool); // must not hang
        }
    }

    #[test]
    fn a_task_queued_while_the_worker_polls_starts_without_a_wake() {
        // `enqueue` notifies no one, so only a worker that is polling can
        // start the task; a parked one leaves it queued until the flush
        // below. A worker polls for `WORKER_POLL` after a task, so the
        // enqueue right behind a scope whose task the worker ran (the
        // closure does not return, and this thread does not help, until
        // it started there) lands in that window unless this thread loses
        // the CPU in between: hence the attempts.
        let pool = Pool::new(1);
        let (tx, rx) = std::sync::mpsc::channel();
        let started_unwoken = (0..20).any(|_| {
            pool.scope(|s| {
                let tx = tx.clone();
                s.spawn(move || tx.send(()).expect("receiver alive"));
                rx.recv().expect("the worker starts the task");
            });
            let tx = tx.clone();
            pool.shared
                .enqueue(Box::new(move || tx.send(()).expect("receiver alive")));
            let polled = rx.recv_timeout(Duration::from_millis(100)).is_ok();
            if !polled {
                pool.shared.activity.notify_all();
                rx.recv().expect("the woken worker runs the task");
            }
            polled
        });
        assert!(started_unwoken, "no attempt found the worker polling");
    }

    #[test]
    fn queued_count_returns_to_zero_when_the_caller_runs_the_tasks() {
        // The only worker is held inside a task until the caller has run
        // every other task of the scope itself.
        let pool = Pool::new(1);
        let caller = std::thread::current().id();
        let (started_tx, started_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel();
        let on_caller = AtomicU64::new(0);
        pool.scope(|s| {
            s.spawn(move || {
                started_tx.send(()).expect("scope alive");
                release_rx.recv().expect("released by the last task");
            });
            started_rx.recv().expect("the worker starts the holder");
            for _ in 0..5 {
                s.spawn(|| {
                    if std::thread::current().id() == caller {
                        on_caller.fetch_add(1, Ordering::SeqCst);
                    }
                });
            }
            s.spawn(move || release_tx.send(()).expect("holder alive"));
            assert_eq!(pool.shared.queued.load(Ordering::SeqCst), 6);
        });
        assert_eq!(on_caller.load(Ordering::SeqCst), 5);
        assert_eq!(pool.shared.queued.load(Ordering::SeqCst), 0);
        assert!(pool.shared.lock().is_empty());
    }
}
