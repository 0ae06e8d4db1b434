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

use std::collections::VecDeque;
use std::mem;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// A type-erased queued task. Lifetimes are erased on enqueue;
/// [`Pool::scope`] guarantees every task completes before the borrows it
/// captures go out of scope.
type Task = Box<dyn FnOnce() + Send + 'static>;

struct Shared {
    queue: Mutex<VecDeque<Task>>,
    /// Signalled when a task is pushed, when a scope's last task
    /// completes, and on shutdown.
    activity: Condvar,
    shutdown: AtomicBool,
}

impl Shared {
    /// Pushes a task and wakes one sleeper (worker or helping waiter).
    fn push(&self, task: Task) {
        self.queue
            .lock()
            .expect("pool queue poisoned")
            .push_back(task);
        self.activity.notify_all();
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
            activity: Condvar::new(),
            shutdown: AtomicBool::new(false),
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
    loop {
        let task = {
            let mut queue = shared.queue.lock().expect("pool queue poisoned");
            loop {
                if let Some(task) = queue.pop_front() {
                    break Some(task);
                }
                if shared.shutdown.load(Ordering::Acquire) {
                    break None;
                }
                queue = shared.activity.wait(queue).expect("pool queue poisoned");
            }
        };
        match task {
            Some(task) => task(),
            None => return,
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
        let task: Box<dyn FnOnce() + Send + 'env> = Box::new(move || {
            if let Err(panic) = catch_unwind(AssertUnwindSafe(f)) {
                let mut slot = state.panic.lock().expect("scope panic slot poisoned");
                slot.get_or_insert(panic);
            }
            state.pending.fetch_sub(1, Ordering::SeqCst);
            // Serialize with a waiter that just observed pending > 0 and
            // is about to block: taking the queue lock before notifying
            // guarantees the wake-up is not lost.
            drop(shared.queue.lock().expect("pool queue poisoned"));
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
        let mut queue = shared.queue.lock().expect("pool queue poisoned");
        loop {
            if self.state.pending.load(Ordering::SeqCst) == 0 {
                return;
            }
            if let Some(task) = queue.pop_front() {
                drop(queue);
                task();
                queue = shared.queue.lock().expect("pool queue poisoned");
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
        let pool = Pool::new(2);
        pool.scope(|s| s.spawn(|| {}));
        drop(pool); // must not hang
    }
}
