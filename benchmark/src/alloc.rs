//! Counting global allocator: exact heap-allocation counts for the
//! `dlrm.allocs_per_step` and `serve.allocs_per_batch` layer metrics.
//!
//! Only the thread that called [`track_this_thread`] counts. The casting
//! worker allocates its output arrays by design (that is its job, off the
//! step's critical path); the zero-allocation invariant this measures is
//! the one `tests/zero_alloc.rs` enforces: the *calling* thread's hot path.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

pub struct CountingAllocator;

// A statistic that publishes no other data: Relaxed is enough.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static TRACKING: Cell<bool> = const { Cell::new(false) };
}

fn count_here() {
    if TRACKING.try_with(Cell::get).unwrap_or(false) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the only addition is a thread-local read and an atomic add,
// neither of which allocates or touches the returned memory.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_here();
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_here();
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Starts counting allocations made by the calling thread.
pub fn track_this_thread() {
    TRACKING.with(|t| t.set(true));
}

/// Allocations (and reallocations) made so far by tracked threads.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}
