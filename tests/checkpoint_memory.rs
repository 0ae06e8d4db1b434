//! Checkpoint memory, enforced with a counting global allocator: saving
//! streams through one chunk buffer (no copy of the tables or their
//! optimizer state is built), and a restore holds the file's bytes once
//! plus the optimizer state it hands the trainer.
//!
//! Only the test's own thread counts, and the file is one test function
//! on purpose: the two checks share one RM1-shaped model of 64 MB.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, Ordering};

use tensor_casting::datasets::SyntheticCtr;
use tensor_casting::dlrm::checkpoint::{read_train_checkpoint, save_train_checkpoint};
use tensor_casting::dlrm::{BackwardMode, DlrmConfig, EmbeddingOptimizer, Trainer};

struct CountingAllocator;

/// Bytes allocated minus bytes freed on the tracking thread since
/// [`peak_rise`] began, and the most that ever was.
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

thread_local! {
    static TRACKING: Cell<bool> = const { Cell::new(false) };
}

fn count(delta: i64) {
    if TRACKING.try_with(Cell::get).unwrap_or(false) {
        let live = LIVE.fetch_add(delta, Ordering::Relaxed) + delta;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System`, a valid allocator, with the
// caller's arguments unchanged; counting touches no allocation.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64);
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s
        // contract (a non-zero-size `layout`) for `System` as for us.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-(layout.size() as i64));
        // SAFETY: every block this allocator hands out came from `System`
        // with this `layout`, which the caller passes back unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Both blocks may be live while the contents move.
        count(new_size as i64);
        count(-(layout.size() as i64));
        // SAFETY: `ptr` came from `System` with `layout` (as in
        // `dealloc`), and the caller upholds `realloc`'s contract on
        // `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// `f`'s result, and how far the bytes live on this thread rose above
/// where they started while it ran.
fn peak_rise<R>(f: impl FnOnce() -> R) -> (R, usize) {
    LIVE.store(0, Ordering::Relaxed);
    PEAK.store(0, Ordering::Relaxed);
    TRACKING.with(|t| t.set(true));
    let out = f();
    TRACKING.with(|t| t.set(false));
    (out, PEAK.load(Ordering::Relaxed) as usize)
}

const SLACK: usize = 4 << 20;

/// Bytes of the optimizer state a restore decodes.
fn state_bytes(trainer: &Trainer) -> usize {
    let per_table = trainer.table_optimizers().iter().map(|opt| {
        let planes: usize = opt.planes().map(|(_, v, t)| 4 * v.len() + t.len()).sum();
        planes + 4 * opt.step_counts().map_or(0, <[u32]>::len)
    });
    per_table.sum()
}

fn table_bits(trainer: &Trainer) -> Vec<u32> {
    let model = trainer.model();
    (0..model.num_tables())
        .flat_map(|i| model.table(i).as_slice().iter().map(|v| v.to_bits()))
        .collect()
}

/// RM1's shape at 25,000 rows a table (64 MB of tables): under SGD and
/// under Adagrad (a step in, so its state planes cover the tables), a save
/// into a sink raises the peak by under 4 MB, and a restore from the
/// saved bytes by at most the file, the state it decodes and 4 MB.
#[test]
fn saves_stream_and_restores_hold_the_file_once() {
    let config = DlrmConfig::rm1_scaled(25_000);
    for optimizer in [
        EmbeddingOptimizer::Sgd,
        EmbeddingOptimizer::Adagrad { eps: 1e-8 },
    ] {
        let build = |seed| {
            Trainer::with_optimizer(config.clone(), BackwardMode::Casted, optimizer, seed).unwrap()
        };
        let mut trainer = build(1);
        assert!(trainer.model().parameter_count() * 4 >= 64_000_000);
        let mut data = SyntheticCtr::new(config.table_workloads(), config.dense_features, 5);
        trainer.step(&data.next_batch(64)).unwrap();

        let (saved, rise) =
            peak_rise(|| save_train_checkpoint(&mut std::io::sink(), &trainer, None, None));
        saved.unwrap();
        assert!(
            rise < SLACK,
            "{optimizer:?}: a save into a sink raised the peak {rise} bytes"
        );

        let mut file = Vec::new();
        save_train_checkpoint(&mut file, &trainer, None, None).unwrap();
        let mut fresh = build(2);
        let (restored, rise) =
            peak_rise(|| read_train_checkpoint(&mut file.as_slice())?.restore_into(&mut fresh));
        restored.unwrap();
        let bound = file.len() + state_bytes(&trainer) + SLACK;
        assert!(
            rise <= bound,
            "{optimizer:?}: a restore of {} bytes raised the peak {rise} bytes (bound {bound})",
            file.len()
        );
        assert_eq!(table_bits(&fresh), table_bits(&trainer));
        assert_eq!(fresh.steps(), 1);
    }
}
