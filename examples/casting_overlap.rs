//! Demonstrate the Section IV-B runtime: the casting stage runs *while
//! forward propagation executes*, so backward finds the casted index
//! arrays already waiting (Fig. 9b). No casting thread is needed: a
//! one-worker pool casts inside a scope while this thread runs the
//! forward gather — the way the DLRM trainer casts the next batch on its
//! lane while its own thread runs the dense phases.
//!
//! ```sh
//! cargo run --release --example casting_overlap
//! ```

use std::time::{Duration, Instant};
use tensor_casting::core::{
    casted_gather_reduce, tensor_casting_into, CastedIndexArray, PipelineStats,
};
use tensor_casting::datasets::{DatasetPreset, TableWorkload};
use tensor_casting::embedding::{gather_reduce, EmbeddingTable, IndexArray, RadixScratch};
use tensor_casting::tensor::{Matrix, Pool};

const TABLES: usize = 8;
const BATCH: usize = 2048;
const POOLING: usize = 20;

fn make_workload() -> (Vec<EmbeddingTable>, Vec<IndexArray>) {
    let spec = TableWorkload::new(
        DatasetPreset::CriteoKaggle.popularity().with_rows(100_000),
        POOLING,
    );
    let tables: Vec<EmbeddingTable> = (0..TABLES)
        .map(|i| EmbeddingTable::seeded(100_000, 32, i as u64))
        .collect();
    let indices: Vec<IndexArray> = (0..TABLES)
        .map(|i| spec.generator(100 + i as u64).next_batch(BATCH))
        .collect();
    (tables, indices)
}

fn forward(tables: &[EmbeddingTable], indices: &[IndexArray]) -> Vec<Matrix> {
    tables
        .iter()
        .zip(indices)
        .map(|(t, i)| gather_reduce(t, i).expect("valid workload"))
        .collect()
}

/// Casts every table's index array into `out`, reusing its buffers;
/// returns how long that took.
fn cast(
    indices: &[IndexArray],
    out: &mut [CastedIndexArray],
    radix: &mut RadixScratch,
) -> Duration {
    let start = Instant::now();
    for (index, out) in indices.iter().zip(out) {
        tensor_casting_into(index, out, radix);
    }
    start.elapsed()
}

fn backward(grads: &Matrix, casted: &[CastedIndexArray]) -> Duration {
    let start = Instant::now();
    for c in casted {
        casted_gather_reduce(grads, c).expect("valid casted arrays");
    }
    start.elapsed()
}

fn main() {
    let (tables, indices) = make_workload();
    let grads = Matrix::filled(BATCH, 32, 0.01);
    let mut casted = vec![CastedIndexArray::default(); TABLES];
    let mut radix = RadixScratch::default();
    cast(&indices, &mut casted, &mut radix); // sizes every buffer

    // --- Synchronous casting: Algorithm 2 sits on the backward path. ---
    let t0 = Instant::now();
    let _pooled = forward(&tables, &indices);
    let fwd = t0.elapsed();
    let casting = cast(&indices, &mut casted, &mut radix);
    let bwd = backward(&grads, &casted);
    println!("synchronous : forward {fwd:>9.2?} | casting {casting:>9.2?} (exposed) | casted backward {bwd:>9.2?}");
    let sync = PipelineStats {
        jobs_completed: 1,
        casting_time: casting,
        exposed_wait: casting,
    };
    let sync_total = fwd + casting + bwd;

    // --- Overlapped casting: the worker casts while this thread gathers;
    // what the scope's join then waits is the exposed casting. ---
    let lane = Pool::new(1);
    let mut casting = Duration::ZERO;
    let t0 = Instant::now();
    let (fwd, gathered) = lane.scope(|scope| {
        let (casting, casted, radix) = (&mut casting, &mut casted, &mut radix);
        scope.spawn(|| *casting = cast(&indices, casted, radix));
        let _pooled = forward(&tables, &indices);
        (t0.elapsed(), Instant::now())
    });
    let exposed = gathered.elapsed();
    let bwd = backward(&grads, &casted);
    println!("overlapped  : forward {fwd:>9.2?} | casting {exposed:>9.2?} (exposed) | casted backward {bwd:>9.2?}");
    let overlapped = PipelineStats {
        jobs_completed: 1,
        casting_time: casting,
        exposed_wait: exposed,
    };
    let overlapped_total = fwd + exposed + bwd;

    println!(
        "\nhidden under forward propagation: synchronous {:.0}%, overlapped {:.0}% of the casting work",
        100.0 * sync.hidden_fraction(),
        100.0 * overlapped.hidden_fraction()
    );
    println!(
        "iteration critical path: {sync_total:.2?} -> {overlapped_total:.2?} ({:.2}x)",
        sync_total.as_secs_f64() / overlapped_total.as_secs_f64()
    );
}
