//! Train a scaled-down RM1 (Table II architecture) on synthetic
//! Criteo-like CTR data, with both embedding-backward implementations,
//! and report the real wall-clock phase breakdown — this repository's
//! version of the paper's "prototyped on a real CPU-GPU system"
//! measurement. The casted run also reports the Fig. 9b overlap metrics
//! (hidden fraction / exposed wait) of its step loop, which casts
//! in-step, and a second experiment runs the cross-batch `TrainLoop`
//! driver at lookahead depth 0 vs 2 to show the exposed-wait collapse.
//!
//! ```sh
//! cargo run --release --example train_dlrm
//! ```

use std::time::Duration;
use tensor_casting::datasets::{PrefetchSource, SyntheticCtr, SyntheticSource};
use tensor_casting::dlrm::{BackwardMode, DlrmConfig, PhaseTimings, TrainLoop, Trainer};

const STEPS: usize = 30;
const BATCH: usize = 256;

struct RunResult {
    loss_before: f32,
    loss_after: f32,
    timings: PhaseTimings,
    /// Casting the step loop did not hide (casted mode only).
    exposed_wait: Duration,
    /// Fraction of casting hidden under other work.
    hidden_fraction: f64,
}

fn run(mode: BackwardMode) -> Result<RunResult, Box<dyn std::error::Error>> {
    let config = DlrmConfig::rm1_scaled(20_000);
    let mut data = SyntheticCtr::new(config.table_workloads(), config.dense_features, 7);
    let mut trainer = Trainer::new(config, mode, 99)?;
    // RM1's pooling factor of 80 makes the pooled embeddings (sums of 80
    // rows) large; 0.1 diverges to NaN within ~30 steps. 0.02 is stable.
    trainer.set_learning_rate(0.02);

    let eval = data.next_batch(512);
    let loss_before = trainer.evaluate(&eval)?;
    let mut total = PhaseTimings::default();
    let mut exposed_wait = Duration::ZERO;
    for _ in 0..STEPS {
        let report = trainer.step(&data.next_batch(BATCH))?;
        total += report.timings;
        exposed_wait += report.exposed_cast_wait;
    }
    let loss_after = trainer.evaluate(&eval)?;
    let hidden_fraction = trainer
        .pipeline_stats()
        .map(|s| s.hidden_fraction())
        .unwrap_or(1.0);
    Ok(RunResult {
        loss_before,
        loss_after,
        timings: total,
        exposed_wait,
        hidden_fraction,
    })
}

fn pct(d: Duration, total: Duration) -> f64 {
    100.0 * d.as_secs_f64() / total.as_secs_f64()
}

/// The Fig. 9b experiment: the same casted model trained through the
/// cross-batch `TrainLoop` at lookahead depth 0 (every step casts
/// in-step, fully exposed) vs depth 2 (each completion casts the batch
/// queued behind it on the trainer's lane, beside its own dense phases).
fn lookahead_collapse() -> Result<(), Box<dyn std::error::Error>> {
    const LOOKAHEAD_BATCH: usize = 128;
    const LOOKAHEAD_STEPS: usize = 120;
    println!(
        "\n== cross-batch lookahead (casted, RM1, batch {LOOKAHEAD_BATCH}, \
         {LOOKAHEAD_STEPS} steps) =="
    );
    let mut losses = Vec::new();
    for depth in [0usize, 2] {
        let config = DlrmConfig::rm1_scaled(20_000);
        let source_data = SyntheticCtr::new(config.table_workloads(), config.dense_features, 7);
        let mut source = SyntheticSource::new(source_data, LOOKAHEAD_BATCH);
        let mut trainer = Trainer::new(config, BackwardMode::Casted, 99)?;
        trainer.set_learning_rate(0.02);
        let mut driver = TrainLoop::new(trainer, depth);
        let summary = driver.run(&mut source, LOOKAHEAD_STEPS)?;
        println!(
            "  depth {depth}: exposed wait {:>9.2?} total ({:>7.0} ns/step), \
             casting {:.1}% hidden",
            summary.exposed_cast_wait,
            summary.exposed_cast_wait.as_secs_f64() * 1e9 / summary.steps as f64,
            100.0 * summary.hidden_fraction(),
        );
        losses.push(summary.losses);
    }
    assert_eq!(
        losses[0], losses[1],
        "depth-2 lookahead must be bit-identical to depth 0"
    );
    println!("  identical per-step losses at both depths ✓ (lookahead only moves casting)");
    Ok(())
}

/// Background generation: a run at depth 2 over RM1's tables with lean
/// MLPs (generation-bound), with batch generation moved onto a
/// `PrefetchSource` producer thread. The
/// producer only changes where batches are made — the trajectory matches
/// the inline run bit for bit.
fn prefetched_run() -> Result<(), Box<dyn std::error::Error>> {
    const BATCH: usize = 128;
    const STEPS: usize = 120;
    println!("\n== depth-2 lookahead + prefetched generation (batch {BATCH}, {STEPS} steps) ==");
    let mut config = DlrmConfig::rm1_scaled(20_000);
    config.embedding_dim = 8;
    config.bottom_mlp = vec![8];
    config.top_mlp = vec![8, 1];
    let mk_source = || {
        SyntheticSource::new(
            SyntheticCtr::new(config.table_workloads(), config.dense_features, 7),
            BATCH,
        )
    };
    let mk_trainer = || -> Result<Trainer, Box<dyn std::error::Error>> {
        let mut t = Trainer::new(config.clone(), BackwardMode::Casted, 99)?;
        t.set_learning_rate(0.02);
        Ok(t)
    };

    let mut inline = TrainLoop::new(mk_trainer()?, 2);
    let inline_summary = inline.run(&mut mk_source(), STEPS)?;

    let mut prefetched = TrainLoop::new(mk_trainer()?, 2);
    let mut prefetched_source = PrefetchSource::new(mk_source(), 3);
    let summary = prefetched.run(&mut prefetched_source, STEPS)?;
    let stats = prefetched_source.stats();

    println!(
        "  inline gen:     {:.1}% hidden, gen wait {:>9.2?} total",
        100.0 * inline_summary.hidden_fraction(),
        inline_summary.batch_wait,
    );
    println!(
        "  prefetched gen: {:.1}% hidden, gen wait {:>9.2?} total \
         (producer made {} batches, queue high-water {})",
        100.0 * summary.hidden_fraction(),
        summary.batch_wait,
        stats.produced,
        stats.max_ready,
    );
    assert_eq!(
        summary.losses, inline_summary.losses,
        "prefetched generation must be bit-identical to the inline run"
    );
    println!("  identical per-step losses ✓ (prefetch only moves generation)");
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!(
        "training RM1 (10 tables x 80 gathers, 20k rows/table) for {STEPS} steps @ batch {BATCH}\n"
    );
    let mut results = Vec::new();
    for (name, mode) in [
        ("baseline expand-coalesce", BackwardMode::Baseline),
        ("tensor casting", BackwardMode::Casted),
    ] {
        let r = run(mode)?;
        let t = r.timings;
        let total = t.total();
        println!("== {name} ==");
        println!("  loss: {:.4} -> {:.4}", r.loss_before, r.loss_after);
        println!("  wall-clock: {:.2?} total", total);
        println!(
            "    fwd gather {:>5.1}% | fwd dnn {:>5.1}% | bwd dnn {:>5.1}% | bwd embedding {:>5.1}% | scatter {:>5.1}%",
            pct(t.fwd_gather, total),
            pct(t.fwd_dnn, total),
            pct(t.bwd_dnn, total),
            pct(t.bwd_embedding, total),
            pct(t.bwd_scatter, total),
        );
        println!(
            "    embedding backprop share: {:.0}% (paper: 62-92% on CPU-centric systems)",
            100.0 * t.embedding_backward_fraction()
        );
        if mode == BackwardMode::Casted {
            println!(
                "    casting: {:.1}% hidden, {:.2?} exposed (a step loop casts in-step; \
                 the lookahead below hides it)",
                100.0 * r.hidden_fraction,
                r.exposed_wait,
            );
        }
        println!();
        results.push((name, r.loss_after, total));
    }
    let (_, loss_a, t_base) = results[0];
    let (_, loss_b, t_cast) = results[1];
    assert_eq!(
        loss_a, loss_b,
        "the two backward paths must train identically"
    );
    println!(
        "identical final loss ✓ — and the casted backward ran {:.2}x faster end-to-end",
        t_base.as_secs_f64() / t_cast.as_secs_f64()
    );

    lookahead_collapse()?;
    prefetched_run()
}
