//! Integration tests asserting the *shapes* of the paper's evaluation
//! results (who wins, by roughly what factor, where the crossovers are) —
//! the reproduction contract of the paper's Section VI.

use tcast_datasets::DatasetPreset;
use tcast_system::traffic;
use tcast_system::{
    energy_joules, Calibration, CoalesceStats, DesignPoint, RmModel, SystemWorkload,
};

fn cal() -> Calibration {
    Calibration::default()
}

fn grid() -> Vec<SystemWorkload> {
    let mut out = Vec::new();
    for model in RmModel::all() {
        for batch in [1024usize, 2048, 4096, 8192] {
            out.push(SystemWorkload::build(model.clone(), batch, 64, 42));
        }
    }
    out
}

#[test]
fn fig4_embedding_backward_dominates_cpu_centric_training() {
    // 62-92% of end-to-end time is embedding backprop for the
    // CPU-centric systems across embedding-intensive configs.
    for wl in grid() {
        if !wl.model.embedding_intensive {
            continue;
        }
        let e = DesignPoint::BaselineCpuGpu.evaluate(&wl, &cal());
        let frac = e.embedding_backward_fraction();
        assert!(
            (0.55..=0.97).contains(&frac),
            "{} b{}: {frac}",
            wl.model.name,
            wl.batch
        );
    }
}

#[test]
fn fig4_gpu_matters_most_for_mlp_intensive_models() {
    let speedup_from_gpu = |model: RmModel| {
        let wl = SystemWorkload::build(model, 2048, 64, 42);
        DesignPoint::CpuOnly.evaluate(&wl, &cal()).total_ns
            / DesignPoint::BaselineCpuGpu.evaluate(&wl, &cal()).total_ns
    };
    assert!(speedup_from_gpu(RmModel::rm4()) > speedup_from_gpu(RmModel::rm1()));
}

#[test]
fn fig5b_coalescing_orders_by_dataset_skew() {
    let coalesced = |p: DatasetPreset| {
        CoalesceStats::measure(&p.table_workload(10).with_rows(100_000), 2048, 9).coalesced
    };
    let random = coalesced(DatasetPreset::Random);
    let criteo = coalesced(DatasetPreset::CriteoKaggle);
    let movielens = coalesced(DatasetPreset::MovieLens20M);
    assert!(movielens < criteo);
    assert!(criteo < random);
}

#[test]
fn fig6_traffic_ratios() {
    let wl = SystemWorkload::build(RmModel::rm1(), 2048, 64, 42);
    let s = wl.table_shape();
    let ec = traffic::expand_coalesce_total(&s).total() as f64;
    let gr = traffic::gather_reduce(&s).total() as f64;
    assert!(
        (2.0..=3.6).contains(&(ec / gr)),
        "expand-coalesce should be ~3x gather-reduce traffic, got {}",
        ec / gr
    );
    let casted = traffic::casted_gather_reduce(&s).total() as f64;
    assert!(
        ec / casted >= 1.5,
        "casting should cut backward traffic by >=1.5x (paper: ~2x), got {}",
        ec / casted
    );
}

#[test]
fn fig13_speedup_bands() {
    let mut nmp_speedups = Vec::new();
    for wl in grid() {
        let base = DesignPoint::BaselineCpuGpu.evaluate(&wl, &cal()).total_ns;
        let sw = base / DesignPoint::OursCpu.evaluate(&wl, &cal()).total_ns;
        let hw = base / DesignPoint::OursNmp.evaluate(&wl, &cal()).total_ns;
        assert!(
            sw > 1.0,
            "{} b{}: software speedup {sw}",
            wl.model.name,
            wl.batch
        );
        assert!(
            hw > sw,
            "{} b{}: NMP must beat software-only",
            wl.model.name,
            wl.batch
        );
        assert!(
            (1.8..=25.0).contains(&hw),
            "{} b{}: NMP speedup {hw}",
            wl.model.name,
            wl.batch
        );
        nmp_speedups.push(hw);
    }
    let avg = nmp_speedups.iter().sum::<f64>() / nmp_speedups.len() as f64;
    assert!(
        (4.0..=14.0).contains(&avg),
        "average Ours(NMP) speedup {avg} (paper: 6.9x)"
    );
}

#[test]
fn fig13_embedding_intensive_models_benefit_more() {
    let s = |model: RmModel| {
        let wl = SystemWorkload::build(model, 2048, 64, 42);
        DesignPoint::BaselineCpuGpu.evaluate(&wl, &cal()).total_ns
            / DesignPoint::OursNmp.evaluate(&wl, &cal()).total_ns
    };
    assert!(s(RmModel::rm1()) > s(RmModel::rm3()));
    assert!(s(RmModel::rm2()) > s(RmModel::rm4()));
}

#[test]
fn fig14_energy_follows_performance() {
    for wl in grid() {
        let base = energy_joules(&DesignPoint::BaselineCpuGpu.evaluate(&wl, &cal()), &cal());
        let ours = energy_joules(&DesignPoint::OursNmp.evaluate(&wl, &cal()), &cal());
        assert!(
            ours.total() < base.total(),
            "{} b{}",
            wl.model.name,
            wl.batch
        );
    }
}

#[test]
fn fig15_utilization_gap() {
    // T.Casting must raise NMP utilization by an order of magnitude over
    // TensorDIMM on embedding-intensive models.
    let wl = SystemWorkload::build(RmModel::rm2(), 2048, 64, 42);
    let td = DesignPoint::BaselineNmp
        .evaluate(&wl, &cal())
        .nmp_utilization();
    let tc = DesignPoint::OursNmp.evaluate(&wl, &cal()).nmp_utilization();
    assert!(tc > 8.0 * td, "utilization {td} -> {tc}");
}

#[test]
fn fig16_large_batches_reach_double_digit_speedups() {
    let wl = SystemWorkload::build(RmModel::rm2(), 32_768, 64, 42);
    let s = DesignPoint::BaselineCpuGpu.evaluate(&wl, &cal()).total_ns
        / DesignPoint::OursNmp.evaluate(&wl, &cal()).total_ns;
    assert!(s > 8.0, "b32k speedup {s} (paper: up to 15x)");
}

#[test]
fn fig17_speedup_robust_across_dims() {
    for dim in [32usize, 64, 128, 256] {
        let wl = SystemWorkload::build(RmModel::rm1(), 2048, dim, 42);
        let s = DesignPoint::BaselineCpuGpu.evaluate(&wl, &cal()).total_ns
            / DesignPoint::OursNmp.evaluate(&wl, &cal()).total_ns;
        assert!(s > 2.0, "dim {dim}: speedup {s}");
    }
}

#[test]
fn link_bandwidth_insensitivity() {
    // Section VI-D: 25 GB/s achieves ~99% of the 150 GB/s configuration.
    let wl = SystemWorkload::build(RmModel::rm1(), 2048, 64, 42);
    let slow = DesignPoint::OursNmp
        .evaluate(&wl, &Calibration::default().with_pool_link_gbps(25.0))
        .total_ns;
    let fast = DesignPoint::OursNmp
        .evaluate(&wl, &Calibration::default().with_pool_link_gbps(150.0))
        .total_ns;
    assert!(
        fast / slow > 0.70,
        "performance should be link-insensitive: {:.2}",
        fast / slow
    );
}

#[test]
fn calibration_from_dram_sim_preserves_all_shapes() {
    // Re-deriving the pool efficiencies from the cycle-level simulator
    // must not break the headline result.
    let cal = Calibration::default().from_dram_sim(4096);
    let wl = SystemWorkload::build(RmModel::rm1(), 2048, 64, 42);
    let s = DesignPoint::BaselineCpuGpu.evaluate(&wl, &cal).total_ns
        / DesignPoint::OursNmp.evaluate(&wl, &cal).total_ns;
    assert!(s > 2.0, "measured-calibration speedup {s}");
}
