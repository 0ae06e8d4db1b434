//! Parameterized sweep helpers: the evaluation grids of Figs. 12-17, the
//! machinery behind the sensitivity figures (16, 17, the link sweep) plus
//! a pool-scaling study the paper implies but does not plot (Table I's
//! rank count as a design knob).

use crate::calibration::Calibration;
use crate::design::DesignPoint;
use crate::metrics::Series;
use crate::workload::{RmModel, SystemWorkload};

/// The default batch sweep of Figs. 12-15.
pub const DEFAULT_BATCHES: [usize; 4] = [1024, 2048, 4096, 8192];

/// The Fig. 16 large-batch sweep.
pub const LARGE_BATCHES: [usize; 3] = [8192, 16384, 32768];

/// The Fig. 17 embedding-dimension sweep.
pub const DIM_SWEEP: [usize; 3] = [32, 128, 256];

/// Builds the standard workload grid `[model x batch]` at `dim`.
pub fn workload_grid(batches: &[usize], dim: usize) -> Vec<SystemWorkload> {
    let mut out = Vec::new();
    for model in RmModel::all() {
        for &batch in batches {
            out.push(SystemWorkload::build(model.clone(), batch, dim, 42));
        }
    }
    out
}

/// Formats a workload's grid label ("RM1 b2048").
pub fn grid_label(wl: &SystemWorkload) -> String {
    format!("{} b{}", wl.model.name, wl.batch)
}

/// Speedup of `design` over `baseline` for one workload.
pub fn speedup(
    wl: &SystemWorkload,
    baseline: DesignPoint,
    design: DesignPoint,
    cal: &Calibration,
) -> f64 {
    baseline.evaluate(wl, cal).total_ns / design.evaluate(wl, cal).total_ns
}

/// Fig. 16 series: `design`'s speedup over Baseline(CPU) across batch
/// sizes for one model.
pub fn batch_sweep(
    model: &RmModel,
    batches: &[usize],
    design: DesignPoint,
    cal: &Calibration,
) -> Series {
    let mut s = Series::new(format!("{} {}", model.name, design.name()));
    for &batch in batches {
        let wl = SystemWorkload::build(model.clone(), batch, 64, 42);
        s.push(
            format!("b{batch}"),
            speedup(&wl, DesignPoint::BaselineCpuGpu, design, cal),
        );
    }
    s
}

/// Fig. 17 series: speedup across embedding dimensions.
pub fn dim_sweep(
    model: &RmModel,
    dims: &[usize],
    design: DesignPoint,
    cal: &Calibration,
) -> Series {
    let mut s = Series::new(format!("{} {}", model.name, design.name()));
    for &dim in dims {
        let wl = SystemWorkload::build(model.clone(), 2048, dim, 42);
        s.push(
            format!("dim{dim}"),
            speedup(&wl, DesignPoint::BaselineCpuGpu, design, cal),
        );
    }
    s
}

/// Section VI-D series: Ours(NMP) performance (relative to the 150 GB/s
/// configuration) across link bandwidths.
pub fn link_sweep(model: &RmModel, links_gbps: &[f64], cal: &Calibration) -> Series {
    let wl = SystemWorkload::build(model.clone(), 2048, 64, 42);
    let best = DesignPoint::OursNmp
        .evaluate(&wl, &cal.clone().with_pool_link_gbps(150.0))
        .total_ns;
    let mut s = Series::new(format!("{} Ours(NMP)", model.name));
    for &gbps in links_gbps {
        let t = DesignPoint::OursNmp
            .evaluate(&wl, &cal.clone().with_pool_link_gbps(gbps))
            .total_ns;
        s.push(format!("{gbps:.0}GB/s"), best / t);
    }
    s
}

/// Pool-scaling study: Ours(NMP) speedup over Baseline(CPU) as the pool
/// grows from `ranks[0]` to `ranks[last]` channels (per-channel
/// bandwidth fixed at Table I's 25.6 GB/s).
pub fn rank_sweep(model: &RmModel, ranks: &[usize], cal: &Calibration) -> Series {
    let wl = SystemWorkload::build(model.clone(), 2048, 64, 42);
    let mut s = Series::new(format!("{} Ours(NMP)", model.name));
    for &r in ranks {
        let mut c = cal.clone();
        c.pool_channels = r;
        s.push(
            format!("{r} ranks"),
            speedup(&wl, DesignPoint::BaselineCpuGpu, DesignPoint::OursNmp, &c),
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cal() -> Calibration {
        Calibration::default()
    }

    #[test]
    fn batch_sweep_is_monotone_for_software_casting() {
        let s = batch_sweep(
            &RmModel::rm1(),
            &[1024, 8192, 32768],
            DesignPoint::OursCpu,
            &cal(),
        );
        assert_eq!(s.points.len(), 3);
        assert!(s.points[2].1 > s.points[0].1);
    }

    #[test]
    fn dim_sweep_stays_above_2x_for_nmp() {
        let s = dim_sweep(
            &RmModel::rm1(),
            &[32, 64, 128, 256],
            DesignPoint::OursNmp,
            &cal(),
        );
        assert!(s.points.iter().all(|p| p.1 > 2.0), "{s:?}");
    }

    #[test]
    fn link_sweep_saturates() {
        let s = link_sweep(&RmModel::rm1(), &[25.0, 50.0, 100.0, 150.0], &cal());
        // Relative performance approaches 1.0 and is monotone.
        assert!(s.points.windows(2).all(|w| w[1].1 >= w[0].1 - 1e-9));
        assert!((s.points.last().unwrap().1 - 1.0).abs() < 1e-9);
        assert!(s.points[0].1 > 0.7);
    }

    #[test]
    fn rank_sweep_shows_diminishing_returns() {
        let s = rank_sweep(&RmModel::rm1(), &[8, 16, 32, 64], &cal());
        // More ranks always help...
        assert!(s.points.windows(2).all(|w| w[1].1 >= w[0].1));
        // ...but the increment shrinks (Amdahl: DNN/link/casting remain).
        let d1 = s.points[1].1 - s.points[0].1;
        let d3 = s.points[3].1 - s.points[2].1;
        assert!(d3 < d1, "increments {d1} then {d3}");
    }
}
