//! Per-iteration energy model (Section VI-C, Fig. 14).
//!
//! "When evaluating energy consumption, we multiply the power estimation
//! values with each CPU, GPU, and NMP node's execution time." Each device
//! present in a design point burns active power while running its phases
//! and idle power for the rest of the iteration; link transfers carry no
//! compute power.

use crate::calibration::Calibration;
use crate::design::Evaluation;
use crate::phase::Device;

/// Energy of one iteration, by device.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyBreakdown {
    /// CPU joules (0 when the system has no CPU).
    pub cpu_j: f64,
    /// GPU joules.
    pub gpu_j: f64,
    /// NMP pool joules.
    pub nmp_j: f64,
}

impl EnergyBreakdown {
    /// Total joules.
    pub fn total(&self) -> f64 {
        self.cpu_j + self.gpu_j + self.nmp_j
    }
}

/// Computes the energy of one evaluated iteration.
pub fn energy_joules(eval: &Evaluation, cal: &Calibration) -> EnergyBreakdown {
    let total_s = eval.total_ns * 1e-9;
    let mut out = EnergyBreakdown::default();
    for &device in eval.design.devices() {
        let busy_s = (eval.device_busy_ns(device) * 1e-9).min(total_s);
        let idle_s = total_s - busy_s;
        let (active_w, idle_w) = match device {
            Device::Cpu => (cal.cpu_active_w, cal.cpu_idle_w),
            Device::Gpu => (cal.gpu_active_w, cal.gpu_idle_w),
            Device::Nmp => (cal.pool_active_w, cal.pool_idle_w),
            Device::Link => (0.0, 0.0),
        };
        let joules = busy_s * active_w + idle_s * idle_w;
        match device {
            Device::Cpu => out.cpu_j = joules,
            Device::Gpu => out.gpu_j = joules,
            Device::Nmp => out.nmp_j = joules,
            Device::Link => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::DesignPoint;
    use crate::workload::{SystemWorkload, RM1};

    fn cal() -> Calibration {
        Calibration::default()
    }

    fn wl() -> SystemWorkload {
        SystemWorkload::build(RM1, 2048, 64, 42)
    }

    #[test]
    fn faster_systems_use_less_energy() {
        // Fig. 14: training-time reduction translates into energy savings.
        let w = wl();
        let base = energy_joules(&DesignPoint::BaselineCpuGpu.evaluate(&w, &cal()), &cal());
        let ours_cpu = energy_joules(&DesignPoint::OursCpu.evaluate(&w, &cal()), &cal());
        let ours_nmp = energy_joules(&DesignPoint::OursNmp.evaluate(&w, &cal()), &cal());
        assert!(ours_cpu.total() < base.total());
        assert!(ours_nmp.total() < ours_cpu.total());
    }

    #[test]
    fn ours_cpu_beats_baseline_nmp_energy() {
        // "even the software-only Ours(CPU) provides noticeable
        // energy-efficiency improvements compared to Baseline(NMP)".
        let w = wl();
        let base_nmp = energy_joules(&DesignPoint::BaselineNmp.evaluate(&w, &cal()), &cal());
        let ours_cpu = energy_joules(&DesignPoint::OursCpu.evaluate(&w, &cal()), &cal());
        assert!(ours_cpu.total() < base_nmp.total());
    }

    #[test]
    fn cpu_only_has_no_gpu_energy() {
        let w = wl();
        let e = energy_joules(&DesignPoint::CpuOnly.evaluate(&w, &cal()), &cal());
        assert_eq!(e.gpu_j, 0.0);
        assert_eq!(e.nmp_j, 0.0);
        assert!(e.cpu_j > 0.0);
    }

    #[test]
    fn ours_nmp_has_no_cpu_energy() {
        let w = wl();
        let e = energy_joules(&DesignPoint::OursNmp.evaluate(&w, &cal()), &cal());
        assert_eq!(e.cpu_j, 0.0);
        assert!(e.gpu_j > 0.0);
        assert!(e.nmp_j > 0.0);
    }

    #[test]
    fn energy_is_bounded_by_all_active_and_all_idle() {
        let w = wl();
        for dp in DesignPoint::ALL {
            let eval = dp.evaluate(&w, &cal());
            let e = energy_joules(&eval, &cal());
            let s = eval.total_ns * 1e-9;
            let (mut max_w, mut min_w) = (0.0, 0.0);
            for &d in dp.devices() {
                let (a, i) = match d {
                    Device::Cpu => (cal().cpu_active_w, cal().cpu_idle_w),
                    Device::Gpu => (cal().gpu_active_w, cal().gpu_idle_w),
                    Device::Nmp => (cal().pool_active_w, cal().pool_idle_w),
                    Device::Link => (0.0, 0.0),
                };
                max_w += a;
                min_w += i;
            }
            assert!(e.total() <= s * max_w * (1.0 + 1e-9), "{dp}");
            assert!(e.total() >= s * min_w * (1.0 - 1e-9), "{dp}");
        }
    }
}
