//! Programmatic experiment reports: build the summary of the paper's
//! Section VI evaluation (every headline number) as a data structure and
//! render it to markdown — so the summary is regenerated mechanically
//! instead of hand-transcribed from figure output.

use crate::calibration::Calibration;
use crate::design::DesignPoint;
use crate::energy::energy_joules;
use crate::metrics::geometric_mean;
use crate::workload::{RmModel, SystemWorkload};

/// One headline result row: a named quantity with its measured value and
/// the paper's reference band.
#[derive(Debug, Clone, PartialEq)]
pub struct Headline {
    /// What is being measured.
    pub name: String,
    /// Measured value, formatted.
    pub measured: String,
    /// The paper's reported value/band.
    pub paper: String,
    /// Whether the measured value satisfies the reproduction contract.
    pub in_band: bool,
}

/// The full headline summary of the evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct EvaluationReport {
    /// Individual headline rows.
    pub headlines: Vec<Headline>,
}

impl EvaluationReport {
    /// Runs the default evaluation grid (RM1-4 x b1024-8192, dim 64,
    /// Criteo-like locality) and summarizes the headline claims.
    pub fn build(cal: &Calibration) -> Self {
        let mut grid = Vec::new();
        for model in RmModel::all() {
            for batch in [1024usize, 2048, 4096, 8192] {
                grid.push(SystemWorkload::build(model.clone(), batch, 64, 42));
            }
        }

        let mut sw_speedups = Vec::new();
        let mut hw_speedups = Vec::new();
        let mut emb_fracs = Vec::new();
        let mut util_baseline = Vec::new();
        let mut util_casting = Vec::new();
        let mut energy_ratios = Vec::new();
        for wl in &grid {
            let base = DesignPoint::BaselineCpuGpu.evaluate(wl, cal);
            let ours_cpu = DesignPoint::OursCpu.evaluate(wl, cal);
            let ours_nmp = DesignPoint::OursNmp.evaluate(wl, cal);
            let base_nmp = DesignPoint::BaselineNmp.evaluate(wl, cal);
            sw_speedups.push(base.total_ns / ours_cpu.total_ns);
            hw_speedups.push(base.total_ns / ours_nmp.total_ns);
            if wl.model.embedding_intensive {
                emb_fracs.push(base.embedding_backward_fraction());
            }
            util_baseline.push(base_nmp.nmp_utilization());
            util_casting.push(ours_nmp.nmp_utilization());
            energy_ratios
                .push(energy_joules(&ours_nmp, cal).total() / energy_joules(&base, cal).total());
        }

        let min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
        let max = |v: &[f64]| v.iter().copied().fold(0.0f64, f64::max);
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;

        let sw_lo = min(&sw_speedups);
        let sw_hi = max(&sw_speedups);
        let hw_lo = min(&hw_speedups);
        let hw_hi = max(&hw_speedups);
        let hw_geo = geometric_mean(&hw_speedups);
        let emb_lo = min(&emb_fracs);
        let emb_hi = max(&emb_fracs);
        let util_ratio = mean(&util_casting) / mean(&util_baseline).max(1e-9);

        let headlines = vec![
            Headline {
                name: "Ours(CPU) end-to-end speedup".into(),
                measured: format!("{sw_lo:.2}x-{sw_hi:.2}x"),
                paper: "1.2-1.6x (default batches), up to 2.8x".into(),
                in_band: sw_lo >= 1.0 && sw_hi <= 3.0,
            },
            Headline {
                name: "Ours(NMP) end-to-end speedup".into(),
                measured: format!("{hw_lo:.2}x-{hw_hi:.2}x, geomean {hw_geo:.2}x"),
                paper: "2.0-15x, average 6.9x".into(),
                in_band: hw_lo >= 1.8 && hw_hi <= 25.0 && (4.0..=14.0).contains(&hw_geo),
            },
            Headline {
                name: "embedding-backward share (CPU-centric, RM1/2)".into(),
                measured: format!("{:.0}%-{:.0}%", 100.0 * emb_lo, 100.0 * emb_hi),
                paper: "62-92%".into(),
                in_band: emb_lo >= 0.5 && emb_hi <= 0.97,
            },
            Headline {
                name: "NMP utilization uplift (T.Casting / TensorDIMM)".into(),
                measured: format!("{util_ratio:.0}x"),
                paper: "~13x (92%+44% vs ~7%)".into(),
                in_band: util_ratio > 5.0,
            },
            Headline {
                name: "Ours(NMP) energy vs Baseline(CPU)".into(),
                measured: format!("{:.2}x-{:.2}x", min(&energy_ratios), max(&energy_ratios)),
                paper: "large savings, tracking throughput".into(),
                in_band: max(&energy_ratios) < 1.0,
            },
        ];
        Self { headlines }
    }

    /// Whether every headline satisfies its band.
    pub fn all_in_band(&self) -> bool {
        self.headlines.iter().all(|h| h.in_band)
    }

    /// Renders the report as a markdown table.
    pub fn to_markdown(&self) -> String {
        let mut out =
            String::from("| quantity | measured | paper | in band |\n|---|---|---|---|\n");
        for h in &self.headlines {
            out.push_str(&format!(
                "| {} | {} | {} | {} |\n",
                h.name,
                h.measured,
                h.paper,
                if h.in_band { "yes" } else { "NO" }
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_builds_and_is_in_band() {
        let report = EvaluationReport::build(&Calibration::default());
        assert_eq!(report.headlines.len(), 5);
        for h in &report.headlines {
            assert!(
                h.in_band,
                "{}: measured {} vs {}",
                h.name, h.measured, h.paper
            );
        }
        assert!(report.all_in_band());
    }

    #[test]
    fn markdown_rendering() {
        let report = EvaluationReport::build(&Calibration::default());
        let md = report.to_markdown();
        assert!(md.starts_with("| quantity |"));
        assert!(md.contains("Ours(NMP) end-to-end speedup"));
        assert!(md.lines().count() >= 7);
    }

    #[test]
    fn out_of_band_is_reported_not_hidden() {
        // Sabotage the calibration (pool slower than the CPU) and check
        // the report honestly flags the breakage.
        let broken = Calibration {
            pool_channel_gbps: 0.1,
            ..Calibration::default()
        };
        let report = EvaluationReport::build(&broken);
        assert!(!report.all_in_band());
        assert!(report.to_markdown().contains("NO"));
    }
}
