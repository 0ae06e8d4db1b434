//! The four evaluated system design points (Section VI) and their
//! iteration-level cost models.
//!
//! Each design point lowers a [`SystemWorkload`] into a list of
//! device-tagged [`PhaseCost`]s using the analytic traffic model and the
//! calibrated device bandwidths, then applies the paper's scheduling
//! semantics: all phases are serial on the critical path *except* the
//! casting stage, which the Section IV-B runtime overlaps with forward
//! propagation (only its exposed remainder, if any, delays the
//! iteration).

use crate::calibration::Calibration;
use crate::phase::{Device, PhaseCost, PhaseKind};
use crate::traffic;
use crate::workload::SystemWorkload;

/// The evaluated system configurations of Fig. 12/13.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DesignPoint {
    /// CPU trains everything (Section II-C "CPU-only").
    CpuOnly,
    /// The CPU-centric baseline: CPU trains embeddings, GPU trains the
    /// DNN ("Baseline(CPU)" in Fig. 12).
    BaselineCpuGpu,
    /// TensorDIMM-style NMP for gather-reduce and scatter, but gradient
    /// expand-coalesce still on the CPU ("Baseline(NMP)").
    BaselineNmp,
    /// Software-only Tensor Casting on the CPU-GPU system ("Ours(CPU)").
    OursCpu,
    /// The memory-centric system: Tensor Casting + NMP pool ("Ours(NMP)").
    OursNmp,
}

impl DesignPoint {
    /// All design points in the paper's presentation order.
    pub const ALL: [DesignPoint; 5] = [
        DesignPoint::CpuOnly,
        DesignPoint::BaselineCpuGpu,
        DesignPoint::BaselineNmp,
        DesignPoint::OursCpu,
        DesignPoint::OursNmp,
    ];

    /// Display name matching the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            DesignPoint::CpuOnly => "CPU-only",
            DesignPoint::BaselineCpuGpu => "Baseline(CPU)",
            DesignPoint::BaselineNmp => "Baseline(NMP)",
            DesignPoint::OursCpu => "Ours(CPU)",
            DesignPoint::OursNmp => "Ours(NMP)",
        }
    }

    /// Which devices exist in this system (for idle-energy accounting).
    pub fn devices(&self) -> &'static [Device] {
        match self {
            DesignPoint::CpuOnly => &[Device::Cpu],
            DesignPoint::BaselineCpuGpu | DesignPoint::OursCpu => &[Device::Cpu, Device::Gpu],
            DesignPoint::BaselineNmp => &[Device::Cpu, Device::Gpu, Device::Nmp],
            DesignPoint::OursNmp => &[Device::Gpu, Device::Nmp],
        }
    }

    /// Whether this design point uses the Tensor Casting backward path.
    pub fn uses_casting(&self) -> bool {
        matches!(self, DesignPoint::OursCpu | DesignPoint::OursNmp)
    }

    /// Costs one training iteration of `wl` under this design point.
    pub fn evaluate(&self, wl: &SystemWorkload, cal: &Calibration) -> Evaluation {
        let c = Cost { cal };
        let t = wl.tables() as f64;
        let s = wl.table_shape();

        // Aggregate (all-tables) byte counts from the analytic model.
        let by = |tr: traffic::Traffic| tr.total() as f64 * t;
        let gather_b = by(traffic::gather_reduce(&s));
        let expand_b = by(traffic::gradient_expand(&s));
        let accu_b = by(traffic::coalesce_accumulate(&s));
        let scatter_b = by(traffic::scatter(&s, 0));
        let casted_b = by(traffic::casted_gather_reduce(&s));
        let sort_elems = wl.total_lookups() as f64;
        let mlp_f = wl.mlp_forward_flops();
        let pooled_b = wl.pooled_bytes() as f64;
        let grad_b = pooled_b; // gradients of the pooled activations
        let dense_b = (wl.batch * wl.config.dense_features * 4) as f64;
        let index_b = wl.index_bytes() as f64;
        // Casted arrays: (casted_src, casted_dst) per lookup + unique ids.
        let casted_index_b = index_b + (wl.unique_per_table * wl.tables() * 4) as f64;
        // Gradient-table staging write inside the pool.
        let staging_b = pooled_b;

        let mut phases = Vec::new();
        let mut push = |kind: PhaseKind, device: Device, ns: f64| {
            phases.push(PhaseCost::new(kind, device, ns));
        };

        let mut casting_total_ns = 0.0;
        let mut casting_window_ns = 0.0;

        match self {
            DesignPoint::CpuOnly => {
                push(PhaseKind::FwdGather, Device::Cpu, c.cpu_gather(gather_b));
                push(PhaseKind::FwdDnn, Device::Cpu, c.cpu_gemm(mlp_f));
                push(PhaseKind::BwdDnn, Device::Cpu, c.cpu_gemm(2.0 * mlp_f));
                push(PhaseKind::BwdExpand, Device::Cpu, c.cpu_stream(expand_b));
                push(
                    PhaseKind::BwdCoalesceSort,
                    Device::Cpu,
                    c.cpu_sort(sort_elems),
                );
                push(
                    PhaseKind::BwdCoalesceAccu,
                    Device::Cpu,
                    c.cpu_gather(accu_b),
                );
                push(PhaseKind::BwdScatter, Device::Cpu, c.cpu_gather(scatter_b));
            }
            DesignPoint::BaselineCpuGpu => {
                push(PhaseKind::FwdGather, Device::Cpu, c.cpu_gather(gather_b));
                push(PhaseKind::FwdDnn, Device::Link, c.pcie(pooled_b + dense_b));
                push(PhaseKind::FwdDnn, Device::Gpu, c.gpu_gemm(mlp_f));
                push(PhaseKind::BwdDnn, Device::Gpu, c.gpu_gemm(2.0 * mlp_f));
                push(PhaseKind::BwdDnn, Device::Link, c.pcie(grad_b));
                push(PhaseKind::BwdExpand, Device::Cpu, c.cpu_stream(expand_b));
                push(
                    PhaseKind::BwdCoalesceSort,
                    Device::Cpu,
                    c.cpu_sort(sort_elems),
                );
                push(
                    PhaseKind::BwdCoalesceAccu,
                    Device::Cpu,
                    c.cpu_gather(accu_b),
                );
                push(PhaseKind::BwdScatter, Device::Cpu, c.cpu_gather(scatter_b));
            }
            DesignPoint::BaselineNmp => {
                let gr = traffic::gather_reduce(&s);
                push(
                    PhaseKind::FwdGather,
                    Device::Nmp,
                    c.pool_gather(gr.read_bytes as f64 * t)
                        + c.pool_stream(gr.write_bytes as f64 * t),
                );
                push(PhaseKind::FwdGather, Device::Link, c.link(pooled_b));
                push(PhaseKind::FwdDnn, Device::Link, c.pcie(dense_b));
                push(PhaseKind::FwdDnn, Device::Gpu, c.gpu_gemm(mlp_f));
                push(PhaseKind::BwdDnn, Device::Gpu, c.gpu_gemm(2.0 * mlp_f));
                push(PhaseKind::BwdDnn, Device::Link, c.pcie(grad_b));
                push(PhaseKind::BwdExpand, Device::Cpu, c.cpu_stream(expand_b));
                push(
                    PhaseKind::BwdCoalesceSort,
                    Device::Cpu,
                    c.cpu_sort(sort_elems),
                );
                push(
                    PhaseKind::BwdCoalesceAccu,
                    Device::Cpu,
                    c.cpu_gather(accu_b),
                );
                // Coalesced gradients travel to the pool for the scatter.
                let coalesced_b =
                    (wl.unique_per_table * wl.tables()) as f64 * (wl.dim as f64 * 4.0 + 4.0);
                push(PhaseKind::BwdScatter, Device::Link, c.link(coalesced_b));
                // Gradients stream from the link; table rows RMW in-pool.
                let rmw_b = (2 * wl.unique_per_table * wl.tables() * wl.dim * 4) as f64;
                push(PhaseKind::BwdScatter, Device::Nmp, c.pool_rmw(rmw_b));
            }
            DesignPoint::OursCpu => {
                push(PhaseKind::FwdGather, Device::Cpu, c.cpu_gather(gather_b));
                push(PhaseKind::FwdDnn, Device::Link, c.pcie(pooled_b + dense_b));
                push(PhaseKind::FwdDnn, Device::Gpu, c.gpu_gemm(mlp_f));
                push(PhaseKind::BwdDnn, Device::Gpu, c.gpu_gemm(2.0 * mlp_f));
                push(PhaseKind::BwdDnn, Device::Link, c.pcie(grad_b));
                // Casting on the otherwise-idle GPU, overlapped with the
                // phases above.
                casting_total_ns = c.pcie(index_b)
                    + c.gpu_sort(sort_elems)
                    + c.gpu_stream(4.0 * index_b)
                    + c.pcie(casted_index_b);
                push(PhaseKind::Casting, Device::Gpu, casting_total_ns);
                push(
                    PhaseKind::BwdCastedGather,
                    Device::Cpu,
                    c.cpu_gather(casted_b),
                );
                push(PhaseKind::BwdScatter, Device::Cpu, c.cpu_gather(scatter_b));
            }
            DesignPoint::OursNmp => {
                let gr = traffic::gather_reduce(&s);
                push(
                    PhaseKind::FwdGather,
                    Device::Nmp,
                    c.pool_gather(gr.read_bytes as f64 * t)
                        + c.pool_stream(gr.write_bytes as f64 * t),
                );
                push(PhaseKind::FwdGather, Device::Link, c.link(pooled_b));
                push(PhaseKind::FwdDnn, Device::Link, c.pcie(dense_b));
                push(PhaseKind::FwdDnn, Device::Gpu, c.gpu_gemm(mlp_f));
                push(PhaseKind::BwdDnn, Device::Gpu, c.gpu_gemm(2.0 * mlp_f));
                casting_total_ns =
                    c.pcie(index_b) + c.gpu_sort(sort_elems) + c.gpu_stream(4.0 * index_b);
                push(PhaseKind::Casting, Device::Gpu, casting_total_ns);
                // Gradient table + casted arrays move to the pool, the
                // casted gather-reduce runs on the NMP cores.
                push(
                    PhaseKind::BwdCastedGather,
                    Device::Link,
                    c.link(grad_b + casted_index_b),
                );
                let cg = traffic::casted_gather_reduce(&s);
                push(
                    PhaseKind::BwdCastedGather,
                    Device::Nmp,
                    c.pool_stream(staging_b)
                        + c.pool_gather(cg.read_bytes as f64 * t)
                        + c.pool_stream(cg.write_bytes as f64 * t),
                );
                // Coalesced gradients already staged in pool DRAM.
                let scatter_pool_b = by(traffic::scatter(&s, 0));
                push(
                    PhaseKind::BwdScatter,
                    Device::Nmp,
                    c.pool_rmw(scatter_pool_b),
                );
            }
        }

        // Casting overlaps with everything from iteration start until the
        // DNN gradients are ready (FwdGather + FwdDnn + BwdDnn).
        if self.uses_casting() {
            casting_window_ns = phases
                .iter()
                .filter(|p| {
                    matches!(
                        p.kind,
                        PhaseKind::FwdGather | PhaseKind::FwdDnn | PhaseKind::BwdDnn
                    )
                })
                .map(|p| p.ns)
                .sum();
        }
        let casting_hidden_ns = casting_total_ns.min(casting_window_ns);
        let serial: f64 = phases.iter().map(|p| p.ns).sum();
        let total_ns = serial - casting_hidden_ns;
        let nmp_busy_ns = phases
            .iter()
            .filter(|p| p.device == Device::Nmp)
            .map(|p| p.ns)
            .sum();

        Evaluation {
            design: *self,
            phases,
            total_ns,
            casting_total_ns,
            casting_hidden_ns,
            nmp_busy_ns,
        }
    }
}

impl std::fmt::Display for DesignPoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The costed result of one iteration under one design point.
#[derive(Debug, Clone, PartialEq)]
pub struct Evaluation {
    /// Which design point produced this.
    pub design: DesignPoint,
    /// All phases with their devices and durations (casting at its full
    /// duration, even though it is overlapped).
    pub phases: Vec<PhaseCost>,
    /// End-to-end iteration time with the casting overlap applied, ns.
    pub total_ns: f64,
    /// Full duration of the casting stage, ns (0 when unused).
    pub casting_total_ns: f64,
    /// Portion of casting hidden under forward propagation, ns.
    pub casting_hidden_ns: f64,
    /// Time the NMP pool was actively executing, ns.
    pub nmp_busy_ns: f64,
}

impl Evaluation {
    /// Sum of a phase kind's durations across devices.
    pub fn phase_ns(&self, kind: PhaseKind) -> f64 {
        self.phases
            .iter()
            .filter(|p| p.kind == kind)
            .map(|p| p.ns)
            .sum()
    }

    /// Sum of all phase durations, ignoring overlap (the "accumulated
    /// latency" stacked in Fig. 12).
    pub fn serial_sum_ns(&self) -> f64 {
        self.phases.iter().map(|p| p.ns).sum()
    }

    /// Total busy time of one device.
    pub fn device_busy_ns(&self, device: Device) -> f64 {
        self.phases
            .iter()
            .filter(|p| p.device == device)
            .map(|p| p.ns)
            .sum()
    }

    /// Fraction of (serial) iteration time spent in embedding-layer
    /// backpropagation — the paper's "62-92%" characterization metric.
    pub fn embedding_backward_fraction(&self) -> f64 {
        let emb: f64 = self
            .phases
            .iter()
            .filter(|p| p.kind.is_embedding_backward())
            .map(|p| p.ns)
            .sum();
        emb / self.serial_sum_ns()
    }

    /// Fraction of iteration time spent in the MLPs.
    pub fn mlp_fraction(&self) -> f64 {
        (self.phase_ns(PhaseKind::FwdDnn) + self.phase_ns(PhaseKind::BwdDnn)) / self.serial_sum_ns()
    }

    /// NMP utilization: fraction of wall-clock time the pool is active
    /// (Fig. 15).
    pub fn nmp_utilization(&self) -> f64 {
        if self.total_ns == 0.0 {
            return 0.0;
        }
        (self.nmp_busy_ns / self.total_ns).min(1.0)
    }

    /// Latency of the backward bottleneck operator this design point
    /// uses: expand+sort+accu for baselines, exposed casting + casted
    /// gather-reduce for Tensor Casting (the Fig. 12 right-axis metric).
    pub fn backward_operator_ns(&self) -> f64 {
        if self.design.uses_casting() {
            (self.casting_total_ns - self.casting_hidden_ns)
                + self.phase_ns(PhaseKind::BwdCastedGather)
        } else {
            self.phase_ns(PhaseKind::BwdExpand)
                + self.phase_ns(PhaseKind::BwdCoalesceSort)
                + self.phase_ns(PhaseKind::BwdCoalesceAccu)
        }
    }
}

/// Unit-cost helpers (GB/s == bytes/ns; GFLOP/s == flops/ns x 1e-?).
struct Cost<'a> {
    cal: &'a Calibration,
}

impl Cost<'_> {
    fn cpu_stream(&self, bytes: f64) -> f64 {
        bytes / (self.cal.cpu_mem_gbps * self.cal.cpu_stream_eff)
    }

    fn cpu_gather(&self, bytes: f64) -> f64 {
        bytes / (self.cal.cpu_mem_gbps * self.cal.cpu_gather_eff)
    }

    fn cpu_gemm(&self, flops: f64) -> f64 {
        flops / self.cal.cpu_gflops
    }

    fn cpu_sort(&self, elems: f64) -> f64 {
        elems * 1e3 / self.cal.cpu_sort_melems
    }

    fn gpu_gemm(&self, flops: f64) -> f64 {
        flops / self.cal.gpu_gflops
    }

    fn gpu_sort(&self, elems: f64) -> f64 {
        elems * 1e3 / self.cal.gpu_sort_melems
    }

    fn gpu_stream(&self, bytes: f64) -> f64 {
        bytes / (self.cal.gpu_mem_gbps * self.cal.gpu_stream_eff)
    }

    fn pcie(&self, bytes: f64) -> f64 {
        bytes / self.cal.pcie_gbps
    }

    fn link(&self, bytes: f64) -> f64 {
        bytes / self.cal.pool_link_gbps
    }

    fn pool_gather(&self, bytes: f64) -> f64 {
        bytes / (self.cal.pool_peak_gbps() * self.cal.pool_gather_eff)
    }

    fn pool_rmw(&self, bytes: f64) -> f64 {
        bytes / (self.cal.pool_peak_gbps() * self.cal.pool_rmw_eff)
    }

    fn pool_stream(&self, bytes: f64) -> f64 {
        bytes / (self.cal.pool_peak_gbps() * self.cal.pool_stream_eff)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{PaperModel, RM1, RM2, RM3, RM4, TABLE_II};

    fn cal() -> Calibration {
        Calibration::default()
    }

    fn wl(model: PaperModel, batch: usize) -> SystemWorkload {
        SystemWorkload::build(model, batch, 64, 42)
    }

    #[test]
    fn embedding_backward_dominates_cpu_centric_rm1() {
        // Fig. 4: "backpropagation of embedding layers accounts for
        // approximately 62-92% of end-to-end training time."
        for model in [RM1, RM2] {
            let e = DesignPoint::BaselineCpuGpu.evaluate(&wl(model, 2048), &cal());
            let frac = e.embedding_backward_fraction();
            assert!(
                (0.62..=0.95).contains(&frac),
                "{}: embedding backward fraction {frac}",
                e.design
            );
        }
    }

    #[test]
    fn mlp_fraction_small_for_embedding_models_larger_for_mlp_models() {
        // Fig. 4: MLPs are <1% for RM1/2 and ~24% for RM3/4 on CPU-GPU.
        let rm1 = DesignPoint::BaselineCpuGpu.evaluate(&wl(RM1, 2048), &cal());
        assert!(rm1.mlp_fraction() < 0.08, "RM1 MLP {}", rm1.mlp_fraction());
        let rm4 = DesignPoint::BaselineCpuGpu.evaluate(&wl(RM4, 2048), &cal());
        assert!(
            (0.10..=0.50).contains(&rm4.mlp_fraction()),
            "RM4 MLP {}",
            rm4.mlp_fraction()
        );
        assert!(rm4.mlp_fraction() > 3.0 * rm1.mlp_fraction());
    }

    #[test]
    fn cpu_only_is_slower_especially_for_mlp_models() {
        for (model, min_gap) in [(RM1, 1.0), (RM4, 1.5)] {
            let w = wl(model, 2048);
            let cpu = DesignPoint::CpuOnly.evaluate(&w, &cal());
            let gpu = DesignPoint::BaselineCpuGpu.evaluate(&w, &cal());
            assert!(
                cpu.total_ns > min_gap * gpu.total_ns,
                "{}: {} vs {}",
                w.name,
                cpu.total_ns,
                gpu.total_ns
            );
        }
    }

    #[test]
    fn ours_cpu_speedup_in_paper_band() {
        // Section VI-B: 1.2-1.6x at default batches, up to 2.8x larger.
        for model in TABLE_II {
            for batch in [1024, 2048, 4096] {
                let w = wl(model, batch);
                let base = DesignPoint::BaselineCpuGpu.evaluate(&w, &cal());
                let ours = DesignPoint::OursCpu.evaluate(&w, &cal());
                let s = base.total_ns / ours.total_ns;
                assert!(
                    (1.05..=3.0).contains(&s),
                    "{} b{batch}: Ours(CPU) speedup {s:.2}",
                    w.name
                );
            }
        }
    }

    #[test]
    fn ours_nmp_speedup_in_paper_band() {
        // Section VI-B: 2.0-15x (avg 6.9x) vs Baseline(CPU).
        let mut speedups = Vec::new();
        for model in TABLE_II {
            for batch in [1024, 2048, 4096, 8192] {
                let w = wl(model, batch);
                let base = DesignPoint::BaselineCpuGpu.evaluate(&w, &cal());
                let ours = DesignPoint::OursNmp.evaluate(&w, &cal());
                let s = base.total_ns / ours.total_ns;
                assert!(
                    (1.8..=25.0).contains(&s),
                    "{} b{batch}: Ours(NMP) speedup {s:.2}",
                    w.name
                );
                speedups.push(s);
            }
        }
        let avg = speedups.iter().sum::<f64>() / speedups.len() as f64;
        assert!(
            (4.0..=14.0).contains(&avg),
            "average Ours(NMP) speedup {avg:.2} (paper: 6.9)"
        );
    }

    #[test]
    fn ours_cpu_beats_baseline_nmp_on_average() {
        // Section VI-B: "our software-only Tensor Casting performs even
        // better than the baseline TensorDIMM-based NMP accelerator,
        // achieving an average 15% speedup."
        let mut ratios = Vec::new();
        for model in TABLE_II {
            for batch in [1024, 2048, 4096, 8192] {
                let w = wl(model, batch);
                let nmp = DesignPoint::BaselineNmp.evaluate(&w, &cal());
                let ours = DesignPoint::OursCpu.evaluate(&w, &cal());
                ratios.push(nmp.total_ns / ours.total_ns);
            }
        }
        let avg = ratios.iter().sum::<f64>() / ratios.len() as f64;
        assert!(
            avg > 1.0,
            "Ours(CPU) must beat Baseline(NMP) on average, got {avg:.2}"
        );
    }

    #[test]
    fn design_point_ordering_is_monotone() {
        // Ours(NMP) <= Ours(CPU) <= Baseline(CPU) in time; Baseline(NMP)
        // beats Baseline(CPU).
        for model in TABLE_II {
            let w = wl(model, 2048);
            let base_cpu = DesignPoint::BaselineCpuGpu.evaluate(&w, &cal()).total_ns;
            let base_nmp = DesignPoint::BaselineNmp.evaluate(&w, &cal()).total_ns;
            let ours_cpu = DesignPoint::OursCpu.evaluate(&w, &cal()).total_ns;
            let ours_nmp = DesignPoint::OursNmp.evaluate(&w, &cal()).total_ns;
            assert!(ours_nmp < ours_cpu);
            assert!(ours_cpu < base_cpu);
            assert!(base_nmp < base_cpu);
        }
    }

    #[test]
    fn casting_fully_hidden_on_cpu_exposed_on_nmp() {
        // Section VI-A: "the performance advantage of NMP is so
        // pronounced that the casting stage can sometimes become a new
        // performance bottleneck under our memory-centric system."
        let w = wl(RM1, 2048);
        let ours_cpu = DesignPoint::OursCpu.evaluate(&w, &cal());
        assert!(
            ours_cpu.casting_hidden_ns >= ours_cpu.casting_total_ns * 0.999,
            "casting should hide fully under the slow CPU forward"
        );
        let ours_nmp = DesignPoint::OursNmp.evaluate(&w, &cal());
        assert!(
            ours_nmp.casting_hidden_ns < ours_nmp.casting_total_ns,
            "casting should be partially exposed under the fast NMP forward"
        );
    }

    #[test]
    fn nmp_utilization_matches_fig15_shape() {
        // Fig. 15: TensorDIMM ~7% average; T.Casting 92% (RM1/2) and 44%
        // (RM3/4) average.
        let w1 = wl(RM1, 2048);
        let baseline = DesignPoint::BaselineNmp.evaluate(&w1, &cal());
        assert!(
            baseline.nmp_utilization() < 0.20,
            "TensorDIMM utilization {}",
            baseline.nmp_utilization()
        );
        let ours1 = DesignPoint::OursNmp.evaluate(&w1, &cal());
        assert!(
            ours1.nmp_utilization() > 0.35,
            "Ours(NMP) RM1 utilization {}",
            ours1.nmp_utilization()
        );
        let w3 = wl(RM3, 2048);
        let ours3 = DesignPoint::OursNmp.evaluate(&w3, &cal());
        assert!(
            ours1.nmp_utilization() > ours3.nmp_utilization(),
            "embedding-intensive models must utilize NMP more: {} vs {}",
            ours1.nmp_utilization(),
            ours3.nmp_utilization()
        );
        assert!(baseline.nmp_utilization() < ours1.nmp_utilization());
    }

    #[test]
    fn backward_operator_speedup_band() {
        // Fig. 12 right axis: 1.1-9.5x for the expand-coalesce operator.
        for model in TABLE_II {
            for batch in [1024, 4096, 8192] {
                let w = wl(model, batch);
                let base = DesignPoint::BaselineCpuGpu.evaluate(&w, &cal());
                let ours = DesignPoint::OursCpu.evaluate(&w, &cal());
                let s = base.backward_operator_ns() / ours.backward_operator_ns();
                assert!(
                    (1.0..=12.0).contains(&s),
                    "{} b{batch}: operator speedup {s:.2}",
                    w.name
                );
            }
        }
    }

    #[test]
    fn speedup_grows_with_batch_size() {
        // Fig. 16's qualitative trend for the software-only system.
        let s = |batch| {
            let w = wl(RM1, batch);
            DesignPoint::BaselineCpuGpu.evaluate(&w, &cal()).total_ns
                / DesignPoint::OursCpu.evaluate(&w, &cal()).total_ns
        };
        assert!(s(16384) > s(1024));
    }

    #[test]
    fn phase_accessors_are_consistent() {
        let w = wl(RM1, 2048);
        let e = DesignPoint::BaselineCpuGpu.evaluate(&w, &cal());
        let by_kind: f64 = [
            PhaseKind::FwdGather,
            PhaseKind::FwdDnn,
            PhaseKind::BwdDnn,
            PhaseKind::BwdExpand,
            PhaseKind::BwdCoalesceSort,
            PhaseKind::BwdCoalesceAccu,
            PhaseKind::BwdScatter,
        ]
        .iter()
        .map(|&k| e.phase_ns(k))
        .sum();
        assert!((by_kind - e.serial_sum_ns()).abs() < 1e-6);
        // No casting on the baseline.
        assert_eq!(e.casting_total_ns, 0.0);
        assert_eq!(e.total_ns, e.serial_sum_ns());
    }
}
