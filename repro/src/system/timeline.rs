//! Execution-timeline construction and ASCII rendering (Fig. 9).

use crate::calibration::Calibration;
use crate::design::DesignPoint;
use crate::phase::{Device, PhaseKind};
use crate::workload::SystemWorkload;

/// One scheduled interval on one device.
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineEvent {
    /// Executing device.
    pub device: Device,
    /// Phase this interval belongs to.
    pub kind: PhaseKind,
    /// Start, ns from iteration begin.
    pub start_ns: f64,
    /// End, ns.
    pub end_ns: f64,
}

impl TimelineEvent {
    /// Interval length, ns.
    pub fn duration_ns(&self) -> f64 {
        self.end_ns - self.start_ns
    }
}

/// Builds the Fig. 9-style schedule of one iteration: critical-path
/// phases run back-to-back in evaluation order; the casting stage starts
/// at time zero on the GPU, in parallel, and backward waits for it if it
/// outlives the forward window.
pub fn build_timeline(
    design: DesignPoint,
    wl: &SystemWorkload,
    cal: &Calibration,
) -> Vec<TimelineEvent> {
    let eval = design.evaluate(wl, cal);
    let mut events = Vec::new();
    let mut clock = 0.0f64;
    let mut casting_end = 0.0f64;
    for p in &eval.phases {
        if p.kind == PhaseKind::Casting {
            // Overlapped: begins when the index arrays are available
            // (iteration start).
            events.push(TimelineEvent {
                device: p.device,
                kind: p.kind,
                start_ns: 0.0,
                end_ns: p.ns,
            });
            casting_end = p.ns;
            continue;
        }
        // Backward embedding phases must wait for casting to finish.
        let mut start = clock;
        if design.uses_casting() && p.kind.is_embedding_backward() {
            start = start.max(casting_end);
        }
        events.push(TimelineEvent {
            device: p.device,
            kind: p.kind,
            start_ns: start,
            end_ns: start + p.ns,
        });
        clock = start + p.ns;
    }
    events
}

/// Renders a proportional ASCII Gantt chart of a timeline, one lane per
/// device (the textual Fig. 9).
pub fn render_timeline(events: &[TimelineEvent], width: usize) -> String {
    let total = events.iter().map(|e| e.end_ns).fold(0.0, f64::max);
    if total == 0.0 || events.is_empty() {
        return String::from("(empty timeline)\n");
    }
    let lanes = [Device::Cpu, Device::Gpu, Device::Nmp, Device::Link];
    let mut out = String::new();
    for lane in lanes {
        let lane_events: Vec<&TimelineEvent> = events.iter().filter(|e| e.device == lane).collect();
        if lane_events.is_empty() {
            continue;
        }
        let mut row = vec![b'.'; width];
        for e in &lane_events {
            let s = ((e.start_ns / total) * width as f64) as usize;
            let t = (((e.end_ns / total) * width as f64).ceil() as usize).min(width);
            let ch = phase_char(e.kind);
            for slot in row.iter_mut().take(t).skip(s.min(width)) {
                *slot = ch;
            }
        }
        out.push_str(&format!(
            "{:>4} |{}|\n",
            lane.name(),
            String::from_utf8(row).expect("ascii")
        ));
    }
    out.push_str(&format!("      total = {:.3} ms\n", total / 1e6));
    out.push_str("      legend: G=gather D=dnn-fwd d=dnn-bwd E=expand S=sort A=accumulate W=scatter C=casting T=casted-gather\n");
    out
}

fn phase_char(kind: PhaseKind) -> u8 {
    match kind {
        PhaseKind::FwdGather => b'G',
        PhaseKind::FwdDnn => b'D',
        PhaseKind::BwdDnn => b'd',
        PhaseKind::BwdExpand => b'E',
        PhaseKind::BwdCoalesceSort => b'S',
        PhaseKind::BwdCoalesceAccu => b'A',
        PhaseKind::BwdScatter => b'W',
        PhaseKind::Casting => b'C',
        PhaseKind::BwdCastedGather => b'T',
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::RM1;

    fn wl() -> SystemWorkload {
        SystemWorkload::build(RM1, 2048, 64, 42)
    }

    #[test]
    fn baseline_timeline_is_fully_serial() {
        let events = build_timeline(DesignPoint::BaselineCpuGpu, &wl(), &Calibration::default());
        // Each event starts where the previous ended.
        for w in events.windows(2) {
            assert!((w[1].start_ns - w[0].end_ns).abs() < 1e-6);
        }
    }

    #[test]
    fn casting_starts_at_zero_and_overlaps_forward() {
        let events = build_timeline(DesignPoint::OursCpu, &wl(), &Calibration::default());
        let casting = events
            .iter()
            .find(|e| e.kind == PhaseKind::Casting)
            .expect("casting event");
        assert_eq!(casting.start_ns, 0.0);
        let gather = events
            .iter()
            .find(|e| e.kind == PhaseKind::FwdGather)
            .expect("gather event");
        // Concurrent with forward gather.
        assert!(casting.end_ns > gather.start_ns);
        assert!(gather.start_ns < casting.end_ns);
    }

    #[test]
    fn backward_waits_for_casting() {
        let cal = Calibration::default();
        let events = build_timeline(DesignPoint::OursNmp, &wl(), &cal);
        let casting_end = events
            .iter()
            .find(|e| e.kind == PhaseKind::Casting)
            .unwrap()
            .end_ns;
        let casted = events
            .iter()
            .find(|e| e.kind == PhaseKind::BwdCastedGather)
            .unwrap();
        assert!(casted.start_ns >= casting_end - 1e-6);
    }

    #[test]
    fn timeline_makespan_matches_evaluation_total() {
        let cal = Calibration::default();
        for dp in DesignPoint::ALL {
            let events = build_timeline(dp, &wl(), &cal);
            let makespan = events.iter().map(|e| e.end_ns).fold(0.0, f64::max);
            let eval = dp.evaluate(&wl(), &cal);
            assert!(
                (makespan - eval.total_ns).abs() / eval.total_ns < 1e-6,
                "{dp}: makespan {makespan} vs total {}",
                eval.total_ns
            );
        }
    }

    #[test]
    fn render_produces_lanes_and_legend() {
        let cal = Calibration::default();
        let events = build_timeline(DesignPoint::OursNmp, &wl(), &cal);
        let text = render_timeline(&events, 60);
        assert!(text.contains("GPU"));
        assert!(text.contains("NMP"));
        assert!(text.contains("legend"));
        assert!(text.contains("total ="));
    }

    #[test]
    fn render_empty_is_graceful() {
        assert_eq!(render_timeline(&[], 40), "(empty timeline)\n");
    }
}
