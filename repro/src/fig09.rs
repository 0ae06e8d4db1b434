//! Fig. 9: execution timelines of (a) the CPU-centric baseline and (b)
//! the Tensor-Casting CPU-centric and memory-centric systems, showing the
//! casting stage hidden under forward propagation.

use tcast_bench::banner;
use tcast_repro::system::{
    build_timeline, render_timeline, Calibration, DesignPoint, SystemWorkload, RM2,
};

pub fn run() {
    banner("Fig. 9", "Execution timelines (RM2, batch 2048)");
    let cal = Calibration::default();
    let wl = SystemWorkload::build(RM2, 2048, 64, 42);
    for dp in [
        DesignPoint::BaselineCpuGpu,
        DesignPoint::OursCpu,
        DesignPoint::OursNmp,
    ] {
        println!("--- {} ---", dp.name());
        let events = build_timeline(dp, &wl, &cal);
        println!("{}", render_timeline(&events, 96));
        let e = dp.evaluate(&wl, &cal);
        if dp.uses_casting() {
            println!(
                "casting: {:.3} ms total, {:.3} ms hidden under forward propagation\n",
                e.casting_total_ns / 1e6,
                e.casting_hidden_ns / 1e6
            );
        } else {
            println!();
        }
    }
}
