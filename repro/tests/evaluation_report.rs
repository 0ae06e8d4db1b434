//! The capstone integration test: build the programmatic evaluation
//! report over the full grid and require every headline of the paper's
//! Section VI evaluation to land in its reproduction band.

use tcast_system::report::EvaluationReport;
use tcast_system::Calibration;

#[test]
fn all_headlines_reproduce_with_default_calibration() {
    let report = EvaluationReport::build(&Calibration::default());
    assert!(
        report.all_in_band(),
        "headline(s) out of band:\n{}",
        report.to_markdown()
    );
    // Print the summary into the test log for the record.
    println!("{}", report.to_markdown());
}

#[test]
fn headlines_survive_dram_simulator_recalibration() {
    // Swapping the documented pool efficiencies for freshly measured ones
    // must not push any headline out of band — i.e. the reproduction does
    // not hinge on hand-picked constants.
    let cal = Calibration::default().from_dram_sim(4096);
    let report = EvaluationReport::build(&cal);
    assert!(
        report.all_in_band(),
        "recalibrated headline(s) out of band:\n{}",
        report.to_markdown()
    );
}

#[test]
fn headlines_are_robust_to_moderate_calibration_error() {
    // +/-20% on the most influential knobs: the qualitative story must
    // not depend on any single constant being exactly right.
    for (cpu_gather, pool_gather) in [(0.45, 0.75), (0.65, 0.95)] {
        let cal = Calibration {
            cpu_gather_eff: cpu_gather,
            pool_gather_eff: pool_gather,
            ..Calibration::default()
        };
        let report = EvaluationReport::build(&cal);
        assert!(
            report.all_in_band(),
            "cpu_gather_eff={cpu_gather}, pool_gather_eff={pool_gather}:\n{}",
            report.to_markdown()
        );
    }
}
