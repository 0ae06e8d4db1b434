//! Fig. 15: NMP utilization — fraction of training time the NMP pool is
//! actively executing, TensorDIMM (Baseline(NMP)) vs Tensor Casting
//! (Ours(NMP)).

use tcast_bench::banner;
use tcast_system::sweeps::{grid_label, workload_grid, DEFAULT_BATCHES};
use tcast_system::{render_table, Calibration, DesignPoint};

pub fn run() {
    banner(
        "Fig. 15",
        "NMP utilization (% of training time NMP is active)",
    );
    let cal = Calibration::default();
    let mut rows = Vec::new();
    let mut td_sum = (0.0, 0usize);
    let mut tc_emb = (0.0, 0usize);
    let mut tc_mlp = (0.0, 0usize);
    for wl in workload_grid(&DEFAULT_BATCHES, 64) {
        let td = DesignPoint::BaselineNmp
            .evaluate(&wl, &cal)
            .nmp_utilization();
        let tc = DesignPoint::OursNmp.evaluate(&wl, &cal).nmp_utilization();
        rows.push(vec![
            grid_label(&wl),
            format!("{:.1}%", 100.0 * td),
            format!("{:.1}%", 100.0 * tc),
        ]);
        td_sum = (td_sum.0 + td, td_sum.1 + 1);
        if wl.model.embedding_intensive {
            tc_emb = (tc_emb.0 + tc, tc_emb.1 + 1);
        } else {
            tc_mlp = (tc_mlp.0 + tc, tc_mlp.1 + 1);
        }
    }
    println!(
        "{}",
        render_table(&["config", "TensorDIMM", "T.Casting"], &rows)
    );
    println!(
        "averages: TensorDIMM {:.1}% | T.Casting {:.1}% (RM1/2) / {:.1}% (RM3/4)",
        100.0 * td_sum.0 / td_sum.1 as f64,
        100.0 * tc_emb.0 / tc_emb.1 as f64,
        100.0 * tc_mlp.0 / tc_mlp.1 as f64,
    );
    println!("paper check: TensorDIMM ~7% average; T.Casting 92% (embedding-intensive) / 44% (MLP-intensive).");
}
