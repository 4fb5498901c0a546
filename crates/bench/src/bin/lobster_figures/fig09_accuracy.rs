//! Figure 9: training-accuracy curves for ResNet-50 on ImageNet-1K with
//! PyTorch DataLoader vs Lobster (8 nodes × 64 GPUs in the paper). The
//! loaders share the sampling order (same data seed); only the weight-init
//! seed differs, so the curves must track each other and both converge to
//! 76.0% top-1 in around 40 epochs — Lobster changes *when* batches arrive,
//! never *which* batches.

use crate::{Opts, Out};
use lobster_metrics::Table;
use lobster_pipeline::{max_gap, simulate_accuracy};
use serde::Serialize;

#[derive(Serialize)]
struct Fig9Result {
    epochs: usize,
    pytorch: Vec<f64>,
    lobster: Vec<f64>,
    max_gap: f64,
    pytorch_converged_epoch: Option<usize>,
    lobster_converged_epoch: Option<usize>,
}

pub(crate) fn run(opts: &Opts, out: &Out) {
    let params = opts.params;
    let epochs = params.epochs as usize;
    let model = lobster_core::models::resnet50();
    println!(
        "Figure 9 — accuracy curves, ResNet-50 / ImageNet-1K, {} epochs\n",
        epochs
    );

    // Identical data seed (shared sampling), different weight seeds.
    let pytorch = simulate_accuracy("pytorch", &model, epochs, params.seed, 1001);
    let lobster = simulate_accuracy("lobster", &model, epochs, params.seed, 2002);

    let mut t = Table::new(["epoch", "pytorch top-1", "lobster top-1"]);
    for e in (4..=epochs).step_by(5) {
        t.row([
            e.to_string(),
            format!("{:.1}%", pytorch.per_epoch[e - 1] * 100.0),
            format!("{:.1}%", lobster.per_epoch[e - 1] * 100.0),
        ]);
    }
    print!("{}", t.render());

    let gap = max_gap(&pytorch, &lobster);
    let pt_conv = pytorch.epochs_to_reach(0.755);
    let lb_conv = lobster.epochs_to_reach(0.755);
    println!(
        "\nmax per-epoch gap between loaders: {:.2} points",
        gap * 100.0
    );
    println!(
        "epochs to 75.5%: pytorch {:?}, lobster {:?} (paper: ~40 for both)",
        pt_conv, lb_conv
    );

    out.json(&Fig9Result {
        epochs,
        pytorch: pytorch.per_epoch.clone(),
        lobster: lobster.per_epoch.clone(),
        max_gap: gap,
        pytorch_converged_epoch: pt_conv,
        lobster_converged_epoch: lb_conv,
    });
}
