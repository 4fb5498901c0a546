//! Figure 10: GPU utilization across the six DNN models (single node × 8
//! GPUs, ImageNet-1K, four loaders). Paper shape for ResNet-50:
//! 52.3% (PyTorch), 57.5% (DALI), 72.4% (NoPFS), 76.1% (Lobster); smaller
//! models show lower utilization for every loader (training hides less of
//! the I/O).

use crate::{Opts, Out};
use lobster_bench::{paper_config, run_policy, BenchParams, DatasetKind, BASELINE_NAMES};
use lobster_core::models::all_models;
use lobster_metrics::{fmt_pct, Table};
use serde::Serialize;

#[derive(Serialize)]
struct Fig10Result {
    params: BenchParams,
    /// model -> (policy -> utilization)
    rows: Vec<(String, Vec<(String, f64)>)>,
}

pub(crate) fn run(opts: &Opts, out: &Out) {
    let params = opts.params;
    println!(
        "Figure 10 — GPU utilization, 1 node x 8 GPUs, ImageNet-1K (1/{} scale)\n",
        params.scale
    );

    let mut rows = Vec::new();
    let mut t = Table::new(["model", "pytorch", "dali", "nopfs", "lobster"]);
    for model in all_models() {
        let per_policy: Vec<(String, f64)> = BASELINE_NAMES
            .map(|name| {
                let cfg = paper_config(DatasetKind::ImageNet1k, 1, model.clone(), params);
                let report = run_policy(cfg, name, &out.ins);
                (name.to_string(), report.mean_gpu_utilization())
            })
            .into();
        t.row([
            model.name.clone(),
            fmt_pct(per_policy[0].1),
            fmt_pct(per_policy[1].1),
            fmt_pct(per_policy[2].1),
            fmt_pct(per_policy[3].1),
        ]);
        rows.push((model.name.clone(), per_policy));
    }
    print!("{}", t.render());

    println!();
    out.json(&Fig10Result { params, rows });
}
