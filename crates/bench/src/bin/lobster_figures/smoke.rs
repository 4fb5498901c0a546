//! Quick end-to-end smoke run: one scaled single-node comparison per
//! dataset, printed and recorded. Used while calibrating; kept as a fast
//! sanity entry point (`lobster_figures smoke`).
//!
//! With `--trace-out <path>` the runs are instrumented: the Chrome trace
//! plus the `<path>.metrics.json` / `<path>.decisions.jsonl` sidecars are
//! written for `lobster_doctor`.

use crate::{Opts, Out};
use lobster_bench::{
    compare_policies, paper_config, BenchParams, DatasetKind, PolicyRow, BASELINE_NAMES,
};
use lobster_core::models::resnet50;
use lobster_metrics::{fmt_pct, fmt_secs, fmt_speedup, Table};
use serde::Serialize;

#[derive(Serialize)]
struct SmokeResult {
    params: BenchParams,
    /// dataset -> one row per loader
    rows: Vec<(String, Vec<PolicyRow>)>,
}

pub(crate) fn run(opts: &Opts, out: &Out) {
    let params = opts.params;
    let mut result = SmokeResult {
        params,
        rows: Vec::new(),
    };
    for kind in [DatasetKind::ImageNet1k, DatasetKind::ImageNet22k] {
        println!(
            "== single node, 8 GPUs, {} (1/{} scale) ==",
            kind.label(),
            params.scale
        );
        let cfg = || paper_config(kind, 1, resnet50(), params);
        let rows = compare_policies(cfg, &BASELINE_NAMES, &out.ins);
        let mut t = Table::new(["loader", "epoch", "speedup", "hit", "util", "imbalanced"]);
        for r in &rows {
            t.row([
                r.policy.clone(),
                fmt_secs(r.mean_epoch_s),
                fmt_speedup(r.speedup_vs_pytorch),
                fmt_pct(r.hit_ratio),
                fmt_pct(r.gpu_utilization),
                fmt_pct(r.imbalance_fraction),
            ]);
        }
        print!("{}", t.render());
        println!();
        result.rows.push((kind.label().to_string(), rows));
    }
    out.json(&result);
}
