//! Figure 8: load-imbalance reduction.
//!
//! (a) single node × 8 GPUs, ImageNet-22K: iterations with load imbalance
//!     per epoch, all four loaders;
//! (b) 8 nodes × 8 GPUs, same;
//! (c) batch-time distribution, ResNet-50 + ImageNet-1K, single node.
//!
//! Paper shape: Lobster has the fewest imbalanced iterations (17.5% single
//! node / 22.8% multi-node remain), reducing them vs PyTorch/DALI/NoPFS by
//! roughly 31/16/8 points (single node) and 35/26/10 (multi-node); its
//! batch times are shorter with less variance.

use crate::{Opts, Out};
use lobster_bench::{paper_config, run_policy, BenchParams, DatasetKind, BASELINE_NAMES};
use lobster_core::models::resnet50;
use lobster_metrics::{fmt_pct, Summary, Table};
use serde::Serialize;

#[derive(Serialize)]
struct ImbalanceRow {
    policy: String,
    imbalance_fraction: f64,
    /// Mean per-iteration straggler spread in ms — differentiates loaders
    /// even when the count saturates at cluster scale.
    mean_spread_ms: f64,
    per_epoch_imbalanced: Vec<u64>,
}

#[derive(Serialize)]
struct BatchTimeRow {
    policy: String,
    mean_ms: f64,
    p50_ms: f64,
    p95_ms: f64,
    p99_ms: f64,
    cov: f64,
}

#[derive(Serialize)]
struct Fig8Result {
    params: BenchParams,
    single_node: Vec<ImbalanceRow>,
    multi_node: Vec<ImbalanceRow>,
    batch_times_1k: Vec<BatchTimeRow>,
}

fn imbalance_sweep(nodes: usize, params: BenchParams, out: &Out) -> Vec<ImbalanceRow> {
    let mut rows = Vec::new();
    let mut t = Table::new([
        "loader",
        "imbalanced iterations",
        "mean spread",
        "per-epoch counts",
    ]);
    for name in BASELINE_NAMES {
        let cfg = paper_config(DatasetKind::ImageNet22k, nodes, resnet50(), params);
        let report = run_policy(cfg, name, &out.ins);
        let steady = report.steady_epochs();
        let per_epoch: Vec<u64> = steady.iter().map(|e| e.imbalanced_iterations).collect();
        let spread_ms =
            steady.iter().map(|e| e.mean_spread_s).sum::<f64>() / steady.len() as f64 * 1e3;
        t.row([
            name.to_string(),
            fmt_pct(report.imbalance_fraction()),
            format!("{spread_ms:.1}ms"),
            format!("{per_epoch:?}"),
        ]);
        rows.push(ImbalanceRow {
            policy: name.to_string(),
            imbalance_fraction: report.imbalance_fraction(),
            mean_spread_ms: spread_ms,
            per_epoch_imbalanced: per_epoch,
        });
    }
    print!("{}", t.render());
    println!();
    rows
}

pub(crate) fn run(opts: &Opts, out: &Out) {
    let params = opts.params;
    println!(
        "Figure 8 — load imbalance (scale 1/{}, {} epochs)\n",
        params.scale, params.epochs
    );

    println!("-- (a) 1 node x 8 GPUs, ImageNet-22K --");
    let single_node = imbalance_sweep(1, params, out);

    println!("-- (b) 8 nodes x 8 GPUs, ImageNet-22K --");
    let multi_node = imbalance_sweep(8, params, out);

    println!("-- (c) batch-time distribution, 1 node x 8 GPUs, ImageNet-1K --");
    let mut batch_rows = Vec::new();
    let mut t = Table::new(["loader", "mean", "p50", "p95", "p99", "cov"]);
    for name in BASELINE_NAMES {
        let cfg = paper_config(DatasetKind::ImageNet1k, 1, resnet50(), params);
        let report = run_policy(cfg, name, &out.ins);
        // Pool steady-state batch times.
        let mut all = Summary::new();
        for e in report.steady_epochs() {
            all.record_all(e.batch_times.values().iter().copied());
        }
        let row = BatchTimeRow {
            policy: name.to_string(),
            mean_ms: all.mean() * 1e3,
            p50_ms: all.percentile(50.0) * 1e3,
            p95_ms: all.percentile(95.0) * 1e3,
            p99_ms: all.percentile(99.0) * 1e3,
            cov: all.cov(),
        };
        t.row([
            name.to_string(),
            format!("{:.1}ms", row.mean_ms),
            format!("{:.1}ms", row.p50_ms),
            format!("{:.1}ms", row.p95_ms),
            format!("{:.1}ms", row.p99_ms),
            format!("{:.2}", row.cov),
        ]);
        batch_rows.push(row);
    }
    print!("{}", t.render());

    println!();
    out.json(&Fig8Result {
        params,
        single_node,
        multi_node,
        batch_times_1k: batch_rows,
    });
}
