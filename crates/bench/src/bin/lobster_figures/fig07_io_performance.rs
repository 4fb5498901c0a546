//! Figure 7: I/O performance of Lobster vs PyTorch DataLoader, DALI, NoPFS.
//!
//! (a) single node × 8 GPUs, ImageNet-1K;
//! (b) single node × 8 GPUs, ImageNet-22K;
//! (c) 8 nodes × 8 GPUs, ImageNet-22K;
//! (d) scalability: 1–8 nodes, ImageNet-22K, speedup vs PyTorch.
//!
//! Paper shape targets: Lobster ≈1.6×/1.8× PyTorch on (a)/(b), ≈1.7× DALI,
//! ≈1.2× NoPFS; on (c) 2.0×/1.4×/1.2×; consistent 1.2–2.0× across scales.

use crate::{Opts, Out};
use lobster_bench::{
    compare_policies, paper_config, BenchParams, DatasetKind, PolicyRow, BASELINE_NAMES,
};
use lobster_core::models::resnet50;
use lobster_metrics::{fmt_pct, fmt_secs, fmt_speedup, Table};
use serde::Serialize;

#[derive(Serialize)]
struct Fig7Result {
    params: BenchParams,
    single_node_1k: Vec<PolicyRow>,
    single_node_22k: Vec<PolicyRow>,
    multi_node_22k: Vec<PolicyRow>,
    scalability: Vec<(usize, Vec<PolicyRow>)>,
}

fn print_rows(title: &str, rows: &[PolicyRow]) {
    println!("-- {title} --");
    let mut t = Table::new(["loader", "epoch", "speedup", "hit", "util"]);
    for r in rows {
        t.row([
            r.policy.clone(),
            fmt_secs(r.mean_epoch_s),
            fmt_speedup(r.speedup_vs_pytorch),
            fmt_pct(r.hit_ratio),
            fmt_pct(r.gpu_utilization),
        ]);
    }
    print!("{}", t.render());
    println!();
}

pub(crate) fn run(opts: &Opts, out: &Out) {
    let params = opts.params;
    println!(
        "Figure 7 — I/O performance (scale 1/{}, {} epochs)\n",
        params.scale, params.epochs
    );

    let compare = |kind, nodes| {
        let cfg = || paper_config(kind, nodes, resnet50(), params);
        compare_policies(cfg, &BASELINE_NAMES, &out.ins)
    };
    let single_node_1k = compare(DatasetKind::ImageNet1k, 1);
    print_rows("(a) 1 node x 8 GPUs, ImageNet-1K", &single_node_1k);
    let single_node_22k = compare(DatasetKind::ImageNet22k, 1);
    print_rows("(b) 1 node x 8 GPUs, ImageNet-22K", &single_node_22k);
    let multi_node_22k = compare(DatasetKind::ImageNet22k, 8);
    print_rows("(c) 8 nodes x 8 GPUs, ImageNet-22K", &multi_node_22k);

    println!("-- (d) scalability, ImageNet-22K, speedup vs PyTorch --");
    let mut scalability = Vec::new();
    let mut t = Table::new(["nodes", "pytorch", "dali", "nopfs", "lobster"]);
    for nodes in [1usize, 2, 4, 8] {
        let rows = compare(DatasetKind::ImageNet22k, nodes);
        t.row([
            nodes.to_string(),
            fmt_speedup(rows[0].speedup_vs_pytorch),
            fmt_speedup(rows[1].speedup_vs_pytorch),
            fmt_speedup(rows[2].speedup_vs_pytorch),
            fmt_speedup(rows[3].speedup_vs_pytorch),
        ]);
        scalability.push((nodes, rows));
    }
    print!("{}", t.render());

    let result = Fig7Result {
        params,
        single_node_1k,
        single_node_22k,
        multi_node_22k,
        scalability,
    };
    println!();
    out.json(&result);

    // Plot-friendly CSV: one row per (config, loader).
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut push = |config: &str, nodes: usize, policy_rows: &[PolicyRow]| {
        for r in policy_rows {
            rows.push(vec![
                config.to_string(),
                nodes.to_string(),
                r.policy.clone(),
                format!("{:.6}", r.mean_epoch_s),
                format!("{:.4}", r.speedup_vs_pytorch),
                format!("{:.4}", r.hit_ratio),
                format!("{:.4}", r.gpu_utilization),
            ]);
        }
    };
    push("1k_single", 1, &result.single_node_1k);
    push("22k_single", 1, &result.single_node_22k);
    push("22k_multi", 8, &result.multi_node_22k);
    for (nodes, policy_rows) in &result.scalability {
        push("22k_scaling", *nodes, policy_rows);
    }
    let header = [
        "config",
        "nodes",
        "loader",
        "epoch_s",
        "speedup",
        "hit_ratio",
        "gpu_util",
    ];
    out.csv(&header, &rows);
}
