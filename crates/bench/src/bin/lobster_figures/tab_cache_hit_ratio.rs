//! §5.5 memory-cache hit-ratio table: ResNet-50 + ImageNet-1K on one node
//! with eight GPUs, whole-training hit ratio per loader. Paper values:
//! PyTorch 24.5%, DALI 32.6%, NoPFS 48.9%, Lobster 63.2% — the ordering and
//! the sizeable Lobster-over-NoPFS gap (+14.3 points, the abstract's
//! headline cache number) are the reproduction targets.

use crate::{Opts, Out};
use lobster_bench::{paper_config, run_policy, BenchParams, DatasetKind, BASELINE_NAMES};
use lobster_core::models::resnet50;
use lobster_metrics::{fmt_pct, Table};
use serde::Serialize;

#[derive(Serialize)]
struct HitRow {
    policy: String,
    hit_ratio: f64,
    remote_hit_ratio: f64,
    prefetched: u64,
    paper_hit_ratio: f64,
}

#[derive(Serialize)]
struct TabResult {
    params: BenchParams,
    rows: Vec<HitRow>,
    lobster_minus_nopfs_points: f64,
}

pub(crate) fn run(opts: &Opts, out: &Out) {
    let params = opts.params;
    println!(
        "§5.5 table — cache hit ratio, ResNet-50 / ImageNet-1K, 1 node x 8 GPUs (1/{} scale)\n",
        params.scale
    );

    let paper = [0.245, 0.326, 0.489, 0.632];
    let mut rows = Vec::new();
    let mut t = Table::new(["loader", "hit ratio", "remote hits", "prefetched", "paper"]);
    for (name, paper_hit_ratio) in BASELINE_NAMES.into_iter().zip(paper) {
        let cfg = paper_config(DatasetKind::ImageNet1k, 1, resnet50(), params);
        let report = run_policy(cfg, name, &out.ins);
        let steady = report.steady_epochs();
        let remote: u64 = steady.iter().map(|e| e.remote_hits).sum();
        let total: u64 = steady
            .iter()
            .map(|e| e.local_hits + e.remote_hits + e.misses)
            .sum();
        let prefetched: u64 = steady.iter().map(|e| e.prefetched).sum();
        let row = HitRow {
            policy: name.to_string(),
            hit_ratio: report.mean_hit_ratio(),
            remote_hit_ratio: remote as f64 / total.max(1) as f64,
            prefetched,
            paper_hit_ratio,
        };
        t.row([
            name.to_string(),
            fmt_pct(row.hit_ratio),
            fmt_pct(row.remote_hit_ratio),
            row.prefetched.to_string(),
            fmt_pct(row.paper_hit_ratio),
        ]);
        rows.push(row);
    }
    print!("{}", t.render());

    let gap = rows[3].hit_ratio - rows[2].hit_ratio;
    println!(
        "\nLobster − NoPFS: {:+.1} points (paper: +14.3 — the abstract's headline)",
        gap * 100.0
    );

    out.json(&TabResult {
        params,
        rows,
        lobster_minus_nopfs_points: gap,
    });
}
