//! Figure 11: ablation study — *Lobster_th* (thread management only),
//! *Lobster_evict* (reuse-distance eviction only), and full Lobster, as
//! training-time speedup over DALI, per model (single node × 8 GPUs,
//! ImageNet-1K).
//!
//! Paper shape: thread management contributes more than eviction (up to
//! 1.4×, 1.3× on average, vs ~1.15× for eviction alone); eviction helps
//! *small* models relatively more (their training stage hides less I/O);
//! full Lobster beats both halves.

use crate::{Opts, Out};
use lobster_bench::{paper_config, run_policy, BenchParams, DatasetKind};
use lobster_core::models::all_models;
use lobster_metrics::{fmt_speedup, Table};
use serde::Serialize;

const VARIANTS: [&str; 4] = ["dali", "lobster_th", "lobster_evict", "lobster"];

#[derive(Serialize)]
struct Fig11Result {
    params: BenchParams,
    /// model -> (variant -> speedup over DALI)
    rows: Vec<(String, Vec<(String, f64)>)>,
}

pub(crate) fn run(opts: &Opts, out: &Out) {
    let params = opts.params;
    println!(
        "Figure 11 — ablation vs DALI, 1 node x 8 GPUs, ImageNet-1K (1/{} scale)\n",
        params.scale
    );

    let mut rows = Vec::new();
    let mut t = Table::new(["model", "lobster_th", "lobster_evict", "lobster"]);
    for model in all_models() {
        let epoch_s: Vec<(String, f64)> = VARIANTS
            .iter()
            .map(|&name| {
                let cfg = paper_config(DatasetKind::ImageNet1k, 1, model.clone(), params);
                (
                    name.to_string(),
                    run_policy(cfg, name, &out.ins).mean_epoch_s(),
                )
            })
            .collect();
        let dali = epoch_s[0].1;
        let speedups: Vec<(String, f64)> =
            epoch_s.iter().map(|(n, s)| (n.clone(), dali / s)).collect();
        t.row([
            model.name.clone(),
            fmt_speedup(speedups[1].1),
            fmt_speedup(speedups[2].1),
            fmt_speedup(speedups[3].1),
        ]);
        rows.push((model.name.clone(), speedups));
    }
    print!("{}", t.render());

    println!();
    out.json(&Fig11Result { params, rows });
}
