//! Quick end-to-end smoke run: one scaled single-node comparison, printed.
//! Used while calibrating; kept as a fast sanity entry point
//! (`cargo run --release -p lobster-bench --bin smoke`).
//!
//! With `--trace-out <path>` the runs are instrumented: the Chrome trace
//! plus the `<path>.metrics.json` / `<path>.decisions.jsonl` sidecars are
//! written for `lobster_doctor`.

use lobster_bench::{
    compare_policies_with, observability_from_args, paper_config, params_from_args,
    write_observability, BenchParams, DatasetKind, BASELINE_NAMES,
};
use lobster_core::models::resnet50;
use lobster_metrics::{fmt_pct, fmt_secs, fmt_speedup, Table};

fn main() {
    let params = params_from_args(BenchParams {
        scale: 64,
        epochs: 3,
        seed: 42,
    });
    let (ins, trace_out) = observability_from_args();
    for kind in [DatasetKind::ImageNet1k, DatasetKind::ImageNet22k] {
        println!(
            "== single node, 8 GPUs, {} (1/{} scale) ==",
            kind.label(),
            params.scale
        );
        let rows = compare_policies_with(
            || paper_config(kind, 1, resnet50(), params),
            &BASELINE_NAMES,
            &ins,
        );
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
    }
    write_observability(&ins, trace_out.as_deref());
}
