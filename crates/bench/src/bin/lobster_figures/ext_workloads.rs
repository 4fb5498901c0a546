//! Extension experiment (ISSUE 9, DESIGN.md §15): the workload diversity
//! suite beyond ImageNet epochs, and the scenario where the paper's
//! mean-based preprocessing estimate measurably loses.
//!
//! Section 1 runs every §15 workload family — Zipf-skewed popularity,
//! heavy-tailed sizes, bimodal preprocessing cost, a growing dataset, and
//! heterogeneous compute drift — through the analytical executor under the
//! adaptive policy and tabulates steady-state epoch time and hit ratio.
//!
//! Section 2 is the headline: on the bimodal-cost workload the elastic
//! pool provisioned from the *mean* per-sample work hides the average
//! batch under training but stalls the barrier whenever a batch draws more
//! slow samples than average — and light batches cannot give the time back
//! (a Jensen gap, `max(t_train, pipe)` floors at `t_train`). Provisioning
//! from the p90 work quantile ([`WorkEstimate::Quantile`]) covers the tail
//! mix; the target is ≥ 10% steady-state epoch-time improvement.
//! `--workload` swaps the showdown's workload (default
//! `bimodal:samples=768`).
//!
//! ```sh
//! cargo run --release -p lobster-bench --bin lobster_figures -- ext_workloads
//! cargo run --release -p lobster-bench --bin lobster_figures -- ext_workloads --seed 7
//! cargo run --release -p lobster-bench --bin lobster_figures -- ext_workloads --workload bimodal:slow-frac=0.25,slow-cost=8
//! ```

use crate::{Opts, Out};
use lobster_core::{policy_by_name, ModelProfile, WorkEstimate};
use lobster_data::WorkloadSpec;
use lobster_metrics::{fmt_secs, Table};
use lobster_pipeline::{ClusterSim, ConfigBuilder, ElasticSimConfig, ExperimentConfig};
use serde::Serialize;

#[derive(Serialize)]
struct FamilyRow {
    family: String,
    label: String,
    mean_epoch_s: f64,
    hit_ratio: f64,
}

#[derive(Serialize)]
struct WorkloadsResult {
    seed: u64,
    families: Vec<FamilyRow>,
    showdown_workload: String,
    mean_estimate_epoch_s: f64,
    quantile_estimate_epoch_s: f64,
    quantile_permille: u32,
    improvement_pct: f64,
    target_met: bool,
}

/// Every family at default parameters through the adaptive policy: the
/// same seeded configuration the conformance harness proves byte-equal
/// across all three executors.
fn family_section(seed: u64) -> Vec<FamilyRow> {
    let mut rows = Vec::new();
    let mut t = Table::new(["family", "workload", "mean epoch", "hit ratio"]);
    for w in WorkloadSpec::all_families(384) {
        let cfg = lobster_conformance::workload_conformance_config(&w, seed);
        let (report, _) = ClusterSim::new(cfg, policy_by_name("lobster").unwrap()).run_observed();
        let row = FamilyRow {
            family: w.family.token().to_string(),
            label: w.label(),
            mean_epoch_s: report.mean_epoch_s(),
            hit_ratio: report.mean_hit_ratio(),
        };
        t.row([
            row.family.clone(),
            row.label.clone(),
            fmt_secs(row.mean_epoch_s),
            format!("{:.3}", row.hit_ratio),
        ]);
        rows.push(row);
    }
    print!("{}", t.render());
    rows
}

/// The mean-vs-quantile showdown configuration: two nodes, an elastic
/// pool per node, and a training time sized so the mean-provisioned
/// split hides the *average* bimodal batch but not the tail mixes.
fn showdown_cfg(w: &WorkloadSpec, seed: u64, estimate: WorkEstimate) -> ExperimentConfig {
    let dataset = w.dataset(seed);
    // Full node cache: loading is all local-tier after warm-up, isolating
    // the preprocessing side the two estimates provision differently.
    let cache_bytes = dataset.total_bytes();
    ConfigBuilder::new()
        .nodes(2)
        .gpus_per_node(2)
        .batch_size(8)
        .pipeline_threads(8)
        .cache_bytes(cache_bytes)
        .dataset(dataset)
        .epochs(4)
        .seed(seed)
        .access(w.access())
        .model(ModelProfile::new("bimodal-showdown", 4e-4, 0.7, 10.0))
        .elastic(ElasticSimConfig {
            workers: 8,
            initial_preproc: 1,
            work_factor: 1,
            work_factor_step: None,
            churn: false,
            frozen: false,
            estimate,
        })
        .build()
}

pub(crate) fn run(opts: &Opts, out: &Out) {
    let (seed, showdown) = (opts.params.seed, opts.workload);

    println!("Extension — workload diversity suite (DESIGN.md §15), seed {seed}\n");
    println!("-- every family, adaptive policy, analytical executor --");
    let families = family_section(seed);
    println!();

    // ---- Mean vs quantile work estimate on the showdown workload. ----
    println!(
        "-- elastic provisioning on {}: mean vs p90 work estimate --",
        showdown.label()
    );
    let run = |estimate: WorkEstimate| -> f64 {
        let cfg = showdown_cfg(&showdown, seed, estimate);
        let (report, _) = ClusterSim::new(cfg, policy_by_name("lobster").unwrap()).run_observed();
        // Steady state: skip the warm-up epoch the controller spends
        // converging from the initial split.
        let steady = &report.epochs[1..];
        steady.iter().map(|e| e.wall_s).sum::<f64>() / steady.len() as f64
    };
    let mean_s = run(WorkEstimate::Mean);
    let quant_s = run(WorkEstimate::Quantile(900));
    let improvement = (mean_s - quant_s) / mean_s * 100.0;
    let target_met = improvement >= 10.0;

    let mut t = Table::new(["estimate", "steady epoch", "vs mean"]);
    t.row(["mean (paper)".into(), fmt_secs(mean_s), "—".into()]);
    t.row([
        "p90 quantile".into(),
        fmt_secs(quant_s),
        format!("{improvement:+.1}%"),
    ]);
    print!("{}", t.render());
    println!(
        "steady-state improvement from quantile provisioning: {improvement:.1}% -> {}",
        if target_met {
            "ok (>= 10% target)"
        } else {
            "BELOW the 10% target"
        }
    );

    println!();
    out.json(&WorkloadsResult {
        seed,
        families,
        showdown_workload: showdown.label(),
        mean_estimate_epoch_s: mean_s,
        quantile_estimate_epoch_s: quant_s,
        quantile_permille: 900,
        improvement_pct: improvement,
        target_met,
    });
}
