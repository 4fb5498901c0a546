//! Figure 3: execution-time breakdown of the training pipeline on three
//! GPUs — two co-located, one on another node — for 24 sampled iterations
//! of the second epoch (8 at the beginning, middle, and end), under the
//! DALI baseline. Reproduces the motivation observations: per-GPU idle time
//! caused by *other* GPUs' loading (Obs. 1) and the bottleneck shifting
//! between stages across iterations (Obs. 2).

use crate::{Opts, Out};
use lobster_bench::{paper_config, BenchParams, DatasetKind};
use lobster_core::models::resnet50;
use lobster_core::policy_by_name;
use lobster_metrics::Table;
use lobster_pipeline::{ClusterSim, TraceCollector};
use serde::Serialize;

#[derive(Serialize)]
struct Fig3Result {
    params: BenchParams,
    records: Vec<lobster_pipeline::IterationRecord>,
    imbalanced_fraction_epoch1: f64,
}

pub(crate) fn run(opts: &Opts, out: &Out) {
    let params = opts.params;
    println!(
        "Figure 3 — pipeline breakdown, DALI, 8 nodes x 8 GPUs, ImageNet-1K (1/{} scale)\n",
        params.scale
    );
    let cfg = paper_config(DatasetKind::ImageNet1k, 8, resnet50(), params);
    let iters = cfg.iterations_per_epoch() as u64;
    let sim = ClusterSim::new(cfg, policy_by_name("dali").unwrap())
        .with_trace(TraceCollector::figure3(iters))
        .with_instruments(out.ins.clone());
    let (report, trace) = sim.run();
    let trace = trace.expect("trace requested");

    // The paper's three GPUs: two on Node 1, one on Node 2.
    let mut records = Vec::new();
    for (node, gpu) in [(1usize, 0usize), (1, 1), (2, 0)] {
        println!("-- Node{node} GPU{gpu} --");
        let mut t = Table::new([
            "iter",
            "load(ms)",
            "preproc(ms)",
            "train(ms)",
            "wait-data",
            "wait-strag",
        ]);
        for r in trace.for_gpu(node, gpu) {
            t.row([
                r.iteration.to_string(),
                format!("{:.1}", r.load_s * 1e3),
                format!("{:.1}", r.preproc_s * 1e3),
                format!("{:.1}", r.train_s * 1e3),
                format!("{:.1}", r.wait_data_s * 1e3),
                format!("{:.1}", r.wait_stragglers_s * 1e3),
            ]);
            records.push(r);
        }
        print!("{}", t.render());
        println!();
    }

    let frac =
        report.epochs[1].imbalanced_iterations as f64 / report.epochs[1].iterations.max(1) as f64;
    println!(
        "iterations with load imbalance in epoch 2: {:.1}% (paper reports 65.3% for the baseline)",
        frac * 100.0
    );

    out.json(&Fig3Result {
        params,
        records,
        imbalanced_fraction_epoch1: frac,
    });
}
