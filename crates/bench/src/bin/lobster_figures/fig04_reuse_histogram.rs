//! Figure 4: histogram of training-sample reuse distances (in iterations)
//! on Node 1 of an 8×8-GPU ImageNet-1K run. Paper claim: "80% of the
//! training samples have the reuse distance larger than 1,000 iterations"
//! (distances are long — at least an epoch — which is what makes naive
//! prefetch-driven eviction wasteful).

use crate::{Opts, Out};
use lobster_bench::{BenchParams, DatasetKind};
use lobster_data::{EpochSchedule, NodeOracle, ScheduleSpec};
use lobster_metrics::{LogHistogram, Table};
use serde::Serialize;

#[derive(Serialize)]
struct Fig4Result {
    params: BenchParams,
    iterations_per_epoch: usize,
    buckets: Vec<(u64, u64)>,
    fraction_above_1000: f64,
    mean_distance: f64,
}

// The default window is 12 epochs: on-node reuse gaps are geometric with
// mean ≈ #nodes epochs, so a short window censors the long tail the figure
// is about.
pub(crate) fn run(opts: &Opts, out: &Out) {
    let params = opts.params;
    let dataset = DatasetKind::ImageNet1k.dataset(params.scale, params.seed);
    let spec = ScheduleSpec {
        nodes: 8,
        gpus_per_node: 8,
        batch_size: 32,
        dataset_len: dataset.len(),
        seed: params.seed,
    };
    println!(
        "Figure 4 — reuse-distance histogram, Node 1, 8x8 GPUs, ImageNet-1K (1/{} scale)\n",
        params.scale
    );

    // Distances measured over a window of epochs, exactly as the oracle
    // sees them during training.
    let epochs: Vec<EpochSchedule> = (0..params.epochs)
        .map(|e| EpochSchedule::generate(spec, e))
        .collect();
    let refs: Vec<&EpochSchedule> = epochs.iter().collect();
    let oracle = NodeOracle::build(1, &refs, 0);
    let mut hist = LogHistogram::new();
    hist.record_all(oracle.reuse_distances());

    let mut t = Table::new(["reuse distance ≤", "samples"]);
    for (bound, count) in hist.non_empty_buckets() {
        t.row([bound.to_string(), count.to_string()]);
    }
    print!("{}", t.render());

    let iters = spec.iterations_per_epoch();
    // At 1/scale the epoch is 1/scale as long; the paper's ">1000
    // iterations at full scale" threshold scales with it.
    let threshold = (1000 / params.scale as u64).max(1);
    let above = hist.fraction_above(threshold.next_power_of_two());
    println!("\niterations per epoch: {iters}");
    println!(
        "fraction of reuses with distance > {} (≈1000 at paper scale): {:.1}% (paper: ~80%)",
        threshold.next_power_of_two(),
        above * 100.0
    );

    out.json(&Fig4Result {
        params,
        iterations_per_epoch: iters,
        buckets: hist.non_empty_buckets(),
        fraction_above_1000: above,
        mean_distance: hist.mean().unwrap_or(0.0),
    });
}
