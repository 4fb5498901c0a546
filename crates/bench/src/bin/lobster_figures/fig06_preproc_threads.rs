//! Figure 6: data-preprocessing throughput as a function of thread count.
//! Paper shape: "the preprocessing throughput peaks at 6 threads, after
//! which it flattens and even slightly becomes worse" (Observation 3).
//!
//! Printed twice: the ground-truth model the simulator executes, and the
//! governor's learned piece-wise-linear prediction — demonstrating that the
//! §4.1 regression recovers the knee from noisy measurements.

use crate::{Opts, Out};
use lobster_core::{PreprocGovernor, PreprocModel};
use lobster_metrics::Table;
use lobster_sim::Xoshiro256StarStar;
use serde::Serialize;

#[derive(Serialize)]
struct Fig6Result {
    threads: Vec<u32>,
    truth_samples_per_sec: Vec<f64>,
    predicted_samples_per_sec: Vec<f64>,
    governor_optimal_threads: u32,
}

pub(crate) fn run(_: &Opts, out: &Out) {
    println!("Figure 6 — preprocessing throughput vs threads (105 KB samples)\n");
    let truth = PreprocModel::default_imagenet();
    let sample_bytes = 105_000u64;

    // The governor calibrates from noisy measurements (±3%), as the real
    // offline profiler would.
    let mut rng = Xoshiro256StarStar::seed_from_u64(7);
    let governor = PreprocGovernor::calibrate(&[sample_bytes], 16, 1e-9, |b, t| {
        truth.per_sample_secs(b, t) * (1.0 + 0.03 * (rng.next_f64() - 0.5))
    });

    let mut t = Table::new(["threads", "truth (samples/s)", "governor predicts"]);
    let mut threads = Vec::new();
    let mut truth_v = Vec::new();
    let mut pred_v = Vec::new();
    for k in 1..=16u32 {
        let tru = truth.throughput(k) / sample_bytes as f64;
        let pred = 1.0 / governor.predict_per_sample_secs(sample_bytes, k);
        t.row([k.to_string(), format!("{tru:.0}"), format!("{pred:.0}")]);
        threads.push(k);
        truth_v.push(tru);
        pred_v.push(pred);
    }
    print!("{}", t.render());

    let opt = governor.optimal_threads(sample_bytes);
    println!("\ngovernor's minimum-threads-at-peak: {opt} (paper: peak at 6 threads)");

    out.json(&Fig6Result {
        threads,
        truth_samples_per_sec: truth_v,
        predicted_samples_per_sec: pred_v,
        governor_optimal_threads: opt,
    });
}
