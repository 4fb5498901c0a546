//! Extension experiment (ISSUE 5, DESIGN.md §11): the elastic
//! preproc↔loader pool against a static split in the *live* engine, under
//! the Fig. 6 workload shift — preprocessing becomes 32× heavier mid-run.
//!
//! The static engine keeps the thread split it started with (tuned for
//! the light phase); the elastic engine re-rolls loader workers into
//! preprocessing roles at tick boundaries as the §4.1 regression reacts
//! to the step. The headline is steady-state mean iteration time after
//! the step: the ISSUE target is elastic ≥ 15% better (printed, not
//! asserted — this is an experiment, not a unit test).
//!
//! A second section arms the `never-steal` mutation canary (a controller
//! that refuses to flip roles) inside the conformance DES and shows the
//! differential harness catching it at the work-factor step.
//!
//! ```sh
//! cargo run --release -p lobster-bench --bin lobster_figures -- ext_elastic
//! cargo run --release -p lobster-bench --bin lobster_figures -- ext_elastic --seed 7 --samples 256
//! ```

use crate::{Opts, Out};
use lobster_conformance::{elastic_conformance_config, run_canary, CanaryOutcome, Mutation};
use lobster_data::{Dataset, SizeDistribution};
use lobster_metrics::{fmt_secs, Instruments, Table};
use lobster_runtime::{expected_integrity, run_with, EngineConfig, SyntheticStore};
use serde::Serialize;
use std::sync::Arc;
use std::time::Duration;

#[derive(Serialize)]
struct ElasticResult {
    seed: u64,
    samples: usize,
    step_iter: u64,
    work_factor_after: u32,
    static_pre_step_s: f64,
    static_post_step_s: f64,
    elastic_pre_step_s: f64,
    elastic_post_step_s: f64,
    improvement_pct: f64,
    target_met: bool,
    elastic_max_preproc: u32,
    canary_detected: bool,
}

pub(crate) fn run(opts: &Opts, out: &Out) {
    let (seed, samples) = (opts.params.seed, opts.samples);

    // 4 consumers × batch 8 = 32 samples/iteration; 2 epochs. The work
    // factor steps 1 → 32 a quarter of the way through the run.
    let iters_per_epoch = (samples / 32) as u64;
    let total_iters = iters_per_epoch * 2;
    let step_iter = total_iters / 4;
    let wf_after = 32u32;

    let sizes = SizeDistribution::Uniform {
        lo: 8_000,
        hi: 24_000,
    };
    let dataset = Dataset::generate("ext-elastic", samples, sizes, seed);
    let base = EngineConfig {
        consumers: 4,
        batch_size: 8,
        loader_threads: 6,
        preproc_threads: 2,
        epochs: 2,
        seed,
        work_factor: 1,
        work_factor_step: Some((step_iter, wf_after)),
        train: Duration::from_micros(300),
        elastic: false,
        ..EngineConfig::default()
    };

    println!(
        "Extension — elastic worker pool vs static split, live engine\n\
         {samples} samples, {total_iters} iterations, work factor 1 -> {wf_after} at iteration {step_iter}\n"
    );

    // Steady-state windows: skip the warm-up before the step and the
    // controller's reaction window right after it (an empty window is NaN).
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
    let pre = |secs: &[f64]| mean(&secs[(step_iter / 2) as usize..step_iter as usize]);
    let post_from = (step_iter + 6).min(total_iters - 1) as usize;
    let post = |secs: &[f64]| mean(&secs[post_from..]);

    let run_engine = |elastic: bool| {
        let cfg = EngineConfig {
            elastic,
            ..base.clone()
        };
        let expected = expected_integrity(&dataset, &cfg);
        let latency = Duration::from_micros(20);
        let store = Arc::new(SyntheticStore::new(dataset.clone(), latency, 0.0));
        let report = run_with(store, cfg, Instruments::enabled());
        if report.aborted || report.integrity != expected {
            let pool = if elastic { "elastic" } else { "static" };
            eprintln!("ext_elastic: {pool} run lost integrity");
            std::process::exit(1);
        }
        report
    };

    let static_report = run_engine(false);
    let elastic_report = run_engine(true);

    let static_pre = pre(&static_report.iteration_secs);
    let static_post = post(&static_report.iteration_secs);
    let elastic_pre = pre(&elastic_report.iteration_secs);
    let elastic_post = post(&elastic_report.iteration_secs);
    let improvement = (static_post - elastic_post) / static_post * 100.0;
    let max_preproc = elastic_report
        .role_flips
        .iter()
        .map(|d| d.preproc_after)
        .max()
        .unwrap_or(0);

    let mut t = Table::new(["pool", "pre-step iter", "post-step iter", "max preproc"]);
    t.row([
        "static 6L+2P".into(),
        fmt_secs(static_pre),
        fmt_secs(static_post),
        "2".into(),
    ]);
    t.row([
        "elastic 8".into(),
        fmt_secs(elastic_pre),
        fmt_secs(elastic_post),
        max_preproc.to_string(),
    ]);
    print!("{}", t.render());
    let target_met = improvement >= 15.0;
    println!(
        "steady-state improvement after the step: {improvement:.1}% -> {}",
        if target_met {
            "ok (>= 15% target)"
        } else {
            "BELOW the 15% target"
        }
    );
    println!();

    // ---- The harness catches a controller that refuses to flip. ----
    println!("-- never-steal canary: frozen controller vs the differential harness --");
    let canary_detected = match run_canary(
        &elastic_conformance_config(seed),
        "lobster",
        Mutation::NeverSteal,
    ) {
        CanaryOutcome::Detected(d) => {
            println!("DETECTED — first observable effect:\n{d}");
            true
        }
        CanaryOutcome::Undetected => {
            println!("UNDETECTED — the harness has a blind spot");
            false
        }
    };

    println!();
    out.json(&ElasticResult {
        seed,
        samples,
        step_iter,
        work_factor_after: wf_after,
        static_pre_step_s: static_pre,
        static_post_step_s: static_post,
        elastic_pre_step_s: elastic_pre,
        elastic_post_step_s: elastic_post,
        improvement_pct: improvement,
        target_met,
        elastic_max_preproc: max_preproc,
        canary_detected,
    });
}
