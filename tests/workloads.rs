//! Workload diversity suite (DESIGN.md §15): the five seeded workload
//! families — Zipf-skewed popularity, heavy-tailed sizes, bimodal
//! preprocessing cost, a growing dataset, and heterogeneous compute
//! drift — exercised end to end.
//!
//! Three layers of evidence:
//!
//! 1. **Spec semantics** — the `--workload` grammar round-trips, every
//!    generator is a pure function of `(seed, spec)`, and each family
//!    actually produces the distribution shape it advertises.
//! 2. **Differential + live delivery** — every family runs through the
//!    analytical-vs-DES harness over five seeds and through the live
//!    engine's delivery check.
//! 3. **The estimate showdown** — on the bimodal family the mean-based
//!    work estimate the paper assumes provisions too few preprocessing
//!    threads; the p90 quantile estimate must beat it (`lobster_figures
//!    ext_workloads` pins the ≥10% headline; here we pin the direction).

use lobster_repro::conformance::{
    check_engine_delivery, run_differential, workload_conformance_matrix,
};
use lobster_repro::core::WorkEstimate;
use lobster_repro::data::{SampleId, WorkloadFamily, WorkloadSpec};
use lobster_repro::metrics::Instruments;
use lobster_repro::runtime::{run_with, EngineConfig, SyntheticStore};
use std::sync::Arc;
use std::time::Duration;

// ---------------------------------------------------------------------
// 1. Spec semantics.
// ---------------------------------------------------------------------

#[test]
fn workload_grammar_round_trips_every_family() {
    for text in [
        "zipf",
        "zipf:s=1.4,samples=256",
        "heavy-tail:median=4096,sigma=1.8",
        "bimodal:slow-frac=0.25,slow-cost=32",
        "growing:initial=0.4,growth=0.2",
        "drift:peak=3.0",
    ] {
        let spec = WorkloadSpec::parse(text).unwrap_or_else(|e| panic!("{text}: {e}"));
        // The label is itself valid grammar and parses back to the same
        // spec — what `--workload <label>` from a report must reproduce.
        let label = spec.label();
        let back = WorkloadSpec::parse(&label).unwrap_or_else(|e| panic!("{label}: {e}"));
        assert_eq!(back, spec, "label {label:?} must round-trip");
    }
}

#[test]
fn workload_grammar_rejects_nonsense() {
    assert!(WorkloadSpec::parse("imagenet").is_err(), "unknown family");
    assert!(WorkloadSpec::parse("zipf:s").is_err(), "not k=v");
    assert!(WorkloadSpec::parse("zipf:s=abc").is_err(), "not a number");
    assert!(
        WorkloadSpec::parse("bimodal:peak=2.0").is_err(),
        "parameter from the wrong family"
    );
}

#[test]
fn generators_are_pure_functions_of_seed_and_spec() {
    for w in WorkloadSpec::all_families(128) {
        let a = w.dataset(7);
        let b = w.dataset(7);
        let fingerprint = |d: &lobster_repro::data::Dataset| -> (u64, u64) {
            (d.total_bytes(), d.total_work_bytes())
        };
        assert_eq!(fingerprint(&a), fingerprint(&b), "{}: same seed", w.label());
        for i in 0..a.len() as u32 {
            assert_eq!(a.size_of(SampleId(i)), b.size_of(SampleId(i)));
            assert_eq!(a.cost_of(SampleId(i)), b.cost_of(SampleId(i)));
        }
        let c = w.dataset(8);
        // Bimodal/drift keep constant sizes; heavy-tail and zipf must
        // change with the seed somewhere in sizes or costs.
        if matches!(w.family, WorkloadFamily::HeavyTail { .. }) {
            assert_ne!(
                fingerprint(&a),
                fingerprint(&c),
                "{}: a different seed must draw different sizes",
                w.label()
            );
        }
    }
}

#[test]
fn bimodal_costs_match_the_advertised_mix() {
    let w = WorkloadSpec::parse("bimodal:slow-frac=0.25,slow-cost=8,samples=1024").unwrap();
    let d = w.dataset(3);
    let slow = (0..1024u32)
        .filter(|&i| d.cost_of(SampleId(i)) == 8)
        .count();
    let fast = (0..1024u32)
        .filter(|&i| d.cost_of(SampleId(i)) == 1)
        .count();
    assert_eq!(slow + fast, 1024, "costs are exactly the two modes");
    let frac = slow as f64 / 1024.0;
    assert!(
        (frac - 0.25).abs() < 0.05,
        "slow fraction {frac} must track slow-frac=0.25"
    );
    // p90 work sits at the slow mode, the mean far below it — the gap the
    // estimate showdown exploits.
    assert!(d.work_quantile_bytes(900) > 2.0 * d.mean_work_bytes());
}

#[test]
fn drift_ramp_spans_nominal_to_peak() {
    let w = WorkloadSpec::parse("drift:peak=2.0").unwrap();
    let ramp = w.drift_ramp(4);
    assert_eq!(ramp.len(), 3, "node 0 stays nominal");
    for &(node, from, to) in &ramp {
        assert!((1..4).contains(&node));
        assert_eq!(from, 1.0);
        assert!(to > 1.0 && to <= 3.0, "node {node} ramps to {to}");
    }
    assert_eq!(ramp.last().unwrap().2, 3.0, "last node hits 1 + peak");
    assert!(w.drift_ramp(1).is_empty(), "no ramp on a single node");
    let zipf = WorkloadSpec::parse("zipf").unwrap();
    assert!(zipf.drift_ramp(4).is_empty(), "only the drift family ramps");
}

// ---------------------------------------------------------------------
// 2. Differential + live delivery at integration-test scale.
// ---------------------------------------------------------------------

#[test]
fn every_family_agrees_across_the_differential_harness() {
    for seed in [3, 5, 7, 11, 13] {
        for (label, cfg) in workload_conformance_matrix(seed) {
            if let Err(d) = run_differential(&cfg, "lobster") {
                panic!("seed {seed} workload {label}: {d}");
            }
        }
    }
}

#[test]
fn live_engine_delivers_every_family_exactly_as_scheduled() {
    for w in WorkloadSpec::all_families(96) {
        let dataset = w.dataset(5);
        let cfg = EngineConfig {
            consumers: 2,
            batch_size: 4,
            loader_threads: 2,
            preproc_threads: 2,
            epochs: 2,
            seed: 5,
            train: Duration::from_micros(100),
            access: w.access(),
            ..EngineConfig::default()
        };
        let store = Arc::new(SyntheticStore::new(dataset.clone(), Duration::ZERO, 0.0));
        let ins = Instruments::enabled();
        let report = run_with(store, cfg.clone(), ins.clone());
        assert!(report.delivered > 0, "{}: nothing delivered", w.label());
        if let Err(d) = check_engine_delivery(&dataset, &cfg, &report, &ins) {
            panic!("workload {}: {d}", w.label());
        }
    }
}

// ---------------------------------------------------------------------
// 3. The estimate showdown, directionally, at test scale.
// ---------------------------------------------------------------------

#[test]
fn quantile_estimate_beats_mean_on_the_bimodal_family() {
    use lobster_repro::core::{policy_by_name, ModelProfile};
    use lobster_repro::pipeline::{ClusterSim, ConfigBuilder, ElasticSimConfig};

    let w = WorkloadSpec::parse("bimodal:samples=384").unwrap();
    let run = |estimate: WorkEstimate| -> f64 {
        let dataset = w.dataset(42);
        let cache_bytes = dataset.total_bytes();
        let cfg = ConfigBuilder::new()
            .nodes(2)
            .gpus_per_node(2)
            .batch_size(8)
            .pipeline_threads(8)
            .cache_bytes(cache_bytes)
            .dataset(dataset)
            .epochs(3)
            .seed(42)
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
            .build();
        let (report, _) = ClusterSim::new(cfg, policy_by_name("lobster").unwrap()).run_observed();
        let steady = &report.epochs[1..];
        steady.iter().map(|e| e.wall_s).sum::<f64>() / steady.len() as f64
    };
    let mean_s = run(WorkEstimate::Mean);
    let quant_s = run(WorkEstimate::Quantile(900));
    assert!(
        quant_s < mean_s,
        "p90 provisioning ({quant_s:.4}s) must beat mean provisioning ({mean_s:.4}s) \
         on the bimodal workload"
    );
}
