//! Cross-crate determinism: the whole stack — dataset generation, shuffle,
//! oracle, caches, policies, executor — must be a pure function of the seed,
//! and every recorded proptest counterexample seed must be kept.

use lobster_repro::core::{policy_by_name, LoaderPolicy};
use lobster_repro::data::{Dataset, SizeDistribution};
use lobster_repro::pipeline::{ClusterSim, ConfigBuilder, ExperimentConfig, RunReport};

fn config(seed: u64) -> ExperimentConfig {
    let dataset = Dataset::generate(
        "det",
        4096,
        SizeDistribution::LogNormal {
            mu: (30_000f64).ln(),
            sigma: 0.8,
            min: 1_000,
            max: 500_000,
        },
        seed,
    );
    let cache = dataset.total_bytes() / 5;
    ConfigBuilder::new()
        .nodes(2)
        .gpus_per_node(2)
        .batch_size(16)
        .cache_bytes(cache)
        .epochs(3)
        .seed(seed)
        .dataset(dataset)
        .build()
}

fn run(seed: u64, policy: Box<dyn LoaderPolicy>) -> RunReport {
    ClusterSim::new(config(seed), policy).run().0
}

#[test]
fn identical_seeds_produce_identical_reports() {
    for name in [
        "pytorch",
        "dali",
        "nopfs",
        "lobster",
        "lobster_th",
        "lobster_evict",
    ] {
        let a = run(7, policy_by_name(name).unwrap());
        let b = run(7, policy_by_name(name).unwrap());
        let ja = serde_json::to_string(&a).unwrap();
        let jb = serde_json::to_string(&b).unwrap();
        assert_eq!(ja, jb, "policy {name} must be bit-for-bit deterministic");
    }
}

#[test]
fn different_seeds_produce_different_runs() {
    let a = run(1, policy_by_name("lobster").unwrap());
    let b = run(2, policy_by_name("lobster").unwrap());
    assert_ne!(
        serde_json::to_string(&a).unwrap(),
        serde_json::to_string(&b).unwrap(),
        "seed must actually influence the run"
    );
}

#[test]
fn dataset_generation_is_seed_stable_across_calls() {
    use lobster_repro::data::imagenet_1k;
    let a = imagenet_1k(512, 42);
    let b = imagenet_1k(512, 42);
    assert_eq!(a.total_bytes(), b.total_bytes());
    assert_eq!(a.len(), b.len());
}

#[test]
fn schedule_and_oracle_agree_across_crate_boundaries() {
    use lobster_repro::data::{EpochSchedule, NodeOracle, ScheduleSpec};
    let spec = ScheduleSpec {
        nodes: 2,
        gpus_per_node: 2,
        batch_size: 8,
        dataset_len: 512,
        seed: 3,
    };
    let e0 = EpochSchedule::generate(spec, 0);
    let e1 = EpochSchedule::generate(spec, 1);
    let mut oracle = NodeOracle::build(0, &[&e0, &e1], 0);
    // Walk epoch 0 and verify the oracle's "upcoming" view equals the
    // schedule at every step.
    for h in 0..e0.iterations() {
        assert_eq!(oracle.upcoming_iteration(0), e0.node_iteration(h, 0));
        oracle.advance();
    }
    assert_eq!(oracle.upcoming_iteration(0), e1.node_iteration(0, 0));
}

/// Every crate, and the root package, keeps a proptest regression corpus
/// so recorded counterexample seeds replay on every run.
#[test]
fn every_crate_keeps_its_proptest_regression_corpus() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut dirs = vec![root.to_path_buf()];
    for entry in std::fs::read_dir(root.join("crates")).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            dirs.push(path);
        }
    }
    assert!(dirs.len() > 1, "no crates under {}", root.display());
    for dir in dirs {
        let corpus = dir.join("proptest-regressions/seeds.txt");
        assert!(corpus.is_file(), "missing {}", corpus.display());
    }
}
