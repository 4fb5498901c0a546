//! Stress/soak test for the elastic worker pool (ISSUE 5 satellite 1): a
//! 64-worker pool under seeded storage faults with forced role churn on
//! every tick. The engine must deliver the exact schedule-determined
//! sample multisets (byte-for-byte integrity fingerprint) no matter how
//! often the controller re-rolls worker roles mid-run, and every decision
//! must conserve the pool.
//!
//! No assertion here depends on wall-clock speed — the watchdog only
//! turns a deadlock into a clean panic (PR 4 pattern).

use lobster_repro::core::elastic::DEFAULT_DWELL_TICKS;
use lobster_repro::data::{Dataset, SizeDistribution};
use lobster_repro::metrics::Instruments;
use lobster_repro::runtime::{expected_integrity, run_with, EngineConfig, SyntheticStore};
use lobster_repro::storage::{FaultSpec, SlowdownProfile};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

#[path = "common/watchdog.rs"]
mod watchdog;
use watchdog::with_watchdog;

/// 64-worker pool: 8 consumers × batch 4, 48 loaders + 16 preprocessing
/// workers, with a mid-run 8× preprocessing step so the controller has a
/// real reason to re-balance on top of the forced churn.
fn stress_cfg(seed: u64) -> EngineConfig {
    EngineConfig {
        consumers: 8,
        batch_size: 4,
        loader_threads: 48,
        preproc_threads: 16,
        epochs: 3,
        seed,
        work_factor: 1,
        work_factor_step: Some((10, 8)),
        train: Duration::from_micros(200),
        elastic: true,
        elastic_churn: true,
        ..EngineConfig::default()
    }
}

/// The full gauntlet: transient read failures, stalls, and a slowdown
/// ramp, all seeded, while every tick force-churns worker roles. The
/// delivered multiset must match the fault-free schedule exactly and the
/// 64-worker pool must be conserved across every flip.
#[test]
fn churning_64_worker_pool_survives_seeded_faults_with_exact_delivery() {
    let seed = 1009;
    let dataset = Dataset::generate(
        "elastic-stress",
        320,
        SizeDistribution::Uniform {
            lo: 1_000,
            hi: 24_000,
        },
        seed,
    );
    let cfg = stress_cfg(seed);
    let expected = expected_integrity(&dataset, &cfg);

    let spec = FaultSpec {
        transient_rate: 0.08,
        stall_rate: 0.03,
        stall: Duration::from_millis(1),
        slowdown: vec![SlowdownProfile::Ramp {
            from: 1.0,
            to: 3.0,
            over_s: 0.2,
        }],
        seed: 4242,
        ..FaultSpec::default()
    };
    let plan = spec.compile().unwrap();
    let store = Arc::new(SyntheticStore::with_faults(
        dataset,
        Duration::from_micros(20),
        0.0,
        plan,
    ));

    let report = with_watchdog(Duration::from_secs(120), move || {
        run_with(store, cfg, Instruments::enabled())
    });

    assert!(!report.aborted, "faults must be healed, not fatal");
    // 320 / (8 × 4) = 10 iterations per epoch × 3 epochs.
    assert_eq!(report.iterations, 30);
    assert_eq!(report.delivered, 960);
    // Delivered-sample multiset exactness: the integrity fingerprint is
    // order-insensitive per iteration and covers every delivered byte, so
    // equality here means the churned, fault-injected run handed the
    // consumers exactly the schedule-determined multisets.
    assert_eq!(
        report.integrity, expected,
        "role churn + faults changed WHAT was delivered"
    );

    // One decision per tick; every decision conserves the 64-worker pool.
    assert_eq!(report.role_flips.len() as u64, report.iterations);
    for d in &report.role_flips {
        let loaders: u32 = d.loader_queues.iter().sum();
        assert_eq!(
            loaders + d.preproc_after,
            64,
            "pool leaked a worker at tick {}",
            d.tick
        );
    }

    // The forced churn must actually churn: with 16 preproc-eligible
    // workers the dwell window cannot starve the swapper.
    let churned = report
        .role_flips
        .iter()
        .filter(|d| !d.flipped.is_empty())
        .count();
    assert!(
        churned >= report.role_flips.len() / 2,
        "64-worker churn should flip on most ticks: {churned}/{}",
        report.role_flips.len()
    );

    // Hysteresis holds even under churn: no worker flips twice within the
    // dwell window.
    let mut last_flip: HashMap<u32, u64> = HashMap::new();
    for d in &report.role_flips {
        for &w in &d.flipped {
            if let Some(&prev) = last_flip.get(&w) {
                assert!(
                    d.tick - prev >= DEFAULT_DWELL_TICKS,
                    "worker {w} flipped at ticks {prev} and {} (dwell {DEFAULT_DWELL_TICKS})",
                    d.tick
                );
            }
            last_flip.insert(w, d.tick);
        }
    }

    // The healing was real work, not a clean run in disguise.
    assert!(
        report.retries > 0,
        "seeded transients must surface as retries"
    );
}

/// Same pool, clean store, five seeds: soak the role-board protocol
/// itself. Every seed must deliver its exact fingerprint and keep one
/// decision per tick.
#[test]
fn churn_soak_across_seeds_preserves_integrity() {
    for seed in [1u64, 2, 3, 4, 5] {
        let dataset = Dataset::generate(
            "elastic-soak",
            160,
            SizeDistribution::Constant { bytes: 8_192 },
            seed,
        );
        let mut cfg = stress_cfg(seed);
        cfg.epochs = 2;
        let expected = expected_integrity(&dataset, &cfg);
        let store = Arc::new(SyntheticStore::new(dataset, Duration::ZERO, 0.0));
        let report = with_watchdog(Duration::from_secs(120), move || {
            run_with(store, cfg, Instruments::disabled())
        });
        assert!(!report.aborted, "seed {seed}");
        assert_eq!(report.integrity, expected, "seed {seed}: delivery drifted");
        assert_eq!(
            report.role_flips.len() as u64,
            report.iterations,
            "seed {seed}"
        );
    }
}
