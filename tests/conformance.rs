//! Differential conformance suite (DESIGN.md §10): the analytical
//! executor, the event-driven conformance DES, and the live engine must
//! implement the same paper semantics.
//!
//! Three layers of evidence:
//!
//! 1. **Differential runs** — the same seeded `ExperimentConfig` through
//!    `ClusterSim` and `DesCluster`, agreement demanded on every invariant
//!    observable (tier splits, eviction order, Algorithm-1 decisions,
//!    prefetch counts, delivered multisets, barrier timeline).
//! 2. **Fault × conformance matrix** — the live engine under seeded
//!    transient faults must still deliver exactly the schedule-determined
//!    per-epoch sample multisets the simulators agree on.
//! 3. **Mutation canaries** — every deliberate single-rule flip must be
//!    detected, otherwise the harness itself is broken.

use lobster_repro::cache::{Directory, EvictOrder, NodeCache};
use lobster_repro::conformance::{
    check_engine_delivery, check_sweep, conformance_config, crash_conformance_config,
    elastic_conformance_config, engine_epoch_multisets, horizon_boundary_fixture, naive_next_use,
    run_boundary_canary, run_canary, run_differential, workload_conformance_config, CanaryOutcome,
    Mutation,
};
use lobster_repro::core::{policy_by_name, EvictCause, ModelProfile, ReuseAwareEvictor};
use lobster_repro::data::{
    Dataset, EpochSchedule, NodeOracle, SampleId, ScheduleSpec, SizeDistribution,
};
use lobster_repro::metrics::Instruments;
use lobster_repro::pipeline::{
    ClusterSim, ConfigBuilder, ElasticSimConfig, ExperimentConfig, MembershipObservable,
    RoleFlipObservable,
};
use lobster_repro::runtime::{run_with, schedule_spec, EngineConfig, SyntheticStore};
use lobster_repro::storage::FaultSpec;
use std::sync::Arc;
use std::time::Duration;

// ---------------------------------------------------------------------
// 1. Differential runs: ClusterSim vs the conformance DES.
// ---------------------------------------------------------------------

/// The ISSUE's acceptance matrix: ≥5 seeds × the four paper policies, all
/// observables equal between the analytical executor and the DES.
#[test]
fn differential_agreement_across_seeds_and_policies() {
    for seed in [3, 5, 7, 11, 13] {
        let cfg = conformance_config(seed);
        for policy in ["pytorch", "dali", "nopfs", "lobster"] {
            let summary = run_differential(&cfg, policy)
                .unwrap_or_else(|d| panic!("seed {seed} policy {policy} diverged:\n{d}"));
            assert!(summary.iterations > 0);
            assert!(
                summary.demand_accesses > 0,
                "seed {seed} {policy}: no demand traffic recorded"
            );
        }
    }
}

/// The eviction-heavy ablation policies ride the same harness.
#[test]
fn differential_agreement_for_ablation_policies() {
    let cfg = conformance_config(29);
    for policy in ["lobster_th", "lobster_evict", "minio"] {
        run_differential(&cfg, policy).unwrap_or_else(|d| panic!("policy {policy} diverged:\n{d}"));
    }
}

/// Degenerate shuffle: a single-sample dataset still round-trips through
/// both executors (every epoch is the identity permutation `[0]`).
#[test]
fn differential_agreement_on_single_sample_dataset() {
    let dataset = Dataset::generate(
        "conformance-degenerate",
        1,
        SizeDistribution::Constant { bytes: 10_000 },
        5,
    );
    let cfg = ConfigBuilder::new()
        .nodes(1)
        .gpus_per_node(1)
        .batch_size(1)
        .cache_bytes(1 << 20)
        .dataset(dataset)
        .epochs(3)
        .seed(5)
        .build();
    for policy in ["pytorch", "lobster"] {
        let summary = run_differential(&cfg, policy)
            .unwrap_or_else(|d| panic!("degenerate config diverged for {policy}:\n{d}"));
        assert_eq!(summary.iterations, 3, "1 iteration per epoch × 3 epochs");
    }
}

// ---------------------------------------------------------------------
// 2. Fault × conformance matrix: live engine vs the simulators.
// ---------------------------------------------------------------------

fn matrix_dataset(seed: u64) -> Dataset {
    Dataset::generate(
        "conformance-matrix",
        96,
        SizeDistribution::Uniform {
            lo: 1_000,
            hi: 8_000,
        },
        seed,
    )
}

fn matrix_engine_cfg(seed: u64) -> EngineConfig {
    EngineConfig {
        consumers: 4,
        batch_size: 4,
        loader_threads: 3,
        preproc_threads: 2,
        epochs: 2,
        seed,
        train: Duration::from_micros(100),
        ..EngineConfig::default()
    }
}

/// Delivered-sample multisets per epoch depend only on `(W, |B|, |D|,
/// seed)`, not on node topology or timing — so a live 1×4 engine run is
/// directly comparable to a simulated 2×2 cluster, fault injection and
/// all. The engine must heal transients and stalls without changing *what*
/// it delivers.
#[test]
fn faulty_engine_matches_simulator_delivered_multisets() {
    let seed = 41;
    let dataset = matrix_dataset(seed);
    let ecfg = matrix_engine_cfg(seed);

    // Simulator side: same W=4, |B|=4, dataset, and seed on a 2×2 cluster.
    let sim_cfg = ConfigBuilder::new()
        .nodes(2)
        .gpus_per_node(2)
        .batch_size(4)
        .cache_bytes(dataset.total_bytes() / 3)
        .dataset(dataset.clone())
        .epochs(2)
        .seed(seed)
        .build();
    let (_, sim_obs) = ClusterSim::new(sim_cfg, policy_by_name("lobster").unwrap()).run_observed();

    let fault_specs = [
        FaultSpec::default(), // clean row of the matrix
        FaultSpec {
            transient_rate: 0.10,
            seed: 7,
            ..FaultSpec::default()
        },
        FaultSpec {
            transient_rate: 0.06,
            stall_rate: 0.03,
            stall: Duration::from_millis(1),
            seed: 8,
            ..FaultSpec::default()
        },
    ];
    for (row, spec) in fault_specs.into_iter().enumerate() {
        let plan = spec.compile().unwrap();
        let store = Arc::new(SyntheticStore::with_faults(
            dataset.clone(),
            Duration::from_micros(10),
            0.0,
            plan,
        ));
        let ins = Instruments::enabled();
        let report = run_with(store, ecfg.clone(), ins.clone());
        assert!(!report.aborted, "matrix row {row}: faults must be healed");

        // Exact delivery vs the seeded schedule (per consumer, per
        // iteration) plus the cache-accounting invariant.
        check_engine_delivery(&dataset, &ecfg, &report, &ins)
            .unwrap_or_else(|d| panic!("matrix row {row}: engine vs schedule:\n{d}"));

        // And the cross-executor comparison: per-epoch multisets equal to
        // what the analytical executor delivered.
        let iters = schedule_spec(&dataset, &ecfg).iterations_per_epoch();
        let engine_epochs = engine_epoch_multisets(&report, &ecfg, iters);
        assert_eq!(
            engine_epochs, sim_obs.delivered,
            "matrix row {row}: engine delivered different epoch multisets than the simulator"
        );
    }
}

// ---------------------------------------------------------------------
// 2b. Elastic pool: role-flip decision sequences across all three
//     executors (ISSUE 5 acceptance: zero divergence over 5 seeds).
// ---------------------------------------------------------------------

/// The elastic controller's decisions are pure functions of the tick
/// index and the configured workload, so the live engine, the analytical
/// executor, and the conformance DES must produce *identical* role-flip
/// sequences — compared exactly, not within tolerance. A 1×2×4 simulated
/// cluster and a 2-consumer×4-batch engine see the same iteration
/// schedule (12 iterations/epoch over 96 samples), the same 8-worker
/// pool, and the same work-factor step at iteration 12.
#[test]
fn role_flip_sequences_agree_across_all_three_executors() {
    for seed in [3u64, 5, 7, 11, 13] {
        let dataset = Dataset::generate(
            "elastic-threeway",
            96,
            SizeDistribution::Constant { bytes: 16_384 },
            seed,
        );

        // Simulator side (also covers sim == DES via the differential
        // runner).
        let sim_cfg = ConfigBuilder::new()
            .nodes(1)
            .gpus_per_node(2)
            .batch_size(4)
            .pipeline_threads(8)
            .cache_bytes(dataset.total_bytes() / 3)
            .dataset(dataset.clone())
            .epochs(2)
            .seed(seed)
            .model(ModelProfile::new("elastic-threeway", 2e-4, 0.7, 10.0))
            .elastic(ElasticSimConfig {
                workers: 8,
                initial_preproc: 1,
                work_factor: 1,
                work_factor_step: Some((12, 8)),
                churn: false,
                frozen: false,
                estimate: lobster_core::WorkEstimate::Mean,
            })
            .build();
        run_differential(&sim_cfg, "lobster")
            .unwrap_or_else(|d| panic!("seed {seed}: sim vs DES diverged on elastic config:\n{d}"));

        let (_, sim_obs) =
            ClusterSim::new(sim_cfg, policy_by_name("lobster").unwrap()).run_observed();
        let sim_flips: Vec<RoleFlipObservable> = sim_obs
            .iterations
            .iter()
            .flat_map(|it| it.role_flips.iter().cloned())
            .collect();
        assert_eq!(sim_flips.len(), 24, "seed {seed}: one tick per iteration");

        // Live engine: same pool of 8, same initial split, same step.
        let ecfg = EngineConfig {
            consumers: 2,
            batch_size: 4,
            loader_threads: 7,
            preproc_threads: 1,
            epochs: 2,
            seed,
            work_factor: 1,
            work_factor_step: Some((12, 8)),
            // Exact f64 round-trip with the simulator's t_train_s = 2e-4.
            train: Duration::from_secs_f64(2e-4),
            elastic: true,
            ..EngineConfig::default()
        };
        let store = Arc::new(SyntheticStore::new(dataset, Duration::ZERO, 0.0));
        let report = run_with(store, ecfg, Instruments::enabled());
        let engine_flips: Vec<RoleFlipObservable> = report
            .role_flips
            .iter()
            .map(RoleFlipObservable::from_decision)
            .collect();

        assert_eq!(
            engine_flips, sim_flips,
            "seed {seed}: live engine role-flip sequence diverged from the simulators"
        );

        // And the step must actually have provoked a reallocation, or the
        // comparison is vacuous.
        assert!(
            sim_flips.iter().any(|f| !f.flipped.is_empty()),
            "seed {seed}: work-factor step never flipped a role"
        );
    }
}

// ---------------------------------------------------------------------
// 2c. Membership: crash/rejoin sequences across all three executors and
//     exactly-once delivery under node loss (ISSUE 7 acceptance).
// ---------------------------------------------------------------------

/// The crash storm: three nodes of a 4-node cluster crash on staggered
/// windows and node 1 dies a second time after recovering. It never downs
/// more than two nodes at once, so every tick keeps survivors to foster
/// onto. 192 / (4 nodes × 2 GPUs × batch 2) = 12 iterations per epoch.
fn storm_config(seed: u64) -> ExperimentConfig {
    let dataset = Dataset::generate(
        "crash-storm",
        192,
        SizeDistribution::Uniform {
            lo: 2_000,
            hi: 16_000,
        },
        seed,
    );
    let mut b = ConfigBuilder::new()
        .nodes(4)
        .gpus_per_node(2)
        .batch_size(2)
        .pipeline_threads(8)
        .cache_bytes(dataset.total_bytes() / 4)
        .dataset(dataset)
        .epochs(2)
        .seed(seed);
    for (node, tick, rejoin) in [(1, 2, 5), (2, 4, 9), (3, 7, 13), (1, 15, 20)] {
        b = b.try_crash_node(node, tick, Some(rejoin)).unwrap();
    }
    b.build()
}

/// A whole-node crash (and rejoin) is a schedule-deterministic event: the
/// membership sequence is a pure function of the compiled crash plan, so
/// the analytical executor, the conformance DES, and the live engine must
/// produce *byte-identical* sequences — and the per-epoch delivered
/// multiset must equal the fault-free run's (exactly-once: losing a node
/// re-shards its slice onto survivors, it never drops or duplicates a
/// sample). Two fixtures: the standard crash configuration (one crash,
/// one rejoin; the engine runs the simulator's W = 6 × |B| = 4 schedule)
/// and the crash storm (four windows; the engine is 4 consumers over 4
/// peers).
#[test]
fn membership_sequences_agree_across_all_three_executors() {
    for seed in [3u64, 5, 7, 11, 13] {
        // (config, membership events, engine consumers, engine loaders)
        let fixtures = [
            (crash_conformance_config(seed), 2, 6, 4),
            (storm_config(seed), 8, 4, 3),
        ];
        for (cfg, events, consumers, loader_threads) in fixtures {
            // Simulator side (also covers sim == DES membership equality
            // via the differential runner's exact-compared observable).
            let summary = run_differential(&cfg, "lobster").unwrap_or_else(|d| {
                panic!("seed {seed}: sim vs DES diverged on crash config:\n{d}")
            });
            let plan = cfg.crash_plan();
            let timeline = |ticks: u64| -> Vec<MembershipObservable> {
                plan.membership_timeline(ticks)
                    .iter()
                    .map(MembershipObservable::from_event)
                    .collect()
            };
            let want = timeline(summary.iterations as u64);
            assert_eq!(want.len(), events, "seed {seed}: {want:?}");
            assert!(
                want.iter().any(|m| m.crashed) && want.iter().any(|m| !m.crashed),
                "seed {seed}: fixture must exercise both a crash and a rejoin"
            );

            let (_, sim_obs) =
                ClusterSim::new(cfg.clone(), policy_by_name("lobster").unwrap()).run_observed();
            assert_eq!(
                sim_obs.membership_sequence(),
                want,
                "seed {seed}: analytical executor's membership sequence diverged from the plan"
            );

            // Exactly-once: the crash run delivers the same per-epoch
            // multisets as a fault-free run of the same schedule.
            let mut no_crash = cfg.clone();
            no_crash.crashes.clear();
            let (_, base_obs) =
                ClusterSim::new(no_crash, policy_by_name("lobster").unwrap()).run_observed();
            assert_eq!(
                sim_obs.delivered, base_obs.delivered,
                "seed {seed}: node loss changed the delivered multiset (exactly-once broken)"
            );

            // Live engine: same dataset and seed, with the same crash plan
            // applied at tick boundaries.
            let ecfg = EngineConfig {
                consumers,
                batch_size: cfg.cluster.batch_size,
                loader_threads,
                preproc_threads: 2,
                epochs: 2,
                seed,
                train: Duration::from_micros(100),
                crashes: cfg.crashes.clone(),
                peer_nodes: cfg.cluster.nodes,
                ..EngineConfig::default()
            };
            let store = Arc::new(SyntheticStore::new(
                cfg.dataset.clone(),
                Duration::ZERO,
                0.0,
            ));
            let ins = Instruments::enabled();
            let report = run_with(store, ecfg.clone(), ins.clone());
            assert!(
                !report.aborted,
                "seed {seed}: engine aborted under crash schedule"
            );
            let engine_membership: Vec<MembershipObservable> = report
                .membership
                .iter()
                .map(MembershipObservable::from_event)
                .collect();
            assert_eq!(
                engine_membership,
                timeline(report.iterations),
                "seed {seed}: live engine membership sequence diverged from the plan"
            );

            // The engine still delivers exactly the schedule — per
            // consumer, per iteration — and, on the simulator's world
            // size, the same epoch multisets as the simulator.
            check_engine_delivery(&cfg.dataset, &ecfg, &report, &ins)
                .unwrap_or_else(|d| panic!("seed {seed}: engine vs schedule under crash:\n{d}"));
            if consumers == cfg.cluster.world_size() {
                let iters = schedule_spec(&cfg.dataset, &ecfg).iterations_per_epoch();
                assert_eq!(
                    engine_epoch_multisets(&report, &ecfg, iters),
                    sim_obs.delivered,
                    "seed {seed}: engine epoch multisets diverged from the simulator"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// 3. Mutation canaries: the harness must detect every armed flip.
// ---------------------------------------------------------------------

/// Every mutation in the registry is detected — three by the differential
/// runner, `horizon-off-by-one` by the model-based sweep checker (it is an
/// equivalent mutant under the production 2-epoch oracle window).
#[test]
fn every_mutation_canary_is_detected() {
    for m in Mutation::all() {
        let outcome = if m == Mutation::HorizonOffByOne {
            run_boundary_canary()
        } else if m == Mutation::NeverSteal || m == Mutation::DetectorThreshold {
            // NeverSteal freezes the elastic controller and
            // DetectorThreshold perturbs the anomaly bank: both are only
            // observable where a work-factor step forces the pool (and the
            // detectors watching it) to react.
            let cfg = elastic_conformance_config(11);
            run_canary(&cfg, "lobster", m)
        } else if m == Mutation::DropCrash {
            // Ignores the crash schedule: only observable on a config
            // that has one to ignore.
            let cfg = crash_conformance_config(11);
            run_canary(&cfg, "lobster", m)
        } else if m == Mutation::UniformCost {
            // Collapses per-sample cost to the mean: only observable on
            // a workload whose costs actually vary (DESIGN.md §15).
            let bimodal = lobster_repro::data::WorkloadSpec::default_for("bimodal", 192)
                .expect("bimodal is a known workload family");
            let cfg = workload_conformance_config(&bimodal, 11);
            run_canary(&cfg, "lobster", m)
        } else {
            let cfg = conformance_config(11);
            run_canary(&cfg, "lobster", m)
        };
        match outcome {
            CanaryOutcome::Detected(d) => {
                assert!(!d.observable.is_empty(), "{}: empty report", m.name());
            }
            CanaryOutcome::Undetected => {
                panic!(
                    "canary {} undetected: the harness has a blind spot",
                    m.name()
                )
            }
        }
    }
}

/// The unmutated DES must, of course, not trip the canary machinery.
#[test]
fn unmutated_des_reports_no_divergence() {
    let cfg = conformance_config(11);
    match run_canary(&cfg, "lobster", Mutation::None) {
        CanaryOutcome::Undetected => {}
        CanaryOutcome::Detected(d) => panic!("false positive without any mutation:\n{d}"),
    }
}

// ---------------------------------------------------------------------
// 4. Oracle edge cases (§4.4 boundary semantics).
// ---------------------------------------------------------------------

/// Reuse that crosses an epoch boundary: a sample consumed in the last
/// iteration of epoch 0 and reused in the first iteration of epoch 1 has
/// distance 1 and must be kept with the nearest-reuse priority key.
#[test]
fn epoch_boundary_reuse_distance_is_kept() {
    let spec = ScheduleSpec {
        nodes: 2,
        gpus_per_node: 1,
        batch_size: 1,
        dataset_len: 8,
        seed: 0,
    };
    let ids = |v: [u32; 8]| v.into_iter().map(SampleId).collect::<Vec<_>>();
    // Node 0 streams: epoch 0 [0, 1, 2, 3], epoch 1 [3, 0, 1, 2]: sample 3
    // is consumed at global iteration 3 and reused at global 4.
    let e0 = EpochSchedule::from_order(spec, 0, ids([0, 4, 1, 5, 2, 6, 3, 7]));
    let e1 = EpochSchedule::from_order(spec, 1, ids([3, 4, 0, 5, 1, 6, 2, 7]));
    let epochs = [&e0, &e1];
    let iters = e0.iterations();
    let node = 0;

    let mut oracle = NodeOracle::build(node, &epochs, 0);
    let mut cache = NodeCache::new(u64::MAX, EvictOrder::SmallestKeyFirst);
    let mut directory = Directory::new(spec.nodes);
    for h in 0..iters {
        let batch: Vec<SampleId> = e0.node_iteration(h, node).to_vec();
        for &s in &batch {
            let key =
                ReuseAwareEvictor::priority_key(oracle.future_of(s).map(|f| f.next_iteration));
            if cache.insert(s, 1, key).inserted {
                directory.add(s, node);
            }
        }
        oracle.advance();
        check_sweep(
            &epochs, node, 0, &oracle, &cache, &directory, &batch, h, iters, h as u64,
        )
        .unwrap_or_else(|e| panic!("sweep disagreed at h={h}: {e}"));
        let mut victims = Vec::new();
        ReuseAwareEvictor.after_iteration_detailed(
            &mut cache,
            &mut directory,
            &oracle,
            node,
            &batch,
            h,
            iters,
            h as u64,
            &mut victims,
        );
        if h == iters - 1 {
            assert!(
                victims.is_empty(),
                "boundary reuse must not evict: {victims:?}"
            );
        }
    }
    // After the last epoch-0 sweep: sample 3's next use is global 4,
    // distance 1, key = MAX − 4.
    assert_eq!(
        cache.key_of(SampleId(3)),
        Some(u64::MAX - 4),
        "epoch-boundary reuse must carry the nearest-reuse priority key"
    );
    assert_eq!(naive_next_use(&epochs, node, SampleId(3), 4), Some(4));
}

/// The `2I − h` threshold *exactly at equality*: the strict `>` of §4.4
/// keeps a sample whose reuse distance equals the horizon. Unreachable
/// under the production 2-epoch oracle window (max distance is
/// `2I − h − 1`), hence the crafted 3-epoch fixture.
#[test]
fn horizon_threshold_equality_is_kept_and_beyond_is_evicted() {
    let fx = horizon_boundary_fixture();
    let iters = fx.epochs[0].iterations();

    // Variant of epoch 2 with sample 0 one iteration later (global 9):
    // distance 7 > horizon 6 ⇒ evicted by the reuse-distance rule.
    let ids = |v: [u32; 8]| v.into_iter().map(SampleId).collect::<Vec<_>>();
    let e2_late = EpochSchedule::from_order(fx.spec, 2, ids([1, 4, 0, 5, 2, 6, 3, 7]));

    for (next_global, expect_evicted) in [(8u64, false), (9u64, true)] {
        let epochs: Vec<&EpochSchedule> = if expect_evicted {
            vec![&fx.epochs[0], &fx.epochs[1], &e2_late]
        } else {
            fx.epochs.iter().collect()
        };
        let mut oracle = NodeOracle::build(fx.node, &epochs, 0);
        let mut cache = NodeCache::new(u64::MAX, EvictOrder::SmallestKeyFirst);
        let mut directory = Directory::new(fx.spec.nodes);
        for h in 0..=fx.h {
            let batch: Vec<SampleId> = epochs[0].node_iteration(h, fx.node).to_vec();
            for &s in &batch {
                let key =
                    ReuseAwareEvictor::priority_key(oracle.future_of(s).map(|f| f.next_iteration));
                if cache.insert(s, 1, key).inserted {
                    directory.add(s, fx.node);
                }
            }
            oracle.advance();
            check_sweep(
                &epochs, fx.node, 0, &oracle, &cache, &directory, &batch, h, iters, h as u64,
            )
            .unwrap_or_else(|e| panic!("sweep disagreed at h={h}: {e}"));
            let mut victims = Vec::new();
            ReuseAwareEvictor.after_iteration_detailed(
                &mut cache,
                &mut directory,
                &oracle,
                fx.node,
                &batch,
                h,
                iters,
                h as u64,
                &mut victims,
            );
            if h == fx.h {
                if expect_evicted {
                    assert_eq!(
                        victims,
                        vec![(fx.sample, EvictCause::ReuseDistance)],
                        "distance {} > horizon must evict",
                        next_global - fx.h as u64
                    );
                    assert!(!cache.contains(fx.sample));
                } else {
                    assert!(victims.is_empty(), "equality must keep: {victims:?}");
                    assert_eq!(
                        cache.key_of(fx.sample),
                        Some(u64::MAX - next_global),
                        "kept sample carries the nearest-reuse key"
                    );
                }
            }
        }
    }
}

/// Single-sample dataset: the shuffle of one element is the identity, the
/// oracle sees it at every iteration, and it is never evicted (distance is
/// always 1).
#[test]
fn single_sample_dataset_oracle_and_sweep_degenerate_cleanly() {
    let spec = ScheduleSpec {
        nodes: 1,
        gpus_per_node: 1,
        batch_size: 1,
        dataset_len: 1,
        seed: 99,
    };
    let e0 = EpochSchedule::generate(spec, 0);
    let e1 = EpochSchedule::generate(spec, 1);
    assert_eq!(e0.all_accesses(), &[SampleId(0)]);
    assert_eq!(e1.all_accesses(), &[SampleId(0)]);

    let epochs = [&e0, &e1];
    let mut oracle = NodeOracle::build(0, &epochs, 0);
    let fut = oracle.future_of(SampleId(0)).expect("seen in window");
    assert_eq!(fut.next_iteration, 0);
    assert_eq!(fut.remaining_uses, 2);

    let mut cache = NodeCache::new(u64::MAX, EvictOrder::SmallestKeyFirst);
    let mut directory = Directory::new(1);
    cache.insert(SampleId(0), 1, 0);
    directory.add(SampleId(0), 0);
    oracle.advance();
    check_sweep(
        &epochs,
        0,
        0,
        &oracle,
        &cache,
        &directory,
        &[SampleId(0)],
        0,
        1,
        0,
    )
    .unwrap();
    let mut victims = Vec::new();
    ReuseAwareEvictor.after_iteration_detailed(
        &mut cache,
        &mut directory,
        &oracle,
        0,
        &[SampleId(0)],
        0,
        1,
        0,
        &mut victims,
    );
    assert!(
        victims.is_empty(),
        "the sole sample must survive: {victims:?}"
    );
    assert_eq!(cache.key_of(SampleId(0)), Some(u64::MAX - 1));
}
