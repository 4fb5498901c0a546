//! The differential runner: one seeded configuration, three executors.
//!
//! [`run_differential`] drives the same `ExperimentConfig` through the
//! analytical `ClusterSim` and the event-driven [`DesCluster`] and demands
//! agreement on every invariant observable. [`check_engine_delivery`]
//! closes the loop with the live engine: it replays the engine's
//! per-consumer delivery record against the seeded schedule (the engine is
//! one node of the simulated topology) and checks the cache-accounting
//! invariant `hits + misses == fetches` on the live counters.
//!
//! [`run_canary`] is the harness testing itself: it arms one deliberate
//! rule flip in the DES and reports whether the comparison caught it.

use crate::compare::{compare_runs, Divergence};
use crate::des::DesCluster;
use crate::mutation::Mutation;
use crate::refmodel::{check_sweep, horizon_boundary_fixture, naive_sweep_expectation};
use lobster_cache::{Directory, EvictOrder, NodeCache};
use lobster_core::ModelProfile;
use lobster_core::{policy_by_name, ReuseAwareEvictor, WorkEstimate};
use lobster_data::{
    Dataset, EpochSchedule, NodeOracle, SampleId, SizeDistribution, WorkloadFamily, WorkloadSpec,
};
use lobster_metrics::Instruments;
use lobster_pipeline::observe::RunObservables;
use lobster_pipeline::{ClusterSim, ConfigBuilder, ElasticSimConfig, ExperimentConfig};
use lobster_runtime::engine::{
    engine_schedule, expected_integrity, schedule_spec, EngineConfig, EngineReport,
};

/// Timing tolerance between the f64 executor and the nanosecond DES:
/// discrete observables match exactly, times to sub-microsecond.
pub const TIME_TOL_S: f64 = 1e-6;

/// Names under which the executors appear in divergence reports.
pub const SIM_MODEL: &str = "cluster-sim";
pub const DES_MODEL: &str = "conformance-des";
pub const ENGINE_MODEL: &str = "live-engine";
pub const SCHEDULE_MODEL: &str = "seeded-schedule";

/// The standard conformance configuration: small enough that a full
/// differential run takes milliseconds, sized so the caches actually evict
/// (capacity pressure) and two epochs create reuse (sweep pressure).
pub fn conformance_config(seed: u64) -> ExperimentConfig {
    let dataset = Dataset::generate(
        "conformance",
        192,
        SizeDistribution::Uniform {
            lo: 4_000,
            hi: 32_000,
        },
        seed,
    );
    // ~1/3 of the dataset fits per node: inserts displace residents.
    let cache_bytes = dataset.total_bytes() / 3;
    ConfigBuilder::new()
        .nodes(2)
        .gpus_per_node(2)
        .batch_size(4)
        .pipeline_threads(8)
        .cache_bytes(cache_bytes)
        .dataset(dataset)
        .epochs(2)
        .seed(seed)
        .build()
}

/// The elastic conformance configuration: the standard small topology with
/// the elastic worker-pool rule armed and a training time short enough
/// (200 µs — a deliberately tiny probe model) that the mid-run
/// preprocessing work-factor step forces the controller to steal loaders.
/// The step lands at the start of epoch 2, so the conformant controller
/// holds a steady split through epoch 1 (flips nothing) and must flip at
/// the step — exactly what the `never-steal` canary refuses to do.
pub fn elastic_conformance_config(seed: u64) -> ExperimentConfig {
    let dataset = Dataset::generate(
        "elastic-conformance",
        192,
        SizeDistribution::Constant { bytes: 16_384 },
        seed,
    );
    let cache_bytes = dataset.total_bytes() / 3;
    // 192 samples / (2 nodes × 2 GPUs × batch 4) = 12 iterations per epoch.
    let step_iter = 12;
    ConfigBuilder::new()
        .nodes(2)
        .gpus_per_node(2)
        .batch_size(4)
        .pipeline_threads(8)
        .cache_bytes(cache_bytes)
        .dataset(dataset)
        .epochs(2)
        .seed(seed)
        .model(ModelProfile::new("elastic-probe", 2e-4, 0.7, 10.0))
        .elastic(ElasticSimConfig {
            workers: 8,
            initial_preproc: 1,
            work_factor: 1,
            work_factor_step: Some((step_iter, 8)),
            churn: false,
            frozen: false,
            estimate: WorkEstimate::Mean,
        })
        .build()
}

/// The crash conformance configuration: the standard small topology over
/// three nodes with a scheduled whole-node crash mid-epoch-1 and a cold
/// rejoin mid-epoch-2. 192 samples / (3 nodes × 2 GPUs × batch 4) = 8
/// iterations per epoch, so tick 3 crashes node 1 with five down ticks
/// (its slice fostered onto survivors) and tick 8 — the epoch boundary —
/// re-admits it with a cold cache. Exactly-once delivery and the
/// membership-transition sequence are both exact observables on this
/// configuration (DESIGN.md §13).
pub fn crash_conformance_config(seed: u64) -> ExperimentConfig {
    let dataset = Dataset::generate(
        "crash-conformance",
        192,
        SizeDistribution::Uniform {
            lo: 4_000,
            hi: 32_000,
        },
        seed,
    );
    let cache_bytes = dataset.total_bytes() / 3;
    ConfigBuilder::new()
        .nodes(3)
        .gpus_per_node(2)
        .batch_size(4)
        .pipeline_threads(8)
        .cache_bytes(cache_bytes)
        .dataset(dataset)
        .epochs(2)
        .seed(seed)
        .try_crash_node(1, 3, Some(8))
        .expect("valid crash schedule")
        .build()
}

/// A conformance configuration for one workload family (DESIGN.md §15):
/// the family's seeded dataset (sizes + costs), its access pattern, its
/// node-drift ramps — and, for the bimodal-cost family, an elastic pool
/// whose controller runs the quantile work estimate, so the estimator
/// itself sits on the differential path. Small enough that a full
/// differential run takes milliseconds.
pub fn workload_conformance_config(w: &WorkloadSpec, seed: u64) -> ExperimentConfig {
    let dataset = w.dataset(seed);
    let cache_bytes = (dataset.total_bytes() / 3).max(1);
    let mut b = ConfigBuilder::new()
        .nodes(2)
        .gpus_per_node(2)
        .batch_size(4)
        .pipeline_threads(8)
        .cache_bytes(cache_bytes)
        .dataset(dataset)
        .epochs(2)
        .seed(seed)
        .access(w.access());
    for (node, from, to) in w.drift_ramp(2) {
        b = b
            .try_slow_node_profile(
                node,
                lobster_storage::SlowdownProfile::Ramp {
                    from,
                    to,
                    over_s: 1.0,
                },
            )
            .expect("drift ramp is a valid profile");
    }
    if matches!(w.family, WorkloadFamily::BimodalCost { .. }) {
        b = b
            .model(ModelProfile::new("bimodal-probe", 2e-4, 0.7, 10.0))
            .elastic(ElasticSimConfig {
                workers: 8,
                initial_preproc: 1,
                work_factor: 1,
                work_factor_step: None,
                churn: false,
                frozen: false,
                estimate: WorkEstimate::Quantile(900),
            });
    }
    b.build()
}

/// The five workload families' conformance configurations at `seed`, with
/// their CLI tokens — the matrix
/// `tests/workloads.rs::every_family_agrees_across_the_differential_harness`
/// sweeps over five seeds.
pub fn workload_conformance_matrix(seed: u64) -> Vec<(&'static str, ExperimentConfig)> {
    WorkloadSpec::all_families(192)
        .iter()
        .map(|w| (w.family.token(), workload_conformance_config(w, seed)))
        .collect()
}

/// Summary of one passing differential run.
#[derive(Debug, Clone)]
pub struct DiffSummary {
    pub policy: String,
    pub seed: u64,
    pub iterations: usize,
    pub demand_accesses: u64,
    pub des_events: u64,
}

/// Run `cfg` through `ClusterSim` and the conformance DES and compare all
/// invariant observables. `Err` is the structured first divergence.
pub fn run_differential(
    cfg: &ExperimentConfig,
    policy: &str,
) -> Result<DiffSummary, Box<Divergence>> {
    let (sim_obs, des_obs, des_events) = run_both(cfg, policy, Mutation::None);
    compare_runs(SIM_MODEL, &sim_obs, DES_MODEL, &des_obs, TIME_TOL_S)?;
    Ok(DiffSummary {
        policy: policy.to_string(),
        seed: cfg.seed,
        iterations: sim_obs.iterations.len(),
        demand_accesses: sim_obs.demand_accesses(),
        des_events,
    })
}

/// Record a first divergence into `ins`'s flight recorder and trigger the
/// `conformance_divergence` dump (written only when a flight dir is
/// configured). Returns the dump path, if one was written.
pub fn record_divergence_flight(ins: &Instruments, d: &Divergence) -> Option<std::path::PathBuf> {
    ins.flight(|| lobster_metrics::FlightEvent::Divergence {
        iteration: d.iteration.unwrap_or(0),
    });
    ins.flight_dump_to_disk("conformance_divergence")
}

/// [`run_differential`] with the flight-recorder hook: the first
/// divergence, if any, is recorded into `ins` and dumped before being
/// returned to the caller.
pub fn run_differential_recorded(
    cfg: &ExperimentConfig,
    policy: &str,
    ins: &Instruments,
) -> Result<DiffSummary, Box<Divergence>> {
    run_differential(cfg, policy).inspect_err(|d| {
        record_divergence_flight(ins, d);
    })
}

/// Outcome of arming one mutation canary.
#[derive(Debug)]
pub enum CanaryOutcome {
    /// The harness caught the flipped rule; here is its first observable
    /// effect.
    Detected(Box<Divergence>),
    /// The flipped rule produced identical observables: a harness blind
    /// spot (or a configuration that never exercises the rule).
    Undetected,
}

/// Run the differential pair with `mutation` armed inside the DES and
/// report whether the comparison notices.
pub fn run_canary(cfg: &ExperimentConfig, policy: &str, mutation: Mutation) -> CanaryOutcome {
    let (sim_obs, des_obs, _) = run_both(cfg, policy, mutation);
    match compare_runs(SIM_MODEL, &sim_obs, DES_MODEL, &des_obs, TIME_TOL_S) {
        Err(d) => CanaryOutcome::Detected(d),
        Ok(()) => CanaryOutcome::Undetected,
    }
}

/// Name under which the model-based sweep checker appears in reports.
pub const SWEEP_MODEL: &str = "reuse-aware-sweep";

/// Canary for [`Mutation::HorizonOffByOne`], which is an *equivalent
/// mutant* under the production 2-epoch oracle window (the farthest
/// reachable reuse distance is `2I − h − 1`, strictly inside the horizon,
/// so a differential run cannot observe the flip). It is armed against the
/// model-based sweep checker instead, on the crafted
/// [`horizon_boundary_fixture`] whose 3-epoch window puts a swept sample's
/// next reuse exactly on the `2I − h` threshold: the conformant evictor
/// keeps it, the shrunken horizon evicts it.
pub fn run_boundary_canary() -> CanaryOutcome {
    let fx = horizon_boundary_fixture();
    let epochs: Vec<&EpochSchedule> = fx.epochs.iter().collect();
    let iters = fx.epochs[0].iterations();
    let mut oracle = NodeOracle::build(fx.node, &epochs, 0);
    let mut cache = NodeCache::new(u64::MAX, EvictOrder::SmallestKeyFirst);
    let mut directory = Directory::new(fx.spec.nodes);

    // Replay the first epoch up to the boundary iteration the way the
    // executors do: demand-insert the batch, advance the oracle, sweep.
    for h in 0..=fx.h {
        let batch: Vec<SampleId> = fx.epochs[0].node_iteration(h, fx.node).to_vec();
        for &s in &batch {
            let key =
                ReuseAwareEvictor::priority_key(oracle.future_of(s).map(|f| f.next_iteration));
            if cache.insert(s, 1, key).inserted {
                directory.add(s, fx.node);
            }
        }
        oracle.advance();
        if h < fx.h {
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
        }
    }

    let batch: Vec<SampleId> = fx.epochs[fx.h / iters]
        .node_iteration(fx.h % iters, fx.node)
        .to_vec();
    debug_assert!(
        batch.contains(&fx.sample),
        "fixture sample must be in the swept batch"
    );
    // The fixture must not itself break the conformant evictor.
    if let Err(e) = check_sweep(
        &epochs,
        fx.node,
        0,
        &oracle,
        &cache,
        &directory,
        &batch,
        fx.h,
        iters,
        fx.h as u64,
    ) {
        panic!("boundary fixture broke the conformant evictor: {e}");
    }

    // Recompute the sweep with the horizon shrunk by one (passing `h + 1`
    // mutates exactly the `2I − h` term of the naive model) and diff it
    // against the conformant outcome.
    let consumed = oracle.current_iteration() as usize;
    let honest = naive_sweep_expectation(
        &epochs,
        fx.node,
        0,
        consumed,
        &cache,
        &directory,
        &batch,
        fx.h,
        iters,
        fx.h as u64,
    );
    let mutated = naive_sweep_expectation(
        &epochs,
        fx.node,
        0,
        consumed,
        &cache,
        &directory,
        &batch,
        fx.h + 1,
        iters,
        fx.h as u64,
    );
    if honest == mutated {
        return CanaryOutcome::Undetected;
    }
    CanaryOutcome::Detected(Box::new(Divergence {
        lhs_model: SWEEP_MODEL.to_string(),
        rhs_model: Mutation::HorizonOffByOne.name().to_string(),
        observable: "sweep_eviction".to_string(),
        iteration: Some(fx.h as u64),
        location: format!(
            "node {}, sample {} (reuse distance == 2I − h exactly)",
            fx.node, fx.sample.0
        ),
        lhs: format!(
            "victims {:?}, kept keys {:?}",
            honest.victims, honest.kept_keys
        ),
        rhs: format!(
            "victims {:?}, kept keys {:?}",
            mutated.victims, mutated.kept_keys
        ),
    }))
}

fn run_both(
    cfg: &ExperimentConfig,
    policy: &str,
    mutation: Mutation,
) -> (RunObservables, RunObservables, u64) {
    let sim_policy = policy_by_name(policy)
        .unwrap_or_else(|| panic!("unknown policy {policy:?} (see lobster_core::policy_by_name)"));
    let des_policy = policy_by_name(policy).expect("same registry");
    let (_, sim_obs) = ClusterSim::new(cfg.clone(), sim_policy).run_observed();
    let des_run = DesCluster::new(cfg.clone(), des_policy)
        .with_mutation(mutation)
        .run();
    (sim_obs, des_run.observables, des_run.events)
}

/// Check the live engine's delivery record against the seeded schedule:
/// per-(consumer, iteration) sorted sample multisets, the end-to-end
/// integrity fingerprint, and (when `ins` is enabled) the cache-accounting
/// invariant `cache_hits + cache_misses == fetches`.
pub fn check_engine_delivery(
    dataset: &Dataset,
    cfg: &EngineConfig,
    report: &EngineReport,
    ins: &Instruments,
) -> Result<(), Box<Divergence>> {
    // First divergence lands in the flight recorder (and, with a flight
    // dir configured, on disk) before the caller sees it — the dump then
    // holds the engine's last-K events leading up to the disagreement.
    check_engine_delivery_inner(dataset, cfg, report, ins).inspect_err(|d| {
        record_divergence_flight(ins, d);
    })
}

fn check_engine_delivery_inner(
    dataset: &Dataset,
    cfg: &EngineConfig,
    report: &EngineReport,
    ins: &Instruments,
) -> Result<(), Box<Divergence>> {
    let diverge =
        |observable: &str, iteration: Option<u64>, location: String, lhs: String, rhs: String| {
            Box::new(Divergence {
                lhs_model: ENGINE_MODEL.to_string(),
                rhs_model: SCHEDULE_MODEL.to_string(),
                observable: observable.to_string(),
                iteration,
                location,
                lhs,
                rhs,
            })
        };

    if report.aborted {
        return Err(diverge(
            "run_completion",
            None,
            "run".into(),
            "aborted".into(),
            "drained full schedule".into(),
        ));
    }

    let spec = schedule_spec(dataset, cfg);
    let iters = spec.iterations_per_epoch();
    if report.delivered_samples.len() != cfg.consumers {
        return Err(diverge(
            "delivered",
            None,
            "consumer count".into(),
            format!("{}", report.delivered_samples.len()),
            format!("{}", cfg.consumers),
        ));
    }
    for epoch in 0..cfg.epochs {
        let sched = engine_schedule(spec, epoch, cfg);
        for h in 0..iters {
            let global = epoch * iters as u64 + h as u64;
            for consumer in 0..cfg.consumers {
                let mut want: Vec<u64> = sched
                    .batch(h, 0, consumer)
                    .iter()
                    .map(|s| s.0 as u64)
                    .collect();
                want.sort_unstable();
                let got = report.delivered_samples[consumer].get(global as usize);
                if got != Some(&want) {
                    return Err(diverge(
                        "delivered",
                        Some(global),
                        format!("consumer {consumer}"),
                        format!("{got:?}"),
                        format!("{want:?}"),
                    ));
                }
            }
        }
    }

    let want_integrity = expected_integrity(dataset, cfg);
    if report.integrity != want_integrity {
        return Err(diverge(
            "integrity",
            None,
            "run fingerprint".into(),
            format!("{:#018x}", report.integrity),
            format!("{want_integrity:#018x}"),
        ));
    }

    if ins.is_enabled() {
        let hits = ins.counter("engine.cache_hits").value();
        let misses = ins.counter("engine.cache_misses").value();
        let fetches = ins.counter("engine.fetches").value();
        if hits + misses != fetches {
            return Err(diverge(
                "cache_accounting",
                None,
                "hits + misses vs fetches".into(),
                format!("{hits} + {misses} = {}", hits + misses),
                format!("{fetches}"),
            ));
        }
    }
    Ok(())
}

/// Flatten the engine's delivery record into one sorted multiset per epoch
/// — the exact shape `RunObservables::delivered` uses, so an engine run can
/// be diffed against a simulator run with the same schedule parameters
/// (`W`, `B`, dataset length, seed); the epoch permutation is independent
/// of node topology.
pub fn engine_epoch_multisets(
    report: &EngineReport,
    cfg: &EngineConfig,
    iters: usize,
) -> Vec<Vec<u64>> {
    let mut out = Vec::with_capacity(cfg.epochs as usize);
    for epoch in 0..cfg.epochs as usize {
        let mut epoch_ids = Vec::new();
        for consumer in &report.delivered_samples {
            for iter_ids in consumer.iter().skip(epoch * iters).take(iters) {
                epoch_ids.extend_from_slice(iter_ids);
            }
        }
        epoch_ids.sort_unstable();
        out.push(epoch_ids);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn differential_lobster_seed_7_agrees() {
        let cfg = conformance_config(7);
        let summary = run_differential(&cfg, "lobster").unwrap_or_else(|d| panic!("{d}"));
        assert!(summary.iterations > 0);
        assert!(summary.demand_accesses > 0);
        assert!(summary.des_events > summary.iterations as u64);
    }

    #[test]
    fn elastic_differential_agrees_and_flips_roles() {
        let cfg = elastic_conformance_config(7);
        let summary = run_differential(&cfg, "lobster").unwrap_or_else(|d| panic!("{d}"));
        assert_eq!(summary.iterations, 24);
        // The conformant controller must actually respond to the work-factor
        // step: some tick after it carries a non-empty `flipped`.
        let sim_policy = policy_by_name("lobster").unwrap();
        let (_, obs) = ClusterSim::new(cfg, sim_policy).run_observed();
        let flips: usize = obs
            .iterations
            .iter()
            .flat_map(|it| it.role_flips.iter())
            .map(|r| r.flipped.len())
            .sum();
        assert!(flips > 0, "work-factor step must force role flips");
        for it in &obs.iterations {
            assert_eq!(it.role_flips.len(), 1, "one controller tick per iteration");
            let r = &it.role_flips[0];
            assert_eq!(
                r.loader_queues.iter().sum::<u32>() + r.preproc_after,
                8,
                "pool conserved at iteration {}",
                it.iteration
            );
        }
    }

    #[test]
    fn canary_never_steal_is_detected_on_elastic_config() {
        let cfg = elastic_conformance_config(7);
        match run_canary(&cfg, "lobster", Mutation::NeverSteal) {
            CanaryOutcome::Detected(d) => {
                assert_eq!(d.observable, "role_flips", "{d}");
            }
            CanaryOutcome::Undetected => {
                panic!("harness missed the frozen elastic controller")
            }
        }
    }

    #[test]
    fn never_steal_is_equivalent_on_non_elastic_config() {
        // Documents the canary's blind spot without an elastic pool: the
        // mutation only touches the controller, so a classic configuration
        // cannot see it — which is why `elastic_conformance_config` exists.
        let cfg = conformance_config(7);
        match run_canary(&cfg, "lobster", Mutation::NeverSteal) {
            CanaryOutcome::Undetected => {}
            CanaryOutcome::Detected(d) => {
                panic!("never-steal visible without an elastic pool: {d}")
            }
        }
    }

    #[test]
    fn canary_detector_threshold_is_detected_on_elastic_config() {
        // The 8× work-factor step at epoch 2 shifts the frame stream's
        // timing fields; the mutated thresholds (lower spike bar, shorter
        // warmup) fire differently from the standard bank on the exact same
        // frames, so the anomaly sequence — and only that — diverges.
        let cfg = elastic_conformance_config(7);
        match run_canary(&cfg, "lobster", Mutation::DetectorThreshold) {
            CanaryOutcome::Detected(d) => {
                assert_eq!(d.observable, "anomalies", "{d}");
            }
            CanaryOutcome::Undetected => {
                panic!("harness missed the mutated detector thresholds")
            }
        }
    }

    #[test]
    fn elastic_differential_fires_anomalies_in_both_executors() {
        // The anomaly conformance observable must not be vacuous: the
        // work-factor step has to actually trip a detector.
        let cfg = elastic_conformance_config(7);
        let sim_policy = policy_by_name("lobster").unwrap();
        let (_, obs) = ClusterSim::new(cfg, sim_policy).run_observed();
        assert!(
            !obs.anomalies.is_empty(),
            "work-factor step fired no detector — anomaly conformance is vacuous"
        );
    }

    #[test]
    fn crash_differential_agrees_and_preserves_delivery() {
        let cfg = crash_conformance_config(7);
        let summary = run_differential(&cfg, "lobster").unwrap_or_else(|d| panic!("{d}"));
        assert_eq!(summary.iterations, 16);
        // The crashed node's slice must still be delivered (exactly-once):
        // the per-epoch multiset is schedule-determined, crash or not.
        let sim_policy = policy_by_name("lobster").unwrap();
        let (_, obs) = ClusterSim::new(cfg.clone(), sim_policy).run_observed();
        let mut no_crash = cfg.clone();
        no_crash.crashes.clear();
        let base_policy = policy_by_name("lobster").unwrap();
        let (_, base_obs) = ClusterSim::new(no_crash, base_policy).run_observed();
        assert_eq!(obs.delivered, base_obs.delivered, "exactly-once broken");
        // And the membership sequence is exactly the compiled plan's.
        let want: Vec<_> = cfg
            .crash_plan()
            .membership_timeline(summary.iterations as u64)
            .iter()
            .map(lobster_pipeline::observe::MembershipObservable::from_event)
            .collect();
        assert_eq!(obs.membership_sequence(), want);
        assert!(!want.is_empty(), "vacuous membership sequence");
    }

    #[test]
    fn canary_drop_crash_is_detected_on_crash_config() {
        let cfg = crash_conformance_config(7);
        match run_canary(&cfg, "lobster", Mutation::DropCrash) {
            CanaryOutcome::Detected(d) => {
                assert_eq!(d.observable, "membership", "{d}");
            }
            CanaryOutcome::Undetected => {
                panic!("harness missed the dropped crash schedule")
            }
        }
    }

    #[test]
    fn drop_crash_is_equivalent_without_a_crash_schedule() {
        // Documents the canary's blind spot: without a crash schedule the
        // mutation clears an already-empty plan — which is why
        // `crash_conformance_config` exists.
        let cfg = conformance_config(7);
        match run_canary(&cfg, "lobster", Mutation::DropCrash) {
            CanaryOutcome::Undetected => {}
            CanaryOutcome::Detected(d) => {
                panic!("drop-crash visible without a crash schedule: {d}")
            }
        }
    }

    #[test]
    fn canary_skip_last_copy_guard_is_detected_for_lobster() {
        let cfg = conformance_config(7);
        match run_canary(&cfg, "lobster", Mutation::SkipLastCopyGuard) {
            CanaryOutcome::Detected(d) => {
                assert!(
                    d.observable == "evictions" || d.observable == "tier_counts",
                    "first effect should be an eviction/classification change, got {}",
                    d.observable
                );
            }
            CanaryOutcome::Undetected => panic!("harness missed the last-copy-guard flip"),
        }
    }

    #[test]
    fn boundary_canary_detects_horizon_off_by_one() {
        match run_boundary_canary() {
            CanaryOutcome::Detected(d) => {
                assert_eq!(d.observable, "sweep_eviction");
                assert_eq!(d.rhs_model, Mutation::HorizonOffByOne.name());
                assert!(d.rhs.contains("ReuseDistance"), "{d}");
            }
            CanaryOutcome::Undetected => {
                panic!("crafted boundary schedule failed to expose the shrunken horizon")
            }
        }
    }

    #[test]
    fn workload_families_differential_agrees() {
        for (token, cfg) in workload_conformance_matrix(7) {
            let summary = run_differential(&cfg, "lobster")
                .unwrap_or_else(|d| panic!("workload {token}: {d}"));
            assert!(summary.iterations > 0, "workload {token}");
            assert!(summary.demand_accesses > 0, "workload {token}");
        }
    }

    #[test]
    fn canary_uniform_cost_is_detected_on_bimodal_config() {
        let w = WorkloadSpec::default_for("bimodal", 192).unwrap();
        let cfg = workload_conformance_config(&w, 7);
        match run_canary(&cfg, "lobster", Mutation::UniformCost) {
            CanaryOutcome::Detected(d) => {
                // The wrong t_prep surfaces either directly in the pipeline
                // timing or first through the spare-time prefetch budget it
                // distorts.
                assert!(
                    d.observable == "pipe_s" || d.observable == "prefetched",
                    "first effect should be timing or prefetch budget, got {d}"
                );
            }
            CanaryOutcome::Undetected => {
                panic!("harness missed the mean-collapsed preprocessing cost")
            }
        }
    }

    #[test]
    fn uniform_cost_is_equivalent_on_unit_cost_config() {
        // Documents the canary's blind spot: on a unit-cost dataset the
        // work/byte ratio is exactly 1.0, so the collapse is invisible —
        // which is why the bimodal workload configuration exists.
        let cfg = conformance_config(7);
        match run_canary(&cfg, "lobster", Mutation::UniformCost) {
            CanaryOutcome::Undetected => {}
            CanaryOutcome::Detected(d) => {
                panic!("uniform-cost visible on a unit-cost dataset: {d}")
            }
        }
    }

    #[test]
    fn horizon_off_by_one_is_equivalent_under_production_window() {
        // Documents *why* the boundary canary exists: under the standard
        // 2-epoch window the differential runner cannot see this mutation.
        for seed in [7, 11, 23] {
            let cfg = conformance_config(seed);
            match run_canary(&cfg, "lobster", Mutation::HorizonOffByOne) {
                CanaryOutcome::Undetected => {}
                CanaryOutcome::Detected(d) => panic!(
                    "horizon flip unexpectedly visible in a differential run (seed {seed}): {d}"
                ),
            }
        }
    }
}
