//! # lobster-pipeline
//!
//! The cluster training-pipeline executor: runs any
//! [`lobster_core::LoaderPolicy`] against a simulated data-parallel cluster
//! (caches, distributed directory, storage tiers, pipeline overlap,
//! gradient-barrier semantics) and produces the measurements every figure of
//! the paper's evaluation is built from.
//!
//! * [`config`] — experiment configuration and builder.
//! * [`executor`] — the iteration-level simulation ([`executor::ClusterSim`]).
//! * [`trace`] — per-GPU per-iteration records (Figure 3).
//! * [`accuracy`] — the Figure 9 learning-curve model.

pub mod accuracy;
pub mod config;
pub mod executor;
pub mod observe;
pub mod planner;
pub mod trace;

pub use accuracy::{max_gap, simulate_accuracy, AccuracyCurve};
pub use config::{ConfigBuilder, ElasticSimConfig, ExperimentConfig};
pub use executor::{ClusterSim, EpochReport, RunReport};
pub use observe::{
    DecisionObservable, EvictReason, EvictionEvent, IterationObservables, MembershipObservable,
    RoleFlipObservable, RunObservables,
};
pub use planner::{precompute_plan, PlannedPolicy, TrainingPlan};
pub use trace::{IterationRecord, TraceCollector};

#[cfg(test)]
mod tests {
    use super::*;
    use lobster_core::policies::{LobsterPolicy, NoPfsPolicy, PyTorchPolicy};
    use lobster_data::{Dataset, SizeDistribution};

    /// A small but non-trivial config: 2 nodes × 2 GPUs, cache holds ~25% of
    /// the dataset, so every tier gets exercised.
    fn small_cfg(epochs: u64) -> ExperimentConfig {
        let dataset = Dataset::generate(
            "unit",
            8_192,
            SizeDistribution::Constant { bytes: 100_000 },
            7,
        );
        let total = dataset.total_bytes();
        ConfigBuilder::new()
            .nodes(2)
            .gpus_per_node(2)
            .batch_size(16)
            .cache_bytes(total / 8) // 25% of the dataset across both nodes
            .pipeline_threads(16)
            .epochs(epochs)
            .dataset(dataset)
            .build()
    }

    #[test]
    fn executor_is_deterministic() {
        let (a, _) = ClusterSim::new(small_cfg(2), Box::new(PyTorchPolicy::default())).run();
        let (b, _) = ClusterSim::new(small_cfg(2), Box::new(PyTorchPolicy::default())).run();
        assert_eq!(a.total_wall_s, b.total_wall_s);
        assert_eq!(a.epochs[1].local_hits, b.epochs[1].local_hits);
        assert_eq!(
            a.epochs[1].imbalanced_iterations,
            b.epochs[1].imbalanced_iterations
        );
    }

    #[test]
    fn all_accesses_are_accounted() {
        let cfg = small_cfg(2);
        let per_epoch =
            (cfg.iterations_per_epoch() * cfg.cluster.batch_size * cfg.cluster.world_size()) as u64;
        let (r, _) = ClusterSim::new(cfg, Box::new(PyTorchPolicy::default())).run();
        for e in &r.epochs {
            assert_eq!(e.local_hits + e.remote_hits + e.misses, per_epoch);
        }
    }

    #[test]
    fn warm_cache_beats_cold_cache() {
        let (r, _) = ClusterSim::new(small_cfg(3), Box::new(PyTorchPolicy::default())).run();
        // Epoch 0 is all misses at first touch; later epochs must hit.
        assert!(r.epochs[1].hit_ratio() > 0.0);
        assert!(r.epochs[0].misses > r.epochs[1].misses);
    }

    #[test]
    fn prefetching_raises_hit_ratio() {
        let (pt, _) = ClusterSim::new(small_cfg(3), Box::new(PyTorchPolicy::default())).run();
        let (nf, _) = ClusterSim::new(small_cfg(3), Box::new(NoPfsPolicy::new())).run();
        assert!(
            nf.mean_hit_ratio() > pt.mean_hit_ratio(),
            "nopfs {} vs pytorch {}",
            nf.mean_hit_ratio(),
            pt.mean_hit_ratio()
        );
        assert!(nf.epochs.iter().map(|e| e.prefetched).sum::<u64>() > 0);
    }

    #[test]
    fn lobster_beats_nopfs_on_hits_and_time() {
        let (nf, _) = ClusterSim::new(small_cfg(3), Box::new(NoPfsPolicy::new())).run();
        let (lb, _) = ClusterSim::new(small_cfg(3), Box::new(LobsterPolicy::full())).run();
        assert!(
            lb.mean_hit_ratio() >= nf.mean_hit_ratio(),
            "lobster {} vs nopfs {}",
            lb.mean_hit_ratio(),
            nf.mean_hit_ratio()
        );
        assert!(
            lb.mean_epoch_s() <= nf.mean_epoch_s() * 1.05,
            "lobster {} vs nopfs {}",
            lb.mean_epoch_s(),
            nf.mean_epoch_s()
        );
    }

    #[test]
    fn trace_collects_requested_window() {
        let cfg = small_cfg(2);
        let iters = cfg.iterations_per_epoch() as u64;
        let world = cfg.cluster.world_size();
        let sim = ClusterSim::new(cfg, Box::new(PyTorchPolicy::default()))
            .with_trace(TraceCollector::figure3(iters));
        let (_, trace) = sim.run();
        let trace = trace.expect("trace requested");
        assert!(!trace.is_empty());
        // 24 iterations × world GPUs (windows may overlap on tiny epochs).
        assert!(trace.records().len() <= 24 * world);
        assert!(!trace.for_gpu(0, 0).is_empty());
        assert!(!trace.for_gpu(1, 1).is_empty());
    }

    #[test]
    fn epoch_walls_sum_to_total() {
        let (r, _) = ClusterSim::new(small_cfg(3), Box::new(LobsterPolicy::full())).run();
        let sum: f64 = r.epochs.iter().map(|e| e.wall_s).sum();
        assert!((sum - r.total_wall_s).abs() < 1e-6);
        assert!(r.epochs.iter().all(|e| e.wall_s > 0.0));
    }

    #[test]
    fn gpu_utilization_is_a_fraction() {
        let (r, _) = ClusterSim::new(small_cfg(2), Box::new(LobsterPolicy::full())).run();
        for e in &r.epochs {
            assert!(e.gpu_utilization > 0.0 && e.gpu_utilization <= 1.0, "{e:?}");
        }
    }

    #[test]
    fn reuse_aware_runs_proactive_evictions() {
        let (r, _) = ClusterSim::new(small_cfg(3), Box::new(LobsterPolicy::full())).run();
        let total: u64 = r
            .epochs
            .iter()
            .map(|e| e.evict.by_reuse_count + e.evict.by_reuse_distance)
            .sum();
        assert!(
            total > 0,
            "Lobster must proactively evict: {:?}",
            r.epochs[1].evict
        );
    }
}
