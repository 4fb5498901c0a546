//! Integration tests for the beyond-paper extension features: fault
//! injection, KV-partitioned caching, the MinIO baseline, and partition
//! schemes.

use lobster_repro::core::policy_by_name;
use lobster_repro::data::{imagenet_1k, PartitionScheme};
use lobster_repro::pipeline::{ClusterSim, ConfigBuilder, ExperimentConfig};
use lobster_repro::storage::SlowdownProfile;

fn base_cfg(nodes: usize) -> ExperimentConfig {
    ConfigBuilder::new()
        .nodes(nodes)
        .gpus_per_node(4)
        .batch_size(16)
        .cache_bytes((40u64 << 30) / 512)
        .epochs(3)
        .dataset(imagenet_1k(512, 42))
        .build()
}

/// A slow node costs every policy time, and the adaptive policy degrades
/// no more than the static one — for a constant straggler and for one
/// that flaps between nominal and 2× speed every 5 s.
#[test]
fn slow_node_costs_time_and_adaptive_absorbs_part_of_it() {
    let nominal_pt = ClusterSim::new(base_cfg(4), policy_by_name("pytorch").unwrap())
        .run()
        .0;
    let nominal_lb = ClusterSim::new(base_cfg(4), policy_by_name("lobster").unwrap())
        .run()
        .0;

    let flap = SlowdownProfile::Flap {
        period_s: 5.0,
        lo: 1.0,
        hi: 2.0,
    };
    for profiles in [
        SlowdownProfile::constants(&[1.0, 1.0, 2.5, 1.0]),
        vec![SlowdownProfile::NOMINAL, flap],
    ] {
        let slow = |mut c: ExperimentConfig| {
            c.node_slowdown = profiles.clone();
            c
        };
        let slow_pt = ClusterSim::new(slow(base_cfg(4)), policy_by_name("pytorch").unwrap())
            .run()
            .0;
        let slow_lb = ClusterSim::new(slow(base_cfg(4)), policy_by_name("lobster").unwrap())
            .run()
            .0;

        // The fault costs everyone something…
        assert!(
            slow_pt.mean_epoch_s() > nominal_pt.mean_epoch_s(),
            "{profiles:?}"
        );
        // …but the adaptive policy degrades no more than the static one.
        let pt_factor = slow_pt.mean_epoch_s() / nominal_pt.mean_epoch_s();
        let lb_factor = slow_lb.mean_epoch_s() / nominal_lb.mean_epoch_s();
        assert!(
            lb_factor <= pt_factor + 0.02,
            "{profiles:?}: lobster degraded {lb_factor:.2}x vs pytorch {pt_factor:.2}x"
        );
    }
}

#[test]
fn kv_partitioning_trades_local_hits_for_remote_hits() {
    let rep = ClusterSim::new(base_cfg(4), policy_by_name("lobster").unwrap())
        .run()
        .0;
    let mut cfg = base_cfg(4);
    cfg.kv_partitioned = true;
    let kv = ClusterSim::new(cfg, policy_by_name("lobster").unwrap())
        .run()
        .0;

    // Accounting still balances under KV placement.
    for e in &kv.epochs {
        assert!(e.local_hits + e.remote_hits + e.misses > 0);
    }
    // Hash-owner placement serves most hits remotely.
    let remote_kv: u64 = kv.steady_epochs().iter().map(|e| e.remote_hits).sum();
    let remote_rep: u64 = rep.steady_epochs().iter().map(|e| e.remote_hits).sum();
    assert!(
        remote_kv > remote_rep,
        "KV placement must shift traffic to the remote tier: {remote_kv} vs {remote_rep}"
    );
    // And its local hit ratio cannot beat consume-side replication.
    assert!(kv.mean_hit_ratio() <= rep.mean_hit_ratio() + 1e-9);
}

#[test]
fn minio_beats_lru_but_not_reuse_aware_eviction() {
    let pt = ClusterSim::new(base_cfg(1), policy_by_name("pytorch").unwrap())
        .run()
        .0;
    let minio = ClusterSim::new(base_cfg(1), policy_by_name("minio").unwrap())
        .run()
        .0;
    let lobster = ClusterSim::new(base_cfg(1), policy_by_name("lobster").unwrap())
        .run()
        .0;
    // Pinning a static subset beats pure LRU churn on permutation streams…
    assert!(
        minio.mean_hit_ratio() > pt.mean_hit_ratio(),
        "minio {} vs pytorch {}",
        minio.mean_hit_ratio(),
        pt.mean_hit_ratio()
    );
    // …but loses to reuse-distance-aware eviction.
    assert!(minio.mean_hit_ratio() < lobster.mean_hit_ratio());
}

#[test]
fn node_local_shuffle_with_fitting_shard_is_near_perfect_for_everyone() {
    // Shard ≈ cache: after warm-up every access hits locally, even for the
    // recency-based baseline.
    let mut cfg = base_cfg(4);
    cfg.partition = PartitionScheme::NodeLocalShuffle;
    // Cache sized to hold a full shard comfortably.
    cfg.cluster.cache_bytes = cfg.dataset.total_bytes() / 3;
    let pt = ClusterSim::new(cfg, policy_by_name("pytorch").unwrap())
        .run()
        .0;
    assert!(
        pt.mean_hit_ratio() > 0.9,
        "local shuffle with fitting shard should hit ~100%: {}",
        pt.mean_hit_ratio()
    );
}

#[test]
fn global_shuffle_is_the_harder_regime() {
    let mut local_cfg = base_cfg(4);
    local_cfg.partition = PartitionScheme::NodeLocalShuffle;
    local_cfg.cluster.cache_bytes = local_cfg.dataset.total_bytes() / 3;
    let mut global_cfg = base_cfg(4);
    global_cfg.cluster.cache_bytes = global_cfg.dataset.total_bytes() / 3;

    let local = ClusterSim::new(local_cfg, policy_by_name("pytorch").unwrap())
        .run()
        .0;
    let global = ClusterSim::new(global_cfg, policy_by_name("pytorch").unwrap())
        .run()
        .0;
    assert!(
        global.mean_hit_ratio() < local.mean_hit_ratio(),
        "global shuffle must be harder on the cache: {} vs {}",
        global.mean_hit_ratio(),
        local.mean_hit_ratio()
    );
}
