//! The holistic performance model of §4.3 (Table 1, Equations 1–3).
//!
//! Notation mapping (paper → code):
//!
//! | Paper | Code |
//! |---|---|
//! | `N`, `M` | [`ClusterSpec::nodes`], [`ClusterSpec::gpus_per_node`] |
//! | `Mem` | [`ClusterSpec::cache_bytes`] |
//! | `|B|` | [`ClusterSpec::batch_size`] |
//! | `I` | [`ClusterSpec::iterations_per_epoch`] |
//! | `B_HL`, `B_HR`, `B_M` | [`TierBreakdown`] local/remote/pfs fields |
//! | `T_l(α)`, `T_r(β)`, `T_PFS(γ)` | `lobster_storage::StorageModel` curves |
//! | `α_{i,j}, β_{i,j}, γ_{i,j}` | [`ThreadAlloc`] |
//! | Eq. 1 `T_L(n_i, B^{h,i,j})` | [`load_time_secs`] |
//! | Eq. 2 objective | [`stage_gap_secs`] |
//! | Eq. 3 objective | [`imbalance_gap_secs`] |

use lobster_storage::{StorageModel, Tier};
use serde::{Deserialize, Serialize};

/// Static cluster topology and training parameters (Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClusterSpec {
    /// Number of compute nodes `N`.
    pub nodes: usize,
    /// GPUs per node `M`.
    pub gpus_per_node: usize,
    /// Host memory dedicated to the sample cache per node, `Mem`.
    pub cache_bytes: u64,
    /// CPU threads available to the data pipeline per node (loading +
    /// preprocessing combined).
    pub pipeline_threads: u32,
    /// Mini-batch size per GPU `|B|`.
    pub batch_size: usize,
}

impl ClusterSpec {
    /// Iterations per epoch for a dataset of `dataset_len` samples:
    /// `I = ⌊|D| / (|B|·N·M)⌋`.
    pub fn iterations_per_epoch(&self, dataset_len: usize) -> usize {
        dataset_len / (self.batch_size * self.nodes * self.gpus_per_node)
    }

    /// Total GPU count `N × M`.
    pub fn world_size(&self) -> usize {
        self.nodes * self.gpus_per_node
    }
}

/// Where a mini-batch's bytes come from: the split of `B^{h,i,j}` into
/// `B_HL ∪ B_HR ∪ B_M`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct TierBreakdown {
    pub local_bytes: f64,
    pub remote_bytes: f64,
    pub pfs_bytes: f64,
    pub local_count: u64,
    pub remote_count: u64,
    pub pfs_count: u64,
}

impl TierBreakdown {
    pub fn total_bytes(&self) -> f64 {
        self.local_bytes + self.remote_bytes + self.pfs_bytes
    }

    pub fn total_count(&self) -> u64 {
        self.local_count + self.remote_count + self.pfs_count
    }

    /// Add one sample's bytes to the given tier.
    pub fn add(&mut self, tier: Tier, bytes: u64) {
        match tier {
            Tier::LocalCache => {
                self.local_bytes += bytes as f64;
                self.local_count += 1;
            }
            Tier::RemoteCache => {
                self.remote_bytes += bytes as f64;
                self.remote_count += 1;
            }
            Tier::Pfs => {
                self.pfs_bytes += bytes as f64;
                self.pfs_count += 1;
            }
        }
    }

    /// Fold another breakdown into this one — used when a dead node's
    /// batch is fostered onto a survivor, whose loader then carries both.
    pub fn merge(&mut self, other: &TierBreakdown) {
        self.local_bytes += other.local_bytes;
        self.remote_bytes += other.remote_bytes;
        self.pfs_bytes += other.pfs_bytes;
        self.local_count += other.local_count;
        self.remote_count += other.remote_count;
        self.pfs_count += other.pfs_count;
    }
}

/// Per-GPU data-loading thread allocation: `α`, `β`, `γ` of Eq. 1. Lobster's
/// planner usually sets all three to the GPU's thread share; keeping them
/// separate preserves the paper's formulation (and lets tests skew them).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ThreadAlloc {
    /// Threads reading the local cache (`α`).
    pub alpha: u32,
    /// Threads reading remote caches (`β`).
    pub beta: u32,
    /// Threads reading the PFS (`γ`).
    pub gamma: u32,
}

impl ThreadAlloc {
    /// All three tiers served by the same `threads` threads — the common
    /// case where a GPU's loading threads pull from wherever the sample is.
    pub fn uniform(threads: u32) -> ThreadAlloc {
        ThreadAlloc {
            alpha: threads,
            beta: threads,
            gamma: threads,
        }
    }

    /// The largest of the three allocations (the GPU's effective thread
    /// footprint on the shared pool).
    pub fn footprint(&self) -> u32 {
        self.alpha.max(self.beta).max(self.gamma)
    }
}

/// Equation 1, decomposed: per-tier bandwidth and latency durations of
/// loading mini-batch `B^{h,i,j}`. The executor uses the decomposition to
/// apply intra-node overcommit corrections to the *bandwidth* parts only —
/// per-request latency keeps amortizing with threads even when the shared
/// medium is saturated.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LoadTimeParts {
    pub local_bw_s: f64,
    pub local_lat_s: f64,
    pub remote_bw_s: f64,
    pub remote_lat_s: f64,
    pub pfs_bw_s: f64,
    pub pfs_lat_s: f64,
}

impl LoadTimeParts {
    /// Total load time without overcommit corrections (Eq. 1 as written).
    pub fn total_secs(&self) -> f64 {
        self.local_bw_s
            + self.local_lat_s
            + self.remote_bw_s
            + self.remote_lat_s
            + self.pfs_bw_s
            + self.pfs_lat_s
    }

    /// Total with bandwidth-overcommit factors applied to the shared tiers.
    pub fn total_with_overcommit(&self, remote_factor: f64, pfs_factor: f64) -> f64 {
        self.local_bw_s
            + self.local_lat_s
            + self.remote_bw_s * remote_factor.max(1.0)
            + self.remote_lat_s
            + self.pfs_bw_s * pfs_factor.max(1.0)
            + self.pfs_lat_s
    }
}

/// Compute the Eq. 1 decomposition for one GPU's tier split. `reading_nodes`
/// feeds the PFS congestion factor (the paper folds this into its "globally
/// stable average" `T_PFS`).
pub fn load_time_parts(
    storage: &StorageModel,
    split: &TierBreakdown,
    alloc: ThreadAlloc,
    reading_nodes: usize,
) -> LoadTimeParts {
    let mut parts = LoadTimeParts::default();
    if split.local_count > 0 {
        let (bw, lat) = storage.read_secs_parts(
            Tier::LocalCache,
            split.local_bytes,
            split.local_count,
            alloc.alpha,
            1,
        );
        parts.local_bw_s = bw;
        parts.local_lat_s = lat;
    }
    if split.remote_count > 0 {
        let (bw, lat) = storage.read_secs_parts(
            Tier::RemoteCache,
            split.remote_bytes,
            split.remote_count,
            alloc.beta,
            1,
        );
        parts.remote_bw_s = bw;
        parts.remote_lat_s = lat;
    }
    if split.pfs_count > 0 {
        let (bw, lat) = storage.read_secs_parts(
            Tier::Pfs,
            split.pfs_bytes,
            split.pfs_count,
            alloc.gamma,
            reading_nodes,
        );
        parts.pfs_bw_s = bw;
        parts.pfs_lat_s = lat;
    }
    parts
}

/// Equation 1: the total duration of loading mini-batch `B^{h,i,j}` given
/// its tier breakdown and thread allocation.
pub fn load_time_secs(
    storage: &StorageModel,
    split: &TierBreakdown,
    alloc: ThreadAlloc,
    reading_nodes: usize,
) -> f64 {
    load_time_parts(storage, split, alloc, reading_nodes).total_secs()
}

/// Equation 2 (inner expression): how far loading + preprocessing is from
/// hiding behind training. We return the *signed* difference
/// `T_train − (T_L + T_P)` so that a **negative** value means the pipeline
/// is the bottleneck (needs more threads) and a positive value means slack
/// (threads can be reclaimed) — the orientation Algorithm 1's binary search
/// uses.
pub fn stage_gap_secs(t_load: f64, t_preproc: f64, t_train: f64) -> f64 {
    t_train - (t_load + t_preproc)
}

/// Equation 3: the straggler gap `|T_max − T_min|` across a node's GPUs for
/// one iteration, where each GPU's iteration time is the larger of the
/// training stage and its pipeline stages.
pub fn imbalance_gap_secs(per_gpu_iter_secs: &[f64]) -> f64 {
    if per_gpu_iter_secs.is_empty() {
        return 0.0;
    }
    let max = per_gpu_iter_secs
        .iter()
        .copied()
        .fold(f64::NEG_INFINITY, f64::max);
    let min = per_gpu_iter_secs
        .iter()
        .copied()
        .fold(f64::INFINITY, f64::min);
    max - min
}

#[cfg(test)]
mod tests {
    use super::*;
    use lobster_storage::thetagpu;

    fn split(local: f64, remote: f64, pfs: f64) -> TierBreakdown {
        TierBreakdown {
            local_bytes: local,
            remote_bytes: remote,
            pfs_bytes: pfs,
            local_count: (local > 0.0) as u64,
            remote_count: (remote > 0.0) as u64,
            pfs_count: (pfs > 0.0) as u64,
        }
    }

    #[test]
    fn iterations_match_paper_configurations() {
        // §5.3: single node 8 GPUs, ImageNet-22K, batch 32 → 55,457 iters.
        let single = ClusterSpec {
            nodes: 1,
            gpus_per_node: 8,
            cache_bytes: 40 << 30,
            pipeline_threads: 32,
            batch_size: 32,
        };
        assert_eq!(single.iterations_per_epoch(14_197_103), 55_457);
        // §5.3: 8 nodes × 8 GPUs → 6932 iterations.
        let multi = ClusterSpec { nodes: 8, ..single };
        assert_eq!(multi.iterations_per_epoch(14_197_103), 6_932);
        assert_eq!(multi.world_size(), 64);
    }

    #[test]
    fn load_time_is_additive_over_tiers() {
        let m = thetagpu();
        let a = ThreadAlloc::uniform(4);
        let local_only = load_time_secs(&m, &split(1e9, 0.0, 0.0), a, 1);
        let pfs_only = load_time_secs(&m, &split(0.0, 0.0, 1e9), a, 1);
        let both = load_time_secs(&m, &split(1e9, 0.0, 1e9), a, 1);
        assert!((both - (local_only + pfs_only)).abs() < 1e-9);
    }

    #[test]
    fn pfs_reads_dominate_local_reads() {
        // The premise of the whole paper: a miss is orders of magnitude
        // slower than a local hit.
        let m = thetagpu();
        let a = ThreadAlloc::uniform(2);
        let local = load_time_secs(&m, &split(1e8, 0.0, 0.0), a, 1);
        let pfs = load_time_secs(&m, &split(0.0, 0.0, 1e8), a, 8);
        assert!(pfs > 10.0 * local, "pfs {pfs} vs local {local}");
    }

    #[test]
    fn more_threads_reduce_load_time_until_saturation() {
        let m = thetagpu();
        let s = split(0.0, 0.0, 1e9);
        let t1 = load_time_secs(&m, &s, ThreadAlloc::uniform(1), 1);
        let t4 = load_time_secs(&m, &s, ThreadAlloc::uniform(4), 1);
        let t64 = load_time_secs(&m, &s, ThreadAlloc::uniform(64), 1);
        assert!(t4 < t1);
        assert!(t64 <= t4);
        // Saturation: beyond the knee (and with the single request already
        // indivisible) more threads stop helping.
        let t128 = load_time_secs(&m, &s, ThreadAlloc::uniform(128), 1);
        assert!((t128 - t64).abs() < 1e-9, "t64={t64} t128={t128}");
    }

    #[test]
    fn stage_gap_sign_convention() {
        // Loading bottleneck → negative.
        assert!(stage_gap_secs(0.3, 0.1, 0.2) < 0.0);
        // Fully hidden → positive slack.
        assert!(stage_gap_secs(0.05, 0.05, 0.2) > 0.0);
        assert_eq!(stage_gap_secs(0.1, 0.1, 0.2), 0.0);
    }

    #[test]
    fn imbalance_gap_measures_spread() {
        assert_eq!(imbalance_gap_secs(&[0.2, 0.2, 0.2]), 0.0);
        assert!((imbalance_gap_secs(&[0.2, 0.5, 0.3]) - 0.3).abs() < 1e-12);
        assert_eq!(imbalance_gap_secs(&[]), 0.0);
    }

    #[test]
    fn empty_split_loads_instantly() {
        let m = thetagpu();
        assert_eq!(
            load_time_secs(&m, &TierBreakdown::default(), ThreadAlloc::uniform(4), 1),
            0.0
        );
    }

    #[test]
    fn thread_alloc_footprint() {
        let a = ThreadAlloc {
            alpha: 2,
            beta: 5,
            gamma: 3,
        };
        assert_eq!(a.footprint(), 5);
        assert_eq!(ThreadAlloc::uniform(4).footprint(), 4);
    }
}
