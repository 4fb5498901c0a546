//! Mutation canaries: deliberate single-rule flips in the conformance DES.
//!
//! A differential harness is only as good as its sensitivity. Each variant
//! here flips exactly one §4.4 eviction/prefetch rule *inside the
//! conformance executor only* (production code paths never see these), and
//! the canary mode asserts the differential runner detects the flip as a
//! divergence. A canary that goes undetected means the harness has a blind
//! spot and the CI gate fails.

use serde::{Deserialize, Serialize};

/// Which single rule the DES deliberately gets wrong.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Mutation {
    /// No mutation: the conformant executor.
    None,
    /// Drop the "unless no other node holds a copy" guard of the
    /// reuse-count policy: dead samples are evicted even when they are the
    /// last copy anywhere.
    SkipLastCopyGuard,
    /// Shrink the reuse-distance horizon from `2I − h` to `2I − h − 1`,
    /// evicting samples whose next reuse sits exactly on the threshold.
    HorizonOffByOne,
    /// Invert the prefetch-coordination guard: prefetching displaces
    /// *sooner*-needed residents instead of stopping for them.
    InvertPrefetchGuard,
    /// Use LRU clocks instead of reuse-distance priority keys on insert
    /// under the ReuseAware strategy (wrong capacity-victim order).
    CapacityKeyLru,
    /// Freeze the elastic worker-pool controller at its initial split: a
    /// controller that refuses to flip roles when the preprocessing work
    /// factor steps up mid-run. Only observable on elastic configurations
    /// (the role-flip decision sequence diverges at the step).
    NeverSteal,
    /// Ignore the crash schedule entirely: the DES keeps every node alive.
    /// Only observable on configurations with a crash schedule (the
    /// membership-transition sequence diverges at the first crash tick, and
    /// the tier splits diverge once the survivors' fostered batches go
    /// missing).
    DropCrash,
    /// Run the telemetry detector bank with mutated thresholds (lower spike
    /// bar, shorter warmup, inverted CUSUM slack). The per-tick frames stay
    /// identical; only the anomaly sequence diverges — proving the harness
    /// compares detector output itself, not just the inputs it's fed.
    DetectorThreshold,
    /// Collapse per-sample preprocessing cost to the dataset-wide mean when
    /// sizing `t_prep` — the exact simplification a mean-based
    /// implementation would make. Equivalent on unit-cost datasets (the
    /// ratio is exactly 1.0); on a bimodal-cost workload the per-node work
    /// diverges whenever a batch's slow-sample mix departs from the mean.
    UniformCost,
}

impl Mutation {
    /// CLI / report name of the flipped rule.
    pub fn name(self) -> &'static str {
        match self {
            Mutation::None => "none",
            Mutation::SkipLastCopyGuard => "skip-last-copy-guard",
            Mutation::HorizonOffByOne => "horizon-off-by-one",
            Mutation::InvertPrefetchGuard => "invert-prefetch-guard",
            Mutation::CapacityKeyLru => "capacity-key-lru",
            Mutation::NeverSteal => "never-steal",
            Mutation::DropCrash => "drop-crash",
            Mutation::DetectorThreshold => "detector-threshold",
            Mutation::UniformCost => "uniform-cost",
        }
    }

    /// Every real mutation (excluding `None`).
    pub fn all() -> [Mutation; 8] {
        [
            Mutation::SkipLastCopyGuard,
            Mutation::HorizonOffByOne,
            Mutation::InvertPrefetchGuard,
            Mutation::CapacityKeyLru,
            Mutation::NeverSteal,
            Mutation::DropCrash,
            Mutation::DetectorThreshold,
            Mutation::UniformCost,
        ]
    }
}
