//! The workload scenario layer (DESIGN.md §15).
//!
//! Every experiment so far replayed one workload shape: fixed-cardinality
//! vision epochs with near-uniform sample sizes and unit per-sample
//! preprocessing cost. This module generalizes the *inputs* of the whole
//! pipeline — sample sizes, per-sample preprocessing costs, and the access
//! pattern — into a seeded, declarative [`WorkloadSpec`] with five
//! families:
//!
//! * **zipf** — Zipf-skewed sample popularity, drawn with replacement:
//!   a few samples dominate every epoch (web-scale click/rank data).
//! * **heavy-tail** — log-normal sample sizes with a large σ, the shape of
//!   NLP token-length distributions: most documents are short, a long tail
//!   is enormous.
//! * **bimodal** — a fast/slow per-sample preprocessing cost mixture
//!   (MinatoLoader's motivating observation): a fraction of samples costs
//!   a large multiple of the rest.
//! * **growing** — an online/growing dataset that admits new samples at
//!   epoch boundaries; epoch `e` shuffles only the admitted prefix.
//! * **drift** — heterogeneous-node compute drift: node `i` ramps toward a
//!   per-node slowdown factor over the run ("Semi-Dynamic Load
//!   Balancing"'s non-dedicated clusters).
//!
//! **Determinism contract:** everything here is a pure function of
//! `(seed, spec)` — same seed and spec produce byte-identical size tables,
//! cost tables, and per-epoch access orders, on every executor. Generators
//! only use [`Xoshiro256StarStar`] streams derived with [`derive_seed`]
//! and salted per purpose, so adding a family never perturbs another.
//!
//! Skew enters the paper's model unchanged: Eq. 1's tier times use the
//! *actual* batch bytes of the scheduled samples, Eq. 3's gap emerges from
//! per-node byte/work imbalance, and Algorithm 1 plus the elastic
//! controller see per-sample *work* (`size · cost`) through
//! [`Dataset::work_bytes_of`].

use crate::dataset::{Dataset, SampleId, SizeDistribution};
use crate::partition::{self, PartitionScheme};
use crate::schedule::{EpochSchedule, ScheduleSpec};
use lobster_sim::{derive_seed, Xoshiro256StarStar};
use serde::{Deserialize, Serialize};

/// Seed salts: one RNG stream per generator purpose, so the draw of one
/// table never shifts another.
const SALT_POPULARITY: u64 = 0x5A1F_0001;
const SALT_ZIPF_DRAW: u64 = 0x5A1F_0002;
const SALT_COSTS: u64 = 0x5A1F_0003;
const SALT_GROWING: u64 = 0x5A1F_0004;

/// How an epoch's sample accesses are ordered. [`EpochShuffle`]
/// (`AccessPattern::EpochShuffle`) is the paper's `DistributedSampler`;
/// the other patterns repackage their orders through
/// [`EpochSchedule::from_order`] so every consumer (oracle, executors,
/// conformance) works unchanged.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub enum AccessPattern {
    /// Every sample exactly once per epoch (the paper's setting).
    #[default]
    EpochShuffle,
    /// Draw every slot i.i.d. with replacement from a Zipf(`s`)
    /// popularity law; rank `r` has weight `(r+1)^-s`, and ranks map to
    /// sample ids through a seed-fixed permutation so the *same* samples
    /// stay popular across epochs.
    ZipfReplacement { s: f64 },
    /// Epoch `e` shuffles only the admitted prefix of the id space:
    /// `admitted(e) = ⌈len · min(1, initial + growth·e)⌉`. Admission is
    /// monotone and changes only at epoch boundaries; the shuffled prefix
    /// is cycled to fill the epoch's fixed slot count.
    GrowingPrefix { initial: f64, growth: f64 },
}

impl AccessPattern {
    /// Samples admitted under this pattern at `epoch` (the full dataset
    /// except for [`AccessPattern::GrowingPrefix`]). Monotone in `epoch`.
    pub fn admitted_len(self, dataset_len: usize, epoch: u64) -> usize {
        match self {
            AccessPattern::GrowingPrefix { initial, growth } => {
                let frac = (initial + growth * epoch as f64).clamp(0.0, 1.0);
                ((dataset_len as f64 * frac).ceil() as usize).clamp(1, dataset_len)
            }
            _ => dataset_len,
        }
    }
}

/// Generate the epoch schedule for any access pattern. The
/// [`PartitionScheme`] applies only to [`AccessPattern::EpochShuffle`]
/// (the other patterns define their own global orders).
pub fn generate_access(
    spec: ScheduleSpec,
    epoch: u64,
    scheme: PartitionScheme,
    pattern: AccessPattern,
) -> EpochSchedule {
    match pattern {
        AccessPattern::EpochShuffle => partition::generate(spec, epoch, scheme),
        AccessPattern::ZipfReplacement { s } => generate_zipf(spec, epoch, s),
        AccessPattern::GrowingPrefix { initial, growth } => {
            generate_growing(spec, epoch, initial, growth)
        }
    }
}

/// Unnormalized Zipf cumulative weights over `n` ranks.
fn zipf_cumulative(n: usize, s: f64) -> Vec<f64> {
    let mut cum = Vec::with_capacity(n);
    let mut total = 0.0;
    for r in 0..n {
        total += ((r + 1) as f64).powf(-s);
        cum.push(total);
    }
    cum
}

fn generate_zipf(spec: ScheduleSpec, epoch: u64, s: f64) -> EpochSchedule {
    let n = spec.dataset_len;
    // Popularity ranks → ids: fixed across epochs (derived from the base
    // seed only), so caches see a stable hot set.
    let mut ids: Vec<SampleId> = (0..n as u32).map(SampleId).collect();
    let mut pop_rng =
        Xoshiro256StarStar::seed_from_u64(derive_seed(spec.seed ^ SALT_POPULARITY, 0));
    pop_rng.shuffle(&mut ids);

    let cum = zipf_cumulative(n, s);
    let total = *cum.last().expect("non-empty dataset");
    let slots = spec.iterations_per_epoch() * spec.samples_per_iteration();
    let mut rng = Xoshiro256StarStar::seed_from_u64(derive_seed(spec.seed ^ SALT_ZIPF_DRAW, epoch));
    let mut order = Vec::with_capacity(slots);
    for _ in 0..slots {
        let u = rng.next_f64() * total;
        let rank = cum.partition_point(|&c| c < u).min(n - 1);
        order.push(ids[rank]);
    }
    EpochSchedule::from_order(spec, epoch, order)
}

fn generate_growing(spec: ScheduleSpec, epoch: u64, initial: f64, growth: f64) -> EpochSchedule {
    let pattern = AccessPattern::GrowingPrefix { initial, growth };
    let admitted = pattern.admitted_len(spec.dataset_len, epoch);
    let mut ids: Vec<SampleId> = (0..admitted as u32).map(SampleId).collect();
    let mut rng = Xoshiro256StarStar::seed_from_u64(derive_seed(spec.seed ^ SALT_GROWING, epoch));
    rng.shuffle(&mut ids);
    let slots = spec.iterations_per_epoch() * spec.samples_per_iteration();
    let order: Vec<SampleId> = (0..slots).map(|i| ids[i % admitted]).collect();
    EpochSchedule::from_order(spec, epoch, order)
}

/// One of the five workload families, with its shape parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum WorkloadFamily {
    /// Zipf-skewed popularity, accessed with replacement (exponent `s`).
    ZipfSkew { s: f64 },
    /// Heavy-tailed (log-normal) sample sizes: `median_bytes` is the
    /// median document size, `sigma` the log-space standard deviation.
    HeavyTail { median_bytes: u64, sigma: f64 },
    /// A `slow_frac` fraction of samples costs `slow_cost`× to
    /// preprocess; the rest cost 1×.
    BimodalCost { slow_frac: f64, slow_cost: u32 },
    /// Online dataset: epoch `e` admits the `initial + e·growth` prefix
    /// fraction (clamped to 1), new samples appearing only at epoch
    /// boundaries.
    Growing { initial: f64, growth: f64 },
    /// Node `i` of `N` ramps toward slowdown factor
    /// `1 + peak · i/(N−1)` over the run (node 0 stays nominal).
    Drift { peak: f64 },
}

impl WorkloadFamily {
    /// The CLI family token.
    pub fn token(self) -> &'static str {
        match self {
            WorkloadFamily::ZipfSkew { .. } => "zipf",
            WorkloadFamily::HeavyTail { .. } => "heavy-tail",
            WorkloadFamily::BimodalCost { .. } => "bimodal",
            WorkloadFamily::Growing { .. } => "growing",
            WorkloadFamily::Drift { .. } => "drift",
        }
    }
}

/// A complete seeded workload scenario: family + dataset cardinality.
/// Compiles into the existing machinery via [`WorkloadSpec::dataset`]
/// (sizes + costs), [`WorkloadSpec::access`] (the epoch order), and
/// [`WorkloadSpec::drift_ramp`] (per-node compute drift).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WorkloadSpec {
    pub family: WorkloadFamily,
    /// Dataset cardinality `|D|`.
    pub samples: usize,
}

impl WorkloadSpec {
    /// Default parameters for a family token, at `samples` cardinality.
    pub fn default_for(token: &str, samples: usize) -> Option<WorkloadSpec> {
        let family = match token {
            "zipf" => WorkloadFamily::ZipfSkew { s: 1.1 },
            "heavy-tail" => WorkloadFamily::HeavyTail {
                median_bytes: 2_048,
                sigma: 1.6,
            },
            "bimodal" => WorkloadFamily::BimodalCost {
                slow_frac: 0.125,
                slow_cost: 16,
            },
            "growing" => WorkloadFamily::Growing {
                initial: 0.5,
                growth: 0.25,
            },
            "drift" => WorkloadFamily::Drift { peak: 2.0 },
            _ => return None,
        };
        Some(WorkloadSpec { family, samples })
    }

    /// All five families with their default parameters — the test matrix.
    pub fn all_families(samples: usize) -> Vec<WorkloadSpec> {
        ["zipf", "heavy-tail", "bimodal", "growing", "drift"]
            .iter()
            .map(|t| WorkloadSpec::default_for(t, samples).expect("known token"))
            .collect()
    }

    /// Parse the `--workload` grammar: `family[:k=v,k=v,...]`.
    ///
    /// ```text
    /// zipf                     zipf:s=1.3,samples=1024
    /// heavy-tail:median=4096,sigma=1.8
    /// bimodal:slow-frac=0.25,slow-cost=32
    /// growing:initial=0.4,growth=0.2
    /// drift:peak=3.0
    /// ```
    pub fn parse(text: &str) -> Result<WorkloadSpec, String> {
        let (token, params) = match text.split_once(':') {
            Some((t, p)) => (t, p),
            None => (text, ""),
        };
        let mut spec = WorkloadSpec::default_for(token, 512).ok_or_else(|| {
            format!("unknown workload family {token:?} (want zipf, heavy-tail, bimodal, growing, or drift)")
        })?;
        for kv in params.split(',').filter(|s| !s.is_empty()) {
            let (key, value) = kv
                .split_once('=')
                .ok_or_else(|| format!("workload parameter {kv:?} is not k=v"))?;
            let fval = || -> Result<f64, String> {
                value
                    .parse::<f64>()
                    .map_err(|_| format!("workload parameter {key}={value:?} is not a number"))
                    .and_then(|v| {
                        if v.is_finite() {
                            Ok(v)
                        } else {
                            Err(format!("workload parameter {key}={value:?} is not finite"))
                        }
                    })
            };
            let uval = || -> Result<u64, String> {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("workload parameter {key}={value:?} is not an integer"))
            };
            match (&mut spec.family, key) {
                (_, "samples") => spec.samples = uval()?.max(1) as usize,
                (WorkloadFamily::ZipfSkew { s }, "s") => *s = fval()?.max(0.0),
                (WorkloadFamily::HeavyTail { median_bytes, .. }, "median") => {
                    *median_bytes = uval()?.max(1)
                }
                (WorkloadFamily::HeavyTail { sigma, .. }, "sigma") => *sigma = fval()?.max(0.0),
                (WorkloadFamily::BimodalCost { slow_frac, .. }, "slow-frac") => {
                    *slow_frac = fval()?.clamp(0.0, 1.0)
                }
                (WorkloadFamily::BimodalCost { slow_cost, .. }, "slow-cost") => {
                    *slow_cost = uval()?.clamp(1, u32::MAX as u64) as u32
                }
                (WorkloadFamily::Growing { initial, .. }, "initial") => {
                    *initial = fval()?.clamp(0.0, 1.0)
                }
                (WorkloadFamily::Growing { growth, .. }, "growth") => {
                    *growth = fval()?.clamp(0.0, 1.0)
                }
                (WorkloadFamily::Drift { peak }, "peak") => *peak = fval()?.max(0.0),
                (_, other) => {
                    return Err(format!(
                        "workload family {:?} has no parameter {other:?}",
                        token
                    ))
                }
            }
        }
        Ok(spec)
    }

    /// Human-readable label, also valid `parse` input.
    pub fn label(&self) -> String {
        match self.family {
            WorkloadFamily::ZipfSkew { s } => {
                format!("zipf:s={s},samples={}", self.samples)
            }
            WorkloadFamily::HeavyTail {
                median_bytes,
                sigma,
            } => {
                format!(
                    "heavy-tail:median={median_bytes},sigma={sigma},samples={}",
                    self.samples
                )
            }
            WorkloadFamily::BimodalCost {
                slow_frac,
                slow_cost,
            } => format!(
                "bimodal:slow-frac={slow_frac},slow-cost={slow_cost},samples={}",
                self.samples
            ),
            WorkloadFamily::Growing { initial, growth } => {
                format!(
                    "growing:initial={initial},growth={growth},samples={}",
                    self.samples
                )
            }
            WorkloadFamily::Drift { peak } => {
                format!("drift:peak={peak},samples={}", self.samples)
            }
        }
    }

    /// Compile the size + cost tables: a pure function of `(seed, self)`.
    pub fn dataset(&self, seed: u64) -> Dataset {
        let name = format!("workload-{}", self.family.token());
        match self.family {
            WorkloadFamily::HeavyTail {
                median_bytes,
                sigma,
            } => Dataset::generate(
                &name,
                self.samples,
                SizeDistribution::LogNormal {
                    mu: (median_bytes.max(1) as f64).ln(),
                    sigma,
                    min: 64,
                    max: 1 << 24,
                },
                seed,
            ),
            WorkloadFamily::BimodalCost {
                slow_frac,
                slow_cost,
            } => {
                let base = Dataset::generate(
                    &name,
                    self.samples,
                    SizeDistribution::Uniform {
                        lo: 8_192,
                        hi: 16_384,
                    },
                    seed,
                );
                let mut rng = Xoshiro256StarStar::seed_from_u64(derive_seed(seed ^ SALT_COSTS, 0));
                let costs: Vec<u32> = (0..self.samples)
                    .map(|_| {
                        if rng.next_f64() < slow_frac {
                            slow_cost.max(1)
                        } else {
                            1
                        }
                    })
                    .collect();
                base.with_costs(costs)
            }
            // The remaining families keep vision-like sizes; their novelty
            // is in the access order or the node environment.
            WorkloadFamily::ZipfSkew { .. }
            | WorkloadFamily::Growing { .. }
            | WorkloadFamily::Drift { .. } => Dataset::generate(
                &name,
                self.samples,
                SizeDistribution::Uniform {
                    lo: 8_192,
                    hi: 32_768,
                },
                seed,
            ),
        }
    }

    /// The access pattern this family imposes on the epoch schedule.
    pub fn access(&self) -> AccessPattern {
        match self.family {
            WorkloadFamily::ZipfSkew { s } => AccessPattern::ZipfReplacement { s },
            WorkloadFamily::Growing { initial, growth } => {
                AccessPattern::GrowingPrefix { initial, growth }
            }
            _ => AccessPattern::EpochShuffle,
        }
    }

    /// Per-node compute-drift ramps `(node, from_factor, to_factor)` for a
    /// `nodes`-node cluster, empty unless this is the drift family. The
    /// caller maps these onto its slowdown machinery (e.g.
    /// `SlowdownProfile::Ramp` over the run length).
    pub fn drift_ramp(&self, nodes: usize) -> Vec<(usize, f64, f64)> {
        match self.family {
            WorkloadFamily::Drift { peak } if nodes > 1 => (1..nodes)
                .map(|i| {
                    let share = i as f64 / (nodes - 1) as f64;
                    (i, 1.0, 1.0 + peak * share)
                })
                .collect(),
            _ => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    fn spec(len: usize) -> ScheduleSpec {
        ScheduleSpec {
            nodes: 2,
            gpus_per_node: 2,
            batch_size: 4,
            dataset_len: len,
            seed: 9,
        }
    }

    #[test]
    fn parse_round_trips_every_family_label() {
        for w in WorkloadSpec::all_families(256) {
            let back = WorkloadSpec::parse(&w.label()).expect("label parses");
            assert_eq!(back, w, "{}", w.label());
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(WorkloadSpec::parse("imagenet").is_err());
        assert!(WorkloadSpec::parse("zipf:s").is_err());
        assert!(WorkloadSpec::parse("zipf:s=abc").is_err());
        assert!(WorkloadSpec::parse("zipf:peak=2").is_err(), "wrong family");
        assert!(WorkloadSpec::parse("bimodal:slow-cost=nope").is_err());
    }

    #[test]
    fn parse_applies_parameters() {
        let w = WorkloadSpec::parse("bimodal:slow-frac=0.25,slow-cost=32,samples=64").unwrap();
        assert_eq!(
            w.family,
            WorkloadFamily::BimodalCost {
                slow_frac: 0.25,
                slow_cost: 32
            }
        );
        assert_eq!(w.samples, 64);
    }

    #[test]
    fn zipf_schedule_is_deterministic_and_skewed() {
        let s = generate_zipf(spec(128), 0, 1.2);
        let t = generate_zipf(spec(128), 0, 1.2);
        assert_eq!(s.all_accesses(), t.all_accesses());

        // Skew: the most popular sample must appear far above the uniform
        // expectation (slots / n = 1).
        let mut counts: HashMap<SampleId, usize> = HashMap::new();
        for &id in s.all_accesses() {
            *counts.entry(id).or_default() += 1;
        }
        let max = counts.values().copied().max().unwrap();
        assert!(max >= 4, "hottest sample seen {max}× — no skew?");
    }

    #[test]
    fn zipf_popularity_is_stable_across_epochs() {
        // The hottest samples of epoch 0 must stay hot in epoch 1 (the
        // rank→id permutation is epoch-independent).
        let hot = |epoch: u64| -> SampleId {
            let s = generate_zipf(spec(128), epoch, 1.4);
            let mut counts: HashMap<SampleId, usize> = HashMap::new();
            for &id in s.all_accesses() {
                *counts.entry(id).or_default() += 1;
            }
            counts
                .into_iter()
                .max_by_key(|&(id, c)| (c, std::cmp::Reverse(id)))
                .unwrap()
                .0
        };
        assert_eq!(hot(0), hot(1));
    }

    #[test]
    fn growing_admission_is_monotone_and_epoch_aligned() {
        let pattern = AccessPattern::GrowingPrefix {
            initial: 0.5,
            growth: 0.25,
        };
        let mut prev = 0;
        for epoch in 0..6 {
            let admitted = pattern.admitted_len(128, epoch);
            assert!(admitted >= prev, "admission must be monotone");
            prev = admitted;
            let s = generate_growing(spec(128), epoch, 0.5, 0.25);
            // Epoch alignment: no scheduled access may exceed the prefix
            // admitted at this epoch.
            for &id in s.all_accesses() {
                assert!(
                    id.index() < admitted,
                    "epoch {epoch} scheduled unadmitted sample {id:?}"
                );
            }
        }
        assert_eq!(prev, 128, "eventually the whole dataset is admitted");
    }

    #[test]
    fn growing_new_samples_appear_after_admission() {
        // A sample beyond the initial prefix must be absent in epoch 0 and
        // present once its prefix is admitted.
        let seen = |epoch: u64, id: u32| -> bool {
            generate_growing(spec(128), epoch, 0.5, 0.25)
                .all_accesses()
                .contains(&SampleId(id))
        };
        assert!(!seen(0, 100), "sample 100 not yet admitted at epoch 0");
        assert!(
            seen(2, 100),
            "sample 100 admitted by epoch 2 (fraction 1.0)"
        );
    }

    #[test]
    fn access_layout_contract_holds_for_every_pattern() {
        for pattern in [
            AccessPattern::EpochShuffle,
            AccessPattern::ZipfReplacement { s: 1.1 },
            AccessPattern::GrowingPrefix {
                initial: 0.5,
                growth: 0.5,
            },
        ] {
            let s = generate_access(spec(128), 1, PartitionScheme::GlobalShuffle, pattern);
            for h in 0..s.iterations() {
                for node in 0..2 {
                    let mut cat = Vec::new();
                    for gpu in 0..2 {
                        assert_eq!(s.batch(h, node, gpu).len(), 4);
                        cat.extend_from_slice(s.batch(h, node, gpu));
                    }
                    assert_eq!(s.node_iteration(h, node), cat.as_slice());
                }
            }
        }
    }

    #[test]
    fn bimodal_costs_match_the_mixture_fraction() {
        let w = WorkloadSpec::parse("bimodal:slow-frac=0.2,slow-cost=16,samples=4000").unwrap();
        let d = w.dataset(7);
        let slow = (0..4000u32)
            .filter(|&i| d.cost_of(SampleId(i)) == 16)
            .count();
        let frac = slow as f64 / 4000.0;
        assert!(
            (0.15..=0.25).contains(&frac),
            "empirical slow fraction {frac} vs spec 0.2"
        );
        // Only the two modes exist.
        assert!((0..4000u32).all(|i| matches!(d.cost_of(SampleId(i)), 1 | 16)));
    }

    #[test]
    fn heavy_tail_sizes_are_heavy_tailed() {
        let w = WorkloadSpec::parse("heavy-tail:median=2048,sigma=1.6,samples=4000").unwrap();
        let d = w.dataset(3);
        let mut sizes: Vec<u64> = (0..4000u32).map(|i| d.size_of(SampleId(i))).collect();
        sizes.sort_unstable();
        let median = sizes[2000];
        let p99 = sizes[3960];
        assert!(
            (1_000..4_200).contains(&(median as i64)),
            "median {median} far from spec 2048"
        );
        // σ=1.6 log-normal: p99 ≈ median · e^(2.33σ) ≈ 41× the median.
        assert!(
            p99 > median * 10,
            "p99 {p99} not heavy-tailed vs median {median}"
        );
        // The mean must sit well above the median — the tail dominates.
        assert!(d.mean_sample_bytes() > 1.5 * median as f64);
    }

    #[test]
    fn drift_ramp_spans_the_cluster() {
        let w = WorkloadSpec::parse("drift:peak=2.0").unwrap();
        let ramps = w.drift_ramp(3);
        assert_eq!(ramps.len(), 2, "node 0 stays nominal");
        assert_eq!(ramps[0], (1, 1.0, 2.0));
        assert_eq!(ramps[1], (2, 1.0, 3.0));
        assert!(w.drift_ramp(1).is_empty());
        let other = WorkloadSpec::parse("zipf").unwrap();
        assert!(other.drift_ramp(4).is_empty());
    }

    proptest! {
        #[test]
        fn same_seed_same_tables(seed in 0u64..1000, idx in 0usize..5) {
            let w = WorkloadSpec::all_families(64)[idx];
            let a = w.dataset(seed);
            let b = w.dataset(seed);
            prop_assert_eq!(a.total_bytes(), b.total_bytes());
            prop_assert_eq!(a.total_work_bytes(), b.total_work_bytes());
            for i in 0..64u32 {
                prop_assert_eq!(a.size_of(SampleId(i)), b.size_of(SampleId(i)));
                prop_assert_eq!(a.cost_of(SampleId(i)), b.cost_of(SampleId(i)));
            }
        }

        #[test]
        fn access_orders_are_pure_functions_of_seed_and_spec(
            seed in 0u64..500, epoch in 0u64..4, idx in 0usize..5
        ) {
            let w = WorkloadSpec::all_families(128)[idx];
            let mut s = spec(128);
            s.seed = seed;
            let a = generate_access(s, epoch, PartitionScheme::GlobalShuffle, w.access());
            let b = generate_access(s, epoch, PartitionScheme::GlobalShuffle, w.access());
            prop_assert_eq!(a.all_accesses(), b.all_accesses());
        }

        #[test]
        fn zipf_tail_matches_the_exponent(s_x10 in 8u32..20) {
            // Empirical check on the generator's own law: with weights
            // (r+1)^-s the top rank's expected share is 1/H_n(s); accept
            // a generous tolerance band since one epoch is a small sample.
            let s = s_x10 as f64 / 10.0;
            let sched = generate_zipf(spec(256), 0, s);
            let mut counts: HashMap<SampleId, usize> = HashMap::new();
            for &id in sched.all_accesses() {
                *counts.entry(id).or_default() += 1;
            }
            let slots = sched.all_accesses().len() as f64;
            let max = *counts.values().max().unwrap() as f64;
            let h: f64 = (1..=256).map(|r| (r as f64).powf(-s)).sum();
            let expected_top = slots / h;
            prop_assert!(
                max > expected_top * 0.4 && max < expected_top * 2.5,
                "top-rank share {} vs expected {}", max, expected_top
            );
        }

        #[test]
        fn growing_admission_monotone_for_any_params(
            initial in 0.0f64..1.0, growth in 0.0f64..0.5, len in 16usize..512
        ) {
            let pattern = AccessPattern::GrowingPrefix { initial, growth };
            let mut prev = 0;
            for epoch in 0..8 {
                let admitted = pattern.admitted_len(len, epoch);
                prop_assert!(admitted >= 1 && admitted <= len);
                prop_assert!(admitted >= prev);
                prev = admitted;
            }
        }
    }
}
