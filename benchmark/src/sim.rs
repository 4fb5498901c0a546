//! `sim_fig7c`: the paper's headline experiment (Fig. 7(c): 8 nodes x 8
//! GPUs, ImageNet-22K, ResNet-50) through `ClusterSim`, once per loader
//! policy. The configuration is pinned here, not taken from
//! `lobster_bench::paper_config`, so the benchmark does not move when the
//! figure binaries' defaults do.

use crate::names::{Metric, Tally};
use crate::stats::{median, metered, Cost};
use lobster_repro::core::{models, policy_by_name};
use lobster_repro::data::{imagenet_22k, Dataset};
use lobster_repro::pipeline::{ClusterSim, ConfigBuilder, ExperimentConfig, RunReport};
use lobster_repro::sim::derive_seed;
use std::time::Instant;

/// The four systems of the paper's §5.1, slowest to fastest.
pub const POLICIES: [&str; 4] = ["pytorch", "dali", "nopfs", "lobster"];
/// Epoch 0 is the cold epoch that every report's steady-state means leave
/// out; seven steady epochs, not the figures' three, halve how far the
/// simulated utilisation moves from one shuffle seed to the next.
pub const EPOCHS: u64 = 8;
/// Dataset and cache are both divided by this, which keeps the
/// cache:dataset ratio of the paper (27 728 samples, 13 iterations an epoch).
/// At the figure binaries' default of 64 the simulator's hot tables spill
/// out of this box's 2.5 MB L2 into an L3 shared with other tenants:
/// identical runs drifted by 14 % over minutes, by 9 % at 128 and by 8 % at
/// 256. At 512 ten runs stayed within 2 %.
pub const SCALE: u32 = 512;
/// `stall_frac` is the median over this many passes, the first ones, each
/// with its own shuffle seed: one shuffle alone moves it by 3 %. The count is
/// fixed so that the value is a pure function of `--seed` whenever the run
/// is long enough to hold them (15 passes take about 7 s here).
pub const STALL_PASSES: usize = 15;
/// The dataset is part of the workload's definition, like the rest of the
/// Fig. 7(c) configuration: its heavy-tailed sizes are drawn once, with this
/// seed. `--seed` picks the epoch shuffles. Drawing the sizes from `--seed`
/// too moved the simulated `stall_frac` by 20 % from seed to seed.
pub const DATASET_SEED: u64 = 20220829;
/// Scale of `--smoke` and of the reference probes in a traced engine run.
pub const SMALL_SCALE: u32 = 1024;
/// The Fig. 7(c) cluster: 8 nodes of 8 GPUs, 32 samples per GPU and step.
const NODES: usize = 8;
const GPUS_PER_NODE: usize = 8;
const BATCH: usize = 32;

/// The inputs of the workload: everything derives from the scale and seed.
#[derive(Debug, Clone, Copy)]
pub struct Fig7c {
    pub scale: u32,
    /// Shuffle seed of the first pass; pass `k` derives its own from it.
    pub seed: u64,
    /// Added to the accesses the gate expects per epoch; non-zero only
    /// under `--self-test-fail`, to prove the gate fires.
    pub gate_fault: u64,
}

impl Fig7c {
    pub fn dataset(&self) -> Dataset {
        imagenet_22k(self.scale, DATASET_SEED)
    }

    pub fn config(&self, dataset: Dataset) -> ExperimentConfig {
        ConfigBuilder::new()
            .nodes(NODES)
            .gpus_per_node(GPUS_PER_NODE)
            .batch_size(BATCH)
            .pipeline_threads(32)
            .cache_bytes((40u64 << 30) / self.scale as u64)
            .model(models::resnet50())
            .epochs(EPOCHS)
            .seed(self.seed)
            .dataset(dataset)
            .build()
    }

    pub fn sim(&self, dataset: Dataset, policy: &str) -> ClusterSim {
        let policy = policy_by_name(policy).expect("the four baselines are registered");
        ClusterSim::new(self.config(dataset), policy)
    }

    fn build_all(&self, dataset: &Dataset) -> Vec<ClusterSim> {
        POLICIES
            .iter()
            .map(|p| self.sim(dataset.clone(), p))
            .collect()
    }

    /// `setup_s`: dataset + config + `ClusterSim::new` for the four
    /// policies, teardown included; the median of `repeats`.
    fn setup(&self, repeats: usize) -> f64 {
        let secs: Vec<f64> = (0..repeats)
            .map(|_| {
                let t0 = Instant::now();
                drop(self.build_all(&self.dataset()));
                t0.elapsed().as_secs_f64()
            })
            .collect();
        median(&secs).expect("at least one set-up")
    }

    /// Demand accesses one epoch schedules (whole iterations only).
    pub fn accesses_per_epoch(&self, dataset: &Dataset) -> u64 {
        let per_iteration = NODES * GPUS_PER_NODE * BATCH;
        (dataset.len() / per_iteration * per_iteration) as u64
    }

    /// The inputs of pass `k`: the same shape under another shuffle seed.
    fn for_pass(&self, k: usize) -> Fig7c {
        Fig7c {
            seed: if k == 0 {
                self.seed
            } else {
                derive_seed(self.seed, k as u64)
            },
            ..*self
        }
    }

    /// One pass: every policy's `run()` in turn, each metered on its own.
    fn pass(&self, tally: &mut Tally) -> Pass {
        let dataset = self.dataset();
        let per_epoch = self.accesses_per_epoch(&dataset);
        let runs: Vec<(RunReport, Cost)> = self
            .build_all(&dataset)
            .into_iter()
            .map(|sim| {
                let ((report, _), cost) = metered(|| sim.run());
                (report, cost)
            })
            .collect();
        let pass = Pass {
            runs,
            accesses_per_run: per_epoch * EPOCHS,
        };
        tally.attempted += pass.accesses();
        tally.failed += pass.gate(per_epoch + self.gate_fault);
        pass
    }

    /// Passes until their summed `run()` wall time reaches `seconds`, then
    /// the set-ups; `peak_rss_mb` is read after the first pass, as for the
    /// engine workloads.
    pub fn measure(&self, seconds: f64, setups: usize, tally: &mut Tally) -> Measured {
        let mut passes = vec![self.pass(tally)];
        let peak_rss_mb = crate::stats::peak_rss_mb();
        let mut wall = passes[0].wall_s();
        while wall < seconds {
            let pass = self.for_pass(passes.len()).pass(tally);
            wall += pass.wall_s();
            passes.push(pass);
        }
        Measured {
            passes,
            peak_rss_mb,
            setup_s: self.setup(setups),
        }
    }
}

pub struct Pass {
    pub runs: Vec<(RunReport, Cost)>,
    /// Demand accesses simulated by one policy's run.
    pub accesses_per_run: u64,
}

impl Pass {
    pub fn accesses(&self) -> u64 {
        self.accesses_per_run * self.runs.len() as u64
    }

    pub fn wall_s(&self) -> f64 {
        self.runs.iter().map(|(_, c)| c.wall_s).sum()
    }

    pub fn samples_per_s(&self) -> f64 {
        self.accesses() as f64 / self.wall_s()
    }

    pub fn report(&self, policy: &str) -> &(RunReport, Cost) {
        let i = POLICIES
            .iter()
            .position(|p| *p == policy)
            .expect("known policy");
        &self.runs[i]
    }

    /// The correctness gate: every epoch of every run accounts for every
    /// scheduled access, and the simulated epoch times keep the paper's
    /// ordering (lobster shortest, pytorch longest). Returns failed ops.
    fn gate(&self, per_epoch: u64) -> u64 {
        let mut failed = 0u64;
        for (report, _) in &self.runs {
            for e in &report.epochs {
                failed += per_epoch.abs_diff(e.local_hits + e.remote_hits + e.misses);
            }
        }
        let epoch_s: Vec<f64> = self.runs.iter().map(|(r, _)| r.mean_epoch_s()).collect();
        let (pytorch, lobster) = (epoch_s[0], epoch_s[3]);
        failed += u64::from(epoch_s.iter().any(|&s| s > pytorch));
        failed += u64::from(epoch_s.iter().any(|&s| s < lobster));
        failed
    }
}

/// Everything the untraced run of `sim_fig7c` measures.
pub struct Measured {
    pub passes: Vec<Pass>,
    pub peak_rss_mb: f64,
    pub setup_s: f64,
}

impl Measured {
    fn median_of(&self, f: impl Fn(&Pass) -> f64) -> f64 {
        median(&self.passes.iter().map(f).collect::<Vec<_>>()).expect("at least one pass")
    }

    pub fn samples_per_s(&self) -> f64 {
        self.median_of(Pass::samples_per_s)
    }

    fn cpu_us_per_sample(&self) -> f64 {
        self.median_of(|p| {
            p.runs.iter().map(|(_, c)| c.cpu_s).sum::<f64>() * 1e6 / p.accesses() as f64
        })
    }

    fn allocs_per_sample(&self) -> f64 {
        self.median_of(|p| {
            p.runs.iter().map(|(_, c)| c.allocs).sum::<u64>() as f64 / p.accesses() as f64
        })
    }

    pub fn end_to_end(&self) -> Vec<Metric> {
        // Simulated, hence exact: the share of step time the lobster run's
        // GPUs wait for data. Guards policy quality while the simulator
        // itself is made faster.
        let stalls: Vec<f64> = self
            .passes
            .iter()
            .take(STALL_PASSES)
            .map(|p| 1.0 - p.report("lobster").0.mean_gpu_utilization())
            .collect();
        let stall = median(&stalls).expect("at least one pass");
        vec![
            ("samples_per_s", self.samples_per_s()),
            ("stall_frac", stall),
            ("cpu_us_per_sample", self.cpu_us_per_sample()),
            ("allocs_per_sample", self.allocs_per_sample()),
            ("peak_rss_mb", self.peak_rss_mb),
            ("setup_s", self.setup_s),
        ]
    }
}
