//! The four live-engine knock-out workloads (README.md has the reasons).
//!
//! Closed loop: 2 consumers, batch 32, the engine's feeder credit-paced
//! at 4 batches in flight per consumer. Only the fields named in
//! [`Shape::config`] are set; everything else is `EngineConfig::default()`
//! so that later clean-ups of `EngineConfig` do not break the benchmark.
//! Thread counts are part of each shape and do not scale with `nproc`.

use crate::names::{Metric, Tally};
use crate::stats::{median, metered};
use lobster_repro::data::{Dataset, SampleId, SizeDistribution};
use lobster_repro::metrics::Instruments;
use lobster_repro::runtime::engine::engine_schedule;
use lobster_repro::runtime::{
    run_with, sample_bytes, sample_checksum, schedule_spec, EngineConfig, EngineReport,
    SyntheticStore,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const CONSUMERS: usize = 2;
pub const BATCH: usize = 32;
pub const PREPROC_THREADS: usize = 1;
/// In-process cold starts behind `setup_s` (the median is reported).
pub const COLD_STARTS: usize = 5;

#[derive(Debug, Clone, Copy)]
pub enum CacheSize {
    Bytes(u64),
    /// One `n`-th of the dataset's bytes.
    DatasetShare(u64),
}

#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub name: &'static str,
    pub samples: usize,
    pub sizes: SizeDistribution,
    pub latency: Duration,
    /// Store bandwidth in bytes/s; 0 is infinite.
    pub bytes_per_sec: f64,
    pub cache: CacheSize,
    pub loader_threads: usize,
    pub work_factor: u32,
    pub train: Duration,
    /// Measured epochs per round; one warm-up epoch precedes them. Sized so
    /// a round measures 2.6 to 2.7 s on the 2-core box the benchmark was
    /// tuned on, and five rounds cover the 12 s of `BENCHMARK.json`.
    pub epochs_per_round: u64,
}

const KIB: u64 = 1024;

pub const SHAPES: [Shape; 4] = [
    // All-hit, tiny payloads: per-sample fixed cost (queue hops, the
    // `ShardCache` lock, allocations, polling) dominates.
    Shape {
        name: "engine_cached",
        samples: 65_536,
        sizes: SizeDistribution::Constant { bytes: KIB },
        latency: Duration::ZERO,
        bytes_per_sec: 0.0,
        cache: CacheSize::Bytes(1 << 30),
        loader_threads: 1,
        work_factor: 1,
        train: Duration::ZERO,
        epochs_per_round: 10,
    },
    // Working set 512x the cache: every access is a resilient fetch plus an
    // insert with eviction, so the cache's write side is what is measured.
    Shape {
        name: "engine_miss",
        samples: 32_768,
        sizes: SizeDistribution::Constant { bytes: 4 * KIB },
        latency: Duration::ZERO,
        bytes_per_sec: 0.0,
        cache: CacheSize::Bytes(256 * KIB),
        loader_threads: 1,
        work_factor: 1,
        train: Duration::ZERO,
        epochs_per_round: 5,
    },
    // Transform-bound: `preprocess` + consumer-side `invert` at work factor
    // 8 on 16 KiB payloads.
    Shape {
        name: "engine_prep",
        samples: 4_608,
        sizes: SizeDistribution::Constant { bytes: 16 * KIB },
        latency: Duration::ZERO,
        bytes_per_sec: 0.0,
        cache: CacheSize::Bytes(1 << 30),
        loader_threads: 1,
        work_factor: 8,
        train: Duration::ZERO,
        epochs_per_round: 4,
    },
    // The paper's scenario live: a slow store whose latency must hide
    // behind a real `t_train`, with a cache that holds a quarter of the data.
    Shape {
        name: "engine_pfs",
        samples: 4_096,
        sizes: SizeDistribution::LogNormal {
            mu: 9.39,
            sigma: 0.6,
            min: 2 * KIB,
            max: 128 * KIB,
        },
        latency: Duration::from_micros(200),
        bytes_per_sec: 200e6,
        cache: CacheSize::DatasetShare(4),
        loader_threads: 4,
        work_factor: 1,
        train: Duration::from_millis(4),
        epochs_per_round: 6,
    },
];

impl Shape {
    pub fn by_name(name: &str) -> Option<Shape> {
        SHAPES.iter().copied().find(|s| s.name == name)
    }

    /// The same shape at a sixteenth of the samples (whole iterations, at
    /// least four) and two epochs per round: `--smoke`, and the reference
    /// probes of a traced run.
    pub fn shrunk(mut self) -> Shape {
        let per_iteration = CONSUMERS * BATCH;
        self.samples = (self.samples / 16 / per_iteration).max(4) * per_iteration;
        self.epochs_per_round = 2;
        self
    }

    fn dataset(&self, seed: u64) -> Dataset {
        Dataset::generate(self.name, self.samples, self.sizes, seed)
    }

    pub fn store(&self, dataset: Dataset) -> Arc<SyntheticStore> {
        Arc::new(SyntheticStore::new(
            dataset,
            self.latency,
            self.bytes_per_sec,
        ))
    }

    fn cache_bytes(&self, dataset: &Dataset) -> u64 {
        match self.cache {
            CacheSize::Bytes(b) => b,
            CacheSize::DatasetShare(n) => dataset.total_bytes() / n,
        }
    }

    fn config(&self, dataset: &Dataset, seed: u64, epochs: u64) -> EngineConfig {
        EngineConfig {
            consumers: CONSUMERS,
            batch_size: BATCH,
            loader_threads: self.loader_threads,
            preproc_threads: PREPROC_THREADS,
            cache_bytes: self.cache_bytes(dataset),
            work_factor: self.work_factor,
            train: self.train,
            epochs,
            seed,
            ..EngineConfig::default()
        }
    }

    /// One cold start: generate the dataset, build the store, run exactly
    /// one cold-cache epoch on a fresh engine, tear everything down.
    /// Returns the seconds it took.
    fn cold_start(&self, seed: u64, tally: &mut Tally) -> f64 {
        let t0 = Instant::now();
        let dataset = self.dataset(seed);
        let cfg = self.config(&dataset, seed, 1);
        let scheduled = scheduled_samples(&dataset, &cfg);
        let report = run_with(self.store(dataset), cfg, Instruments::disabled());
        tally.attempted += scheduled;
        tally.failed += scheduled.abs_diff(report.delivered) + u64::from(report.aborted);
        drop(report);
        t0.elapsed().as_secs_f64()
    }

    /// `setup_s`: the median of `repeats` in-process cold starts.
    fn setup(&self, seed: u64, repeats: usize, tally: &mut Tally) -> f64 {
        let secs: Vec<f64> = (0..repeats).map(|_| self.cold_start(seed, tally)).collect();
        median(&secs).expect("at least one cold start")
    }
}

fn scheduled_samples(dataset: &Dataset, cfg: &EngineConfig) -> u64 {
    let spec = schedule_spec(dataset, cfg);
    (spec.iterations_per_epoch() * spec.samples_per_iteration()) as u64 * cfg.epochs
}

/// The inputs of one engine workload, generated from the seed.
pub struct Inputs {
    pub shape: Shape,
    pub dataset: Dataset,
    /// One warm-up epoch plus `shape.epochs_per_round` measured ones.
    pub cfg: EngineConfig,
    /// `sample_checksum` of every sample's canonical bytes, built once:
    /// the gate's fingerprint is an XOR over the schedule of this table.
    pub checksums: Vec<u64>,
    /// XORed into the expected fingerprint; non-zero only under
    /// `--self-test-fail`, to prove the gate fires.
    pub fingerprint_fault: u64,
}

/// What one round (one `run_with` call) measured.
pub struct Round {
    pub samples_per_s: f64,
    pub stall_frac: f64,
    pub cpu_us_per_sample: f64,
    pub allocs_per_sample: f64,
    pub cores_busy: f64,
    pub store_fetches_per_sample: f64,
    /// Seconds measured: the sum of `iter_secs`.
    pub window_s: f64,
    /// Barrier-to-barrier seconds of every measured iteration.
    pub iter_secs: Vec<f64>,
}

impl Inputs {
    pub fn new(shape: Shape, seed: u64) -> Inputs {
        let dataset = shape.dataset(seed);
        let cfg = shape.config(&dataset, seed, 1 + shape.epochs_per_round);
        let checksums = (0..dataset.len() as u32)
            .map(|i| {
                let id = SampleId(i);
                sample_checksum(&sample_bytes(id, dataset.size_of(id) as usize))
            })
            .collect();
        Inputs {
            shape,
            dataset,
            cfg,
            checksums,
            fingerprint_fault: 0,
        }
    }

    /// One round on a fresh store and engine: epoch 0 warms the cache, the
    /// measured window is the remaining epochs' iteration times. CPU and
    /// allocations are metered across the whole call, warm-up included.
    pub fn round(&self, ins: Instruments, tally: &mut Tally) -> Round {
        let store = self.shape.store(self.dataset.clone());
        let cfg = self.cfg.clone();
        let (report, cost) = metered(|| run_with(store, cfg, ins));
        let scheduled = scheduled_samples(&self.dataset, &self.cfg);
        tally.attempted += scheduled;
        tally.failed += self.gate(&report);

        let spec = schedule_spec(&self.dataset, &self.cfg);
        let iter_secs = report.iteration_secs[spec.iterations_per_epoch()..].to_vec();
        let window_s: f64 = iter_secs.iter().sum();
        let measured = (iter_secs.len() * spec.samples_per_iteration()) as f64;
        Round {
            samples_per_s: measured / window_s,
            stall_frac: 1.0 - self.shape.train.as_secs_f64() * iter_secs.len() as f64 / window_s,
            cpu_us_per_sample: cost.cpu_s * 1e6 / scheduled as f64,
            allocs_per_sample: cost.allocs as f64 / scheduled as f64,
            cores_busy: cost.cpu_s / cost.wall_s,
            store_fetches_per_sample: report.store_fetches as f64 / scheduled as f64,
            window_s,
            iter_secs,
        }
    }

    /// The correctness gate, outside every timed window. Returns how many
    /// operations failed: samples of every iteration whose delivered id
    /// multiset differs from the scheduled batch, the delivery shortfall,
    /// and one each for a fingerprint mismatch, an abort, a contained
    /// panic or a retry (the workloads inject no faults).
    fn gate(&self, report: &EngineReport) -> u64 {
        let spec = schedule_spec(&self.dataset, &self.cfg);
        let iters = spec.iterations_per_epoch();
        let mut failed = 0u64;
        let mut fingerprint = self.fingerprint_fault;
        for epoch in 0..self.cfg.epochs {
            let sched = engine_schedule(spec, epoch, &self.cfg);
            for h in 0..iters {
                let iter = epoch as usize * iters + h;
                for consumer in 0..CONSUMERS {
                    let batch = sched.batch(h, 0, consumer);
                    let mut want: Vec<u64> = batch.iter().map(|s| s.0 as u64).collect();
                    want.sort_unstable();
                    for s in batch {
                        fingerprint ^= self.checksums[s.index()];
                    }
                    let got = report
                        .delivered_samples
                        .get(consumer)
                        .and_then(|c| c.get(iter));
                    if got != Some(&want) {
                        failed += batch.len() as u64;
                    }
                }
            }
        }
        failed += scheduled_samples(&self.dataset, &self.cfg).abs_diff(report.delivered);
        failed += u64::from(report.integrity != fingerprint);
        failed += u64::from(report.aborted) + report.worker_panics + report.retries;
        failed
    }
}

/// Everything the untraced run of an engine workload measures.
pub struct Measured {
    pub rounds: Vec<Round>,
    pub peak_rss_mb: f64,
    pub setup_s: f64,
}

impl Measured {
    pub fn median_of(&self, f: impl Fn(&Round) -> f64) -> f64 {
        median(&self.rounds.iter().map(f).collect::<Vec<_>>()).expect("at least one round")
    }

    pub fn end_to_end(&self) -> Vec<Metric> {
        vec![
            ("samples_per_s", self.median_of(|r| r.samples_per_s)),
            ("stall_frac", self.median_of(|r| r.stall_frac)),
            ("cpu_us_per_sample", self.median_of(|r| r.cpu_us_per_sample)),
            ("allocs_per_sample", self.median_of(|r| r.allocs_per_sample)),
            ("peak_rss_mb", self.peak_rss_mb),
            ("setup_s", self.setup_s),
        ]
    }
}

/// Rounds until their measured windows sum to `seconds`, then the cold
/// starts. `peak_rss_mb` is read after the first round, while the process
/// has run nothing but the inputs and one engine: later rounds strand freed
/// memory in other threads' malloc arenas, which made the high-water mark
/// at exit bimodal (172 vs 339 MB on `engine_cached`).
pub fn measure(inputs: &Inputs, seconds: f64, cold_starts: usize, tally: &mut Tally) -> Measured {
    let mut rounds = vec![inputs.round(Instruments::disabled(), tally)];
    let peak_rss_mb = crate::stats::peak_rss_mb();
    let mut window = rounds[0].window_s;
    while window < seconds {
        let round = inputs.round(Instruments::disabled(), tally);
        window += round.window_s;
        rounds.push(round);
    }
    let setup_s = inputs.shape.setup(inputs.cfg.seed, cold_starts, tally);
    Measured {
        rounds,
        peak_rss_mb,
        setup_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lobster_repro::runtime::expected_integrity;

    fn tiny() -> Inputs {
        let shape = Shape {
            samples: 256,
            epochs_per_round: 1,
            ..Shape::by_name("engine_pfs").expect("declared shape")
        };
        Inputs::new(shape, 7)
    }

    #[test]
    fn checksum_table_fingerprint_equals_expected_integrity() {
        let inputs = tiny();
        let spec = schedule_spec(&inputs.dataset, &inputs.cfg);
        let mut fingerprint = 0u64;
        for epoch in 0..inputs.cfg.epochs {
            for s in engine_schedule(spec, epoch, &inputs.cfg).all_accesses() {
                fingerprint ^= inputs.checksums[s.index()];
            }
        }
        assert_eq!(
            fingerprint,
            expected_integrity(&inputs.dataset, &inputs.cfg)
        );
    }

    #[test]
    fn gate_passes_a_clean_round_and_fires_on_a_perturbed_fingerprint() {
        let mut inputs = tiny();
        let mut tally = Tally::default();
        inputs.round(Instruments::disabled(), &mut tally);
        assert_eq!((tally.attempted, tally.failed), (512, 0));
        inputs.fingerprint_fault = 1;
        inputs.round(Instruments::disabled(), &mut tally);
        assert_eq!((tally.attempted, tally.failed), (1024, 1));
    }

    #[test]
    fn shrunk_shapes_keep_whole_iterations() {
        for shape in SHAPES {
            let small = shape.shrunk();
            assert!(small.samples >= 4 * CONSUMERS * BATCH);
            assert_eq!(small.samples % (CONSUMERS * BATCH), 0, "{}", small.name);
        }
    }
}
