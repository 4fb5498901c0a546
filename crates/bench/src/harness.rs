//! Shared experiment harness: scaled paper configurations and sweep runners.
//!
//! The paper's full datasets (135 GB / 1.3 TB) and its 8×8-GPU testbed do
//! not fit this reproduction environment, so every experiment runs at a
//! documented *scale factor*: dataset sample count **and** per-node cache
//! size are divided by the same factor, which preserves every ratio the
//! policies observe (cache-to-dataset fraction, tier hit probabilities,
//! per-batch byte volumes are unchanged). EXPERIMENTS.md records the scale
//! used for each figure.

use lobster_core::{policy_by_name, ModelProfile};
use lobster_data::Dataset;
use lobster_metrics::{Instruments, TelemetryLine};
use lobster_pipeline::{ClusterSim, ConfigBuilder, ExperimentConfig, RunReport};
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};

/// Which paper dataset an experiment uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DatasetKind {
    ImageNet1k,
    ImageNet22k,
}

impl DatasetKind {
    pub fn label(self) -> &'static str {
        match self {
            DatasetKind::ImageNet1k => "imagenet-1k",
            DatasetKind::ImageNet22k => "imagenet-22k",
        }
    }

    /// Materialize the dataset at `1/scale` of the paper's sample count.
    pub fn dataset(self, scale: u32, seed: u64) -> Dataset {
        match self {
            DatasetKind::ImageNet1k => lobster_data::imagenet_1k(scale, seed),
            DatasetKind::ImageNet22k => lobster_data::imagenet_22k(scale, seed),
        }
    }
}

/// Scaled experiment parameters shared by most figures.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BenchParams {
    /// Dataset + cache scale divisor (1 = paper scale).
    pub scale: u32,
    /// Epochs to simulate (epoch 0 is warm-up and excluded from means).
    pub epochs: u64,
    /// Base seed.
    pub seed: u64,
}

/// The paper's 40 GB node cache, scaled.
pub fn scaled_cache_bytes(scale: u32) -> u64 {
    (40u64 << 30) / scale.max(1) as u64
}

/// Build the standard experiment config for `nodes`×8 GPUs on `kind`.
pub fn paper_config(
    kind: DatasetKind,
    nodes: usize,
    model: ModelProfile,
    params: BenchParams,
) -> ExperimentConfig {
    ConfigBuilder::new()
        .nodes(nodes)
        .gpus_per_node(8)
        .cache_bytes(scaled_cache_bytes(params.scale))
        .pipeline_threads(32)
        .batch_size(32)
        .model(model)
        .epochs(params.epochs)
        .seed(params.seed)
        .dataset(kind.dataset(params.scale, params.seed))
        .build()
}

/// Run the policy registered as `name` on one config, with an
/// observability bundle attached: trace events, metrics, and controller
/// decisions from the run land in `ins` (a disabled bundle records
/// nothing).
pub fn run_policy(cfg: ExperimentConfig, name: &str, ins: &Instruments) -> RunReport {
    let policy = policy_by_name(name).unwrap_or_else(|| panic!("unknown policy {name}"));
    ClusterSim::new(cfg, policy)
        .with_instruments(ins.clone())
        .run()
        .0
}

/// A labelled comparison row: one policy's steady-state metrics.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PolicyRow {
    pub policy: String,
    pub mean_epoch_s: f64,
    pub hit_ratio: f64,
    pub gpu_utilization: f64,
    pub imbalance_fraction: f64,
    /// Speedup of this policy relative to the row named `pytorch`
    /// (filled by [`compare_policies`]).
    pub speedup_vs_pytorch: f64,
}

/// Run a set of policies on identical configs and tabulate steady-state
/// metrics with speedups relative to the PyTorch baseline. All runs share
/// `ins`; a trace distinguishes them by time order.
pub fn compare_policies(
    make_cfg: impl Fn() -> ExperimentConfig,
    policy_names: &[&str],
    ins: &Instruments,
) -> Vec<PolicyRow> {
    let mut rows: Vec<PolicyRow> = policy_names
        .iter()
        .map(|&name| {
            let report = run_policy(make_cfg(), name, ins);
            PolicyRow {
                policy: name.to_string(),
                mean_epoch_s: report.mean_epoch_s(),
                hit_ratio: report.mean_hit_ratio(),
                gpu_utilization: report.mean_gpu_utilization(),
                imbalance_fraction: report.imbalance_fraction(),
                speedup_vs_pytorch: 1.0,
            }
        })
        .collect();
    if let Some(base) = rows
        .iter()
        .find(|r| r.policy == "pytorch")
        .map(|r| r.mean_epoch_s)
    {
        for r in &mut rows {
            r.speedup_vs_pytorch = base / r.mean_epoch_s;
        }
    }
    rows
}

/// The four systems of §5.1, in presentation order.
pub const BASELINE_NAMES: [&str; 4] = ["pytorch", "dali", "nopfs", "lobster"];

/// Sidecar path `<trace>.metrics.json` next to a trace output file.
pub fn metrics_sidecar(trace_out: &Path) -> PathBuf {
    PathBuf::from(format!("{}.metrics.json", trace_out.display()))
}

/// Sidecar path `<trace>.decisions.jsonl` next to a trace output file.
pub fn decisions_sidecar(trace_out: &Path) -> PathBuf {
    PathBuf::from(format!("{}.decisions.jsonl", trace_out.display()))
}

/// Sidecar path `<trace>.telemetry.jsonl` next to a trace output file:
/// the per-tick frame / anomaly / SLO stream `lobster_top` tails and
/// `lobster_doctor --telemetry` joins into its diagnosis.
pub fn telemetry_sidecar(trace_out: &Path) -> PathBuf {
    PathBuf::from(format!("{}.telemetry.jsonl", trace_out.display()))
}

/// End-of-run observability output: print the metrics snapshot, the
/// decision count, and the online analyzer's conclusions, then write the
/// Chrome trace (Perfetto-viewable) to `trace_out` if given, plus the
/// sidecars `lobster_doctor` ingests alongside the trace:
/// `<trace>.metrics.json` (the snapshot), `<trace>.decisions.jsonl`
/// (the controller decision log), and — when the run recorded telemetry
/// ticks — `<trace>.telemetry.jsonl` (retained frames and anomalies, the
/// same line format as a live `--telemetry-out` stream). A disabled
/// bundle prints and writes nothing.
pub fn write_observability(ins: &Instruments, trace_out: Option<&Path>) {
    if !ins.is_enabled() {
        return;
    }
    let snapshot = ins.metrics_snapshot();
    println!("\n-- metrics snapshot --");
    print!("{}", snapshot.to_text());
    println!("controller decisions logged: {}", ins.decisions().len());
    if let Some(report) = ins.analysis_report().filter(|r| r.iterations > 0) {
        println!("-- bottleneck analysis --");
        println!(
            "iterations {}  gap first {:.1}ms  ewma {:.1}ms  max {:.1}ms",
            report.iterations,
            report.first_gap_s * 1e3,
            report.ewma_gap_s * 1e3,
            report.max_gap_s * 1e3
        );
        if let Some(cat) = report.dominant_category() {
            println!("dominant pipeline bottleneck: {}", cat.label());
        }
        if let Some((node, gpu)) = report.top_straggler() {
            println!(
                "top straggler: node {node} gpu {gpu} ({} episode(s) flagged)",
                report.episodes.len()
            );
        }
        if let Some(ratio) = report.mean_solver_gap_ratio() {
            println!("solver efficacy: mean gap_after/gap_before = {ratio:.2}");
        }
    }
    if ins.trace_dropped() > 0 {
        println!(
            "trace events dropped (buffer full): {}",
            ins.trace_dropped()
        );
    }
    if let Some(path) = trace_out {
        let mut outputs = vec![(
            path.to_path_buf(),
            ins.chrome_trace_json().expect("enabled bundle has a trace"),
        )];
        outputs.push((metrics_sidecar(path), snapshot.to_json()));
        if let Some(decisions) = ins.decisions_jsonl() {
            outputs.push((decisions_sidecar(path), decisions));
        }
        if let Some(snap) = ins.telemetry_snapshot().filter(|s| s.ticks > 0) {
            let mut stream = String::new();
            for f in &snap.frames {
                stream.push_str(&TelemetryLine::Frame(f.clone()).to_json());
                stream.push('\n');
            }
            for a in &snap.anomalies {
                stream.push_str(&TelemetryLine::Anomaly(*a).to_json());
                stream.push('\n');
            }
            outputs.push((telemetry_sidecar(path), stream));
        }
        for (out, contents) in outputs {
            match std::fs::write(&out, contents) {
                Ok(()) => println!("trace -> {}", out.display()),
                Err(e) => {
                    eprintln!("error: cannot write trace to {}: {e}", out.display());
                    std::process::exit(2);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lobster_core::models::resnet50;

    #[test]
    fn scaled_cache_divides_cleanly() {
        assert_eq!(scaled_cache_bytes(1), 40 << 30);
        assert_eq!(scaled_cache_bytes(16), (40u64 << 30) / 16);
    }

    #[test]
    fn paper_config_preserves_ratio_across_scales() {
        let p = BenchParams {
            scale: 64,
            epochs: 2,
            seed: 1,
        };
        let cfg = paper_config(DatasetKind::ImageNet1k, 1, resnet50(), p);
        let frac = cfg.cluster.cache_bytes as f64 / cfg.dataset.total_bytes() as f64;
        // Paper scale: 40 GB / 135 GB ≈ 0.30. Scaled must match within the
        // size-distribution sampling noise.
        assert!((0.24..=0.36).contains(&frac), "cache fraction {frac}");
    }

    #[test]
    fn compare_policies_computes_speedups() {
        let p = BenchParams {
            scale: 512,
            epochs: 2,
            seed: 3,
        };
        let rows = compare_policies(
            || paper_config(DatasetKind::ImageNet1k, 1, resnet50(), p),
            &["pytorch", "lobster"],
            &Instruments::disabled(),
        );
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].speedup_vs_pytorch, 1.0);
        assert!(rows[1].speedup_vs_pytorch > 0.0);
    }
}
