//! # lobster-bench
//!
//! The experiment harness that regenerates every figure and table of the
//! paper's evaluation (see DESIGN.md §5 for the full index). [`harness`]
//! holds the scaled paper configurations; each `src/bin/fig*.rs` binary
//! reproduces one figure and writes `results/<name>.{json,csv}`.

pub mod doctor;
pub mod harness;

pub use harness::{
    compare_policies, compare_policies_with, decisions_sidecar, faults_from_args, metrics_sidecar,
    observability_from_args, paper_config, params_from_args, run_policy, run_policy_with,
    scaled_cache_bytes, telemetry_sidecar, workload_from_args, write_observability, BenchParams,
    DatasetKind, PolicyRow, BASELINE_NAMES,
};
