//! # lobster-bench
//!
//! The experiment harness that regenerates every figure and table of the
//! paper's evaluation (see DESIGN.md §5 for the full index). [`harness`]
//! holds the scaled paper configurations; the `lobster_figures` binary
//! (`src/bin/lobster_figures/`, one module per figure) reproduces them and
//! writes `results/<name>.{json,csv}`.

pub mod doctor;
pub mod harness;

pub use harness::{
    compare_policies, decisions_sidecar, metrics_sidecar, paper_config, run_policy,
    scaled_cache_bytes, telemetry_sidecar, write_observability, BenchParams, DatasetKind,
    PolicyRow, BASELINE_NAMES,
};
