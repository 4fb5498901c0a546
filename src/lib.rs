//! # lobster-repro
//!
//! A from-scratch Rust reproduction of **Lobster: Load Balance-Aware I/O
//! for Distributed DNN Training** (Liu, Nicolae, Li — ICPP '22).
//!
//! This facade re-exports the workspace crates:
//!
//! * [`sim`] — deterministic discrete-event kernel (simulated time, a
//!   typed event queue, seeded PRNGs).
//! * [`data`] — synthetic ImageNet-scale datasets, seeded distributed
//!   shuffling, and the reuse-distance oracle.
//! * [`storage`] — the three-tier storage hierarchy (`T_l`, `T_r`,
//!   `T_PFS`).
//! * [`cache`] — node-local caches with priority eviction and the
//!   distributed replica directory.
//! * [`core`] — the paper's contribution: performance model (Eq. 1–3),
//!   piece-wise linear regression, Algorithm 1, preprocessing governor,
//!   reuse-aware eviction, and all loader policies (PyTorch, DALI, NoPFS,
//!   Lobster + ablations).
//! * [`pipeline`] — the cluster executor that turns a policy into epoch
//!   times, hit ratios, utilization, and imbalance counts.
//! * [`runtime`] — a real multi-threaded loading engine applying the
//!   policies live.
//! * [`metrics`] — histograms, summaries, tables, result sinks.
//! * [`conformance`] — differential conformance harness proving the
//!   executors implement the same semantics (DESIGN.md §10).
//!
//! ```
//! use lobster_repro::pipeline::{ClusterSim, ConfigBuilder};
//! use lobster_repro::core::LobsterPolicy;
//!
//! let dataset = lobster_repro::data::Dataset::generate(
//!     "demo", 4096, lobster_repro::data::SizeDistribution::Constant { bytes: 100_000 }, 1);
//! let cfg = ConfigBuilder::new()
//!     .nodes(1).gpus_per_node(4).batch_size(16)
//!     .cache_bytes(dataset.total_bytes() / 4)
//!     .epochs(2)
//!     .dataset(dataset)
//!     .build();
//! let (report, _) = ClusterSim::new(cfg, Box::new(LobsterPolicy::full())).run();
//! assert!(report.mean_epoch_s() > 0.0);
//! ```

pub use lobster_bench as bench;
pub use lobster_cache as cache;
pub use lobster_conformance as conformance;
pub use lobster_core as core;
pub use lobster_data as data;
pub use lobster_metrics as metrics;
pub use lobster_pipeline as pipeline;
pub use lobster_runtime as runtime;
pub use lobster_sim as sim;
pub use lobster_storage as storage;
