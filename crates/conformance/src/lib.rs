//! Differential conformance harness: proves the executors agree.
//!
//! The workspace has two execution models of the same paper: the
//! analytical cluster executor (`lobster_pipeline::ClusterSim`) and the
//! live threaded engine (`lobster_runtime::engine`). Each exists because
//! the other can't do its job — and each is a chance for the reproduction
//! to silently drift from the paper's semantics. This crate makes the
//! redundancy load-bearing (NoPFS validated its simulator the same way;
//! FoundationDB made the pattern famous):
//!
//! * [`des::DesCluster`] — a third, event-driven implementation of the
//!   full cluster semantics on the `lobster-sim` kernel, re-deriving the
//!   §4.4 rules from the paper rather than sharing `lobster-core`'s code.
//! * [`compare`] — field-by-field comparison of [`RunObservables`] records
//!   with a structured first-divergence report.
//! * [`runner`] — drives one seeded config through the executors
//!   ([`runner::run_differential`]), checks the live engine's delivery
//!   record against the seeded schedule
//!   ([`runner::check_engine_delivery`]), and arms mutation canaries
//!   ([`runner::run_canary`]).
//! * [`refmodel`] — model-based checking of the cache layer and §4.4
//!   eviction rules against naive reference models, plus a greedy trace
//!   shrinker (the vendored proptest shim does not shrink).
//! * [`mutation`] — the deliberate single-rule flips the canary mode uses
//!   to prove the harness can actually detect a broken rule.
//!
//! [`RunObservables`]: lobster_pipeline::observe::RunObservables

pub mod compare;
pub mod des;
pub mod mutation;
pub mod refmodel;
pub mod runner;

pub use compare::{compare_runs, Divergence};
pub use des::{DesCluster, DesRun};
pub use mutation::Mutation;
pub use refmodel::{
    check_sweep, check_trace, horizon_boundary_fixture, naive_next_use, naive_sweep_expectation,
    shrink_trace, BoundaryFixture, Op, RefCache, SweepExpectation,
};
pub use runner::{
    check_engine_delivery, conformance_config, crash_conformance_config,
    elastic_conformance_config, engine_epoch_multisets, record_divergence_flight,
    run_boundary_canary, run_canary, run_differential, run_differential_recorded,
    workload_conformance_config, workload_conformance_matrix, CanaryOutcome, DiffSummary,
    DES_MODEL, ENGINE_MODEL, SIM_MODEL, SWEEP_MODEL, TIME_TOL_S,
};
