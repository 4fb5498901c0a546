//! # lobster-runtime
//!
//! A real multi-threaded data-loading runtime applying the Lobster policies
//! live — the reproduction's analog of the paper's online C++/DALI
//! component. Unlike `lobster-pipeline` (which *models* stage durations),
//! this crate moves actual bytes through actual threads:
//!
//! * [`store`] — deterministic synthetic samples behind a simulated-PFS
//!   fetch cost.
//! * [`cache`] — a thread-safe, capacity-bounded byte cache with
//!   priority-indexed eviction (shared with the simulator's mechanics) and
//!   single-flight misses.
//! * [`transform`] — an invertible CPU-proportional preprocessing stand-in,
//!   so end-to-end integrity is checkable.
//! * [`engine`] — multi-queue request queues (§4.2), one worker pool
//!   whose workers load or preprocess as a shared role board says, and
//!   consumer ("GPU") threads with a barrier, written as named stages
//!   (feeder, fetch, transform, deliver) on scoped threads that borrow
//!   one shared context. The board keeps the configured split unless
//!   [`EngineConfig::elastic`] lets the elastic controller flip
//!   preproc↔loader roles at iteration boundaries (§4.1).
//! * [`resilient`] — the self-healing fetch path: retries with
//!   backoff + jitter, per-fetch deadlines, refetch of any payload that
//!   fails its memoised canonical checksum.
//! * [`sync`] — abort-aware barrier so a failed worker can never deadlock
//!   the consumer rendezvous, and the elastic pool's shared
//!   [`sync::RoleBoard`].

pub mod cache;
pub mod engine;
pub mod resilient;
pub mod store;
pub mod sync;
pub mod transform;

pub use cache::ShardCache;
pub use engine::{expected_integrity, run, run_with, schedule_spec, EngineConfig, EngineReport};
pub use resilient::{RecoveryStats, ResilientStore};
pub use store::{
    canonical_checksum, sample_bytes, sample_checksum, FetchError, InjectedFaults, SyntheticStore,
};
pub use sync::{AbortableBarrier, BarrierAborted, RoleBoard, ROLE_LOADER, ROLE_PREPROC};
pub use transform::{invert, invert_in_place, preprocess};
