//! # lobster-sim
//!
//! Deterministic discrete-event simulation substrate for the Lobster
//! reproduction (ICPP '22, Liu/Nicolae/Li).
//!
//! The paper evaluates Lobster on a 24-node A100 cluster with a Lustre
//! parallel file system; none of that hardware is available here, so — per
//! the reproduction's substitution rules — the cluster is modelled by a
//! small, exact discrete-event kernel:
//!
//! * [`time`] — integer-nanosecond simulated time.
//! * [`rng`] — self-contained seeded PRNGs (SplitMix64 / xoshiro256**) so the
//!   deterministic-prefetching property the paper relies on is bit-exact.
//! * [`engine`] — typed event queue with FIFO tie-breaking and a
//!   [`engine::SimWorld`] trait.
//!
//! Everything in this crate is deterministic: same seed, same event stream,
//! same results, on every platform.

pub mod engine;
pub mod rng;
pub mod time;

pub use engine::{run, RunStats, Scheduler, SimWorld};
pub use rng::{derive_seed, derive_seed2, SplitMix64, Xoshiro256StarStar};
pub use time::{SimDuration, SimTime};
