//! Self-healing fetch path: [`ResilientStore`] wraps a [`SyntheticStore`]
//! with bounded retries (exponential backoff + decorrelated jitter),
//! per-fetch deadlines, and checksum verification with automatic refetch on
//! corruption. Payloads are verified against a per-run checksum manifest
//! (8 B per sample, filled from the canonical stream on an id's first
//! fetch), so a miss costs one checksum pass over the fetched bytes. Every
//! recovery action is instrumented through `lobster-metrics` so a trace
//! shows each injected fault and the engine healing around it.
//!
//! The contract to callers is simple: `fetch` returns verified canonical
//! bytes, or [`FetchError::Cancelled`] when the engine is shutting down.
//! Transient errors, stalls, deadline overruns, and corrupted payloads are
//! absorbed here — a deadline overrun ends the current *round* and the next
//! round doubles its budget (capped), so even a pathological stall schedule
//! eventually converges while a single slow fetch can never wedge a loader
//! forever.

use crate::store::{canonical_and_payload_checksums, sample_checksum, FetchError, SyntheticStore};
use lobster_data::SampleId;
use lobster_metrics::{FlightEvent, FlightFault, Instruments};
use lobster_sim::derive_seed2;
use lobster_storage::faults::RetryPolicy;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Stream constant separating backoff jitter draws from every other seeded
/// stream in the workspace.
const BACKOFF_STREAM: u64 = 0x4241_434B_4F46_4621;

/// Rounds double the fetch deadline up to this shift (×64), then stay flat.
const MAX_DEADLINE_DOUBLINGS: u32 = 6;

/// Hard ceiling on deadline rounds per fetch; hitting it means the store
/// can never serve the sample (a schedule bug, not an injected fault).
const MAX_ROUNDS: u64 = 64;

/// A fetch entering this round (budget ×2^round) is escalating past normal
/// stall recovery; the first such fetch triggers a flight dump so the
/// window leading up to the escalation survives even if the run later
/// converges or wedges.
const ESCALATION_DUMP_ROUND: u64 = 3;

/// Counts of recovery actions taken, for [`EngineReport`] and tests.
///
/// [`EngineReport`]: crate::engine::EngineReport
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Fetch attempts beyond the first (transient errors + corrupt refetches).
    pub retries: u64,
    /// Payloads that failed checksum verification and were refetched.
    pub corruptions_detected: u64,
    /// Rounds abandoned because the per-fetch deadline expired.
    pub deadline_exceeded: u64,
    /// Peer-routed fetches that found the peer crashed and failed over to
    /// the PFS immediately (no backoff, no retry round burned).
    pub peer_failovers: u64,
}

/// A store wrapper that turns the fallible, fault-injected
/// [`SyntheticStore::try_fetch`] into a verified-or-cancelled fetch.
pub struct ResilientStore {
    store: Arc<SyntheticStore>,
    policy: RetryPolicy,
    instruments: Instruments,
    retries: AtomicU64,
    corruptions: AtomicU64,
    deadlines: AtomicU64,
    peer_failovers: AtomicU64,
    /// One escalation dump per store lifetime: set by the first fetch
    /// whose deadline round reaches [`ESCALATION_DUMP_ROUND`].
    escalation_dumped: AtomicBool,
    /// Checksum manifest: each sample's canonical checksum, indexed by id,
    /// 0 = not yet known. Filled from the canonical stream — never from
    /// fetched bytes — so memoising it cannot admit a corrupted payload.
    manifest: Box<[AtomicU64]>,
}

impl ResilientStore {
    pub fn new(
        store: Arc<SyntheticStore>,
        policy: RetryPolicy,
        instruments: Instruments,
    ) -> ResilientStore {
        let manifest = (0..store.dataset().len())
            .map(|_| AtomicU64::new(0))
            .collect();
        ResilientStore {
            manifest,
            store,
            policy,
            instruments,
            retries: AtomicU64::new(0),
            corruptions: AtomicU64::new(0),
            deadlines: AtomicU64::new(0),
            peer_failovers: AtomicU64::new(0),
            escalation_dumped: AtomicBool::new(false),
        }
    }

    pub fn inner(&self) -> &Arc<SyntheticStore> {
        &self.store
    }

    pub fn policy(&self) -> RetryPolicy {
        self.policy
    }

    pub fn stats(&self) -> RecoveryStats {
        RecoveryStats {
            retries: self.retries.load(Ordering::Relaxed),
            corruptions_detected: self.corruptions.load(Ordering::Relaxed),
            deadline_exceeded: self.deadlines.load(Ordering::Relaxed),
            peer_failovers: self.peer_failovers.load(Ordering::Relaxed),
        }
    }

    fn note_retry(&self, id: SampleId, round: u64) {
        self.retries.fetch_add(1, Ordering::Relaxed);
        self.instruments.counter("engine.retries").inc();
        self.instruments.flight(|| FlightEvent::Retry {
            sample: id.0 as u64,
            round,
        });
    }

    /// `(expected, actual)` checksums of a payload fetched for `id`. The
    /// expected one comes from the manifest; an id's first fetch fills its
    /// slot from the canonical stream, hashed in the same pass as the
    /// payload. Racing first fetches store the same value, and the slot
    /// publishes nothing else, so `Relaxed` suffices.
    fn checksums(&self, id: SampleId, len: usize, payload: &[u8]) -> (u64, u64) {
        let slot = &self.manifest[id.index()];
        match slot.load(Ordering::Relaxed) {
            0 => {
                let (want, got) = canonical_and_payload_checksums(id, len, payload);
                slot.store(want, Ordering::Relaxed);
                (want, got)
            }
            want => (want, sample_checksum(payload)),
        }
    }

    /// Fetch `id`, retrying until the payload verifies against its canonical
    /// checksum. Only engine shutdown escapes as an error.
    pub fn fetch(&self, id: SampleId) -> Result<Vec<u8>, FetchError> {
        let len = self.store.dataset().size_of(id) as usize;
        let mut first_attempt = true;
        // After a PeerDown the fetch goes straight at the PFS for the rest
        // of its life: the peer's crash window is tick-scoped, retrying the
        // routed path would just fail fast again.
        let mut direct = false;
        for round in 0..MAX_ROUNDS {
            let budget = self
                .policy
                .deadline
                .saturating_mul(1 << round.min(MAX_DEADLINE_DOUBLINGS as u64) as u32);
            if round >= ESCALATION_DUMP_ROUND {
                self.instruments.flight(|| FlightEvent::Escalation {
                    sample: id.0 as u64,
                    round,
                    budget_ms: budget.as_millis() as u64,
                });
                if !self.escalation_dumped.swap(true, Ordering::Relaxed) {
                    let _ = self.instruments.flight_dump_to_disk("deadline_escalation");
                }
            }
            let round_start = Instant::now();
            let mut backoff = self
                .policy
                .backoff(derive_seed2(BACKOFF_STREAM, id.0 as u64, round));
            let mut attempt = 0;
            while attempt < self.policy.max_attempts.max(1) {
                if !first_attempt {
                    self.note_retry(id, round);
                }
                let remaining = budget.saturating_sub(round_start.elapsed());
                if remaining.is_zero() {
                    break;
                }
                let result = if direct {
                    self.store.try_fetch_direct(id, Some(remaining))
                } else {
                    self.store.try_fetch(id, Some(remaining))
                };
                match result {
                    Ok(bytes) => {
                        let (want, got) = self.checksums(id, len, &bytes);
                        if got == want {
                            if !first_attempt {
                                let ts = self.instruments.now_us();
                                self.instruments.trace(|| {
                                    lobster_metrics::TraceEvent::instant(
                                        "fault_recovered",
                                        "fault",
                                        ts,
                                    )
                                    .arg_u("sample", id.0 as u64)
                                });
                            }
                            return Ok(bytes);
                        }
                        // Corrupted payload: count, trace, refetch.
                        first_attempt = false;
                        self.corruptions.fetch_add(1, Ordering::Relaxed);
                        self.instruments
                            .counter("engine.corruptions_detected")
                            .inc();
                        let ts = self.instruments.now_us();
                        self.instruments.trace(|| {
                            lobster_metrics::TraceEvent::instant("fault_corruption", "fault", ts)
                                .arg_u("sample", id.0 as u64)
                        });
                        self.instruments.flight(|| FlightEvent::Fault {
                            kind: FlightFault::Corruption,
                            sample: id.0 as u64,
                        });
                    }
                    Err(FetchError::Transient { .. }) => {
                        first_attempt = false;
                        let ts = self.instruments.now_us();
                        self.instruments.trace(|| {
                            lobster_metrics::TraceEvent::instant("fault_transient", "fault", ts)
                                .arg_u("sample", id.0 as u64)
                        });
                        self.instruments.flight(|| FlightEvent::Fault {
                            kind: FlightFault::Transient,
                            sample: id.0 as u64,
                        });
                    }
                    Err(FetchError::DeadlineExceeded { .. }) => {
                        first_attempt = false;
                        self.deadlines.fetch_add(1, Ordering::Relaxed);
                        self.instruments.counter("engine.deadline_exceeded").inc();
                        let ts = self.instruments.now_us();
                        self.instruments.trace(|| {
                            lobster_metrics::TraceEvent::instant("fault_deadline", "fault", ts)
                                .arg_u("sample", id.0 as u64)
                                .arg_u("round", round)
                        });
                        self.instruments.flight(|| FlightEvent::Fault {
                            kind: FlightFault::Deadline,
                            sample: id.0 as u64,
                        });
                        // Give the next round a doubled budget instead of
                        // burning this round's remaining attempts.
                        break;
                    }
                    Err(FetchError::PeerDown { peer }) => {
                        // Immediate PFS failover: no backoff, no attempt
                        // consumed, no retry counted — the peer-down
                        // fast-fail is routing, not a storage fault.
                        direct = true;
                        self.peer_failovers.fetch_add(1, Ordering::Relaxed);
                        self.instruments.counter("engine.peer_failovers").inc();
                        let ts = self.instruments.now_us();
                        self.instruments.trace(|| {
                            lobster_metrics::TraceEvent::instant("fault_peer_down", "fault", ts)
                                .arg_u("sample", id.0 as u64)
                                .arg_u("peer", peer as u64)
                        });
                        self.instruments.flight(|| FlightEvent::Fault {
                            kind: FlightFault::PeerDown,
                            sample: id.0 as u64,
                        });
                        continue;
                    }
                    Err(FetchError::Cancelled) => return Err(FetchError::Cancelled),
                }
                attempt += 1;
                // Backoff before the next attempt, clamped to the round's
                // remaining budget (the schedule's cumulative sum already
                // respects `policy.deadline`, this guards the doubled
                // budgets of later rounds too).
                match backoff.next() {
                    Some(delay) => {
                        let sleep = delay.min(budget.saturating_sub(round_start.elapsed()));
                        if !sleep.is_zero() {
                            std::thread::sleep(sleep);
                        }
                    }
                    None => break,
                }
            }
        }
        panic!(
            "resilient fetch of sample {} exhausted {MAX_ROUNDS} deadline rounds \
             — fault schedule denies all service",
            id.0
        );
    }

    /// Convenience for fault-free callers: fetch and unwrap, panicking on
    /// shutdown (used only in tests).
    #[cfg(test)]
    fn fetch_verified(&self, id: SampleId) -> Vec<u8> {
        self.fetch(id).expect("not cancelled")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::sample_bytes;
    use lobster_data::{Dataset, SizeDistribution};
    use lobster_storage::faults::FaultSpec;
    use std::time::Duration;

    fn dataset() -> Dataset {
        Dataset::generate("rs", 64, SizeDistribution::Uniform { lo: 100, hi: 1000 }, 5)
    }

    fn policy() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 8,
            base: Duration::from_micros(100),
            cap: Duration::from_millis(2),
            deadline: Duration::from_millis(250),
        }
    }

    #[test]
    fn fault_free_fetch_passes_through() {
        let ds = dataset();
        let want = sample_bytes(SampleId(1), ds.size_of(SampleId(1)) as usize);
        let store = Arc::new(SyntheticStore::new(ds, Duration::ZERO, 0.0));
        let rs = ResilientStore::new(store, policy(), Instruments::disabled());
        assert_eq!(rs.fetch_verified(SampleId(1)), want);
        assert_eq!(rs.stats(), RecoveryStats::default());
    }

    #[test]
    fn transient_errors_are_retried_to_success() {
        let plan = FaultSpec {
            transient_rate: 0.4,
            seed: 11,
            ..FaultSpec::default()
        }
        .compile()
        .unwrap();
        let ds = dataset();
        let store = Arc::new(SyntheticStore::with_faults(ds, Duration::ZERO, 0.0, plan));
        let rs = ResilientStore::new(store, policy(), Instruments::enabled());
        for i in 0..48u32 {
            let id = SampleId(i % 64);
            let want = sample_bytes(id, rs.inner().dataset().size_of(id) as usize);
            assert_eq!(rs.fetch_verified(id), want);
        }
        assert!(rs.stats().retries > 0, "rate 0.4 over 48 fetches");
        assert!(
            rs.instruments
                .metrics_snapshot()
                .get("engine.retries")
                .unwrap_or(0)
                > 0,
            "retries exported to the metric registry"
        );
    }

    #[test]
    fn peer_down_fails_over_to_direct_without_burning_retries() {
        let ds = dataset();
        let store = Arc::new(SyntheticStore::new(ds, Duration::ZERO, 0.0));
        store.configure_peers(2);
        // Find a sample routed to peer 1, then mark that peer down.
        let victim = (0..64u32)
            .map(SampleId)
            .find(|&s| store.peer_of(s) == Some(1))
            .expect("some sample routes to peer 1");
        store.set_down_mask(1 << 1);
        let rs = ResilientStore::new(store, policy(), Instruments::enabled());
        let want = sample_bytes(victim, rs.inner().dataset().size_of(victim) as usize);
        assert_eq!(rs.fetch_verified(victim), want);
        let stats = rs.stats();
        assert!(stats.peer_failovers > 0, "failover path taken");
        assert_eq!(stats.retries, 0, "failover is not a retry");
        assert!(
            rs.instruments
                .metrics_snapshot()
                .get("engine.peer_failovers")
                .unwrap_or(0)
                > 0,
            "failovers exported to the metric registry"
        );
    }

    #[test]
    fn corruption_is_detected_and_refetched() {
        let plan = FaultSpec {
            corrupt_rate: 0.5,
            seed: 21,
            ..FaultSpec::default()
        }
        .compile()
        .unwrap();
        let store = Arc::new(SyntheticStore::with_faults(
            dataset(),
            Duration::ZERO,
            0.0,
            plan,
        ));
        let rs = ResilientStore::new(store, policy(), Instruments::disabled());
        // Every delivered payload is canonical even though half the raw
        // fetches come back damaged: on the first pass, which fills the
        // checksum manifest, and on the second, which verifies against it.
        for _ in 0..2 {
            for i in 0..64u32 {
                let id = SampleId(i);
                let want = sample_bytes(id, rs.inner().dataset().size_of(id) as usize);
                assert_eq!(rs.fetch_verified(id), want, "sample {i}");
            }
        }
        assert!(rs.stats().corruptions_detected > 0);
        assert_eq!(
            rs.stats().corruptions_detected,
            rs.inner().injected().corruptions
        );
    }

    #[test]
    fn stalls_hit_the_deadline_then_recover_with_a_larger_budget() {
        let plan = FaultSpec {
            stall_rate: 0.5,
            stall: Duration::from_millis(40),
            seed: 31,
            ..FaultSpec::default()
        }
        .compile()
        .unwrap();
        let store = Arc::new(SyntheticStore::with_faults(
            dataset(),
            Duration::ZERO,
            0.0,
            plan,
        ));
        let tight = RetryPolicy {
            deadline: Duration::from_millis(5),
            ..policy()
        };
        let rs = ResilientStore::new(store, tight, Instruments::disabled());
        for i in 0..16u32 {
            let id = SampleId(i);
            let want = sample_bytes(id, rs.inner().dataset().size_of(id) as usize);
            assert_eq!(rs.fetch_verified(id), want);
        }
        assert!(
            rs.stats().deadline_exceeded > 0,
            "40 ms stalls vs 5 ms deadline"
        );
    }

    #[test]
    fn cancellation_escapes_immediately() {
        let store = Arc::new(SyntheticStore::new(dataset(), Duration::ZERO, 10.0));
        let cancel = store.cancel_handle();
        let rs = Arc::new(ResilientStore::new(
            store,
            policy(),
            Instruments::disabled(),
        ));
        let rs2 = Arc::clone(&rs);
        let worker = std::thread::spawn(move || rs2.fetch(SampleId(0)));
        std::thread::sleep(Duration::from_millis(20));
        cancel.store(true, Ordering::Relaxed);
        assert_eq!(worker.join().unwrap(), Err(FetchError::Cancelled));
    }
}
