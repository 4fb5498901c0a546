//! Always-on flight recorder: a fixed-capacity ring that retains the last
//! K structured events of a run — per-stage [`StageSample`]s, tier fetch
//! latencies as mergeable [`LogHistogram`]s, elastic role flips, and
//! fault/retry/escalation events — so a worker panic, a deadline
//! escalation, or a conformance divergence can dump a self-describing
//! `flightdump_*.json` without anyone having asked for a trace up front.
//!
//! ## Ring layout
//!
//! The ring is a preallocated `Vec` of K slots plus one atomic ticket
//! counter. A writer claims its slot with a single wait-free
//! `fetch_add` (ticket `t` owns slot `t % K`) and stores a fixed-size
//! `Copy` record under that slot's guard — there is no global lock, the
//! write path never allocates, and a slot guard can only be contended
//! when K writes lap the ring simultaneously or a dump is being taken.
//! Overwritten history is detected by the ticket stamped into each
//! record: a snapshot walks tickets `head-K .. head` and keeps only
//! slots whose stamp matches, so a torn-past slot is skipped, never
//! misreported.
//!
//! Tier latencies are too frequent to ring-buffer one event each; they
//! aggregate into one [`LogHistogram`] per [`FlightTier`].
//!
//! ## Dump format
//!
//! [`FlightDump`] is schema-versioned (`schema_version`, `kind`) and
//! carries the retained events in seq order plus the per-tier
//! histograms in their sparse [`CompactHistogram`] form. The doctor's
//! `--flight` mode ([`lobster_doctor`]) re-runs the same phase
//! diagnosis over a dump that it runs over a full trace.
//!
//! [`lobster_doctor`]: ../../lobster_bench/doctor/index.html

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use serde::{Deserialize, Serialize};

use crate::analysis::StageSample;
use crate::histogram::{CompactHistogram, LogHistogram};

/// Version stamped into (and required of) every flight dump.
pub const FLIGHT_SCHEMA_VERSION: u32 = 1;

/// The `kind` discriminator stamped into every flight dump.
pub const FLIGHT_DUMP_KIND: &str = "lobster-flightdump";

/// Default ring capacity: enough for the last few hundred iterations of a
/// small cluster (each iteration records one `Iteration` event plus one
/// `Stage` event per GPU).
pub const DEFAULT_FLIGHT_CAPACITY: usize = 4096;

/// Which tier served a fetch, for the aggregated latency histograms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FlightTier {
    /// Node-local cache hit.
    Cache,
    /// Backing store (the engine's resilient fetch path).
    Store,
}

impl FlightTier {
    pub const ALL: [FlightTier; 2] = [FlightTier::Cache, FlightTier::Store];

    pub fn label(self) -> &'static str {
        match self {
            FlightTier::Cache => "cache",
            FlightTier::Store => "store",
        }
    }

    fn index(self) -> usize {
        match self {
            FlightTier::Cache => 0,
            FlightTier::Store => 1,
        }
    }
}

/// Fault classes recorded into the ring (mirrors the trace's
/// `fault_*` instants).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FlightFault {
    /// Transient store error, retried.
    Transient,
    /// Checksum mismatch, refetched.
    Corruption,
    /// Per-fetch deadline expired, round abandoned.
    Deadline,
    /// A loader worker panicked and was contained.
    WorkerPanic,
    /// A peer-routed fetch found the peer crashed and failed over to the
    /// PFS without burning a retry round.
    PeerDown,
}

impl FlightFault {
    pub fn label(self) -> &'static str {
        match self {
            FlightFault::Transient => "transient",
            FlightFault::Corruption => "corruption",
            FlightFault::Deadline => "deadline",
            FlightFault::WorkerPanic => "worker_panic",
            FlightFault::PeerDown => "peer_down",
        }
    }
}

/// One structured event in the ring. Every variant is fixed-size `Copy`
/// so the record path stores by value and never allocates.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FlightEvent {
    /// One engine iteration's analyzer conclusion (consumer 0, post-barrier).
    Iteration {
        iter: u64,
        gap_us: u64,
        ewma_gap_us: u64,
    },
    /// One GPU's per-stage blame decomposition for an iteration.
    Stage {
        iter: u64,
        node: u32,
        gpu: u32,
        iter_us: u64,
        stages: StageSample,
    },
    /// An elastic controller tick changed worker roles.
    RoleFlip {
        tick: u64,
        loaders: u32,
        preprocs: u32,
        flips: u32,
    },
    /// An injected or organic fault was observed.
    Fault { kind: FlightFault, sample: u64 },
    /// A fetch retried beyond its first attempt.
    Retry { sample: u64, round: u64 },
    /// A fetch round expired and the next round's deadline budget doubled.
    Escalation {
        sample: u64,
        round: u64,
        budget_ms: u64,
    },
    /// First divergence found by the conformance harness.
    Divergence { iteration: u64 },
    /// A cluster-membership transition: a node crashed (losing its cache)
    /// or rejoined cold, at a tick boundary of the compiled crash plan.
    MembershipChange { tick: u64, node: u32, crashed: bool },
    /// An online telemetry detector fired (see
    /// [`DetectorBank`](crate::telemetry::DetectorBank)); `value` and
    /// `baseline` are detector-specific integers, units per
    /// [`DetectorKind`](crate::telemetry::DetectorKind).
    Anomaly {
        kind: crate::telemetry::DetectorKind,
        tick: u64,
        value: u64,
        baseline: u64,
    },
}

/// A ring entry: the event plus its global ordinal and timestamp.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FlightRecord {
    /// Global ordinal (ticket) of this event; dense across the run even
    /// though only the last K survive.
    pub seq: u64,
    /// Microseconds since the bundle's trace origin.
    pub ts_us: u64,
    pub event: FlightEvent,
}

/// The fixed-capacity event ring plus per-tier latency histograms.
pub struct FlightRecorder {
    slots: Vec<Mutex<FlightRecord>>,
    head: AtomicU64,
    tiers: Vec<Mutex<LogHistogram>>,
}

impl FlightRecorder {
    pub fn new(capacity: usize) -> FlightRecorder {
        assert!(capacity > 0, "flight recorder needs at least one slot");
        let empty = FlightRecord {
            seq: u64::MAX,
            ts_us: 0,
            event: FlightEvent::Iteration {
                iter: 0,
                gap_us: 0,
                ewma_gap_us: 0,
            },
        };
        FlightRecorder {
            slots: (0..capacity).map(|_| Mutex::new(empty)).collect(),
            head: AtomicU64::new(0),
            tiers: FlightTier::ALL
                .iter()
                .map(|_| Mutex::new(LogHistogram::new()))
                .collect(),
        }
    }

    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Events ever recorded (retained = `min(total, capacity)`).
    pub fn total_recorded(&self) -> u64 {
        self.head.load(Ordering::Acquire)
    }

    /// Record one event. Wait-free slot claim, allocation-free store.
    #[inline]
    pub fn record(&self, ts_us: u64, event: FlightEvent) {
        let ticket = self.head.fetch_add(1, Ordering::AcqRel);
        let slot = &self.slots[(ticket % self.slots.len() as u64) as usize];
        *slot.lock().unwrap_or_else(|e| e.into_inner()) = FlightRecord {
            seq: ticket,
            ts_us,
            event,
        };
    }

    /// Fold one fetch latency into the tier's aggregate histogram
    /// (allocation-free: the histogram's buckets are preallocated).
    #[inline]
    pub fn record_fetch_us(&self, tier: FlightTier, us: u64) {
        self.tiers[tier.index()]
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .record(us);
    }

    /// Copy of one tier's aggregate latency histogram.
    pub fn tier_histogram(&self, tier: FlightTier) -> LogHistogram {
        self.tiers[tier.index()]
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// The retained events in seq order (oldest first). Slots overwritten
    /// by a racing writer between the head read and the slot read are
    /// skipped rather than misordered.
    pub fn snapshot(&self) -> Vec<FlightRecord> {
        let head = self.head.load(Ordering::Acquire);
        let cap = self.slots.len() as u64;
        let start = head.saturating_sub(cap);
        let mut out = Vec::with_capacity((head - start) as usize);
        for ticket in start..head {
            let rec = *self.slots[(ticket % cap) as usize]
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            if rec.seq == ticket {
                out.push(rec);
            }
        }
        out
    }

    /// Build the self-describing dump for `trigger`.
    pub fn dump(&self, trigger: &str) -> FlightDump {
        FlightDump {
            kind: FLIGHT_DUMP_KIND.to_string(),
            schema_version: FLIGHT_SCHEMA_VERSION,
            trigger: trigger.to_string(),
            capacity: self.slots.len() as u64,
            total_events: self.total_recorded(),
            events: self.snapshot(),
            tiers: FlightTier::ALL
                .iter()
                .map(|&t| FlightTierDump {
                    tier: t,
                    latency_us: self.tier_histogram(t).to_compact(),
                })
                .collect(),
        }
    }
}

/// One tier's aggregated fetch-latency histogram in a dump.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlightTierDump {
    pub tier: FlightTier,
    pub latency_us: CompactHistogram,
}

/// The serialized flight dump (`flightdump_*.json`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlightDump {
    /// Always [`FLIGHT_DUMP_KIND`]; rejects unrelated JSON on ingest.
    pub kind: String,
    /// Always [`FLIGHT_SCHEMA_VERSION`].
    pub schema_version: u32,
    /// What fired the dump: `worker_panic`, `abort`,
    /// `deadline_escalation`, or `conformance_divergence`.
    pub trigger: String,
    /// Ring capacity K at the time of the dump.
    pub capacity: u64,
    /// Events recorded over the whole run; `events` holds the last
    /// `min(total_events, capacity)` of them.
    pub total_events: u64,
    /// Retained events, oldest first.
    pub events: Vec<FlightRecord>,
    /// Per-tier fetch latency histograms (sparse form).
    pub tiers: Vec<FlightTierDump>,
}

impl FlightDump {
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("flight dump render")
    }

    /// Parse and validate a dump: the kind and schema version must match,
    /// and every tier histogram must rebuild cleanly.
    pub fn from_json(text: &str) -> Result<FlightDump, String> {
        let dump: FlightDump =
            serde_json::from_str(text).map_err(|e| format!("flight dump parse: {e}"))?;
        if dump.kind != FLIGHT_DUMP_KIND {
            return Err(format!(
                "not a flight dump: kind {:?} (want {FLIGHT_DUMP_KIND:?})",
                dump.kind
            ));
        }
        if dump.schema_version != FLIGHT_SCHEMA_VERSION {
            return Err(format!(
                "unsupported flight schema version {} (supported: {FLIGHT_SCHEMA_VERSION})",
                dump.schema_version
            ));
        }
        for t in &dump.tiers {
            LogHistogram::from_compact(&t.latency_us)
                .map_err(|e| format!("tier {} histogram: {e}", t.tier.label()))?;
        }
        Ok(dump)
    }

    /// The rebuilt latency histogram for `tier`, `None` if absent.
    pub fn tier_histogram(&self, tier: FlightTier) -> Option<LogHistogram> {
        self.tiers
            .iter()
            .find(|t| t.tier == tier)
            .and_then(|t| LogHistogram::from_compact(&t.latency_us).ok())
    }

    /// Where a dump file lands for a given trigger and ordinal.
    pub fn file_name(trigger: &str, ordinal: u64) -> String {
        format!("flightdump_{trigger}_{ordinal:04}.json")
    }

    /// Write the dump under `dir` (created if missing); returns the path.
    pub fn write_to(&self, dir: &std::path::Path, ordinal: u64) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(Self::file_name(&self.trigger, ordinal));
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iter_event(iter: u64) -> FlightEvent {
        FlightEvent::Iteration {
            iter,
            gap_us: iter * 10,
            ewma_gap_us: iter * 8,
        }
    }

    #[test]
    fn ring_retains_the_last_k_in_order() {
        let rec = FlightRecorder::new(8);
        for i in 0..20u64 {
            rec.record(i, iter_event(i));
        }
        assert_eq!(rec.total_recorded(), 20);
        let snap = rec.snapshot();
        assert_eq!(snap.len(), 8);
        let seqs: Vec<u64> = snap.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, (12..20).collect::<Vec<u64>>());
        assert!(matches!(
            snap[0].event,
            FlightEvent::Iteration { iter: 12, .. }
        ));
    }

    #[test]
    fn partial_fill_snapshots_everything() {
        let rec = FlightRecorder::new(16);
        rec.record(1, iter_event(0));
        rec.record(
            2,
            FlightEvent::Fault {
                kind: FlightFault::WorkerPanic,
                sample: 7,
            },
        );
        let snap = rec.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].seq, 0);
        assert_eq!(snap[1].seq, 1);
        assert_eq!(
            snap[1].event,
            FlightEvent::Fault {
                kind: FlightFault::WorkerPanic,
                sample: 7
            }
        );
    }

    #[test]
    fn concurrent_writers_lose_nothing() {
        let rec = FlightRecorder::new(1 << 12);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let rec = &rec;
                s.spawn(move || {
                    for i in 0..500u64 {
                        rec.record(i, iter_event(t * 1000 + i));
                    }
                });
            }
        });
        assert_eq!(rec.total_recorded(), 2000);
        let snap = rec.snapshot();
        assert_eq!(snap.len(), 2000, "capacity exceeds total: all retained");
        for (k, r) in snap.iter().enumerate() {
            assert_eq!(r.seq, k as u64, "seq order is dense and sorted");
        }
    }

    #[test]
    fn tier_histograms_aggregate() {
        let rec = FlightRecorder::new(4);
        rec.record_fetch_us(FlightTier::Cache, 10);
        rec.record_fetch_us(FlightTier::Cache, 20);
        rec.record_fetch_us(FlightTier::Store, 4000);

        assert_eq!(rec.tier_histogram(FlightTier::Cache).count(), 2);
        assert_eq!(rec.tier_histogram(FlightTier::Store).count(), 1);
        assert_eq!(rec.tier_histogram(FlightTier::Store).max(), Some(4000));
    }

    #[test]
    fn dump_round_trips_with_validation() {
        let rec = FlightRecorder::new(8);
        for i in 0..3 {
            rec.record(i * 100, iter_event(i));
        }
        rec.record(
            350,
            FlightEvent::Stage {
                iter: 2,
                node: 0,
                gpu: 1,
                iter_us: 900,
                stages: StageSample::default(),
            },
        );
        rec.record_fetch_us(FlightTier::Store, 1234);

        let dump = rec.dump("worker_panic");
        let json = dump.to_json();
        let back = FlightDump::from_json(&json).expect("valid dump");
        assert_eq!(back, dump);
        assert_eq!(back.trigger, "worker_panic");
        assert_eq!(back.total_events, 4);
        assert_eq!(back.events.len(), 4);
        assert_eq!(
            back.tier_histogram(FlightTier::Store).unwrap().max(),
            Some(1234)
        );
    }

    #[test]
    fn from_json_rejects_foreign_and_future_documents() {
        assert!(FlightDump::from_json("{}").is_err());
        assert!(FlightDump::from_json("not json").is_err());

        let rec = FlightRecorder::new(2);
        let mut dump = rec.dump("abort");
        dump.kind = "something-else".to_string();
        assert!(FlightDump::from_json(&dump.to_json())
            .unwrap_err()
            .contains("not a flight dump"));

        let mut dump = rec.dump("abort");
        dump.schema_version = FLIGHT_SCHEMA_VERSION + 1;
        assert!(FlightDump::from_json(&dump.to_json())
            .unwrap_err()
            .contains("unsupported"));
    }

    #[test]
    fn dump_file_name_embeds_trigger_and_ordinal() {
        assert_eq!(
            FlightDump::file_name("deadline_escalation", 3),
            "flightdump_deadline_escalation_0003.json"
        );
    }
}
