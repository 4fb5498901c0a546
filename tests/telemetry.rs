//! Telemetry plane end-to-end guarantees (DESIGN.md §14).
//!
//! Five contracts are proven here, at whole-run scale:
//!
//! 1. **Cross-executor anomaly conformance**: the analytical `ClusterSim`
//!    and the event-driven conformance DES emit byte-identical anomaly
//!    sequences on the same seeded configuration — five seeds, elastic and
//!    crash topologies.
//! 2. **Replay determinism**: the live engine's online anomaly sequence
//!    equals a fresh `DetectorBank::replay` over its own recorded frames.
//! 3. **Attribution**: a scheduled crash and rejoin fire membership-change
//!    anomalies at exactly their scheduled ticks, carrying the masks.
//! 4. **Detection on the stream**: a seeded 3× slowdown recorded through
//!    `record_tick` fires the throughput-cliff and level-shift detectors
//!    within ±1 tick of its onset, and the `--telemetry-out` file it
//!    writes parses back into frames on which an SLO reads as violated.
//! 5. **Zero allocation**: the disabled telemetry facet never allocates,
//!    and the *enabled* steady-state `record_tick` path is allocation-free
//!    across 1× ring wraps and both rollup-ring wraps (counting-allocator
//!    proof, same harness as `tests/flight_recorder.rs`).
//!
//! The zero-allocation proofs count the measuring thread's allocations
//! only (`tests/common/alloc.rs`), so the other tests' engine and
//! simulator runs on parallel harness threads cannot perturb them.

mod common;

use std::sync::Arc;
use std::time::Duration;

use common::alloc::thread_allocations as allocations;
use lobster_repro::conformance::runner::{
    crash_conformance_config, elastic_conformance_config, run_differential,
};
use lobster_repro::core::policy_by_name;
use lobster_repro::data::{Dataset, SizeDistribution};
use lobster_repro::metrics::{
    evaluate_slos, parse_slo_specs, parse_telemetry_stream, DetectorBank, DetectorConfig,
    DetectorKind, FlightTier, Instruments, TelemetryLine, TickScalars, DEFAULT_TELEMETRY_CAPACITY,
};
use lobster_repro::pipeline::ClusterSim;
use lobster_repro::runtime::{run_with, EngineConfig, SyntheticStore};
use lobster_repro::storage::CrashSpec;

// ---------------------------------------------------------------------
// 1. Cross-executor anomaly conformance (five seeds, two topologies).
// ---------------------------------------------------------------------

#[test]
fn anomaly_sequences_agree_across_executors_for_five_seeds() {
    let mut total_firings = 0usize;
    for seed in 11..=15u64 {
        for cfg in [
            elastic_conformance_config(seed),
            crash_conformance_config(seed),
        ] {
            run_differential(&cfg, "lobster").unwrap_or_else(|d| panic!("seed {seed}: {d}"));
            let policy = policy_by_name("lobster").unwrap();
            let (_, obs) = ClusterSim::new(cfg, policy).run_observed();
            total_firings += obs.anomalies.len();
        }
    }
    // The observable must not be vacuous across the seed sweep: the
    // elastic work-factor step and the crash schedules trip detectors.
    assert!(
        total_firings > 0,
        "five-seed sweep fired no anomalies — conformance would be vacuous"
    );
}

// ---------------------------------------------------------------------
// 2 + 3. Engine: replay determinism and crash/rejoin attribution.
// ---------------------------------------------------------------------

fn engine_dataset(n: usize) -> Dataset {
    Dataset::generate(
        "it-telemetry",
        n,
        SizeDistribution::Uniform {
            lo: 1_000,
            hi: 8_000,
        },
        29,
    )
}

fn engine_cfg() -> EngineConfig {
    EngineConfig {
        consumers: 2,
        batch_size: 4,
        loader_threads: 3,
        preproc_threads: 2,
        epochs: 2,
        seed: 31,
        train: Duration::from_micros(200),
        ..EngineConfig::default()
    }
}

#[test]
fn engine_anomaly_sequence_replays_exactly_from_recorded_frames() {
    let ds = engine_dataset(96);
    let cfg = engine_cfg();
    let store = Arc::new(SyntheticStore::new(ds, Duration::from_micros(20), 0.0));
    let ins = Instruments::enabled();
    let report = run_with(store, cfg, ins.clone());
    assert!(!report.aborted);

    let snap = ins.telemetry_snapshot().expect("enabled instruments");
    // 96 / (4 × 2) = 12 iterations per epoch × 2 epochs — one frame each,
    // all retained (far below the 1× ring capacity).
    assert_eq!(snap.ticks, report.iterations);
    assert_eq!(snap.frames.len(), report.iterations as usize);
    assert_eq!(snap.anomalies_dropped, 0);
    // Frames carry the run's delivery accounting tick by tick.
    let delivered: u64 = snap.frames.iter().map(|f| f.scalars.delivered).sum();
    assert_eq!(delivered, report.delivered);
    // ...and the role board's split: 3 loaders and 2 preprocs, frozen.
    for f in &snap.frames {
        assert_eq!(
            (f.scalars.loader_workers, f.scalars.preproc_workers),
            (3, 2),
            "worker counts at tick {}",
            f.scalars.tick
        );
    }

    // Replay determinism: a fresh bank over the recorded frames must
    // reproduce the online sequence byte-for-byte.
    let scalars: Vec<TickScalars> = snap.frames.iter().map(|f| f.scalars).collect();
    let replayed = DetectorBank::replay(DetectorConfig::standard(), &scalars);
    assert_eq!(
        replayed, snap.anomalies,
        "online and replayed anomaly sequences must be identical"
    );
    assert_eq!(report.anomalies, snap.anomalies);
}

#[test]
fn engine_crash_and_rejoin_fire_membership_anomalies_at_their_ticks() {
    let ds = engine_dataset(96);
    let cfg = EngineConfig {
        crashes: vec![CrashSpec {
            node: 1,
            tick: 2,
            rejoin: Some(5),
        }],
        peer_nodes: 3,
        ..engine_cfg()
    };
    let store = Arc::new(SyntheticStore::new(ds, Duration::ZERO, 0.0));
    let ins = Instruments::enabled();
    let report = run_with(store, cfg, ins.clone());
    assert!(!report.aborted, "a scheduled crash must be healed");

    // The frames record the membership mask while node 1 is down.
    let snap = ins.telemetry_snapshot().unwrap();
    for f in &snap.frames {
        let want = if (2..5).contains(&f.scalars.tick) {
            2
        } else {
            0
        };
        assert_eq!(
            f.scalars.down_mask, want,
            "down mask at tick {}",
            f.scalars.tick
        );
    }

    // Exactly two membership-change anomalies: the crash at its tick
    // (mask 0 → 2) and the rejoin at its tick (mask 2 → 0).
    let membership: Vec<_> = report
        .anomalies
        .iter()
        .filter(|a| a.kind == DetectorKind::MembershipChange)
        .collect();
    assert_eq!(membership.len(), 2, "{:?}", report.anomalies);
    assert_eq!(
        (
            membership[0].tick,
            membership[0].baseline,
            membership[0].value
        ),
        (2, 0, 2),
        "crash attribution"
    );
    assert_eq!(
        (
            membership[1].tick,
            membership[1].baseline,
            membership[1].value
        ),
        (5, 2, 0),
        "rejoin attribution"
    );
    assert!(membership.iter().all(|a| a.severity == 1));
}

// ---------------------------------------------------------------------
// 4. A seeded slowdown, detected on the recorded stream.
// ---------------------------------------------------------------------

/// 48 ticks of a healthy pipeline with a small deterministic wiggle; the
/// iteration time triples from tick 24 on.
#[test]
fn seeded_slowdown_is_detected_within_one_tick_and_violates_the_slo_on_file() {
    const SLOW_AT: u64 = 24;
    let path = std::env::temp_dir().join(format!(
        "lobster-telemetry-slowdown-{}.jsonl",
        std::process::id()
    ));
    let ins = Instruments::enabled();
    ins.set_telemetry_out(&path).unwrap();
    for tick in 0..48u64 {
        let iter_us = (10_000 + (tick % 5) * 16) * if tick >= SLOW_AT { 3 } else { 1 };
        ins.record_tick(TickScalars {
            tick,
            gap_us: 900 + (tick % 7) * 3,
            iter_us,
            local_hits: 52,
            remote_hits: 9,
            misses: 3,
            prefetched: 12,
            evictions: 4,
            delivered: 64,
            preproc_workers: 2,
            loader_workers: 6,
            ..TickScalars::default()
        });
    }
    ins.flush_telemetry();

    let anomalies = ins.telemetry_anomalies();
    let first = |kind| {
        anomalies
            .iter()
            .find(|a| a.kind == kind)
            .unwrap_or_else(|| panic!("the slowdown fired no {kind:?}: {anomalies:?}"))
    };
    let cliff = first(DetectorKind::ThroughputCliff);
    assert!(cliff.tick.abs_diff(SLOW_AT) <= 1, "cliff at {}", cliff.tick);
    let shift = first(DetectorKind::LevelShift);
    assert!(
        shift.onset_tick.abs_diff(SLOW_AT) <= 1,
        "level-shift onset at {}",
        shift.onset_tick
    );

    // The file carries every frame and firing; the SLO is judged on it.
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    let lines = parse_telemetry_stream(&text).unwrap();
    let frames: Vec<_> = lines
        .iter()
        .filter_map(|l| match l {
            TelemetryLine::Frame(f) => Some(f.clone()),
            _ => None,
        })
        .collect();
    assert_eq!(frames.len(), 48);
    let on_file = lines
        .iter()
        .filter(|l| matches!(l, TelemetryLine::Anomaly(_)))
        .count();
    assert_eq!(on_file, anomalies.len(), "every firing reaches the file");
    let verdicts = evaluate_slos(&parse_slo_specs("iter_us<=15000").unwrap(), &frames);
    assert!(!verdicts[0].pass, "{:?}", verdicts[0]);
    assert_eq!(verdicts[0].violations, 48 - SLOW_AT);
}

// ---------------------------------------------------------------------
// 5. Zero-allocation contracts.
// ---------------------------------------------------------------------

fn quiet_frame(tick: u64) -> TickScalars {
    TickScalars {
        tick,
        // Gentle variation exercises the arithmetic without crossing any
        // detector threshold (devs stay far under the min_dev_us floor).
        gap_us: 1_000 + tick % 3,
        iter_us: 50_000 + tick % 11,
        local_hits: 6,
        remote_hits: 1,
        misses: 1,
        prefetched: 2,
        evictions: 1,
        retries: 0,
        delivered: 8,
        preproc_workers: 2,
        loader_workers: 3,
        down_mask: 0,
    }
}

#[test]
fn disabled_telemetry_facet_allocates_nothing() {
    let ins = Instruments::disabled();
    let before = allocations();
    for i in 0..10_000u64 {
        ins.telemetry_fetch_us(FlightTier::Cache, 40 + (i % 7));
        ins.telemetry_fetch_us(FlightTier::Store, 400 + (i % 13));
        assert_eq!(ins.record_tick(quiet_frame(i)), 0);
    }
    assert_eq!(ins.anomaly_count(), 0);
    assert!(ins.telemetry_snapshot().is_none());
    assert_eq!(
        allocations() - before,
        0,
        "disabled telemetry path must not allocate"
    );
}

#[test]
fn enabled_steady_state_record_tick_allocates_nothing_across_wraps() {
    let ins = Instruments::enabled();
    // Warm-up: rings, rollup accumulators, and per-tier tick histograms
    // are preallocated at construction; a few records settle any lazy
    // state before the measured window opens.
    for i in 0..8u64 {
        ins.telemetry_fetch_us(FlightTier::Cache, 50);
        ins.record_tick(quiet_frame(i));
    }

    // 10 008 total ticks: the 1× ring (512) wraps ~19×, the 8× rollup
    // ring (256 slots, one per 8 ticks) wraps ~4×, and the 64× ring
    // (128 slots, one per 64 ticks) wraps once — every boundary the
    // cascade has is crossed inside the measured window.
    let before = allocations();
    for i in 8..10_008u64 {
        ins.telemetry_fetch_us(FlightTier::Cache, 40 + (i % 7));
        ins.telemetry_fetch_us(FlightTier::Store, 400 + (i % 13));
        ins.record_tick(quiet_frame(i));
    }
    assert_eq!(
        allocations() - before,
        0,
        "enabled steady-state record_tick path must not allocate"
    );

    let snap = ins.telemetry_snapshot().unwrap();
    assert_eq!(snap.ticks, 10_008, "every tick recorded");
    assert_eq!(
        snap.frames.len(),
        DEFAULT_TELEMETRY_CAPACITY,
        "1× ring wrapped"
    );
    assert_eq!(snap.anomalies.len(), 0, "quiet frames must stay quiet");
    assert_eq!(snap.anomalies_dropped, 0);
    // The rollup cascade really ran: both rings are at capacity.
    assert_eq!(snap.rollup8.len(), 256);
    assert_eq!(snap.rollup64.len(), 128);
}
