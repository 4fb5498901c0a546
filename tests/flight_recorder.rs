//! Flight recorder end-to-end guarantees (DESIGN.md §12).
//!
//! Two contracts are proven here, at the whole-engine level rather than
//! unit scale:
//!
//! 1. **Golden dump**: a live engine run with seeded poison faults panics
//!    a worker, and the teardown hook's `flightdump_worker_panic_*.json`
//!    retains exactly the recorder's last-K window — byte-for-byte equal
//!    to re-serializing `Instruments::flight_snapshot()` from the same
//!    run, with the dump's fault events matching the engine report — and
//!    the doctor's flight diagnosis of that dump names the trigger.
//! 2. **Zero allocation**: the disabled flight facet never runs its
//!    closures (counting-allocator proof, same harness as
//!    `tests/zero_cost.rs`), and the *enabled* steady-state record path is
//!    also allocation-free once the ring exists — the property that makes
//!    an always-on recorder affordable.
//!
//! The zero-allocation proofs count the measuring thread's allocations
//! only (`tests/common/alloc.rs`), so the engine run's worker threads and
//! the harness's other test threads cannot perturb them.

mod common;

use std::time::Duration;

use common::alloc::thread_allocations as allocations;
use lobster_repro::bench::doctor;
use lobster_repro::data::{Dataset, SizeDistribution};
use lobster_repro::metrics::{
    FlightDump, FlightEvent, FlightFault, FlightTier, Instruments, StageSample,
    DEFAULT_FLIGHT_CAPACITY,
};
use lobster_repro::runtime::{run_with, EngineConfig, SyntheticStore};
use lobster_repro::storage::FaultSpec;

#[test]
fn worker_panic_dump_is_the_recorders_last_k_window() {
    let dir = std::env::temp_dir().join(format!("lobster_flight_golden_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create dump dir");

    let dataset = Dataset::generate(
        "flight_golden",
        128,
        SizeDistribution::Constant { bytes: 4_000 },
        20220822,
    );
    // Poison-only faults: every injected fault is a loader worker panic,
    // so the dump's fault tally must line up with the engine report.
    let plan = FaultSpec::parse("poison=0.15,seed=20220822")
        .expect("spec parses")
        .compile()
        .expect("spec compiles");
    let store = std::sync::Arc::new(SyntheticStore::with_faults(
        dataset,
        Duration::from_micros(50),
        500e6,
        plan,
    ));
    let cfg = EngineConfig {
        consumers: 2,
        batch_size: 8,
        loader_threads: 2,
        preproc_threads: 2,
        epochs: 1,
        seed: 20220822,
        train: Duration::from_micros(200),
        ..EngineConfig::default()
    };

    let ins = Instruments::enabled();
    ins.set_flight_dir(&dir);
    let report = run_with(store, cfg, ins.clone());

    assert!(
        report.worker_panics > 0,
        "seeded poison plan must panic at least one worker"
    );

    // The teardown hook wrote exactly one worker-panic dump.
    let mut dumps: Vec<_> = std::fs::read_dir(&dir)
        .expect("read dump dir")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("flightdump_worker_panic_") && n.ends_with(".json"))
        })
        .collect();
    assert_eq!(dumps.len(), 1, "one teardown dump expected: {dumps:?}");
    let dump_path = dumps.pop().unwrap();

    let dump_text = std::fs::read_to_string(&dump_path).expect("read dump");
    let dump = FlightDump::from_json(&dump_text).expect("dump parses");
    assert_eq!(dump.trigger, "worker_panic");
    assert_eq!(dump.total_events, ins.flight_recorded());
    assert!(
        dump.total_events <= DEFAULT_FLIGHT_CAPACITY as u64,
        "this small run must fit the ring, so the window is complete"
    );

    // Golden check: the dump's retained window re-serializes to the same
    // bytes as a fresh snapshot of the live recorder. Nothing recorded
    // after the teardown dump, so the two views must be identical.
    let live = serde_json::to_string(&ins.flight_snapshot()).expect("snapshot renders");
    let dumped = serde_json::to_string(&dump.events).expect("dump events render");
    assert_eq!(
        dumped, live,
        "dump window must match the live trace tail byte-for-byte"
    );

    // Every worker panic left exactly one WorkerPanic fault event.
    let panics_in_window = dump
        .events
        .iter()
        .filter(|r| {
            matches!(
                r.event,
                FlightEvent::Fault {
                    kind: FlightFault::WorkerPanic,
                    ..
                }
            )
        })
        .count() as u64;
    assert_eq!(panics_in_window, report.worker_panics);

    // The window also carries the run's iteration history.
    let iterations = dump
        .events
        .iter()
        .filter(|r| matches!(r.event, FlightEvent::Iteration { .. }))
        .count();
    assert!(iterations > 0, "iteration events must be retained");

    // Crash forensics end to end: the doctor turns the dump into a
    // non-empty diagnosis that names the trigger first.
    let diagnosis = doctor::diagnose_flight(&dump_text).expect("doctor reads the dump");
    assert!(!diagnosis.is_empty(), "doctor found nothing in the dump");
    let rendered = doctor::render(&diagnosis);
    assert!(
        rendered.contains("flight dump trigger: worker_panic"),
        "doctor did not name the trigger:\n{rendered}"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn disabled_flight_facet_allocates_nothing_and_runs_no_closures() {
    let ins = Instruments::disabled();
    let before = allocations();
    for i in 0..10_000u64 {
        // The closure allocates on purpose (the counting allocator would
        // see it); a disabled bundle must never execute it.
        ins.flight(|| {
            #[allow(clippy::useless_vec)]
            let v = vec![i];
            FlightEvent::Iteration {
                iter: v[0],
                gap_us: 0,
                ewma_gap_us: 0,
            }
        });
        ins.flight_fetch_us(FlightTier::Cache, i);
        ins.flight_fetch_us(FlightTier::Store, i);
    }
    assert_eq!(ins.flight_recorded(), 0);
    assert!(ins.flight_snapshot().is_empty());
    assert_eq!(
        allocations() - before,
        0,
        "disabled flight path must not allocate"
    );
}

#[test]
fn enabled_steady_state_record_path_allocates_nothing() {
    let ins = Instruments::enabled();
    // Warm-up: the ring and tier histograms are preallocated at
    // construction; a few records prove any lazy state settles first.
    for i in 0..8u64 {
        ins.flight(|| FlightEvent::Iteration {
            iter: i,
            gap_us: 10,
            ewma_gap_us: 10,
        });
        ins.flight_fetch_us(FlightTier::Cache, 50);
    }

    let before = allocations();
    for i in 0..10_000u64 {
        ins.flight(|| FlightEvent::Stage {
            iter: i,
            node: 0,
            gpu: 1,
            iter_us: 1_000,
            stages: StageSample::default(),
        });
        ins.flight_fetch_us(FlightTier::Cache, 40 + (i % 7));
        ins.flight_fetch_us(FlightTier::Store, 400 + (i % 13));
    }
    assert_eq!(
        allocations() - before,
        0,
        "enabled steady-state flight record path must not allocate"
    );
    // The window wrapped (10k + warm-up > default capacity): proof the
    // measured loop really exercised overwrite, not an empty stub.
    assert_eq!(ins.flight_recorded(), 10_008);
    assert_eq!(ins.flight_snapshot().len(), DEFAULT_FLIGHT_CAPACITY);
}
