//! End-to-end tests of the live multi-threaded engine: integrity under
//! contention, skewed stores, and deadlock-freedom at awkward sizes.

use lobster_repro::data::{Dataset, SizeDistribution};
use lobster_repro::metrics::{DecisionSource, Instruments};
use lobster_repro::runtime::{expected_integrity, run, run_with, EngineConfig, SyntheticStore};
use lobster_repro::storage::RetryPolicy;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

#[path = "common/watchdog.rs"]
mod watchdog;
use watchdog::with_watchdog;

fn store(samples: usize, latency: Duration) -> Arc<SyntheticStore> {
    let ds = Dataset::generate(
        "it-engine",
        samples,
        SizeDistribution::Uniform {
            lo: 1_000,
            hi: 20_000,
        },
        21,
    );
    Arc::new(SyntheticStore::new(ds, latency, 0.0))
}

#[test]
fn many_consumers_complete_with_integrity() {
    let cfg = EngineConfig {
        consumers: 6,
        batch_size: 4,
        loader_threads: 3,
        preproc_threads: 2,
        cache_bytes: 64 << 20,
        work_factor: 1,
        train: Duration::from_micros(300),
        epochs: 2,
        seed: 5,
        retry: RetryPolicy::default(),
        ..EngineConfig::default()
    };
    let s = store(240, Duration::from_micros(100));
    let expected = expected_integrity(s.dataset(), &cfg);
    let report = with_watchdog(Duration::from_secs(120), move || run(s, cfg));
    assert_eq!(report.iterations, 20); // 240/(6×4)=10 per epoch × 2
    assert_eq!(report.integrity, expected);
}

#[test]
fn more_loaders_than_consumers_is_fine() {
    let cfg = EngineConfig {
        consumers: 2,
        batch_size: 4,
        loader_threads: 6,
        preproc_threads: 3,
        epochs: 1,
        ..EngineConfig::default()
    };
    let s = store(64, Duration::ZERO);
    let expected = expected_integrity(s.dataset(), &cfg);
    let report = run(s, cfg);
    assert_eq!(report.integrity, expected);
}

#[test]
fn tiny_cache_still_delivers_correct_bytes() {
    // Cache fits almost nothing: constant churn, but never corruption.
    let cfg = EngineConfig {
        consumers: 2,
        batch_size: 4,
        loader_threads: 2,
        preproc_threads: 2,
        cache_bytes: 30_000,
        work_factor: 1,
        train: Duration::from_micros(100),
        epochs: 2,
        seed: 9,
        retry: RetryPolicy::default(),
        ..EngineConfig::default()
    };
    let s = store(96, Duration::ZERO);
    let expected = expected_integrity(s.dataset(), &cfg);
    let report = run(Arc::clone(&s), cfg);
    assert_eq!(report.integrity, expected);
    // With a ~2-sample cache the store must be hit a lot.
    assert!(
        report.store_fetches > 96,
        "fetches {}",
        report.store_fetches
    );
}

#[test]
fn cancelled_store_aborts_and_drains() {
    // A store cancelled mid-run (from another thread) fails the in-flight
    // fetch. That must abort the run and drain every stage: the pool leaves,
    // the feeder's blocked send fails, and the consumers take the abort
    // branch. The watchdog turns a hang into a clean failure.
    let cfg = EngineConfig {
        consumers: 2,
        batch_size: 4,
        loader_threads: 2,
        preproc_threads: 2,
        cache_bytes: 64 << 10,
        epochs: 50,
        ..EngineConfig::default()
    };
    let s = store(64, Duration::from_millis(2));
    let scheduled = (64 / (2 * 4)) * 50;
    let cancel = s.cancel_handle();
    let raiser = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(100));
        cancel.store(true, Ordering::Relaxed);
    });
    let report = with_watchdog(Duration::from_secs(10), move || run(s, cfg));
    raiser.join().unwrap();
    assert!(report.aborted, "a cancelled store must abort the run");
    assert_eq!(report.iterations, report.iteration_secs.len() as u64);
    assert!(
        report.iterations < scheduled,
        "an aborted run executes fewer than the {scheduled} scheduled iterations"
    );
}

#[test]
fn slow_store_does_not_deadlock_the_barrier() {
    // The regression this pins: preprocessing blocked on one consumer's
    // full channel while that consumer waited at the barrier. With credit
    // pacing + unbounded delivery this must finish promptly.
    let cfg = EngineConfig {
        consumers: 4,
        batch_size: 8,
        loader_threads: 4,
        preproc_threads: 2,
        cache_bytes: 32 << 20,
        work_factor: 2,
        train: Duration::from_millis(1),
        epochs: 2,
        seed: 42,
        retry: RetryPolicy::default(),
        ..EngineConfig::default()
    };
    let ds = Dataset::generate(
        "deadlock",
        512,
        SizeDistribution::Uniform {
            lo: 8_000,
            hi: 64_000,
        },
        11,
    );
    let s = Arc::new(SyntheticStore::new(ds, Duration::from_micros(300), 100e6));
    // Completion is the logical barrier: the watchdog turns a deadlock into
    // a clean failure, instead of a hung test plus a wall-clock assertion
    // that a loaded CI machine could trip spuriously.
    let report = with_watchdog(Duration::from_secs(120), move || run(s, cfg));
    assert_eq!(report.delivered, 1024);
    assert!(!report.aborted, "run must drain, not bail out");
}

fn instrumented_cfg() -> EngineConfig {
    EngineConfig {
        consumers: 4,
        batch_size: 8,
        loader_threads: 4,
        preproc_threads: 2,
        cache_bytes: 8 << 20,
        work_factor: 1,
        train: Duration::from_millis(1),
        epochs: 2,
        seed: 3,
        retry: RetryPolicy::default(),
        ..EngineConfig::default()
    }
}

#[test]
fn instrumented_static_run_balances_cache_counters() {
    let cfg = instrumented_cfg();
    let s = store(256, Duration::from_micros(50));
    let expected = expected_integrity(s.dataset(), &cfg);
    let ins = Instruments::enabled();
    let report = run_with(s, cfg, ins.clone());
    assert_eq!(
        report.integrity, expected,
        "instrumentation must not disturb the data path"
    );
    // A frozen role board makes no decisions.
    assert!(ins.decisions().is_empty());

    // Accounting invariant: the cache is consulted exactly once per fetch
    // request, so hits + misses must equal the fetch count.
    let snap = ins.metrics_snapshot();
    let hits = snap.get("engine.cache_hits").unwrap();
    let misses = snap.get("engine.cache_misses").unwrap();
    let fetches = snap.get("engine.fetches").unwrap();
    assert_eq!(
        hits + misses,
        fetches,
        "hits {hits} + misses {misses} != fetches {fetches}"
    );
    // Every scheduled sample triggers exactly one fetch request.
    assert_eq!(fetches as u64, report.delivered);
    assert_eq!(
        snap.get("engine.delivered").unwrap() as u64,
        report.delivered
    );
}

#[test]
fn instrumented_elastic_run_logs_one_traced_decision_per_role_flip() {
    let cfg = EngineConfig {
        elastic: true,
        elastic_churn: true,
        ..instrumented_cfg()
    };
    let s = store(256, Duration::from_micros(50));
    let expected = expected_integrity(s.dataset(), &cfg);
    let ins = Instruments::enabled();
    let report = run_with(s, cfg, ins.clone());
    assert_eq!(report.integrity, expected);

    // Forced churn flips roles, and every flip is one ElasticPool record
    // that also landed in the trace as a controller_decision instant.
    let decisions = ins.decisions();
    assert!(
        !decisions.is_empty(),
        "a churning elastic run must log role-flip decisions"
    );
    assert!(decisions
        .iter()
        .all(|d| d.source == DecisionSource::ElasticPool));
    let trace = ins.chrome_trace_json().expect("enabled bundle has a trace");
    let doc: serde_json::Value = serde_json::from_str(&trace).unwrap();
    let events = doc["traceEvents"].as_array().unwrap();
    let decision_ts: Vec<u64> = events
        .iter()
        .filter(|e| e["name"].as_str() == Some("controller_decision"))
        .map(|e| e["ts"].as_u64().unwrap())
        .collect();
    assert_eq!(decision_ts.len(), decisions.len());
    for d in &decisions {
        assert_eq!(
            decision_ts.iter().filter(|&&ts| ts == d.ts_us).count(),
            1,
            "decision at {} µs needs exactly one trace instant",
            d.ts_us
        );
    }
}

#[test]
fn disabled_instruments_change_nothing() {
    let cfg = EngineConfig {
        epochs: 1,
        ..EngineConfig::default()
    };
    let s = store(64, Duration::ZERO);
    let expected = expected_integrity(s.dataset(), &cfg);
    let ins = Instruments::disabled();
    let report = run_with(s, cfg, ins.clone());
    assert_eq!(report.integrity, expected);
    assert!(ins.metrics_snapshot().is_empty());
    assert!(ins.decisions().is_empty());
    assert!(ins.chrome_trace_json().is_none());
}

#[test]
fn iteration_times_are_recorded_for_every_iteration() {
    let cfg = EngineConfig {
        epochs: 3,
        ..EngineConfig::default()
    };
    let s = store(64, Duration::ZERO);
    let report = run(s, cfg.clone());
    let iters_per_epoch = 64 / (cfg.consumers * cfg.batch_size);
    assert_eq!(
        report.iteration_secs.len(),
        iters_per_epoch * cfg.epochs as usize
    );
    // Individual iterations can be faster than the clock resolution, so
    // `> 0` per entry would be timing-dependent; non-negative per entry
    // plus a positive total is the invariant that always holds.
    assert!(report
        .iteration_secs
        .iter()
        .all(|&t| t.is_finite() && t >= 0.0));
    assert!(report.iteration_secs.iter().sum::<f64>() > 0.0);
}
