//! The disabled observability path must be free: no allocation, no work.
//!
//! `Instruments::disabled()` is what every un-instrumented run carries
//! through the engine's per-batch hot path, so "one branch per site" is a
//! hard contract, not an aspiration. This test drives the exact site
//! shapes the engine uses — the fetch-span closure, pre-fetched
//! counter/gauge handles, `now_us`, and `observe_iteration` — under the
//! shared counting allocator, asserting the fully-disabled path performs
//! zero heap allocations on the measuring thread. Its cost in time is the
//! benchmark's `metrics.instruments.disabled_call_ns` (see
//! `benchmark/README.md`).

mod common;

use common::alloc::thread_allocations as allocations;
use lobster_repro::metrics::{GpuIterSample, Instruments, StageSample, TraceEvent};

#[test]
fn disabled_fetch_span_path_allocates_nothing() {
    let ins = Instruments::disabled();
    // Handles are fetched once at setup time, exactly as the engine does;
    // disabled handles are free-floating cells.
    let fetches = ins.counter("engine.fetches");
    let depth = ins.gauge("engine.queue_depth");

    // Warm up any lazy runtime state outside the measured window.
    fetches.inc();
    ins.trace(|| TraceEvent::span("fetch", "io", 0, 1));

    let before = allocations();
    for i in 0..10_000u64 {
        let ts = ins.now_us();
        // The closure builds a span with args — allocation-bearing work the
        // disabled bundle must never execute.
        ins.trace(|| {
            TraceEvent::span("fetch", "io", ts, 10)
                .pid(0)
                .tid(1)
                .arg_u("bytes", i)
                .arg_s("tier", "cache")
        });
        fetches.inc();
        depth.add(1);
    }
    assert_eq!(
        allocations() - before,
        0,
        "disabled fetch-span path must not allocate"
    );
}

#[test]
fn disabled_observe_iteration_allocates_nothing() {
    let ins = Instruments::disabled();
    let before = allocations();
    for iter in 0..1_000u64 {
        let out = ins.observe_iteration(iter, 0, || {
            // Building the sample vector allocates; disabled bundles must
            // not run this closure.
            vec![GpuIterSample {
                node: 0,
                gpu: 0,
                iter_s: 0.1,
                stages: StageSample::default(),
            }]
        });
        assert!(out.is_none());
    }
    assert_eq!(
        allocations() - before,
        0,
        "disabled observe_iteration must not allocate"
    );
}

#[test]
fn steady_state_elastic_tick_allocates_nothing() {
    use lobster_repro::core::elastic::{ElasticController, ElasticObservation, ElasticParams};

    // The elastic controller sits on the engine's per-iteration tick path
    // (consumer 0, between the barrier and the next batch), so its
    // steady state rides the same contract as the disabled instruments:
    // once the regression fit and the loader plan are memoized, a tick
    // that changes nothing must not touch the heap.
    let params = ElasticParams::for_pool(8, 2);
    let mut ctl = ElasticController::new(params, 2);

    // Warm-up: first tick builds the points, the fit, and the loader
    // plan; a second tick proves the memo keys hold before measuring.
    for t in 0..2u64 {
        ctl.tick(&ElasticObservation::for_iteration(t, 16_384.0, 1, 8, 2e-4));
    }

    let before = allocations();
    for t in 2..2_002u64 {
        let obs = ElasticObservation::for_iteration(t, 16_384.0, 1, 8, 2e-4);
        let d = ctl.tick(&obs);
        assert!(d.flipped.is_empty(), "steady state must not flip");
    }
    assert_eq!(
        allocations() - before,
        0,
        "steady-state elastic tick must not allocate"
    );
}

#[test]
fn enabled_bundle_does_record_as_a_control() {
    // Sanity check that the harness above would catch regressions: the
    // enabled path performs the same operations and does allocate.
    let ins = Instruments::enabled();
    let fetches = ins.counter("engine.fetches");
    let before = allocations();
    for _ in 0..16 {
        let ts = ins.now_us();
        ins.trace(|| TraceEvent::span("fetch", "io", ts, 10).arg_s("tier", "cache"));
        fetches.inc();
    }
    assert!(
        allocations() > before,
        "enabled path records (and allocates)"
    );
    assert_eq!(ins.metrics_snapshot().get("engine.fetches"), Some(16));
}
