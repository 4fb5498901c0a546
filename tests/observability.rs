//! Integration tests of the observability layer: the Chrome trace-event
//! exporter's JSON shape (golden-file style — written to disk, parsed back
//! with serde_json), the metric registry's cross-thread behaviour, and the
//! simulator's event stream.

use lobster_repro::core::LobsterPolicy;
use lobster_repro::data::{Dataset, SizeDistribution};
use lobster_repro::metrics::{Instruments, MetricRegistry, TraceBuffer, TraceEvent};
use lobster_repro::pipeline::{ClusterSim, ConfigBuilder};

/// The exporter's output must be a valid Chrome trace-event document:
/// `{"traceEvents": [...]}` where every event has `ph`/`ts`/`pid`/`tid`,
/// spans (`ph == "X"`) carry `dur`, and args survive the round trip.
#[test]
fn chrome_trace_export_golden_file() {
    let buf = TraceBuffer::new();
    buf.push(
        TraceEvent::span("fetch", "io", 1_000, 250)
            .pid(2)
            .tid(5)
            .arg_s("tier", "store")
            .arg_u("bytes", 16_384)
            .arg_f("cost_s", 0.00025),
    );
    buf.push(
        TraceEvent::instant("queue_enqueue", "queue", 1_100)
            .tid(1)
            .arg_u("depth", 7),
    );

    let dir = std::env::temp_dir().join("lobster-trace-golden");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("trace.json");
    std::fs::write(&path, buf.chrome_trace_json()).unwrap();

    let text = std::fs::read_to_string(&path).unwrap();
    let doc: serde_json::Value = serde_json::from_str(&text).unwrap();
    let events = doc["traceEvents"].as_array().expect("traceEvents array");
    assert_eq!(events.len(), 2);

    let span = &events[0];
    assert_eq!(span["name"].as_str(), Some("fetch"));
    assert_eq!(span["cat"].as_str(), Some("io"));
    assert_eq!(span["ph"].as_str(), Some("X"));
    assert_eq!(span["ts"].as_u64(), Some(1_000));
    assert_eq!(span["dur"].as_u64(), Some(250));
    assert_eq!(span["pid"].as_u64(), Some(2));
    assert_eq!(span["tid"].as_u64(), Some(5));
    assert_eq!(span["args"]["tier"].as_str(), Some("store"));
    assert_eq!(span["args"]["bytes"].as_u64(), Some(16_384));
    assert!(span["args"]["cost_s"].as_f64().unwrap() > 0.0);

    let instant = &events[1];
    assert_eq!(instant["ph"].as_str(), Some("i"));
    assert_eq!(instant["ts"].as_u64(), Some(1_100));
    assert!(instant["pid"].as_u64().is_some() && instant["tid"].as_u64().is_some());
    assert_eq!(instant["args"]["depth"].as_u64(), Some(7));

    // Every event in any export satisfies the required-field contract.
    for e in events {
        for field in ["name", "cat", "ph", "ts", "pid", "tid"] {
            assert!(!e[field].is_null(), "event missing {field}: {e:?}");
        }
    }
}

#[test]
fn registry_snapshot_is_consistent_under_concurrent_writers() {
    let reg = MetricRegistry::new();
    let a = reg.counter("t.a");
    let b = reg.counter("t.b");
    std::thread::scope(|s| {
        for _ in 0..4 {
            let a = a.clone();
            let b = b.clone();
            s.spawn(move || {
                // Maintain a+b invariant pairwise so any consistent
                // snapshot shows equal counts once writers finish.
                for _ in 0..5_000 {
                    a.inc();
                    b.inc();
                }
            });
        }
    });
    let snap = reg.snapshot();
    assert_eq!(snap.get("t.a"), Some(20_000));
    assert_eq!(snap.get("t.b"), Some(20_000));
}

/// An instrumented simulator run produces a coherent event stream: fetch
/// spans and queue/cache instants on the simulated timeline, and `sim.*`
/// counters agreeing with the run report.
#[test]
fn simulator_trace_matches_report() {
    let dataset = Dataset::generate(
        "obs-sim",
        2_048,
        SizeDistribution::Constant { bytes: 100_000 },
        17,
    );
    let cfg = ConfigBuilder::new()
        .nodes(2)
        .gpus_per_node(2)
        .batch_size(16)
        .cache_bytes(dataset.total_bytes() / 4)
        .epochs(2)
        .dataset(dataset)
        .build();
    let ins = Instruments::enabled();
    let (report, _) = ClusterSim::new(cfg, Box::new(LobsterPolicy::full()))
        .with_instruments(ins.clone())
        .run();

    let snap = ins.metrics_snapshot();
    let local: u64 = report.epochs.iter().map(|e| e.local_hits).sum();
    let misses: u64 = report.epochs.iter().map(|e| e.misses).sum();
    assert_eq!(snap.get("sim.local_hits").unwrap() as u64, local);
    assert_eq!(snap.get("sim.misses").unwrap() as u64, misses);

    let doc: serde_json::Value = serde_json::from_str(&ins.chrome_trace_json().unwrap()).unwrap();
    let events = doc["traceEvents"].as_array().unwrap();
    let count = |name: &str| {
        events
            .iter()
            .filter(|e| e["name"].as_str() == Some(name))
            .count()
    };
    assert!(count("fetch") > 0, "no fetch spans");
    assert!(count("queue_depth") > 0, "no queue instants");
    assert!(count("cache") > 0, "no cache instants");
    assert!(count("train") > 0, "no train spans");
    // Timestamps are simulated time: monotone-sorted export, finite values.
    let ts: Vec<u64> = events.iter().map(|e| e["ts"].as_u64().unwrap()).collect();
    assert!(
        ts.windows(2).all(|w| w[0] <= w[1]),
        "snapshot must be time-sorted"
    );
}

/// Deterministic straggler attribution, end to end: a simulated cluster
/// with one node slowed 4x on I/O must be blamed — online and offline —
/// on the right GPU *and* the right storage tier.
///
/// Golden expectations (fixed seed, fixed config): the straggler is
/// node 1 / gpu 0, the dominant blame tier is the PFS, and the doctor's
/// offline reconstruction of the exported trace reaches the same verdict
/// as the online analyzer.
#[test]
fn forced_slow_node_is_attributed_to_gpu_and_tier() {
    let dataset = Dataset::generate(
        "obs-straggler",
        4_096,
        SizeDistribution::Constant { bytes: 1_000_000 },
        7,
    );
    let cfg = ConfigBuilder::new()
        .nodes(2)
        .gpus_per_node(1)
        .batch_size(16)
        .cache_bytes(dataset.total_bytes() / 16)
        .pipeline_threads(6)
        .epochs(4)
        .slow_node(1, 4.0)
        .dataset(dataset)
        .build();
    let ins = Instruments::enabled();
    let (_report, _) = ClusterSim::new(cfg, Box::new(LobsterPolicy::full()))
        .with_instruments(ins.clone())
        .run();

    // Online: the analyzer names the injected straggler and its tier.
    let online = ins.analysis_report().expect("enabled");
    assert_eq!(online.top_straggler(), Some((1, 0)), "injected straggler");
    assert!(!online.episodes.is_empty(), "episodes flagged");
    for ep in &online.episodes {
        assert_eq!((ep.node, ep.gpu), (1, 0));
        assert_eq!(ep.dominant.tier(), Some("pfs"), "dominant tier per episode");
    }
    let straggler_blame = online
        .per_gpu
        .iter()
        .find(|g| (g.node, g.gpu) == (1, 0))
        .unwrap();
    assert_eq!(
        straggler_blame
            .stages
            .dominant_pipeline_category()
            .unwrap()
            .tier(),
        Some("pfs"),
        "the slow node's time goes to PFS fetches"
    );
    assert!(straggler_blame.slowest_count * 2 > online.iterations);

    // Mirrored gauges: straggler_gpu encodes (node << 16) | gpu.
    let snap = ins.metrics_snapshot();
    assert_eq!(snap.get("analysis.straggler_gpu"), Some(1 << 16));
    assert!(snap.get("analysis.straggler_episodes").unwrap() >= 1);
    assert!(snap.get("analysis.gap_us").unwrap() > 0);

    // Offline: the doctor reads the exported trace + sidecars and reaches
    // the same verdict.
    use lobster_repro::bench::doctor::{diagnose, render, Diagnosis};
    let trace = ins.chrome_trace_json().unwrap();
    assert_eq!(ins.trace_dropped(), 0, "run must fit the trace buffer");
    let d = diagnose(&trace, Some(&snap), &ins.decisions()).unwrap();
    assert!(!d.is_empty());
    let call = d.straggler.as_ref().expect("doctor names a straggler");
    assert_eq!((call.node, call.gpu), (1, 0));
    assert_eq!(d.top_bottleneck.as_deref(), Some("pfs_fetch"));
    assert!(!d.solver.is_empty(), "decision log joined");
    assert!(d.tiers.iter().any(|t| t.tier == "pfs" && t.count > 0));
    let text = render(&d);
    assert!(text.contains("straggler: node 1 gpu 0"));
    assert!(text.contains("pfs_fetch"));

    // The doctor's machine-readable output round-trips losslessly.
    let json = serde_json::to_string_pretty(&d).unwrap();
    let back: Diagnosis = serde_json::from_str(&json).unwrap();
    assert_eq!(serde_json::to_string_pretty(&back).unwrap(), json);
    assert_eq!(back.straggler.map(|s| (s.node, s.gpu)), Some((1, 0)));

    // The same diagnosis from the files `--trace-out` writes: the trace
    // and the metrics / decisions sidecars `lobster_doctor` reads back.
    use lobster_repro::bench::{decisions_sidecar, metrics_sidecar, write_observability};
    use lobster_repro::metrics::{DecisionRecord, MetricsSnapshot};
    let dir = std::env::temp_dir().join(format!("lobster-doctor-files-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("trace.json");
    write_observability(&ins, Some(&path));
    let read = |p: &std::path::Path| std::fs::read_to_string(p).unwrap();
    let metrics: MetricsSnapshot = serde_json::from_str(&read(&metrics_sidecar(&path))).unwrap();
    let decisions: Vec<DecisionRecord> = read(&decisions_sidecar(&path))
        .lines()
        .map(|l| serde_json::from_str(l).unwrap())
        .collect();
    let from_files = diagnose(&read(&path), Some(&metrics), &decisions).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    assert!(!from_files.verdicts.is_empty(), "findings from the files");
    assert_eq!(serde_json::to_string_pretty(&from_files).unwrap(), json);
    assert!(render(&from_files).contains("== findings =="));
}

/// The acceptance criterion for the live gap gauge: in an adaptive run
/// whose warm-up is heavily imbalanced, the Eq.-3 gap visibly shrinks
/// after Algorithm-1 decisions land, and the decisions are joined with
/// the gap on both sides.
#[test]
fn gap_shrinks_after_algorithm1_decisions() {
    let dataset = Dataset::generate(
        "obs-gap-trend",
        4_096,
        SizeDistribution::Constant { bytes: 1_000_000 },
        7,
    );
    let cfg = ConfigBuilder::new()
        .nodes(2)
        .gpus_per_node(2)
        .batch_size(16)
        .cache_bytes(dataset.total_bytes() / 16)
        .pipeline_threads(6)
        .epochs(4)
        .slow_node(1, 4.0)
        .dataset(dataset)
        .build();
    let ins = Instruments::enabled();
    let (_report, _) = ClusterSim::new(cfg, Box::new(LobsterPolicy::full()))
        .with_instruments(ins.clone())
        .run();

    let report = ins.analysis_report().expect("enabled");
    assert!(!report.solver.is_empty(), "Algorithm 1 made decisions");
    assert!(
        report.solver.iter().any(|s| s.gap_after_s.is_some()),
        "decisions joined with the following iteration's gap"
    );
    assert!(
        report.ewma_gap_s < report.first_gap_s / 2.0,
        "gap must shrink: first {:.3}s, final EWMA {:.3}s",
        report.first_gap_s,
        report.ewma_gap_s
    );

    // The same trend is visible to a live observer through the gauges.
    let snap = ins.metrics_snapshot();
    let ewma_us = snap.get("analysis.ewma_gap_us").unwrap();
    assert!((ewma_us as f64 - report.ewma_gap_s * 1e6).abs() < 1.0);
    assert!((ewma_us as f64) < report.first_gap_s * 1e6 / 2.0);
}
