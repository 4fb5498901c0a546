//! The [`Instruments`] bundle: one handle carrying the trace buffer, the
//! metric registry, the controller decision log, and the online
//! [`BottleneckAnalyzer`] through a run.
//!
//! Everything in the workspace that can be observed takes an `Instruments`
//! value. The default ([`Instruments::disabled`]) holds nothing: trace
//! closures never run, counter handles are unregistered no-op cells, and
//! decision records are dropped — so un-instrumented runs pay one branch
//! per site. [`Instruments::enabled`] allocates the stores and turns
//! every site on.
//!
//! The analysis facet ([`Instruments::observe_iteration`]) mirrors each
//! iteration's conclusions outward: gauges `analysis.gap_us`,
//! `analysis.ewma_gap_us`, and `analysis.straggler_gpu`, an `analysis_gap`
//! trace instant per iteration, and a `straggler_detected` instant once per
//! flagged episode — so the Eq.-3 gap trend is visible live in the registry
//! and on the Perfetto timeline, not only in the final report.

use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::analysis::{
    AnalysisConfig, AnalysisReport, BottleneckAnalyzer, GpuIterSample, IterationAnalysis,
};
use crate::decisions::{DecisionLog, DecisionRecord};
use crate::recorder::{
    FlightEvent, FlightRecord, FlightRecorder, FlightTier, DEFAULT_FLIGHT_CAPACITY,
};
use crate::registry::{Counter, Gauge, MetricRegistry, MetricsSnapshot};
use crate::telemetry::{
    evaluate_slos, Anomaly, SloSpec, SloVerdict, TelemetryConfig, TelemetryHub, TelemetryLine,
    TelemetrySnapshot, TickScalars,
};
use crate::trace::{TraceBuffer, TraceEvent, Tracer};

struct Inner {
    buffer: Arc<TraceBuffer>,
    registry: MetricRegistry,
    decisions: DecisionLog,
    analysis: Mutex<BottleneckAnalyzer>,
    flight: FlightRecorder,
    /// Where `flight_dump_to_disk` writes; `None` (the default) means
    /// dumps are built on demand but never touch the filesystem.
    flight_dir: Mutex<Option<PathBuf>>,
    flight_dumps: AtomicU64,
    telemetry: TelemetryHub,
    /// Attached `--telemetry-out` JSONL stream; `None` (the default)
    /// keeps the record path allocation-free.
    telemetry_out: Mutex<Option<std::io::BufWriter<std::fs::File>>>,
}

/// Cloneable observability handle; `None` inside means fully disabled.
#[derive(Clone, Default)]
pub struct Instruments {
    inner: Option<Arc<Inner>>,
}

impl Instruments {
    /// The no-op bundle: nothing is recorded anywhere.
    pub fn disabled() -> Instruments {
        Instruments { inner: None }
    }

    /// A live bundle with a fresh trace buffer, registry, decision log, and
    /// analyzer using the default [`AnalysisConfig`].
    pub fn enabled() -> Instruments {
        Instruments::enabled_with(AnalysisConfig::default())
    }

    /// A live bundle whose analyzer uses `cfg` (straggler thresholds, EWMA
    /// weight).
    pub fn enabled_with(cfg: AnalysisConfig) -> Instruments {
        Instruments {
            inner: Some(Arc::new(Inner {
                buffer: Arc::new(TraceBuffer::new()),
                registry: MetricRegistry::new(),
                decisions: DecisionLog::new(),
                analysis: Mutex::new(BottleneckAnalyzer::new(cfg)),
                flight: FlightRecorder::new(DEFAULT_FLIGHT_CAPACITY),
                flight_dir: Mutex::new(None),
                flight_dumps: AtomicU64::new(0),
                telemetry: TelemetryHub::new(TelemetryConfig::default()),
                telemetry_out: Mutex::new(None),
            })),
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// A [`Tracer`] recording into this bundle's buffer (or disabled).
    pub fn tracer(&self) -> Tracer {
        match &self.inner {
            Some(inner) => Tracer::with_buffer(Arc::clone(&inner.buffer)),
            None => Tracer::disabled(),
        }
    }

    /// Record the event produced by `make`; the closure only runs when
    /// enabled.
    #[inline]
    pub fn trace<F: FnOnce() -> TraceEvent>(&self, make: F) {
        if let Some(inner) = &self.inner {
            inner.buffer.push(make());
        }
    }

    /// Microseconds since the trace origin; 0 when disabled.
    #[inline]
    pub fn now_us(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.buffer.now_us())
    }

    /// Counter handle for `name`. Disabled bundles hand out a free-floating
    /// cell that is never snapshotted, so call sites can increment
    /// unconditionally.
    pub fn counter(&self, name: &str) -> Counter {
        match &self.inner {
            Some(inner) => inner.registry.counter(name),
            None => Counter::new(),
        }
    }

    /// Gauge handle for `name`; free-floating when disabled.
    pub fn gauge(&self, name: &str) -> Gauge {
        match &self.inner {
            Some(inner) => inner.registry.gauge(name),
            None => Gauge::new(),
        }
    }

    /// Log a controller decision. Also emits a `controller_decision`
    /// instant into the trace so decisions appear on the same timeline as
    /// the I/O events they react to, joins the decision into the
    /// analyzer's solver-efficacy table (gap before / gap after), and
    /// stamps `anomalies_before` with the telemetry hub's running anomaly
    /// count so every decision carries the anomaly state that preceded it.
    pub fn record_decision(&self, mut record: DecisionRecord) {
        if let Some(inner) = &self.inner {
            record.anomalies_before = inner.telemetry.anomaly_count().min(u32::MAX as u64) as u32;
            inner.buffer.push(
                TraceEvent::instant("controller_decision", "control", record.ts_us)
                    .pid(record.node)
                    .arg_u(
                        "threads",
                        record.threads_after.iter().map(|&t| t as u64).sum(),
                    )
                    .arg_u("evals", record.evals as u64)
                    .arg_u("converged", record.converged as u64),
            );
            inner
                .analysis
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .note_decision(&record);
            inner.decisions.push(record);
        }
    }

    /// Feed one iteration's per-GPU samples into the online analyzer; the
    /// closure only runs when the bundle is enabled. `ts_us` stamps the
    /// mirrored trace instants (wall-clock µs for the runtime, simulated µs
    /// for the DES). Returns what the analyzer concluded, or `None` when
    /// disabled.
    pub fn observe_iteration<F: FnOnce() -> Vec<GpuIterSample>>(
        &self,
        iter: u64,
        ts_us: u64,
        make: F,
    ) -> Option<IterationAnalysis> {
        let inner = self.inner.as_ref()?;
        let samples = make();
        let out = inner
            .analysis
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .observe_iteration(iter, &samples);
        inner
            .registry
            .gauge("analysis.gap_us")
            .set((out.gap_s * 1e6) as i64);
        inner
            .registry
            .gauge("analysis.ewma_gap_us")
            .set((out.ewma_gap_s * 1e6) as i64);
        inner.buffer.push(
            TraceEvent::instant("analysis_gap", "analysis", ts_us)
                .arg_u("iter", iter)
                .arg_u("gap_us", (out.gap_s * 1e6) as u64)
                .arg_u("ewma_gap_us", (out.ewma_gap_s * 1e6) as u64),
        );
        if let Some(ep) = &out.flagged {
            inner.registry.counter("analysis.straggler_episodes").inc();
            inner
                .registry
                .gauge("analysis.straggler_gpu")
                .set(((ep.node as i64) << 16) | ep.gpu as i64);
            inner.buffer.push(
                TraceEvent::instant("straggler_detected", "analysis", ts_us)
                    .pid(ep.node)
                    .tid(ep.gpu)
                    .arg_u("iter", iter)
                    .arg_u("from_iter", ep.from_iter)
                    .arg_f("mean_share", ep.mean_share)
                    .arg_s("dominant", ep.dominant.label()),
            );
        }
        Some(out)
    }

    /// Everything the online analyzer learned so far; `None` when disabled.
    pub fn analysis_report(&self) -> Option<AnalysisReport> {
        self.inner.as_ref().map(|i| {
            i.analysis
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .report()
        })
    }

    /// Decisions logged so far (empty when disabled).
    pub fn decisions(&self) -> Vec<DecisionRecord> {
        self.inner
            .as_ref()
            .map(|i| i.decisions.snapshot())
            .unwrap_or_default()
    }

    /// Point-in-time metric values (empty when disabled).
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.inner
            .as_ref()
            .map(|i| i.registry.snapshot())
            .unwrap_or_default()
    }

    /// Chrome trace-event JSON document; `None` when disabled.
    pub fn chrome_trace_json(&self) -> Option<String> {
        self.inner.as_ref().map(|i| i.buffer.chrome_trace_json())
    }

    /// Decision log as JSONL; `None` when disabled.
    pub fn decisions_jsonl(&self) -> Option<String> {
        self.inner.as_ref().map(|i| i.decisions.jsonl())
    }

    /// Trace events dropped due to buffer bounds (0 when disabled).
    pub fn trace_dropped(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.buffer.dropped())
    }

    // ---- Flight recorder facet (DESIGN.md §12) ----

    /// Record a flight event; the closure only runs when enabled. The
    /// enabled path is allocation-free (wait-free slot claim, `Copy`
    /// store), so it is safe on the engine's per-batch hot path.
    #[inline]
    pub fn flight<F: FnOnce() -> FlightEvent>(&self, make: F) {
        if let Some(inner) = &self.inner {
            inner.flight.record(inner.buffer.now_us(), make());
        }
    }

    /// Fold one fetch latency into the flight recorder's per-tier
    /// aggregate histogram; allocation-free, no-op when disabled.
    #[inline]
    pub fn flight_fetch_us(&self, tier: FlightTier, us: u64) {
        if let Some(inner) = &self.inner {
            inner.flight.record_fetch_us(tier, us);
        }
    }

    /// The retained flight events in seq order (empty when disabled).
    pub fn flight_snapshot(&self) -> Vec<FlightRecord> {
        self.inner
            .as_ref()
            .map(|i| i.flight.snapshot())
            .unwrap_or_default()
    }

    /// Flight events ever recorded (0 when disabled).
    pub fn flight_recorded(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.flight.total_recorded())
    }

    /// Configure where [`Instruments::flight_dump_to_disk`] writes;
    /// no-op when disabled.
    pub fn set_flight_dir<P: Into<PathBuf>>(&self, dir: P) {
        if let Some(inner) = &self.inner {
            *inner.flight_dir.lock().unwrap_or_else(|e| e.into_inner()) = Some(dir.into());
        }
    }

    /// Build and write a `flightdump_<trigger>_<n>.json` under the
    /// configured flight dir. `None` when disabled, when no dir was
    /// configured, or when the write fails — dumping is a best-effort
    /// last act and must never panic a teardown path.
    pub fn flight_dump_to_disk(&self, trigger: &str) -> Option<PathBuf> {
        let inner = self.inner.as_ref()?;
        let dir = inner
            .flight_dir
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()?;
        let ordinal = inner.flight_dumps.fetch_add(1, Ordering::Relaxed);
        inner.flight.dump(trigger).write_to(&dir, ordinal).ok()
    }

    // ---- Telemetry facet (DESIGN.md §14) ----

    /// Fold one fetch latency into the current telemetry tick's per-tier
    /// histogram; allocation-free, no-op when disabled. Sits beside
    /// [`flight_fetch_us`](Self::flight_fetch_us) on the fetch path (the
    /// flight histogram is whole-run, this one is per-tick).
    #[inline]
    pub fn telemetry_fetch_us(&self, tier: FlightTier, us: u64) {
        if let Some(inner) = &self.inner {
            inner.telemetry.record_fetch_us(tier, us);
        }
    }

    /// Record one telemetry tick (consumer 0 post-barrier / one sim
    /// tick): frame into the rings, rollup cascade, online detector bank.
    /// Each fired anomaly is mirrored into the flight recorder and — when
    /// a stream is attached — onto the `--telemetry-out` JSONL feed along
    /// with the frame itself. Returns the number of anomalies fired (0
    /// when disabled). Without a stream attached the enabled path is
    /// allocation-free in steady state.
    pub fn record_tick(&self, scalars: TickScalars) -> u64 {
        let Some(inner) = &self.inner else {
            return 0;
        };
        let ts_us = inner.buffer.now_us();
        let mut out = inner
            .telemetry_out
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let fired = match out.as_mut() {
            None => inner.telemetry.record_tick(scalars, |a| {
                inner.flight.record(
                    ts_us,
                    FlightEvent::Anomaly {
                        kind: a.kind,
                        tick: a.tick,
                        value: a.value,
                        baseline: a.baseline,
                    },
                );
            }),
            Some(w) => {
                // Streaming mode allocates anyway; buffer the lines and
                // write them after the hub call so one writer serves both
                // the frame and the anomaly callbacks.
                let lines: std::cell::RefCell<Vec<String>> =
                    std::cell::RefCell::new(Vec::with_capacity(2));
                let fired = inner.telemetry.record_tick_streaming(
                    scalars,
                    |f| {
                        lines
                            .borrow_mut()
                            .push(TelemetryLine::Frame(f.clone()).to_json());
                    },
                    |a| {
                        inner.flight.record(
                            ts_us,
                            FlightEvent::Anomaly {
                                kind: a.kind,
                                tick: a.tick,
                                value: a.value,
                                baseline: a.baseline,
                            },
                        );
                        lines
                            .borrow_mut()
                            .push(TelemetryLine::Anomaly(*a).to_json());
                    },
                );
                for line in lines.into_inner() {
                    let _ = writeln!(w, "{line}");
                }
                fired
            }
        };
        if fired > 0 {
            inner.registry.counter("telemetry.anomalies").add(fired);
        }
        fired
    }

    /// Attach a `--telemetry-out` JSONL stream; frames and anomalies are
    /// appended live from [`record_tick`](Self::record_tick). No-op when
    /// disabled.
    pub fn set_telemetry_out<P: Into<PathBuf>>(&self, path: P) -> std::io::Result<()> {
        if let Some(inner) = &self.inner {
            let file = std::fs::File::create(path.into())?;
            *inner
                .telemetry_out
                .lock()
                .unwrap_or_else(|e| e.into_inner()) = Some(std::io::BufWriter::new(file));
        }
        Ok(())
    }

    /// Flush the attached telemetry stream (end-of-run, or before a
    /// reader is pointed at the file); no-op when disabled or detached.
    pub fn flush_telemetry(&self) {
        if let Some(inner) = &self.inner {
            if let Some(w) = inner
                .telemetry_out
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .as_mut()
            {
                let _ = w.flush();
            }
        }
    }

    /// Everything the telemetry hub retained; `None` when disabled.
    pub fn telemetry_snapshot(&self) -> Option<TelemetrySnapshot> {
        self.inner.as_ref().map(|i| i.telemetry.snapshot())
    }

    /// Anomalies recorded so far (empty when disabled).
    pub fn telemetry_anomalies(&self) -> Vec<Anomaly> {
        self.inner
            .as_ref()
            .map(|i| i.telemetry.anomalies())
            .unwrap_or_default()
    }

    /// Running anomaly count (0 when disabled); lock-free.
    pub fn anomaly_count(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.telemetry.anomaly_count())
    }

    /// Evaluate SLO specs over the retained 1× frame series, append the
    /// verdicts to the attached telemetry stream (if any), and return
    /// them. Empty when disabled.
    pub fn evaluate_slos(&self, specs: &[SloSpec]) -> Vec<SloVerdict> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        let frames = inner.telemetry.snapshot().frames;
        let verdicts = evaluate_slos(specs, &frames);
        if let Some(w) = inner
            .telemetry_out
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .as_mut()
        {
            for v in &verdicts {
                let _ = writeln!(w, "{}", TelemetryLine::Slo(v.clone()).to_json());
            }
            let _ = w.flush();
        }
        verdicts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decisions::DecisionSource;

    #[test]
    fn disabled_bundle_records_nothing() {
        let ins = Instruments::disabled();
        let mut built = false;
        ins.trace(|| {
            built = true;
            TraceEvent::instant("x", "t", 0)
        });
        ins.counter("engine.fetches").inc();
        assert!(!built);
        assert!(!ins.is_enabled());
        assert!(ins.metrics_snapshot().is_empty());
        assert!(ins.chrome_trace_json().is_none());
    }

    #[test]
    fn clones_share_stores() {
        let ins = Instruments::enabled();
        let other = ins.clone();
        other.counter("x.n").add(3);
        other.trace(|| TraceEvent::instant("e", "t", 1));
        assert_eq!(ins.metrics_snapshot().get("x.n"), Some(3));
        let trace = ins.chrome_trace_json().unwrap();
        assert!(trace.contains("\"e\""));
    }

    #[test]
    fn observe_iteration_mirrors_gap_and_straggler() {
        use crate::analysis::{AnalysisConfig, BlameCategory, StageSample};
        let ins = Instruments::enabled_with(AnalysisConfig {
            straggler_consecutive: 1,
            ..AnalysisConfig::default()
        });
        let samples = || {
            let mut slow = StageSample::default();
            slow.add(BlameCategory::PfsFetch, 0.3);
            vec![
                GpuIterSample {
                    node: 0,
                    gpu: 0,
                    iter_s: 0.1,
                    stages: StageSample::default(),
                },
                GpuIterSample {
                    node: 0,
                    gpu: 3,
                    iter_s: 0.4,
                    stages: slow,
                },
            ]
        };
        let out = ins.observe_iteration(0, 123, samples).expect("enabled");
        assert!((out.gap_s - 0.3).abs() < 1e-12);
        let snap = ins.metrics_snapshot();
        assert_eq!(snap.get("analysis.gap_us"), Some(300_000));
        assert_eq!(snap.get("analysis.straggler_gpu"), Some(3));
        assert_eq!(snap.get("analysis.straggler_episodes"), Some(1));
        let trace = ins.chrome_trace_json().unwrap();
        assert!(trace.contains("straggler_detected"));
        assert!(trace.contains("analysis_gap"));
        let report = ins.analysis_report().unwrap();
        assert_eq!(report.top_straggler(), Some((0, 3)));

        // Disabled bundles never run the sample-building closure.
        let off = Instruments::disabled();
        let mut built = false;
        let out = off.observe_iteration(0, 0, || {
            built = true;
            Vec::new()
        });
        assert!(out.is_none() && !built);
        assert!(off.analysis_report().is_none());
    }

    #[test]
    fn decision_also_lands_in_trace() {
        let ins = Instruments::enabled();
        ins.record_decision(DecisionRecord {
            ts_us: 5,
            source: DecisionSource::ElasticPool,
            node: 0,
            queue_loads: vec![2.0],
            predicted_cost: vec![0.1],
            threads_before: vec![1],
            threads_after: vec![2],
            gap_s: None,
            evals: 1,
            converged: true,
            anomalies_before: 0,
        });
        assert_eq!(ins.decisions().len(), 1);
        let doc: serde_json::Value =
            serde_json::from_str(&ins.chrome_trace_json().unwrap()).unwrap();
        let events = doc["traceEvents"].as_array().unwrap();
        assert!(events
            .iter()
            .any(|e| e["name"].as_str() == Some("controller_decision")));
    }
}
