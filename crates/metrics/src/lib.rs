//! # lobster-metrics
//!
//! Measurement plumbing shared by the simulator, the live runtime, and the
//! bench harness: histograms ([`histogram`]), streaming summaries and EWMAs
//! ([`summary`]), plain-text tables ([`table`]), and result persistence
//! ([`report`]).
//!
//! The observability layer lives here too:
//!
//! * [`trace`] — low-overhead event tracing (fetch/preprocess spans, queue
//!   and cache instants) with Chrome trace-event / JSONL export;
//! * [`registry`] — named atomic counters and gauges with snapshots;
//! * [`decisions`] — the controller decision log (engine reassignment
//!   ticks and Algorithm 1 solves);
//! * [`instruments`] — the [`Instruments`] bundle threading all three
//!   through the runtime, the simulator, and the bench harness. The
//!   default is fully disabled and costs one branch per site.
//!
//! On top of the raw streams sits the analysis layer:
//!
//! * [`analysis`] — the online [`BottleneckAnalyzer`]: per-GPU
//!   critical-path blame, the live Eq.-3 imbalance gap with an EWMA trend,
//!   straggler-episode detection, and solver efficacy (gap before/after
//!   each Algorithm-1 decision);
//! * [`timeline`] — offline reconstruction of the same structures from an
//!   exported trace, powering the `lobster_doctor` diagnosis binary;
//! * [`telemetry`] — the per-tick time-series plane: fixed-capacity frame
//!   rings with 1×/8×/64× rollups, the online anomaly detector bank
//!   (integer-exact, a conformance observable), and the declarative SLO
//!   engine behind `--slo` / `--telemetry-out` / `lobster_top`.
//!
//! ## Metric naming convention
//!
//! Every registry metric name is `snake_case.dotted`: one or more
//! dot-separated lowercase `snake_case` segments, the first naming the
//! subsystem — `engine.cache_hits`, `sim.evictions`, `analysis.gap_us`.
//! No bare names (`worker_panics`), no camelCase, no uppercase. The
//! registry debug-asserts [`registry::is_canonical_metric_name`] on every
//! registration.

pub mod analysis;
pub mod decisions;
pub mod histogram;
pub mod instruments;
pub mod recorder;
pub mod registry;
pub mod report;
pub mod summary;
pub mod table;
pub mod telemetry;
pub mod timeline;
pub mod trace;

pub use analysis::{
    AnalysisConfig, AnalysisReport, BlameCategory, BottleneckAnalyzer, GpuIterSample,
    IterationAnalysis, SolverEfficacy, StageSample, StragglerEpisode,
};
pub use decisions::{DecisionLog, DecisionRecord, DecisionSource};
pub use histogram::{CompactBucket, CompactHistogram, LinearHistogram, LogHistogram};
pub use instruments::Instruments;
pub use recorder::{
    FlightDump, FlightEvent, FlightFault, FlightRecord, FlightRecorder, FlightTier, FlightTierDump,
    DEFAULT_FLIGHT_CAPACITY, FLIGHT_DUMP_KIND, FLIGHT_SCHEMA_VERSION,
};
pub use registry::{is_canonical_metric_name, Counter, Gauge, MetricRegistry, MetricsSnapshot};
pub use report::ResultSink;
pub use summary::{Ewma, Summary};
pub use table::{fmt_bytes, fmt_pct, fmt_secs, fmt_speedup, Table};
pub use telemetry::{
    evaluate_slo, evaluate_slos, merge_frames, parse_slo_specs, parse_telemetry_stream, Anomaly,
    DetectorBank, DetectorConfig, DetectorKind, SloMetric, SloOp, SloSpec, SloVerdict,
    TelemetryConfig, TelemetryHub, TelemetryLine, TelemetrySnapshot, TickFrame, TickScalars,
    DEFAULT_TELEMETRY_CAPACITY, TELEMETRY_SCHEMA_VERSION,
};
pub use timeline::{CachePoint, IterationSlice, ParsedEvent, Timeline, TimelineError};
pub use trace::{ArgValue, EventKind, TraceBuffer, TraceEvent, Tracer};
