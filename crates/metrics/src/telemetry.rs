//! The telemetry plane: per-tick time series, online anomaly detection,
//! and the declarative SLO engine (DESIGN.md §14).
//!
//! The substrate is a fixed-capacity ring of per-tick [`TickFrame`]s —
//! the Eq.-3 gap, the iteration time, per-tier fetch counts and latency
//! histograms, the cache-hit trajectory, the elastic preproc/loader
//! split, retry counts, and the cluster membership mask — sampled at
//! each barrier by consumer 0 of the live engine and at each simulated
//! tick by `ClusterSim` / the conformance DES. Three rings retain the
//! series at 1×, 8×, and 64× granularity (each rollup folds a whole
//! window into one frame), so hundreds of nodes × thousands of ticks
//! stay bounded; [`merge_frames`] combines per-node series into one
//! cluster-wide series by tick.
//!
//! ## Determinism contract
//!
//! Every field the online detectors read is an **integer** (µs-quantized
//! times, counts, masks), and every detector below uses only integer
//! arithmetic (shift-based EWMAs in Q8 fixed point, integer CUSUM). Two
//! executors that agree on the per-tick frames therefore emit
//! **byte-identical anomaly sequences** — which is exactly how the
//! conformance harness treats anomalies: an exact-equality observable
//! (see `lobster-conformance`). The per-tier latency histograms are
//! engine-only payload (simulators leave them empty) and are never read
//! by a detector.
//!
//! ## Allocation contract
//!
//! The steady-state record path — `TelemetryHub::record_tick` plus
//! `record_fetch_us` — never allocates: ring slots, rollup accumulators,
//! current-tick histograms, and the anomaly buffer are all preallocated,
//! and window boundaries reset histograms in place via
//! [`LogHistogram::clear`]. Snapshots, JSONL export, and SLO evaluation
//! allocate freely (they run off the hot path). `tests/telemetry.rs`
//! proves both halves with a counting allocator.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use serde::{Deserialize, Serialize};

use crate::histogram::{CompactHistogram, LogHistogram};
use crate::recorder::FlightTier;

/// Version stamped into every telemetry JSONL line.
pub const TELEMETRY_SCHEMA_VERSION: u32 = 1;

/// Default 1× ring capacity (per-tick frames retained).
pub const DEFAULT_TELEMETRY_CAPACITY: usize = 512;

/// Ticks folded into one 8× rollup frame.
pub const ROLLUP_8: u64 = 8;

/// Ticks folded into one 64× rollup frame (eight 8× windows).
pub const ROLLUP_64: u64 = 64;

/// The integer (detector-visible) portion of one per-tick frame. All
/// times are µs-quantized; all other fields are counts or masks. `Copy`
/// and `Eq` on purpose: storing one is a plain move, and two executors'
/// scalars can be compared exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct TickScalars {
    /// Global iteration index this frame describes.
    pub tick: u64,
    /// Eq.-3 imbalance gap across the cluster, µs.
    pub gap_us: u64,
    /// Iteration (pipeline-bound batch) time, µs.
    pub iter_us: u64,
    /// Fetches served by the node-local cache this tick.
    pub local_hits: u64,
    /// Fetches served by a remote peer's cache this tick.
    pub remote_hits: u64,
    /// Fetches that missed every cache and hit the PFS/store this tick.
    pub misses: u64,
    /// Samples prefetched ahead of demand this tick.
    pub prefetched: u64,
    /// Cache evictions this tick.
    pub evictions: u64,
    /// Storage retries this tick.
    pub retries: u64,
    /// Samples delivered to consumers this tick.
    pub delivered: u64,
    /// Pool workers currently in the preprocessing role.
    pub preproc_workers: u32,
    /// Pool workers currently in the loader role.
    pub loader_workers: u32,
    /// Bitmask of down nodes (bit n set ⇒ node n is crashed).
    pub down_mask: u64,
}

impl TickScalars {
    /// Total fetches this tick (all tiers).
    pub fn fetches(&self) -> u64 {
        self.local_hits + self.remote_hits + self.misses
    }

    /// Cache-hit rate in integer per-mille (‰), `None` when no fetches
    /// happened this tick. Integer so detectors stay exact.
    pub fn hit_pm(&self) -> Option<u64> {
        let total = self.fetches();
        (total > 0).then(|| (self.local_hits + self.remote_hits) * 1000 / total)
    }
}

/// One serialized per-tick frame: the scalar portion plus the per-tier
/// fetch-latency histograms in sparse form. Simulator frames carry empty
/// histograms (the model has no per-fetch latency stream); empty equals
/// empty, so frames stay comparable across executors.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TickFrame {
    pub scalars: TickScalars,
    /// Cache-tier fetch latencies recorded during this frame's window, µs.
    pub cache_fetch_us: CompactHistogram,
    /// Store-tier fetch latencies recorded during this frame's window, µs.
    pub store_fetch_us: CompactHistogram,
}

impl TickFrame {
    /// A frame with empty latency payloads (the simulator form).
    pub fn from_scalars(scalars: TickScalars) -> TickFrame {
        TickFrame {
            scalars,
            cache_fetch_us: LogHistogram::new().to_compact(),
            store_fetch_us: LogHistogram::new().to_compact(),
        }
    }

    /// Both tiers' latencies merged into one distribution ("sample
    /// latency" in SLO specs), `None` when the frame carries no payload.
    pub fn sample_latency(&self) -> Option<LogHistogram> {
        let mut h = LogHistogram::from_compact(&self.cache_fetch_us).ok()?;
        h.merge(&LogHistogram::from_compact(&self.store_fetch_us).ok()?);
        (h.count() > 0).then_some(h)
    }
}

/// Combine per-node frame series into one cluster-wide series, aligned by
/// tick: counts add, the gap is the worst node's gap, the iteration time
/// is the slowest node's (the barrier waits for it), the membership mask
/// is the union, and latency histograms merge. Ticks present in only one
/// input pass through unchanged.
pub fn merge_frames(a: &[TickFrame], b: &[TickFrame]) -> Vec<TickFrame> {
    let mut out: Vec<TickFrame> = Vec::with_capacity(a.len().max(b.len()));
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() || j < b.len() {
        let ta = a.get(i).map(|f| f.scalars.tick);
        let tb = b.get(j).map(|f| f.scalars.tick);
        match (ta, tb) {
            (Some(x), Some(y)) if x == y => {
                let (fa, fb) = (&a[i], &b[j]);
                let (sa, sb) = (&fa.scalars, &fb.scalars);
                let merged = TickScalars {
                    tick: x,
                    gap_us: sa.gap_us.max(sb.gap_us),
                    iter_us: sa.iter_us.max(sb.iter_us),
                    local_hits: sa.local_hits + sb.local_hits,
                    remote_hits: sa.remote_hits + sb.remote_hits,
                    misses: sa.misses + sb.misses,
                    prefetched: sa.prefetched + sb.prefetched,
                    evictions: sa.evictions + sb.evictions,
                    retries: sa.retries + sb.retries,
                    delivered: sa.delivered + sb.delivered,
                    preproc_workers: sa.preproc_workers + sb.preproc_workers,
                    loader_workers: sa.loader_workers + sb.loader_workers,
                    down_mask: sa.down_mask | sb.down_mask,
                };
                let mut cache = LogHistogram::from_compact(&fa.cache_fetch_us)
                    .unwrap_or_else(|_| LogHistogram::new());
                if let Ok(h) = LogHistogram::from_compact(&fb.cache_fetch_us) {
                    cache.merge(&h);
                }
                let mut store = LogHistogram::from_compact(&fa.store_fetch_us)
                    .unwrap_or_else(|_| LogHistogram::new());
                if let Ok(h) = LogHistogram::from_compact(&fb.store_fetch_us) {
                    store.merge(&h);
                }
                out.push(TickFrame {
                    scalars: merged,
                    cache_fetch_us: cache.to_compact(),
                    store_fetch_us: store.to_compact(),
                });
                i += 1;
                j += 1;
            }
            (Some(x), Some(y)) if x < y => {
                out.push(a[i].clone());
                i += 1;
            }
            (Some(_), Some(_)) => {
                out.push(b[j].clone());
                j += 1;
            }
            (Some(_), None) => {
                out.push(a[i].clone());
                i += 1;
            }
            (None, Some(_)) => {
                out.push(b[j].clone());
                j += 1;
            }
            (None, None) => unreachable!(),
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Online anomaly detection
// ---------------------------------------------------------------------------

/// Which rule of the detector bank fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DetectorKind {
    /// EWMA z-score spike on the Eq.-3 gap.
    GapSpike,
    /// CUSUM level shift on the iteration time.
    LevelShift,
    /// Tick-over-tick iteration-time cliff (throughput collapse).
    ThroughputCliff,
    /// Cache-hit rate fell sharply below its trend.
    HitRateRegression,
    /// The cluster membership mask changed (crash or rejoin).
    MembershipChange,
}

impl DetectorKind {
    pub fn label(self) -> &'static str {
        match self {
            DetectorKind::GapSpike => "gap-spike",
            DetectorKind::LevelShift => "level-shift",
            DetectorKind::ThroughputCliff => "throughput-cliff",
            DetectorKind::HitRateRegression => "hit-rate-regression",
            DetectorKind::MembershipChange => "membership-change",
        }
    }
}

/// One structured anomaly. Every field is an integer so the record
/// derives `Eq` and two executors' anomaly sequences compare exactly —
/// this is the conformance observable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Anomaly {
    pub kind: DetectorKind,
    /// Tick the detector fired at.
    pub tick: u64,
    /// First tick of the triggering window (for CUSUM, the tick the
    /// excess started accumulating; for point detectors, `tick` itself).
    pub onset_tick: u64,
    /// The observed value that fired (µs, per-mille, or a mask —
    /// detector-specific, see `kind`).
    pub value: u64,
    /// The detector's baseline at firing time, same units as `value`.
    pub baseline: u64,
    /// Integer severity: Q8 z-score for spikes, accumulated excess for
    /// level shifts, Q8 ratio for cliffs, per-mille drop for hit-rate
    /// regressions, changed-bit count for membership changes.
    pub severity: u64,
}

/// Detector thresholds. All integer; the defaults are deliberately
/// conservative so steady-state runs stay quiet. `mutated()` is the
/// conformance canary: every threshold loosened, so a DES running the
/// mutated bank against a conformant `ClusterSim` emits extra (or
/// earlier) anomalies on any config with real tick-to-tick variation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DetectorConfig {
    /// EWMA smoothing shift: α = 1 / 2^shift.
    pub ewma_shift: u32,
    /// Gap-spike fires when |gap − ewma| ≥ (z/256) × mean-abs-deviation.
    pub spike_z_q8: u64,
    /// Ticks of history before spike / shift / hit-rate rules may fire.
    pub warmup: u64,
    /// Deviation floor in µs: a near-constant series cannot divide by ~0.
    pub min_dev_us: u64,
    /// CUSUM per-tick allowance is `mean / cusum_slack_div`.
    pub cusum_slack_div: u64,
    /// CUSUM fires when accumulated excess reaches `mean ×
    /// cusum_threshold_num / cusum_threshold_den`.
    pub cusum_threshold_num: u64,
    pub cusum_threshold_den: u64,
    /// Cliff fires when `iter_us > prev_iter_us × cliff_num / cliff_den`.
    pub cliff_num: u64,
    pub cliff_den: u64,
    /// Hit-rate regression fires when the trend exceeds the observed rate
    /// by at least this many per-mille.
    pub hit_drop_pm: u64,
}

impl DetectorConfig {
    /// The production thresholds.
    pub fn standard() -> DetectorConfig {
        DetectorConfig {
            ewma_shift: 3,
            spike_z_q8: 4 << 8,
            warmup: 8,
            min_dev_us: 32,
            cusum_slack_div: 8,
            cusum_threshold_num: 1,
            cusum_threshold_den: 1,
            cliff_num: 2,
            cliff_den: 1,
            hit_drop_pm: 150,
        }
    }

    /// The `detector-threshold` mutation the conformance canary arms in
    /// the DES: every threshold loosened and the warm-up shortened.
    pub fn mutated() -> DetectorConfig {
        DetectorConfig {
            ewma_shift: 3,
            spike_z_q8: 1 << 8,
            warmup: 2,
            min_dev_us: 8,
            cusum_slack_div: 16,
            cusum_threshold_num: 1,
            cusum_threshold_den: 4,
            cliff_num: 5,
            cliff_den: 4,
            hit_drop_pm: 40,
        }
    }
}

impl Default for DetectorConfig {
    fn default() -> DetectorConfig {
        DetectorConfig::standard()
    }
}

/// The online detector bank. Pure integer state: feeding two banks the
/// same frame sequence produces byte-identical anomaly sequences on any
/// platform — the conformance determinism contract.
#[derive(Debug, Clone)]
pub struct DetectorBank {
    cfg: DetectorConfig,
    ticks: u64,
    // Gap spike (Q8 fixed point).
    gap_ewma_q8: u64,
    gap_mad_q8: u64,
    // Iteration-time level shift.
    iter_ewma_q8: u64,
    cusum: u64,
    cusum_onset: Option<u64>,
    // Throughput cliff.
    prev_iter_us: Option<u64>,
    // Hit-rate regression (per-mille, Q8).
    hit_ewma_pm_q8: Option<u64>,
    // Membership.
    prev_mask: Option<u64>,
}

impl DetectorBank {
    pub fn new(cfg: DetectorConfig) -> DetectorBank {
        DetectorBank {
            cfg,
            ticks: 0,
            gap_ewma_q8: 0,
            gap_mad_q8: 0,
            iter_ewma_q8: 0,
            cusum: 0,
            cusum_onset: None,
            prev_iter_us: None,
            hit_ewma_pm_q8: None,
            prev_mask: None,
        }
    }

    fn ewma_step(ewma_q8: u64, x_q8: u64, shift: u32) -> u64 {
        // ewma += (x − ewma) / 2^shift, in integer arithmetic without
        // signed types: subtract the decayed share, add the new share.
        ewma_q8 - (ewma_q8 >> shift) + (x_q8 >> shift)
    }

    /// Feed one frame; `emit` is called once per fired rule, in a fixed
    /// deterministic order (membership, gap spike, cliff, level shift,
    /// hit-rate). Emits at most 5 anomalies per tick.
    pub fn observe<F: FnMut(Anomaly)>(&mut self, f: &TickScalars, mut emit: F) {
        let cfg = self.cfg;
        let tick = f.tick;

        // 1. Membership change: exact, fires from the second frame on.
        if let Some(prev) = self.prev_mask {
            if f.down_mask != prev {
                emit(Anomaly {
                    kind: DetectorKind::MembershipChange,
                    tick,
                    onset_tick: tick,
                    value: f.down_mask,
                    baseline: prev,
                    severity: (f.down_mask ^ prev).count_ones() as u64,
                });
            }
        }
        self.prev_mask = Some(f.down_mask);

        // 2. Gap spike: EWMA z-score in Q8 against the mean absolute
        // deviation, floored so near-constant series stay quiet.
        let gap_q8 = f.gap_us << 8;
        if self.ticks >= cfg.warmup {
            let dev_q8 = gap_q8.abs_diff(self.gap_ewma_q8);
            let floor_q8 = self.gap_mad_q8.max(cfg.min_dev_us << 8).max(1);
            let z_q8 = dev_q8.saturating_mul(256) / floor_q8;
            if z_q8 >= cfg.spike_z_q8 {
                emit(Anomaly {
                    kind: DetectorKind::GapSpike,
                    tick,
                    onset_tick: tick,
                    value: f.gap_us,
                    baseline: self.gap_ewma_q8 >> 8,
                    severity: z_q8,
                });
            }
        }
        if self.ticks == 0 {
            self.gap_ewma_q8 = gap_q8;
            self.gap_mad_q8 = 0;
        } else {
            let dev_q8 = gap_q8.abs_diff(self.gap_ewma_q8);
            self.gap_ewma_q8 = Self::ewma_step(self.gap_ewma_q8, gap_q8, cfg.ewma_shift);
            self.gap_mad_q8 = Self::ewma_step(self.gap_mad_q8, dev_q8, cfg.ewma_shift);
        }

        // 3. Throughput cliff: tick-over-tick iteration-time blowup.
        if let Some(prev) = self.prev_iter_us {
            if prev > 0
                && f.iter_us.saturating_mul(cfg.cliff_den) > prev.saturating_mul(cfg.cliff_num)
            {
                emit(Anomaly {
                    kind: DetectorKind::ThroughputCliff,
                    tick,
                    onset_tick: tick,
                    value: f.iter_us,
                    baseline: prev,
                    severity: (f.iter_us << 8) / prev,
                });
            }
        }
        self.prev_iter_us = Some(f.iter_us);

        // 4. Level shift: one-sided integer CUSUM on the iteration time,
        // with the onset tick tracked from the first tick of excess so a
        // late firing still attributes the shift to where it began.
        let mean = self.iter_ewma_q8 >> 8;
        if self.ticks >= cfg.warmup && mean > 0 {
            let slack = mean / cfg.cusum_slack_div;
            if f.iter_us > mean + slack {
                if self.cusum == 0 {
                    self.cusum_onset = Some(tick);
                }
                self.cusum += f.iter_us - (mean + slack);
            } else {
                self.cusum = 0;
                self.cusum_onset = None;
            }
            let threshold =
                mean.saturating_mul(cfg.cusum_threshold_num) / cfg.cusum_threshold_den.max(1);
            if self.cusum >= threshold.max(1) {
                emit(Anomaly {
                    kind: DetectorKind::LevelShift,
                    tick,
                    onset_tick: self.cusum_onset.unwrap_or(tick),
                    value: f.iter_us,
                    baseline: mean,
                    severity: self.cusum,
                });
                self.cusum = 0;
                self.cusum_onset = None;
            }
        }
        if self.ticks == 0 {
            self.iter_ewma_q8 = f.iter_us << 8;
        } else {
            self.iter_ewma_q8 = Self::ewma_step(self.iter_ewma_q8, f.iter_us << 8, cfg.ewma_shift);
        }

        // 5. Hit-rate regression: sharp per-mille drop below the trend.
        if let Some(pm) = f.hit_pm() {
            if let Some(trend_q8) = self.hit_ewma_pm_q8 {
                let trend = trend_q8 >> 8;
                if self.ticks >= cfg.warmup && trend >= pm + cfg.hit_drop_pm {
                    emit(Anomaly {
                        kind: DetectorKind::HitRateRegression,
                        tick,
                        onset_tick: tick,
                        value: pm,
                        baseline: trend,
                        severity: trend - pm,
                    });
                }
                self.hit_ewma_pm_q8 = Some(Self::ewma_step(trend_q8, pm << 8, cfg.ewma_shift));
            } else {
                self.hit_ewma_pm_q8 = Some(pm << 8);
            }
        }

        self.ticks += 1;
    }

    /// Re-run a fresh bank over a recorded frame sequence. The engine's
    /// conformance check: the anomalies it emitted online must equal the
    /// replay over its own serialized frames exactly.
    pub fn replay(cfg: DetectorConfig, frames: &[TickScalars]) -> Vec<Anomaly> {
        let mut bank = DetectorBank::new(cfg);
        let mut out = Vec::new();
        for f in frames {
            bank.observe(f, |a| out.push(a));
        }
        out
    }
}

// ---------------------------------------------------------------------------
// The hub: rings, rollups, detector bank, anomaly buffer
// ---------------------------------------------------------------------------

/// Sizing for [`TelemetryHub`].
#[derive(Debug, Clone, Copy)]
pub struct TelemetryConfig {
    /// 1× ring capacity (frames).
    pub ring1: usize,
    /// 8× rollup ring capacity.
    pub ring8: usize,
    /// 64× rollup ring capacity.
    pub ring64: usize,
    /// Anomaly buffer capacity; overflow is counted, not stored.
    pub anomalies: usize,
    pub detectors: DetectorConfig,
}

impl Default for TelemetryConfig {
    fn default() -> TelemetryConfig {
        TelemetryConfig {
            ring1: DEFAULT_TELEMETRY_CAPACITY,
            ring8: 256,
            ring64: 128,
            anomalies: 1024,
            detectors: DetectorConfig::standard(),
        }
    }
}

/// One preallocated ring slot: scalars by value, histograms reset in
/// place at overwrite time.
struct Slot {
    scalars: TickScalars,
    cache_us: LogHistogram,
    store_us: LogHistogram,
}

struct Ring {
    slots: Vec<Slot>,
    /// Frames ever pushed; slot `head % capacity` is the next overwrite.
    head: u64,
}

impl Ring {
    fn new(capacity: usize) -> Ring {
        Ring {
            slots: (0..capacity.max(1))
                .map(|_| Slot {
                    scalars: TickScalars::default(),
                    cache_us: LogHistogram::new(),
                    store_us: LogHistogram::new(),
                })
                .collect(),
            head: 0,
        }
    }

    /// Allocation-free push: copy scalars, clear + merge histograms.
    fn push(&mut self, scalars: TickScalars, cache: &LogHistogram, store: &LogHistogram) {
        let cap = self.slots.len() as u64;
        let slot = &mut self.slots[(self.head % cap) as usize];
        slot.scalars = scalars;
        slot.cache_us.clear();
        slot.cache_us.merge(cache);
        slot.store_us.clear();
        slot.store_us.merge(store);
        self.head += 1;
    }

    /// Retained frames, oldest first (allocates; off the hot path).
    fn snapshot(&self) -> Vec<TickFrame> {
        let cap = self.slots.len() as u64;
        let start = self.head.saturating_sub(cap);
        (start..self.head)
            .map(|t| {
                let slot = &self.slots[(t % cap) as usize];
                TickFrame {
                    scalars: slot.scalars,
                    cache_fetch_us: slot.cache_us.to_compact(),
                    store_fetch_us: slot.store_us.to_compact(),
                }
            })
            .collect()
    }
}

/// A rollup accumulator folding `factor` consecutive frames into one:
/// the window's first tick, worst gap, summed iteration time and counts,
/// last worker split, unioned down-mask, merged histograms.
struct Rollup {
    factor: u64,
    filled: u64,
    acc: TickScalars,
    cache_us: LogHistogram,
    store_us: LogHistogram,
}

impl Rollup {
    fn new(factor: u64) -> Rollup {
        Rollup {
            factor,
            filled: 0,
            acc: TickScalars::default(),
            cache_us: LogHistogram::new(),
            store_us: LogHistogram::new(),
        }
    }

    /// Fold one frame; returns `true` when the window is complete (the
    /// caller reads `acc`/histograms, then calls [`reset`](Self::reset)).
    fn fold(&mut self, s: &TickScalars, cache: &LogHistogram, store: &LogHistogram) -> bool {
        if self.filled == 0 {
            self.acc = *s;
        } else {
            self.acc.gap_us = self.acc.gap_us.max(s.gap_us);
            self.acc.iter_us += s.iter_us;
            self.acc.local_hits += s.local_hits;
            self.acc.remote_hits += s.remote_hits;
            self.acc.misses += s.misses;
            self.acc.prefetched += s.prefetched;
            self.acc.evictions += s.evictions;
            self.acc.retries += s.retries;
            self.acc.delivered += s.delivered;
            self.acc.preproc_workers = s.preproc_workers;
            self.acc.loader_workers = s.loader_workers;
            self.acc.down_mask |= s.down_mask;
        }
        self.cache_us.merge(cache);
        self.store_us.merge(store);
        self.filled += 1;
        self.filled >= self.factor
    }

    fn reset(&mut self) {
        self.filled = 0;
        self.cache_us.clear();
        self.store_us.clear();
    }
}

struct HubState {
    ring1: Ring,
    ring8: Ring,
    ring64: Ring,
    r8: Rollup,
    r64: Rollup,
    /// Fetch latencies accumulated since the last `record_tick`.
    cur_cache: LogHistogram,
    cur_store: LogHistogram,
    bank: DetectorBank,
    anomalies: Vec<Anomaly>,
    anomalies_dropped: u64,
    ticks: u64,
}

/// Everything the hub retained, in serializable form.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TelemetrySnapshot {
    pub schema_version: u32,
    /// Ticks ever recorded (frames retained = `min(ticks, ring1 cap)`).
    pub ticks: u64,
    pub frames: Vec<TickFrame>,
    pub rollup8: Vec<TickFrame>,
    pub rollup64: Vec<TickFrame>,
    pub anomalies: Vec<Anomaly>,
    pub anomalies_dropped: u64,
}

/// The per-run telemetry hub: three rings, the rollup cascade, the
/// detector bank, and the bounded anomaly buffer, all behind one mutex
/// (one short critical section per tick — the record cadence is one call
/// per iteration, not per sample).
pub struct TelemetryHub {
    state: Mutex<HubState>,
    /// Mirror of the anomaly count, readable without the lock (decision
    /// records are annotated on a different thread's path).
    anomaly_count: AtomicU64,
    /// Tick of the most recent anomaly, `u64::MAX` when none yet.
    last_anomaly_tick: AtomicU64,
}

impl TelemetryHub {
    pub fn new(cfg: TelemetryConfig) -> TelemetryHub {
        TelemetryHub {
            state: Mutex::new(HubState {
                ring1: Ring::new(cfg.ring1),
                ring8: Ring::new(cfg.ring8),
                ring64: Ring::new(cfg.ring64),
                r8: Rollup::new(ROLLUP_8),
                r64: Rollup::new(ROLLUP_64 / ROLLUP_8),
                cur_cache: LogHistogram::new(),
                cur_store: LogHistogram::new(),
                bank: DetectorBank::new(cfg.detectors),
                anomalies: Vec::with_capacity(cfg.anomalies.max(1)),
                anomalies_dropped: 0,
                ticks: 0,
            }),
            anomaly_count: AtomicU64::new(0),
            last_anomaly_tick: AtomicU64::new(u64::MAX),
        }
    }

    /// Fold one fetch latency into the current tick's histogram.
    /// Allocation-free (preallocated buckets).
    #[inline]
    pub fn record_fetch_us(&self, tier: FlightTier, us: u64) {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        match tier {
            FlightTier::Cache => st.cur_cache.record(us),
            FlightTier::Store => st.cur_store.record(us),
        }
    }

    /// Record one tick: store the frame in the 1× ring, cascade the
    /// rollups, run the detector bank. `on_anomaly` is invoked (under the
    /// hub lock, at most 5 times) for each anomaly this tick — the
    /// engine's hook for flight-recorder and JSONL side effects. Returns
    /// the number of anomalies emitted. Allocation-free in steady state.
    pub fn record_tick<F: FnMut(&Anomaly)>(&self, scalars: TickScalars, mut on_anomaly: F) -> u64 {
        self.record_tick_inner(scalars, None, &mut on_anomaly)
    }

    /// [`record_tick`](Self::record_tick) plus a completed-frame callback
    /// for JSONL streaming. Building the frame compacts the tick's
    /// histograms, which **allocates** — streaming mode trades the
    /// zero-alloc contract for a live feed; use plain `record_tick` when
    /// no stream is attached.
    pub fn record_tick_streaming<G, F>(
        &self,
        scalars: TickScalars,
        mut on_frame: G,
        mut on_anomaly: F,
    ) -> u64
    where
        G: FnMut(&TickFrame),
        F: FnMut(&Anomaly),
    {
        self.record_tick_inner(scalars, Some(&mut on_frame), &mut on_anomaly)
    }

    fn record_tick_inner(
        &self,
        scalars: TickScalars,
        frame_sink: Option<&mut dyn FnMut(&TickFrame)>,
        on_anomaly: &mut dyn FnMut(&Anomaly),
    ) -> u64 {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let st = &mut *st;

        if let Some(sink) = frame_sink {
            sink(&TickFrame {
                scalars,
                cache_fetch_us: st.cur_cache.to_compact(),
                store_fetch_us: st.cur_store.to_compact(),
            });
        }
        st.ring1.push(scalars, &st.cur_cache, &st.cur_store);
        if st.r8.fold(&scalars, &st.cur_cache, &st.cur_store) {
            let acc = st.r8.acc;
            st.ring8.push(acc, &st.r8.cache_us, &st.r8.store_us);
            if st.r64.fold(&acc, &st.r8.cache_us, &st.r8.store_us) {
                let acc64 = st.r64.acc;
                // Borrow-split: copy the 8×-window histograms are already
                // folded into r64's accumulators.
                st.ring64.push(acc64, &st.r64.cache_us, &st.r64.store_us);
                st.r64.reset();
            }
            st.r8.reset();
        }
        st.cur_cache.clear();
        st.cur_store.clear();

        let mut fired = 0u64;
        let anomalies = &mut st.anomalies;
        let dropped = &mut st.anomalies_dropped;
        st.bank.observe(&scalars, |a| {
            fired += 1;
            if anomalies.len() < anomalies.capacity() {
                anomalies.push(a);
            } else {
                *dropped += 1;
            }
            on_anomaly(&a);
        });
        if fired > 0 {
            self.anomaly_count.fetch_add(fired, Ordering::Release);
            self.last_anomaly_tick
                .store(scalars.tick, Ordering::Release);
        }
        st.ticks += 1;
        fired
    }

    /// Anomalies recorded so far (lock-free mirror).
    pub fn anomaly_count(&self) -> u64 {
        self.anomaly_count.load(Ordering::Acquire)
    }

    /// Tick of the most recent anomaly, if any (lock-free mirror).
    pub fn last_anomaly_tick(&self) -> Option<u64> {
        let t = self.last_anomaly_tick.load(Ordering::Acquire);
        (t != u64::MAX).then_some(t)
    }

    /// The retained anomaly records.
    pub fn anomalies(&self) -> Vec<Anomaly> {
        self.state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .anomalies
            .clone()
    }

    /// Everything retained, serializable (allocates).
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        TelemetrySnapshot {
            schema_version: TELEMETRY_SCHEMA_VERSION,
            ticks: st.ticks,
            frames: st.ring1.snapshot(),
            rollup8: st.ring8.snapshot(),
            rollup64: st.ring64.snapshot(),
            anomalies: st.anomalies.clone(),
            anomalies_dropped: st.anomalies_dropped,
        }
    }
}

impl Default for TelemetryHub {
    fn default() -> TelemetryHub {
        TelemetryHub::new(TelemetryConfig::default())
    }
}

// ---------------------------------------------------------------------------
// JSONL stream (`--telemetry-out`)
// ---------------------------------------------------------------------------

/// One line of the `--telemetry-out` JSONL stream.
#[derive(Debug, Clone, PartialEq)]
pub enum TelemetryLine {
    Frame(TickFrame),
    Anomaly(Anomaly),
    Slo(SloVerdict),
}

impl TelemetryLine {
    /// Serialize to one JSONL line (no trailing newline).
    pub fn to_json(&self) -> String {
        match self {
            TelemetryLine::Frame(f) => format!(
                "{{\"type\":\"frame\",\"v\":{TELEMETRY_SCHEMA_VERSION},\"frame\":{}}}",
                serde_json::to_string(f).expect("frame render")
            ),
            TelemetryLine::Anomaly(a) => format!(
                "{{\"type\":\"anomaly\",\"v\":{TELEMETRY_SCHEMA_VERSION},\"anomaly\":{}}}",
                serde_json::to_string(a).expect("anomaly render")
            ),
            TelemetryLine::Slo(s) => format!(
                "{{\"type\":\"slo\",\"v\":{TELEMETRY_SCHEMA_VERSION},\"slo\":{}}}",
                serde_json::to_string(s).expect("slo render")
            ),
        }
    }

    /// Parse one JSONL line; `Err` carries a reason, unknown `type`s are
    /// an error so schema drift is loud.
    pub fn from_json(line: &str) -> Result<TelemetryLine, String> {
        let v: serde_json::Value =
            serde_json::from_str(line).map_err(|e| format!("telemetry line parse: {e}"))?;
        let kind = v["type"]
            .as_str()
            .ok_or_else(|| "telemetry line without a type".to_string())?
            .to_string();
        match kind.as_str() {
            "frame" => serde_json::from_value(v["frame"].clone())
                .map(TelemetryLine::Frame)
                .map_err(|e| format!("frame line: {e}")),
            "anomaly" => serde_json::from_value(v["anomaly"].clone())
                .map(TelemetryLine::Anomaly)
                .map_err(|e| format!("anomaly line: {e}")),
            "slo" => serde_json::from_value(v["slo"].clone())
                .map(TelemetryLine::Slo)
                .map_err(|e| format!("slo line: {e}")),
            other => Err(format!("unknown telemetry line type {other:?}")),
        }
    }
}

/// Parse a whole JSONL stream, skipping blank lines. The first malformed
/// line is an error.
pub fn parse_telemetry_stream(text: &str) -> Result<Vec<TelemetryLine>, String> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(TelemetryLine::from_json)
        .collect()
}

// ---------------------------------------------------------------------------
// SLO engine
// ---------------------------------------------------------------------------

/// Which per-frame metric an SLO constrains.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SloMetric {
    /// `gap_us` — the Eq.-3 imbalance gap, µs.
    GapUs,
    /// `gap_ratio` — gap over iteration time (0 when the frame has no
    /// iteration time).
    GapRatio,
    /// `iter_us` — iteration time, µs.
    IterUs,
    /// `hit_rate` — cache-hit fraction in [0, 1]; frames without fetches
    /// are skipped.
    HitRate,
    /// `p50_sample_latency_us` over the frame's merged tier histograms;
    /// frames without latency payload are skipped.
    P50SampleLatencyUs,
    /// `p95_sample_latency_us`.
    P95SampleLatencyUs,
    /// `p99_sample_latency_us`.
    P99SampleLatencyUs,
    /// `retries` per frame.
    Retries,
}

impl SloMetric {
    pub fn name(self) -> &'static str {
        match self {
            SloMetric::GapUs => "gap_us",
            SloMetric::GapRatio => "gap_ratio",
            SloMetric::IterUs => "iter_us",
            SloMetric::HitRate => "hit_rate",
            SloMetric::P50SampleLatencyUs => "p50_sample_latency_us",
            SloMetric::P95SampleLatencyUs => "p95_sample_latency_us",
            SloMetric::P99SampleLatencyUs => "p99_sample_latency_us",
            SloMetric::Retries => "retries",
        }
    }

    pub fn by_name(name: &str) -> Option<SloMetric> {
        [
            SloMetric::GapUs,
            SloMetric::GapRatio,
            SloMetric::IterUs,
            SloMetric::HitRate,
            SloMetric::P50SampleLatencyUs,
            SloMetric::P95SampleLatencyUs,
            SloMetric::P99SampleLatencyUs,
            SloMetric::Retries,
        ]
        .into_iter()
        .find(|m| m.name() == name)
    }

    /// The metric's value over one frame, `None` when the frame carries
    /// no signal for it (no fetches / no latency payload).
    pub fn eval(self, f: &TickFrame) -> Option<f64> {
        let s = &f.scalars;
        match self {
            SloMetric::GapUs => Some(s.gap_us as f64),
            SloMetric::GapRatio => (s.iter_us > 0).then(|| s.gap_us as f64 / s.iter_us as f64),
            SloMetric::IterUs => Some(s.iter_us as f64),
            SloMetric::HitRate => s.hit_pm().map(|pm| pm as f64 / 1000.0),
            SloMetric::P50SampleLatencyUs => f.sample_latency().and_then(|h| h.percentile(50.0)),
            SloMetric::P95SampleLatencyUs => f.sample_latency().and_then(|h| h.percentile(95.0)),
            SloMetric::P99SampleLatencyUs => f.sample_latency().and_then(|h| h.percentile(99.0)),
            SloMetric::Retries => Some(s.retries as f64),
        }
    }
}

/// Comparison operator of an SLO spec.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SloOp {
    Lt,
    Le,
    Gt,
    Ge,
}

impl SloOp {
    pub fn symbol(self) -> &'static str {
        match self {
            SloOp::Lt => "<",
            SloOp::Le => "<=",
            SloOp::Gt => ">",
            SloOp::Ge => ">=",
        }
    }

    fn holds(self, value: f64, bound: f64) -> bool {
        match self {
            SloOp::Lt => value < bound,
            SloOp::Le => value <= bound,
            SloOp::Gt => value > bound,
            SloOp::Ge => value >= bound,
        }
    }
}

/// One declarative SLO:
/// `metric <op> bound [@window[:max_burn_pct]]`.
///
/// Without a window the whole retained series is one window; with `@N`
/// the series splits into consecutive N-frame windows and the worst
/// window's burn (violating-frame percentage) must stay ≤ `max_burn_pct`
/// (default 0 — no violations tolerated).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SloSpec {
    pub metric: SloMetric,
    pub op: SloOp,
    pub bound: f64,
    /// Burn-rate window in frames; `None` = the whole series.
    pub window: Option<u64>,
    /// Tolerated violating-frame percentage per window.
    pub max_burn_pct: f64,
}

impl SloSpec {
    /// The canonical text form (re-parseable).
    pub fn display(&self) -> String {
        let mut out = format!("{}{}{}", self.metric.name(), self.op.symbol(), self.bound);
        if let Some(w) = self.window {
            out.push_str(&format!("@{w}"));
            if self.max_burn_pct > 0.0 {
                out.push_str(&format!(":{}", self.max_burn_pct));
            }
        } else if self.max_burn_pct > 0.0 {
            out.push_str(&format!("@0:{}", self.max_burn_pct));
        }
        out
    }

    /// Parse one spec, e.g. `p95_sample_latency_us<5000`,
    /// `gap_ratio<=0.5@64:25`, `hit_rate>=0.8@32`.
    pub fn parse(text: &str) -> Result<SloSpec, String> {
        let text = text.trim();
        let (op_at, op, op_len) = ["<=", ">=", "<", ">"]
            .iter()
            .filter_map(|sym| text.find(sym).map(|i| (i, *sym)))
            .min_by_key(|&(i, sym)| (i, std::cmp::Reverse(sym.len())))
            .map(|(i, sym)| {
                let op = match sym {
                    "<=" => SloOp::Le,
                    ">=" => SloOp::Ge,
                    "<" => SloOp::Lt,
                    _ => SloOp::Gt,
                };
                (i, op, sym.len())
            })
            .ok_or_else(|| format!("SLO {text:?}: no comparison operator"))?;
        let metric_name = text[..op_at].trim();
        let metric = SloMetric::by_name(metric_name)
            .ok_or_else(|| format!("SLO {text:?}: unknown metric {metric_name:?}"))?;
        let rest = text[op_at + op_len..].trim();
        let (bound_text, window_text) = match rest.find('@') {
            Some(i) => (&rest[..i], Some(&rest[i + 1..])),
            None => (rest, None),
        };
        let bound: f64 = bound_text
            .trim()
            .parse()
            .map_err(|_| format!("SLO {text:?}: bad bound {bound_text:?}"))?;
        let (window, max_burn_pct) = match window_text {
            None => (None, 0.0),
            Some(w) => {
                let (win_text, burn_text) = match w.find(':') {
                    Some(i) => (&w[..i], Some(&w[i + 1..])),
                    None => (w, None),
                };
                let win: u64 = win_text
                    .trim()
                    .parse()
                    .map_err(|_| format!("SLO {text:?}: bad window {win_text:?}"))?;
                let burn = match burn_text {
                    Some(b) => b
                        .trim()
                        .parse()
                        .map_err(|_| format!("SLO {text:?}: bad burn {b:?}"))?,
                    None => 0.0,
                };
                ((win > 0).then_some(win), burn)
            }
        };
        Ok(SloSpec {
            metric,
            op,
            bound,
            window,
            max_burn_pct,
        })
    }
}

/// Parse a `;`-separated spec list (blank items skipped).
pub fn parse_slo_specs(text: &str) -> Result<Vec<SloSpec>, String> {
    text.split(';')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(SloSpec::parse)
        .collect()
}

/// One SLO's verdict over a frame series.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SloVerdict {
    /// The spec's canonical text form.
    pub spec: String,
    /// Frames that carried a value for the metric.
    pub frames: u64,
    /// Frames violating the bound.
    pub violations: u64,
    /// Worst window's violating-frame percentage.
    pub burn_pct: f64,
    /// Tick of the worst single violation (0 when none).
    pub worst_tick: u64,
    /// The most extreme violating value (0 when none).
    pub worst_value: f64,
    pub pass: bool,
}

/// Evaluate one spec over a frame series.
pub fn evaluate_slo(spec: &SloSpec, frames: &[TickFrame]) -> SloVerdict {
    let mut evaluated = 0u64;
    let mut violations = 0u64;
    let mut worst_tick = 0u64;
    let mut worst_value = 0.0f64;
    let mut worst_excess = f64::NEG_INFINITY;
    // (violations, total) per window.
    let window = spec.window.unwrap_or(u64::MAX).max(1);
    let mut windows: Vec<(u64, u64)> = Vec::new();
    let mut in_window = 0u64;
    for f in frames {
        let Some(value) = spec.metric.eval(f) else {
            continue;
        };
        if in_window == 0 {
            windows.push((0, 0));
        }
        evaluated += 1;
        in_window += 1;
        let w = windows.last_mut().expect("window opened");
        w.1 += 1;
        if !spec.op.holds(value, spec.bound) {
            violations += 1;
            w.0 += 1;
            let excess = match spec.op {
                SloOp::Lt | SloOp::Le => value - spec.bound,
                SloOp::Gt | SloOp::Ge => spec.bound - value,
            };
            if excess > worst_excess {
                worst_excess = excess;
                worst_tick = f.scalars.tick;
                worst_value = value;
            }
        }
        if in_window >= window {
            in_window = 0;
        }
    }
    let burn_pct = windows
        .iter()
        .map(|&(v, n)| {
            if n > 0 {
                v as f64 * 100.0 / n as f64
            } else {
                0.0
            }
        })
        .fold(0.0f64, f64::max);
    SloVerdict {
        spec: spec.display(),
        frames: evaluated,
        violations,
        burn_pct,
        worst_tick,
        worst_value,
        pass: evaluated == 0 || burn_pct <= spec.max_burn_pct,
    }
}

/// Evaluate a spec list over a frame series.
pub fn evaluate_slos(specs: &[SloSpec], frames: &[TickFrame]) -> Vec<SloVerdict> {
    specs.iter().map(|s| evaluate_slo(s, frames)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(tick: u64, gap_us: u64, iter_us: u64) -> TickScalars {
        TickScalars {
            tick,
            gap_us,
            iter_us,
            local_hits: 6,
            remote_hits: 1,
            misses: 1,
            delivered: 8,
            ..TickScalars::default()
        }
    }

    #[test]
    fn quiet_series_emits_no_anomalies() {
        let mut bank = DetectorBank::new(DetectorConfig::standard());
        for t in 0..200 {
            bank.observe(&frame(t, 1_000, 50_000), |a| {
                panic!("steady series fired {a:?}")
            });
        }
    }

    #[test]
    fn gap_spike_fires_on_a_step_and_identifies_the_tick() {
        let mut bank = DetectorBank::new(DetectorConfig::standard());
        let mut fired = Vec::new();
        for t in 0..40 {
            let gap = if t == 25 {
                80_000
            } else {
                1_000 + (t % 3) * 16
            };
            bank.observe(&frame(t, gap, 50_000), |a| fired.push(a));
        }
        let spike = fired
            .iter()
            .find(|a| a.kind == DetectorKind::GapSpike)
            .expect("spike detected");
        assert_eq!(spike.tick, 25);
        assert_eq!(spike.onset_tick, 25);
        assert_eq!(spike.value, 80_000);
        assert!(spike.severity >= 4 << 8);
    }

    #[test]
    fn level_shift_fires_after_a_sustained_slowdown_with_onset_attribution() {
        let mut bank = DetectorBank::new(DetectorConfig::standard());
        let mut fired = Vec::new();
        for t in 0..60 {
            let iter = if t >= 30 { 120_000 } else { 50_000 };
            bank.observe(&frame(t, 1_000, iter), |a| fired.push(a));
        }
        let shift = fired
            .iter()
            .find(|a| a.kind == DetectorKind::LevelShift)
            .expect("level shift detected");
        assert_eq!(shift.onset_tick, 30, "attributed to the first slow tick");
        assert!(
            shift.tick >= 30 && shift.tick <= 32,
            "fired promptly: {shift:?}"
        );
        assert!(shift.value >= 120_000);
    }

    #[test]
    fn throughput_cliff_fires_exactly_at_the_collapse_tick() {
        let mut bank = DetectorBank::new(DetectorConfig::standard());
        let mut fired = Vec::new();
        for t in 0..20 {
            let iter = if t >= 12 { 250_000 } else { 50_000 };
            bank.observe(&frame(t, 1_000, iter), |a| fired.push(a));
        }
        let cliff = fired
            .iter()
            .find(|a| a.kind == DetectorKind::ThroughputCliff)
            .expect("cliff detected");
        assert_eq!(cliff.tick, 12);
        assert_eq!(cliff.baseline, 50_000);
        assert_eq!(cliff.value, 250_000);
    }

    #[test]
    fn hit_rate_regression_fires_when_the_cache_goes_cold() {
        let mut bank = DetectorBank::new(DetectorConfig::standard());
        let mut fired = Vec::new();
        for t in 0..40 {
            let mut f = frame(t, 1_000, 50_000);
            if t >= 20 {
                // 87.5% hits → 12.5% hits.
                f.local_hits = 1;
                f.remote_hits = 0;
                f.misses = 7;
            }
            bank.observe(&f, |a| fired.push(a));
        }
        let reg = fired
            .iter()
            .find(|a| a.kind == DetectorKind::HitRateRegression)
            .expect("regression detected");
        assert_eq!(reg.tick, 20);
        assert_eq!(reg.value, 125, "1/8 hits in per-mille");
    }

    #[test]
    fn membership_change_fires_on_crash_and_rejoin_ticks() {
        let mut bank = DetectorBank::new(DetectorConfig::standard());
        let mut fired = Vec::new();
        for t in 0..20 {
            let mut f = frame(t, 1_000, 50_000);
            f.down_mask = if (5..12).contains(&t) { 0b10 } else { 0 };
            bank.observe(&f, |a| fired.push(a));
        }
        let member: Vec<&Anomaly> = fired
            .iter()
            .filter(|a| a.kind == DetectorKind::MembershipChange)
            .collect();
        assert_eq!(member.len(), 2);
        assert_eq!((member[0].tick, member[0].value), (5, 0b10));
        assert_eq!((member[1].tick, member[1].value), (12, 0));
        assert_eq!(member[1].baseline, 0b10);
    }

    #[test]
    fn replay_is_byte_identical_to_online_detection() {
        let frames: Vec<TickScalars> = (0..100)
            .map(|t| {
                let mut f = frame(t, 1_000 + (t % 7) * 40, 50_000 + (t % 5) * 900);
                if t == 60 {
                    f.gap_us = 90_000;
                    f.iter_us = 400_000;
                }
                f
            })
            .collect();
        let mut online = Vec::new();
        let mut bank = DetectorBank::new(DetectorConfig::standard());
        for f in &frames {
            bank.observe(f, |a| online.push(a));
        }
        let replayed = DetectorBank::replay(DetectorConfig::standard(), &frames);
        assert_eq!(online, replayed);
        assert!(!online.is_empty(), "the injected fault must fire something");
    }

    #[test]
    fn mutated_thresholds_change_the_anomaly_sequence() {
        // The canary contract: on a series with real variation, the
        // loosened bank fires where the standard bank stays quiet.
        let frames: Vec<TickScalars> = (0..64)
            .map(|t| frame(t, 800 + (t % 9) * 220, 50_000 + (t % 6) * 4_000))
            .collect();
        let standard = DetectorBank::replay(DetectorConfig::standard(), &frames);
        let mutated = DetectorBank::replay(DetectorConfig::mutated(), &frames);
        assert_ne!(standard, mutated, "mutation must be observable");
    }

    #[test]
    fn hub_rollups_pin_the_1x_8x_64x_downsample_path() {
        // Golden test for the rollup cascade: 128 ticks with known values;
        // the 8× ring must hold 16 window frames and the 64× ring 2, with
        // max-gap / summed-iter / summed-count / merged-histogram
        // semantics exact.
        let hub = TelemetryHub::new(TelemetryConfig {
            ring1: 256,
            ring8: 32,
            ring64: 8,
            ..TelemetryConfig::default()
        });
        for t in 0..128u64 {
            hub.record_fetch_us(FlightTier::Cache, 10 + t);
            hub.record_fetch_us(FlightTier::Store, 4_000 + t);
            let f = TickScalars {
                tick: t,
                gap_us: 1_000 + (t % 8) * 100, // max in each 8-window: 1700
                iter_us: 50_000,
                local_hits: 7,
                remote_hits: 0,
                misses: 1,
                delivered: 8,
                ..TickScalars::default()
            };
            hub.record_tick(f, |_| {});
        }
        let snap = hub.snapshot();
        assert_eq!(snap.ticks, 128);
        assert_eq!(snap.frames.len(), 128);
        assert_eq!(snap.rollup8.len(), 16);
        assert_eq!(snap.rollup64.len(), 2);

        for (w, f8) in snap.rollup8.iter().enumerate() {
            let s = &f8.scalars;
            assert_eq!(s.tick, w as u64 * 8, "window start tick");
            assert_eq!(s.gap_us, 1_700, "window max gap");
            assert_eq!(s.iter_us, 8 * 50_000, "window iter sum");
            assert_eq!(s.local_hits, 56);
            assert_eq!(s.misses, 8);
            assert_eq!(s.delivered, 64);
            let cache = LogHistogram::from_compact(&f8.cache_fetch_us).unwrap();
            assert_eq!(cache.count(), 8, "8 cache fetches per window");
        }
        for (w, f64_) in snap.rollup64.iter().enumerate() {
            let s = &f64_.scalars;
            assert_eq!(s.tick, w as u64 * 64);
            assert_eq!(s.gap_us, 1_700);
            assert_eq!(s.iter_us, 64 * 50_000);
            assert_eq!(s.local_hits, 448);
            assert_eq!(s.delivered, 512);
            let cache = LogHistogram::from_compact(&f64_.cache_fetch_us).unwrap();
            let store = LogHistogram::from_compact(&f64_.store_fetch_us).unwrap();
            assert_eq!(cache.count(), 64);
            assert_eq!(store.count(), 64);
            // Window 0 saw store latencies 4000..4063.
            if w == 0 {
                assert_eq!(store.min(), Some(4_000));
                assert_eq!(store.max(), Some(4_063));
            }
        }

        // The rollup histograms must equal a direct merge of the window's
        // 1× histograms — no drift through the cascade.
        let mut direct = LogHistogram::new();
        for f in &snap.frames[0..64] {
            direct.merge(&LogHistogram::from_compact(&f.store_fetch_us).unwrap());
        }
        assert_eq!(
            LogHistogram::from_compact(&snap.rollup64[0].store_fetch_us).unwrap(),
            direct
        );
    }

    #[test]
    fn ring_wrap_retains_the_newest_frames() {
        let hub = TelemetryHub::new(TelemetryConfig {
            ring1: 16,
            ring8: 4,
            ring64: 2,
            ..TelemetryConfig::default()
        });
        for t in 0..100u64 {
            hub.record_tick(frame(t, 1_000, 50_000), |_| {});
        }
        let snap = hub.snapshot();
        assert_eq!(snap.ticks, 100);
        assert_eq!(snap.frames.len(), 16);
        assert_eq!(snap.frames[0].scalars.tick, 84);
        assert_eq!(snap.frames[15].scalars.tick, 99);
    }

    #[test]
    fn merge_frames_aligns_by_tick_and_aggregates() {
        let mk = |tick: u64, gap: u64, local: u64| {
            let mut f = TickFrame::from_scalars(TickScalars {
                tick,
                gap_us: gap,
                iter_us: 10_000,
                local_hits: local,
                misses: 2,
                delivered: 8,
                loader_workers: 4,
                ..TickScalars::default()
            });
            let mut h = LogHistogram::new();
            h.record(gap);
            f.cache_fetch_us = h.to_compact();
            f
        };
        let a = vec![mk(0, 500, 5), mk(1, 700, 6)];
        let b = vec![mk(1, 900, 3), mk(2, 400, 2)];
        let merged = merge_frames(&a, &b);
        assert_eq!(merged.len(), 3);
        assert_eq!(merged[0].scalars.tick, 0);
        let t1 = &merged[1].scalars;
        assert_eq!(t1.tick, 1);
        assert_eq!(t1.gap_us, 900, "cluster gap is the worst node's");
        assert_eq!(t1.local_hits, 9);
        assert_eq!(t1.delivered, 16);
        assert_eq!(t1.loader_workers, 8);
        let h = LogHistogram::from_compact(&merged[1].cache_fetch_us).unwrap();
        assert_eq!(h.count(), 2, "latency payloads merged");
        assert_eq!(merged[2].scalars.tick, 2);
    }

    #[test]
    fn telemetry_lines_round_trip() {
        let f = TickFrame::from_scalars(frame(7, 1_234, 56_000));
        let a = Anomaly {
            kind: DetectorKind::LevelShift,
            tick: 9,
            onset_tick: 8,
            value: 120_000,
            baseline: 50_000,
            severity: 61_750,
        };
        let s = SloVerdict {
            spec: "gap_us<2000".to_string(),
            frames: 10,
            violations: 0,
            burn_pct: 0.0,
            worst_tick: 0,
            worst_value: 0.0,
            pass: true,
        };
        for line in [
            TelemetryLine::Frame(f),
            TelemetryLine::Anomaly(a),
            TelemetryLine::Slo(s),
        ] {
            let text = line.to_json();
            let back = TelemetryLine::from_json(&text).expect("parse back");
            assert_eq!(back, line);
        }
        assert!(TelemetryLine::from_json("{\"type\":\"other\"}").is_err());
        assert!(TelemetryLine::from_json("garbage").is_err());
        let stream = [
            TelemetryLine::Frame(TickFrame::from_scalars(frame(0, 1, 2))).to_json(),
            String::new(),
            TelemetryLine::Anomaly(a).to_json(),
        ]
        .join("\n");
        assert_eq!(parse_telemetry_stream(&stream).unwrap().len(), 2);
    }

    #[test]
    fn slo_specs_parse_and_display_round_trip() {
        for text in [
            "gap_us<2000",
            "gap_ratio<=0.5@64:25",
            "hit_rate>=0.8@32",
            "p95_sample_latency_us<5000",
            "iter_us<100000",
            "retries<=0",
        ] {
            let spec = SloSpec::parse(text).unwrap_or_else(|e| panic!("{e}"));
            let again = SloSpec::parse(&spec.display()).unwrap();
            assert_eq!(spec, again, "display re-parses: {text}");
        }
        assert!(SloSpec::parse("nope<1").is_err());
        assert!(SloSpec::parse("gap_us 1").is_err());
        assert!(SloSpec::parse("gap_us<abc").is_err());
        assert!(SloSpec::parse("gap_us<1@x").is_err());
        let specs = parse_slo_specs("gap_us<2000; hit_rate>=0.5").unwrap();
        assert_eq!(specs.len(), 2);
    }

    #[test]
    fn slo_verdicts_catch_violations_with_tick_attribution() {
        let frames: Vec<TickFrame> = (0..50u64)
            .map(|t| {
                let mut s = frame(t, 1_000, 50_000);
                if t == 33 {
                    s.gap_us = 9_000;
                }
                TickFrame::from_scalars(s)
            })
            .collect();
        let pass = evaluate_slo(&SloSpec::parse("gap_us<10000").unwrap(), &frames);
        assert!(pass.pass);
        assert_eq!(pass.violations, 0);

        let fail = evaluate_slo(&SloSpec::parse("gap_us<2000").unwrap(), &frames);
        assert!(!fail.pass);
        assert_eq!(fail.violations, 1);
        assert_eq!(fail.worst_tick, 33);
        assert_eq!(fail.worst_value, 9_000.0);

        // Burn-rate tolerance: 1 violation in 50 frames = 2% burn, which a
        // 10%-burn window absorbs.
        let tolerant = evaluate_slo(&SloSpec::parse("gap_us<2000@50:10").unwrap(), &frames);
        assert!(tolerant.pass, "{tolerant:?}");
        assert!(tolerant.burn_pct > 0.0);

        // Small windows concentrate the burn: the window holding tick 33
        // burns 12.5% > 10%.
        let windowed = evaluate_slo(&SloSpec::parse("gap_us<2000@8:10").unwrap(), &frames);
        assert!(!windowed.pass);
    }

    #[test]
    fn slo_hit_rate_skips_frames_without_fetches() {
        let mut idle = frame(0, 1_000, 50_000);
        idle.local_hits = 0;
        idle.remote_hits = 0;
        idle.misses = 0;
        let frames = vec![
            TickFrame::from_scalars(idle),
            TickFrame::from_scalars(frame(1, 1_000, 50_000)),
        ];
        let v = evaluate_slo(&SloSpec::parse("hit_rate>=0.8").unwrap(), &frames);
        assert_eq!(v.frames, 1, "idle frame skipped");
        assert!(v.pass);
    }
}
