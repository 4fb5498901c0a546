//! The live data-loading engine: real threads, real queues, real timings.
//!
//! This is the reproduction's analog of the paper's online C++ runtime: a
//! multi-queue loading stage (one request queue per consumer, §4.2), a
//! preprocessing stage, a shared capacity-bounded cache, and consumer
//! threads standing in for GPUs (they assemble mini-batches, "train" for a
//! fixed duration, and synchronize on a barrier like a gradient allreduce).
//! Loading and preprocessing share one worker pool (§4.1): each worker reads
//! its job off a [`RoleBoard`]. With [`EngineConfig::elastic`] off the board
//! keeps the configured loader/preproc split for the whole run; with it on,
//! the elastic controller re-rolls the split at iteration boundaries.
//!
//! [`run_with`] only wires stages; every scoped thread borrows one `Shared`
//! context and owns nothing but its channel ends. `Feeder` streams the
//! schedule under credit pacing; a pool worker runs `Fetch::step` (request →
//! cache or resilient fetch → raw queue) or `Transform::step` (raw →
//! preprocess → cooked queue) as the board says; each consumer runs
//! `Deliver` (assemble, invert and fingerprint, train, barrier), and
//! consumer 0's `Ticker` handles membership, the per-iteration frame and
//! the elastic tick.
//!
//! All store I/O goes through the self-healing [`ResilientStore`] path:
//! transient errors are retried with backoff + jitter, stalls are bounded
//! by per-fetch deadlines, corrupted payloads are detected by checksum and
//! refetched, and a loader worker that *panics* (an injected
//! poison fault) is contained — the panic is caught, counted, and the
//! request re-executed — so no fault class can wedge the consumer barrier.
//! Teardown is defensive end to end: channel disconnections unwind each
//! stage instead of panicking, and one abort routine (a consumer losing its
//! upstream, or a cancelled store fetch) raises the latch every pool worker
//! checks once per pass, aborts the [`AbortableBarrier`] and cancels
//! in-flight transfers, so the engine drains instead of hanging
//! (`tests/runtime_engine.rs::cancelled_store_aborts_and_drains`).

use crate::cache::{Lookup, ShardCache};
use crate::resilient::ResilientStore;
use crate::store::{canonical_checksum, sample_checksum, FetchError, SyntheticStore};
use crate::sync::{AbortableBarrier, RoleBoard, ROLE_LOADER, ROLE_PREPROC};
use crate::transform::{invert_in_place, preprocess};
use crossbeam::channel::{bounded, unbounded, Receiver, SendTimeoutError, Sender, TryRecvError};
use lobster_core::elastic::{
    ElasticController, ElasticDecision, ElasticObservation, ElasticParams,
};
use lobster_core::{Role, WorkEstimate};
use lobster_data::{
    generate_access, AccessPattern, Dataset, EpochSchedule, PartitionScheme, SampleId, ScheduleSpec,
};
use lobster_metrics::{
    Counter, DecisionRecord, DecisionSource, FlightEvent, FlightFault, FlightTier, Gauge,
    Instruments, TraceEvent,
};
use lobster_storage::faults::{
    CrashSpec, FaultPlan, FaultSpec, MembershipEvent, MembershipTransition, RetryPolicy,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Consumer ("GPU") threads.
    pub consumers: usize,
    /// Samples per consumer per iteration.
    pub batch_size: usize,
    /// Loader worker threads.
    pub loader_threads: usize,
    /// Preprocessing worker threads.
    pub preproc_threads: usize,
    /// Cache capacity in bytes.
    pub cache_bytes: u64,
    /// Preprocessing work factor (mixing passes per sample).
    pub work_factor: u32,
    /// Simulated training duration per iteration.
    pub train: Duration,
    /// Epochs to run.
    pub epochs: u64,
    /// Shuffle seed.
    pub seed: u64,
    /// Retry/backoff/deadline parameters for the resilient fetch path.
    pub retry: RetryPolicy,
    /// Elastic worker pool (§4.1): the elastic controller flips the roles
    /// of the `loader_threads + preproc_threads` pool workers at iteration
    /// boundaries. Off, the pool keeps the configured split.
    pub elastic: bool,
    /// Stress mode for the elastic pool: force one role swap on every
    /// tick where the split would otherwise stand still.
    pub elastic_churn: bool,
    /// Mid-run preprocessing step: from iteration `.0` on, the work
    /// factor becomes `.1` (the Fig. 6 workload shift, live).
    pub work_factor_step: Option<(u64, u32)>,
    /// Scheduled whole-node crashes and rejoins (tick-indexed). The engine
    /// is one node of the modeled cluster, so a crash manifests here as
    /// peer-routing state: consumer 0 applies the tick's down-mask at each
    /// iteration boundary and any fetch routed at a down peer fails fast
    /// into the immediate-PFS failover.
    pub crashes: Vec<CrashSpec>,
    /// Modeled cluster size for the synthetic peer-routing hash (0 turns
    /// routing off entirely). Must cover every node a [`CrashSpec`] names.
    pub peer_nodes: usize,
    /// Declarative SLOs evaluated over the run's telemetry frames at
    /// teardown (see `lobster_metrics::telemetry::SloSpec::parse` for the
    /// grammar). Empty means no SLO evaluation; verdicts land in
    /// [`EngineReport::slo_verdicts`]. Requires enabled instruments.
    pub slo: Vec<lobster_metrics::SloSpec>,
    /// How the per-epoch sample order is drawn (epoch shuffle,
    /// Zipf-with-replacement, growing prefix — DESIGN.md §15). The feeder,
    /// the integrity fingerprint, and the conformance delivery check all
    /// derive from the same pattern.
    pub access: AccessPattern,
    /// Per-sample work estimate fed to the elastic controller (mean or a
    /// quantile of `size · cost` — DESIGN.md §15).
    pub work_estimate: WorkEstimate,
}

impl EngineConfig {
    /// The preprocessing work factor in force at `iter` — a pure function
    /// of the schedule, used identically by the preprocessing workers, the
    /// consumers' integrity inversion, and the elastic controller.
    pub fn work_factor_at(&self, iter: u64) -> u32 {
        match self.work_factor_step {
            Some((at, wf)) if iter >= at => wf,
            _ => self.work_factor,
        }
    }
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            consumers: 2,
            batch_size: 8,
            loader_threads: 2,
            preproc_threads: 2,
            cache_bytes: 64 << 20,
            work_factor: 1,
            train: Duration::from_millis(2),
            epochs: 2,
            seed: 42,
            retry: RetryPolicy::default(),
            elastic: false,
            elastic_churn: false,
            work_factor_step: None,
            crashes: Vec::new(),
            peer_nodes: 0,
            slo: Vec::new(),
            access: AccessPattern::EpochShuffle,
            work_estimate: WorkEstimate::Mean,
        }
    }
}

/// What the engine measured.
#[derive(Debug, Clone)]
pub struct EngineReport {
    /// Iterations executed (across all epochs): the barriers consumer 0
    /// passed, so an aborted run reports fewer than the schedule holds.
    pub iterations: u64,
    /// Wall time of each iteration (barrier to barrier), seconds.
    pub iteration_secs: Vec<f64>,
    /// Cache hit ratio over all demand lookups.
    pub hit_ratio: f64,
    /// Backing-store fetches (misses reaching the "PFS").
    pub store_fetches: u64,
    /// Samples delivered to consumers.
    pub delivered: u64,
    /// XOR of all delivered samples' canonical checksums: an end-to-end
    /// integrity fingerprint that is a pure function of the schedule.
    pub integrity: u64,
    /// Fetch attempts beyond the first (transient retries + corrupt
    /// refetches), from the resilient fetch path.
    pub retries: u64,
    /// Corrupted payloads caught by checksum verification and refetched.
    pub corruptions_detected: u64,
    /// Fetch rounds abandoned at the per-fetch deadline.
    pub deadline_exceeded: u64,
    /// Loader-worker panics contained (request re-executed).
    pub worker_panics: u64,
    /// True if the run was aborted (the pool died or the store was
    /// cancelled) before the schedule drained. Counts above reflect work done.
    pub aborted: bool,
    /// Exactly which samples each consumer received, per iteration:
    /// `delivered_samples[consumer][iter]` is the sorted multiset of sample
    /// ids delivered to that consumer in that iteration. Deterministic — a
    /// pure function of the schedule — even though arrival *order* within
    /// an iteration races. Conformance checking diffs this against the
    /// scheduled batches and the simulators' delivery record.
    pub delivered_samples: Vec<Vec<Vec<u64>>>,
    /// One [`ElasticDecision`] per tick when the elastic pool is on
    /// (empty otherwise) — the role-flip decision sequence the
    /// conformance harness diffs against both simulators.
    pub role_flips: Vec<ElasticDecision>,
    /// Membership transitions consumer 0 applied at tick boundaries, in
    /// application order — the sequence the conformance harness diffs
    /// against both simulators' membership observables.
    pub membership: Vec<MembershipEvent>,
    /// Online detector firings over the run's telemetry frames (empty
    /// when instruments are disabled). Replay-deterministic: re-running
    /// the detector bank over the recorded frames reproduces this
    /// sequence exactly.
    pub anomalies: Vec<lobster_metrics::Anomaly>,
    /// Verdicts for [`EngineConfig::slo`], evaluated over the retained
    /// telemetry frames at teardown.
    pub slo_verdicts: Vec<lobster_metrics::SloVerdict>,
}

#[derive(Debug, Clone, Copy)]
struct Req {
    iter: u64,
    consumer: usize,
    sample: SampleId,
    /// Enqueue timestamp (µs from the trace origin; 0 when uninstrumented)
    /// so the dequeueing loader can attribute queue-wait time.
    enq_us: u64,
}

/// One consumer's stage-time accumulators, feeding the online bottleneck
/// analyzer. Workers add monotonically from their own threads; consumer 0
/// snapshots deltas once per iteration after the barrier (the barrier
/// orders every pre-arrival write before the read).
#[derive(Default)]
struct StageAccum {
    /// Fetch nanoseconds served by the local cache.
    fetch_local_ns: AtomicU64,
    /// Fetch nanoseconds that reached the backing store ("PFS").
    fetch_store_ns: AtomicU64,
    preproc_ns: AtomicU64,
    queue_wait_ns: AtomicU64,
    /// Barrier-arrival timestamp this iteration, µs.
    arrival_us: AtomicU64,
}

struct Raw {
    req: Req,
    bytes: Arc<Vec<u8>>,
}

struct Cooked {
    iter: u64,
    sample: SampleId,
    bytes: Vec<u8>,
}

/// The run's shared context: built once by [`run_with`] and borrowed by
/// every stage thread.
struct Shared {
    cfg: EngineConfig,
    ins: Instruments,
    store: Arc<SyntheticStore>,
    /// The self-healing fetch path every loader goes through.
    rstore: ResilientStore,
    cache: ShardCache,
    /// Recency clock stamped on every cache access.
    clock: AtomicU64,
    board: RoleBoard,
    /// Each pool slot's primary request queue when it loads; only the
    /// elastic tick rewrites it.
    assignment: Vec<AtomicUsize>,
    accum: Vec<StageAccum>,
    /// Per-sample preprocessing cost multipliers (unit on classic datasets).
    sample_costs: Vec<u32>,
    crash_plan: Option<FaultPlan>,
    spec: ScheduleSpec,
    total_iters: u64,
    fetches_m: Counter,
    delivered_m: Counter,
    decisions_m: Counter,
    barrier_m: Counter,
    panics_m: Counter,
    evictions_m: Counter,
    preproc_g: Gauge,
    loader_g: Gauge,
    /// Raised only by [`Shared::abort`]: the feeder stops and every pool
    /// worker leaves on its next pass.
    aborted: AtomicBool,
    /// The feed is exhausted: loader-role workers hand their raw senders
    /// back so the raw channel disconnects and the pool drains.
    feed_done: AtomicBool,
    cancel: Arc<AtomicBool>,
    barrier: AbortableBarrier,
    /// Samples each consumer has taken, for the feeder's credit pacing.
    consumed: Vec<AtomicU64>,
    delivered: AtomicU64,
    integrity: AtomicU64,
    worker_panics: AtomicU64,
}

impl Shared {
    fn new(store: Arc<SyntheticStore>, cfg: EngineConfig, ins: Instruments) -> Shared {
        assert!(cfg.consumers > 0 && cfg.batch_size > 0);
        assert!(cfg.loader_threads > 0 && cfg.preproc_threads > 0);
        let spec = schedule_spec(store.dataset(), &cfg);
        let iters_per_epoch = spec.iterations_per_epoch();
        assert!(iters_per_epoch > 0, "dataset too small for one iteration");
        // Tick-deterministic membership: consumer 0 applies each tick's
        // down-mask at the boundary. *Which* in-flight fetch sees it races
        // (benign: a PeerDown fails over to the PFS); the event sequence is
        // a pure function of the schedule.
        let crash_plan = (!cfg.crashes.is_empty()).then(|| {
            FaultSpec {
                crashes: cfg.crashes.clone(),
                seed: cfg.seed,
                ..FaultSpec::default()
            }
            .compile()
            .expect("engine crash schedule must be valid")
        });
        if cfg.peer_nodes > 0 {
            store.configure_peers(cfg.peer_nodes);
        }
        let dataset = store.dataset();
        Shared {
            cache: ShardCache::with_instruments(cfg.cache_bytes, ins.clone()),
            clock: AtomicU64::new(0),
            rstore: ResilientStore::new(Arc::clone(&store), cfg.retry, ins.clone()),
            board: RoleBoard::new(cfg.loader_threads, cfg.preproc_threads),
            assignment: (0..cfg.loader_threads + cfg.preproc_threads)
                .map(|w| AtomicUsize::new(w % cfg.consumers))
                .collect(),
            accum: (0..cfg.consumers).map(|_| StageAccum::default()).collect(),
            sample_costs: (0..dataset.len())
                .map(|i| dataset.cost_of(SampleId(i as u32)))
                .collect(),
            crash_plan,
            spec,
            total_iters: iters_per_epoch as u64 * cfg.epochs,
            fetches_m: ins.counter("engine.fetches"),
            delivered_m: ins.counter("engine.delivered"),
            decisions_m: ins.counter("engine.controller_decisions"),
            barrier_m: ins.counter("engine.barrier_waits"),
            panics_m: ins.counter("engine.worker_panics"),
            evictions_m: ins.counter("engine.cache_evictions"),
            preproc_g: ins.gauge("engine.preproc_workers"),
            loader_g: ins.gauge("engine.loader_workers"),
            aborted: AtomicBool::new(false),
            feed_done: AtomicBool::new(false),
            cancel: store.cancel_handle(),
            barrier: AbortableBarrier::new(cfg.consumers),
            consumed: (0..cfg.consumers).map(|_| AtomicU64::new(0)).collect(),
            delivered: AtomicU64::new(0),
            integrity: AtomicU64::new(0),
            worker_panics: AtomicU64::new(0),
            cfg,
            ins,
            store,
        }
    }

    /// The preprocessing cost of `sample` in iteration `iter`: the work
    /// factor in force times the sample's cost multiplier. Transform and
    /// Deliver both use it, so the inversion always undoes the mixing.
    fn cost(&self, iter: u64, sample: SampleId) -> u32 {
        self.cfg
            .work_factor_at(iter)
            .saturating_mul(self.sample_costs[sample.index()])
    }

    /// Abort the run: stop the feeder and the pool, cancel in-flight
    /// simulated transfers, and wake every consumer off the barrier.
    fn abort(&self) {
        self.aborted.store(true, Ordering::Relaxed);
        self.cancel.store(true, Ordering::Relaxed);
        self.barrier.abort();
    }
}

/// Publish a controller tick to the workers: the role board mirrors `roles`,
/// and each loader gets its primary queue by expanding the per-queue counts
/// `queues` over the loaders in worker order; one beyond their sum gets
/// `w % queues.len()`.
fn publish_roles(roles: &[Role], queues: &[u32], board: &RoleBoard, assignment: &[AtomicUsize]) {
    let nq = queues.len().max(1);
    let mut q = 0usize;
    let mut used = 0u32;
    for (w, &role) in roles.iter().enumerate() {
        match role {
            Role::Loader => {
                board.set_role(w, ROLE_LOADER);
                while q < queues.len() && used >= queues[q] {
                    q += 1;
                    used = 0;
                }
                let qi = if q < queues.len() { q } else { w % nq };
                assignment[w].store(qi, Ordering::Relaxed);
                used += 1;
            }
            Role::Preproc => board.set_role(w, ROLE_PREPROC),
        }
    }
}

/// How long a pool worker sleeps after a pass that found no work in its
/// role.
const IDLE_NAP: Duration = Duration::from_micros(100);

/// `try_recv` over the request queues: serve `primary` first, then steal
/// from the rest. `Disconnected` only once every queue is disconnected.
fn next_request(req_rx: &[Receiver<Req>], primary: usize) -> Result<Req, TryRecvError> {
    let n = req_rx.len();
    let mut err = TryRecvError::Disconnected;
    for offset in 0..n {
        match req_rx[(primary + offset) % n].try_recv() {
            Ok(req) => return Ok(req),
            Err(TryRecvError::Empty) => err = TryRecvError::Empty,
            Err(TryRecvError::Disconnected) => {}
        }
    }
    Err(err)
}

/// The feeder stage: streams every request in schedule order.
struct Feeder {
    req_tx: Vec<Sender<Req>>,
}

impl Feeder {
    fn run(self, sh: &Shared) {
        let cfg = &sh.cfg;
        // Credit pacing bounds total in-flight work per consumer regardless
        // of queue sizes: at most this many samples sent but not consumed.
        let inflight_limit = (4 * cfg.batch_size) as u64;
        let iters_per_epoch = sh.spec.iterations_per_epoch();
        let mut sent = vec![0u64; cfg.consumers];
        for epoch in 0..cfg.epochs {
            let sched = engine_schedule(sh.spec, epoch, cfg);
            for h in 0..iters_per_epoch {
                let iter = epoch * iters_per_epoch as u64 + h as u64;
                for (consumer, tx) in self.req_tx.iter().enumerate() {
                    for &sample in sched.batch(h, 0, consumer) {
                        while sent[consumer] - sh.consumed[consumer].load(Ordering::Relaxed)
                            >= inflight_limit
                        {
                            if sh.aborted.load(Ordering::Relaxed) {
                                // Nobody will ever consume again: stop feeding.
                                return;
                            }
                            std::thread::sleep(Duration::from_micros(50));
                        }
                        let req = Req {
                            iter,
                            consumer,
                            sample,
                            enq_us: sh.ins.now_us(),
                        };
                        if tx.send(req).is_err() {
                            return; // the pool is gone: the engine is unwinding
                        }
                        sent[consumer] += 1;
                        sh.ins.trace(|| {
                            TraceEvent::instant("queue_enqueue", "queue", sh.ins.now_us())
                                .tid(consumer as u32)
                                .arg_u("depth", tx.len() as u64)
                                .arg_u("sample", sample.0 as u64)
                        });
                    }
                }
            }
        }
        // Senders drop here: the pool drains and exits.
    }
}

/// What one pool pass did.
enum Pass {
    Worked,
    Idle,
    Exit,
}

/// The loader arm of a pool worker: the request queues and, until the
/// feed is exhausted, this worker's raw sender.
struct Fetch {
    req_rx: Vec<Receiver<Req>>,
    raw_tx: Option<Sender<Raw>>,
}

impl Fetch {
    /// Take the next request (primary queue first), fetch it through the
    /// cache, and send the raw bytes on.
    fn step(&mut self, sh: &Shared, w: usize) -> Pass {
        let req = match next_request(&self.req_rx, sh.assignment[w].load(Ordering::Relaxed)) {
            Ok(req) => req,
            Err(TryRecvError::Empty) => return Pass::Idle,
            Err(TryRecvError::Disconnected) => {
                // Feed exhausted: latch it for the whole pool and fall
                // through to preproc mode.
                sh.feed_done.store(true, Ordering::Relaxed);
                self.raw_tx = None;
                return Pass::Worked;
            }
        };
        sh.ins.trace(|| {
            TraceEvent::instant("queue_dequeue", "queue", sh.ins.now_us())
                .tid(req.consumer as u32)
                .arg_u("depth", self.req_rx[req.consumer].len() as u64)
                .arg_u("worker", w as u64)
        });
        let Some(bytes) = Self::fetch(sh, w, &req) else {
            // The store was cancelled: nothing more can be loaded, so take
            // the whole run down instead of leaving the consumers waiting.
            sh.abort();
            return Pass::Exit;
        };
        // A blocking send could hang if the run aborts while the raw channel
        // is full (it never disconnects); time-boxed sends re-check the latch.
        let tx = self.raw_tx.as_ref().expect("loader arm holds a raw sender");
        let mut item = Raw { req, bytes };
        loop {
            match tx.send_timeout(item, Duration::from_millis(5)) {
                Ok(()) => return Pass::Worked,
                Err(SendTimeoutError::Timeout(it)) if !sh.aborted.load(Ordering::Relaxed) => {
                    item = it
                }
                Err(_) => return Pass::Exit,
            }
        }
    }

    /// One resilient fetch through the cache, with poisoned-worker
    /// containment (the panic is caught, counted, and the request
    /// re-executed). `None` means the store was cancelled.
    fn fetch(sh: &Shared, w: usize, req: &Req) -> Option<Arc<Vec<u8>>> {
        let ins = &sh.ins;
        let (t0, ts_us) = (Instant::now(), ins.now_us());
        if ins.is_enabled() {
            sh.accum[req.consumer]
                .queue_wait_ns
                .fetch_add(ts_us.saturating_sub(req.enq_us) * 1_000, Ordering::Relaxed);
        }
        let key = sh.clock.fetch_add(1, Ordering::Relaxed);
        sh.fetches_m.inc();
        let (bytes, tier) = match sh.cache.get_or_claim(req.sample, key) {
            Lookup::Hit(b) => (b, FlightTier::Cache),
            Lookup::Claim(claim) => {
                // Poisoned-worker containment: an injected poison panics inside
                // the fetch (no locks held); it is caught, logged and retried,
                // so the worker "restarts". Returning on cancellation drops the
                // claim, handing the fetch to any loader waiting on this id.
                let fetched = loop {
                    let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        sh.rstore.fetch(req.sample)
                    }));
                    match attempt {
                        Ok(Ok(bytes)) => break Arc::new(bytes),
                        Ok(Err(FetchError::Cancelled)) => return None,
                        Ok(Err(_)) => unreachable!("ResilientStore absorbs non-cancel errors"),
                        Err(_) => {
                            sh.worker_panics.fetch_add(1, Ordering::Relaxed);
                            sh.panics_m.inc();
                            let ts = ins.now_us();
                            ins.trace(|| {
                                TraceEvent::instant("worker_panic", "fault", ts)
                                    .tid(w as u32)
                                    .arg_u("sample", req.sample.0 as u64)
                            });
                            ins.flight(|| FlightEvent::Fault {
                                kind: FlightFault::WorkerPanic,
                                sample: req.sample.0 as u64,
                            });
                        }
                    }
                };
                claim.fill(Arc::clone(&fetched), key);
                (fetched, FlightTier::Store)
            }
        };
        let cached = tier == FlightTier::Cache;
        ins.trace(|| {
            TraceEvent::span("fetch", "io", ts_us, ins.now_us() - ts_us)
                .tid(w as u32)
                .arg_s("tier", if cached { "cache" } else { "store" })
                .arg_u("sample", req.sample.0 as u64)
                .arg_u("bytes", bytes.len() as u64)
        });
        if ins.is_enabled() {
            let acc = &sh.accum[req.consumer];
            let cell = if cached {
                &acc.fetch_local_ns
            } else {
                &acc.fetch_store_ns
            };
            cell.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
            ins.flight_fetch_us(tier, t0.elapsed().as_micros() as u64);
            ins.telemetry_fetch_us(tier, t0.elapsed().as_micros() as u64);
        }
        Some(bytes)
    }
}

/// The preprocessing arm of a pool worker: the raw queue and the cooked
/// senders.
struct Transform {
    raw_rx: Receiver<Raw>,
    cooked_tx: Vec<Sender<Cooked>>,
}

impl Transform {
    /// Preprocess one raw sample and deliver it to its consumer's channel.
    fn step(&self, sh: &Shared, w: usize) -> Pass {
        let raw = match self.raw_rx.try_recv() {
            Ok(raw) => raw,
            Err(TryRecvError::Empty) => return Pass::Idle,
            // All raw senders handed back and the channel drained: the
            // pool's work is over.
            Err(TryRecvError::Disconnected) => return Pass::Exit,
        };
        let ins = &sh.ins;
        let (ts_us, t0) = (ins.now_us(), Instant::now());
        let cooked = preprocess(&raw.bytes, sh.cost(raw.req.iter, raw.req.sample));
        ins.trace(|| {
            TraceEvent::span("preprocess", "compute", ts_us, ins.now_us() - ts_us)
                .tid(w as u32)
                .arg_u("consumer", raw.req.consumer as u64)
                .arg_u("bytes", raw.bytes.len() as u64)
        });
        if ins.is_enabled() {
            sh.accum[raw.req.consumer]
                .preproc_ns
                .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
        let cooked = Cooked {
            iter: raw.req.iter,
            sample: raw.req.sample,
            bytes: cooked,
        };
        match self.cooked_tx[raw.req.consumer].send(cooked) {
            Ok(()) => Pass::Worked,
            Err(_) => Pass::Exit,
        }
    }
}

/// One pool worker: every pass reads the worker's role off the board and
/// runs that arm's step. The worker hands its raw sender back once the
/// feed is exhausted, so the raw channel disconnects and the pool drains
/// without a join; it leaves at once when the run aborts. A pass that finds
/// no work naps.
fn pool_worker(sh: &Shared, w: usize, mut fetch: Fetch, transform: Transform) {
    while !sh.aborted.load(Ordering::Relaxed) {
        if fetch.raw_tx.is_some() && sh.feed_done.load(Ordering::Relaxed) {
            fetch.raw_tx = None;
        }
        let pass = if fetch.raw_tx.is_some() && sh.board.role(w) == ROLE_LOADER {
            fetch.step(sh, w)
        } else {
            transform.step(sh, w)
        };
        match pass {
            Pass::Worked => {}
            Pass::Idle => std::thread::sleep(IDLE_NAP),
            Pass::Exit => return,
        }
    }
}

/// A consumer ("GPU"): assembles each iteration's batch off its cooked
/// channel, inverts and fingerprints it, trains, and waits on the barrier.
struct Deliver {
    consumer: usize,
    rx: Receiver<Cooked>,
    /// Samples may arrive slightly out of iteration order when several
    /// workers serve one queue; early arrivals wait here.
    stash: HashMap<u64, Vec<Cooked>>,
    /// One batch buffer for the whole run.
    have: Vec<Cooked>,
    /// The sorted sample ids of every completed iteration.
    log: Vec<Vec<u64>>,
}

impl Deliver {
    /// Run every iteration; return the delivery log and, for consumer 0,
    /// the ticker with its logs.
    fn run(mut self, sh: &Shared, mut ticker: Option<Ticker>) -> (Vec<Vec<u64>>, Option<Ticker>) {
        if let Some(t) = ticker.as_mut() {
            t.t0 = Instant::now(); // iteration 0 starts here, not at setup
        }
        for iter in 0..sh.total_iters {
            if let Some(t) = ticker.as_mut() {
                t.membership(sh, iter);
            }
            if !self.assemble(sh, iter) {
                // The upstream pipeline died: abort instead of deadlocking.
                sh.abort();
                break;
            }
            self.check(sh, iter);
            // "Training".
            std::thread::sleep(sh.cfg.train);
            // Gradient-allreduce stand-in.
            let wait_ts = sh.ins.now_us();
            if sh.ins.is_enabled() {
                // Published before the barrier, so every arrival is visible
                // to consumer 0's post-barrier snapshot.
                sh.accum[self.consumer]
                    .arrival_us
                    .store(wait_ts, Ordering::Relaxed);
            }
            if sh.barrier.wait().is_err() {
                break; // another consumer aborted the run
            }
            sh.barrier_m.inc();
            sh.ins.trace(|| {
                TraceEvent::span("barrier_wait", "sync", wait_ts, sh.ins.now_us() - wait_ts)
                    .tid(self.consumer as u32)
                    .arg_u("iter", iter)
            });
            if let Some(t) = ticker.as_mut() {
                t.after_barrier(sh, iter);
            }
        }
        (self.log, ticker)
    }

    /// Fill the batch for `iter`; false once the cooked channel is
    /// disconnected (the pool is gone).
    fn assemble(&mut self, sh: &Shared, iter: u64) -> bool {
        if let Some(early) = self.stash.remove(&iter) {
            self.have.extend(early);
        }
        while self.have.len() < sh.cfg.batch_size {
            match self.rx.recv() {
                Ok(c) if c.iter == iter => self.have.push(c),
                Ok(c) => self.stash.entry(c.iter).or_default().push(c),
                Err(_) => return false,
            }
        }
        true
    }

    /// End-to-end integrity: un-mix each delivered buffer in place,
    /// fingerprint it, log the batch, and return the credits.
    fn check(&mut self, sh: &Shared, iter: u64) {
        let mut acc = 0u64;
        for c in &mut self.have {
            invert_in_place(&mut c.bytes, sh.cost(iter, c.sample));
            acc ^= sample_checksum(&c.bytes);
        }
        let mut ids: Vec<u64> = self.have.iter().map(|c| c.sample.0 as u64).collect();
        ids.sort_unstable();
        self.log.push(ids);
        let n = self.have.len() as u64;
        sh.integrity.fetch_xor(acc, Ordering::Relaxed);
        sh.delivered.fetch_add(n, Ordering::Relaxed);
        sh.delivered_m.add(n);
        sh.consumed[self.consumer].fetch_add(n, Ordering::Relaxed);
        self.have.clear();
    }
}

/// Consumer 0's per-iteration bookkeeping: membership at the tick
/// boundary, the stage-sample / flight / telemetry frame after the
/// barrier, and the elastic tick for the next iteration. Its logs become
/// the report's.
struct Ticker {
    ctl: Option<ElasticController>,
    /// Per-sample work estimate fed to the elastic controller.
    sample_bytes: f64,
    /// Start of the current iteration (barrier to barrier).
    t0: Instant,
    /// Each consumer's cumulative stage totals at the previous barrier, ns.
    prev_stage: Vec<[u64; 4]>,
    /// The previous iteration boundary, µs.
    iter_start_us: u64,
    /// Cumulative [hits, misses, evictions, retries, delivered] at the
    /// previous barrier: telemetry frames carry per-tick deltas.
    tele_prev: [u64; 5],
    iteration_secs: Vec<f64>,
    role_flips: Vec<ElasticDecision>,
    membership: Vec<MembershipEvent>,
}

impl Ticker {
    /// Tick 0 runs here, before any worker spawns: the pool starts on the
    /// controller's split for the first iteration.
    fn new(sh: &Shared) -> Ticker {
        let cfg = &sh.cfg;
        let mut ticker = Ticker {
            ctl: cfg.elastic.then(|| {
                let pool = sh.board.len() as u32;
                let mut params = ElasticParams::for_pool(pool, cfg.consumers as u32);
                params.force_churn = cfg.elastic_churn;
                ElasticController::new(params, cfg.preproc_threads as u32)
            }),
            sample_bytes: cfg.work_estimate.per_sample_bytes(sh.store.dataset()),
            t0: Instant::now(),
            prev_stage: vec![[0; 4]; cfg.consumers],
            iter_start_us: 0,
            tele_prev: [0; 5],
            iteration_secs: Vec::with_capacity(sh.total_iters as usize),
            role_flips: Vec::new(),
            membership: Vec::new(),
        };
        ticker.elastic_tick(sh, 0);
        ticker
    }

    /// Membership first: the tick's crashes/rejoins take effect before any
    /// of this iteration's arrivals are consumed, mirroring the simulators'
    /// tick-boundary ordering.
    fn membership(&mut self, sh: &Shared, iter: u64) {
        let Some(plan) = sh.crash_plan.as_ref() else {
            return;
        };
        for e in plan.membership_events_at(iter) {
            let crashed = e.transition == MembershipTransition::Crashed;
            let ts = sh.ins.now_us();
            sh.ins.trace(|| {
                let name = if crashed { "node_crash" } else { "node_rejoin" };
                TraceEvent::instant(name, "membership", ts)
                    .arg_u("iter", iter)
                    .arg_u("node", e.node as u64)
            });
            sh.ins.flight(|| FlightEvent::MembershipChange {
                tick: iter,
                node: e.node,
                crashed,
            });
            self.membership.push(e);
        }
        sh.store.set_down_mask(plan.down_mask_at(iter));
    }

    /// Past iteration `iter`'s barrier: record its wall time, emit its
    /// frame, and tick the pool for the next iteration.
    fn after_barrier(&mut self, sh: &Shared, iter: u64) {
        let iter_wall = self.t0.elapsed();
        self.iteration_secs.push(iter_wall.as_secs_f64());
        self.t0 = Instant::now();
        if sh.ins.is_enabled() {
            self.frame(sh, iter, iter_wall);
        }
        if iter + 1 < sh.total_iters {
            self.elastic_tick(sh, iter + 1);
        }
    }

    /// Iteration `iter`'s per-consumer stage samples (analyzer and flight
    /// recorder) and its telemetry tick.
    fn frame(&mut self, sh: &Shared, iter: u64, iter_wall: Duration) {
        use lobster_metrics::analysis::BlameCategory as B;
        let ins = &sh.ins;
        let end_us = ins.now_us();
        let cats = [B::LocalFetch, B::PfsFetch, B::Preprocess, B::QueueWait];
        let samples: Vec<lobster_metrics::GpuIterSample> = (sh.accum.iter())
            .zip(&mut self.prev_stage)
            .enumerate()
            .map(|(c, (acc, prev))| {
                let cur = [
                    &acc.fetch_local_ns,
                    &acc.fetch_store_ns,
                    &acc.preproc_ns,
                    &acc.queue_wait_ns,
                ]
                .map(|cell| cell.load(Ordering::Relaxed));
                let mut stages = lobster_metrics::StageSample::default();
                for (cat, (now, before)) in cats.into_iter().zip(cur.into_iter().zip(*prev)) {
                    stages.add(cat, now.saturating_sub(before) as f64 / 1e9);
                }
                *prev = cur;
                let arrival = acc.arrival_us.load(Ordering::Relaxed);
                stages.add(B::Train, sh.cfg.train.as_secs_f64());
                stages.add(B::Barrier, end_us.saturating_sub(arrival) as f64 / 1e6);
                let iter_s = arrival.saturating_sub(self.iter_start_us) as f64 / 1e6;
                let iter_us = (iter_s * 1e6) as u64;
                ins.flight(|| FlightEvent::Stage {
                    iter,
                    node: 0,
                    gpu: c as u32,
                    iter_us,
                    stages,
                });
                lobster_metrics::GpuIterSample {
                    node: 0,
                    gpu: c as u32,
                    iter_s,
                    stages,
                }
            })
            .collect();
        self.iter_start_us = end_us;
        let Some(out) = ins.observe_iteration(iter, end_us, || samples) else {
            return;
        };
        ins.flight(|| FlightEvent::Iteration {
            iter,
            gap_us: (out.gap_s * 1e6) as u64,
            ewma_gap_us: (out.ewma_gap_s * 1e6) as u64,
        });
        // Telemetry frame for this tick: cache / retry / delivery counters as
        // deltas since the previous barrier, the measured gap and wall time
        // quantized to µs, and the live membership mask.
        let cum = [
            sh.cache.hit_count(),
            sh.cache.miss_count(),
            sh.evictions_m.value(),
            sh.rstore.stats().retries,
            sh.delivered.load(Ordering::Relaxed),
        ];
        let d: [u64; 5] = std::array::from_fn(|i| cum[i].saturating_sub(self.tele_prev[i]));
        self.tele_prev = cum;
        let (lw, pw) = sh.board.counts();
        ins.record_tick(lobster_metrics::TickScalars {
            tick: iter,
            gap_us: (out.gap_s * 1e6) as u64,
            iter_us: iter_wall.as_micros() as u64,
            local_hits: d[0],
            remote_hits: 0,
            misses: d[1],
            prefetched: 0,
            evictions: d[2],
            retries: d[3],
            delivered: d[4],
            preproc_workers: pw as u32,
            loader_workers: lw as u32,
            down_mask: sh.crash_plan.as_ref().map_or(0, |p| p.down_mask_at(iter)),
        });
    }

    /// The elastic tick for iteration `iter`: decide the preproc↔loader
    /// split from the deterministic model inputs, publish and log it.
    /// Measured stage times flow into the decision *record* only, so the
    /// simulators reproduce the flip sequence. Tick 0 records nothing.
    fn elastic_tick(&mut self, sh: &Shared, iter: u64) {
        let Some(ctl) = self.ctl.as_mut() else {
            return;
        };
        let (cfg, ins) = (&sh.cfg, &sh.ins);
        let obs = ElasticObservation::for_iteration(
            iter,
            self.sample_bytes,
            cfg.work_factor_at(iter),
            (cfg.consumers * cfg.batch_size) as u64,
            cfg.train.as_secs_f64(),
        );
        let d = ctl.tick(&obs).clone();
        let pool = sh.board.len() as u32;
        sh.preproc_g.set(d.preproc_after as i64);
        sh.loader_g.set((pool - d.preproc_after) as i64);
        if iter > 0 && !d.flipped.is_empty() && ins.is_enabled() {
            sh.decisions_m.inc();
            let ts = ins.now_us();
            ins.trace(|| {
                TraceEvent::instant("role_flip", "controller", ts)
                    .arg_u("iter", iter)
                    .arg_u("preproc_workers", d.preproc_after as u64)
                    .arg_u("flips", d.flipped.len() as u64)
            });
            ins.flight(|| FlightEvent::RoleFlip {
                tick: iter,
                loaders: pool - d.preproc_after,
                preprocs: d.preproc_after,
                flips: d.flipped.len() as u32,
            });
            ins.record_decision(DecisionRecord {
                ts_us: ts,
                source: DecisionSource::ElasticPool,
                node: 0,
                queue_loads: (0..cfg.consumers)
                    .map(|c| sh.accum[c].preproc_ns.load(Ordering::Relaxed) as f64 / 1e9)
                    .collect(),
                predicted_cost: vec![d.predicted_batch_secs],
                threads_before: vec![pool - d.preproc_before, d.preproc_before],
                threads_after: vec![pool - d.preproc_after, d.preproc_after],
                gap_s: Some(cfg.train.as_secs_f64() - d.predicted_batch_secs),
                evals: d.evals,
                converged: d.converged,
                anomalies_before: 0,
            });
        }
        publish_roles(ctl.roles(), &d.loader_queues, &sh.board, &sh.assignment);
        self.role_flips.push(d);
    }
}

/// The canonical integrity fingerprint of a full run: XOR of every
/// scheduled sample's canonical checksum (order-independent). Tests compare
/// the engine's delivered fingerprint against this — it depends only on the
/// schedule, so a fault-injected run must produce the same value as a
/// fault-free one.
pub fn expected_integrity(dataset: &Dataset, cfg: &EngineConfig) -> u64 {
    let spec = schedule_spec(dataset, cfg);
    let mut acc = 0u64;
    for epoch in 0..cfg.epochs {
        let sched = engine_schedule(spec, epoch, cfg);
        for &s in sched.all_accesses() {
            acc ^= canonical_checksum(s, dataset.size_of(s) as usize);
        }
    }
    acc
}

/// The exact epoch schedule the engine's feeder walks: the configured
/// access pattern applied to the engine's single-node spec. Public so
/// external checkers (conformance delivery, integrity) regenerate the same
/// batches the feeder sent.
pub fn engine_schedule(spec: ScheduleSpec, epoch: u64, cfg: &EngineConfig) -> EpochSchedule {
    generate_access(spec, epoch, PartitionScheme::GlobalShuffle, cfg.access)
}

/// The schedule the engine executes: one "node", one queue per consumer.
/// Public so external checkers can regenerate the exact expected batches.
pub fn schedule_spec(dataset: &Dataset, cfg: &EngineConfig) -> ScheduleSpec {
    ScheduleSpec {
        nodes: 1,
        gpus_per_node: cfg.consumers,
        batch_size: cfg.batch_size,
        dataset_len: dataset.len(),
        seed: cfg.seed,
    }
}

/// Run the engine to completion and report.
pub fn run(store: Arc<SyntheticStore>, cfg: EngineConfig) -> EngineReport {
    run_with(store, cfg, Instruments::disabled())
}

/// Run the engine with an observability bundle attached. Every pipeline
/// stage is instrumented — fetch spans (with storage tier), queue
/// enqueue/dequeue instants (with depth), preprocess spans, barrier-wait
/// spans, cache hit/miss/evict counters, fault/recovery instants, and one
/// [`DecisionRecord`] per elastic role flip. With
/// [`Instruments::disabled`] this is exactly [`run`].
pub fn run_with(store: Arc<SyntheticStore>, cfg: EngineConfig, ins: Instruments) -> EngineReport {
    let sh = Shared::new(store, cfg, ins);
    let (consumers, batch) = (sh.cfg.consumers, sh.cfg.batch_size);
    // Per-consumer request queues (the §4.2 multi-queue) and cooked-sample
    // channels. Cooked channels are unbounded so a preprocessing worker never
    // blocks on one consumer while others starve behind it (deadlock via the
    // barrier); the feeder's credit pacing bounds in-flight work instead.
    let (req_tx, req_rx): (Vec<_>, Vec<_>) = (0..consumers).map(|_| bounded(2 * batch)).unzip();
    let (cooked_tx, cooked_rx): (Vec<_>, Vec<_>) = (0..consumers).map(|_| unbounded()).unzip();
    let (raw_tx, raw_rx) = bounded::<Raw>(4 * batch * consumers);
    let mut ticker = Some(Ticker::new(&sh));

    let (logs, tickers): (_, Vec<_>) = std::thread::scope(|s| {
        let sh = &sh;
        s.spawn(move || Feeder { req_tx }.run(sh));
        for w in 0..sh.board.len() {
            let fetch = Fetch {
                req_rx: req_rx.clone(),
                raw_tx: Some(raw_tx.clone()),
            };
            let transform = Transform {
                raw_rx: raw_rx.clone(),
                cooked_tx: cooked_tx.clone(),
            };
            s.spawn(move || pool_worker(sh, w, fetch, transform));
        }
        // Threads hold the only channel ends now: each disconnects with its last user.
        drop((req_rx, raw_tx, raw_rx, cooked_tx));
        let handles: Vec<_> = cooked_rx
            .into_iter()
            .enumerate()
            .map(|(consumer, rx)| {
                let deliver = Deliver {
                    consumer,
                    rx,
                    stash: HashMap::new(),
                    have: Vec::with_capacity(batch),
                    log: Vec::with_capacity(sh.total_iters as usize),
                };
                let ticker = ticker.take();
                s.spawn(move || deliver.run(sh, ticker))
            })
            .collect();
        (handles.into_iter())
            .map(|h| h.join().expect("engine threads must not panic"))
            .unzip()
    });
    let ticker = tickers
        .into_iter()
        .flatten()
        .next()
        .expect("consumer 0 ticks");

    // Flight-dump at teardown: an aborted run or one scarred by contained
    // worker panics leaves its last-K event window on disk (when a flight
    // dir is configured) so the doctor can diagnose without a full trace.
    let aborted = sh.aborted.load(Ordering::Relaxed);
    let worker_panics = sh.worker_panics.load(Ordering::Relaxed);
    if aborted {
        let _ = sh.ins.flight_dump_to_disk("abort");
    } else if worker_panics > 0 {
        let _ = sh.ins.flight_dump_to_disk("worker_panic");
    }
    let stats = sh.rstore.stats();
    let anomalies = sh.ins.telemetry_anomalies();
    let slo_verdicts = sh.ins.evaluate_slos(&sh.cfg.slo);
    sh.ins.flush_telemetry();
    EngineReport {
        iterations: ticker.iteration_secs.len() as u64,
        iteration_secs: ticker.iteration_secs,
        hit_ratio: sh.cache.hit_ratio(),
        store_fetches: sh.store.fetch_count(),
        delivered: sh.delivered.load(Ordering::Relaxed),
        integrity: sh.integrity.load(Ordering::Relaxed),
        retries: stats.retries,
        corruptions_detected: stats.corruptions_detected,
        deadline_exceeded: stats.deadline_exceeded,
        worker_panics,
        aborted,
        delivered_samples: logs,
        role_flips: ticker.role_flips,
        membership: ticker.membership,
        anomalies,
        slo_verdicts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lobster_data::{Dataset, SizeDistribution};
    use lobster_storage::faults::FaultSpec;

    fn small_store(samples: usize) -> Arc<SyntheticStore> {
        let ds = Dataset::generate(
            "engine-test",
            samples,
            SizeDistribution::Constant { bytes: 2_000 },
            9,
        );
        Arc::new(SyntheticStore::new(ds, Duration::ZERO, 0.0))
    }

    fn fast_cfg() -> EngineConfig {
        EngineConfig {
            batch_size: 4,
            cache_bytes: 16 << 20,
            train: Duration::from_micros(200),
            seed: 7,
            ..EngineConfig::default()
        }
    }

    /// A 64-sample store that injects the faults of `spec`.
    fn faulty_store(spec: FaultSpec) -> Arc<SyntheticStore> {
        let ds = Dataset::generate(
            "engine-faults",
            64,
            SizeDistribution::Constant { bytes: 2_000 },
            9,
        );
        let plan = spec.compile().unwrap();
        Arc::new(SyntheticStore::with_faults(ds, Duration::ZERO, 0.0, plan))
    }

    #[test]
    fn publish_roles_expands_queue_counts_over_loaders_in_worker_order() {
        use Role::{Loader as L, Preproc as P};
        let board = RoleBoard::new(2, 3);
        let assignment: Vec<AtomicUsize> = (0..5).map(|_| AtomicUsize::new(9)).collect();
        publish_roles(&[L, P, L, L, P], &[2, 0, 1], &board, &assignment);
        let primary = |w: usize| assignment[w].load(Ordering::Relaxed);
        assert_eq!([primary(0), primary(2), primary(3)], [0, 0, 2]);
        let roles: Vec<u8> = (0..5).map(|w| board.role(w)).collect();
        assert_eq!(
            roles,
            [
                ROLE_LOADER,
                ROLE_PREPROC,
                ROLE_LOADER,
                ROLE_LOADER,
                ROLE_PREPROC
            ]
        );
        assert_eq!(
            [primary(1), primary(4)],
            [9, 9],
            "preproc slots keep their queue"
        );
        // Loaders beyond the counts' sum (1 + 0 + 1) fall back to `w % 3`.
        publish_roles(&[L, L, L, L], &[1, 0, 1], &board, &assignment);
        assert_eq!((0..4).map(primary).collect::<Vec<_>>(), [0, 2, 2, 0]);
    }

    #[test]
    fn engine_delivers_every_sample_with_integrity() {
        let store = small_store(64);
        let cfg = fast_cfg();
        let expected = expected_integrity(store.dataset(), &cfg);
        let report = run(Arc::clone(&store), cfg);
        // 64 samples / (4 × 2) = 8 iterations per epoch × 2 epochs.
        assert_eq!(report.iterations, 16);
        assert_eq!(report.delivered, 128);
        assert_eq!(
            report.integrity, expected,
            "payloads must survive the pipeline intact"
        );
        assert_eq!(report.iteration_secs.len(), 16);
        assert!(!report.aborted);
        assert_eq!(report.retries, 0);
        assert_eq!(report.worker_panics, 0);
    }

    #[test]
    fn warm_cache_eliminates_store_refetches() {
        let store = small_store(32);
        let mut cfg = fast_cfg();
        cfg.epochs = 3;
        // Cache far larger than the dataset: epoch 2+ must be all hits.
        let report = run(Arc::clone(&store), cfg);
        assert_eq!(report.store_fetches, 32, "each sample fetched exactly once");
        assert!(report.hit_ratio > 0.6, "hit ratio {}", report.hit_ratio);
    }

    #[test]
    fn single_consumer_single_worker_degenerate_case() {
        let store = small_store(16);
        let cfg = EngineConfig {
            consumers: 1,
            loader_threads: 1,
            preproc_threads: 1,
            epochs: 1,
            ..fast_cfg()
        };
        let report = run(store, cfg);
        assert_eq!(report.iterations, 4);
        assert_eq!(report.delivered, 16);
    }

    #[test]
    fn work_factor_step_switches_at_the_boundary() {
        let cfg = EngineConfig {
            work_factor: 1,
            work_factor_step: Some((8, 6)),
            ..EngineConfig::default()
        };
        assert_eq!(cfg.work_factor_at(0), 1);
        assert_eq!(cfg.work_factor_at(7), 1);
        assert_eq!(cfg.work_factor_at(8), 6);
        assert_eq!(cfg.work_factor_at(100), 6);
    }

    #[test]
    fn elastic_pool_delivers_every_sample_with_integrity() {
        let store = small_store(64);
        let cfg = EngineConfig {
            elastic: true,
            ..fast_cfg()
        };
        let expected = expected_integrity(store.dataset(), &cfg);
        let report = run(Arc::clone(&store), cfg);
        assert!(!report.aborted);
        assert_eq!(report.delivered, 128);
        assert_eq!(report.integrity, expected);
        // One decision per tick, and every decision conserves the pool:
        // loader assignments + preproc workers == N.
        assert_eq!(report.role_flips.len() as u64, report.iterations);
        for d in &report.role_flips {
            let loaders: u32 = d.loader_queues.iter().sum();
            assert_eq!(loaders + d.preproc_after, 4, "pool leak at tick {}", d.tick);
        }
    }

    #[test]
    fn elastic_pool_absorbs_a_work_factor_step() {
        // The §5 workload shift, live: preprocessing becomes 64× heavier
        // mid-run. The controller must steal loaders for preprocessing
        // without corrupting a single delivered sample.
        let store = small_store(64);
        let cfg = EngineConfig {
            elastic: true,
            work_factor_step: Some((8, 64)),
            ..fast_cfg()
        };
        let expected = expected_integrity(store.dataset(), &cfg);
        let report = run(Arc::clone(&store), cfg);
        assert!(!report.aborted);
        assert_eq!(report.integrity, expected);
        let first = report.role_flips.first().expect("tick 0 decision");
        let max_after = report
            .role_flips
            .iter()
            .map(|d| d.preproc_after)
            .max()
            .unwrap();
        assert!(
            max_after > first.preproc_after,
            "64× heavier preprocessing must grow the preproc share \
             (start {}, max {max_after})",
            first.preproc_after
        );
    }

    #[test]
    fn elastic_churn_flips_roles_every_tick() {
        let store = small_store(64);
        let cfg = EngineConfig {
            elastic: true,
            elastic_churn: true,
            ..fast_cfg()
        };
        let expected = expected_integrity(store.dataset(), &cfg);
        let report = run(Arc::clone(&store), cfg);
        assert!(!report.aborted);
        assert_eq!(report.integrity, expected);
        let churned = report
            .role_flips
            .iter()
            .filter(|d| !d.flipped.is_empty())
            .count();
        // Churned workers respect the dwell window, so with a single
        // preproc slot a swap is possible at most every `dwell` ticks.
        assert!(
            churned >= report.role_flips.len() / 4,
            "forced churn should flip on a steady cadence: {churned}/{}",
            report.role_flips.len()
        );
    }

    #[test]
    fn run_is_data_deterministic() {
        // Timings vary; delivered data must not.
        let cfg = fast_cfg();
        let r1 = run(small_store(48), cfg.clone());
        let r2 = run(small_store(48), cfg);
        assert_eq!(r1.integrity, r2.integrity);
        assert_eq!(r1.delivered, r2.delivered);
    }

    #[test]
    fn instrumented_run_feeds_the_analyzer() {
        let store = small_store(64);
        let ins = Instruments::enabled();
        let report = run_with(store, fast_cfg(), ins.clone());
        assert!(!report.aborted);
        let analysis = ins.analysis_report().expect("enabled bundle");
        assert_eq!(analysis.iterations, 16);
        assert_eq!(analysis.per_gpu.len(), 2);
        assert!(
            analysis.cluster.train_s > 0.0,
            "training time must be blamed"
        );
        let snap = ins.metrics_snapshot();
        assert!(snap.get("analysis.gap_us").is_some(), "gap gauge mirrored");
        assert!(snap.get("analysis.ewma_gap_us").is_some());
    }

    #[test]
    fn engine_heals_through_transients_and_corruption() {
        let store = faulty_store(FaultSpec {
            transient_rate: 0.10,
            corrupt_rate: 0.05,
            seed: 77,
            ..FaultSpec::default()
        });
        let cfg = fast_cfg();
        let expected = expected_integrity(store.dataset(), &cfg);
        let report = run(Arc::clone(&store), cfg);
        assert!(!report.aborted);
        assert_eq!(report.delivered, 128);
        assert_eq!(
            report.integrity, expected,
            "faults must be absorbed, never delivered"
        );
        assert!(report.retries > 0, "10% transients must trigger retries");
    }

    #[test]
    fn engine_contains_poisoned_workers() {
        let store = faulty_store(FaultSpec {
            poison_rate: 0.05,
            seed: 1234,
            ..FaultSpec::default()
        });
        let cfg = fast_cfg();
        let expected = expected_integrity(store.dataset(), &cfg);
        let report = run(Arc::clone(&store), cfg);
        assert!(!report.aborted, "poison faults must not abort the run");
        assert_eq!(report.integrity, expected);
        assert_eq!(report.worker_panics, store.injected().poisons);
        assert!(report.worker_panics > 0, "5% poison over 64+ fetches");
    }
}
