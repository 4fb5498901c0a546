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
//! All store I/O goes through the self-healing [`ResilientStore`] path:
//! transient errors are retried with backoff + jitter, stalls are bounded
//! by per-fetch deadlines, corrupted payloads are detected by checksum and
//! refetched, and a loader worker that *panics* (an injected
//! poison fault) is contained — the panic is caught, counted, and the
//! request re-executed — so no fault class can wedge the consumer barrier.
//! Teardown is defensive end to end: channel disconnections unwind each
//! stage instead of panicking, and an [`AbortableBarrier`] plus the store's
//! cancel flag let the engine drain cleanly even if a consumer dies.

use crate::cache::{Lookup, ShardCache};
use crate::resilient::ResilientStore;
use crate::store::{canonical_checksum, sample_checksum, FetchError, SyntheticStore};
use crate::sync::{AbortableBarrier, RoleBoard, ROLE_LOADER, ROLE_PREPROC};
use crate::transform::{invert_in_place, preprocess};
use crossbeam::channel::{bounded, unbounded, Receiver, SendTimeoutError, Sender, TryRecvError};
use lobster_core::elastic::{
    ElasticController, ElasticDecision, ElasticObservation, ElasticParams,
};
use lobster_core::WorkEstimate;
use lobster_data::{
    generate_access, AccessPattern, Dataset, EpochSchedule, PartitionScheme, SampleId, ScheduleSpec,
};
use lobster_metrics::{
    DecisionRecord, DecisionSource, FlightEvent, FlightFault, FlightTier, Instruments, TraceEvent,
};
use lobster_storage::faults::{
    CrashSpec, FaultSpec, MembershipEvent, MembershipTransition, RetryPolicy,
};
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
    /// Iterations executed (across all epochs).
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
    /// True if the run was aborted (a consumer died) rather than draining
    /// the full schedule. All counts above still reflect work done.
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

/// Per-consumer stage-time accumulators feeding the online bottleneck
/// analyzer. Workers add monotonically from their own threads; consumer 0
/// snapshots deltas once per iteration after the barrier (the barrier
/// orders every pre-arrival write before the read).
struct StageAccum {
    /// Fetch nanoseconds served by the local cache, per consumer.
    fetch_local_ns: Vec<AtomicU64>,
    /// Fetch nanoseconds that reached the backing store ("PFS"), per
    /// consumer.
    fetch_store_ns: Vec<AtomicU64>,
    preproc_ns: Vec<AtomicU64>,
    queue_wait_ns: Vec<AtomicU64>,
    /// Barrier-arrival timestamp of each consumer this iteration, µs.
    arrival_us: Vec<AtomicU64>,
}

impl StageAccum {
    fn new(consumers: usize) -> StageAccum {
        let cells = |n: usize| (0..n).map(|_| AtomicU64::new(0)).collect();
        StageAccum {
            fetch_local_ns: cells(consumers),
            fetch_store_ns: cells(consumers),
            preproc_ns: cells(consumers),
            queue_wait_ns: cells(consumers),
            arrival_us: cells(consumers),
        }
    }
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

/// Publish a controller tick to the shared state the workers read: the
/// role board mirrors the controller's role vector, and each loader-role
/// worker gets its primary queue by expanding the per-queue counts of
/// `d.loader_queues` over the loaders in worker-index order.
fn apply_elastic_decision(
    ctl: &ElasticController,
    d: &ElasticDecision,
    board: &RoleBoard,
    assignment: &[AtomicUsize],
) {
    let queues = &d.loader_queues;
    let nq = queues.len().max(1);
    let mut q = 0usize;
    let mut used = 0u32;
    for (w, &role) in ctl.roles().iter().enumerate() {
        match role {
            lobster_core::Role::Loader => {
                board.set_role(w, ROLE_LOADER);
                while q < queues.len() && used >= queues[q] {
                    q += 1;
                    used = 0;
                }
                let qi = if q < queues.len() { q } else { w % nq };
                assignment[w].store(qi, Ordering::Relaxed);
                used += 1;
            }
            lobster_core::Role::Preproc => board.set_role(w, ROLE_PREPROC),
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
    let mut all_disconnected = true;
    for offset in 0..n {
        match req_rx[(primary + offset) % n].try_recv() {
            Ok(req) => return Ok(req),
            Err(TryRecvError::Empty) => all_disconnected = false,
            Err(TryRecvError::Disconnected) => {}
        }
    }
    Err(if all_disconnected {
        TryRecvError::Disconnected
    } else {
        TryRecvError::Empty
    })
}

/// One resilient fetch through the cache, with poisoned-worker
/// containment (the panic is caught, counted, and the request
/// re-executed). `None` means the store was cancelled and the calling
/// worker should unwind.
#[allow(clippy::too_many_arguments)]
fn fetch_one(
    req: &Req,
    w: usize,
    cache: &ShardCache,
    clock: &AtomicU64,
    rstore: &ResilientStore,
    worker_panics: &AtomicU64,
    panics_m: &lobster_metrics::Counter,
    fetches_m: &lobster_metrics::Counter,
    stage_accum: &StageAccum,
    ins: &Instruments,
) -> Option<Arc<Vec<u8>>> {
    let t0 = Instant::now();
    let ts_us = ins.now_us();
    if ins.is_enabled() {
        stage_accum.queue_wait_ns[req.consumer]
            .fetch_add(ts_us.saturating_sub(req.enq_us) * 1_000, Ordering::Relaxed);
    }
    let key = clock.fetch_add(1, Ordering::Relaxed);
    fetches_m.inc();
    let (bytes, tier) = match cache.get_or_claim(req.sample, key) {
        Lookup::Hit(b) => (b, "cache"),
        Lookup::Claim(claim) => {
            // Poisoned-worker containment: an injected poison fault panics
            // inside the fetch. The panic is caught here (no locks are held
            // across the fetch), logged, and the request re-executed — the
            // worker "restarts" instead of taking the whole scope down. The
            // claim is held throughout; returning on cancellation drops it,
            // which hands the fetch to any loader waiting on this id.
            let fetched = loop {
                let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    rstore.fetch(req.sample)
                }));
                match attempt {
                    Ok(Ok(bytes)) => break Arc::new(bytes),
                    Ok(Err(FetchError::Cancelled)) => return None,
                    Ok(Err(_)) => {
                        unreachable!("ResilientStore absorbs non-cancel errors")
                    }
                    Err(_) => {
                        worker_panics.fetch_add(1, Ordering::Relaxed);
                        panics_m.inc();
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
            (fetched, "store")
        }
    };
    ins.trace(|| {
        TraceEvent::span("fetch", "io", ts_us, ins.now_us() - ts_us)
            .tid(w as u32)
            .arg_s("tier", tier)
            .arg_u("sample", req.sample.0 as u64)
            .arg_u("bytes", bytes.len() as u64)
    });
    if ins.is_enabled() {
        let cell = if tier == "cache" {
            &stage_accum.fetch_local_ns[req.consumer]
        } else {
            &stage_accum.fetch_store_ns[req.consumer]
        };
        cell.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        let flight_tier = if tier == "cache" {
            FlightTier::Cache
        } else {
            FlightTier::Store
        };
        ins.flight_fetch_us(flight_tier, t0.elapsed().as_micros() as u64);
        ins.telemetry_fetch_us(flight_tier, t0.elapsed().as_micros() as u64);
    }
    Some(bytes)
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
    assert!(cfg.consumers > 0 && cfg.batch_size > 0);
    assert!(cfg.loader_threads > 0 && cfg.preproc_threads > 0);
    let spec = schedule_spec(store.dataset(), &cfg);
    let iters_per_epoch = spec.iterations_per_epoch();
    assert!(iters_per_epoch > 0, "dataset too small for one iteration");
    let total_iters = iters_per_epoch as u64 * cfg.epochs;

    let cache = Arc::new(ShardCache::with_instruments(cfg.cache_bytes, ins.clone()));
    let clock = Arc::new(AtomicU64::new(0));
    let fetches_m = ins.counter("engine.fetches");
    let delivered_m = ins.counter("engine.delivered");
    let decisions_m = ins.counter("engine.controller_decisions");
    let barrier_m = ins.counter("engine.barrier_waits");
    let panics_m = ins.counter("engine.worker_panics");

    // Tick-deterministic membership: compile the crash schedule once and
    // let consumer 0 apply each tick's down-mask at the iteration
    // boundary. Timing of *which* in-flight fetch observes the mask races
    // (benign: a PeerDown fails over to the PFS and still delivers
    // verified bytes); the membership event sequence itself is a pure
    // function of the schedule.
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
    let membership_log: Arc<parking_lot::Mutex<Vec<MembershipEvent>>> =
        Arc::new(parking_lot::Mutex::new(Vec::new()));

    // The self-healing fetch path every loader goes through.
    let cancel = store.cancel_handle();
    let rstore = Arc::new(ResilientStore::new(
        Arc::clone(&store),
        cfg.retry,
        ins.clone(),
    ));
    let worker_panics = Arc::new(AtomicU64::new(0));

    // Per-consumer request queues (the §4.2 multi-queue) and cooked-sample
    // delivery channels.
    let mut req_tx: Vec<Sender<Req>> = Vec::new();
    let mut req_rx: Vec<Receiver<Req>> = Vec::new();
    let mut cooked_tx: Vec<Sender<Cooked>> = Vec::new();
    let mut cooked_rx: Vec<Receiver<Cooked>> = Vec::new();
    for _ in 0..cfg.consumers {
        let (tx, rx) = bounded::<Req>(2 * cfg.batch_size);
        req_tx.push(tx);
        req_rx.push(rx);
        // Unbounded so a preprocessing worker can never block on one
        // consumer's channel while other consumers starve behind it
        // (deadlock via the barrier); total in-flight work is bounded by
        // the feeder's credit pacing, not by this channel.
        let (tx, rx) = unbounded::<Cooked>();
        cooked_tx.push(tx);
        cooked_rx.push(rx);
    }
    let (raw_tx, raw_rx) = bounded::<Raw>(4 * cfg.batch_size * cfg.consumers);

    // One worker pool: each worker loads or preprocesses as the role board
    // says. Without `elastic` the board keeps the configured split.
    let pool = cfg.loader_threads + cfg.preproc_threads;
    // Each pool slot's primary request queue when it loads; only the
    // elastic controller rewrites it.
    let assignment: Arc<Vec<AtomicUsize>> = Arc::new(
        (0..pool)
            .map(|w| AtomicUsize::new(w % cfg.consumers))
            .collect(),
    );
    // Pool state: the shared role table, the "feed is exhausted" latch that
    // lets loader-role workers hand their raw senders back, and the
    // per-tick elastic decision log surfaced in the report.
    let board = Arc::new(RoleBoard::new(cfg.loader_threads, cfg.preproc_threads));
    let feed_done = Arc::new(AtomicBool::new(false));
    let role_flip_log: Arc<parking_lot::Mutex<Vec<ElasticDecision>>> =
        Arc::new(parking_lot::Mutex::new(Vec::new()));
    let preproc_g = ins.gauge("engine.preproc_workers");
    let loader_g = ins.gauge("engine.loader_workers");
    let mean_sample_bytes = cfg.work_estimate.per_sample_bytes(store.dataset());
    // Per-sample preprocessing cost multipliers (unit on classic datasets),
    // shared with every transform site so the live engine spends the same
    // work the simulators account for.
    let sample_costs: Arc<Vec<u32>> = Arc::new(
        (0..store.dataset().len())
            .map(|i| store.dataset().cost_of(SampleId(i as u32)))
            .collect(),
    );
    let batch_samples = (cfg.consumers * cfg.batch_size) as u64;
    let mut elastic_ctl = if cfg.elastic {
        let mut params = ElasticParams::for_pool(pool as u32, cfg.consumers as u32);
        params.force_churn = cfg.elastic_churn;
        let mut ctl = ElasticController::new(params, cfg.preproc_threads as u32);
        // Tick 0 runs before any worker spawns: the pool starts on the
        // regression's split for the first iteration.
        let obs = ElasticObservation::for_iteration(
            0,
            mean_sample_bytes,
            cfg.work_factor_at(0),
            batch_samples,
            cfg.train.as_secs_f64(),
        );
        let d = ctl.tick(&obs).clone();
        apply_elastic_decision(&ctl, &d, &board, &assignment);
        preproc_g.set(d.preproc_after as i64);
        loader_g.set(pool as i64 - d.preproc_after as i64);
        role_flip_log.lock().push(d);
        Some(ctl)
    } else {
        None
    };
    let done = Arc::new(AtomicBool::new(false));
    let aborted = Arc::new(AtomicBool::new(false));
    let barrier = Arc::new(AbortableBarrier::new(cfg.consumers));
    let delivered = Arc::new(AtomicU64::new(0));
    let integrity = Arc::new(AtomicU64::new(0));
    // Credit pacing: at most `inflight_limit` samples per consumer between
    // the feeder and the consumer's consumption counter.
    let consumed: Arc<Vec<AtomicU64>> =
        Arc::new((0..cfg.consumers).map(|_| AtomicU64::new(0)).collect());
    let inflight_limit = (4 * cfg.batch_size) as u64;
    let iter_times: Arc<parking_lot::Mutex<Vec<f64>>> = Arc::new(parking_lot::Mutex::new(
        Vec::with_capacity(total_iters as usize),
    ));
    let stage_accum = Arc::new(StageAccum::new(cfg.consumers));
    // Per-consumer delivery log, written once per consumer at thread exit.
    let delivered_log: Arc<parking_lot::Mutex<Vec<Vec<Vec<u64>>>>> =
        Arc::new(parking_lot::Mutex::new(vec![Vec::new(); cfg.consumers]));

    crossbeam::scope(|scope| {
        // ---- Feeder: streams every request in schedule order. ----
        {
            let req_tx = req_tx.clone();
            let cfg = cfg.clone();
            let consumed = Arc::clone(&consumed);
            let done = Arc::clone(&done);
            let ins = ins.clone();
            scope.spawn(move |_| {
                let mut sent = vec![0u64; cfg.consumers];
                for epoch in 0..cfg.epochs {
                    let sched = engine_schedule(spec, epoch, &cfg);
                    for h in 0..iters_per_epoch {
                        let iter = epoch * iters_per_epoch as u64 + h as u64;
                        for consumer in 0..cfg.consumers {
                            for &sample in sched.batch(h, 0, consumer) {
                                // Credit pacing bounds total in-flight work
                                // per consumer regardless of queue sizes.
                                while sent[consumer] - consumed[consumer].load(Ordering::Relaxed)
                                    >= inflight_limit
                                {
                                    if done.load(Ordering::Relaxed) {
                                        // Aborted mid-run: nobody will ever
                                        // consume again; stop feeding.
                                        return;
                                    }
                                    std::thread::sleep(Duration::from_micros(50));
                                }
                                // A disconnected queue means the loaders are
                                // gone (engine unwinding): stop feeding
                                // instead of panicking mid-teardown.
                                if req_tx[consumer]
                                    .send(Req {
                                        iter,
                                        consumer,
                                        sample,
                                        enq_us: ins.now_us(),
                                    })
                                    .is_err()
                                {
                                    return;
                                }
                                sent[consumer] += 1;
                                ins.trace(|| {
                                    TraceEvent::instant("queue_enqueue", "queue", ins.now_us())
                                        .tid(consumer as u32)
                                        .arg_u("depth", req_tx[consumer].len() as u64)
                                        .arg_u("sample", sample.0 as u64)
                                });
                            }
                        }
                    }
                }
                // Senders drop here: loaders drain and exit.
            });
        }
        drop(req_tx); // feeder holds the only request senders now

        // ---- Worker pool: every worker can load or preprocess. ----
        // A worker reads its role off the shared board at the top of every
        // pass: loader-role workers pull requests and push raw bytes,
        // preproc-role workers drain the raw channel. Each worker holds its
        // own raw sender inside an `Option` and hands it back once the feed
        // is exhausted (`feed_done`), so the raw channel disconnects and the
        // pool drains without a join. A pass that finds no work naps.
        for w in 0..pool {
            let req_rx = req_rx.clone();
            let raw_rx = raw_rx.clone();
            let raw_tx = raw_tx.clone();
            let cooked_tx = cooked_tx.clone();
            let cache = Arc::clone(&cache);
            let clock = Arc::clone(&clock);
            let rstore = Arc::clone(&rstore);
            let assignment = Arc::clone(&assignment);
            let worker_panics = Arc::clone(&worker_panics);
            let stage_accum = Arc::clone(&stage_accum);
            let board = Arc::clone(&board);
            let feed_done = Arc::clone(&feed_done);
            let done = Arc::clone(&done);
            let cfg2 = cfg.clone();
            let sample_costs = Arc::clone(&sample_costs);
            let ins = ins.clone();
            let fetches_m = fetches_m.clone();
            let panics_m = panics_m.clone();
            scope.spawn(move |_| {
                let mut raw_tx = Some(raw_tx);
                loop {
                    if raw_tx.is_some() && feed_done.load(Ordering::Relaxed) {
                        raw_tx = None;
                    }
                    let worked = match raw_tx.as_ref() {
                        Some(tx) if board.role(w) == ROLE_LOADER => {
                            let primary = assignment[w].load(Ordering::Relaxed);
                            match next_request(&req_rx, primary) {
                                Ok(req) => {
                                    ins.trace(|| {
                                        TraceEvent::instant("queue_dequeue", "queue", ins.now_us())
                                            .tid(req.consumer as u32)
                                            .arg_u("depth", req_rx[req.consumer].len() as u64)
                                            .arg_u("worker", w as u64)
                                    });
                                    let Some(bytes) = fetch_one(
                                        &req,
                                        w,
                                        &cache,
                                        &clock,
                                        &rstore,
                                        &worker_panics,
                                        &panics_m,
                                        &fetches_m,
                                        &stage_accum,
                                        &ins,
                                    ) else {
                                        return; // store cancelled
                                    };
                                    // A bounded send could block forever if
                                    // the run aborts while the raw channel is
                                    // full (the other pool slots hold live
                                    // receivers, so it never disconnects);
                                    // time-boxed sends re-check the abort
                                    // latch instead.
                                    let mut item = Raw { req, bytes };
                                    loop {
                                        match tx.send_timeout(item, Duration::from_millis(5)) {
                                            Ok(()) => break,
                                            Err(SendTimeoutError::Timeout(it)) => {
                                                if done.load(Ordering::Relaxed) {
                                                    return;
                                                }
                                                item = it;
                                            }
                                            Err(SendTimeoutError::Disconnected(_)) => return,
                                        }
                                    }
                                    true
                                }
                                Err(TryRecvError::Empty) => false,
                                Err(TryRecvError::Disconnected) => {
                                    // Feed exhausted: latch it for the whole
                                    // pool and fall through to preproc mode.
                                    feed_done.store(true, Ordering::Relaxed);
                                    raw_tx = None;
                                    true
                                }
                            }
                        }
                        _ => match raw_rx.try_recv() {
                            Ok(raw) => {
                                let ts_us = ins.now_us();
                                let t0 = Instant::now();
                                let cooked = preprocess(
                                    &raw.bytes,
                                    cfg2.work_factor_at(raw.req.iter)
                                        .saturating_mul(sample_costs[raw.req.sample.index()]),
                                );
                                ins.trace(|| {
                                    TraceEvent::span(
                                        "preprocess",
                                        "compute",
                                        ts_us,
                                        ins.now_us() - ts_us,
                                    )
                                    .tid(w as u32)
                                    .arg_u("consumer", raw.req.consumer as u64)
                                    .arg_u("bytes", raw.bytes.len() as u64)
                                });
                                if ins.is_enabled() {
                                    stage_accum.preproc_ns[raw.req.consumer].fetch_add(
                                        t0.elapsed().as_nanos() as u64,
                                        Ordering::Relaxed,
                                    );
                                }
                                if cooked_tx[raw.req.consumer]
                                    .send(Cooked {
                                        iter: raw.req.iter,
                                        sample: raw.req.sample,
                                        bytes: cooked,
                                    })
                                    .is_err()
                                {
                                    return;
                                }
                                true
                            }
                            Err(TryRecvError::Empty) => false,
                            // All raw senders handed back and the channel
                            // drained: the pool's work is over.
                            Err(TryRecvError::Disconnected) => return,
                        },
                    };
                    if !worked {
                        std::thread::sleep(IDLE_NAP);
                    }
                }
            });
        }
        drop(raw_tx);
        drop(cooked_tx);
        drop(raw_rx);

        // ---- Consumers ("GPUs"). ----
        let remaining = Arc::new(AtomicUsize::new(cfg.consumers));
        for consumer in 0..cfg.consumers {
            let rx = cooked_rx[consumer].clone();
            let cfg2 = cfg.clone();
            let barrier = Arc::clone(&barrier);
            let delivered = Arc::clone(&delivered);
            let integrity = Arc::clone(&integrity);
            let iter_times = Arc::clone(&iter_times);
            let done = Arc::clone(&done);
            let aborted = Arc::clone(&aborted);
            let cancel = Arc::clone(&cancel);
            let remaining = Arc::clone(&remaining);
            let consumed = Arc::clone(&consumed);
            let stage_accum = Arc::clone(&stage_accum);
            let delivered_log = Arc::clone(&delivered_log);
            let ins = ins.clone();
            let delivered_m = delivered_m.clone();
            let barrier_m = barrier_m.clone();
            // Consumer 0 drives the elastic controller at tick boundaries.
            let mut ctl = if consumer == 0 {
                elastic_ctl.take()
            } else {
                None
            };
            let board = Arc::clone(&board);
            let assignment = Arc::clone(&assignment);
            let role_flip_log = Arc::clone(&role_flip_log);
            let membership_log = Arc::clone(&membership_log);
            let crash_plan = crash_plan.clone();
            let member_store = Arc::clone(&store);
            let preproc_g = preproc_g.clone();
            let loader_g = loader_g.clone();
            let decisions_m = decisions_m.clone();
            let cache = Arc::clone(&cache);
            let rstore = Arc::clone(&rstore);
            let sample_costs = Arc::clone(&sample_costs);
            let evictions_m = ins.counter("engine.cache_evictions");
            scope.spawn(move |_| {
                // Samples may arrive slightly out of iteration order when
                // several workers serve one queue; stash early arrivals.
                let mut stash: std::collections::HashMap<u64, Vec<Cooked>> =
                    std::collections::HashMap::new();
                let mut t0 = Instant::now();
                // Consumer 0's analyzer state: last cumulative stage totals
                // per consumer and the previous iteration boundary.
                let mut prev_stage = vec![[0u64; 4]; cfg2.consumers];
                let mut iter_start_us = 0u64;
                let mut my_deliveries: Vec<Vec<u64>> = Vec::with_capacity(total_iters as usize);
                // Telemetry: cumulative counter values at the previous
                // barrier — each frame carries per-tick deltas, not
                // running totals. [hits, misses, evictions, retries,
                // delivered].
                let mut tele_prev = [0u64; 5];
                // One batch buffer for the whole run.
                let mut have: Vec<Cooked> = Vec::with_capacity(cfg2.batch_size);
                'iters: for iter in 0..total_iters {
                    // Membership first: the tick's crashes/rejoins take
                    // effect before any of this iteration's arrivals are
                    // consumed, mirroring the simulators' tick-boundary
                    // ordering.
                    if consumer == 0 {
                        if let Some(plan) = crash_plan.as_ref() {
                            for e in plan.membership_events_at(iter) {
                                let crashed = e.transition == MembershipTransition::Crashed;
                                let ts = ins.now_us();
                                ins.trace(|| {
                                    TraceEvent::instant(
                                        if crashed { "node_crash" } else { "node_rejoin" },
                                        "membership",
                                        ts,
                                    )
                                    .arg_u("iter", iter)
                                    .arg_u("node", e.node as u64)
                                });
                                ins.flight(|| FlightEvent::MembershipChange {
                                    tick: iter,
                                    node: e.node,
                                    crashed,
                                });
                                membership_log.lock().push(e);
                            }
                            member_store.set_down_mask(plan.down_mask_at(iter));
                        }
                    }
                    if let Some(early) = stash.remove(&iter) {
                        have.extend(early);
                    }
                    while have.len() < cfg2.batch_size {
                        match rx.recv() {
                            Ok(c) if c.iter == iter => have.push(c),
                            Ok(c) => {
                                stash.entry(c.iter).or_default().push(c);
                            }
                            Err(_) => {
                                // The upstream pipeline died. Abort the run:
                                // wake the other consumers off the barrier,
                                // cancel in-flight simulated transfers, and
                                // drain instead of deadlocking.
                                aborted.store(true, Ordering::Relaxed);
                                done.store(true, Ordering::Relaxed);
                                cancel.store(true, Ordering::Relaxed);
                                barrier.abort();
                                break 'iters;
                            }
                        }
                    }
                    // End-to-end integrity: un-mix each delivered buffer in
                    // place and fingerprint it.
                    let mut acc = 0u64;
                    for c in &mut have {
                        invert_in_place(
                            &mut c.bytes,
                            cfg2.work_factor_at(iter)
                                .saturating_mul(sample_costs[c.sample.index()]),
                        );
                        acc ^= sample_checksum(&c.bytes);
                    }
                    let mut ids: Vec<u64> = have.iter().map(|c| c.sample.0 as u64).collect();
                    ids.sort_unstable();
                    my_deliveries.push(ids);
                    integrity.fetch_xor(acc, Ordering::Relaxed);
                    delivered.fetch_add(have.len() as u64, Ordering::Relaxed);
                    delivered_m.add(have.len() as u64);
                    consumed[consumer].fetch_add(have.len() as u64, Ordering::Relaxed);
                    have.clear();
                    // "Training".
                    std::thread::sleep(cfg2.train);
                    // Gradient-allreduce stand-in.
                    let wait_ts = ins.now_us();
                    if ins.is_enabled() {
                        // Published before the barrier, so every arrival is
                        // visible to consumer 0's post-barrier snapshot.
                        stage_accum.arrival_us[consumer].store(wait_ts, Ordering::Relaxed);
                    }
                    if barrier.wait().is_err() {
                        // Another consumer aborted the run.
                        break 'iters;
                    }
                    barrier_m.inc();
                    ins.trace(|| {
                        TraceEvent::span("barrier_wait", "sync", wait_ts, ins.now_us() - wait_ts)
                            .tid(consumer as u32)
                            .arg_u("iter", iter)
                    });
                    if consumer == 0 {
                        let iter_wall = t0.elapsed();
                        iter_times.lock().push(iter_wall.as_secs_f64());
                        t0 = Instant::now();
                        if ins.is_enabled() {
                            let end_us = ins.now_us();
                            let train_s = cfg2.train.as_secs_f64();
                            let samples: Vec<lobster_metrics::GpuIterSample> = (0..cfg2.consumers)
                                .map(|c| {
                                    use lobster_metrics::analysis::BlameCategory as B;
                                    let cur = [
                                        stage_accum.fetch_local_ns[c].load(Ordering::Relaxed),
                                        stage_accum.fetch_store_ns[c].load(Ordering::Relaxed),
                                        stage_accum.preproc_ns[c].load(Ordering::Relaxed),
                                        stage_accum.queue_wait_ns[c].load(Ordering::Relaxed),
                                    ];
                                    let mut stages = lobster_metrics::StageSample::default();
                                    for (cat, (now, before)) in
                                        [B::LocalFetch, B::PfsFetch, B::Preprocess, B::QueueWait]
                                            .into_iter()
                                            .zip(cur.into_iter().zip(prev_stage[c]))
                                    {
                                        stages.add(cat, now.saturating_sub(before) as f64 / 1e9);
                                    }
                                    prev_stage[c] = cur;
                                    let arrival = stage_accum.arrival_us[c].load(Ordering::Relaxed);
                                    stages.add(B::Train, train_s);
                                    stages.add(
                                        B::Barrier,
                                        end_us.saturating_sub(arrival) as f64 / 1e6,
                                    );
                                    lobster_metrics::GpuIterSample {
                                        node: 0,
                                        gpu: c as u32,
                                        iter_s: arrival.saturating_sub(iter_start_us) as f64 / 1e6,
                                        stages,
                                    }
                                })
                                .collect();
                            iter_start_us = end_us;
                            for s in &samples {
                                let (node, gpu, stages) = (s.node, s.gpu, s.stages);
                                let iter_us = (s.iter_s * 1e6) as u64;
                                ins.flight(|| FlightEvent::Stage {
                                    iter,
                                    node,
                                    gpu,
                                    iter_us,
                                    stages,
                                });
                            }
                            if let Some(out) = ins.observe_iteration(iter, end_us, || samples) {
                                ins.flight(|| FlightEvent::Iteration {
                                    iter,
                                    gap_us: (out.gap_s * 1e6) as u64,
                                    ewma_gap_us: (out.ewma_gap_s * 1e6) as u64,
                                });
                                // Telemetry frame for this tick: cache /
                                // retry / delivery counters as deltas since
                                // the previous barrier, the measured gap and
                                // wall time quantized to µs, and the live
                                // membership mask.
                                let cum = [
                                    cache.hit_count(),
                                    cache.miss_count(),
                                    evictions_m.value(),
                                    rstore.stats().retries,
                                    delivered.load(Ordering::Relaxed),
                                ];
                                let mut d = [0u64; 5];
                                for (i, c) in cum.into_iter().enumerate() {
                                    d[i] = c.saturating_sub(tele_prev[i]);
                                    tele_prev[i] = c;
                                }
                                let (lw, pw) = board.counts();
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
                                    down_mask: crash_plan
                                        .as_ref()
                                        .map_or(0, |p| p.down_mask_at(iter)),
                                });
                            }
                        }
                        // Elastic tick for the next iteration: decide the
                        // preproc↔loader split from the deterministic model
                        // inputs, publish it on the role board, and log the
                        // decision. Measured stage times flow into the
                        // decision *record* only — never into the decision
                        // itself — so the flip sequence is reproducible by
                        // the simulators.
                        if let Some(ctl) = ctl.as_mut() {
                            let next = iter + 1;
                            if next < total_iters {
                                let obs = ElasticObservation::for_iteration(
                                    next,
                                    mean_sample_bytes,
                                    cfg2.work_factor_at(next),
                                    batch_samples,
                                    cfg2.train.as_secs_f64(),
                                );
                                let d = ctl.tick(&obs);
                                let pool2 = cfg2.loader_threads + cfg2.preproc_threads;
                                preproc_g.set(d.preproc_after as i64);
                                loader_g.set(pool2 as i64 - d.preproc_after as i64);
                                if !d.flipped.is_empty() && ins.is_enabled() {
                                    decisions_m.inc();
                                    let ts = ins.now_us();
                                    ins.trace(|| {
                                        TraceEvent::instant("role_flip", "controller", ts)
                                            .arg_u("iter", next)
                                            .arg_u("preproc_workers", d.preproc_after as u64)
                                            .arg_u("flips", d.flipped.len() as u64)
                                    });
                                    ins.flight(|| FlightEvent::RoleFlip {
                                        tick: next,
                                        loaders: pool2 as u32 - d.preproc_after,
                                        preprocs: d.preproc_after,
                                        flips: d.flipped.len() as u32,
                                    });
                                    ins.record_decision(DecisionRecord {
                                        ts_us: ts,
                                        source: DecisionSource::ElasticPool,
                                        node: 0,
                                        queue_loads: (0..cfg2.consumers)
                                            .map(|c| {
                                                stage_accum.preproc_ns[c].load(Ordering::Relaxed)
                                                    as f64
                                                    / 1e9
                                            })
                                            .collect(),
                                        predicted_cost: vec![d.predicted_batch_secs],
                                        threads_before: vec![
                                            pool2 as u32 - d.preproc_before,
                                            d.preproc_before,
                                        ],
                                        threads_after: vec![
                                            pool2 as u32 - d.preproc_after,
                                            d.preproc_after,
                                        ],
                                        gap_s: Some(
                                            cfg2.train.as_secs_f64() - d.predicted_batch_secs,
                                        ),
                                        evals: d.evals,
                                        converged: d.converged,
                                        anomalies_before: 0,
                                    });
                                }
                                let d = d.clone();
                                apply_elastic_decision(ctl, &d, &board, &assignment);
                                role_flip_log.lock().push(d);
                            }
                        }
                    }
                }
                delivered_log.lock()[consumer] = my_deliveries;
                if remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                    done.store(true, Ordering::Relaxed);
                }
            });
        }
        drop(cooked_rx);
        drop(req_rx);
    })
    .expect("engine threads must not panic");

    // Flight-dump at teardown: an aborted run or one scarred by contained
    // worker panics leaves its last-K event window on disk (when a flight
    // dir is configured) so the doctor can diagnose without a full trace.
    if aborted.load(Ordering::Relaxed) {
        let _ = ins.flight_dump_to_disk("abort");
    } else if worker_panics.load(Ordering::Relaxed) > 0 {
        let _ = ins.flight_dump_to_disk("worker_panic");
    }

    let stats = rstore.stats();
    let anomalies = ins.telemetry_anomalies();
    let slo_verdicts = ins.evaluate_slos(&cfg.slo);
    ins.flush_telemetry();
    let iteration_secs = iter_times.lock().clone();
    let delivered_samples = delivered_log.lock().clone();
    let role_flips = role_flip_log.lock().clone();
    let membership = membership_log.lock().clone();
    EngineReport {
        iterations: total_iters,
        iteration_secs,
        hit_ratio: cache.hit_ratio(),
        store_fetches: store.fetch_count(),
        delivered: delivered.load(Ordering::Relaxed),
        integrity: integrity.load(Ordering::Relaxed),
        retries: stats.retries,
        corruptions_detected: stats.corruptions_detected,
        deadline_exceeded: stats.deadline_exceeded,
        worker_panics: worker_panics.load(Ordering::Relaxed),
        aborted: aborted.load(Ordering::Relaxed),
        delivered_samples,
        role_flips,
        membership,
        anomalies,
        slo_verdicts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lobster_data::{Dataset, SizeDistribution};
    use lobster_storage::faults::FaultSpec;

    fn small_store(samples: usize, latency_us: u64) -> Arc<SyntheticStore> {
        let ds = Dataset::generate(
            "engine-test",
            samples,
            SizeDistribution::Constant { bytes: 2_000 },
            9,
        );
        Arc::new(SyntheticStore::new(
            ds,
            Duration::from_micros(latency_us),
            0.0,
        ))
    }

    fn fast_cfg() -> EngineConfig {
        EngineConfig {
            consumers: 2,
            batch_size: 4,
            loader_threads: 2,
            preproc_threads: 2,
            cache_bytes: 16 << 20,
            work_factor: 1,
            train: Duration::from_micros(200),
            epochs: 2,
            seed: 7,
            retry: RetryPolicy::default(),
            ..EngineConfig::default()
        }
    }

    #[test]
    fn engine_delivers_every_sample_with_integrity() {
        let store = small_store(64, 0);
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
        let store = small_store(32, 0);
        let mut cfg = fast_cfg();
        cfg.epochs = 3;
        // Cache far larger than the dataset: epoch 2+ must be all hits.
        let report = run(Arc::clone(&store), cfg);
        assert_eq!(report.store_fetches, 32, "each sample fetched exactly once");
        assert!(report.hit_ratio > 0.6, "hit ratio {}", report.hit_ratio);
    }

    #[test]
    fn single_consumer_single_worker_degenerate_case() {
        let store = small_store(16, 0);
        let cfg = EngineConfig {
            consumers: 1,
            batch_size: 4,
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
        let store = small_store(64, 0);
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
        let store = small_store(64, 0);
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
        let store = small_store(64, 0);
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
        let r1 = run(small_store(48, 0), cfg.clone());
        let r2 = run(small_store(48, 0), cfg);
        assert_eq!(r1.integrity, r2.integrity);
        assert_eq!(r1.delivered, r2.delivered);
    }

    #[test]
    fn instrumented_run_feeds_the_analyzer() {
        let store = small_store(64, 0);
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
        let plan = FaultSpec {
            transient_rate: 0.10,
            corrupt_rate: 0.05,
            seed: 77,
            ..FaultSpec::default()
        }
        .compile()
        .unwrap();
        let ds = Dataset::generate(
            "engine-faults",
            64,
            SizeDistribution::Constant { bytes: 2_000 },
            9,
        );
        let store = Arc::new(SyntheticStore::with_faults(ds, Duration::ZERO, 0.0, plan));
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
        let plan = FaultSpec {
            poison_rate: 0.05,
            seed: 1234,
            ..FaultSpec::default()
        }
        .compile()
        .unwrap();
        let ds = Dataset::generate(
            "engine-poison",
            64,
            SizeDistribution::Constant { bytes: 2_000 },
            9,
        );
        let store = Arc::new(SyntheticStore::with_faults(ds, Duration::ZERO, 0.0, plan));
        let cfg = fast_cfg();
        let expected = expected_integrity(store.dataset(), &cfg);
        let report = run(Arc::clone(&store), cfg);
        assert!(!report.aborted, "poison faults must not abort the run");
        assert_eq!(report.integrity, expected);
        assert_eq!(report.worker_panics, store.injected().poisons);
        assert!(report.worker_panics > 0, "5% poison over 64+ fetches");
    }
}
