//! The traced run (`--trace 1`): per-layer metrics, measured from outside
//! through each layer's public functions. It never feeds the end-to-end
//! numbers, which come from an untraced run.
//!
//! Three parts. (1) *Layer replay*: the workload's own schedule walked
//! single-threaded through the layer calls in pipeline order, one span per
//! (layer, batch), every batch a root span its layer spans name as parent.
//! (2) *Observed run*: the same workload with `Instruments::enabled()`, and
//! the cost of single `Instruments` calls. (3) *Function probes*: public
//! functions the replay cannot isolate, timed on inputs taken from the
//! workload's schedule and shape.

use crate::engine::{self, Inputs, CONSUMERS};
use crate::names::{Metric, Tally};
use crate::sim::{self, Fig7c};
use crate::spans::{LayerTotal, Recorder, NO_PARENT};
use crate::stats::{median, metered, peak_rss_mb, percentile, process_cpu_secs, Cost};
use lobster_repro::cache::{Directory, EvictOrder, NodeCache};
use lobster_repro::conformance::{DesCluster, TIME_TOL_S};
use lobster_repro::core::{
    load_time_secs, policy_by_name, ElasticController, ElasticObservation, ElasticParams,
    LoaderPolicy, LobsterPolicy, PlanContext, ReuseAwareEvictor, ThreadAlloc, TierBreakdown,
};
use lobster_repro::data::{generate_access, NodeOracle, SampleId};
use lobster_repro::metrics::{FlightEvent, Instruments, TickScalars, TraceEvent};
use lobster_repro::pipeline::ExperimentConfig;
use lobster_repro::runtime::engine::engine_schedule;
use lobster_repro::runtime::{
    invert, preprocess, sample_checksum, schedule_spec, ResilientStore, ShardCache,
};
use lobster_repro::sim::{Scheduler, SimDuration, SimWorld, SplitMix64};
use lobster_repro::storage::Tier;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Epochs the engine replay walks: one cold and two warm with spans on,
/// then one warm with spans off, which is what the layers cost untraced and
/// what the tracing overhead is measured against.
const REPLAY_EPOCHS: u64 = 4;
const UNTRACED_EPOCH: u64 = REPLAY_EPOCHS - 1;
/// Spans a traced run may record, so that the recorder never grows while it
/// measures: the engine replay (at most 7 a batch, 35 k on `engine_cached`)
/// and the simulator replay (at most 8 an iteration), with room to spare.
pub const SPAN_CAPACITY: usize = 1 << 18;
/// Samples the store probe fetches (16 batches).
const STORE_PROBE_SAMPLES: usize = 512;
/// Times the simulator replay picks and evicts what is resident at its end.
const TAIL_PROBE_REPEATS: usize = 32;

/// Nanoseconds per call of `f`, one clock read around `n` calls.
fn ns_per_call(n: u64, mut f: impl FnMut(u64)) -> f64 {
    let t0 = Instant::now();
    for i in 0..n {
        f(i);
    }
    t0.elapsed().as_nanos() as f64 / n as f64
}

fn us_per(totals: &BTreeMap<&'static str, LayerTotal>, layer: &str) -> f64 {
    totals.get(layer).map_or(0.0, LayerTotal::us_per_call)
}

fn ns_per(totals: &BTreeMap<&'static str, LayerTotal>, layer: &str) -> f64 {
    us_per(totals, layer) * 1e3
}

// ---------------------------------------------------------------------
// Part 1a: replay of the engine's layers.
// ---------------------------------------------------------------------

/// What one replay of the engine layers saw, besides its spans.
#[derive(Default)]
struct EngineReplay {
    epoch_wall_s: Vec<f64>,
    /// Process CPU seconds of each replayed epoch (the replay is the only
    /// thing running, so this is the layers' CPU plus the loop around them).
    epoch_cpu_s: Vec<f64>,
    samples_per_epoch: u64,
    /// Cache lookups and hits after the cold epoch.
    warm_lookups: u64,
    warm_hits: u64,
    inserts: u64,
    evictions: u64,
    retries: u64,
    preprocessed_bytes: u64,
}

/// Walk `REPLAY_EPOCHS` epochs of the workload's schedule through
/// `ShardCache::get` → `ResilientStore::fetch` → `ShardCache::insert` →
/// `preprocess` → `invert` → `sample_checksum`, with the workload's cache
/// size and store, checking the fingerprint like the engine's consumers do.
fn replay_engine(inputs: &Inputs, rec: &mut Recorder, tally: &mut Tally) -> EngineReplay {
    let cfg = &inputs.cfg;
    let spec = schedule_spec(&inputs.dataset, cfg);
    let iters = spec.iterations_per_epoch();
    let store = inputs.shape.store(inputs.dataset.clone());
    let rstore = ResilientStore::new(Arc::clone(&store), cfg.retry, Instruments::disabled());
    let cache = ShardCache::new(cfg.cache_bytes);
    let wf = cfg.work_factor;
    let mut out = EngineReplay {
        samples_per_epoch: (iters * spec.samples_per_iteration()) as u64,
        ..EngineReplay::default()
    };
    let mut clock = 0u64;
    let (mut got, mut want) = (0u64, 0u64);
    for epoch in 0..REPLAY_EPOCHS {
        rec.set_enabled(epoch != UNTRACED_EPOCH);
        let (cpu0, t0) = (process_cpu_secs(), Instant::now());
        let epoch_span = rec.open("replay.epoch", NO_PARENT);
        let sched = rec.span(
            "data.schedule.generate",
            epoch_span,
            out.samples_per_epoch as u32,
            || engine_schedule(spec, epoch, cfg),
        );
        for h in 0..iters {
            for consumer in 0..CONSUMERS {
                let batch = sched.batch(h, 0, consumer);
                let n = batch.len() as u32;
                let root = rec.open("replay.batch", epoch_span);
                let keys: Vec<u64> = (0..batch.len() as u64).map(|i| clock + 1 + i).collect();
                clock += batch.len() as u64;
                let mut raw: Vec<Option<Arc<Vec<u8>>>> =
                    rec.span("runtime.cache.get", root, n, || {
                        batch
                            .iter()
                            .zip(&keys)
                            .map(|(&s, &k)| cache.get(s, k))
                            .collect()
                    });
                let missing: Vec<usize> = (0..raw.len()).filter(|&i| raw[i].is_none()).collect();
                if epoch > 0 {
                    out.warm_lookups += n as u64;
                    out.warm_hits += (raw.len() - missing.len()) as u64;
                }
                if !missing.is_empty() {
                    let m = missing.len() as u32;
                    let fetched: Vec<Arc<Vec<u8>>> =
                        rec.span("runtime.resilient.fetch", root, m, || {
                            missing
                                .iter()
                                .map(|&i| {
                                    Arc::new(rstore.fetch(batch[i]).expect("no fault is injected"))
                                })
                                .collect()
                        });
                    let resident = cache.len();
                    let admitted = rec.span("runtime.cache.insert", root, m, || {
                        missing
                            .iter()
                            .zip(&fetched)
                            .filter(|(&i, bytes)| {
                                cache.insert(batch[i], Arc::clone(bytes), keys[i])
                            })
                            .count()
                    });
                    out.inserts += m as u64;
                    out.evictions += (resident + admitted - cache.len()) as u64;
                    for (&i, bytes) in missing.iter().zip(fetched) {
                        raw[i] = Some(bytes);
                    }
                }
                let raw: Vec<Arc<Vec<u8>>> = raw.into_iter().flatten().collect();
                out.preprocessed_bytes += raw.iter().map(|b| b.len() as u64).sum::<u64>();
                let cooked: Vec<Vec<u8>> =
                    rec.span("runtime.transform.preprocess", root, n, || {
                        raw.iter().map(|b| preprocess(b, wf)).collect()
                    });
                let restored: Vec<Vec<u8>> = rec.span("runtime.transform.invert", root, n, || {
                    cooked.iter().map(|b| invert(b, wf)).collect()
                });
                got ^= rec.span("runtime.store.checksum", root, n, || {
                    restored.iter().fold(0, |acc, b| acc ^ sample_checksum(b))
                });
                want ^= batch
                    .iter()
                    .fold(0, |acc, s| acc ^ inputs.checksums[s.index()]);
                rec.close(root, 1);
            }
        }
        rec.close(epoch_span, 1);
        out.epoch_cpu_s.push(process_cpu_secs() - cpu0);
        out.epoch_wall_s.push(t0.elapsed().as_secs_f64());
    }
    rec.set_enabled(true);
    out.retries = rstore.stats().retries;
    tally.attempted += out.samples_per_epoch * REPLAY_EPOCHS;
    tally.failed += u64::from(got != want) + out.retries;
    out
}

/// `SyntheticStore::fetch` alone, on the first samples of the schedule:
/// what `ResilientStore::fetch` costs on top of it is verification.
fn probe_store(inputs: &Inputs, rec: &mut Recorder) {
    let spec = schedule_spec(&inputs.dataset, &inputs.cfg);
    let sched = engine_schedule(spec, 0, &inputs.cfg);
    let store = inputs.shape.store(inputs.dataset.clone());
    let ids = sched.all_accesses();
    for batch in ids[..STORE_PROBE_SAMPLES.min(ids.len())].chunks(engine::BATCH) {
        rec.span("runtime.store.fetch", NO_PARENT, batch.len() as u32, || {
            for &s in batch {
                black_box(store.fetch(s));
            }
        });
    }
}

/// The engine-side layer metrics: rounds of the live engine, the observed
/// round, the replay and the store probe.
pub fn engine_layers(
    inputs: &Inputs,
    seconds: f64,
    rec: &mut Recorder,
    tally: &mut Tally,
) -> Vec<Metric> {
    let measured = engine::measure(inputs, seconds, 1, tally);
    let cpu_us = measured.median_of(|r| r.cpu_us_per_sample);

    let rss_before = peak_rss_mb();
    let observed = inputs.round(Instruments::enabled(), tally);
    let rss_mb = peak_rss_mb() - rss_before;

    let replay = replay_engine(inputs, rec, tally);
    probe_store(inputs, rec);
    let totals = rec.layer_totals();

    // The engine's mix of cold and warm epochs, applied to the replay's
    // per-epoch CPU: what the layers alone cost per sample the engine ran.
    let untraced = UNTRACED_EPOCH as usize;
    let per_sample = |cpu_s: f64| cpu_s * 1e6 / replay.samples_per_epoch as f64;
    let cold = per_sample(replay.epoch_cpu_s[0]);
    let warm = per_sample(replay.epoch_cpu_s[untraced]);
    let measured_epochs = inputs.shape.epochs_per_round as f64;
    let layers_us = (cold + measured_epochs * warm) / (1.0 + measured_epochs);
    let traced_warm_s = median(&replay.epoch_wall_s[1..untraced]).expect("warm epochs replayed");

    let iter_us: Vec<f64> = measured
        .rounds
        .iter()
        .flat_map(|r| r.iter_secs.iter().map(|s| s * 1e6))
        .collect();
    let resilient_us = us_per(&totals, "runtime.resilient.fetch");
    let store_us = us_per(&totals, "runtime.store.fetch");
    let preprocess = totals["runtime.transform.preprocess"];
    vec![
        ("runtime.engine.layers_us_per_sample", layers_us),
        ("runtime.engine.glue_us_per_sample", cpu_us - layers_us),
        ("runtime.engine.glue_frac", (cpu_us - layers_us) / cpu_us),
        (
            "runtime.engine.store_fetches_per_sample",
            measured.median_of(|r| r.store_fetches_per_sample),
        ),
        (
            "runtime.engine.iter_p50_us",
            percentile(&iter_us, 50.0).expect("iterations"),
        ),
        (
            "runtime.engine.iter_p99_us",
            percentile(&iter_us, 99.0).expect("iterations"),
        ),
        ("runtime.engine.iter_count", iter_us.len() as f64),
        (
            "runtime.engine.cores_busy",
            measured.median_of(|r| r.cores_busy),
        ),
        ("runtime.cache.get_us", us_per(&totals, "runtime.cache.get")),
        (
            "runtime.cache.insert_us",
            us_per(&totals, "runtime.cache.insert"),
        ),
        (
            "runtime.cache.evictions_per_insert",
            replay.evictions as f64 / replay.inserts.max(1) as f64,
        ),
        (
            "runtime.cache.hit_ratio",
            replay.warm_hits as f64 / replay.warm_lookups as f64,
        ),
        ("runtime.store.fetch_us", store_us),
        (
            "runtime.store.checksum_us",
            us_per(&totals, "runtime.store.checksum"),
        ),
        ("runtime.resilient.fetch_us", resilient_us),
        ("runtime.resilient.verify_us", resilient_us - store_us),
        ("runtime.resilient.retries", replay.retries as f64),
        ("runtime.transform.preprocess_us", preprocess.us_per_call()),
        (
            "runtime.transform.invert_us",
            us_per(&totals, "runtime.transform.invert"),
        ),
        (
            "runtime.transform.ns_per_byte_pass",
            preprocess.self_us * 1e3
                / (replay.preprocessed_bytes as f64 * inputs.cfg.work_factor.max(1) as f64),
        ),
        (
            "data.schedule.generate_ns_per_access",
            ns_per(&totals, "data.schedule.generate"),
        ),
        (
            "bench.trace.overhead_frac",
            traced_warm_s / replay.epoch_wall_s[untraced] - 1.0,
        ),
        (
            "metrics.instruments.overhead_frac",
            1.0 - observed.samples_per_s / measured.median_of(|r| r.samples_per_s),
        ),
        (
            "metrics.instruments.cpu_us_per_sample",
            observed.cpu_us_per_sample - cpu_us,
        ),
        (
            "metrics.instruments.allocs_per_sample",
            observed.allocs_per_sample - measured.median_of(|r| r.allocs_per_sample),
        ),
        ("metrics.instruments.rss_mb", rss_mb),
    ]
}

// ---------------------------------------------------------------------
// Part 2: what single `Instruments` calls cost.
// ---------------------------------------------------------------------

pub fn instrument_probes() -> Vec<Metric> {
    // Below one trace shard's capacity (64 Ki events), so that recording is
    // timed and not dropping.
    const N: u64 = 50_000;
    let trace = |ins: &Instruments, i: u64| ins.trace(|| TraceEvent::instant("probe", "bench", i));
    let flight = |ins: &Instruments, i: u64| {
        ins.flight(|| FlightEvent::Retry {
            sample: i,
            round: 0,
        })
    };
    let tick = |ins: &Instruments, i: u64| {
        black_box(ins.record_tick(TickScalars {
            tick: i,
            iter_us: 1_000 + i % 7,
            delivered: 64,
            ..TickScalars::default()
        }));
    };
    let on = Instruments::enabled();
    let off = Instruments::disabled();
    let disabled_ns = (ns_per_call(N, |i| trace(&off, i))
        + ns_per_call(N, |i| flight(&off, i))
        + ns_per_call(N, |i| tick(&off, i)))
        / 3.0;
    vec![
        (
            "metrics.instruments.trace_ns",
            ns_per_call(N, |i| trace(&on, i)),
        ),
        (
            "metrics.instruments.flight_ns",
            ns_per_call(N, |i| flight(&on, i)),
        ),
        (
            "metrics.instruments.record_tick_ns",
            ns_per_call(N, |i| tick(&on, i)),
        ),
        ("metrics.instruments.disabled_call_ns", disabled_ns),
    ]
}

// ---------------------------------------------------------------------
// Part 1b: replay of the simulator's layers on node 0.
// ---------------------------------------------------------------------

/// Walk node 0's first two epochs through the policy, the oracle, the node
/// cache, the directory and the §4.4 sweep in the executor's order: plan on
/// the batch's tier split, key lookup, touch or insert, directory update,
/// oracle advance, sweep. The other nodes' holdings are pre-registered so
/// `held_elsewhere` answers as in a run. Returns the model evaluations per
/// Algorithm 1 solve that `LobsterPolicy::plan` spent.
fn replay_sim(cfg: &ExperimentConfig, rec: &mut Recorder) -> f64 {
    let spec = cfg.schedule_spec();
    let iters = cfg.iterations_per_epoch();
    let epochs: Vec<_> = (0..3)
        .map(|e| generate_access(spec, e, cfg.partition, cfg.access))
        .collect();
    let mut directory = Directory::new(spec.nodes);
    for node in 1..spec.nodes {
        for h in 0..iters {
            for &s in epochs[0].node_iteration(h, node) {
                directory.add(s, node);
            }
        }
    }
    let mut cache = NodeCache::new(cfg.cluster.cache_bytes, EvictOrder::SmallestKeyFirst);
    let per_iter = (spec.gpus_per_node * spec.batch_size) as u32;
    let mut policy = LobsterPolicy::full();
    let governor = cfg.calibrated_governor();
    for epoch in 0..2usize {
        let base = (epoch * iters) as u64;
        let mut oracle = rec.span(
            "data.oracle.build",
            NO_PARENT,
            2 * iters as u32 * per_iter,
            || NodeOracle::build(0, &[&epochs[epoch], &epochs[epoch + 1]], base),
        );
        for h in 0..iters {
            let batch = epochs[epoch].node_iteration(h, 0);
            let root = rec.open("replay.iteration", NO_PARENT);
            let splits: Vec<TierBreakdown> = (0..spec.gpus_per_node)
                .map(|gpu| {
                    let mut split = TierBreakdown::default();
                    for &s in epochs[epoch].batch(h, 0, gpu) {
                        let tier = if cache.contains(s) {
                            Tier::LocalCache
                        } else if directory.held_elsewhere(s, 0) {
                            Tier::RemoteCache
                        } else {
                            Tier::Pfs
                        };
                        split.add(tier, cfg.dataset.size_of(s));
                    }
                    split
                })
                .collect();
            let ctx = PlanContext {
                node: 0,
                iter_in_epoch: h,
                iters_per_epoch: iters,
                t_train_s: cfg.model.t_train_s,
                storage: &cfg.storage,
                splits: &splits,
                total_threads: cfg.cluster.pipeline_threads,
                reading_nodes: spec.nodes,
                batch_samples: spec.batch_size,
                mean_sample_bytes: cfg.dataset.mean_sample_bytes() as u64,
                governor: &governor,
            };
            rec.span("core.policy.plan", root, 1, || black_box(policy.plan(&ctx)));
            let keys: Vec<u64> = rec.span("data.oracle.future_of", root, per_iter, || {
                batch
                    .iter()
                    .map(|&s| {
                        ReuseAwareEvictor::priority_key(
                            oracle.future_of(s).map(|f| f.next_iteration),
                        )
                    })
                    .collect()
            });
            let (hits, misses): (Vec<usize>, Vec<usize>) =
                (0..batch.len()).partition(|&i| cache.contains(batch[i]));
            // The cold epoch has no hits; an empty span would add its own
            // cost to a layer that was not called.
            if !hits.is_empty() {
                rec.span("cache.local.set_key", root, hits.len() as u32, || {
                    for &i in &hits {
                        cache.set_key(batch[i], keys[i]);
                    }
                });
            }
            let outcomes: Vec<_> =
                rec.span("cache.local.insert", root, misses.len() as u32, || {
                    misses
                        .iter()
                        .map(|&i| {
                            (
                                batch[i],
                                cache.insert(batch[i], cfg.dataset.size_of(batch[i]), keys[i]),
                            )
                        })
                        .collect()
                });
            let updates: usize = outcomes.iter().map(|(_, o)| 1 + o.evicted.len()).sum();
            rec.span("cache.directory.update", root, updates as u32, || {
                for (s, outcome) in &outcomes {
                    if outcome.inserted {
                        directory.add(*s, 0);
                    }
                    for &victim in &outcome.evicted {
                        directory.remove(victim, 0);
                    }
                }
            });
            rec.span("data.oracle.advance", root, 1, || oracle.advance());
            rec.span("core.policy.evict_sweep", root, per_iter, || {
                black_box(ReuseAwareEvictor.after_iteration(
                    &mut cache,
                    &mut directory,
                    &oracle,
                    0,
                    batch,
                    h,
                    iters,
                    base + h as u64,
                ));
            });
            rec.close(root, 1);
        }
    }
    // What is resident at the end: picked and evicted, then put back so
    // that the next repetition finds the same residents; one pass over a few
    // hundred samples gave numbers that moved by 25 % between runs.
    let resident: Vec<(SampleId, u64)> = cache.iter_victim_order().collect();
    for _ in 0..TAIL_PROBE_REPEATS {
        for chunk in resident.chunks(per_iter as usize) {
            let calls = chunk.len() as u32;
            rec.span("cache.directory.pick_remote", NO_PARENT, calls, || {
                for &(s, _) in chunk {
                    black_box(directory.pick_remote(s, 0));
                }
            });
            rec.span("cache.local.evict", NO_PARENT, calls, || {
                for &(s, _) in chunk {
                    black_box(cache.evict(s));
                }
            });
        }
        for &(s, key) in &resident {
            cache.insert(s, cfg.dataset.size_of(s), key);
        }
    }
    let decisions = policy.drain_decisions();
    let evals: u32 = decisions.iter().map(|d| d.evals).sum();
    evals as f64 / decisions.len().max(1) as f64
}

// ---------------------------------------------------------------------
// Part 3: function probes on the simulator's shape.
// ---------------------------------------------------------------------

fn probe_model(cfg: &ExperimentConfig) -> Vec<Metric> {
    let mean = cfg.dataset.mean_sample_bytes();
    let mut split = TierBreakdown::default();
    for (tier, n) in [
        (Tier::LocalCache, 16),
        (Tier::RemoteCache, 8),
        (Tier::Pfs, 8),
    ] {
        for _ in 0..n {
            split.add(tier, mean as u64);
        }
    }
    let load_time_ns = ns_per_call(200_000, |i| {
        let threads = ThreadAlloc::uniform(1 + (i % 8) as u32);
        black_box(load_time_secs(
            &cfg.storage,
            &split,
            threads,
            cfg.cluster.nodes,
        ));
    });
    let read_secs_ns = ns_per_call(200_000, |i| {
        black_box(
            cfg.storage
                .read_secs(Tier::Pfs, mean, 1, 1 + (i % 8) as u32, cfg.cluster.nodes),
        );
    });
    let gpus = cfg.cluster.gpus_per_node as u32;
    let params = ElasticParams::for_pool(cfg.cluster.pipeline_threads, gpus);
    let mut controller = ElasticController::new(params, cfg.cluster.pipeline_threads / 2);
    let batch = (cfg.cluster.gpus_per_node * cfg.cluster.batch_size) as u64;
    let tick_ns = ns_per_call(20_000, |i| {
        // The work factor steps every 64 ticks, so the controller re-fits
        // and flips roles instead of idling on its memoized plan.
        let wf = 1 + (i / 64 % 4) as u32;
        let obs = ElasticObservation::for_iteration(i, mean, wf, batch, cfg.model.t_train_s);
        black_box(controller.tick(&obs).preproc_after);
    });
    vec![
        ("core.model.load_time_ns", load_time_ns),
        ("core.elastic.tick_ns", tick_ns),
        ("storage.tiers.read_secs_ns", read_secs_ns),
    ]
}

/// The event kernel alone: 1 024 events in flight, each handler scheduling
/// one follow-up at a pseudo-random delay, one million events in all.
fn probe_scheduler() -> f64 {
    struct Churn {
        left: u64,
        rng: SplitMix64,
    }
    impl SimWorld for Churn {
        type Event = ();
        fn handle(&mut self, _: (), sched: &mut Scheduler<()>) {
            if self.left > 0 {
                self.left -= 1;
                sched.after(
                    SimDuration::from_nanos(1 + self.rng.next_u64() % 1_000_000),
                    (),
                );
            }
        }
    }
    let mut world = Churn {
        left: 1_000_000,
        rng: SplitMix64::new(7),
    };
    let mut sched = Scheduler::new();
    for i in 0..1024 {
        sched.after(SimDuration::from_nanos(i), ());
    }
    let t0 = Instant::now();
    let stats = lobster_repro::sim::run(&mut world, &mut sched, None, u64::MAX);
    stats.events as f64 / t0.elapsed().as_secs_f64()
}

/// `DesCluster` against `ClusterSim` on the same shape at a quarter of the
/// samples, lobster policy: its speed, and agreement on the simulated time.
fn probe_des(fig: &Fig7c, tally: &mut Tally) -> Vec<Metric> {
    let quarter = Fig7c {
        scale: fig.scale * 4,
        ..*fig
    };
    let dataset = quarter.dataset();
    let accesses = quarter.accesses_per_epoch(&dataset) * sim::EPOCHS;
    let lobster = || policy_by_name("lobster").expect("lobster is registered");
    let des = DesCluster::new(quarter.config(dataset.clone()), lobster());
    let (run, cost) = metered(|| des.run());
    let (reference, _) = quarter.sim(dataset, "lobster").run();
    tally.attempted += accesses;
    tally.failed += u64::from((run.total_wall_s - reference.total_wall_s).abs() > TIME_TOL_S);
    vec![
        (
            "conformance.des_cluster.samples_per_s",
            accesses as f64 / cost.wall_s,
        ),
        (
            "conformance.des_cluster.events_per_s",
            run.events as f64 / cost.wall_s,
        ),
    ]
}

/// The simulator-side layer metrics: `ClusterSim` runs per policy, the
/// observed lobster run, the node-0 replay and the function probes.
pub fn sim_layers(fig: &Fig7c, seconds: f64, rec: &mut Recorder, tally: &mut Tally) -> Vec<Metric> {
    let measured = fig.measure(seconds, 1, tally);
    let per_policy = |policy: &str, f: &dyn Fn(&Cost) -> f64| {
        let values: Vec<f64> = measured
            .passes
            .iter()
            .map(|p| f(&p.report(policy).1))
            .collect();
        median(&values).expect("at least one pass")
    };
    let accesses = measured.passes[0].accesses_per_run as f64;
    let throughput = |policy: &str| per_policy(policy, &|c| accesses / c.wall_s);
    let lobster = &measured.passes[0].report("lobster").0;
    let pytorch = &measured.passes[0].report("pytorch").0;
    let mut metrics: Vec<Metric> = vec![
        (
            "pipeline.cluster_sim.samples_per_s.pytorch",
            throughput("pytorch"),
        ),
        (
            "pipeline.cluster_sim.samples_per_s.dali",
            throughput("dali"),
        ),
        (
            "pipeline.cluster_sim.samples_per_s.nopfs",
            throughput("nopfs"),
        ),
        (
            "pipeline.cluster_sim.samples_per_s.lobster",
            throughput("lobster"),
        ),
        (
            "pipeline.cluster_sim.epoch_s.lobster",
            lobster.mean_epoch_s(),
        ),
        (
            "pipeline.cluster_sim.speedup_vs_pytorch",
            pytorch.mean_epoch_s() / lobster.mean_epoch_s(),
        ),
        (
            "pipeline.cluster_sim.hit_ratio.lobster",
            lobster.mean_hit_ratio(),
        ),
    ];

    // Operation counts of the lobster run, from the observing executor.
    let dataset = fig.dataset();
    let (_, observables) = fig.sim(dataset.clone(), "lobster").run_observed();
    let iterations = observables.iterations.len() as f64;
    let evictions: usize = observables
        .iterations
        .iter()
        .map(|i| i.evictions.len())
        .sum();
    let decisions: usize = observables
        .iterations
        .iter()
        .map(|i| i.decisions.len())
        .sum();
    metrics.extend([
        (
            "pipeline.cluster_sim.evictions_per_access",
            evictions as f64 / observables.demand_accesses() as f64,
        ),
        (
            "pipeline.cluster_sim.decisions_per_iter",
            decisions as f64 / iterations,
        ),
    ]);
    tally.attempted += observables.demand_accesses();
    tally.failed += (accesses as u64).abs_diff(observables.demand_accesses());
    drop(observables);

    // The same lobster run with instruments on.
    let rss_before = peak_rss_mb();
    let observed = fig
        .sim(dataset.clone(), "lobster")
        .with_instruments(Instruments::enabled());
    let (_, on) = metered(|| observed.run());
    let rss_mb = peak_rss_mb() - rss_before;
    metrics.extend([
        (
            "metrics.instruments.overhead_frac",
            1.0 - per_policy("lobster", &|c| c.wall_s) / on.wall_s,
        ),
        (
            "metrics.instruments.cpu_us_per_sample",
            (on.cpu_s - per_policy("lobster", &|c| c.cpu_s)) * 1e6 / accesses,
        ),
        (
            "metrics.instruments.allocs_per_sample",
            (on.allocs as f64 - per_policy("lobster", &|c| c.allocs as f64)) / accesses,
        ),
        ("metrics.instruments.rss_mb", rss_mb),
    ]);

    let cfg = fig.config(dataset);
    let evals_per_solve = replay_sim(&cfg, rec);
    let totals = rec.layer_totals();
    metrics.extend([
        (
            "data.oracle.build_ns_per_access",
            ns_per(&totals, "data.oracle.build"),
        ),
        (
            "data.oracle.advance_ns",
            ns_per(&totals, "data.oracle.advance"),
        ),
        (
            "data.oracle.future_of_ns",
            ns_per(&totals, "data.oracle.future_of"),
        ),
        (
            "cache.local.insert_ns",
            ns_per(&totals, "cache.local.insert"),
        ),
        (
            "cache.local.set_key_ns",
            ns_per(&totals, "cache.local.set_key"),
        ),
        ("cache.local.evict_ns", ns_per(&totals, "cache.local.evict")),
        (
            "cache.directory.update_ns",
            ns_per(&totals, "cache.directory.update"),
        ),
        (
            "cache.directory.pick_remote_ns",
            ns_per(&totals, "cache.directory.pick_remote"),
        ),
        ("core.policy.plan_ns", ns_per(&totals, "core.policy.plan")),
        ("core.algorithm1.evals_per_solve", evals_per_solve),
        (
            "core.policy.evict_sweep_ns_per_sample",
            ns_per(&totals, "core.policy.evict_sweep"),
        ),
    ]);
    metrics.extend(probe_model(&cfg));
    metrics.push(("sim.scheduler.events_per_s", probe_scheduler()));
    metrics.extend(probe_des(fig, tally));
    metrics
}
