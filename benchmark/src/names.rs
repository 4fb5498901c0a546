//! Every metric the benchmark prints: name and unit. `BENCHMARK.json`
//! declares the same two lists; a unit test keeps them identical.

pub const WORKLOADS: [&str; 5] = [
    "engine_cached",
    "engine_miss",
    "engine_prep",
    "engine_pfs",
    "sim_fig7c",
];

/// Measured with tracing off (`--trace 0`), on every workload.
pub const END_TO_END: [(&str, &str); 6] = [
    ("samples_per_s", "1/s"),
    ("stall_frac", "frac"),
    ("cpu_us_per_sample", "us"),
    ("allocs_per_sample", "count"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Measured by the traced run (`--trace 1`); names are module names.
pub const PER_LAYER: [(&str, &str); 56] = [
    // Live engine, measured around `run_with`.
    ("runtime.engine.layers_us_per_sample", "us"),
    ("runtime.engine.glue_us_per_sample", "us"),
    ("runtime.engine.glue_frac", "frac"),
    ("runtime.engine.store_fetches_per_sample", "count"),
    ("runtime.engine.iter_p50_us", "us"),
    ("runtime.engine.iter_p99_us", "us"),
    ("runtime.engine.iter_count", "count"),
    ("runtime.engine.cores_busy", "count"),
    // Layer replay of the engine schedule, self time per call.
    ("runtime.cache.get_us", "us"),
    ("runtime.cache.insert_us", "us"),
    ("runtime.cache.evictions_per_insert", "count"),
    ("runtime.cache.hit_ratio", "frac"),
    ("runtime.store.fetch_us", "us"),
    ("runtime.store.checksum_us", "us"),
    ("runtime.resilient.fetch_us", "us"),
    ("runtime.resilient.verify_us", "us"),
    ("runtime.resilient.retries", "count"),
    ("runtime.transform.preprocess_us", "us"),
    ("runtime.transform.invert_us", "us"),
    ("runtime.transform.ns_per_byte_pass", "ns"),
    ("data.schedule.generate_ns_per_access", "ns"),
    ("bench.trace.overhead_frac", "frac"),
    // The same workload observed with `Instruments::enabled()`.
    ("metrics.instruments.overhead_frac", "frac"),
    ("metrics.instruments.cpu_us_per_sample", "us"),
    ("metrics.instruments.allocs_per_sample", "count"),
    ("metrics.instruments.rss_mb", "MB"),
    ("metrics.instruments.trace_ns", "ns"),
    ("metrics.instruments.flight_ns", "ns"),
    ("metrics.instruments.record_tick_ns", "ns"),
    ("metrics.instruments.disabled_call_ns", "ns"),
    // Cluster simulator, measured around `ClusterSim::run`.
    ("pipeline.cluster_sim.samples_per_s.pytorch", "1/s"),
    ("pipeline.cluster_sim.samples_per_s.dali", "1/s"),
    ("pipeline.cluster_sim.samples_per_s.nopfs", "1/s"),
    ("pipeline.cluster_sim.samples_per_s.lobster", "1/s"),
    ("pipeline.cluster_sim.evictions_per_access", "count"),
    ("pipeline.cluster_sim.decisions_per_iter", "count"),
    ("pipeline.cluster_sim.epoch_s.lobster", "s"),
    ("pipeline.cluster_sim.speedup_vs_pytorch", "ratio"),
    ("pipeline.cluster_sim.hit_ratio.lobster", "frac"),
    // Simulator layers, each public function timed on the fig7c shape.
    ("data.oracle.build_ns_per_access", "ns"),
    ("data.oracle.advance_ns", "ns"),
    ("data.oracle.future_of_ns", "ns"),
    ("cache.local.insert_ns", "ns"),
    ("cache.local.set_key_ns", "ns"),
    ("cache.local.evict_ns", "ns"),
    ("cache.directory.update_ns", "ns"),
    ("cache.directory.pick_remote_ns", "ns"),
    ("core.policy.plan_ns", "ns"),
    ("core.algorithm1.evals_per_solve", "count"),
    ("core.policy.evict_sweep_ns_per_sample", "ns"),
    ("core.model.load_time_ns", "ns"),
    ("core.elastic.tick_ns", "ns"),
    ("storage.tiers.read_secs_ns", "ns"),
    ("sim.scheduler.events_per_s", "1/s"),
    ("conformance.des_cluster.samples_per_s", "1/s"),
    ("conformance.des_cluster.events_per_s", "1/s"),
];

/// A named measurement; the unit comes from the tables above.
pub type Metric = (&'static str, f64);

/// Operations attempted and failed so far, as the result line reports them:
/// samples scheduled or accesses simulated, and those the correctness gate
/// found wrong.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or_else(|| panic!("metric {name} is not declared in names.rs"))
}
