//! Extension experiments beyond the paper (DESIGN.md §8):
//!
//! 1. **Slow-node fault injection** — one of four nodes reads I/O at half
//!    speed; how much of each loader's throughput survives?
//! 2. **KV-partitioned distributed cache** — §2 mentions KV-stores as an
//!    alternative distributed-cache organization; compare hash-owner
//!    placement against the paper's consume-side replication.
//! 3. **MinIO never-evict baseline** — the related-work comparator of §6.
//! 4. **Partition schemes** — global shuffle (the paper's setting) vs
//!    node-local shard shuffling: local shuffling collapses reuse distances
//!    to one epoch and transforms cache behaviour.
//! 5. **Dynamic-straggler fault matrix** — time-varying slowdown profiles
//!    (step, flap, ramp) against pytorch/nopfs/lobster: an adaptive loader
//!    should absorb a *dynamic* straggler at least as well as the static
//!    baseline absorbs a *permanent* one.
//! 6. **Live-engine self-healing** — the real multi-threaded engine under
//!    an injected fault schedule (`--faults` overrides the default mix):
//!    transient errors, corruption, stalls, and a mid-run slowdown (plus any
//!    `crash@` terms), with delivered-data integrity verified against the
//!    fault-free fingerprint.

use lobster_bench::{
    faults_from_args, paper_config, params_from_args, run_policy, BenchParams, DatasetKind,
};
use lobster_core::models::resnet50;
use lobster_core::policy_by_name;
use lobster_metrics::{fmt_pct, fmt_secs, fmt_speedup, Instruments, ResultSink, Table};
use lobster_pipeline::ExperimentConfig;
use lobster_runtime::{expected_integrity, run_with, EngineConfig, SyntheticStore};
use lobster_storage::{FaultSpec, SlowdownProfile};
use serde::Serialize;
use std::sync::Arc;
use std::time::Duration;

#[derive(Serialize)]
struct ExtResult {
    params: BenchParams,
    /// policy -> (nominal epoch_s, slow-node epoch_s, degradation)
    slow_node: Vec<(String, f64, f64, f64)>,
    /// policy -> (replicated epoch_s/hits, kv epoch_s/hits)
    kv: Vec<(String, f64, f64, f64, f64)>,
    /// minio vs pytorch vs lobster hit ratios at two cache sizes
    minio: Vec<(String, u32, f64, f64)>,
    /// profile -> policy -> (nominal epoch_s, degraded epoch_s, factor)
    fault_matrix: Vec<(String, String, f64, f64, f64)>,
    /// lobster's worst dynamic-straggler factor vs pytorch's static factor
    /// (the robustness headline: the first must not exceed the second).
    lobster_dynamic_worst: f64,
    pytorch_static_factor: f64,
    /// Live-engine self-healing run.
    engine: EngineFaultSummary,
}

#[derive(Serialize)]
struct EngineFaultSummary {
    spec: FaultSpec,
    delivered: u64,
    retries: u64,
    corruptions_detected: u64,
    deadline_exceeded: u64,
    worker_panics: u64,
    integrity_ok: bool,
}

fn main() {
    let params = params_from_args(BenchParams {
        scale: 64,
        epochs: 4,
        seed: 42,
    });
    println!(
        "Extensions — robustness & cache topology (scale 1/{})\n",
        params.scale
    );
    let mut result = ExtResult {
        params,
        slow_node: vec![],
        kv: vec![],
        minio: vec![],
        fault_matrix: vec![],
        lobster_dynamic_worst: 0.0,
        pytorch_static_factor: 0.0,
        engine: EngineFaultSummary {
            spec: FaultSpec::default(),
            delivered: 0,
            retries: 0,
            corruptions_detected: 0,
            deadline_exceeded: 0,
            worker_panics: 0,
            integrity_ok: false,
        },
    };

    // ---- 1. Slow node. ----
    println!("-- slow node: node 2 of 4 at half I/O speed, ImageNet-22K --");
    let mut t = Table::new(["loader", "nominal", "degraded", "slowdown"]);
    let mut nominals: Vec<(String, f64)> = vec![];
    for name in ["pytorch", "nopfs", "lobster"] {
        let nominal = run_policy(
            paper_config(DatasetKind::ImageNet22k, 4, resnet50(), params),
            policy_by_name(name).unwrap(),
        )
        .mean_epoch_s();
        nominals.push((name.to_string(), nominal));
        let mut cfg = paper_config(DatasetKind::ImageNet22k, 4, resnet50(), params);
        cfg.node_slowdown = SlowdownProfile::constants(&[1.0, 1.0, 2.0, 1.0]);
        let degraded = run_policy(cfg, policy_by_name(name).unwrap()).mean_epoch_s();
        let factor = degraded / nominal;
        t.row([
            name.to_string(),
            fmt_secs(nominal),
            fmt_secs(degraded),
            fmt_speedup(factor),
        ]);
        result
            .slow_node
            .push((name.to_string(), nominal, degraded, factor));
    }
    print!("{}", t.render());
    println!();

    // ---- 2. KV-partitioned cache. ----
    println!("-- distributed-cache topology: replicated vs KV-partitioned, 8 nodes --");
    let mut t = Table::new(["loader", "replicated", "hits", "kv-partitioned", "hits"]);
    for name in ["nopfs", "lobster"] {
        let rep = run_policy(
            paper_config(DatasetKind::ImageNet22k, 8, resnet50(), params),
            policy_by_name(name).unwrap(),
        );
        let mut cfg = paper_config(DatasetKind::ImageNet22k, 8, resnet50(), params);
        cfg.kv_partitioned = true;
        let kv = run_policy(cfg, policy_by_name(name).unwrap());
        t.row([
            name.to_string(),
            fmt_secs(rep.mean_epoch_s()),
            fmt_pct(rep.mean_hit_ratio()),
            fmt_secs(kv.mean_epoch_s()),
            fmt_pct(kv.mean_hit_ratio()),
        ]);
        result.kv.push((
            name.to_string(),
            rep.mean_epoch_s(),
            rep.mean_hit_ratio(),
            kv.mean_epoch_s(),
            kv.mean_hit_ratio(),
        ));
    }
    print!("{}", t.render());
    println!();

    // ---- 3. MinIO. ----
    println!("-- never-evict (MinIO) vs LRU vs Lobster, single node, two cache sizes --");
    let mut t = Table::new(["loader", "scale", "epoch", "hit ratio"]);
    for scale in [params.scale, params.scale * 4] {
        let p = BenchParams { scale, ..params };
        for name in ["pytorch", "minio", "lobster"] {
            let report = run_policy(
                paper_config(DatasetKind::ImageNet1k, 1, resnet50(), p),
                policy_by_name(name).unwrap(),
            );
            t.row([
                name.to_string(),
                format!("1/{scale}"),
                fmt_secs(report.mean_epoch_s()),
                fmt_pct(report.mean_hit_ratio()),
            ]);
            result.minio.push((
                name.to_string(),
                scale,
                report.mean_epoch_s(),
                report.mean_hit_ratio(),
            ));
        }
    }
    print!("{}", t.render());

    println!();

    // ---- 4. Partition schemes. ----
    // ImageNet-1K on 4 nodes: each shard fits the scaled cache, so local
    // shuffling can pin its whole shard while global shuffling cannot.
    println!("-- partition: global shuffle vs node-local shard shuffle, 4 nodes, ImageNet-1K --");
    let mut t = Table::new(["loader", "scheme", "epoch", "hit ratio"]);
    for scheme in [
        lobster_pipeline_partition::GlobalShuffle,
        lobster_pipeline_partition::NodeLocalShuffle,
    ] {
        for name in ["pytorch", "lobster"] {
            let mut cfg = paper_config(DatasetKind::ImageNet1k, 4, resnet50(), params);
            cfg.partition = scheme;
            let report = run_policy(cfg, policy_by_name(name).unwrap());
            t.row([
                name.to_string(),
                format!("{scheme:?}"),
                fmt_secs(report.mean_epoch_s()),
                fmt_pct(report.mean_hit_ratio()),
            ]);
        }
    }
    print!("{}", t.render());
    println!();

    // ---- 5. Dynamic-straggler fault matrix. ----
    // Time scales derive from the measured nominal run: a "step" hits node
    // 2 halfway through, a "flap" oscillates with a one-epoch period, a
    // "ramp" degrades linearly over the whole run. Each entry is the
    // slowdown the loader suffers relative to its own nominal run.
    println!("-- dynamic stragglers: time-varying node-2 slowdown, ImageNet-22K, 4 nodes --");
    let nominal_epoch = nominals
        .iter()
        .map(|(_, s)| *s)
        .fold(f64::INFINITY, f64::min);
    let total_s = nominal_epoch * params.epochs as f64;
    let profiles: Vec<(&str, SlowdownProfile)> = vec![
        ("static ×2", SlowdownProfile::Constant(2.0)),
        (
            "step ×2 @ mid-run",
            SlowdownProfile::Step {
                at_s: total_s / 2.0,
                factor: 2.0,
            },
        ),
        (
            "flap 1↔2 / epoch",
            SlowdownProfile::Flap {
                period_s: nominal_epoch.max(1e-6),
                lo: 1.0,
                hi: 2.0,
            },
        ),
        (
            "ramp 1→2 over run",
            SlowdownProfile::Ramp {
                from: 1.0,
                to: 2.0,
                over_s: total_s.max(1e-6),
            },
        ),
    ];
    let mut t = Table::new(["profile", "pytorch", "nopfs", "lobster"]);
    for (label, profile) in &profiles {
        let mut row = vec![label.to_string()];
        for (name, nominal) in &nominals {
            let mut cfg: ExperimentConfig =
                paper_config(DatasetKind::ImageNet22k, 4, resnet50(), params);
            cfg.node_slowdown = vec![
                SlowdownProfile::NOMINAL,
                SlowdownProfile::NOMINAL,
                *profile,
                SlowdownProfile::NOMINAL,
            ];
            let degraded = run_policy(cfg, policy_by_name(name).unwrap()).mean_epoch_s();
            let factor = degraded / nominal;
            row.push(fmt_speedup(factor));
            result
                .fault_matrix
                .push((label.to_string(), name.clone(), *nominal, degraded, factor));
        }
        t.row(row);
    }
    print!("{}", t.render());
    // The robustness headline: lobster under any *dynamic* straggler must
    // not degrade more than the static pytorch baseline under a *permanent*
    // one (the adaptive re-assignment absorbs time-varying pressure).
    let pytorch_static = result
        .fault_matrix
        .iter()
        .find(|(p, n, ..)| p.starts_with("static") && n == "pytorch")
        .map(|&(.., f)| f)
        .unwrap_or(f64::NAN);
    let lobster_dynamic_worst = result
        .fault_matrix
        .iter()
        .filter(|(p, n, ..)| !p.starts_with("static") && n == "lobster")
        .map(|&(.., f)| f)
        .fold(0.0f64, f64::max);
    result.pytorch_static_factor = pytorch_static;
    result.lobster_dynamic_worst = lobster_dynamic_worst;
    println!(
        "lobster worst dynamic factor {} vs pytorch static factor {} -> {}",
        fmt_speedup(lobster_dynamic_worst),
        fmt_speedup(pytorch_static),
        if lobster_dynamic_worst <= pytorch_static {
            "ok (dynamic ≤ static baseline)"
        } else {
            "REGRESSION"
        }
    );
    println!();

    // ---- 6. Live-engine self-healing. ----
    // A real multi-threaded run under the default fault mix (override with
    // `--faults transient=...,corrupt=...,slow=0:step:2:0.2,...`): ≥5%
    // transient errors, corruption, stalls, and a step slowdown at 200 ms.
    let spec = faults_from_args(
        FaultSpec::parse(
            "transient=0.05,corrupt=0.02,stall=0.02,stall-ms=5,seed=1042,slow=0:step:2:0.2",
        )
        .expect("default fault spec parses"),
    );
    println!("-- live engine under faults: {spec:?} --");
    let dataset = lobster_data::Dataset::generate(
        "ext-engine-faults",
        256,
        lobster_data::SizeDistribution::Uniform {
            lo: 4_000,
            hi: 16_000,
        },
        params.seed,
    );
    let cfg = EngineConfig {
        consumers: 2,
        batch_size: 8,
        loader_threads: 3,
        preproc_threads: 2,
        epochs: 2,
        seed: params.seed,
        train: Duration::from_micros(500),
        // `crash@<tick>:node=<n>[,rejoin=<tick>]` terms in the --faults
        // spec become tick-scoped peer-down windows inside the engine.
        crashes: spec.crashes.clone(),
        peer_nodes: spec
            .crashes
            .iter()
            .map(|c| (c.node as usize + 1).max(2))
            .max()
            .unwrap_or(0),
        ..EngineConfig::default()
    };
    let expected = expected_integrity(&dataset, &cfg);
    let plan = spec.compile().expect("fault spec compiles");
    let store = Arc::new(SyntheticStore::with_faults(
        dataset,
        Duration::from_micros(100),
        200e6,
        plan,
    ));
    let ins = Instruments::enabled();
    let report = run_with(Arc::clone(&store), cfg, ins.clone());
    let integrity_ok = report.integrity == expected && !report.aborted;
    let mut t = Table::new([
        "delivered",
        "retries",
        "corruptions",
        "deadlines",
        "panics",
        "integrity",
    ]);
    t.row([
        report.delivered.to_string(),
        report.retries.to_string(),
        report.corruptions_detected.to_string(),
        report.deadline_exceeded.to_string(),
        report.worker_panics.to_string(),
        if integrity_ok {
            "ok".into()
        } else {
            "CORRUPT".to_string()
        },
    ]);
    print!("{}", t.render());
    let snap = ins.metrics_snapshot();
    println!(
        "exported counters: engine.retries={} engine.corruptions_detected={}",
        snap.get("engine.retries").unwrap_or(0),
        snap.get("engine.corruptions_detected").unwrap_or(0),
    );
    result.engine = EngineFaultSummary {
        spec,
        delivered: report.delivered,
        retries: report.retries,
        corruptions_detected: report.corruptions_detected,
        deadline_exceeded: report.deadline_exceeded,
        worker_panics: report.worker_panics,
        integrity_ok,
    };

    let path = ResultSink::default_location()
        .write_json("ext_robustness", &result)
        .expect("write results");
    println!("\nresults -> {}", path.display());
}

use lobster_data::PartitionScheme as lobster_pipeline_partition;
