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

use crate::{Opts, Out};
use lobster_bench::DatasetKind::{ImageNet1k, ImageNet22k};
use lobster_bench::{paper_config, run_policy, BenchParams};
use lobster_core::models::resnet50;
use lobster_data::{Dataset, PartitionScheme, SizeDistribution};
use lobster_metrics::{fmt_pct, fmt_secs, fmt_speedup, Instruments, Table};
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

pub(crate) fn run(opts: &Opts, out: &Out) {
    let params = opts.params;
    let epoch_s = |cfg, name: &str| run_policy(cfg, name, &out.ins).mean_epoch_s();
    println!(
        "Extensions — robustness & cache topology (scale 1/{})\n",
        params.scale
    );

    // ---- 1. Slow node. ----
    println!("-- slow node: node 2 of 4 at half I/O speed, ImageNet-22K --");
    let mut t = Table::new(["loader", "nominal", "degraded", "slowdown"]);
    let mut slow_node = Vec::new();
    for name in ["pytorch", "nopfs", "lobster"] {
        let nominal = epoch_s(paper_config(ImageNet22k, 4, resnet50(), params), name);
        let mut cfg = paper_config(ImageNet22k, 4, resnet50(), params);
        cfg.node_slowdown = SlowdownProfile::constants(&[1.0, 1.0, 2.0, 1.0]);
        let degraded = epoch_s(cfg, name);
        let factor = degraded / nominal;
        t.row([
            name.to_string(),
            fmt_secs(nominal),
            fmt_secs(degraded),
            fmt_speedup(factor),
        ]);
        slow_node.push((name.to_string(), nominal, degraded, factor));
    }
    print!("{}", t.render());
    println!();

    // ---- 2. KV-partitioned cache. ----
    println!("-- distributed-cache topology: replicated vs KV-partitioned, 8 nodes --");
    let mut t = Table::new(["loader", "replicated", "hits", "kv-partitioned", "hits"]);
    let mut kv = Vec::new();
    for name in ["nopfs", "lobster"] {
        let rep = run_policy(
            paper_config(ImageNet22k, 8, resnet50(), params),
            name,
            &out.ins,
        );
        let mut cfg = paper_config(ImageNet22k, 8, resnet50(), params);
        cfg.kv_partitioned = true;
        let part = run_policy(cfg, name, &out.ins);
        let (rep_s, rep_hits) = (rep.mean_epoch_s(), rep.mean_hit_ratio());
        let (kv_s, kv_hits) = (part.mean_epoch_s(), part.mean_hit_ratio());
        t.row([
            name.to_string(),
            fmt_secs(rep_s),
            fmt_pct(rep_hits),
            fmt_secs(kv_s),
            fmt_pct(kv_hits),
        ]);
        kv.push((name.to_string(), rep_s, rep_hits, kv_s, kv_hits));
    }
    print!("{}", t.render());
    println!();

    // ---- 3. MinIO. ----
    println!("-- never-evict (MinIO) vs LRU vs Lobster, single node, two cache sizes --");
    let mut t = Table::new(["loader", "scale", "epoch", "hit ratio"]);
    let mut minio = Vec::new();
    for scale in [params.scale, params.scale * 4] {
        let p = BenchParams { scale, ..params };
        for name in ["pytorch", "minio", "lobster"] {
            let report = run_policy(paper_config(ImageNet1k, 1, resnet50(), p), name, &out.ins);
            let (epoch, hits) = (report.mean_epoch_s(), report.mean_hit_ratio());
            t.row([
                name.to_string(),
                format!("1/{scale}"),
                fmt_secs(epoch),
                fmt_pct(hits),
            ]);
            minio.push((name.to_string(), scale, epoch, hits));
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
        PartitionScheme::GlobalShuffle,
        PartitionScheme::NodeLocalShuffle,
    ] {
        for name in ["pytorch", "lobster"] {
            let mut cfg = paper_config(ImageNet1k, 4, resnet50(), params);
            cfg.partition = scheme;
            let report = run_policy(cfg, name, &out.ins);
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
    let nominal_epoch = slow_node.iter().map(|r| r.1).fold(f64::INFINITY, f64::min);
    let total_s = nominal_epoch * params.epochs as f64;
    let profiles = [
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
    let mut fault_matrix = Vec::new();
    for (label, profile) in profiles {
        let mut row = vec![label.to_string()];
        for (name, nominal, ..) in &slow_node {
            let mut cfg = paper_config(ImageNet22k, 4, resnet50(), params);
            cfg.node_slowdown = vec![SlowdownProfile::NOMINAL; 4];
            cfg.node_slowdown[2] = profile;
            let degraded = epoch_s(cfg, name);
            let factor = degraded / nominal;
            row.push(fmt_speedup(factor));
            fault_matrix.push((label.to_string(), name.clone(), *nominal, degraded, factor));
        }
        t.row(row);
    }
    print!("{}", t.render());
    // The robustness headline: lobster under any *dynamic* straggler must
    // not degrade more than the static pytorch baseline under a *permanent*
    // one (the adaptive re-assignment absorbs time-varying pressure).
    let pytorch_static_factor = fault_matrix
        .iter()
        .find(|(p, n, ..)| p.starts_with("static") && n == "pytorch")
        .map_or(f64::NAN, |r| r.4);
    let lobster_dynamic_worst = fault_matrix
        .iter()
        .filter(|(p, n, ..)| !p.starts_with("static") && n == "lobster")
        .map(|r| r.4)
        .fold(0.0f64, f64::max);
    println!(
        "lobster worst dynamic factor {} vs pytorch static factor {} -> {}",
        fmt_speedup(lobster_dynamic_worst),
        fmt_speedup(pytorch_static_factor),
        if lobster_dynamic_worst <= pytorch_static_factor {
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
    let spec = opts.faults.clone();
    println!("-- live engine under faults: {spec:?} --");
    let sizes = SizeDistribution::Uniform {
        lo: 4_000,
        hi: 16_000,
    };
    let dataset = Dataset::generate("ext-engine-faults", 256, sizes, params.seed);
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
    let latency = Duration::from_micros(100);
    let store = Arc::new(SyntheticStore::with_faults(dataset, latency, 200e6, plan));
    let ins = Instruments::enabled();
    let report = run_with(store, cfg, ins.clone());
    let integrity_ok = report.integrity == expected && !report.aborted;
    let header = [
        "delivered",
        "retries",
        "corruptions",
        "deadlines",
        "panics",
        "integrity",
    ];
    let mut t = Table::new(header);
    t.row([
        report.delivered.to_string(),
        report.retries.to_string(),
        report.corruptions_detected.to_string(),
        report.deadline_exceeded.to_string(),
        report.worker_panics.to_string(),
        if integrity_ok { "ok" } else { "CORRUPT" }.to_string(),
    ]);
    print!("{}", t.render());
    let snap = ins.metrics_snapshot();
    println!(
        "exported counters: engine.retries={} engine.corruptions_detected={}",
        snap.get("engine.retries").unwrap_or(0),
        snap.get("engine.corruptions_detected").unwrap_or(0),
    );

    println!();
    out.json(&ExtResult {
        params,
        slow_node,
        kv,
        minio,
        fault_matrix,
        lobster_dynamic_worst,
        pytorch_static_factor,
        engine: EngineFaultSummary {
            spec,
            delivered: report.delivered,
            retries: report.retries,
            corruptions_detected: report.corruptions_detected,
            deadline_exceeded: report.deadline_exceeded,
            worker_panics: report.worker_panics,
            integrity_ok,
        },
    });
}
