//! Live multi-threaded engine demo: real loader/preprocessing threads move
//! real bytes through the multi-queue pipeline. The same 6-worker pool runs
//! twice: once with the static 4 loader / 2 preproc split, once as the
//! elastic pool (DESIGN.md §11), whose controller flips worker roles at
//! tick boundaries.
//!
//! ```sh
//! cargo run --release --example live_engine
//! cargo run --release --example live_engine -- --elastic
//! ```
//!
//! With `--elastic` a third run adds a mid-run work-factor step, which the
//! §4.1 regression tracks by moving loaders into preprocessing.

use lobster_repro::data::{Dataset, SizeDistribution};
use lobster_repro::metrics::{fmt_pct, Instruments, Summary, Table};
use lobster_repro::runtime::{expected_integrity, run_with, EngineConfig, SyntheticStore};
use std::sync::Arc;
use std::time::Duration;

fn store() -> Arc<SyntheticStore> {
    let dataset = Dataset::generate(
        "live-demo",
        512,
        SizeDistribution::Uniform {
            lo: 8_000,
            hi: 64_000,
        },
        11,
    );
    // Simulated PFS: 300µs/request + 100 MB/s.
    Arc::new(SyntheticStore::new(
        dataset,
        Duration::from_micros(300),
        100e6,
    ))
}

fn main() {
    let elastic_mode = std::env::args().any(|a| a == "--elastic");
    println!("Live engine — 4 consumers, 4 loaders, 2 preprocessing workers, 2 epochs\n");
    let mut table = Table::new([
        "mode",
        "p50 iter",
        "p95 iter",
        "hit ratio",
        "fetches",
        "integrity",
    ]);
    let mut elastic_ins = None;
    for elastic in [false, true] {
        let cfg = EngineConfig {
            consumers: 4,
            batch_size: 8,
            loader_threads: 4,
            preproc_threads: 2,
            cache_bytes: 32 << 20,
            work_factor: 2,
            train: Duration::from_millis(3),
            elastic,
            epochs: 2,
            seed: 42,
            retry: Default::default(),
            ..EngineConfig::default()
        };
        let s = store();
        let expected = expected_integrity(s.dataset(), &cfg);
        // Observe the elastic run: trace buffer + counters + decision log.
        let ins = if elastic {
            Instruments::enabled()
        } else {
            Instruments::disabled()
        };
        let report = run_with(s, cfg, ins.clone());
        if elastic {
            elastic_ins = Some(ins);
        }
        let mut iters = Summary::new();
        iters.record_all(report.iteration_secs.iter().copied());
        table.row([
            if elastic {
                "elastic pool (lobster)"
            } else {
                "static split"
            }
            .to_string(),
            format!("{:.1}ms", iters.percentile(50.0) * 1e3),
            format!("{:.1}ms", iters.percentile(95.0) * 1e3),
            fmt_pct(report.hit_ratio),
            report.store_fetches.to_string(),
            if report.integrity == expected {
                "ok".into()
            } else {
                "CORRUPT".to_string()
            },
        ]);
    }
    if elastic_mode {
        // Elastic pool again, while preprocessing gets 8× heavier halfway
        // through the run.
        let cfg = EngineConfig {
            consumers: 4,
            batch_size: 8,
            loader_threads: 4,
            preproc_threads: 2,
            cache_bytes: 32 << 20,
            work_factor: 2,
            work_factor_step: Some((16, 16)),
            train: Duration::from_millis(3),
            elastic: true,
            epochs: 2,
            seed: 42,
            retry: Default::default(),
            ..EngineConfig::default()
        };
        let s = store();
        let expected = expected_integrity(s.dataset(), &cfg);
        let report = run_with(s, cfg, Instruments::enabled());
        let mut iters = Summary::new();
        iters.record_all(report.iteration_secs.iter().copied());
        let flips: usize = report.role_flips.iter().map(|d| d.flipped.len()).sum();
        let max_preproc = report
            .role_flips
            .iter()
            .map(|d| d.preproc_after)
            .max()
            .unwrap_or(0);
        table.row([
            format!("elastic + 8x step ({flips} flips, peak {max_preproc}P)"),
            format!("{:.1}ms", iters.percentile(50.0) * 1e3),
            format!("{:.1}ms", iters.percentile(95.0) * 1e3),
            fmt_pct(report.hit_ratio),
            report.store_fetches.to_string(),
            if report.integrity == expected {
                "ok".into()
            } else {
                "CORRUPT".to_string()
            },
        ]);
    }

    print!("{}", table.render());
    println!("\nEvery delivered byte is verified against the canonical sample stream.");

    let ins = elastic_ins.expect("elastic run instruments");
    println!("\n-- elastic run, metrics snapshot --");
    print!("{}", ins.metrics_snapshot().to_text());
    println!(
        "controller decisions: {} (trace events: {})",
        ins.decisions().len(),
        ins.tracer().buffer().map_or(0, |b| b.len()),
    );
    let path = std::env::temp_dir().join("live_engine_trace.json");
    if let Some(json) = ins.chrome_trace_json() {
        if std::fs::write(&path, json).is_ok() {
            println!(
                "trace -> {} (open in https://ui.perfetto.dev)",
                path.display()
            );
        }
    }
}
