//! The repo benchmark: one workload per process, outputs checked, every
//! metric printed by name with its unit. README.md describes the workloads,
//! the metrics and how they interact; `../BENCHMARK.json` is the contract.
//!
//! The harness is single-threaded and adds no threads of its own; it
//! touches no program source and measures every layer from outside,
//! through public functions.

mod alloc;
mod engine;
mod layers;
mod names;
mod sim;
mod spans;
mod stats;

use names::{Metric, Tally};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

const DEFAULT_SEED: u64 = 20220829;
const DEFAULT_SECONDS: f64 = 12.0;

const USAGE: &str = "usage: lobster-benchmark --workload <name> [--seed N] [--seconds S] \
[--trace 0|1] [--smoke] [--self-test-fail]
workloads: engine_cached engine_miss engine_prep engine_pfs sim_fig7c";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Same code paths, gates and metric names at a fraction of the size;
    /// the numbers are not comparable with a full run's.
    smoke: bool,
    /// Perturb the expected fingerprint so the correctness gate must fire.
    self_test_fail: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        self_test_fail: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => args.smoke = true,
            "--self-test-fail" => args.self_test_fail = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !names::WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(args)
}

/// The environment every output is stamped with.
fn print_environment(args: &Args) {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!("workload        {}", args.workload);
    println!("seed            {}", args.seed);
    println!("seconds         {}", args.seconds);
    println!("trace           {}", u8::from(args.trace));
    println!("nproc           {nproc}");
    println!("rustc           {}", env!("BENCH_RUSTC_VERSION"));
    if args.smoke {
        println!("smoke           yes: sizes reduced, numbers NOT comparable with a full run");
    }
}

/// Where the traced run writes its Chrome trace: inside the benchmark's
/// own directory, which is inside the checkout wherever that is.
fn trace_path(workload: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("out/{workload}.trace.json"))
}

impl Args {
    /// The engine inputs for `shape`; `small` or `--smoke` shrink it.
    fn engine_inputs(&self, shape: engine::Shape, small: bool) -> engine::Inputs {
        let shape = if small || self.smoke {
            shape.shrunk()
        } else {
            shape
        };
        println!(
            "engine          {}: feeder 1, loaders {}, preproc {}, consumers {}; \
             {} samples, 1 warm-up + {} measured epochs per round",
            shape.name,
            shape.loader_threads,
            engine::PREPROC_THREADS,
            engine::CONSUMERS,
            shape.samples,
            shape.epochs_per_round
        );
        let mut inputs = engine::Inputs::new(shape, self.seed);
        inputs.fingerprint_fault = u64::from(self.self_test_fail);
        inputs
    }

    /// The simulator inputs; `small` or `--smoke` shrink them.
    fn fig7c(&self, small: bool) -> sim::Fig7c {
        let fig = sim::Fig7c {
            scale: if small || self.smoke {
                sim::SMALL_SCALE
            } else {
                sim::SCALE
            },
            seed: self.seed,
            gate_fault: u64::from(self.self_test_fail),
        };
        println!(
            "simulator       single-threaded; scale 1/{}, {} epochs per policy run",
            fig.scale,
            sim::EPOCHS
        );
        fig
    }

    /// How long to measure: nothing beyond one round or pass under `--smoke`.
    fn measured_seconds(&self) -> f64 {
        if self.smoke {
            0.0
        } else {
            self.seconds
        }
    }
}

/// The traced run: every per-layer metric. The workload's own side (engine
/// or simulator) is measured at full size for half of `--seconds`; the
/// other side is a reference probe at smoke size, so that every layer has a
/// number in every traced run (README.md says which are which).
fn run_traced(args: &Args) -> (Vec<Metric>, Tally) {
    let mut tally = Tally::default();
    let mut rec = spans::Recorder::new(layers::SPAN_CAPACITY);
    let seconds = args.measured_seconds() / 2.0;
    let native_engine = engine::Shape::by_name(&args.workload);
    let reference_engine = engine::Shape::by_name("engine_pfs").expect("declared shape");
    let inputs = args.engine_inputs(
        native_engine.unwrap_or(reference_engine),
        native_engine.is_none(),
    );
    let fig = args.fig7c(native_engine.is_some());
    let (engine_s, sim_s) = if native_engine.is_some() {
        (seconds, 0.0)
    } else {
        (0.0, seconds)
    };
    let engine_side = layers::engine_layers(&inputs, engine_s, &mut rec, &mut tally);
    let sim_side = layers::sim_layers(&fig, sim_s, &mut rec, &mut tally);
    let (native, reference) = if native_engine.is_some() {
        (engine_side, sim_side)
    } else {
        (sim_side, engine_side)
    };
    let measured: Vec<Metric> = native
        .into_iter()
        .chain(reference)
        .chain(layers::instrument_probes())
        .collect();
    // In the declared order; where both sides measured a name (the cost of
    // instruments), the workload's own side comes first and wins.
    let metrics = names::PER_LAYER
        .iter()
        .map(|(name, _)| {
            *measured
                .iter()
                .find(|(n, _)| n == name)
                .unwrap_or_else(|| panic!("traced run did not measure {name}"))
        })
        .collect();
    let path = trace_path(&args.workload);
    match rec.write_chrome_trace(&path) {
        Ok(()) => println!(
            "trace file      {} ({} spans, {} dropped)",
            path.display(),
            rec.spans().len(),
            rec.dropped()
        ),
        Err(e) => {
            eprintln!("cannot write {}: {e}", path.display());
            tally.failed += 1;
        }
    }
    (metrics, tally)
}

/// The untraced run: the six end-to-end metrics.
fn run(args: &Args) -> (Vec<Metric>, Tally) {
    let mut tally = Tally::default();
    let cold_starts = if args.smoke { 1 } else { engine::COLD_STARTS };
    let seconds = args.measured_seconds();
    let join = |rates: Vec<f64>| {
        let rates: Vec<String> = rates.iter().map(|r| format!("{r:.0}")).collect();
        format!("{} (samples/s {})", rates.len(), rates.join(" "))
    };
    let metrics = match engine::Shape::by_name(&args.workload) {
        Some(shape) => {
            let inputs = args.engine_inputs(shape, false);
            let measured = engine::measure(&inputs, seconds, cold_starts, &mut tally);
            let rates = measured.rounds.iter().map(|r| r.samples_per_s).collect();
            println!("rounds          {}", join(rates));
            measured.end_to_end()
        }
        None => {
            let measured = args.fig7c(false).measure(seconds, cold_starts, &mut tally);
            let rates = measured
                .passes
                .iter()
                .map(sim::Pass::samples_per_s)
                .collect();
            println!("passes          {}", join(rates));
            measured.end_to_end()
        }
    };
    (metrics, tally)
}

/// The result line the driver reads: the last line of standard output.
fn result_line(metrics: &[Metric], tally: Tally) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value)| {
            format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                names::unit_of(name)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    print_environment(&args);
    let (mut metrics, mut tally) = if args.trace {
        run_traced(&args)
    } else {
        run(&args)
    };
    // JSON has no NaN or infinity: a metric that is one has failed.
    for (name, value) in &mut metrics {
        if !value.is_finite() {
            eprintln!("{name} is not a finite number: {value}");
            tally.failed += 1;
            *value = 0.0;
        }
    }
    println!();
    for (name, value) in &metrics {
        println!("{name:<44} {value:>16.6} {}", names::unit_of(name));
    }
    println!("{:<44} {:>16}", "attempted", tally.attempted);
    println!("{:<44} {:>16}", "failed", tally.failed);
    println!("{}", result_line(&metrics, tally));
    if tally.failed == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("correctness gate: {} operation(s) failed", tally.failed);
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn contract() -> Value {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
        serde_json::from_str(&text).expect("BENCHMARK.json is valid JSON")
    }

    fn declared(contract: &Value, list: &str) -> Vec<(String, String)> {
        let field = |entry: &Value, key: &str| {
            entry
                .get(key)
                .and_then(Value::as_str)
                .expect("string field")
                .to_string()
        };
        contract
            .get(list)
            .and_then(Value::as_array)
            .expect("metric list")
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit")))
            .collect()
    }

    fn owned(table: &[(&str, &str)]) -> Vec<(String, String)> {
        table
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_the_tables_in_names_rs() {
        let contract = contract();
        assert_eq!(declared(&contract, "end_to_end"), owned(&names::END_TO_END));
        assert_eq!(declared(&contract, "per_layer"), owned(&names::PER_LAYER));
        let workloads: Vec<&str> = contract
            .get("workloads")
            .and_then(Value::as_array)
            .expect("workload list")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Value::as_str)
                    .expect("workload name")
            })
            .collect();
        assert_eq!(workloads, names::WORKLOADS);
    }

    #[test]
    fn names_and_units_stay_inside_the_contracts_charset() {
        let ok = |s: &str, extra: &str, max: usize| {
            !s.is_empty()
                && s.len() <= max
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        for (name, unit) in names::END_TO_END.iter().chain(names::PER_LAYER.iter()) {
            assert!(ok(name, "_.-", 64), "metric name {name}");
            assert!(
                name.starts_with(|c: char| c.is_ascii_alphanumeric()),
                "metric name {name}"
            );
            assert!(ok(unit, "_/%.-", 16), "unit {unit} of {name}");
        }
        for workload in names::WORKLOADS {
            assert!(ok(workload, "_.-", 64), "workload name {workload}");
        }
        let mut all: Vec<&str> = names::END_TO_END
            .iter()
            .chain(names::PER_LAYER.iter())
            .map(|m| m.0)
            .collect();
        all.extend(names::WORKLOADS);
        let count = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), count, "a name is used once");
    }

    fn smoke(workload: &str, trace: bool) -> Args {
        Args {
            workload: workload.to_string(),
            seed: 3,
            seconds: 1.0,
            trace,
            smoke: true,
            self_test_fail: false,
        }
    }

    /// Every metric `BENCHMARK.json` declares is printed by every workload:
    /// the end-to-end ones untraced, the per-layer ones traced.
    #[test]
    fn every_workload_prints_every_declared_metric() {
        let contract = contract();
        for workload in names::WORKLOADS {
            for (trace, list) in [(false, "end_to_end"), (true, "per_layer")] {
                let args = smoke(workload, trace);
                let (metrics, tally) = if trace { run_traced(&args) } else { run(&args) };
                assert_eq!(tally.failed, 0, "{workload} trace {trace}");
                assert!(tally.attempted >= 1);
                let line: Value = serde_json::from_str(&result_line(&metrics, tally))
                    .expect("the result line is valid JSON");
                let printed = line
                    .get("metrics")
                    .and_then(Value::as_object)
                    .expect("metrics object");
                let want = declared(&contract, list);
                assert_eq!(printed.len(), want.len(), "{workload} trace {trace}");
                for (name, unit) in want {
                    let metric = printed
                        .get(&name)
                        .unwrap_or_else(|| panic!("{workload} prints {name}"));
                    assert_eq!(
                        metric.get("unit").and_then(Value::as_str),
                        Some(unit.as_str())
                    );
                    let value = metric
                        .get("value")
                        .and_then(Value::as_f64)
                        .expect("numeric value");
                    assert!(value.is_finite(), "{workload} {name} = {value}");
                }
                assert_eq!(line.get("correct").and_then(Value::as_bool), Some(true));
            }
        }
    }

    #[test]
    fn the_gate_fires_under_self_test_fail() {
        for workload in ["engine_miss", "sim_fig7c"] {
            let args = Args {
                self_test_fail: true,
                ..smoke(workload, false)
            };
            let (_, tally) = run(&args);
            assert!(tally.failed > 0, "{workload}");
        }
    }

    #[test]
    fn arguments_are_checked() {
        let parse = |line: &str| {
            parse_args(
                &line
                    .split_whitespace()
                    .map(String::from)
                    .collect::<Vec<_>>(),
            )
        };
        let args = parse("--workload engine_pfs --seed 9 --seconds 3 --trace 1").expect("valid");
        assert_eq!(
            (args.workload.as_str(), args.seed, args.seconds, args.trace),
            ("engine_pfs", 9, 3.0, true)
        );
        assert!(parse("--workload nope").is_err());
        assert!(parse("--workload engine_pfs --trace 2").is_err());
        assert!(parse("--workload engine_pfs --seconds 0").is_err());
        assert!(parse("--workload engine_pfs --seed").is_err());
        assert!(parse("--seed 1").is_err());
    }
}
