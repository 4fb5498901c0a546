//! `lobster_figures`: regenerates the paper's evaluation (§5: Figs. 3–11
//! and the §5.5 hit-ratio table) and the beyond-paper extensions, one
//! module per figure (DESIGN.md §5 has the index).
//!
//! ```sh
//! cargo run --release -p lobster-bench --bin lobster_figures -- fig07_io_performance
//! cargo run --release -p lobster-bench --bin lobster_figures -- fig08_load_imbalance --scale 512 --epochs 2
//! cargo run --release -p lobster-bench --bin lobster_figures -- all
//! ```
//!
//! [`FIGURES`] drives it: each row gives a figure's name, its default
//! options, the flags it accepts and its run function. Flags after the
//! names apply to every named figure; `all` runs every figure at its
//! defaults and takes no flags. An unknown name or flag, a flag a figure
//! does not take, and a missing or unparsable value exit 2.
//!
//! Where results go is worked out from the inputs: a run whose options all
//! equal the figure's defaults writes the committed `results/<name>.json`
//! (and `.csv`) that EXPERIMENTS.md quotes; any other run writes
//! `results/scratch/`, which is git-ignored. `--trace-out` only adds
//! outputs, so it does not count as an input.

mod ext_elastic;
mod ext_robustness;
mod ext_workloads;
mod fig03_breakdown;
mod fig04_reuse_histogram;
mod fig06_preproc_threads;
mod fig07_io_performance;
mod fig08_load_imbalance;
mod fig09_accuracy;
mod fig10_gpu_utilization;
mod fig11_ablation;
mod smoke;
mod tab_cache_hit_ratio;

use lobster_bench::{write_observability, BenchParams};
use lobster_data::WorkloadSpec;
use lobster_metrics::{Instruments, ResultSink};
use lobster_storage::FaultSpec;
use serde::Serialize;
use std::path::PathBuf;

/// Every figure's options; a figure reads only the ones its row accepts.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Opts {
    pub(crate) params: BenchParams,
    /// `ext_elastic`: dataset size of the live-engine runs.
    pub(crate) samples: usize,
    /// `ext_robustness`: the live engine's fault schedule.
    pub(crate) faults: FaultSpec,
    /// `ext_workloads`: the workload of the mean-vs-quantile showdown.
    pub(crate) workload: WorkloadSpec,
    /// Chrome trace output; instrumentation is on exactly when it is set.
    pub(crate) trace_out: Option<PathBuf>,
}

impl Opts {
    fn set(&mut self, flag: &str, value: &str) -> Result<(), String> {
        fn number<T: std::str::FromStr>(value: &str) -> Result<T, String> {
            value
                .parse()
                .map_err(|_| format!("{value:?} is not a number"))
        }
        match flag {
            "--scale" => self.params.scale = number(value)?,
            "--epochs" => self.params.epochs = number(value)?,
            "--seed" => self.params.seed = number(value)?,
            "--samples" => self.samples = number(value)?,
            "--faults" => self.faults = FaultSpec::parse(value).map_err(|e| e.to_string())?,
            "--workload" => self.workload = WorkloadSpec::parse(value)?,
            "--trace-out" => self.trace_out = Some(value.into()),
            _ => unreachable!("{flag} is in a figure's flags but has no field"),
        }
        Ok(())
    }
}

/// Default options at seed 42. `scale` and `epochs` are a simulator
/// figure's (0 for a figure that takes neither); `--samples`, `--faults`
/// and `--workload` each belong to one `ext_*` figure and default to its
/// values.
fn defaults(scale: u32, epochs: u64) -> Opts {
    let faults = "transient=0.05,corrupt=0.02,stall=0.02,stall-ms=5,seed=1042,slow=0:step:2:0.2";
    Opts {
        params: BenchParams {
            scale,
            epochs,
            seed: 42,
        },
        samples: 512,
        faults: FaultSpec::parse(faults).expect("default fault spec parses"),
        workload: WorkloadSpec::parse("bimodal:samples=768").expect("default workload parses"),
        trace_out: None,
    }
}

/// One row of [`FIGURES`]. Its default options are [`defaults`] at its
/// `scale` and `epochs`.
struct Figure {
    name: &'static str,
    scale: u32,
    epochs: u64,
    flags: &'static [&'static str],
    run: fn(&Opts, &Out),
}

const fn figure(
    name: &'static str,
    (scale, epochs): (u32, u64),
    flags: &'static [&'static str],
    run: fn(&Opts, &Out),
) -> Figure {
    Figure {
        name,
        scale,
        epochs,
        flags,
        run,
    }
}

impl Figure {
    fn defaults(&self) -> Opts {
        defaults(self.scale, self.epochs)
    }
}

const SIM: &[&str] = &["--scale", "--epochs", "--seed"];
const TRACED: &[&str] = &["--scale", "--epochs", "--seed", "--trace-out"];
const FAULTS: &[&str] = &["--scale", "--epochs", "--seed", "--faults"];

#[rustfmt::skip]
static FIGURES: [Figure; 13] = [
    //     name                     defaults  flags                     run
    figure("fig03_breakdown",       (64, 2),  TRACED,                   fig03_breakdown::run),
    figure("fig04_reuse_histogram", (16, 12), SIM,                      fig04_reuse_histogram::run),
    figure("fig06_preproc_threads", (0, 0),   &[],                      fig06_preproc_threads::run),
    figure("fig07_io_performance",  (64, 4),  SIM,                      fig07_io_performance::run),
    figure("fig08_load_imbalance",  (64, 6),  TRACED,                   fig08_load_imbalance::run),
    figure("fig09_accuracy",        (1, 60),  SIM,                      fig09_accuracy::run),
    figure("fig10_gpu_utilization", (64, 4),  SIM,                      fig10_gpu_utilization::run),
    figure("fig11_ablation",        (64, 4),  SIM,                      fig11_ablation::run),
    figure("tab_cache_hit_ratio",   (64, 6),  TRACED,                   tab_cache_hit_ratio::run),
    figure("smoke",                 (64, 3),  TRACED,                   smoke::run),
    figure("ext_elastic",           (0, 0),   &["--seed", "--samples"], ext_elastic::run),
    figure("ext_robustness",        (64, 4),  FAULTS,                   ext_robustness::run),
    figure("ext_workloads",         (0, 0),   &["--seed", "--workload"], ext_workloads::run),
];

/// A figure's outputs. Results go to the committed `results/` when every
/// input equals the figure's default, to `results/scratch/` otherwise;
/// `ins` records the runs when `--trace-out` is set.
pub(crate) struct Out {
    dir: &'static str,
    name: &'static str,
    pub(crate) ins: Instruments,
}

impl Out {
    fn new(figure: &Figure, opts: &Opts) -> Out {
        let inputs = Opts {
            trace_out: None,
            ..opts.clone()
        };
        Out {
            dir: match inputs == figure.defaults() {
                true => "results",
                false => "results/scratch",
            },
            name: figure.name,
            ins: match opts.trace_out {
                Some(_) => Instruments::enabled(),
                None => Instruments::disabled(),
            },
        }
    }

    /// Write `<dir>/<name>.json`.
    pub(crate) fn json<T: Serialize>(&self, value: &T) {
        let path = ResultSink::new(self.dir).write_json(self.name, value);
        println!("results -> {}", path.expect("write results").display());
    }

    /// Write `<dir>/<name>.csv`; `header` fixes the column order.
    pub(crate) fn csv(&self, header: &[&str], rows: &[Vec<String>]) {
        let path = ResultSink::new(self.dir).write_csv(self.name, header, rows);
        println!("results -> {}", path.expect("write csv").display());
    }
}

/// The figures named on the command line, each with its options.
fn parse(args: &[String]) -> Result<Vec<(&'static Figure, Opts)>, String> {
    let names = args.iter().take_while(|a| !a.starts_with("--")).count();
    let (names, flags) = args.split_at(names);
    let figures: Vec<&'static Figure> = match names {
        [] => return Err("no figure named".into()),
        [all] if all == "all" && flags.is_empty() => FIGURES.iter().collect(),
        [all] if all == "all" => return Err("`all` runs every figure at its defaults".into()),
        _ => names
            .iter()
            .map(|n| FIGURES.iter().find(|f| f.name == n))
            .collect::<Option<_>>()
            .ok_or_else(|| format!("unknown figure in {names:?}"))?,
    };
    let mut runs: Vec<_> = figures.into_iter().map(|f| (f, f.defaults())).collect();
    for pair in flags.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("{} needs a value", pair[0]));
        };
        for (figure, opts) in &mut runs {
            if !figure.flags.contains(&flag.as_str()) {
                return Err(format!("{} does not take {flag}", figure.name));
            }
            opts.set(flag, value).map_err(|e| format!("{flag}: {e}"))?;
        }
    }
    Ok(runs)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let runs = parse(&args).unwrap_or_else(|e| {
        eprintln!("lobster_figures: {e}\nusage: lobster_figures <name>... [flags] | all");
        for f in &FIGURES {
            eprintln!("  {:<24}{}", f.name, f.flags.join(" "));
        }
        std::process::exit(2);
    });
    for (figure, opts) in runs {
        let out = Out::new(figure, &opts);
        (figure.run)(&opts, &out);
        write_observability(&out.ins, opts.trace_out.as_deref());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn parse_line(line: &str) -> Result<Vec<(&'static Figure, Opts)>, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse(&args)
    }

    /// `main` exits 2 on every refusal.
    #[test]
    fn usage_errors_are_refused() {
        for line in [
            "",
            "fig99_nothing",
            "fig07_io_performance --scal 512",
            "fig06_preproc_threads --scale 8",
            "fig07_io_performance --scale",
            "fig07_io_performance --scale 2x",
            "fig07_io_performance --trace-out t.json",
            "fig03_breakdown fig07_io_performance --trace-out t.json",
            "fig03_breakdown --seed 1 fig04_reuse_histogram",
            "ext_elastic --faults transient=0.1",
            "ext_robustness --faults transient=7",
            "ext_workloads --workload nonsense",
            "all --seed 1",
        ] {
            assert!(parse_line(line).is_err(), "{line:?} was accepted");
        }
    }

    #[test]
    fn only_default_inputs_write_the_committed_artefacts() {
        for (line, want) in [
            ("fig07_io_performance", "results"),
            (
                "fig07_io_performance --scale 64 --epochs 4 --seed 42",
                "results",
            ),
            ("fig08_load_imbalance --trace-out t.json", "results"),
            ("ext_workloads --workload bimodal:samples=768", "results"),
            ("fig07_io_performance --scale 512", "results/scratch"),
            ("ext_elastic --samples 256", "results/scratch"),
            ("ext_workloads --workload zipf:s=1.4", "results/scratch"),
            (
                "ext_robustness --faults transient=0.05,crash@3:node=1,rejoin=6,seed=9",
                "results/scratch",
            ),
        ] {
            let (figure, opts) = &parse_line(line).unwrap()[0];
            assert_eq!(Out::new(figure, opts).dir, want, "{line}");
        }
    }

    /// Where a figure's JSON records the value of `flag`.
    fn recorded<'a>(json: &'a Value, flag: &str) -> Option<&'a Value> {
        let params = json.get("params");
        match flag {
            "--scale" => params?.get("scale"),
            "--epochs" => params.map_or(json.get("epochs"), |p| p.get("epochs")),
            "--seed" => params.map_or(json.get("seed"), |p| p.get("seed")),
            "--samples" => json.get("samples"),
            "--faults" => json.get("engine")?.get("spec"),
            "--workload" => json.get("showdown_workload"),
            _ => None,
        }
    }

    #[test]
    fn committed_artefacts_record_each_figures_defaults() {
        let results = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");
        let mut unrecorded = Vec::new();
        for figure in &FIGURES {
            let path = format!("{results}/{}.json", figure.name);
            let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
            let json: Value = serde_json::from_str(&text).unwrap();
            let d = figure.defaults();
            for &flag in figure.flags.iter().filter(|&&f| f != "--trace-out") {
                let want = match flag {
                    "--scale" => serde_json::to_value(&d.params.scale),
                    "--epochs" => serde_json::to_value(&d.params.epochs),
                    "--seed" => serde_json::to_value(&d.params.seed),
                    "--samples" => serde_json::to_value(&d.samples),
                    "--faults" => serde_json::to_value(&d.faults),
                    _ => serde_json::to_value(&d.workload.label()),
                };
                match recorded(&json, flag) {
                    Some(got) => assert_eq!(got, &want.unwrap(), "{path}: {flag}"),
                    None => unrecorded.push((figure.name, flag)),
                }
            }
        }
        // Fig. 9's result keeps its seed-era fields: only the epoch count.
        assert_eq!(
            unrecorded,
            [("fig09_accuracy", "--scale"), ("fig09_accuracy", "--seed")]
        );
    }
}
