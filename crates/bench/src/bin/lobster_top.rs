//! `lobster_top` — live (or one-shot) monitor over a `--telemetry-out`
//! JSONL stream (DESIGN.md §14).
//!
//! ```text
//! lobster_top <telemetry.jsonl>                      # follow the stream
//! lobster_top <telemetry.jsonl> --once               # render once, exit
//! lobster_top <telemetry.jsonl> --once --slo "gap_us<=5000;hit_rate>=0.8"
//! ```
//!
//! The stream is the line format `Instruments::set_telemetry_out` (and
//! the bench harness's `.telemetry.jsonl` sidecar) emits: one JSON object
//! per line tagged `frame`, `anomaly`, or `slo`. Follow mode re-reads the
//! tail every `--interval-ms` (default 500) and redraws until the file
//! stops growing for `--idle-exits` rounds (default: follow forever;
//! Ctrl-C to quit).
//!
//! Flags for scripting:
//!
//! - `--once` renders the current state and exits instead of following.
//! - `--slo <specs>` evaluates the §14 spec grammar over the streamed
//!   frames (`;`-separated, e.g. `gap_us<=5000@64:10`) and merges the
//!   verdicts with any `slo` lines already in the stream.
//! - `--window <n>` bounds the per-tick table to the last `n` frames
//!   (default 16).
//!
//! Exit codes: `0` — rendered and every SLO passed; `1` — a violated
//! SLO; `2` — usage or I/O errors.

use lobster_metrics::{
    evaluate_slos, parse_slo_specs, parse_telemetry_stream, Anomaly, SloSpec, SloVerdict,
    TelemetryLine, TickFrame,
};
use std::path::PathBuf;

fn usage() -> ! {
    eprintln!(
        "usage: lobster_top <telemetry.jsonl> [--once] [--interval-ms <n>] [--idle-exits <n>]\n\
         \x20                  [--window <n>] [--slo <specs>]"
    );
    std::process::exit(2);
}

/// Everything accumulated from the stream so far.
#[derive(Default)]
struct State {
    frames: Vec<TickFrame>,
    anomalies: Vec<Anomaly>,
    slo: Vec<SloVerdict>,
}

impl State {
    fn ingest(&mut self, lines: Vec<TelemetryLine>) {
        for line in lines {
            match line {
                TelemetryLine::Frame(f) => self.frames.push(f),
                TelemetryLine::Anomaly(a) => self.anomalies.push(a),
                TelemetryLine::Slo(v) => self.slo.push(v),
            }
        }
    }
}

fn sparkline(values: &[u64]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let hi = values.iter().copied().max().unwrap_or(0).max(1);
    values
        .iter()
        .map(|&v| BARS[((v * 7).div_ceil(hi)).min(7) as usize])
        .collect()
}

fn render(state: &State, window: usize, slo_extra: &[SloVerdict]) -> String {
    let mut out = String::new();
    let frames = &state.frames;
    let n = frames.len();
    out.push_str(&format!(
        "lobster_top — {} tick(s), {} anomaly firing(s)\n",
        n,
        state.anomalies.len()
    ));
    if let Some(last) = frames.last() {
        let s = &last.scalars;
        let hit = s.hit_pm().map_or("  n/a".to_string(), |pm| {
            format!("{:4.1}%", pm as f64 / 10.0)
        });
        out.push_str(&format!(
            "tick {:>6}  gap {:>8}µs  iter {:>8}µs  hit {hit}  workers {}p/{}l  down 0x{:x}\n",
            s.tick, s.gap_us, s.iter_us, s.preproc_workers, s.loader_workers, s.down_mask
        ));
        let tail: Vec<&TickFrame> = frames.iter().rev().take(64).rev().collect();
        let gaps: Vec<u64> = tail.iter().map(|f| f.scalars.gap_us).collect();
        let iters: Vec<u64> = tail.iter().map(|f| f.scalars.iter_us).collect();
        out.push_str(&format!("gap  {}\n", sparkline(&gaps)));
        out.push_str(&format!("iter {}\n", sparkline(&iters)));
    }

    if n > 0 {
        out.push_str(
            "\n  tick    gap_us   iter_us  local  remote   miss  prefetch  evict  retry  deliver\n",
        );
        for f in frames.iter().skip(n.saturating_sub(window)) {
            let s = &f.scalars;
            out.push_str(&format!(
                "{:>6}  {:>8}  {:>8}  {:>5}  {:>6}  {:>5}  {:>8}  {:>5}  {:>5}  {:>7}\n",
                s.tick,
                s.gap_us,
                s.iter_us,
                s.local_hits,
                s.remote_hits,
                s.misses,
                s.prefetched,
                s.evictions,
                s.retries,
                s.delivered
            ));
        }
    }

    if !state.anomalies.is_empty() {
        out.push_str("\n== anomalies (last 8) ==\n");
        let skip = state.anomalies.len().saturating_sub(8);
        for a in state.anomalies.iter().skip(skip) {
            out.push_str(&format!(
                "  tick {:>6}  {:<20} value {:>10}  baseline {:>10}  severity {}\n",
                a.tick,
                a.kind.label(),
                a.value,
                a.baseline,
                a.severity
            ));
        }
    }

    let all_slo: Vec<&SloVerdict> = state.slo.iter().chain(slo_extra).collect();
    if !all_slo.is_empty() {
        out.push_str("\n== slo ==\n");
        for v in all_slo {
            out.push_str(&format!(
                "  {:<28} {:>6} frames  {:>5} violations  burn {:>5.1}%  {}\n",
                v.spec,
                v.frames,
                v.violations,
                v.burn_pct,
                if v.pass { "PASS" } else { "FAIL" }
            ));
        }
    }
    out
}

fn read_stream(path: &PathBuf) -> State {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("error: cannot read {}: {e}", path.display());
        std::process::exit(2);
    });
    let lines = parse_telemetry_stream(&text).unwrap_or_else(|e| {
        eprintln!("error: malformed telemetry stream {}: {e}", path.display());
        std::process::exit(2);
    });
    let mut state = State::default();
    state.ingest(lines);
    state
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut path: Option<PathBuf> = None;
    let mut once = false;
    let mut interval_ms = 500u64;
    let mut idle_exits: Option<u32> = None;
    let mut window = 16usize;
    let mut specs: Vec<SloSpec> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--once" => {
                once = true;
                i += 1;
            }
            "--interval-ms" | "--idle-exits" | "--window" | "--slo" => {
                if i + 1 >= args.len() {
                    usage();
                }
                let value = &args[i + 1];
                match args[i].as_str() {
                    "--interval-ms" => {
                        interval_ms = value.parse().unwrap_or_else(|_| usage());
                    }
                    "--idle-exits" => {
                        idle_exits = Some(value.parse().unwrap_or_else(|_| usage()));
                    }
                    "--window" => window = value.parse().unwrap_or_else(|_| usage()),
                    _ => {
                        specs = parse_slo_specs(value).unwrap_or_else(|e| {
                            eprintln!("error: bad --slo spec: {e}");
                            std::process::exit(2);
                        });
                    }
                }
                i += 2;
            }
            "--help" | "-h" => usage(),
            arg if arg.starts_with("--") => usage(),
            _ => {
                if path.replace(PathBuf::from(&args[i])).is_some() {
                    usage();
                }
                i += 1;
            }
        }
    }
    let Some(path) = path else { usage() };

    // Follow mode: redraw whenever the stream grows; a fixed idle budget
    // (when given) bounds the loop for scripted runs.
    let mut state = read_stream(&path);
    if !once {
        let mut last_len = state.frames.len() + state.anomalies.len() + state.slo.len();
        let mut idle = 0u32;
        loop {
            let verdicts = evaluate_slos(&specs, &state.frames);
            // ANSI clear-and-home keeps the redraw in place on a TTY.
            print!("\x1b[2J\x1b[H{}", render(&state, window, &verdicts));
            use std::io::Write;
            let _ = std::io::stdout().flush();
            std::thread::sleep(std::time::Duration::from_millis(interval_ms));
            state = read_stream(&path);
            let len = state.frames.len() + state.anomalies.len() + state.slo.len();
            if len == last_len {
                idle += 1;
                if idle_exits.is_some_and(|n| idle >= n) {
                    break;
                }
            } else {
                idle = 0;
                last_len = len;
            }
        }
    }

    let verdicts = evaluate_slos(&specs, &state.frames);
    print!("{}", render(&state, window, &verdicts));

    if state.slo.iter().chain(&verdicts).any(|v| !v.pass) {
        eprintln!("lobster_top: violated SLO");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lobster_metrics::{DetectorKind, TickScalars};

    /// A stream holding a firing anomaly renders the firing count in the
    /// header and the anomaly's row, and an SLO over its frames is judged.
    #[test]
    fn renders_a_stream_with_a_firing_anomaly() {
        let frame = |tick, iter_us| {
            TelemetryLine::Frame(TickFrame::from_scalars(TickScalars {
                tick,
                iter_us,
                delivered: 64,
                ..TickScalars::default()
            }))
        };
        let cliff = TelemetryLine::Anomaly(Anomaly {
            kind: DetectorKind::ThroughputCliff,
            tick: 1,
            onset_tick: 1,
            value: 30_000,
            baseline: 10_000,
            severity: 768,
        });
        let text: Vec<String> = [frame(0, 10_000), frame(1, 30_000), cliff]
            .iter()
            .map(TelemetryLine::to_json)
            .collect();
        let mut state = State::default();
        state.ingest(parse_telemetry_stream(&text.join("\n")).unwrap());

        let specs = parse_slo_specs("iter_us<=15000").unwrap();
        let verdicts = evaluate_slos(&specs, &state.frames);
        let out = render(&state, 16, &verdicts);
        assert!(out.contains("2 tick(s), 1 anomaly firing(s)"), "{out}");
        assert!(out.contains("== anomalies (last 8) =="), "{out}");
        assert!(out.contains("throughput-cliff"), "{out}");
        assert!(
            out.contains("iter_us<=15000") && out.contains("FAIL"),
            "{out}"
        );
    }
}
