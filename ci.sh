#!/usr/bin/env bash
# The CI gate; .github/workflows/ci.yml runs this script.
# Usage: ./ci.sh
# pipefail: a gate binary piped into `tee` must still fail the gate.
set -euo pipefail

echo "== fmt =="
cargo fmt --all -- --check

echo "== clippy =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== build (release) =="
cargo build --workspace --release

echo "== test =="
# Hard timeout: a deadlocked test must fail the gate, not hang it. The
# engine tests additionally carry their own in-process watchdogs (see
# tests/common/watchdog.rs) so a single stuck run dies long before this.
timeout 600 cargo test -q --workspace --no-fail-fast

echo "== elastic stress =="
# Elastic worker-pool soak (DESIGN.md §11): a 64-worker pool under seeded
# faults with forced role churn every tick must deliver exact multisets
# and conserve the pool across every flip. The hard timeout turns a
# role-board deadlock into a fast failure; the tests carry their own
# in-process watchdogs too.
timeout 300 cargo test -q --release --test elastic_stress

echo "== conformance smoke =="
# Differential gate (DESIGN.md §10): seeded configs through the analytical
# executor and the conformance DES, plus a live-engine delivery replay;
# every invariant observable must agree (exit 0), within a 60 s budget.
timeout 60 cargo run -q --release -p lobster-bench --bin conformance_smoke

echo "== conformance canary =="
# The harness proves it can catch a broken rule: every armed mutation must
# be DETECTED. Exit 2 is the expected (deliberately non-zero) outcome;
# anything else — agreement (0), a real divergence (1), a blind spot (3) —
# fails the gate.
set +e
timeout 60 cargo run -q --release -p lobster-bench --bin conformance_smoke -- --canary
canary_status=$?
set -e
if [ "$canary_status" -ne 2 ]; then
    echo "conformance canary gate: expected exit 2 (all canaries detected), got $canary_status" >&2
    exit 1
fi

echo "== workload smoke =="
# Workload diversity gate (DESIGN.md §15): every seeded workload family —
# Zipf skew, heavy-tailed sizes, bimodal cost, growing dataset, compute
# drift — through the differential harness over 5 seeds, plus a
# live-engine delivery replay per family. Hard timeout: a hung run fails
# the gate, not the runner.
timeout 120 cargo run -q --release -p lobster-bench --bin workload_smoke

echo "== proptest corpora =="
# Every crate's regression corpus must exist and be tracked so recorded
# counterexample seeds are never lost.
for d in crates/*/ .; do
    f="$d/proptest-regressions/seeds.txt"
    if [ ! -f "$f" ]; then
        echo "missing proptest regression corpus: $f" >&2
        exit 1
    fi
done

echo "== fault smoke =="
# Small fixed-seed fault-matrix run against the live engine and simulator;
# the hard timeout turns a deadlock into a fast failure.
timeout 120 cargo run -q --release -p lobster-bench --bin fault_smoke

echo "== chaos smoke =="
# Membership gate (DESIGN.md §13): a staggered crash storm with rejoins
# over 5 seeds — differential agreement, exactly-once delivery, and a live
# engine that drains with the plan's membership sequence. The binary
# carries its own in-process 300s watchdog; the outer timeout is the
# backstop.
timeout 300 cargo run -q --release -p lobster-bench --bin chaos_smoke

echo "== doctor smoke =="
# Instrumented smoke run, then lobster_doctor over its trace + sidecars:
# fails on non-zero exit (empty diagnosis included) or a hung run.
obs_dir=$(mktemp -d)
trap 'rm -rf "$obs_dir"' EXIT
timeout 120 cargo run -q --release -p lobster-bench --bin smoke -- \
    --scale 256 --epochs 2 --trace-out "$obs_dir/trace.json" > /dev/null
timeout 120 cargo run -q --release -p lobster-bench --bin lobster_doctor -- \
    "$obs_dir/trace.json" --out-dir "$obs_dir/results" | tee "$obs_dir/doctor.txt"
grep -q "findings" "$obs_dir/doctor.txt" || {
    echo "doctor produced no findings" >&2
    exit 1
}

echo "== telemetry smoke =="
# Telemetry gate (DESIGN.md §14): a seeded mid-run slowdown must be
# detected by the online detectors within ±1 tick of its onset, the live
# engine's scheduled crash/rejoin must be attributed to its exact ticks,
# lobster_top must render the JSONL stream, and a deliberately violated
# SLO must make lobster_top exit 1.
timeout 120 cargo run -q --release -p lobster-bench --bin telemetry_smoke -- \
    --telemetry-out "$obs_dir/telemetry.jsonl" --slowdown-at 24 --slowdown-factor 3
timeout 60 cargo run -q --release -p lobster-bench --bin lobster_top -- \
    "$obs_dir/telemetry.jsonl" --once \
    --assert-anomaly throughput-cliff,23,25 | tee "$obs_dir/top.txt"
grep -q "anomaly firing" "$obs_dir/top.txt" || {
    echo "lobster_top did not render the telemetry stream" >&2
    exit 1
}
set +e
timeout 60 cargo run -q --release -p lobster-bench --bin lobster_top -- \
    "$obs_dir/telemetry.jsonl" --once --slo "iter_us<=15000" > /dev/null 2>&1
slo_status=$?
set -e
if [ "$slo_status" -ne 1 ]; then
    echo "lobster_top SLO gate: expected exit 1 (violated SLO), got $slo_status" >&2
    exit 1
fi

echo "== benchmark =="
# The repo's one perf tool (BENCHMARK.json, benchmark/README.md): fmt,
# clippy, unit and schema tests, a smoke run of every workload, and proof
# that the benchmark's correctness gate fails when it should.
timeout 600 benchmark/check.sh

echo "CI OK"
