#!/usr/bin/env bash
# Everything a CI job needs from the benchmark, in under a minute: fmt,
# clippy -D warnings, the unit tests (which include the BENCHMARK.json schema
# check against the printed names), a smoke run of all five workloads in both
# trace modes, and proof that the correctness gate can fail.
# Wire it into ci.sh with one line: `benchmark/check.sh`.
set -euo pipefail
ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$ROOT/target}"
MANIFEST="$ROOT/benchmark/Cargo.toml"
BIN="$CARGO_TARGET_DIR/release/lobster-benchmark"

cargo fmt --manifest-path "$MANIFEST" -- --check
cargo clippy --release --offline --all-targets --manifest-path "$MANIFEST" -- -D warnings
cargo test --release --offline --manifest-path "$MANIFEST"
cargo build --release --offline --manifest-path "$MANIFEST"

for workload in engine_cached engine_miss engine_prep engine_pfs sim_fig7c; do
    for trace in 0 1; do
        "$BIN" --workload "$workload" --trace "$trace" --smoke | tail -n 1 | grep -q '"correct": true, ' \
            || { echo "smoke of $workload --trace $trace failed" >&2; exit 1; }
        echo "smoke ok: $workload --trace $trace"
    done
done

if "$BIN" --workload engine_cached --smoke --self-test-fail >/dev/null 2>&1; then
    echo "--self-test-fail exited 0: the correctness gate cannot fire" >&2
    exit 1
fi
echo "gate ok: --self-test-fail exits non-zero"
