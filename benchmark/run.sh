#!/usr/bin/env bash
# Run the five workloads in turn, one process each, and print every metric.
# Extra arguments go to every run, e.g. `benchmark/run.sh --trace 1` or
# `benchmark/run.sh --seconds 5 --seed 7`.
set -euo pipefail
ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$ROOT/target}"
cargo build --release --offline --quiet --manifest-path "$ROOT/benchmark/Cargo.toml"
for workload in engine_cached engine_miss engine_prep engine_pfs sim_fig7c; do
    "$CARGO_TARGET_DIR/release/lobster-benchmark" --workload "$workload" "$@"
    echo
done
