#!/usr/bin/env bash
# The CI gate; .github/workflows/ci.yml runs this script.
# Usage: ./ci.sh
#
# Every correctness gate is a test: conformance, canaries, faults,
# membership storms, telemetry detection, the doctor's file round trip,
# workload families and the proptest corpora (DESIGN.md §8-§15).
# pipefail: a failing command piped into another must still fail the gate.
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
# and conserve the pool across every flip, here in release mode.
timeout 300 cargo test -q --release --test elastic_stress

echo "== benchmark =="
# The repo's one perf tool (BENCHMARK.json, benchmark/README.md): fmt,
# clippy, unit and schema tests, a smoke run of every workload, and proof
# that the benchmark's correctness gate fails when it should.
timeout 600 benchmark/check.sh

echo "CI OK"
