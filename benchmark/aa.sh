#!/usr/bin/env bash
# A/A study: two interleaved sets of runs of the same code, every run with
# another seed, as the driver does it. Prints, per workload and end-to-end
# metric, both set medians, the quartiles and spread (IQR / median) of each
# set, the gap by which set B is worse than set A, the bound from
# BENCHMARK.json, and PASS/FAIL. README.md holds the table for the commit
# that defined the benchmark; the bounds in BENCHMARK.json come from it.
#
#   benchmark/aa.sh [runs-per-set]      (default 10, at least 5)
#   benchmark/aa.sh report              (the table again, from the last study's runs)
set -euo pipefail
RUNS="${1:-10}"
ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
OUT="$ROOT/benchmark/out/aa"
if [ "$RUNS" = report ]; then
    RUNS=0
elif [ "$RUNS" -lt 5 ]; then
    echo "need at least 5 runs per set" >&2
    exit 2
else
    export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$ROOT/target}"
    cargo build --release --offline --quiet --manifest-path "$ROOT/benchmark/Cargo.toml"
    BIN="$CARGO_TARGET_DIR/release/lobster-benchmark"
    mkdir -p "$OUT"
    rm -f "$OUT"/*.jsonl
    SECONDS_PER_RUN="$(python3 -c "import json; print(json.load(open('$ROOT/BENCHMARK.json'))['run_seconds'])")"
fi

for i in $(seq 1 "$RUNS"); do
    for set in A B; do
        if [ "$set" = A ]; then seed=$((100 + i)); else seed=$((200 + i)); fi
        for workload in engine_cached engine_miss engine_prep engine_pfs sim_fig7c; do
            "$BIN" --workload "$workload" --seed "$seed" --seconds "$SECONDS_PER_RUN" --trace 0 \
                | tail -n 1 >> "$OUT/$set.$workload.jsonl"
        done
        echo "run $i/$RUNS of set $set done" >&2
    done
done

python3 - "$ROOT" "$OUT" <<'PY'
import json, statistics, sys
root, out = sys.argv[1], sys.argv[2]
contract = json.load(open(f"{root}/BENCHMARK.json"))
print("| workload | metric | median A | median B | IQR/median A | IQR/median B | B worse by | bound | verdict |")
print("|---|---|---|---|---|---|---|---|---|")
failed = 0
for workload in (w["name"] for w in contract["workloads"]):
    sets = {}
    for s in "AB":
        lines = [json.loads(l) for l in open(f"{out}/{s}.{workload}.jsonl")]
        assert all(l["correct"] and l["failed"] == 0 for l in lines), f"{workload}: a run failed"
        sets[s] = lines
    for m in contract["end_to_end"]:
        name, bound = m["name"], m["bound"]
        med, spread = {}, {}
        for s in "AB":
            values = [l["metrics"][name]["value"] for l in sets[s]]
            q1, _, q3 = statistics.quantiles(values, n=4)
            med[s] = statistics.median(values)
            spread[s] = (q3 - q1) / med[s]
        gap = (med["B"] - med["A"]) / med["A"]
        worse = -gap if m["better"] == "higher" else gap
        # The driver's rule: every spread but that of setup_s within the
        # bound, and the second median not worse than the first by more.
        ok = worse <= bound and (name == "setup_s" or max(spread.values()) <= bound)
        failed += not ok
        print(f"| {workload} | {name} | {med['A']:.6g} | {med['B']:.6g} | {spread['A']:.2%} | "
              f"{spread['B']:.2%} | {worse:+.2%} | {bound:.0%} | {'PASS' if ok else 'FAIL'} |")
sys.exit(1 if failed else 0)
PY
