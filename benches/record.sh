#!/usr/bin/env bash
# Record a per-PR performance snapshot (the ROADMAP's perf-trajectory
# item): run the seven exploration benches in full-measurement mode with
# telemetry metering on, then assemble the timings and each bench
# binary's registry snapshot into one BENCH_<n>.json at the repo root.
#
# Usage:   benches/record.sh [out.json]     default: the next free
#                                           BENCH_<n>.json, one past the
#                                           highest existing <n>
# Knobs:   ADHLS_BENCH_SAMPLE_SIZE=<n>      samples per benchmark, pinned
#                                           across every target (default 5)
#
# Timings recorded here have the meters live (that is the point — the
# snapshot proves what the instrumented stack costs); the
# `explore/idct_parallel_t4[_telemetry]` pair inside explore_parallel is
# the controlled off-vs-on overhead comparison.
set -euo pipefail
cd "$(dirname "$0")/.."

# Never overwrite a committed recording: default to one past the highest
# existing BENCH_<n>.json.
next_bench() {
  local n max=0 f
  for f in BENCH_*.json; do
    n="${f#BENCH_}"
    n="${n%.json}"
    [[ "$n" =~ ^[0-9]+$ ]] && (( 10#$n > max )) && max=$((10#$n))
  done
  echo "BENCH_$((max + 1)).json"
}
OUT="${1:-$(next_bench)}"
SAMPLES="${ADHLS_BENCH_SAMPLE_SIZE:-5}"
DIR="$(mktemp -d)"
trap 'rm -rf "$DIR"' EXIT

BENCHES="explore_parallel explore_adaptive explore_power serve_throughput explore_constrained explore_incremental explore_recovery"
for b in $BENCHES; do
  echo "== $b ($SAMPLES samples) =="
  ADHLS_BENCH_METRICS_DIR="$DIR" ADHLS_BENCH_SAMPLE_SIZE="$SAMPLES" \
    cargo bench -q -p adhls-bench --bench "$b" -- --bench | tee "$DIR/$b.out"
done

RECORDED_AT="$(date -u +%Y-%m-%dT%H:%M:%SZ)" \
COMMIT="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)" \
SAMPLES="$SAMPLES" \
python3 - "$OUT" "$DIR" $BENCHES <<'PY'
import json
import os
import re
import sys

out, d, benches = sys.argv[1], sys.argv[2], sys.argv[3:]
unit = {"ns": 1.0, "µs": 1e3, "us": 1e3, "ms": 1e6, "s": 1e9}
line = re.compile(r"^(\S+)\s+time:\s+\[(\S+) (\S+) (\S+) (\S+) (\S+) (\S+)\]")
doc = {
    "recorded_at": os.environ["RECORDED_AT"],
    "commit": os.environ["COMMIT"],
    "samples_per_bench": int(os.environ["SAMPLES"]),
    "benches": {},
}
for b in benches:
    timings = {}
    with open(f"{d}/{b}.out") as f:
        for raw in f:
            m = line.match(raw)
            if m:
                bid, mn, mnu, me, meu, mx, mxu = m.groups()
                timings[bid] = {
                    "min_ns": float(mn) * unit[mnu],
                    "mean_ns": float(me) * unit[meu],
                    "max_ns": float(mx) * unit[mxu],
                }
    if not timings:
        sys.exit(f"{b}: no timing lines parsed (was the bench run in smoke mode?)")
    try:
        with open(f"{d}/{b}.metrics.json") as f:
            metrics = json.load(f)
    except FileNotFoundError:
        metrics = None
    doc["benches"][b] = {"timings": timings, "metrics": metrics}
with open(out, "w") as f:
    json.dump(doc, f, indent=1)
    f.write("\n")
print(f"wrote {out}")
PY
