#!/usr/bin/env bash
# Release-mode performance smoke: builds the datapath benchmarks, runs them
# with --json, and compares per-benchmark items_per_second (falling back to
# real_time when a bench reports no rate) against the committed baselines
# (BENCH_datapath.json, BENCH_pipeline.json, BENCH_specialize.json,
# BENCH_observe.json, BENCH_shard.json at the repo root). Fails when any
# benchmark regresses by more than THRESHOLD_PCT.
#
# The gate is a *smoke*, not a precision harness: CI machines are noisy, so
# the default threshold is generous (25%) and only catches step-function
# regressions — an accidental copy on the hot path, a lost fast path, a
# disabled kernel. Refresh a baseline deliberately with:
#   build/bench/bench_<name> --json BENCH_<name>.json
#
# Environment knobs:
#   JOBS=N             parallel build jobs (default: nproc)
#   BUILD_ROOT=dir     build directory (default: build-perf)
#   THRESHOLD_PCT=N    max tolerated slowdown percent (default: 25)
#   BENCH_FILTER=re    forwarded as --benchmark_filter (default: all); a
#                      binary with no matching benchmark is skipped

set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"
BUILD_ROOT="${BUILD_ROOT:-build-perf}"
THRESHOLD_PCT="${THRESHOLD_PCT:-25}"
BENCH_FILTER="${BENCH_FILTER:-}"

note() { printf '\n==> %s\n' "$*"; }

note "configure + build (Release) in ${BUILD_ROOT}"
cmake -B "${BUILD_ROOT}" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "${BUILD_ROOT}" --target bench_datapath bench_pipeline \
  bench_specialize bench_observe bench_shard -j "${JOBS}" >/dev/null

FAILED=0
for bench in datapath pipeline specialize observe shard; do
  baseline="BENCH_${bench}.json"
  if [ ! -f "${baseline}" ]; then
    note "SKIP bench_${bench}: no committed baseline ${baseline}"
    continue
  fi
  note "bench_${bench}"
  out="${BUILD_ROOT}/BENCH_${bench}.current.json"
  args=(--json "${out}")
  if [ -n "${BENCH_FILTER}" ]; then
    args+=("--benchmark_filter=${BENCH_FILTER}")
  fi
  rm -f "${out}"
  "${BUILD_ROOT}/bench/bench_${bench}" "${args[@]}"
  # A binary none of whose benchmarks match BENCH_FILTER runs nothing and
  # leaves its --json file empty: nothing to compare, not a regression.
  if [ ! -s "${out}" ]; then
    note "SKIP bench_${bench}: no benchmark matched the filter"
    continue
  fi
  python3 - "${baseline}" "${out}" "${THRESHOLD_PCT}" <<'EOF' || FAILED=1
import json
import sys

baseline_path, current_path, threshold_pct = sys.argv[1], sys.argv[2], float(sys.argv[3])

def load(path):
    with open(path) as f:
        data = json.load(f)
    out = {}
    for b in data.get("benchmarks", []):
        if b.get("run_type") != "iteration":
            continue  # ignore aggregate rows
        out[b["name"]] = b
    return out

base = load(baseline_path)
curr = load(current_path)
bad = []
compared = 0
for name, b in sorted(base.items()):
    c = curr.get(name)
    if c is None:
        continue  # renamed/filtered benches are not a regression
    # Prefer the throughput counter (higher is better); fall back to
    # real_time (lower is better) for benches that report no rate.
    if "items_per_second" in b and "items_per_second" in c:
        ratio = b["items_per_second"] / max(c["items_per_second"], 1e-12)
        kind = "items/s"
    else:
        ratio = c["real_time"] / max(b["real_time"], 1e-12)
        kind = "real_time"
    compared += 1
    slowdown = (ratio - 1.0) * 100.0
    marker = "FAIL" if slowdown > threshold_pct else "  ok"
    print(f"  {marker}  {name}: {slowdown:+.1f}% ({kind})")
    if slowdown > threshold_pct:
        bad.append(name)
if compared == 0:
    print("  no comparable benchmarks between baseline and current run")
    sys.exit(1)
if bad:
    print(f"\nperf smoke: {len(bad)} benchmark(s) regressed more than "
          f"{threshold_pct:.0f}%: {', '.join(bad)}")
    sys.exit(1)
print(f"\nperf smoke: {compared} benchmark(s) within {threshold_pct:.0f}%")
EOF
done

if [ "${FAILED}" -ne 0 ]; then
  note "perf smoke FAILED"
  exit 1
fi
note "perf smoke OK"
