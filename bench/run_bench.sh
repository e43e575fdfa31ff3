#!/usr/bin/env bash
# Build the release preset, run the trace-sim throughput benchmark, and write
# BENCH_tracesim.json at the repo root.  If bench/baseline_tracesim.json
# exists (the pre-optimization recording), each benchmark also gets a
# baseline_ms and speedup column so PRs can quote the delta directly.
#
# Usage: bench/run_bench.sh [extra google-benchmark args...]
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
cd "$repo"

cmake --preset release >/dev/null
# CMake doesn't even create the target when Google Benchmark is absent; say
# so instead of dying on a bare "unknown target" and leaving a stale
# BENCH_tracesim.json in place.
if ! cmake --build --preset release --target bench_perf_tracesim -j "$(nproc)"; then
  echo "error: could not build bench_perf_tracesim" >&2
  echo "       (is Google Benchmark installed? CMake skips the target without it)" >&2
  exit 1
fi
[[ -x ./build-release/bench_perf_tracesim ]] || {
  echo "error: build-release/bench_perf_tracesim is missing after a successful build" >&2
  exit 1
}

raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT
# Median of 3 repetitions: single-shot numbers swing with machine noise.
./build-release/bench_perf_tracesim \
  --benchmark_repetitions=3 \
  --benchmark_out="$raw" --benchmark_out_format=json "$@"

python3 - "$raw" "$repo/bench/baseline_tracesim.json" "$repo/BENCH_tracesim.json" <<'EOF'
import json, sys, os

raw_path, baseline_path, out_path = sys.argv[1:4]


def die(msg):
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(1)


def load_json(path, what):
    # A benchmark binary killed mid-write (OOM, ^C) leaves truncated JSON;
    # surface that as a one-line error instead of a traceback, and never let
    # it silently produce an empty BENCH_tracesim.json.
    try:
        with open(path) as f:
            return json.load(f)
    except OSError as e:
        die(f"cannot read {what} '{path}': {e}")
    except json.JSONDecodeError as e:
        die(f"{what} '{path}' is not valid JSON (truncated benchmark run?): {e}")


raw = load_json(raw_path, "benchmark output")
if not isinstance(raw, dict) or not raw.get("benchmarks"):
    die(f"benchmark output '{raw_path}' has no benchmarks — the run produced nothing")
if "context" not in raw:
    die(f"benchmark output '{raw_path}' is missing its context block")

baseline = {}
if os.path.exists(baseline_path):
    for b in load_json(baseline_path, "baseline").get("benchmarks", []):
        if "name" not in b or "real_time_ms" not in b:
            die(f"baseline '{baseline_path}' row {b!r} lacks name/real_time_ms")
        baseline[b["name"]] = b["real_time_ms"]

medians = [b for b in raw.get("benchmarks", [])
           if b.get("run_type") == "aggregate" and b.get("aggregate_name") == "median"]
if not medians:  # single-repetition runs have no aggregates
    medians = [b for b in raw.get("benchmarks", []) if b.get("run_type") == "iteration"]

benchmarks = []
for b in medians:
    if b.get("time_unit") != "ms":
        die(f"benchmark row {b.get('name', '?')} reports in "
            f"{b.get('time_unit', 'no unit')}, expected ms")
    name = b["run_name"] if "run_name" in b else b["name"]
    entry = {
        "name": name,
        "real_time_ms": round(b["real_time"], 3),
        "cpu_time_ms": round(b["cpu_time"], 3),
    }
    if "dram_bytes" in b:
        entry["dram_bytes"] = int(b["dram_bytes"])
    # Setup-path rows report their one-time (or per-iteration construction)
    # setup cost as a counter, so the perf trajectory separates setup cost
    # from steady-state replay cost.
    if "setup_ms" in b:
        entry["setup_ms"] = round(b["setup_ms"], 4)
    # Trace rows also record their event/byte volume, so the trajectory
    # catches a serialization change that balloons trace output.
    for k in ("trace_events", "trace_bytes"):
        if k in b:
            entry[k] = int(b[k])
    if name in baseline:
        entry["baseline_ms"] = baseline[name]
        entry["speedup"] = round(baseline[name] / b["real_time"], 2)
    benchmarks.append(entry)

out = {
    "generated_by": "bench/run_bench.sh",
    "benchmark": "bench_perf_tracesim",
    "context": {k: raw["context"].get(k) for k in ("host_name", "num_cpus", "library_version")},
    "benchmarks": benchmarks,
}
import math


def geomean(xs):
    return math.exp(sum(math.log(x) for x in xs) / len(xs))


# Aggregate speedup over the cache-bound rows (Flex+LRU / Flex+BRRIP).
cache_bound = [e["speedup"] for e in benchmarks
               if "speedup" in e and ("FlexLru" in e["name"] or "FlexBrrip" in e["name"])]
if cache_bound:
    out["speedup_geomean_cache_bound"] = round(geomean(cache_bound), 2)

# Per-category geomeans (time, and speedup where the baseline has the row):
# one line per category so BENCH_*.json trajectories compare across PRs
# without re-deriving them.  A row belongs to the first prefix that matches.
CATEGORIES = ["Replay", "Sweep", "DagBuild", "Resolve", "ReuseIndex", "LlmDecode",
              "Multinode", "TraceOverhead", "Cg", "Resnet"]
categories = {}
for e in benchmarks:
    stem = e["name"].removeprefix("BM_")
    cat = next((c for c in CATEGORIES if stem.startswith(c)), "Other")
    categories.setdefault(cat, []).append(e)
out["categories"] = {
    cat: {
        "rows": len(rows),
        "geomean_real_time_ms": round(geomean([r["real_time_ms"] for r in rows]), 3),
        **({"geomean_speedup": round(geomean([r["speedup"] for r in rows if "speedup" in r]), 2)}
           if any("speedup" in r for r in rows) else {}),
    }
    for cat, rows in sorted(categories.items())
}

json.dump(out, open(out_path, "w"), indent=2)
print(f"wrote {out_path} ({len(benchmarks)} benchmarks)")
for e in benchmarks:
    s = f"  {e['name']:<28} {e['real_time_ms']:>10.3f} ms"
    if "speedup" in e:
        s += f"   ({e['speedup']}x vs baseline {e['baseline_ms']} ms)"
    print(s)
for cat, agg in out["categories"].items():
    s = (f"geomean {cat:<14} {agg['geomean_real_time_ms']:>10.3f} ms"
         f" over {agg['rows']} row(s)")
    if "geomean_speedup" in agg:
        s += f", {agg['geomean_speedup']}x vs baseline"
    print(s)
EOF
