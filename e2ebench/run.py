#!/usr/bin/env python3
"""End-to-end sweep benchmark for the Cello reproduction (see e2ebench/README.md).

One measured run, from the root of a source checkout:

    python3 e2ebench/run.py --workload table4|scaleout|decode --seed N \
        --seconds S --trace 0|1

builds e2ebench/sweep_bench (CMake, into .bench_build/e2ebench), runs it in a
fresh process and prints the metrics, then, as the last line of stdout, one
JSON object {"correct", "attempted", "failed", "metrics"}.  --trace 0 reports
the end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones.

Steadiness report (several runs per workload, one seed each):

    python3 e2ebench/run.py --steadiness 10 [--workload W]... [--seconds S]
        [--save runs.json] [--baseline parent.json]

prints, per end-to-end metric, the median, the quartiles and the quartile
spread against the metric's bound; --baseline compares the medians with an
earlier --save (e.g. the parent commit) against the same bounds.

    python3 e2ebench/run.py --record

rewrites the reference digests in e2ebench/reference/ (default seed 1 and
held-out seed 2; decode is seed-independent).
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "e2ebench")
BINARY = os.path.join(BUILD_DIR, "sweep_bench")
REFERENCE_DIR = os.path.join(BENCH_DIR, "reference")

WORKLOADS = ("table4", "scaleout", "decode")
# Sweep worker count of the untraced passes: a fixed closed-loop client with
# this many pool threads (capped by the machine's CPU count).
WORKERS = 4
RECORDED_SEEDS = (1, 2)  # default seed, held-out seed
SEED_INDEPENDENT = ("decode",)

def fail(msg, code=2):
    print(f"e2ebench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configure once, then (re)build sweep_bench; compiler output to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "sim", "sweep.hpp")):
        fail(f"no cello sources under {ROOT}/src: run from the root of a source checkout")
    if shutil.which("cmake") is None:
        fail("'cmake' not found")
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.join(BUILD_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = [["cmake", "--build", BUILD_DIR, "--target", "sweep_bench",
              "-j", str(min(4, os.cpu_count() or 1))]]
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release",
                         "-DCMAKE_CXX_FLAGS_RELEASE=-O2 -DNDEBUG"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode != 0:
            fail(f"'{' '.join(cmd[:2])}' failed")


def reference_file(workload, seed):
    for name in (f"{workload}.seed{seed}.txt", f"{workload}.txt"):
        path = os.path.join(REFERENCE_DIR, name)
        if os.path.isfile(path):
            return path
    return None


def run_bench(workload, seed, seconds, trace, min_passes=3, record=None):
    """Run sweep_bench in a fresh process; returns (samples, peak RSS in MiB)."""
    work = os.path.join(BUILD_DIR, "work", f"{workload}.{seed}.{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    workers = max(1, min(WORKERS, os.cpu_count() or 1))
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--min-passes", str(min_passes), "--workers", str(workers), "--work", work]
    ref = None if record else reference_file(workload, seed)
    if ref:
        cmd += ["--reference", ref]
    if record:
        cmd += ["--record", record]
    if trace:
        cmd += ["--trace", "--trace-out", os.path.join(work, "trace.json")]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE)
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    try:
        if proc.returncode != 0:
            fail(f"sweep_bench exited with {proc.returncode}")
        lines = out.decode().strip().splitlines()
        if not lines:
            fail("sweep_bench printed nothing")
        samples = json.loads(lines[-1])
        samples["trace_ok"] = not trace or check_trace(os.path.join(work, "trace.json"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return samples, usage.ru_maxrss / 1024.0  # ru_maxrss is KiB on Linux


def check_trace(path):
    """The span file must be trace_event JSON that bench/check_trace.py accepts."""
    checker = os.path.join(ROOT, "bench", "check_trace.py")
    if not os.path.isfile(checker):
        try:
            with open(path) as f:
                return isinstance(json.load(f).get("traceEvents"), list)
        except (OSError, ValueError):
            return False
    res = subprocess.run([sys.executable, checker, path], stdout=subprocess.PIPE,
                         stderr=subprocess.STDOUT, text=True)
    if res.returncode != 0:
        print(f"trace check failed: {res.stdout.strip()}", file=sys.stderr)
    return res.returncode == 0


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def end_to_end(s, rss_mb):
    """End-to-end metric -> (value, samples): medians over the untraced passes."""
    rate = [s["cells"] / r for r in s["run_s"]]
    return {
        "e2e_s": (statistics.median(s["e2e_s"]), s["e2e_s"]),
        "setup_s": (statistics.median(s["setup_s"]), s["setup_s"]),
        "cells_per_s": (statistics.median(rate), rate),
        "peak_rss_mb": (rss_mb, [rss_mb]),
    }


def per_layer(s):
    """Per-layer metric values from the traced passes (time medians + counts)."""
    med = {k: statistics.median(v) for k, v in s["layer_self_s"].items()}
    c = s["counts"]
    ms = lambda layer: med[layer] * 1e3
    serviced_s = med["service.replay_ms"] + med["service.direct_ms"]
    untraced = statistics.median(s["e2e_s"])
    values = {
        "sparse.gen_ms": ms("sparse.gen_ms"), "sparse.nnz": c["nnz"],
        "workloads.dag_ms": ms("workloads.dag_ms"), "ir.ops": c["ops"],
        "score.setup_ms": ms("score.setup_ms"), "score.slots": c["slots"],
        "score.cells_per_slot": c["cells"] / c["slots"] if c["slots"] else 0.0,
        "access_stream.capture_ms": ms("access_stream.capture_ms"),
        "access_stream.spans": c["stream_spans"],
        "access_stream.materialized_frac":
            c["materialized_steps"] / c["schedule_steps"] if c["schedule_steps"] else 0.0,
        "service.replay_ms": ms("service.replay_ms"),
        "service.direct_ms": ms("service.direct_ms"),
        "service.analytic_ms": ms("service.analytic_ms"),
        "service.lines": c["lines"],
        "service.ns_per_line": serviced_s * 1e9 / c["lines"] if c["lines"] else 0.0,
        "service.replay_frac":
            c["replayed_cells"] / c["trace_driven_cells"] if c["trace_driven_cells"] else 0.0,
        "partition.build_ms": ms("partition.build_ms"),
        "partition.baseline_ms": ms("partition.baseline_ms"),
        "partition.fold_ms": ms("partition.fold_ms"),
        "noc.byte_hops": c["byte_hops"],
        "io.result_ms": ms("io.result_ms"), "io.result_bytes": c["result_bytes"],
        "io.journal_ms": ms("io.journal_ms"), "io.journal_bytes": c["journal_bytes"],
        "trace.overhead_frac": statistics.median(s["traced_e2e_s"]) / untraced - 1.0,
    }
    return values, med


def print_end_to_end(s, e2e, units):
    print(f"workload {s['workload']}  seed {s['seed']}  workers {s['workers']}  "
          f"cells/pass {s['cells']}  passes {len(s['e2e_s'])}  reference "
          f"{'recorded' if s['reference'] else 'first pass (no recorded reference)'}")
    for name, (value, samples) in e2e.items():
        q1, _, q3 = quartiles(samples)
        print(f"  {name:<12} {value:12.6g} {units[name]:<4} (n={len(samples)}, q1 {q1:.6g}, "
              f"q3 {q3:.6g})")
    bad = s["failed"] + s["mismatched"]
    print(f"  {'failed_frac':<12} {bad / s['attempted']:12.6g} {'':<4} "
          f"({s['failed']} failed + {s['mismatched']} mismatched of {s['attempted']} cells)")
    print(f"  simulated Cello over Flexagon, geomean of seconds (context only; the model "
          f"is unvalidated against hardware): {s['cello_over_flexagon']:.4f}x")


def print_layers(s, values, med, units):
    traced = statistics.median(s["traced_e2e_s"])
    print(f"traced pass: {len(s['traced_e2e_s'])} passes, median {traced * 1e3:.3f} ms "
          f"(untraced single-worker median {statistics.median(s['e2e_s']) * 1e3:.3f} ms); "
          f"cells identical to the untraced result file: {s['traced_identical']}")
    print(f"  {'layer self time':<28} {'ms':>12} {'share':>8}")
    for layer, sec in sorted(med.items(), key=lambda kv: -kv[1]):
        if layer != "unaccounted":
            print(f"  {layer:<28} {sec * 1e3:12.4f} {sec / traced:8.2%}")
    rest = med["unaccounted"]
    print(f"  {'unaccounted (benchmark glue)':<28} {rest * 1e3:12.4f} {rest / traced:8.2%}")
    for name, value in values.items():
        print(f"  {name:<32} {value:16.6g} {units[name]}")


def measure(workload, seed, seconds, trace, quiet=False):
    spec = load_spec()
    s, rss = run_bench(workload, seed, seconds, trace, min_passes=2 if trace else 3)
    correct = (s["failed"] == 0 and s["mismatched"] == 0 and s["trace_ok"]
               and s.get("traced_identical", True))
    result = {"correct": correct, "attempted": s["attempted"],
              "failed": s["failed"] + s["mismatched"], "metrics": {}}
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    if trace:
        values, med = per_layer(s)
        if not quiet:
            print_layers(s, values, med, declared)
    else:
        e2e = end_to_end(s, rss)
        if not quiet:
            print_end_to_end(s, e2e, declared)
        values = {k: v for k, (v, _) in e2e.items()}
    if set(values) != set(declared):
        fail(f"metrics {sorted(values)} do not match BENCHMARK.json's {sorted(declared)}")
    result["metrics"] = {k: {"value": v, "unit": declared[k]} for k, v in values.items()}
    return result


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def steadiness(args):
    spec = load_spec()
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    workloads = args.workload or list(WORKLOADS)
    seeds = [args.seed + i for i in range(args.steadiness)]
    runs = {}
    for w in workloads:
        runs[w] = {}
        for seed in seeds:
            r = measure(w, seed, seconds, False, quiet=True)
            if not r["correct"]:
                fail(f"{w} seed {seed}: outputs failed the correctness check")
            for name, m in r["metrics"].items():
                runs[w].setdefault(name, []).append(m["value"])
            print(f"{w} seed {seed}: " + ", ".join(
                f"{k}={m['value']:.6g}" for k, m in r["metrics"].items()), flush=True)
    base = None
    if args.baseline:
        with open(args.baseline) as f:
            base = json.load(f)
    worst = "steady"
    print(f"\n{'workload':<10} {'metric':<12} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}  verdict")
    for w, metrics in runs.items():
        for name, values in metrics.items():
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds[name]["bound"]
            if name == "setup_s":
                verdict = "spread not gated"
            elif spread < bound / 3:
                verdict = "steady (< bound/3)"
            elif spread <= bound:
                verdict = "within bound"
                worst = "within bound" if worst == "steady" else worst
            else:
                verdict = "OVER BOUND"
                worst = "over"
            if base and name in base.get(w, {}):
                bmed = statistics.median(base[w][name])
                change = (med - bmed) / bmed if bmed else 0.0
                worse = change if bounds[name]["better"] == "lower" else -change
                verdict += f"; vs baseline {change:+.2%}"
                if worse > bound:
                    verdict += " WORSE THAN BOUND"
                    worst = "over"
            print(f"{w:<10} {name:<12} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.2%} "
                  f"{bound:6.2f}  {verdict}")
    if args.save:
        with open(args.save, "w") as f:
            json.dump(runs, f, indent=1)
    print(f"\noverall: {worst}")
    return 0 if worst != "over" else 1


def record():
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    for w in WORKLOADS:
        seeds = RECORDED_SEEDS[:1] if w in SEED_INDEPENDENT else RECORDED_SEEDS
        for seed in seeds:
            name = f"{w}.txt" if w in SEED_INDEPENDENT else f"{w}.seed{seed}.txt"
            s, _ = run_bench(w, seed, 0, False, min_passes=1,
                              record=os.path.join(REFERENCE_DIR, name))
            if s["failed"] or s["mismatched"]:
                fail(f"{w} seed {seed}: not recording a reference from failing cells")
            print(f"recorded {name} ({s['cells']} cells)")
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", action="append", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--steadiness", type=int, metavar="N",
                   help="run each workload N times (seeds --seed, --seed+1, ...)")
    p.add_argument("--save", help="steadiness: write the raw values here")
    p.add_argument("--baseline", help="steadiness: compare medians with this --save file")
    p.add_argument("--record", action="store_true",
                   help="rewrite the reference digests under e2ebench/reference/")
    args = p.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")
    build()
    if args.record:
        return record()
    if args.steadiness:
        return steadiness(args)
    if not args.workload or len(args.workload) != 1:
        fail("give exactly one --workload")
    seconds = args.seconds if args.seconds is not None else load_spec()["run_seconds"]
    result = measure(args.workload[0], args.seed, seconds, args.trace == 1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
