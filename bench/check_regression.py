#!/usr/bin/env python3
"""Fail (exit 1) when benchmark rows regress beyond a tolerance vs a baseline.

    bench/check_regression.py CURRENT.json BASELINE.json [--max-ratio 1.25]
                              [--filter REGEX]
    bench/check_regression.py --current C1.json [C2.json ...]
                              --baseline B1.json [B2.json ...] [...]

Each file is either a raw google-benchmark --benchmark_out file or a
bench/run_bench.sh summary (BENCH_tracesim.json); the checked-in
bench/baseline_tracesim.json uses the summary shape.  When a benchmark was run
with repetitions the median aggregate is used, matching run_bench.sh.  With
several files on a side (e.g. alternated runs of a change and of its parent
on one box), each row's value on that side is the median over the files that
hold it, so one noisy run cannot fail or pass the gate alone.  Rows are matched
by name; only names present on BOTH sides are compared, and at least one
comparison is required (exit 2 otherwise, so a typo'd --filter cannot pass
vacuously).
"""
import argparse
import json
import re
import statistics
import sys

_UNIT_TO_MS = {"ns": 1e-6, "us": 1e-3, "ms": 1.0, "s": 1e3}


def rows_ms(path):
    """name -> real_time in ms, from either supported file shape.

    Unreadable, truncated or shape-drifted files exit 2 with a one-line
    diagnosis: a CI gate must never pass (or spew a traceback) because its
    input was half a file.
    """
    try:
        with open(path) as f:
            doc = json.load(f)
    except OSError as e:
        sys.exit(f"error: cannot read benchmark file '{path}': {e}")
    except json.JSONDecodeError as e:
        sys.exit(f"error: '{path}' is not valid JSON (truncated benchmark run?): {e}")
    if not isinstance(doc, dict):
        sys.exit(f"error: '{path}' is not a benchmark document (top level is "
                 f"{type(doc).__name__}, expected an object)")
    entries = doc.get("benchmarks", [])
    if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
        sys.exit(f"error: '{path}': \"benchmarks\" must be a list of objects")
    try:
        # run_bench.sh summary shape: real_time_ms, one row per benchmark.
        if any("real_time_ms" in e for e in entries):
            return {e["name"]: float(e["real_time_ms"])
                    for e in entries if "real_time_ms" in e}
        # Raw google-benchmark shape: prefer median aggregates when present.
        medians = [e for e in entries
                   if e.get("run_type") == "aggregate" and e.get("aggregate_name") == "median"]
        picked = medians or [e for e in entries
                             if e.get("run_type", "iteration") == "iteration"]
        out = {}
        for e in picked:
            name = e.get("run_name", e["name"])
            out[name] = float(e["real_time"]) * _UNIT_TO_MS[e.get("time_unit", "ns")]
        return out
    except (KeyError, TypeError, ValueError) as e:
        sys.exit(f"error: '{path}': malformed benchmark row: {e!r}")


def side_ms(paths):
    """name -> median real_time in ms over the files (of one side) holding it."""
    values = {}
    for path in paths:
        for name, ms in rows_ms(path).items():
            values.setdefault(name, []).append(ms)
    return {name: statistics.median(v) for name, v in values.items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("files", nargs="*", metavar="CURRENT BASELINE",
                    help="one file per side (the two-file form)")
    ap.add_argument("--current", nargs="+", default=[], metavar="FILE",
                    help="current-side files (medians per row)")
    ap.add_argument("--baseline", nargs="+", default=[], metavar="FILE",
                    help="baseline-side files (medians per row)")
    ap.add_argument("--max-ratio", type=float, default=1.25,
                    help="fail when current/baseline exceeds this (default 1.25 = +25%%)")
    ap.add_argument("--filter", default=None, help="only compare names matching this regex")
    args = ap.parse_args()
    if args.files:
        if len(args.files) != 2 or args.current or args.baseline:
            ap.error("give CURRENT BASELINE, or --current FILE... --baseline FILE...")
        args.current, args.baseline = [args.files[0]], [args.files[1]]
    if not args.current or not args.baseline:
        ap.error("need at least one file on each side")

    current = side_ms(args.current)
    baseline = side_ms(args.baseline)
    pattern = re.compile(args.filter) if args.filter else None
    cur_label = args.current[0] if len(args.current) == 1 else f"{len(args.current)} current files"
    base_label = (args.baseline[0] if len(args.baseline) == 1
                  else f"{len(args.baseline)} baseline files")

    compared, regressions, unbaselined = [], [], []
    for name in sorted(current):
        if pattern and not pattern.search(name):
            continue
        if name not in baseline:
            unbaselined.append(name)
            continue
        ratio = current[name] / baseline[name]
        compared.append((name, current[name], baseline[name], ratio))
        if ratio > args.max_ratio:
            regressions.append(name)

    # New rows are legitimate before a baseline re-recording, but make them
    # visible: an ungated row must never read as a gated one.
    for name in unbaselined:
        print(f"warning: {name} has no baseline row — not gated", file=sys.stderr)

    if not compared:
        print(f"error: no benchmark names shared between {cur_label} and "
              f"{base_label}" + (f" matching /{args.filter}/" if args.filter else ""),
              file=sys.stderr)
        return 2

    width = max(len(n) for n, *_ in compared)
    if len(args.current) > 1 or len(args.baseline) > 1:
        print(f"per-row medians: {cur_label} vs {base_label}")
    for name, cur, base, ratio in compared:
        flag = "  REGRESSION" if name in regressions else ""
        print(f"  {name:<{width}}  {cur:>10.3f} ms  vs baseline {base:>10.3f} ms "
              f"({ratio:.2f}x){flag}")
    if regressions:
        print(f"FAIL: {len(regressions)} row(s) regressed beyond {args.max_ratio:.2f}x: "
              + ", ".join(regressions), file=sys.stderr)
        return 1
    print(f"OK: {len(compared)} row(s) within {args.max_ratio:.2f}x of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
