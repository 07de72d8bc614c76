#!/usr/bin/env python3
"""Compare two sets of Google Benchmark JSON snapshots.

Usage:
    compare_bench_json.py OLD NEW [--threshold X] [--strict]

OLD and NEW are either single --benchmark_out JSON files or directories
searched recursively for BENCH_*.json (the names the CI bench-smoke step
emits). Benchmarks are matched by full name (including args, e.g.
"BM_SessionPush/sessions:100000/real_time"); for each match the script
prints old/new wall time and the ratio, and flags entries whose slowdown
exceeds --threshold (default 1.25x).

A name's wall time is the median over its repetitions (every iteration
row under that name, e.g. from --benchmark_repetitions). A snapshot
written with --benchmark_report_aggregates_only has no iteration rows;
its "median" aggregate rows are read under their run_name instead. Other
aggregates (mean, stddev, cv) are ignored.

Benchmarks present in only one snapshot get an explicit added/removed
section. Removed benches (in OLD but not NEW) always exit 1: a bench
that silently disappears is lost coverage, not a timing trend, so it
must not pass unnoticed even in advisory mode. Added benches are
informational.

Beyond that, exit status is 0 unless --strict is given, in which case
flagged regressions (or an empty intersection) also exit 1. CI runs
without --strict: smoke-budget timings are trend indicators, not gates,
and the comparison step is continue-on-error anyway so a missing
artifact never blocks a merge.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path


def load_benchmarks(root):
    """Returns {benchmark name: median real_time in ns} across all snapshots.

    Iteration rows of one name are its repetitions; a name with none falls
    back to its "median" aggregate rows.
    """
    root = Path(root)
    if root.is_dir():
        files = sorted(root.rglob("BENCH_*.json"))
    else:
        files = [root]
    repetitions = {}
    medians = {}
    for path in files:
        try:
            doc = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as err:
            print(f"warning: skipping {path}: {err}", file=sys.stderr)
            continue
        for bench in doc.get("benchmarks", []):
            name = bench.get("name")
            rows = repetitions
            if bench.get("run_type") == "aggregate":
                # Only the median aggregate stands in for repetitions.
                if bench.get("aggregate_name") != "median":
                    continue
                name = bench.get("run_name")
                rows = medians
            time = bench.get("real_time")
            if name is None or time is None:
                continue
            unit = bench.get("time_unit", "ns")
            scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}.get(unit)
            if scale is None:
                print(f"warning: {name}: unknown unit {unit}", file=sys.stderr)
                continue
            rows.setdefault(name, []).append(time * scale)
    for name, times in medians.items():
        repetitions.setdefault(name, times)
    return {name: statistics.median(times)
            for name, times in repetitions.items()}


def format_ns(ns):
    for unit, scale in (("s", 1e9), ("ms", 1e6), ("us", 1e3)):
        if ns >= scale:
            return f"{ns / scale:.2f}{unit}"
    return f"{ns:.0f}ns"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", help="baseline JSON file or directory")
    parser.add_argument("new", help="candidate JSON file or directory")
    parser.add_argument(
        "--threshold",
        type=float,
        default=1.25,
        help="flag benchmarks slower than this ratio (default 1.25)",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="exit 1 on flagged regressions or no comparable benchmarks",
    )
    args = parser.parse_args()

    old = load_benchmarks(args.old)
    new = load_benchmarks(args.new)
    common = sorted(set(old) & set(new))
    removed = sorted(set(old) - set(new))
    added = sorted(set(new) - set(old))

    flagged = []
    if common:
        width = max(len(name) for name in common)
        print(f"{'benchmark':<{width}}  {'old':>10}  {'new':>10}  ratio")
        for name in common:
            ratio = new[name] / old[name] if old[name] > 0 else float("inf")
            marker = ""
            if ratio > args.threshold:
                marker = "  <-- regression"
                flagged.append((name, ratio))
            print(
                f"{name:<{width}}  {format_ns(old[name]):>10}  "
                f"{format_ns(new[name]):>10}  {ratio:5.2f}x{marker}"
            )
    else:
        print("no comparable benchmarks between the two snapshots")

    # Coverage drift, listed explicitly so it can never hide in a diff of
    # timing rows. Removed benches are a hard failure whatever the mode.
    if added:
        print(f"\nadded ({len(added)} benchmark(s) only in new):")
        for name in added:
            print(f"  + {name}")
    if removed:
        print(f"\nremoved ({len(removed)} benchmark(s) only in old):")
        for name in removed:
            print(f"  - {name}")

    if flagged:
        print(
            f"\n{len(flagged)} benchmark(s) slower than "
            f"{args.threshold:.2f}x the baseline"
        )
    elif common:
        print(f"\nno regressions beyond {args.threshold:.2f}x")

    if removed:
        print(
            f"error: {len(removed)} benchmark(s) disappeared from the new "
            "snapshot — a dropped bench is lost coverage, not a trend",
            file=sys.stderr,
        )
        return 1
    if args.strict and (flagged or not common):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
