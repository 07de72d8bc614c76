#!/usr/bin/env python3
"""Entry point of the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first call configures and builds the
dhmm library and the benchmark binary (perfbench/CMakeLists.txt) into the
directory named by $CARGO_TARGET_DIR, default .bench_build; later calls only
re-check the build. The binary runs one workload, checks every output
against its oracle, and prints one JSON result as the last line of standard
output. This script checks that result against BENCHMARK.json (every metric
of the mode present, with its unit) and exits non-zero when it does not hold.

--self-test runs every workload at a tiny size, untraced and traced, and
checks that each metric is present with its unit and that no operation
failed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    for needed in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail("no %s in %s: the library sources are missing" % (needed, ROOT))
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_dir)
    log = sys.stderr
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", BENCH_DIR, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=log, stderr=log)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", build_dir, "-j", jobs, "--target",
         "dhmm_perfbench"],
        check=True, stdout=log, stderr=log)
    return build_dir, os.path.join(build_dir, "dhmm_perfbench")


def run(build_dir, binary, workload, seed, seconds, trace, short=False):
    """Runs one workload; returns (stdout text, parsed result)."""
    workdir = os.path.join(build_dir, "run-%d" % os.getpid())
    shutil.rmtree(workdir, ignore_errors=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--workdir", workdir, "--short", "1" if short else "0"]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              universal_newlines=True, timeout=RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        fail("%s exited with %d" % (workload, proc.returncode))
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("%s printed nothing" % workload)
    return proc.stdout, json.loads(lines[-1])


def check(spec, result, trace):
    """Problems with a result against BENCHMARK.json (empty when none)."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys are %s" % sorted(result))
        return problems
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = result["metrics"]
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None:
            problems.append("metric %s missing" % m["name"])
        elif got.get("unit") != m["unit"]:
            problems.append("metric %s has unit %s, not %s"
                            % (m["name"], got.get("unit"), m["unit"]))
    names = {m["name"] for m in wanted}
    for name in metrics:
        if name not in names:
            problems.append("metric %s is not in BENCHMARK.json" % name)
    if result["attempted"] < 1:
        problems.append("nothing attempted")
    return problems


def self_test(spec, build_dir, binary):
    ok = True
    for workload in spec["workloads"]:
        for trace in (0, 1):
            out, result = run(build_dir, binary, workload["name"], 1, 1,
                              trace, short=True)
            problems = check(spec, result, trace)
            if result.get("failed") != 0 or result.get("correct") is not True:
                problems.append("correct=%s failed=%s" % (
                    result.get("correct"), result.get("failed")))
                problems += [line for line in out.splitlines()
                             if line.startswith("# INVALID")]
            status = "ok" if not problems else "FAIL: " + "; ".join(problems)
            print("self-test %s trace=%d: %s" % (workload["name"], trace,
                                                status))
            ok = ok and not problems
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    build_dir, binary = build()
    spec = load_spec()
    if args.self_test:
        return self_test(spec, build_dir, binary)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail("unknown workload %r (expected one of %s)" % (args.workload, names))
    out, result = run(build_dir, binary, args.workload, args.seed,
                      args.seconds, args.trace)
    sys.stdout.write(out)
    sys.stdout.flush()
    problems = check(spec, result, args.trace)
    if problems:
        fail("; ".join(problems))
    return 0


if __name__ == "__main__":
    sys.exit(main())
