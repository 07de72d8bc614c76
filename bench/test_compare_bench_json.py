#!/usr/bin/env python3
"""Self-test for compare_bench_json.py.

Pytest-style (plain `test_*` functions with bare asserts) so `pytest
bench/` picks it up where available, but runnable standalone —
`python3 bench/test_compare_bench_json.py` — which is how the CI
bench-smoke leg invokes it, since the runners carry no pytest.

The contract under test: unit scaling, the median over repetitions and
the median-aggregate fallback in load_benchmarks, and the exit-code
policy — removed benches always fail, regressions fail only under
--strict, added benches never fail.
"""

import contextlib
import importlib.util
import io
import json
import sys
import tempfile
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "compare_bench_json", Path(__file__).parent / "compare_bench_json.py"
)
compare = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare)


def _write_snapshot(directory, name, benches):
    """Writes one BENCH_<name>.json with [(bench name, ns, unit, run_type)]."""
    doc = {
        "benchmarks": [
            {"name": n, "real_time": t, "time_unit": u, "run_type": r}
            for (n, t, u, r) in benches
        ]
    }
    path = Path(directory) / f"BENCH_{name}.json"
    path.write_text(json.dumps(doc))
    return path


def _run_main(old_dir, new_dir, *extra):
    """Runs compare.main() on two directories; returns (exit code, stdout)."""
    argv = sys.argv
    sys.argv = ["compare_bench_json.py", str(old_dir), str(new_dir), *extra]
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = compare.main()
    finally:
        sys.argv = argv
    return code, out.getvalue()


def test_load_benchmarks_scales_units_and_skips_aggregates():
    with tempfile.TemporaryDirectory() as d:
        _write_snapshot(
            d,
            "units",
            [
                ("BM_ns", 10.0, "ns", "iteration"),
                ("BM_us", 2.0, "us", "iteration"),
                ("BM_ms", 3.0, "ms", "iteration"),
                ("BM_mean", 99.0, "ns", "aggregate"),  # must be skipped
            ],
        )
        loaded = compare.load_benchmarks(d)
    assert loaded == {"BM_ns": 10.0, "BM_us": 2000.0, "BM_ms": 3000000.0}


def test_repetitions_load_as_their_median():
    # Three repetitions of one bench (e.g. --benchmark_repetitions=3): the
    # median, not the last row, stands for the bench. Aggregate rows that
    # Google Benchmark appends after them change nothing.
    with tempfile.TemporaryDirectory() as d:
        _write_snapshot(
            d,
            "reps",
            [
                ("BM_a", 100.0, "ns", "iteration"),
                ("BM_a", 200.0, "ns", "iteration"),
                ("BM_a", 900.0, "ns", "iteration"),
                ("BM_a_mean", 400.0, "ns", "aggregate"),
            ],
        )
        loaded = compare.load_benchmarks(d)
    assert loaded == {"BM_a": 200.0}, loaded


def test_aggregates_only_snapshot_reads_its_medians():
    # --benchmark_report_aggregates_only writes no iteration rows: each
    # bench is its "median" row under the run name, so it compares against
    # a plain snapshot instead of reading as removed.
    doc = {
        "benchmarks": [
            {"name": f"BM_a_{agg}", "run_name": "BM_a", "real_time": t,
             "time_unit": "us", "run_type": "aggregate",
             "aggregate_name": agg}
            for agg, t in (("mean", 3.0), ("median", 2.0), ("stddev", 0.5),
                           ("cv", 0.1))
        ]
    }
    with tempfile.TemporaryDirectory() as old, \
            tempfile.TemporaryDirectory() as new:
        _write_snapshot(old, "x", [("BM_a", 2000.0, "ns", "iteration")])
        (Path(new) / "BENCH_x.json").write_text(json.dumps(doc))
        assert compare.load_benchmarks(new) == {"BM_a": 2000.0}
        code, out = _run_main(old, new, "--strict")
    assert code == 0, out
    assert "removed" not in out, out


def test_identical_snapshots_pass():
    rows = [("BM_a", 100.0, "ns", "iteration"), ("BM_b", 5.0, "us", "iteration")]
    with tempfile.TemporaryDirectory() as old, \
            tempfile.TemporaryDirectory() as new:
        _write_snapshot(old, "x", rows)
        _write_snapshot(new, "x", rows)
        code, out = _run_main(old, new, "--strict")
    assert code == 0, out
    assert "no regressions" in out


def test_removed_bench_fails_even_without_strict():
    with tempfile.TemporaryDirectory() as old, \
            tempfile.TemporaryDirectory() as new:
        _write_snapshot(
            old,
            "x",
            [
                ("BM_kept", 100.0, "ns", "iteration"),
                ("BM_dropped", 100.0, "ns", "iteration"),
            ],
        )
        _write_snapshot(new, "x", [("BM_kept", 100.0, "ns", "iteration")])
        code, out = _run_main(old, new)
    assert code == 1, out
    assert "removed (1 benchmark(s) only in old):" in out
    assert "- BM_dropped" in out


def test_added_bench_is_reported_but_passes():
    with tempfile.TemporaryDirectory() as old, \
            tempfile.TemporaryDirectory() as new:
        _write_snapshot(old, "x", [("BM_kept", 100.0, "ns", "iteration")])
        _write_snapshot(
            new,
            "x",
            [
                ("BM_kept", 100.0, "ns", "iteration"),
                ("BM_new", 100.0, "ns", "iteration"),
            ],
        )
        code, out = _run_main(old, new, "--strict")
    assert code == 0, out
    assert "added (1 benchmark(s) only in new):" in out
    assert "+ BM_new" in out


def test_regression_fails_only_under_strict():
    with tempfile.TemporaryDirectory() as old, \
            tempfile.TemporaryDirectory() as new:
        _write_snapshot(old, "x", [("BM_slow", 100.0, "ns", "iteration")])
        _write_snapshot(new, "x", [("BM_slow", 200.0, "ns", "iteration")])
        advisory, out = _run_main(old, new)
        strict, _ = _run_main(old, new, "--strict")
    assert advisory == 0, out
    assert strict == 1
    assert "<-- regression" in out


def test_empty_intersection_fails_only_under_strict():
    with tempfile.TemporaryDirectory() as old, \
            tempfile.TemporaryDirectory() as new:
        _write_snapshot(old, "x", [])
        _write_snapshot(new, "x", [("BM_only_new", 1.0, "ns", "iteration")])
        advisory, out = _run_main(old, new)
        strict, _ = _run_main(old, new, "--strict")
    assert advisory == 0, out
    assert strict == 1
    assert "no comparable benchmarks" in out


def main():
    tests = [
        (name, fn)
        for name, fn in sorted(globals().items())
        if name.startswith("test_") and callable(fn)
    ]
    failures = 0
    for name, fn in tests:
        try:
            fn()
            print(f"PASS {name}")
        except AssertionError as err:
            failures += 1
            print(f"FAIL {name}: {err}")
    print(f"{len(tests) - failures}/{len(tests)} passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
