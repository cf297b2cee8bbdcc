#!/usr/bin/env python3
"""Compare a microbench_engine JSON report against the checked-in baseline.

Usage:
    tools/check_bench_regression.py CURRENT.json BASELINE.json \
        [--max-regress 0.20]

Both files are google-benchmark ``--benchmark_format=json`` reports.
The check fails (exit 1) when any throughput benchmark
(items_per_second) regresses by more than --max-regress relative to
the baseline, or when any time-per-iteration benchmark slows down by
more than the same fraction.  Improvements never fail.

The tolerance is generous on purpose: the baseline was recorded on one
machine and CI runs on another, so this gate catches structural
regressions (an accidentally quadratic loop, a reintroduced per-event
allocation), not single-digit noise.  MCSCOPE_BENCH_TOLERANCE
overrides --max-regress for especially noisy runners.

Two stricter checks ride on top:

* The engine event hot path (BM_EngineEventThroughput) gets its own
  cap, --hot-max-regress (default 0.02): observability hooks must be
  free when disabled, and a same-machine run against the recorded
  baseline proves it.  MCSCOPE_BENCH_TOLERANCE relaxes this cap too
  (to its value, when larger) so cross-machine CI stays meaningful.

* Within the current report alone, the traced and timeline-sampling
  variants are compared against the untraced run, and the engine run
  with 1024 idle resources against the same run with none.  These
  compare two numbers from the same binary on the same machine, so
  they hold everywhere; the caps keep the enabled cost from exploding
  and per-event cost tied to the dirty closure, not the machine size.
"""

import argparse
import json
import os
import sys

# Benchmarks on the engine's per-event hot path: tracing and timeline
# hooks are compiled in but disabled here, so any slowdown is pure
# observability overhead.  The incremental-solve benches are
# steady-state per-event machinery too, so they share the strict cap.
# Matched on the name before the '/'.
HOT_PATH_BENCHES = {
    "BM_EngineEventThroughput",
    "BM_FairShareSubsetSolve",
    "BM_EngineManyComponents",
    "BM_CoherenceProbe",
}

# (variant, reference, allowed fractional slowdown) triples checked
# within the current report.  The variant runs the same simulated
# workload as the reference with one thing added: an observability
# feature enabled, or resources that no flow touches.
OVERHEAD_PAIRS = [
    ("BM_EngineEventThroughputTraced/1000",
     "BM_EngineEventThroughput/1000", 0.50),
    ("BM_EngineEventThroughputTimeline/1000",
     "BM_EngineEventThroughput/1000", 0.35),
    ("BM_EngineIdleResources/1024", "BM_EngineIdleResources/0", 1.00),
]


class ReportError(Exception):
    """A report file is missing or not a google-benchmark JSON dump."""


def check_build_type(report, path, role):
    """Reject reports recorded from a debug build.

    Debug numbers are meaningless as a performance baseline (asserts,
    no optimization), and comparing against one silently passes every
    gate.  The harness stamps ``mcscope_build_type`` into the report
    context (bench/microbench_engine.cpp); older reports fall back to
    google-benchmark's own ``library_build_type``.  Reports with
    neither key predate the stamp and are accepted as-is.
    """
    context = report.get("context")
    if not isinstance(context, dict):
        return
    build = context.get("mcscope_build_type",
                        context.get("library_build_type"))
    if not isinstance(build, str):
        return
    if "debug" in build.lower():
        raise ReportError(
            f"{role} report '{path}' was recorded from a debug build "
            f"(build type '{build}'); re-record it from a Release "
            "build (cmake -DCMAKE_BUILD_TYPE=Release)")


def load_benchmarks(path, role):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            report = json.load(fh)
    except OSError as err:
        raise ReportError(f"cannot read {role} report '{path}': "
                          f"{err.strerror or err}") from err
    except json.JSONDecodeError as err:
        raise ReportError(f"{role} report '{path}' is not valid JSON "
                          f"(line {err.lineno}: {err.msg}); regenerate "
                          "it with --benchmark_format=json") from err
    if not isinstance(report, dict) or \
            not isinstance(report.get("benchmarks"), list):
        raise ReportError(f"{role} report '{path}' has no 'benchmarks' "
                          "array; it does not look like a "
                          "google-benchmark JSON report")
    check_build_type(report, path, role)
    out = {}
    for bench in report["benchmarks"]:
        if not isinstance(bench, dict) or "name" not in bench:
            raise ReportError(f"{role} report '{path}' contains a "
                              "benchmark entry without a name")
        if bench.get("run_type") == "aggregate":
            continue
        name = bench["name"]
        prev = out.get(name)
        if prev is None:
            out[name] = bench
            continue
        # Repetitions share a name; keep the best run so one noisy
        # repetition cannot fail the gate.
        if bench.get("items_per_second") is not None:
            if bench["items_per_second"] > (prev.get("items_per_second")
                                            or 0.0):
                out[name] = bench
        elif bench.get("real_time") is not None:
            if bench["real_time"] < (prev.get("real_time")
                                     or float("inf")):
                out[name] = bench
    return out


def check_overhead_pairs(current, failures):
    """Within-report checks: each variant's added cost stays bounded."""
    compared = 0
    for variant, reference, cap in OVERHEAD_PAIRS:
        var = current.get(variant)
        ref = current.get(reference)
        if var is None or ref is None:
            continue
        var_ips = var.get("items_per_second")
        ref_ips = ref.get("items_per_second")
        if not var_ips or not ref_ips:
            continue
        compared += 1
        slowdown = ref_ips / var_ips - 1.0
        verdict = "ok" if slowdown <= cap else "REGRESSED"
        print(f"{variant}: {slowdown:+.1%} overhead vs {reference} "
              f"(cap {cap:.0%}) {verdict}")
        if slowdown > cap:
            failures.append(f"{variant}: {slowdown:.1%} overhead over "
                            f"{reference} (cap {cap:.0%})")
    return compared


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("current")
    parser.add_argument("baseline")
    parser.add_argument("--max-regress", type=float, default=0.20,
                        help="allowed fractional regression (default 0.20)")
    parser.add_argument("--hot-max-regress", type=float, default=0.02,
                        help="allowed fractional regression for hot-path "
                             "benchmarks (default 0.02)")
    args = parser.parse_args()

    tolerance = args.max_regress
    env_tol = os.environ.get("MCSCOPE_BENCH_TOLERANCE")
    if env_tol:
        try:
            tolerance = float(env_tol)
        except ValueError:
            print(f"error: MCSCOPE_BENCH_TOLERANCE='{env_tol}' is not "
                  "a number", file=sys.stderr)
            return 2
    hot_tolerance = max(args.hot_max_regress,
                        tolerance if env_tol else 0.0)

    try:
        current = load_benchmarks(args.current, "current")
        baseline = load_benchmarks(args.baseline, "baseline")
    except ReportError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    failures = []
    compared = 0
    for name, base in sorted(baseline.items()):
        cur = current.get(name)
        if cur is None:
            failures.append(f"{name}: present in baseline but not in "
                            "the current report")
            continue
        tol = (hot_tolerance
               if name.split("/")[0] in HOT_PATH_BENCHES else tolerance)
        base_ips = base.get("items_per_second")
        cur_ips = cur.get("items_per_second")
        if base_ips and cur_ips:
            compared += 1
            ratio = cur_ips / base_ips
            verdict = "ok" if ratio >= 1.0 - tol else "REGRESSED"
            print(f"{name}: {cur_ips:.3e} vs baseline {base_ips:.3e} "
                  f"items/s ({ratio:.2f}x) {verdict}")
            if ratio < 1.0 - tol:
                failures.append(f"{name}: throughput {ratio:.2f}x of "
                                f"baseline (floor {1.0 - tol:.2f}x)")
            continue
        base_t = base.get("real_time")
        cur_t = cur.get("real_time")
        if base_t and cur_t:
            compared += 1
            ratio = cur_t / base_t
            verdict = "ok" if ratio <= 1.0 + tol else "REGRESSED"
            print(f"{name}: {cur_t:.1f} vs baseline {base_t:.1f} "
                  f"{base.get('time_unit', 'ns')} ({ratio:.2f}x) {verdict}")
            if ratio > 1.0 + tol:
                failures.append(f"{name}: {ratio:.2f}x slower than "
                                f"baseline (cap {1.0 + tol:.2f}x)")

    compared += check_overhead_pairs(current, failures)

    if compared == 0:
        print("error: no comparable benchmarks found", file=sys.stderr)
        return 1
    if failures:
        print(f"\n{len(failures)} benchmark regression(s):",
              file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print(f"\nall {compared} compared benchmarks within "
          f"{tolerance:.0%} of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
