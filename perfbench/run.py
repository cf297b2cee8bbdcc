#!/usr/bin/env python3
"""End-to-end benchmark of mcscope on the zoo batch grid.

    python3 perfbench/run.py --workload zoo-cold --seed 0 --seconds 30 --trace 0

Builds perfbench_harness (a Release build of src/ plus harness.cc) under
.bench_build/, runs one workload for --seconds, checks every output and
prints each metric by name with its unit.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics (the
end-to-end metrics with --trace 0, the per-layer ones with --trace 1).
The exit code is 0 only when every check passed.  See README.md for the
workloads, the metrics and what each should move.
"""

import argparse
import ctypes
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
import unittest

sys.dont_write_bytecode = True  # keep the checkout free of __pycache__
import stats  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
HARNESS = os.path.join(BUILD, "perfbench_harness")

WORKLOADS = ("zoo-cold", "zoo-warm", "zoo-jobs")

# Set-up samples per --trace 0 run: the measuring process plus this
# many processes that only set up.
SETUP_ONLY_RUNS = 4

# Wall-clock budget for everything after the build; a harness still
# running when it is spent is killed and the run fails.
RUN_BUDGET_S = 170

MACHINES = ("longs", "t3-4", "cluster12")

# Times are reported in calibrated seconds: wall seconds scaled by
# PROBE_REF_S over the calibration probe's time next to them (see
# harness.cc), i.e. the seconds the work would take on a host where the
# probe takes PROBE_REF_S.  This takes out the shared host's speed
# changes, which the passes and the probe both follow.  The constant is
# about the probe's median on the reference host; it only sets the
# scale.
PROBE_REF_S = 0.05

# personality(2) flag that turns address-space randomization off.
ADDR_NO_RANDOMIZE = 0x0040000

END_TO_END = {
    "pass_s": "s",
    "pass_s_tail": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Span names the traced replay records, and their metric names.
LAYER_SPANS = {
    "core.plan.parse": "core.plan.parse_s",
    "core.registry.make_workload": "core.registry.make_workload_s",
    "core.scenario.digest": "core.scenario.digest_s",
    "core.runner.lookup": "core.runner.lookup_s",
    "core.runner.store": "core.runner.store_s",
    "machine.build": "machine.build_s",
    "affinity.placement": "affinity.placement_s",
    "simmpi.build_tasks": "simmpi.build_tasks_s",
    "sim.run": "sim.run_s",
    "core.report.render": "core.report.render_s",
}

PER_LAYER = {
    "failed_ratio": "ratio",
    "core.plan.parse_s": "s",
    "core.plan.points": "count",
    "core.plan.unique_specs": "count",
    "core.registry.make_workload_s": "s",
    "core.scenario.digest_s": "s",
    "core.runner.lookup_s": "s",
    "core.runner.disk_hits": "count",
    "core.runner.corrupt": "count",
    "core.runner.hit_ratio": "ratio",
    "core.runner.store_s": "s",
    "core.runner.busy_s": "s",
    "core.runner.cpu_s": "s",
    "core.runner.cpu_over_wall": "ratio",
    "core.runner.busy_over_wall": "ratio",
    "core.runner.speedup_vs_serial": "ratio",
    "core.parallel_for.max_point_s": "s",
    "machine.build_s": "s",
    "affinity.placement_s": "s",
    "affinity.invalid_points": "count",
    "simmpi.build_tasks_s": "s",
    "sim.run_s": "s",
    **{"sim.run_s." + m: "s" for m in MACHINES},
    "sim.events": "count",
    "sim.events_per_s": "1/s",
    "sim.allocator_reruns": "count",
    "sim.incremental_solves": "count",
    "sim.full_solves": "count",
    "sim.full_solve_ratio": "ratio",
    "sim.calqueue_ops": "count",
    "sim.calqueue_resizes": "count",
    "sim.fallback_scans": "count",
    "sim.time_steps": "count",
    "sim.peak_active_flows": "count",
    "core.report.render_s": "s",
    "core.report.bytes": "bytes",
    "trace.overhead_s": "s",
    "host.pass_wall_s": "s",
    "host.probe_s": "s",
    "host.steal_s": "s",
    "host.invol_ctx_switches": "count",
}

# Inputs the benchmark reads from the repository.
INPUTS = ("src/CMakeLists.txt", "machines", "examples/batch_zoo.json",
          "tests/golden/batch_zoo_2006.csv")


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def self_test():
    suite = unittest.defaultTestLoader.loadTestsFromName("test_stats")
    result = unittest.TextTestRunner(stream=sys.stderr, verbosity=0).run(suite)
    return result.wasSuccessful()


def build():
    """Configure once, then let the build tool decide what is stale."""
    os.makedirs(BUILD, exist_ok=True)
    logfile = os.path.join(BUILD, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "perfbench_harness"])
    with open(logfile, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(logfile) as f:
                    log(f.read()[-4000:])
                return False
    return True


def read_samples(path):
    """The harness's per-pass lines, as dicts keyed by the header."""
    with open(path) as f:
        header = next(f).split()
        return [{k: (float(v) if k.endswith("_s") else int(v))
                 for k, v in zip(header, line.split())} for line in f]


def cal(p, key="wall_s"):
    """A pass's time `key` in calibrated seconds."""
    return stats.calibrated(p[key], p["probe_s"], PROBE_REF_S)


def fixed_layout():
    """Run the child with address-space randomization off, so its heap
    and stack start at the same addresses on every run: with it on,
    peak_rss_mb moves by 4% from run to run of one input.  Best effort;
    a kernel that refuses leaves the layout random."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        current = libc.personality(0xffffffff)
        if current != -1:
            libc.personality(current | ADDR_NO_RANDOMIZE)
    except (OSError, AttributeError):
        pass


def harness(args, tag, extra, deadline):
    """Run the harness once in its own work directory, killing it at
    `deadline` (time.monotonic()).  Returns its JSON summary, with the
    per-pass samples under "passes" unless the run only set up; None
    when it failed."""
    work = os.path.join(BUILD, "work", "%d-%s" % (os.getpid(), tag))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    out = os.path.join(work, "out.json")
    samples = os.path.join(work, "samples.tsv")
    cmd = [HARNESS, "--root", ROOT, "--workload", args.workload,
           "--seed", str(args.seed), "--grid", args.grid,
           "--seconds", str(args.seconds), "--work", work,
           "--out", out, "--samples", samples] + extra
    try:
        try:
            proc = subprocess.run(cmd, cwd=ROOT, preexec_fn=fixed_layout,
                                  timeout=max(1.0,
                                              deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            log("harness ran out of time")
            return None
        if proc.returncode != 0:
            log("harness exited with", proc.returncode)
            return None
        with open(out) as f:
            raw = json.load(f)
        if os.path.exists(samples):
            raw["passes"] = read_samples(samples)
        return raw
    finally:
        shutil.rmtree(work, ignore_errors=True)


def read_spans(path):
    """Yield each traced pass's spans as ({id: (parent, start, end)},
    {id: (name, point)}); the harness writes them grouped by pass."""
    current, timing, meta = None, {}, {}
    with open(path) as f:
        next(f)
        for line in f:
            p, sid, parent, name, point, start, end = line.split("\t")
            if p != current and timing:
                yield timing, meta
                timing, meta = {}, {}
            current = p
            timing[int(sid)] = (int(parent), int(start), int(end))
            meta[int(sid)] = (name, int(point))
    if timing:
        yield timing, meta


def layer_self_times(spans_path, specs, traced):
    """Median over traced passes of each layer's summed self time, in
    calibrated seconds; `traced` are the traced passes' samples, in the
    order the spans file has them."""
    per_pass = []
    for (timing, meta), sample in zip(read_spans(spans_path), traced):
        sums = {}
        for sid, self_ns in stats.self_times(timing).items():
            name, point = meta[sid]
            sums[name] = sums.get(name, 0) + self_ns
            if name == "sim.run":
                key = "sim.run." + specs[point]["machine"].lower()
                sums[key] = sums.get(key, 0) + self_ns
        per_pass.append({n: stats.calibrated(v, sample["probe_s"],
                                             PROBE_REF_S)
                         for n, v in sums.items()})
    names = set(LAYER_SPANS) | {"sim.run." + m for m in MACHINES}
    return {n: stats.median([p.get(n, 0) for p in per_pass]) * 1e-9
            for n in names}


def check_golden(csv_text):
    """Rows of the zoo CSV that the 2006 golden CSV also has (same
    machine, workload, impl, sublayer and ranks) must match it.
    Returns (rows compared, rows differing)."""
    path = os.path.join(ROOT, "tests", "golden", "batch_zoo_2006.csv")
    with open(path) as f:
        golden = f.read().splitlines()
    lines = csv_text.splitlines()
    if not golden or not lines or golden[0] != lines[0]:
        return 0, 1
    key = lambda row: tuple(row.split(",")[:5])
    want = {key(r): r for r in golden[1:]}
    compared = differing = 0
    for row in lines[1:]:
        if key(row) in want:
            compared += 1
            differing += row != want[key(row)]
    return compared, differing


def check_reference(args, csv_text):
    """The reference CSV against tests/golden and, on the zoo grid,
    against perfbench/reference.json: seed 0 byte for byte, any seed as
    its sorted rows.  Returns a list of problems."""
    problems = []
    compared, differing = check_golden(csv_text)
    if differing:
        problems.append("%d of %d golden Longs rows differ"
                        % (differing, compared))
    if args.grid != "zoo":
        return problems
    with open(os.path.join(HERE, "reference.json")) as f:
        ref = json.load(f)
    sha = lambda s: hashlib.sha256(s.encode()).hexdigest()
    lines = csv_text.splitlines()
    rows = "\n".join(lines[:1] + sorted(lines[1:])) + "\n"
    if sha(rows) != ref["zoo_rows_sha256"]:
        problems.append("zoo CSV rows differ from reference.json")
    if args.seed == 0 and sha(csv_text) != ref["zoo_csv_sha256"]:
        problems.append("zoo CSV bytes differ from reference.json")
    if compared != ref["golden_rows"]:
        problems.append("compared %d golden Longs rows, want %d"
                        % (compared, ref["golden_rows"]))
    return problems


def end_to_end(passes, setups, raw):
    own = [cal(p) for p in passes
           if not p["traced"] and p["jobs"] == raw["jobs"]]
    tail = stats.block_tail(own)
    return {
        "pass_s": stats.median(own),
        "pass_s_tail": tail[0],
        "setup_s": stats.median(setups),
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
    }, ("pass_s_tail is p%.1f of %d-pass blocks, median over %d blocks;"
        " setup_s is the median of %d set-ups; calibrated seconds"
        " (probe %.1f ms = %.1f ms), raw pass median %.6f s"
        % (tail[1], tail[2], tail[3], len(setups),
           1e3 * stats.median([p["probe_s"] for p in passes]),
           1e3 * PROBE_REF_S, stats.median(
               [p["wall_s"] for p in passes
                if not p["traced"] and p["jobs"] == raw["jobs"]])))


# Engine counters each traced pass sums over its points.
COUNTS = ("events", "allocator_reruns", "incremental_solves", "full_solves",
          "calqueue_ops", "calqueue_resizes", "fallback_scans", "time_steps",
          "peak_active_flows", "invalid_points")


def per_layer(args, passes, raw, spans_path, failed_ratio):
    jobs = raw["jobs"]
    own = [p for p in passes if not p["traced"] and p["jobs"] == jobs]
    serial = [p for p in passes if not p["traced"] and p["jobs"] == 1]
    traced = [p for p in passes if p["traced"]]
    med = lambda key, ps=own: stats.median([cal(p, key) for p in ps])
    pass_s = med("wall_s")
    counts = traced[0]
    layers = layer_self_times(spans_path, raw["specs"], traced)
    m = {
        "failed_ratio": failed_ratio,
        "core.plan.points": raw["points"],
        "core.plan.unique_specs": raw["unique_specs"],
        "core.runner.disk_hits": min(p["disk_hits"] for p in own),
        "core.runner.corrupt": max(p["corrupt"] for p in own),
        "core.runner.hit_ratio": stats.median(
            [stats.hit_ratio(p["memory_hits"], p["disk_hits"],
                             p["unique_specs"]) for p in own]),
        "core.runner.busy_s": med("busy_s"),
        "core.runner.cpu_s": med("cpu_s"),
        "core.runner.cpu_over_wall": stats.median(
            [p["cpu_s"] / p["wall_s"] for p in own]),
        "core.runner.busy_over_wall": stats.median(
            [p["busy_s"] / p["wall_s"] for p in own]),
        # Serial workloads are their own serial baseline.
        # Wall times: the probe is threaded like the workload, so it
        # calibrates the threaded passes, not the serial ones beside them.
        "core.runner.speedup_vs_serial":
            stats.median([p["wall_s"] for p in serial]) /
            stats.median([p["wall_s"] for p in own]) if jobs > 1 else 1.0,
        "core.parallel_for.max_point_s": med("max_point_s"),
        "affinity.invalid_points": counts["invalid_points"],
        "sim.events": counts["events"],
        "sim.events_per_s": stats.ratio(counts["events"],
                                        layers["sim.run"]),
        "sim.allocator_reruns": counts["allocator_reruns"],
        "sim.incremental_solves": counts["incremental_solves"],
        "sim.full_solves": counts["full_solves"],
        "sim.full_solve_ratio": stats.full_solve_ratio(
            counts["full_solves"], counts["incremental_solves"]),
        "sim.calqueue_ops": counts["calqueue_ops"],
        "sim.calqueue_resizes": counts["calqueue_resizes"],
        "sim.fallback_scans": counts["fallback_scans"],
        "sim.time_steps": counts["time_steps"],
        "sim.peak_active_flows": counts["peak_active_flows"],
        "core.report.bytes": own[0]["csv_bytes"],
        "trace.overhead_s": med("wall_s", traced) - pass_s,
        "host.pass_wall_s": stats.median([p["wall_s"] for p in own]),
        "host.probe_s": stats.median([p["probe_s"] for p in passes]),
        "host.steal_s": raw["steal_s"],
        "host.invol_ctx_switches": raw["invol_ctx_switches"],
    }
    for span, metric in LAYER_SPANS.items():
        m[metric] = layers[span]
    for machine in MACHINES:
        m["sim.run_s." + machine] = layers["sim.run." + machine]
    # zoo-warm stores only while set-up populates the disk cache.
    if args.workload == "zoo-warm":
        m["core.runner.store_s"] = stats.calibrated(
            raw["setup_store_s"], raw["setup_probe_s"], PROBE_REF_S)
    return m


def noise_report(passes, raw):
    """Host-noise flags: steal time, involuntary switches, serial passes
    that got less than 90% of a CPU, and threaded passes that kept fewer
    than 1.5 CPUs busy (the bimodal --jobs slowdown)."""
    serial = [p for p in passes if p["jobs"] == 1]
    threaded = [p for p in passes if p["jobs"] > 1]
    off_cpu = sum(p["cpu_s"] < 0.9 * p["wall_s"] for p in serial)
    stacked = sum(p["cpu_s"] < 1.5 * p["wall_s"] for p in threaded)
    steal_share = stats.ratio(raw["steal_s"],
                              raw["window_s"] * max(1, raw["nproc"]))
    noisy = (steal_share > 0.02 or off_cpu > 0.1 * len(serial) or
             stacked > 0.1 * len(threaded))
    line = ("host: cpu %.3f s over a %.3f s window, steal %.3f s (%.1f%% of"
            " host CPU), %d involuntary switches, %d/%d serial passes below"
            " 90%% CPU" % (raw["cpu_s"], raw["window_s"], raw["steal_s"],
                           100 * steal_share, raw["invol_ctx_switches"],
                           off_cpu, len(serial)))
    if threaded:
        line += (", %d/%d threaded passes below 1.5 CPUs"
                 % (stacked, len(threaded)))
    return line + (" -- NOISY, treat as a host episode" if noisy else "")


def main():
    # A SIGTERM unwinds like an exception, so subprocess.run kills and
    # waits for a harness that is still running.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0,
                    help="0 is the canonical zoo grid")
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--grid", choices=("zoo", "heldout"), default="zoo",
                    help="heldout draws 4 registry workloads from --seed")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    missing = [p for p in INPUTS if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        log("perfbench: missing repository inputs:", ", ".join(missing))
        return 2
    if not self_test():
        log("perfbench: self-tests failed")
        return 2
    if not build():
        log("perfbench: build failed")
        return 2

    deadline = time.monotonic() + RUN_BUDGET_S
    setups = []
    if not args.trace:
        for k in range(SETUP_ONLY_RUNS):
            raw = harness(args, "setup%d" % k, ["--setup-only"], deadline)
            if raw is None:
                return 2
            setups.append(stats.calibrated(raw["setup_s"],
                                           raw["setup_probe_s"], PROBE_REF_S))
    spans_dir = os.path.join(BUILD, "traces")
    os.makedirs(spans_dir, exist_ok=True)
    # One file per workload, replaced by its next traced run.
    spans_path = os.path.join(spans_dir, args.workload + ".spans.tsv")
    extra = ["--trace", str(args.trace)]
    if args.trace:
        extra += ["--spans", spans_path]
    raw = harness(args, "main", extra, deadline)
    if raw is None:
        return 2
    setups.append(stats.calibrated(raw["setup_s"], raw["setup_probe_s"],
                                   PROBE_REF_S))
    passes = raw["passes"]

    failed, attempted = int(raw["failed"]), int(raw["attempted"])
    problems = list(raw["failures"])
    for problem in check_reference(args, raw["reference_csv"]):
        problems.append(problem)
        failed += int(raw["points"])
    attempted += int(raw["points"])  # the reference checks

    if args.trace:
        traced = [[p[c] for c in COUNTS] for p in passes if p["traced"]]
        if any(t != traced[0] for t in traced):
            problems.append("engine counters differ between traced passes")
            failed += int(raw["points"])
        metrics = per_layer(args, passes, raw, spans_path,
                            stats.ratio(failed, attempted))
        units, note = PER_LAYER, "spans: " + os.path.relpath(spans_path, ROOT)
    else:
        metrics, note = end_to_end(passes, setups, raw)
        units = END_TO_END

    print("perfbench %s seed %d grid %s (%s): %d points, %d unique, jobs %d"
          % (args.workload, args.seed, args.grid,
             ", ".join(json.loads(raw["batch"])["workloads"]), raw["points"],
             raw["unique_specs"], raw["jobs"]))
    for name, unit in units.items():
        print("  %-34s %16.9g %s" % (name, metrics[name], unit))
    print(note)
    print(noise_report(passes, raw))
    print("checks: %d of %d points failed" % (failed, attempted))
    for problem in problems:
        print("  FAIL", problem)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": u}
                    for n, u in units.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
