#!/usr/bin/env python3
"""Unit tests for check_bench_regression.py error handling and gating.

Run directly or via ctest; each case invokes the script as a
subprocess (the way CI does) so the exit codes and the
traceback-free stderr contract are what is actually asserted.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "check_bench_regression.py")


def bench_report(items_per_second, context=None):
    report = {
        "benchmarks": [
            {"name": f"BM_Example/{i}", "run_type": "iteration",
             "items_per_second": ips}
            for i, ips in enumerate(items_per_second)
        ]
    }
    if context is not None:
        report["context"] = context
    return report


class CheckBenchRegressionTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory(prefix="mcscope_bench_")
        self.addCleanup(self.dir.cleanup)

    def path(self, name):
        return os.path.join(self.dir.name, name)

    def write_json(self, name, payload):
        path = self.path(name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        return path

    def write_text(self, name, text):
        path = self.path(name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    def run_check(self, current, baseline, env=None):
        full_env = dict(os.environ)
        full_env.pop("MCSCOPE_BENCH_TOLERANCE", None)
        if env:
            full_env.update(env)
        return subprocess.run(
            [sys.executable, SCRIPT, current, baseline],
            capture_output=True, text=True, env=full_env)

    def assert_clean_error(self, proc, *needles):
        self.assertEqual(proc.returncode, 2, proc.stderr)
        self.assertNotIn("Traceback", proc.stderr)
        self.assertNotIn("Traceback", proc.stdout)
        for needle in needles:
            self.assertIn(needle, proc.stderr)

    def test_identical_reports_pass(self):
        cur = self.write_json("cur.json", bench_report([100.0, 200.0]))
        base = self.write_json("base.json", bench_report([100.0, 200.0]))
        proc = self.run_check(cur, base)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("within", proc.stdout)

    def test_regression_fails_with_exit_one(self):
        cur = self.write_json("cur.json", bench_report([50.0]))
        base = self.write_json("base.json", bench_report([100.0]))
        proc = self.run_check(cur, base)
        self.assertEqual(proc.returncode, 1, proc.stdout)
        self.assertIn("REGRESSED", proc.stdout)

    def test_missing_baseline_is_a_clean_error(self):
        cur = self.write_json("cur.json", bench_report([100.0]))
        proc = self.run_check(cur, self.path("nonexistent.json"))
        self.assert_clean_error(proc, "baseline report",
                                "nonexistent.json")

    def test_missing_current_is_a_clean_error(self):
        base = self.write_json("base.json", bench_report([100.0]))
        proc = self.run_check(self.path("nope.json"), base)
        self.assert_clean_error(proc, "current report", "nope.json")

    def test_malformed_json_is_a_clean_error(self):
        cur = self.write_json("cur.json", bench_report([100.0]))
        base = self.write_text("base.json", "{\"benchmarks\": [,]}")
        proc = self.run_check(cur, base)
        self.assert_clean_error(proc, "not valid JSON",
                                "--benchmark_format=json")

    def test_wrong_shape_is_a_clean_error(self):
        cur = self.write_json("cur.json", bench_report([100.0]))
        base = self.write_json("base.json", [1, 2, 3])
        proc = self.run_check(cur, base)
        self.assert_clean_error(proc, "no 'benchmarks' array")

    def test_nameless_entry_is_a_clean_error(self):
        cur = self.write_json("cur.json", bench_report([100.0]))
        base = self.write_json("base.json",
                               {"benchmarks": [{"items_per_second": 1}]})
        proc = self.run_check(cur, base)
        self.assert_clean_error(proc, "without a name")

    def test_bad_tolerance_env_is_a_clean_error(self):
        cur = self.write_json("cur.json", bench_report([100.0]))
        base = self.write_json("base.json", bench_report([100.0]))
        proc = self.run_check(cur, base,
                              env={"MCSCOPE_BENCH_TOLERANCE": "lots"})
        self.assert_clean_error(proc, "MCSCOPE_BENCH_TOLERANCE")

    def test_tolerance_env_relaxes_the_gate(self):
        cur = self.write_json("cur.json", bench_report([70.0]))
        base = self.write_json("base.json", bench_report([100.0]))
        proc = self.run_check(cur, base,
                              env={"MCSCOPE_BENCH_TOLERANCE": "0.5"})
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)

    def test_debug_current_report_is_a_clean_error(self):
        cur = self.write_json(
            "cur.json",
            bench_report([100.0],
                         context={"mcscope_build_type": "debug"}))
        base = self.write_json("base.json", bench_report([100.0]))
        proc = self.run_check(cur, base)
        self.assert_clean_error(proc, "current report", "debug build",
                                "Release")

    def test_debug_baseline_report_is_a_clean_error(self):
        cur = self.write_json("cur.json", bench_report([100.0]))
        base = self.write_json(
            "base.json",
            bench_report([100.0],
                         context={"library_build_type": "debug"}))
        proc = self.run_check(cur, base)
        self.assert_clean_error(proc, "baseline report", "debug build")

    def test_release_stamped_reports_pass(self):
        ctx = {"mcscope_build_type": "release",
               "library_build_type": "release"}
        cur = self.write_json("cur.json",
                              bench_report([100.0], context=ctx))
        base = self.write_json("base.json",
                               bench_report([100.0], context=ctx))
        proc = self.run_check(cur, base)
        self.assertEqual(proc.returncode, 0, proc.stderr)

    def test_harness_stamp_wins_over_library_stamp(self):
        # A Release harness linked against a debug-built benchmark
        # library is still a valid measurement of mcscope code.
        ctx = {"mcscope_build_type": "release",
               "library_build_type": "debug"}
        cur = self.write_json("cur.json",
                              bench_report([100.0], context=ctx))
        base = self.write_json("base.json", bench_report([100.0]))
        proc = self.run_check(cur, base)
        self.assertEqual(proc.returncode, 0, proc.stderr)

    def idle_resources_report(self, idle0_ips, idle1024_ips):
        return {"benchmarks": [
            {"name": "BM_EngineIdleResources/0", "run_type": "iteration",
             "items_per_second": idle0_ips},
            {"name": "BM_EngineIdleResources/1024",
             "run_type": "iteration", "items_per_second": idle1024_ips},
        ]}

    def test_idle_resources_pair_gates_within_the_report(self):
        # The pair is absent from the baseline: only the within-report
        # ratio judges it, at most 2x slower per item.
        base = self.write_json("base.json", {"benchmarks": []})
        ok = self.write_json("ok.json",
                             self.idle_resources_report(100.0, 60.0))
        proc = self.run_check(ok, base)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        slow = self.write_json("slow.json",
                               self.idle_resources_report(100.0, 40.0))
        proc = self.run_check(slow, base)
        self.assertEqual(proc.returncode, 1, proc.stdout)
        self.assertIn("BM_EngineIdleResources/1024", proc.stderr)

    def test_empty_overlap_is_an_error(self):
        cur = self.write_json("cur.json", {"benchmarks": []})
        base = self.write_json("base.json", {"benchmarks": []})
        proc = self.run_check(cur, base)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("no comparable benchmarks", proc.stderr)


if __name__ == "__main__":
    unittest.main()
