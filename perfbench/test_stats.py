"""Self-tests of the benchmark's own arithmetic.  run.py runs them before
every measurement; run them alone with

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import unittest

import run
import stats


class TailRule(unittest.TestCase):
    def test_ten_samples_beyond(self):
        values = list(range(1, 101))  # 100 samples
        value, pct, n = stats.tail(values)
        self.assertEqual((value, pct, n), (90, 90.0, 100))
        self.assertEqual(sum(v > value for v in values), 10)

    def test_order_does_not_matter(self):
        values = [5, 1, 4, 2, 3, 9, 8, 7, 6, 10, 11, 12, 13, 14, 15, 16,
                  17, 18, 19, 20]
        value, pct, n = stats.tail(values)
        self.assertEqual((value, pct, n), (10, 50.0, 20))

    def test_smallest_sample_that_has_a_tail(self):
        self.assertIsNone(stats.tail(list(range(10))))
        value, pct, n = stats.tail(list(range(11)))
        self.assertEqual((value, n), (0, 11))
        self.assertAlmostEqual(pct, 100.0 / 11)


class BlockTail(unittest.TestCase):
    def test_short_runs_use_the_plain_rule(self):
        values = [float(v) for v in range(150)]
        self.assertEqual(stats.block_tail(values),
                         stats.tail(values) + (1,))

    def test_median_over_blocks(self):
        # Three blocks of 100; their p90s are 89, 189 and 289.
        values = [float(v) for v in range(300)]
        self.assertEqual(stats.block_tail(values), (189.0, 90.0, 100, 3))

    def test_leftover_samples_are_dropped(self):
        # 251 samples make 2 blocks of 125; the last sample is left out.
        values = [float(v) for v in range(250)] + [1e9]
        self.assertEqual(stats.block_tail(values),
                         ((114.0 + 239.0) / 2, 92.0, 125, 2))

    def test_too_few_samples(self):
        self.assertIsNone(stats.block_tail([1.0] * 10))


class SelfTime(unittest.TestCase):
    def test_children_are_subtracted(self):
        spans = {1: (0, 0, 100), 2: (1, 10, 30), 3: (1, 40, 50),
                 4: (2, 12, 20)}
        self.assertEqual(stats.self_times(spans),
                         {1: 70, 2: 12, 3: 10, 4: 8})

    def test_overlapping_children_count_once(self):
        # Two points replayed on two threads under one pass span.
        spans = {1: (0, 0, 100), 2: (1, 10, 60), 3: (1, 30, 80)}
        self.assertEqual(stats.self_times(spans)[1], 30)

    def test_children_are_clipped_to_the_parent(self):
        self.assertEqual(stats.covered([(-5, 5), (95, 120)], 0, 100), 10)


class Ratios(unittest.TestCase):
    def test_full_solve_ratio_base_is_all_classified_solves(self):
        # The zoo grid's counts at the commit that added the benchmark.
        self.assertAlmostEqual(stats.full_solve_ratio(99851, 107871),
                               99851 / 207722)
        self.assertEqual(stats.full_solve_ratio(0, 0), 0.0)

    def test_hit_ratio_base_is_unique_specs(self):
        self.assertEqual(stats.hit_ratio(0, 144, 144), 1.0)
        self.assertEqual(stats.hit_ratio(36, 0, 144), 0.25)
        self.assertEqual(stats.hit_ratio(0, 0, 0), 0.0)


class Calibration(unittest.TestCase):
    def test_scales_by_reference_over_probe(self):
        # A host running at half speed doubles both the pass and the
        # probe; the calibrated time stays the same.
        self.assertAlmostEqual(stats.calibrated(0.5, 0.05, 0.05), 0.5)
        self.assertAlmostEqual(stats.calibrated(1.0, 0.10, 0.05), 0.5)

    def test_a_faster_program_reads_faster(self):
        self.assertLess(stats.calibrated(0.4, 0.05, 0.05),
                        stats.calibrated(0.5, 0.05, 0.05))


class MetricList(unittest.TestCase):
    def test_matches_benchmark_json(self):
        path = os.path.join(run.ROOT, "BENCHMARK.json")
        if not os.path.exists(path):
            self.skipTest("no BENCHMARK.json")
        with open(path) as f:
            spec = json.load(f)
        for key, ours in (("end_to_end", run.END_TO_END),
                          ("per_layer", run.PER_LAYER)):
            declared = {m["name"]: m["unit"] for m in spec[key]}
            self.assertEqual(declared, ours)
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
