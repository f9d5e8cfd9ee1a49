"""Tests of perf_ab.py's gate arithmetic on synthetic pairs.

    python3 -m unittest discover -s tools -p 'test_*.py'
"""

import math
import unittest

import perf_ab
from perf_ab import Run


def pairs_of(ratios, base_wall=20.0):
    return [(Run(0, True, base_wall), Run(0, True, base_wall * r))
            for r in ratios]


class Gate(unittest.TestCase):
    def test_clear_slowdown_fails(self):
        ratio, lo, hi, problems = perf_ab.verdict(
            pairs_of([1.31, 1.28, 1.30, 1.33, 1.29]))
        self.assertAlmostEqual(ratio, 1.302, places=2)
        self.assertGreater(lo, perf_ab.SLOWDOWN_LIMIT)
        self.assertEqual(len(problems), 1)
        self.assertIn("slower", problems[0])

    def test_noise_around_one_passes(self):
        ratio, lo, hi, problems = perf_ab.verdict(
            pairs_of([1.02, 0.97, 1.01, 0.99, 1.03]))
        self.assertLess(lo, 1.0)
        self.assertGreater(hi, 1.0)
        self.assertEqual(problems, [])

    def test_slowdown_the_pairs_cannot_tell_from_noise_passes(self):
        # Mean 1.24, but one pair at 0.95: the interval reaches below
        # the limit, so the gate does not call it.
        _, lo, _, problems = perf_ab.verdict(
            pairs_of([1.40, 0.95, 1.35, 1.10, 1.45]))
        self.assertLess(lo, perf_ab.SLOWDOWN_LIMIT)
        self.assertEqual(problems, [])

    def test_one_incorrect_run_fails(self):
        pairs = pairs_of([1.0, 1.0, 1.0, 1.0, 1.0])
        pairs[2] = (pairs[2][0], Run(0, False, 20.0))
        ratio, _, _, problems = perf_ab.verdict(pairs)
        self.assertIsNone(ratio)
        self.assertEqual(problems, ["pair 3: head run was incorrect"])

    def test_nonzero_exit_fails(self):
        pairs = pairs_of([1.0, 1.0, 1.0, 1.0, 1.0])
        pairs[0] = (Run(2, False, None), pairs[0][1])
        _, _, _, problems = perf_ab.verdict(pairs)
        self.assertEqual(problems, ["pair 1: base run exited 2"])

    def test_interval_is_the_t_interval_of_the_log_ratios(self):
        ratios = [1.1, 0.9, 1.05, 0.95, 1.0]
        ratio, lo, hi = perf_ab.ratio_interval(ratios)
        logs = [math.log(r) for r in ratios]
        mean = sum(logs) / 5
        sd = math.sqrt(sum((x - mean) ** 2 for x in logs) / 4)
        self.assertAlmostEqual(math.log(ratio), mean)
        self.assertAlmostEqual(math.log(hi) - mean, 2.776 * sd / math.sqrt(5))
        self.assertAlmostEqual(mean - math.log(lo), 2.776 * sd / math.sqrt(5))


if __name__ == "__main__":
    unittest.main()
