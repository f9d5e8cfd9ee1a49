"""Tests of perf_ab.py's gate arithmetic on synthetic pairs.

    python3 -m unittest discover -s tools -p 'test_*.py'
"""

import math
import unittest

import perf_ab
from perf_ab import Run


def pairs_of(ratios, base_wall=20.0, base_rss=200.0, rss_ratio=1.0):
    return [(Run(0, True, base_wall, base_rss),
             Run(0, True, base_wall * r, base_rss * rss_ratio))
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
        pairs[2] = (pairs[2][0], Run(0, False, 20.0, 200.0))
        ratio, _, _, problems = perf_ab.verdict(pairs)
        self.assertIsNone(ratio)
        self.assertEqual(problems, ["pair 3: head run was incorrect"])

    def test_nonzero_exit_fails(self):
        pairs = pairs_of([1.0, 1.0, 1.0, 1.0, 1.0])
        pairs[0] = (Run(2, False, None, None), pairs[0][1])
        _, _, _, problems = perf_ab.verdict(pairs)
        self.assertEqual(problems, ["pair 1: base run exited 2"])

    def test_peak_rss_over_five_percent_fails(self):
        # Equal speed, 6% more memory: the RSS gate alone fails it.
        _, _, _, problems = perf_ab.verdict(
            pairs_of([1.02, 0.97, 1.01, 0.99, 1.03], rss_ratio=1.06))
        self.assertEqual(len(problems), 1)
        self.assertIn("more memory", problems[0])

    def test_peak_rss_within_five_percent_passes(self):
        _, _, _, problems = perf_ab.verdict(
            pairs_of([1.02, 0.97, 1.01, 0.99, 1.03], rss_ratio=1.04))
        self.assertEqual(problems, [])

    def test_peak_rss_gate_uses_medians(self):
        # One head run far above the base does not move the median.
        pairs = pairs_of([1.0, 1.0, 1.0, 1.0, 1.0])
        pairs[1] = (pairs[1][0], Run(0, True, 20.0, 400.0))
        self.assertEqual(perf_ab.rss_medians(pairs), (200.0, 200.0))
        self.assertEqual(perf_ab.verdict(pairs)[3], [])

    def test_missing_peak_rss_fails(self):
        pairs = pairs_of([1.0, 1.0, 1.0, 1.0, 1.0])
        pairs[4] = (pairs[4][0], Run(0, True, 20.0, None))
        ratio, _, _, problems = perf_ab.verdict(pairs)
        self.assertIsNone(ratio)
        self.assertEqual(problems,
                         ["pair 5: head run reported no peak_rss_mb"])

    def test_interval_is_the_t_interval_of_the_log_ratios(self):
        ratios = [1.1, 0.9, 1.05, 0.95, 1.0]
        ratio, lo, hi = perf_ab.ratio_interval(ratios)
        logs = [math.log(r) for r in ratios]
        mean = sum(logs) / 5
        sd = math.sqrt(sum((x - mean) ** 2 for x in logs) / 4)
        self.assertAlmostEqual(math.log(ratio), mean)
        self.assertAlmostEqual(math.log(hi) - mean, 2.776 * sd / math.sqrt(5))
        self.assertAlmostEqual(mean - math.log(lo), 2.776 * sd / math.sqrt(5))


def t_cdf(t, dof, steps=20000):
    """Student t CDF at @p t > 0, by Simpson integration of the density,
    independent of perf_ab's quantile table."""
    c = math.gamma((dof + 1) / 2) / (math.sqrt(dof * math.pi)
                                     * math.gamma(dof / 2))
    pdf = lambda x: c * (1 + x * x / dof) ** (-(dof + 1) / 2)  # noqa: E731
    h = t / steps
    area = pdf(0) + pdf(t) + sum((4 if k % 2 else 2) * pdf(k * h)
                                 for k in range(1, steps))
    return 0.5 + area * h / 3


def synthetic(center, noise):
    """A run_pair for perf_ab.collect: pair i of every workload has the
    head/base ratio center * noise[i % len(noise)]."""
    def run_pair(i):
        ratio = center * noise[i % len(noise)]
        return {w: (Run(0, True, 20.0, 200.0),
                    Run(0, True, 20.0 * ratio, 200.0))
                for w in perf_ab.WORKLOADS}
    return run_pair


class AddedPairs(unittest.TestCase):
    def test_15_percent_slowdown_with_5_percent_noise_fails(self):
        pairs = perf_ab.collect(synthetic(
            1.15, [1.05, 0.95, 1.03, 0.97, 1.0, 1.05, 0.95, 1.01]))
        for w in perf_ab.WORKLOADS:
            ratio, lo, _, problems = perf_ab.verdict(pairs[w])
            self.assertAlmostEqual(ratio, 1.15, places=1)
            self.assertGreater(lo, perf_ab.SLOWDOWN_LIMIT)
            self.assertEqual(len(problems), 1)
            self.assertIn("slower", problems[0])

    def test_2_percent_noise_stops_at_5_pairs_and_passes(self):
        pairs = perf_ab.collect(synthetic(1.0, [1.02, 0.98, 1.01, 0.99,
                                                1.0]))
        for w in perf_ab.WORKLOADS:
            self.assertEqual(len(pairs[w]), perf_ab.MIN_PAIRS)
            ratio, lo, hi, problems = perf_ab.verdict(pairs[w])
            self.assertLessEqual((hi - lo) / 2, perf_ab.HALF_WIDTH * ratio)
            self.assertEqual(problems, [])

    def test_wide_noise_adds_pairs_up_to_the_cap(self):
        pairs = perf_ab.collect(synthetic(1.0, [1.2, 0.8, 1.15, 0.85]))
        for w in perf_ab.WORKLOADS:
            self.assertEqual(len(pairs[w]), perf_ab.MAX_PAIRS)
            self.assertEqual(perf_ab.verdict(pairs[w])[3], [])

    def test_a_failed_run_stops_adding_pairs(self):
        def run_pair(i):
            pair = synthetic(1.0, [1.2, 0.8])(i)
            if i == 1:
                pair["fig06_exact"] = (Run(0, True, 20.0, 200.0),
                                       Run(1, False, None, None))
            return pair
        pairs = perf_ab.collect(run_pair)
        self.assertEqual(len(pairs["fig06_exact"]), 2)
        self.assertEqual(perf_ab.verdict(pairs["fig06_exact"])[3],
                         ["pair 2: head run exited 1"])

    def test_interval_uses_the_t_quantile_of_each_pair_count(self):
        ratios = [1.1, 0.9, 1.05, 0.95, 1.0, 1.08, 0.92, 1.02, 0.98, 1.04,
                  0.96, 1.01]
        for n in range(perf_ab.MIN_PAIRS, perf_ab.MAX_PAIRS + 1):
            t = perf_ab.T975[n - 1]
            self.assertAlmostEqual(t_cdf(t, n - 1), 0.975, places=4)
            ratio, lo, hi = perf_ab.ratio_interval(ratios[:n])
            logs = [math.log(r) for r in ratios[:n]]
            mean = sum(logs) / n
            sd = math.sqrt(sum((x - mean) ** 2 for x in logs) / (n - 1))
            self.assertAlmostEqual(math.log(hi) - mean, t * sd / math.sqrt(n))
            self.assertAlmostEqual(mean - math.log(lo), t * sd / math.sqrt(n))


if __name__ == "__main__":
    unittest.main()
