"""Tests of the benchmark's own helpers.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import copy
import json
import os
import statistics
import unittest

import benchlib

HERE = os.path.dirname(os.path.abspath(__file__))


class Stats(unittest.TestCase):
    def test_median_and_quartiles_match_statistics_module(self):
        values = [9.4, 9.1, 9.3, 9.0, 9.6, 9.2, 9.5, 9.3, 9.1, 9.8]
        q1, q2, q3 = benchlib.quartiles(values)
        self.assertEqual([q1, q2, q3], statistics.quantiles(values, n=4))
        self.assertEqual(q2, benchlib.median(values))
        self.assertAlmostEqual(benchlib.relative_spread(values),
                               (q3 - q1) / q2)

    def test_single_value_is_its_own_quartiles(self):
        self.assertEqual(benchlib.quartiles([3.5]), (3.5, 3.5, 3.5))
        self.assertEqual(benchlib.relative_spread([3.5]), 0.0)

    def test_even_count_median_is_the_midpoint(self):
        self.assertEqual(benchlib.median([1.0, 2.0, 4.0, 8.0]), 3.0)

    def test_tail_percentile_keeps_ten_samples_beyond_it(self):
        self.assertIsNone(benchlib.tail_percentile(19))
        self.assertEqual(benchlib.tail_percentile(20), 50)
        self.assertEqual(benchlib.tail_percentile(35), 50)
        self.assertEqual(benchlib.tail_percentile(40), 75)
        self.assertEqual(benchlib.tail_percentile(77), 75)
        self.assertEqual(benchlib.tail_percentile(100), 90)
        self.assertEqual(benchlib.tail_percentile(999), 95)
        self.assertEqual(benchlib.tail_percentile(1000), 99)
        self.assertEqual(benchlib.tail_percentile(10000), 99.9)
        for n in range(1, 3000, 7):
            p = benchlib.tail_percentile(n)
            if p is not None:
                self.assertGreaterEqual(n * (100 - p) / 100, 10)

    def test_nearest_rank_percentile(self):
        values = list(range(1, 101))
        self.assertEqual(benchlib.percentile(values, 50), 50)
        self.assertEqual(benchlib.percentile(values, 90), 90)
        self.assertEqual(benchlib.percentile(values, 100), 100)
        self.assertEqual(benchlib.percentile([7.0], 75), 7.0)


class Digest(unittest.TestCase):
    def test_stable_and_sensitive(self):
        a = benchlib.digest(b'{"point":1}\n')
        self.assertEqual(a, benchlib.digest(b'{"point":1}\n'))
        self.assertEqual(len(a), 16)
        self.assertTrue(all(c in "0123456789abcdef" for c in a))
        self.assertNotEqual(a, benchlib.digest(b'{"point":2}\n'))
        self.assertNotEqual(a, benchlib.digest(b'{"point":1}'))

    def test_known_value(self):
        # SHA-256 of the empty string, first 16 hex digits.
        self.assertEqual(benchlib.digest(b""), "e3b0c44298fc1c14")


class Validator(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
            self.spec = json.load(f)

    def problems_after(self, edit):
        spec = copy.deepcopy(self.spec)
        edit(spec)
        return benchlib.validate_spec(spec)

    def test_repo_benchmark_is_valid(self):
        self.assertEqual(benchlib.validate_spec(self.spec), [])

    def test_metric_names(self):
        ok = ["wall_s", "model.confluence.ipc", "trace.gen-ns", "9lives",
              "a" * 64]
        bad = ["", "_x", ".x", "has space", "slash/name", "a" * 65, "é"]
        for name in ok:
            self.assertTrue(benchlib.NAME_RE.match(name), name)
        for name in bad:
            self.assertFalse(benchlib.NAME_RE.match(name), name)

    def test_units(self):
        for unit in ("ms", "s", "1/s", "count", "%", "ns/inst", "Minst/s"):
            self.assertTrue(benchlib.UNIT_RE.match(unit), unit)
        for unit in ("", "two words", "a" * 17, "µs"):
            self.assertFalse(benchlib.UNIT_RE.match(unit), unit)

    def test_rejects_duplicate_and_malformed_entries(self):
        def dup(spec):
            spec["per_layer"].append(dict(spec["per_layer"][0]))
        self.assertTrue(any("duplicate" in p for p in self.problems_after(dup)))

        def bad_bound(spec):
            spec["end_to_end"][1]["bound"] = 0.3
        self.assertTrue(self.problems_after(bad_bound))

        def no_setup(spec):
            spec["end_to_end"] = spec["end_to_end"][1:]
        self.assertTrue(self.problems_after(no_setup))

        def extra_key(spec):
            spec["extra"] = 1
        self.assertTrue(self.problems_after(extra_key))

        def escaping_path(spec):
            spec["paths"] = ["../outside"]
        self.assertTrue(self.problems_after(escaping_path))

        def one_workload(spec):
            spec["workloads"] = spec["workloads"][:1]
        self.assertTrue(self.problems_after(one_workload))

        def bad_name(spec):
            spec["per_layer"][0]["name"] = "bad name"
        self.assertTrue(self.problems_after(bad_name))

    def test_result_line_has_exactly_the_contract_keys(self):
        line = benchlib.result_line(True, 35, 0, {"wall_s": 9.25},
                                    {"wall_s": "s"})
        obj = json.loads(line)
        self.assertEqual(set(obj), {"correct", "attempted", "failed",
                                    "metrics"})
        self.assertEqual(obj["metrics"]["wall_s"],
                         {"value": 9.25, "unit": "s"})


class Spans(unittest.TestCase):
    def span(self, i, parent, name, start, end, worker):
        return {"id": i, "parent": parent, "name": name, "start": start,
                "end": end, "point": 0, "worker": worker}

    def test_self_time_subtracts_direct_children(self):
        spans = [self.span(1, 0, "sim.point", 0.0, 10.0, 1),
                 self.span(2, 1, "confluence.warmup", 1.0, 4.0, 1),
                 self.span(3, 1, "confluence.measure", 4.0, 9.0, 1)]
        selfs = benchlib.self_times(spans)
        self.assertAlmostEqual(selfs[1], 2.0)
        self.assertAlmostEqual(selfs[2], 3.0)
        self.assertAlmostEqual(selfs[3], 5.0)

    def test_layers_plus_idle_cover_wall_times_pool(self):
        spans = [self.span(1, 0, "sim.point", 0.0, 6.0, 1),
                 self.span(2, 1, "confluence.warmup", 1.0, 5.0, 1),
                 self.span(3, 0, "sim.point", 2.0, 9.0, 2),
                 self.span(4, 0, "dispatch.cache.flush", 9.0, 9.5, 0)]
        acct = benchlib.pool_accounting(spans, 0.0, 10.0, pool=2)
        self.assertEqual(acct["workers"], 2)
        self.assertAlmostEqual(acct["idle"], 20.0 - 13.0)
        self.assertAlmostEqual(acct["accounted"], acct["capacity"])
        self.assertNotIn("dispatch.cache.flush", acct["layers"])

    def test_overlapping_spans_on_one_worker_do_not_balance(self):
        spans = [self.span(1, 0, "sim.point", 0.0, 6.0, 1),
                 self.span(2, 0, "sim.point", 5.0, 8.0, 1)]
        acct = benchlib.pool_accounting(spans, 0.0, 10.0, pool=1)
        self.assertGreater(acct["accounted"], acct["capacity"])


if __name__ == "__main__":
    unittest.main()
