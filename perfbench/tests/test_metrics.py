"""Self-tests of the benchmark's metric helpers.

    python3 -m unittest discover -s perfbench/tests
"""

import json
import math
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import metrics  # noqa: E402


class PercentileRuleTest(unittest.TestCase):
    def test_p90_needs_ten_samples_beyond_it(self):
        self.assertEqual(metrics.samples_beyond(100, 90), 10)
        self.assertEqual(metrics.samples_beyond(99, 90), 9)
        values = list(range(100))
        self.assertAlmostEqual(metrics.percentile(values, 90), 89.1)
        with self.assertRaises(metrics.InsufficientSamples):
            metrics.percentile(values[:99], 90)

    def test_p99_needs_a_thousand_samples(self):
        metrics.percentile(list(range(1000)), 99)
        with self.assertRaises(metrics.InsufficientSamples):
            metrics.percentile(list(range(999)), 99)

    def test_median_is_always_reported(self):
        self.assertEqual(metrics.percentile([3.0], 50), 3.0)
        self.assertEqual(metrics.median([4.0, 1.0, 3.0]), 3.0)
        with self.assertRaises(metrics.InsufficientSamples):
            metrics.median([])

    def test_interpolates_between_closest_ranks(self):
        self.assertAlmostEqual(metrics.percentile([1.0, 2.0, 3.0, 4.0], 50), 2.5)
        self.assertEqual(metrics.percentile([5.0, 1.0], 0), 1.0)

    def test_rate_covers_the_whole_window(self):
        phase = {"window_s": 4.0, "window_iterations": 70}
        self.assertEqual(metrics.iterations_per_second(phase), 17.5)


class CoverageTest(unittest.TestCase):
    def test_share_of_wire_time(self):
        self.assertEqual(metrics.coverage([1.0, 2.0], [4.0, 4.0]), 0.375)

    def test_is_not_clamped(self):
        self.assertEqual(metrics.coverage([3.0], [2.0]), 1.5)

    def test_needs_wire_time(self):
        with self.assertRaises(metrics.InsufficientSamples):
            metrics.coverage([], [])


class SetupTest(unittest.TestCase):
    def test_reports_the_fastest_set_up(self):
        self.assertEqual(metrics.setup_seconds([0.3, 0.004, 0.2]), 0.004)
        with self.assertRaises(metrics.InsufficientSamples):
            metrics.setup_seconds([])


class VanillaSpeedupTest(unittest.TestCase):
    def test_ratio_of_iterations_to_vanilla_best(self):
        vanilla = [1.0, 2.0, 5.0, 4.0, 5.0]   # best 5.0 first at iteration 3
        llamatune = [1.0, 6.0, 2.0]           # reaches 5.0 at iteration 2
        speedup, censored = metrics.vanilla_speedup([(vanilla, llamatune)])
        self.assertEqual(speedup, 1.5)
        self.assertEqual(censored, 0)

    def test_never_reaching_is_censored_at_budget_plus_one(self):
        vanilla = [1.0, 2.0, 3.0, 9.0]        # best at iteration 4
        llamatune = [1.0, 2.0, 3.0, 4.0]      # never reaches 9.0
        speedup, censored = metrics.vanilla_speedup([(vanilla, llamatune)])
        self.assertEqual(speedup, 4 / 5)
        self.assertEqual(censored, 1)

    def test_pairs_are_pooled_as_a_ratio_of_sums(self):
        pairs = [([1.0, 3.0], [3.0, 0.0]),    # vanilla 2, llamatune 1
                 ([5.0, 1.0], [1.0, 1.0])]    # vanilla 1, censored at 3
        speedup, censored = metrics.vanilla_speedup(pairs)
        self.assertEqual(speedup, 3 / 4)
        self.assertEqual(censored, 1)

    def test_gain_pct(self):
        self.assertAlmostEqual(
            metrics.vanilla_gain_pct([([1.0, 2.0], [2.2]), ([4.0], [4.0])]),
            5.0)

    def test_empty_input_is_an_error(self):
        with self.assertRaises(ValueError):
            metrics.vanilla_speedup([])
        with self.assertRaises(ValueError):
            metrics.vanilla_speedup([([], [1.0])])

    def test_pairs_come_from_quality_sessions_only(self):
        definition = {"quality_sessions": 1, "tenants": [
            {"vanilla": False, "seed_slot": 0},
            {"vanilla": False, "seed_slot": 1},
            {"vanilla": True, "seed_slot": 0}]}
        quality = [
            {"tenant": 0, "index": 0, "complete": True, "objectives": [2.0]},
            {"tenant": 0, "index": 1, "complete": True, "objectives": [3.0]},
            {"tenant": 1, "index": 0, "complete": True},
            {"tenant": 2, "index": 0, "complete": True, "objectives": [1.0]},
            {"tenant": 2, "index": 1, "complete": True, "objectives": [4.0]},
        ]
        pairs = metrics.session_pairs({"quality": quality}, definition)
        self.assertEqual(pairs, [([1.0], [2.0])])


class FailedShareTest(unittest.TestCase):
    def test_counts_failures_against_attempts(self):
        self.assertEqual(metrics.failed_share(200, 0), 0.0)
        self.assertEqual(metrics.failed_share(200, 5), 0.025)
        self.assertEqual(metrics.failed_share(3, 3), 1.0)

    def test_rejects_impossible_counts(self):
        for attempted, failed in ((0, 0), (5, 6), (5, -1)):
            with self.assertRaises(ValueError):
                metrics.failed_share(attempted, failed)


class ResultLineTest(unittest.TestCase):
    def test_has_exactly_the_contract_keys(self):
        line = metrics.result_line(True, 12, 1, {
            "latency_ms": (1.2034, "ms"), "setup_s": (0.8127, "s")})
        self.assertNotIn("\n", line)
        parsed = json.loads(line)
        self.assertEqual(set(parsed), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertIs(parsed["correct"], True)
        self.assertEqual(parsed["attempted"], 12)
        self.assertEqual(parsed["failed"], 1)
        self.assertEqual(parsed["metrics"]["latency_ms"],
                         {"value": 1.2034, "unit": "ms"})

    def test_keeps_every_digit(self):
        value = 0.1 + 0.2
        parsed = json.loads(metrics.result_line(True, 1, 0, {"x": (value, "s")}))
        self.assertEqual(parsed["metrics"]["x"]["value"], value)

    def test_rejects_malformed_results(self):
        with self.assertRaises(ValueError):
            metrics.result_line(True, 0, 0, {})
        with self.assertRaises(ValueError):
            metrics.result_line(True, 1.5, 0, {})
        with self.assertRaises(ValueError):
            metrics.result_line(True, 1, 0, {"x": (math.nan, "s")})
        with self.assertRaises(ValueError):
            metrics.result_line(True, 1, 0, {"x": ("fast", "s")})


class EndToEndTest(unittest.TestCase):
    def phase(self, complete=True):
        return {
            "setup_s": [0.3, 0.1, 0.2],
            "window_s": 3.0,
            "window_iterations": 99,
            "session_s": [2.0, 4.0, 5.0],
            "ask_ms": list(range(100)),
            "tell_ms": list(range(100, 200)),
            "peak_rss_kb": 2048,
            "server_cpu_s": 0.5,
            "served_iterations": 250,
            "quality": [{"tenant": 0, "index": 0, "complete": complete,
                         "best": 3.0, "default": 2.0}],
        }

    def test_metrics_from_samples(self):
        definition = {"quality_sessions": 1, "tenants": [{"vanilla": False}]}
        out = metrics.end_to_end(self.phase(), definition)
        self.assertEqual(set(out), {"setup_s", "server_cpu_ms_per_iter",
                                    "peak_rss_mb", "best_over_default"})
        self.assertEqual(out["setup_s"], (0.1, "s"))
        self.assertEqual(out["server_cpu_ms_per_iter"], (2.0, "ms"))
        self.assertEqual(out["peak_rss_mb"], (2.0, "MB"))
        self.assertEqual(out["best_over_default"], (1.5, "ratio"))
        extra = metrics.extra_end_to_end(
            dict(self.phase(), attempted=10, failed=0), definition)
        self.assertEqual(extra["iters_per_s"], (33.0, "1/s"))
        self.assertEqual(extra["session_s_p50"], (4.0, "s"))
        self.assertEqual(extra["ask_ms_p50"], (49.5, "ms"))
        self.assertEqual(extra["tell_ms_p50"], (149.5, "ms"))
        self.assertAlmostEqual(extra["tell_ms_p90"][0], 189.1)
        self.assertEqual(extra["failed_share"], (0.0, "ratio"))

    def test_incomplete_quality_sessions_are_refused(self):
        definition = {"quality_sessions": 1, "tenants": [{"vanilla": False}]}
        with self.assertRaises(metrics.InsufficientSamples):
            metrics.end_to_end(self.phase(complete=False), definition)


if __name__ == "__main__":
    unittest.main()
