"""Tests of the comparison tool's decision rule on synthetic runs.

    python3 -m unittest discover -s perfbench/tests -p 'test_*.py'
"""

import io
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import compare  # noqa: E402

SPEC = {
    "end_to_end": [
        {"name": "latency_ms", "unit": "ms", "better": "lower", "bound": 0.1},
        {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1},
    ],
    "per_layer": [{"name": "calls", "unit": "count", "better": "lower"}],
}


def steady(center, n=10, wiggle=0.01):
    """n values within +-wiggle of center, alternating around it."""
    return [center * (1 + wiggle * ((i % 5) - 2) / 2) for i in range(n)]


class DecideTest(unittest.TestCase):
    def test_same_runs_are_within_bound(self):
        status, facts = compare.decide(steady(10), steady(10), "lower", 0.1)
        self.assertEqual(status, "within bound")
        self.assertEqual(facts["wins"], 0)  # ties count for neither side

    def test_worse_than_bound_is_a_regression(self):
        status, facts = compare.decide(steady(10), steady(11.5), "lower", 0.1)
        self.assertEqual(status, "regression")
        self.assertAlmostEqual(facts["worse"], 0.15, places=6)

    def test_direction_follows_better(self):
        # A lower rate is worse when higher is better.
        status, _ = compare.decide(steady(100), steady(80), "higher", 0.1)
        self.assertEqual(status, "regression")
        status, _ = compare.decide(steady(100), steady(120), "higher", 0.1)
        self.assertEqual(status, "improved")

    def test_worse_within_bound_is_not_a_regression(self):
        status, _ = compare.decide(steady(10), steady(10.5), "lower", 0.1)
        self.assertEqual(status, "within bound")

    def test_wide_spread_is_unresolved(self):
        base = [10, 14, 8, 12, 9, 15, 7, 11, 13, 10]
        head = [11, 9, 14, 8, 13, 12, 10, 15, 7, 12]
        status, facts = compare.decide(base, head, "lower", 0.1)
        self.assertGreater(facts["spread"], 0.1)
        self.assertEqual(status, "unresolved")

    def test_wide_spread_but_every_run_better_is_resolved(self):
        base = [20, 28, 16, 24, 18, 30, 17, 22, 26, 21]
        head = [v / 4 for v in base]
        status, _ = compare.decide(base, head, "lower", 0.1)
        self.assertEqual(status, "improved")

    def test_claim_needs_nine_in_ten_pair_wins(self):
        base = steady(10)
        head = [v * 0.8 for v in base]
        self.assertEqual(compare.decide(base, head, "lower", 0.1)[0],
                         "improved")
        # Two lost pairs out of ten: 8/10 < 9/10, so no claim.
        head_two_lost = head[:8] + [base[8] * 1.01, base[9] * 1.01]
        status, facts = compare.decide(base, head_two_lost, "lower", 0.5)
        self.assertEqual(facts["wins"], 8)
        self.assertNotEqual(status, "improved")

    def test_claim_needs_ten_pairs(self):
        status, _ = compare.decide(steady(10, n=9), steady(8, n=9), "lower",
                                   0.1)
        self.assertEqual(status, "within bound")

    def test_claim_needs_difference_beyond_parent_spread(self):
        # Every pair won, but by less than the parent's quartile distance.
        base = [10.0, 10.4, 9.6, 10.2, 9.8, 10.3, 9.7, 10.1, 9.9, 10.0]
        head = [v - 0.05 for v in base]
        status, facts = compare.decide(base, head, "lower", 0.1)
        self.assertEqual(facts["wins"], 10)
        self.assertEqual(status, "within bound")


class CompareTest(unittest.TestCase):
    def records(self, latency, rate, calls, seeds=range(1, 11)):
        out = []
        for i, seed in enumerate(seeds):
            out.append({"workload": "w", "seed": seed, "trace": False,
                        "correct": True,
                        "metrics": {"latency_ms": {"value": latency[i]},
                                    "rate": {"value": rate[i]}}})
            out.append({"workload": "w", "seed": seed, "trace": True,
                        "correct": True,
                        "metrics": {"calls": {"value": calls}}})
        return out

    def test_counts_print_as_counts_and_regressions_are_counted(self):
        base = self.records(steady(10), steady(100), 16)
        head = self.records(steady(12), steady(100), 12)
        out = io.StringIO()
        self.assertEqual(compare.compare(base, head, SPEC, out=out), 1)
        text = out.getvalue()
        self.assertIn("regression", text)
        self.assertIn("calls", text)
        self.assertIn("count 16 -> 12", text)

    def test_pairs_by_seed(self):
        self.assertEqual(compare.pair_up({1: 5, 2: 6, 3: 7}, {3: 9, 1: 8}),
                         [(5, 8), (7, 9)])
        self.assertEqual(compare.pair_up({1: 5, 2: 6}, {7: 8, 9: 10}),
                         [(5, 8), (6, 10)])

    def test_incorrect_runs_are_ignored(self):
        base = self.records(steady(10), steady(100), 16)
        head = self.records(steady(10), steady(100), 16)
        for r in head:
            if not r["trace"]:
                r["metrics"]["latency_ms"]["value"] = 50.0
                r["correct"] = False
        out = io.StringIO()
        compare.compare(base, head, SPEC, out=out)
        self.assertIn("missing on change", out.getvalue())


if __name__ == "__main__":
    unittest.main()
