#!/usr/bin/env python3
"""Tests of perf_ab's verdicts on synthetic perfbench output (no perfbench run).

    python3 tools/test_perf_ab.py
"""

import json
import unittest

from perf_ab import evaluate, pair_ratios, parse_run, quartiles, verdict

METRICS = [
    {"name": "ns_per_hart_cycle", "better": "lower", "bound": 0.25},
    {"name": "points_per_s", "better": "higher", "bound": 0.25},
]
TIGHT = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]  # IQR 1.75%
WIDE = [60, 80, 100, 120, 140, 60, 80, 100, 120, 140]    # IQR 40%
DIGEST = ("digest w axpy copift n=64 cycles=100", "digest w exp baseline n=64 cycles=349")


def stdout(ns, pps=1000.0, failed=0, digest=DIGEST):
    """What run.py prints: comments, digest lines, then the JSON result line."""
    result = {"correct": failed == 0, "attempted": 10, "failed": failed,
              "metrics": {"ns_per_hart_cycle": {"value": ns, "unit": "ns"},
                          "points_per_s": {"value": pps, "unit": "1/s"}}}
    return "\n".join(["# stamp {}", *reversed(digest), "metric ...", json.dumps(result)]) + "\n"


def runs(ns, pps=None):
    pps = pps or [1000.0] * len(ns)
    return [parse_run(0, stdout(n, p)) for n, p in zip(ns, pps)]


class Verdicts(unittest.TestCase):
    def test_head_30_percent_worse_than_a_tight_base_fails(self):
        _, failures = evaluate("w", runs(TIGHT), runs([v * 1.3 for v in TIGHT]), METRICS)
        self.assertEqual(failures, ["w ns_per_hart_cycle worse"])

    def test_equal_runs_are_within(self):
        lines, failures = evaluate("w", runs(TIGHT), runs(TIGHT), METRICS)
        self.assertEqual(failures, [])
        self.assertTrue(lines[2].endswith("within"), lines[2])

    def test_wide_base_is_unresolved_and_passes(self):
        head = [v * 1.3 for v in WIDE]
        self.assertEqual(verdict(WIDE, head, "lower", 0.25)[0], "unresolved")
        self.assertEqual(evaluate("w", runs(WIDE), runs(head), METRICS)[1], [])

    def test_wide_base_resolves_when_every_head_run_beats_every_base_run(self):
        head = [50, 51, 52, 53, 54, 55, 56, 57, 58, 59]
        self.assertEqual(verdict(WIDE, head, "lower", 0.25), ("gain", 10))

    def test_wide_base_resolves_when_every_head_run_loses_to_every_base_run(self):
        head = [v + 200 for v in WIDE]
        self.assertEqual(verdict(WIDE, head, "lower", 0.25), ("worse", 0))

    def test_ties_count_for_neither_side(self):
        self.assertEqual(verdict(TIGHT, TIGHT, "lower", 0.25), ("within", 0))
        head = TIGHT[:9] + [TIGHT[9] - 10]
        self.assertEqual(verdict(TIGHT, head, "lower", 0.25), ("within", 1))

    def test_gain_needs_nine_tenths_of_the_pairs(self):
        faster = [v * 0.9 for v in TIGHT]
        self.assertEqual(verdict(TIGHT, faster, "lower", 0.25), ("gain", 10))
        eight = faster[:8] + TIGHT[8:]
        self.assertEqual(verdict(TIGHT, eight, "lower", 0.25), ("within", 8))

    def test_higher_is_better_inverts(self):
        self.assertEqual(verdict(TIGHT, [v * 0.7 for v in TIGHT], "higher", 0.25), ("worse", 0))
        self.assertEqual(verdict(TIGHT, [v * 1.1 for v in TIGHT], "higher", 0.25), ("gain", 10))
        self.assertEqual(verdict(TIGHT, [v * 1.3 for v in TIGHT], "lower", 0.25)[0], "worse")
        base = runs([100.0] * 10, TIGHT)
        head = runs([100.0] * 10, [v * 0.7 for v in TIGHT])
        self.assertEqual(evaluate("w", base, head, METRICS)[1], ["w points_per_s worse"])


class PairRatios(unittest.TestCase):
    def test_steady_drift_gives_tight_pair_ratios_under_a_wide_base_iqr(self):
        # The host slows down over the set; head runs 5% faster in every pair.
        base = [20.0 + 0.3 * i for i in range(10)]
        head = [b * 0.95 for b in base]
        q1, _, q3 = quartiles(base)
        self.assertGreater((q3 - q1) / 20.0, 0.05)
        r1, median, r3 = pair_ratios(base, head)
        self.assertAlmostEqual(median, 0.95)
        self.assertAlmostEqual(r3 - r1, 0.0)
        lines, failures = evaluate("w", runs(base), runs(head), METRICS)
        self.assertEqual(failures, [])
        self.assertIn("0.950 [0.950 - 0.950]", lines[2])


class Runs(unittest.TestCase):
    def test_digest_lines_are_sorted_and_compared(self):
        self.assertEqual(parse_run(0, stdout(100)).digest, tuple(sorted(DIGEST)))
        other = DIGEST[:1] + ("digest w exp baseline n=64 cycles=350",)
        head = runs(TIGHT)
        head[3] = parse_run(0, stdout(100, digest=other))
        lines, failures = evaluate("w", runs(TIGHT), head, METRICS)
        self.assertEqual(failures, ["w digest mismatch"])
        self.assertIn("head run 3", lines[0])

    def test_failed_points_fail(self):
        run = parse_run(1, stdout(100, failed=2))
        self.assertEqual(run.error, "exit 1, 2 failed of 10")
        head = runs(TIGHT)
        head[0] = run
        self.assertEqual(len(evaluate("w", runs(TIGHT), head, METRICS)[1]), 1)

    def test_a_run_without_a_result_line_fails(self):
        self.assertEqual(parse_run(1, "").error, "exit 1, no result line")
        self.assertEqual(parse_run(0, "# stamp {}\n").error, "exit 0, no result line")


if __name__ == "__main__":
    unittest.main()
