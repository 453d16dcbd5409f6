#!/usr/bin/env python3
"""Tests compare.py's verdicts on synthetic run sets."""

import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import compare  # noqa: E402

SPEC = {
    "end_to_end": [
        {"name": "throughput_logs_per_s", "unit": "logs/s",
         "better": "higher", "bound": 0.1},
        {"name": "latency_p50_ms", "unit": "ms", "better": "lower",
         "bound": 0.1},
        {"name": "accuracy", "unit": "ratio", "better": "higher",
         "bound": 0.05},
    ],
    "per_layer": [{"name": "diag.atpg_mean_ms", "unit": "ms",
                   "better": "lower"}],
}

BASE_TPUT = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]


def write_set(directory, tput, latency, accuracy, failed=0, correct=True,
              drop=()):
    for i, (t, l, a) in enumerate(zip(tput, latency, accuracy)):
        metrics = {"throughput_logs_per_s": {"value": t, "unit": "logs/s"},
                   "latency_p50_ms": {"value": l, "unit": "ms"},
                   "accuracy": {"value": a, "unit": "ratio"}}
        for name in drop:
            del metrics[name]
        result = {"correct": correct, "attempted": 100, "failed": failed,
                  "metrics": metrics}
        meta = {"workload": "w", "seed": i + 1, "trace": 0}
        with open(os.path.join(directory, f"w.{i + 1}.json"), "w") as f:
            json.dump({"meta": meta, "result": result, "notes": {}}, f)


class VerdictTest(unittest.TestCase):
    def test_verdicts(self):
        v = compare.verdict
        self.assertEqual(v(BASE_TPUT, BASE_TPUT, "higher", 0.1, False),
                         "unchanged")
        self.assertEqual(v(BASE_TPUT, [x * 0.8 for x in BASE_TPUT],
                           "higher", 0.1, False), "regressed")
        self.assertEqual(v(BASE_TPUT, [x * 1.05 for x in BASE_TPUT],
                           "higher", 0.1, False), "improved")
        # Lower is better: a 20% rise in latency regresses.
        self.assertEqual(v(BASE_TPUT, [x * 1.2 for x in BASE_TPUT],
                           "lower", 0.1, False), "regressed")
        # A 5% gain in 7 of 10 pairs is no claim.
        mixed = [x * (1.05 if i < 7 else 0.97)
                 for i, x in enumerate(BASE_TPUT)]
        self.assertEqual(v(BASE_TPUT, mixed, "higher", 0.1, False),
                         "unchanged")
        # Spread wider than the bound cannot show a change of that size.
        wide = [60, 140, 80, 120, 100, 70, 130, 90, 110, 100]
        self.assertEqual(v(wide, wide, "higher", 0.1, False), "unresolved")
        # ...unless every head run beats every base run.
        self.assertEqual(v(wide, [x + 100 for x in wide], "higher", 0.1,
                           False), "improved")
        # Five pairs are too few to claim a gain.
        self.assertEqual(v(BASE_TPUT[:5], [x * 1.05 for x in BASE_TPUT[:5]],
                           "higher", 0.1, False), "unchanged")
        # Exact metrics: any paired difference is a change.
        self.assertEqual(v([0.9, 0.8], [0.9, 0.8], "higher", 0.05, True),
                         "unchanged")
        self.assertEqual(v([0.9, 0.8], [0.9, 0.79], "higher", 0.05, True),
                         "regressed")
        self.assertEqual(v([0.9, 0.8], [0.91, 0.8], "higher", 0.05, True),
                         "improved")

    def test_summary_matches_statistics_quantiles(self):
        med, q1, q3 = compare.summary([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
        self.assertEqual((med, q1, q3), (5.5, 2.75, 8.25))
        self.assertEqual(compare.summary([4]), (4, 4, 4))


class CompareTest(unittest.TestCase):
    def run_compare(self, head_kwargs, write_head=True):
        with tempfile.TemporaryDirectory() as base, \
                tempfile.TemporaryDirectory() as head:
            write_set(base, BASE_TPUT, [10] * 10, [0.9] * 10)
            kwargs = {"tput": BASE_TPUT, "latency": [10] * 10,
                      "accuracy": [0.9] * 10}
            kwargs.update(head_kwargs)
            if write_head:
                write_set(head, **kwargs)
            out = io.StringIO()
            status = compare.compare(base, head, SPEC, out)
            return status, out.getvalue()

    def test_same_runs_are_unchanged(self):
        status, text = self.run_compare({})
        self.assertEqual(status, 0)
        self.assertEqual(text.count("unchanged"), 3)

    def test_regression_fails(self):
        status, text = self.run_compare({"latency": [13] * 10})
        self.assertEqual(status, 1)
        self.assertIn("regressed", text)

    def test_quality_change_fails(self):
        status, _ = self.run_compare({"accuracy": [0.89] * 10})
        self.assertEqual(status, 1)

    def test_failed_share_rise_fails(self):
        status, text = self.run_compare({"failed": 1})
        self.assertEqual(status, 1)
        self.assertIn("failed share rose", text)

    def test_invalid_head_run_fails(self):
        status, text = self.run_compare({"correct": False})
        self.assertEqual(status, 1)
        self.assertIn("invalid", text)

    def test_missing_head_runs_fail(self):
        status, text = self.run_compare({}, write_head=False)
        self.assertEqual(status, 1)
        self.assertIn("0 head runs for 10 base runs", text)

    def test_fewer_head_runs_fail(self):
        # Two head runs crashed and wrote no file; the eight left agree.
        status, text = self.run_compare({"tput": BASE_TPUT[:8]})
        self.assertEqual(status, 1)
        self.assertIn("8 head runs for 10 base runs", text)

    def test_missing_head_metric_fails(self):
        status, text = self.run_compare({"drop": ["latency_p50_ms"]})
        self.assertEqual(status, 1)
        self.assertIn("missing from 10 head runs", text)


if __name__ == "__main__":
    unittest.main()
