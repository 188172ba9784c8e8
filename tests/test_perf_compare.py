#!/usr/bin/env python3
"""Unit tests for tools/perf_compare.py (run via ctest or directly)."""
from __future__ import annotations

import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "tools"))
import perf_compare  # noqa: E402


def record(bench="bench_x", config="quick", metrics=None):
    return {
        "schema_version": perf_compare.SCHEMA_VERSION,
        "bench": bench,
        "paper_ref": "Fig 0",
        "config": config,
        "metrics": metrics if metrics is not None else [
            {"name": "throughput", "value": 0.125,
             "unit": "flits/node/cycle", "deterministic": True,
             "better": "higher"},
            {"name": "wall_seconds", "value": 2.0, "unit": "s",
             "deterministic": False, "better": "lower"},
        ],
    }


class PerfCompareTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.addCleanup(self.dir.cleanup)

    def write(self, name, records):
        path = os.path.join(self.dir.name, name)
        with open(path, "w", encoding="utf-8") as fh:
            for obj in records:
                fh.write(json.dumps(obj) + "\n")
        return path

    def run_main(self, baseline, current, *extra):
        return perf_compare.main([baseline, current, *extra])

    def test_identical_passes(self):
        base = self.write("base.json", [record()])
        cur = self.write("cur.json", [record()])
        self.assertEqual(self.run_main(base, cur), 0)

    def test_deterministic_drift_fails_both_directions(self):
        base = self.write("base.json", [record()])
        for value in (0.125 * 1.01, 0.125 * 0.99):
            drifted = record()
            drifted["metrics"][0]["value"] = value
            cur = self.write("cur.json", [drifted])
            self.assertEqual(self.run_main(base, cur), 1)

    def test_deterministic_within_tolerance_passes(self):
        base = self.write("base.json", [record()])
        nudged = record()
        nudged["metrics"][0]["value"] = 0.125 * (1 + 1e-9)
        cur = self.write("cur.json", [nudged])
        self.assertEqual(self.run_main(base, cur), 0)

    def test_wall_regression_fails_only_when_worse(self):
        base = self.write("base.json", [record()])
        slower = record()
        slower["metrics"][1]["value"] = 2.0 * 1.6  # +60% > 50% tolerance
        cur = self.write("cur.json", [slower])
        self.assertEqual(self.run_main(base, cur), 1)
        faster = record()
        faster["metrics"][1]["value"] = 2.0 * 0.2  # big improvement: fine
        cur = self.write("cur2.json", [faster])
        self.assertEqual(self.run_main(base, cur), 0)

    def test_advisory_never_fails(self):
        base = self.write("base.json", [record()])
        slower = record()
        slower["metrics"][0]["value"] = 99.0
        cur = self.write("cur.json", [slower])
        self.assertEqual(self.run_main(base, cur, "--advisory"), 0)

    def test_missing_metric_is_regression(self):
        base = self.write("base.json", [record()])
        cur = self.write("cur.json",
                         [record(metrics=[record()["metrics"][1]])])
        self.assertEqual(self.run_main(base, cur), 1)

    def test_new_bench_and_metric_are_informational(self):
        base = self.write("base.json", [record()])
        extra = record()
        extra["metrics"].append(
            {"name": "new_metric", "value": 1.0, "unit": "x",
             "deterministic": True, "better": "higher"})
        cur = self.write("cur.json", [extra, record(bench="bench_y")])
        self.assertEqual(self.run_main(base, cur), 0)

    def test_malformed_json_exits_2(self):
        base = self.write("base.json", [record()])
        path = os.path.join(self.dir.name, "garbage.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("not json\n")
        self.assertEqual(self.run_main(base, path), 2)

    def test_schema_mismatch_exits_2(self):
        base = self.write("base.json", [record()])
        wrong = record()
        wrong["schema_version"] = 999
        cur = self.write("cur.json", [wrong])
        self.assertEqual(self.run_main(base, cur), 2)

    def test_missing_file_exits_2(self):
        base = self.write("base.json", [record()])
        missing = os.path.join(self.dir.name, "nope.json")
        self.assertEqual(self.run_main(base, missing), 2)

    def test_custom_tolerance(self):
        base = self.write("base.json", [record()])
        drifted = record()
        drifted["metrics"][0]["value"] = 0.125 * 1.01
        cur = self.write("cur.json", [drifted])
        self.assertEqual(
            self.run_main(base, cur, "--tol-deterministic", "0.05"), 0)

    # ---- schema v2 (kernel/threads keys) -----------------------------------

    def test_v1_baseline_pairs_with_v2_activity_record(self):
        v1 = record()
        v1["schema_version"] = 1
        v1.pop("kernel", None)
        v1.pop("threads", None)
        base = self.write("base.json", [v1])
        v2 = record()
        v2["kernel"] = "activity"
        v2["threads"] = 1
        cur = self.write("cur.json", [v2])
        self.assertEqual(self.run_main(base, cur), 0)
        # ...and a v1 record with drifted values still fails against v2.
        v2_drift = dict(v2)
        v2_drift["metrics"] = [dict(v2["metrics"][0], value=0.2),
                               v2["metrics"][1]]
        cur = self.write("cur2.json", [v2_drift])
        self.assertEqual(self.run_main(base, cur), 1)

    def test_kernel_and_threads_separate_records(self):
        # Same bench+config under two kernels: different keys, no pairing,
        # so wildly different wall times are fine.
        act = record()
        lock = record()
        lock["kernel"] = "lockstep"
        lock["threads"] = 8
        lock["metrics"] = [dict(lock["metrics"][0]),
                           dict(lock["metrics"][1], value=0.25)]
        base = self.write("base.json", [act, lock])
        cur = self.write("cur.json", [act, lock])
        self.assertEqual(self.run_main(base, cur), 0)
        records = perf_compare.load_records(base)
        self.assertIn(("bench_x", "quick", "activity", 1), records)
        self.assertIn(("bench_x", "quick", "lockstep", 8), records)


if __name__ == "__main__":
    unittest.main()
