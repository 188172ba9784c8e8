#!/usr/bin/env python3
"""Unit tests for benchmark/agree.py: the quartile math, the bound check,
and span self times. Run: python3 benchmark/test_agree.py"""

import json
import re
import tempfile
import unittest
from pathlib import Path

import agree

BENCHMARK = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def result(digest="d", wall=1.0, latency=50.0):
    return {"workloads": {"w": {
        "digest": digest,
        "metrics": {
            "wall_s": {"value": wall, "kind": "host"},
            "avg_latency_cycles": {"value": latency, "kind": "simulated"},
        }}}}


SPEC = {"end_to_end": [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1},
    {"name": "avg_latency_cycles", "unit": "cycles", "better": "lower",
     "bound": 0.05},
]}


def span(id_, parent, start, dur, name="x"):
    return {"id": id_, "parent": parent, "ts_us": start, "dur_us": dur,
            "name": name, "tid": 0}


class Statistics(unittest.TestCase):
    def test_quartiles(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0]
        self.assertEqual(agree.quartiles(values), (1.5, 4.5))
        self.assertEqual(agree.quartiles([1.0, 2.0, 3.0, 4.0]), (1.25, 3.75))

    def test_single_sample_quartiles(self):
        self.assertEqual(agree.quartiles([7.0]), (7.0, 7.0))

    def test_worse_by_follows_the_direction(self):
        self.assertAlmostEqual(agree.worse_by(10.0, 11.0, "lower"), 0.1)
        self.assertAlmostEqual(agree.worse_by(10.0, 9.0, "higher"), 0.1)
        self.assertLess(agree.worse_by(10.0, 9.0, "lower"), 0.0)
        self.assertLess(agree.worse_by(10.0, 11.0, "higher"), 0.0)


class BoundCheck(unittest.TestCase):
    def test_identical_sets_agree(self):
        self.assertEqual(agree.compare(result(), result(), SPEC), [])

    def test_host_metric_within_bound_agrees(self):
        self.assertEqual(agree.compare(result(), result(wall=1.09), SPEC), [])
        self.assertEqual(agree.compare(result(), result(wall=0.5), SPEC), [])

    def test_host_metric_beyond_bound_is_named(self):
        problems = agree.compare(result(), result(wall=1.2), SPEC)
        self.assertEqual(len(problems), 1)
        self.assertIn("w wall_s", problems[0])

    def test_simulated_metric_must_be_identical(self):
        problems = agree.compare(result(), result(latency=50.000001), SPEC)
        self.assertEqual(len(problems), 1)
        self.assertIn("avg_latency_cycles", problems[0])

    def test_digest_and_missing_workload(self):
        self.assertEqual(
            len(agree.compare(result(), result(digest="e"), SPEC)), 1)
        self.assertEqual(
            len(agree.compare(result(), {"workloads": {}}, SPEC)), 1)

    def test_cli_exit_codes(self):
        with tempfile.TemporaryDirectory() as d:
            paths = []
            for i, r in enumerate((result(), result(), result(wall=2.0))):
                p = Path(d) / f"{i}.json"
                p.write_text(json.dumps(r))
                paths.append(str(p))
            spec = Path(d) / "spec.json"
            spec.write_text(json.dumps(SPEC))
            args = ["--benchmark", str(spec)]
            self.assertEqual(agree.main([paths[0], paths[1]] + args), 0)
            self.assertEqual(agree.main([paths[0], paths[2]] + args), 1)


class SelfTime(unittest.TestCase):
    def test_leaf_self_time_is_its_duration(self):
        self.assertEqual(agree.self_times([span(0, -1, 0, 40)]), {0: 40})

    def test_children_are_subtracted_once_even_when_overlapping(self):
        spans = [span(0, -1, 0, 100), span(1, 0, 10, 20), span(2, 0, 20, 30),
                 span(3, 1, 12, 5)]
        own = agree.self_times(spans)
        self.assertEqual(own[0], 60)  # [10, 50) covered
        self.assertEqual(own[1], 15)  # the grandchild counts against 1 only
        self.assertEqual(own[2], 30)
        self.assertEqual(own[3], 5)

    def test_child_outside_its_parent_is_clipped(self):
        spans = [span(0, -1, 0, 10), span(1, 0, 5, 20)]
        self.assertEqual(agree.self_times(spans)[0], 5)

    def test_layer_totals_and_op_coverage(self):
        spans = [span(0, -1, 0, 100, "op"), span(1, 0, 0, 50, "a"),
                 span(2, 0, 50, 40, "b"), span(3, -1, 200, 10, "a")]
        totals = agree.layer_self_seconds(spans)
        self.assertAlmostEqual(totals["a"], 60e-6)
        self.assertAlmostEqual(totals["op"], 10e-6)
        self.assertAlmostEqual(agree.op_coverage(spans), 0.9)


class BenchmarkSpec(unittest.TestCase):
    """BENCHMARK.json stays inside the limits its readers enforce."""

    NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

    def test_names_units_and_bounds(self):
        names = [m["name"] for m in BENCHMARK["end_to_end"] +
                 BENCHMARK["per_layer"]]
        names += [w["name"] for w in BENCHMARK["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, self.NAME)
        for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
            self.assertRegex(m["unit"], self.UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
        bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        for w in BENCHMARK["workloads"]:
            self.assertLessEqual(len(w["why"]), 200)


if __name__ == "__main__":
    unittest.main()
