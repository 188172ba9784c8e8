#!/usr/bin/env python3
"""Compares two benchmark result sets against the bounds in BENCHMARK.json.

    python3 benchmark/agree.py BASE.json NEW.json [--benchmark BENCHMARK.json]

BASE.json and NEW.json are results.json files written by benchmark/run.sh.
Exits 1 and names the workload and metric wherever NEW is worse than BASE
by more than the metric's bound (host metrics, compared by median), where a
simulated metric or an op digest differs at all, or where a workload of
BASE is missing from NEW. Exits 0 when everything agrees.

The module also holds the statistics and span helpers bench.py uses.
Standard library only.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path


def quartiles(values):
    """First and third quartile, as statistics.quantiles(values, n=4)."""
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def worse_by(base, new, better):
    """Share of `base` by which `new` is worse; negative when it is better."""
    if base == 0:
        return 0.0 if new == base else float("inf")
    change = (new - base) / abs(base)
    return change if better == "lower" else -change


def compare(base, new, benchmark):
    """Messages naming each (workload, metric) where NEW does not agree."""
    bounds = {m["name"]: m for m in benchmark["end_to_end"]}
    problems = []
    for workload, b in sorted(base["workloads"].items()):
        n = new["workloads"].get(workload)
        if n is None:
            problems.append(f"{workload}: missing from the new results")
            continue
        if b["digest"] != n["digest"]:
            problems.append(
                f"{workload}: digest {n['digest']} != {b['digest']}")
        for name, bm in sorted(b["metrics"].items()):
            nm = n["metrics"].get(name)
            if nm is None:
                problems.append(f"{workload} {name}: missing")
            elif bm["kind"] == "simulated":
                if nm["value"] != bm["value"]:
                    problems.append(
                        f"{workload} {name}: {nm['value']} != {bm['value']} "
                        "(simulated metrics must be identical)")
            elif name in bounds:
                spec = bounds[name]
                worse = worse_by(bm["value"], nm["value"], spec["better"])
                if worse > spec["bound"]:
                    problems.append(
                        f"{workload} {name}: {nm['value']:.6g} vs "
                        f"{bm['value']:.6g} is {worse:.1%} worse, bound "
                        f"{spec['bound']:.0%}")
    return problems


def self_times(spans):
    """Self time (us) of each span: its duration minus the part of its
    interval that its child spans cover. Children may run on other
    threads and overlap each other; each covered instant counts once."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        start, end = s["ts_us"], s["ts_us"] + s["dur_us"]
        covered = 0.0
        reach = start
        for c in sorted(children.get(s["id"], []), key=lambda c: c["ts_us"]):
            lo = max(c["ts_us"], reach)
            hi = min(c["ts_us"] + c["dur_us"], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s["id"]] = s["dur_us"] - covered
    return out


def layer_self_seconds(spans):
    """Self time per span name, in seconds, summed over all spans."""
    own = self_times(spans)
    totals = {}
    for s in spans:
        totals[s["name"]] = totals.get(s["name"], 0.0) + own[s["id"]] / 1e6
    return totals


def op_coverage(spans):
    """Share of the traced op's wall time that its layer spans cover,
    1 - (the op's self time / its duration). 1.0 means every microsecond
    of the op is attributed to a layer."""
    ops = [s for s in spans if s["name"] == "op" and s["parent"] == -1]
    if not ops:
        return 0.0
    op = ops[0]
    return 1.0 - self_times(spans)[op["id"]] / op["dur_us"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument(
        "--benchmark",
        default=str(Path(__file__).resolve().parent.parent / "BENCHMARK.json"))
    args = parser.parse_args(argv)
    load = lambda p: json.loads(Path(p).read_text())
    problems = compare(load(args.base), load(args.new), load(args.benchmark))
    for p in problems:
        print(p)
    if not problems:
        print("agree: every metric within its bound, simulated metrics and "
              "digests identical")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
