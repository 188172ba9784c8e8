#!/usr/bin/env python3
"""Diff bench JSONL records against a stored baseline.

Usage:
  python3 tools/perf_compare.py BASELINE.json CURRENT.json [options]

Both files hold one JSON object per line (JSONL) in the schema emitted by
ownsim's emit_bench_json() (src/metrics/bench_json.hpp). Schema version 1
and 2 are both accepted; v2 added `kernel` and `threads` fields (v1 records
read as kernel="activity", threads=1). Records pair up on
(bench, config, kernel, threads); metrics pair up on name within a record.

Comparison rules, per metric:
  * deterministic metrics (simulated quantities) use --tol-deterministic
    (default 1e-6 relative): any larger drift is a reproducibility break and
    fails regardless of direction.
  * wall-clock metrics use --tol-wall (default 0.5, i.e. +/-50% relative) and
    only fail in the *worse* direction given the metric's "better" field
    ("lower" means an increase is a regression); "either" never fails.

Exit codes:
  0  no regressions (or --advisory)
  1  at least one regression
  2  malformed input / schema mismatch
"""
from __future__ import annotations

import argparse
import json
import sys

SCHEMA_VERSION = 2
ACCEPTED_SCHEMA_VERSIONS = (1, 2)


class FormatError(Exception):
    pass


def load_records(path):
    """Parse a JSONL bench file -> {(bench, config, kernel, threads):
    {metric: dict}}."""
    records = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as err:
        raise FormatError(f"{path}: {err}") from err
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as err:
            raise FormatError(f"{path}:{lineno}: invalid JSON: {err}") from err
        if not isinstance(obj, dict):
            raise FormatError(f"{path}:{lineno}: expected a JSON object")
        version = obj.get("schema_version")
        if version not in ACCEPTED_SCHEMA_VERSIONS:
            raise FormatError(
                f"{path}:{lineno}: schema_version {version!r}, "
                f"expected one of {sorted(ACCEPTED_SCHEMA_VERSIONS)}")
        for field in ("bench", "config", "metrics"):
            if field not in obj:
                raise FormatError(f"{path}:{lineno}: missing field {field!r}")
        # v1 records predate the kernel/threads fields; they were always
        # single-threaded activity-kernel runs.
        kernel = obj.get("kernel", "activity")
        threads = obj.get("threads", 1)
        if not isinstance(threads, int):
            raise FormatError(f"{path}:{lineno}: 'threads' is not an integer")
        key = (obj["bench"], obj["config"], kernel, threads)
        metrics = records.setdefault(key, {})
        for metric in obj["metrics"]:
            if not isinstance(metric, dict) or "name" not in metric \
                    or "value" not in metric:
                raise FormatError(
                    f"{path}:{lineno}: metric needs 'name' and 'value'")
            if not isinstance(metric["value"], (int, float)):
                raise FormatError(
                    f"{path}:{lineno}: metric {metric['name']!r} value "
                    f"is not a number")
            metrics[metric["name"]] = metric
    return records


def record_label(key):
    bench, config, kernel, threads = key
    label = f"{bench}[{config}]"
    if kernel != "activity" or threads != 1:
        label += f"[{kernel}/t{threads}]"
    return label


def relative_delta(baseline, current):
    if baseline == 0.0:
        return 0.0 if current == 0.0 else float("inf")
    return (current - baseline) / abs(baseline)


def compare(baseline, current, tol_deterministic, tol_wall):
    """Yields (severity, message); severity is 'regression' or 'info'."""
    for key in sorted(set(baseline) | set(current)):
        label = record_label(key)
        if key not in current:
            yield "info", f"{label}: present in baseline only (not rerun)"
            continue
        if key not in baseline:
            yield "info", f"{label}: new bench (no baseline yet)"
            continue
        base_metrics, cur_metrics = baseline[key], current[key]
        for name in sorted(set(base_metrics) | set(cur_metrics)):
            if name not in cur_metrics:
                yield "regression", f"{label}.{name}: metric disappeared"
                continue
            if name not in base_metrics:
                yield "info", f"{label}.{name}: new metric (no baseline)"
                continue
            base, cur = base_metrics[name], cur_metrics[name]
            deterministic = bool(base.get("deterministic", True))
            better = base.get("better", "either")
            delta = relative_delta(float(base["value"]), float(cur["value"]))
            detail = (f"{label}.{name}: {base['value']} -> {cur['value']} "
                      f"({delta:+.2%})")
            if deterministic:
                if abs(delta) > tol_deterministic:
                    yield "regression", detail + " [deterministic drift]"
                continue
            worse = (better == "lower" and delta > tol_wall) or \
                    (better == "higher" and delta < -tol_wall)
            if worse:
                yield "regression", detail + f" [worse than {tol_wall:.0%}]"
            elif abs(delta) > tol_wall:
                yield "info", detail + " (improved)"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="baseline JSONL file")
    parser.add_argument("current", help="freshly emitted JSONL file")
    parser.add_argument("--tol-deterministic", type=float, default=1e-6,
                        help="relative tolerance for deterministic metrics "
                             "(default 1e-6)")
    parser.add_argument("--tol-wall", type=float, default=0.5,
                        help="relative tolerance for wall-clock metrics "
                             "(default 0.5 = 50%%)")
    parser.add_argument("--advisory", action="store_true",
                        help="report baseline regressions but exit 0 for "
                             "them (shared-runner CI: wall time is noisy)")
    args = parser.parse_args(argv)

    try:
        baseline = load_records(args.baseline)
        current = load_records(args.current)
    except FormatError as err:
        print(f"perf_compare: format error: {err}", file=sys.stderr)
        return 2

    regressions = 0
    for severity, message in compare(baseline, current,
                                     args.tol_deterministic, args.tol_wall):
        prefix = "REGRESSION" if severity == "regression" else "info"
        print(f"[{prefix}] {message}")
        if severity == "regression":
            regressions += 1
    total_metrics = sum(len(m) for m in current.values())
    print(f"perf_compare: {total_metrics} metric(s) across "
          f"{len(current)} bench(es); {regressions} regression(s)")
    if regressions and args.advisory:
        print("perf_compare: advisory mode, not failing the build")
        return 0
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
