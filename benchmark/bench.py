#!/usr/bin/env python3
"""Runs the OWN-Sim benchmark workloads and checks their outputs.

Called by benchmark/run.sh after it has built the harness (see
benchmark/README.md). Each workload runs in a fresh ownsim_bench process, so
its peak RSS is its own. This script turns each process's samples into
medians and quartiles, checks the op digests against benchmark/golden/,
prints every metric as `workload metric value unit`, writes
benchmark/out/results.json (and benchmark/out/trace.json when traced), and
prints the result as one JSON object on the last line of stdout. It exits 1
when any op failed or a digest does not match its golden value.

Standard library only.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import agree

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden"
GOLDEN_SEEDS = (1, 2, 3)
# One harness run must finish well inside the benchmark's 180 s limit.
HARNESS_TIMEOUT_S = 170


def run_harness(harness, workload, seed, seconds, trace, quick):
    cmd = [str(harness), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    if trace:
        cmd.append("--trace")
    if quick:
        cmd.append("--quick")
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=HARNESS_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload}: harness exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def golden_digest(workload, seed):
    path = GOLDEN / f"{workload}.json"
    if not path.exists():
        return None
    return json.loads(path.read_text()).get(str(seed))


def host_metric(values):
    q1, q3 = agree.quartiles(values)
    return {"value": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "kind": "host"}


def summarize(doc, benchmark, quick):
    """One workload's entry of results.json, from its harness document."""
    metrics = {}
    samples = doc["samples"]
    for name in ("wall_s", "sim_cycles_per_s", "router_cycles_per_s",
                 "setup_s"):
        if samples[name]:
            metrics[name] = host_metric(samples[name])
    metrics["peak_rss_mb"] = {"value": doc["peak_rss_mb"], "n": 1,
                              "kind": "host"}
    for name, value in doc.get("simulated", {}).items():
        metrics[name] = {"value": value, "kind": "simulated"}
    units = {m["name"]: m["unit"] for m in benchmark["end_to_end"]}
    for name, m in metrics.items():
        m["unit"] = units[name]

    golden = None if quick else golden_digest(doc["workload"], doc["seed"])
    failed = doc["failed"]
    errors = list(doc["errors"])
    if golden is None:
        golden_state = "n/a"
    elif golden == doc["digest"]:
        golden_state = "ok"
    else:
        golden_state = "mismatch"
        failed = doc["attempted"]
        errors.append(f"digest {doc['digest']} != golden {golden}")
    missing = [m["name"] for m in benchmark["end_to_end"]
               if m["name"] not in metrics]
    if missing:
        failed = doc["attempted"]
        errors.append("no value for " + ", ".join(missing))

    entry = {
        "threads": doc["threads"],
        "cpu": doc["cpu"],
        "digest": doc["digest"],
        "golden": golden_state,
        "attempted": doc["attempted"],
        "failed": failed,
        "ops_failed_frac": failed / doc["attempted"],
        "errors": errors,
        "metrics": metrics,
    }
    if "layers" in doc:
        spans = doc["spans"]
        measured = dict(doc["layers"])
        measured["bench.layer_coverage"] = agree.op_coverage(spans)
        entry["layers"] = {}
        entry["layers_na"] = []
        for m in benchmark["per_layer"]:
            value = measured.get(m["name"])
            if value is None:
                entry["layers_na"].append(m["name"])
            entry["layers"][m["name"]] = {"value": value or 0.0,
                                          "unit": m["unit"]}
        entry["self_s"] = agree.layer_self_seconds(spans)
        entry["spans"] = spans
    return entry


def chrome_trace(workloads):
    """Chrome trace_event JSON of every traced workload's spans, one pid
    per workload, with each span's id and parent in its args."""
    events = []
    for pid, (name, entry) in enumerate(sorted(workloads.items()), start=1):
        events.append({"ph": "M", "name": "process_name", "pid": pid,
                       "tid": 0, "args": {"name": name}})
        for s in entry.get("spans", []):
            events.append({"ph": "X", "name": s["name"], "cat": "layer",
                           "pid": pid, "tid": s["tid"], "ts": s["ts_us"],
                           "dur": s["dur_us"],
                           "args": {"id": s["id"], "parent": s["parent"]}})
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_workload(workload, entry):
    for name, m in entry["metrics"].items():
        extra = ""
        if m.get("n", 1) > 1:
            extra = f"  (q1 {fmt(m['q1'])}, q3 {fmt(m['q3'])}, n={m['n']})"
        print(f"{workload} {name} {fmt(m['value'])} {m['unit']}{extra}")
    for name, m in entry.get("layers", {}).items():
        value = "n/a" if name in entry["layers_na"] else fmt(m["value"])
        print(f"{workload} {name} {value} {m['unit']}")
    print(f"{workload} ops_failed_frac {fmt(entry['ops_failed_frac'])} ratio"
          f"  (failed {entry['failed']} of {entry['attempted']}, golden "
          f"{entry['golden']})")
    for e in entry["errors"]:
        print(f"{workload} FAILED {e}")


def result_line(workloads):
    """The last stdout line: every end-to-end metric, plus every per-layer
    metric when traced; metric names carry a workload prefix only when
    several workloads ran."""
    metrics = {}
    for workload, entry in workloads.items():
        prefix = f"{workload}:" if len(workloads) > 1 else ""
        for name, m in {**entry["metrics"], **entry.get("layers", {})}.items():
            metrics[prefix + name] = {"value": m["value"], "unit": m["unit"]}
    attempted = sum(e["attempted"] for e in workloads.values())
    failed = sum(e["failed"] for e in workloads.values())
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def pin_goldens(harness, workloads):
    for workload in workloads:
        digests = {}
        for seed in GOLDEN_SEEDS:
            doc = run_harness(harness, workload, seed, 0, False, False)
            if doc["failed"]:
                raise RuntimeError(f"{workload} seed {seed}: {doc['errors']}")
            digests[str(seed)] = doc["digest"]
            print(f"{workload} seed {seed} {doc['digest']}")
        GOLDEN.mkdir(exist_ok=True)
        (GOLDEN / f"{workload}.json").write_text(
            json.dumps(digests, indent=2, sort_keys=True) + "\n")


def main():
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names,
                        help="run only this workload (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    # Part of the benchmark's calling convention (--workload, --seed,
    # --seconds, --trace), which passes run_seconds here.
    parser.add_argument("--seconds", type=float,
                        default=benchmark["run_seconds"],
                        help="timed seconds per workload (default: "
                             "run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="add the traced pass and report per-layer "
                             "metrics")
    parser.add_argument("--quick", action="store_true",
                        help="short phases, one op, no golden check")
    parser.add_argument("--pin-goldens", action="store_true",
                        help="rewrite benchmark/golden/ for seeds 1-3")
    parser.add_argument("--harness", type=Path,
                        default=ROOT / "build-bench" / "ownsim_bench")
    parser.add_argument("--out", type=Path, default=HERE / "out")
    args = parser.parse_args()
    selected = [args.workload] if args.workload else names

    if args.pin_goldens:
        pin_goldens(args.harness, selected)
        return 0

    workloads = {}
    meta = None
    for workload in selected:
        doc = run_harness(args.harness, workload, args.seed, args.seconds,
                          args.trace, args.quick)
        meta = meta or {k: doc[k] for k in ("nproc", "compiler", "build_type")}
        entry = summarize(doc, benchmark, args.quick)
        print_workload(workload, entry)
        workloads[workload] = entry

    args.out.mkdir(parents=True, exist_ok=True)
    if args.trace:
        (args.out / "trace.json").write_text(
            json.dumps(chrome_trace(workloads)) + "\n")
    for entry in workloads.values():
        entry.pop("spans", None)
    meta.update(seed=args.seed, seconds=args.seconds, quick=args.quick,
                trace=bool(args.trace))
    (args.out / "results.json").write_text(json.dumps(
        {"meta": meta, "workloads": workloads}, indent=1, sort_keys=True) +
        "\n")

    line = result_line(workloads)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
