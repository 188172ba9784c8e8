#!/usr/bin/env bash
# The OWN-Sim benchmark's single command (see benchmark/README.md):
#
#   bash benchmark/run.sh [--workload W] [--seed S] [--trace [0|1]]
#                         [--quick] [--pin-goldens]
#
# (--seconds N is accepted too, as the benchmark's calling convention passes
# it; it defaults to run_seconds in BENCHMARK.json.)
#
# Builds the ownsim_bench harness (Release) into build-bench/ at the
# repository root, then hands the arguments to benchmark/bench.py, which runs
# each workload in its own process. Build output goes to stderr; the last
# line on stdout is the JSON result.
set -euo pipefail

cd "$(dirname "$0")/.."
build_dir=build-bench

if [[ ! -f "$build_dir/CMakeCache.txt" ]]; then
  generator=()
  if command -v ninja >/dev/null 2>&1; then
    generator=(-G Ninja)
  fi
  cmake -S benchmark -B "$build_dir" -DCMAKE_BUILD_TYPE=Release \
    ${generator[@]+"${generator[@]}"} >&2
fi
cmake --build "$build_dir" -j "$(nproc 2>/dev/null || echo 2)" >&2

exec python3 benchmark/bench.py --harness "$build_dir/ownsim_bench" "$@"
