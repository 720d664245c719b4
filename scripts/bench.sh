#!/usr/bin/env bash
# Wall-clock baseline of the simulator: naive vs the skip engine on
# three representative workloads plus one GA quick() tune. Writes
# BENCH_sim.json to the repo root. Pass --smoke for a CI-sized run;
# exits non-zero if the skip engine regresses past 2x naive wall-clock
# anywhere.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release -p mitts-bench --bin perf_baseline
exec target/release/perf_baseline "$@"
