#!/bin/sh
# Benchmark self-checks: a short traced run of every BENCHMARK.json
# workload.
#
#   tools/bench_selfcheck.sh
#
# A traced run (perfbench/README.md) checks offered == completed +
# dropped + inFlight at every epoch close, that the traced and untraced
# runs print the same simulation digest (the timing wrappers are
# transparent), and that direct-drive ServerFarm and bare-ServerSim
# probes reproduce the runtime's routing and per-server completions.
# Fails unless every workload's last output line reports
# "correct": true. Builds the benchmark under $CARGO_TARGET_DIR/perfbench
# (default .bench_build/perfbench) like perfbench/run.py always does.
set -eu

repo_root=$(cd "$(dirname "$0")/.." && pwd)
cd "$repo_root"

for workload in single-day farm-stream farm-faults; do
    result=$(python3 perfbench/run.py --workload "$workload" --seed 1 \
                 --seconds 5 --trace 1 | tail -n 1)
    case "$result" in
        *'"correct": true'*)
            echo "benchmark self-check OK: $workload" ;;
        *)
            echo "benchmark self-check FAILED: $workload: $result" >&2
            exit 1 ;;
    esac
done
