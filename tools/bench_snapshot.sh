#!/bin/sh
# Snapshot the benchmark suites into the repo so the perf/robustness
# trajectory is tracked in version control from PR 2 onward.
#
#   tools/bench_snapshot.sh [build-dir]
#
# Runs bench_perf_policy_eval with JSON output and writes the result to
# BENCH_policy_eval.json at the repo root. Compare snapshots across
# commits to spot regressions in BM_SelectFromLog / BM_EvaluatePolicy10k.
# BENCH_MIN_TIME (seconds per benchmark) tunes fidelity vs runtime.
#
# Also runs bench_farm_faults --json into BENCH_farm_faults.json: the
# goodput and energy-per-job overhead of server churn at {0%, 0.1%, 1%}
# (docs/FAULTS.md). A drift in the churn=0 row means the fault layer
# leaked into the fault-free path — the farm_fault_test pins should
# have caught it first.
#
# Also runs bench_controller --json into BENCH_controller.json: the
# O(1) feedback controller's decision cost vs the SS search,
# burst-recovery epochs, paired energy/QoS deltas with CIs, and the
# 10k-server per-server fan-out time (docs/CONTROL.md).
#
# Also runs bench_offline_opt --json into BENCH_offline_opt.json: the
# regret of SS / poet / degraded-fallback vs the offline-optimal
# oracle on the Table 5 workloads (95% CIs), FPTAS runtime vs
# epsilon, and the FPTAS-vs-exact speedup (docs/OFFLINE_OPT.md).
#
# Also runs bench_farm_scale --json into BENCH_farm_scale.json: the
# streaming throughput (jobs per wall second) of the event-driven farm
# core at farm sizes {100, 1k, 10k}, each fault-free and with MTBF
# faults (docs/FARM_SCALE.md). A collapse on a 10k row means a
# per-arrival or per-epoch O(N) scan crept back into the farm path.
set -eu

repo_root=$(cd "$(dirname "$0")/.." && pwd)
build_dir=${1:-"$repo_root/build"}
bench="$build_dir/bench_perf_policy_eval"

if [ ! -x "$bench" ]; then
    echo "error: $bench not built; run tools/ci.sh (needs Google \
Benchmark)" >&2
    exit 1
fi

"$bench" --benchmark_min_time="${BENCH_MIN_TIME:-0.5}" \
         --benchmark_format=json \
         > "$repo_root/BENCH_policy_eval.json"
echo "wrote $repo_root/BENCH_policy_eval.json"

faults_bench="$build_dir/bench_farm_faults"
if [ ! -x "$faults_bench" ]; then
    echo "error: $faults_bench not built; run tools/ci.sh" >&2
    exit 1
fi

"$faults_bench" --json > "$repo_root/BENCH_farm_faults.json"
echo "wrote $repo_root/BENCH_farm_faults.json"

controller_bench="$build_dir/bench_controller"
if [ ! -x "$controller_bench" ]; then
    echo "error: $controller_bench not built; run tools/ci.sh" >&2
    exit 1
fi

"$controller_bench" --json > "$repo_root/BENCH_controller.json"
echo "wrote $repo_root/BENCH_controller.json"

offline_opt_bench="$build_dir/bench_offline_opt"
if [ ! -x "$offline_opt_bench" ]; then
    echo "error: $offline_opt_bench not built; run tools/ci.sh" >&2
    exit 1
fi

"$offline_opt_bench" --json > "$repo_root/BENCH_offline_opt.json"
echo "wrote $repo_root/BENCH_offline_opt.json"

farm_scale_bench="$build_dir/bench_farm_scale"
if [ ! -x "$farm_scale_bench" ]; then
    echo "error: $farm_scale_bench not built; run tools/ci.sh" >&2
    exit 1
fi

"$farm_scale_bench" --json > "$repo_root/BENCH_farm_scale.json"
echo "wrote $repo_root/BENCH_farm_scale.json"
