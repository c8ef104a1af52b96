#!/bin/sh
# Local CI entry point — the same steps .github/workflows/ci.yml runs.
#
#   tools/ci.sh [build-dir]
#
# Configures a Release build with warnings-as-on (-Wall -Wextra -Wshadow
# are baked into CMakeLists.txt), builds everything (library, tests,
# benches, examples), runs the full ctest suite, and — when Google
# Benchmark was found — smoke-runs the policy-evaluation micro-bench
# suite and gates the search's speed-up over the naive per-candidate
# loop, so a perf regression that breaks the bench binary (or tanks the
# search) fails CI rather than lingering until someone profiles.
# Then the static/dynamic analysis gates: the determinism lint, the
# format conformance check, the doc lint, an ASan/UBSan pass over the
# fast test labels, a TSan pass over the "concurrency" label, and —
# when clang is installed — the thread-safety-annotation build and
# clang-tidy (both always enforced in CI with a pinned clang).
set -eu

repo_root=$(cd "$(dirname "$0")/.." && pwd)
build_dir=${1:-"$repo_root/build"}

cmake -B "$build_dir" -S "$repo_root" -DCMAKE_BUILD_TYPE=Release
cmake --build "$build_dir" -j "$(nproc 2>/dev/null || echo 4)"
ctest --test-dir "$build_dir" --output-on-failure -j \
      "$(nproc 2>/dev/null || echo 4)"

# Bench smoke: short measurement, machine-readable output. Then the
# search speed gate reads the same run: the engine's full policy-space
# search must beat the naive per-candidate loop (same process, same
# host) by the gate's floor. Both skipped when the benchmark library is
# absent (the target is then not built).
bench="$build_dir/bench_perf_policy_eval"
if [ -x "$bench" ]; then
    "$bench" --benchmark_min_time=0.1 --benchmark_format=json \
             > "$build_dir/bench_policy_eval_smoke.json"
    echo "bench smoke OK: $build_dir/bench_policy_eval_smoke.json"
    python3 "$repo_root/tools/search_ratio_gate.py" \
            "$build_dir/bench_policy_eval_smoke.json"
else
    echo "bench smoke skipped: $bench not built (no Google Benchmark)"
fi

# Scale smoke: the event-driven farm core must stream the 100/1k/10k
# farm-size ladder in seconds (docs/FARM_SCALE.md). A hang or a
# throughput collapse here means an O(N) scan crept back into the
# per-arrival or per-epoch farm path.
"$build_dir/bench_farm_scale" > "$build_dir/bench_farm_scale_smoke.txt"
echo "scale smoke OK: $build_dir/bench_farm_scale_smoke.txt"

# Benchmark self-checks: a short traced run of each BENCHMARK.json
# workload must report "correct": true (conservation, wrapper
# transparency, and the ServerFarm / bare-ServerSim routing probes).
sh "$repo_root/tools/bench_selfcheck.sh"

# Determinism lint: no wall clocks, ambient entropy, machine topology,
# or hash-iteration-order reductions in src/ (rules and rationale:
# docs/CONCURRENCY.md; exemptions: tools/determinism_allowlist.txt).
python3 "$repo_root/tools/lint_determinism.py"

# Format gate over the conformance list (skips politely when
# clang-format is absent; CI pins clang-format-18).
sh "$repo_root/tools/check_format.sh"

# Docs check: every public header under src/ must document every
# public declaration. tools/doc_lint.py enforces the coverage rules
# everywhere; when the doxygen binary is installed the tracked Doxyfile
# runs the same check over src/farm and src/experiment with
# WARN_AS_ERROR so Doxygen-syntax errors fail too. Zero warnings is
# the bar (see docs/ARCHITECTURE.md).
python3 "$repo_root/tools/doc_lint.py"
if command -v doxygen >/dev/null 2>&1; then
    (cd "$repo_root" && doxygen Doxyfile)
    echo "doxygen docs check OK"
else
    echo "doxygen not installed; doc_lint covered the docs check"
fi

# Sanitizer pass: Debug + ASan/UBSan over the fast ctest labels (every
# test target carries exactly one of unit / integration / slow; see
# CMakeLists.txt). The "slow" label marks the heavy statistical suites
# (analytic cross-validation, coverage oracle, fuzzers) that the
# Release job above already ran in full — rerunning them 10-20x slower
# under sanitizers adds minutes without adding lifetime coverage. The
# cross-cutting "fault" label rides along: the failover queue and the
# fault-source clone/reset paths are lifetime-heavy, exactly what ASan
# exists to catch (fault_fuzz is the fast slice of sim_fuzz_test).
# The "control" label rides along the same way: the feedback
# controller's clone/reset state lifetime (control_fuzz) is exactly
# the shape ASan covers. "analytic" pulls in the offline-oracle plane
# (offline_opt_test plus the offline_opt_fuzz and analytic_regret
# slices) without dragging the slow statistical tiers along.
san_dir="$build_dir-asan"
cmake -B "$san_dir" -S "$repo_root" -DCMAKE_BUILD_TYPE=Debug \
      -DSLEEPSCALE_BUILD_BENCHES=OFF -DSLEEPSCALE_BUILD_EXAMPLES=OFF \
      -DSLEEPSCALE_SANITIZE=address,undefined
cmake --build "$san_dir" -j "$(nproc 2>/dev/null || echo 4)"
ctest --test-dir "$san_dir" --output-on-failure -j \
      "$(nproc 2>/dev/null || echo 4)" \
      -L "unit|integration|fault|control|analytic"
echo "sanitizer pass OK: $san_dir"

# Race-detection pass: TSan over exactly the suites that exercise
# cross-thread state (ctest label "concurrency": thread pool, parallel
# candidate search, replication fan-out, per-server farm decisions)
# plus the "fault" and "control" labels — degraded-mode and
# controller decisions both fan out across the per-server pool, so
# those planes must be race-clean too. Only those test targets are
# built (CMake target race_check_tests, defined next to the label
# lists), so this adds one library build, not a third full tree.
tsan_dir="$build_dir-tsan"
cmake -B "$tsan_dir" -S "$repo_root" -DCMAKE_BUILD_TYPE=Debug \
      -DSLEEPSCALE_BUILD_BENCHES=OFF -DSLEEPSCALE_BUILD_EXAMPLES=OFF \
      -DSLEEPSCALE_SANITIZE=thread
cmake --build "$tsan_dir" -j "$(nproc 2>/dev/null || echo 4)" \
      --target race_check_tests
ctest --test-dir "$tsan_dir" --output-on-failure -j \
      "$(nproc 2>/dev/null || echo 4)" \
      -L "concurrency|fault|control"
echo "TSan pass OK: $tsan_dir"

# Thread-safety analysis: the GUARDED_BY/ACQUIRE/RELEASE annotations
# become -Werror under Clang. Library-only build — the annotated state
# all lives in src/ — skipped politely on gcc-only boxes (the tsan CI
# job enforces it with a pinned clang).
if command -v clang++ >/dev/null 2>&1; then
    tsa_dir="$build_dir-thread-safety"
    cmake -B "$tsa_dir" -S "$repo_root" -DCMAKE_BUILD_TYPE=Debug \
          -DCMAKE_CXX_COMPILER=clang++ -DSLEEPSCALE_THREAD_SAFETY=ON \
          -DSLEEPSCALE_BUILD_TESTS=OFF -DSLEEPSCALE_BUILD_BENCHES=OFF \
          -DSLEEPSCALE_BUILD_EXAMPLES=OFF
    cmake --build "$tsa_dir" -j "$(nproc 2>/dev/null || echo 4)" \
          --target sleepscale
    echo "thread-safety analysis OK: $tsa_dir"
else
    echo "clang++ not installed; thread-safety analysis left to CI"
fi

# clang-tidy (curated profile in .clang-tidy), incremental driver.
if command -v clang-tidy >/dev/null 2>&1; then
    BUILD_DIR="$build_dir" sh "$repo_root/tools/run_clang_tidy.sh"
else
    echo "clang-tidy not installed; tidy gate left to CI"
fi
