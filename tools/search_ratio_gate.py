#!/usr/bin/env python3
"""Fail unless the batched policy search beats the naive loop by a floor.

    bench_perf_policy_eval \\
        --benchmark_filter='^BM_SelectFromLog(Naive)?$' \\
        --benchmark_format=json > search.json
    python3 tools/search_ratio_gate.py search.json

BM_SelectFromLog is the PolicyEvalEngine search over a 10k-job log;
BM_SelectFromLogNaive is the pre-engine search, one fresh streaming
ServerSim per candidate. Both run in one process on the same host, so
their ratio carries across machines where absolute times do not. The
gate fails (exit 1) unless Naive real time / engine real time is at
least MIN_RATIO, or when either benchmark is missing. Standard library
only.
"""

import argparse
import json
import sys

MIN_RATIO = 15.0
UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def real_time_ns(results, name):
    """Real time per iteration of benchmark `name`, or None."""
    for bench in results.get("benchmarks", []):
        if bench.get("name") == name and \
                bench.get("run_type", "iteration") == "iteration":
            return float(bench["real_time"]) * \
                UNIT_NS[bench.get("time_unit", "ns")]
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("results", help="Google Benchmark JSON output")
    args = parser.parse_args()

    with open(args.results, encoding="utf-8") as handle:
        results = json.load(handle)
    engine = real_time_ns(results, "BM_SelectFromLog")
    naive = real_time_ns(results, "BM_SelectFromLogNaive")
    if engine is None or naive is None or engine <= 0.0:
        print("search ratio gate FAILED: BM_SelectFromLog or "
              "BM_SelectFromLogNaive missing from " + args.results,
              file=sys.stderr)
        return 1

    ratio = naive / engine
    passed = ratio >= MIN_RATIO
    print("search ratio gate %s: naive %.2f ms / engine %.3f ms = %.1fx "
          "(floor %.1fx)" % ("OK" if passed else "FAILED", naive / 1e6,
                             engine / 1e6, ratio, MIN_RATIO))
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
