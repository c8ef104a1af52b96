#!/usr/bin/env python3
"""A/B the working tree against a base revision on the perfbench workloads.

Run from anywhere inside the repository:

    python3 tools/ab.py <base-rev> [--workloads single-day,farm-stream]
                        [--pairs 10] [--seconds 40] [--seed 1]
    python3 tools/ab.py <base-rev> --bm REGEX [--pairs 10]

The base revision is extracted with ``git archive`` into
build-ab/base-<sha>/ (ignored by .gitignore, like every build*/
directory) and removed again on exit; the working tree, uncommitted
edits included, is the change. Each side builds perfbench/ from its own
sources into its own CARGO_TARGET_DIR (build-ab/target-base-<sha> and
build-ab/target-change), so the two builds never share objects, and the
build directories are kept for the next run.

For every workload the script runs K alternating pairs of
``perfbench/run.py --trace 0`` (base first in even pairs, the change
first in odd ones, so drift in the host's speed hits both sides alike).
It fails (exit 1) when a run fails, does not report "correct": true, or
prints digest lines that differ from the other side's in the same pair:
a change that claims speed must not move the simulation.

Then, for each end-to-end metric of BENCHMARK.json and each workload,
it prints each side's median and quartiles, the change's wins out of K
(pairs where it is better in the metric's direction), the gap between
the medians next to the base's interquartile range, and the median of
the per-pair ratios change / base with a bootstrap 95% interval
(resampling pairs; fixed seed, so a rerun over the same numbers prints
the same interval). A gain needs wins in at least nine of ten pairs and
a median gap wider than the base's IQR; metrics equal on every run
read "=".

With --bm REGEX the pairs are micro-benchmark runs instead of perfbench
runs: each side configures the whole project in Release under
build-ab/bm-base-<sha> or build-ab/bm-change and builds only
bench_perf_policy_eval (Google Benchmark must be installed), and each
pair runs both binaries, alternating as above, with
--benchmark_filter=REGEX --benchmark_format=json. Every BM_* the filter
selects is reported by its real time per iteration (in the unit the
benchmark prints) with the same medians, quartiles, wins and bootstrap
ratio; lower is better. Each benchmark sets its own run length, so
--seconds is not allowed with --bm.

Standard library only.
"""

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
AB_DIR = os.path.join(ROOT, "build-ab")
RESAMPLES = 2000


def fail(message):
    print("ab: " + message, file=sys.stderr)
    sys.exit(1)


def git(*args):
    result = subprocess.run(["git", "-C", ROOT] + list(args),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    if result.returncode != 0:
        fail("git %s failed: %s" % (" ".join(args), result.stderr.strip()))
    return result.stdout.strip()


def extract(rev, dest):
    """Write the tree of `rev` to `dest` (a fresh directory)."""
    with tempfile.TemporaryFile() as archive:
        result = subprocess.run(["git", "-C", ROOT, "archive", rev],
                                stdout=archive, stderr=subprocess.PIPE)
        if result.returncode != 0:
            fail("git archive %s failed: %s" %
                 (rev, result.stderr.decode().strip()))
        archive.seek(0)
        # The "data" filter refuses members that would land outside
        # `dest` (Python 3.11.4 and later).
        safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
        with tarfile.open(fileobj=archive) as tar:
            tar.extractall(dest, **safe)


def run_once(tree, target_dir, workload, seed, seconds):
    """One perfbench run: (metrics dict, digest lines)."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", "0"]
    result = subprocess.run(command, cwd=tree, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    where = "%s run of %s" % (workload, tree)
    lines = result.stdout.rstrip("\n").split("\n")
    if result.returncode != 0:
        sys.stderr.write(result.stderr)
        fail(where + " exited with code %d" % result.returncode)
    try:
        summary = json.loads(lines[-1])
    except ValueError:
        fail(where + " printed no result line")
    if summary.get("correct") is not True:
        fail(where + ' did not report "correct": true')
    digests = [line for line in lines if line.startswith("digest ")]
    if not digests:
        fail(where + " printed no digest line")
    metrics = {name: entry["value"]
               for name, entry in summary["metrics"].items()}
    return metrics, digests


def build_bench(tree, build_dir):
    """Configure (once) and build bench_perf_policy_eval of `tree`."""
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", tree, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release",
                     "-DSLEEPSCALE_BUILD_TESTS=OFF",
                     "-DSLEEPSCALE_BUILD_EXAMPLES=OFF"]
        if shutil.which("ninja") is not None:
            configure += ["-G", "Ninja"]
        step(configure, "configure " + tree)
    step(["cmake", "--build", build_dir, "-j", "4", "--target",
          "bench_perf_policy_eval"], "build " + tree)
    binary = os.path.join(build_dir, "bench_perf_policy_eval")
    if not os.access(binary, os.X_OK):
        fail("no bench_perf_policy_eval in %s (is Google Benchmark "
             "installed?)" % build_dir)
    return binary


def step(command, what):
    result = subprocess.run(command, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True)
    if result.returncode != 0:
        sys.stderr.write(result.stdout)
        fail(what + " failed")


def run_bench(binary, regex):
    """One micro-benchmark run: {name: (real time, unit)}."""
    command = [binary, "--benchmark_filter=" + regex,
               "--benchmark_format=json"]
    result = subprocess.run(command, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    if result.returncode != 0:
        sys.stderr.write(result.stderr)
        fail("%s exited with code %d" % (binary, result.returncode))
    try:
        entries = json.loads(result.stdout)["benchmarks"]
    except (ValueError, KeyError):
        fail("%s printed no benchmark JSON" % binary)
    times = {entry["name"]: (entry["real_time"], entry["time_unit"])
             for entry in entries if entry.get("run_type") != "aggregate"}
    if not times:
        fail("--bm '%s' selects no benchmark" % regex)
    return times


def bench_pairs(base, regex, pairs):
    """--bm mode: `pairs` alternating micro-benchmark pairs, then a
    report."""
    sha = git("rev-parse", "--verify", base + "^{commit}")
    base_tree = os.path.join(AB_DIR, "base-" + sha[:12])
    builds = {"base": os.path.join(AB_DIR, "bm-base-" + sha[:12]),
              "change": os.path.join(AB_DIR, "bm-change")}
    shutil.rmtree(base_tree, ignore_errors=True)
    os.makedirs(base_tree)
    try:
        extract(sha, base_tree)
        print("ab: base %s, change = working tree of %s; %d pairs of "
              "'%s'" % (sha[:12], ROOT, pairs, regex), flush=True)
        binaries = {}
        for side, tree in (("base", base_tree), ("change", ROOT)):
            print("ab: building the %s bench_perf_policy_eval" % side,
                  flush=True)
            binaries[side] = build_bench(tree, builds[side])
        runs = {"base": [], "change": []}
        for pair in range(pairs):
            order = ["base", "change"] if pair % 2 == 0 else \
                ["change", "base"]
            for side in order:
                runs[side].append(run_bench(binaries[side], regex))
            if set(runs["base"][-1]) != set(runs["change"][-1]):
                fail("pair %d: the two sides ran different benchmarks"
                     % pair)
            print("ab: micro-benchmark pair %d/%d done" %
                  (pair + 1, pairs), flush=True)
    finally:
        shutil.rmtree(base_tree, ignore_errors=True)

    for name in runs["base"][0]:
        unit = runs["base"][0][name][1]
        metric = {"name": name, "unit": unit, "better": "lower"}
        print(report("bm", metric, [r[name][0] for r in runs["base"]],
                     [r[name][0] for r in runs["change"]]))
    return 0


def quartiles(values):
    """(q1, median, q3) of at least one value."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def bootstrap_ratio(ratios):
    """Median of `ratios` and its bootstrap 95% interval."""
    rng = random.Random(0)
    medians = sorted(
        statistics.median(rng.choice(ratios) for _ in ratios)
        for _ in range(RESAMPLES))
    low = medians[int(0.025 * RESAMPLES)]
    high = medians[int(0.975 * RESAMPLES) - 1]
    return statistics.median(ratios), low, high


def report(workload, metric, base, change):
    """One result line for `metric` over paired runs."""
    name, unit, better = metric["name"], metric["unit"], metric["better"]
    if base == change:
        return "%s %s: = %.6g %s on every run" % (workload, name, base[0],
                                                   unit)
    b1, bm, b3 = quartiles(base)
    c1, cm, c3 = quartiles(change)
    wins = sum(1 for b, c in zip(base, change)
               if (c < b if better == "lower" else c > b))
    line = ("%s %s (%s is better): base %.4g [%.4g, %.4g] %s, "
            "change %.4g [%.4g, %.4g] %s, change wins %d/%d, "
            "|median gap| %.4g vs base IQR %.4g" %
            (workload, name, better, bm, b1, b3, unit, cm, c1, c3, unit,
             wins, len(base), abs(cm - bm), b3 - b1))
    if all(b > 0 for b in base):
        ratio, low, high = bootstrap_ratio(
            [c / b for b, c in zip(base, change)])
        line += ", ratio %.3f (95%% CI %.3f-%.3f)" % (ratio, low, high)
    return line


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="base revision (any git rev)")
    parser.add_argument("--workloads", default="single-day",
                        help="comma list of perfbench workloads")
    parser.add_argument("--pairs", type=int, default=10,
                        help="alternating pairs per workload (K)")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--seconds", type=int, default=40,
                      help="budget of each run")
    parser.add_argument("--seed", type=int, default=1)
    mode.add_argument("--bm", metavar="REGEX",
                      help="pair bench_perf_policy_eval runs of the "
                      "BM_* matching REGEX instead of perfbench runs")
    args = parser.parse_args()
    if args.pairs < 1 or args.seconds < 1:
        fail("--pairs and --seconds must be >= 1")
    if args.bm is not None:
        return bench_pairs(args.base, args.bm, args.pairs)

    with open(os.path.join(ROOT, "BENCHMARK.json"),
              encoding="utf-8") as handle:
        benchmark = json.load(handle)
    known = [w["name"] for w in benchmark["workloads"]]
    workloads = args.workloads.split(",")
    for workload in workloads:
        if workload not in known:
            fail("unknown workload '%s' (known: %s)" %
                 (workload, ", ".join(known)))

    sha = git("rev-parse", "--verify", args.base + "^{commit}")
    base_tree = os.path.join(AB_DIR, "base-" + sha[:12])
    base_target = os.path.join(AB_DIR, "target-base-" + sha[:12])
    change_target = os.path.join(AB_DIR, "target-change")
    sides = {"base": (base_tree, base_target),
             "change": (ROOT, change_target)}

    shutil.rmtree(base_tree, ignore_errors=True)
    os.makedirs(base_tree)
    try:
        extract(sha, base_tree)
        print("ab: base %s, change = working tree of %s; %d pairs of "
              "%d s, seed %d" % (sha[:12], ROOT, args.pairs, args.seconds,
                                 args.seed), flush=True)
        # A one-second run per side builds its driver, so no timed run
        # shares the host with a compiler.
        for side, (tree, target) in sides.items():
            print("ab: building the %s driver" % side, flush=True)
            run_once(tree, target, workloads[0], args.seed, 1)
        results = {}
        for workload in workloads:
            runs = {"base": [], "change": []}
            for pair in range(args.pairs):
                order = ["base", "change"] if pair % 2 == 0 else \
                    ["change", "base"]
                digests = {}
                for side in order:
                    tree, target = sides[side]
                    metrics, digests[side] = run_once(
                        tree, target, workload, args.seed, args.seconds)
                    runs[side].append(metrics)
                if digests["base"] != digests["change"]:
                    fail("%s pair %d: digests differ\n  base:   %s\n"
                         "  change: %s" %
                         (workload, pair, "\n          ".join(
                             digests["base"]), "\n          ".join(
                                 digests["change"])))
                print("ab: %s pair %d/%d done (digests equal)" %
                      (workload, pair + 1, args.pairs), flush=True)
            results[workload] = runs
    finally:
        shutil.rmtree(base_tree, ignore_errors=True)

    for workload in workloads:
        runs = results[workload]
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            if name not in runs["base"][0]:
                continue
            print(report(workload, metric,
                         [m[name] for m in runs["base"]],
                         [m[name] for m in runs["change"]]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
