#!/usr/bin/env python3
"""Determinism lint: ban nondeterminism sources in src/.

The reproduction's core claim — parallel runs are bit-identical to
serial, and every result is reproducible from an explicit seed — dies
the moment wall clocks, ambient entropy, machine topology, or hash
iteration order leak into a simulation path. This lint bans those
sources at the line level (docs/CONCURRENCY.md states each rule's
rationale):

  libc-rand             rand()/srand(): unseeded-by-contract global
                        state; use util/rng.hh (xoshiro256++, explicit
                        seed).
  random-device         std::random_device: ambient entropy, different
                        every run; derive streams from the scenario
                        seed via mixSeed()/Rng::fork() instead.
  wall-clock            time(nullptr/NULL/0), std::chrono *_clock::now:
                        wall-clock reads make results time-of-day
                        dependent; simulated time comes from the event
                        loop, and timing benches belong in bench/ (not
                        linted).
  hardware-concurrency  std::thread::hardware_concurrency outside
                        src/util/thread_pool.cc: machine topology must
                        only ever size worker pools and scratch arenas
                        (ThreadPool::hardwareLanes), never shape a
                        result.
  cpu-dispatch          __builtin_cpu_supports/__builtin_cpu_is outside
                        src/sim/server_sim.cc: a CPU feature probe may
                        only pick between kernel bodies that tests pin
                        bit-identical (the block-replay kernel's SSE2
                        and AVX2 bodies), never shape a result.
  unordered-container   std::unordered_map/std::unordered_set anywhere
                        in src/: iteration order is unspecified and
                        libstdc++-version dependent, so any reduction
                        over one (experiment summaries, farm report
                        merges) silently loses bit-reproducibility; use
                        std::map or index-keyed vectors.

False positives are silenced in tools/determinism_allowlist.txt with
``<path-glob> <rule-id>`` lines — an entry applies the exemption to the
whole file, so keep entries narrow and justified with a trailing
comment.

Usage: tools/lint_determinism.py [file ...]   (defaults to src/**/*.{hh,cc})
Exits 1 if any violation remains after the allowlist.
"""

import fnmatch
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
ALLOWLIST = REPO_ROOT / "tools" / "determinism_allowlist.txt"
DEFAULT_GLOBS = ("src/**/*.hh", "src/**/*.cc")

# rule id -> (line regex, message). Regexes run on code with comments
# and string/char literals stripped, so documentation may mention the
# banned names freely.
RULES = {
    "libc-rand": (
        re.compile(r"\b(?:std\s*::\s*)?s?rand\s*\("),
        "libc rand()/srand() is hidden global state; draw from "
        "util/rng.hh (explicit seed) instead",
    ),
    "random-device": (
        re.compile(r"\brandom_device\b"),
        "std::random_device is ambient entropy; derive streams from "
        "the scenario seed (mixSeed()/Rng::fork()) instead",
    ),
    "wall-clock": (
        re.compile(
            r"\btime\s*\(\s*(?:nullptr|NULL|0)\s*\)"
            r"|\b(?:system|steady|high_resolution|utc|tai|gps|file)"
            r"_clock\s*::\s*now\b"),
        "wall-clock reads make results time-of-day dependent; "
        "simulated time advances through the run loop, and timing "
        "harnesses belong in bench/",
    ),
    "hardware-concurrency": (
        re.compile(r"\bhardware_concurrency\b"),
        "machine topology may only size worker pools; call "
        "ThreadPool::hardwareLanes() (src/util/thread_pool.cc) so lane "
        "counts never shape a result",
    ),
    "cpu-dispatch": (
        re.compile(r"\b__builtin_cpu_(?:supports|is)\b"),
        "CPU feature probes may only choose between bit-identical "
        "kernel bodies; the block-replay kernel "
        "(src/sim/server_sim.cc) is the one sanctioned site",
    ),
    "unordered-container": (
        re.compile(r"\bunordered_(?:map|set|multimap|multiset)\b"),
        "iteration order over hashed containers is unspecified, so "
        "reductions over them are not bit-reproducible; use std::map "
        "or an index-keyed vector",
    ),
}

STRING_RE = re.compile(r'"(?:[^"\\]|\\.)*"|\'(?:[^\'\\]|\\.)*\'')


def load_allowlist():
    """Parse ``<glob> <rule-id>`` lines; '#' starts a comment."""
    entries = []
    if not ALLOWLIST.exists():
        return entries
    for number, raw in enumerate(ALLOWLIST.read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2 or parts[1] not in RULES:
            print("%s:%d: error: malformed allowlist entry %r "
                  "(want: <path-glob> <rule-id>; rules: %s)" %
                  (ALLOWLIST.relative_to(REPO_ROOT), number, raw.strip(),
                   ", ".join(sorted(RULES))), file=sys.stderr)
            sys.exit(2)
        entries.append((parts[0], parts[1]))
    return entries


def allowed(entries, rel_path, rule):
    return any(fnmatch.fnmatch(rel_path, glob) and rule == rule_id
               for glob, rule_id in entries)


def strip_code(text):
    """Yield (line_number, code) with comments and literals blanked."""
    in_block = False
    for number, line in enumerate(text.splitlines(), 1):
        code = STRING_RE.sub('""', line)
        out = []
        i = 0
        while i < len(code):
            if in_block:
                end = code.find("*/", i)
                if end == -1:
                    i = len(code)
                else:
                    in_block = False
                    i = end + 2
            elif code.startswith("//", i):
                break
            elif code.startswith("/*", i):
                in_block = True
                i += 2
            else:
                out.append(code[i])
                i += 1
        yield number, "".join(out)


def lint_file(path, entries):
    violations = []
    try:
        rel = str(path.resolve().relative_to(REPO_ROOT))
    except ValueError:
        rel = str(path)
    for number, code in strip_code(path.read_text()):
        for rule, (pattern, message) in RULES.items():
            if pattern.search(code) and not allowed(entries, rel, rule):
                violations.append(
                    "%s:%d: error: [%s] %s" % (rel, number, rule, message))
    return violations


def main(argv):
    if len(argv) > 1:
        paths = [Path(arg) for arg in argv[1:]]
    else:
        paths = []
        for pattern in DEFAULT_GLOBS:
            paths.extend(sorted(REPO_ROOT.glob(pattern)))
    if not paths:
        print("lint_determinism: no files matched", file=sys.stderr)
        return 1

    entries = load_allowlist()
    violations = []
    for path in paths:
        violations.extend(lint_file(path, entries))

    for violation in violations:
        print(violation)
    if violations:
        print("lint_determinism: %d violation(s) in %d file(s) "
              "(allowlist: %s)" %
              (len(violations), len(paths),
               ALLOWLIST.relative_to(REPO_ROOT)), file=sys.stderr)
        return 1
    print("lint_determinism: %d file(s) clean" % len(paths))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
