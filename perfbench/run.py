#!/usr/bin/env python3
"""Build and run the AIR benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

The first form configures and builds perfbench/ (the AIR libraries from
src/ plus the airbench driver, Release + LTO) under $CARGO_TARGET_DIR
(default .bench_build), runs one workload and passes airbench's output
through: a manifest line, a details line (untraced runs) and, last, the
result object. The second form runs every workload briefly and asserts that
every metric named in BENCHMARK.json is emitted, that no oracle fails, and
that corrupting the oracles' expected values makes them fail.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["fig8_mission", "world_busy8", "constellation1000",
             "schedulability_stream"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configure and build airbench; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no src/ beside perfbench/: run from the root of a full checkout")
    bdir = build_dir()
    os.makedirs(bdir, exist_ok=True)
    jobs = str(min(os.cpu_count() or 1, 4))
    with open(os.path.join(bdir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", bdir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", bdir, "--target", "airbench",
                      "-j", jobs])
        for step in steps:
            try:
                done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                      timeout=BUILD_TIMEOUT_S, check=False)
            except subprocess.TimeoutExpired:
                fail("build timed out: " + " ".join(step))
            if done.returncode != 0:
                fail("build failed: " + " ".join(step))
    return os.path.join(bdir, "airbench")


def describe():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", ROOT, "describe", "--always",
                              "--dirty", "--tags"], capture_output=True,
                             text=True, timeout=30, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def run(binary, workload, seed, seconds, trace, extra=()):
    """Run airbench once; returns (exit code, stdout lines)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--golden", os.path.join(ROOT, "tests", "golden",
                                    "fig8_mission_trace.digest"),
           "--describe", describe(), *extra]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail("%s timed out after %d s" % (workload, RUN_TIMEOUT_S))
    return done.returncode, done.stdout.splitlines()


def selftest(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = {0: [m["name"] for m in spec["end_to_end"]],
            1: [m["name"] for m in spec["per_layer"]]}
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, lines = run(binary, workload, 7, 1, trace)
            result = json.loads(lines[-1]) if code == 0 and lines else {}
            label = "%s --trace %d" % (workload, trace)
            if sorted(result.get("metrics", {})) != sorted(want[trace]):
                problems.append(label + ": metric names differ from "
                                "BENCHMARK.json")
            if result.get("failed") != 0 or result.get("correct") is not True:
                problems.append(label + ": oracle failures")
            print("selftest %-40s attempted %s failed %s" %
                  (label, result.get("attempted"), result.get("failed")))
        code, lines = run(binary, workload, 7, 1, 0, ["--corrupt-expected"])
        result = json.loads(lines[-1]) if code == 0 and lines else {}
        if not result.get("failed") or result.get("correct") is not False:
            problems.append(workload + ": corrupted oracles did not fail")
        print("selftest %-40s attempted %s failed %s" %
              (workload + " corrupted", result.get("attempted"),
               result.get("failed")))
    for problem in problems:
        print("selftest FAILED: " + problem, file=sys.stderr)
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    binary = build()
    if args.selftest:
        return selftest(binary)
    code, lines = run(binary, args.workload, args.seed, args.seconds,
                      args.trace)
    if code != 0:
        fail("airbench exited with code %d" % code)
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
