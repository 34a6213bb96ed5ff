#!/usr/bin/env python3
"""CI gate: building modules must not commit memory they never touch.

Runs one of the repository benchmark's workloads untraced for 5 seconds
and fails when its peak_rss_mib exceeds MAX_MIB. WORKLOAD defaults to
world_busy8: eight modules that each declare 16 MiB of simulated RAM and
touch none of it. Simulated RAM is demand-zero and an empty POS kernel owns
no heap memory, so the footprint is the simulator's own state; a
regression that fills the RAM at construction adds 128 MiB there, and one
that makes each partition's kernel allocate per priority level shows most
on constellation1000's thousand modules.

Usage: check_footprint.py MAX_MIB [WORKLOAD]
"""
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    if len(sys.argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    max_mib = float(sys.argv[1])
    workload = sys.argv[2] if len(sys.argv) == 3 else "world_busy8"
    run = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seconds", "5", "--trace", "0"],
        capture_output=True, text=True, check=False)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        sys.stderr.write(run.stderr[-2000:])
        print("error: perfbench run failed", file=sys.stderr)
        return 2
    result = json.loads(lines[-1])
    rss = result.get("metrics", {}).get("peak_rss_mib", {}).get("value")
    if rss is None:
        print("error: result line has no peak_rss_mib", file=sys.stderr)
        return 2
    print(f"{workload} peak_rss_mib: {rss:.1f} (gate: <= {max_mib:.0f})")
    if rss > max_mib:
        print(f"error: {workload} footprint above the gate", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
