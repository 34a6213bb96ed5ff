#!/usr/bin/env python3
"""CI gate: a busy World must not commit the simulated RAM it never touches.

Runs the repository benchmark's world_busy8 workload untraced for 5
seconds (eight modules that each declare 16 MiB of simulated RAM and touch
none of it) and fails when its peak_rss_mib exceeds MAX_MIB. Simulated RAM
is demand-zero, so the workload's footprint is the simulator's own state;
a regression that fills the RAM at construction adds 128 MiB.

Usage: check_footprint.py MAX_MIB
"""
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    max_mib = float(sys.argv[1])
    run = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", "world_busy8", "--seconds", "5", "--trace", "0"],
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
    print(f"world_busy8 peak_rss_mib: {rss:.1f} (gate: <= {max_mib:.0f})")
    if rss > max_mib:
        print("error: world_busy8 footprint above the gate", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
