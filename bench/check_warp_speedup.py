#!/usr/bin/env python3
"""CI gate: assert the time warp speeds up a warp-off/on benchmark pair.

Reads a Google Benchmark JSON file containing BENCHMARK/0 (warp off) and
BENCHMARK/1 (warp on) and fails unless the warp-on sim_ticks_per_second is
at least MIN_SPEEDUP x the warp-off rate. Both rates come from the same
run, so the ratio carries across hosts. BENCHMARK defaults to
BM_ModuleTick_IdleHeavy.

Usage: check_warp_speedup.py BENCH.json [min_speedup] [benchmark]
"""
import json
import sys


def main() -> int:
    if len(sys.argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    path = sys.argv[1]
    min_speedup = float(sys.argv[2]) if len(sys.argv) > 2 else 2.0
    benchmark = sys.argv[3] if len(sys.argv) > 3 else "BM_ModuleTick_IdleHeavy"

    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)

    rates = {}
    for bench in data.get("benchmarks", []):
        name = bench.get("name", "")
        if not name.startswith(benchmark + "/"):
            continue
        if bench.get("run_type") == "aggregate":
            continue
        arg = name.split("/")[1]
        rate = bench.get("sim_ticks_per_second")
        if rate is not None:
            # Keep the best repetition per arg.
            rates[arg] = max(rates.get(arg, 0.0), float(rate))

    if "0" not in rates or "1" not in rates:
        print(f"error: {path} lacks {benchmark}/0 and /1 "
              f"(found: {sorted(rates)})", file=sys.stderr)
        return 2

    off, on = rates["0"], rates["1"]
    speedup = on / off if off > 0 else float("inf")
    print(f"{benchmark} sim ticks/sec: warp off {off:.3e}, warp on {on:.3e} "
          f"-> speedup {speedup:.1f}x (gate: >= {min_speedup}x)")
    if speedup < min_speedup:
        print("error: time warp speedup below the gate", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
