#!/usr/bin/env python3
"""Run every workload of BENCHMARK.json and print all its metrics with units.

    python3 perfbench/report.py                # full runs of run_seconds each
    python3 perfbench/report.py --seconds 1    # smoke mode: one short run each

For each workload it runs run.py with --trace 0 and then --trace 1, one
process at a time, and checks that every declared metric is reported under
its declared unit and that every sweep passed its output check. Exits 1 if
anything is missing or failed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_one(spec: dict, workload: str, seed: int, seconds: float, trace: int) -> list[str]:
    """Print one run's metrics; return the problems found."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    label = f"{workload} trace={trace}"
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(proc.stderr)
        return [f"{label}: exit {proc.returncode}, no result line"]
    problems = []
    if proc.returncode != 0 or not result["correct"] or result["failed"]:
        sys.stderr.write(proc.stderr)
        problems.append(f"{label}: exit {proc.returncode}, "
                        f"{result['failed']} of {result['attempted']} sweeps failed")
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    reported = {name: m["unit"] for name, m in result["metrics"].items()}
    if reported != declared:
        problems.append(f"{label}: metrics/units differ from BENCHMARK.json: "
                        f"{sorted(set(reported.items()) ^ set(declared.items()))}")
    print("\n".join(proc.stdout.strip().splitlines()[:-1]))
    return problems


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            problems += run_one(spec, workload, args.seed, args.seconds, trace)
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
