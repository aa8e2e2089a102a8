#!/usr/bin/env python3
"""Every end-to-end and per-layer metric of every workload, in one table.

    python3 perfbench/report.py --seed 0 --seconds 30

Run from the repository root.  For each workload this runs the
benchmark twice, untraced (end-to-end metrics) and traced (per-layer
metrics), each in its own process, and prints one line per metric:
workload, name, value and unit.  Exits 1 unless every run is correct
(``wrong_outputs`` and ``failed_frac`` both 0).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [
            sys.executable,
            os.path.join(HERE, "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", str(trace),
        ],
        cwd=os.path.dirname(HERE),
        capture_output=True,
        text=True,
    )
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        if line.startswith(("host ", "WRONG ", "wrong_outputs")):
            print(f"# {workload} trace={trace}: {line}")
    if not lines or not lines[-1].startswith("{"):
        sys.stderr.write(proc.stderr)
        return {"correct": False, "metrics": {}}
    return json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    args = parser.parse_args()
    correct = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            result = run_once(workload, args.seed, args.seconds, trace)
            correct = correct and result["correct"]
            for name, metric in result["metrics"].items():
                print(f"{workload:12s} {name:32s} {metric['value']:16.6g} {metric['unit']}")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
