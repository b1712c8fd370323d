"""Steadiness report: run workloads N times and show each metric's spread.

Usage (from the root of a checkout)::

    python3 perfbench/steady.py --runs 10 --seconds 15
    python3 perfbench/steady.py --runs 5 --workload serve-skewed --first-seed 100 --trace 1

Each run is ``perfbench/run.py`` with its own seed (``--first-seed``,
``--first-seed + 1``, ...).  For every metric it prints the median, the
quartiles from ``statistics.quantiles(values, n=4)`` and the spread
``(Q3 - Q1) / median``, and it flags every end-to-end spread (``setup_s``
aside) that is not below a third of its bound in ``BENCHMARK.json``.
Exits 1 if any run fails or reports an incorrect answer.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import WORKLOADS  # noqa: E402


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    completed = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", str(trace),
        ],
        capture_output=True,
        text=True,
        cwd=str(HERE.parent),
    )
    if completed.returncode != 0:
        sys.stderr.write(f"{workload} seed {seed} exited {completed.returncode}:\n")
        sys.stderr.write(completed.stdout[-2000:] + completed.stderr[-2000:])
    lines = completed.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return {"correct": False, "metrics": {}}
    result["correct"] = result["correct"] and completed.returncode == 0
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json"
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 to have quartiles")

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}

    ok = True
    for workload in args.workload or WORKLOADS:
        values = {}
        incorrect = 0
        walls = []
        for offset in range(args.runs):
            start = time.perf_counter()
            result = run_once(workload, args.first_seed + offset, args.seconds, args.trace)
            walls.append(time.perf_counter() - start)
            incorrect += not result["correct"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(
            f"== {workload} ({args.runs} runs, {incorrect} incorrect; "
            f"wall seconds per run {min(walls):.1f} to {max(walls):.1f})"
        )
        for name, series in values.items():
            q1, mid, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / mid if mid else float("nan")
            flag = ""
            if name in bounds and name != "setup_s" and not spread < bounds[name] / 3:
                flag = f"  <-- not below a third of bound {bounds[name]}"
            print(
                f"{name:36s} median={mid:.6g} q1={q1:.6g} q3={q3:.6g} "
                f"spread={spread:.4f}{flag}"
            )
            print("    values: " + " ".join(f"{value:.6g}" for value in series))
        sys.stdout.flush()
        ok &= incorrect == 0
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
