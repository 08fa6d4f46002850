"""Run-to-run spread of the benchmark's metrics.

    python3 bench/spread.py --workloads all --seeds 1-10 --seconds 30

Runs ``bench/run.py --trace 0`` once per (workload, seed), one run at a
time, and prints for every end-to-end metric the median, the quartiles and
the spread: the distance between the quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median.  The
bounds in BENCHMARK.json rest on these spreads.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from run import WORKLOADS, run_child


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: float) -> dict:
    result = json.loads(run_child(workload, seed, seconds, 0, subprocess.PIPE)[-1])
    if not result["correct"]:
        raise SystemExit(f"run {workload} seed {seed} failed a check")
    return result


def summarize(results: list[dict]) -> list[str]:
    lines = []
    shares = {r["failed"] / r["attempted"] for r in results}
    lines.append(f"   failed share per run: {sorted(shares)}")
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        lines.append(f"   {name:28s} median {med:12.6g} {first['unit']:6s} "
                     f"q1 {q1:12.6g} q3 {q3:12.6g} spread {spread:7.4f} "
                     f"min {min(values):.6g} max {max(values):.6g}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default="all")
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args(argv)
    names = WORKLOADS if args.workloads == "all" else tuple(args.workloads.split(","))
    for workload in names:
        results = []
        for seed in _seeds(args.seeds):
            results.append(run_once(workload, seed, args.seconds))
            print(f"# {workload} seed {seed}: " + json.dumps(results[-1]), flush=True)
        print(f"== {workload}: {len(results)} runs")
        print("\n".join(summarize(results)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
