"""Steadiness check: run workloads once per seed and report each
end-to-end metric's spread against its bound from BENCHMARK.json.

Usage, from the repository root:

    python3 perfbench/steady.py --runs 10 --first-seed 1 report-small search

The spread is the distance between the first and third quartile of the
runs' values, as a share of their median.  A metric is steady when its
spread stays under a third of its bound (set-up time is reported but not
held to it).  Runs are sequential, one process at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import stats

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workloads", nargs="+")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    command = declared["command"]
    steady = True
    for workload in args.workloads:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            done = subprocess.run(
                [*command, "--workload", workload, "--seed", str(seed),
                 "--seconds", str(declared["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
            )
            result = json.loads(done.stdout.splitlines()[-1])
            if done.returncode != 0 or not result["correct"]:
                print(done.stdout + done.stderr, file=sys.stderr)
                return 1
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(json.dumps({"workload": workload, "seed": seed, **{n: v[-1] for n, v in values.items()}}),
                  flush=True)
        print(f"\n{workload}: {args.runs} runs, seeds {args.first_seed}..{args.first_seed + args.runs - 1}")
        print("| metric | median | spread | bound | spread / bound |")
        print("| --- | --- | --- | --- | --- |")
        for name, bound in bounds.items():
            spread = stats.iqr_share(values[name])
            if name != "setup_s":
                steady &= spread < bound / 3
            print(f"| {name} | {statistics.median(values[name]):.6g} | {spread:.4f} | {bound} | {spread / bound:.2f} |")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
