"""Repeat mode: run workloads under several seeds and print each metric's spread.

Run from the repository root:

    python3 bench/spread.py --runs 10 [--workload cluster_sweep ...] [--first-seed 1]

It runs the command recorded in BENCHMARK.json once per seed, with the
recorded run length, and prints for every end-to-end metric the median,
the quartiles and the spread (interquartile range over median) next to
the metric's bound, plus the share of failed cells.  Raw results go to
.bench_work/spread-<workload>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in bench["workloads"]])
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    out_dir = os.path.join(ROOT, ".bench_work")
    os.makedirs(out_dir, exist_ok=True)
    for workload in args.workload or [w["name"] for w in bench["workloads"]]:
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            proc = subprocess.run(
                [*bench["command"], "--workload", workload, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=300,
            )
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            results.append(result)
            values = "  ".join(f"{k}={v['value']:.4f}" for k, v in result["metrics"].items())
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed {result['failed']}/{result['attempted']}  {values}", flush=True)
        with open(os.path.join(out_dir, f"spread-{workload}.json"), "w", encoding="utf-8") as handle:
            json.dump(results, handle, indent=1)

        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"{workload}: all correct={all(r['correct'] for r in results)}  "
              f"failed shares {sorted(shares)}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            verdict = "ok" if spread < bound / 3 else ("within bound" if spread <= bound else "TOO WIDE")
            print(f"  {name:>20}  median {median:12.4f}  q1 {q1:12.4f}  q3 {q3:12.4f}  "
                  f"spread {spread:6.3f}  bound {bound:5.3f}  {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
