#!/usr/bin/env python3
"""Run-to-run stability of the end-to-end metrics.  Run from the repository root:

    python3 perfbench/stability.py [--first-seed 1]

Runs every workload ten times for run_seconds from BENCHMARK.json, once per
seed (seeds first-seed .. first-seed+9, workloads interleaved within a seed),
then prints, for each end-to-end metric, the median, the quartiles
(statistics.quantiles, n=4) and the spread (q3 - q1) / median next to the
metric's bound.  Exits 1 if any run failed or any spread exceeds its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]

    values = {w: {m["name"]: [] for m in spec["end_to_end"]} for w in workloads}
    ok = True
    for seed in range(args.first_seed, args.first_seed + RUNS):
        for w in workloads:
            done = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", w,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=False)
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if done.returncode == 0 and lines else None
            if result is None or not result["correct"]:
                print(f"FAIL {w} seed {seed}: exit {done.returncode}", flush=True)
                ok = False
                continue
            print(f"{w:13s} seed {seed:3d}  " + "  ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
            for name, metric in result["metrics"].items():
                values[w][name].append(metric["value"])

    print(f"\n{'workload':13s} {'metric':12s} {'n':>3s} {'median':>10s} {'q1':>10s} "
          f"{'q3':>10s} {'spread':>7s} {'bound':>6s}")
    for w in workloads:
        for m in spec["end_to_end"]:
            vals = values[w][m["name"]]
            if len(vals) < 2:
                continue
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med
            flag = ""
            if spread > m["bound"]:
                flag = "  OVER"
                ok = False
            print(f"{w:13s} {m['name']:12s} {len(vals):3d} {med:10.4g} {q1:10.4g} "
                  f"{q3:10.4g} {spread:7.3f} {m['bound']:6.2f}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
