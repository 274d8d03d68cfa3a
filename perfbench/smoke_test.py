#!/usr/bin/env python3
"""Smoke test of the end-to-end benchmark.  Run from the repository root:

    python3 perfbench/smoke_test.py

For every workload it runs a few ops untraced and traced, and checks that
the last stdout line is the result object, that every op checked out, and
that every metric BENCHMARK.json names is printed with its unit (and, for the
end-to-end metrics, is positive).  It then corrupts each workload's
reference digest and checks that the run reports failed ops and exits 1.
Last, it checks that a copy holding only BENCHMARK.json and perfbench/
exits non-zero without printing a result.  Exit status 0 means all passed.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# Ops per run: fault_replay repeats its first fault seed at op 15, so 16 ops
# exercise the repeated-seed CRC check once.
OPS = {"analyze_uw3": 3, "serve_uw3": 20, "fault_replay": 16}

failures = []


def check(condition, what):
    if not condition:
        failures.append(what)
        print(f"FAIL {what}")


def run(root, workload, trace, extra=()):
    command = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
               "--seed", "7", "--seconds", "60", "--trace", str(trace),
               "--max-ops", str(OPS[workload]), *extra]
    done = subprocess.run(command, cwd=root, capture_output=True, text=True,
                          timeout=900, check=False)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return done.returncode, result, done.stderr


def check_metrics(label, result, defs, positive):
    metrics = result["metrics"]
    check(sorted(metrics) == sorted(d["name"] for d in defs),
          f"{label}: metric names differ from BENCHMARK.json")
    for d in defs:
        got = metrics.get(d["name"], {})
        check(got.get("unit") == d["unit"], f"{label}: {d['name']} unit")
        value = got.get("value")
        check(isinstance(value, (int, float)), f"{label}: {d['name']} value")
        if positive and isinstance(value, (int, float)):
            check(value > 0, f"{label}: {d['name']} is {value}")


def main():
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace, defs in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
            label = f"{workload} trace={trace}"
            code, result, err = run(ROOT, workload, trace)
            check(code == 0 and result is not None, f"{label}: exit {code}\n{err[-2000:]}")
            if result is None:
                continue
            check(result["correct"] is True and result["failed"] == 0,
                  f"{label}: ops failed")
            check(result["attempted"] >= 1, f"{label}: nothing attempted")
            check_metrics(label, result, defs, positive=trace == 0)
            print(f"ok   {label}: {result['attempted']} attempted")

        label = f"{workload} tampered"
        code, result, _ = run(ROOT, workload, 0, ["--tamper-reference"])
        check(code == 1, f"{label}: exit {code}, expected 1")
        check(result is not None and result["correct"] is False and result["failed"] >= 1,
              f"{label}: tampered reference not reported as a failure")
        if result is not None:
            print(f"ok   {label}: {result['failed']} of {result['attempted']} failed")

    bare = ROOT / ".bench_build" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench")
    code, result, _ = run(bare, "analyze_uw3", 0)
    check(code != 0 and result is None, f"bare copy: exit {code}, result {result}")
    shutil.rmtree(bare, ignore_errors=True)
    print("ok   bare copy refuses to run" if code != 0 else "")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
