#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload analyze_uw3 --seed 1 --seconds 30 --trace 0

The pathsel libraries and the perfbench binary are built from source into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); later runs only
re-check the build.  The binary's stdout passes through: its last line is the
JSON result.  Build output goes to stderr.  The exit status is the binary's:
0 when every op's output checked out, 1 when any op failed, 2 when the
benchmark could not run at all (no sources, build failure, bad arguments).
"""

import argparse
import fcntl
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("analyze_uw3", "serve_uw3", "fault_replay")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(bench_dir, build_dir):
    build_dir.mkdir(parents=True, exist_ok=True)
    # One build at a time per build directory.
    with open(build_dir / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (build_dir / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(bench_dir), "-B", str(build_dir),
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", str(build_dir), "--target", "perfbench",
                      "-j", "4"])
        for step in steps:
            try:
                done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                      timeout=BUILD_TIMEOUT_S, check=False)
            except subprocess.TimeoutExpired:
                fail("build timed out")
            if done.returncode != 0:
                fail("build failed")
    return build_dir / "perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--max-ops", type=int, default=0,
                        help="stop after this many ops (smoke tests)")
    parser.add_argument("--tamper-reference", action="store_true",
                        help="corrupt the reference digest; every check must fail")
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    bench_dir = Path(__file__).resolve().parent
    root = bench_dir.parent
    if not (root / "src" / "CMakeLists.txt").is_file():
        fail(f"no pathsel sources under {root / 'src'}")
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = root / target
    build_dir = target / "perfbench"
    binary = build(bench_dir, build_dir)

    command = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        command += ["--trace-out",
                    str(build_dir / f"trace-{args.workload}-seed{args.seed}.json")]
    if args.max_ops:
        command += ["--max-ops", str(args.max_ops)]
    if args.tamper_reference:
        command.append("--tamper-reference")
    sys.stdout.flush()
    try:
        done = subprocess.run(command, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail("workload timed out")
    sys.exit(done.returncode if done.returncode >= 0 else 2)


if __name__ == "__main__":
    main()
