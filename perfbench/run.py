#!/usr/bin/env python3
"""Builds the Sight end-to-end benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload crawl_growth --seed 1 --seconds 20 --trace 0

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench)
and is incremental, so only the first run of a checkout compiles the library.
Build output goes to stderr. Standard output is the benchmark's own: a context
line, then the result object as the last line. The exit code is the
benchmark's: 0 when every operation and correctness gate passed, non-zero
otherwise (and when the build fails, without a result line).
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("crawl_growth", "cold_10k_topk8")
HERE = os.path.dirname(os.path.abspath(__file__))
# A run measures for --seconds plus its set-ups and gates; anything past
# this has hung.
RUN_TIMEOUT_S = 170


def build(build_dir):
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir],
        ["cmake", "--build", build_dir, "--target", "sight_perfbench",
         "-j", "4"],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            return None
    return os.path.join(build_dir, "sight_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    target_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    binary = build(os.path.join(target_dir, "perfbench"))
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
