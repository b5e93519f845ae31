#!/usr/bin/env python3
"""Build icores_bench from the checkout's sources and run one workload.

    python3 icores_bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. The package in this directory is
configured once into $CARGO_TARGET_DIR (default .bench_build, relative to
the working directory) and rebuilt incrementally on every call. Build
output goes to stderr, so the last line of stdout is the harness's JSON
result. The exit code is the harness's; a failed build exits 1 without a
result.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def build(build_dir):
    steps = []
    generated = ("Makefile", "build.ninja")
    if not any(os.path.exists(os.path.join(build_dir, f)) for f in generated):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "icores_bench",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("error: building icores_bench failed: " + " ".join(cmd))
    return os.path.join(build_dir, "icores_bench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not 0 <= args.seed < 2**63:
        parser.error("--seed must be in [0, 2^63)")
    if not 1 <= args.seconds <= 60:
        parser.error("--seconds must be in [1, 60]")

    exe = build(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    cmd = [exe, "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%d" % args.seconds, "--trace=%d" % args.trace]
    try:
        sys.exit(subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode)
    except subprocess.TimeoutExpired:
        sys.exit("error: icores_bench ran past %d s" % RUN_TIMEOUT_S)


if __name__ == "__main__":
    main()
