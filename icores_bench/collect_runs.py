#!/usr/bin/env python3
"""Run the benchmark repeatedly and append the results as JSON lines.

    python3 icores_bench/collect_runs.py --out FILE [--runs 5] [--seed 1]
        [--seconds S] [--trace 0 1] [--workload NAME ...] [--root DIR]

One full run executes the BENCHMARK.json command once per workload and
trace mode; run i uses seed --seed + i, and --seconds defaults to the
benchmark's run_seconds. The command runs from --root
(default: the working directory), so a parent checkout and a changed one
can be measured alternately into two files for compare_benchmark.py. A new
file starts with a {"host": ...} header recording the machine and build.
"""

import argparse
import glob
import json
import os
import platform
import re
import subprocess
import sys


def read_text(path):
    try:
        with open(path) as f:
            return f.read().strip()
    except OSError:
        return ""


def host_header(root):
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR",
                                              ".bench_build"))
    compiler = ""
    for path in glob.glob(os.path.join(build, "CMakeFiles", "*",
                                       "CMakeCXXCompiler.cmake")):
        text = read_text(path)
        compiler = " ".join(
            m.group(1) for key in ("ID", "VERSION")
            for m in [re.search(r'CMAKE_CXX_COMPILER_%s "([^"]*)"' % key,
                                text)] if m)
    m = re.search(r"^CMAKE_BUILD_TYPE:\w+=(.*)$",
                  read_text(os.path.join(build, "CMakeCache.txt")), re.M)
    build_type = m.group(1) if m else ""
    numa = glob.glob("/sys/devices/system/node/node[0-9]*")
    return {"host": {
        "nproc": len(os.sched_getaffinity(0)),
        "numa_nodes": len(numa) or 1,
        "l3": read_text("/sys/devices/system/cpu/cpu0/cache/index3/size"),
        "kernel": platform.release(),
        "compiler": compiler,
        "build_type": build_type,
    }}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, nargs="+", default=[0, 1],
                        choices=(0, 1))
    parser.add_argument("--workload", nargs="+")
    parser.add_argument("--root", default=".")
    args = parser.parse_args()

    root = os.path.abspath(args.root)
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        benchmark = json.load(f)
    workloads = args.workload or [w["name"] for w in benchmark["workloads"]]
    seconds = args.seconds or benchmark["run_seconds"]
    out = os.path.abspath(args.out)
    new_file = not os.path.exists(out)
    for run in range(args.runs):
        seed = args.seed + run
        for workload in workloads:
            for trace in args.trace:
                cmd = benchmark["command"] + [
                    "--workload", workload, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", str(trace)]
                proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                                      text=True)
                lines = proc.stdout.strip().splitlines()
                if proc.returncode != 0 or not lines:
                    sys.exit("error: %s exited %d" % (" ".join(cmd),
                                                      proc.returncode))
                with open(out, "a") as f:
                    if new_file:
                        f.write(json.dumps(host_header(root)) + "\n")
                        new_file = False
                    f.write(json.dumps({"workload": workload, "seed": seed,
                                        "trace": trace,
                                        "result": json.loads(lines[-1])})
                            + "\n")
                print("run %d %s trace %d done" % (run + 1, workload, trace),
                      file=sys.stderr)


if __name__ == "__main__":
    main()
