#!/usr/bin/env python3
"""Smoke test of icores_bench: every workload, both trace modes, --quick.

    python3 icores_bench/smoke_test.py PATH/TO/icores_bench

Asserts that each run is bit-exact against SerialStepper, that it emits
exactly the metrics BENCHMARK.json names for its trace mode with their
units, that the five exec.*_share values sum to 1, and that
compare_benchmark rates a set of runs against itself as unchanged.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import compare_benchmark  # noqa: E402

SHARES = ["exec.kernel_share", "exec.team_barrier_share",
          "exec.global_barrier_share", "exec.idle_share",
          "exec.residual_share"]


def main():
    exe = sys.argv[1]
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        benchmark = json.load(f)
    expected = {0: benchmark["end_to_end"], 1: benchmark["per_layer"]}
    failures = []
    runs = {}
    for wl in benchmark["workloads"]:
        for trace in (0, 1):
            what = "%s trace %d" % (wl["name"], trace)
            proc = subprocess.run(
                [exe, "--workload=" + wl["name"], "--quick",
                 "--trace=%d" % trace], capture_output=True, text=True,
                timeout=60)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                failures.append("%s: exit %d\n%s"
                                % (what, proc.returncode, proc.stderr))
                continue
            result = json.loads(lines[-1])
            metrics = result["metrics"]
            if not result["correct"]:
                failures.append("%s: not correct\n%s" % (what, proc.stderr))
            if result["failed"] != 0 or result["attempted"] < 1:
                failures.append("%s: %d of %d checks failed" % (
                    what, result["failed"], result["attempted"]))
            want = {m["name"]: m["unit"] for m in expected[trace]}
            got = {k: v["unit"] for k, v in metrics.items()}
            if got != want:
                failures.append("%s: metrics %s, expected %s"
                                % (what, sorted(got.items()),
                                   sorted(want.items())))
            if trace == 1 and all(s in metrics for s in SHARES):
                total = sum(metrics[s]["value"] for s in SHARES)
                if abs(total - 1.0) > 1e-9:
                    failures.append("%s: shares sum to %.12f" % (what, total))
            if trace == 0:
                runs[wl["name"]] = [metrics]
    for wl, metric, verdict, _ in compare_benchmark.compare(runs, runs,
                                                            benchmark):
        if verdict != "unchanged":
            failures.append("self-compare %s %s: %s" % (wl, metric, verdict))
    for f in failures:
        print("FAIL:", f)
    print("icores_bench smoke test: %s" % ("FAILED" if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
