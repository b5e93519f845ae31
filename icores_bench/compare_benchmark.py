#!/usr/bin/env python3
"""Compare two sets of icores_bench runs, metric by metric.

    python3 icores_bench/compare_benchmark.py PARENT.jsonl CHANGE.jsonl
                                              [--benchmark BENCHMARK.json]

Each file holds the records collect_runs.py writes: one JSON object per
line, {"workload", "seed", "trace", "result"}, optionally preceded by a
{"host": ...} header. Only --trace 0 records are compared; they carry the
end-to-end metrics. For every (workload, end-to-end metric) the table
gives each side's median and quartiles (statistics.quantiles, n=4), the
spread (quartile distance over the parent median), the pair wins (the
i-th parent run against the i-th change run; ties count for neither) and
a verdict:

  improved    the change wins >= 9/10 of the pairs and the medians differ
              by more than the parent's quartile distance;
  unresolved  the spread of either side is wider than the metric's bound,
              unless every change run reads better than every parent run;
  worse       the change median is worse than the parent's by more than
              the bound;
  unchanged   otherwise.

A metric absent from either side reads "missing". Exits 1 when any
verdict is "worse" or "missing", or a run was not correct.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_runs(path):
    """Returns {workload: [end-to-end metrics dict, ...]} in file order."""
    runs = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if "host" in record or record.get("trace") != 0:
                continue
            result = record["result"]
            if not result.get("correct") or result.get("failed"):
                raise ValueError("%s: %s seed %s was not correct"
                                 % (path, record["workload"], record["seed"]))
            runs.setdefault(record["workload"], []).append(result["metrics"])
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, better, bound):
    """Compares two samples of one metric; returns (verdict, fields)."""
    sign = 1.0 if better == "lower" else -1.0
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) < 0)
    spread = max(p3 - p1, c3 - c1) / abs(pm) if pm else 0.0
    worse_by = sign * (cm - pm) / abs(pm) if pm else 0.0
    all_better = all(sign * (c - p) < 0 for c in change for p in parent)
    if wins >= 0.9 * len(pairs) > 0 and sign * (pm - cm) > p3 - p1:
        v = "improved"
    elif spread > bound and not all_better:
        v = "unresolved"
    elif worse_by > bound:
        v = "worse"
    else:
        v = "unchanged"
    return v, dict(parent=(p1, pm, p3), change=(c1, cm, c3), wins=wins,
                   pairs=len(pairs), spread=spread, worse_by=worse_by)


def compare(parent_runs, change_runs, benchmark):
    """Yields (workload, metric, verdict, fields) for every pairing."""
    for wl in benchmark["workloads"]:
        name = wl["name"]
        parent = parent_runs.get(name, [])
        change = change_runs.get(name, [])
        for m in benchmark["end_to_end"]:
            p = [r[m["name"]]["value"] for r in parent if m["name"] in r]
            c = [r[m["name"]]["value"] for r in change if m["name"] in r]
            if not p or not c or len(p) != len(parent) or \
                    len(c) != len(change):
                yield name, m["name"], "missing", None
                continue
            v, fields = verdict(p, c, m["better"], m["bound"])
            yield name, m["name"], v, fields


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--benchmark",
                        default=os.path.join(HERE, "..", "BENCHMARK.json"))
    args = parser.parse_args()
    with open(args.benchmark) as f:
        benchmark = json.load(f)
    try:
        parent, change = load_runs(args.parent), load_runs(args.change)
    except ValueError as e:
        sys.exit("error: %s" % e)

    fmt = "%-14s %-17s %28s %28s %7s %6s %7s  %s"
    print(fmt % ("workload", "metric", "parent q1/median/q3",
                 "change q1/median/q3", "spread", "wins", "gain", "verdict"))
    any_worse = False
    for wl, metric, v, f in compare(parent, change, benchmark):
        any_worse |= v in ("worse", "missing")
        if f is None:
            print(fmt % (wl, metric, "-", "-", "-", "-", "-", v))
            continue
        print(fmt % (wl, metric,
                     "%.4g/%.4g/%.4g" % f["parent"],
                     "%.4g/%.4g/%.4g" % f["change"],
                     "%.1f%%" % (100 * f["spread"]),
                     "%d/%d" % (f["wins"], f["pairs"]),
                     "%+.1f%%" % (-100 * f["worse_by"]), v))
    sys.exit(1 if any_worse else 0)


if __name__ == "__main__":
    main()
