#!/usr/bin/env python3
"""Validates icores JSON records, dispatching on their "schema" field.

Usage: validate_bench_json.py FILE [FILE...]

Accepted schemas (any other "schema" value is a validation failure):

  icores.bench.v1 (bench/BenchUtil.cpp writeBenchJson and
  writeKernelBenchJson):
  {
    "schema": "icores.bench.v1",
    "bench": "<name>",
    "rows": [...]
  }
  Two row shapes share the schema, distinguished by the "variant" field:
    strategy rows (paper_tables, BENCH_table3/4):
      {"strategy": str, "p": int >= 1, "seconds": float > 0,
       "barrier_share": float in [0, 1], "total_barriers": int >= 0,
       "elided_barriers": int >= 0 (<= total_barriers),
       "optimized_seconds": float >= 0, "gflops": float >= 0}
    kernel-roofline rows (bench_kernels; has a "variant" field):
      {"variant": "ref"|"simd", "stage": str,
       "region": "hot"|"cold", "seconds": float > 0,
       "gflops": float >= 0, "gbps": float >= 0}

  icores.exec_stats.v5 (--profile output of mpdata_cli,
  src/exec/ExecStats.cpp writeJson): the run's counters and timers.
  Required top-level fields:
    "enabled" and "stealing" (bools); "steps", "run_calls",
    "elided_barriers", "spin_wakes", "sleep_wakes", the fault counters
    "faults_injected", "retries", "timeouts", "recovered", the placement
    counters "remote_bytes_est", "pages_first_touched", "pin_failures",
    and "steals", "steal_failures" (ints >= 0); "wall_seconds",
    "kernel_seconds", "team_barrier_wait_seconds", "idle_seconds"
    (floats >= 0); "barrier_share" (in [0, 1]); "placement"
    (none/firsttouch/interleave); "balance" (uniform/cost);
    "predicted_island_skew" and "measured_island_skew" (>= 1, or exactly
    0 when unpriced); "islands" (a list).
  Optional, checked when present: "temporal_depth" (int >= 1),
  "fold_seconds" (float >= 0), "shared_read_bytes" and
  "shared_written_bytes" (ints >= 0).
  Every island needs "island", "num_threads", "stages" and an
  "imbalance_per_step" list of ratios (>= 1, or 0); every thread needs
  "steals", "steal_failures" (ints >= 0) and "idle_seconds" (>= 0), and
  an optional "fold_seconds" (>= 0).

  icores.prove.v1 (src/verify/ProofDriver.cpp writeProveJson; emitted by
  tools/icores_verify):
  {
    "schema": "icores.prove.v1",
    "grid": str, "time_steps": int >= 1,
    "plans": [{"label": str, "workload": str, "strategy": str,
               "teams": int >= 1, "temporal_depth": int >= 1,
               "elide": bool, "verdict": "proved"|"pruned"|"violated",
               "errors": int >= 0,
               optional "prune_reason"/"witness": str}, ...],
    "protocol": {"barrier": [...], "barrier_mutants": [...],
                 "comm": [...], "comm_mutants": [...]},
    "mutation": {"classes": [{"class": str, "kill_id": str,
                              "mutants": int, "killed": int}, ...],
                 "kill_rate": float in [0, 1]},
    "summary": {"plans", "proved", "pruned", "violated" (ints),
                "protocol_ok": bool, "kill_rate": float, "ok": bool}
  }
  Cross-checks: summary counts must match the plans list, and every
  protocol mutant must be caught when summary.ok is true.

Exits nonzero listing every violation found.
"""

import json
import sys

NUMBER = (int, float)

ROW_FIELDS = {
    "strategy": str,
    "p": int,
    "seconds": NUMBER,
    "barrier_share": NUMBER,
    "total_barriers": int,
    "elided_barriers": int,
    "optimized_seconds": NUMBER,
    "gflops": NUMBER,
}

KERNEL_ROW_FIELDS = {
    "variant": str,
    "stage": str,
    "region": str,
    "seconds": NUMBER,
    "gflops": NUMBER,
    "gbps": NUMBER,
}

EXEC_STATS_COUNTERS = (
    "steps", "run_calls", "elided_barriers", "spin_wakes", "sleep_wakes",
    "faults_injected", "retries", "timeouts", "recovered",
    "remote_bytes_est", "pages_first_touched", "pin_failures", "steals",
    "steal_failures")

EXEC_STATS_FIELDS = dict(
    {field: int for field in EXEC_STATS_COUNTERS},
    enabled=bool,
    stealing=bool,
    wall_seconds=NUMBER,
    kernel_seconds=NUMBER,
    team_barrier_wait_seconds=NUMBER,
    idle_seconds=NUMBER,
    barrier_share=NUMBER,
    placement=str,
    balance=str,
    predicted_island_skew=NUMBER,
    measured_island_skew=NUMBER,
    islands=list,
)

PLACEMENT_NAMES = ("none", "firsttouch", "interleave")

BALANCE_NAMES = ("uniform", "cost")

PROVE_PLAN_FIELDS = {
    "label": str,
    "workload": str,
    "strategy": str,
    "teams": int,
    "temporal_depth": int,
    "elide": bool,
    "verdict": str,
    "errors": int,
}

PROVE_MUTATION_CLASS_FIELDS = {
    "class": str,
    "kill_id": str,
    "mutants": int,
    "killed": int,
}


def has_type(value, types):
    """isinstance() that keeps JSON booleans out of the numeric types."""
    return isinstance(value, types) and (
        types is bool or not isinstance(value, bool))


def check_fields(where, obj, fields):
    """One error per field of \\p fields missing from \\p obj or mistyped."""
    errors = []
    for field, types in fields.items():
        if field not in obj:
            errors.append("%s: missing field %r" % (where, field))
        elif not has_type(obj[field], types):
            errors.append("%s: field %r has type %s"
                          % (where, field, type(obj[field]).__name__))
    return errors


def is_seconds(value):
    """True for a non-negative JSON number that is not a bool."""
    return has_type(value, NUMBER) and value >= 0


def is_count(value):
    """True for a non-negative JSON integer that is not a bool."""
    return has_type(value, int) and value >= 0


def is_ratio(value):
    """A max/mean ratio: >= 1 by construction, or exactly 0 when the
    quantity was not priced or not measured."""
    return has_type(value, NUMBER) and (value >= 1 or value == 0)


def validate_exec_stats(path, doc):
    errors = check_fields(path, doc, EXEC_STATS_FIELDS)
    if errors:
        return errors
    for field in EXEC_STATS_COUNTERS:
        if doc[field] < 0:
            errors.append("%s: field %r = %d < 0" % (path, field, doc[field]))
    for field in ("wall_seconds", "kernel_seconds",
                  "team_barrier_wait_seconds", "idle_seconds"):
        if doc[field] < 0:
            errors.append("%s: %s = %g < 0" % (path, field, doc[field]))
    if not 0 <= doc["barrier_share"] <= 1:
        errors.append("%s: barrier_share = %g outside [0, 1]"
                      % (path, doc["barrier_share"]))
    if doc["placement"] not in PLACEMENT_NAMES:
        errors.append("%s: placement = %r not in %s"
                      % (path, doc["placement"], "/".join(PLACEMENT_NAMES)))
    if doc["balance"] not in BALANCE_NAMES:
        errors.append("%s: balance = %r not in %s"
                      % (path, doc["balance"], "/".join(BALANCE_NAMES)))
    for field in ("predicted_island_skew", "measured_island_skew"):
        if not is_ratio(doc[field]):
            errors.append("%s: %s = %g must be >= 1 (or 0 when unpriced)"
                          % (path, field, doc[field]))
    if "temporal_depth" in doc and not (
            has_type(doc["temporal_depth"], int)
            and doc["temporal_depth"] >= 1):
        errors.append("%s: temporal_depth must be an int >= 1" % path)
    if "fold_seconds" in doc and not is_seconds(doc["fold_seconds"]):
        errors.append("%s: fold_seconds must be a float >= 0" % path)
    for field in ("shared_read_bytes", "shared_written_bytes"):
        if field in doc and not is_count(doc[field]):
            errors.append("%s: %s must be an int >= 0" % (path, field))
    for i, island in enumerate(doc["islands"]):
        where = "%s: islands[%d]" % (path, i)
        if not isinstance(island, dict):
            errors.append("%s: not an object" % where)
            continue
        for field in ("island", "num_threads", "stages"):
            if field not in island:
                errors.append("%s: missing field %r" % (where, field))
        steps = island.get("imbalance_per_step")
        if not isinstance(steps, list) or not all(map(is_ratio, steps)):
            errors.append("%s: 'imbalance_per_step' must be a list of "
                          "ratios >= 1 (or 0)" % where)
        for t, thread in enumerate(island.get("threads", [])):
            twhere = "%s: threads[%d]" % (where, t)
            if not isinstance(thread, dict):
                errors.append("%s: not an object" % twhere)
                continue
            for field in ("steals", "steal_failures"):
                if not is_count(thread.get(field)):
                    errors.append("%s: %r must be an int >= 0"
                                  % (twhere, field))
            if not is_seconds(thread.get("idle_seconds")):
                errors.append("%s: 'idle_seconds' must be >= 0" % twhere)
            if "fold_seconds" in thread \
                    and not is_seconds(thread["fold_seconds"]):
                errors.append("%s: fold_seconds must be a float >= 0"
                              % twhere)
    return errors


def validate_prove(path, doc):
    errors = []
    if not isinstance(doc.get("grid"), str) or not doc.get("grid"):
        errors.append("%s: missing or empty 'grid'" % path)
    if not has_type(doc.get("time_steps"), int) or doc["time_steps"] < 1:
        errors.append("%s: time_steps must be an int >= 1" % path)

    plans = doc.get("plans")
    if not isinstance(plans, list) or not plans:
        errors.append("%s: 'plans' must be a non-empty list" % path)
        plans = []
    verdicts = {"proved": 0, "pruned": 0, "violated": 0}
    labels = set()
    for i, plan in enumerate(plans):
        where = "%s: plans[%d]" % (path, i)
        if not isinstance(plan, dict):
            errors.append("%s: not an object" % where)
            continue
        plan_errors = check_fields(where, plan, PROVE_PLAN_FIELDS)
        if plan_errors:
            errors.extend(plan_errors)
            continue
        if plan["verdict"] not in verdicts:
            errors.append("%s: verdict = %r not in proved/pruned/violated"
                          % (where, plan["verdict"]))
            continue
        verdicts[plan["verdict"]] += 1
        if plan["label"] in labels:
            errors.append("%s: duplicate label %r" % (where, plan["label"]))
        labels.add(plan["label"])
        if plan["teams"] < 1 or plan["temporal_depth"] < 1:
            errors.append("%s: teams/temporal_depth must be >= 1" % where)
        if plan["verdict"] == "pruned" and not plan.get("prune_reason"):
            errors.append("%s: pruned plan without 'prune_reason'" % where)
        if plan["verdict"] == "violated" and plan["errors"] < 1:
            errors.append("%s: violated plan with errors = 0" % where)

    protocol = doc.get("protocol")
    if not isinstance(protocol, dict):
        errors.append("%s: missing 'protocol' object" % path)
        protocol = {}
    for section in ("barrier", "comm"):
        runs = protocol.get(section)
        if not isinstance(runs, list) or not runs:
            errors.append("%s: protocol.%s must be a non-empty list"
                          % (path, section))
            continue
        for i, run in enumerate(runs):
            if not isinstance(run, dict) or not isinstance(
                    run.get("ok"), bool):
                errors.append("%s: protocol.%s[%d] needs a bool 'ok'"
                              % (path, section, i))
    uncaught = []
    for section in ("barrier_mutants", "comm_mutants"):
        for mutant in protocol.get(section, []):
            if not isinstance(mutant, dict) or not isinstance(
                    mutant.get("caught"), bool):
                errors.append("%s: protocol.%s entries need a bool 'caught'"
                              % (path, section))
            elif not mutant["caught"]:
                uncaught.append(mutant.get("mutant", "?"))

    mutation = doc.get("mutation")
    if not isinstance(mutation, dict):
        errors.append("%s: missing 'mutation' object" % path)
        mutation = {}
    for i, cls in enumerate(mutation.get("classes", [])):
        where = "%s: mutation.classes[%d]" % (path, i)
        if not isinstance(cls, dict):
            errors.append("%s: not an object" % where)
            continue
        cls_errors = check_fields(where, cls, PROVE_MUTATION_CLASS_FIELDS)
        errors.extend(cls_errors)
        if not cls_errors and cls["killed"] > cls["mutants"]:
            errors.append("%s: killed %d > mutants %d"
                          % (where, cls["killed"], cls["mutants"]))
    rate = mutation.get("kill_rate")
    if not has_type(rate, NUMBER) or not 0 <= rate <= 1:
        errors.append("%s: mutation.kill_rate must be in [0, 1]" % path)

    summary = doc.get("summary")
    if not isinstance(summary, dict):
        errors.append("%s: missing 'summary' object" % path)
        return errors
    errors.extend(check_fields(
        "%s: summary" % path, summary,
        {"plans": int, "proved": int, "pruned": int, "violated": int,
         "protocol_ok": bool, "ok": bool}))
    if errors:
        return errors
    if summary["plans"] != len(plans):
        errors.append("%s: summary.plans = %d but plans list has %d"
                      % (path, summary["plans"], len(plans)))
    for verdict in ("proved", "pruned", "violated"):
        if summary[verdict] != verdicts[verdict]:
            errors.append("%s: summary.%s = %d but counted %d"
                          % (path, verdict, summary[verdict],
                             verdicts[verdict]))
    if summary["ok"] and (summary["violated"] or not summary["protocol_ok"]):
        errors.append("%s: summary.ok contradicts violations/protocol" % path)
    if summary["ok"] and uncaught:
        errors.append("%s: summary.ok with uncaught protocol mutants: %s"
                      % (path, ", ".join(uncaught)))
    return errors


def validate_strategy_row(where, row):
    errors = check_fields(where, row, ROW_FIELDS)
    if errors:
        return errors
    if row["p"] < 1:
        errors.append("%s: p = %d < 1" % (where, row["p"]))
    if row["seconds"] <= 0:
        errors.append("%s: seconds = %g <= 0" % (where, row["seconds"]))
    if not 0 <= row["barrier_share"] <= 1:
        errors.append("%s: barrier_share = %g outside [0, 1]"
                      % (where, row["barrier_share"]))
    if row["total_barriers"] < 0 or row["elided_barriers"] < 0:
        errors.append("%s: negative barrier count" % where)
    if row["elided_barriers"] > row["total_barriers"]:
        errors.append("%s: elided_barriers %d > total_barriers %d"
                      % (where, row["elided_barriers"],
                         row["total_barriers"]))
    if row["optimized_seconds"] < 0 or row["gflops"] < 0:
        errors.append("%s: negative optimized_seconds/gflops" % where)
    return errors


def validate_kernel_row(where, row):
    errors = check_fields(where, row, KERNEL_ROW_FIELDS)
    if errors:
        return errors
    if row["variant"] not in ("ref", "simd"):
        errors.append("%s: variant = %r not in ref/simd"
                      % (where, row["variant"]))
    if row["region"] not in ("hot", "cold"):
        errors.append("%s: region = %r not in hot/cold"
                      % (where, row["region"]))
    if not row["stage"]:
        errors.append("%s: empty stage name" % where)
    if row["seconds"] <= 0:
        errors.append("%s: seconds = %g <= 0" % (where, row["seconds"]))
    if row["gflops"] < 0 or row["gbps"] < 0:
        errors.append("%s: negative gflops/gbps" % where)
    return errors


def validate_bench(path, doc):
    errors = []
    if not isinstance(doc.get("bench"), str) or not doc.get("bench"):
        errors.append("%s: missing or empty 'bench' name" % path)
    rows = doc.get("rows")
    if not isinstance(rows, list) or not rows:
        errors.append("%s: 'rows' must be a non-empty list" % path)
        return errors
    for i, row in enumerate(rows):
        where = "%s: rows[%d]" % (path, i)
        if not isinstance(row, dict):
            errors.append("%s: not an object" % where)
        elif "variant" in row:
            errors.extend(validate_kernel_row(where, row))
        else:
            errors.extend(validate_strategy_row(where, row))
    return errors


VALIDATORS = {
    "icores.bench.v1": validate_bench,
    "icores.exec_stats.v5": validate_exec_stats,
    "icores.prove.v1": validate_prove,
}


def validate(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        return ["%s: unreadable or invalid JSON: %s" % (path, e)]
    if not isinstance(doc, dict):
        return ["%s: not a JSON object" % path]
    schema = doc.get("schema")
    if schema not in VALIDATORS:
        return ["%s: schema is %r, want %s"
                % (path, schema, ", ".join(repr(s) for s in VALIDATORS))]
    return VALIDATORS[schema](path, doc)


def main(argv):
    files = argv[1:]
    if not files or any(arg.startswith("-") for arg in files):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    failures = 0
    for path in files:
        errors = validate(path)
        if errors:
            failures += 1
            for e in errors:
                print("FAIL " + e)
        else:
            print("OK   %s" % path)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
