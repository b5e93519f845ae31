#!/usr/bin/env python3
"""Validates icores JSON records, dispatching on their "schema" field.

Usage: validate_bench_json.py [--manifest=FILE] FILE [FILE...]

Every icores.bench.v2 row may carry an optional "workload" field naming
the registered workload the row was measured on (BenchUtil emits it;
older records without it stay valid). With --manifest=FILE — a file
holding the output of `mpdata_cli list-workloads`, whose first token
per line is a workload name — any "workload" value not in the manifest
is a validation failure, so bench records can never claim a workload
the binary does not register.

Accepted schemas:

  icores.bench.v1 (bench/BenchUtil.cpp writeBenchJson and
  writeKernelBenchJson):
  {
    "schema": "icores.bench.v1",
    "bench": "<name>",
    "rows": [...]
  }

  icores.bench.v2 (bench/BenchUtil.cpp writeTemporalBenchJson,
  writeNumaBenchJson and writeBalanceBenchJson): same envelope, with
  three row shapes distinguished by field presence ("balance" marks a
  load-balance row, else "placement" marks a NUMA row).
  Every v2 row additionally accepts an optional "workload": str
  (checked against the manifest under --manifest).
  Temporal-blocking traffic rows:
      {"strategy": str, "temporal_depth": int >= 1,
       "measured_bytes_per_step": int > 0,
       "projected_bytes_per_step": int > 0, "seconds": float > 0}
  NUMA-placement rows (bench_numa):
      {"strategy": str, "temporal_depth": int >= 1,
       "placement": "none"|"firsttouch"|"interleave",
       "remote_bytes_per_step": int >= 0,
       "projected_remote_bytes_per_step": int >= 0,
       "pages_first_touched": int >= 0, "pin_failures": int >= 0,
       "seconds": float > 0}
  Load-balance rows (bench_balance):
      {"balance": "uniform"|"cost", "stealing": bool,
       "temporal_depth": int >= 1, "islands": int >= 1,
       "predicted_skew_sim": float >= 1 (== predicted_skew_exec: both
       sides call the same predictedIslandSkew()),
       "predicted_skew_exec": float >= 1, "measured_skew": float >= 1,
       "max_imbalance": float >= 1, "steals": int >= 0,
       "steal_failures": int >= 0, "idle_seconds": float >= 0,
       "seconds": float > 0}

  icores.exec_stats.v2 .. icores.exec_stats.v5
  (--profile output of mpdata_cli, src/exec/ExecStats.cpp writeJson). v3
  extends v2 with the fault-injection counters "faults_injected",
  "retries", "timeouts" and "recovered" (ints >= 0); v2 documents remain
  valid without them. v4 adds the NUMA placement fields "placement"
  (none/firsttouch/interleave), "remote_bytes_est", "pages_first_touched"
  and "pin_failures" (ints >= 0). v5 adds the load-balance fields
  "balance" (uniform/cost), "stealing" (bool), "steals",
  "steal_failures" (ints >= 0), "idle_seconds" (float >= 0),
  "predicted_island_skew" and "measured_island_skew" (floats; >= 1 or
  exactly 0 when unpriced), plus per-island "imbalance_per_step" lists
  and per-thread "steals"/"steal_failures"/"idle_seconds". A
  "fold_seconds" field (reduction-fold time, top level and per thread)
  joined v5 without a version bump: optional, a float >= 0 when present.

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

Two row shapes share the schema, distinguished by which field leads:

  strategy rows (bench_table3/4):
      {"strategy": str, "p": int >= 1, "seconds": float > 0,
       "barrier_share": float in [0, 1], "total_barriers": int >= 0,
       "elided_barriers": int >= 0 (<= total_barriers),
       "optimized_seconds": float >= 0, "gflops": float >= 0}

  kernel-roofline rows (bench_kernels; has a "variant" field):
      {"variant": "ref"|"opt"|"simd", "stage": str,
       "region": "hot"|"cold", "seconds": float > 0,
       "gflops": float >= 0, "gbps": float >= 0}

Exits nonzero listing every violation found.
"""

import json
import sys

ROW_FIELDS = {
    "strategy": str,
    "p": int,
    "seconds": (int, float),
    "barrier_share": (int, float),
    "total_barriers": int,
    "elided_barriers": int,
    "optimized_seconds": (int, float),
    "gflops": (int, float),
}

KERNEL_ROW_FIELDS = {
    "variant": str,
    "stage": str,
    "region": str,
    "seconds": (int, float),
    "gflops": (int, float),
    "gbps": (int, float),
}


# Common to exec_stats v2 and v3; v3 adds the fault counters.
EXEC_STATS_FIELDS = {
    "enabled": bool,
    "steps": int,
    "run_calls": int,
    "wall_seconds": (int, float),
    "kernel_seconds": (int, float),
    "team_barrier_wait_seconds": (int, float),
    "barrier_share": (int, float),
    "elided_barriers": int,
    "spin_wakes": int,
    "sleep_wakes": int,
    "islands": list,
}

EXEC_STATS_V3_FAULT_FIELDS = ("faults_injected", "retries", "timeouts",
                              "recovered")

# v4 adds the NUMA placement fields (additive; see src/exec/ExecStats.cpp).
EXEC_STATS_V4_PLACEMENT_FIELDS = ("remote_bytes_est", "pages_first_touched",
                                  "pin_failures")

# v5 adds the load-balance fields (additive).
EXEC_STATS_V5_COUNTER_FIELDS = ("steals", "steal_failures")
EXEC_STATS_V5_SKEW_FIELDS = ("predicted_island_skew", "measured_island_skew")

TEMPORAL_ROW_FIELDS = {
    "strategy": str,
    "temporal_depth": int,
    "measured_bytes_per_step": int,
    "projected_bytes_per_step": int,
    "seconds": (int, float),
}

NUMA_ROW_FIELDS = {
    "strategy": str,
    "temporal_depth": int,
    "placement": str,
    "remote_bytes_per_step": int,
    "projected_remote_bytes_per_step": int,
    "pages_first_touched": int,
    "pin_failures": int,
    "seconds": (int, float),
}

PLACEMENT_NAMES = ("none", "firsttouch", "interleave")

BALANCE_NAMES = ("uniform", "cost")

BALANCE_ROW_FIELDS = {
    "balance": str,
    "stealing": bool,
    "temporal_depth": int,
    "islands": int,
    "predicted_skew_sim": (int, float),
    "predicted_skew_exec": (int, float),
    "measured_skew": (int, float),
    "max_imbalance": (int, float),
    "steals": int,
    "steal_failures": int,
    "idle_seconds": (int, float),
    "seconds": (int, float),
}


# Workload manifest loaded from --manifest=FILE (None: accept any name).
MANIFEST = None


def is_seconds(value):
    """True for a non-negative JSON number that is not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) \
        and value >= 0


def validate_workload_field(where, row):
    """The optional v2 "workload" field: a non-empty string, and — when a
    manifest was supplied — one of the names the CLI registers."""
    if "workload" not in row:
        return []
    workload = row["workload"]
    if not isinstance(workload, str) or not workload:
        return ["%s: 'workload' must be a non-empty string" % where]
    if MANIFEST is not None and workload not in MANIFEST:
        return ["%s: workload = %r not in the manifest (%s)"
                % (where, workload, ", ".join(sorted(MANIFEST)))]
    return []


def validate_balance_row(where, row):
    errors = validate_workload_field(where, row)
    for field, types in BALANCE_ROW_FIELDS.items():
        if field not in row:
            errors.append("%s: missing field %r" % (where, field))
        elif not isinstance(row[field], types) or (
                types is not bool and isinstance(row[field], bool)):
            errors.append("%s: field %r has type %s"
                          % (where, field, type(row[field]).__name__))
    if errors:
        return errors
    if row["balance"] not in BALANCE_NAMES:
        errors.append("%s: balance = %r not in %s"
                      % (where, row["balance"], "/".join(BALANCE_NAMES)))
    if row["temporal_depth"] < 1:
        errors.append("%s: temporal_depth = %d < 1"
                      % (where, row["temporal_depth"]))
    if row["islands"] < 1:
        errors.append("%s: islands = %d < 1" % (where, row["islands"]))
    # Skews and imbalances are max/mean ratios: >= 1 by construction.
    for field in ("predicted_skew_sim", "predicted_skew_exec",
                  "measured_skew", "max_imbalance"):
        if row[field] < 1:
            errors.append("%s: %s = %g < 1" % (where, field, row[field]))
    # Parity by construction: both sides call the same model function.
    if row["predicted_skew_sim"] != row["predicted_skew_exec"]:
        errors.append("%s: predicted_skew_sim %g != predicted_skew_exec %g"
                      % (where, row["predicted_skew_sim"],
                         row["predicted_skew_exec"]))
    for field in ("steals", "steal_failures"):
        if row[field] < 0:
            errors.append("%s: %s = %d < 0" % (where, field, row[field]))
    if not row["stealing"] and row["steals"]:
        errors.append("%s: steals = %d with stealing disabled"
                      % (where, row["steals"]))
    if row["idle_seconds"] < 0:
        errors.append("%s: idle_seconds = %g < 0"
                      % (where, row["idle_seconds"]))
    if row["seconds"] <= 0:
        errors.append("%s: seconds = %g <= 0" % (where, row["seconds"]))
    return errors


def validate_numa_row(where, row):
    errors = validate_workload_field(where, row)
    for field, types in NUMA_ROW_FIELDS.items():
        if field not in row:
            errors.append("%s: missing field %r" % (where, field))
        elif not isinstance(row[field], types) or isinstance(
                row[field], bool):
            errors.append("%s: field %r has type %s"
                          % (where, field, type(row[field]).__name__))
    if errors:
        return errors
    if not row["strategy"]:
        errors.append("%s: empty strategy name" % where)
    if row["temporal_depth"] < 1:
        errors.append("%s: temporal_depth = %d < 1"
                      % (where, row["temporal_depth"]))
    if row["placement"] not in PLACEMENT_NAMES:
        errors.append("%s: placement = %r not in %s"
                      % (where, row["placement"],
                         "/".join(PLACEMENT_NAMES)))
    for field in ("remote_bytes_per_step",
                  "projected_remote_bytes_per_step",
                  "pages_first_touched", "pin_failures"):
        if row[field] < 0:
            errors.append("%s: %s = %d < 0" % (where, field, row[field]))
    if row["seconds"] <= 0:
        errors.append("%s: seconds = %g <= 0" % (where, row["seconds"]))
    return errors


def validate_temporal_row(where, row):
    errors = validate_workload_field(where, row)
    for field, types in TEMPORAL_ROW_FIELDS.items():
        if field not in row:
            errors.append("%s: missing field %r" % (where, field))
        elif not isinstance(row[field], types) or isinstance(
                row[field], bool):
            errors.append("%s: field %r has type %s"
                          % (where, field, type(row[field]).__name__))
    if errors:
        return errors
    if not row["strategy"]:
        errors.append("%s: empty strategy name" % where)
    if row["temporal_depth"] < 1:
        errors.append("%s: temporal_depth = %d < 1"
                      % (where, row["temporal_depth"]))
    for field in ("measured_bytes_per_step", "projected_bytes_per_step"):
        if row[field] <= 0:
            errors.append("%s: %s = %d <= 0" % (where, field, row[field]))
    if row["seconds"] <= 0:
        errors.append("%s: seconds = %g <= 0" % (where, row["seconds"]))
    return errors


def validate_temporal(path, doc):
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
            continue
        if "balance" in row:
            errors.extend(validate_balance_row(where, row))
        elif "placement" in row:
            errors.extend(validate_numa_row(where, row))
        else:
            errors.extend(validate_temporal_row(where, row))
    return errors


def validate_exec_stats(path, doc):
    version = doc.get("schema").rsplit(".", 1)[1]
    errors = []
    for field, types in EXEC_STATS_FIELDS.items():
        if field not in doc:
            errors.append("%s: missing field %r" % (path, field))
        elif not isinstance(doc[field], types) or (
                types is not bool and isinstance(doc[field], bool)):
            errors.append("%s: field %r has type %s"
                          % (path, field, type(doc[field]).__name__))
    for field in EXEC_STATS_V3_FAULT_FIELDS:
        if version == "v2":
            continue  # v2 predates the fault counters.
        if field not in doc:
            errors.append("%s: v3 requires field %r" % (path, field))
        elif not isinstance(doc[field], int) or isinstance(doc[field], bool):
            errors.append("%s: field %r must be an int"
                          % (path, field))
        elif doc[field] < 0:
            errors.append("%s: field %r = %d < 0" % (path, field, doc[field]))
    if version in ("v4", "v5"):
        placement = doc.get("placement")
        if placement not in PLACEMENT_NAMES:
            errors.append("%s: %s requires 'placement' in %s, got %r"
                          % (path, version, "/".join(PLACEMENT_NAMES),
                             placement))
        for field in EXEC_STATS_V4_PLACEMENT_FIELDS:
            if field not in doc:
                errors.append("%s: %s requires field %r"
                              % (path, version, field))
            elif not isinstance(doc[field], int) or isinstance(
                    doc[field], bool) or doc[field] < 0:
                errors.append("%s: field %r must be an int >= 0"
                              % (path, field))
    if version == "v5":
        if doc.get("balance") not in BALANCE_NAMES:
            errors.append("%s: v5 requires 'balance' in %s, got %r"
                          % (path, "/".join(BALANCE_NAMES),
                             doc.get("balance")))
        if not isinstance(doc.get("stealing"), bool):
            errors.append("%s: v5 requires a bool 'stealing'" % path)
        for field in EXEC_STATS_V5_COUNTER_FIELDS:
            if not isinstance(doc.get(field), int) or isinstance(
                    doc.get(field), bool) or doc.get(field, 0) < 0:
                errors.append("%s: v5 requires %r as an int >= 0"
                              % (path, field))
        if not isinstance(doc.get("idle_seconds"), (int, float)) \
                or isinstance(doc.get("idle_seconds"), bool) \
                or doc.get("idle_seconds", 0) < 0:
            errors.append("%s: v5 requires 'idle_seconds' >= 0" % path)
        # Skews are max/mean ratios (>= 1), except the unpriced
        # predicted skew which the executor reports as exactly 0 when no
        # machine model was supplied.
        for field in EXEC_STATS_V5_SKEW_FIELDS:
            value = doc.get(field)
            if not isinstance(value, (int, float)) or isinstance(
                    value, bool) or (value < 1 and value != 0):
                errors.append("%s: v5 requires %r >= 1 (or 0 when "
                              "unpriced)" % (path, field))
    if errors:
        return errors
    if not 0 <= doc["barrier_share"] <= 1:
        errors.append("%s: barrier_share = %g outside [0, 1]"
                      % (path, doc["barrier_share"]))
    for field in ("steps", "run_calls", "elided_barriers", "spin_wakes",
                  "sleep_wakes"):
        if doc[field] < 0:
            errors.append("%s: field %r = %d < 0" % (path, field, doc[field]))
    # Additive v3 fields from the temporal-blocking work: optional, but
    # when present they must be sane.
    if "temporal_depth" in doc and (
            not isinstance(doc["temporal_depth"], int)
            or isinstance(doc["temporal_depth"], bool)
            or doc["temporal_depth"] < 1):
        errors.append("%s: temporal_depth must be an int >= 1" % path)
    if "fold_seconds" in doc and not is_seconds(doc["fold_seconds"]):
        errors.append("%s: fold_seconds must be a float >= 0" % path)
    for field in ("shared_read_bytes", "shared_written_bytes"):
        if field in doc and (not isinstance(doc[field], int)
                             or isinstance(doc[field], bool)
                             or doc[field] < 0):
            errors.append("%s: %s must be an int >= 0" % (path, field))
    for i, island in enumerate(doc["islands"]):
        where = "%s: islands[%d]" % (path, i)
        if not isinstance(island, dict):
            errors.append("%s: not an object" % where)
            continue
        for field in ("island", "num_threads", "stages"):
            if field not in island:
                errors.append("%s: missing field %r" % (where, field))
        for t, thread in enumerate(island.get("threads", [])):
            if isinstance(thread, dict) and "fold_seconds" in thread \
                    and not is_seconds(thread["fold_seconds"]):
                errors.append("%s: threads[%d]: fold_seconds must be a "
                              "float >= 0" % (where, t))
        if version == "v5":
            steps = island.get("imbalance_per_step")
            if not isinstance(steps, list) or not all(
                    isinstance(s, (int, float)) and not isinstance(s, bool)
                    and (s >= 1 or s == 0) for s in steps):
                errors.append("%s: v5 requires 'imbalance_per_step' as a "
                              "list of ratios >= 1 (or 0)" % where)
            for t, thread in enumerate(island.get("threads", [])):
                twhere = "%s: threads[%d]" % (where, t)
                if not isinstance(thread, dict):
                    errors.append("%s: not an object" % twhere)
                    continue
                for field in ("steals", "steal_failures"):
                    if not isinstance(thread.get(field), int) or isinstance(
                            thread.get(field), bool) \
                            or thread.get(field, 0) < 0:
                        errors.append("%s: v5 requires %r as an int >= 0"
                                      % (twhere, field))
                if not isinstance(thread.get("idle_seconds"),
                                  (int, float)) or isinstance(
                        thread.get("idle_seconds"), bool) \
                        or thread.get("idle_seconds", 0) < 0:
                    errors.append("%s: v5 requires 'idle_seconds' >= 0"
                                  % twhere)
    return errors


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


def validate_prove(path, doc):
    errors = []
    if not isinstance(doc.get("grid"), str) or not doc.get("grid"):
        errors.append("%s: missing or empty 'grid'" % path)
    if not isinstance(doc.get("time_steps"), int) or doc.get(
            "time_steps", 0) < 1:
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
        for field, types in PROVE_PLAN_FIELDS.items():
            if field not in plan:
                errors.append("%s: missing field %r" % (where, field))
            elif not isinstance(plan[field], types) or (
                    types is not bool and isinstance(plan[field], bool)):
                errors.append("%s: field %r has type %s"
                              % (where, field, type(plan[field]).__name__))
        if errors and errors[-1].startswith(where):
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
        for field, types in PROVE_MUTATION_CLASS_FIELDS.items():
            if not isinstance(cls.get(field), types) or isinstance(
                    cls.get(field), bool):
                errors.append("%s: field %r missing or mistyped"
                              % (where, field))
        if isinstance(cls.get("killed"), int) and isinstance(
                cls.get("mutants"), int) and cls["killed"] > cls["mutants"]:
            errors.append("%s: killed %d > mutants %d"
                          % (where, cls["killed"], cls["mutants"]))
    rate = mutation.get("kill_rate")
    if not isinstance(rate, (int, float)) or isinstance(
            rate, bool) or not 0 <= rate <= 1:
        errors.append("%s: mutation.kill_rate must be in [0, 1]" % path)

    summary = doc.get("summary")
    if not isinstance(summary, dict):
        errors.append("%s: missing 'summary' object" % path)
        return errors
    for field in ("plans", "proved", "pruned", "violated"):
        if not isinstance(summary.get(field), int) or isinstance(
                summary.get(field), bool):
            errors.append("%s: summary.%s must be an int" % (path, field))
    for field in ("protocol_ok", "ok"):
        if not isinstance(summary.get(field), bool):
            errors.append("%s: summary.%s must be a bool" % (path, field))
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


def validate(path):
    errors = []
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        return ["%s: unreadable or invalid JSON: %s" % (path, e)]

    schema = doc.get("schema")
    if schema in ("icores.exec_stats.v2", "icores.exec_stats.v3",
                  "icores.exec_stats.v4", "icores.exec_stats.v5"):
        return validate_exec_stats(path, doc)
    if schema == "icores.bench.v2":
        return validate_temporal(path, doc)
    if schema == "icores.prove.v1":
        return validate_prove(path, doc)
    if schema != "icores.bench.v1":
        errors.append("%s: schema is %r, want 'icores.bench.v1', "
                      "'icores.bench.v2', 'icores.prove.v1' or "
                      "'icores.exec_stats.v2'/'v3'/'v4'/'v5'"
                      % (path, schema))
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
            continue
        if "variant" in row:
            errors.extend(validate_kernel_row(where, row))
            continue
        for field, types in ROW_FIELDS.items():
            if field not in row:
                errors.append("%s: missing field %r" % (where, field))
            elif not isinstance(row[field], types) or isinstance(
                    row[field], bool):
                errors.append("%s: field %r has type %s"
                              % (where, field, type(row[field]).__name__))
        if errors and errors[-1].startswith(where):
            continue
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
    errors = []
    for field, types in KERNEL_ROW_FIELDS.items():
        if field not in row:
            errors.append("%s: missing field %r" % (where, field))
        elif not isinstance(row[field], types) or isinstance(
                row[field], bool):
            errors.append("%s: field %r has type %s"
                          % (where, field, type(row[field]).__name__))
    if errors:
        return errors
    if row["variant"] not in ("ref", "opt", "simd"):
        errors.append("%s: variant = %r not in ref/opt/simd"
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


def load_manifest(path):
    """Workload names from `mpdata_cli list-workloads` output: the first
    whitespace-separated token of every non-empty line."""
    try:
        with open(path) as f:
            names = {line.split()[0] for line in f if line.split()}
    except OSError as e:
        print("FAIL %s: unreadable manifest: %s" % (path, e))
        return None
    if not names:
        print("FAIL %s: empty workload manifest" % path)
        return None
    return names


def main(argv):
    global MANIFEST
    files = []
    for arg in argv[1:]:
        if arg.startswith("--manifest="):
            MANIFEST = load_manifest(arg[len("--manifest="):])
            if MANIFEST is None:
                return 1
        else:
            files.append(arg)
    if not files:
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
