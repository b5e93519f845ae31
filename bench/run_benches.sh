#!/usr/bin/env bash
# Runs the two bench drivers (paper_tables, bench_kernels) and collects
# their machine-readable BENCH_*.json records (schema icores.bench.v1)
# into one directory, next to the exec_stats records of three
# `mpdata_cli execute --profile` smokes, then validates them all against
# their schemas. Usage:
#
#   bench/run_benches.sh [BUILD_DIR] [OUT_DIR]
#
# BUILD_DIR defaults to ./build (must already be built); OUT_DIR defaults
# to ./bench-results. Exits nonzero if any bench's shape checks fail or a
# JSON record does not validate.
set -euo pipefail

BUILD_DIR=${1:-build}
OUT_DIR=${2:-bench-results}
SCRIPT_DIR=$(cd -- "$(dirname -- "${BASH_SOURCE[0]}")" && pwd)

if [ ! -d "$BUILD_DIR/bench" ]; then
  echo "error: $BUILD_DIR/bench not found — build the project first" >&2
  exit 1
fi

mkdir -p "$OUT_DIR"
export ICORES_BENCH_DIR=$OUT_DIR

STATUS=0
for BENCH in paper_tables bench_kernels; do
  BIN=$BUILD_DIR/bench/$BENCH
  [ -x "$BIN" ] || continue
  LOG=$OUT_DIR/$BENCH.log
  echo "== $BENCH (log: $LOG)"
  if ! "$BIN" > "$LOG" 2>&1; then
    echo "   FAILED — tail of $LOG:"
    tail -5 "$LOG"
    STATUS=1
  fi
done

# Execute smokes: each run must stay bit-exact against the serial
# reference and its --profile record must validate with everything else
# below. One covers temporal blocking, one first-touch placement, one
# cost cuts plus work stealing.
CLI=$BUILD_DIR/tools/mpdata_cli
smoke() {
  local NAME=$1
  shift
  echo "== $NAME smoke (mpdata_cli execute $*)"
  if ! "$CLI" execute --strategy=islands --steps=4 "$@" \
       --profile="$OUT_DIR/exec_stats_$NAME.json" \
       > "$OUT_DIR/${NAME}_smoke.log" 2>&1; then
    echo "   FAILED — tail of $OUT_DIR/${NAME}_smoke.log:"
    tail -5 "$OUT_DIR/${NAME}_smoke.log"
    STATUS=1
  fi
}
if [ -x "$CLI" ]; then
  smoke temporal --islands=2 --temporal=2
  smoke numa --islands=2 --place=firsttouch
  smoke balance --islands=4 --temporal=2 --balance=cost --steal
fi

JSONS=("$OUT_DIR"/BENCH_*.json "$OUT_DIR"/exec_stats_*.json)
JSONS=($(ls "${JSONS[@]}" 2> /dev/null || true))
if [ -e "${JSONS[0]}" ]; then
  if command -v python3 > /dev/null 2>&1; then
    python3 "$SCRIPT_DIR/validate_bench_json.py" "${JSONS[@]}" || STATUS=1
  else
    echo "note: python3 not found; skipping BENCH_*.json schema validation"
  fi
else
  echo "error: no BENCH_*.json produced in $OUT_DIR" >&2
  STATUS=1
fi

exit $STATUS
