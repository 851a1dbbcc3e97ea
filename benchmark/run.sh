#!/usr/bin/env bash
# Builds the benchmark (release, offline) and runs it: each workload in a
# fresh process, every metric printed by name with its unit, outputs
# checked. With `--workload W` runs that one workload — this is the form
# the driver uses (BENCHMARK.json's "command"), and the last line of
# standard output is then the result object.
#
#   benchmark/run.sh [--workload W] [--seed S] [--seconds N] [--trace [0|1]]
#                    [--quick] [--repeat N] [--out FILE]
#   benchmark/run.sh compare A.jsonl B.jsonl
#   benchmark/run.sh spread A.jsonl
#
# --repeat N runs every selected workload N times, run i with seed
# S + i; --out FILE appends one JSON line per run, the input of
# `compare` and `spread`.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# Reuse the root target/ unless the caller (the driver) chose another.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/../target}"
case "$CARGO_TARGET_DIR" in /*) ;; *) CARGO_TARGET_DIR="$PWD/$CARGO_TARGET_DIR" ;; esac

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
bin="$CARGO_TARGET_DIR/release/benchmark"

case "${1:-}" in
  compare|spread|manifest) exec "$bin" "$@" ;;
esac

# One CPU for the whole run, where the machine lets us choose: the
# sandbox's two vCPUs are not two cores (two busy processes ran 0.8x to
# 3x their solo time side by side), and on one CPU a client and a worker
# hand over by a context switch, not by waking an idle vCPU (48 us a
# reply on the cache-hit path, against 3 us).
pin=()
if command -v taskset >/dev/null 2>&1 && taskset -c 0 true 2>/dev/null; then
  pin=(taskset -c 0)
fi

workloads=(query_cold query_hot query_sharded mixed_rw build_load)
seed=$((0xC0FFEE)) repeat=1 pass=()
while [ $# -gt 0 ]; do
  case "$1" in
    --workload) workloads=("$2"); shift 2 ;;
    --seed) seed=$(($2)); shift 2 ;;
    --repeat) repeat="$2"; shift 2 ;;
    *) pass+=("$1"); shift ;;
  esac
done

status=0
for w in "${workloads[@]}"; do
  for ((i = 0; i < repeat; i++)); do
    ${pin[@]+"${pin[@]}"} "$bin" --workload "$w" --seed $((seed + i)) --out-dir "$here/out" \
      ${pass[@]+"${pass[@]}"} || status=$?
  done
done
exit "$status"
