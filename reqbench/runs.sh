#!/usr/bin/env bash
# runs.sh — run the benchmark on a list of seeds and keep every run's
# output, one file per run, for the compare tool.
#
#   bash reqbench/runs.sh <outdir> <trace 0|1> <seconds> <workload>... -- <seed>...
#
# Writes <outdir>/<workload>/<seed>.out (stdout; the last line is the
# result) and .err (stderr). Runs are sequential: timing runs must not
# share the processor with each other.
set -euo pipefail

out=$1 trace=$2 seconds=$3
shift 3
workloads=()
while [ "$#" -gt 0 ] && [ "$1" != "--" ]; do
    workloads+=("$1")
    shift
done
[ "$#" -gt 0 ] && shift
here=$(dirname "$0")
for seed in "$@"; do
    for w in "${workloads[@]}"; do
        mkdir -p "$out/$w"
        bash "$here/run.sh" --workload "$w" --seed "$seed" --seconds "$seconds" \
            --trace "$trace" >"$out/$w/$seed.out" 2>"$out/$w/$seed.err"
        tail -n 1 "$out/$w/$seed.out"
    done
done
