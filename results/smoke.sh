#!/bin/bash
# Regenerates the behaviour-contract goldens into DIR (default results/):
#   figures_smoke.txt  every figure over every benchmark at short windows
#   cli_smoke.txt      smartrefresh-sim: all nine policies on table1-2gb/gcc,
#                      plus smart on hmc-8vault and table2-3d-32ms
# CI writes them to a temporary directory and diffs against the committed
# copies; a change that means to move an output reruns this script with
# no argument and names every moved line in CHANGES.md.
set -euo pipefail
cd "$(dirname "$0")/.."
out=${1:-results}
bin=$(mktemp -d)
trap 'rm -rf "$bin"' EXIT
go build -o "$bin/experiments" ./cmd/experiments
go build -o "$bin/sim" ./cmd/smartrefresh-sim

"$bin/experiments" -figures all -benchmarks all -warmup-ms 8 -measure-ms 16 -jobs 2 \
  2>/dev/null >"$out/figures_smoke.txt"

{
  for policy in cbr smart burst none oracle darp sarp raidr smart-retention; do
    echo "== table1-2gb $policy gcc"
    "$bin/sim" -config table1-2gb -policy "$policy" -benchmark gcc -warmup-ms 8 -measure-ms 16
  done
  for cfg in hmc-8vault table2-3d-32ms; do
    echo "== $cfg smart gcc"
    "$bin/sim" -config "$cfg" -policy smart -benchmark gcc -warmup-ms 8 -measure-ms 16
  done
} >"$out/cli_smoke.txt"
