#!/usr/bin/env bash
# Crash stress for the served benchmark: runs BENCHMARK.json's command
# RUNS times, one run at a time, on one workload with consecutive seeds
# from FIRST_SEED, then prints how many runs ended with each exit code and
# the seeds of the runs that did not exit 0. The environment passes
# through to every run, so the same runs can be repeated on more domains
# or another minor heap:
#
#   bench/stress.sh restricted 3 4
#   ZKQAC_DOMAINS=4 bench/stress.sh restricted 20
#   OCAMLRUNPARAM=s=32k bench/stress.sh restricted 20 12 500
#
# Usage: bench/stress.sh WORKLOAD [RUNS=10] [SECONDS=12] [FIRST_SEED=1]
# A run's stderr stays in _stress/<workload>-<seed>.err when it exits
# non-zero. Exits 1 if any run did.
set -u
cd "$(dirname "$0")/.."
workload=${1:?usage: bench/stress.sh WORKLOAD [RUNS] [SECONDS] [FIRST_SEED]}
runs=${2:-10}
seconds=${3:-12}
first=${4:-1}
mapfile -t cmd < <(python3 -c 'import json; print("\n".join(json.load(open("BENCHMARK.json"))["command"]))')
dune build ./svcbench/service.exe || exit 2
mkdir -p _stress
declare -A count
failed=""
for ((seed = first; seed < first + runs; seed++)); do
  err=_stress/$workload-$seed.err
  "${cmd[@]}" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 >/dev/null 2>"$err"
  code=$?
  count[$code]=$((${count[$code]:-0} + 1))
  if [ "$code" -eq 0 ]; then rm -f "$err"; else failed="$failed $seed"; fi
  echo "seed $seed: exit $code"
done
for code in $(printf '%s\n' "${!count[@]}" | sort -n); do
  echo "exit $code: ${count[$code]} of $runs"
done
echo "non-zero exits, seeds:${failed:- none}"
rmdir _stress 2>/dev/null
[ -z "$failed" ]
