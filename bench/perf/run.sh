#!/usr/bin/env bash
# Runs every bench_perf workload once, writing one iccache-bench/1 record per
# workload (OUT_DIR/<workload>.json). Given BASE_DIR, a directory of records
# from an earlier pass at the same seed (another commit, same machine), it
# then diffs each pair with tools/bench_compare --strict, exits non-zero if
# any end-to-end metric regressed past its tolerance, and says whether the
# decisions are bit-identical (a pure performance change keeps them so).
#
#   bench/perf/run.sh [--trace 0|1] [--seed N] [--seconds S] OUT_DIR [BASE_DIR]
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$here/../../.bench_build/perf"
workloads=(lmsys dup50 pool30k churn256k)
usage="usage: $0 [--trace 0|1] [--seed N] [--seconds S] OUT_DIR [BASE_DIR]"

args=()
positional=()
while [[ $# -gt 0 ]]; do
  case "$1" in
    --trace|--seed|--seconds) args+=("$1" "$2"); shift 2 ;;
    -*) echo "$usage" >&2; exit 2 ;;
    *) positional+=("$1"); shift ;;
  esac
done
if [[ ${#positional[@]} -lt 1 || ${#positional[@]} -gt 2 ]]; then
  echo "$usage" >&2
  exit 2
fi
out=${positional[0]}
base=${positional[1]:-}
mkdir -p "$out"

for workload in "${workloads[@]}"; do
  start=$(date +%s)
  python3 "$here/run.py" --workload "$workload" "${args[@]}" \
    --json-out "$out/$workload.json" > "$out/$workload.log"
  echo "$workload: $(( $(date +%s) - start )) s, record $out/$workload.json"
done

if [[ -n "$base" ]]; then
  cmake --build "$build" --target bench_compare > /dev/null
  digest() { grep -o '"decisions_digest": *"[0-9a-f]*"' "$1" || true; }
  status=0
  for workload in "${workloads[@]}"; do
    echo "== $workload"
    "$build/iccache/bench_compare" --strict "$base/$workload.json" "$out/$workload.json" ||
      status=1
    was=$(digest "$base/$workload.json")
    if [[ -n "$was" && "$was" == "$(digest "$out/$workload.json")" ]]; then
      echo "decisions: identical"
    else
      echo "decisions: differ"
    fi
  done
  exit $status
fi
