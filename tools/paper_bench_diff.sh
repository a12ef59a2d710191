#!/usr/bin/env bash
# Byte-for-byte comparison of the paper benches and examples between two
# builds.
#
# Usage: tools/paper_bench_diff.sh BUILD_A BUILD_B
#
# Runs every paper bench (bench_fig*, bench_tab*,
# bench_ablation_design_choices — the list comes from bench/*.cc) and every
# examples/ binary (the list comes from examples/*.cpp) from both build
# directories and compares their stdout. Exits 1 at the first binary whose
# output differs (or that fails to run), printing its name and its first
# differing line from each build; exits 0 when every binary prints identical
# bytes. The benches and examples are deterministic, so a pure refactor must
# pass; one pass per build takes about 25 s on a 4-vCPU VM.
set -euo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: $0 BUILD_A BUILD_B" >&2
  exit 2
fi
BUILD_A="$1"
BUILD_B="$2"
REPO="$(cd "$(dirname "$0")/.." && pwd)"

OUT_DIR="$(mktemp -d)"
trap 'rm -rf "${OUT_DIR}"' EXIT

run_bench() {  # build_dir name output_file
  if ! "$1/$2" > "$3"; then
    echo "$2: exited non-zero in $1" >&2
    exit 1
  fi
}

for source in "${REPO}"/bench/bench_fig*.cc "${REPO}"/bench/bench_tab*.cc \
              "${REPO}/bench/bench_ablation_design_choices.cc" "${REPO}"/examples/*.cpp; do
  name="$(basename "${source}")"
  name="${name%.*}"
  run_bench "${BUILD_A}" "${name}" "${OUT_DIR}/a.txt"
  run_bench "${BUILD_B}" "${name}" "${OUT_DIR}/b.txt"
  if cmp -s "${OUT_DIR}/a.txt" "${OUT_DIR}/b.txt"; then
    echo "${name}: identical"
    continue
  fi
  # cmp names the first differing line; "EOF on <file> after ..., line N"
  # means that file ended after line N, so line N + 1 is the first that
  # differs.
  verdict="$(cmp "${OUT_DIR}/a.txt" "${OUT_DIR}/b.txt" 2>&1 || true)"
  line="$(sed -n 's/.*line \([0-9][0-9]*\).*/\1/p' <<< "${verdict}")"
  if [[ "${verdict}" == *EOF* ]]; then
    line=$((line + 1))
  fi
  echo "${name}: stdout differs at line ${line}"
  echo "  ${BUILD_A}: $(sed -n "${line}p" "${OUT_DIR}/a.txt")"
  echo "  ${BUILD_B}: $(sed -n "${line}p" "${OUT_DIR}/b.txt")"
  exit 1
done
echo "all paper benches and examples print identical output"
