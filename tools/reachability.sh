#!/usr/bin/env bash
# Reachability report: which src/ lines only the tests reach.
#
# Usage: tools/reachability.sh OUT_DIR [SOURCE_DIR]
#
# Builds SOURCE_DIR (default: the checkout holding this script) with gcc
# --coverage at -O1 into OUT_DIR/build, then runs two sets and zeroes the
# counters between them:
#   (a) the ctest suites;
#   (b) what the repository ships: the 23 paper benches, the four examples,
#       bench_driver_throughput --acceptance --requests=3000 with its trace,
#       metrics and BENCH json exports, ci.sh's snapshot smoke run, each
#       bench/perf workload for 1 s, bench_retrieval_scaling with ci.sh's 10k
#       arguments (forced-scalar, as ci.sh runs it), and trace_dump,
#       tail_report, bench_compare and snapshot_dump on the files those runs
#       write.
# bench_perf is compiled from SOURCE_DIR/bench/perf and linked against the
# coverage tree's library, so its src/ lines count in the same counters.
#
# It prints the instrumented src/ line count, the lines reached by (a), by
# (b), by (a) only and by neither, then lists the (a)-only lines by function;
# the report is also kept in OUT_DIR/reachability.txt. Needs gcc and gcov 12
# (for gcov's JSON output) and python3. Honors JOBS (default: nproc). A run
# takes about 8 minutes on a 4-vCPU VM: 2 for the build and about 4 for the
# bench/perf workloads, whose seed pools are built at -O1 with counters on.
set -euo pipefail

if [[ $# -lt 1 || $# -gt 2 ]]; then
  echo "usage: $0 OUT_DIR [SOURCE_DIR]" >&2
  exit 2
fi
OUT="$(realpath -m "$1")"
SRC="$(realpath "${2:-$(dirname "$0")/..}")"
JOBS="${JOBS:-$(nproc)}"
BUILD="${OUT}/build"
FILES="${OUT}/files"
mkdir -p "${OUT}/perf" "${FILES}/perf"

echo "== coverage build of ${SRC} (-O1, -j${JOBS}) =="
cmake -S "${SRC}" -B "${BUILD}" -DCMAKE_CXX_FLAGS=--coverage \
  -DCMAKE_CXX_FLAGS_RELWITHDEBINFO="-O1 -g -DNDEBUG" > "${OUT}/configure.log"
cmake --build "${BUILD}" -j "${JOBS}" > "${OUT}/build.log"
for source in bench_perf ledger; do
  g++ -std=c++17 -O1 -g -DNDEBUG -I"${SRC}" -c "${SRC}/bench/perf/${source}.cc" \
    -o "${OUT}/perf/${source}.o"
done
g++ --coverage -pthread "${OUT}/perf/bench_perf.o" "${OUT}/perf/ledger.o" \
  "${BUILD}/libiccache.a" -o "${OUT}/perf/bench_perf"

zero_counters() {
  find "${BUILD}" -name '*.gcda' -delete
}

# Runs one shipped binary, output discarded. Instrumented code runs slower,
# so a timing gate may fail here; the counters are still written at exit.
run() {
  local rc=0
  "$@" > /dev/null || rc=$?
  if [[ "${rc}" -ne 0 ]]; then
    echo "   exited ${rc} under coverage: $*"
  fi
}

# Reads every object's counters into OUT_DIR/<name>.json: for each src/
# file, the count of every instrumented line and the functions gcov names.
capture() {
  find "${BUILD}" -name '*.gcno' | sed 's/\.gcno$/.o/' > "${OUT}/objects.txt"
  python3 - "${SRC}" "${OUT}/objects.txt" "${OUT}/$1.json" <<'PY'
import json, os, subprocess, sys

src, objects_path, out_path = sys.argv[1:]
src_dir = os.path.join(src, "src") + os.sep
objects = open(objects_path).read().split()
lines = {}      # file -> {line: count}
functions = {}  # file -> {(start, end, demangled name)}
for start in range(0, len(objects), 64):
    proc = subprocess.run(["gcov", "--json-format", "--stdout", "--demangled-names"] +
                          objects[start:start + 64],
                          capture_output=True, text=True, cwd=os.path.dirname(out_path))
    for doc in map(json.loads, proc.stdout.splitlines()):  # one object per line
        cwd = doc["current_working_directory"]
        for entry in doc["files"]:
            path = os.path.realpath(os.path.join(cwd, entry["file"]))
            if not path.startswith(src_dir):
                continue
            rel = os.path.relpath(path, src)
            counts = lines.setdefault(rel, {})
            for line in entry["lines"]:
                n = line["line_number"]
                counts[n] = counts.get(n, 0) + line["count"]
            for fn in entry["functions"]:
                functions.setdefault(rel, set()).add(
                    (fn["start_line"], fn["end_line"], fn.get("demangled_name", fn["name"])))
json.dump({"lines": {f: {str(n): c for n, c in v.items()} for f, v in lines.items()},
           "functions": {f: sorted(v) for f, v in functions.items()}},
          open(out_path, "w"))
PY
}

echo "== (a) ctest suites =="
zero_counters
ctest --test-dir "${BUILD}" -j "${JOBS}" --timeout 1200 > "${OUT}/ctest.log" 2>&1 ||
  echo "some suites failed under coverage (see ${OUT}/ctest.log)"
capture tests

echo "== (b) shipped binaries =="
zero_counters
for source in "${SRC}"/bench/bench_fig*.cc "${SRC}"/bench/bench_tab*.cc \
              "${SRC}"/bench/bench_ablation_design_choices.cc "${SRC}"/examples/*.cpp; do
  name="$(basename "${source%.*}")"
  echo "-- ${name}"
  run "${BUILD}/${name}"
done
echo "-- bench_driver_throughput --acceptance --requests=3000"
run "${BUILD}/bench_driver_throughput" --acceptance --requests=3000 \
  --trace-out="${FILES}/trace.json" --metrics-out="${FILES}/metrics.prom" \
  --json-out="${FILES}/bench.json"
echo "-- bench_driver_throughput snapshot smoke"
rm -f "${FILES}/pool.snap"
run "${BUILD}/bench_driver_throughput" --requests=600 --sweep=off --stage0=on \
  --snapshot="${FILES}/pool.snap"
for workload in lmsys dup50 pool30k churn256k; do
  echo "-- bench_perf ${workload} (1 s)"
  run "${OUT}/perf/bench_perf" --workload="${workload}" --seconds=1 --tmp-dir="${FILES}/perf"
done
echo "-- bench_retrieval_scaling (10k)"
run env ICCACHE_FORCE_SCALAR=1 "${BUILD}/bench_retrieval_scaling" \
  --sizes=10000 --dim=128 --queries=100 --M=16 --efc=100 --efs=96 --sigma=0.12
echo "-- tools"
run "${BUILD}/trace_dump" "${FILES}/trace.json"
REQ_ID="$(awk 'match($0, /"request_id":[1-9][0-9]*/) { print substr($0, RSTART + 13, RLENGTH - 13); exit }' "${FILES}/trace.json")"
run "${BUILD}/trace_dump" --request="${REQ_ID}" "${FILES}/trace.json"
run "${BUILD}/tail_report" --min-attribution=0.9 "${FILES}/trace.json"
run "${BUILD}/bench_compare" "${SRC}/bench/baselines/BENCH_driver.json" "${FILES}/bench.json"
run "${BUILD}/bench_compare" --scale=requests_per_second=0.8 "${FILES}/bench.json" \
  "${FILES}/doctored.json"
if "${BUILD}/bench_compare" --strict "${FILES}/bench.json" "${FILES}/doctored.json" \
    > /dev/null; then
  echo "   bench_compare --strict accepted the doctored copy"
fi
run "${BUILD}/snapshot_dump" "${FILES}/pool.snap"
capture shipped

python3 - "${OUT}/tests.json" "${OUT}/shipped.json" "${SRC}" <<'PY' | tee "${OUT}/reachability.txt"
import json, sys

tests, shipped = (json.load(open(p)) for p in sys.argv[1:3])
instrumented, reached = set(), {"a": set(), "b": set()}
for key, data in (("a", tests), ("b", shipped)):
    for f, counts in data["lines"].items():
        for n, c in counts.items():
            instrumented.add((f, int(n)))
            if c > 0:
                reached[key].add((f, int(n)))
a_only = reached["a"] - reached["b"]
neither = instrumented - reached["a"] - reached["b"]
print("reachability of %s/src (gcc --coverage -O1)" % sys.argv[3])
print("  instrumented lines   %6d" % len(instrumented))
print("  reached by (a) tests %6d" % len(reached["a"]))
print("  reached by (b) ships %6d" % len(reached["b"]))
print("  reached by (a) only  %6d" % len(a_only))
print("  reached by neither   %6d" % len(neither))

# Innermost function whose [start, end] covers the line.
functions = {}
for data in (tests, shipped):
    for f, fns in data["functions"].items():
        functions.setdefault(f, set()).update(tuple(fn) for fn in fns)
def owner(f, n):
    best = None
    for start, end, name in functions.get(f, ()):
        if start <= n <= end and (best is None or end - start < best[1] - best[0]):
            best = (start, end, name)
    return best[2] if best else "(inlined or file scope)"

groups = {}
for f, n in sorted(a_only):
    groups.setdefault((f, owner(f, n)), []).append(n)
print("\n(a)-only lines by function (%d functions):" % len(groups))
for (f, name), ns in sorted(groups.items(), key=lambda kv: (kv[0][0], kv[1][0])):
    spans, start = [], ns[0]
    for prev, cur in zip(ns, ns[1:] + [None]):
        if cur != prev + 1:
            spans.append(str(start) if start == prev else "%d-%d" % (start, prev))
            start = cur
    print("  %4d  %s  %s  [%s]" % (len(ns), f, name, ",".join(spans)))
PY
