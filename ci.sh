#!/usr/bin/env bash
# CI entry point: configure, build, run the labelled test suite (unit /
# concurrency / integration, each with its own timeout, plus the persistence
# label as its own class), smoke-run the four examples/ binaries, run the 23
# paper benches (each must exit 0), self-test
# the repository benchmark (bench/perf) and serve one of its workloads
# (churn256k, 1 s) end to end, smoke one benchmark under a
# 2-second cap, rerun the SIMD kernel, batched-index and HNSW suites
# under the forced-scalar dispatch path, exit-enforce the stage-1 retrieval
# scaling bars at 100k vectors (hnsw vs flat, batched traversal, graph-image
# round trip), then
# snapshot a real driver pool and verify the on-disk format with
# tools/snapshot_dump, and save + restore a 30k-example pool and put more
# examples into it under the save, restore and serve memory gates. The
# observability acceptance additionally exit-enforces
# the perf-trajectory gate: the run's BENCH json must stay inside the
# committed baseline's tolerance bands (tools/bench_compare), and a doctored
# -20% throughput copy must make the strict gate fail (red-path self-test).
# Set ICCACHE_CI_SCALE=full to also run the 1M-vector full-scale retrieval
# gate (~20 min single-core). Set ICCACHE_CI_ARTIFACT_DIR to keep the trace /
# metrics / BENCH json exports instead of deleting them (the GitHub workflow
# uploads that directory as a build artifact). Mirrors the tier-1 verify line
# in ROADMAP.md; keep the two in sync.
set -euo pipefail

cd "$(dirname "$0")"

BUILD_DIR="${BUILD_DIR:-build}"
JOBS="${JOBS:-$(nproc)}"
ARTIFACT_DIR="${ICCACHE_CI_ARTIFACT_DIR:-}"
if [[ -n "${ARTIFACT_DIR}" ]]; then
  mkdir -p "${ARTIFACT_DIR}"
fi

echo "== configure =="
cmake -B "${BUILD_DIR}" -S .

echo "== build (-j${JOBS}) =="
cmake --build "${BUILD_DIR}" -j "${JOBS}"

# Per-label runs with per-label timeouts (labels assigned in CMakeLists.txt).
# The per-test TIMEOUT property is the hard cap; --timeout is the ctest-side
# guard so a wedged binary cannot stall the whole job.
echo "== ctest: unit (120s/test) =="
ctest --test-dir "${BUILD_DIR}" --output-on-failure -j "${JOBS}" -L unit --timeout 120

echo "== ctest: concurrency (300s/test) =="
ctest --test-dir "${BUILD_DIR}" --output-on-failure -j "${JOBS}" -L concurrency --timeout 300

echo "== ctest: integration (600s/test) =="
ctest --test-dir "${BUILD_DIR}" --output-on-failure -j "${JOBS}" -L integration --timeout 600

# The persistence suites also run above via their unit/concurrency labels;
# this pass exists so snapshot/restore regressions fail under their own name.
echo "== ctest: persistence (300s/test) =="
ctest --test-dir "${BUILD_DIR}" --output-on-failure -j "${JOBS}" -L persistence --timeout 300

echo "== examples smoke =="
# The examples/ binaries are runnable documentation; each must exit 0.
for example in quickstart cloud_serving offline_replay edge_assistant; do
  echo "-- ${example}"
  timeout 300 "${BUILD_DIR}/${example}" > /dev/null
done

echo "== paper benches (each must exit 0) =="
# The 23 paper figure/table harnesses (bench_fig*, bench_tab*,
# bench_ablation_design_choices; ~31 s in all on a 4-vCPU VM). Their output
# is deterministic: tools/paper_bench_diff.sh compares two builds' output
# byte for byte.
for source in bench/bench_fig*.cc bench/bench_tab*.cc bench/bench_ablation_design_choices.cc; do
  bench="$(basename "${source}" .cc)"
  echo "-- ${bench}"
  timeout 300 "${BUILD_DIR}/${bench}" > /dev/null
done

echo "== repository benchmark self-test (bench/perf) =="
# Builds bench_perf from this checkout and checks the benchmark's own ledger
# arithmetic on synthetic spans (nested self time, cost recovery, and a
# doctored +10% slowdown flagged at exactly its entry).
timeout 600 python3 bench/perf/run.py --self-test

echo "== repository benchmark: churn256k workload (1 s) =="
# One real workload end to end: every serve restores the seed-pool snapshot,
# then runs byte-budget evictions, replay, and periodic checkpoints, and the
# serves must agree on their decisions. bench_perf exit-enforces its own
# checks; its result line (the last line of stdout) must also report
# "correct": true and zero failed operations.
CHURN_RESULT="$(timeout 600 python3 bench/perf/run.py --workload churn256k --seconds 1 | tail -n 1)"
if ! python3 -c 'import json, sys
r = json.loads(sys.argv[1])
sys.exit(0 if r.get("correct") is True and r.get("failed") == 0 else 1)' "${CHURN_RESULT}"; then
  echo "churn256k benchmark run failed: ${CHURN_RESULT}" >&2
  exit 1
fi

echo "== smoke bench (2s cap) =="
# Smoke only proves the harness binary starts and emits output; hitting the
# cap (exit 124) is fine, any other failure is not.
rc=0
timeout 2 "${BUILD_DIR}/bench_driver_throughput" || rc=$?
if [[ "${rc}" -ne 0 && "${rc}" -ne 124 ]]; then
  echo "smoke bench failed with exit ${rc}" >&2
  exit "${rc}"
fi

echo "== simd kernel + index suites: forced-scalar dispatch =="
# The unit label above already runs these suites under the best kernel the
# box offers (avx2 where available); this rerun pins the portable scalar
# fallback so both dispatch paths stay green everywhere, including the
# scalar constants of index_hnsw_test's pinned pruned graph. The override is
# read once at first kernel use, so each rerun needs a fresh process.
ICCACHE_FORCE_SCALAR=1 timeout 120 "${BUILD_DIR}/common_simd_test" > /dev/null
ICCACHE_FORCE_SCALAR=1 timeout 300 "${BUILD_DIR}/index_batch_test" > /dev/null
ICCACHE_FORCE_SCALAR=1 timeout 300 "${BUILD_DIR}/index_hnsw_test" > /dev/null

echo "== retrieval scaling acceptance (100k hnsw) =="
# Exit-enforces the stage-1 retrieval bars on a clustered 128-d corpus:
# hnsw >= 5x flat at recall@10 >= 0.9, and the graph image round-trips
# through save/restore. --batch adds the batched-traversal bars: SearchBatch
# >= 1.2x single-query us/q on hnsw with bit-identical results and zero
# steady-state scratch allocations. ~60 s: the 100k graph build dominates,
# the 1000-query search windows keep the timing comparison out of the noise
# floor.
RETRIEVAL_JSON="$(mktemp -u /tmp/iccache_ci_retrieval_XXXXXX.json)"
timeout 900 "${BUILD_DIR}/bench_retrieval_scaling" \
  --sizes=100000 --dim=128 --queries=1000 --M=16 --efc=100 --efs=192 \
  --sigma=0.12 --acceptance --batch --json-out="${RETRIEVAL_JSON}"
if [[ -n "${ARTIFACT_DIR}" ]]; then
  cp "${RETRIEVAL_JSON}" "${ARTIFACT_DIR}/BENCH_retrieval_scaling.json"
fi
rm -f "${RETRIEVAL_JSON}"

# Forced-scalar end-to-end smoke: the same harness must stay correct (not
# fast) when dispatch is pinned to the fallback kernels.
ICCACHE_FORCE_SCALAR=1 timeout 300 "${BUILD_DIR}/bench_retrieval_scaling" \
  --sizes=10000 --dim=128 --queries=100 --M=16 --efc=100 --efs=96 \
  --sigma=0.12 > /dev/null

if [[ "${ICCACHE_CI_SCALE:-}" == "full" ]]; then
  echo "== retrieval scaling acceptance (1M full-scale) =="
  # The million-example proof: same bars at 1M vectors plus the snapshot
  # save/restore round-trip at that scale. ~20 min single-core; run on
  # demand and before cutting a release.
  timeout 3600 "${BUILD_DIR}/bench_retrieval_scaling" \
    --sizes=1000000 --dim=128 --queries=400 --M=16 --efc=100 --efs=192 \
    --sigma=0.12 --acceptance
else
  echo "== retrieval scaling (1M) skipped: set ICCACHE_CI_SCALE=full to run =="
fi

echo "== sharded-commit-pipeline + stage-0 + observability acceptance =="
# Full lifecycle + maintenance on hnsw at 1 vs 8 threads from the same
# restored seed snapshot. Exit-enforces: a byte-identical seed snapshot
# whether SaveSnapshot's parallel link pass runs on 1 or 8 threads,
# identical decisions (including
# across prepare_chunk {1,16,32}, with identical tail exemplars and
# byte-identical pool contents), a serial request-path cost (driver-thread
# time outside the pool and maintenance) under an absolute us/request
# ceiling, and the driver-thread maintenance cost (cut export, planning and
# the apply step with its per-shard eviction knapsacks, all on the driver
# thread) under its own us/request ceiling. The second section replays a
# duplicate-heavy trace with the stage-0 response tier on and exit-enforces
# its gate: hit rate >= 25%, fewer generated tokens than the stage0-off run,
# byte-identical decisions at 1 vs 8 threads and 1 vs 4 commit lanes, a
# count of hits that skipped retrieval in prepare that is > 0, <= the hits
# and the same in the 1-thread, 8-thread and 1-lane runs, and the serial
# cost under the same ceiling (its merge appends to the stage-0 cache's
# exact index, so no graph insert runs there). The third section
# exit-enforces the
# flight-recorder gate: decisions AND tail exemplars byte-identical with
# tracing + armed watchdog on vs off at {1,8} threads x {1,4} lanes x
# {1,32} prepare chunk,
# observability overhead <= 3%, tail attribution >= 90% of the p99 cohort's
# wall time, the armed watchdog silent on the clean run, and the exported
# Chrome trace + Prometheus metrics parse and cover every pipeline stage.
# The fourth section injects a stage-0 hit-rate collapse and requires the
# watchdog to flag it.
TRACE_JSON="$(mktemp -u /tmp/iccache_ci_trace_XXXXXX.json)"
METRICS_PROM="$(mktemp -u /tmp/iccache_ci_metrics_XXXXXX.prom)"
BENCH_JSON="$(mktemp -u /tmp/iccache_ci_bench_XXXXXX.json)"
timeout 600 "${BUILD_DIR}/bench_driver_throughput" --acceptance --requests=3000 \
  --trace-out="${TRACE_JSON}" --metrics-out="${METRICS_PROM}" --json-out="${BENCH_JSON}"

echo "== observability export smoke (trace_dump + tail_report + metrics grep) =="
# trace_dump re-parses the exported JSON with the strict in-repo parser,
# lints window-parent integrity, and must see the per-request commit span;
# the Prometheus text must expose the core request counter under the
# iccache_ prefix.
# No `grep -q` under pipefail: an early-exit grep SIGPIPEs the dump binary.
timeout 60 "${BUILD_DIR}/trace_dump" "${TRACE_JSON}" | grep "lane_commit" > /dev/null
# Per-request timeline mode: any request id that appears in the trace must
# assemble into a renderable cross-thread timeline.
# Single-process extraction: the trace is one giant JSON line, so any
# grep|head pipe either SIGPIPEs under pipefail or returns every id at once.
REQ_ID="$(awk 'match($0, /"request_id":[1-9][0-9]*/) { print substr($0, RSTART + 13, RLENGTH - 13); exit }' "${TRACE_JSON}")"
timeout 60 "${BUILD_DIR}/trace_dump" --request="${REQ_ID}" "${TRACE_JSON}" \
  | grep "request ${REQ_ID}" > /dev/null
# Offline tail-attribution gate over the same trace: >= 90% of the p99
# cohort's wall time must land in named stages.
timeout 60 "${BUILD_DIR}/tail_report" --min-attribution=0.9 "${TRACE_JSON}" > /dev/null
grep -q "^iccache_requests_total " "${METRICS_PROM}"

echo "== perf trajectory gate (bench_compare vs committed baseline) =="
# Green path: this run's BENCH json must stay inside the committed
# baseline's tolerance bands. Machine-dependent metrics (req/s, wall clock)
# report but do not gate across machines; the simulated metrics are
# seed-deterministic and gate everywhere.
timeout 60 "${BUILD_DIR}/bench_compare" bench/baselines/BENCH_driver.json "${BENCH_JSON}"
# Red-path self-test: doctor a 20% throughput drop into a copy of this run
# and require the strict gate (same machine, so machine metrics gate too) to
# FAIL — a gate that cannot fire protects nothing.
DOCTORED_JSON="$(mktemp -u /tmp/iccache_ci_doctored_XXXXXX.json)"
timeout 60 "${BUILD_DIR}/bench_compare" --scale=requests_per_second=0.8 \
  "${BENCH_JSON}" "${DOCTORED_JSON}" > /dev/null
if timeout 60 "${BUILD_DIR}/bench_compare" --strict "${BENCH_JSON}" "${DOCTORED_JSON}" > /dev/null; then
  echo "bench_compare failed to flag a doctored 20% throughput regression" >&2
  exit 1
fi
echo "doctored -20% req/s correctly rejected by bench_compare --strict"

if [[ -n "${ARTIFACT_DIR}" ]]; then
  cp "${TRACE_JSON}" "${ARTIFACT_DIR}/trace.json"
  cp "${METRICS_PROM}" "${ARTIFACT_DIR}/metrics.prom"
  cp "${BENCH_JSON}" "${ARTIFACT_DIR}/BENCH_driver.json"
fi
rm -f "${TRACE_JSON}" "${METRICS_PROM}" "${BENCH_JSON}" "${DOCTORED_JSON}"

echo "== snapshot format smoke (driver checkpoint -> snapshot_dump) =="
# A short lifecycle run (stage-0 tier on) that takes real checkpoints, then
# snapshot_dump re-validates every section CRC, walks every example record,
# and must report the stage-0 response-cache section.
SNAP="$(mktemp -u /tmp/iccache_ci_pool_XXXXXX.snap)"
trap 'rm -f "${SNAP}" "${SNAP}.tmp"' EXIT
timeout 300 "${BUILD_DIR}/bench_driver_throughput" \
  --requests=600 --sweep=off --stage0=on --snapshot="${SNAP}" > /dev/null
timeout 60 "${BUILD_DIR}/snapshot_dump" "${SNAP}" | grep "^stage0:" > /dev/null

echo "== snapshot save, restore and serve memory gates (30k-example pool) =="
# Exit-enforces a native (no-rebuild) restore, that the streamed save adds
# under half the file size to peak resident memory, that the streamed
# restore's transient (peak rise minus the restored pool's own resident
# growth) stays under 0.1x the file size, and that putting 1,500 more
# examples into a second restore, made with glibc's mmap threshold pinned
# as a long-running process has it, adds under 0.2x the file size to peak
# resident memory (all three measured through /proc/self/clear_refs;
# skipped where that file is missing).
timeout 300 "${BUILD_DIR}/bench_driver_throughput" --snapshot-bench=30000

echo "== ci.sh OK =="
