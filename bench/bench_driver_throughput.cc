// Concurrent serving-driver throughput: host-side pipeline requests/sec and
// simulated completion-latency percentiles (E2E, TTFT, scheduler queue delay)
// at 1 vs N worker threads over the same synthetic LMSys trace, for each
// configured stage-1 retrieval backend. The batched two-phase pipeline
// guarantees identical routing decisions at every thread count, so the
// speedup column isolates the parallel stage-1/stage-2 preparation work
// (embed + sharded retrieval + proxy scoring) that the ThreadPool
// accelerates.
//
// A second section demonstrates the example lifecycle under a byte budget:
// with maintenance ON the decay + knapsack-eviction ticks (plus automatic
// enforcement on insert) hold the sharded pool at <= capacity *
// high_watermark for the whole trace; with maintenance OFF and no budget the
// pool grows without bound. Use --requests=50000 to reproduce the
// long-trace acceptance run.
//
// Flags:
//   --index=flat,hnsw     comma-separated retrieval backends to sweep
//                         (flat | kmeans | hnsw; default "flat,hnsw")
//   --requests=N          approximate trace length (default 4000)
//   --sweep=on|off        run the thread-count sweep (default on; off runs
//                         only the lifecycle demo, e.g. for --requests=50000)
//   --maintenance=on|off  lifecycle demo mode (default on: bounded pool;
//                         off: unbounded growth baseline)
//   --capacity-kb=N       byte budget for the maintenance demo (default 256)
//   --snapshot=<path>     lifecycle demo: take periodic checkpoints to <path>
//                         (trace-time cadence, off-peak gated) and report
//                         checkpoint count + snapshot write p50/p99 ms, then
//                         leave a final snapshot behind for --restore /
//                         snapshot_dump
//   --restore=<path>      lifecycle demo: warm-start the driver from <path>
//                         instead of re-seeding, reporting restore ms
//   --snapshot-bench=N    standalone persistence acceptance: build an
//                         N-example sharded HNSW pool, snapshot it, restore
//                         it natively (no graph rebuild), then restore it
//                         again with glibc's mmap threshold pinned as in a
//                         long-running process, put N/20 more examples into
//                         that pool and link them; report write/read ms,
//                         how far each phase raises peak resident memory,
//                         and the restore's transient (its peak rise minus
//                         the restored pool's own resident growth); exits
//                         non-zero when the restore needs a rebuild, a
//                         100k-scale pool takes >= 2 s, the save adds 0.5x
//                         the file size or more to peak memory, the
//                         restore's transient reaches 0.1x the file size, or
//                         the puts after the restore add 0.2x the file size
//                         or more to peak memory
//   --stage0=on|off       enable the stage-0 response tier in the thread
//                         sweep (default off); adds hit-rate and
//                         tokens-saved columns to the table
//   --acceptance          sharded-commit-pipeline smoke (ci.sh): full
//                         lifecycle + maintenance on hnsw at 1 and 8
//                         threads from the same restored seed snapshot;
//                         exits non-zero unless the seed snapshot written
//                         at 1 and at 8 threads is byte for byte the same
//                         file, decisions match, and the serial
//                         request-path and driver-thread maintenance costs
//                         stay under their us/request ceilings.
//                         A second section replays a duplicate-heavy trace
//                         with the stage-0 tier on and enforces its gate:
//                         hit rate above a floor, fewer generated tokens
//                         than the stage0-off run, identical decisions at
//                         1 vs 8 threads and 1 vs 4 commit lanes, and a
//                         count of hits that skipped retrieval that is
//                         above 0, at most the hits, and the same in the
//                         1-thread, 8-thread and 1-lane runs.
//                         A third section enforces the observability gate:
//                         decisions AND tail exemplars byte-identical with
//                         tracing + the SLO watchdog on vs off at {1,8}
//                         threads x {1,4} lanes, tracing+watchdog overhead
//                         <= 3% (best of 4 paired cpu-time runs), the
//                         exported Chrome trace + Prometheus metrics parse
//                         cleanly (histogram families validated end to end)
//                         and contain spans for every pipeline stage, the
//                         assembled per-request timelines attribute >= 90%
//                         of the tail cohort's wall time to named stages,
//                         the armed watchdog stays silent on the clean run,
//                         and a fourth section injects a stage-0 hit-rate
//                         collapse (all-unique tail) that the watchdog MUST
//                         flag
//   --trace-out=<path>    write a Chrome trace-event JSON (Perfetto-loadable)
//                         of the run: acceptance mode writes the
//                         observability-section export run; otherwise the
//                         lifecycle demo runs with tracing enabled and is
//                         exported
//   --metrics-out=<path>  write the Prometheus-style metrics snapshot of the
//                         same run the trace export covers
//   --json-out=<path>     write the run's BENCH json record (schema
//                         "iccache-bench/1", see src/obs/bench_json.h):
//                         acceptance mode records the observability export
//                         run, otherwise the lifecycle demo —
//                         tools/bench_compare gates CI against the committed
//                         baseline with these records
//
// Every thread-sweep cell starts from an IDENTICAL restored snapshot: the
// seed pool is built once per backend, snapshotted, and each (backend,
// threads) run warm-starts from that file — so rows differ only in
// num_threads, never in pool construction history.
#include <sys/resource.h>
#include <unistd.h>
#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/core/retrieval_backend.h"
#include "src/core/sharded_cache.h"
#include "src/obs/bench_json.h"
#include "src/obs/export.h"
#include "src/obs/timeline.h"
#include "src/obs/trace.h"
#include "src/persist/pool_codec.h"
#include "src/persist/snapshot.h"
#include "src/serving/driver.h"

namespace iccache {
namespace {

constexpr uint64_t kSeed = 0xd21e5;
constexpr size_t kSeedPool = 2000;

// Total process CPU seconds (user + system, all threads). The observability
// overhead gate compares CPU time rather than wall clock: on a loaded or
// single-core CI box, wall time of a multi-threaded run swings far more than
// 2% run to run, while the CPU cost of identical deterministic work is
// stable — and tracing's cost is CPU, not idle time.
double ProcessCpuSeconds() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec) + 1e-6 * usage.ru_utime.tv_usec +
         static_cast<double>(usage.ru_stime.tv_sec) + 1e-6 * usage.ru_stime.tv_usec;
}

struct Options {
  std::vector<RetrievalBackendKind> backends = {RetrievalBackendKind::kFlat,
                                                RetrievalBackendKind::kHnsw};
  size_t requests = 4000;
  bool sweep = true;
  bool maintenance = true;
  bool acceptance = false;
  bool stage0 = false;
  int64_t capacity_kb = 256;
  std::string snapshot_path;
  std::string restore_path;
  std::string trace_out;
  std::string metrics_out;
  std::string json_out;
  size_t snapshot_bench = 0;
};

DriverConfig MakeConfig(size_t num_threads, RetrievalBackendKind backend,
                        bool stage0 = false) {
  DriverConfig config;
  config.num_threads = num_threads;
  config.batch_window = 64;
  config.cache.num_shards = 8;
  config.cache.cache.retrieval.kind = backend;
  config.stage0.enabled = stage0;
  config.seed = kSeed;
  return config;
}

// Deterministically rewrites a slice of the tail requests into verbatim
// repeats of earlier ones (fresh ids, arrival times untouched) — the
// duplicate-heavy trace the stage-0 acceptance gate measures hit rate on.
std::vector<Request> MakeDuplicateHeavy(std::vector<Request> requests,
                                        double repeat_fraction) {
  Rng rng(kSeed ^ 0xd0b1eull);
  const size_t warmup = requests.size() / 8;
  for (size_t i = warmup; i < requests.size(); ++i) {
    if (!rng.Bernoulli(repeat_fraction)) {
      continue;
    }
    const Request& source = requests[rng.UniformInt(static_cast<uint64_t>(i))];
    Request& repeat = requests[i];
    repeat.text = source.text;
    repeat.dataset = source.dataset;
    repeat.task = source.task;
    repeat.topic_id = source.topic_id;
    repeat.intent_id = source.intent_id;
    repeat.difficulty = source.difficulty;
    repeat.input_tokens = source.input_tokens;
    repeat.target_output_tokens = source.target_output_tokens;
    // id and arrival_time stay the repeat's own.
  }
  return requests;
}

// Duplicate-heavy head, then an all-unique tail: the stage-0 hit rate climbs
// as the cache warms, then collapses when the last 40% of requests stop
// repeating — the injected fault the watchdog's hit-rate-drop rule must
// catch.
std::vector<Request> MakeCollapseTrace(std::vector<Request> requests) {
  Rng rng(kSeed ^ 0xc011a5eull);
  const size_t warmup = requests.size() / 8;
  const size_t cliff = (requests.size() * 3) / 5;
  for (size_t i = warmup; i < requests.size(); ++i) {
    if (i >= cliff) {
      requests[i].text += " #unique-" + std::to_string(i);
      continue;
    }
    if (!rng.Bernoulli(0.6)) {
      continue;
    }
    const Request& source = requests[rng.UniformInt(static_cast<uint64_t>(i))];
    Request& repeat = requests[i];
    repeat.text = source.text;
    repeat.dataset = source.dataset;
    repeat.task = source.task;
    repeat.topic_id = source.topic_id;
    repeat.intent_id = source.intent_id;
    repeat.difficulty = source.difficulty;
    repeat.input_tokens = source.input_tokens;
    repeat.target_output_tokens = source.target_output_tokens;
  }
  return requests;
}

// The SLO-watchdog rule set the acceptance runs arm: the stage-0 hit-rate
// collapse rule, whose input is deterministic in simulation, so a clean run
// is provably silent at any thread count. The latency rules (e2e SLO, queue
// growth) stay off here — simulated latencies don't breach and arming them
// adds nothing to the gate.
WatchdogConfig ArmedWatchdog() {
  WatchdogConfig watchdog;
  watchdog.stage0_drop_fraction = 0.5;
  return watchdog;
}

bool SameTailExemplars(const DriverReport& a, const DriverReport& b) {
  if (a.tail_exemplars.size() != b.tail_exemplars.size()) {
    return false;
  }
  for (size_t i = 0; i < a.tail_exemplars.size(); ++i) {
    if (a.tail_exemplars[i].request_id != b.tail_exemplars[i].request_id ||
        a.tail_exemplars[i].window != b.tail_exemplars[i].window ||
        a.tail_exemplars[i].e2e_latency_s != b.tail_exemplars[i].e2e_latency_s ||
        a.tail_exemplars[i].slowest != b.tail_exemplars[i].slowest) {
      return false;
    }
  }
  return true;
}

std::unique_ptr<ServingDriver> MakeDriver(const DatasetProfile& profile,
                                          const ModelCatalog& catalog, DriverConfig config) {
  auto driver = std::make_unique<ServingDriver>(config, &catalog);
  QueryGenerator seeder(profile, kSeed ^ 0x5eedb);
  for (size_t i = 0; i < kSeedPool; ++i) {
    driver->SeedExample(seeder.Next(), 0.0);
  }
  return driver;
}

// The whole file at `path` (empty when unreadable).
std::string ReadFileBytes(const std::string& path) {
  std::string bytes;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return bytes;
  }
  char buf[1 << 16];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    bytes.append(buf, n);
  }
  std::fclose(f);
  return bytes;
}

// Builds the seed pool ONCE and snapshots it, so every sweep cell (and the
// acceptance mode) warm-starts from byte-identical learned state — rows of
// the thread sweep differ only in num_threads, never in pool history.
std::string WriteSeedSnapshot(const DatasetProfile& profile, const ModelCatalog& catalog,
                              DriverConfig config, const char* tag) {
  const std::string path =
      "/tmp/iccache_seed_" + std::to_string(::getpid()) + "_" + tag + ".snap";
  const auto driver = MakeDriver(profile, catalog, std::move(config));
  const Status saved = driver->SaveSnapshot(path);
  if (!saved.ok()) {
    std::fprintf(stderr, "seed snapshot failed: %s\n", saved.ToString().c_str());
    std::exit(1);
  }
  return path;
}

std::unique_ptr<ServingDriver> RestoredDriver(const ModelCatalog& catalog, DriverConfig config,
                                              const std::string& seed_snapshot) {
  config.snapshot_path = seed_snapshot;
  config.restore_on_start = true;  // checkpoint_interval_s stays 0: read-only
  auto driver = std::make_unique<ServingDriver>(config, &catalog);
  if (!driver->restore_status().ok() || !driver->restored_from_snapshot()) {
    std::fprintf(stderr, "seed restore failed: %s\n",
                 driver->restore_status().ToString().c_str());
    std::exit(1);
  }
  return driver;
}

Options ParseOptions(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--index=", 0) == 0) {
      options.backends.clear();
      const std::string list = arg.substr(8);
      size_t start = 0;
      while (start <= list.size()) {
        const size_t comma = list.find(',', start);
        const std::string name =
            list.substr(start, comma == std::string::npos ? std::string::npos : comma - start);
        RetrievalBackendKind kind;
        if (!ParseRetrievalBackendKind(name, &kind)) {
          std::fprintf(stderr, "unknown retrieval backend: %s (want flat|kmeans|hnsw)\n",
                       name.c_str());
          std::exit(2);
        }
        options.backends.push_back(kind);
        if (comma == std::string::npos) {
          break;
        }
        start = comma + 1;
      }
    } else if (arg.rfind("--requests=", 0) == 0) {
      options.requests = static_cast<size_t>(std::strtoull(arg.c_str() + 11, nullptr, 10));
    } else if (arg == "--sweep=on") {
      options.sweep = true;
    } else if (arg == "--sweep=off") {
      options.sweep = false;
    } else if (arg == "--maintenance=on") {
      options.maintenance = true;
    } else if (arg == "--maintenance=off") {
      options.maintenance = false;
    } else if (arg == "--stage0=on") {
      options.stage0 = true;
    } else if (arg == "--stage0=off") {
      options.stage0 = false;
    } else if (arg.rfind("--capacity-kb=", 0) == 0) {
      options.capacity_kb = std::strtoll(arg.c_str() + 14, nullptr, 10);
    } else if (arg.rfind("--snapshot=", 0) == 0) {
      options.snapshot_path = arg.substr(11);
    } else if (arg.rfind("--restore=", 0) == 0) {
      options.restore_path = arg.substr(10);
    } else if (arg.rfind("--trace-out=", 0) == 0) {
      options.trace_out = arg.substr(12);
    } else if (arg.rfind("--metrics-out=", 0) == 0) {
      options.metrics_out = arg.substr(14);
    } else if (arg.rfind("--json-out=", 0) == 0) {
      options.json_out = arg.substr(11);
    } else if (arg.rfind("--snapshot-bench=", 0) == 0) {
      options.snapshot_bench = static_cast<size_t>(std::strtoull(arg.c_str() + 17, nullptr, 10));
    } else if (arg == "--acceptance") {
      options.acceptance = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      std::exit(2);
    }
  }
  return options;
}

// Peak resident memory of this process, for measuring one phase at a time.
// Reset() drops the peak (VmHWM) to the current resident size through
// /proc/self/clear_refs and returns false where that file is missing or not
// writable; RaisedMib() is how far the peak has risen since.
class PeakRssProbe {
 public:
  bool Reset() {
    std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
    if (f == nullptr) {
      return false;
    }
    const bool written = std::fputs("5", f) >= 0;
    if (std::fclose(f) != 0 || !written) {
      return false;
    }
    start_kb_ = StatusKb("VmHWM:");
    return start_kb_ >= 0;
  }

  double RaisedMib() const {
    return static_cast<double>(StatusKb("VmHWM:") - start_kb_) / 1024.0;
  }

  // How far the peak stands above the current resident size: what a phase
  // held only while it ran, apart from what it left resident. Right after a
  // Reset the peak equals the resident size, so this is the phase's peak
  // rise minus its resident growth.
  double TransientMib() const {
    return static_cast<double>(StatusKb("VmHWM:") - StatusKb("VmRSS:")) / 1024.0;
  }

 private:
  // A "<field> <n> kB" line of /proc/self/status; -1 when absent.
  static long StatusKb(const char* field) {
    std::FILE* f = std::fopen("/proc/self/status", "r");
    if (f == nullptr) {
      return -1;
    }
    long kb = -1;
    char line[256];
    const size_t field_len = std::strlen(field);
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::strncmp(line, field, field_len) == 0) {
        kb = std::strtol(line + field_len, nullptr, 10);
        break;
      }
    }
    std::fclose(f);
    return kb;
  }

  long start_kb_ = 0;
};

// The save must add less than this multiple of the file size to peak
// resident memory: a streamed save holds one flush buffer and one record
// beyond the pool, where staging the image held several copies of it.
constexpr double kSaveRssCeilingFileMultiple = 0.5;
// The restore's transient (peak rise beyond the restored pool's own
// resident growth) must stay under this multiple of the file size: a
// streamed restore holds one read buffer and one record beyond the pool,
// where loading each large section whole held about half the file.
constexpr double kRestoreTransientCeilingFileMultiple = 0.1;
// Putting N/20 examples into a restored pool (about one pool30k serve's
// admissions) must add less than this multiple of the file size to peak
// resident memory: the index arenas grow by blocks and never copy the
// restored vectors. At N=30000 it reads 0.09x, about what the new examples
// hold; std::vector arenas sized exactly by the restore, each copied whole
// on its shard's first put, read 0.44x.
constexpr double kServeRssCeilingFileMultiple = 0.2;

// Standalone persistence acceptance: an N-example sharded HNSW pool must
// snapshot and restore through the native graph image (no rebuild), at
// 100k-example scale the restore must come in under 2 seconds, the save and
// the restore must stream rather than hold the image in memory, and new
// examples put into a restored pool must not add much beyond themselves.
int RunSnapshotBench(size_t n) {
  benchutil::PrintTitle("Persistence: snapshot/restore of the example pool (8 shards, hnsw)");
  const std::string path =
      "/tmp/iccache_snapshot_bench_" + std::to_string(::getpid()) + ".snap";
  auto embedder = std::make_shared<HashingEmbedder>();
  ShardedCacheConfig config;
  config.num_shards = 8;
  config.cache.retrieval.kind = RetrievalBackendKind::kHnsw;
  ShardedExampleCache pool(embedder, config);

  const DatasetProfile profile = benchutil::ScaledProfile(DatasetId::kLmsysChat, n);
  QueryGenerator generator(profile, kSeed ^ 0x5a9);
  const auto build_start = std::chrono::steady_clock::now();
  for (size_t i = 0; i < n; ++i) {
    pool.Put(generator.Next(), "[cached-response]", 0.8, 0.9, 48, 0.0);
  }
  {
    // Put only appends: link every shard here, in parallel, so the save
    // below (and its memory gate) measures the save alone.
    ThreadPool link_pool(config.num_shards);
    pool.Flush(&link_pool);
  }
  const auto build_end = std::chrono::steady_clock::now();
  std::printf("  build:    %zu examples, %.1f MB pool in %.2f s (hnsw appends + parallel link)\n",
              pool.size(), static_cast<double>(pool.used_bytes()) / (1024.0 * 1024.0),
              std::chrono::duration<double>(build_end - build_start).count());

  PeakRssProbe rss;
  const bool rss_measured = rss.Reset();
  SnapshotWriter writer;
  const auto write_start = std::chrono::steady_clock::now();
  EncodePoolSections(pool, {}, /*sim_time=*/0.0, &writer);
  const Status write_status = writer.WriteToFile(path);
  const auto write_end = std::chrono::steady_clock::now();
  const double save_rss_mib = rss_measured ? rss.RaisedMib() : 0.0;
  if (!write_status.ok()) {
    std::fprintf(stderr, "snapshot write failed: %s\n", write_status.ToString().c_str());
    return 1;
  }
  const double write_s = std::chrono::duration<double>(write_end - write_start).count();

  ShardedExampleCache restored(embedder, config);
  SnapshotReader reader;
  PoolRestoreReport report;
  const bool restore_rss_measured = rss_measured && rss.Reset();
  const auto restore_start = std::chrono::steady_clock::now();
  Status restore_status = reader.Open(path);
  if (restore_status.ok()) {
    restore_status = DecodePoolSections(reader, &restored, {}, &report);
  }
  const auto restore_end = std::chrono::steady_clock::now();
  const double restore_rss_mib = restore_rss_measured ? rss.RaisedMib() : 0.0;
  const double restore_transient_mib = restore_rss_measured ? rss.TransientMib() : 0.0;
  std::remove(path.c_str());
  if (!restore_status.ok()) {
    std::fprintf(stderr, "restore failed: %s\n", restore_status.ToString().c_str());
    return 1;
  }
  const double restore_s = std::chrono::duration<double>(restore_end - restore_start).count();

  std::printf("  snapshot: %.1f MB written in %.0f ms (atomic: tmp + fsync + rename)\n",
              static_cast<double>(reader.file_size()) / (1024.0 * 1024.0), 1000.0 * write_s);
  std::printf("  restore:  %zu examples in %.0f ms  (native hnsw graph load: %s)\n",
              restored.size(), 1000.0 * restore_s, report.native_index_load ? "yes" : "NO (BUG)");

  // Spot-check: the restored pool answers identically.
  bool searches_match = true;
  QueryGenerator probes(profile, kSeed ^ 0x9a0b);
  for (int q = 0; q < 16; ++q) {
    const Request query = probes.Next();
    const auto a = pool.FindSimilar(query, 10);
    const auto b = restored.FindSimilar(query, 10);
    searches_match = searches_match && a.size() == b.size();
    for (size_t i = 0; searches_match && i < a.size(); ++i) {
      searches_match = a[i].id == b[i].id && a[i].score == b[i].score;
    }
  }
  std::printf("  restored searches identical to original: %s\n",
              searches_match ? "yes" : "NO (BUG)");

  // Serve phase: new examples into a pool restored once more from the open
  // file, linked in parallel as the driver links its shards. This restore
  // runs with glibc's mmap threshold pinned at 32 MiB, the ceiling its
  // dynamic threshold climbs to as a long-running process frees large
  // blocks (bench/perf restores after earlier drivers freed their pools).
  // Large buffers then come from the heap, where one that is copied into a
  // bigger buffer and freed stays resident. At the default threshold each
  // would be a mapping of its own, unmapped right after such a copy, so the
  // copies would peak one shard at a time and not show. The restore above
  // keeps the default, under which a large read buffer is unmapped when
  // freed and shows in its transient.
#if defined(__GLIBC__)
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
#endif
  ShardedExampleCache serving(embedder, config);
  const Status serving_status = DecodePoolSections(reader, &serving, {}, nullptr);
  if (!serving_status.ok()) {
    std::fprintf(stderr, "restore failed: %s\n", serving_status.ToString().c_str());
    return 1;
  }
  const size_t serve_puts = n / 20;
  ThreadPool link_pool(config.num_shards);
  const bool serve_rss_measured = restore_rss_measured && rss.Reset();
  const auto serve_start = std::chrono::steady_clock::now();
  for (size_t i = 0; i < serve_puts; ++i) {
    serving.Put(generator.Next(), "[cached-response]", 0.8, 0.9, 48, 0.0);
  }
  serving.Flush(&link_pool);
  const auto serve_end = std::chrono::steady_clock::now();
  const double serve_rss_mib = serve_rss_measured ? rss.RaisedMib() : 0.0;
  std::printf("  serve:    %zu more examples put and linked in %.0f ms\n", serve_puts,
              1000.0 * std::chrono::duration<double>(serve_end - serve_start).count());

  // How far each phase lifts peak resident memory. The restore's figure
  // includes the restored pool itself.
  bool save_memory_ok = true;
  bool restore_memory_ok = true;
  bool serve_memory_ok = true;
  const double file_mib = static_cast<double>(reader.file_size()) / (1024.0 * 1024.0);
  if (rss_measured && restore_rss_measured && serve_rss_measured && file_mib > 0.0) {
    save_memory_ok = save_rss_mib < kSaveRssCeilingFileMultiple * file_mib;
    restore_memory_ok = restore_transient_mib < kRestoreTransientCeilingFileMultiple * file_mib;
    serve_memory_ok = serve_rss_mib < kServeRssCeilingFileMultiple * file_mib;
    std::printf("  peak rss: save +%.1f MiB (%.2fx file), restore +%.1f MiB (%.2fx file, "
                "restored pool included), serve +%.1f MiB (%.2fx file)\n",
                save_rss_mib, save_rss_mib / file_mib, restore_rss_mib,
                restore_rss_mib / file_mib, serve_rss_mib, serve_rss_mib / file_mib);
    std::printf("  restore transient: +%.1f MiB (%.3fx file; peak rise minus the restored "
                "pool's resident growth)\n",
                restore_transient_mib, restore_transient_mib / file_mib);
    std::printf("  acceptance: save adds < %.1fx file size to peak rss: %s\n",
                kSaveRssCeilingFileMultiple, save_memory_ok ? "yes" : "NO (BUG)");
    std::printf("  acceptance: restore transient < %.1fx file size: %s\n",
                kRestoreTransientCeilingFileMultiple, restore_memory_ok ? "yes" : "NO (BUG)");
    std::printf("  acceptance: serve adds < %.1fx file size to peak rss: %s\n",
                kServeRssCeilingFileMultiple, serve_memory_ok ? "yes" : "NO (BUG)");
  } else {
    std::printf("  peak rss: not measured (/proc/self/clear_refs unavailable)\n");
  }

  const bool fast_enough = n < 100000 || restore_s < 2.0;
  if (n >= 100000) {
    std::printf("  acceptance (>=100k pool): restore < 2 s: %s\n",
                fast_enough ? "yes" : "NO (BUG)");
  }
  return report.native_index_load && searches_match && fast_enough && save_memory_ok &&
                 restore_memory_ok && serve_memory_ok && restored.size() == pool.size() &&
                 restored.used_bytes() == pool.used_bytes()
             ? 0
             : 1;
}

// ci.sh smoke for the sharded commit pipeline: full lifecycle + maintenance
// on hnsw, 1 vs 8 threads from the same restored seed snapshot.
// Exit-enforces the refactor's acceptance criteria: identical decisions
// (across thread counts AND across prepare_chunk {1,16,32}, with identical
// tail exemplars and byte-identical pool contents), and serial request-path
// and driver-thread maintenance costs under their absolute ceilings.
int RunAcceptance(const Options& options, const DatasetProfile& profile,
                  const ModelCatalog& catalog, const std::vector<Request>& requests);

bool SameDecisions(const DriverReport& a, const DriverReport& b) {
  if (a.decisions.size() != b.decisions.size()) {
    return false;
  }
  for (size_t i = 0; i < a.decisions.size(); ++i) {
    if (a.decisions[i].request_id != b.decisions[i].request_id ||
        a.decisions[i].model_name != b.decisions[i].model_name ||
        a.decisions[i].offloaded != b.decisions[i].offloaded ||
        a.decisions[i].num_examples != b.decisions[i].num_examples) {
      return false;
    }
  }
  return true;
}

// Driver-thread time outside the pool and outside maintenance (the ordered
// merge and window bookkeeping), in microseconds per request. An absolute
// cost, so it rises only when the serial path itself gets slower.
double SerialUsPerRequest(const DriverReport& report, size_t requests) {
  return requests > 0 ? 1e6 * report.serial_seconds / static_cast<double>(requests) : 0.0;
}

// --acceptance ceiling on SerialUsPerRequest (8 threads, 4 lanes, hnsw,
// 3000-request trace), shared by the lifecycle and stage-0 sections.
// Measured on a 4-vCPU Intel Xeon VM: 6.2 to 7.0 us for the lifecycle
// section and 7.1 to 8.4 us with the stage-0 tier on, whose merge appends
// responses to the stage-0 cache's exact index. That leaves >= 3x headroom,
// and a graph insert (~190 us) returning to the merge fails the gate.
constexpr double kSerialUsCeiling = 30.0;

// Driver-thread maintenance time (cut exports, planning, and the
// apply step: decay, planned removals, replay, and the per-shard knapsack
// re-enforcement of the byte budget) in microseconds per request.
double MaintenanceUsPerRequest(const DriverReport& report, size_t requests) {
  return requests > 0 ? 1e6 * report.maintenance_seconds / static_cast<double>(requests) : 0.0;
}

// --acceptance ceiling on MaintenanceUsPerRequest in the lifecycle section
// (256 KB budget). Measured on a 4-vCPU Intel Xeon VM over 5 runs: 11.9 to
// 15.9 us with the sparse exact knapsack; 92 to 101 us over 4 runs with the
// dense O(n * capacity) table it replaced, which this ceiling rejects. With
// the planning on the driver thread as well: 9.0 to 13.0 us over 10 runs on
// the same VM (the run's 18 ticks plan in about 0.7 ms in all).
constexpr double kMaintenanceUsCeiling = 35.0;

// BENCH json record for a driver run (schema "iccache-bench/1"). Simulated
// metrics (latency percentiles, hit rates, token counts, anomaly count) are
// seed-deterministic and gate against the committed baseline on any machine;
// wall-clock-derived metrics are marked machine_dependent and gate only
// under bench_compare --strict. Pass tail_attribution < 0 when no trace was
// recorded for the run.
BenchRunRecord MakeBenchRecord(const std::string& bench, const DriverConfig& config,
                               const DriverReport& report, size_t trace_size,
                               double tail_attribution) {
  BenchRunRecord record;
  record.bench = bench;
  record.AddConfig("requests", std::to_string(trace_size));
  record.AddConfig("threads", std::to_string(config.num_threads));
  record.AddConfig("lanes", std::to_string(config.commit_lanes));
  record.AddConfig("batch_window", std::to_string(config.batch_window));
  record.AddConfig("prepare_chunk", std::to_string(config.prepare_chunk));
  record.AddConfig("backend", RetrievalBackendKindName(config.cache.cache.retrieval.kind));
  record.AddConfig("stage0", config.stage0.enabled ? "on" : "off");
  record.AddConfig("seed", std::to_string(config.seed));
  record.AddConfig("simd_kernel", report.simd_kernel);
  record.AddMetric("requests_per_second", report.requests_per_second, 0.15, +1, true);
  record.AddMetric("wall_seconds", report.wall_seconds, 0.15, -1, true);
  // Requests divided by the wall time the driver spent inside pool task
  // groups, running tasks itself or waiting for them
  // (DriverReport::pool_seconds): the next window's prepare overlapped with
  // this window's commit lanes, plus the publish fan-outs. It is not
  // prepare-only; the trace ledger splits the bucket by stage.
  record.AddMetric("pool_wait_requests_per_second",
                   report.pool_seconds > 0.0
                       ? static_cast<double>(trace_size) / report.pool_seconds
                       : 0.0,
                   0.15, +1, true);
  record.AddMetric("serial_us_per_request", SerialUsPerRequest(report, trace_size), 0.15, -1,
                   true);
  if (tail_attribution >= 0.0) {
    record.AddMetric("tail_attribution_fraction", tail_attribution, 0.08, +1, true);
  }
  record.AddMetric("p50_latency_s", report.p50_latency_s, 0.10, -1);
  record.AddMetric("p99_latency_s", report.p99_latency_s, 0.10, -1);
  record.AddMetric("p50_ttft_s", report.p50_ttft_s, 0.10, -1);
  record.AddMetric("p99_ttft_s", report.p99_ttft_s, 0.10, -1);
  record.AddMetric("p50_queue_delay_s", report.p50_queue_delay_s, 0.10, -1);
  record.AddMetric("p99_queue_delay_s", report.p99_queue_delay_s, 0.10, -1);
  record.AddMetric("mean_quality", report.mean_quality, 0.05, +1);
  record.AddMetric("stage0_hit_rate",
                   trace_size > 0 ? static_cast<double>(report.stage0_hits) /
                                        static_cast<double>(trace_size)
                                  : 0.0,
                   0.10, +1);
  record.AddMetric("stage0_tokens_saved", static_cast<double>(report.stage0_tokens_saved),
                   0.10, +1);
  record.AddMetric("generated_tokens", static_cast<double>(report.generated_tokens), 0.10, -1);
  record.AddMetric("anomaly_count", static_cast<double>(report.anomalies.size()), 0.0, -1);
  record.AddMetric("offloaded_requests", static_cast<double>(report.offloaded_requests), 0.0, 0);
  record.AddMetric("admitted_examples", static_cast<double>(report.admitted_examples), 0.0, 0);
  record.AddMetric("tail_exemplars", static_cast<double>(report.tail_exemplars.size()), 0.0, 0);
  return record;
}

// Writes the flight-recorder trace (Chrome trace-event JSON) and the driver's
// metrics hub (Prometheus text) for a finished run, then validates both
// artifacts end to end: the JSON must survive the strict in-repo parser, and
// the metrics text must carry the core metric families. With
// expect_all_stages the trace must also contain a span for every pipeline
// stage — stage-0 probe through merge/publish, maintenance, checkpoint
// (kServiceRequest is the IcCacheService wrapper and never runs under the
// driver bench). Empty paths skip that artifact.
bool ExportObservability(const ServingDriver& driver, const std::string& trace_path,
                         const std::string& metrics_path, bool expect_all_stages) {
  bool ok = true;
  if (!trace_path.empty()) {
    const TraceRecorder::Snapshot snapshot = TraceRecorder::Global().TakeSnapshot();
    const Status written =
        WriteChromeTraceFile(trace_path, snapshot, driver.metrics_hub().series());
    if (!written.ok()) {
      std::fprintf(stderr, "trace export failed: %s\n", written.ToString().c_str());
      return false;
    }
    const StatusOr<std::string> json = ReadTextFile(trace_path);
    ChromeTraceSummary summary;
    std::string error;
    const bool parsed = json.ok() && ParseChromeTrace(json.value(), &summary, &error);
    std::printf("  trace export: %s  (%zu events, emitted=%llu dropped=%llu)  parses: %s\n",
                trace_path.c_str(), summary.total_events,
                static_cast<unsigned long long>(summary.emitted),
                static_cast<unsigned long long>(summary.dropped), parsed ? "yes" : "NO (BUG)");
    if (!parsed) {
      std::fprintf(stderr, "trace parse failed: %s\n",
                   json.ok() ? error.c_str() : json.status().ToString().c_str());
      return false;
    }
    if (expect_all_stages) {
      static constexpr TraceCategory kRequired[] = {
          TraceCategory::kWindow,          TraceCategory::kPrepare,
          TraceCategory::kEmbed,           TraceCategory::kStage0Probe,
          TraceCategory::kStage1Retrieval, TraceCategory::kStage1Batch,
          TraceCategory::kStage2Scoring,   TraceCategory::kHnswSearch,
          TraceCategory::kCommitLane,
          TraceCategory::kLaneCommit,      TraceCategory::kRoute,
          TraceCategory::kGenerate,        TraceCategory::kMerge,
          TraceCategory::kMergeStep,       TraceCategory::kPublish,
          TraceCategory::kMaintenancePlan, TraceCategory::kMaintenanceApply,
          TraceCategory::kCheckpointWrite,
      };
      bool all_stages = true;
      for (const TraceCategory category : kRequired) {
        const char* name = TraceCategoryName(category);
        if (summary.span_counts.find(name) == summary.span_counts.end()) {
          std::printf("  MISSING span category: %s\n", name);
          all_stages = false;
        }
      }
      std::printf("  all pipeline-stage spans present (%zu categories): %s\n",
                  sizeof(kRequired) / sizeof(kRequired[0]), all_stages ? "yes" : "NO (BUG)");
      ok = ok && all_stages;
    }
  }
  if (!metrics_path.empty()) {
    const Status written = WritePrometheusFile(metrics_path, driver.metrics_hub());
    if (!written.ok()) {
      std::fprintf(stderr, "metrics export failed: %s\n", written.ToString().c_str());
      return false;
    }
    const StatusOr<std::string> prom = ReadTextFile(metrics_path);
    bool metrics_ok = prom.ok();
    for (const char* family : {"iccache_requests_total", "iccache_e2e_latency_seconds_bucket",
                               "iccache_pool_bytes", "iccache_prepare_batch_fill"}) {
      metrics_ok = metrics_ok && prom.value().find(family) != std::string::npos;
    }
    // Round-trip: the exposition must parse back, and every histogram family
    // must be internally coherent (cumulative buckets, +Inf == _count).
    PrometheusSummary parsed_prom;
    std::string prom_error;
    const bool prom_valid =
        prom.ok() && ParsePrometheusText(prom.value(), &parsed_prom, &prom_error) &&
        ValidatePrometheusHistograms(parsed_prom, &prom_error);
    if (!prom_valid && prom.ok()) {
      std::fprintf(stderr, "prometheus validation failed: %s\n", prom_error.c_str());
    }
    std::printf("  metrics export: %s  core families present: %s  round-trip valid: %s\n",
                metrics_path.c_str(), metrics_ok ? "yes" : "NO (BUG)",
                prom_valid ? "yes" : "NO (BUG)");
    ok = ok && metrics_ok && prom_valid;
  }
  return ok;
}

int RunAcceptance(const Options& options, const DatasetProfile& profile,
                  const ModelCatalog& catalog, const std::vector<Request>& requests) {
  benchutil::PrintTitle(
      "Acceptance: sharded commit pipeline + epoch-based maintenance");
  DriverConfig config = MakeConfig(/*num_threads=*/8, RetrievalBackendKind::kHnsw);
  // Full lifecycle with cadences scaled to the trace (as in the demo below),
  // so decay, eviction and replay ticks are planned and applied in the run.
  config.cache.cache.capacity_bytes = options.capacity_kb * 1024;
  config.manager.decay_interval_s = 60.0;
  config.replay_min_interval_s = 120.0;
  config.replay_load_threshold = 1e9;
  const std::string seed_snapshot =
      WriteSeedSnapshot(profile, catalog, config, "acceptance");
  // The seed pool's graphs are linked in parallel by SaveSnapshot, one task
  // per shard: the file must not depend on the thread count.
  bool seed_bytes_identical = false;
  {
    DriverConfig one_thread = config;
    one_thread.num_threads = 1;
    const std::string one_thread_snapshot =
        WriteSeedSnapshot(profile, catalog, one_thread, "acceptance1t");
    const std::string eight_thread_bytes = ReadFileBytes(seed_snapshot);
    seed_bytes_identical = !eight_thread_bytes.empty() &&
                           eight_thread_bytes == ReadFileBytes(one_thread_snapshot);
    std::remove(one_thread_snapshot.c_str());
  }

  config.num_threads = 1;
  const DriverReport single = RestoredDriver(catalog, config, seed_snapshot)->Run(requests);
  config.num_threads = 8;
  auto eight_driver = RestoredDriver(catalog, config, seed_snapshot);
  const DriverReport eight = eight_driver->Run(requests);

  // Chunked-prepare invariance: the batched prepare path must be byte-stable
  // in the chunk size — decisions, tail exemplars, AND the resulting pool.
  // chunk=1 degenerates to per-request batches; chunk=32 spans half a
  // window. Pool contents are compared by size/bytes plus 16 probe searches
  // against the chunk=1 pool (id AND score must match).
  config.prepare_chunk = 1;
  auto chunk1_driver = RestoredDriver(catalog, config, seed_snapshot);
  const DriverReport chunk1 = chunk1_driver->Run(requests);
  config.prepare_chunk = 32;
  auto chunk32_driver = RestoredDriver(catalog, config, seed_snapshot);
  const DriverReport chunk32 = chunk32_driver->Run(requests);
  config.prepare_chunk = DriverConfig().prepare_chunk;
  std::remove(seed_snapshot.c_str());

  bool chunk_identical = SameDecisions(eight, chunk1) && SameDecisions(eight, chunk32) &&
                         SameTailExemplars(eight, chunk1) &&
                         SameTailExemplars(eight, chunk32);
  bool pools_identical =
      chunk1_driver->cache().size() == chunk32_driver->cache().size() &&
      chunk1_driver->cache().used_bytes() == chunk32_driver->cache().used_bytes() &&
      eight_driver->cache().size() == chunk1_driver->cache().size() &&
      eight_driver->cache().used_bytes() == chunk1_driver->cache().used_bytes();
  {
    QueryGenerator pool_probes(profile, kSeed ^ 0x9a0b);
    for (int q = 0; pools_identical && q < 16; ++q) {
      const Request query = pool_probes.Next();
      const auto a = chunk1_driver->cache().FindSimilar(query, 10);
      const auto b = chunk32_driver->cache().FindSimilar(query, 10);
      pools_identical = a.size() == b.size();
      for (size_t i = 0; pools_identical && i < a.size(); ++i) {
        pools_identical = a[i].id == b[i].id && a[i].score == b[i].score;
      }
    }
  }

  const bool identical = SameDecisions(single, eight);
  // Serial request-path cost: driver-thread time per request outside the
  // pool and outside maintenance. Maintenance is its own bucket with its own
  // ceiling: the cut export, the planning (the global eviction knapsack and
  // the replay draws) and the apply step, including the per-shard eviction
  // knapsacks, all run on the driver thread between windows.
  const double serial_us = SerialUsPerRequest(eight, requests.size());
  const double maintenance_us = MaintenanceUsPerRequest(eight, requests.size());
  std::printf("  requests=%zu  hnsw  lanes=%zu  maintenance ticks=%zu replay passes=%zu\n",
              requests.size(), config.commit_lanes, eight.maintenance_runs,
              eight.replay_passes);
  std::printf("  wall split (8t): pool %.3fs | serial %.3fs | maintenance %.3fs\n",
              eight.pool_seconds, eight.serial_seconds, eight.maintenance_seconds);
  std::printf("  seed snapshot bytes identical at 1 vs 8 threads: %s\n",
              seed_bytes_identical ? "yes" : "NO (BUG)");
  std::printf("  1-thread vs 8-thread decisions identical: %s\n",
              identical ? "yes" : "NO (BUG)");
  std::printf("  prepare_chunk {1,16,32} decisions + tail exemplars identical: %s\n",
              chunk_identical ? "yes" : "NO (BUG)");
  std::printf("  prepare_chunk {1,16,32} pool contents identical "
              "(%zu examples, %zu bytes, 16 probes): %s\n",
              chunk1_driver->cache().size(), chunk1_driver->cache().used_bytes(),
              pools_identical ? "yes" : "NO (BUG)");
  {
    // Report-only: how long each batch's last task waited for a thread.
    const LatencyHistogram delay =
        eight_driver->metrics_hub().HistogramSnapshot("pool_task_start_delay_seconds");
    std::printf("  pool task start delay (8t, last task of each batch): p50 %.3f ms, "
                "p99 %.3f ms over %zu batches\n",
                1e3 * delay.Percentile(50), 1e3 * delay.Percentile(99), delay.count());
  }
  std::printf("  serial request-path cost: %.1f us/request  (required <= %.0f): %s\n",
              serial_us, kSerialUsCeiling, serial_us <= kSerialUsCeiling ? "ok" : "FAIL");
  std::printf("  driver-thread maintenance cost: %.1f us/request  (required <= %.0f): %s\n",
              maintenance_us, kMaintenanceUsCeiling,
              maintenance_us <= kMaintenanceUsCeiling ? "ok" : "FAIL");
  const bool pipeline_ok = seed_bytes_identical && identical && chunk_identical &&
                           pools_identical &&
                           serial_us <= kSerialUsCeiling &&
                           maintenance_us <= kMaintenanceUsCeiling &&
                           eight.maintenance_runs > 0;

  // --- Stage-0 response tier gate: duplicate-heavy trace -------------------
  // Half the tail requests are verbatim repeats, so a working response cache
  // must (a) clear a hit-rate floor, (b) generate measurably fewer tokens
  // than the stage0-off run, (c) stay byte-identical across thread and
  // lane counts — the hit decision runs in the commit lane against the
  // window-frozen threshold, never in the parallel prepare phase — and (d)
  // skip retrieval for the hits prepare proves, as many at every thread
  // and lane count.
  benchutil::PrintTitle("Acceptance: stage-0 response tier on a duplicate-heavy trace");
  const std::vector<Request> dup_trace = MakeDuplicateHeavy(requests, 0.5);
  DriverConfig s0 = MakeConfig(/*num_threads=*/8, RetrievalBackendKind::kHnsw,
                               /*stage0=*/true);
  const std::string s0_snapshot = WriteSeedSnapshot(profile, catalog, s0, "stage0");

  s0.num_threads = 1;
  const DriverReport s0_single = RestoredDriver(catalog, s0, s0_snapshot)->Run(dup_trace);
  s0.num_threads = 8;
  const DriverReport s0_eight = RestoredDriver(catalog, s0, s0_snapshot)->Run(dup_trace);
  s0.commit_lanes = 1;
  const DriverReport s0_one_lane = RestoredDriver(catalog, s0, s0_snapshot)->Run(dup_trace);
  s0.commit_lanes = 4;
  DriverConfig s0_off = s0;
  s0_off.stage0.enabled = false;
  const DriverReport off = RestoredDriver(catalog, s0_off, s0_snapshot)->Run(dup_trace);
  std::remove(s0_snapshot.c_str());

  const double hit_rate = dup_trace.empty()
                              ? 0.0
                              : static_cast<double>(s0_eight.stage0_hits) /
                                    static_cast<double>(dup_trace.size());
  constexpr double kHitRateFloor = 0.25;  // half the tail repeats verbatim
  const bool s0_identical =
      SameDecisions(s0_single, s0_eight) && SameDecisions(s0_single, s0_one_lane);
  const bool tokens_reduced = s0_eight.generated_tokens < off.generated_tokens;
  const double s0_serial_us = SerialUsPerRequest(s0_eight, dup_trace.size());
  std::printf("  duplicate-heavy trace: %zu requests (50%% of tail repeats earlier text)\n",
              dup_trace.size());
  std::printf("  stage-0 hits: %zu (%.1f%% of trace, floor %.0f%%)  retrieval skipped=%zu  "
              "admitted=%zu probes=%zu invalidated=%zu expired=%zu\n",
              s0_eight.stage0_hits, 100.0 * hit_rate, 100.0 * kHitRateFloor,
              s0_eight.stage0_retrieval_skips, s0_eight.stage0_admitted,
              s0_eight.stage0_probes, s0_eight.stage0_invalidations, s0_eight.stage0_expired);
  std::printf("  generated tokens: %lld (stage0 on) vs %lld (off)  saved=%lld: %s\n",
              static_cast<long long>(s0_eight.generated_tokens),
              static_cast<long long>(off.generated_tokens),
              static_cast<long long>(s0_eight.stage0_tokens_saved),
              tokens_reduced ? "ok" : "FAIL");
  std::printf("  decisions identical (1t vs 8t, 4 lanes vs 1 lane): %s\n",
              s0_identical ? "yes" : "NO (BUG)");
  std::printf("  hit rate >= floor: %s\n", hit_rate >= kHitRateFloor ? "ok" : "FAIL");
  // Hits proven in prepare skip retrieval; which ones is fixed by the
  // decisions, so the count must match at every thread and lane count.
  const size_t skips = s0_eight.stage0_retrieval_skips;
  const bool skips_ok = skips > 0 && skips <= s0_eight.stage0_hits &&
                        s0_single.stage0_retrieval_skips == skips &&
                        s0_one_lane.stage0_retrieval_skips == skips;
  std::printf("  retrieval skips (1t / 8t / 1 lane): %zu / %zu / %zu, > 0, <= %zu hits, "
              "identical: %s\n",
              s0_single.stage0_retrieval_skips, skips, s0_one_lane.stage0_retrieval_skips,
              s0_eight.stage0_hits, skips_ok ? "ok" : "FAIL");
  std::printf("  serial request-path cost (stage0 on): %.1f us/request  "
              "(required <= %.0f): %s\n",
              s0_serial_us, kSerialUsCeiling, s0_serial_us <= kSerialUsCeiling ? "ok" : "FAIL");
  const bool stage0_ok = s0_identical && tokens_reduced && hit_rate >= kHitRateFloor &&
                         skips_ok && s0_serial_us <= kSerialUsCeiling;

  // --- Observability gate: the flight recorder must be passive -------------
  // Tracing and the SLO watchdog may never change a decision: runs with both
  // on must be byte-identical — decisions AND the deterministic tail-exemplar
  // set — to runs with both off at every thread and lane count, and their
  // combined CPU cost must stay under 3% (best of 4 paired runs). A final
  // export run — 8 threads, 4 lanes, stage-0 on, watchdog armed,
  // checkpointing enabled so checkpoint_write spans exist — feeds the
  // Chrome-trace and Prometheus writers; both artifacts must parse, cover
  // every pipeline stage, the assembled per-request timelines must attribute
  // >= 90% of the tail cohort's wall time, and the armed watchdog must stay
  // silent on this clean trace.
  benchutil::PrintTitle(
      "Acceptance: flight-recorder observability (tracing + watchdog on vs off)");
  TraceRecorder& recorder = TraceRecorder::Global();
  recorder.set_ring_capacity(8192);  // bounds resident ring memory across the grid
  DriverConfig obs = MakeConfig(/*num_threads=*/8, RetrievalBackendKind::kHnsw,
                                /*stage0=*/true);
  obs.cache.cache.capacity_bytes = options.capacity_kb * 1024;
  obs.manager.decay_interval_s = 60.0;
  obs.replay_min_interval_s = 120.0;
  obs.replay_load_threshold = 1e9;
  obs.tail_sample_every = 97;  // fixed-rate exemplars on top of slowest-2/window
  // The "on" side of every comparison: same run with the watchdog armed.
  DriverConfig obs_on = obs;
  obs_on.watchdog = ArmedWatchdog();
  const std::string obs_snapshot = WriteSeedSnapshot(profile, catalog, obs, "obs");

  bool obs_identical = true;
  bool tails_identical = true;
  bool have_tail_reference = false;
  DriverReport tail_reference;
  for (const size_t threads : {size_t{1}, size_t{8}}) {
    for (const size_t lanes : {size_t{1}, size_t{4}}) {
      for (const size_t chunk : {size_t{1}, size_t{32}}) {
        obs.num_threads = obs_on.num_threads = threads;
        obs.commit_lanes = obs_on.commit_lanes = lanes;
        obs.prepare_chunk = obs_on.prepare_chunk = chunk;
        recorder.set_enabled(false);
        const DriverReport off_run =
            RestoredDriver(catalog, obs, obs_snapshot)->Run(dup_trace);
        recorder.Reset();
        recorder.set_enabled(true);
        DriverReport on_run = RestoredDriver(catalog, obs_on, obs_snapshot)->Run(dup_trace);
        recorder.set_enabled(false);
        obs_identical = obs_identical && SameDecisions(off_run, on_run) &&
                        on_run.anomalies.empty();
        // The tail-exemplar set keys on simulated latency and request ids
        // only, so it must match between on/off and across the whole grid —
        // including the prepare_chunk axis: re-blocking the batched prepare
        // path may never move a decision or a tail exemplar.
        tails_identical = tails_identical && SameTailExemplars(off_run, on_run);
        if (!have_tail_reference) {
          tail_reference = std::move(on_run);
          have_tail_reference = true;
        } else {
          tails_identical = tails_identical && SameTailExemplars(tail_reference, on_run);
        }
      }
    }
  }
  obs.prepare_chunk = obs_on.prepare_chunk = DriverConfig().prepare_chunk;
  std::printf("  decisions identical, obs on vs off ({1,8} threads x {1,4} lanes x "
              "{1,32} prepare_chunk): %s\n",
              obs_identical ? "yes" : "NO (BUG)");
  std::printf("  tail exemplars identical across the grid (%zu exemplars): %s\n",
              tail_reference.tail_exemplars.size(), tails_identical ? "yes" : "NO (BUG)");

  obs.num_threads = obs_on.num_threads = 8;
  obs.commit_lanes = obs_on.commit_lanes = 4;
  // Overhead is estimated per back-to-back (off, on) pair and the gate takes
  // the MINIMUM over pairs: co-tenant noise on a shared CI box can only
  // inflate a measurement (tracing never makes identical work faster), so
  // the smallest pairwise estimate is the tightest available upper bound on
  // the true tracing cost. Pairing keeps both sides in the same machine
  // conditions; a lone quiet window anywhere in the loop is enough to
  // demonstrate the bound.
  double overhead = 1e300;
  double best_off = 0.0;
  double best_on = 0.0;
  for (int rep = 0; rep < 4; ++rep) {
    double pair_cpu[2] = {0.0, 0.0};
    for (int traced = 0; traced < 2; ++traced) {
      recorder.Reset();
      recorder.set_enabled(traced == 1);
      // Construct the driver outside the timed region: restore cost is not
      // observability overhead. The "on" side arms the watchdog too, so the
      // bound covers tracing + watchdog together.
      const auto driver = RestoredDriver(catalog, traced == 1 ? obs_on : obs, obs_snapshot);
      const double cpu_start = ProcessCpuSeconds();
      driver->Run(dup_trace);
      pair_cpu[traced] = ProcessCpuSeconds() - cpu_start;
      recorder.set_enabled(false);
    }
    const double pair_overhead =
        pair_cpu[0] > 0.0 ? std::max(0.0, (pair_cpu[1] - pair_cpu[0]) / pair_cpu[0]) : 0.0;
    if (pair_overhead < overhead) {
      overhead = pair_overhead;
      best_off = pair_cpu[0];
      best_on = pair_cpu[1];
    }
  }
  const bool overhead_ok = overhead <= 0.03;
  std::printf("  tracing+watchdog overhead (8t/4l, best of 4 paired runs, cpu-s): %.3f off vs "
              "%.3f on = %.2f%%  (required <= 3%%): %s\n",
              best_off, best_on, 100.0 * overhead, overhead_ok ? "ok" : "FAIL");
  std::remove(obs_snapshot.c_str());

  // The export run checkpoints into (and restores from) its own private seed
  // file — checkpoint writes overwrite the snapshot they restored, so it
  // cannot share the grid's seed. Its rings get more headroom (the
  // per-request route/generate/merge_step spans roughly double the event
  // volume) so the tail-attribution gate below isn't degraded by drops.
  DriverConfig export_config = obs_on;
  export_config.checkpoint_interval_s = 60.0;  // trace seconds; off-peak gate relaxed above
  const std::string export_snapshot = WriteSeedSnapshot(profile, catalog, obs, "obsexport");
  recorder.Reset();
  recorder.set_ring_capacity(1 << 15);
  recorder.set_enabled(true);
  const auto export_driver = RestoredDriver(catalog, export_config, export_snapshot);
  const DriverReport export_report = export_driver->Run(dup_trace);
  recorder.set_enabled(false);
  std::remove(export_snapshot.c_str());

  // Tail attribution over the recorded spans: stitch every request's
  // prepare/lane/merge spans into a timeline and demand that >= 90% of the
  // tail (p99) cohort's wall time lands in named stages — the "can the trace
  // explain the p99" contract ci.sh re-checks offline via tail_report.
  const TraceRecorder::Snapshot obs_snapshot_events = recorder.TakeSnapshot();
  const std::vector<RequestTimeline> timelines =
      AssembleTimelines(FlattenSnapshot(obs_snapshot_events));
  const TailAttribution attribution = AttributeTails(timelines);
  const bool attribution_ok = attribution.tail_attribution_fraction >= 0.90;
  std::printf("  per-request timelines assembled: %zu  (of %zu requests)\n",
              timelines.size(), dup_trace.size());
  std::printf("  tail attribution (p99 cohort, %zu requests): %.1f%% of wall time in named "
              "stages  (required >= 90%%): %s\n",
              attribution.tail_count, 100.0 * attribution.tail_attribution_fraction,
              attribution_ok ? "ok" : "FAIL");
  const bool silent_ok = export_report.anomalies.empty();
  std::printf("  armed watchdog silent on the clean run: %s  (tail exemplars: %zu)\n",
              silent_ok ? "yes" : "NO (BUG)", export_report.tail_exemplars.size());

  const std::string trace_path =
      options.trace_out.empty()
          ? "/tmp/iccache_trace_" + std::to_string(::getpid()) + ".json"
          : options.trace_out;
  const std::string metrics_path =
      options.metrics_out.empty()
          ? "/tmp/iccache_metrics_" + std::to_string(::getpid()) + ".prom"
          : options.metrics_out;
  const bool export_ok = ExportObservability(*export_driver, trace_path, metrics_path,
                                             /*expect_all_stages=*/true);
  std::printf("  export run checkpoints taken: %zu  (required > 0): %s\n",
              export_report.checkpoints_taken,
              export_report.checkpoints_taken > 0 ? "ok" : "FAIL");

  if (!options.json_out.empty()) {
    const BenchRunRecord record =
        MakeBenchRecord("driver_throughput_acceptance", export_config, export_report,
                        dup_trace.size(), attribution.tail_attribution_fraction);
    const Status written = WriteBenchRun(options.json_out, record);
    std::printf("  bench json: %s  (%zu metrics): %s\n", options.json_out.c_str(),
                record.metrics.size(), written.ok() ? "ok" : written.ToString().c_str());
    if (!written.ok()) {
      return 1;
    }
  }

  const bool obs_ok = obs_identical && tails_identical && overhead_ok && export_ok &&
                      attribution_ok && silent_ok && export_report.checkpoints_taken > 0;

  // --- Watchdog gate: injected stage-0 hit-rate collapse -------------------
  // The same armed rule set that stayed silent above must fire when the
  // trace's tail goes all-unique and the hit rate falls off a cliff.
  benchutil::PrintTitle("Acceptance: SLO watchdog flags an injected stage-0 collapse");
  const std::vector<Request> collapse_trace = MakeCollapseTrace(requests);
  DriverConfig collapse_config = obs_on;
  collapse_config.num_threads = 8;
  collapse_config.commit_lanes = 4;
  const std::string collapse_snapshot =
      WriteSeedSnapshot(profile, catalog, obs, "collapse");
  const DriverReport collapse_report =
      RestoredDriver(catalog, collapse_config, collapse_snapshot)->Run(collapse_trace);
  std::remove(collapse_snapshot.c_str());
  size_t collapse_anomalies = 0;
  for (const WatchdogEvent& event : collapse_report.anomalies) {
    if (event.rule == WatchdogRule::kStage0HitRateDrop) {
      ++collapse_anomalies;
      std::printf("  anomaly @ window %llu: %s\n",
                  static_cast<unsigned long long>(event.window), event.detail.c_str());
    }
  }
  const bool collapse_ok = collapse_anomalies > 0;
  std::printf("  injected collapse (all-unique tail from request %zu): hit-rate-drop "
              "anomalies=%zu  (required > 0): %s\n",
              (collapse_trace.size() * 3) / 5, collapse_anomalies,
              collapse_ok ? "ok" : "FAIL");

  return pipeline_ok && stage0_ok && obs_ok && collapse_ok ? 0 : 1;
}

}  // namespace
}  // namespace iccache

int main(int argc, char** argv) {
  using namespace iccache;
  const Options options = ParseOptions(argc, argv);

  if (options.snapshot_bench > 0) {
    return RunSnapshotBench(options.snapshot_bench);
  }

  const DatasetProfile profile = benchutil::ScaledProfile(DatasetId::kLmsysChat, kSeedPool);
  TraceConfig trace;
  trace.kind = TraceKind::kPoisson;
  trace.mean_rps = 8.0;
  trace.duration_s = static_cast<double>(options.requests) / trace.mean_rps;
  trace.seed = kSeed ^ 0x7ace;
  const std::vector<Request> requests = ServingDriver::MakeWorkload(profile, trace, kSeed ^ 0x9e4);

  ModelCatalog catalog;
  if (options.acceptance) {
    return RunAcceptance(options, profile, catalog, requests);
  }

  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const std::vector<size_t> thread_counts = {1, 2, 4, 8};

  benchutil::PrintTitle("Serving-driver throughput: 1 thread vs N threads (LMSys trace)");
  std::printf("  requests=%zu  seed_pool=%zu  shards=8  batch_window=64  hw_cores=%u  "
              "stage0=%s\n",
              requests.size(), kSeedPool, hw, options.stage0 ? "on" : "off");
  std::printf("  %-7s %-8s %9s %10s %8s %8s %9s %9s %9s %9s %8s %7s %8s\n", "index",
              "threads", "wall (s)", "req/s", "speedup", "maint(s)", "e2e p50", "e2e p99",
              "ttft p50", "ttft p99", "offload%", "s0hit%", "tokSaved");

  bool decisions_match = true;
  for (RetrievalBackendKind backend : options.backends) {
    if (!options.sweep) {
      std::printf("  (sweep disabled)\n");
      break;
    }
    // One seed pool per backend, snapshotted once: every thread-count cell
    // below restores the SAME file, so rows are comparable by construction.
    const std::string seed_snapshot =
        WriteSeedSnapshot(profile, catalog, MakeConfig(1, backend, options.stage0),
                          RetrievalBackendKindName(backend));
    DriverReport baseline;
    for (size_t threads : thread_counts) {
      const auto driver =
          RestoredDriver(catalog, MakeConfig(threads, backend, options.stage0), seed_snapshot);
      const DriverReport report = driver->Run(requests);
      if (threads == thread_counts.front()) {
        baseline = report;
      } else {
        decisions_match = decisions_match && SameDecisions(baseline, report);
      }
      const double speedup =
          baseline.wall_seconds > 0.0 ? baseline.wall_seconds / report.wall_seconds : 0.0;
      std::printf(
          "  %-7s %-8zu %9.3f %10.0f %7.2fx %8.3f %9.4f %9.4f %9.4f %9.4f %7.1f%% "
          "%6.1f%% %8lld\n",
          RetrievalBackendKindName(backend), threads, report.wall_seconds,
          report.requests_per_second, speedup, report.maintenance_seconds,
          report.p50_latency_s, report.p99_latency_s,
          report.p50_ttft_s, report.p99_ttft_s,
          100.0 * static_cast<double>(report.offloaded_requests) /
              static_cast<double>(report.total_requests),
          100.0 * static_cast<double>(report.stage0_hits) /
              static_cast<double>(report.total_requests),
          static_cast<long long>(report.stage0_tokens_saved));
    }
    std::remove(seed_snapshot.c_str());

    // Amdahl check on the measured three-bucket split: the pool-parallel
    // work must dominate for the 8-thread speedup target to be reachable.
    const double parallel_fraction =
        baseline.wall_seconds > 0.0 ? baseline.pool_seconds / baseline.wall_seconds : 0.0;
    const double projected_8t = 1.0 / ((1.0 - parallel_fraction) + parallel_fraction / 8.0);
    std::printf(
        "  [%s] parallel %.1f%% | serial %.1f%% | maintenance %.1f%%  "
        "(Amdahl-projected 8-thread speedup: %.2fx)\n",
        RetrievalBackendKindName(backend), 100.0 * parallel_fraction,
        baseline.wall_seconds > 0.0 ? 100.0 * baseline.serial_seconds / baseline.wall_seconds
                                    : 0.0,
        baseline.wall_seconds > 0.0
            ? 100.0 * baseline.maintenance_seconds / baseline.wall_seconds
            : 0.0,
        projected_8t);
  }
  if (options.sweep) {
    std::printf("  routing decisions identical across thread counts: %s\n",
                decisions_match ? "yes" : "NO (BUG)");
  } else {
    std::printf("  routing-decision determinism check: skipped (sweep disabled)\n");
  }

  // --- Lifecycle maintenance demo: eviction holds the pool at capacity ----
  benchutil::PrintTitle("Example lifecycle under a byte budget (sharded pool)");
  const int64_t capacity = options.capacity_kb * 1024;
  DriverConfig lifecycle_config =
      MakeConfig(/*num_threads=*/8, options.backends.front(), options.stage0);
  bool capacity_held = true;
  if (options.maintenance) {
    lifecycle_config.cache.cache.capacity_bytes = capacity;
    // Tick cadence scaled to the trace so decay/eviction and off-peak replay
    // are visible within the default 500-second run (production default is
    // hourly). The synthetic trace keeps the cluster saturated (load > 1),
    // so the off-peak gate is relaxed here or replay would never fire.
    lifecycle_config.manager.decay_interval_s = 60.0;
    lifecycle_config.replay_min_interval_s = 120.0;
    lifecycle_config.replay_load_threshold = 1e9;
  } else {
    // Footgun baseline: no budget, no decay/eviction ticks — unbounded growth.
    lifecycle_config.lifecycle_maintenance = false;
    lifecycle_config.offpeak_replay = false;
  }
  if (!options.snapshot_path.empty()) {
    // Periodic crash-recovery checkpoints between batch windows; the write
    // cost surfaces in the p50/p99 columns below.
    lifecycle_config.snapshot_path = options.snapshot_path;
    lifecycle_config.checkpoint_interval_s = 60.0;  // trace seconds
  }
  std::unique_ptr<ServingDriver> driver;
  bool persist_ok = true;
  if (!options.restore_path.empty()) {
    // Warm start: restore the learned pool instead of re-seeding it.
    driver = std::make_unique<ServingDriver>(lifecycle_config, &catalog);
    const auto restore_start = std::chrono::steady_clock::now();
    const Status restored = driver->RestoreSnapshot(options.restore_path);
    const auto restore_end = std::chrono::steady_clock::now();
    if (!restored.ok()) {
      std::fprintf(stderr, "restore failed: %s\n", restored.ToString().c_str());
      return 1;
    }
    std::printf("  warm start: restored %zu examples (%.0f KB) in %.0f ms from %s "
                "(native hnsw load: %s)\n",
                driver->cache().size(), static_cast<double>(driver->cache().used_bytes()) / 1024.0,
                1000.0 * std::chrono::duration<double>(restore_end - restore_start).count(),
                options.restore_path.c_str(),
                driver->restore_report().native_index_load ? "yes" : "no (rebuilt)");
  } else {
    driver = MakeDriver(profile, catalog, lifecycle_config);
  }
  // --trace-out / --metrics-out: record the lifecycle demo run and export it.
  const bool export_obs = !options.trace_out.empty() || !options.metrics_out.empty();
  if (export_obs) {
    TraceRecorder::Global().Reset();
    TraceRecorder::Global().set_enabled(true);
  }
  const DriverReport report = driver->Run(requests);
  if (export_obs) {
    TraceRecorder::Global().set_enabled(false);
  }
  const int64_t used = driver->cache().used_bytes();
  const double watermark_bytes = static_cast<double>(capacity) *
                                 lifecycle_config.cache.cache.high_watermark;
  std::printf("  maintenance=%s  capacity=%lld KB  requests=%zu\n",
              options.maintenance ? "on" : "off",
              static_cast<long long>(options.maintenance ? options.capacity_kb : -1),
              requests.size());
  std::printf(
      "  pool: %zu examples, %.0f KB used  admitted=%zu evicted=%zu  "
      "maintenance_runs=%zu replay_passes=%zu (replayed=%zu improved=%zu)\n",
      driver->cache().size(), static_cast<double>(used) / 1024.0, report.admitted_examples,
      report.evicted_examples, report.maintenance_runs, report.replay_passes,
      report.replayed_examples, report.improved_examples);
  std::printf("  maintenance booked off the serial path: %.3f s\n",
              report.maintenance_seconds);
  if (options.maintenance) {
    capacity_held = static_cast<double>(used) <= watermark_bytes;
    std::printf("  pool held at <= capacity * high_watermark (%.0f KB): %s\n",
                watermark_bytes / 1024.0, capacity_held ? "yes" : "NO (BUG)");
  } else {
    benchutil::PrintNote("no budget: pool grows with every admission (the pre-lifecycle footgun)");
  }
  if (!options.snapshot_path.empty()) {
    const Status saved = driver->SaveSnapshot(options.snapshot_path);
    persist_ok = saved.ok();
    std::printf("  checkpoints=%zu  snapshot write p50=%.1f ms p99=%.1f ms  final snapshot: %s\n",
                report.checkpoints_taken, report.checkpoint_p50_ms, report.checkpoint_p99_ms,
                saved.ok() ? options.snapshot_path.c_str() : saved.ToString().c_str());
  }

  bool obs_export_ok = true;
  if (export_obs) {
    // The demo run's stage mix depends on the flags (stage-0, checkpointing
    // may be off), so only the acceptance mode demands every span category.
    obs_export_ok = ExportObservability(*driver, options.trace_out, options.metrics_out,
                                        /*expect_all_stages=*/false);
  }
  if (!options.json_out.empty()) {
    const BenchRunRecord record =
        MakeBenchRecord("driver_throughput_lifecycle", lifecycle_config, report,
                        requests.size(), /*tail_attribution=*/-1.0);
    const Status written = WriteBenchRun(options.json_out, record);
    std::printf("  bench json: %s  (%zu metrics): %s\n", options.json_out.c_str(),
                record.metrics.size(), written.ok() ? "ok" : written.ToString().c_str());
    obs_export_ok = obs_export_ok && written.ok();
  }

  if (hw < 2) {
    benchutil::PrintNote(
        "single hardware core visible: measured speedup is bounded at ~1x here; "
        "the projected column shows the multi-core expectation");
  }
  benchutil::PrintNote("host pipeline throughput only; simulated latency is thread-invariant");
  return decisions_match && capacity_held && persist_ok && obs_export_ok ? 0 : 1;
}
