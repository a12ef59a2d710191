// The repository benchmark: host throughput and simulated serving outcomes of
// the concurrent serving driver on one workload per invocation, plus a
// per-layer cost ledger on request.
//
//   bench_perf --workload=<lmsys|dup50|pool30k|churn256k> [--seed=N]
//              [--seconds=S] [--trace=0|1] [--json-out=F] [--tmp-dir=D]
//   bench_perf --self-test
//
// (`--flag value` works as well as `--flag=value`.)
//
// Each invocation builds the workload's seed pool and snapshots it (the
// set-up, repeated and timed; the median is reported). It then serves the
// workload's trace segments — independent arrival streams drawn from --seed —
// each on a fresh ServingDriver restored from that snapshot, timing Run()
// from outside with tracing off: one untimed warm-up serve of segment 0, then
// every segment once, then further segments round-robin until --seconds have
// passed. The simulated outcomes pool every segment's first serve, so they
// are a pure function of the seed; host throughput is the median over the
// timed serves. --trace=1 adds one serve of segment 0 with the flight
// recorder on and times calls into each layer's public functions, which
// yields the per-layer ledger. Every output check is exit-enforced; the last
// line of standard output is a JSON object with the keys correct, attempted,
// failed and metrics (end-to-end metrics, or per-layer metrics when traced).
// See bench/perf/README.md for the workloads and the meaning of each metric.
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "bench/perf/ledger.h"
#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/obs/bench_json.h"
#include "src/obs/timeline.h"
#include "src/obs/trace.h"
#include "src/serving/driver.h"

namespace iccache {
namespace perf {
namespace {

constexpr uint64_t kDefaultSeed = 860645;
// Pinned, never derived from the machine: results must not depend on where
// the benchmark runs.
constexpr size_t kThreads = 4;
// Below simulated saturation: at 8 req/s the simulated e2e p50 keeps growing
// with trace length.
constexpr double kArrivalRps = 4.0;
// Set-up repeats at least kMinSetups times and until kSetupSeconds have
// passed, so the sub-second set-ups still yield a steady median.
constexpr size_t kMinSetups = 3;
constexpr size_t kMaxSetups = 15;
constexpr double kSetupSeconds = 2.0;
constexpr size_t kMaxServes = 64;
constexpr size_t kRingCapacity = size_t{1} << 18;  // spans per thread; none drop
constexpr size_t kCallRequests = 1024;
constexpr size_t kCallChunk = 16;
constexpr size_t kCallSweeps = 3;
constexpr double kCallSeconds = 0.5;

struct Workload {
  const char* name;
  const char* why;
  size_t pool;               // seed-pool examples
  size_t segments;           // independent trace segments per run
  size_t segment_requests;   // requests per segment
  bool stage0;               // stage-0 response tier on
  double repeat_fraction;    // share of post-warmup requests made verbatim repeats
  int64_t capacity_kb;       // pool byte budget (0: none)
  bool churn;                // fast decay/replay cadence plus periodic checkpoints
};

constexpr Workload kWorkloads[] = {
    {"lmsys", "natural traffic: pool and stage-0 index grow all run, so serial-path work shows",
     2000, 12, 2000, true, 0.0, 0, false},
    {"dup50", "half the requests after the first eighth repeat earlier ones: the stage-0 hit path",
     2000, 20, 2000, true, 0.5, 0, false},
    {"pool30k", "30k-example pool with stage-0 off: index-bound, and bypasses stage-0 entirely",
     30000, 8, 2000, false, 0.0, 0, false},
    {"churn256k", "256 KB budget, 60 s decay, 120 s replay and 60 s checkpoints: writes beside reads",
     2000, 12, 2000, true, 0.0, 256, true},
};

struct Options {
  std::string workload;
  uint64_t seed = kDefaultSeed;
  double seconds = 12.0;
  bool traced = false;
  bool self_test = false;
  std::string json_out;
  std::string tmp_dir;
};

[[noreturn]] void Usage(const std::string& error) {
  std::fprintf(stderr, "bench_perf: %s\n", error.c_str());
  std::fprintf(stderr,
               "usage: bench_perf --workload=<lmsys|dup50|pool30k|churn256k> [--seed=N] "
               "[--seconds=S] [--trace=0|1] [--json-out=F] [--tmp-dir=D]\n"
               "       bench_perf --self-test\n");
  std::exit(2);
}

Options ParseOptions(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    std::string value;
    bool has_value = false;
    const size_t eq = flag.find('=');
    if (eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag = flag.substr(0, eq);
      has_value = true;
    }
    if (flag == "--self-test") {
      if (has_value) {
        Usage(flag + " takes no value");
      }
      options.self_test = true;
      continue;
    }
    if (!has_value) {
      if (i + 1 >= argc) {
        Usage("missing value for " + flag);
      }
      value = argv[++i];
    }
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') {
        Usage("bad --seed: " + value);
      }
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(options.seconds > 0.0 && options.seconds <= 3600.0)) {
        Usage("bad --seconds: " + value);
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        Usage("bad --trace: " + value + " (want 0 or 1)");
      }
      options.traced = value == "1";
    } else if (flag == "--json-out") {
      options.json_out = value;
    } else if (flag == "--tmp-dir") {
      options.tmp_dir = value;
    } else {
      Usage("unknown flag: " + flag);
    }
  }
  return options;
}

double Seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

double CpuSeconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double PeakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

// --- Inputs ------------------------------------------------------------------

// Rewrites a share of the requests after the first eighth into verbatim
// repeats of earlier ones (fresh ids, own arrival times).
void MakeDuplicateHeavy(std::vector<Request>* requests, double repeat_fraction, uint64_t seed) {
  Rng rng(Mix64(seed ^ 0xd0b1eull));
  for (size_t i = requests->size() / 8; i < requests->size(); ++i) {
    if (!rng.Bernoulli(repeat_fraction)) {
      continue;
    }
    const Request source = (*requests)[rng.UniformInt(static_cast<uint64_t>(i))];
    Request& repeat = (*requests)[i];
    const uint64_t id = repeat.id;
    const double arrival = repeat.arrival_time;
    repeat = source;
    repeat.id = id;
    repeat.arrival_time = arrival;
  }
}

// Segment `segment` of the run seeded `seed`: Poisson arrivals at
// kArrivalRps carrying LMSys-profile queries.
std::vector<Request> MakeSegment(const Workload& workload, const DatasetProfile& profile,
                                 uint64_t seed, size_t segment) {
  const uint64_t segment_seed = Mix64(seed ^ Mix64(0x5e6ull + segment));
  TraceConfig trace;
  trace.kind = TraceKind::kPoisson;
  trace.mean_rps = kArrivalRps;
  // Long enough that a Poisson stream always yields segment_requests arrivals.
  trace.duration_s = 1.25 * static_cast<double>(workload.segment_requests) / kArrivalRps + 60.0;
  trace.seed = Mix64(segment_seed ^ 0x7aceull);
  std::vector<Request> requests =
      ServingDriver::MakeWorkload(profile, trace, Mix64(segment_seed ^ 0x9e4ull));
  if (requests.size() < workload.segment_requests) {
    std::fprintf(stderr, "trace too short: %zu arrivals\n", requests.size());
    std::exit(1);
  }
  requests.resize(workload.segment_requests);
  if (workload.repeat_fraction > 0.0) {
    MakeDuplicateHeavy(&requests, workload.repeat_fraction, segment_seed);
  }
  return requests;
}

DriverConfig MakeConfig(const Workload& workload, const std::string& checkpoint_path) {
  DriverConfig config;
  config.num_threads = kThreads;
  config.batch_window = 64;
  config.commit_lanes = 4;
  config.prepare_chunk = 16;
  config.cache.num_shards = 8;
  config.cache.cache.retrieval.kind = RetrievalBackendKind::kHnsw;
  config.stage0.enabled = workload.stage0;
  if (workload.capacity_kb > 0) {
    config.cache.cache.capacity_bytes = workload.capacity_kb * 1024;
  }
  if (workload.churn) {
    config.manager.decay_interval_s = 60.0;
    config.replay_min_interval_s = 120.0;
    config.replay_load_threshold = 1e9;  // the off-peak gate would never open
    config.checkpoint_interval_s = 60.0;
    config.snapshot_path = checkpoint_path;
  }
  return config;
}

// Files the benchmark writes, removed when the run returns.
struct TempFiles {
  std::vector<std::string> paths;
  std::string Add(const std::string& dir, const std::string& name) {
    paths.push_back((std::filesystem::path(dir) /
                     ("bench_perf_" + std::to_string(::getpid()) + "_" + name))
                        .string());
    return paths.back();
  }
  ~TempFiles() {
    for (const std::string& path : paths) {
      std::remove(path.c_str());
      std::remove((path + ".tmp").c_str());
    }
  }
};

// Seed-pool build plus snapshot write.
double BuildSeedSnapshot(const DriverConfig& config, const ModelCatalog& catalog,
                         const DatasetProfile& profile, size_t pool, uint64_t seed,
                         const std::string& path) {
  const auto start = std::chrono::steady_clock::now();
  ServingDriver driver(config, &catalog);
  QueryGenerator seeder(profile, Mix64(seed ^ 0x5eedbull));
  for (size_t i = 0; i < pool; ++i) {
    driver.SeedExample(seeder.Next(), 0.0);
  }
  const Status saved = driver.SaveSnapshot(path);
  const double seconds = Seconds(start);
  if (!saved.ok()) {
    std::fprintf(stderr, "seed snapshot failed: %s\n", saved.ToString().c_str());
    std::exit(1);
  }
  return seconds;
}

// --- One serve -----------------------------------------------------------------

struct Serve {
  std::unique_ptr<ServingDriver> driver;
  DriverReport report;
  double restore_s = 0.0;
  double wall_s = 0.0;
  double cpu_s = 0.0;         // whole process during Run()
  double driver_cpu_s = 0.0;  // the calling (driver) thread during Run()
  uint64_t run_begin_ns = 0;  // recorder clock, traced serve only
  uint64_t run_end_ns = 0;
};

Serve ServeSegment(const DriverConfig& config, const ModelCatalog& catalog,
                   const std::string& seed_snapshot, const std::vector<Request>& trace,
                   bool traced) {
  Serve serve;
  serve.driver = std::make_unique<ServingDriver>(config, &catalog);
  const auto restore_start = std::chrono::steady_clock::now();
  const Status restored = serve.driver->RestoreSnapshot(seed_snapshot);
  serve.restore_s = Seconds(restore_start);
  if (!restored.ok()) {
    std::fprintf(stderr, "restore failed: %s\n", restored.ToString().c_str());
    std::exit(1);
  }
  TraceRecorder& recorder = TraceRecorder::Global();
  if (traced) {
    recorder.Reset();
    recorder.set_enabled(true);
    serve.run_begin_ns = recorder.NowNs();
  }
  const double cpu_start = CpuSeconds(CLOCK_PROCESS_CPUTIME_ID);
  const double driver_cpu_start = CpuSeconds(CLOCK_THREAD_CPUTIME_ID);
  const auto start = std::chrono::steady_clock::now();
  serve.report = serve.driver->Run(trace);
  serve.wall_s = Seconds(start);
  serve.driver_cpu_s = CpuSeconds(CLOCK_THREAD_CPUTIME_ID) - driver_cpu_start;
  serve.cpu_s = CpuSeconds(CLOCK_PROCESS_CPUTIME_ID) - cpu_start;
  if (traced) {
    serve.run_end_ns = recorder.NowNs();
    recorder.set_enabled(false);
  }
  return serve;
}

// FNV-1a over every decision's id, model, offload flag, example count and
// latent-quality bits.
uint64_t DecisionDigest(const DriverReport& report) {
  uint64_t hash = 0xcbf29ce484222325ull;
  const auto mix = [&hash](const void* data, size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) {
      hash = (hash ^ bytes[i]) * 0x100000001b3ull;
    }
  };
  for (const DriverDecision& decision : report.decisions) {
    const uint64_t examples = decision.num_examples;
    const unsigned char offloaded = decision.offloaded ? 1 : 0;
    uint64_t quality_bits = 0;
    std::memcpy(&quality_bits, &decision.latent_quality, sizeof(quality_bits));
    mix(&decision.request_id, sizeof(decision.request_id));
    mix(decision.model_name.data(), decision.model_name.size() + 1);  // with the NUL
    mix(&offloaded, 1);
    mix(&examples, sizeof(examples));
    mix(&quality_bits, sizeof(quality_bits));
  }
  return hash;
}

// Output checks of one serve. A request fails when it has no decision, or
// has neither a completion nor a stage-0 hit. Returns the failed count and
// appends a message per broken invariant.
size_t CheckServe(const Serve& serve, const std::vector<Request>& trace,
                  const DriverConfig& config, std::vector<std::string>* errors) {
  const DriverReport& report = serve.report;
  size_t in_order = 0;
  while (in_order < std::min(trace.size(), report.decisions.size()) &&
         report.decisions[in_order].request_id == trace[in_order].id) {
    ++in_order;
  }
  if (report.decisions.size() != trace.size() || in_order != trace.size()) {
    errors->push_back("decisions: " + std::to_string(report.decisions.size()) + " for " +
                      std::to_string(trace.size()) + " requests, first " +
                      std::to_string(in_order) + " in arrival order");
  }
  size_t failed = trace.size() - in_order;

  std::unordered_set<uint64_t> completed;
  for (const CompletionRecord& record : report.completions) {
    if (!completed.insert(record.id).second) {
      errors->push_back("request " + std::to_string(record.id) + " completed twice");
    }
  }
  size_t hits = 0;
  size_t served = 0;
  for (size_t i = 0; i < in_order; ++i) {
    const DriverDecision& decision = report.decisions[i];
    if (decision.model_name == "stage0-cache") {
      ++hits;
    } else if (completed.count(decision.request_id) != 0) {
      ++served;
    } else {
      ++failed;
    }
  }
  if (hits != report.stage0_hits || served != report.completions.size()) {
    errors->push_back("completions: " + std::to_string(report.completions.size()) +
                      ", expected " + std::to_string(served) +
                      " (decisions that were not among the " + std::to_string(hits) +
                      " stage-0 hits)");
  }
  if (report.maintenance_stalled_windows != 0) {
    errors->push_back(std::to_string(report.maintenance_stalled_windows) +
                      " maintenance-stalled windows");
  }
  if (config.cache.cache.capacity_bytes > 0) {
    const double limit = static_cast<double>(config.cache.cache.capacity_bytes) *
                         config.cache.cache.high_watermark;
    if (static_cast<double>(serve.driver->cache().used_bytes()) > limit) {
      errors->push_back("pool " + std::to_string(serve.driver->cache().used_bytes()) +
                        " bytes exceeds capacity x high_watermark");
    }
  }
  return failed;
}

// Simulated serving outcomes pooled over the first serve of every segment.
struct Outcomes {
  std::vector<double> ttft;
  std::vector<double> e2e;
  double quality_sum = 0.0;
  size_t requests = 0;
  size_t not_large = 0;  // offloaded to the small model or served by stage-0
  int64_t generated_tokens = 0;

  void Add(const DriverReport& report) {
    for (const CompletionRecord& record : report.completions) {
      ttft.push_back(record.Ttft());
      e2e.push_back(record.E2eLatency());
    }
    for (const DriverDecision& decision : report.decisions) {
      quality_sum += decision.latent_quality;
    }
    requests += report.decisions.size();
    not_large += report.offloaded_requests + report.stage0_hits;
    generated_tokens += report.generated_tokens;
  }
};

// --- Metrics -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  int direction = 0;       // +1 higher is better, -1 lower, 0 informational
  double tolerance = 0.0;  // --json-out band against a same-seed baseline
  bool machine_dependent = false;
};

// End-to-end metrics, each with the tolerance --json-out writes for it: the
// share by which a run may be worse than a baseline record made at the same
// seed (run.sh compares such pairs with bench_compare). The simulated
// metrics are exact for a seed, so their tolerances are tight. BENCHMARK.json
// bounds them more loosely: the medians it compares are taken over runs at
// different seeds, so its bounds must exceed the seed-to-seed spread. The
// host metrics carry the same bound in both places.
struct EndToEndSpec {
  const char* name;
  const char* unit;
  int direction;
  double tolerance;
  bool machine_dependent;
};

constexpr EndToEndSpec kEndToEnd[] = {
    {"host_rps", "req/s", +1, 0.25, true},
    {"setup_s", "s", -1, 0.25, true},
    {"peak_rss_mb", "MiB", -1, 0.12, true},
    {"sim_ttft_p50_s", "s", -1, 0.01, false},
    {"sim_ttft_p99_s", "s", -1, 0.01, false},
    {"sim_e2e_p50_s", "s", -1, 0.01, false},
    {"sim_e2e_p99_s", "s", -1, 0.01, false},
    {"mean_quality", "score", +1, 0.005, false},
    {"offload_rate", "ratio", +1, 0.01, false},
    {"generated_tokens", "tokens", -1, 0.01, false},
};

Metric EndToEnd(const char* name, double value) {
  for (const EndToEndSpec& spec : kEndToEnd) {
    if (std::strcmp(spec.name, name) == 0) {
      return {spec.name, value, spec.unit, spec.direction, spec.tolerance,
              spec.machine_dependent};
    }
  }
  std::fprintf(stderr, "no end-to-end metric named %s\n", name);
  std::exit(1);
}

Metric Layer(std::string name, double value, std::string unit) {
  return {std::move(name), value, std::move(unit), 0, 0.0, true};
}

// Median wall time per call over up to kCallSweeps sweeps of `sweep`, which
// makes `calls` calls; sweeps stop early once kCallSeconds have passed, so
// the slow calls on the large pool do not dominate the traced run.
template <typename Fn>
double TimePerCallNs(size_t calls, Fn&& sweep) {
  std::vector<double> per_call;
  const auto begin = std::chrono::steady_clock::now();
  while (per_call.size() < kCallSweeps && (per_call.empty() || Seconds(begin) < kCallSeconds)) {
    const auto start = std::chrono::steady_clock::now();
    sweep();
    per_call.push_back(1e9 * Seconds(start) / static_cast<double>(std::max<size_t>(1, calls)));
  }
  return EmpiricalCdf(std::move(per_call)).Quantile(0.5);
}

// Calls into each layer's public functions, timed from outside on one
// thread against the traced serve's final state, over the segment's first
// kCallRequests requests in kCallChunk-request batches.
std::vector<Metric> TimeLayerCalls(ServingDriver& driver, const DriverConfig& config,
                                   const ModelCatalog& catalog, const std::vector<Request>& trace,
                                   const std::string& snapshot_path) {
  const size_t n = std::min(kCallRequests, trace.size());
  const size_t chunks = (n + kCallChunk - 1) / kCallChunk;
  const auto chunk_size = [n](size_t c) { return std::min(kCallChunk, n - c * kCallChunk); };
  const auto embedder = driver.cache().embedder();
  const size_t dim = embedder->dim();
  const ModelProfile& small = catalog.Get(config.small_model);
  std::vector<float> arena(n * dim);
  std::vector<std::vector<float>> embeddings(n);
  std::vector<double> arrivals(n);
  std::vector<std::vector<std::vector<SearchResult>>> stage1(chunks);
  SearchScratch scratch;
  std::vector<std::optional<Stage0Probe>> probes;

  std::vector<Metric> metrics;
  metrics.push_back(Layer("embedding.embed_into.call_ns", TimePerCallNs(n, [&] {
                            for (size_t i = 0; i < n; ++i) {
                              embedder->EmbedInto(trace[i].text, arena.data() + i * dim);
                            }
                          }),
                          "ns"));
  for (size_t i = 0; i < n; ++i) {
    embeddings[i].assign(arena.data() + i * dim, arena.data() + (i + 1) * dim);
    arrivals[i] = trace[i].arrival_time;
  }
  metrics.push_back(Layer("core.stage0.probe_batch.call_ns", TimePerCallNs(chunks, [&] {
                            for (size_t c = 0; c < chunks; ++c) {
                              driver.stage0().ProbeBatch(
                                  arena.data() + c * kCallChunk * dim, chunk_size(c), dim,
                                  arrivals.data() + c * kCallChunk, &scratch, &probes);
                            }
                          }),
                          "ns"));
  metrics.push_back(Layer("core.cache.find_similar_batch.call_ns", TimePerCallNs(chunks, [&] {
                            for (size_t c = 0; c < chunks; ++c) {
                              driver.cache().FindSimilarBatch(
                                  arena.data() + c * kCallChunk * dim, chunk_size(c), dim,
                                  config.selector.stage1_candidates, &scratch, &stage1[c]);
                            }
                          }),
                          "ns"));
  metrics.push_back(Layer("core.cache.find_similar_k1.call_ns", TimePerCallNs(n, [&] {
                            for (size_t i = 0; i < n; ++i) {
                              driver.cache().FindSimilar(embeddings[i], 1);
                            }
                          }),
                          "ns"));
  metrics.push_back(Layer("core.manager.prepare_admission.call_ns", TimePerCallNs(n, [&] {
                            for (size_t i = 0; i < n; ++i) {
                              driver.manager().PrepareAdmission(trace[i], &embeddings[i]);
                            }
                          }),
                          "ns"));
  metrics.push_back(Layer("core.selector.prepare_candidates.call_ns", TimePerCallNs(n, [&] {
                            for (size_t i = 0; i < n; ++i) {
                              driver.selector().PrepareCandidatesFrom(
                                  trace[i], small, stage1[i / kCallChunk][i % kCallChunk],
                                  /*embed_candidates=*/true);
                            }
                          }),
                          "ns"));

  const auto start = std::chrono::steady_clock::now();
  const Status saved = driver.SaveSnapshot(snapshot_path);
  const double write_s = Seconds(start);
  if (!saved.ok()) {
    std::fprintf(stderr, "snapshot write failed: %s\n", saved.ToString().c_str());
    std::exit(1);
  }
  metrics.push_back(Layer("persist.snapshot_write.call_s", write_s, "s"));
  metrics.push_back(Layer(
      "persist.snapshot_mb",
      static_cast<double>(std::filesystem::file_size(snapshot_path)) / (1024.0 * 1024.0), "MiB"));
  return metrics;
}

// Ledger entries that are zero on some workloads by construction (no stage-0
// tier, no maintenance tick, no checkpoint): printed, but not reported as
// metrics, which must be measurable on every workload.
bool ReportedOnEveryWorkload(const std::string& name) {
  return name != "core.stage0.probe.ns_per_req" &&
         name != "serving.maintenance.apply.ns_per_req" &&
         name != "persist.checkpoint.ns_per_req";
}

// Per-layer metrics of the traced serve (spans, timelines, report) and of
// the timed untraced serves (CPU accounting), which served the workload's
// `segments` round-robin starting with the traced one.
std::vector<Metric> LayerMetrics(const Serve& traced, const std::vector<Serve>& timed,
                                 size_t segments, const std::vector<TimelineSpan>& spans,
                                 uint64_t dropped) {
  const DriverReport& report = traced.report;
  const double requests = static_cast<double>(report.total_requests);
  std::vector<Metric> metrics;

  const std::string search_name = TraceCategoryName(TraceCategory::kHnswSearch);
  const std::string batch_name = TraceCategoryName(TraceCategory::kStage1Batch);
  const std::string window_name = TraceCategoryName(TraceCategory::kWindow);
  const std::string plan_name = TraceCategoryName(TraceCategory::kMaintenancePlan);
  double visited = 0.0;
  double hops = 0.0;
  double batch_queries = 0.0;
  double batches = 0.0;
  double plan_ns = 0.0;
  uint32_t driver_tid = 0;
  for (const TimelineSpan& span : spans) {
    if (span.name == search_name) {
      visited += static_cast<double>(span.arg0);
      hops += static_cast<double>(span.arg1);
    } else if (span.name == batch_name) {
      batch_queries += static_cast<double>(span.arg0);
      batches += 1.0;
    } else if (span.name == window_name) {
      driver_tid = span.tid;
    } else if (span.name == plan_name) {
      plan_ns += static_cast<double>(span.duration_ns());
    }
  }
  const double run_ns = static_cast<double>(traced.run_end_ns - traced.run_begin_ns);
  const double unattributed =
      1.0 - static_cast<double>(ThreadCoverageNs(spans, driver_tid, traced.run_begin_ns,
                                                 traced.run_end_ns)) /
                run_ns;

  std::printf("\n  ledger, driver thread (wall ns per request)\n");
  double driver_sum = 0.0;
  const std::vector<LedgerEntry> ledger = ComputeLedger(spans, report.total_requests);
  for (const LedgerEntry& entry : ledger) {
    if (entry.driver_thread) {
      std::printf("    %-44s %12.0f\n", entry.name.c_str(), entry.ns_per_req);
      driver_sum += entry.ns_per_req;
    }
  }
  std::printf("    %-44s %12.0f\n", "unattributed", unattributed * run_ns / requests);
  std::printf("    %-44s %12.0f  (Run wall %.0f ns per request)\n", "sum",
              driver_sum + unattributed * run_ns / requests, run_ns / requests);
  std::printf("  ledger, pool threads (busy ns per request, summed over threads)\n");
  for (const LedgerEntry& entry : ledger) {
    if (!entry.driver_thread) {
      std::printf("    %-44s %12.0f\n", entry.name.c_str(), entry.ns_per_req);
    }
  }
  std::printf("  maintenance planning %.1f ms in total, checkpoint write p99 %.2f ms\n",
              1e-6 * plan_ns, report.checkpoint_p99_ms);
  for (const LedgerEntry& entry : ledger) {
    if (ReportedOnEveryWorkload(entry.name)) {
      metrics.push_back(Layer(entry.name, entry.ns_per_req, "ns"));
    }
  }

  std::vector<double> busy;
  std::vector<double> cpu_us;
  std::vector<double> untraced_wall;  // serves of the traced segment only
  std::vector<double> restore_s;
  for (size_t i = 0; i < timed.size(); ++i) {
    const Serve& serve = timed[i];
    const double n = static_cast<double>(serve.report.total_requests);
    busy.push_back((serve.cpu_s - serve.driver_cpu_s) /
                   (static_cast<double>(kThreads) * serve.wall_s));
    cpu_us.push_back(1e6 * serve.cpu_s / n);
    if (i % segments == 0) {
      untraced_wall.push_back(1e9 * serve.wall_s / n);
    }
    restore_s.push_back(serve.restore_s);
  }
  metrics.push_back(
      Layer("serving.pool_busy_frac", EmpiricalCdf(std::move(busy)).Quantile(0.5), "ratio"));
  metrics.push_back(
      Layer("serving.cpu_us_per_req", EmpiricalCdf(std::move(cpu_us)).Quantile(0.5), "us"));

  const std::vector<RequestTimeline> timelines = AssembleTimelines(spans);
  std::vector<double> total_us;
  std::vector<double> lane_wait_us;
  std::vector<double> merge_wait_us;
  for (const RequestTimeline& timeline : timelines) {
    const auto stage_us = [&timeline](TimelineStage stage) {
      return 1e-3 * static_cast<double>(timeline.stage_ns[static_cast<size_t>(stage)]);
    };
    total_us.push_back(1e-3 * static_cast<double>(timeline.total_ns()));
    lane_wait_us.push_back(stage_us(TimelineStage::kLaneWait));
    merge_wait_us.push_back(stage_us(TimelineStage::kMergeWait));
  }
  const EmpiricalCdf total_cdf(std::move(total_us));
  metrics.push_back(Layer("serving.request_host_p50_us", total_cdf.Quantile(0.50), "us"));
  metrics.push_back(Layer("serving.request_host_p99_us", total_cdf.Quantile(0.99), "us"));
  metrics.push_back(Layer("serving.lane_wait_p99_us",
                          EmpiricalCdf(std::move(lane_wait_us)).Quantile(0.99), "us"));
  metrics.push_back(Layer("serving.merge_wait_p99_us",
                          EmpiricalCdf(std::move(merge_wait_us)).Quantile(0.99), "us"));

  metrics.push_back(Layer("index.visited_per_req", visited / requests, "count"));
  metrics.push_back(Layer("index.hops_per_req", hops / requests, "count"));
  metrics.push_back(
      Layer("index.stage1_batch_fill", batches > 0.0 ? batch_queries / batches : 0.0, "count"));

  const double memo_lookups =
      static_cast<double>(report.embed_memo_hits + report.embed_memo_misses);
  metrics.push_back(Layer("embedding.memo_hit_ratio",
                          memo_lookups > 0.0
                              ? static_cast<double>(report.embed_memo_hits) / memo_lookups
                              : 0.0,
                          "ratio"));
  metrics.push_back(Layer("core.stage0.hit_ratio",
                          static_cast<double>(report.stage0_hits) / requests, "ratio"));
  metrics.push_back(Layer("core.stage0.entries_end",
                          static_cast<double>(traced.driver->stage0().size()), "count"));
  size_t examples = 0;
  for (const DriverDecision& decision : report.decisions) {
    examples += decision.offloaded ? decision.num_examples : 0;
  }
  metrics.push_back(Layer("core.selector.examples_per_offload",
                          report.offloaded_requests > 0
                              ? static_cast<double>(examples) /
                                    static_cast<double>(report.offloaded_requests)
                              : 0.0,
                          "count"));
  metrics.push_back(
      Layer("core.manager.evicted", static_cast<double>(report.evicted_examples), "count"));
  metrics.push_back(
      Layer("core.manager.replayed", static_cast<double>(report.replayed_examples), "count"));
  metrics.push_back(
      Layer("serving.maintenance.ticks", static_cast<double>(report.maintenance_runs), "count"));
  metrics.push_back(Layer("serving.maintenance.stalled_windows",
                          static_cast<double>(report.maintenance_stalled_windows), "count"));
  metrics.push_back(
      Layer("persist.checkpoint.count", static_cast<double>(report.checkpoints_taken), "count"));
  metrics.push_back(
      Layer("persist.restore_s", EmpiricalCdf(std::move(restore_s)).Quantile(0.5), "s"));

  metrics.push_back(Layer(
      "obs.trace_overhead_frac",
      run_ns / requests / EmpiricalCdf(std::move(untraced_wall)).Quantile(0.5) - 1.0, "ratio"));
  metrics.push_back(Layer("obs.spans_dropped", static_cast<double>(dropped), "count"));
  metrics.push_back(Layer("obs.unattributed_frac", unattributed, "ratio"));
  return metrics;
}

void PrintMetrics(const char* title, const std::vector<Metric>& metrics) {
  std::printf("\n  %s\n", title);
  for (const Metric& metric : metrics) {
    std::printf("    %-44s %16.6g %s\n", metric.name.c_str(), metric.value, metric.unit.c_str());
  }
}

std::string ResultLine(bool correct, size_t attempted, size_t failed,
                       const std::vector<Metric>& metrics) {
  std::string line = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  char value[64];
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    line += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return line + "}}";
}

int Run(const Options& options) {
  const Workload* workload = nullptr;
  for (const Workload& candidate : kWorkloads) {
    if (options.workload == candidate.name) {
      workload = &candidate;
    }
  }
  if (workload == nullptr) {
    Usage("unknown --workload: '" + options.workload + "'");
  }
  const std::string tmp_dir = options.tmp_dir.empty()
                                  ? std::filesystem::temp_directory_path().string()
                                  : options.tmp_dir;
  std::error_code mkdir_error;
  std::filesystem::create_directories(tmp_dir, mkdir_error);
  TempFiles files;
  const std::string seed_path = files.Add(tmp_dir, "seed.snap");
  const std::string checkpoint_path = files.Add(tmp_dir, "checkpoint.snap");
  const std::string final_path = files.Add(tmp_dir, "final.snap");

  const DatasetProfile profile = benchutil::ScaledProfile(DatasetId::kLmsysChat, workload->pool);
  std::vector<std::vector<Request>> segments;
  for (size_t s = 0; s < workload->segments; ++s) {
    segments.push_back(MakeSegment(*workload, profile, options.seed, s));
  }
  const DriverConfig config = MakeConfig(*workload, checkpoint_path);
  ModelCatalog catalog;
  std::printf("bench_perf  workload=%s  seed=%llu  pool=%zu  segments=%zu x %zu requests  "
              "stage0=%s  budget_kb=%lld  threads=%zu  seconds=%g%s\n",
              workload->name, static_cast<unsigned long long>(options.seed), workload->pool,
              workload->segments, workload->segment_requests, workload->stage0 ? "on" : "off",
              static_cast<long long>(workload->capacity_kb), kThreads, options.seconds,
              options.traced ? "  traced" : "");
  std::printf("  why: %s\n", workload->why);

  std::vector<double> setups;
  const auto setup_start = std::chrono::steady_clock::now();
  while (setups.size() < kMinSetups ||
         (setups.size() < kMaxSetups && Seconds(setup_start) < kSetupSeconds)) {
    setups.push_back(
        BuildSeedSnapshot(config, catalog, profile, workload->pool, options.seed, seed_path));
  }

  bool correct = true;
  size_t attempted = 0;
  size_t failed = 0;
  Outcomes outcomes;
  std::vector<std::optional<uint64_t>> digests(segments.size());
  // Serves segment `s` and checks it; its first serve feeds the pooled
  // outcomes, later serves must reproduce that serve's decisions exactly.
  const auto serve_checked = [&](size_t s, bool traced, const char* label) {
    Serve serve = ServeSegment(config, catalog, seed_path, segments[s], traced);
    attempted += segments[s].size();
    std::vector<std::string> errors;
    failed += CheckServe(serve, segments[s], config, &errors);
    const uint64_t digest = DecisionDigest(serve.report);
    if (!digests[s].has_value()) {
      digests[s] = digest;
      outcomes.Add(serve.report);
    } else if (*digests[s] != digest) {
      errors.push_back("decisions differ from the first serve of this segment");
    }
    for (const std::string& error : errors) {
      std::printf("  CHECK FAILED (%s, segment %zu): %s\n", label, s, error.c_str());
      correct = false;
    }
    return serve;
  };

  // The warm-up serve fills the allocator and caches; it is checked and
  // pooled, but left out of every timing.
  serve_checked(0, /*traced=*/false, "warm-up");
  std::vector<Serve> timed;
  const auto measure_start = std::chrono::steady_clock::now();
  while (timed.size() < segments.size() ||
         (timed.size() < kMaxServes && Seconds(measure_start) < options.seconds)) {
    timed.push_back(serve_checked(timed.size() % segments.size(), /*traced=*/false, "serve"));
    timed.back().driver.reset();  // joins the maintenance thread; keeps memory flat
  }
  const double peak_rss_mb = PeakRssMib();

  std::vector<double> rps;
  for (const Serve& serve : timed) {
    rps.push_back(static_cast<double>(serve.report.total_requests) / serve.wall_s);
  }
  const EmpiricalCdf rps_cdf(std::move(rps));
  const EmpiricalCdf ttft_cdf(std::move(outcomes.ttft));
  const EmpiricalCdf e2e_cdf(std::move(outcomes.e2e));
  const double requests = static_cast<double>(outcomes.requests);
  std::vector<Metric> end_to_end = {
      EndToEnd("host_rps", rps_cdf.Quantile(0.5)),
      EndToEnd("setup_s", EmpiricalCdf(setups).Quantile(0.5)),
      EndToEnd("peak_rss_mb", peak_rss_mb),
      EndToEnd("sim_ttft_p50_s", ttft_cdf.Quantile(0.50)),
      EndToEnd("sim_ttft_p99_s", ttft_cdf.Quantile(0.99)),
      EndToEnd("sim_e2e_p50_s", e2e_cdf.Quantile(0.50)),
      EndToEnd("sim_e2e_p99_s", e2e_cdf.Quantile(0.99)),
      EndToEnd("mean_quality", outcomes.quality_sum / requests),
      EndToEnd("offload_rate", static_cast<double>(outcomes.not_large) / requests),
      EndToEnd("generated_tokens", static_cast<double>(outcomes.generated_tokens)),
  };
  // One digest over every segment's decisions: equal on two commits at one
  // seed exactly when the simulated outcomes are bit-identical.
  uint64_t decisions_digest = 0xcbf29ce484222325ull;
  for (const std::optional<uint64_t>& digest : digests) {
    decisions_digest = (decisions_digest ^ digest.value_or(0)) * 0x100000001b3ull;
  }
  char decisions_hex[17];
  std::snprintf(decisions_hex, sizeof(decisions_hex), "%016llx",
                static_cast<unsigned long long>(decisions_digest));
  std::printf("  set-ups: %zu  timed serves: %zu  host req/s median %.1f (min %.1f, max %.1f)\n",
              setups.size(), timed.size(), rps_cdf.Quantile(0.5), rps_cdf.Quantile(0.0),
              rps_cdf.Quantile(1.0));
  std::printf("  simulated outcomes over %zu requests, %zu completions, decisions digest %s\n",
              outcomes.requests, ttft_cdf.count(), decisions_hex);
  PrintMetrics("end-to-end", end_to_end);

  std::vector<Metric> per_layer;
  if (options.traced) {
    TraceRecorder::Global().set_ring_capacity(kRingCapacity);
    Serve traced = serve_checked(0, /*traced=*/true, "traced serve");
    const TraceRecorder::Snapshot snapshot = TraceRecorder::Global().TakeSnapshot();
    TraceRecorder::Global().Reset();
    if (snapshot.dropped != 0) {
      std::printf("  CHECK FAILED (traced serve): %llu spans dropped\n",
                  static_cast<unsigned long long>(snapshot.dropped));
      correct = false;
    }
    const std::vector<TimelineSpan> spans = FlattenSnapshot(snapshot);
    per_layer = LayerMetrics(traced, timed, segments.size(), spans, snapshot.dropped);
    for (Metric& metric :
         TimeLayerCalls(*traced.driver, config, catalog, segments[0], final_path)) {
      per_layer.push_back(std::move(metric));
    }
    PrintMetrics("per-layer", per_layer);
  }

  if (!options.json_out.empty()) {
    BenchRunRecord record;
    record.bench = std::string("bench_perf.") + workload->name;
    record.AddConfig("workload", workload->name);
    record.AddConfig("seed", std::to_string(options.seed));
    record.AddConfig("segments", std::to_string(workload->segments));
    record.AddConfig("segment_requests", std::to_string(workload->segment_requests));
    record.AddConfig("threads", std::to_string(kThreads));
    record.AddConfig("timed_serves", std::to_string(timed.size()));
    record.AddConfig("decisions_digest", decisions_hex);
    for (const Metric& metric : end_to_end) {
      record.AddMetric(metric.name, metric.value, metric.tolerance, metric.direction,
                       metric.machine_dependent);
    }
    for (const Metric& metric : per_layer) {
      record.AddMetric(metric.name, metric.value, 0.0, 0, true);
    }
    const Status written = WriteBenchRun(options.json_out, record);
    if (!written.ok()) {
      std::fprintf(stderr, "bench json: %s\n", written.ToString().c_str());
      correct = false;
    }
  }

  std::printf("%s\n",
              ResultLine(correct, attempted, failed, options.traced ? per_layer : end_to_end)
                  .c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perf
}  // namespace iccache

int main(int argc, char** argv) {
  const iccache::perf::Options options = iccache::perf::ParseOptions(argc, argv);
  if (options.self_test) {
    std::printf("bench_perf self-test\n");
    const bool ok = iccache::perf::RunSelfTest();
    std::printf("self-test: %s\n", ok ? "PASS" : "FAIL");
    return ok ? 0 : 1;
  }
  return iccache::perf::Run(options);
}
