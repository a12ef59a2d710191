#include "src/serving/driver.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/workload/dataset.h"

namespace iccache {
namespace {

constexpr uint64_t kSeed = 0x5e55ed;

DatasetProfile SmallProfile() {
  DatasetProfile profile = GetDatasetProfile(DatasetId::kLmsysChat);
  profile.example_pool_size = 300;
  profile.num_topics = 60;
  return profile;
}

std::vector<Request> SmallWorkload(size_t approx_requests = 400) {
  TraceConfig trace;
  trace.kind = TraceKind::kPoisson;
  trace.mean_rps = 4.0;
  trace.duration_s = static_cast<double>(approx_requests) / trace.mean_rps;
  trace.seed = kSeed ^ 0x7ace;
  return ServingDriver::MakeWorkload(SmallProfile(), trace, kSeed ^ 0x9e4);
}

std::unique_ptr<ServingDriver> MakeDriverWithConfig(const ModelCatalog& catalog,
                                                    DriverConfig config,
                                                    size_t seed_pool = 300) {
  config.seed = kSeed;
  auto driver = std::make_unique<ServingDriver>(config, &catalog);
  QueryGenerator seeder(SmallProfile(), kSeed ^ 0x5eedb);
  for (size_t i = 0; i < seed_pool; ++i) {
    driver->SeedExample(seeder.Next(), 0.0);
  }
  return driver;
}

std::unique_ptr<ServingDriver> MakeDriver(const ModelCatalog& catalog, size_t num_threads,
                                          size_t seed_pool = 300) {
  DriverConfig config;
  config.num_threads = num_threads;
  config.batch_window = 32;
  config.cache.num_shards = 4;
  return MakeDriverWithConfig(catalog, config, seed_pool);
}

void ExpectSameDecisions(const DriverReport& a, const DriverReport& b) {
  ASSERT_EQ(a.decisions.size(), b.decisions.size());
  for (size_t i = 0; i < a.decisions.size(); ++i) {
    EXPECT_EQ(a.decisions[i].request_id, b.decisions[i].request_id);
    EXPECT_EQ(a.decisions[i].model_name, b.decisions[i].model_name);
    EXPECT_EQ(a.decisions[i].offloaded, b.decisions[i].offloaded);
    EXPECT_EQ(a.decisions[i].num_examples, b.decisions[i].num_examples);
    EXPECT_DOUBLE_EQ(a.decisions[i].latent_quality, b.decisions[i].latent_quality);
  }
}

TEST(ServingDriverTest, MakeWorkloadIsDeterministic) {
  const std::vector<Request> a = SmallWorkload(100);
  const std::vector<Request> b = SmallWorkload(100);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_EQ(a[i].text, b[i].text);
    EXPECT_DOUBLE_EQ(a[i].arrival_time, b[i].arrival_time);
  }
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end(), [](const Request& x, const Request& y) {
    return x.arrival_time < y.arrival_time;
  }));
}

// The tentpole determinism property: a fixed seed must produce identical
// completion sets — same request ids, same per-request model choice — no
// matter how many worker threads execute the preparation phase.
TEST(ServingDriverTest, IdenticalDecisionsAtOneAndEightThreads) {
  const std::vector<Request> requests = SmallWorkload();
  ModelCatalog catalog;
  const DriverReport single = MakeDriver(catalog, 1)->Run(requests);
  const DriverReport eight = MakeDriver(catalog, 8)->Run(requests);

  ASSERT_EQ(single.decisions.size(), eight.decisions.size());
  for (size_t i = 0; i < single.decisions.size(); ++i) {
    EXPECT_EQ(single.decisions[i].request_id, eight.decisions[i].request_id);
    EXPECT_EQ(single.decisions[i].model_name, eight.decisions[i].model_name);
    EXPECT_EQ(single.decisions[i].offloaded, eight.decisions[i].offloaded);
    EXPECT_EQ(single.decisions[i].num_examples, eight.decisions[i].num_examples);
    EXPECT_DOUBLE_EQ(single.decisions[i].latent_quality, eight.decisions[i].latent_quality);
  }

  ASSERT_EQ(single.completions.size(), eight.completions.size());
  for (size_t i = 0; i < single.completions.size(); ++i) {
    EXPECT_EQ(single.completions[i].id, eight.completions[i].id);
    EXPECT_EQ(single.completions[i].model, eight.completions[i].model);
    EXPECT_DOUBLE_EQ(single.completions[i].completion_time, eight.completions[i].completion_time);
  }
  EXPECT_EQ(single.offloaded_requests, eight.offloaded_requests);
  EXPECT_EQ(single.admitted_examples, eight.admitted_examples);
}

// Thread-count invariance must hold for every retrieval backend the driver
// can be configured with, not just the default: the HNSW graph is built
// serially in phase 2 (admissions) and searched concurrently in phase 1, so
// a fixed seed must still yield identical decisions at 1 and 8 threads.
TEST(ServingDriverTest, HnswBackendIsThreadCountInvariant) {
  const std::vector<Request> requests = SmallWorkload();
  ModelCatalog catalog;
  DriverConfig config;
  config.batch_window = 32;
  config.cache.num_shards = 4;
  config.cache.cache.retrieval.kind = RetrievalBackendKind::kHnsw;

  config.num_threads = 1;
  const DriverReport single = MakeDriverWithConfig(catalog, config)->Run(requests);
  config.num_threads = 8;
  const DriverReport eight = MakeDriverWithConfig(catalog, config)->Run(requests);

  ExpectSameDecisions(single, eight);
  EXPECT_EQ(single.offloaded_requests, eight.offloaded_requests);
  EXPECT_EQ(single.admitted_examples, eight.admitted_examples);
  EXPECT_GT(single.offloaded_requests, 0u);
}

// The batched prepare path re-blocks embed/stage-0/stage-1 work into
// prepare_chunk-sized batches, but chunking is a locality optimisation only:
// decisions, counters, and memo-independent state must be byte-identical at
// chunk sizes 1 (degenerate per-request batches), the default, and a chunk
// larger than the batch window — at 1 and 8 threads.
TEST(ServingDriverTest, PrepareChunkSizeIsDecisionInvariant) {
  const std::vector<Request> requests = SmallWorkload();
  ModelCatalog catalog;
  DriverConfig base;
  base.batch_window = 32;
  base.cache.num_shards = 4;
  base.cache.cache.retrieval.kind = RetrievalBackendKind::kHnsw;

  const DriverReport* reference = nullptr;
  std::vector<DriverReport> reports;
  reports.reserve(8);
  for (size_t threads : {1u, 8u}) {
    for (size_t chunk : {1u, 16u, 48u}) {
      DriverConfig config = base;
      config.num_threads = threads;
      config.prepare_chunk = chunk;
      reports.push_back(MakeDriverWithConfig(catalog, config)->Run(requests));
      if (reference == nullptr) {
        reference = &reports.back();
        continue;
      }
      ExpectSameDecisions(*reference, reports.back());
      EXPECT_EQ(reference->offloaded_requests, reports.back().offloaded_requests);
      EXPECT_EQ(reference->admitted_examples, reports.back().admitted_examples);
    }
  }
  ASSERT_NE(reference, nullptr);
  EXPECT_GT(reference->offloaded_requests, 0u);
}

// The embedding memo must be invisible in results: with zero slots (memo off)
// and with generous slots, the decision stream is identical — a hit replays
// the embedder's output byte-for-byte. Repeated texts in the duplicate-heavy
// half of the workload give the memo real hits to replay.
TEST(ServingDriverTest, EmbedMemoIsDecisionInvariant) {
  std::vector<Request> requests = SmallWorkload();
  // Make the tail half verbatim repeats of the head so exact-repeat hits
  // actually occur on the single-threaded run.
  for (size_t i = requests.size() / 2; i < requests.size(); ++i) {
    requests[i].text = requests[i - requests.size() / 2].text;
  }
  ModelCatalog catalog;
  DriverConfig config;
  config.batch_window = 32;
  config.cache.num_shards = 4;
  config.num_threads = 1;

  config.embed_memo_slots = 0;
  const DriverReport memo_off = MakeDriverWithConfig(catalog, config)->Run(requests);
  config.embed_memo_slots = 4096;
  const DriverReport memo_on = MakeDriverWithConfig(catalog, config)->Run(requests);

  ExpectSameDecisions(memo_off, memo_on);
  EXPECT_EQ(memo_off.offloaded_requests, memo_on.offloaded_requests);
  EXPECT_EQ(memo_off.admitted_examples, memo_on.admitted_examples);
  EXPECT_EQ(memo_off.embed_memo_hits, 0u);
  EXPECT_GT(memo_on.embed_memo_hits, 0u);
}

// Satellite: shard count and retrieval backend are plain DriverConfig knobs.
// A single-shard flat configuration must reproduce the exact-search behavior
// (flat search is exact, so sharding only changes id encoding, not which
// examples are retrieved) and stay deterministic across runs and threads.
TEST(ServingDriverTest, SingleShardFlatConfigReproducesExactPath) {
  const std::vector<Request> requests = SmallWorkload();
  ModelCatalog catalog;
  DriverConfig config;
  config.batch_window = 32;
  config.cache.num_shards = 1;
  config.cache.cache.retrieval.kind = RetrievalBackendKind::kFlat;

  config.num_threads = 1;
  const DriverReport a = MakeDriverWithConfig(catalog, config)->Run(requests);
  config.num_threads = 8;
  const DriverReport b = MakeDriverWithConfig(catalog, config)->Run(requests);
  ExpectSameDecisions(a, b);
  EXPECT_GT(a.offloaded_requests, 0u);
  EXPECT_LT(a.offloaded_requests, a.total_requests);

  // Exact-path shard invariance: the flat backend retrieves the same example
  // set no matter how many shards the cache is split into.
  config.cache.num_shards = 4;
  config.num_threads = 2;
  const DriverReport sharded = MakeDriverWithConfig(catalog, config)->Run(requests);
  ASSERT_EQ(a.decisions.size(), sharded.decisions.size());
  for (size_t i = 0; i < a.decisions.size(); ++i) {
    EXPECT_EQ(a.decisions[i].offloaded, sharded.decisions[i].offloaded) << "request " << i;
    EXPECT_EQ(a.decisions[i].num_examples, sharded.decisions[i].num_examples)
        << "request " << i;
  }
}

TEST(ServingDriverTest, EveryRequestCompletesExactlyOnce) {
  const std::vector<Request> requests = SmallWorkload();
  ModelCatalog catalog;
  const DriverReport report = MakeDriver(catalog, 2)->Run(requests);

  EXPECT_EQ(report.total_requests, requests.size());
  EXPECT_EQ(report.decisions.size(), requests.size());
  ASSERT_EQ(report.completions.size(), requests.size());
  std::map<uint64_t, size_t> seen;
  for (const CompletionRecord& record : report.completions) {
    ++seen[record.id];
  }
  for (const Request& request : requests) {
    EXPECT_EQ(seen[request.id], 1u) << "request " << request.id;
  }
}

TEST(ServingDriverTest, CompletionModelMatchesRoutingDecision) {
  const std::vector<Request> requests = SmallWorkload(200);
  ModelCatalog catalog;
  const DriverReport report = MakeDriver(catalog, 4)->Run(requests);

  std::map<uint64_t, std::string> routed_model;
  for (const DriverDecision& decision : report.decisions) {
    routed_model[decision.request_id] = decision.model_name;
  }
  for (const CompletionRecord& record : report.completions) {
    EXPECT_EQ(record.model, routed_model[record.id]) << "request " << record.id;
  }
}

TEST(ServingDriverTest, RoutesToBothArmsAndUsesExamples) {
  const std::vector<Request> requests = SmallWorkload();
  ModelCatalog catalog;
  const auto driver = MakeDriver(catalog, 2);
  const DriverReport report = driver->Run(requests);

  EXPECT_GT(report.offloaded_requests, 0u);
  EXPECT_LT(report.offloaded_requests, report.total_requests);
  size_t with_examples = 0;
  for (const DriverDecision& decision : report.decisions) {
    if (decision.offloaded) {
      EXPECT_EQ(decision.model_name, driver->config().small_model);
      with_examples += decision.num_examples > 0 ? 1 : 0;
    } else {
      EXPECT_EQ(decision.model_name, decision.offloaded ? driver->config().small_model
                                                        : driver->config().large_model);
    }
  }
  EXPECT_GT(with_examples, 0u);
}

TEST(ServingDriverTest, LargeResponsesAreAdmittedIntoTheCache) {
  const std::vector<Request> requests = SmallWorkload();
  ModelCatalog catalog;
  const auto driver = MakeDriver(catalog, 2, /*seed_pool=*/100);
  const size_t before = driver->cache().size();
  const DriverReport report = driver->Run(requests);
  EXPECT_EQ(driver->cache().size(), before + report.admitted_examples);
}

TEST(ServingDriverTest, ReportStatisticsAreConsistent) {
  const std::vector<Request> requests = SmallWorkload(200);
  ModelCatalog catalog;
  const DriverReport report = MakeDriver(catalog, 2)->Run(requests);
  EXPECT_GT(report.wall_seconds, 0.0);
  EXPECT_GT(report.requests_per_second, 0.0);
  EXPECT_GE(report.prepare_seconds, 0.0);
  EXPECT_GE(report.serial_seconds, 0.0);
  EXPECT_GE(report.maintenance_seconds, 0.0);
  // The wall clock splits into exactly three buckets: parallel (pool-blocked)
  // time, the serial merge, and maintenance — so a maintenance tick can no
  // longer be silently booked as serial time.
  EXPECT_NEAR(report.prepare_seconds + report.serial_seconds + report.maintenance_seconds,
              report.wall_seconds, 1e-9);
  EXPECT_GE(report.p99_latency_s, report.p50_latency_s);
  EXPECT_GE(report.p99_ttft_s, report.p50_ttft_s);
  EXPECT_GE(report.p99_queue_delay_s, report.p50_queue_delay_s);
  EXPECT_GE(report.p50_latency_s, report.p50_ttft_s);  // e2e includes decode
  EXPECT_GT(report.mean_quality, 0.0);
  EXPECT_LE(report.mean_quality, 1.0);
}

// DriverConfig for the full lifecycle: a tight byte budget, fast decay +
// eviction ticks, and an always-eligible off-peak replay cadence.
DriverConfig LifecycleConfig() {
  DriverConfig config;
  config.batch_window = 32;
  config.cache.num_shards = 4;
  config.cache.cache.capacity_bytes = 48 * 1024;
  config.manager.decay_interval_s = 10.0;  // trace spans ~100 s of sim time
  config.replay_min_interval_s = 20.0;
  config.replay_load_threshold = 1e9;  // any load counts as off-peak
  return config;
}

// The tentpole acceptance property: with admission, gain accounting, decay +
// knapsack eviction, and off-peak replay ALL active through the shared
// lifecycle layer, a fixed seed must still produce byte-identical decisions
// and completions at 1 and 8 threads — every lifecycle mutation runs in the
// serial phase or between windows, never on a worker.
TEST(ServingDriverLifecycleTest, DeterministicAcrossThreadsWithFullLifecycle) {
  const std::vector<Request> requests = SmallWorkload();
  ModelCatalog catalog;
  DriverConfig config = LifecycleConfig();

  config.num_threads = 1;
  const DriverReport single = MakeDriverWithConfig(catalog, config)->Run(requests);
  config.num_threads = 8;
  const DriverReport eight = MakeDriverWithConfig(catalog, config)->Run(requests);

  ExpectSameDecisions(single, eight);
  ASSERT_EQ(single.completions.size(), eight.completions.size());
  for (size_t i = 0; i < single.completions.size(); ++i) {
    EXPECT_EQ(single.completions[i].id, eight.completions[i].id);
    EXPECT_DOUBLE_EQ(single.completions[i].completion_time, eight.completions[i].completion_time);
  }
  EXPECT_EQ(single.admitted_examples, eight.admitted_examples);
  EXPECT_EQ(single.maintenance_runs, eight.maintenance_runs);
  EXPECT_EQ(single.evicted_examples, eight.evicted_examples);
  EXPECT_EQ(single.replay_passes, eight.replay_passes);
  EXPECT_EQ(single.replayed_examples, eight.replayed_examples);

  // The lifecycle must have genuinely run, not been configured away.
  EXPECT_GT(single.maintenance_runs, 0u);
  EXPECT_GT(single.replay_passes, 0u);
}

// With a byte budget, the sharded pool must stay at or below it for the
// whole run: eviction is automatic on insert past the high watermark plus
// periodic on the maintenance tick, so no driver code path can leak growth.
TEST(ServingDriverLifecycleTest, CapacityBudgetHeldUnderLoad) {
  const std::vector<Request> requests = SmallWorkload();
  ModelCatalog catalog;
  const auto driver = MakeDriverWithConfig(catalog, LifecycleConfig());
  const DriverReport report = driver->Run(requests);

  EXPECT_GT(report.admitted_examples, 0u);
  EXPECT_GT(report.evicted_examples, 0u);  // the budget actually bound
  EXPECT_LE(static_cast<double>(driver->cache().used_bytes()),
            static_cast<double>(driver->config().cache.cache.capacity_bytes) *
                driver->config().cache.cache.high_watermark);
}

// Section-5 fault tolerance as DriverConfig knobs: a bypassed selector serves
// every request without examples; a bypassed router sends everything to the
// large backend. Both must preserve thread-count determinism.
TEST(ServingDriverLifecycleTest, SelectorFaultBypassServesWithoutExamples) {
  const std::vector<Request> requests = SmallWorkload(200);
  ModelCatalog catalog;
  DriverConfig config = LifecycleConfig();
  config.selector_fault_bypass = true;

  config.num_threads = 1;
  const DriverReport single = MakeDriverWithConfig(catalog, config)->Run(requests);
  config.num_threads = 8;
  const DriverReport eight = MakeDriverWithConfig(catalog, config)->Run(requests);
  ExpectSameDecisions(single, eight);

  EXPECT_EQ(single.decisions.size(), requests.size());
  for (const DriverDecision& decision : single.decisions) {
    EXPECT_EQ(decision.num_examples, 0u);
  }
}

// A bypassed selector skips the stage-1 sweep, so the admission
// near-duplicate check falls back to its own k=1 search. One request text
// repeated every other window (a window is prepared while the one before it
// commits, so a copy sees admissions published two windows back), every
// response from the large model (always admitted): the first copy is
// admitted, every later copy finds it in the pool and is dropped — at 1 and
// 8 threads alike.
TEST(ServingDriverLifecycleTest, SelectorFaultBypassStillDedupesAdmissions) {
  std::vector<Request> requests = SmallWorkload();
  DriverConfig config;
  config.batch_window = 32;
  config.cache.num_shards = 4;
  config.selector_fault_bypass = true;
  config.router_fault_bypass = true;
  const std::string repeated = requests[3].text;
  size_t copies = 0;
  for (size_t i = 3; i < requests.size(); i += 2 * config.batch_window) {
    requests[i].text = repeated;
    ++copies;
  }
  ASSERT_GE(copies, 5u);

  ModelCatalog catalog;
  std::vector<DriverReport> reports;
  for (const size_t threads : {size_t{1}, size_t{8}}) {
    config.num_threads = threads;
    const auto driver = MakeDriverWithConfig(catalog, config);
    reports.push_back(driver->Run(requests));
    size_t pooled = 0;
    for (uint64_t id : driver->cache().AllIds()) {
      Example example;
      ASSERT_TRUE(driver->cache().Snapshot(id, &example));
      pooled += example.request.text == repeated ? 1 : 0;
    }
    EXPECT_EQ(pooled, 1u) << "threads=" << threads;
  }
  ExpectSameDecisions(reports[0], reports[1]);
  EXPECT_EQ(reports[0].admitted_examples, reports[1].admitted_examples);
}

// The fused dedupe reads the top-1 of the stage-1 row, which equals a k=1
// search only while the hnsw beam (ef_search) is at least stage1_candidates
// wide (ExampleManager::PrepareAdmission). The driver's defaults must keep
// that precondition.
TEST(ServingDriverTest, DefaultsKeepTheStage1BeamWideEnoughForDedupe) {
  const DriverConfig config;
  EXPECT_GE(config.cache.cache.retrieval.hnsw.ef_search, config.selector.stage1_candidates);
}

TEST(ServingDriverLifecycleTest, RouterFaultBypassRoutesEverythingToLarge) {
  const std::vector<Request> requests = SmallWorkload(200);
  ModelCatalog catalog;
  DriverConfig config = LifecycleConfig();
  config.router_fault_bypass = true;

  config.num_threads = 2;
  const auto driver = MakeDriverWithConfig(catalog, config);
  const DriverReport report = driver->Run(requests);
  EXPECT_EQ(report.offloaded_requests, 0u);
  for (const DriverDecision& decision : report.decisions) {
    EXPECT_FALSE(decision.offloaded);
    EXPECT_EQ(decision.model_name, driver->config().large_model);
  }
}

// Offloaded completions must feed the gain EMAs (RecordUsage through the
// shared manager): after a run with offloads, at least one surviving example
// carries a gain EMA that per-use accounting has moved.
TEST(ServingDriverLifecycleTest, OffloadedCompletionsFeedGainAccounting) {
  const std::vector<Request> requests = SmallWorkload();
  ModelCatalog catalog;
  DriverConfig config;
  config.batch_window = 32;
  config.cache.num_shards = 4;
  const auto driver = MakeDriverWithConfig(catalog, config);
  const DriverReport report = driver->Run(requests);
  ASSERT_GT(report.offloaded_requests, 0u);

  // Fresh examples start at exactly 1 - response_quality; per-use EMA updates
  // move accessed examples off that initial value.
  size_t moved = 0;
  for (uint64_t id : driver->cache().AllIds()) {
    Example example;
    ASSERT_TRUE(driver->cache().Snapshot(id, &example));
    if (example.access_count > 0 &&
        std::abs(example.replay_gain_ema - (1.0 - example.response_quality)) > 1e-12) {
      ++moved;
    }
  }
  EXPECT_GT(moved, 0u);
}

}  // namespace
}  // namespace iccache
