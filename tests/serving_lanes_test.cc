// Sharded-commit-pipeline determinism (concurrency label; runs under TSan):
//
//  * lane-merge determinism — N commit lanes vs 1 lane produce identical
//    decisions AND identical selector adaptation (thresholds) across seeds,
//    for the flat and hnsw backends, with the full lifecycle enabled;
//  * the thread x lane matrix: {1, 2, 8} threads x {1, 4} lanes, all equal;
//  * the three-bucket wall-clock split (pool / serial / maintenance), with
//    no window ever waiting for a maintenance plan.
#include "src/serving/driver.h"

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/workload/dataset.h"

namespace iccache {
namespace {

constexpr uint64_t kSeed = 0x1a9e5ull;

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

// Full lifecycle: tight byte budget, fast decay + replay cadences so every
// maintenance path fires within the short trace.
DriverConfig LifecycleConfig(uint64_t seed) {
  DriverConfig config;
  config.batch_window = 32;
  config.cache.num_shards = 4;
  config.cache.cache.capacity_bytes = 48 * 1024;
  config.manager.decay_interval_s = 10.0;  // trace spans ~100 s of sim time
  config.replay_min_interval_s = 20.0;
  config.replay_load_threshold = 1e9;  // any load counts as off-peak
  config.seed = seed;
  return config;
}

std::unique_ptr<ServingDriver> MakeDriver(const ModelCatalog& catalog, DriverConfig config,
                                          uint64_t seed, size_t seed_pool = 300) {
  auto driver = std::make_unique<ServingDriver>(config, &catalog);
  QueryGenerator seeder(SmallProfile(), seed ^ 0x5eedb);
  for (size_t i = 0; i < seed_pool; ++i) {
    driver->SeedExample(seeder.Next(), 0.0);
  }
  return driver;
}

void ExpectSameDecisions(const DriverReport& a, const DriverReport& b) {
  ASSERT_EQ(a.decisions.size(), b.decisions.size());
  for (size_t i = 0; i < a.decisions.size(); ++i) {
    EXPECT_EQ(a.decisions[i].request_id, b.decisions[i].request_id) << "at " << i;
    EXPECT_EQ(a.decisions[i].model_name, b.decisions[i].model_name) << "at " << i;
    EXPECT_EQ(a.decisions[i].offloaded, b.decisions[i].offloaded) << "at " << i;
    EXPECT_EQ(a.decisions[i].num_examples, b.decisions[i].num_examples) << "at " << i;
    EXPECT_EQ(a.decisions[i].latent_quality, b.decisions[i].latent_quality) << "at " << i;
  }
}

void ExpectSameLifecycleCounts(const DriverReport& a, const DriverReport& b) {
  EXPECT_EQ(a.offloaded_requests, b.offloaded_requests);
  EXPECT_EQ(a.admitted_examples, b.admitted_examples);
  EXPECT_EQ(a.evicted_examples, b.evicted_examples);
  EXPECT_EQ(a.maintenance_runs, b.maintenance_runs);
  EXPECT_EQ(a.replay_passes, b.replay_passes);
  EXPECT_EQ(a.replayed_examples, b.replayed_examples);
  EXPECT_EQ(a.improved_examples, b.improved_examples);
}

// Satellite acceptance: CommitSelection lane-merge determinism. One lane vs
// four lanes must produce identical decisions and identical post-run selector
// thresholds (the lane-local accounting merges deterministically), across
// three seeds, for both the flat and the hnsw backend.
TEST(ServingLanesTest, LaneCountInvariantAcrossSeedsAndBackends) {
  const std::vector<Request> requests = SmallWorkload();
  ModelCatalog catalog;
  for (RetrievalBackendKind backend :
       {RetrievalBackendKind::kFlat, RetrievalBackendKind::kHnsw}) {
    for (uint64_t seed : std::vector<uint64_t>{kSeed, kSeed ^ 0xbeef123ull,
                                               kSeed ^ 0x5ca1ab1eull}) {
      SCOPED_TRACE(std::string(RetrievalBackendKindName(backend)) + " seed=" +
                   std::to_string(seed));
      DriverConfig config = LifecycleConfig(seed);
      config.cache.cache.retrieval.kind = backend;
      config.num_threads = 8;
      // Tighten the adaptation cadence so the threshold actually moves
      // within the trace — a frozen-but-never-adapted threshold would make
      // this test vacuous.
      config.selector.adapt_every_n_requests = 128;

      config.commit_lanes = 1;
      const auto single = MakeDriver(catalog, config, seed);
      const DriverReport single_report = single->Run(requests);

      config.commit_lanes = 4;
      const auto laned = MakeDriver(catalog, config, seed);
      const DriverReport laned_report = laned->Run(requests);

      ExpectSameDecisions(single_report, laned_report);
      ExpectSameLifecycleCounts(single_report, laned_report);
      EXPECT_EQ(single->selector().utility_threshold(), laned->selector().utility_threshold());
      EXPECT_EQ(single->cache().AllIds(), laned->cache().AllIds());
      EXPECT_EQ(single->cache().used_bytes(), laned->cache().used_bytes());
    }
  }
}

// The thread x lane matrix: decisions are byte-identical at {1, 2, 8}
// threads x {1, 4} lanes, with lifecycle + maintenance fully on. One thread
// runs every task on the driver thread, two split them between the driver
// thread and one worker.
TEST(ServingLanesTest, ThreadAndLaneMatrixIsByteIdentical) {
  const std::vector<Request> requests = SmallWorkload();
  ModelCatalog catalog;
  DriverConfig config = LifecycleConfig(kSeed);
  config.cache.cache.retrieval.kind = RetrievalBackendKind::kHnsw;

  std::vector<DriverReport> reports;
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    for (size_t lanes : {size_t{1}, size_t{4}}) {
      config.num_threads = threads;
      config.commit_lanes = lanes;
      reports.push_back(MakeDriver(catalog, config, kSeed)->Run(requests));
    }
  }
  // The kernel dispatch level is fixed per process, and every run reports it.
  EXPECT_TRUE(reports[0].simd_kernel == "avx2" || reports[0].simd_kernel == "scalar");
  for (size_t i = 1; i < reports.size(); ++i) {
    SCOPED_TRACE("variant " + std::to_string(i));
    EXPECT_EQ(reports[i].simd_kernel, reports[0].simd_kernel);
    ExpectSameDecisions(reports[0], reports[i]);
    ExpectSameLifecycleCounts(reports[0], reports[i]);
    ASSERT_EQ(reports[0].completions.size(), reports[i].completions.size());
    for (size_t j = 0; j < reports[0].completions.size(); ++j) {
      EXPECT_EQ(reports[0].completions[j].id, reports[i].completions[j].id);
      EXPECT_DOUBLE_EQ(reports[0].completions[j].completion_time,
                       reports[i].completions[j].completion_time);
    }
  }
  // Decay, eviction and replay ticks all ran, so the matrix covers them.
  EXPECT_GT(reports[0].maintenance_runs, 0u);
  EXPECT_GT(reports[0].replay_passes, 0u);
  EXPECT_GT(reports[0].evicted_examples, 0u);
}

// The maintenance bucket is measured separately (maintenance time is never
// booked as serial time), the three buckets partition the wall clock, and no
// window waits for a maintenance plan.
TEST(ServingLanesTest, MaintenanceTimeIsItsOwnBucket) {
  const std::vector<Request> requests = SmallWorkload();
  ModelCatalog catalog;
  DriverConfig config = LifecycleConfig(kSeed);
  config.num_threads = 2;
  const auto driver = MakeDriver(catalog, config, kSeed);
  const DriverReport report = driver->Run(requests);

  ASSERT_GT(report.maintenance_runs, 0u);
  EXPECT_GT(report.maintenance_seconds, 0.0);  // ticks ran, so time was booked
  EXPECT_GE(report.pool_seconds, 0.0);
  EXPECT_GE(report.serial_seconds, 0.0);
  EXPECT_NEAR(report.pool_seconds + report.serial_seconds + report.maintenance_seconds,
              report.wall_seconds, 1e-9);
  EXPECT_EQ(report.maintenance_stalled_windows, 0u);
}

// Fault bypasses (section 5) stay deterministic under the lane partition.
TEST(ServingLanesTest, FaultBypassesAreLaneCountInvariant) {
  const std::vector<Request> requests = SmallWorkload(200);
  ModelCatalog catalog;
  for (const bool selector_bypass : {true, false}) {
    DriverConfig config = LifecycleConfig(kSeed);
    config.num_threads = 8;
    config.selector_fault_bypass = selector_bypass;
    config.router_fault_bypass = !selector_bypass;

    config.commit_lanes = 1;
    const DriverReport single = MakeDriver(catalog, config, kSeed)->Run(requests);
    config.commit_lanes = 4;
    const DriverReport laned = MakeDriver(catalog, config, kSeed)->Run(requests);
    ExpectSameDecisions(single, laned);
  }
}

}  // namespace
}  // namespace iccache
