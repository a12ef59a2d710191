// Concurrency coverage (runs under TSan via the `concurrency` ctest label)
// for the passive-observability contract: with tracing, the armed SLO
// watchdog, and tail-exemplar sampling all enabled, the driver's decisions
// AND its deterministic tail-exemplar set must be byte-identical across
// every {threads} x {commit lanes} combination — and identical to a run with
// the whole observability stack disabled.
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "src/obs/trace.h"
#include "src/serving/driver.h"
#include "src/workload/dataset.h"

namespace iccache {
namespace {

constexpr uint64_t kSeed = 0x7a11ed;

DatasetProfile SmallProfile() {
  DatasetProfile profile = GetDatasetProfile(DatasetId::kLmsysChat);
  profile.example_pool_size = 300;
  profile.num_topics = 60;
  return profile;
}

std::vector<Request> SmallWorkload() {
  TraceConfig trace;
  trace.kind = TraceKind::kPoisson;
  trace.mean_rps = 4.0;
  trace.duration_s = 100.0;
  trace.seed = kSeed ^ 0x7ace;
  return ServingDriver::MakeWorkload(SmallProfile(), trace, kSeed ^ 0x9e4);
}

DriverConfig ObsConfig(size_t num_threads, size_t commit_lanes) {
  DriverConfig config;
  config.seed = kSeed;
  config.num_threads = num_threads;
  config.commit_lanes = commit_lanes;
  config.batch_window = 32;
  config.cache.num_shards = 4;
  config.tail_slowest_per_window = 2;
  config.tail_sample_every = 37;
  // Arm a rule that stays silent on this small clean run; an armed watchdog
  // must still be a pure observer.
  config.watchdog.stage0_drop_fraction = 0.5;
  return config;
}

DriverReport RunOnce(const std::vector<Request>& requests, size_t num_threads,
                     size_t commit_lanes, bool observability_on) {
  ScopedTracing tracing(observability_on);
  TraceRecorder::Global().Reset();
  DriverConfig config = ObsConfig(num_threads, commit_lanes);
  if (!observability_on) {
    config.watchdog = WatchdogConfig{};
  }
  ModelCatalog catalog;
  ServingDriver driver(config, &catalog);
  QueryGenerator seeder(SmallProfile(), kSeed ^ 0x5eedb);
  for (size_t i = 0; i < 300; ++i) {
    driver.SeedExample(seeder.Next(), 0.0);
  }
  return driver.Run(requests);
}

void ExpectSameDecisionsAndTails(const DriverReport& a, const DriverReport& b) {
  ASSERT_EQ(a.decisions.size(), b.decisions.size());
  for (size_t i = 0; i < a.decisions.size(); ++i) {
    EXPECT_EQ(a.decisions[i].request_id, b.decisions[i].request_id);
    EXPECT_EQ(a.decisions[i].model_name, b.decisions[i].model_name);
    EXPECT_EQ(a.decisions[i].offloaded, b.decisions[i].offloaded);
    EXPECT_EQ(a.decisions[i].num_examples, b.decisions[i].num_examples);
    EXPECT_DOUBLE_EQ(a.decisions[i].latent_quality, b.decisions[i].latent_quality);
  }
  ASSERT_EQ(a.tail_exemplars.size(), b.tail_exemplars.size());
  for (size_t i = 0; i < a.tail_exemplars.size(); ++i) {
    EXPECT_EQ(a.tail_exemplars[i].request_id, b.tail_exemplars[i].request_id);
    EXPECT_EQ(a.tail_exemplars[i].window, b.tail_exemplars[i].window);
    EXPECT_DOUBLE_EQ(a.tail_exemplars[i].e2e_latency_s, b.tail_exemplars[i].e2e_latency_s);
    EXPECT_EQ(a.tail_exemplars[i].slowest, b.tail_exemplars[i].slowest);
  }
}

TEST(ObsTailDeterminismTest, TailExemplarsIdenticalAcrossThreadsAndLanes) {
  const std::vector<Request> requests = SmallWorkload();
  const DriverReport reference = RunOnce(requests, 1, 1, /*observability_on=*/true);

  // The sampler keyed on simulated latency must pick a nonempty set: the
  // slowest-per-window exemplars exist whenever any window completed work.
  ASSERT_FALSE(reference.tail_exemplars.empty());
  bool any_slowest = false;
  for (size_t i = 0; i < reference.tail_exemplars.size(); ++i) {
    any_slowest = any_slowest || reference.tail_exemplars[i].slowest;
    EXPECT_GT(reference.tail_exemplars[i].request_id, 0u);
    if (i > 0) {
      const TailExemplar& prev = reference.tail_exemplars[i - 1];
      const TailExemplar& cur = reference.tail_exemplars[i];
      EXPECT_TRUE(prev.window < cur.window ||
                  (prev.window == cur.window && prev.request_id < cur.request_id));
    }
  }
  EXPECT_TRUE(any_slowest);
  EXPECT_TRUE(reference.anomalies.empty());  // clean run: armed but silent

  for (const size_t threads : {1, 8}) {
    for (const size_t lanes : {1, 4}) {
      if (threads == 1 && lanes == 1) {
        continue;
      }
      const DriverReport report = RunOnce(requests, threads, lanes, true);
      ExpectSameDecisionsAndTails(reference, report);
      EXPECT_TRUE(report.anomalies.empty());
    }
  }
}

TEST(ObsTailDeterminismTest, ObservabilityOffProducesTheSameDecisions) {
  const std::vector<Request> requests = SmallWorkload();
  const DriverReport on = RunOnce(requests, 8, 4, /*observability_on=*/true);
  const DriverReport off = RunOnce(requests, 8, 4, /*observability_on=*/false);
  // Tail exemplars are selected from completions regardless of tracing, so
  // they too must match; the watchdog/tracing state is the only difference.
  ExpectSameDecisionsAndTails(on, off);
}

}  // namespace
}  // namespace iccache
