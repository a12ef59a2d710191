// End-to-end integration: the full IC-Cache service in front of the
// discrete-event cluster, exercised on synthetic workloads, reproducing the
// directional claims of section 6.2 at miniature scale.
#include <memory>

#include <gtest/gtest.h>

#include "src/common/stats.h"
#include "src/core/service.h"
#include "src/judge/judge.h"
#include "src/serving/cluster.h"
#include "src/workload/query_generator.h"
#include "src/workload/trace.h"

namespace iccache {
namespace {

ServiceConfig FastLearningConfig() {
  ServiceConfig config;
  config.selector.adapt_every_n_requests = 0;  // keep the threshold fixed
  return config;
}

// Topic count scaled down with the pool size so the similarity density
// matches the paper's workloads (section 2.3).
DatasetProfile DenseMsMarco() {
  DatasetProfile profile = GetDatasetProfile(DatasetId::kMsMarco);
  profile.num_topics = 150;
  return profile;
}

class EndToEndFixture : public ::testing::Test {
 protected:
  EndToEndFixture()
      : profile_(DenseMsMarco()),
        gen_(profile_, 101),
        sim_(102),
        embedder_(std::make_shared<HashingEmbedder>()),
        service_(FastLearningConfig(), &catalog_, &sim_, embedder_) {}

  void SeedAndWarm(size_t pool, size_t warmup) {
    for (size_t i = 0; i < pool; ++i) {
      service_.SeedExample(gen_.Next(), 0.0);
    }
    service_.PretrainProxy(800);  // offline proxy bootstrap (section 4.1)
    for (size_t i = 0; i < warmup; ++i) {
      service_.ServeRequest(gen_.Next(), static_cast<double>(i));
    }
  }

  ModelCatalog catalog_;
  DatasetProfile profile_;
  QueryGenerator gen_;
  GenerationSimulator sim_;
  std::shared_ptr<const Embedder> embedder_;
  IcCacheService service_;
};

TEST_F(EndToEndFixture, IcCacheQualityBeatsAlwaysSmall) {
  SeedAndWarm(400, 300);
  RunningStat ic_quality;
  RunningStat small_quality;
  for (int i = 0; i < 300; ++i) {
    const Request req = gen_.Next();
    ic_quality.Add(service_.ServeRequest(req, 1000.0 + i).generation.latent_quality);
    small_quality.Add(sim_.Generate(catalog_.Get("gemma-2-2b"), req, {}).latent_quality);
  }
  EXPECT_GT(ic_quality.mean(), small_quality.mean() + 0.03);
}

TEST_F(EndToEndFixture, IcCacheApproachesLargeModelQuality) {
  SeedAndWarm(400, 300);
  SideBySideStats versus_large;
  PairwiseJudge judge;
  for (int i = 0; i < 200; ++i) {
    const Request req = gen_.Next();
    const double ic = service_.ServeRequest(req, 1000.0 + i).generation.latent_quality;
    const double large = sim_.Generate(catalog_.Get("gemma-2-27b"), req, {}).latent_quality;
    versus_large.Add(judge.Compare(ic, large));
  }
  // Section 6.2: IC-Cache matches large-model quality (win rate near or above
  // parity), while offloading much of the traffic.
  EXPECT_GT(versus_large.win_rate(), 0.42);
}

TEST_F(EndToEndFixture, SubstantialOffloadingAfterWarmup) {
  SeedAndWarm(400, 400);
  int offloaded = 0;
  const int n = 200;
  for (int i = 0; i < n; ++i) {
    offloaded += service_.ServeRequest(gen_.Next(), 2000.0 + i).offloaded ? 1 : 0;
  }
  EXPECT_GT(static_cast<double>(offloaded) / n, 0.3);
}

TEST_F(EndToEndFixture, OverloadRaisesOffloadRatio) {
  SeedAndWarm(400, 300);
  auto offload_ratio_at_load = [&](double load) {
    for (int i = 0; i < 50; ++i) {
      service_.ObserveLoad(load);
    }
    int offloaded = 0;
    for (int i = 0; i < 150; ++i) {
      const ServeOutcome outcome = service_.ServeRequest(gen_.Next(), 3000.0 + i);
      offloaded += outcome.offloaded ? 1 : 0;
    }
    return offloaded / 150.0;
  };
  const double calm = offload_ratio_at_load(0.1);
  const double overloaded = offload_ratio_at_load(3.0);
  EXPECT_GE(overloaded, calm);
  EXPECT_GT(overloaded, 0.8);
}

TEST_F(EndToEndFixture, ServiceDrivesClusterWithLowerLatencyThanAlwaysLarge) {
  // Miniature Figure 12(c): replay a bursty trace through (a) IC-Cache
  // routing over both pools and (b) always-large; compare mean E2E latency.
  SeedAndWarm(300, 300);

  TraceConfig trace_config;
  trace_config.kind = TraceKind::kDiurnalBursty;
  trace_config.mean_rps = 2.5;
  trace_config.duration_s = 240.0;
  trace_config.seed = 1234;
  ArrivalTrace trace(trace_config);
  const std::vector<double> arrivals = trace.GenerateArrivals();

  auto build_cluster = [&](ClusterSim& cluster) {
    cluster.AddPool(catalog_.Get("gemma-2-27b"), 1);
    cluster.AddPool(catalog_.Get("gemma-2-2b"), 1);
  };

  // (a) IC-Cache policy.
  ClusterSim ic_cluster;
  build_cluster(ic_cluster);
  uint64_t rid = 1;
  for (double t : arrivals) {
    ic_cluster.AdvanceTo(t);
    Request req = gen_.Next();
    req.arrival_time = t;
    service_.ObserveLoad(ic_cluster.PoolLoad(service_.large_model().name));
    const ServeOutcome outcome = service_.ServeRequest(req, t);
    ServingRequest serving;
    serving.id = rid++;
    serving.arrival_time = t;
    serving.prompt_tokens = outcome.generation.prompt_tokens;
    serving.output_tokens = outcome.generation.output_tokens;
    ASSERT_TRUE(ic_cluster.Submit(outcome.generation.model_name, serving).ok());
  }
  ic_cluster.RunUntilIdle();

  // (b) Always-large baseline on the same arrivals.
  ClusterSim large_cluster;
  build_cluster(large_cluster);
  QueryGenerator gen2(profile_, 101);
  rid = 1;
  for (double t : arrivals) {
    large_cluster.AdvanceTo(t);
    Request req = gen2.Next();
    ServingRequest serving;
    serving.id = rid++;
    serving.arrival_time = t;
    serving.prompt_tokens = req.input_tokens;
    serving.output_tokens = req.target_output_tokens;
    ASSERT_TRUE(large_cluster.Submit("gemma-2-27b", serving).ok());
  }
  large_cluster.RunUntilIdle();

  RunningStat ic_latency;
  for (const auto& record : ic_cluster.completions()) {
    ic_latency.Add(record.E2eLatency());
  }
  RunningStat large_latency;
  for (const auto& record : large_cluster.completions()) {
    large_latency.Add(record.E2eLatency());
  }
  ASSERT_EQ(ic_latency.count(), arrivals.size());
  ASSERT_EQ(large_latency.count(), arrivals.size());
  // Headline claim shape (section 6.2): latency reduction of at least ~25%.
  EXPECT_LT(ic_latency.mean(), large_latency.mean() * 0.75);
}

TEST_F(EndToEndFixture, CacheKeepsGrowingAndMaintenanceBoundsIt) {
  ServiceConfig config = FastLearningConfig();
  config.cache.capacity_bytes = 64 * 1024;
  IcCacheService bounded(config, &catalog_, &sim_, embedder_);
  QueryGenerator gen(profile_, 105);
  for (int i = 0; i < 200; ++i) {
    bounded.SeedExample(gen.Next(), 0.0);
  }
  for (int i = 0; i < 300; ++i) {
    bounded.ServeRequest(gen.Next(), static_cast<double>(i));
  }
  bounded.RunMaintenance(7200.0);
  EXPECT_LE(bounded.cache().used_bytes(), config.cache.capacity_bytes);
}

TEST_F(EndToEndFixture, DifficultRequestsPreferLargeModel) {
  SeedAndWarm(400, 600);
  int hard_total = 0;
  int hard_offloaded = 0;
  int easy_total = 0;
  int easy_offloaded = 0;
  for (int i = 0; i < 800; ++i) {
    const Request req = gen_.Next();
    const bool offloaded = service_.ServeRequest(req, 5000.0 + i).offloaded;
    if (req.difficulty > 0.55) {
      ++hard_total;
      hard_offloaded += offloaded ? 1 : 0;
    } else if (req.difficulty < 0.25) {
      ++easy_total;
      easy_offloaded += offloaded ? 1 : 0;
    }
  }
  ASSERT_GT(hard_total, 20);
  ASSERT_GT(easy_total, 20);
  const double hard_rate = static_cast<double>(hard_offloaded) / hard_total;
  const double easy_rate = static_cast<double>(easy_offloaded) / easy_total;
  // The router should offload easy traffic at least as readily as hard
  // traffic (quality-aware routing, section 4.2).
  EXPECT_GE(easy_rate + 0.05, hard_rate);
}

}  // namespace
}  // namespace iccache
