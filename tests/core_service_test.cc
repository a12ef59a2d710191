#include "src/core/service.h"

#include <memory>

#include <gtest/gtest.h>

#include "src/core/client.h"
#include "src/core/dp_synthesis.h"
#include "src/workload/query_generator.h"

namespace iccache {
namespace {

// Test workloads use a topic count scaled down with the pool size, keeping
// the paper's similarity density (>70% of requests have a close neighbour).
DatasetProfile DenseProfile(DatasetId id, size_t num_topics = 120) {
  DatasetProfile profile = GetDatasetProfile(id);
  profile.num_topics = num_topics;
  return profile;
}

class ServiceFixture : public ::testing::Test {
 protected:
  ServiceFixture()
      : gen_(DenseProfile(DatasetId::kMsMarco), 91),
        sim_(92),
        embedder_(std::make_shared<HashingEmbedder>()),
        service_(ServiceConfig{}, &catalog_, &sim_, embedder_) {}

  void SeedPool(size_t count) {
    for (size_t i = 0; i < count; ++i) {
      service_.SeedExample(gen_.Next(), 0.0);
    }
  }

  ModelCatalog catalog_;
  QueryGenerator gen_;
  GenerationSimulator sim_;
  std::shared_ptr<const Embedder> embedder_;
  IcCacheService service_;
};

TEST_F(ServiceFixture, SeedExamplePopulatesCache) {
  SeedPool(10);
  EXPECT_EQ(service_.cache().size(), 10u);
  for (uint64_t id : service_.cache().AllIds()) {
    const Example* example = service_.cache().Get(id);
    EXPECT_NEAR(example->source_capability, service_.large_model().capability, 1e-9);
    EXPECT_GT(example->response_quality, 0.0);
  }
}

TEST_F(ServiceFixture, ServeProducesCompleteOutcome) {
  SeedPool(50);
  const ServeOutcome outcome = service_.ServeRequest(gen_.Next(), 1.0);
  EXPECT_FALSE(outcome.generation.model_name.empty());
  EXPECT_GT(outcome.generation.latent_quality, 0.0);
  EXPECT_GT(outcome.generation.e2e_latency_s, 0.0);
  EXPECT_GT(outcome.overhead_latency_s, 0.0);
  EXPECT_GE(outcome.observed_quality, 0.0);
  EXPECT_LE(outcome.observed_quality, 1.0);
}

TEST_F(ServiceFixture, OffloadedRequestsUseExamples) {
  SeedPool(400);
  bool saw_offload = false;
  for (int i = 0; i < 300; ++i) {
    const ServeOutcome outcome = service_.ServeRequest(gen_.Next(), static_cast<double>(i));
    if (outcome.offloaded) {
      saw_offload = true;
      EXPECT_EQ(outcome.generation.model_name, service_.small_model().name);
    } else {
      EXPECT_EQ(outcome.generation.model_name, service_.large_model().name);
      EXPECT_TRUE(outcome.examples_used.empty());
    }
  }
  EXPECT_TRUE(saw_offload);
}

TEST_F(ServiceFixture, MetricsTrackRequestFlow) {
  SeedPool(50);
  for (int i = 0; i < 30; ++i) {
    service_.ServeRequest(gen_.Next(), static_cast<double>(i));
  }
  EXPECT_EQ(service_.metrics_hub().Value("requests_total"), 30.0);
  EXPECT_GE(service_.metrics_hub().Value("requests_offloaded_total"), 0.0);
  EXPECT_LE(service_.metrics_hub().Value("requests_offloaded_total"), 30.0);
  EXPECT_GT(service_.metrics_hub().Value("latency_sum_s"), 0.0);
}

TEST_F(ServiceFixture, SelectorFailureBypassesExamples) {
  SeedPool(100);
  service_.set_selector_failed(true);
  for (int i = 0; i < 20; ++i) {
    const ServeOutcome outcome = service_.ServeRequest(gen_.Next(), static_cast<double>(i));
    EXPECT_TRUE(outcome.examples_used.empty());
  }
  EXPECT_GT(service_.metrics_hub().Value("selector_bypassed"), 0.0);
}

TEST_F(ServiceFixture, RouterFailureFallsBackToLargeBackend) {
  SeedPool(100);
  service_.set_router_failed(true);
  for (int i = 0; i < 20; ++i) {
    const ServeOutcome outcome = service_.ServeRequest(gen_.Next(), static_cast<double>(i));
    EXPECT_FALSE(outcome.offloaded);
    EXPECT_EQ(outcome.generation.model_name, service_.large_model().name);
  }
  EXPECT_GT(service_.metrics_hub().Value("router_bypassed"), 0.0);
}

TEST_F(ServiceFixture, FailureRecoveryRestoresOffloading) {
  SeedPool(100);
  service_.set_router_failed(true);
  service_.ServeRequest(gen_.Next(), 0.0);
  service_.set_router_failed(false);
  bool saw_offload = false;
  for (int i = 0; i < 50; ++i) {
    saw_offload |= service_.ServeRequest(gen_.Next(), static_cast<double>(i)).offloaded;
  }
  EXPECT_TRUE(saw_offload);
}

TEST_F(ServiceFixture, OnlineAdmissionGrowsCache) {
  SeedPool(20);
  const size_t before = service_.cache().size();
  for (int i = 0; i < 50; ++i) {
    service_.ServeRequest(gen_.Next(), static_cast<double>(i));
  }
  EXPECT_GT(service_.cache().size(), before);
}

TEST_F(ServiceFixture, MaintenanceRunsReplayAndDecay) {
  SeedPool(50);
  for (int i = 0; i < 50; ++i) {
    service_.ServeRequest(gen_.Next(), static_cast<double>(i));
  }
  service_.RunMaintenance(3700.0);
  EXPECT_GE(service_.metrics_hub().Value("replay_examined"), 0.0);
}

TEST_F(ServiceFixture, OverheadChargedOnlyWhenComponentsRun) {
  SeedPool(50);
  const ServeOutcome with_components = service_.ServeRequest(gen_.Next(), 0.0);
  const double full_overhead = service_.config().selector_stage1_latency_s +
                               service_.config().selector_stage2_latency_s +
                               service_.config().router_latency_s;
  EXPECT_NEAR(with_components.overhead_latency_s, full_overhead, 1e-9);

  service_.set_selector_failed(true);
  service_.set_router_failed(true);
  const ServeOutcome bypassed = service_.ServeRequest(gen_.Next(), 1.0);
  EXPECT_EQ(bypassed.overhead_latency_s, 0.0);
}

TEST_F(ServiceFixture, LoadObservationReachesRouter) {
  service_.ObserveLoad(0.9);
  EXPECT_NEAR(service_.router().load_ema(), 0.9, 1e-9);
}

TEST(IcCacheClientTest, GenerateAndUpdateCacheFlow) {
  ModelCatalog catalog;
  GenerationSimulator sim(93);
  auto embedder = std::make_shared<HashingEmbedder>();
  IcCacheService service(ServiceConfig{}, &catalog, &sim, embedder);
  QueryGenerator gen(GetDatasetProfile(DatasetId::kAlpaca), 94);

  IcCacheClient client(&service);
  const Request request = gen.Next();
  const GenerationResult response = client.Generate(request);
  EXPECT_GT(response.latent_quality, 0.0);

  const size_t before = service.cache().size();
  Request another = gen.Next();
  client.UpdateCache(another, response);
  EXPECT_EQ(service.cache().size(), before + 1);
  client.Stop();
}

TEST(IcCacheClientTest, BatchGenerateReturnsPerRequestResults) {
  ModelCatalog catalog;
  GenerationSimulator sim(95);
  auto embedder = std::make_shared<HashingEmbedder>();
  IcCacheService service(ServiceConfig{}, &catalog, &sim, embedder);
  QueryGenerator gen(GetDatasetProfile(DatasetId::kAlpaca), 96);

  IcCacheClient client(&service);
  const std::vector<Request> requests = gen.Generate(5);
  const auto responses = client.Generate(requests);
  ASSERT_EQ(responses.size(), 5u);
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(responses[i].request_id, requests[i].id);
  }
}

TEST(DpSynthesisTest, CloneMatchesSourceSizeWithDegradedContent) {
  ModelCatalog catalog;
  GenerationSimulator sim(97);
  auto embedder = std::make_shared<HashingEmbedder>();
  ExampleCache source(embedder);
  QueryGenerator gen(GetDatasetProfile(DatasetId::kLmsysChat), 98);
  for (int i = 0; i < 100; ++i) {
    source.Put(gen.Next(), "r", 0.85, 0.785, 100, 0.0);
  }

  ExampleCacheConfig out_config;
  out_config.admission_mode = CacheAdmissionMode::kAllowAll;
  ExampleCache synthetic(embedder, out_config);
  const DpSynthesisReport report = SynthesizeDpCache(source, &synthetic);

  EXPECT_EQ(report.source_examples, 100u);
  EXPECT_EQ(report.synthesized, 100u);
  EXPECT_EQ(synthetic.size(), 100u);
  EXPECT_GT(report.token_keep_probability, 0.5);
  EXPECT_LT(report.token_keep_probability, 1.0);
  EXPECT_NEAR(report.epsilon_spent, DpSynthesisConfig{}.epsilon, 1e-9);

  // Synthetic responses are (weakly) lower quality than originals.
  double source_quality = 0.0;
  double synth_quality = 0.0;
  for (uint64_t id : source.AllIds()) {
    source_quality += source.Get(id)->response_quality;
  }
  for (uint64_t id : synthetic.AllIds()) {
    synth_quality += synthetic.Get(id)->response_quality;
  }
  EXPECT_LT(synth_quality, source_quality);
}

TEST(DpSynthesisTest, LowerEpsilonReplacesMoreTokens) {
  DpSynthesisConfig strict;
  strict.epsilon = 1.0;
  DpSynthesisConfig loose;
  loose.epsilon = 12.0;
  ModelCatalog catalog;
  auto embedder = std::make_shared<HashingEmbedder>();
  ExampleCache source(embedder);
  QueryGenerator gen(GetDatasetProfile(DatasetId::kLmsysChat), 99);
  for (int i = 0; i < 20; ++i) {
    source.Put(gen.Next(), "r", 0.85, 0.785, 100, 0.0);
  }
  ExampleCacheConfig out_config;
  out_config.admission_mode = CacheAdmissionMode::kAllowAll;
  ExampleCache out_strict(embedder, out_config);
  ExampleCache out_loose(embedder, out_config);
  const DpSynthesisReport strict_report = SynthesizeDpCache(source, &out_strict, strict);
  const DpSynthesisReport loose_report = SynthesizeDpCache(source, &out_loose, loose);
  EXPECT_LT(strict_report.token_keep_probability, loose_report.token_keep_probability);
}

}  // namespace
}  // namespace iccache
