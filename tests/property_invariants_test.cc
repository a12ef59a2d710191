// Property-style invariant sweeps across modules: randomized operation
// sequences and parameter grids asserting the structural invariants the
// system relies on, independent of calibration.
#include <algorithm>
#include <memory>
#include <set>

#include <gtest/gtest.h>

#include "src/core/example_cache.h"
#include "src/core/selector.h"
#include "src/core/service.h"
#include "src/serving/cluster.h"
#include "src/workload/query_generator.h"

namespace iccache {
namespace {

// ---------------------------------------------------------------------------
// Cache invariants under randomized op sequences (fuzz-style).

class CacheFuzzSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CacheFuzzSweep, UsedBytesAndIndexStayConsistent) {
  Rng rng(GetParam());
  auto embedder = std::make_shared<HashingEmbedder>();
  ExampleCacheConfig config;
  config.capacity_bytes = 64 * 1024;
  config.high_watermark = 1e12;  // evict only when asked
  ExampleCache cache(embedder, config);
  QueryGenerator gen(GetDatasetProfile(DatasetId::kLmsysChat), GetParam() ^ 0xf);

  std::vector<uint64_t> live;
  for (int op = 0; op < 600; ++op) {
    const double dice = rng.Uniform();
    if (dice < 0.55 || live.empty()) {
      const uint64_t id = cache.Put(gen.Next(), "r", rng.Uniform(), 0.785,
                                    static_cast<int>(rng.UniformInt(20, 400)), op);
      if (id != 0) {
        live.push_back(id);
      }
    } else if (dice < 0.75) {
      const size_t pick = rng.UniformInt(live.size());
      EXPECT_TRUE(cache.Remove(live[pick]));
      live.erase(live.begin() + static_cast<long>(pick));
    } else if (dice < 0.9) {
      cache.RecordOffload(live[rng.UniformInt(live.size())], rng.Uniform());
    } else {
      const auto evicted = cache.EnforceCapacity();
      for (uint64_t id : evicted) {
        live.erase(std::remove(live.begin(), live.end(), id), live.end());
      }
      EXPECT_LE(cache.used_bytes(), config.capacity_bytes);
    }

    // Invariant: size matches the live set; used_bytes equals the sum of
    // live example sizes.
    ASSERT_EQ(cache.size(), live.size());
    int64_t expected_bytes = 0;
    for (uint64_t id : live) {
      const Example* example = cache.Get(id);
      ASSERT_NE(example, nullptr);
      expected_bytes += example->SizeBytes();
    }
    ASSERT_EQ(cache.used_bytes(), expected_bytes);
  }

  // Index consistency: every search result resolves to a live example.
  for (const auto& result : cache.FindSimilar(gen.Next(), 20)) {
    EXPECT_NE(cache.Get(result.id), nullptr);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CacheFuzzSweep, ::testing::Values(1ull, 2ull, 3ull, 5ull, 8ull));

// ---------------------------------------------------------------------------
// Cluster conservation laws across batch sizes and loads.

struct ClusterParam {
  int max_batch;
  double rps;
  int requests;
};

class ClusterConservationSweep : public ::testing::TestWithParam<ClusterParam> {};

TEST_P(ClusterConservationSweep, EveryRequestCompletesExactlyOnceInCausalOrder) {
  const ClusterParam param = GetParam();
  ModelCatalog catalog;
  ClusterSim cluster;
  ServerConfig server_config;
  server_config.max_batch_size = param.max_batch;
  cluster.AddPool(catalog.Get("gemma-2-2b"), 2, server_config);

  Rng rng(42);
  for (int i = 0; i < param.requests; ++i) {
    ServingRequest req;
    req.id = static_cast<uint64_t>(i + 1);
    req.arrival_time = static_cast<double>(i) / param.rps;
    req.prompt_tokens = static_cast<int>(rng.UniformInt(10, 300));
    req.output_tokens = static_cast<int>(rng.UniformInt(5, 200));
    ASSERT_TRUE(cluster.Submit("gemma-2-2b", req).ok());
  }
  cluster.RunUntilIdle();

  // Conservation: each submitted id completes exactly once.
  std::set<uint64_t> completed;
  for (const CompletionRecord& record : cluster.completions()) {
    EXPECT_TRUE(completed.insert(record.id).second) << "duplicate completion";
    // Causality: arrival <= admission <= first token <= completion.
    EXPECT_LE(record.arrival_time, record.admission_time + 1e-9);
    EXPECT_LE(record.admission_time, record.first_token_time + 1e-9);
    EXPECT_LE(record.first_token_time, record.completion_time + 1e-9);
    EXPECT_GT(record.output_tokens, 0);
  }
  EXPECT_EQ(completed.size(), static_cast<size_t>(param.requests));
  EXPECT_EQ(cluster.PoolInFlight("gemma-2-2b"), 0u);
}

INSTANTIATE_TEST_SUITE_P(Grids, ClusterConservationSweep,
                         ::testing::Values(ClusterParam{1, 5.0, 60}, ClusterParam{4, 5.0, 120},
                                           ClusterParam{16, 20.0, 200},
                                           ClusterParam{16, 1000.0, 300},
                                           ClusterParam{8, 0.5, 30}));

// ---------------------------------------------------------------------------
// Selection invariants across datasets and model pairs.

struct SelectionParam {
  DatasetId dataset;
  const char* small_model;
};

class SelectionInvariantSweep : public ::testing::TestWithParam<SelectionParam> {};

TEST_P(SelectionInvariantSweep, SelectionRespectsStructuralInvariants) {
  const SelectionParam param = GetParam();
  DatasetProfile profile = GetDatasetProfile(param.dataset);
  profile.num_topics = std::max<size_t>(60, profile.num_topics / 20);
  QueryGenerator gen(profile, 0x99);
  auto embedder = std::make_shared<HashingEmbedder>();
  ExampleCache cache(embedder);
  ProxyUtilityModel proxy;
  ExampleSelector selector(&cache, &proxy);
  ModelCatalog catalog;
  const ModelProfile& model = catalog.Get(param.small_model);
  Rng rng(0x9a);
  for (int i = 0; i < 600; ++i) {
    cache.Put(gen.Next(), "r", rng.Uniform(0.3, 1.0), 0.8, 120, 0.0);
  }

  for (int i = 0; i < 40; ++i) {
    const Request req = gen.Next();
    const auto selected = selector.Select(req, model, static_cast<double>(i));
    // Bounded count, unique ids, live ids, utilities above threshold, sorted
    // ascending (best last), similarities above the stage-1 floor.
    EXPECT_LE(selected.size(), selector.config().max_examples);
    std::set<uint64_t> ids;
    for (size_t k = 0; k < selected.size(); ++k) {
      EXPECT_TRUE(ids.insert(selected[k].example_id).second);
      EXPECT_NE(cache.Get(selected[k].example_id), nullptr);
      EXPECT_GE(selected[k].predicted_utility, selector.utility_threshold() - 1e-9);
      EXPECT_GE(selected[k].similarity, selector.config().stage1_min_similarity - 1e-9);
      if (k > 0) {
        EXPECT_LE(selected[k - 1].predicted_utility, selected[k].predicted_utility + 1e-9);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grids, SelectionInvariantSweep,
    ::testing::Values(SelectionParam{DatasetId::kMsMarco, "gemma-2-2b"},
                      SelectionParam{DatasetId::kLmsysChat, "gemini-1.5-flash"},
                      SelectionParam{DatasetId::kNl2Bash, "qwen2.5-3b"},
                      SelectionParam{DatasetId::kMath500, "phi-3-mini"},
                      SelectionParam{DatasetId::kWmt16, "qwen2.5-7b"}));

// ---------------------------------------------------------------------------
// Service-level invariants across model pairs (the outcome contract).

class ServiceContractSweep
    : public ::testing::TestWithParam<std::pair<std::string, std::string>> {};

TEST_P(ServiceContractSweep, OutcomeContractHolds) {
  ModelCatalog catalog;
  GenerationSimulator sim(0xc0);
  auto embedder = std::make_shared<HashingEmbedder>();
  ServiceConfig config;
  config.large_model = GetParam().first;
  config.small_model = GetParam().second;
  IcCacheService service(config, &catalog, &sim, embedder);
  DatasetProfile profile = GetDatasetProfile(DatasetId::kMsMarco);
  profile.num_topics = 120;
  QueryGenerator gen(profile, 0xc1);
  for (int i = 0; i < 200; ++i) {
    service.SeedExample(gen.Next(), 0.0);
  }
  service.PretrainProxy(200);

  for (int i = 0; i < 120; ++i) {
    const ServeOutcome outcome = service.ServeRequest(gen.Next(), static_cast<double>(i));
    // The serving model matches the offload flag; examples only on offload;
    // quality and latency are well-formed.
    if (outcome.offloaded) {
      EXPECT_EQ(outcome.generation.model_name, GetParam().second);
    } else {
      EXPECT_EQ(outcome.generation.model_name, GetParam().first);
      EXPECT_TRUE(outcome.examples_used.empty());
    }
    EXPECT_GE(outcome.generation.latent_quality, 0.0);
    EXPECT_LE(outcome.generation.latent_quality, 1.0);
    EXPECT_GT(outcome.generation.e2e_latency_s, 0.0);
    EXPECT_GE(outcome.generation.prompt_tokens, 0);
  }
  EXPECT_EQ(service.metrics_hub().Value("requests_total"), 120.0);
}

INSTANTIATE_TEST_SUITE_P(Pairs, ServiceContractSweep,
                         ::testing::Values(ModelCatalog::GemmaPair(), ModelCatalog::GeminiPair(),
                                           ModelCatalog::DeepSeekPair(), ModelCatalog::QwenPair(),
                                           ModelCatalog::PhiPair()));

}  // namespace
}  // namespace iccache
