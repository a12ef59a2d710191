#include <algorithm>
#include <memory>

#include <gtest/gtest.h>

#include "src/common/stats.h"
#include "src/core/example_cache.h"
#include "src/core/proxy_model.h"
#include "src/core/selector.h"
#include "src/llm/model_profile.h"
#include "src/workload/query_generator.h"

namespace iccache {
namespace {

std::shared_ptr<const Embedder> SharedEmbedder() {
  return std::make_shared<HashingEmbedder>();
}

TEST(ProxyFeaturesTest, FeatureLayout) {
  const ProxyFeatures f = MakeProxyFeatures(0.8, 0.9, 0.785, 0.60, true, 512);
  EXPECT_EQ(f.x[0], 1.0);
  // Similarity is recentered around the 0.5 anisotropy baseline.
  EXPECT_NEAR(f.x[1], 0.6, 1e-12);
  EXPECT_NEAR(f.x[2], 0.9, 1e-12);
  EXPECT_NEAR(f.x[3], 0.185, 1e-12);
  EXPECT_EQ(f.x[4], 1.0);
  EXPECT_NEAR(f.x[5], 0.5, 1e-12);
  EXPECT_NEAR(f.x[6], 0.54, 1e-12);
}

TEST(ProxyFeaturesTest, InputsClamped) {
  const ProxyFeatures f = MakeProxyFeatures(1.5, -0.5, 2.0, 0.0, false, 1 << 20);
  EXPECT_EQ(f.x[1], 1.0);
  EXPECT_EQ(f.x[2], 0.0);
  EXPECT_EQ(f.x[3], 1.0);
  EXPECT_EQ(f.x[5], 1.0);
}

TEST(ProxyModelTest, PriorFavorsRelevantHighQuality) {
  ProxyUtilityModel model;
  const double good = model.Predict(MakeProxyFeatures(0.95, 0.9, 0.785, 0.6, true, 200));
  const double bad = model.Predict(MakeProxyFeatures(0.1, 0.2, 0.785, 0.6, false, 200));
  EXPECT_GT(good, bad);
}

TEST(ProxyModelTest, PredictionsInUnitInterval) {
  ProxyUtilityModel model;
  for (double sim : {0.0, 0.5, 1.0}) {
    for (double q : {0.0, 0.5, 1.0}) {
      const double p = model.Predict(MakeProxyFeatures(sim, q, 0.8, 0.6, true, 100));
      EXPECT_GE(p, 0.0);
      EXPECT_LE(p, 1.0);
    }
  }
}

TEST(ProxyModelTest, LearnsSyntheticLabelFunction) {
  // Ground truth: an example helps iff it is both similar and high quality.
  ProxyUtilityModel model;
  Rng rng(61);
  for (int i = 0; i < 4000; ++i) {
    const double sim = rng.Uniform();
    const double quality = rng.Uniform();
    const double label = (sim > 0.6 && quality > 0.6) ? 1.0 : 0.0;
    model.Update(MakeProxyFeatures(sim, quality, 0.785, 0.6, true, 200), label);
  }
  EXPECT_GT(model.updates(), 0u);
  const double helpful = model.Predict(MakeProxyFeatures(0.9, 0.9, 0.785, 0.6, true, 200));
  const double useless = model.Predict(MakeProxyFeatures(0.2, 0.3, 0.785, 0.6, true, 200));
  EXPECT_GT(helpful, useless + 0.3);
}

TEST(ProxyModelTest, UpdateMovesPredictionTowardLabel) {
  ProxyUtilityModel model;
  const ProxyFeatures f = MakeProxyFeatures(0.5, 0.5, 0.785, 0.6, true, 200);
  const double before = model.Predict(f);
  for (int i = 0; i < 50; ++i) {
    model.Update(f, 1.0);
  }
  EXPECT_GT(model.Predict(f), before);
  for (int i = 0; i < 200; ++i) {
    model.Update(f, 0.0);
  }
  EXPECT_LT(model.Predict(f), 0.5);
}

class SelectorFixture : public ::testing::Test {
 protected:
  SelectorFixture()
      : profile_(GetDatasetProfile(DatasetId::kMsMarco)),
        gen_(profile_, 71),
        cache_(SharedEmbedder()),
        selector_(&cache_, &proxy_) {
    catalog_ = std::make_unique<ModelCatalog>();
  }

  // Seeds the cache with examples; high quality on even topics, junk on odd.
  void SeedCache(size_t count) {
    Rng rng(72);
    for (size_t i = 0; i < count; ++i) {
      const Request req = gen_.Next();
      const bool good = req.topic_id % 2 == 0;
      cache_.Put(req, "resp", good ? 0.85 + 0.1 * rng.Uniform() : 0.15,
                 /*source_capability=*/0.785, /*response_tokens=*/100, /*now=*/0.0);
    }
  }

  DatasetProfile profile_;
  QueryGenerator gen_;
  ExampleCache cache_;
  ProxyUtilityModel proxy_;
  ExampleSelector selector_;
  std::unique_ptr<ModelCatalog> catalog_;
};

TEST_F(SelectorFixture, EmptyCacheSelectsNothing) {
  const auto selected = selector_.Select(gen_.Next(), catalog_->Get("gemma-2-2b"), 0.0);
  EXPECT_TRUE(selected.empty());
}

TEST_F(SelectorFixture, SelectsAtMostMaxExamples) {
  SeedCache(500);
  for (int i = 0; i < 20; ++i) {
    const auto selected = selector_.Select(gen_.Next(), catalog_->Get("gemma-2-2b"), 0.0);
    EXPECT_LE(selected.size(), selector_.config().max_examples);
  }
}

TEST_F(SelectorFixture, SelectedExamplesAreRelevant) {
  SeedCache(500);
  RunningStat similarity;
  for (int i = 0; i < 50; ++i) {
    for (const auto& sel : selector_.Select(gen_.Next(), catalog_->Get("gemma-2-2b"), 0.0)) {
      similarity.Add(sel.similarity);
    }
  }
  ASSERT_GT(similarity.count(), 0u);
  EXPECT_GT(similarity.mean(), 0.6);
}

TEST_F(SelectorFixture, ThresholdFiltersLowUtility) {
  SeedCache(300);
  selector_.set_utility_threshold(0.99);  // nothing clears this bar
  const auto selected = selector_.Select(gen_.Next(), catalog_->Get("gemma-2-2b"), 0.0);
  EXPECT_TRUE(selected.empty());
}

TEST_F(SelectorFixture, Stage1OnlyIgnoresThreshold) {
  SeedCache(300);
  selector_.set_utility_threshold(0.99);
  const auto selected = selector_.SelectStage1Only(gen_.Next(), catalog_->Get("gemma-2-2b"), 0.0);
  EXPECT_FALSE(selected.empty());
}

TEST_F(SelectorFixture, SelectionRecordsAccesses) {
  SeedCache(200);
  const auto selected = selector_.Select(gen_.Next(), catalog_->Get("gemma-2-2b"), 3.0);
  for (const auto& sel : selected) {
    const Example* example = cache_.Get(sel.example_id);
    ASSERT_NE(example, nullptr);
    EXPECT_GE(example->access_count, 1u);
    EXPECT_EQ(example->last_access_time, 3.0);
  }
}

TEST_F(SelectorFixture, CommitRecordsExactlyOneAccessPerPick) {
  SeedCache(300);
  const ModelProfile& model = catalog_->Get("gemma-2-2b");
  const double threshold = selector_.utility_threshold();
  size_t picks = 0;
  size_t others = 0;
  for (int i = 0; i < 20; ++i) {
    const std::vector<SelectorCandidate> candidates =
        selector_.PrepareCandidates(gen_.Next(), model);
    std::vector<uint64_t> counts;
    std::vector<double> stamps;
    for (const SelectorCandidate& candidate : candidates) {
      counts.push_back(cache_.Get(candidate.id)->access_count);
      stamps.push_back(cache_.Get(candidate.id)->last_access_time);
    }

    const std::vector<size_t> frozen = selector_.CommitSelectionFrozen(candidates, model);
    for (size_t c = 0; c < candidates.size(); ++c) {
      EXPECT_EQ(cache_.Get(candidates[c].id)->access_count, counts[c]);
    }

    const double now = 10.0 + i;
    const std::vector<size_t> picked = selector_.CommitSelection(candidates, model, now);
    EXPECT_EQ(picked, frozen);
    for (size_t c = 0; c < candidates.size(); ++c) {
      const Example* example = cache_.Get(candidates[c].id);
      if (std::find(picked.begin(), picked.end(), c) != picked.end()) {
        EXPECT_EQ(example->access_count, counts[c] + 1);
        EXPECT_EQ(example->last_access_time, now);
        ++picks;
      } else {
        EXPECT_EQ(example->access_count, counts[c]);
        EXPECT_EQ(example->last_access_time, stamps[c]);
        ++others;
      }
    }
  }
  // Twenty requests stay inside one adaptation period: one threshold.
  EXPECT_EQ(selector_.utility_threshold(), threshold);
  EXPECT_GT(picks, 0u);
  EXPECT_GT(others, 0u);
}

TEST_F(SelectorFixture, OrderingPutsBestLast) {
  SeedCache(500);
  for (int i = 0; i < 30; ++i) {
    const auto selected = selector_.Select(gen_.Next(), catalog_->Get("gemma-2-2b"), 0.0);
    if (selected.size() >= 2) {
      EXPECT_LE(selected.front().predicted_utility,
                selected.back().predicted_utility + 1e-9);
    }
  }
}

TEST_F(SelectorFixture, TokenBudgetRespected) {
  SeedCache(300);
  const ModelProfile& model = catalog_->Get("gemma-2-2b");
  const int budget = static_cast<int>(selector_.config().context_budget_fraction *
                                      static_cast<double>(model.context_window));
  for (int i = 0; i < 20; ++i) {
    int tokens = 0;
    for (const auto& sel : selector_.Select(gen_.Next(), model, 0.0)) {
      tokens += cache_.Get(sel.example_id)->PromptTokens();
    }
    EXPECT_LE(tokens, budget);
  }
}

TEST_F(SelectorFixture, TinyContextWindowLimitsSelection) {
  SeedCache(300);
  ModelProfile tiny = catalog_->Get("gemma-2-2b");
  tiny.context_window = 150;  // roughly one example
  for (int i = 0; i < 10; ++i) {
    EXPECT_LE(selector_.Select(gen_.Next(), tiny, 0.0).size(), 1u);
  }
}

TEST_F(SelectorFixture, FeedbackTrainsProxyTowardQualityGains) {
  SeedCache(400);
  const ModelProfile& model = catalog_->Get("gemma-2-2b");
  // Feed positive gains for good-topic examples, negative for junk ones.
  for (int i = 0; i < 300; ++i) {
    const Request req = gen_.Next();
    const auto selected = selector_.Select(req, model, 0.0);
    if (selected.empty()) {
      continue;
    }
    const double gain = (req.topic_id % 2 == 0) ? 0.3 : -0.3;
    selector_.OnFeedback(req, selected, model, gain);
  }
  EXPECT_GT(proxy_.updates(), 0u);
}

TEST_F(SelectorFixture, DuplicateExamplesDeduplicated) {
  // Insert the same text many times; diversity must keep at most one.
  Request req = gen_.Next();
  for (int i = 0; i < 10; ++i) {
    cache_.Put(req, "resp", 0.9, 0.785, 100, 0.0);
  }
  const auto selected = selector_.Select(req, catalog_->Get("gemma-2-2b"), 0.0);
  EXPECT_LE(selected.size(), 1u);
}

TEST_F(SelectorFixture, ThresholdAdaptationPicksProfitableGridPoint) {
  SeedCache(400);
  const ModelProfile& model = catalog_->Get("gemma-2-2b");
  SelectorConfig config;
  config.adapt_every_n_requests = 64;
  ExampleSelector adaptive(&cache_, &proxy_, config);
  // Strong positive gains: the most permissive threshold (more examples kept)
  // accumulates the largest benefit, so adaptation should move down.
  for (int i = 0; i < 200; ++i) {
    const Request req = gen_.Next();
    const auto selected = adaptive.Select(req, model, 0.0);
    if (!selected.empty()) {
      adaptive.OnFeedback(req, selected, model, 0.5);
    }
  }
  EXPECT_LE(adaptive.utility_threshold(), config.initial_utility_threshold + 1e-9);
}

}  // namespace
}  // namespace iccache
