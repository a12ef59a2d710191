#include "src/core/manager.h"

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/core/example_cache.h"
#include "src/core/selector.h"
#include "src/core/sharded_cache.h"
#include "src/workload/query_generator.h"

namespace iccache {
namespace {

// Unit vector whose cosine with unit vector `v` is `cosine`: v plus a random
// direction orthogonal to it, scaled so the angle comes out exact.
std::vector<float> AtCosine(const std::vector<float>& v, double cosine, Rng& rng) {
  std::vector<double> r(v.size());
  double along = 0.0;
  for (size_t d = 0; d < v.size(); ++d) {
    r[d] = rng.Normal();
    along += r[d] * v[d];
  }
  double norm = 0.0;
  for (size_t d = 0; d < v.size(); ++d) {
    r[d] -= along * v[d];
    norm += r[d] * r[d];
  }
  const double sine = std::sqrt(1.0 - cosine * cosine) / std::sqrt(norm);
  std::vector<float> out(v.size());
  for (size_t d = 0; d < v.size(); ++d) {
    out[d] = static_cast<float>(cosine * v[d] + sine * r[d]);
  }
  return out;
}

// The driver answers the admission near-duplicate check from the top-1 of
// the request's stage-1 row (FindSimilarBatch at k = stage1_candidates)
// instead of a k=1 search of its own. On every backend, over 8 shards that
// each hold tombstones, the two top scores must be bit-identical and
// PrepareAdmission must reach the same verdict either way. Queries are
// verbatim re-queries of live and removed pool members, near-duplicates on
// both sides of the 0.995 dedupe line, and fresh traffic.
TEST(ManagerDedupeTest, Stage1TopScoreAnswersTheK1Probe) {
  struct Backend {
    const char* name;
    RetrievalBackendKind kind;
    QuantizationKind quantize;
  };
  const Backend backends[] = {
      {"flat", RetrievalBackendKind::kFlat, QuantizationKind::kNone},
      {"kmeans", RetrievalBackendKind::kKMeans, QuantizationKind::kNone},
      {"hnsw", RetrievalBackendKind::kHnsw, QuantizationKind::kNone},
      {"hnsw-int8", RetrievalBackendKind::kHnsw, QuantizationKind::kInt8},
  };
  const size_t k = SelectorConfig().stage1_candidates;
  ModelCatalog catalog;
  GenerationSimulator sim(82);
  for (const Backend& backend : backends) {
    SCOPED_TRACE(backend.name);
    ShardedCacheConfig config;
    ASSERT_EQ(config.num_shards, 8u);
    config.cache.retrieval.kind = backend.kind;
    config.cache.retrieval.quantize = backend.quantize;
    ShardedExampleCache cache(std::make_shared<HashingEmbedder>(), config);
    ExampleManager manager(&cache, &sim, catalog.Get("gemma-2-27b"));
    const double line = manager.config().dedupe_similarity;

    QueryGenerator gen(GetDatasetProfile(DatasetId::kLmsysChat), 91);
    std::vector<Request> pooled;
    // 500 examples per shard: enough that an hnsw beam narrower than k would
    // miss some top-1s (ef_search = 8 fails this test).
    for (int i = 0; i < 4000; ++i) {
      pooled.push_back(gen.Next());
      ASSERT_NE(cache.Put(pooled.back(), "r", 0.8, 0.9, 40, 0.0), 0u);
    }
    // Every fifth example becomes a tombstone: a fifth of each shard's slots,
    // under the hnsw compaction fraction, so the filter runs inside the
    // searches.
    const std::vector<uint64_t> ids = cache.AllIds();
    for (size_t i = 0; i < ids.size(); i += 5) {
      ASSERT_TRUE(cache.Remove(ids[i]));
    }

    Rng rng(93);
    std::vector<std::vector<float>> queries;
    for (size_t i = 0; i < pooled.size(); i += 25) {
      const std::vector<float> verbatim = cache.embedder()->Embed(pooled[i].text);
      queries.push_back(verbatim);
      for (const double cosine : {0.9995, 0.997, 0.9955, 0.9945, 0.993, 0.985}) {
        queries.push_back(AtCosine(verbatim, cosine, rng));
      }
    }
    for (int i = 0; i < 40; ++i) {
      queries.push_back(cache.embedder()->Embed(gen.Next().text));
    }

    const size_t dim = cache.embedder()->dim();
    std::vector<float> arena;
    for (const std::vector<float>& q : queries) {
      arena.insert(arena.end(), q.begin(), q.end());
    }
    SearchScratch scratch;
    std::vector<std::vector<SearchResult>> rows;
    cache.FindSimilarBatch(arena.data(), queries.size(), dim, k, &scratch, &rows);
    ASSERT_EQ(rows.size(), queries.size());

    size_t below = 0;
    size_t above = 0;
    for (size_t i = 0; i < queries.size(); ++i) {
      const std::vector<SearchResult> probe = cache.FindSimilar(queries[i], 1);
      ASSERT_FALSE(probe.empty()) << "query " << i;
      ASSERT_FALSE(rows[i].empty()) << "query " << i;
      EXPECT_EQ(rows[i][0].score, probe[0].score) << "query " << i;

      const Request& request = pooled[i % pooled.size()];
      const bool fused = manager.PrepareAdmission(request, &queries[i], &rows[i]).duplicate;
      EXPECT_EQ(fused, manager.PrepareAdmission(request, &queries[i]).duplicate)
          << "query " << i;
      EXPECT_EQ(fused, probe[0].score >= line) << "query " << i;
      if (probe[0].score >= line && probe[0].score < line + 0.003) {
        ++above;
      } else if (probe[0].score < line && probe[0].score >= line - 0.003) {
        ++below;
      }
    }
    // The edge itself was exercised from both sides.
    EXPECT_GT(above, 0u);
    EXPECT_GT(below, 0u);
  }
}

class ManagerFixture : public ::testing::Test {
 protected:
  ManagerFixture()
      : gen_(GetDatasetProfile(DatasetId::kNaturalQuestions), 81),
        cache_(std::make_shared<HashingEmbedder>()),
        sim_(82),
        manager_(&cache_, &sim_, catalog_.Get("gemma-2-27b")) {}

  GenerationResult FakeGeneration(double quality, int tokens = 120) {
    GenerationResult result;
    result.latent_quality = quality;
    result.output_tokens = tokens;
    return result;
  }

  ModelCatalog catalog_;
  QueryGenerator gen_;
  ExampleCache cache_;
  GenerationSimulator sim_;
  ExampleManager manager_;
};

TEST_F(ManagerFixture, AdmitsLargeModelResponses) {
  const uint64_t id =
      manager_.MaybeAdmit(gen_.Next(), FakeGeneration(0.4), 0.785, /*from_large_model=*/true, 0.0);
  EXPECT_NE(id, 0u);
  EXPECT_EQ(cache_.size(), 1u);
}

TEST_F(ManagerFixture, RejectsLowQualitySmallModelResponses) {
  const uint64_t id = manager_.MaybeAdmit(gen_.Next(), FakeGeneration(0.4), 0.6,
                                          /*from_large_model=*/false, 0.0);
  EXPECT_EQ(id, 0u);
  EXPECT_EQ(cache_.size(), 0u);
}

TEST_F(ManagerFixture, AdmitsHighQualitySmallModelResponses) {
  const uint64_t id = manager_.MaybeAdmit(gen_.Next(), FakeGeneration(0.9), 0.6,
                                          /*from_large_model=*/false, 0.0);
  EXPECT_NE(id, 0u);
}

TEST_F(ManagerFixture, DeduplicatesNearIdenticalRequests) {
  const Request req = gen_.Next();
  EXPECT_NE(manager_.MaybeAdmit(req, FakeGeneration(0.8), 0.785, true, 0.0), 0u);
  EXPECT_EQ(manager_.MaybeAdmit(req, FakeGeneration(0.8), 0.785, true, 1.0), 0u);
  EXPECT_EQ(cache_.size(), 1u);
}

TEST_F(ManagerFixture, RecordUsageFoldsGainIntoEma) {
  const uint64_t id = manager_.MaybeAdmit(gen_.Next(), FakeGeneration(0.8), 0.785, true, 0.0);
  const double before = cache_.Get(id)->replay_gain_ema;
  // Low-quality outcome at full large-model cost: G = (1-0.2)*1.0 = 0.8.
  manager_.RecordUsage({id}, /*response_quality=*/0.2, /*normalized_model_cost=*/1.0);
  const double after = cache_.Get(id)->replay_gain_ema;
  EXPECT_GT(after, before);
  // High-quality cheap outcome shrinks the EMA back down.
  for (int i = 0; i < 20; ++i) {
    manager_.RecordUsage({id}, 0.95, 0.1);
  }
  EXPECT_LT(cache_.Get(id)->replay_gain_ema, after);
}

TEST_F(ManagerFixture, RecordUsageIgnoresUnknownIds) {
  manager_.RecordUsage({12345}, 0.5, 1.0);
  SUCCEED();
}

TEST_F(ManagerFixture, ReplayImprovesLowQualityHotExamples) {
  // A frequently accessed, low-quality example must be replayed and improved.
  const Request req = gen_.Next();
  const uint64_t id = cache_.Put(req, "r", 0.2, 0.785, 100, 0.0);
  Example* example = cache_.GetMutable(id);
  example->replay_gain_ema = 0.9;
  example->access_count = 40;
  const double before = example->response_quality;

  const ReplayReport report = manager_.RunReplayPass();
  EXPECT_EQ(report.candidates, 1u);
  EXPECT_EQ(report.replayed, 1u);
  EXPECT_GE(cache_.Get(id)->response_quality, before);
  EXPECT_EQ(cache_.Get(id)->replay_count, 1);
}

TEST_F(ManagerFixture, ReplayRespectsLifetimeCap) {
  const uint64_t id = cache_.Put(gen_.Next(), "r", 0.2, 0.785, 100, 0.0);
  Example* example = cache_.GetMutable(id);
  example->access_count = 40;
  for (int pass = 0; pass < 10; ++pass) {
    example = cache_.GetMutable(id);
    example->replay_gain_ema = 0.9;  // keep it attractive
    manager_.RunReplayPass();
  }
  EXPECT_LE(cache_.Get(id)->replay_count, manager_.config().max_replays_per_example);
}

TEST_F(ManagerFixture, ReplayCutoffSkipsColdLowGainExamples) {
  // Cold example with negligible gain: the cost-aware cutoff must skip it.
  const uint64_t id = cache_.Put(gen_.Next(), "r", 0.9, 0.785, 100, 0.0);
  Example* example = cache_.GetMutable(id);
  example->replay_gain_ema = 0.01;
  example->access_count = 0;
  const ReplayReport report = manager_.RunReplayPass();
  EXPECT_EQ(report.replayed, 0u);
  EXPECT_EQ(cache_.Get(id)->replay_count, 0);
}

TEST_F(ManagerFixture, ReplayOrderedByGainStopsAtCutoff) {
  // Two hot examples above the cutoff, one cold below: exactly two replays.
  for (int i = 0; i < 2; ++i) {
    const uint64_t id = cache_.Put(gen_.Next(), "r", 0.2, 0.785, 100, 0.0);
    Example* example = cache_.GetMutable(id);
    example->replay_gain_ema = 0.8;
    example->access_count = 30;
  }
  const uint64_t cold = cache_.Put(gen_.Next(), "r", 0.9, 0.785, 100, 0.0);
  cache_.GetMutable(cold)->replay_gain_ema = 0.001;
  const ReplayReport report = manager_.RunReplayPass();
  EXPECT_EQ(report.replayed, 2u);
}

TEST_F(ManagerFixture, ReplayBatchBounded) {
  ManagerConfig config;
  config.max_replays_per_pass = 5;
  ExampleManager bounded(&cache_, &sim_, catalog_.Get("gemma-2-27b"), config);
  for (int i = 0; i < 20; ++i) {
    const uint64_t id = cache_.Put(gen_.Next(), "r", 0.2, 0.785, 100, 0.0);
    Example* example = cache_.GetMutable(id);
    example->replay_gain_ema = 0.9;
    example->access_count = 50;
  }
  EXPECT_EQ(bounded.RunReplayPass().replayed, 5u);
}

TEST_F(ManagerFixture, MaintenanceDecaysOnlyAfterInterval) {
  const uint64_t id = cache_.Put(gen_.Next(), "r", 0.5, 0.785, 100, 0.0);
  cache_.RecordOffload(id, 10.0);
  manager_.MaybeRunMaintenance(100.0);  // within the first hour: no decay
  EXPECT_NEAR(cache_.Get(id)->offload_value, 10.0, 1e-9);
  manager_.MaybeRunMaintenance(3700.0);
  EXPECT_NEAR(cache_.Get(id)->offload_value, 9.0, 1e-9);
  // Re-running within the same hour is a no-op.
  manager_.MaybeRunMaintenance(3800.0);
  EXPECT_NEAR(cache_.Get(id)->offload_value, 9.0, 1e-9);
}

TEST_F(ManagerFixture, ReplayUpgradesSourceCapability) {
  const uint64_t id = cache_.Put(gen_.Next(), "r", 0.1, 0.3, 100, 0.0);
  Example* example = cache_.GetMutable(id);
  example->replay_gain_ema = 0.9;
  example->access_count = 40;
  manager_.RunReplayPass();
  // Replay regenerates on the 27B model; an improved response must carry the
  // replay model's capability.
  if (cache_.Get(id)->response_quality > 0.1) {
    EXPECT_NEAR(cache_.Get(id)->source_capability, catalog_.Get("gemma-2-27b").capability, 1e-9);
  }
}

}  // namespace
}  // namespace iccache
