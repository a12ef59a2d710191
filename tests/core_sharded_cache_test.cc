#include "src/core/sharded_cache.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/thread_pool.h"

namespace iccache {
namespace {

Request MakeRequest(uint64_t id, const std::string& text) {
  Request request;
  request.id = id;
  request.text = text;
  request.input_tokens = static_cast<int>(text.size() / 4 + 1);
  return request;
}

std::unique_ptr<ShardedExampleCache> MakeCache(size_t num_shards = 4) {
  ShardedCacheConfig config;
  config.num_shards = num_shards;
  return std::make_unique<ShardedExampleCache>(std::make_shared<HashingEmbedder>(), config);
}

TEST(ShardedExampleCacheTest, ShardCountRoundsUpToPowerOfTwo) {
  EXPECT_EQ(MakeCache(1)->num_shards(), 1u);
  EXPECT_EQ(MakeCache(3)->num_shards(), 4u);
  EXPECT_EQ(MakeCache(8)->num_shards(), 8u);
  EXPECT_EQ(MakeCache(9)->num_shards(), 16u);
}

TEST(ShardedExampleCacheTest, PutAssignsGloballyUniqueIds) {
  auto cache = MakeCache();
  std::set<uint64_t> ids;
  for (uint64_t i = 1; i <= 200; ++i) {
    const uint64_t id = cache->Put(MakeRequest(i, "query number " + std::to_string(i)),
                                   "response", 0.8, 0.9, 20, 0.0);
    ASSERT_NE(id, 0u);
    EXPECT_TRUE(ids.insert(id).second) << "duplicate id " << id;
  }
  EXPECT_EQ(cache->size(), 200u);
  EXPECT_EQ(cache->AllIds().size(), 200u);
  EXPECT_GT(cache->used_bytes(), 0);
}

TEST(ShardedExampleCacheTest, SnapshotRoundTripsThroughGlobalId) {
  auto cache = MakeCache();
  const Request request = MakeRequest(42, "how do i reverse a linked list");
  const uint64_t id = cache->Put(request, "walk and flip the pointers", 0.77, 0.9, 30, 1.5);
  ASSERT_NE(id, 0u);

  Example example;
  ASSERT_TRUE(cache->Snapshot(id, &example));
  EXPECT_EQ(example.id, id);  // snapshot exposes the global id
  EXPECT_EQ(example.request.text, request.text);
  EXPECT_EQ(example.response_text, "walk and flip the pointers");
  EXPECT_DOUBLE_EQ(example.response_quality, 0.77);
  EXPECT_EQ(example.response_tokens, 30);
  EXPECT_TRUE(cache->Contains(id));
  EXPECT_FALSE(cache->Contains(id + 1024));
}

TEST(ShardedExampleCacheTest, FindSimilarRetrievesTheMatchingEntry) {
  auto cache = MakeCache();
  std::vector<uint64_t> ids;
  const std::vector<std::string> texts = {
      "sort an array of integers quickly",
      "translate good morning into french",
      "derivative of x squared times sin x",
      "write a bash loop over files in a directory",
  };
  for (size_t i = 0; i < texts.size(); ++i) {
    ids.push_back(cache->Put(MakeRequest(i + 1, texts[i]), "r", 0.8, 0.9, 10, 0.0));
  }
  for (size_t i = 0; i < texts.size(); ++i) {
    const auto results = cache->FindSimilar(MakeRequest(99, texts[i]), 2);
    ASSERT_FALSE(results.empty());
    EXPECT_EQ(results[0].id, ids[i]) << "query: " << texts[i];
    EXPECT_GT(results[0].score, 0.95);
  }
}

TEST(ShardedExampleCacheTest, FindSimilarMergesBestFirstAcrossShards) {
  auto cache = MakeCache(4);
  for (uint64_t i = 1; i <= 64; ++i) {
    cache->Put(MakeRequest(i, "topic " + std::to_string(i % 8) + " variant " +
                                  std::to_string(i)),
               "r", 0.8, 0.9, 10, 0.0);
  }
  const auto results = cache->FindSimilar(MakeRequest(999, "topic 3 variant 11"), 10);
  ASSERT_EQ(results.size(), 10u);
  for (size_t i = 1; i < results.size(); ++i) {
    EXPECT_GE(results[i - 1].score, results[i].score) << "results must be sorted best-first";
  }
}

TEST(ShardedExampleCacheTest, RemoveDeletesAcrossShards) {
  auto cache = MakeCache();
  std::vector<uint64_t> ids;
  for (uint64_t i = 1; i <= 20; ++i) {
    ids.push_back(cache->Put(MakeRequest(i, "q" + std::to_string(i)), "r", 0.8, 0.9, 10, 0.0));
  }
  for (uint64_t id : ids) {
    EXPECT_TRUE(cache->Remove(id));
    EXPECT_FALSE(cache->Contains(id));
  }
  EXPECT_EQ(cache->size(), 0u);
  EXPECT_FALSE(cache->Remove(ids[0]));  // already gone
}

TEST(ShardedExampleCacheTest, OffloadAndAccessBookkeepingLandOnTheRightShard) {
  auto cache = MakeCache();
  const uint64_t id = cache->Put(MakeRequest(7, "bookkeeping probe"), "r", 0.6, 0.9, 10, 0.0);
  cache->RecordAccess(id, 3.0);
  cache->RecordOffload(id, 2.0);
  Example example;
  ASSERT_TRUE(cache->Snapshot(id, &example));
  EXPECT_EQ(example.access_count, 1u);
  EXPECT_DOUBLE_EQ(example.last_access_time, 3.0);
  EXPECT_DOUBLE_EQ(example.offload_value, 2.0);

  cache->DecayTick();
  ASSERT_TRUE(cache->Snapshot(id, &example));
  EXPECT_LT(example.offload_value, 2.0);
}

TEST(ShardedExampleCacheTest, PutPreparedMatchesOneShotPut) {
  auto cache = MakeCache();
  const Request request = MakeRequest(11, "prepared admission path probe");
  const PreparedAdmission prepared = cache->PrepareAdmission(request);
  ASSERT_TRUE(prepared.admit);
  EXPECT_EQ(prepared.sanitized_text, request.text);  // no PII to scrub
  EXPECT_EQ(prepared.embedding.size(), cache->embedder()->dim());

  const uint64_t id = cache->PutPrepared(request, prepared, "r", 0.8, 0.9, 10, 0.0);
  ASSERT_NE(id, 0u);
  const auto results = cache->FindSimilar(request, 1);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].id, id);
}

TEST(ShardedExampleCacheTest, CapacityIsEnforcedGlobally) {
  ShardedCacheConfig config;
  config.num_shards = 2;
  config.cache.capacity_bytes = 4096;  // total; global watermark accounting
  ShardedExampleCache cache(std::make_shared<HashingEmbedder>(), config);
  for (uint64_t i = 1; i <= 200; ++i) {
    cache.Put(MakeRequest(i, "filler entry number " + std::to_string(i)), "some response text",
              0.8, 0.9, 50, 0.0);
  }
  EXPECT_LT(cache.size(), 200u);  // eviction must have triggered
  EXPECT_LE(cache.used_bytes(), 4096);
}

// FindSimilarBatch must return byte-for-byte what per-query FindSimilar
// returns — same ids, same scores, same order — at batch sizes of one, of
// a few queries, and of more queries than the shards hold, and on both the
// flat and hnsw shard backends. Batching is a locking and cache-locality
// optimisation only.
TEST(ShardedExampleCacheTest, FindSimilarBatchMatchesPerQuerySearch) {
  for (const RetrievalBackendKind kind :
       {RetrievalBackendKind::kFlat, RetrievalBackendKind::kHnsw}) {
    ShardedCacheConfig config;
    config.num_shards = 4;
    config.cache.retrieval.kind = kind;
    ShardedExampleCache cache(std::make_shared<HashingEmbedder>(), config);
    for (uint64_t i = 1; i <= 300; ++i) {
      cache.Put(MakeRequest(i, "pooled example text " + std::to_string(i * 37)),
                "response", 0.8, 0.9, 25, 0.0);
    }

    const size_t dim = cache.embedder()->dim();
    std::vector<std::vector<float>> embeddings;
    for (int q = 0; q < 33; ++q) {
      embeddings.push_back(
          cache.embedder()->Embed("probe query " + std::to_string(q * 11)));
    }

    SearchScratch scratch;
    for (const size_t batch : {size_t{1}, size_t{7}, size_t{33}}) {
      std::vector<float> arena(batch * dim);
      for (size_t i = 0; i < batch; ++i) {
        std::copy(embeddings[i].begin(), embeddings[i].end(), arena.begin() + i * dim);
      }
      std::vector<std::vector<SearchResult>> batched;
      cache.FindSimilarBatch(arena.data(), batch, dim, 10, &scratch, &batched);
      ASSERT_EQ(batched.size(), batch);
      for (size_t i = 0; i < batch; ++i) {
        const std::vector<SearchResult> single = cache.FindSimilar(embeddings[i], 10);
        ASSERT_EQ(batched[i].size(), single.size()) << "kind=" << static_cast<int>(kind)
                                                    << " batch=" << batch << " q=" << i;
        for (size_t r = 0; r < single.size(); ++r) {
          EXPECT_EQ(batched[i][r].id, single[r].id);
          EXPECT_EQ(batched[i][r].score, single[r].score);
        }
      }
    }
  }
}

// Writers and readers hammer the cache from a thread pool at once; the test
// asserts the end state is exact (every admission landed, ids unique) and no
// reader ever observes a torn entry.
TEST(ShardedExampleCacheTest, ConcurrentPutsAndSearchesAreSafe) {
  auto cache = MakeCache(8);
  constexpr int kWriters = 4;
  constexpr int kPutsPerWriter = 100;
  constexpr int kReaders = 4;

  ThreadPool pool(8);
  std::atomic<int> torn_reads{0};
  for (int w = 0; w < kWriters; ++w) {
    pool.Submit([&cache, w] {
      for (int i = 0; i < kPutsPerWriter; ++i) {
        const uint64_t rid = static_cast<uint64_t>(w) * 10000 + static_cast<uint64_t>(i) + 1;
        cache->Put(MakeRequest(rid, "writer " + std::to_string(w) + " item " +
                                        std::to_string(i)),
                   "response body", 0.8, 0.9, 25, 0.0);
      }
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    pool.Submit([&cache, &torn_reads, r] {
      for (int i = 0; i < 200; ++i) {
        const auto results =
            cache->FindSimilar(MakeRequest(0, "writer 1 item " + std::to_string(i % 50)), 4);
        for (const SearchResult& result : results) {
          Example example;
          if (cache->Snapshot(result.id, &example)) {
            if (example.request.text.empty() || example.response_text.empty()) {
              torn_reads.fetch_add(1);
            }
          }
        }
        (void)r;
      }
    });
  }
  pool.Wait();

  EXPECT_EQ(torn_reads.load(), 0);
  EXPECT_EQ(cache->size(), static_cast<size_t>(kWriters * kPutsPerWriter));
  const std::vector<uint64_t> ids = cache->AllIds();
  EXPECT_EQ(std::set<uint64_t>(ids.begin(), ids.end()).size(),
            static_cast<size_t>(kWriters * kPutsPerWriter));
}

}  // namespace
}  // namespace iccache
