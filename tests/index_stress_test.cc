// Concurrency stress for the retrieval subsystem: interleaved Add / Remove /
// Search on the HNSW index and on ShardedExampleCache with the HNSW backend,
// driven from ThreadPool workers. These suites are the core of the
// ThreadSanitizer CI job (see .github/workflows/ci.yml) — keep them free of
// test-side sharing that would mask real races.
#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/binio.h"
#include "src/common/mathutil.h"
#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/core/sharded_cache.h"
#include "src/index/hnsw.h"

namespace iccache {
namespace {

std::vector<float> RandomUnitVector(Rng& rng, size_t dim) {
  std::vector<float> v(dim);
  for (auto& x : v) {
    x = static_cast<float>(rng.Normal());
  }
  NormalizeL2(v);
  return v;
}

// Interleaved Add/Remove/Search from many workers. Each worker owns a
// disjoint id range so the final live set is checkable; removes target the
// worker's own already-inserted ids so every Remove outcome is deterministic
// per worker even though the interleaving is not.
TEST(HnswStressTest, ConcurrentAddRemoveSearch) {
  const size_t dim = 16;
  const size_t kWorkers = 8;
  const size_t kOpsPerWorker = 400;

  HnswIndexConfig config;
  config.dim = dim;
  config.min_tombstones_to_compact = 32;  // make compaction fire mid-stress
  HnswIndex index(config);

  std::atomic<size_t> total_added{0};
  std::atomic<size_t> total_removed{0};
  ThreadPool pool(kWorkers);
  for (size_t w = 0; w < kWorkers; ++w) {
    pool.Submit([&index, &total_added, &total_removed, w] {
      Rng rng(0x57e55ull + w);
      std::vector<uint64_t> mine;
      uint64_t next_id = (w + 1) << 32;  // disjoint id space per worker
      for (size_t op = 0; op < kOpsPerWorker; ++op) {
        const double dice = rng.Uniform();
        if (dice < 0.55 || mine.empty()) {
          const uint64_t id = next_id++;
          ASSERT_TRUE(index.Add(id, RandomUnitVector(rng, dim)).ok());
          mine.push_back(id);
          total_added.fetch_add(1, std::memory_order_relaxed);
        } else if (dice < 0.75) {
          const size_t pick = rng.UniformInt(mine.size());
          ASSERT_TRUE(index.Remove(mine[pick]));
          mine.erase(mine.begin() + static_cast<long>(pick));
          total_removed.fetch_add(1, std::memory_order_relaxed);
        } else {
          const auto results = index.Search(RandomUnitVector(rng, dim), 10);
          for (size_t i = 1; i < results.size(); ++i) {
            ASSERT_GE(results[i - 1].score, results[i].score);
          }
        }
      }
    });
  }
  pool.Wait();

  EXPECT_EQ(index.size(), total_added.load() - total_removed.load());
  // After the churn settles, every surviving id is findable and no removed id
  // ever surfaces: a copy of the graph searched with a beam wider than the
  // graph returns exactly the live ids.
  config.ef_search = 4096;
  HnswIndex wide(config);
  ByteWriter image;
  index.SaveGraph(&image);
  ByteReader reader(image.bytes());
  ASSERT_TRUE(wide.LoadGraph(&reader, image.size()));
  Rng rng(0xf17a1);
  const auto everything =
      wide.Search(RandomUnitVector(rng, dim), index.size() + index.tombstones());
  EXPECT_EQ(everything.size(), index.size());
}

// Readers run against a single writer thread that churns the index; searches
// must stay well-formed throughout (shared_mutex read path). Readers do a
// bounded number of searches rather than spinning on a stop flag: glibc
// rwlocks prefer readers by default, and a saturating reader pool can starve
// the writer indefinitely.
TEST(HnswStressTest, ManyReadersOneWriter) {
  const size_t dim = 16;
  HnswIndexConfig config;
  config.dim = dim;
  HnswIndex index(config);
  Rng seed_rng(0xbeef);
  for (uint64_t i = 0; i < 500; ++i) {
    ASSERT_TRUE(index.Add(i, RandomUnitVector(seed_rng, dim)).ok());
  }

  ThreadPool pool(6);
  for (size_t w = 0; w < 5; ++w) {
    pool.Submit([&index, w] {
      Rng rng(0x4ead + w);
      for (int i = 0; i < 800; ++i) {
        const auto results = index.Search(RandomUnitVector(rng, 16), 5);
        ASSERT_LE(results.size(), 5u);
        std::set<uint64_t> unique;
        for (const auto& r : results) {
          unique.insert(r.id);
        }
        ASSERT_EQ(unique.size(), results.size());
      }
    });
  }
  pool.Submit([&index] {
    Rng rng(0x3417e);
    for (uint64_t i = 0; i < 600; ++i) {
      if (i % 3 == 0) {
        index.Remove(i % 500);
      } else {
        index.Add(1000 + i, RandomUnitVector(rng, 16));
      }
    }
  });
  pool.Wait();
  EXPECT_GT(index.size(), 0u);
}

// Batched search under churn: 8 threads hammer SearchBatch (each with its own
// SearchScratch — the documented contract) while a writer inserts and removes
// concurrently. Exercises the one-shared-lock-per-batch path the serving
// driver's chunked prepare uses; any scratch state accidentally shared across
// readers, or batch state read outside the lock, surfaces here under TSan.
TEST(HnswStressTest, ConcurrentSearchBatchWithInserts) {
  const size_t dim = 16;
  const size_t kReaders = 8;
  HnswIndexConfig config;
  config.dim = dim;
  config.min_tombstones_to_compact = 32;  // compaction fires mid-stress
  HnswIndex index(config);
  Rng seed_rng(0x8a7c4);
  for (uint64_t i = 1; i <= 600; ++i) {
    ASSERT_TRUE(index.Add(i, RandomUnitVector(seed_rng, dim)).ok());
  }

  ThreadPool pool(kReaders + 1);
  for (size_t w = 0; w < kReaders; ++w) {
    pool.Submit([&index, w] {
      Rng rng(0xba7c4 + w);
      SearchScratch scratch;
      std::vector<float> arena;
      for (int round = 0; round < 120; ++round) {
        const size_t batch = 1 + rng.UniformInt(7);
        arena.clear();
        for (size_t q = 0; q < batch; ++q) {
          const auto v = RandomUnitVector(rng, 16);
          arena.insert(arena.end(), v.begin(), v.end());
        }
        index.SearchBatch(arena.data(), batch, 16, 5, &scratch);
        for (size_t q = 0; q < batch; ++q) {
          ASSERT_LE(scratch.ResultCountOf(q), 5u);
          const SearchResult* results = scratch.ResultsOf(q);
          std::set<uint64_t> unique;
          for (size_t r = 0; r < scratch.ResultCountOf(q); ++r) {
            if (r > 0) {
              ASSERT_GE(results[r - 1].score, results[r].score);
            }
            unique.insert(results[r].id);
          }
          ASSERT_EQ(unique.size(), scratch.ResultCountOf(q));
        }
      }
    });
  }
  pool.Submit([&index] {
    Rng rng(0x3417f);
    for (uint64_t i = 0; i < 500; ++i) {
      if (i % 3 == 0) {
        index.Remove(1 + (i % 600));
      } else {
        index.Add(2000 + i, RandomUnitVector(rng, 16));
      }
    }
  });
  pool.Wait();
  EXPECT_GT(index.size(), 0u);
}

// Readers that find pending nodes take the exclusive lock to link them:
// first searches racing on a freshly appended index must each get exactly
// the result one thread gets after the link pass.
TEST(HnswStressTest, ConcurrentFirstSearchesLinkPendingNodes) {
  const size_t dim = 16;
  const size_t kReaders = 6;
  const size_t kQueries = 12;
  HnswIndexConfig config;
  config.dim = dim;
  HnswIndex index(config);
  HnswIndex reference(config);
  Rng rng(0xf1f5);
  for (uint64_t i = 1; i <= 800; ++i) {
    const std::vector<float> v = RandomUnitVector(rng, dim);
    ASSERT_TRUE(index.Add(i, v).ok());
    ASSERT_TRUE(reference.Add(i, v).ok());
  }
  ASSERT_EQ(index.pending(), 800u);
  std::vector<float> queries;
  for (size_t q = 0; q < kQueries; ++q) {
    const std::vector<float> v = RandomUnitVector(rng, dim);
    queries.insert(queries.end(), v.begin(), v.end());
  }
  reference.Flush();
  SearchScratch expected;
  reference.SearchBatch(queries.data(), kQueries, dim, 5, &expected);

  std::atomic<size_t> ready{0};
  std::vector<SearchScratch> scratches(kReaders);
  ThreadPool pool(kReaders);
  for (size_t w = 0; w < kReaders; ++w) {
    pool.Submit([&index, &queries, &scratches, &ready, w] {
      ready.fetch_add(1);
      while (ready.load() < kReaders) {
        std::this_thread::yield();  // release every reader at once
      }
      index.SearchBatch(queries.data(), kQueries, dim, 5, &scratches[w]);
    });
  }
  pool.Wait();
  EXPECT_EQ(index.pending(), 0u);
  for (size_t w = 0; w < kReaders; ++w) {
    for (size_t q = 0; q < kQueries; ++q) {
      ASSERT_EQ(scratches[w].ResultCountOf(q), expected.ResultCountOf(q));
      for (size_t r = 0; r < expected.ResultCountOf(q); ++r) {
        EXPECT_EQ(scratches[w].ResultsOf(q)[r].id, expected.ResultsOf(q)[r].id);
        EXPECT_EQ(scratches[w].ResultsOf(q)[r].score, expected.ResultsOf(q)[r].score);
      }
    }
  }
}

// ShardedExampleCache with the HNSW backend under interleaved admissions,
// lookups, bookkeeping, and removals — the access pattern of the serving
// driver's parallel phase plus eviction churn.
TEST(ShardedCacheHnswStressTest, InterleavedPutSearchRemove) {
  ShardedCacheConfig config;
  config.num_shards = 4;
  config.cache.retrieval.kind = RetrievalBackendKind::kHnsw;
  config.cache.retrieval.hnsw.min_tombstones_to_compact = 16;
  ShardedExampleCache cache(std::make_shared<HashingEmbedder>(), config);

  const size_t kWorkers = 8;
  const size_t kOpsPerWorker = 150;
  std::atomic<size_t> put_count{0};
  std::atomic<size_t> removed_count{0};
  ThreadPool pool(kWorkers);
  for (size_t w = 0; w < kWorkers; ++w) {
    pool.Submit([&cache, &put_count, &removed_count, w] {
      Rng rng(0x5a4ded + w);
      std::vector<uint64_t> mine;
      for (size_t op = 0; op < kOpsPerWorker; ++op) {
        const double dice = rng.Uniform();
        Request request;
        request.id = (static_cast<uint64_t>(w + 1) << 40) + op;
        request.text = "worker " + std::to_string(w) + " topic " +
                       std::to_string(rng.UniformInt(40)) + " question " + std::to_string(op);
        request.input_tokens = 12;
        if (dice < 0.5 || mine.empty()) {
          const uint64_t id = cache.Put(request, "response", 0.8, 0.9, 16, 0.0);
          if (id != 0) {
            mine.push_back(id);
            put_count.fetch_add(1, std::memory_order_relaxed);
          }
        } else if (dice < 0.65) {
          const size_t pick = rng.UniformInt(mine.size());
          if (cache.Remove(mine[pick])) {
            removed_count.fetch_add(1, std::memory_order_relaxed);
          }
          mine.erase(mine.begin() + static_cast<long>(pick));
        } else if (dice < 0.85) {
          for (const auto& result : cache.FindSimilar(request, 8)) {
            Example example;
            // The example may be concurrently removed between search and
            // snapshot; both outcomes are legal, corruption is not.
            if (cache.Snapshot(result.id, &example)) {
              ASSERT_EQ(example.id, result.id);
            }
          }
        } else {
          if (!mine.empty()) {
            cache.RecordAccess(mine[rng.UniformInt(mine.size())], 1.0);
            cache.RecordOffload(mine[rng.UniformInt(mine.size())], 0.5);
          }
        }
      }
    });
  }
  pool.Wait();

  EXPECT_EQ(cache.size(), put_count.load() - removed_count.load());
  EXPECT_EQ(cache.AllIds().size(), cache.size());
  // Every surviving id snapshots cleanly after the churn.
  for (uint64_t id : cache.AllIds()) {
    Example example;
    EXPECT_TRUE(cache.Snapshot(id, &example));
  }
}

}  // namespace
}  // namespace iccache
