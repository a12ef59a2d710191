// Batched search (SearchBatch) acceptance: batch-size invariance across all
// three backends x batch sizes {1, 7, 32}, zero steady-state
// allocations (scratch-reuse counter), the visited high-watermark rebuild
// and the visited epoch's wrap-around reset. Search is SearchBatch at batch
// size 1, so the *BatchMatchesSingle cases compare batch-of-n with
// batch-of-1 of the same kernel: they check that batching changes nothing,
// not the scan itself, which index_test's FlatScanOracleTest checks against
// a full sort. ci.sh additionally reruns this suite under
// ICCACHE_FORCE_SCALAR=1 so the invariance holds on both dispatch paths.
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "gtest/gtest.h"
#include "src/common/rng.h"
#include "src/index/hnsw.h"
#include "src/index/vector_index.h"

namespace iccache {
namespace {

std::vector<float> RandomUnitVector(size_t dim, Rng& rng) {
  std::vector<float> v(dim);
  double norm = 0.0;
  for (float& x : v) {
    x = static_cast<float>(rng.Normal());
    norm += static_cast<double>(x) * static_cast<double>(x);
  }
  norm = std::sqrt(std::max(norm, 1e-12));
  for (float& x : v) {
    x = static_cast<float>(x / norm);
  }
  return v;
}

// Flattens `n` queries into one contiguous arena (the SearchBatch layout).
std::vector<float> MakeQueryArena(size_t n, size_t dim, uint64_t seed,
                                  std::vector<std::vector<float>>* individual) {
  Rng rng(seed);
  std::vector<float> arena;
  arena.reserve(n * dim);
  for (size_t i = 0; i < n; ++i) {
    std::vector<float> q = RandomUnitVector(dim, rng);
    arena.insert(arena.end(), q.begin(), q.end());
    individual->push_back(std::move(q));
  }
  return arena;
}

void FillIndex(VectorIndex* index, size_t n, size_t dim, uint64_t seed) {
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(index->Add(i + 1, RandomUnitVector(dim, rng)).ok());
  }
}

// The acceptance predicate: every batch result range must equal the
// batch-of-one result bit-for-bit (ids AND scores), at every batch size.
void ExpectBatchMatchesSingle(const VectorIndex& index, size_t dim, size_t k,
                              size_t num_queries, uint64_t seed) {
  std::vector<std::vector<float>> queries;
  const std::vector<float> arena = MakeQueryArena(num_queries, dim, seed, &queries);
  SearchScratch scratch;
  for (size_t batch : {size_t{1}, size_t{7}, size_t{32}}) {
    for (size_t base = 0; base < num_queries; base += batch) {
      const size_t n = std::min(batch, num_queries - base);
      index.SearchBatch(arena.data() + base * dim, n, dim, k, &scratch);
      for (size_t i = 0; i < n; ++i) {
        const std::vector<SearchResult> single = index.Search(queries[base + i], k);
        ASSERT_EQ(single.size(), scratch.ResultCountOf(i))
            << "batch=" << batch << " query=" << base + i;
        const SearchResult* got = scratch.ResultsOf(i);
        for (size_t r = 0; r < single.size(); ++r) {
          EXPECT_EQ(single[r].id, got[r].id) << "batch=" << batch << " query=" << base + i
                                             << " rank=" << r;
          EXPECT_EQ(single[r].score, got[r].score)
              << "batch=" << batch << " query=" << base + i << " rank=" << r;
        }
      }
    }
  }
}

constexpr size_t kDim = 32;

TEST(IndexBatchTest, FlatBatchMatchesSingle) {
  FlatIndex index(kDim);
  FillIndex(&index, 500, kDim, 0x11);
  ExpectBatchMatchesSingle(index, kDim, 10, 64, 0x22);
}

TEST(IndexBatchTest, KMeansUnclusteredBatchMatchesSingle) {
  KMeansIndexConfig config;
  config.dim = kDim;
  KMeansIndex index(config);
  FillIndex(&index, 40, kDim, 0x33);  // below min_points_to_cluster: flat path
  ASSERT_FALSE(index.clustered());
  ExpectBatchMatchesSingle(index, kDim, 5, 48, 0x44);
}

TEST(IndexBatchTest, KMeansClusteredBatchMatchesSingle) {
  KMeansIndexConfig config;
  config.dim = kDim;
  KMeansIndex index(config);
  FillIndex(&index, 600, kDim, 0x55);
  ASSERT_TRUE(index.clustered());
  ExpectBatchMatchesSingle(index, kDim, 10, 64, 0x66);
}

TEST(IndexBatchTest, HnswFloatBatchMatchesSingle) {
  HnswIndexConfig config;
  config.dim = kDim;
  config.max_neighbors = 8;
  config.ef_construction = 60;
  config.ef_search = 48;
  HnswIndex index(config);
  FillIndex(&index, 1500, kDim, 0x77);
  ExpectBatchMatchesSingle(index, kDim, 10, 64, 0x88);
}

TEST(IndexBatchTest, HnswBatchMatchesSingleWithTombstones) {
  HnswIndexConfig config;
  config.dim = kDim;
  config.max_neighbors = 8;
  config.ef_construction = 60;
  config.ef_search = 48;
  // Keep tombstones in the graph (no compaction) so batch and single both
  // traverse through and filter them.
  config.min_tombstones_to_compact = 1u << 30;
  HnswIndex index(config);
  FillIndex(&index, 1200, kDim, 0xbb);
  for (uint64_t id = 3; id <= 1200; id += 3) {
    ASSERT_TRUE(index.Remove(id));
  }
  ASSERT_GT(index.tombstones(), 0u);
  ExpectBatchMatchesSingle(index, kDim, 10, 48, 0xcc);
}

TEST(IndexBatchTest, BatchOfOneAndEmptyIndexEdgeCases) {
  HnswIndex index(HnswIndexConfig{});  // dim 128, empty graph
  SearchScratch scratch;
  std::vector<float> q(128, 0.0f);
  q[0] = 1.0f;
  index.SearchBatch(q.data(), 1, 128, 5, &scratch);
  EXPECT_EQ(scratch.ResultCountOf(0), 0u);
  // k == 0: empty ranges for every query.
  FlatIndex flat(4);
  ASSERT_TRUE(flat.Add(1, {1.0f, 0.0f, 0.0f, 0.0f}).ok());
  std::vector<float> two(8, 0.5f);
  flat.SearchBatch(two.data(), 2, 4, 0, &scratch);
  EXPECT_EQ(scratch.ResultCountOf(0), 0u);
  EXPECT_EQ(scratch.ResultCountOf(1), 0u);
}

// Steady-state SearchBatch must perform ZERO heap allocations per query: the
// scratch-reuse counter (`grows`) stops advancing once the scratch is warm.
TEST(IndexBatchTest, SteadyStateBatchDoesNotGrowScratch) {
  HnswIndexConfig config;
  config.dim = kDim;
  config.max_neighbors = 8;
  config.ef_construction = 60;
  config.ef_search = 48;
  HnswIndex index(config);
  FillIndex(&index, 2000, kDim, 0xdd);
  std::vector<std::vector<float>> queries;
  const std::vector<float> arena = MakeQueryArena(32, kDim, 0xee, &queries);
  SearchScratch scratch;
  index.SearchBatch(arena.data(), 32, kDim, 10, &scratch);  // warm-up batch
  const uint64_t warm = scratch.grows;
  for (int round = 0; round < 20; ++round) {
    index.SearchBatch(arena.data(), 32, kDim, 10, &scratch);
  }
  EXPECT_EQ(scratch.grows, warm) << "steady-state batches reallocated scratch";
}

TEST(IndexBatchTest, FlatSteadyStateBatchDoesNotGrowScratch) {
  FlatIndex index(kDim);
  FillIndex(&index, 800, kDim, 0x12);
  std::vector<std::vector<float>> queries;
  const std::vector<float> arena = MakeQueryArena(16, kDim, 0x13, &queries);
  SearchScratch scratch;
  index.SearchBatch(arena.data(), 16, kDim, 10, &scratch);
  const uint64_t warm = scratch.grows;
  for (int round = 0; round < 20; ++round) {
    index.SearchBatch(arena.data(), 16, kDim, 10, &scratch);
  }
  EXPECT_EQ(scratch.grows, warm);
}

// The visited high-watermark satellite: after the graph shrinks far below a
// previous peak, the next search rebuilds the epoch buffer instead of pinning
// the peak-size allocation forever.
TEST(IndexBatchTest, VisitedScratchShrinksPastHighWatermark) {
  HnswIndexConfig config;
  config.dim = kDim;
  config.max_neighbors = 8;
  config.ef_construction = 40;
  config.ef_search = 32;
  config.visited_shrink_floor = 128;  // testable floor (default is 1 << 16)
  HnswIndex index(config);
  FillIndex(&index, 1200, kDim, 0x14);
  std::vector<std::vector<float>> queries;
  const std::vector<float> arena = MakeQueryArena(4, kDim, 0x15, &queries);
  SearchScratch scratch;
  index.SearchBatch(arena.data(), 4, kDim, 5, &scratch);
  const size_t peak = scratch.epochs.capacity();
  ASSERT_GE(peak, 1200u);
  // Shrink the graph well below peak/4 (Removes trigger compaction, which
  // drops the tombstones from nodes_ as well).
  for (uint64_t id = 1; id <= 1150; ++id) {
    index.Remove(id);
  }
  ASSERT_LE(index.size(), 50u);
  index.SearchBatch(arena.data(), 4, kDim, 5, &scratch);
  EXPECT_LT(scratch.epochs.capacity(), peak / 4)
      << "epoch buffer still pinned at its high watermark";
  // And the shrunk scratch still produces identical results.
  for (size_t i = 0; i < 4; ++i) {
    const std::vector<SearchResult> single = index.Search(queries[i], 5);
    ASSERT_EQ(single.size(), scratch.ResultCountOf(i));
    for (size_t r = 0; r < single.size(); ++r) {
      EXPECT_EQ(single[r].id, scratch.ResultsOf(i)[r].id);
      EXPECT_EQ(single[r].score, scratch.ResultsOf(i)[r].score);
    }
  }
}

// The visited set is an epoch per slot, so a search must reset the buffer
// when its epoch wraps to 0, or every slot still marked 0 reads as visited.
// A scratch that starts one epoch short of the wrap marks slots with
// UINT32_MAX, then wraps, and must return what a fresh scratch returns.
TEST(IndexBatchTest, HnswEpochWrapAroundMatchesFreshScratch) {
  HnswIndexConfig config;
  config.dim = kDim;
  config.max_neighbors = 8;
  config.ef_construction = 40;
  config.ef_search = 32;
  HnswIndex index(config);
  FillIndex(&index, 600, kDim, 0x16);
  std::vector<std::vector<float>> queries;
  const std::vector<float> arena = MakeQueryArena(8, kDim, 0x17, &queries);
  SearchScratch fresh;
  index.SearchBatch(arena.data(), 8, kDim, 10, &fresh);
  SearchScratch wrapped;
  wrapped.epoch = std::numeric_limits<uint32_t>::max() - 1;
  for (int pass = 0; pass < 2; ++pass) {
    index.SearchBatch(arena.data(), 8, kDim, 10, &wrapped);
    for (size_t i = 0; i < 8; ++i) {
      ASSERT_EQ(wrapped.ResultCountOf(i), fresh.ResultCountOf(i)) << "pass=" << pass;
      for (size_t r = 0; r < fresh.ResultCountOf(i); ++r) {
        EXPECT_EQ(wrapped.ResultsOf(i)[r].id, fresh.ResultsOf(i)[r].id)
            << "pass=" << pass << " query=" << i << " rank=" << r;
        EXPECT_EQ(wrapped.ResultsOf(i)[r].score, fresh.ResultsOf(i)[r].score)
            << "pass=" << pass << " query=" << i << " rank=" << r;
      }
    }
  }
}

}  // namespace
}  // namespace iccache
