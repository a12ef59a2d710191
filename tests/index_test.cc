#include "src/index/vector_index.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/mathutil.h"
#include "src/common/rng.h"
#include "src/common/simd.h"
#include "src/index/kmeans.h"

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

TEST(OptimalClusterCountTest, SqrtRule) {
  EXPECT_EQ(OptimalClusterCount(0), 1u);
  EXPECT_EQ(OptimalClusterCount(1), 1u);
  EXPECT_EQ(OptimalClusterCount(100), 10u);
  EXPECT_EQ(OptimalClusterCount(10000), 100u);
  // sqrt(N) minimizes K + N/K: check against neighbours for a sample N.
  const size_t n = 4096;
  const size_t k_opt = OptimalClusterCount(n);
  const auto cost = [n](size_t k) {
    return static_cast<double>(k) + static_cast<double>(n) / static_cast<double>(k);
  };
  EXPECT_LE(cost(k_opt), cost(k_opt - 1) + 1e-9);
  EXPECT_LE(cost(k_opt), cost(k_opt + 1) + 1e-9);
}

TEST(KMeansTest, SeparatesWellSeparatedClusters) {
  Rng rng(1);
  std::vector<std::vector<float>> points;
  // Two tight blobs far apart on the first axis.
  for (int i = 0; i < 50; ++i) {
    points.push_back({static_cast<float>(10.0 + rng.Normal(0.0, 0.1)),
                      static_cast<float>(rng.Normal(0.0, 0.1))});
    points.push_back({static_cast<float>(-10.0 + rng.Normal(0.0, 0.1)),
                      static_cast<float>(rng.Normal(0.0, 0.1))});
  }
  const KMeansResult result = KMeansCluster(points, 2, rng);
  ASSERT_EQ(result.centroids.size(), 2u);
  // Every pair of points in the same blob must share an assignment.
  for (size_t i = 0; i < points.size(); i += 2) {
    EXPECT_EQ(result.assignments[i], result.assignments[0]);
  }
  for (size_t i = 1; i < points.size(); i += 2) {
    EXPECT_EQ(result.assignments[i], result.assignments[1]);
  }
  EXPECT_NE(result.assignments[0], result.assignments[1]);
}

TEST(KMeansTest, InertiaNonIncreasingWithMoreClusters) {
  Rng rng(2);
  std::vector<std::vector<float>> points;
  for (int i = 0; i < 200; ++i) {
    points.push_back(RandomUnitVector(rng, 8));
  }
  Rng rng_a(3);
  Rng rng_b(3);
  const double inertia_2 = KMeansCluster(points, 2, rng_a).inertia;
  const double inertia_16 = KMeansCluster(points, 16, rng_b).inertia;
  EXPECT_LT(inertia_16, inertia_2);
}

TEST(KMeansTest, KClampedToPointCount) {
  Rng rng(4);
  std::vector<std::vector<float>> points = {{1.0f, 0.0f}, {0.0f, 1.0f}};
  const KMeansResult result = KMeansCluster(points, 10, rng);
  EXPECT_EQ(result.centroids.size(), 2u);
}

TEST(KMeansTest, EmptyInput) {
  Rng rng(5);
  const KMeansResult result = KMeansCluster({}, 3, rng);
  EXPECT_TRUE(result.centroids.empty());
  EXPECT_TRUE(result.assignments.empty());
}

TEST(KMeansTest, IdenticalPointsHandled) {
  Rng rng(6);
  std::vector<std::vector<float>> points(20, std::vector<float>{1.0f, 2.0f});
  const KMeansResult result = KMeansCluster(points, 4, rng);
  EXPECT_NEAR(result.inertia, 0.0, 1e-9);
}

TEST(FlatIndexTest, AddSearchRemove) {
  FlatIndex index(4);
  EXPECT_TRUE(index.Add(1, {1.0f, 0.0f, 0.0f, 0.0f}).ok());
  EXPECT_TRUE(index.Add(2, {0.0f, 1.0f, 0.0f, 0.0f}).ok());
  EXPECT_EQ(index.size(), 2u);

  const auto results = index.Search({1.0f, 0.0f, 0.0f, 0.0f}, 1);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].id, 1u);
  EXPECT_NEAR(results[0].score, 1.0, 1e-6);

  EXPECT_TRUE(index.Remove(1));
  EXPECT_FALSE(index.Remove(1));
  EXPECT_EQ(index.size(), 1u);
  EXPECT_EQ(index.Search({1.0f, 0.0f, 0.0f, 0.0f}, 1)[0].id, 2u);
}

TEST(FlatIndexTest, DimensionMismatchRejected) {
  FlatIndex index(4);
  EXPECT_FALSE(index.Add(1, {1.0f}).ok());
}

TEST(FlatIndexTest, OverwriteExistingId) {
  FlatIndex index(2);
  ASSERT_TRUE(index.Add(1, {1.0f, 0.0f}).ok());
  ASSERT_TRUE(index.Add(1, {0.0f, 1.0f}).ok());
  EXPECT_EQ(index.size(), 1u);
  const float* v = index.Find(1);
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v[1], 1.0f);
}

TEST(FlatIndexTest, ResultsSortedDescending) {
  FlatIndex index(2);
  index.Add(1, {1.0f, 0.0f});
  index.Add(2, {0.7071f, 0.7071f});
  index.Add(3, {0.0f, 1.0f});
  const auto results = index.Search({1.0f, 0.0f}, 3);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0].id, 1u);
  EXPECT_EQ(results[1].id, 2u);
  EXPECT_EQ(results[2].id, 3u);
  EXPECT_GE(results[0].score, results[1].score);
  EXPECT_GE(results[1].score, results[2].score);
}

TEST(FlatIndexTest, KLargerThanSize) {
  FlatIndex index(2);
  index.Add(1, {1.0f, 0.0f});
  EXPECT_EQ(index.Search({1.0f, 0.0f}, 10).size(), 1u);
}

// Checks the one flat scan behind `index` (FlatIndex, or KMeansIndex below
// its clustering threshold) against an independent oracle: score every
// stored vector, sort all (score, id) pairs by score, and take the first k.
// Oracle scores use the scan's own simd::Dot, so ids AND scores must match
// exactly; each score is also checked against a double-precision dot.
void ExpectTopKEqualsFullSort(const VectorIndex& index,
                              const std::vector<std::pair<uint64_t, std::vector<float>>>& stored,
                              size_t dim, Rng& rng) {
  ASSERT_EQ(index.size(), stored.size());
  for (int q = 0; q < 20; ++q) {
    const std::vector<float> query = RandomUnitVector(rng, dim);
    std::vector<SearchResult> oracle;
    for (const auto& [id, vec] : stored) {
      const double score = simd::Dot(query.data(), vec.data(), dim);
      double exact = 0.0;
      for (size_t d = 0; d < dim; ++d) {
        exact += static_cast<double>(query[d]) * static_cast<double>(vec[d]);
      }
      ASSERT_NEAR(score, exact, 1e-5);
      oracle.push_back(SearchResult{id, score});
    }
    std::sort(oracle.begin(), oracle.end(),
              [](const SearchResult& a, const SearchResult& b) { return a.score > b.score; });
    for (size_t k : {size_t{1}, size_t{10}, stored.size() + 5}) {
      const std::vector<SearchResult> got = index.Search(query, k);
      ASSERT_EQ(got.size(), std::min(k, stored.size())) << "k=" << k;
      for (size_t r = 0; r < got.size(); ++r) {
        EXPECT_EQ(got[r].id, oracle[r].id) << "query=" << q << " k=" << k << " rank=" << r;
        EXPECT_EQ(got[r].score, oracle[r].score)
            << "query=" << q << " k=" << k << " rank=" << r;
      }
    }
  }
}

TEST(FlatScanOracleTest, FlatTopKEqualsFullSort) {
  // 700 slots span three scan blocks; the removals swap tail slots into holes.
  const size_t dim = 32;
  FlatIndex index(dim);
  Rng rng(0xf1a7);
  std::vector<std::pair<uint64_t, std::vector<float>>> stored;
  for (uint64_t id = 1; id <= 700; ++id) {
    stored.emplace_back(id, RandomUnitVector(rng, dim));
    ASSERT_TRUE(index.Add(id, stored.back().second).ok());
  }
  for (uint64_t id = 5; id <= 700; id += 9) {
    ASSERT_TRUE(index.Remove(id));
  }
  stored.erase(std::remove_if(stored.begin(), stored.end(),
                              [](const auto& entry) { return entry.first % 9 == 5; }),
               stored.end());
  ExpectTopKEqualsFullSort(index, stored, dim, rng);
}

TEST(FlatScanOracleTest, UnclusteredKMeansTopKEqualsFullSort) {
  const size_t dim = 32;
  KMeansIndexConfig config;
  config.dim = dim;
  KMeansIndex index(config);
  Rng rng(0x6ea5);
  std::vector<std::pair<uint64_t, std::vector<float>>> stored;
  for (uint64_t id = 1; id < config.min_points_to_cluster; ++id) {
    stored.emplace_back(id, RandomUnitVector(rng, dim));
    ASSERT_TRUE(index.Add(id, stored.back().second).ok());
  }
  ASSERT_FALSE(index.clustered());
  ExpectTopKEqualsFullSort(index, stored, dim, rng);
}

TEST(KMeansIndexTest, StaysFlatBelowClusterThreshold) {
  KMeansIndexConfig config;
  config.dim = 4;
  config.min_points_to_cluster = 64;
  KMeansIndex index(config);
  Rng rng(7);
  for (uint64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(index.Add(i, RandomUnitVector(rng, 4)).ok());
  }
  EXPECT_FALSE(index.clustered());
  EXPECT_EQ(index.Search(RandomUnitVector(rng, 4), 3).size(), 3u);
}

TEST(KMeansIndexTest, ClustersAtThresholdAndUsesSqrtN) {
  KMeansIndexConfig config;
  config.dim = 8;
  config.min_points_to_cluster = 64;
  KMeansIndex index(config);
  Rng rng(8);
  for (uint64_t i = 0; i < 256; ++i) {
    ASSERT_TRUE(index.Add(i, RandomUnitVector(rng, 8)).ok());
  }
  EXPECT_TRUE(index.clustered());
  // K = sqrt(N) at the last rebuild; the rebuild happens somewhere between 64
  // and 256 points, so K must lie in [8, 16].
  EXPECT_GE(index.num_clusters(), 8u);
  EXPECT_LE(index.num_clusters(), 16u);
  index.Rebuild();
  EXPECT_EQ(index.num_clusters(), 16u);
}

TEST(KMeansIndexTest, RemoveShrinksIndex) {
  KMeansIndexConfig config;
  config.dim = 4;
  KMeansIndex index(config);
  Rng rng(9);
  for (uint64_t i = 0; i < 100; ++i) {
    index.Add(i, RandomUnitVector(rng, 4));
  }
  EXPECT_TRUE(index.Remove(5));
  EXPECT_FALSE(index.Remove(5));
  EXPECT_EQ(index.size(), 99u);
  for (const auto& result : index.Search(RandomUnitVector(rng, 4), 99)) {
    EXPECT_NE(result.id, 5u);
  }
}

TEST(KMeansIndexTest, DimensionMismatchRejected) {
  KMeansIndexConfig config;
  config.dim = 4;
  KMeansIndex index(config);
  EXPECT_FALSE(index.Add(1, {1.0f}).ok());
}

TEST(KMeansIndexTest, RecallAgainstFlatReference) {
  // The clustered index probes nprobe clusters; top-1 recall against exact
  // search should still be high on random unit vectors.
  const size_t dim = 16;
  KMeansIndexConfig config;
  config.dim = dim;
  config.nprobe = 3;
  KMeansIndex approx(config);
  FlatIndex exact(dim);
  Rng rng(10);
  for (uint64_t i = 0; i < 512; ++i) {
    const auto v = RandomUnitVector(rng, dim);
    ASSERT_TRUE(approx.Add(i, v).ok());
    ASSERT_TRUE(exact.Add(i, v).ok());
  }
  approx.Rebuild();

  int hits = 0;
  const int queries = 100;
  for (int q = 0; q < queries; ++q) {
    const auto query = RandomUnitVector(rng, dim);
    const auto approx_results = approx.Search(query, 1);
    const auto exact_results = exact.Search(query, 1);
    ASSERT_FALSE(approx_results.empty());
    ASSERT_FALSE(exact_results.empty());
    if (approx_results[0].id == exact_results[0].id) {
      ++hits;
    }
  }
  EXPECT_GE(hits, 60);  // top-1 recall >= 60% with 3 probes on random data
}

TEST(KMeansIndexTest, NearDuplicateQueryAlwaysFound) {
  // Recall for the common case: querying with (a paraphrase of) a stored
  // vector must find it — this is what stage-1 retrieval needs.
  const size_t dim = 16;
  KMeansIndexConfig config;
  config.dim = dim;
  KMeansIndex index(config);
  Rng rng(11);
  std::vector<std::vector<float>> stored;
  for (uint64_t i = 0; i < 300; ++i) {
    stored.push_back(RandomUnitVector(rng, dim));
    ASSERT_TRUE(index.Add(i, stored.back()).ok());
  }
  index.Rebuild();
  int hits = 0;
  for (uint64_t i = 0; i < 300; ++i) {
    const auto results = index.Search(stored[i], 1);
    if (!results.empty() && results[0].id == i) {
      ++hits;
    }
  }
  EXPECT_GE(hits, 295);  // self-recall is essentially exact
}

class KMeansIndexSizeSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(KMeansIndexSizeSweep, SearchReturnsRequestedK) {
  const size_t n = GetParam();
  KMeansIndexConfig config;
  config.dim = 8;
  KMeansIndex index(config);
  Rng rng(12);
  for (uint64_t i = 0; i < n; ++i) {
    index.Add(i, RandomUnitVector(rng, 8));
  }
  const size_t k = std::min<size_t>(5, n);
  const auto results = index.Search(RandomUnitVector(rng, 8), 5);
  EXPECT_GE(results.size(), k > 0 ? 1u : 0u);
  EXPECT_LE(results.size(), 5u);
  std::set<uint64_t> unique;
  for (const auto& r : results) {
    unique.insert(r.id);
  }
  EXPECT_EQ(unique.size(), results.size());  // no duplicate ids
}

INSTANTIATE_TEST_SUITE_P(Sizes, KMeansIndexSizeSweep,
                         ::testing::Values(0u, 1u, 7u, 63u, 64u, 100u, 333u));

}  // namespace
}  // namespace iccache
