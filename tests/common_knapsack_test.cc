#include "src/common/knapsack.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"

namespace iccache {
namespace {

// The textbook DP over a dense O(n * capacity) table: the reference that
// SolveKnapsackExact must match bit for bit, tie-breaks and NaN included.
KnapsackSolution DenseKnapsack(const std::vector<KnapsackItem>& items, int64_t capacity) {
  KnapsackSolution solution;
  solution.exact = true;
  if (capacity < 0) {
    capacity = 0;
  }
  const size_t n = items.size();
  const size_t width = static_cast<size_t>(capacity) + 1;
  std::vector<double> best(width, 0.0);
  std::vector<uint8_t> taken(n * width, 0);
  for (size_t i = 0; i < n; ++i) {
    const int64_t w_i = std::max<int64_t>(0, items[i].weight);
    const double v_i = items[i].value;
    if (v_i <= 0.0) {
      continue;
    }
    if (w_i == 0) {
      for (size_t w = 0; w < width; ++w) {
        best[w] += v_i;
        taken[i * width + w] = 1;
      }
      continue;
    }
    for (int64_t w = capacity; w >= w_i; --w) {
      const double candidate = best[static_cast<size_t>(w - w_i)] + v_i;
      if (candidate > best[static_cast<size_t>(w)]) {
        best[static_cast<size_t>(w)] = candidate;
        taken[i * width + static_cast<size_t>(w)] = 1;
      }
    }
  }
  int64_t w = capacity;
  for (size_t i = n; i-- > 0;) {
    if (taken[i * width + static_cast<size_t>(w)]) {
      solution.selected.push_back(i);
      if (items[i].weight > 0) {
        w -= items[i].weight;
      }
    }
  }
  std::reverse(solution.selected.begin(), solution.selected.end());
  solution.total_value = best[static_cast<size_t>(capacity)];
  for (size_t idx : solution.selected) {
    solution.total_weight += std::max<int64_t>(0, items[idx].weight);
  }
  return solution;
}

uint64_t Bits(double x) {
  uint64_t bits = 0;
  std::memcpy(&bits, &x, sizeof(bits));
  return bits;
}

::testing::AssertionResult MatchesDense(const std::vector<KnapsackItem>& items,
                                        int64_t capacity) {
  const KnapsackSolution dense = DenseKnapsack(items, capacity);
  const KnapsackSolution sparse = SolveKnapsackExact(items, capacity);
  if (sparse.selected == dense.selected && sparse.total_weight == dense.total_weight &&
      Bits(sparse.total_value) == Bits(dense.total_value) && sparse.exact == dense.exact) {
    return ::testing::AssertionSuccess();
  }
  auto failure = ::testing::AssertionFailure();
  failure << "capacity " << capacity << ", items (weight, value):";
  for (const KnapsackItem& item : items) {
    failure << " (" << item.weight << ", " << item.value << ")";
  }
  failure << "\n  dense:  " << dense.selected.size() << " selected, weight "
          << dense.total_weight << ", value " << dense.total_value << "\n  sparse: "
          << sparse.selected.size() << " selected, weight " << sparse.total_weight
          << ", value " << sparse.total_value;
  return failure;
}

struct Instance {
  std::vector<KnapsackItem> items;
  int64_t capacity = 0;
};

// Checks `count` instances drawn by `make` from a seeded stream against the
// dense reference: same selected set, total weight, total value bits, and
// exactness flag.
void SweepAgainstDense(uint64_t seed, int count, Instance (*make)(Rng&)) {
  Rng rng(seed);
  for (int k = 0; k < count; ++k) {
    const Instance instance = make(rng);
    ASSERT_TRUE(MatchesDense(instance.items, instance.capacity)) << "instance " << k;
  }
}

// Cache-shaped: an ExampleCache shard at eviction time (30-60 examples of
// 700-2600 bytes against a 25-35 KB target); values are decayed offload
// credit plus the 1e-3 recency epsilon, either mostly epsilon or distinct.
Instance CacheShaped(Rng& rng, bool sparse_values) {
  Instance instance;
  const int n = static_cast<int>(rng.UniformInt(30, 60));
  for (int i = 0; i < n; ++i) {
    double value = 1e-3;
    if (!sparse_values || rng.Bernoulli(0.3)) {
      value += rng.Uniform(0.0, 4.0) * std::pow(0.5, static_cast<double>(rng.UniformInt(0, 6)));
    }
    instance.items.push_back({rng.UniformInt(700, 2600), value});
  }
  instance.capacity = rng.UniformInt(25000, 35000);
  return instance;
}

TEST(KnapsackExactTest, ClassicInstance) {
  // Items: (w=10,v=60) (w=20,v=100) (w=30,v=120); capacity 50 -> take 2 + 3.
  const std::vector<KnapsackItem> items = {{10, 60.0}, {20, 100.0}, {30, 120.0}};
  const KnapsackSolution solution = SolveKnapsackExact(items, 50);
  EXPECT_TRUE(solution.exact);
  EXPECT_NEAR(solution.total_value, 220.0, 1e-9);
  EXPECT_EQ(solution.total_weight, 50);
  EXPECT_EQ(solution.selected, (std::vector<size_t>{1, 2}));
}

TEST(KnapsackExactTest, ZeroCapacityTakesOnlyWeightless) {
  const std::vector<KnapsackItem> items = {{0, 5.0}, {1, 100.0}};
  const KnapsackSolution solution = SolveKnapsackExact(items, 0);
  EXPECT_NEAR(solution.total_value, 5.0, 1e-9);
  EXPECT_EQ(solution.selected, (std::vector<size_t>{0}));
}

TEST(KnapsackExactTest, NegativeValueNeverSelected) {
  const std::vector<KnapsackItem> items = {{1, -5.0}, {1, 3.0}};
  const KnapsackSolution solution = SolveKnapsackExact(items, 10);
  EXPECT_EQ(solution.selected, (std::vector<size_t>{1}));
}

TEST(KnapsackExactTest, EmptyItems) {
  const KnapsackSolution solution = SolveKnapsackExact({}, 100);
  EXPECT_TRUE(solution.selected.empty());
  EXPECT_EQ(solution.total_value, 0.0);
}

TEST(KnapsackExactTest, AllItemsFitWhenCapacityLarge) {
  const std::vector<KnapsackItem> items = {{5, 1.0}, {5, 2.0}, {5, 3.0}};
  const KnapsackSolution solution = SolveKnapsackExact(items, 1000);
  EXPECT_EQ(solution.selected.size(), 3u);
}

TEST(KnapsackGreedyTest, PrefersValueDensity) {
  // Density order: item1 (10/5=2) > item0 (12/10=1.2); capacity 10 fits only
  // one of them by weight 5 + nothing else -> greedy picks item1.
  const std::vector<KnapsackItem> items = {{10, 12.0}, {5, 10.0}};
  const KnapsackSolution solution = SolveKnapsackGreedy(items, 10);
  EXPECT_FALSE(solution.exact);
  EXPECT_EQ(solution.selected, (std::vector<size_t>{1}));
}

TEST(KnapsackGreedyTest, CapacityRespected) {
  Rng rng(99);
  std::vector<KnapsackItem> items;
  for (int i = 0; i < 200; ++i) {
    items.push_back({static_cast<int64_t>(rng.UniformInt(1, 20)), rng.Uniform(0.0, 10.0)});
  }
  const KnapsackSolution solution = SolveKnapsackGreedy(items, 100);
  EXPECT_LE(solution.total_weight, 100);
}

TEST(KnapsackDispatchTest, SmallProblemUsesExact) {
  const std::vector<KnapsackItem> items = {{1, 1.0}, {2, 2.0}};
  EXPECT_TRUE(SolveKnapsack(items, 10).exact);
}

TEST(KnapsackDispatchTest, HugeProblemFallsBackToGreedy) {
  std::vector<KnapsackItem> items(1000, KnapsackItem{1000000, 1.0});
  EXPECT_FALSE(SolveKnapsack(items, 1000000000, /*max_dp_work=*/1000).exact);
}

// Property: on random instances the exact DP dominates greedy, and both
// respect capacity.
class KnapsackRandomSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(KnapsackRandomSweep, ExactDominatesGreedy) {
  Rng rng(GetParam());
  std::vector<KnapsackItem> items;
  const int n = 2 + static_cast<int>(rng.UniformInt(20));
  for (int i = 0; i < n; ++i) {
    items.push_back({static_cast<int64_t>(rng.UniformInt(1, 30)), rng.Uniform(0.0, 20.0)});
  }
  const int64_t capacity = static_cast<int64_t>(rng.UniformInt(10, 200));
  const KnapsackSolution exact = SolveKnapsackExact(items, capacity);
  const KnapsackSolution greedy = SolveKnapsackGreedy(items, capacity);
  EXPECT_LE(exact.total_weight, capacity);
  EXPECT_LE(greedy.total_weight, capacity);
  EXPECT_GE(exact.total_value, greedy.total_value - 1e-9);

  // Reported value must match the recomputed sum over selected items.
  double recomputed = 0.0;
  for (size_t idx : exact.selected) {
    recomputed += items[idx].value;
  }
  EXPECT_NEAR(recomputed, exact.total_value, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Instances, KnapsackRandomSweep,
                         ::testing::Values(1ull, 2ull, 3ull, 5ull, 8ull, 13ull, 21ull, 34ull));

TEST(KnapsackOracleTest, ZeroWeightNanIsTakenLikeTheDenseTable) {
  // The dense loop skips an item only when `value <= 0`, which NaN fails: a
  // zero-weight NaN item is taken and turns every later sum into NaN.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<KnapsackItem> items = {{2, 1.0}, {0, nan}, {3, 2.0}};
  const KnapsackSolution solution = SolveKnapsackExact(items, 5);
  EXPECT_EQ(solution.selected, (std::vector<size_t>{0, 1}));
  EXPECT_TRUE(std::isnan(solution.total_value));
  EXPECT_TRUE(MatchesDense(items, 5));
}

TEST(KnapsackOracleTest, TieHeavySmallIntegers) {
  SweepAgainstDense(101, 100000, [](Rng& rng) {
    Instance instance;
    const int n = static_cast<int>(rng.UniformInt(0, 12));
    const bool epsilon_only = rng.Bernoulli(0.25);  // every value 1e-3
    for (int i = 0; i < n; ++i) {
      const double value = epsilon_only ? 1e-3 : static_cast<double>(rng.UniformInt(0, 4));
      instance.items.push_back({rng.UniformInt(0, 8), value});
    }
    instance.capacity = rng.UniformInt(0, 30);
    return instance;
  });
}

TEST(KnapsackOracleTest, DegenerateWeightsAndValues) {
  // Zero and negative weights, non-positive values, +inf, and NaN (zero-weight
  // NaN included): every branch of the dense loop's skip and take rules.
  SweepAgainstDense(202, 100000, [](Rng& rng) {
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const std::vector<double> values = {0.0, -0.0, -1.0, -inf, inf, nan, 1e-3, 1.0, 2.0, 3.5};
    Instance instance;
    const int n = static_cast<int>(rng.UniformInt(0, 10));
    for (int i = 0; i < n; ++i) {
      instance.items.push_back(
          {rng.UniformInt(-5, 10), values[rng.UniformInt(values.size())]});
    }
    instance.capacity = rng.UniformInt(-3, 25);
    return instance;
  });
}

TEST(KnapsackOracleTest, SumsThatCollapseInRounding) {
  // 1e16 + 1 rounds back to 1e16: a strictly better subset can tie in
  // double arithmetic, and breakpoints can merge after a zero-weight add.
  SweepAgainstDense(303, 50000, [](Rng& rng) {
    const std::vector<double> values = {1e16, 1.0, 2.0, 0.5, 1e16 + 2.0};
    Instance instance;
    const int n = static_cast<int>(rng.UniformInt(0, 12));
    for (int i = 0; i < n; ++i) {
      instance.items.push_back({rng.UniformInt(0, 6), values[rng.UniformInt(values.size())]});
    }
    instance.capacity = rng.UniformInt(0, 20);
    return instance;
  });
}

TEST(KnapsackOracleTest, NonPositiveCapacityAndOversizedItems) {
  SweepAgainstDense(404, 20000, [](Rng& rng) {
    Instance instance;
    const int n = static_cast<int>(rng.UniformInt(0, 10));
    for (int i = 0; i < n; ++i) {
      int64_t weight = rng.UniformInt(0, 40);
      if (rng.Bernoulli(0.2)) {
        weight = std::numeric_limits<int64_t>::max() - rng.UniformInt(0, 3);
      }
      instance.items.push_back({weight, rng.Uniform(-1.0, 5.0)});
    }
    instance.capacity = rng.Bernoulli(0.5) ? rng.UniformInt(-1000, 0) : rng.UniformInt(1, 20);
    return instance;
  });
}

TEST(KnapsackOracleTest, CacheShapedSparseValues) {
  SweepAgainstDense(505, 250, [](Rng& rng) { return CacheShaped(rng, /*sparse_values=*/true); });
}

TEST(KnapsackOracleTest, CacheShapedDistinctValues) {
  SweepAgainstDense(606, 250, [](Rng& rng) { return CacheShaped(rng, /*sparse_values=*/false); });
}

TEST(KnapsackOracleTest, ValueProportionalToWeight) {
  // The sparse solver's worst case: every reachable weight is a breakpoint.
  SweepAgainstDense(707, 200, [](Rng& rng) {
    Instance instance;
    const int n = static_cast<int>(rng.UniformInt(20, 40));
    const double per_byte = rng.Uniform(1e-4, 1e-2);
    for (int i = 0; i < n; ++i) {
      const int64_t weight = rng.UniformInt(1, 200);
      instance.items.push_back({weight, per_byte * static_cast<double>(weight)});
    }
    instance.capacity = rng.UniformInt(500, 3000);
    return instance;
  });
}

}  // namespace
}  // namespace iccache
