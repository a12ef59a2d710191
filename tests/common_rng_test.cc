#include "src/common/rng.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include <gtest/gtest.h>

namespace iccache {
namespace {

TEST(SplitMix64Test, AdvancesStateDeterministically) {
  uint64_t s1 = 42;
  uint64_t s2 = 42;
  EXPECT_EQ(SplitMix64(s1), SplitMix64(s2));
  EXPECT_EQ(s1, s2);
  EXPECT_NE(SplitMix64(s1), SplitMix64(s2) + 1);  // streams stay in lockstep
}

TEST(Mix64Test, IsDeterministicAndSpreads) {
  EXPECT_EQ(Mix64(7), Mix64(7));
  EXPECT_NE(Mix64(7), Mix64(8));
  // Nearby inputs should differ in many bits (avalanche).
  const uint64_t x = Mix64(1000) ^ Mix64(1001);
  EXPECT_GT(__builtin_popcountll(x), 10);
}

TEST(RngTest, SameSeedSameStream) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextU64() == b.NextU64()) {
      ++equal;
    }
  }
  EXPECT_EQ(equal, 0);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(9);
  Rng fork = a.Fork();
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextU64() == fork.NextU64()) {
      ++equal;
    }
  }
  EXPECT_LE(equal, 1);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.Uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformMeanNearHalf) {
  Rng rng(6);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    sum += rng.Uniform();
  }
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(RngTest, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.Uniform(-3.0, 2.0);
    ASSERT_GE(u, -3.0);
    ASSERT_LT(u, 2.0);
  }
}

TEST(RngTest, UniformIntBounded) {
  Rng rng(8);
  std::set<uint64_t> seen;
  for (int i = 0; i < 5000; ++i) {
    const uint64_t v = rng.UniformInt(10);
    ASSERT_LT(v, 10u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);  // all values hit
}

TEST(RngTest, UniformIntInclusiveRange) {
  Rng rng(9);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const int64_t v = rng.UniformInt(-2, 2);
    ASSERT_GE(v, -2);
    ASSERT_LE(v, 2);
    saw_lo |= (v == -2);
    saw_hi |= (v == 2);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NormalMomentsMatch) {
  Rng rng(10);
  double sum = 0.0;
  double sum_sq = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Normal();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.03);
}

TEST(RngTest, NormalShiftScale) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    sum += rng.Normal(5.0, 2.0);
  }
  EXPECT_NEAR(sum / n, 5.0, 0.1);
}

TEST(RngTest, LogNormalIsPositiveWithExpectedMedian) {
  Rng rng(12);
  std::vector<double> xs;
  for (int i = 0; i < 20000; ++i) {
    const double x = rng.LogNormal(3.0, 0.5);
    ASSERT_GT(x, 0.0);
    xs.push_back(x);
  }
  std::nth_element(xs.begin(), xs.begin() + xs.size() / 2, xs.end());
  EXPECT_NEAR(xs[xs.size() / 2], std::exp(3.0), 1.2);
}

TEST(RngTest, ExponentialMeanMatchesRate) {
  Rng rng(13);
  double sum = 0.0;
  const int n = 30000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Exponential(4.0);
    ASSERT_GE(x, 0.0);
    sum += x;
  }
  EXPECT_NEAR(sum / n, 0.25, 0.01);
}

TEST(RngTest, GammaMeanMatchesShapeScale) {
  Rng rng(14);
  double sum = 0.0;
  const int n = 30000;
  for (int i = 0; i < n; ++i) {
    sum += rng.Gamma(3.0, 2.0);
  }
  EXPECT_NEAR(sum / n, 6.0, 0.15);
}

TEST(RngTest, GammaWithShapeBelowOne) {
  Rng rng(15);
  double sum = 0.0;
  const int n = 30000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Gamma(0.5, 1.0);
    ASSERT_GE(x, 0.0);
    sum += x;
  }
  EXPECT_NEAR(sum / n, 0.5, 0.05);
}

TEST(RngTest, BetaMeanMatches) {
  Rng rng(16);
  double sum = 0.0;
  const int n = 30000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Beta(2.0, 6.0);
    ASSERT_GE(x, 0.0);
    ASSERT_LE(x, 1.0);
    sum += x;
  }
  EXPECT_NEAR(sum / n, 0.25, 0.01);
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(17);
  EXPECT_FALSE(rng.Bernoulli(0.0));
  EXPECT_TRUE(rng.Bernoulli(1.0));
  EXPECT_FALSE(rng.Bernoulli(-1.0));
  EXPECT_TRUE(rng.Bernoulli(2.0));
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(18);
  int hits = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    hits += rng.Bernoulli(0.3) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, CategoricalRespectsWeights) {
  Rng rng(21);
  const std::vector<double> weights = {1.0, 3.0, 0.0, 6.0};
  std::vector<int> counts(4, 0);
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    ++counts[rng.Categorical(weights)];
  }
  EXPECT_EQ(counts[2], 0);
  EXPECT_NEAR(static_cast<double>(counts[0]) / n, 0.1, 0.01);
  EXPECT_NEAR(static_cast<double>(counts[1]) / n, 0.3, 0.015);
  EXPECT_NEAR(static_cast<double>(counts[3]) / n, 0.6, 0.015);
}

TEST(RngTest, CategoricalDegenerateInput) {
  Rng rng(22);
  EXPECT_EQ(rng.Categorical({}), 0u);
  EXPECT_EQ(rng.Categorical({0.0, 0.0}), 1u);
}

TEST(RngTest, PermutationIsValid) {
  Rng rng(23);
  const std::vector<size_t> perm = rng.Permutation(100);
  std::set<size_t> unique(perm.begin(), perm.end());
  EXPECT_EQ(unique.size(), 100u);
  EXPECT_EQ(*unique.begin(), 0u);
  EXPECT_EQ(*unique.rbegin(), 99u);
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  Rng rng(24);
  for (size_t k : {0u, 1u, 5u, 50u, 100u}) {
    const std::vector<size_t> sample = rng.SampleWithoutReplacement(100, k);
    std::set<size_t> unique(sample.begin(), sample.end());
    EXPECT_EQ(sample.size(), k);
    EXPECT_EQ(unique.size(), k);
    for (size_t v : sample) {
      EXPECT_LT(v, 100u);
    }
  }
}

TEST(RngTest, SampleWithoutReplacementClampsK) {
  Rng rng(25);
  EXPECT_EQ(rng.SampleWithoutReplacement(10, 50).size(), 10u);
}

TEST(ZipfSamplerTest, PmfDecreasesWithRank) {
  ZipfSampler zipf(1000, 1.1);
  for (size_t k = 1; k < 100; ++k) {
    EXPECT_GT(zipf.Pmf(k - 1), zipf.Pmf(k));
  }
}

TEST(ZipfSamplerTest, PmfSumsToOne) {
  ZipfSampler zipf(500, 0.9);
  double sum = 0.0;
  for (size_t k = 0; k < 500; ++k) {
    sum += zipf.Pmf(k);
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(ZipfSamplerTest, SamplesConcentrateOnHead) {
  ZipfSampler zipf(1000, 1.2);
  Rng rng(26);
  int head_hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (zipf.Sample(rng) < 10) {
      ++head_hits;
    }
  }
  // The top-10 ranks should carry a large share of the mass under s = 1.2.
  EXPECT_GT(static_cast<double>(head_hits) / n, 0.35);
}

TEST(ZipfSamplerTest, OutOfRangePmfIsZero) {
  ZipfSampler zipf(10, 1.0);
  EXPECT_EQ(zipf.Pmf(10), 0.0);
  EXPECT_EQ(zipf.Pmf(1000), 0.0);
}

// Property sweep: every distribution sampler stays within its support across
// seeds.
class RngSeedSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RngSeedSweep, DistributionsStayInSupport) {
  Rng rng(GetParam());
  for (int i = 0; i < 500; ++i) {
    EXPECT_GE(rng.Uniform(), 0.0);
    EXPECT_LT(rng.Uniform(), 1.0);
    EXPECT_GT(rng.LogNormal(0.0, 1.0), 0.0);
    EXPECT_GE(rng.Exponential(1.0), 0.0);
    EXPECT_GE(rng.Gamma(2.0, 1.0), 0.0);
    const double b = rng.Beta(2.0, 2.0);
    EXPECT_GE(b, 0.0);
    EXPECT_LE(b, 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngSeedSweep,
                         ::testing::Values(1ull, 42ull, 0xdeadbeefull, 0xffffffffffffffffull,
                                           0x123456789abcdefull));

}  // namespace
}  // namespace iccache
