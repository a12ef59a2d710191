#include "src/common/stats.h"

#include <cmath>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"

namespace iccache {
namespace {

TEST(RunningStatTest, MatchesDirectComputation) {
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0, 10.0};
  RunningStat stat;
  for (double x : xs) {
    stat.Add(x);
  }
  EXPECT_EQ(stat.count(), 5u);
  EXPECT_NEAR(stat.mean(), 4.0, 1e-12);
  double var = 0.0;
  for (double x : xs) {
    var += (x - 4.0) * (x - 4.0);
  }
  var /= xs.size();
  EXPECT_NEAR(stat.variance(), var, 1e-12);
  EXPECT_NEAR(stat.stddev(), std::sqrt(var), 1e-12);
  EXPECT_EQ(stat.min(), 1.0);
  EXPECT_EQ(stat.max(), 10.0);
  EXPECT_NEAR(stat.sum(), 20.0, 1e-12);
}

TEST(RunningStatTest, EmptyAndSingle) {
  RunningStat stat;
  EXPECT_EQ(stat.count(), 0u);
  EXPECT_EQ(stat.variance(), 0.0);
  EXPECT_EQ(stat.min(), 0.0);
  stat.Add(7.0);
  EXPECT_EQ(stat.mean(), 7.0);
  EXPECT_EQ(stat.variance(), 0.0);
}

TEST(RunningStatTest, NumericallyStableForLargeOffsets) {
  RunningStat stat;
  for (int i = 0; i < 1000; ++i) {
    stat.Add(1e9 + (i % 2));
  }
  EXPECT_NEAR(stat.variance(), 0.25, 1e-6);
}

TEST(EmaTest, FirstSampleInitializes) {
  Ema ema(0.1);
  EXPECT_FALSE(ema.initialized());
  ema.Add(10.0);
  EXPECT_TRUE(ema.initialized());
  EXPECT_EQ(ema.value(), 10.0);
}

TEST(EmaTest, ConvergesTowardConstantInput) {
  Ema ema(0.2);
  ema.Add(0.0);
  for (int i = 0; i < 100; ++i) {
    ema.Add(5.0);
  }
  EXPECT_NEAR(ema.value(), 5.0, 1e-6);
}

TEST(EmaTest, SingleStepBlend) {
  Ema ema(0.25);
  ema.Add(0.0);
  ema.Add(8.0);
  EXPECT_NEAR(ema.value(), 2.0, 1e-12);
}

TEST(EmaTest, DecayScalesValue) {
  Ema ema(0.5);
  ema.Add(10.0);
  ema.Decay(0.9);
  EXPECT_NEAR(ema.value(), 9.0, 1e-12);
}

TEST(HistogramTest, BinsAndDensity) {
  Histogram hist(0.0, 10.0, 10);
  for (int i = 0; i < 10; ++i) {
    hist.Add(static_cast<double>(i) + 0.5);
  }
  EXPECT_EQ(hist.count(), 10u);
  for (size_t b = 0; b < 10; ++b) {
    EXPECT_NEAR(hist.Density(b), 0.1, 1e-12);
    EXPECT_NEAR(hist.BinCenter(b), static_cast<double>(b) + 0.5, 1e-12);
  }
}

TEST(HistogramTest, OutOfRangeClamps) {
  Histogram hist(0.0, 1.0, 4);
  hist.Add(-5.0);
  hist.Add(5.0);
  EXPECT_EQ(hist.bins()[0], 1u);
  EXPECT_EQ(hist.bins()[3], 1u);
}

TEST(HistogramTest, ToStringHasOneRowPerBin) {
  Histogram hist(0.0, 1.0, 3);
  hist.Add(0.5);
  const std::string rendered = hist.ToString();
  EXPECT_EQ(std::count(rendered.begin(), rendered.end(), '\n'), 3);
}

TEST(EmpiricalCdfTest, StepFunctionValues) {
  EmpiricalCdf cdf({1.0, 2.0, 3.0, 4.0});
  EXPECT_EQ(cdf.At(0.5), 0.0);
  EXPECT_EQ(cdf.At(1.0), 0.25);
  EXPECT_EQ(cdf.At(2.5), 0.5);
  EXPECT_EQ(cdf.At(10.0), 1.0);
}

TEST(EmpiricalCdfTest, QuantileInterpolates) {
  EmpiricalCdf cdf({0.0, 10.0});
  EXPECT_NEAR(cdf.Quantile(0.0), 0.0, 1e-12);
  EXPECT_NEAR(cdf.Quantile(0.5), 5.0, 1e-12);
  EXPECT_NEAR(cdf.Quantile(1.0), 10.0, 1e-12);
}

TEST(EmpiricalCdfTest, EmptyInput) {
  EmpiricalCdf cdf({});
  EXPECT_EQ(cdf.At(1.0), 0.0);
  EXPECT_EQ(cdf.Quantile(0.5), 0.0);
}

TEST(EmpiricalCdfTest, ExactOrderStatistics) {
  std::vector<double> samples;
  for (int i = 1; i <= 100; ++i) {
    samples.push_back(static_cast<double>(i));
  }
  EmpiricalCdf cdf(std::move(samples));
  EXPECT_EQ(cdf.count(), 100u);
  EXPECT_NEAR(cdf.Quantile(0.0), 1.0, 1e-12);
  EXPECT_NEAR(cdf.Quantile(1.0), 100.0, 1e-12);
  EXPECT_NEAR(cdf.Quantile(0.5), 50.5, 1e-12);
  EXPECT_NEAR(cdf.Quantile(0.99), 99.01, 0.05);
}

TEST(EmpiricalCdfTest, UnsortedInput) {
  EmpiricalCdf cdf({5.0, 1.0, 3.0, 2.0, 4.0});
  EXPECT_NEAR(cdf.Quantile(0.5), 3.0, 1e-12);
}

TEST(LatencyHistogramTest, EmptyReturnsZero) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 0.0);
  EXPECT_EQ(h.Percentile(50.0), 0.0);
}

TEST(LatencyHistogramTest, BucketBoundaries) {
  LatencyHistogram h(/*lo=*/1.0, /*growth=*/2.0, /*num_buckets=*/4);
  // Buckets: [1,2) [2,4) [4,8) [8,16); edges are half-open on the right.
  EXPECT_DOUBLE_EQ(h.BucketLowerEdge(0), 1.0);
  EXPECT_DOUBLE_EQ(h.BucketUpperEdge(3), 16.0);
  h.Add(1.0);   // lowest representable value -> bucket 0
  h.Add(1.99);  // still bucket 0
  h.Add(2.0);   // exactly on an edge -> bucket 1
  h.Add(7.99);  // bucket 2
  h.Add(8.0);   // bucket 3
  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.bucket_count(1), 1u);
  EXPECT_EQ(h.bucket_count(2), 1u);
  EXPECT_EQ(h.bucket_count(3), 1u);
  EXPECT_EQ(h.underflow_count(), 0u);
  EXPECT_EQ(h.overflow_count(), 0u);
  EXPECT_EQ(h.count(), 5u);
}

TEST(LatencyHistogramTest, UnderflowAndOverflowKeepExactExtremes) {
  LatencyHistogram h(/*lo=*/1.0, /*growth=*/2.0, /*num_buckets=*/4);
  h.Add(0.25);   // below lo -> underflow
  h.Add(100.0);  // at/past top edge (16) -> overflow
  EXPECT_EQ(h.underflow_count(), 1u);
  EXPECT_EQ(h.overflow_count(), 1u);
  EXPECT_EQ(h.count(), 2u);
  // Ranks resolving to the underflow/overflow buckets answer with the exact
  // tracked min/max, not a bucket midpoint.
  EXPECT_DOUBLE_EQ(h.Percentile(1.0), 0.25);
  EXPECT_DOUBLE_EQ(h.Percentile(99.0), 100.0);
  EXPECT_DOUBLE_EQ(h.min(), 0.25);
  EXPECT_DOUBLE_EQ(h.max(), 100.0);
}

TEST(LatencyHistogramTest, PercentileErrorBoundHolds) {
  // The documented contract: in-range relative error <= sqrt(growth) - 1.
  LatencyHistogram h;  // defaults: lo=1e-6, growth=1.10
  Rng rng(0x9157);
  std::vector<double> samples;
  for (int i = 0; i < 4000; ++i) {
    const double x = std::exp(rng.Normal(-3.0, 1.5));  // log-normal latencies
    h.Add(x);
    samples.push_back(x);
  }
  const EmpiricalCdf exact(std::move(samples));
  const double bound = std::sqrt(1.10) - 1.0;
  for (double p : {10.0, 50.0, 90.0, 99.0}) {
    const double estimate = h.Percentile(p);
    const double truth = exact.Quantile(p / 100.0);
    EXPECT_LE(std::abs(estimate - truth) / truth, bound + 0.01)
        << "p=" << p << " estimate=" << estimate << " truth=" << truth;
  }
}

TEST(LatencyHistogramTest, PercentileMonotoneInP) {
  LatencyHistogram h;
  Rng rng(42);
  for (int i = 0; i < 1000; ++i) {
    h.Add(std::exp(rng.Normal(-2.0, 2.0)));
  }
  double previous = 0.0;
  for (double p = 0.0; p <= 100.0; p += 2.5) {
    const double value = h.Percentile(p);
    EXPECT_GE(value, previous) << "p=" << p;
    previous = value;
  }
}

}  // namespace
}  // namespace iccache
