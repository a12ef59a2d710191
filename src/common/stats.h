// Online statistics used throughout the serving simulator and the IC-Cache
// runtime: Welford running moments, exponential moving averages (the router's
// load signal, the manager's utility decay), bounded latency histograms, and
// simple histogram / CDF builders for the figure harnesses.
#ifndef SRC_COMMON_STATS_H_
#define SRC_COMMON_STATS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace iccache {

// Numerically stable running mean/variance (Welford).
class RunningStat {
 public:
  void Add(double x);

  size_t count() const { return count_; }
  double mean() const { return mean_; }
  // Population variance; 0 with fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return count_ == 0 ? 0.0 : max_; }
  double sum() const { return mean_ * static_cast<double>(count_); }

  void Reset();

 private:
  size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// Exponential moving average with a configurable smoothing factor alpha in
// (0, 1]: ema <- alpha * x + (1 - alpha) * ema.
class Ema {
 public:
  explicit Ema(double alpha);

  void Add(double x);
  double value() const { return value_; }
  bool initialized() const { return initialized_; }
  void Reset();

  // Applies a multiplicative decay directly (used for the hourly 0.9 utility
  // decay in the Example Manager, paper section 4.3).
  void Decay(double factor);

  // Exact state restore (snapshot persistence); the initialized flag matters
  // because the first Add() assigns rather than blends.
  void RestoreState(double value, bool initialized) {
    value_ = value;
    initialized_ = initialized;
  }

 private:
  double alpha_;
  double value_ = 0.0;
  bool initialized_ = false;
};

// Bounded log-bucketed latency histogram: constant memory regardless of run
// length, unlike EmpiricalCdf which retains every sample. Bucket i spans
// [lo * growth^i, lo * growth^(i+1)); values below `lo` land in a dedicated
// underflow bucket and values at or past the top edge in an overflow bucket,
// while the exact count, sum, min, and max are tracked alongside.
//
// Percentile() resolves the requested rank to a bucket and returns the
// bucket's geometric midpoint, so for in-range values the relative error is
// bounded by sqrt(growth) - 1 (about 4.9% with the default growth of 1.10).
// Ranks that land in the underflow/overflow buckets return the exact tracked
// min/max, and every result is clamped to [min, max]. The defaults cover
// 1 microsecond to roughly 10 hours when samples are in seconds.
class LatencyHistogram {
 public:
  explicit LatencyHistogram(double lo = 1e-6, double growth = 1.10,
                            size_t num_buckets = 256);

  void Add(double x);
  // Sums `other` into this histogram; both must share lo/growth/num_buckets.
  // Returns false (and leaves this histogram untouched) on a geometry
  // mismatch.
  bool Merge(const LatencyHistogram& other);

  // Bucket a value would land in: -1 for underflow, num_buckets() for
  // overflow, otherwise the in-range bucket index.
  int BucketIndex(double x) const;

  // Bucket-wise difference `now - prev`, where `prev` is an earlier snapshot
  // of the same histogram (the per-window delta the SLO watchdog evaluates).
  // Returns `now` unchanged when the geometries differ or `prev` is not a
  // prefix (its count exceeds now's). The delta keeps now's lifetime min/max
  // — exact per-window extremes are not recoverable from bucket counts — so
  // Percentile() on a delta is only approximate for ranks landing in the
  // underflow/overflow buckets.
  static LatencyHistogram Delta(const LatencyHistogram& now,
                                const LatencyHistogram& prev);

  // p in [0, 100]; nearest-rank bucket lookup, geometric-midpoint estimate.
  double Percentile(double p) const;

  size_t count() const { return static_cast<size_t>(count_); }
  double sum() const { return sum_; }
  double mean() const { return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_); }
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return count_ == 0 ? 0.0 : max_; }

  size_t num_buckets() const { return buckets_.size(); }
  uint64_t bucket_count(size_t i) const { return buckets_[i]; }
  uint64_t underflow_count() const { return underflow_; }
  uint64_t overflow_count() const { return overflow_; }
  // Edges of bucket i: [BucketLowerEdge(i), BucketUpperEdge(i)).
  double BucketLowerEdge(size_t i) const { return edges_[i]; }
  double BucketUpperEdge(size_t i) const { return edges_[i + 1]; }
  double lo() const { return lo_; }
  double growth() const { return growth_; }

  void Reset();

 private:
  double lo_;
  double growth_;
  std::vector<double> edges_;  // num_buckets + 1 precomputed boundaries
  std::vector<uint64_t> buckets_;
  uint64_t underflow_ = 0;
  uint64_t overflow_ = 0;
  uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// Fixed-width histogram over [lo, hi) with out-of-range clamping.
class Histogram {
 public:
  Histogram(double lo, double hi, size_t num_bins);

  void Add(double x);
  size_t count() const { return total_; }
  const std::vector<uint64_t>& bins() const { return bins_; }
  double BinCenter(size_t i) const;
  // Fraction of mass in bin i; 0 when empty.
  double Density(size_t i) const;
  // Renders "center density" rows, one per bin, for the figure harnesses.
  std::string ToString() const;

 private:
  double lo_;
  double hi_;
  double width_;
  std::vector<uint64_t> bins_;
  uint64_t total_ = 0;
};

// Empirical CDF evaluation over a retained sample set; intended for offline
// experiment reporting, not hot paths.
class EmpiricalCdf {
 public:
  explicit EmpiricalCdf(std::vector<double> samples);

  // P(X <= x).
  double At(double x) const;
  // Inverse CDF (quantile), q in [0, 1]: linear interpolation between the
  // order statistics at rank q * (n - 1); 0 when empty.
  double Quantile(double q) const;
  size_t count() const { return samples_.size(); }

 private:
  std::vector<double> samples_;
};

}  // namespace iccache

#endif  // SRC_COMMON_STATS_H_
