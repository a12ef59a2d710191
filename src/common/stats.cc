#include "src/common/stats.h"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace iccache {

void RunningStat::Add(double x) {
  if (count_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double RunningStat::variance() const {
  if (count_ < 2) {
    return 0.0;
  }
  return m2_ / static_cast<double>(count_);
}

double RunningStat::stddev() const { return std::sqrt(variance()); }

void RunningStat::Reset() {
  count_ = 0;
  mean_ = 0.0;
  m2_ = 0.0;
  min_ = 0.0;
  max_ = 0.0;
}

Ema::Ema(double alpha) : alpha_(std::min(1.0, std::max(1e-9, alpha))) {}

void Ema::Add(double x) {
  if (!initialized_) {
    value_ = x;
    initialized_ = true;
    return;
  }
  value_ = alpha_ * x + (1.0 - alpha_) * value_;
}

void Ema::Reset() {
  value_ = 0.0;
  initialized_ = false;
}

void Ema::Decay(double factor) { value_ *= factor; }

LatencyHistogram::LatencyHistogram(double lo, double growth, size_t num_buckets)
    : lo_(std::max(1e-300, lo)),
      growth_(std::max(1.0 + 1e-9, growth)),
      buckets_(std::max<size_t>(1, num_buckets), 0) {
  edges_.reserve(buckets_.size() + 1);
  double edge = lo_;
  for (size_t i = 0; i <= buckets_.size(); ++i) {
    edges_.push_back(edge);
    edge *= growth_;
  }
}

void LatencyHistogram::Add(double x) {
  if (count_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sum_ += x;
  const int bin = BucketIndex(x);
  if (bin < 0) {
    ++underflow_;
  } else if (static_cast<size_t>(bin) >= buckets_.size()) {
    ++overflow_;
  } else {
    ++buckets_[bin];
  }
}

int LatencyHistogram::BucketIndex(double x) const {
  if (x < edges_.front()) {
    return -1;
  }
  if (x >= edges_.back()) {
    return static_cast<int>(buckets_.size());
  }
  // log() lands on the right bucket up to floating-point rounding at the
  // boundaries; the probes below repair an off-by-one either way.
  size_t bin = static_cast<size_t>(std::log(x / lo_) / std::log(growth_));
  bin = std::min(bin, buckets_.size() - 1);
  while (bin > 0 && x < edges_[bin]) {
    --bin;
  }
  while (bin + 1 < buckets_.size() && x >= edges_[bin + 1]) {
    ++bin;
  }
  return static_cast<int>(bin);
}

bool LatencyHistogram::Merge(const LatencyHistogram& other) {
  if (other.lo_ != lo_ || other.growth_ != growth_ ||
      other.buckets_.size() != buckets_.size()) {
    return false;
  }
  if (other.count_ > 0) {
    if (count_ == 0) {
      min_ = other.min_;
      max_ = other.max_;
    } else {
      min_ = std::min(min_, other.min_);
      max_ = std::max(max_, other.max_);
    }
  }
  for (size_t i = 0; i < buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
  underflow_ += other.underflow_;
  overflow_ += other.overflow_;
  count_ += other.count_;
  sum_ += other.sum_;
  return true;
}

LatencyHistogram LatencyHistogram::Delta(const LatencyHistogram& now,
                                         const LatencyHistogram& prev) {
  if (prev.lo_ != now.lo_ || prev.growth_ != now.growth_ ||
      prev.buckets_.size() != now.buckets_.size() || prev.count_ > now.count_) {
    return now;
  }
  LatencyHistogram delta = now;
  for (size_t i = 0; i < delta.buckets_.size(); ++i) {
    delta.buckets_[i] -= prev.buckets_[i];
  }
  delta.underflow_ -= prev.underflow_;
  delta.overflow_ -= prev.overflow_;
  delta.count_ -= prev.count_;
  delta.sum_ -= prev.sum_;
  if (delta.count_ == 0) {
    delta.sum_ = 0.0;
    delta.min_ = 0.0;
    delta.max_ = 0.0;
  }
  return delta;
}

double LatencyHistogram::Percentile(double p) const {
  if (count_ == 0) {
    return 0.0;
  }
  const double clamped = std::min(100.0, std::max(0.0, p));
  // Nearest-rank: the smallest bucket whose cumulative count reaches `rank`.
  const uint64_t rank = std::max<uint64_t>(
      1, static_cast<uint64_t>(std::ceil(clamped / 100.0 * static_cast<double>(count_))));
  uint64_t cumulative = underflow_;
  if (rank <= cumulative) {
    return min_;
  }
  for (size_t i = 0; i < buckets_.size(); ++i) {
    cumulative += buckets_[i];
    if (rank <= cumulative) {
      const double midpoint = std::sqrt(edges_[i] * edges_[i + 1]);
      return std::min(max_, std::max(min_, midpoint));
    }
  }
  return max_;
}

void LatencyHistogram::Reset() {
  std::fill(buckets_.begin(), buckets_.end(), 0);
  underflow_ = 0;
  overflow_ = 0;
  count_ = 0;
  sum_ = 0.0;
  min_ = 0.0;
  max_ = 0.0;
}

Histogram::Histogram(double lo, double hi, size_t num_bins)
    : lo_(lo), hi_(hi), width_((hi - lo) / static_cast<double>(std::max<size_t>(1, num_bins))),
      bins_(std::max<size_t>(1, num_bins), 0) {}

void Histogram::Add(double x) {
  double clamped = std::min(std::nextafter(hi_, lo_), std::max(lo_, x));
  size_t bin = static_cast<size_t>((clamped - lo_) / width_);
  bin = std::min(bin, bins_.size() - 1);
  ++bins_[bin];
  ++total_;
}

double Histogram::BinCenter(size_t i) const {
  return lo_ + (static_cast<double>(i) + 0.5) * width_;
}

double Histogram::Density(size_t i) const {
  if (total_ == 0 || i >= bins_.size()) {
    return 0.0;
  }
  return static_cast<double>(bins_[i]) / static_cast<double>(total_);
}

std::string Histogram::ToString() const {
  std::ostringstream out;
  for (size_t i = 0; i < bins_.size(); ++i) {
    out << BinCenter(i) << " " << Density(i) << "\n";
  }
  return out.str();
}

EmpiricalCdf::EmpiricalCdf(std::vector<double> samples) : samples_(std::move(samples)) {
  std::sort(samples_.begin(), samples_.end());
}

double EmpiricalCdf::At(double x) const {
  if (samples_.empty()) {
    return 0.0;
  }
  const auto it = std::upper_bound(samples_.begin(), samples_.end(), x);
  return static_cast<double>(it - samples_.begin()) / static_cast<double>(samples_.size());
}

double EmpiricalCdf::Quantile(double q) const {
  if (samples_.empty()) {
    return 0.0;
  }
  const double clamped = std::min(1.0, std::max(0.0, q));
  const double rank = clamped * static_cast<double>(samples_.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = static_cast<size_t>(std::ceil(rank));
  if (lo == hi) {
    return samples_[lo];
  }
  const double frac = rank - static_cast<double>(lo);
  return samples_[lo] * (1.0 - frac) + samples_[hi] * frac;
}

}  // namespace iccache
