#include "src/obs/metrics.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

namespace iccache {

namespace {

std::string FormatDouble(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.9g", value);
  return buffer;
}

}  // namespace

MetricCounter* MetricsHub::Counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (!slot) {
    slot = std::make_unique<MetricCounter>();
  }
  return slot.get();
}

MetricGauge* MetricsHub::Gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) {
    slot = std::make_unique<MetricGauge>();
  }
  return slot.get();
}

MetricHistogram* MetricsHub::Histogram(const std::string& name, double lo,
                                       double growth, size_t num_buckets) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) {
    slot = std::make_unique<MetricHistogram>(LatencyHistogram(lo, growth, num_buckets));
  }
  return slot.get();
}

double MetricsHub::Value(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto counter = counters_.find(name);
  if (counter != counters_.end()) {
    return counter->second->value();
  }
  auto gauge = gauges_.find(name);
  if (gauge != gauges_.end()) {
    return gauge->second->value();
  }
  return 0.0;
}

LatencyHistogram MetricsHub::HistogramSnapshot(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    return LatencyHistogram();
  }
  return it->second->snapshot();
}

std::vector<std::pair<std::string, double>> MetricsHub::CountersAndGauges() const {
  std::lock_guard<std::mutex> lock(mu_);
  return CountersAndGaugesLocked();
}

std::vector<std::pair<std::string, double>> MetricsHub::CountersAndGaugesLocked() const {
  std::vector<std::pair<std::string, double>> values;
  values.reserve(counters_.size() + gauges_.size());
  for (const auto& [name, counter] : counters_) {
    values.emplace_back(name, counter->value());
  }
  for (const auto& [name, gauge] : gauges_) {
    values.emplace_back(name, gauge->value());
  }
  std::sort(values.begin(), values.end());
  return values;
}

MetricsWindowSample MetricsHub::SnapshotWindow(uint64_t window, double sim_time_s,
                                               uint64_t mono_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsWindowSample sample;
  sample.window = window;
  sample.sim_time_s = sim_time_s;
  sample.mono_ns = mono_ns;
  sample.values = CountersAndGaugesLocked();
  series_.push_back(sample);
  while (series_.size() > series_capacity_) {
    series_.pop_front();
    ++series_dropped_;
  }
  return sample;
}

std::vector<MetricsWindowSample> MetricsHub::series() const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::vector<MetricsWindowSample>(series_.begin(), series_.end());
}

uint64_t MetricsHub::series_dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return series_dropped_;
}

void MetricsHub::set_series_capacity(size_t capacity) {
  std::lock_guard<std::mutex> lock(mu_);
  series_capacity_ = std::max<size_t>(1, capacity);
  while (series_.size() > series_capacity_) {
    series_.pop_front();
    ++series_dropped_;
  }
}

std::string MetricsHub::PrometheusText(const std::string& prefix) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream out;
  for (const auto& [name, counter] : counters_) {
    const std::string full = prefix + name;
    out << "# TYPE " << full << " counter\n";
    out << full << " " << FormatDouble(counter->value()) << "\n";
  }
  for (const auto& [name, gauge] : gauges_) {
    const std::string full = prefix + name;
    out << "# TYPE " << full << " gauge\n";
    out << full << " " << FormatDouble(gauge->value()) << "\n";
  }
  for (const auto& [name, histogram] : histograms_) {
    const std::string full = prefix + name;
    const LatencyHistogram snap = histogram->snapshot();
    out << "# TYPE " << full << " histogram\n";
    uint64_t cumulative = snap.underflow_count();
    // Emit buckets up to the last occupied one; the +Inf bucket carries the
    // remainder, keeping the exposition compact for 256-bucket histograms.
    size_t last_occupied = 0;
    for (size_t i = 0; i < snap.num_buckets(); ++i) {
      if (snap.bucket_count(i) > 0) {
        last_occupied = i + 1;
      }
    }
    for (size_t i = 0; i < last_occupied; ++i) {
      cumulative += snap.bucket_count(i);
      out << full << "_bucket{le=\"" << FormatDouble(snap.BucketUpperEdge(i))
          << "\"} " << cumulative << "\n";
    }
    out << full << "_bucket{le=\"+Inf\"} " << snap.count() << "\n";
    out << full << "_sum " << FormatDouble(snap.sum()) << "\n";
    out << full << "_count " << snap.count() << "\n";
  }
  return out.str();
}

}  // namespace iccache
