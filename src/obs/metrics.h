// Thread-safe metrics for the serving pipeline: named counters and gauges
// with lock-free hot paths (callers hold stable handles; updates are atomic
// double CAS/stores), bounded log-bucketed latency histograms, a per-window
// time series of snapshots, and Prometheus-style text exposition.
//
// Registration (name -> handle) takes a mutex; steady-state updates through
// the returned handles touch only the entry's own atomics. Handles stay
// valid for the hub's lifetime — entries are heap-allocated and never freed.
#ifndef SRC_OBS_METRICS_H_
#define SRC_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/common/stats.h"

namespace iccache {

namespace obs_internal {

inline uint64_t DoubleBits(double value) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(value), "double must be 64-bit");
  __builtin_memcpy(&bits, &value, sizeof(bits));
  return bits;
}

inline double BitsDouble(uint64_t bits) {
  double value = 0.0;
  __builtin_memcpy(&value, &bits, sizeof(value));
  return value;
}

}  // namespace obs_internal

// Monotonically increasing value; Add() is a CAS loop on the double's bits.
class MetricCounter {
 public:
  void Add(double delta) {
    uint64_t observed = bits_.load(std::memory_order_relaxed);
    while (!bits_.compare_exchange_weak(
        observed, obs_internal::DoubleBits(obs_internal::BitsDouble(observed) + delta),
        std::memory_order_relaxed)) {
    }
  }
  void Increment() { Add(1.0); }
  double value() const {
    return obs_internal::BitsDouble(bits_.load(std::memory_order_relaxed));
  }

 private:
  std::atomic<uint64_t> bits_{0};
};

// Last-write-wins instantaneous value.
class MetricGauge {
 public:
  void Set(double value) {
    bits_.store(obs_internal::DoubleBits(value), std::memory_order_relaxed);
  }
  double value() const {
    return obs_internal::BitsDouble(bits_.load(std::memory_order_relaxed));
  }

 private:
  std::atomic<uint64_t> bits_{0};
};

// Mutex-wrapped LatencyHistogram; Observe() is off the per-request fast path
// (window boundaries, completion accounting), so a lock is fine here.
class MetricHistogram {
 public:
  explicit MetricHistogram(LatencyHistogram shape) : histogram_(std::move(shape)) {}

  void Observe(double value) {
    std::lock_guard<std::mutex> lock(mu_);
    histogram_.Add(value);
  }
  LatencyHistogram snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    return histogram_;
  }

 private:
  mutable std::mutex mu_;
  LatencyHistogram histogram_;
};

// One row of the per-window time series: every counter and gauge value at a
// window boundary, name-sorted.
struct MetricsWindowSample {
  uint64_t window = 0;
  double sim_time_s = 0.0;
  uint64_t mono_ns = 0;
  std::vector<std::pair<std::string, double>> values;
};

class MetricsHub {
 public:
  static constexpr size_t kDefaultSeriesCapacity = 4096;

  // Registration: returns a stable handle, creating the entry on first use.
  // A Histogram()'s bucket geometry is fixed by the first registration.
  MetricCounter* Counter(const std::string& name);
  MetricGauge* Gauge(const std::string& name);
  MetricHistogram* Histogram(const std::string& name, double lo = 1e-6,
                             double growth = 1.10, size_t num_buckets = 256);

  // Name-based conveniences for cold paths.
  void Add(const std::string& name, double delta = 1.0) { Counter(name)->Add(delta); }
  void Set(const std::string& name, double value) { Gauge(name)->Set(value); }
  void Observe(const std::string& name, double value) { Histogram(name)->Observe(value); }

  // Current value of a counter or gauge by name; 0 when unregistered.
  double Value(const std::string& name) const;
  // Copy of a histogram's state; empty default-shaped histogram when absent.
  LatencyHistogram HistogramSnapshot(const std::string& name) const;

  // Every counter and gauge value right now, name-sorted (the same rows a
  // window snapshot records).
  std::vector<std::pair<std::string, double>> CountersAndGauges() const;

  // Records every counter/gauge into the bounded per-window series
  // (drop-oldest past capacity, with an exposed dropped count) and returns
  // the recorded sample so callers (e.g. the SLO watchdog) can evaluate it
  // without re-reading the series.
  MetricsWindowSample SnapshotWindow(uint64_t window, double sim_time_s,
                                     uint64_t mono_ns);
  std::vector<MetricsWindowSample> series() const;
  uint64_t series_dropped() const;
  void set_series_capacity(size_t capacity);

  // Prometheus text exposition: counters/gauges as single samples,
  // histograms as cumulative `le` buckets plus `_sum`/`_count`.
  std::string PrometheusText(const std::string& prefix = "iccache_") const;

 private:
  std::vector<std::pair<std::string, double>> CountersAndGaugesLocked() const;

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<MetricCounter>> counters_;
  std::map<std::string, std::unique_ptr<MetricGauge>> gauges_;
  std::map<std::string, std::unique_ptr<MetricHistogram>> histograms_;
  std::deque<MetricsWindowSample> series_;
  size_t series_capacity_ = kDefaultSeriesCapacity;
  uint64_t series_dropped_ = 0;
};

}  // namespace iccache

#endif  // SRC_OBS_METRICS_H_
