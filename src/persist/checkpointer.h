// Periodic checkpoint scheduler: decides WHEN to snapshot (trace-time
// cadence, gated on cluster load so checkpoint writes ride off-peak windows
// like replay does) and meters HOW LONG each write stalls the caller, so
// checkpoint cost shows up in benchmark percentile columns instead of
// hiding.
//
// The load gate is soft: a checkpoint overdue by kForceFactor intervals is
// taken regardless of load, bounding crash-recovery staleness on a saturated
// cluster at kForceFactor * interval_s of trace time.
#ifndef SRC_PERSIST_CHECKPOINTER_H_
#define SRC_PERSIST_CHECKPOINTER_H_

#include <cstddef>
#include <functional>
#include <string>

#include "src/common/stats.h"
#include "src/common/status.h"

namespace iccache {

struct CheckpointerConfig {
  std::string path;
  // Simulated seconds between checkpoints; <= 0 (or an empty path) disables.
  double interval_s = 0.0;
  // Off-peak gate: take due checkpoints only while utilization is below this.
  double load_threshold = 1e9;
};

class Checkpointer {
 public:
  explicit Checkpointer(CheckpointerConfig config = {}) : config_(config) {}

  bool enabled() const { return config_.interval_s > 0.0 && !config_.path.empty(); }

  // True when a checkpoint should be taken at trace time `now` under `load`.
  bool Due(double now, double load) const {
    if (!enabled()) {
      return false;
    }
    const double elapsed = now - last_time_;
    if (elapsed < config_.interval_s) {
      return false;
    }
    return load < config_.load_threshold || elapsed >= kForceFactor * config_.interval_s;
  }

  // Runs `write` (which persists to path()) and records its wall-clock cost.
  // Advances the cadence even on failure so a sick disk is retried next
  // interval instead of every window.
  Status Take(double now, const std::function<Status()>& write);

  // Aligns the cadence after a restore (the snapshot's trace time).
  void NoteRestored(double snapshot_time) { last_time_ = snapshot_time; }

  const std::string& path() const { return config_.path; }
  size_t taken() const { return taken_; }
  size_t failed() const { return failed_; }
  const Status& last_status() const { return last_status_; }
  // Wall-clock write latencies in milliseconds: bounded lifetime histogram
  // (constant memory however long the run) plus the most recent successful
  // write (callers keeping per-segment stats sample this after each Take).
  const LatencyHistogram& write_ms() const { return write_ms_; }
  double last_write_ms() const { return last_write_ms_; }

 private:
  // Take an overdue checkpoint regardless of load after this many intervals.
  static constexpr double kForceFactor = 2.0;

  CheckpointerConfig config_;
  double last_time_ = 0.0;
  size_t taken_ = 0;
  size_t failed_ = 0;
  Status last_status_;
  LatencyHistogram write_ms_;
  double last_write_ms_ = 0.0;
  uint64_t take_sequence_ = 0;
};

}  // namespace iccache

#endif  // SRC_PERSIST_CHECKPOINTER_H_
