#include "src/obs/watchdog.h"

#include <algorithm>
#include <cstdio>

namespace iccache {

namespace {

// Trailing-EMA floors below which the drop/growth rules stay disarmed.
constexpr double kStage0MinEma = 0.05;
constexpr double kQueueMinEmaS = 0.001;
// EMA smoothing for the trailing baselines.
constexpr double kEmaAlpha = 0.2;
// A latched rule re-arms after this many consecutive clean windows.
constexpr size_t kClearWindows = 3;

// Counter names the rules read from the driver's window samples.
constexpr char kRequestsCounter[] = "requests_total";
constexpr char kStage0HitsCounter[] = "stage0_hits_total";
constexpr char kEvictionsCounter[] = "examples_evicted_total";
constexpr char kStalledCounter[] = "maintenance_stalled_windows_total";

double SampleValue(const MetricsWindowSample& sample, const char* name) {
  // values are name-sorted; binary search keeps OnWindow O(rules * log n).
  auto it = std::lower_bound(
      sample.values.begin(), sample.values.end(), name,
      [](const std::pair<std::string, double>& entry, const char* key) {
        return entry.first < key;
      });
  if (it != sample.values.end() && it->first == name) {
    return it->second;
  }
  return 0.0;
}

std::string Describe(const char* format, double value, double threshold) {
  char buffer[160];
  std::snprintf(buffer, sizeof(buffer), format, value, threshold);
  return buffer;
}

}  // namespace

const char* WatchdogRuleName(WatchdogRule rule) {
  switch (rule) {
    case WatchdogRule::kSloE2eP99:
      return "slo_e2e_p99";
    case WatchdogRule::kStage0HitRateDrop:
      return "stage0_hit_rate_drop";
    case WatchdogRule::kQueueDelayGrowth:
      return "queue_delay_growth";
    case WatchdogRule::kEvictionStorm:
      return "eviction_storm";
    case WatchdogRule::kMaintenanceStall:
      return "maintenance_stall";
    case WatchdogRule::kNumRules:
      break;
  }
  return "unknown";
}

SloWatchdog::SloWatchdog(WatchdogConfig config)
    : config_(std::move(config)),
      hit_rate_ema_(kEmaAlpha),
      queue_ema_(kEmaAlpha) {
  armed_ = config_.slo_e2e_p99_s > 0.0 || config_.stage0_drop_fraction > 0.0 ||
           config_.queue_growth_factor > 0.0 ||
           config_.eviction_storm_threshold > 0.0 ||
           config_.maintenance_stall_rule;
  config_.trigger_windows = std::max<size_t>(1, config_.trigger_windows);
}

void SloWatchdog::Step(WatchdogRule rule, bool breached, double value,
                       double threshold, const std::string& detail,
                       uint64_t window, std::vector<WatchdogEvent>* fired) {
  RuleState& state = states_[static_cast<size_t>(rule)];
  if (state.latched) {
    if (breached) {
      state.clean = 0;
    } else if (++state.clean >= kClearWindows) {
      state.latched = false;
      state.clean = 0;
      state.breaches = 0;
    }
    return;
  }
  if (!breached) {
    state.breaches = 0;
    return;
  }
  if (++state.breaches < config_.trigger_windows) {
    return;
  }
  state.latched = true;
  state.breaches = 0;
  state.clean = 0;
  WatchdogEvent event;
  event.rule = rule;
  event.window = window;
  event.value = value;
  event.threshold = threshold;
  event.detail = detail;
  events_.push_back(event);
  if (fired != nullptr) {
    fired->push_back(std::move(event));
  }
}

std::vector<WatchdogEvent> SloWatchdog::OnWindow(const MetricsWindowSample& sample,
                                                 const LatencyHistogram& e2e,
                                                 const LatencyHistogram& queue) {
  std::vector<WatchdogEvent> fired;
  if (!armed_) {
    return fired;
  }
  if (!have_prev_) {
    // First window: record baselines, evaluate nothing (no deltas yet).
    prev_ = sample;
    prev_e2e_ = e2e;
    prev_queue_ = queue;
    have_prev_ = true;
    return fired;
  }

  const LatencyHistogram e2e_delta = LatencyHistogram::Delta(e2e, prev_e2e_);
  const LatencyHistogram queue_delta = LatencyHistogram::Delta(queue, prev_queue_);
  const double requests_delta =
      SampleValue(sample, kRequestsCounter) -
      SampleValue(prev_, kRequestsCounter);

  if (config_.slo_e2e_p99_s > 0.0 && e2e_delta.count() > 0) {
    const double p99 = e2e_delta.Percentile(99.0);
    Step(WatchdogRule::kSloE2eP99, p99 > config_.slo_e2e_p99_s, p99,
         config_.slo_e2e_p99_s,
         Describe("window e2e p99 %.3fs over SLO %.3fs", p99, config_.slo_e2e_p99_s),
         sample.window, &fired);
  }

  if (config_.stage0_drop_fraction > 0.0 && requests_delta > 0.0) {
    const double hits_delta =
        SampleValue(sample, kStage0HitsCounter) -
        SampleValue(prev_, kStage0HitsCounter);
    const double rate = std::max(0.0, hits_delta) / requests_delta;
    const double floor =
        hit_rate_ema_.value() * config_.stage0_drop_fraction;
    const bool ema_armed =
        hit_rate_ema_.initialized() && hit_rate_ema_.value() >= kStage0MinEma;
    Step(WatchdogRule::kStage0HitRateDrop, ema_armed && rate < floor, rate, floor,
         Describe("stage-0 hit rate %.3f below %.3f (drop vs trailing EMA)", rate,
                  floor),
         sample.window, &fired);
    hit_rate_ema_.Add(rate);
  }

  if (config_.queue_growth_factor > 0.0 && queue_delta.count() > 0) {
    const double mean = queue_delta.mean();
    const double bound = queue_ema_.value() * config_.queue_growth_factor;
    const bool ema_armed =
        queue_ema_.initialized() && queue_ema_.value() >= kQueueMinEmaS;
    Step(WatchdogRule::kQueueDelayGrowth, ema_armed && mean > bound, mean, bound,
         Describe("mean queue delay %.4fs above %.4fs (growth vs trailing EMA)",
                  mean, bound),
         sample.window, &fired);
    queue_ema_.Add(mean);
  }

  if (config_.eviction_storm_threshold > 0.0) {
    const double evictions_delta =
        SampleValue(sample, kEvictionsCounter) -
        SampleValue(prev_, kEvictionsCounter);
    Step(WatchdogRule::kEvictionStorm,
         evictions_delta > config_.eviction_storm_threshold, evictions_delta,
         config_.eviction_storm_threshold,
         Describe("%.0f evictions in one window (bound %.0f)", evictions_delta,
                  config_.eviction_storm_threshold),
         sample.window, &fired);
  }

  if (config_.maintenance_stall_rule) {
    const double stalled_delta =
        SampleValue(sample, kStalledCounter) -
        SampleValue(prev_, kStalledCounter);
    Step(WatchdogRule::kMaintenanceStall, stalled_delta > 0.0, stalled_delta, 0.0,
         Describe("maintenance stalled %.0f window(s) (bound %.0f)", stalled_delta,
                  0.0),
         sample.window, &fired);
  }

  prev_ = sample;
  prev_e2e_ = e2e;
  prev_queue_ = queue;
  return fired;
}

}  // namespace iccache
