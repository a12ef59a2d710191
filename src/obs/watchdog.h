// Online SLO watchdog over the per-window MetricsHub snapshot series.
// Evaluated once per driver window boundary against declarative rules: e2e
// p99 over SLO, stage-0 hit-rate collapse vs a trailing EMA, queue-delay
// growth, eviction storms.
// Rules fire with hysteresis (consecutive breaches to trigger, consecutive
// clean windows to re-arm) and emit structured WatchdogEvents the caller
// records into the trace and the run report.
//
// Strictly passive: the watchdog reads deltas of already-maintained metrics,
// consumes no randomness, and never feeds back into serving decisions, so
// decisions stay byte-identical with it enabled or disabled.
#ifndef SRC_OBS_WATCHDOG_H_
#define SRC_OBS_WATCHDOG_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/stats.h"
#include "src/obs/metrics.h"

namespace iccache {

enum class WatchdogRule : uint8_t {
  kSloE2eP99 = 0,       // per-window e2e p99 above the SLO bound
  kStage0HitRateDrop,   // window hit rate collapsed vs trailing EMA
  kQueueDelayGrowth,    // window mean queue delay grew vs trailing EMA
  kEvictionStorm,       // more evictions in one window than the bound
  kNumRules,
};

const char* WatchdogRuleName(WatchdogRule rule);

// Every rule defaults to disabled (threshold 0), so a default-constructed
// watchdog is a no-op until configured.
struct WatchdogConfig {
  // Fire when the delta-window e2e p99 exceeds this bound (seconds).
  double slo_e2e_p99_s = 0.0;
  // Fire when the window's stage-0 hit rate falls below
  // `stage0_drop_fraction` x trailing EMA. Armed only once the EMA has
  // reached a floor (suppresses cold-start noise).
  double stage0_drop_fraction = 0.0;
  // Fire when the window's mean queue delay exceeds `queue_growth_factor` x
  // trailing EMA, once the EMA has reached a floor.
  double queue_growth_factor = 0.0;
  // Fire when a single window evicts more than this many examples.
  double eviction_storm_threshold = 0.0;

  // Hysteresis: breach this many consecutive windows to fire, then stay
  // latched until a run of consecutive clean windows (watchdog.cc).
  size_t trigger_windows = 3;
};

struct WatchdogEvent {
  WatchdogRule rule = WatchdogRule::kSloE2eP99;
  uint64_t window = 0;
  double value = 0.0;      // observed value that breached
  double threshold = 0.0;  // bound it breached
  std::string detail;      // human-readable one-liner
};

class SloWatchdog {
 public:
  SloWatchdog() : SloWatchdog(WatchdogConfig{}) {}
  explicit SloWatchdog(WatchdogConfig config);

  // True when at least one rule is enabled; callers skip the per-window
  // bookkeeping entirely otherwise.
  bool armed() const { return armed_; }

  // Evaluates one window boundary. `sample` is the hub snapshot just
  // recorded; `e2e` / `queue` are cumulative histogram snapshots (the
  // watchdog keeps the previous ones and evaluates per-window deltas).
  // Returns the events that fired AT this window (already appended to
  // events()).
  std::vector<WatchdogEvent> OnWindow(const MetricsWindowSample& sample,
                                      const LatencyHistogram& e2e,
                                      const LatencyHistogram& queue = LatencyHistogram());

  // Every event fired since construction, in firing order.
  const std::vector<WatchdogEvent>& events() const { return events_; }
  bool latched(WatchdogRule rule) const {
    return states_[static_cast<size_t>(rule)].latched;
  }

 private:
  struct RuleState {
    size_t breaches = 0;  // consecutive breached windows while unlatched
    size_t clean = 0;     // consecutive clean windows while latched
    bool latched = false;
  };

  // Advances one rule's hysteresis; appends to `fired` when it latches.
  void Step(WatchdogRule rule, bool breached, double value, double threshold,
            const std::string& detail, uint64_t window,
            std::vector<WatchdogEvent>* fired);

  WatchdogConfig config_;
  bool armed_ = false;
  RuleState states_[static_cast<size_t>(WatchdogRule::kNumRules)];
  bool have_prev_ = false;
  MetricsWindowSample prev_;
  LatencyHistogram prev_e2e_;
  LatencyHistogram prev_queue_;
  Ema hit_rate_ema_;
  Ema queue_ema_;
  std::vector<WatchdogEvent> events_;
};

}  // namespace iccache

#endif  // SRC_OBS_WATCHDOG_H_
