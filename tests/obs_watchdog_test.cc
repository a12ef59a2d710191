// Unit coverage for the SLO watchdog: per-rule breach detection over crafted
// window-sample series, trigger/clear hysteresis, EMA baseline arming floors,
// and the passivity guarantee that a default-constructed watchdog does
// nothing.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/stats.h"
#include "src/obs/metrics.h"
#include "src/obs/watchdog.h"

namespace iccache {
namespace {

MetricsWindowSample MakeSample(uint64_t window, double requests, double hits,
                               double evicted = 0.0) {
  MetricsWindowSample sample;
  sample.window = window;
  sample.sim_time_s = static_cast<double>(window);
  sample.mono_ns = window * 1000000;
  // Cumulative counters, name-sorted like a real hub snapshot.
  sample.values = {
      {"examples_evicted_total", evicted},
      {"requests_total", requests},
      {"stage0_hits_total", hits},
  };
  return sample;
}

TEST(SloWatchdogTest, DefaultConfigIsDisarmedAndSilent) {
  SloWatchdog watchdog;
  EXPECT_FALSE(watchdog.armed());
  LatencyHistogram e2e;
  e2e.Add(100.0);  // absurd latency; nothing is configured to care
  EXPECT_TRUE(watchdog.OnWindow(MakeSample(0, 100, 0), e2e).empty());
  EXPECT_TRUE(watchdog.OnWindow(MakeSample(1, 200, 0), e2e).empty());
  EXPECT_TRUE(watchdog.events().empty());
}

TEST(SloWatchdogTest, SloP99FiresAfterConsecutiveBreachesAndLatches) {
  WatchdogConfig config;
  config.slo_e2e_p99_s = 0.1;  // trigger_windows/clear_windows stay at 3
  SloWatchdog watchdog(config);
  EXPECT_TRUE(watchdog.armed());

  LatencyHistogram e2e;
  uint64_t window = 0;
  const auto feed = [&](double latency_s) {
    for (int i = 0; i < 10; ++i) {
      e2e.Add(latency_s);
    }
    const uint64_t w = window++;
    return watchdog.OnWindow(MakeSample(w, static_cast<double>(w + 1) * 10.0, 0), e2e);
  };

  // Window 0 only records the baseline snapshots — no delta to judge yet.
  EXPECT_TRUE(feed(0.5).empty());
  // Two breached windows are below the trigger threshold of 3...
  EXPECT_TRUE(feed(0.5).empty());
  EXPECT_TRUE(feed(0.5).empty());
  // ... the third consecutive breach latches and fires exactly once.
  const std::vector<WatchdogEvent> fired = feed(0.5);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].rule, WatchdogRule::kSloE2eP99);
  EXPECT_GT(fired[0].value, 0.1);
  EXPECT_DOUBLE_EQ(fired[0].threshold, 0.1);
  EXPECT_FALSE(fired[0].detail.empty());
  EXPECT_TRUE(watchdog.latched(WatchdogRule::kSloE2eP99));

  // Latched: further breaches stay silent instead of spamming.
  EXPECT_TRUE(feed(0.5).empty());
  EXPECT_TRUE(feed(0.5).empty());

  // Three consecutive clean windows clear the latch...
  EXPECT_TRUE(feed(0.01).empty());
  EXPECT_TRUE(feed(0.01).empty());
  EXPECT_TRUE(feed(0.01).empty());
  EXPECT_FALSE(watchdog.latched(WatchdogRule::kSloE2eP99));

  // ... after which a fresh run of breaches fires again.
  EXPECT_TRUE(feed(0.5).empty());
  EXPECT_TRUE(feed(0.5).empty());
  EXPECT_EQ(feed(0.5).size(), 1u);
  EXPECT_EQ(watchdog.events().size(), 2u);
}

TEST(SloWatchdogTest, CleanWindowResetsTheBreachStreak) {
  WatchdogConfig config;
  config.slo_e2e_p99_s = 0.1;
  SloWatchdog watchdog(config);
  LatencyHistogram e2e;
  uint64_t window = 0;
  const auto feed = [&](double latency_s) {
    for (int i = 0; i < 10; ++i) {
      e2e.Add(latency_s);
    }
    const uint64_t w = window++;
    return watchdog.OnWindow(MakeSample(w, static_cast<double>(w + 1) * 10.0, 0), e2e);
  };
  feed(0.01);  // baseline
  // breach, breach, clean, breach, breach: never 3 in a row -> never fires.
  EXPECT_TRUE(feed(0.5).empty());
  EXPECT_TRUE(feed(0.5).empty());
  EXPECT_TRUE(feed(0.01).empty());
  EXPECT_TRUE(feed(0.5).empty());
  EXPECT_TRUE(feed(0.5).empty());
  EXPECT_TRUE(watchdog.events().empty());
}

TEST(SloWatchdogTest, Stage0CollapseFiresAgainstTrailingEma) {
  WatchdogConfig config;
  config.stage0_drop_fraction = 0.5;
  config.trigger_windows = 1;  // isolate the rule from hysteresis here
  SloWatchdog watchdog(config);
  LatencyHistogram e2e;

  // Five healthy windows: +100 requests, +60 hits each -> EMA ~0.6.
  double requests = 0.0;
  double hits = 0.0;
  uint64_t window = 0;
  for (; window < 5; ++window) {
    requests += 100.0;
    hits += 60.0;
    EXPECT_TRUE(watchdog.OnWindow(MakeSample(window, requests, hits), e2e).empty());
  }
  // Collapse: requests keep flowing, hits stop dead.
  requests += 100.0;
  const std::vector<WatchdogEvent> fired =
      watchdog.OnWindow(MakeSample(window, requests, hits), e2e);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].rule, WatchdogRule::kStage0HitRateDrop);
  EXPECT_EQ(fired[0].window, window);
  EXPECT_DOUBLE_EQ(fired[0].value, 0.0);
}

TEST(SloWatchdogTest, Stage0RuleStaysQuietBelowTheEmaFloor) {
  // An all-miss workload from the start never builds an EMA above the
  // arming floor, so the drop rule must not fire on cold-start noise.
  WatchdogConfig config;
  config.stage0_drop_fraction = 0.5;
  config.trigger_windows = 1;
  SloWatchdog watchdog(config);
  LatencyHistogram e2e;
  double requests = 0.0;
  for (uint64_t window = 0; window < 10; ++window) {
    requests += 100.0;
    EXPECT_TRUE(watchdog.OnWindow(MakeSample(window, requests, 0.0), e2e).empty());
  }
  EXPECT_TRUE(watchdog.events().empty());
}

TEST(SloWatchdogTest, QueueDelayGrowthFiresAgainstTrailingEma) {
  WatchdogConfig config;
  config.queue_growth_factor = 3.0;
  config.trigger_windows = 1;
  SloWatchdog watchdog(config);
  LatencyHistogram e2e;
  LatencyHistogram queue;
  uint64_t window = 0;
  const auto feed = [&](double delay_s) {
    for (int i = 0; i < 10; ++i) {
      queue.Add(delay_s);
    }
    const uint64_t w = window++;
    return watchdog.OnWindow(MakeSample(w, static_cast<double>(w + 1) * 10.0, 0), e2e, queue);
  };
  // Steady windows build the baseline EMA around 10 ms.
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(feed(0.010).empty());
  }
  // A 20x jump in the window's mean queue delay breaches the 3x factor.
  const std::vector<WatchdogEvent> fired = feed(0.200);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].rule, WatchdogRule::kQueueDelayGrowth);
}

TEST(SloWatchdogTest, EvictionStormFiresOnSingleWindowBurst) {
  WatchdogConfig config;
  config.eviction_storm_threshold = 10.0;
  config.trigger_windows = 1;
  SloWatchdog watchdog(config);
  LatencyHistogram e2e;
  EXPECT_TRUE(watchdog.OnWindow(MakeSample(0, 100, 0, /*evicted=*/0), e2e).empty());
  EXPECT_TRUE(watchdog.OnWindow(MakeSample(1, 200, 0, /*evicted=*/5), e2e).empty());
  const std::vector<WatchdogEvent> fired =
      watchdog.OnWindow(MakeSample(2, 300, 0, /*evicted=*/55), e2e);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].rule, WatchdogRule::kEvictionStorm);
  EXPECT_DOUBLE_EQ(fired[0].value, 50.0);  // the per-window delta, not the total
  EXPECT_DOUBLE_EQ(fired[0].threshold, 10.0);
}

TEST(SloWatchdogTest, EveryRuleHasAUniqueName) {
  std::vector<std::string> names;
  for (size_t i = 0; i < static_cast<size_t>(WatchdogRule::kNumRules); ++i) {
    const std::string name = WatchdogRuleName(static_cast<WatchdogRule>(i));
    EXPECT_FALSE(name.empty());
    for (const std::string& previous : names) {
      EXPECT_NE(name, previous);
    }
    names.push_back(name);
  }
}

}  // namespace
}  // namespace iccache
