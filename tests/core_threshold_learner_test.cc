// ThresholdLearner: the grid-threshold learner behind the selector's utility
// threshold and stage-0's hit threshold. Cadence (one re-evaluation per
// window that crosses an adapt_every multiple, none at adapt_every 0), the
// ceiling HighestThresholdAfter reads ahead of a window, the best-mean rule
// (unsampled cells skipped, the lower cell on a tie), and Restore's
// grid-size check.
#include "src/core/threshold_learner.h"

#include <gtest/gtest.h>

namespace iccache {
namespace {

// One sample of `benefit` for cell `cell`.
void Sample(ThresholdLearner* learner, size_t cell, double benefit) {
  learner->Credit(cell, benefit);
  learner->Count(cell);
}

TEST(ThresholdLearnerTest, StartsAtItsInitialThresholdWithAnEmptyGrid) {
  const ThresholdLearner learner({0.2, 0.4, 0.6}, 0.45, 10);
  EXPECT_EQ(learner.threshold(), 0.45);
  EXPECT_EQ(learner.grid(), (std::vector<double>{0.2, 0.4, 0.6}));
  EXPECT_EQ(learner.state().requests_seen, 0u);
  EXPECT_EQ(learner.state().grid_benefit, (std::vector<double>{0.0, 0.0, 0.0}));
  EXPECT_EQ(learner.state().grid_count, (std::vector<uint64_t>{0, 0, 0}));
}

TEST(ThresholdLearnerTest, AWindowCrossingACadenceMultipleReEvaluatesOnce) {
  ThresholdLearner learner({0.2, 0.4, 0.6}, 0.45, 10);
  Sample(&learner, 0, 0.1);
  Sample(&learner, 1, 0.5);
  Sample(&learner, 2, 0.3);

  learner.AdvanceWindow(9);  // 0 -> 9: no multiple crossed
  EXPECT_EQ(learner.threshold(), 0.45);
  learner.AdvanceWindow(1);  // 9 -> 10
  EXPECT_EQ(learner.threshold(), 0.4);
  EXPECT_EQ(learner.state().requests_seen, 10u);

  // The next re-evaluation waits for the next multiple, however the
  // requests before it arrive.
  learner.set_threshold(0.45);
  learner.AdvanceWindow(4);  // 10 -> 14
  learner.AdvanceWindow(5);  // 14 -> 19
  learner.AdvanceWindow(0);  // no requests: nothing counted
  EXPECT_EQ(learner.threshold(), 0.45);
  EXPECT_EQ(learner.state().requests_seen, 19u);
  Sample(&learner, 2, 2.0);  // cell 2's mean: (0.3 + 2.0) / 2 = 1.15
  learner.AdvanceWindow(26);  // 19 -> 45 crosses 20, 30 and 40: one re-evaluation
  EXPECT_EQ(learner.threshold(), 0.6);
  EXPECT_EQ(learner.state().requests_seen, 45u);
}

TEST(ThresholdLearnerTest, ZeroCadenceNeverAdapts) {
  ThresholdLearner learner({0.2, 0.4}, 0.3, 0);
  Sample(&learner, 1, 5.0);
  EXPECT_EQ(learner.HighestThresholdAfter(0), 0.3);
  EXPECT_EQ(learner.HighestThresholdAfter(1), 0.3);
  EXPECT_EQ(learner.HighestThresholdAfter(100000), 0.3);
  learner.AdvanceWindow(1);
  learner.AdvanceWindow(100000);
  EXPECT_EQ(learner.threshold(), 0.3);
  EXPECT_EQ(learner.state().requests_seen, 100001u);
}

// The ceiling a caller can compare against before a window's AdvanceWindow:
// the current threshold unless the pending count crosses a cadence multiple,
// then the larger of the current threshold and the grid maximum.
TEST(ThresholdLearnerTest, HighestThresholdAfterFollowsTheCadence) {
  ThresholdLearner learner({0.2, 0.4, 0.6}, 0.45, 10);
  EXPECT_EQ(learner.HighestThresholdAfter(0), 0.45);
  EXPECT_EQ(learner.HighestThresholdAfter(9), 0.45);   // 0 -> 9
  EXPECT_EQ(learner.HighestThresholdAfter(10), 0.6);   // 0 -> 10
  EXPECT_EQ(learner.HighestThresholdAfter(25), 0.6);   // 0 -> 25 crosses two
  learner.AdvanceWindow(9);
  EXPECT_EQ(learner.HighestThresholdAfter(0), 0.45);
  EXPECT_EQ(learner.HighestThresholdAfter(1), 0.6);    // 9 -> 10
  EXPECT_EQ(learner.state().requests_seen, 9u);        // asking counts nothing

  // A current threshold above every cell is its own ceiling.
  learner.set_threshold(0.9);
  EXPECT_EQ(learner.HighestThresholdAfter(1), 0.9);
  EXPECT_EQ(learner.HighestThresholdAfter(0), 0.9);
}

// Whatever the samples, the threshold AdvanceWindow(pending) leaves never
// exceeds the ceiling read before it, and a re-evaluation that picks the top
// cell reaches it.
TEST(ThresholdLearnerTest, AdvanceWindowStaysAtOrBelowTheCeiling) {
  ThresholdLearner learner({0.2, 0.4, 0.6}, 0.45, 8);
  const size_t windows[] = {3, 5, 0, 7, 1, 8, 16, 2, 6};
  for (size_t i = 0; i < sizeof(windows) / sizeof(windows[0]); ++i) {
    Sample(&learner, i % 3, i % 2 == 0 ? 1.0 : -1.0);
    const double ceiling = learner.HighestThresholdAfter(windows[i]);
    learner.AdvanceWindow(windows[i]);
    EXPECT_LE(learner.threshold(), ceiling) << "window " << i;
  }
  Sample(&learner, 2, 100.0);
  const double ceiling = learner.HighestThresholdAfter(8);
  learner.AdvanceWindow(8);
  EXPECT_EQ(learner.threshold(), ceiling);
  EXPECT_EQ(ceiling, 0.6);
}

TEST(ThresholdLearnerTest, CellsWithNoSamplesAreSkipped) {
  ThresholdLearner learner({0.2, 0.4, 0.6}, 0.5, 1);
  // No cell sampled: the threshold stays.
  learner.AdvanceWindow(1);
  EXPECT_EQ(learner.threshold(), 0.5);

  // Credit without a count leaves cell 0 unsampled, so its (huge) benefit is
  // never read; the only sampled cell wins even with a negative mean.
  learner.Credit(0, 1e9);
  Sample(&learner, 2, -3.0);
  learner.AdvanceWindow(1);
  EXPECT_EQ(learner.threshold(), 0.6);
}

TEST(ThresholdLearnerTest, TheLowerCellWinsATie) {
  ThresholdLearner learner({0.2, 0.4, 0.6}, 0.5, 1);
  Sample(&learner, 2, 1.0);
  Sample(&learner, 1, 0.5);
  Sample(&learner, 1, 1.5);  // cell 1's mean equals cell 2's
  learner.AdvanceWindow(1);
  EXPECT_EQ(learner.threshold(), 0.4);
}

TEST(ThresholdLearnerTest, RestoreRoundTripsAndRejectsAGridSizeMismatch) {
  ThresholdLearner learner({0.2, 0.4, 0.6}, 0.5, 4);
  Sample(&learner, 0, 0.25);
  Sample(&learner, 1, -0.5);
  learner.AdvanceWindow(7);

  ThresholdLearner other({0.2, 0.4, 0.6}, 0.5, 4);
  ASSERT_TRUE(other.Restore(learner.state()));
  EXPECT_EQ(other.threshold(), learner.threshold());
  EXPECT_EQ(other.state().requests_seen, 7u);
  EXPECT_EQ(other.state().grid_benefit, learner.state().grid_benefit);
  EXPECT_EQ(other.state().grid_count, learner.state().grid_count);

  ThresholdLearner target({0.2, 0.4, 0.6}, 0.5, 4);
  Sample(&target, 2, 1.0);
  const ThresholdLearnerState before = target.state();
  ThresholdLearnerState wide = learner.state();
  wide.grid_benefit.push_back(0.0);
  wide.grid_count.push_back(0);
  EXPECT_FALSE(target.Restore(wide));
  ThresholdLearnerState short_counts = learner.state();
  short_counts.grid_count.pop_back();
  EXPECT_FALSE(target.Restore(short_counts));
  EXPECT_EQ(target.threshold(), before.threshold);
  EXPECT_EQ(target.state().requests_seen, before.requests_seen);
  EXPECT_EQ(target.state().grid_benefit, before.grid_benefit);
  EXPECT_EQ(target.state().grid_count, before.grid_count);
}

}  // namespace
}  // namespace iccache
