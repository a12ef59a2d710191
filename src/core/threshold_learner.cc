#include "src/core/threshold_learner.h"

#include <algorithm>
#include <utility>

namespace iccache {

ThresholdLearner::ThresholdLearner(std::vector<double> grid, double initial_threshold,
                                   size_t adapt_every)
    : grid_(std::move(grid)), adapt_every_(adapt_every) {
  state_.threshold = initial_threshold;
  state_.grid_benefit.assign(grid_.size(), 0.0);
  state_.grid_count.assign(grid_.size(), 0);
}

bool ThresholdLearner::Reevaluates(size_t requests) const {
  return requests != 0 && adapt_every_ != 0 &&
         state_.requests_seen / adapt_every_ != (state_.requests_seen + requests) / adapt_every_;
}

double ThresholdLearner::HighestThresholdAfter(size_t pending) const {
  double highest = state_.threshold;
  if (Reevaluates(pending)) {
    for (double cell : grid_) {
      highest = std::max(highest, cell);
    }
  }
  return highest;
}

void ThresholdLearner::AdvanceWindow(size_t requests) {
  const bool reevaluate = Reevaluates(requests);
  state_.requests_seen += requests;
  if (!reevaluate) {
    return;
  }
  // Strictly greater: the first (lower) of equally good cells wins.
  double best_benefit = -1e300;
  for (size_t g = 0; g < grid_.size(); ++g) {
    if (state_.grid_count[g] == 0) {
      continue;
    }
    const double mean_benefit = state_.grid_benefit[g] / static_cast<double>(state_.grid_count[g]);
    if (mean_benefit > best_benefit) {
      best_benefit = mean_benefit;
      state_.threshold = grid_[g];
    }
  }
}

bool ThresholdLearner::Restore(const ThresholdLearnerState& state) {
  if (state.grid_benefit.size() != grid_.size() || state.grid_count.size() != grid_.size()) {
    return false;
  }
  state_ = state;
  return true;
}

}  // namespace iccache
