// Online grid-threshold learner: the one implementation behind the example
// selector's dynamic utility threshold (section 4.1, "Selecting Example
// Combinations") and stage-0's learned hit threshold (the similarity cut-off
// of "Efficient Prompt Caching via Embedding Similarity").
//
// A fixed grid of candidate thresholds accumulates sampled net benefit per
// cell. Every `adapt_every` requests the threshold moves to the cell with the
// best mean benefit. The learner owns the cadence, the re-evaluation and the
// state a snapshot carries; each caller keeps its own crediting rule through
// Credit and Count (the selector credits and counts every cell per feedback
// sample, stage-0 credits only the cells a hit's similarity clears and counts
// them all).
#ifndef SRC_CORE_THRESHOLD_LEARNER_H_
#define SRC_CORE_THRESHOLD_LEARNER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace iccache {

// Everything a learner has learned (snapshot persistence): the current
// threshold, the cadence counter, and per-grid-cell net-benefit accounting.
struct ThresholdLearnerState {
  double threshold = 0.0;
  uint64_t requests_seen = 0;
  std::vector<double> grid_benefit;
  std::vector<uint64_t> grid_count;
};

class ThresholdLearner {
 public:
  ThresholdLearner(std::vector<double> grid, double initial_threshold, size_t adapt_every);

  double threshold() const { return state_.threshold; }
  void set_threshold(double threshold) { state_.threshold = threshold; }
  const std::vector<double>& grid() const { return grid_; }

  // Adds `benefit` to cell `cell`'s running net benefit.
  void Credit(size_t cell, double benefit) { state_.grid_benefit[cell] += benefit; }
  // Counts one sample for cell `cell`, so cell means stay comparable.
  void Count(size_t cell) { ++state_.grid_count[cell]; }

  // Counts `requests` toward the cadence and re-evaluates the grid once when
  // the counter crosses an `adapt_every` multiple (never when it is 0): the
  // threshold moves to the sampled cell with the best mean benefit, the
  // lower cell on a tie, and stays when no cell has a sample. A window is
  // served under its start threshold, so re-evaluating at its end keeps the
  // outcome independent of how the window was split.
  void AdvanceWindow(size_t requests);

  // The highest threshold the learner can hold after AdvanceWindow(pending):
  // the current one when the pending count crosses no `adapt_every` multiple
  // (or is 0, or `adapt_every` is 0), otherwise the larger of the current
  // threshold and the grid maximum, since a re-evaluation either keeps the
  // threshold or moves it to a grid cell. A similarity at or above it clears
  // the threshold the next window is judged against.
  double HighestThresholdAfter(size_t pending) const;

  const ThresholdLearnerState& state() const { return state_; }
  // False, leaving the learner untouched, when `state`'s grid size differs
  // from this learner's: a pool restored under a different grid keeps its
  // configured defaults instead of inheriting misaligned accounting.
  bool Restore(const ThresholdLearnerState& state);

 private:
  // True when counting `requests` more crosses an `adapt_every` multiple.
  bool Reevaluates(size_t requests) const;

  std::vector<double> grid_;
  size_t adapt_every_;
  ThresholdLearnerState state_;
};

}  // namespace iccache

#endif  // SRC_CORE_THRESHOLD_LEARNER_H_
