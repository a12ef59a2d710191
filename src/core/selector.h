// Two-stage example selector (section 4.1, Algorithm 1 lines 7-13).
//
// Stage 1 narrows the candidate pool with cheap embedding similarity against
// the cache's retrieval backend (flat | kmeans | hnsw); stage 2 scores each
// survivor with the proxy utility model. The combination step then assembles
// the final example list: it filters by the current dynamic utility
// threshold, deduplicates near-identical candidates (diversity), respects the
// prompt-token budget of the target model, and orders examples worst-to-best
// so the most helpful example sits adjacent to the question.
//
// The dynamic threshold adapts online: the selector credits a grid of
// thresholds with the net benefit (quality gain minus token cost) each would
// have produced on sampled traffic, and its ThresholdLearner periodically
// keeps the one with the best mean, per the paper's "Selecting Example
// Combinations".
//
// The selector runs against the ExampleStore interface, so the same pipeline
// serves the single-threaded ExampleCache and the concurrent
// ShardedExampleCache. For concurrent drivers the work is split in two:
//
//   PrepareCandidates  — stage 1 + stage 2, const and side-effect free; safe
//                        to fan out across worker threads (candidates are
//                        snapshot copies, no pointer escapes a shard lock).
//   CommitSelection    — the stateful combination step (threshold adaptation
//                        cadence, dynamic-threshold filter, diversity, token
//                        budget, worst-to-best ordering, access accounting);
//                        must run serially in arrival order. It returns the
//                        picks as positions in the caller's candidates, so
//                        no pick is copied; ToSelected turns them into
//                        selection records.
//   CommitSelectionFrozen — the same picks with nothing mutated, for the
//                        driver's commit lanes; the driver's serial merge
//                        records the accesses and the window boundary
//                        advances the cadence.
//
// Select() composes the two for synchronous callers.
#ifndef SRC_CORE_SELECTOR_H_
#define SRC_CORE_SELECTOR_H_

#include <cstdint>
#include <vector>

#include "src/core/proxy_model.h"
#include "src/core/retrieval_backend.h"
#include "src/core/threshold_learner.h"
#include "src/llm/model_profile.h"
#include "src/workload/request.h"

namespace iccache {

struct SelectedExample {
  uint64_t example_id = 0;
  double similarity = 0.0;         // stage-1 score
  double predicted_utility = 0.0;  // stage-2 score
};

// A stage-1 survivor with everything the combination step (and a concurrent
// driver) needs: the scored example snapshot.
struct SelectorCandidate {
  uint64_t id = 0;
  double similarity = 0.0;  // stage-1 cosine
  double utility = 0.0;     // stage-2 proxy score
  Example example;          // snapshot copy (safe across shard locks)
  // Example-text embedding for the diversity guard: the store's stored index
  // vector, copied out with the snapshot.
  std::vector<float> embedding;
};

struct SelectorConfig {
  static constexpr size_t stage1_candidates = 24;  // pre-selection pool size
  // Candidates below this cosine never reach stage 2: with anisotropic
  // embeddings, scores near the ~0.5 random-pair baseline carry no relevance
  // signal and such examples can only distract the model.
  static constexpr double stage1_min_similarity = 0.70;
  static constexpr size_t max_examples = 5;
  static constexpr double initial_utility_threshold = 0.45;
  // Feedback labels are amplified around 0.5: per-request quality gains are
  // small (a few hundredths), and un-amplified labels would collapse the
  // proxy toward predicting the mean.
  static constexpr double feedback_gain_scale = 3.0;
  // Prompt budget: examples may use at most this fraction of the target
  // model's context window.
  static constexpr double context_budget_fraction = 0.5;
  // Threshold adaptation grid and cadence. The diversity guard and the
  // adaptation's token-cost weight are constants in selector.cc.
  std::vector<double> threshold_grid = {0.20, 0.30, 0.40, 0.50, 0.60};
  size_t adapt_every_n_requests = 512;
};

class ExampleSelector {
 public:
  ExampleSelector(ExampleStore* store, ProxyUtilityModel* proxy, SelectorConfig config = {});

  // Full two-stage selection for `request` targeting `target_model`.
  std::vector<SelectedExample> Select(const Request& request, const ModelProfile& target_model,
                                      double now);

  // Stage 1 only (exposed for the Figure 9 ablation).
  std::vector<SelectedExample> SelectStage1Only(const Request& request,
                                                const ModelProfile& target_model, double now);

  // --- Two-phase API for concurrent drivers --------------------------------

  // Pure preparation half: stage-1 retrieval + stage-2 proxy scoring.
  // Thread-safe (reads the store and the proxy, mutates nothing). Pass
  // `query_embedding` when the caller already embedded request.text to skip
  // the duplicate embedding pass. Candidate embeddings come from the store.
  std::vector<SelectorCandidate> PrepareCandidates(
      const Request& request, const ModelProfile& target_model,
      const std::vector<float>* query_embedding = nullptr) const;

  // PrepareCandidates with the stage-1 ANN sweep hoisted out: consumes
  // `stage1` — the raw FindSimilar(query_embedding, stage1_candidates)
  // results the batched prepare path fetched via FindSimilarBatch — and runs
  // the identical filter / snapshot / stage-2 scoring pipeline. Byte-identical
  // output to PrepareCandidates for the same stage-1 results; emits the same
  // per-request stage1_retrieval / stage2_scoring trace spans. The trailing
  // bool is ignored (candidate vectors always come from the store); it
  // remains only because bench/perf/bench_perf.cc still passes one.
  std::vector<SelectorCandidate> PrepareCandidatesFrom(
      const Request& request, const ModelProfile& target_model,
      const std::vector<SearchResult>& stage1, bool /*ignored*/ = false) const;

  // Stateful combination half: advances the adaptation cadence, applies the
  // current dynamic threshold, diversity guard, token budget, worst-to-best
  // ordering, and records one access per pick. Returns the picks' positions
  // in `candidates`, in presentation (worst-to-best) order. Serial callers
  // only.
  std::vector<size_t> CommitSelection(const std::vector<SelectorCandidate>& candidates,
                                      const ModelProfile& target_model, double now);

  // Frozen combination half for sharded commit lanes: returns the positions
  // CommitSelection would return under the CURRENT dynamic threshold, but
  // mutates nothing — neither the adaptation cadence (see AdvanceWindow) nor
  // store access accounting, which the caller's serial merge records for the
  // picks. Safe to call concurrently from many lanes: every request in a
  // batch window sees the same threshold (the window-start value), which is
  // what makes the lane partition invisible in the decisions.
  std::vector<size_t> CommitSelectionFrozen(const std::vector<SelectorCandidate>& candidates,
                                            const ModelProfile& target_model) const;

  // Batched cadence advance for drivers that commit whole windows through
  // CommitSelectionFrozen: counts `requests` toward the adaptation cadence
  // and re-evaluates the threshold grid once if the counter crossed an
  // adapt_every_n_requests multiple. Serial callers only (window boundary).
  void AdvanceWindow(size_t requests) { learner_.AdvanceWindow(requests); }

  // Feeds an observed helpfulness label back into the proxy model and the
  // threshold adaptation accounting.
  void OnFeedback(const Request& request, const std::vector<SelectedExample>& used,
                  const ModelProfile& target_model, double observed_quality_gain);

  double utility_threshold() const { return learner_.threshold(); }
  void set_utility_threshold(double threshold) { learner_.set_threshold(threshold); }
  const SelectorConfig& config() const { return config_; }

  // The utility-threshold learner, whose state snapshots persist.
  const ThresholdLearner& learner() const { return learner_; }
  ThresholdLearner* mutable_learner() { return &learner_; }

  // The wire-level selection records of the picks at `picked` (positions in
  // `candidates`), in the order given.
  static std::vector<SelectedExample> ToSelected(const std::vector<SelectorCandidate>& candidates,
                                                 const std::vector<size_t>& picked);

 private:
  std::vector<SelectorCandidate> Stage1(const Request& request,
                                        const std::vector<float>* query_embedding) const;
  // Shared stage-1 tail: filters raw ANN results by stage1_min_similarity and
  // snapshots survivors with their stored vectors. Both Stage1 and
  // PrepareCandidatesFrom funnel through this loop.
  std::vector<SelectorCandidate> Stage1FromResults(
      const std::vector<SearchResult>& results) const;
  // Stage-2 proxy scoring applied in place (the PrepareCandidates tail).
  void ScoreStage2(const Request& request, const ModelProfile& target_model,
                   std::vector<SelectorCandidate>* candidates) const;
  // Pure combination core shared by every path: the picks' positions in
  // presentation order. Records nothing.
  std::vector<size_t> CombineCore(const std::vector<SelectorCandidate>& candidates,
                                  const ModelProfile& target_model, bool apply_threshold) const;

  ExampleStore* store_;
  ProxyUtilityModel* proxy_;
  SelectorConfig config_;
  ThresholdLearner learner_;
};

}  // namespace iccache

#endif  // SRC_CORE_SELECTOR_H_
