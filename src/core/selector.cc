#include "src/core/selector.h"

#include <algorithm>

#include "src/common/mathutil.h"
#include "src/common/simd.h"
#include "src/obs/trace.h"

namespace iccache {

ExampleSelector::ExampleSelector(ExampleStore* store, ProxyUtilityModel* proxy,
                                 SelectorConfig config)
    : store_(store),
      proxy_(proxy),
      config_(config),
      utility_threshold_(config.initial_utility_threshold),
      grid_benefit_(config.threshold_grid.size(), 0.0),
      grid_count_(config.threshold_grid.size(), 0) {}

std::vector<SelectorCandidate> ExampleSelector::Stage1FromResults(
    const std::vector<SearchResult>& results) const {
  std::vector<SelectorCandidate> candidates;
  for (const SearchResult& result : results) {
    if (result.score < config_.stage1_min_similarity) {
      continue;  // results are sorted best-first, but keep the scan simple
    }
    SelectorCandidate candidate;
    if (!store_->Snapshot(result.id, &candidate.example, &candidate.embedding)) {
      continue;  // evicted between search and snapshot
    }
    candidate.id = result.id;
    candidate.similarity = result.score;
    candidates.push_back(std::move(candidate));
  }
  return candidates;
}

std::vector<SelectorCandidate> ExampleSelector::Stage1(
    const Request& request, const std::vector<float>* query_embedding) const {
  TraceSpan span(TraceCategory::kStage1Retrieval, request.id);
  std::vector<float> local_embedding;
  if (query_embedding == nullptr) {
    local_embedding = store_->embedder()->Embed(request.text);
    query_embedding = &local_embedding;
  }
  std::vector<SelectorCandidate> candidates =
      Stage1FromResults(store_->FindSimilar(*query_embedding, config_.stage1_candidates));
  span.SetArgs(candidates.size());
  return candidates;
}

void ExampleSelector::ScoreStage2(const Request& request, const ModelProfile& target_model,
                                  std::vector<SelectorCandidate>* candidates) const {
  TraceSpan span(TraceCategory::kStage2Scoring, request.id);
  span.SetArgs(candidates->size());
  for (SelectorCandidate& candidate : *candidates) {
    const ProxyFeatures features = MakeProxyFeatures(
        candidate.similarity, candidate.example.response_quality,
        candidate.example.source_capability, target_model.capability,
        candidate.example.request.task == request.task, candidate.example.PromptTokens());
    candidate.utility = proxy_->Predict(features);
  }
}

std::vector<SelectorCandidate> ExampleSelector::PrepareCandidates(
    const Request& request, const ModelProfile& target_model,
    const std::vector<float>* query_embedding) const {
  std::vector<SelectorCandidate> candidates = Stage1(request, query_embedding);
  ScoreStage2(request, target_model, &candidates);
  return candidates;
}

std::vector<SelectorCandidate> ExampleSelector::PrepareCandidatesFrom(
    const Request& request, const ModelProfile& target_model,
    const std::vector<SearchResult>& stage1, bool /*ignored*/) const {
  std::vector<SelectorCandidate> candidates;
  {
    // Same per-request span the unbatched Stage1 emits; the ANN sweep itself
    // ran earlier under the chunk's stage1_batch span.
    TraceSpan span(TraceCategory::kStage1Retrieval, request.id);
    candidates = Stage1FromResults(stage1);
    span.SetArgs(candidates.size());
  }
  ScoreStage2(request, target_model, &candidates);
  return candidates;
}

std::vector<SelectorCandidate> ExampleSelector::CombineCore(
    const std::vector<SelectorCandidate>& candidates, const ModelProfile& target_model,
    bool apply_threshold, std::vector<uint64_t>* accessed) const {
  std::vector<const SelectorCandidate*> order;
  order.reserve(candidates.size());
  for (const SelectorCandidate& candidate : candidates) {
    order.push_back(&candidate);
  }
  std::sort(order.begin(), order.end(), [](const SelectorCandidate* a,
                                           const SelectorCandidate* b) {
    if (a->utility != b->utility) {
      return a->utility > b->utility;
    }
    return a->id < b->id;  // deterministic tie-break
  });

  const int token_budget = static_cast<int>(config_.context_budget_fraction *
                                            static_cast<double>(target_model.context_window));
  int tokens_used = 0;

  const auto embedder = store_->embedder();
  std::vector<SelectorCandidate> selected;
  for (const SelectorCandidate* candidate : order) {
    if (selected.size() >= config_.max_examples) {
      break;
    }
    if (apply_threshold && candidate->utility < utility_threshold_) {
      continue;
    }
    const int tokens = candidate->example.PromptTokens();
    if (tokens_used + tokens > token_budget) {
      continue;
    }
    // Diversity: reject near-duplicates of already selected examples.
    // Embed lazily when the store returned no vector: only candidates that
    // survive the threshold/budget filters pay for an embedding.
    std::vector<float> embedding =
        candidate->embedding.empty() ? embedder->Embed(candidate->example.request.text)
                                     : candidate->embedding;
    bool duplicate = false;
    for (const SelectorCandidate& prior : selected) {
      if (simd::Cosine(embedding.data(), prior.embedding.data(),
                       std::min(embedding.size(), prior.embedding.size())) >
          config_.diversity_max_similarity) {
        duplicate = true;
        break;
      }
    }
    if (duplicate) {
      continue;
    }

    selected.push_back(*candidate);
    selected.back().embedding = std::move(embedding);
    tokens_used += tokens;
    if (accessed != nullptr) {
      accessed->push_back(candidate->id);
    }
  }

  // Present worst-to-best: the strongest example ends up adjacent to the
  // question, where in-context attention is strongest.
  std::reverse(selected.begin(), selected.end());
  return selected;
}

std::vector<SelectorCandidate> ExampleSelector::Combine(
    const std::vector<SelectorCandidate>& candidates, const ModelProfile& target_model,
    bool apply_threshold, double now) {
  std::vector<uint64_t> accessed;
  std::vector<SelectorCandidate> selected =
      CombineCore(candidates, target_model, apply_threshold, &accessed);
  for (uint64_t id : accessed) {
    store_->RecordAccess(id, now);
  }
  return selected;
}

std::vector<SelectorCandidate> ExampleSelector::CommitSelection(
    const std::vector<SelectorCandidate>& candidates, const ModelProfile& target_model,
    double now) {
  ++requests_seen_;
  MaybeAdaptThreshold();
  return Combine(candidates, target_model, /*apply_threshold=*/true, now);
}

std::vector<SelectorCandidate> ExampleSelector::CommitSelectionFrozen(
    const std::vector<SelectorCandidate>& candidates, const ModelProfile& target_model,
    std::vector<uint64_t>* accessed) const {
  return CombineCore(candidates, target_model, /*apply_threshold=*/true, accessed);
}

void ExampleSelector::AdvanceWindow(size_t requests) {
  if (requests == 0) {
    return;
  }
  const uint64_t before = requests_seen_;
  requests_seen_ += requests;
  if (config_.adapt_every_n_requests == 0) {
    return;
  }
  // Adapt once per window that crosses a cadence multiple: the whole window
  // was served under the window-start threshold, so the grid re-evaluation
  // lands at the boundary — the batched equivalent of CommitSelection's
  // per-request check, and independent of lane count by construction.
  const uint64_t n = config_.adapt_every_n_requests;
  if (before / n != requests_seen_ / n) {
    AdaptThresholdFromGrid();
  }
}

std::vector<SelectedExample> ExampleSelector::ToSelected(
    const std::vector<SelectorCandidate>& picked) {
  std::vector<SelectedExample> selected;
  selected.reserve(picked.size());
  for (const SelectorCandidate& candidate : picked) {
    SelectedExample chosen;
    chosen.example_id = candidate.id;
    chosen.similarity = candidate.similarity;
    chosen.predicted_utility = candidate.utility;
    selected.push_back(chosen);
  }
  return selected;
}

std::vector<SelectedExample> ExampleSelector::Select(const Request& request,
                                                     const ModelProfile& target_model,
                                                     double now) {
  const std::vector<SelectorCandidate> candidates = PrepareCandidates(request, target_model);
  return ToSelected(CommitSelection(candidates, target_model, now));
}

std::vector<SelectedExample> ExampleSelector::SelectStage1Only(const Request& request,
                                                               const ModelProfile& target_model,
                                                               double now) {
  // Rank purely by similarity; stage-2 scoring and utility filtering skipped.
  std::vector<SelectorCandidate> candidates = Stage1(request, /*query_embedding=*/nullptr);
  for (SelectorCandidate& candidate : candidates) {
    candidate.utility = candidate.similarity;
  }
  return ToSelected(Combine(candidates, target_model, /*apply_threshold=*/false, now));
}

void ExampleSelector::OnFeedback(const Request& request, const std::vector<SelectedExample>& used,
                                 const ModelProfile& target_model,
                                 double observed_quality_gain) {
  if (used.empty()) {
    return;
  }
  // Proxy label: shared credit across the combination, amplified so small
  // per-request gains still carry gradient signal.
  const double label =
      Clamp(0.5 + config_.feedback_gain_scale * observed_quality_gain, 0.0, 1.0);
  std::vector<int> used_tokens(used.size(), 0);
  for (size_t i = 0; i < used.size(); ++i) {
    Example example;
    if (!store_->Snapshot(used[i].example_id, &example)) {
      continue;
    }
    used_tokens[i] = example.PromptTokens();
    const ProxyFeatures features = MakeProxyFeatures(
        used[i].similarity, example.response_quality, example.source_capability,
        target_model.capability, example.request.task == request.task, example.PromptTokens());
    proxy_->Update(features, label);
  }

  // Threshold adaptation accounting: estimate the net benefit each grid
  // threshold would have produced on this request, attributing the observed
  // gain proportionally to the utility mass the threshold retains.
  double total_utility = 0.0;
  for (const SelectedExample& sel : used) {
    total_utility += sel.predicted_utility;
  }
  if (total_utility <= 0.0) {
    return;
  }
  for (size_t g = 0; g < config_.threshold_grid.size(); ++g) {
    const double threshold = config_.threshold_grid[g];
    double kept_utility = 0.0;
    double kept_tokens = 0.0;
    for (size_t i = 0; i < used.size(); ++i) {
      if (used[i].predicted_utility >= threshold) {
        kept_utility += used[i].predicted_utility;
        kept_tokens += used_tokens[i];
      }
    }
    const double benefit = observed_quality_gain * (kept_utility / total_utility) -
                           config_.token_cost_weight * kept_tokens;
    grid_benefit_[g] += benefit;
    ++grid_count_[g];
  }
}

SelectorAdaptiveState ExampleSelector::SaveAdaptiveState() const {
  SelectorAdaptiveState state;
  state.utility_threshold = utility_threshold_;
  state.requests_seen = requests_seen_;
  state.grid_benefit = grid_benefit_;
  state.grid_count = grid_count_;
  return state;
}

bool ExampleSelector::RestoreAdaptiveState(const SelectorAdaptiveState& state) {
  if (state.grid_benefit.size() != config_.threshold_grid.size() ||
      state.grid_count.size() != config_.threshold_grid.size()) {
    return false;
  }
  utility_threshold_ = state.utility_threshold;
  requests_seen_ = state.requests_seen;
  grid_benefit_ = state.grid_benefit;
  grid_count_ = state.grid_count;
  return true;
}

void ExampleSelector::MaybeAdaptThreshold() {
  if (config_.adapt_every_n_requests == 0 ||
      requests_seen_ % config_.adapt_every_n_requests != 0) {
    return;
  }
  AdaptThresholdFromGrid();
}

void ExampleSelector::AdaptThresholdFromGrid() {
  double best_benefit = -1e300;
  double best_threshold = utility_threshold_;
  bool any = false;
  for (size_t g = 0; g < config_.threshold_grid.size(); ++g) {
    if (grid_count_[g] == 0) {
      continue;
    }
    const double mean_benefit = grid_benefit_[g] / static_cast<double>(grid_count_[g]);
    if (mean_benefit > best_benefit) {
      best_benefit = mean_benefit;
      best_threshold = config_.threshold_grid[g];
      any = true;
    }
  }
  if (any) {
    utility_threshold_ = best_threshold;
  }
}

}  // namespace iccache
