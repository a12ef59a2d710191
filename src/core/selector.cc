#include "src/core/selector.h"

#include <algorithm>

#include "src/common/mathutil.h"
#include "src/common/simd.h"
#include "src/obs/trace.h"

namespace iccache {

namespace {

// Diversity: drop a candidate whose embedding similarity to an already
// selected example exceeds this (near-duplicates add tokens, not signal).
constexpr double kDiversityMaxSimilarity = 0.985;
// Net-benefit model for adaptation: quality gain per unit utility vs token
// cost per example token (both in arbitrary consistent units).
constexpr double kTokenCostWeight = 0.00002;

}  // namespace

ExampleSelector::ExampleSelector(ExampleStore* store, ProxyUtilityModel* proxy,
                                 SelectorConfig config)
    : store_(store),
      proxy_(proxy),
      config_(config),
      learner_(config.threshold_grid, config.initial_utility_threshold,
               config.adapt_every_n_requests) {}

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

std::vector<size_t> ExampleSelector::CombineCore(const std::vector<SelectorCandidate>& candidates,
                                                 const ModelProfile& target_model,
                                                 bool apply_threshold) const {
  std::vector<size_t> order(candidates.size());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  std::sort(order.begin(), order.end(), [&candidates](size_t a, size_t b) {
    if (candidates[a].utility != candidates[b].utility) {
      return candidates[a].utility > candidates[b].utility;
    }
    return candidates[a].id < candidates[b].id;  // deterministic tie-break
  });

  const int token_budget = static_cast<int>(config_.context_budget_fraction *
                                            static_cast<double>(target_model.context_window));
  int tokens_used = 0;

  std::vector<size_t> picked;
  for (size_t position : order) {
    if (picked.size() >= config_.max_examples) {
      break;
    }
    const SelectorCandidate& candidate = candidates[position];
    if (apply_threshold && candidate.utility < utility_threshold()) {
      continue;
    }
    const int tokens = candidate.example.PromptTokens();
    if (tokens_used + tokens > token_budget) {
      continue;
    }
    // Diversity: reject near-duplicates of already selected examples.
    const std::vector<float>& embedding = candidate.embedding;
    bool duplicate = false;
    for (size_t prior : picked) {
      const std::vector<float>& prior_embedding = candidates[prior].embedding;
      if (simd::Cosine(embedding.data(), prior_embedding.data(),
                       std::min(embedding.size(), prior_embedding.size())) >
          kDiversityMaxSimilarity) {
        duplicate = true;
        break;
      }
    }
    if (duplicate) {
      continue;
    }

    picked.push_back(position);
    tokens_used += tokens;
  }

  // Present worst-to-best: the strongest example ends up adjacent to the
  // question, where in-context attention is strongest.
  std::reverse(picked.begin(), picked.end());
  return picked;
}

std::vector<size_t> ExampleSelector::CommitSelection(
    const std::vector<SelectorCandidate>& candidates, const ModelProfile& target_model,
    double now) {
  AdvanceWindow(1);
  std::vector<size_t> picked = CombineCore(candidates, target_model, /*apply_threshold=*/true);
  for (size_t position : picked) {
    store_->RecordAccess(candidates[position].id, now);
  }
  return picked;
}

std::vector<size_t> ExampleSelector::CommitSelectionFrozen(
    const std::vector<SelectorCandidate>& candidates, const ModelProfile& target_model) const {
  return CombineCore(candidates, target_model, /*apply_threshold=*/true);
}

std::vector<SelectedExample> ExampleSelector::ToSelected(
    const std::vector<SelectorCandidate>& candidates, const std::vector<size_t>& picked) {
  std::vector<SelectedExample> selected;
  selected.reserve(picked.size());
  for (size_t position : picked) {
    const SelectorCandidate& candidate = candidates[position];
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
  return ToSelected(candidates, CommitSelection(candidates, target_model, now));
}

std::vector<SelectedExample> ExampleSelector::SelectStage1Only(const Request& request,
                                                               const ModelProfile& target_model,
                                                               double now) {
  // Rank purely by similarity; stage-2 scoring and utility filtering skipped.
  std::vector<SelectorCandidate> candidates = Stage1(request, /*query_embedding=*/nullptr);
  for (SelectorCandidate& candidate : candidates) {
    candidate.utility = candidate.similarity;
  }
  const std::vector<size_t> picked =
      CombineCore(candidates, target_model, /*apply_threshold=*/false);
  for (size_t position : picked) {
    store_->RecordAccess(candidates[position].id, now);
  }
  return ToSelected(candidates, picked);
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
  const std::vector<double>& grid = learner_.grid();
  for (size_t g = 0; g < grid.size(); ++g) {
    const double threshold = grid[g];
    double kept_utility = 0.0;
    double kept_tokens = 0.0;
    for (size_t i = 0; i < used.size(); ++i) {
      if (used[i].predicted_utility >= threshold) {
        kept_utility += used[i].predicted_utility;
        kept_tokens += used_tokens[i];
      }
    }
    const double benefit = observed_quality_gain * (kept_utility / total_utility) -
                           kTokenCostWeight * kept_tokens;
    learner_.Credit(g, benefit);
    learner_.Count(g);
  }
}

}  // namespace iccache
