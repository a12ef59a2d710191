#include "src/core/manager.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "src/common/knapsack.h"
#include "src/common/mathutil.h"

namespace iccache {

namespace {

// Small-model responses are admitted only at or above this quality (avoid
// polluting the pool); large-model responses are always admitted.
constexpr double kSmallModelAdmitQuality = 0.75;
constexpr int kDrawsPerReplay = 3;      // best-of-n per replay pass
constexpr double kReplayCost = 0.35;    // one-time cost in normalized gain units
constexpr double kGainEmaAlpha = 0.25;  // per-use gain EMA (replay ranking signal)

// Replay economics (PlanMaintenance): expected savings scale with how often
// the example is reused; once they fall below the one-time replay cost,
// every lower-ranked candidate is below it too.
double ReuseWeight(const Example& example) {
  return 1.0 + std::min<double>(static_cast<double>(example.access_count), 50.0);
}

}  // namespace

ExampleManager::ExampleManager(ExampleStore* store, GenerationSimulator* generator,
                               const ModelProfile& replay_model, ManagerConfig config)
    : store_(store), generator_(generator), replay_model_(replay_model), config_(config) {}

PreparedLifecycleAdmission ExampleManager::PrepareAdmission(
    const Request& request, const std::vector<float>* text_embedding,
    const std::vector<SearchResult>* nearest) const {
  PreparedLifecycleAdmission prepared;
  // Exact-duplicate suppression: a near-identical cached request adds tokens
  // to the index without adding coverage. The check reads the top-1 of the
  // caller's stage-1 results, or of its own k=1 search without them, so it
  // sees the pool as of that search; in a batched driver two duplicates
  // inside one window both pass — an accepted (and deterministic) race of
  // the lookahead design.
  std::vector<SearchResult> probed;
  if (nearest == nullptr) {
    probed = text_embedding != nullptr ? store_->FindSimilar(*text_embedding, 1)
                                       : store_->FindSimilar(request, 1);
    nearest = &probed;
  }
  if (!nearest->empty() && (*nearest)[0].score >= config_.dedupe_similarity) {
    prepared.duplicate = true;
    return prepared;
  }
  prepared.admission = store_->PrepareAdmission(request, text_embedding);
  return prepared;
}

uint64_t ExampleManager::CommitAdmission(const Request& request,
                                         PreparedLifecycleAdmission prepared,
                                         const GenerationResult& generation,
                                         double source_capability, bool from_large_model,
                                         double now) {
  if (prepared.duplicate || !prepared.admission.admit) {
    return 0;
  }
  if (!from_large_model && generation.latent_quality < kSmallModelAdmitQuality) {
    return 0;
  }
  return store_->PutPrepared(request, std::move(prepared.admission), "[cached-response]",
                             generation.latent_quality, source_capability,
                             generation.output_tokens, now);
}

uint64_t ExampleManager::MaybeAdmit(const Request& request, const GenerationResult& generation,
                                    double source_capability, bool from_large_model, double now) {
  if (!from_large_model && generation.latent_quality < kSmallModelAdmitQuality) {
    return 0;  // gate first: skip the dedupe probe and scrub/embed entirely
  }
  return CommitAdmission(request, PrepareAdmission(request), generation, source_capability,
                         from_large_model, now);
}

void ExampleManager::RecordUsage(const std::vector<uint64_t>& example_ids,
                                 double response_quality, double normalized_model_cost) {
  const double gain = (1.0 - Clamp(response_quality, 0.0, 1.0)) *
                      Clamp(normalized_model_cost, 0.0, 1.0);
  for (uint64_t id : example_ids) {
    store_->UpdateExample(id, [gain](Example& example) {
      example.replay_gain_ema =
          kGainEmaAlpha * gain + (1.0 - kGainEmaAlpha) * example.replay_gain_ema;
    });
  }
}

ReplayReport ExampleManager::RunReplayPass() {
  // A replay-only tick planned over a fresh cut and applied at once. The
  // draws come from the generator's own stream: its state seeds the plan's
  // Rng, and the advanced state goes back before the apply.
  Rng rng;
  rng.RestoreState(generator_->rng_state());
  MaintenanceTickSpec spec;
  spec.replay = true;
  const MaintenancePlan plan = PlanMaintenance(store_->ExportMaintenanceCut(), spec, rng);
  generator_->restore_rng_state(rng.SaveState());
  const MaintenanceApplyOutcome outcome = ApplyMaintenance(plan);
  ReplayReport report;
  report.candidates = plan.replay_candidates;
  report.replayed = outcome.replayed;
  report.improved = outcome.improved;
  report.total_quality_gain = outcome.total_quality_gain;
  return report;
}

MaintenancePlan ExampleManager::PlanMaintenance(const MaintenanceCut& cut,
                                                const MaintenanceTickSpec& spec,
                                                Rng& rng) const {
  MaintenancePlan plan;
  plan.spec = spec;

  // Eviction: one global knapsack over the decayed cut. The decay that the
  // apply step will perform is simulated here (value *= decay_factor when the
  // tick decays) so the keep/evict decision matches the post-decay pool.
  std::unordered_set<uint64_t> evicting;
  if (spec.evict && cut.capacity_bytes > 0 &&
      static_cast<double>(cut.used_bytes) >
          static_cast<double>(cut.capacity_bytes) * std::min(1.0, cut.high_watermark)) {
    const int64_t target = static_cast<int64_t>(static_cast<double>(cut.capacity_bytes) *
                                                Clamp(cut.low_watermark, 0.1, 1.0));
    std::vector<KnapsackItem> items;
    items.reserve(cut.examples.size());
    const double value_scale = spec.decay ? cut.decay_factor : 1.0;
    for (const Example& example : cut.examples) {  // cut is ascending-id: stable tie-breaks
      KnapsackItem item;
      item.weight = example.SizeBytes();
      item.value = example.offload_value * value_scale + 1e-3;
      items.push_back(item);
    }
    const KnapsackSolution solution = SolveKnapsack(items, target);
    std::vector<bool> keep(cut.examples.size(), false);
    for (size_t idx : solution.selected) {
      keep[idx] = true;
    }
    for (size_t i = 0; i < cut.examples.size(); ++i) {
      if (!keep[i]) {
        plan.evict_ids.push_back(cut.examples[i].id);
        evicting.insert(cut.examples[i].id);
      }
    }
  }

  if (!spec.replay) {
    return plan;
  }

  // Replay: rank by gain EMA, descending, then cut off at the replay cost.
  struct Ranked {
    const Example* example;
    double gain;
  };
  std::vector<Ranked> ranked;
  for (const Example& example : cut.examples) {
    if (example.replay_count >= config_.max_replays_per_example ||
        evicting.count(example.id) > 0) {
      continue;  // replaying an example this tick evicts would waste the draws
    }
    ranked.push_back(Ranked{&example, example.replay_gain_ema});
  }
  plan.replay_candidates = ranked.size();
  std::sort(ranked.begin(), ranked.end(), [](const Ranked& a, const Ranked& b) {
    if (a.gain != b.gain) {
      return a.gain > b.gain;
    }
    return a.example->id < b.example->id;
  });

  for (const Ranked& candidate : ranked) {
    if (plan.replays.size() >= config_.max_replays_per_pass) {
      break;
    }
    if (candidate.gain * ReuseWeight(*candidate.example) <= kReplayCost) {
      break;
    }
    MaintenancePlan::PlannedReplay replay;
    replay.id = candidate.example->id;
    replay.best_quality = candidate.example->response_quality;
    replay.best_tokens = candidate.example->response_tokens;
    for (int draw = 0; draw < kDrawsPerReplay; ++draw) {
      const GenerationResult fresh =
          generator_->Generate(replay_model_, candidate.example->request, {}, rng);
      if (fresh.latent_quality > replay.best_quality) {
        replay.best_quality = fresh.latent_quality;
        replay.best_tokens = fresh.output_tokens;
      }
    }
    plan.replays.push_back(replay);
  }
  return plan;
}

MaintenanceApplyOutcome ExampleManager::ApplyMaintenance(const MaintenancePlan& plan) {
  MaintenanceApplyOutcome outcome;
  if (plan.spec.decay) {
    store_->DecayTick();
    outcome.decay_ran = true;
  }
  if (plan.spec.evict) {
    for (uint64_t id : plan.evict_ids) {
      if (store_->Remove(id)) {
        ++outcome.evicted;
      }
    }
  }
  if (plan.spec.replay) {
    const double replay_capability = replay_model_.capability;
    for (const MaintenancePlan::PlannedReplay& replay : plan.replays) {
      bool improved = false;
      const bool applied = store_->UpdateExample(replay.id, [&](Example& stored) {
        ++stored.replay_count;
        // Re-check against the LIVE quality: only this tick mutates response
        // quality, so the comparison is deterministic, and a no-op draw still
        // consumes the lifetime replay slot.
        if (replay.best_quality > stored.response_quality) {
          outcome.total_quality_gain += replay.best_quality - stored.response_quality;
          stored.response_quality = replay.best_quality;
          stored.response_tokens = replay.best_tokens;
          stored.source_capability = std::max(stored.source_capability, replay_capability);
          improved = true;
        }
        stored.replay_gain_ema *= (1.0 - stored.response_quality);
      });
      if (applied) {
        ++outcome.replayed;
        if (improved) {
          ++outcome.improved;
        }
      }
    }
    outcome.replay_ran = true;
  }
  // One deterministic budget re-enforcement covers replay token growth AND
  // any admissions that landed between cut and apply. It is rarely a no-op:
  // the planned removals are greedy (the global knapsack is over the exact
  // solver's work bound) and the pool keeps filling until apply, so on a
  // sharded store this per-shard exact pass does most of the evicting (74%
  // on churn256k), on the caller's thread. Its evictions ride the store's
  // own counter, so only the planned removals are tallied here.
  if (plan.spec.evict || outcome.improved > 0) {
    store_->EnforceCapacity();
  }
  return outcome;
}

MaintenanceReport ExampleManager::MaybeRunMaintenance(double now) {
  MaintenanceReport report;
  if (now - last_decay_time_ < config_.decay_interval_s) {
    return report;
  }
  last_decay_time_ = now;
  store_->DecayTick();
  report.evicted = store_->EnforceCapacity().size();
  report.ran = true;
  return report;
}

}  // namespace iccache
