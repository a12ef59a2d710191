// Example lifecycle layer (section 4.3): cache admission, per-use gain
// accounting, cost-aware example replay, and periodic maintenance (decay +
// knapsack eviction) — running against the store-agnostic ExampleStore
// interface, so the same policy serves the single-threaded ExampleCache
// (IcCacheService) and the concurrent ShardedExampleCache (ServingDriver).
//
// Replay exploits generation variance: re-querying the replay model a few
// times and keeping the best response measurably improves the stored example
// (Figure 11). Because reuse frequency is long-tailed (Figure 10), replay is
// rationed: candidates are ranked by the EMA of their potential gain
//   G(e) = (1 - normalized_response_quality) * normalized_model_cost
// accumulated on every reuse, and the pass stops at the first candidate whose
// expected savings no longer cover the one-time replay cost. Each example
// consumes at most five replay iterations in its lifetime (section 5).
//
// For concurrent drivers the admission path is split driver-style in two:
//
//   PrepareAdmission — near-duplicate check + PII scrub + embedding; const
//                      and side-effect free, safe to fan out across workers.
//                      The check reads the top-1 of the caller's stage-1
//                      results when given, else runs its own k=1 search.
//   CommitAdmission  — quality gate + the insert; serial phase only.
//
// MaybeAdmit composes the two for synchronous callers.
#ifndef SRC_CORE_MANAGER_H_
#define SRC_CORE_MANAGER_H_

#include <cstdint>
#include <vector>

#include "src/core/retrieval_backend.h"
#include "src/llm/generation.h"
#include "src/llm/model_profile.h"

namespace iccache {

struct ManagerConfig {
  // Admission: always cache responses from the large model; cache small-model
  // responses only above a quality bar (manager.cc). Skip admission when a
  // near-duplicate at or above this similarity is already cached.
  static constexpr double dedupe_similarity = 0.995;

  // Replay (best-of-n draws, replay cost and gain EMA live in manager.cc).
  static constexpr int max_replays_per_example = 5;  // lifetime cap (section 5)
  size_t max_replays_per_pass = 64;

  // Maintenance cadence (simulated seconds).
  double decay_interval_s = 3600.0;
};

struct ReplayReport {
  size_t candidates = 0;
  size_t replayed = 0;
  size_t improved = 0;
  double total_quality_gain = 0.0;
};

struct MaintenanceReport {
  bool ran = false;       // false while within the decay interval
  size_t evicted = 0;     // examples removed by the capacity knapsack
};

// --- Epoch-based background maintenance (plan / apply split) ---------------
//
// A concurrent driver never runs decay, eviction, or replay inline: at a
// window boundary it exports an epoch-consistent MaintenanceCut, a background
// thread PLANS the tick against that frozen view (pure, expensive — replay
// regenerations and the eviction knapsack), and the resulting mutation batch
// is APPLIED at a later, deterministic window boundary. Because the plan is
// a pure function of (cut, spec, rng) and the apply point is fixed by the
// window schedule, the whole scheme is invariant to thread and lane counts.

// What one tick should do, stamped with its epoch (the tick ordinal, which
// also derives the tick's private sampling stream).
struct MaintenanceTickSpec {
  bool decay = false;   // hourly utility decay
  bool evict = false;   // capacity knapsack (watermark pressure or post-decay)
  bool replay = false;  // cost-aware best-of-n example replay
  double now = 0.0;     // trace time of the cut (the tick's nominal time)
  uint64_t epoch = 0;
};

// Planned mutations, all keyed by example id so they survive pool churn
// between cut and apply (ids that vanished are skipped deterministically).
struct MaintenancePlan {
  MaintenanceTickSpec spec;
  std::vector<uint64_t> evict_ids;  // ascending id order
  struct PlannedReplay {
    uint64_t id = 0;
    double best_quality = 0.0;  // best-of-n outcome on the replay model
    int best_tokens = 0;
  };
  std::vector<PlannedReplay> replays;  // replay-rank order
  size_t replay_candidates = 0;
};

// What ApplyMaintenance actually changed.
struct MaintenanceApplyOutcome {
  bool decay_ran = false;
  bool replay_ran = false;
  // PLANNED removals applied, only. The trailing watermark top-up inside
  // ApplyMaintenance reports through the store's own eviction counter
  // instead, so consumers summing both sources never double-count.
  size_t evicted = 0;
  size_t replayed = 0;
  size_t improved = 0;
  double total_quality_gain = 0.0;
};

// Parallel-phase half of a lifecycle admission.
struct PreparedLifecycleAdmission {
  PreparedAdmission admission;  // privacy decision + sanitized-text embedding
  bool duplicate = false;       // a near-identical example was already cached
};

class ExampleManager {
 public:
  ExampleManager(ExampleStore* store, GenerationSimulator* generator,
                 const ModelProfile& replay_model, ManagerConfig config = {});

  // --- Two-phase admission (concurrent drivers) ----------------------------

  // Pure half: near-duplicate check against the pool plus the store's
  // scrub/embed preparation. Thread-safe; pass `text_embedding` when the
  // caller already embedded request.text (skips a duplicate embedding pass).
  // The check reads only the top-1 score. Pass `nearest`, the caller's
  // best-first FindSimilar(text embedding, k) results over the same store
  // state (the driver's stage-1 row), to skip the check's own k=1 search.
  // Their top-1 equals the k=1 search's exactly: flat is exact, kmeans
  // probes nprobe clusters at any k, and hnsw walks a beam of
  // max(ef_search, k) with a rerank budget of max(rerank_k, k), so this
  // holds while ef_search >= k and rerank_k >= k. nullptr searches.
  PreparedLifecycleAdmission PrepareAdmission(
      const Request& request, const std::vector<float>* text_embedding = nullptr,
      const std::vector<SearchResult>* nearest = nullptr) const;

  // Stateful half: applies the quality gate and inserts. Returns the cached
  // example id or 0 when skipped.
  uint64_t CommitAdmission(const Request& request, PreparedLifecycleAdmission prepared,
                           const GenerationResult& generation, double source_capability,
                           bool from_large_model, double now);

  // Synchronous admission after serving (composes prepare + commit); returns
  // the cached example id or 0 when skipped.
  uint64_t MaybeAdmit(const Request& request, const GenerationResult& generation,
                      double source_capability, bool from_large_model, double now);

  // --- Gain accounting, replay, maintenance --------------------------------

  // Per-use gain accounting for the examples that served a request:
  // G(e) = (1 - quality) * model_cost, folded into each example's EMA.
  void RecordUsage(const std::vector<uint64_t>& example_ids, double response_quality,
                   double normalized_model_cost);

  // One cost-aware replay pass (run off-peak); refines top-ranked examples.
  ReplayReport RunReplayPass();

  // Hourly decay + capacity enforcement; call with the current sim time.
  MaintenanceReport MaybeRunMaintenance(double now);

  // --- Epoch-based maintenance (background scheduler) ----------------------

  // PURE planning half: ranks and simulates the tick against the frozen cut.
  // Touches no mutable state (generation uses `rng`, the tick's private
  // stream), so it is safe on a background thread while the store serves.
  // Eviction is planned as ONE GLOBAL knapsack over the decayed cut; at pool
  // scale it is over SolveKnapsack's exact-work bound and so greedy. Replay
  // follows the same ranking, cost cutoff, and per-example lifetime cap as
  // RunReplayPass. Examples planned for eviction are never replayed.
  MaintenancePlan PlanMaintenance(const MaintenanceCut& cut, const MaintenanceTickSpec& spec,
                                  Rng& rng) const;

  // Serial application half: publishes the planned mutations against the
  // live store — DecayTick, planned removals, replay refinements — then
  // re-enforces the byte budget once so admissions that landed between cut
  // and apply (and replay token growth) cannot leave the pool above its
  // watermark. Ids evicted since the cut are skipped; outcomes are exact.
  // The re-enforcement (exact per-shard knapsacks on a sharded store) does
  // most of the evicting and runs on the caller's thread: the serving
  // driver's, between windows.
  MaintenanceApplyOutcome ApplyMaintenance(const MaintenancePlan& plan);

  const ManagerConfig& config() const { return config_; }

  // Maintenance cursor (snapshot persistence): the trace time of the last
  // decay tick, so a restored pool neither skips nor double-runs maintenance.
  double last_decay_time() const { return last_decay_time_; }
  void set_last_decay_time(double t) { last_decay_time_ = t; }

 private:
  ExampleStore* store_;
  GenerationSimulator* generator_;
  ModelProfile replay_model_;
  ManagerConfig config_;
  double last_decay_time_ = 0.0;
};

}  // namespace iccache

#endif  // SRC_CORE_MANAGER_H_
