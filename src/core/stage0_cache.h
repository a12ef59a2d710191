// Stage-0 semantic response cache: the tier that runs BEFORE stage-1 example
// retrieval in both serving stacks. The cheapest request is the one never
// generated — when a new request's nearest cached neighbour clears the
// learned hit threshold, the stored response is returned verbatim at zero
// generation cost (InstCache-style predictive response caching; the hit
// decision is an embedding-similarity threshold as in "Efficient Prompt
// Caching via Embedding Similarity").
//
// This is the promotion of the old `src/baselines/semantic_cache.{h,cc}`
// GPTCache-style baseline into a first-class pipeline stage, fixing its
// latent bugs on the way in:
//
//   * bounded: exact/near-exact duplicate inserts merge into one entry
//     (keeping the better-quality response) and an entry + byte watermark is
//     enforced on every insert with a deterministic eviction ranking;
//   * exact index: the cache is capped at `max_entries` (4096 by default),
//     where a flat SIMD scan beats a graph beam per probe and an insert is
//     an append, so the serial merge never wires a graph node;
//   * no redundant embedding: every probe has an overload taking the
//     caller's already-computed request embedding;
//   * NearestSimilarity returns std::optional<double> — the old -1.0
//     empty-cache sentinel collided with legitimately negative cosines.
//
// Serving semantics layered on top:
//
//   * learned hit threshold — a ThresholdLearner, as for the selector's
//     utility threshold (grid of candidate thresholds, per-cell net-benefit
//     accounting fed by probe-sampled counterfactuals, cadence-driven
//     re-evaluation);
//   * staleness — entries older than `ttl_s` never hit and are expired at
//     maintenance boundaries; quality feedback below a fixed floor
//     (kInvalidateBelowQuality, stage0_cache.cc) invalidates the entry
//     outright.
//
// Concurrency contract (mirrors ExampleSelector): every const method is a
// pure read and safe to fan out across a driver's parallel prepare phase;
// every mutating method (Put / RecordHit / OnHitFeedback / AdvanceWindow /
// ExpireStale / Invalidate) must run on the serial path — the driver calls
// them only from the arrival-order merge and the window boundary, which the
// pipeline already orders against all concurrent probes.
#ifndef SRC_CORE_STAGE0_CACHE_H_
#define SRC_CORE_STAGE0_CACHE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/core/threshold_learner.h"
#include "src/embedding/embedder.h"
#include "src/index/vector_index.h"
#include "src/workload/request.h"

namespace iccache {

// One cached request-response pair. The response is represented by its
// latent quality and token count (the attributes downstream consumers read)
// plus the scrubbed plaintext for byte accounting, exactly like Example.
struct Stage0Entry {
  uint64_t id = 0;
  Request request;
  std::string response_text;
  double response_quality = 0.0;  // latent quality of the stored response
  int response_tokens = 0;

  double admitted_time = 0.0;  // refreshed when a duplicate insert merges
  double last_hit_time = 0.0;
  uint64_t hit_count = 0;

  int64_t SizeBytes() const {
    return static_cast<int64_t>(request.text.size() + response_text.size()) +
           4LL * (request.input_tokens + response_tokens);
  }
};

// Result of a pure probe: the nearest entry (snapshot copy — no pointer into
// the cache escapes), its similarity, and whether it is within TTL at the
// probe time. The threshold decision is NOT applied here: a concurrent
// driver probes in the parallel prepare phase but must judge the hit against
// the threshold FROZEN at its window start (see Confident), or lane count
// would leak into decisions.
struct Stage0Probe {
  Stage0Entry entry;
  double similarity = 0.0;
  bool fresh = true;
};

// Prepare-phase dedupe hint: the top-1 neighbour a pure Probe already found,
// letting the serial merge's Put skip its own index search. The id may be
// stale by merge time (evicted, or superseded by a same-window admission) —
// Put revalidates existence and always checks the exact-text map first.
struct Stage0DedupeHint {
  uint64_t id = 0;  // 0: the probe saw an empty cache
  double similarity = 0.0;
};

struct Stage0Config {
  // Master switch (DriverConfig/ServiceConfig embed this config). Off by
  // default: stage-0 changes the decision stream, so existing traces only
  // gain the tier when asked.
  bool enabled = false;

  // Hit decision. The threshold starts here and, with `learn_threshold`,
  // adapts over `threshold_grid` at `adapt_every_n_requests` cadence using
  // probe-sampled counterfactual feedback: on a deterministic `probe_rate`
  // slice of hits the response is ALSO generated fresh, and every grid cell
  // the hit's similarity clears is credited with
  //   (reused_quality - fresh_quality) + token_saving_weight * tokens_saved
  // — the cell with the best mean net benefit wins the next re-evaluation.
  double initial_hit_threshold = 0.92;
  bool learn_threshold = true;
  std::vector<double> threshold_grid = {0.85, 0.90, 0.94, 0.97, 0.99};
  size_t adapt_every_n_requests = 256;
  double token_saving_weight = 0.0004;
  static constexpr double probe_rate = 0.10;

  // Invalidation. `ttl_s` <= 0 disables staleness; otherwise entries older
  // than ttl_s never hit (Probe reports fresh=false) and ExpireStale removes
  // them. A served hit whose reuse quality lands below a fixed floor
  // (stage0_cache.cc) is removed immediately — the cached answer
  // demonstrably no longer fits the traffic matching it.
  double ttl_s = 0.0;

  // Admission / eviction. Only responses at or above `min_admit_quality`
  // are cached (a bad answer served twice is twice as bad). Near-exact
  // duplicates (similarity >= 0.995, or byte-identical text) merge into the
  // existing entry, keeping the better response.
  // Bounds are enforced on every insert: when `max_entries` or
  // capacity_bytes * high_watermark is crossed, entries are evicted down to
  // the low watermark in a deterministic worst-first order (least recently
  // useful, then lowest quality, then oldest id).
  double min_admit_quality = 0.45;
  size_t max_entries = 4096;
  int64_t capacity_bytes = -1;  // <= 0: no byte bound
  double high_watermark = 1.0;
  double low_watermark = 0.9;
};

class Stage0ResponseCache {
 public:
  explicit Stage0ResponseCache(std::shared_ptr<const Embedder> embedder,
                               Stage0Config config = {});

  // --- Pure probes (const, parallel-phase safe) ----------------------------

  // Nearest cached entry with its similarity and TTL freshness at `now`.
  // Thresholds are NOT applied — see Confident. nullopt when empty.
  // ProbeBatch at batch size 1 over a thread-local scratch.
  std::optional<Stage0Probe> Probe(const std::vector<float>& embedding, double now) const;
  std::optional<Stage0Probe> Probe(const Request& request, double now) const;

  // Batched Probe over `num_queries` contiguous embeddings (query i at
  // embeddings[i * query_dim]): runs the index's multi-query SearchBatch
  // through `scratch`, then resolves each top-1 hit to its entry, judging
  // freshness against nows[i]; out is resized to num_queries. Each query
  // resolves inside its own kStage0Probe trace span; the search runs before
  // the spans open.
  void ProbeBatch(const float* embeddings, size_t num_queries, size_t query_dim,
                  const double* nows, SearchScratch* scratch,
                  std::vector<std::optional<Stage0Probe>>* out) const;

  // Top-k fresh entries, best first (baseline LookupK path: retrieved
  // entries repurposed as in-context examples).
  std::vector<Stage0Probe> ProbeK(const std::vector<float>& embedding, size_t k,
                                  double now) const;

  // Nearest-neighbour similarity regardless of threshold or TTL; nullopt
  // when the cache is empty (NOT a negative sentinel — cosines can be
  // legitimately negative).
  std::optional<double> NearestSimilarity(const std::vector<float>& embedding) const;
  std::optional<double> NearestSimilarity(const Request& request) const;

  // Hit decision against the CURRENT threshold. In a concurrent driver the
  // threshold only moves at window boundaries (AdvanceWindow), so lanes
  // judge every request in a window against the same frozen value.
  bool Confident(const Stage0Probe& probe) const { return Clears(probe, hit_threshold()); }
  // The hit rule at an explicit threshold: a fresh probe at or above it.
  static bool Clears(const Stage0Probe& probe, double threshold) {
    return probe.fresh && probe.similarity >= threshold;
  }

  // --- Stateful mutations (serial merge / synchronous callers only) --------

  // Inserts a request-response pair (embedding-taking fast path). Returns
  // the entry id — the EXISTING id when the insert deduped into a
  // near-exact neighbour — or 0 when rejected by the quality gate. Enforces
  // the entry/byte bound before returning. When `dedupe_hint` is non-null
  // the near-exact dedupe uses the caller's prepare-phase probe instead of
  // a fresh index search (the concurrent driver's serial-path saving).
  uint64_t Put(const Request& request, std::vector<float> embedding,
               std::string response_text, double response_quality, int response_tokens,
               double now, const Stage0DedupeHint* dedupe_hint = nullptr);
  // Embeds internally (standalone/baseline path).
  uint64_t Put(const Request& request, double response_quality, int response_tokens,
               double now = 0.0);

  // Marks a served hit (recency + hit accounting for the eviction ranking).
  void RecordHit(uint64_t id, double now);

  // Removes the entry; false when absent.
  bool Invalidate(uint64_t id);

  // Quality-feedback invalidation: removes the entry when the observed
  // reuse quality fell below the invalidation floor. Returns true
  // when the entry was invalidated.
  bool OnQualityFeedback(uint64_t id, double observed_reuse_quality);

  // Removes every entry whose age exceeds ttl_s; returns how many. No-op
  // (returns 0) when ttl_s <= 0.
  size_t ExpireStale(double now);

  // --- Threshold learning --------------------------------------------------

  // Credits every grid threshold the hit's similarity clears with the
  // probe-measured net benefit; cells above the similarity would have missed
  // (fresh generation, zero benefit) and only advance their sample count.
  void OnHitFeedback(double similarity, double reused_quality, double fresh_quality,
                     int tokens_saved);

  // Counts `requests` toward the adaptation cadence and re-evaluates the
  // grid once when the counter crosses an adapt_every_n_requests multiple
  // (the driver calls this per window boundary, the service per request).
  // A no-op without `learn_threshold`.
  void AdvanceWindow(size_t requests) {
    if (config_.learn_threshold) {
      learner_.AdvanceWindow(requests);
    }
  }

  double hit_threshold() const { return learner_.threshold(); }
  // The highest hit threshold AdvanceWindow(pending) can leave: a probe that
  // Clears it is Confident after that call, whatever the re-evaluation picks.
  // The current threshold without `learn_threshold`.
  double HighestHitThresholdAfter(size_t pending) const {
    return config_.learn_threshold ? learner_.HighestThresholdAfter(pending) : hit_threshold();
  }
  void set_hit_threshold(double threshold) { learner_.set_threshold(threshold); }
  // The hit-threshold learner, whose state snapshots persist.
  const ThresholdLearner& learner() const { return learner_; }
  ThresholdLearner* mutable_learner() { return &learner_; }

  // --- Accessors / persistence ---------------------------------------------

  size_t size() const { return entries_.size(); }
  int64_t used_bytes() const { return used_bytes_; }
  const Stage0Config& config() const { return config_; }
  std::shared_ptr<const Embedder> embedder() const { return embedder_; }

  // Iterates every entry with its embedding in index scan order. Importing
  // the entries back in this order rebuilds an identical scan, so restored
  // probes match the writer's, equal-score tie-breaks included.
  void ExportEntries(
      const std::function<void(const Stage0Entry&, const std::vector<float>&)>& fn) const;
  // Re-inserts an exported entry preserving id, statistics, and byte
  // accounting. False, changing nothing, on id 0, a duplicate id, or an
  // embedding the index rejects (wrong length).
  bool ImportEntry(const Stage0Entry& entry, std::vector<float> embedding);

  uint64_t next_id() const { return next_id_; }
  void restore_next_id(uint64_t next_id);

 private:
  const Stage0Entry* Nearest(const std::vector<float>& embedding, double* similarity) const;
  bool RemoveEntry(uint64_t id);
  void EnforceBounds();

  std::shared_ptr<const Embedder> embedder_;
  Stage0Config config_;
  FlatIndex index_;
  std::unordered_map<uint64_t, Stage0Entry> entries_;
  // Exact-text dedupe: the driver's dedupe hint comes from a window-start
  // probe, which cannot see an identical text admitted earlier in the same
  // window.
  std::unordered_map<std::string, uint64_t> id_by_text_;
  uint64_t next_id_ = 1;
  int64_t used_bytes_ = 0;
  ThresholdLearner learner_;
};

}  // namespace iccache

#endif  // SRC_CORE_STAGE0_CACHE_H_
