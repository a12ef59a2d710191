// Mutex-sharded wrapper around ExampleCache for concurrent serving.
//
// The plain ExampleCache is single-threaded; the serving driver runs stage-1
// retrieval for a whole batch of requests in parallel, so cache reads must
// scale across workers while admissions still land safely. Requests are
// hashed onto `num_shards` independent ExampleCache shards, each guarded by
// its own std::shared_mutex: lookups take a shard-local shared lock (readers
// never contend with readers), admissions take an exclusive lock on exactly
// one shard.
//
// Example ids are globally unique: the shard index is encoded in the low bits
// of the public id (`global = inner << shard_bits | shard`), so ids returned
// by Put/FindSimilar round-trip through every other accessor.
//
// Admission is split in two so the expensive part (PII scrub + embedding) can
// run in a parallel phase: PrepareAdmission() is const and thread-safe;
// PutPrepared() takes the prepared payload and only pays the index insert
// under the shard's write lock.
//
// Capacity is a GLOBAL byte budget with watermark accounting: the shards
// themselves are unbounded, and the wrapper tracks total usage in an atomic
// counter. Any insert that pushes the total past capacity * high_watermark
// triggers eviction automatically (matching ExampleCache semantics, so no
// caller can forget it): the global target capacity * low_watermark is
// apportioned across shards in proportion to their current usage and each
// shard runs its own knapsack down to its slice — a hot shard keeps more of
// the budget than a cold one, unlike a fixed per-shard split.
#ifndef SRC_CORE_SHARDED_CACHE_H_
#define SRC_CORE_SHARDED_CACHE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "src/core/example_cache.h"

namespace iccache {

struct ShardedCacheConfig {
  // Rounded up to a power of two; each shard is an independent ExampleCache.
  size_t num_shards = 8;
  // Per-deployment settings; capacity_bytes is the TOTAL budget, enforced
  // globally with watermark accounting (see file comment).
  ExampleCacheConfig cache;
};

class ShardedExampleCache : public ExampleStore {
 public:
  ShardedExampleCache(std::shared_ptr<const Embedder> embedder, ShardedCacheConfig config = {});

  // --- Admission -----------------------------------------------------------

  // One-shot admission (scrub + embed + insert). Thread-safe.
  uint64_t Put(const Request& request, std::string response_text, double response_quality,
               double source_capability, int response_tokens, double now);

  // Parallel-phase half: admission decision plus embedding of the sanitized
  // text. Const and lock-free; safe to call from many workers at once. When
  // the caller already embedded request.text (e.g. for retrieval), pass it as
  // `text_embedding`: it is reused whenever scrubbing left the text unchanged,
  // saving a second embedding pass on the PII-free common case.
  PreparedAdmission PrepareAdmission(
      const Request& request, const std::vector<float>* text_embedding = nullptr) const override;

  // Serial-phase half: inserts a prepared admission (and auto-evicts when the
  // insert pushes total usage past capacity * high_watermark). Returns 0 when
  // the preparation was rejected.
  uint64_t PutPrepared(const Request& request, PreparedAdmission prepared,
                       std::string response_text, double response_quality,
                       double source_capability, int response_tokens, double now) override;

  // --- Lookup --------------------------------------------------------------

  // Global top-k: per-shard search under shared locks, merged best-first
  // (ties broken by id so results are deterministic).
  std::vector<SearchResult> FindSimilar(const Request& request, size_t k) const override;
  std::vector<SearchResult> FindSimilar(const std::vector<float>& embedding,
                                        size_t k) const override;

  // Batched global top-k: each shard's shared lock is taken ONCE for the
  // whole batch (FindSimilar pays one lock round-trip per query per shard)
  // and the shard's index runs its batched kernel over all queries before the
  // lock drops. Per query the merge is the same best-first (score desc, id
  // asc) sort-and-truncate as FindSimilar, so results are byte-identical.
  void FindSimilarBatch(const float* queries, size_t num_queries, size_t query_dim, size_t k,
                        SearchScratch* scratch,
                        std::vector<std::vector<SearchResult>>* out) const override;

  // Copies the example (and, when asked for, its exact stored index vector)
  // out under the shard lock (a pointer would dangle once the lock drops).
  // Returns false when absent.
  bool Snapshot(uint64_t id, Example* out,
                std::vector<float>* embedding = nullptr) const override;
  bool Contains(uint64_t id) const;

  // --- Bookkeeping ---------------------------------------------------------

  bool Remove(uint64_t id) override;
  void RecordAccess(uint64_t id, double now) override;
  bool UpdateExample(uint64_t id, const std::function<void(Example&)>& mutate) override;
  void RecordOffload(uint64_t id, double gain = 1.0) override;
  void DecayTick() override;

  // Global watermark eviction: when total usage exceeds the byte budget,
  // apportions capacity * low_watermark across shards in proportion to their
  // usage and runs each shard's knapsack down to its slice. Returns the
  // evicted global ids. Called automatically by PutPrepared past the high
  // watermark; safe (but non-deterministic in outcome order) under
  // concurrent mutation.
  std::vector<uint64_t> EnforceCapacity() override;

  size_t size() const override;
  int64_t used_bytes() const override { return used_bytes_total_.load(std::memory_order_relaxed); }
  std::vector<uint64_t> AllIds() const override;

  // --- Persistence surface (ExampleStore) ----------------------------------
  //
  // ImportExample re-shards by id — the shard index lives in the id's low
  // bits, so placing each example at `id & shard_mask` reproduces the id
  // round-trip under the CURRENT shard count — and applies the byte delta to
  // the global watermark counter under the shard lock, keeping used_bytes()
  // exact. Re-sharding into the same or a smaller shard count always works;
  // a LARGER count cannot represent ids below the new shard stride (they
  // would collapse to the reserved inner id 0), so such imports return false
  // and the restore fails cleanly. The native index image is one
  // length-prefixed HNSW graph per shard; LoadIndexBlob rejects it when the
  // shard count, backend, or graph geometry changed (restore then falls back
  // to rebuild-from-embeddings).
  //
  // Holds ALL shard locks (shared, ascending) so the records and byte counts
  // describe one instant — the epoch view background maintenance plans
  // against. No embeddings or graph image: much cheaper than a snapshot cut.
  MaintenanceCut ExportMaintenanceCut() const override;
  // Holds ALL shard locks (shared, ascending) while it streams, so the
  // records, index images, counters, and watermark bytes describe one
  // instant even mid-serving; each graph image is length-prefixed with its
  // GraphImageSize before it streams.
  Status StreamSnapshotCut(StoreSnapshotSink* sink) const override;
  bool ImportExample(const Example& example, std::vector<float> embedding,
                     bool add_to_index) override;
  std::vector<uint64_t> ExportNextIds() const override;
  bool ImportNextIds(const std::vector<uint64_t>& next_ids) override;
  bool HasNativeIndex() const override { return shards_[0].cache->HasNativeIndex(); }
  bool LoadIndexBlob(std::string_view blob) override;

  // Lifetime count of knapsack-evicted examples (maintenance observability).
  uint64_t evicted_total() const { return evicted_total_.load(std::memory_order_relaxed); }

  // --- Per-lane commit surface ---------------------------------------------
  //
  // A sharded commit pipeline inserts one window's admissions from several
  // lanes at once, one lane per shard (per-shard arrival order keeps the id
  // assignment deterministic). While those lanes run, the automatic
  // watermark eviction inside PutPrepared must be OFF: a global knapsack
  // triggered from whichever lane happens to cross the watermark first would
  // evict under a racing, scheduling-dependent pool view. The publisher
  // wraps the fan-out in set_defer_capacity(true/false) — the atomic byte
  // counter still tracks every insert — and is then responsible for
  // restoring the budget invariant itself at a deterministic point: the
  // serving driver treats it as a SOFT watermark, requesting a maintenance
  // eviction tick when the counter is over the trigger and running one
  // synchronous EnforceCapacity() before Run returns. Applying that tick
  // ends in EnforceCapacity() on the driver thread, whose exact per-shard
  // knapsacks perform most evictions (74% on churn256k; the background
  // planner's global knapsack is greedy). The store does NOT self-enforce
  // after a deferred fan-out.

  // Which shard PutPrepared will place this request's admission in. Lanes
  // and publish tasks group work by this value so each shard only ever sees
  // inserts from one task at a time.
  size_t shard_for_request(const Request& request) const { return ShardOfRequest(request); }

  // Suspends (true) / resumes (false) PutPrepared's automatic watermark
  // eviction. Set and cleared by the serial coordinator around a publish
  // fan-out; tasks observe it through the pool's synchronization.
  void set_defer_capacity(bool defer) {
    defer_capacity_.store(defer, std::memory_order_relaxed);
  }

  size_t num_shards() const { return shards_.size(); }
  std::shared_ptr<const Embedder> embedder() const override { return embedder_; }
  const ShardedCacheConfig& config() const { return config_; }

 private:
  struct Shard {
    mutable std::shared_mutex mu;
    std::unique_ptr<ExampleCache> cache;
  };

  size_t ShardOfRequest(const Request& request) const;
  size_t ShardOfId(uint64_t id) const { return id & shard_mask_; }
  uint64_t InnerId(uint64_t id) const { return id >> shard_bits_; }
  uint64_t GlobalId(uint64_t inner, size_t shard) const {
    return inner == 0 ? 0 : (inner << shard_bits_) | static_cast<uint64_t>(shard);
  }

  std::shared_ptr<const Embedder> embedder_;
  ShardedCacheConfig config_;
  PiiScrubber scrubber_;
  std::vector<Shard> shards_;
  size_t shard_bits_ = 0;
  uint64_t shard_mask_ = 0;
  // Global byte accounting; every delta is applied while holding the mutated
  // shard's write lock, so the counter tracks the exact sum of shard usage.
  std::atomic<int64_t> used_bytes_total_{0};
  std::atomic<uint64_t> evicted_total_{0};
  std::atomic<bool> defer_capacity_{false};
};

}  // namespace iccache

#endif  // SRC_CORE_SHARDED_CACHE_H_
