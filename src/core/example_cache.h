// The example cache (section 4.3): plaintext storage of historical
// request-response pairs, an embedding index for stage-1 relevance retrieval,
// utility bookkeeping with hourly decay, and knapsack-based eviction under a
// byte-capacity budget.
#ifndef SRC_CORE_EXAMPLE_CACHE_H_
#define SRC_CORE_EXAMPLE_CACHE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/common/status.h"
#include "src/core/example.h"
#include "src/core/privacy.h"
#include "src/core/retrieval_backend.h"
#include "src/embedding/embedder.h"
#include "src/index/vector_index.h"

namespace iccache {

struct ExampleCacheConfig {
  // Byte budget; <= 0 means unbounded (the paper notes ~1 GB holds a million
  // LMSys examples, so most deployments are effectively unbounded).
  int64_t capacity_bytes = -1;
  // Eviction triggers when usage exceeds capacity * high_watermark and
  // evicts down to capacity * low_watermark (amortizes knapsack runs).
  double high_watermark = 1.0;
  double low_watermark = 0.9;
  // Utility decay applied by DecayTick (0.9 per hour in the paper).
  double decay_factor = 0.9;
  CacheAdmissionMode admission_mode = CacheAdmissionMode::kScrub;
  // Stage-1 retrieval backend (flat | kmeans | hnsw) and its tuning knobs.
  RetrievalBackendConfig retrieval;
  uint64_t seed = 0xcac4e;
};

class ExampleCache : public ExampleStore {
 public:
  ExampleCache(std::shared_ptr<const Embedder> embedder, ExampleCacheConfig config = {});

  // Admits a request-response pair (subject to the privacy admission mode)
  // and returns the new example id, or 0 when rejected.
  uint64_t Put(const Request& request, std::string response_text, double response_quality,
               double source_capability, int response_tokens, double now);

  // Pure half of an admission (ExampleStore): privacy decision + embedding of
  // the sanitized text. Const and side-effect free.
  PreparedAdmission PrepareAdmission(
      const Request& request, const std::vector<float>* text_embedding = nullptr) const override;

  // Stateful half (ExampleStore): inserts a prepared admission.
  uint64_t PutPrepared(const Request& request, PreparedAdmission prepared,
                       std::string response_text, double response_quality,
                       double source_capability, int response_tokens, double now) override;

  // Insertion path for callers that already ran the admission decision and
  // embedded the sanitized text (e.g. a concurrent driver moving embedding
  // work off its serial path). `embedding` must be the embedder's output for
  // `sanitized_text`.
  uint64_t PutPrepared(const Request& request, std::string sanitized_text,
                       std::vector<float> embedding, std::string response_text,
                       double response_quality, double source_capability, int response_tokens,
                       double now);

  // Stage-1 relevance lookup: top-k most similar cached examples.
  std::vector<SearchResult> FindSimilar(const Request& request, size_t k) const override;
  std::vector<SearchResult> FindSimilar(const std::vector<float>& embedding,
                                        size_t k) const override;
  // Routes the whole batch through the index's batched kernel (one interleaved
  // traversal over the caller's scratch); (*out)[i] == FindSimilar(q_i, k).
  void FindSimilarBatch(const float* queries, size_t num_queries, size_t query_dim, size_t k,
                        SearchScratch* scratch,
                        std::vector<std::vector<SearchResult>>* out) const override;

  const Example* Get(uint64_t id) const;
  Example* GetMutable(uint64_t id);
  bool Remove(uint64_t id) override;

  // Copies the example out, plus its stored index vector when asked for
  // and the backend keeps it exactly (ExampleStore); false when absent.
  bool Snapshot(uint64_t id, Example* out,
                std::vector<float>* embedding = nullptr) const override;

  // Marks an access (stage-2 consumed this example) for Figure 10 statistics
  // and recency bookkeeping.
  void RecordAccess(uint64_t id, double now) override;

  // Applies `mutate` to the stored example and refreshes byte accounting
  // (ExampleStore); false when absent.
  bool UpdateExample(uint64_t id, const std::function<void(Example&)>& mutate) override;

  // Credits the example for a successful offload (knapsack value).
  void RecordOffload(uint64_t id, double gain = 1.0) override;

  // Applies the hourly multiplicative decay to every example's value/gain.
  void DecayTick() override;

  // Runs knapsack eviction down to capacity; returns evicted ids. No-op when
  // unbounded or under the watermark.
  std::vector<uint64_t> EnforceCapacity() override;

  // Knapsack-evicts down to an explicit byte target regardless of the
  // configured budget (used by ShardedExampleCache's global watermark
  // accounting); returns evicted ids.
  std::vector<uint64_t> EvictToBytes(int64_t target_bytes);

  size_t size() const override { return examples_.size(); }
  int64_t used_bytes() const override { return used_bytes_; }
  const ExampleCacheConfig& config() const { return config_; }
  std::shared_ptr<const Embedder> embedder() const override { return embedder_; }
  const VectorIndex& index() const { return *index_; }

  // Snapshot of ids for iteration (replay scheduling, experiments).
  std::vector<uint64_t> AllIds() const override;

  // --- Persistence surface (ExampleStore) ----------------------------------
  void ExportExamples(
      const std::function<void(const Example&, const std::vector<float>&)>& fn) const override;
  MaintenanceCut ExportMaintenanceCut() const override;
  StoreSnapshotCut ExportSnapshotCut() const override;
  bool ImportExample(const Example& example, std::vector<float> embedding,
                     bool add_to_index) override;
  std::vector<uint64_t> ExportNextIds() const override;
  bool ImportNextIds(const std::vector<uint64_t>& next_ids) override;
  bool SaveIndexBlob(std::string* out) const override;
  bool LoadIndexBlob(const std::string& blob) override;

 private:
  std::shared_ptr<const Embedder> embedder_;
  ExampleCacheConfig config_;
  PiiScrubber scrubber_;
  std::unordered_map<uint64_t, Example> examples_;
  std::unique_ptr<VectorIndex> index_;
  int64_t used_bytes_ = 0;
  uint64_t next_id_ = 1;
};

}  // namespace iccache

#endif  // SRC_CORE_EXAMPLE_CACHE_H_
