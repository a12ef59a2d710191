// Unified stage-1 retrieval backend.
//
// Every component that performs embedding-similarity retrieval — ExampleCache,
// each ShardedExampleCache shard, the figure benches — routes through one
// pluggable VectorIndex chosen here:
//
//   flat   — exact brute force; the correctness reference and the
//            determinism-preserving default for small pools.
//   kmeans — inverted-file over K-Means clusters (the paper's section 4.1
//            offline clustering); approximate, rebuilds as the pool grows.
//   hnsw   — incremental graph ANN (src/index/hnsw.h); sub-millisecond
//            search at pool sizes where flat scans and stale clusters fail.
//
// The ExampleStore interface below is the consumer-side half of the
// unification: ExampleSelector runs against it, so the full selection
// pipeline (dynamic threshold, diversity, worst-to-best ordering) works
// identically over a plain ExampleCache and over the concurrent
// ShardedExampleCache the serving driver uses.
#ifndef SRC_CORE_RETRIEVAL_BACKEND_H_
#define SRC_CORE_RETRIEVAL_BACKEND_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/core/example.h"
#include "src/core/privacy.h"
#include "src/embedding/embedder.h"
#include "src/index/hnsw.h"
#include "src/index/vector_index.h"

namespace iccache {

enum class RetrievalBackendKind {
  kFlat,
  kKMeans,
  kHnsw,
};

// Embedding storage precision for backends that support quantization (today:
// hnsw). kInt8 stores each vector as dim int8 codes + one float scale (~3.9x
// less arena memory at dim=128) and re-ranks the top `rerank_k` candidates
// against the full-precision query, keeping recall@10 >= 0.95 of the float
// index at million-example pools.
enum class QuantizationKind {
  kNone,
  kInt8,
};

struct RetrievalBackendConfig {
  // kKMeans is the seed repo's behavior and stays the default.
  RetrievalBackendKind kind = RetrievalBackendKind::kKMeans;
  // K-Means: clusters probed per query.
  size_t nprobe = 3;
  // Embedding storage precision (hnsw only; flat/kmeans ignore it — they are
  // the exact references).
  QuantizationKind quantize = QuantizationKind::kNone;
  // Beam candidates re-scored at full precision before the final top-k cut
  // (only meaningful with quantize = kInt8).
  size_t rerank_k = 64;
  // HNSW knobs; `hnsw.dim` and `hnsw.seed` are overridden by the owning
  // cache (embedder dimension / per-shard seed) at construction, and
  // `hnsw.quantize_int8` / `hnsw.rerank_k` by the fields above.
  HnswIndexConfig hnsw;
};

// Builds the configured index with the given vector dimension and seed.
std::unique_ptr<VectorIndex> MakeRetrievalIndex(const RetrievalBackendConfig& config, size_t dim,
                                                uint64_t seed);

// True when the configured index keeps every added vector bit for bit (flat,
// kmeans, float hnsw), so GetVector returns exactly what was added; false
// for int8 hnsw, whose arena holds only quantized codes.
bool StoresExactVectors(const RetrievalBackendConfig& config);

// "flat" | "kmeans" | "hnsw".
const char* RetrievalBackendKindName(RetrievalBackendKind kind);

// Parses a backend name (as accepted by bench --index flags); returns false
// on an unknown name, leaving *out untouched.
bool ParseRetrievalBackendKind(const std::string& name, RetrievalBackendKind* out);

// "none" | "int8".
const char* QuantizationKindName(QuantizationKind kind);

// Parses a quantization name (bench --quantize flags); returns false on an
// unknown name, leaving *out untouched.
bool ParseQuantizationKind(const std::string& name, QuantizationKind* out);

// Result of the pure (parallel-phase) half of an admission: the privacy
// decision plus the embedding of the sanitized text. Produced by
// ExampleStore::PrepareAdmission, consumed by ExampleStore::PutPrepared.
struct PreparedAdmission {
  bool admit = false;
  std::string sanitized_text;
  std::vector<float> embedding;
};

// Shared implementation of PrepareAdmission for every store: privacy
// decision + embedding of the sanitized text. When the caller already
// embedded request.text, pass it as `text_embedding`; it is reused whenever
// scrubbing left the text unchanged (the PII-free common case).
PreparedAdmission PrepareAdmissionPayload(const PiiScrubber& scrubber, CacheAdmissionMode mode,
                                          const Embedder& embedder, const Request& request,
                                          const std::vector<float>* text_embedding);

// One exported pool entry: the full lifecycle record plus its index vector.
struct ExportedExample {
  Example example;
  std::vector<float> embedding;
};

// Result of ExampleStore::ExportSnapshotCut — see that method's contract.
struct StoreSnapshotCut {
  std::vector<ExportedExample> examples;  // ascending (global) id order
  std::vector<uint64_t> next_ids;         // per-shard insertion counters
  std::string index_blob;                 // empty when no native image
  bool native_index = false;
  int64_t used_bytes = 0;
};

// Epoch-consistent view of the pool for background maintenance planning
// (ExampleStore::ExportMaintenanceCut): every lifecycle record plus the byte
// accounting and the capacity/decay policy knobs the planner needs, all
// describing one instant. Much cheaper than ExportSnapshotCut — no
// embeddings, no native index image — because decay, knapsack eviction, and
// replay ranking only read the records.
struct MaintenanceCut {
  std::vector<Example> examples;  // ascending (global) id order
  int64_t used_bytes = 0;
  // Capacity policy of the owning store at cut time.
  int64_t capacity_bytes = -1;
  double high_watermark = 1.0;
  double low_watermark = 0.9;
  double decay_factor = 0.9;
};

// Surface the selection pipeline AND the example lifecycle layer
// (ExampleManager: admission, gain accounting, replay, decay + eviction) need
// from an example store. Implemented by ExampleCache (single-threaded) and
// ShardedExampleCache (concurrent). Snapshot copies the example out so no
// pointer escapes a shard lock; UpdateExample applies a mutation under it.
class ExampleStore {
 public:
  virtual ~ExampleStore() = default;

  // --- Selection surface ---------------------------------------------------

  // Stage-1 relevance lookup: top-k most similar cached examples.
  virtual std::vector<SearchResult> FindSimilar(const Request& request, size_t k) const = 0;
  virtual std::vector<SearchResult> FindSimilar(const std::vector<float>& embedding,
                                                size_t k) const = 0;

  // Batched stage-1 lookup over `num_queries` contiguous embeddings (query i
  // at queries[i*query_dim, (i+1)*query_dim)); (*out)[i] receives exactly
  // what FindSimilar(embedding_i, k) returns — batching is a locking and
  // cache-locality optimization, never a semantic one. `scratch` carries the
  // reusable per-thread search buffers (one scratch per thread); `out`'s
  // inner vectors retain capacity across calls, so steady-state batches do
  // not allocate. The base implementation loops over FindSimilar; stores
  // with batched indexes override (ExampleCache routes to
  // VectorIndex::SearchBatch, ShardedExampleCache takes each shard's shared
  // lock ONCE per batch instead of once per query).
  virtual void FindSimilarBatch(const float* queries, size_t num_queries, size_t query_dim,
                                size_t k, SearchScratch* scratch,
                                std::vector<std::vector<SearchResult>>* out) const;

  // Copies the example for id into *out; false when absent (e.g. evicted).
  // When `embedding` is non-null it receives, under the same lock, the
  // example's stored index vector, which is the embedder's output for
  // example.request.text, or is left empty when the backend does not keep
  // that output exactly (int8 hnsw; see StoresExactVectors).
  virtual bool Snapshot(uint64_t id, Example* out,
                        std::vector<float>* embedding = nullptr) const = 0;

  // Marks a stage-2 access for recency/statistics bookkeeping.
  virtual void RecordAccess(uint64_t id, double now) = 0;

  virtual std::shared_ptr<const Embedder> embedder() const = 0;

  // --- Lifecycle surface (Example Manager, section 4.3) --------------------

  // Pure half of an admission: privacy decision + embedding of the sanitized
  // text. Const and thread-safe; safe in a concurrent driver's parallel
  // phase. When the caller already embedded request.text (e.g. for
  // retrieval), pass it as `text_embedding` to skip a second embedding pass
  // on the PII-free common case.
  virtual PreparedAdmission PrepareAdmission(
      const Request& request, const std::vector<float>* text_embedding = nullptr) const = 0;

  // Stateful half: inserts a prepared admission. Returns the new example id,
  // or 0 when the preparation was rejected.
  virtual uint64_t PutPrepared(const Request& request, PreparedAdmission prepared,
                               std::string response_text, double response_quality,
                               double source_capability, int response_tokens, double now) = 0;

  // Applies `mutate` to the stored example under the store's write lock (gain
  // EMAs, replay state). Byte accounting is refreshed afterwards, so mutators
  // may change token counts. The example's `id` field is store-internal and
  // must not be read or written by the mutator; `request.text` must not
  // change either, because the index vector is its embedding. Returns false
  // when absent.
  virtual bool UpdateExample(uint64_t id, const std::function<void(Example&)>& mutate) = 0;

  // Credits the example for a successful offload (knapsack eviction value).
  virtual void RecordOffload(uint64_t id, double gain) = 0;

  // Removes the example (and its index entry); false when absent. Used by
  // maintenance batches that apply a background-planned eviction set.
  virtual bool Remove(uint64_t id) = 0;

  // Hourly multiplicative utility decay over every example.
  virtual void DecayTick() = 0;

  // Knapsack eviction down to the configured byte budget; returns evicted
  // ids. No-op when unbounded or under budget.
  virtual std::vector<uint64_t> EnforceCapacity() = 0;

  // Snapshot of ids for iteration (replay scheduling, experiments); sorted.
  virtual std::vector<uint64_t> AllIds() const = 0;

  virtual size_t size() const = 0;
  virtual int64_t used_bytes() const = 0;

  // --- Persistence surface (src/persist: snapshot/restore) -----------------

  // Iterates every live example in ascending id order together with its
  // stage-1 index embedding. Thread-safe on the sharded store (each example
  // is copied out under its shard lock) but NOT a consistent cut across
  // examples — concurrent snapshots must use ExportSnapshotCut.
  virtual void ExportExamples(
      const std::function<void(const Example&, const std::vector<float>&)>& fn) const = 0;

  // One atomically consistent export of everything background maintenance
  // needs: every example record, the byte accounting, and the capacity/decay
  // policy, all describing one instant (the sharded store holds every shard
  // lock, shared, for the duration). The epoch scheduler plans decay,
  // eviction, and replay against this view off the request path and applies
  // the resulting mutation batch at a later window boundary.
  virtual MaintenanceCut ExportMaintenanceCut() const = 0;

  // One atomically consistent export of everything a snapshot needs: the
  // example records (ascending id), the native index image, the insertion
  // counters, and the byte accounting all describe the SAME instant. The
  // sharded store holds every shard lock (shared, ascending order) for the
  // duration, so a checkpoint taken while other threads serve can never
  // capture an example the saved index image lacks (which would make it
  // silently unretrievable after a native-graph restore) or a byte count
  // that disagrees with the records.
  virtual StoreSnapshotCut ExportSnapshotCut() const = 0;

  // Re-inserts a previously exported example, preserving its id, every
  // lifecycle statistic, and byte accounting (the sharded store re-shards by
  // id and replays the delta through its global watermark counter, so
  // used_bytes() is exact after a restore). When `add_to_index` is false the
  // caller has already restored the retrieval index natively
  // (LoadIndexBlob). The embedding is indexed as given and is what Snapshot
  // hands back, so it must be the embedder's output for the example's text:
  // an int8 store exports dequantized vectors, fit only for an int8 store.
  // Returns false on id 0 or an id collision.
  virtual bool ImportExample(const Example& example, std::vector<float> embedding,
                             bool add_to_index) = 0;

  // Store-private insertion counters, one per shard (a plain cache is one
  // shard). Restoring them exactly — rather than max(id)+1 — is what makes
  // post-restore admissions assign the same ids the uninterrupted run would
  // have. ImportNextIds returns false on a shard-count mismatch; the store
  // then keeps the safe max(id)+1 counters ImportExample maintained.
  virtual std::vector<uint64_t> ExportNextIds() const = 0;
  virtual bool ImportNextIds(const std::vector<uint64_t>& next_ids) = 0;

  // Native retrieval-index image (HNSW graph save/load; one sub-blob per
  // shard). Returns false when the configured backend has no native format
  // (flat | kmeans) or the image does not match this store's geometry —
  // callers fall back to rebuilding the index from the exported embeddings,
  // which always works. A partially applied LoadIndexBlob is safe to follow
  // with the rebuild fallback: Add() has overwrite semantics in every
  // backend.
  virtual bool SaveIndexBlob(std::string* out) const = 0;
  virtual bool LoadIndexBlob(const std::string& blob) = 0;
};

}  // namespace iccache

#endif  // SRC_CORE_RETRIEVAL_BACKEND_H_
